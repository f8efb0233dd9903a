//! The streaming analyzer allocates nothing once its scratch is warm.
//!
//! A test-local counting allocator: this file is its own test binary, so
//! the `#[global_allocator]` reaches nothing else. Allocations are
//! counted per thread — the harness's own threads do not disturb the
//! count of the one running the test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use schemr_text::{AnalyzeScratch, Analyzer};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn a_warm_scratch_analyzes_a_thousand_names_without_allocating() {
    // camelCase, acronyms, digits, every delimiter, stemmable forms, stop
    // words and dictionary abbreviations, single- and multi-word.
    let shapes = [
        "PatientHeight",
        "patient_height_cm",
        "HTTPServerResponse",
        "icd10code",
        "pat_ht",
        "DOB",
        "fk_cust_id",
        "visit.diagnoses",
        "the-date of-admission",
        "qty",
        "relationalOperators2",
        "__",
    ];
    let names: Vec<String> = (0..1000)
        .map(|i| format!("{}{}", shapes[i % shapes.len()], i % 7))
        .collect();
    let pipelines = [
        Analyzer::for_names(),
        Analyzer::for_documents(),
        Analyzer::plain(),
    ];
    for analyzer in &pipelines {
        let mut scratch = AnalyzeScratch::default();
        let (mut terms, mut bytes) = (0usize, 0usize);
        // Warm-up: one call over the longest token any name holds grows
        // both buffers to their final size.
        analyzer.analyze_with("relationaloperators", &mut scratch, |_| {});
        let before = allocations();
        for name in &names {
            analyzer.analyze_with(name, &mut scratch, |term| {
                terms += 1;
                bytes += term.len();
            });
        }
        let allocated = allocations() - before;
        assert_eq!(allocated, 0, "allocations over 1,000 names");
        assert!(terms >= 1000 && bytes > terms, "the names were analyzed");
    }
}

#[test]
fn the_collecting_wrapper_is_what_allocates() {
    // The counter counts: the `Vec<String>` collector over the same core
    // pays one allocation per term at the least.
    let analyzer = Analyzer::for_names();
    let before = allocations();
    let terms = analyzer.analyze("patient_height_cm");
    assert!(allocations() - before >= terms.len() as u64);
}
