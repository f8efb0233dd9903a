//! What the flat layout promises the allocator: loading allocates a fixed
//! few blocks a segment whatever it holds, publishing the head allocates
//! nothing per posting, and the index's reported size is what a load asks
//! the allocator for. And what the write session promises it: a warm one
//! allocates nothing per document or occurrence, a cold one a small
//! constant. And what a bulk load promises: a head costs a constant and
//! its dictionary entries, nothing per postings list, and its analysers a
//! constant each, nothing a batch.
//!
//! This file is its own test binary, so the counting `#[global_allocator]`
//! reaches nothing else. Most counts are per thread; a bulk load's spread
//! over threads it spawns, so it counts the whole process, and every test
//! runs [`alone`] to keep the others' allocations out of that count.

use std::sync::{Mutex, MutexGuard};

use schemr_index::{codec, Index, IndexChange, OwnedDocument, SearchOptions};
use schemr_model::SchemaId;
use schemr_obs::alloc::{
    process_alloc_count, thread_alloc_bytes, thread_alloc_count, CountingAlloc,
};
use schemr_obs::DeepSize;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Hold while a test runs: one test at a time allocates.
fn alone() -> MutexGuard<'static, ()> {
    static ALONE: Mutex<()> = Mutex::new(());
    ALONE
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Allocation events and bytes requested on this thread while `f` runs.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (count, bytes) = (thread_alloc_count(), thread_alloc_bytes());
    let out = f();
    (
        out,
        thread_alloc_count() - count,
        thread_alloc_bytes() - bytes,
    )
}

/// A schema-sized document: `elements` compound names over a vocabulary
/// wide enough that segments hold a few hundred lists.
fn doc(id: u64, elements: usize) -> OwnedDocument {
    doc_over(id, elements, 211)
}

/// [`doc`] over a vocabulary of `words` words.
fn doc_over(id: u64, elements: usize, words: u64) -> OwnedDocument {
    let word = |i: u64| format!("w{}", (id * 7 + i * 13) % words);
    let elements =
        (0..elements as u64).map(|i| format!("{}.{}_{}", word(i), word(i + 1), word(i + 2)));
    OwnedDocument::new(id, &format!("{} {}", word(0), word(1)), elements)
        .with_summary(&format!("the {} of {}", word(2), word(3)))
        .with_docs([format!("{} in {}", word(4), word(5))])
}

/// `segments` sealed segments of 128 documents plus a head, with
/// tombstones in both.
fn index_of(segments: u64, elements: usize) -> Index {
    let index = Index::new().with_seal_threshold(128);
    let docs: Vec<OwnedDocument> = (0..segments * 128 + 40)
        .map(|id| doc(id, elements))
        .collect();
    index.apply(docs.iter().map(|d| IndexChange::Put(d.view())));
    for id in (0..segments * 128 + 40).step_by(17) {
        assert!(index.remove(SchemaId(id)));
    }
    assert_eq!(index.segment_count() as u64, segments + 1);
    index
}

/// A load's allocations a segment: the columns, the id map, the overlay,
/// the shells around them. Above what the layout needs today (≈20), far
/// below one per posting.
const PER_SEGMENT: u64 = 32;

#[test]
fn decode_allocates_per_segment_not_per_posting() {
    let _alone = alone();
    // Any index starts with its two analyzers' dictionaries.
    let (_, empty_index, _) = counted(Index::new);
    let mut counts = Vec::new();
    for elements in [1, 60] {
        let index = index_of(3, elements);
        let bytes = codec::encode(&index);
        let (decoded, allocations, _) = counted(|| codec::decode(&bytes).unwrap());
        let stats = decoded.stats();
        assert_eq!(stats, index.stats());
        assert!(
            allocations - empty_index <= PER_SEGMENT * decoded.segment_count() as u64,
            "{allocations} allocations ({empty_index} of them an empty index) for {} segments, {} postings",
            decoded.segment_count(),
            stats.postings
        );
        counts.push((allocations, stats.postings));
    }
    let [(few, small), (many, large)] = counts[..] else {
        unreachable!()
    };
    assert!(large > 4 * small, "{large} postings against {small}");
    assert_eq!(few, many, "and loads with the same allocations");
}

#[test]
fn a_load_allocates_what_stays_resident() {
    let _alone = alone();
    let index = index_of(4, 24);
    let bytes = codec::encode(&index);
    let (decoded, _, requested) = counted(|| codec::decode(&bytes).unwrap());
    let reported = decoded.deep_size_of_children() as f64;
    let requested = requested as f64;
    assert!(
        (reported - requested).abs() <= 0.10 * requested,
        "deep_bytes {reported} vs {requested} bytes requested by the load"
    );
    // And the file is those same columns: no wider, no narrower.
    assert!((bytes.len() as f64 - reported).abs() <= 0.10 * reported);
}

#[test]
fn publishing_the_head_allocates_nothing_per_posting() {
    let _alone = alone();
    // One-document adds into a small head and into one ten times fuller:
    // each analyzes, appends, freezes what it added into the head's
    // newest run and publishes (67 and 66 an add; 75 and 78 when every
    // publish froze the whole head).
    let mut per_add = Vec::new();
    for head_docs in [50u64, 500] {
        let index = Index::new();
        let docs: Vec<OwnedDocument> = (0..head_docs).map(|id| doc(id, 24)).collect();
        index.apply(docs.iter().map(|d| IndexChange::Put(d.view())));
        let postings = index.stats().postings;
        // Re-adding replaces: every term is known, the head only grows.
        let (_, allocations, _) =
            counted(|| docs[..8].iter().for_each(|doc| index.add(doc.view())));
        per_add.push((allocations / 8, postings));
    }
    let [(small_head, few), (large_head, many)] = per_add[..] else {
        unreachable!()
    };
    assert!(many > 8 * few);
    assert!(
        large_head <= small_head + 16 && large_head < 100,
        "{small_head} allocations an add over {few} postings, {large_head} over {many}"
    );
}

#[test]
fn a_warm_session_allocates_nothing_per_document_or_occurrence() {
    let _alone = alone();
    // A session that has seen the vocabulary and sized its batch buffers
    // adds 1,024 more documents to a head that already holds 1,024. What
    // is left to allocate is the head's growth — its flat posting columns
    // doubling once — and one publish (61 in all; ≈200 when each of the
    // head's ≈50 lists had columns of its own): nothing per document,
    // where the three `Vec`s a document of the path before the session
    // read 3,284 here, and no more for documents five times the size.
    for elements in [12, 60] {
        let index = Index::new().with_seal_threshold(4096);
        let docs: Vec<OwnedDocument> = (0..2048).map(|id| doc_over(id, elements, 13)).collect();
        let mut session = index.session();
        session.apply(docs[..1024].iter().map(|d| IndexChange::Put(d.view())));
        let (applied, allocations, _) =
            counted(|| session.apply(docs[1024..].iter().map(|d| IndexChange::Put(d.view()))));
        assert_eq!(applied, 1024);
        assert!(
            allocations < 512,
            "{allocations} allocations for 1,024 documents of {elements} elements"
        );
    }
}

/// What an analyser of a bulk load may cost beyond the serial build: its
/// thread, its two channels and a session's cold tables (≈55 today).
const PER_ANALYSER: u64 = 96;

#[test]
fn a_pipelined_build_allocates_the_serial_builds_plus_its_analysers() {
    // 2,000 documents in 125 batches of 16: anything the pipeline paid
    // per batch would be 125 allocations at the least.
    let _alone = alone();
    let docs: Vec<OwnedDocument> = (0..2_000).map(|id| doc(id, 24)).collect();
    let build = |analysers| {
        let index = Index::new().with_seal_threshold(16);
        let before = process_alloc_count();
        let (_, caller, _) = counted(|| index.bulk_load(&docs, analysers, OwnedDocument::view));
        (process_alloc_count() - before, caller)
    };
    let (serial, _) = build(1);
    let (pipelined, caller) = build(2);
    assert!(
        pipelined <= serial + 2 * PER_ANALYSER,
        "{pipelined} allocations with two analysers, {serial} with one"
    );
    // The heads, segments and snapshots stay on the calling thread: it
    // is spared only the session's tables.
    assert!(
        caller + PER_ANALYSER >= serial,
        "the calling thread allocated {caller} of {pipelined}, {serial} building alone"
    );
}

/// What a serial bulk build may allocate a head beyond its lists: its
/// flat posting columns growing, its freeze and publish, its share of
/// the write session's tables.
const PER_HEAD: u64 = 320;
/// And a distinct `(field, term)` of a head: a share of its dictionary's
/// text arena and tables growing. The build below reads 2,021
/// allocations in all, ≈0.3 a list; a `BTreeMap` dictionary with a
/// `String` a term read 8,928 (≈1.3), five growing vectors a list 61,600
/// (≈9.1).
const PER_LIST: u64 = 2;

#[test]
fn a_bulk_build_allocates_per_head_not_per_postings_list() {
    // 2,000 documents over a 211-word vocabulary in eight heads of 250:
    // each head holds several hundred lists, so anything paid a list
    // outweighs what is paid a head.
    let _alone = alone();
    let docs: Vec<OwnedDocument> = (0..2_000).map(|id| doc(id, 24)).collect();
    const THRESHOLD: usize = 250;
    let (heads, lists) = docs
        .chunks(THRESHOLD)
        .fold((0, 0), |(heads, lists), batch| {
            let head = Index::new();
            head.apply(batch.iter().map(|d| IndexChange::Put(d.view())));
            (heads + 1, lists + head.stats().distinct_terms as u64)
        });
    let index = Index::new().with_seal_threshold(THRESHOLD);
    let (_, allocations, _) = counted(|| index.bulk_load(&docs, 1, OwnedDocument::view));
    assert_eq!(index.segment_count() as u64, heads);
    assert!(
        allocations <= PER_HEAD * heads + PER_LIST * lists,
        "{allocations} allocations for {heads} heads of {lists} lists in all"
    );
}

#[test]
fn a_cold_two_document_apply_allocates_a_small_constant() {
    let _alone = alone();
    // What a scheduler tick's batch pays for opening a session of its own:
    // the tables start at a small batch's size and do not grow in one
    // (69 here). The path this replaced — three `Vec`s a document and a
    // scratch arena — read 57; the session may cost at most 24 more.
    const HEAD_COLD: u64 = 57;
    let index = Index::new();
    let warm: Vec<OwnedDocument> = (0..50).map(|id| doc(id, 24)).collect();
    index.apply(warm.iter().map(|d| IndexChange::Put(d.view())));
    let batch = [doc(3, 24), doc(4, 24)];
    let (applied, allocations, _) =
        counted(|| index.apply(batch.iter().map(|d| IndexChange::Put(d.view()))));
    assert_eq!(applied, 2);
    assert!(
        allocations <= HEAD_COLD + 24,
        "{allocations} allocations for a cold two-document apply"
    );
}

/// What a warm search may allocate over 30 segments beyond the same
/// search over one: the per-segment plan, bounds and block decoders live
/// in the thread's scratch, so nothing is paid a segment (0 measured;
/// the per-segment buffers this replaced cost ≈7 a segment and search).
const SEGMENTS_EXTRA: u64 = 4;

#[test]
fn a_warm_search_allocates_per_search_not_per_segment() {
    let _alone = alone();
    let docs: Vec<OwnedDocument> = (0..30 * 64).map(|id| doc_over(id, 12, 97)).collect();
    let build = |threshold| {
        let index = Index::new().with_seal_threshold(threshold);
        index.apply(docs.iter().map(|d| IndexChange::Put(d.view())));
        index
    };
    let (many, one) = (build(64), build(usize::MAX));
    assert_eq!((many.segment_count(), one.segment_count()), (30, 1));
    let queries = [
        vec!["w1", "w2", "w3"],
        vec!["w5", "w17", "w40", "w41"],
        vec!["w8"],
    ];
    let options = SearchOptions::default();
    let searches = |index: &Index| {
        for query in &queries {
            assert!(!index.search(query, &options).is_empty());
        }
    };
    searches(&many);
    searches(&one);
    let (_, over_many, _) = counted(|| searches(&many));
    let (_, over_one, _) = counted(|| searches(&one));
    assert!(
        over_many <= over_one + SEGMENTS_EXTRA,
        "{over_many} allocations over 30 segments, {over_one} over one"
    );
}
