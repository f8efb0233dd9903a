//! What a search promises the allocator: its count does not grow with the
//! number of candidates it matches.
//!
//! Budgets, each stated beside its assertion:
//!
//! * a warm search over 200 candidates allocates at most
//!   [`PER_EXTRA_CANDIDATES`] (16) more times than the same search over
//!   50, traced and untraced. Phase 2's matrices and Phase 3's tables live
//!   in one scratch per search and only the rows that survive the limit
//!   get a `matches` list, so what is left to grow is a few doublings of
//!   the loop's flat arenas;
//! * a warm untraced search over 50 candidates allocates at most
//!   [`WARM_SEARCH_CEILING`] times, and a traced one at most
//!   [`WARM_TRACED_SEARCH_CEILING`] times;
//! * a warm [`Ensemble::run_into`] plus tightness-of-fit over a second
//!   candidate of the same shape allocates nothing at all.
//!
//! This file is its own test binary, so the counting `#[global_allocator]`
//! reaches nothing else. The engine budgets count the whole process, so an
//! allocation on any thread a search starts counts too, and every test
//! runs [`alone`] to keep the others' allocations out of that count.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use schemr::tightness::{tightness_of_fit_in, TightnessScratch};
use schemr::{EngineConfig, MatchedElement, SchemrEngine, SearchRequest, TightnessConfig};
use schemr_match::{Ensemble, MatchScratch};
use schemr_model::{DataType, QueryGraph, Schema, SchemaBuilder};
use schemr_obs::alloc::{process_alloc_count, thread_alloc_count, CountingAlloc};
use schemr_obs::TracerConfig;
use schemr_repo::Repository;
use schemr_text::Lexicon;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Hold while a test runs: one test at a time allocates.
fn alone() -> MutexGuard<'static, ()> {
    static ALONE: Mutex<()> = Mutex::new(());
    ALONE
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// What 150 more candidates may add to a warm search: the loop's flat
/// score, range, strength and matched-element arenas each doubling a few
/// more times. Before Phase 2 and 3 worked on one scratch the difference
/// was ≈1,500, about 10 allocations a candidate.
const PER_EXTRA_CANDIDATES: u64 = 16;

/// What a warm untraced search over 50 candidates may allocate in all:
/// 114, measured when Phase 2 moved onto the request's thread, plus 10%.
/// A second match thread cost ≈45–70 more (a spawn, a join and a second
/// scratch), which this ceiling would catch.
const WARM_SEARCH_CEILING: u64 = 126;

/// What the same search may allocate traced: 199, measured (debug and
/// release alike) once a span stopped repeating the trace header's
/// facts and the histograms stopped holding trace ids, plus 5. Before
/// that it took 217.
const WARM_TRACED_SEARCH_CEILING: u64 = 204;

/// Attribute names the schemas draw from, so candidates differ in shape
/// and in the words the matchers meet.
const WORDS: [&str; 12] = [
    "height",
    "gender",
    "weight",
    "diagnosis",
    "visit_date",
    "ward",
    "dose",
    "allergy",
    "blood_type",
    "pulse",
    "insurer",
    "discharge",
];

/// 260 schemas that every query term reaches: a `patient` entity with 2
/// to 7 attributes, some with a second entity joined by a foreign key.
fn repository() -> Arc<Repository> {
    let repo = Arc::new(Repository::new());
    for i in 0..260usize {
        let attrs = 2 + i % 6;
        let mut builder = SchemaBuilder::new(format!("registry {i}")).entity("patient", |mut e| {
            for a in 0..attrs {
                e = e.attr(WORDS[(i + 5 * a) % WORDS.len()], DataType::Text);
            }
            e
        });
        if i % 3 == 0 {
            builder = builder
                .entity("visit", |e| {
                    e.attr("patient_id", DataType::Integer)
                        .attr(WORDS[i % WORDS.len()], DataType::Date)
                })
                .foreign_key("visit", &["patient_id"], "patient", &[]);
        }
        repo.insert(
            format!("patient registry {i}"),
            "patient height gender".to_string(),
            builder.build_unchecked(),
        )
        .expect("generated schemas validate");
    }
    repo
}

/// Process-wide allocations of one warm search on an engine that sends
/// `top_candidates` candidates to Phase 2.
fn warm_search_allocations(repo: &Arc<Repository>, top_candidates: usize, traced: bool) -> u64 {
    let trace = if traced {
        // Nothing a debug build takes may land a search in the slowlog.
        TracerConfig {
            slow_threshold: Duration::from_secs(3600),
            ..TracerConfig::default()
        }
    } else {
        TracerConfig::disabled()
    };
    let engine = SchemrEngine::with_config(
        repo.clone(),
        EngineConfig {
            top_candidates,
            trace,
            ..EngineConfig::default()
        },
    );
    engine.reindex_full();
    let request = SearchRequest::keywords(["patient", "height", "gender", "diagnosis"]);
    // Warm: the candidate cache, the artifact cache, the lexicon and the
    // trace ring have met this search.
    for _ in 0..3 {
        engine.search_detailed(&request).unwrap();
    }
    let before = process_alloc_count();
    let response = engine.search_detailed(&request).unwrap();
    let allocations = process_alloc_count() - before;
    assert_eq!(response.candidates_evaluated, top_candidates);
    allocations
}

#[test]
fn a_warm_search_allocates_per_request_not_per_candidate() {
    let _alone = alone();
    let repo = repository();
    for traced in [false, true] {
        let few = warm_search_allocations(&repo, 50, traced);
        let many = warm_search_allocations(&repo, 200, traced);
        assert!(
            many <= few + PER_EXTRA_CANDIDATES,
            "traced {traced}: {few} allocations over 50 candidates, {many} over 200"
        );
        let ceiling = if traced {
            WARM_TRACED_SEARCH_CEILING
        } else {
            WARM_SEARCH_CEILING
        };
        assert!(
            few <= ceiling,
            "traced {traced}: {few} allocations over 50 candidates, ceiling {ceiling}"
        );
    }
}

/// A candidate with `attrs` attributes under a `patient` entity.
fn candidate(title: &str, attrs: usize) -> Schema {
    SchemaBuilder::new(title)
        .entity("patient", |mut e| {
            for word in &WORDS[..attrs] {
                e = e.attr(*word, DataType::Text);
            }
            e
        })
        .build_unchecked()
}

#[test]
fn a_warm_run_into_and_tightness_allocate_nothing_for_a_second_candidate() {
    let _alone = alone();
    let mut query = QueryGraph::new();
    query.add_fragment(candidate("fragment", 3));
    query.add_keyword("diagnosis");
    let terms = query.terms();
    let ensemble = Ensemble::standard();
    let lexicon = Lexicon::new();
    let equery = ensemble.prepare_query(&terms, &query);
    let (first, second) = (candidate("first", 6), candidate("second", 6));
    let (pfirst, psecond) = (
        ensemble.prepare(&first, &lexicon),
        ensemble.prepare(&second, &lexicon),
    );
    let mut scratch = MatchScratch::new(&equery, &lexicon);
    let mut tightness = TightnessScratch::default();
    let mut wall = vec![Duration::ZERO; ensemble.len()];
    let mut strengths: Vec<f64> = Vec::with_capacity(2 * ensemble.len());
    let mut matched: Vec<MatchedElement> = Vec::with_capacity(2 * first.len());
    let config = TightnessConfig::default();
    let mut score = |candidate: &Schema, prepared| {
        let combined = ensemble.run_into(
            &terms,
            &query,
            prepared,
            candidate,
            &mut scratch,
            &mut wall,
            Some(&mut strengths),
        );
        let fit = tightness_of_fit_in(candidate, combined, &config, &mut tightness, &mut matched);
        (fit.score, matched.len())
    };
    let (warm, first_matched) = score(&first, &pfirst);
    let before = thread_alloc_count();
    let (again, both_matched) = score(&second, &psecond);
    let allocations = thread_alloc_count() - before;
    assert_eq!(allocations, 0, "a second candidate of the same shape");
    // The same shape and names: the same score and matches, appended.
    assert!(warm > 0.0);
    assert_eq!(warm.to_bits(), again.to_bits());
    assert_eq!(both_matched, 2 * first_matched);
    assert_eq!(strengths.len(), 2 * ensemble.len());
}
