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
//!   [`WARM_TRACED_SEARCH_CEILING`] times and at most [`TRACING_EXTRA`]
//!   more than the untraced one;
//! * a warm [`Ensemble::run_into`] plus tightness-of-fit over a second
//!   candidate of the same shape allocates nothing at all;
//! * a warm-scratch [`Ensemble::prepare_into`] of a second candidate on a
//!   warm lexicon allocates only the bundle it returns;
//! * a search whose every candidate misses the artifact cache, every word
//!   already in the lexicon, allocates at most [`PER_MISS`] (8) times a
//!   miss, amortised: 200 misses at most 150 × 8 + 16 more than 50;
//! * a traced warm search's ledger counts some allocations, and no more
//!   than its thread made across the whole `search_detailed` call.
//!
//! This file is its own test binary, so the counting `#[global_allocator]`
//! reaches nothing else. The engine budgets count the whole process, so an
//! allocation on any thread a search starts counts too, and every test
//! runs [`alone`] to keep the others' allocations out of that count.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use schemr::tightness::{tightness_of_fit_in, TightnessScratch};
use schemr::{EngineConfig, MatchedElement, SchemrEngine, SearchRequest, TightnessConfig};
use schemr_match::{Ensemble, MatchScratch, PrepareScratch};
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

/// What the same search may allocate traced: 122, measured (debug and
/// release alike; 113 untraced) once a trace became its event record plus
/// a few numbers and its span tree was rendered only on read, plus 5.
/// While the engine stored the tree, with string annotations and a
/// string per matcher span and per result, it took 199.
const WARM_TRACED_SEARCH_CEILING: u64 = 127;

/// What tracing may add to a warm search: the trace id, the query text,
/// the result and strength lists, the matcher walls and the retained
/// trace itself, each one allocation, and a few to spare.
const TRACING_EXTRA: u64 = 16;

/// What an artifact miss may allocate, amortised, when the lexicon knows
/// every word: the `Arc` the bundle is shared through, its `per_matcher`
/// list, two exact-size lists per matcher of the standard pair, and the
/// cache's B-tree filing now and then. Before a miss prepared in one
/// scratch per search it took ≈31.
const PER_MISS: u64 = 8;

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

/// The query every engine budget runs.
fn request() -> SearchRequest {
    SearchRequest::keywords(["patient", "height", "gender", "diagnosis"])
}

/// An engine that sends `top_candidates` candidates to Phase 2, warm:
/// the candidate cache, the artifact cache, the lexicon and the trace
/// ring have met [`request`].
fn warm_engine(repo: &Arc<Repository>, top_candidates: usize, traced: bool) -> SchemrEngine {
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
    for _ in 0..3 {
        engine.search_detailed(&request()).unwrap();
    }
    engine
}

/// Process-wide allocations of one warm search on an engine that sends
/// `top_candidates` candidates to Phase 2.
fn warm_search_allocations(repo: &Arc<Repository>, top_candidates: usize, traced: bool) -> u64 {
    let engine = warm_engine(repo, top_candidates, traced);
    let request = request();
    let before = process_alloc_count();
    let response = engine.search_detailed(&request).unwrap();
    let allocations = process_alloc_count() - before;
    assert_eq!(response.candidates_evaluated, top_candidates);
    allocations
}

#[test]
fn a_traced_search_ledger_counts_its_threads_allocations() {
    let _alone = alone();
    let engine = warm_engine(&repository(), 50, true);
    let request = request();
    let before = thread_alloc_count();
    let response = engine.search_detailed(&request).unwrap();
    let allocations = thread_alloc_count() - before;
    let ledger = response.ledger.expect("a traced search reports its ledger");
    // The ledger is read inside the call, after the search's first clock
    // reading and before the trace is filed: some of the call's
    // allocations, never more than all of them.
    assert!(ledger.alloc_count > 0, "{ledger:?}");
    assert!(
        ledger.alloc_count <= allocations,
        "ledger {} allocations, the call {allocations}",
        ledger.alloc_count
    );
}

#[test]
fn a_warm_search_allocates_per_request_not_per_candidate() {
    let _alone = alone();
    let repo = repository();
    let mut untraced = 0;
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
        if traced {
            assert!(
                few <= untraced + TRACING_EXTRA,
                "{few} allocations traced, {untraced} untraced"
            );
        }
        untraced = few;
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

#[test]
fn a_warm_scratch_prepare_into_allocates_only_the_bundle() {
    let _alone = alone();
    let ensemble = Ensemble::standard();
    let lexicon = Lexicon::new();
    // The scratch grows on the widest candidate; the second, narrower and
    // of other words, finds every buffer big enough.
    let (widest, second) = (candidate("widest", WORDS.len()), {
        SchemaBuilder::new("second")
            .entity("visit", |mut e| {
                for word in &WORDS[6..] {
                    e = e.attr(*word, DataType::Text);
                }
                e
            })
            .build_unchecked()
    });
    let fresh = ensemble.prepare(&second, &lexicon); // interns its words
    let mut scratch = PrepareScratch::default();
    ensemble.prepare_into(&widest, &lexicon, &mut scratch);
    let words = lexicon.len();
    let before = thread_alloc_count();
    let bundle = ensemble.prepare_into(&second, &lexicon, &mut scratch);
    let allocations = thread_alloc_count() - before;
    // `per_matcher`, then the name matcher's words and the context
    // matcher's neighborhoods, each an items and an ends list.
    assert_eq!(
        allocations,
        1 + 2 * ensemble.len() as u64,
        "the bundle alone"
    );
    assert_eq!(lexicon.len(), words, "a warm lexicon: lookups only");
    assert_eq!(
        bundle, fresh,
        "a reused scratch prepares what fresh buffers do"
    );
    assert_eq!(bundle.bytes, fresh.bytes);
}

/// Process-wide allocations of one search whose `top_candidates`
/// candidates all miss the artifact cache while the lexicon knows their
/// every word, and the misses it counted: a warm engine whose schemas were
/// each updated to the same content, which bumps every revision, then
/// reindexed incrementally.
fn all_miss_search_allocations(top_candidates: usize) -> (u64, u64) {
    let repo = repository();
    let engine = SchemrEngine::with_config(
        repo.clone(),
        EngineConfig {
            top_candidates,
            trace: TracerConfig::disabled(),
            ..EngineConfig::default()
        },
    );
    engine.reindex_full();
    let request = request();
    for _ in 0..3 {
        engine.search_detailed(&request).unwrap();
    }
    for stored in repo.snapshot() {
        repo.update(stored.metadata.id, stored.schema.clone())
            .expect("an unchanged schema validates");
    }
    assert_eq!(engine.reindex_incremental(), 260);
    let words = engine.memory_report().lexicon_words;
    let misses = engine.metrics().match_artifact_cache_misses.get();
    let before = process_alloc_count();
    let response = engine.search_detailed(&request).unwrap();
    let allocations = process_alloc_count() - before;
    assert_eq!(response.candidates_evaluated, top_candidates);
    assert_eq!(
        engine.memory_report().lexicon_words,
        words,
        "every word known"
    );
    let misses = engine.metrics().match_artifact_cache_misses.get() - misses;
    (allocations, misses)
}

#[test]
fn an_artifact_miss_allocates_its_bundle_and_little_else() {
    let _alone = alone();
    let (few, few_misses) = all_miss_search_allocations(50);
    let (many, many_misses) = all_miss_search_allocations(200);
    assert_eq!(
        (few_misses, many_misses),
        (50, 200),
        "every candidate misses"
    );
    assert!(
        many <= few + 150 * PER_MISS + PER_EXTRA_CANDIDATES,
        "{few} allocations over 50 misses, {many} over 200"
    );
}
