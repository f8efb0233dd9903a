//! Property-style check: the revision-keyed candidate cache never changes
//! what Phase 1 returns. A cached engine and an uncached engine walk the
//! same generated corpus through queries, repeats, mutations, and a
//! merge, and their ranked candidate lists must stay identical at every
//! step. Deterministic by construction (seeded corpus, fixed query
//! derivation) — no property-testing framework needed.

use std::sync::Arc;

use schemr::{EngineConfig, IndexScheduler, SchemrEngine, SearchRequest};
use schemr_corpus::{Corpus, CorpusConfig};
use schemr_index::Hit;
use schemr_model::SchemaId;
use schemr_repo::Repository;

/// Load every corpus schema into a fresh repository.
fn build_repo(corpus: &Corpus) -> (Arc<Repository>, Vec<SchemaId>) {
    let repo = Arc::new(Repository::new());
    let mut ids = Vec::with_capacity(corpus.schemas.len());
    for labeled in &corpus.schemas {
        ids.push(
            repo.insert(
                labeled.title.clone(),
                labeled.summary.clone(),
                labeled.schema.clone(),
            )
            .expect("corpus schemas validate"),
        );
    }
    (repo, ids)
}

/// Derive a deterministic keyword query from corpus schema `i`: its title
/// plus a stride of its element paths.
fn query_for(corpus: &Corpus, i: usize) -> SearchRequest {
    let labeled = &corpus.schemas[i];
    let mut words = vec![labeled.title.clone()];
    let paths: Vec<String> = labeled
        .schema
        .ids()
        .map(|el| labeled.schema.path(el))
        .collect();
    for path in paths.iter().step_by(3).take(3) {
        words.push(path.clone());
    }
    SearchRequest::keywords(words)
}

fn assert_same_hits(a: &[Hit], b: &[Hit], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: hit count differs");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.id, y.id, "{what}: ranking differs");
        assert_eq!(x.matched_terms, y.matched_terms, "{what}");
        assert!(
            (x.score - y.score).abs() < 1e-12,
            "{what}: scores differ: {} vs {}",
            x.score,
            y.score
        );
    }
}

#[test]
fn cached_and_uncached_candidates_agree_across_churn() {
    let corpus = Corpus::generate(&CorpusConfig::small(42));
    assert!(corpus.schemas.len() >= 20, "corpus too small to be a test");
    let (repo, ids) = build_repo(&corpus);

    let cached = SchemrEngine::with_config(
        repo.clone(),
        EngineConfig {
            candidate_cache_entries: 64,
            ..Default::default()
        },
    );
    let uncached = SchemrEngine::with_config(
        repo.clone(),
        EngineConfig {
            candidate_cache_entries: 0,
            ..Default::default()
        },
    );
    cached.reindex_full();
    uncached.reindex_full();

    let queries: Vec<SearchRequest> = (0..corpus.schemas.len())
        .step_by(2)
        .map(|i| query_for(&corpus, i))
        .collect();

    // Cold pass (fills the cache), warm pass (serves from it) — both must
    // match the uncached engine exactly.
    for pass in ["cold", "warm"] {
        for (qi, request) in queries.iter().enumerate() {
            let graph = request.query_graph();
            let a = cached.extract_candidates(&graph);
            let b = uncached.extract_candidates(&graph);
            assert_same_hits(&a, &b, &format!("{pass} pass, query {qi}"));
        }
    }
    let reg = cached.metrics_registry();
    let hits_after_warm = reg
        .counter_value("schemr_candidate_cache_hits_total", &[])
        .unwrap();
    assert!(
        hits_after_warm >= queries.len() as u64,
        "warm pass should be served from cache, got {hits_after_warm} hits"
    );

    // Mutate: delete a third of the schemas and re-add one. The revision
    // moves, so every cached entry is stale; answers must still match.
    for id in ids.iter().step_by(3) {
        repo.remove(*id).unwrap();
    }
    cached.reindex_incremental();
    uncached.reindex_incremental();
    for (qi, request) in queries.iter().enumerate() {
        let graph = request.query_graph();
        let a = cached.extract_candidates(&graph);
        let b = uncached.extract_candidates(&graph);
        assert_same_hits(&a, &b, &format!("post-delete, query {qi}"));
    }
    assert!(
        reg.counter_value("schemr_candidate_cache_invalidations_total", &[])
            .unwrap()
            > 0,
        "deletions must invalidate cached entries"
    );

    // A background merge changes ordinals but not results, and it leaves
    // the revision alone — cached entries stay valid and must still match
    // the uncached engine bit for bit.
    let revision_before = cached.index_revision();
    assert!(cached.maybe_merge(0.01));
    assert_eq!(
        cached.index_revision().mutations,
        revision_before.mutations,
        "merge must not move the revision"
    );
    for (qi, request) in queries.iter().enumerate() {
        let graph = request.query_graph();
        let a = cached.extract_candidates(&graph);
        let b = uncached.extract_candidates(&graph);
        assert_same_hits(&a, &b, &format!("post-merge, query {qi}"));
    }
}

#[test]
fn repeated_search_is_a_cache_hit_with_identical_response() {
    let corpus = Corpus::generate(&CorpusConfig::small(7));
    let (repo, _ids) = build_repo(&corpus);
    let engine = SchemrEngine::new(repo);
    engine.reindex_full();
    let request = query_for(&corpus, 0);

    let first = engine.search(&request).unwrap();
    let reg = engine.metrics_registry();
    let hits_before = reg
        .counter_value("schemr_candidate_cache_hits_total", &[])
        .unwrap();
    let second = engine.search(&request).unwrap();
    assert_eq!(first.len(), second.len());
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a.id, b.id);
        assert!((a.score - b.score).abs() < 1e-12);
        assert!((a.coarse_score - b.coarse_score).abs() < 1e-12);
    }
    let hits_after = reg
        .counter_value("schemr_candidate_cache_hits_total", &[])
        .unwrap();
    assert!(
        hits_after > hits_before,
        "second search should hit the cache"
    );
}

/// `(id, score bits, coarse-score bits)` of every result of every query.
fn ranked(engine: &SchemrEngine, queries: &[SearchRequest]) -> Vec<Vec<(SchemaId, u64, u64)>> {
    let rank = |request| {
        let results = engine.search(request).unwrap();
        let bits = |r: &schemr::SearchResult| (r.id, r.score.to_bits(), r.coarse_score.to_bits());
        results.iter().map(bits).collect()
    };
    queries.iter().map(rank).collect()
}

#[test]
fn one_tick_applies_the_whole_journal_as_one_batch() {
    let corpus = Corpus::generate(&CorpusConfig::small(11));
    let (repo, ids) = build_repo(&corpus);
    let engine = Arc::new(SchemrEngine::new(repo.clone()));
    engine.reindex_full();
    let scheduler = IndexScheduler::new(engine.clone()).with_merge_threshold(0.0);
    let queries: Vec<SearchRequest> = (0..corpus.schemas.len())
        .step_by(3)
        .map(|i| query_for(&corpus, i))
        .collect();
    let fresh = |what: &str| {
        let fresh = SchemrEngine::new(repo.clone());
        fresh.reindex_full();
        assert_eq!(
            ranked(&engine, &queries),
            ranked(&fresh, &queries),
            "{what}"
        );
    };
    fresh("before the tick");

    // A journal of 11 changes, 9 of which take effect in the index:
    // 4 deletes, 3 replacements (one schema twice — both puts count), 2
    // inserts, and an insert removed again before the tick — its put finds
    // nothing to index and its delete finds nothing to tombstone.
    for id in &ids[..4] {
        repo.remove(*id).unwrap();
    }
    let graph = |i: usize| corpus.schemas[i].schema.clone();
    repo.update(ids[5], graph(6)).unwrap();
    repo.update(ids[5], graph(7)).unwrap();
    repo.update(ids[8], graph(9)).unwrap();
    repo.insert("late arrival", "", graph(0)).unwrap();
    repo.insert("later arrival", "", graph(1)).unwrap();
    let fleeting = repo.insert("fleeting", "", graph(2)).unwrap();
    repo.remove(fleeting).unwrap();

    let before = engine.index_revision();
    assert_eq!(scheduler.tick(), 11, "every journal entry was consumed");
    let after = engine.index_revision();
    assert_eq!(
        after.instance, before.instance,
        "same index, updated in place"
    );
    assert_eq!(after.mutations, before.mutations + 9);
    assert_eq!(engine.index_doc_counts().0, repo.len());
    fresh("after the tick");
    assert_eq!(scheduler.tick(), 0, "the journal tail was consumed once");
    assert_eq!(engine.index_revision(), after);
}
