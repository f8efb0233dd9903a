//! The artifact-cache equivalence oracle.
//!
//! Phase 2 has one scoring path; what varies is where a candidate's
//! prepared artifacts come from — the revision-keyed cache, a fresh
//! build, or a rebuild after a stale bundle. None of that may change a
//! single bit of any similarity matrix or final score. Two layers of
//! checks enforce it over a generated corpus:
//!
//! * ensemble level — `Ensemble::run` handed stale bundles (built for a
//!   different matcher set, so a length mismatch) rebuilds them and
//!   reproduces the fresh-artifact matrices bitwise, for keyword and
//!   fragment queries across corpus schemas; and the name and token
//!   matchers' matrices equal their public string-set scalar references
//!   cell by cell (the context matcher's reference is private to its
//!   own unit tests);
//! * engine level — an engine with the artifact cache enabled and one
//!   with it disabled (`match_artifact_cache_bytes: 0`: artifacts built
//!   per search) return identical result lists — same ids, bitwise-equal
//!   scores — through cold/warm passes and add / replace / remove churn.
//!
//! Deterministic by construction (seeded corpus, fixed query derivation).

use std::sync::Arc;

use schemr::{EngineConfig, SchemrEngine, SearchRequest};
use schemr_corpus::{Corpus, CorpusConfig};
use schemr_match::{Ensemble, NameMatcher, TokenMatcher};
use schemr_model::{QueryGraph, SchemaId};
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

#[test]
fn stale_bundles_rebuild_and_matrices_equal_their_scalar_references_bitwise() {
    let corpus = Corpus::generate(&CorpusConfig::small(11));
    let n = corpus.schemas.len();
    assert!(n >= 10, "corpus too small to be a test");
    let mut ensemble = Ensemble::standard();
    ensemble.push(Box::new(TokenMatcher::new()), 0.5);
    // Bundles as the two-matcher standard ensemble prepares them: what a
    // cache entry from before a matcher-set change would hold.
    let old_set = Ensemble::standard();
    let (name, token) = (NameMatcher::new(), TokenMatcher::new());

    for i in (0..n).step_by(4) {
        // A mixed query: one keyword plus a schema fragment, so the
        // name, context, and token matchers all produce nonzero rows.
        let mut q = QueryGraph::new();
        q.add_keyword(corpus.schemas[i].title.clone());
        q.add_fragment(corpus.schemas[(i + 1) % n].schema.clone());
        let terms = q.terms();
        let equery = ensemble.prepare_query(&terms, &q);
        let stale_query = old_set.prepare_query(&terms, &q);
        for j in (0..n).step_by(3) {
            let candidate = &corpus.schemas[j].schema;
            let pcand = ensemble.prepare(candidate);
            let stale_cand = old_set.prepare(candidate);
            let fresh = ensemble.run(&equery, &terms, &q, &pcand, candidate, true);
            let rebuilt = ensemble.run(&stale_query, &terms, &q, &stale_cand, candidate, true);
            assert_eq!(fresh.matrix.rows(), rebuilt.matrix.rows());
            assert_eq!(fresh.matrix.cols(), rebuilt.matrix.cols());
            for r in 0..fresh.matrix.rows() {
                for c in 0..fresh.matrix.cols() {
                    assert_eq!(
                        rebuilt.matrix.get(r, c).to_bits(),
                        fresh.matrix.get(r, c).to_bits(),
                        "query {i} × candidate {j}, cell ({r},{c})"
                    );
                }
            }
            assert_eq!(rebuilt.strengths.len(), 3);
            for (s, t) in rebuilt.strengths.iter().zip(fresh.strengths.iter()) {
                assert_eq!(s.to_bits(), t.to_bits(), "query {i} × candidate {j}");
            }
            // The string-set references are slow; every other candidate
            // is plenty.
            if j % 2 == 1 {
                continue;
            }
            let per = ensemble.individual(&terms, &q, candidate);
            assert_eq!((per[0].0, per[2].0), ("name", "token"));
            for (r, term) in terms.iter().enumerate() {
                for (c, el) in candidate.ids().enumerate() {
                    let el_name = &candidate.element(el).name;
                    assert_eq!(
                        per[0].1.get(r, c).to_bits(),
                        name.similarity(&term.text, el_name).to_bits(),
                        "name: query {i} × candidate {j}, cell ({r},{c})"
                    );
                    assert_eq!(
                        per[2].1.get(r, c).to_bits(),
                        token.similarity(&term.text, el_name).to_bits(),
                        "token: query {i} × candidate {j}, cell ({r},{c})"
                    );
                }
            }
        }
    }
}

fn assert_same_results(
    cached: &SchemrEngine,
    uncached: &SchemrEngine,
    queries: &[SearchRequest],
    what: &str,
) {
    for (qi, request) in queries.iter().enumerate() {
        let a = cached.search(request).unwrap();
        let b = uncached.search(request).unwrap();
        assert_eq!(a.len(), b.len(), "{what}, query {qi}: result count differs");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id, y.id, "{what}, query {qi}: ranking differs");
            assert_eq!(
                x.score.to_bits(),
                y.score.to_bits(),
                "{what}, query {qi}: scores differ: {} vs {}",
                x.score,
                y.score
            );
            assert_eq!(x.coarse_score.to_bits(), y.coarse_score.to_bits());
        }
    }
}

#[test]
fn cached_engine_matches_uncached_engine_across_churn() {
    let corpus = Corpus::generate(&CorpusConfig::small(23));
    let n = corpus.schemas.len();
    let (repo, ids) = build_repo(&corpus);

    let cached = SchemrEngine::with_config(
        repo.clone(),
        EngineConfig {
            match_artifact_cache_bytes: 4 * 1024 * 1024,
            ..Default::default()
        },
    );
    let uncached = SchemrEngine::with_config(
        repo.clone(),
        EngineConfig {
            match_artifact_cache_bytes: 0,
            ..Default::default()
        },
    );
    cached.reindex_full();
    uncached.reindex_full();

    let mut queries: Vec<SearchRequest> =
        (0..n).step_by(2).map(|i| query_for(&corpus, i)).collect();
    // One fragment query so the context matcher scores nonzero rows end
    // to end.
    queries.push(
        SearchRequest::parse("", &["CREATE TABLE patient (height REAL, gender TEXT)"]).unwrap(),
    );

    // Cold pass fills the artifact cache; warm pass serves from it.
    assert_same_results(&cached, &uncached, &queries, "cold pass");
    assert_same_results(&cached, &uncached, &queries, "warm pass");
    let reg = cached.metrics_registry();
    assert!(
        reg.counter_value("schemr_match_artifact_cache_hits_total", &[])
            .unwrap()
            > 0,
        "warm pass should reuse prepared artifacts"
    );

    // Churn: add a schema, replace another, remove a third. Revisions
    // move, so cached artifacts for the touched schemas are stale.
    repo.insert(
        "churn new".to_string(),
        "added mid-test".to_string(),
        corpus.schemas[1].schema.clone(),
    )
    .unwrap();
    repo.update(ids[0], corpus.schemas[n - 1].schema.clone())
        .unwrap();
    repo.remove(ids[2]).unwrap();
    cached.reindex_incremental();
    uncached.reindex_incremental();

    assert_same_results(&cached, &uncached, &queries, "post-churn pass");
    assert!(
        reg.counter_value("schemr_match_artifact_cache_invalidations_total", &[])
            .unwrap()
            > 0,
        "the replaced schema's artifacts must be invalidated"
    );
    // And a second post-churn pass is warm again.
    let hits_before = reg
        .counter_value("schemr_match_artifact_cache_hits_total", &[])
        .unwrap();
    assert_same_results(&cached, &uncached, &queries, "post-churn warm pass");
    assert!(
        reg.counter_value("schemr_match_artifact_cache_hits_total", &[])
            .unwrap()
            > hits_before
    );
}
