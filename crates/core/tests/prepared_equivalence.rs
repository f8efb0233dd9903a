//! The artifact-cache equivalence oracle.
//!
//! Phase 2 has one scoring path; what varies is where a candidate's
//! prepared artifacts come from — the revision-keyed cache or a fresh
//! build. None of that may change a single bit of any similarity matrix
//! or final score. Two layers of checks enforce it over a generated
//! corpus:
//!
//! * ensemble level — for keyword and fragment queries across corpus
//!   schemas, the name and token matchers' matrices equal their public
//!   string-set scalar references cell by cell (the context matcher's
//!   reference is private to its own unit tests);
//! * engine level — an engine with the artifact cache enabled and one
//!   with it disabled (`match_artifact_cache_bytes: 0`: artifacts built
//!   per search, in a lexicon that lives for that search) return
//!   identical result lists — same ids, bitwise-equal scores — through
//!   cold/warm passes, add / replace / remove churn, against a freshly
//!   built engine (cold lexicon) and after a matcher-set replacement;
//!   and an engine whose budget is a fraction of the vocabulary passing
//!   through it stays within that budget, lexicon included, and still
//!   agrees with a fresh engine bit for bit.
//!
//! Deterministic by construction (seeded corpus, fixed query derivation).

use std::sync::Arc;

use schemr::{EngineConfig, SchemrEngine, SearchRequest};
use schemr_corpus::{Corpus, CorpusConfig};
use schemr_match::{Ensemble, NameMatcher, PrepareScratch, TokenMatcher};
use schemr_model::{DataType, QueryGraph, SchemaBuilder, SchemaId};
use schemr_repo::Repository;
use schemr_text::{Analyzer, Lexicon};

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
fn matrices_equal_their_scalar_references_bitwise() {
    let corpus = Corpus::generate(&CorpusConfig::small(11));
    let n = corpus.schemas.len();
    assert!(n >= 10, "corpus too small to be a test");
    let mut ensemble = Ensemble::standard();
    ensemble.push(Box::new(TokenMatcher::new()), 0.5);
    let (name, token) = (NameMatcher::new(), TokenMatcher::new());
    let mut prepare = PrepareScratch::default();

    for i in (0..n).step_by(4) {
        // A mixed query: one keyword plus a schema fragment, so the
        // name, context, and token matchers all produce nonzero rows.
        let mut q = QueryGraph::new();
        q.add_keyword(corpus.schemas[i].title.clone());
        q.add_fragment(corpus.schemas[(i + 1) % n].schema.clone());
        let terms = q.terms();
        // The string-set references are slow; every sixth candidate is
        // plenty.
        for j in (0..n).step_by(6) {
            let candidate = &corpus.schemas[j].schema;
            let per = ensemble.individual(&terms, &q, candidate, &mut prepare);
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

    // A freshly built engine numbers its words from scratch, in the
    // order this pass happens to meet them.
    let fresh = SchemrEngine::with_config(repo.clone(), EngineConfig::default());
    fresh.reindex_full();
    assert_same_results(&cached, &fresh, &queries, "warm vs cold lexicon");
    assert_same_results(&fresh, &uncached, &queries, "cold lexicon, warm pass");

    // A matcher-set replacement bumps the generation: every cached
    // artifact is stale, the interned words are not.
    let invalidations_before = reg
        .counter_value("schemr_match_artifact_cache_invalidations_total", &[])
        .unwrap();
    cached.set_ensemble(Ensemble::standard());
    uncached.set_ensemble(Ensemble::standard());
    assert_same_results(&cached, &uncached, &queries, "after set_ensemble");
    assert_same_results(&cached, &fresh, &queries, "after set_ensemble vs fresh");
    assert!(
        reg.counter_value("schemr_match_artifact_cache_invalidations_total", &[])
            .unwrap()
            > invalidations_before
    );
}

/// Deterministic, never-repeating lowercase words.
struct Words(u64);

impl Words {
    fn next(&mut self) -> String {
        (0..10)
            .map(|_| {
                self.0 = self
                    .0
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (b'a' + ((self.0 >> 33) % 26) as u8) as char
            })
            .collect()
    }
}

#[test]
fn artifacts_and_lexicon_stay_within_budget_under_vocabulary_churn() {
    const BUDGET: usize = 64 * 1024;
    let repo = Arc::new(Repository::new());
    let engine = SchemrEngine::with_config(
        repo.clone(),
        EngineConfig {
            match_artifact_cache_bytes: BUDGET,
            ..Default::default()
        },
    );
    engine.reindex_full();
    // Every schema shares one word ("anchor", what the query finds them
    // by) and brings nine the repository has never seen and, once the
    // schema is removed again, never will.
    let request = SearchRequest::keywords(["anchor"]).with_limit(20);
    let mut words = Words(7);
    let analyzer = Analyzer::for_names();
    let seen = Lexicon::new();
    let mut largest_entry = 0;
    let mut live: Vec<SchemaId> = Vec::new();
    for round in 0..40 {
        for id in live.drain(..) {
            repo.remove(id).unwrap();
        }
        for k in 0..10 {
            let entity = words.next();
            let attrs: Vec<String> = (0..8).map(|_| words.next()).collect();
            let before = seen.heap_bytes();
            for name in attrs.iter().chain([&entity]) {
                for word in analyzer.analyze(name) {
                    seen.intern(&word);
                }
            }
            largest_entry = largest_entry.max(seen.heap_bytes() - before);
            let schema = SchemaBuilder::new(format!("s{round}x{k}"))
                .entity(entity, |mut e| {
                    e = e.attr("anchor", DataType::Text);
                    for a in &attrs {
                        e = e.attr(a.clone(), DataType::Text);
                    }
                    e
                })
                .build_unchecked();
            live.push(
                repo.insert(format!("s{round}x{k}"), String::new(), schema)
                    .unwrap(),
            );
        }
        engine.reindex_incremental();
        assert_eq!(engine.search(&request).unwrap().len(), 10, "round {round}");
    }
    assert!(
        seen.heap_bytes() >= 10 * BUDGET,
        "the vocabulary that passed through is worth {} bytes",
        seen.heap_bytes()
    );
    let report = engine.memory_report();
    assert_eq!(report.artifact_cache_budget_bytes, BUDGET);
    assert!(
        report.lexicon_words < seen.len() / 5,
        "{} of {} words still interned",
        report.lexicon_words,
        seen.len()
    );
    assert!(
        report.lexicon_bytes <= report.artifact_cache_resident_bytes,
        "resident bytes include the lexicon"
    );
    // One entry: the words of one schema plus its artifact (word ids —
    // far smaller than the words).
    assert!(
        report.artifact_cache_resident_bytes <= BUDGET + 2 * largest_entry,
        "resident {} over budget {BUDGET} by more than one entry ({largest_entry})",
        report.artifact_cache_resident_bytes
    );
    // The lexicon was retired at least once, taking its artifacts along.
    assert!(
        engine
            .metrics_registry()
            .counter_value("schemr_match_artifact_cache_invalidations_total", &[])
            .unwrap()
            > 0
    );
    // And nothing of that shows in a result.
    let fresh = SchemrEngine::with_config(repo.clone(), EngineConfig::default());
    fresh.reindex_full();
    let queries = [
        request,
        SearchRequest::keywords(["anchor", &words.next()]),
        SearchRequest::parse("", &["CREATE TABLE t (anchor TEXT, other TEXT)"]).unwrap(),
    ];
    assert_same_results(&engine, &fresh, &queries, "after churn vs fresh");
    for (a, b) in queries
        .iter()
        .map(|q| (engine.search(q).unwrap(), fresh.search(q).unwrap()))
    {
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.matches, y.matches, "per-element match scores");
        }
    }
}
