//! The introspection plane end to end at the engine level: zero-result
//! accounting, a trace that says each fact once, and the deep-memory
//! report.

use std::sync::Arc;

use schemr::{SchemrEngine, SearchRequest};
use schemr_obs::json::Json;
use schemr_repo::{import, Repository};

fn seeded_repo() -> Arc<Repository> {
    let repo = Arc::new(Repository::new());
    import::import_str(
        &repo,
        "clinic",
        "a rural clinic",
        "CREATE TABLE patient (height REAL, gender TEXT, diagnosis TEXT)",
    )
    .unwrap();
    import::import_str(
        &repo,
        "store",
        "web shop",
        "CREATE TABLE orders (total DECIMAL, quantity INT, customer TEXT)",
    )
    .unwrap();
    repo
}

fn traced_engine(repo: Arc<Repository>) -> SchemrEngine {
    let engine = SchemrEngine::new(repo);
    engine.reindex_full();
    engine
}

#[test]
fn zero_result_searches_are_counted_and_annotated() {
    let engine = traced_engine(seeded_repo());

    // A hitting query: no empty increment.
    let resp = engine
        .search_detailed(&SearchRequest::keywords(["patient", "height"]))
        .unwrap();
    assert!(!resp.results.is_empty());
    assert_eq!(engine.metrics().search_empty_total.get(), 0);

    // A missing query: counter increments and the `/debug/traces`
    // summary says results=0, so empty searches are findable in the
    // listing.
    let resp = engine
        .search_detailed(&SearchRequest::keywords(["zebra", "wingspan"]))
        .unwrap();
    assert!(resp.results.is_empty());
    assert_eq!(engine.metrics().search_empty_total.get(), 1);
    let trace_id = resp.trace_id.expect("tracing is on");
    let trace = engine.tracer().get(&trace_id).expect("trace retained");
    let summary = trace.summary_json();
    assert!(summary.contains("\"results\":0}"), "{summary}");
}

#[test]
fn a_traced_search_says_each_fact_once() {
    let engine = traced_engine(seeded_repo());
    let resp = engine
        .search_detailed(&SearchRequest::keywords(["patient", "height"]))
        .unwrap();
    let trace = engine.tracer().get(&resp.trace_id.unwrap()).unwrap();
    let json = trace.to_json();
    let count = |key: &str| json.matches(&format!("\"{key}\":")).count();
    // The search's ledger is the header's alone: no span repeats it.
    for key in [
        "query",
        "candidates_from_index",
        "candidates_evaluated",
        "cpu_us",
        "alloc_count",
        "alloc_bytes",
    ] {
        assert_eq!(count(key), 1, "{key} in {json}");
    }
    let doc = Json::parse(&json).unwrap();
    let root = &doc.get("spans").and_then(Json::as_arr).unwrap()[0];
    assert!(root.get("attrs").is_none(), "{json}");
}

#[test]
fn memory_report_accounts_for_resident_structures() {
    let repo = seeded_repo();
    let engine = traced_engine(repo.clone());
    engine
        .search(&SearchRequest::keywords(["patient", "height"]))
        .unwrap();

    let report = engine.memory_report();
    // The repository is accounted schema by schema: at least the bytes
    // its schemas hold, and more after one is added.
    let schemas: usize = repo.snapshot().iter().map(|s| s.schema.heap_bytes()).sum();
    assert_eq!(report.repository_schemas, repo.len());
    assert!(report.repository_bytes > schemas && schemas > 0);
    assert_eq!(report.repository_bytes, repo.deep_bytes());
    assert!(report.index_deep_bytes > report.index_postings_bytes);
    assert!(report.index_postings_bytes > 0);
    // The search above populated the candidate cache and the artifact
    // cache, and left one completed trace in the ring.
    assert!(report.candidate_cache_entries >= 1);
    assert_eq!(report.candidate_cache_budget, 512);
    assert!(report.candidate_cache_bytes > 0);
    assert!(report.artifact_cache_entries >= 1);
    assert!(report.artifact_cache_resident_bytes > 0);
    assert!(report.artifact_cache_resident_bytes <= report.artifact_cache_budget_bytes);
    assert_eq!(report.trace_ring_len, 1);
    assert!(report.trace_ring_bytes > 0);
    assert_eq!(report.event_log_bytes, None, "no event log configured");
}
