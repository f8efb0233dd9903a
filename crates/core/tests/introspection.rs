//! The introspection plane end to end at the engine level: zero-result
//! accounting, merge maintenance records in the event log, and the
//! deep-memory report.

use std::sync::Arc;

use schemr::{EngineConfig, SchemrEngine, SearchRequest};
use schemr_obs::TracerConfig;
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

    // A hitting query: no empty increment, no results=0 annotation.
    let resp = engine
        .search_detailed(&SearchRequest::keywords(["patient", "height"]))
        .unwrap();
    assert!(!resp.results.is_empty());
    assert_eq!(engine.metrics().search_empty_total.get(), 0);

    // A missing query: counter increments and the *root* span carries
    // results=0 so empty searches are findable in the trace listing.
    let resp = engine
        .search_detailed(&SearchRequest::keywords(["zebra", "wingspan"]))
        .unwrap();
    assert!(resp.results.is_empty());
    assert_eq!(engine.metrics().search_empty_total.get(), 1);
    let trace_id = resp.trace_id.expect("tracing is on");
    let trace = engine.tracer().get(&trace_id).expect("trace retained");
    let root = &trace.spans[0];
    assert_eq!(root.name, "search");
    assert!(
        root.attrs.iter().any(|(k, v)| k == "results" && v == "0"),
        "root span annotates results=0: {:?}",
        root.attrs
    );
}

#[test]
fn merge_writes_a_tagged_maintenance_record() {
    let dir = std::env::temp_dir().join(format!("schemr-merge-log-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log_path = dir.join("events.jsonl");
    let _ = std::fs::remove_file(&log_path);

    let repo = seeded_repo();
    let engine = SchemrEngine::with_config(
        repo.clone(),
        EngineConfig {
            trace: TracerConfig {
                event_log_path: Some(log_path.clone()),
                ..TracerConfig::default()
            },
            ..EngineConfig::default()
        },
    );
    engine.reindex_full();

    // Tombstone one of the two documents, then merge at a threshold the
    // 50% ratio clears.
    let id = repo.snapshot()[0].metadata.id;
    repo.remove(id).unwrap();
    engine.reindex_incremental();
    assert!(engine.maybe_merge(0.25), "merge should run");

    let events = schemr_obs::read_events_at(&log_path).unwrap();
    let merge = events
        .iter()
        .find(|e| e.query == "<merge>")
        .expect("merge record present");
    assert!(merge.trace_id.starts_with("merge-r"));
    assert_eq!(merge.phase_us.len(), 1);
    assert_eq!(merge.phase_us[0].0, "merge");
    let tag = |k: &str| {
        merge
            .tags
            .iter()
            .find(|(key, _)| key == k)
            .unwrap_or_else(|| panic!("missing tag {k}: {:?}", merge.tags))
            .1
            .clone()
    };
    assert_eq!(tag("tombstone_ratio_before"), "0.5000");
    assert_eq!(tag("tombstone_ratio_after"), "0.0000");
    assert_eq!(tag("docs_reclaimed"), "1");
    assert_eq!(tag("segments_before"), "1");
    assert_eq!(tag("segments_after"), "1");

    let _ = std::fs::remove_file(&log_path);
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
