//! The operator's `/debug/*` handlers: recent traces, one trace by id,
//! the slow-query log, and the index and memory reports. `route`
//! dispatches here only after its loopback gate.

use schemr::SchemrEngine;

use crate::http::{Request, Response};

pub(crate) fn handle_traces(engine: &SchemrEngine, request: &Request) -> Response {
    let limit = limit_param(request, 50, 1000);
    let summaries: Vec<String> = engine
        .tracer()
        .recent(limit)
        .iter()
        .map(|t| t.summary_json())
        .collect();
    Response::ok("application/json", format!("[{}]", summaries.join(",")))
}

pub(crate) fn handle_trace_by_id(engine: &SchemrEngine, id: &str) -> Response {
    match engine.tracer().get(id) {
        Some(trace) => Response::ok("application/json", trace.to_json()),
        None => Response::not_found(format!("no retained trace with id `{id}`")),
    }
}

pub(crate) fn handle_slowlog(engine: &SchemrEngine, request: &Request) -> Response {
    let limit = limit_param(request, 50, 1000);
    // The slowlog keeps few entries by design, so return the full span
    // trees — that's what makes a slow query diagnosable after the fact.
    let entries: Vec<String> = engine
        .tracer()
        .slow(limit)
        .iter()
        .map(|t| t.to_json())
        .collect();
    Response::ok("application/json", format!("[{}]", entries.join(",")))
}

/// `GET /debug/index?limit=N`: corpus aggregates plus per-postings-list
/// statistics for the heaviest lists, including each list's max-impact
/// score (the WAND/MaxScore upper bound).
pub(crate) fn handle_index(engine: &SchemrEngine, request: &Request) -> Response {
    use std::fmt::Write as _;
    let top_lists = limit_param(request, 20, 500);
    let report = engine.index_introspection(top_lists);
    let written = &engine.metrics().index;
    let mut body = format!(
        "{{\"live_docs\":{},\"total_docs\":{},\"distinct_terms\":{},\"postings\":{},\"occurrences\":{},\"revision\":{},\"tombstone_ratio\":{:.6},\"postings_bytes\":{},\"deep_bytes\":{},\"write_tokens\":{},\"write_token_analyses\":{},\"top_lists\":[",
        report.stats.live_docs,
        report.stats.total_docs,
        report.stats.distinct_terms,
        report.stats.postings,
        report.stats.occurrences,
        report.revision,
        report.tombstone_ratio,
        report.postings_bytes,
        report.deep_bytes,
        written.tokens.get(),
        written.token_analyses.get(),
    );
    for (i, list) in report.top_lists.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        let _ = write!(
            body,
            "{{\"field\":\"{}\",\"term\":\"{}\",\"doc_freq\":{},\"live_doc_freq\":{},\"tombstone_ratio\":{:.6},\"approx_bytes\":{},\"max_impact\":{:.6}}}",
            list.field.label(),
            schemr_obs::json::escape(&list.term),
            list.doc_freq,
            list.live_doc_freq,
            list.tombstone_ratio,
            list.approx_bytes,
            list.max_impact,
        );
    }
    body.push_str("]}");
    Response::ok("application/json", body)
}

/// `GET /debug/memory`: the engine's deep-memory report — estimated
/// resident bytes of the repository, the index, both caches, and the
/// trace rings.
pub(crate) fn handle_memory(engine: &SchemrEngine) -> Response {
    let m = engine.memory_report();
    let event_log_bytes = m
        .event_log_bytes
        .map_or("null".to_string(), |b| b.to_string());
    let body = format!(
        "{{\"repository\":{{\"schemas\":{},\"deep_bytes\":{}}},\
         \"index\":{{\"deep_bytes\":{},\"postings_bytes\":{}}},\
         \"candidate_cache\":{{\"entries\":{},\"budget_entries\":{},\"bytes\":{}}},\
         \"match_artifact_cache\":{{\"entries\":{},\"resident_bytes\":{},\"budget_bytes\":{},\
         \"lexicon_words\":{},\"lexicon_bytes\":{}}},\
         \"trace_ring\":{{\"traces\":{},\"bytes\":{}}},\
         \"slowlog_ring\":{{\"traces\":{},\"bytes\":{}}},\
         \"event_log_bytes\":{}}}",
        m.repository_schemas,
        m.repository_bytes,
        m.index_deep_bytes,
        m.index_postings_bytes,
        m.candidate_cache_entries,
        m.candidate_cache_budget,
        m.candidate_cache_bytes,
        m.artifact_cache_entries,
        m.artifact_cache_resident_bytes,
        m.artifact_cache_budget_bytes,
        m.lexicon_words,
        m.lexicon_bytes,
        m.trace_ring_len,
        m.trace_ring_bytes,
        m.slow_ring_len,
        m.slow_ring_bytes,
        event_log_bytes,
    );
    Response::ok("application/json", body)
}

/// Parse a `limit` query param with a default and an upper bound.
fn limit_param(request: &Request, default: usize, max: usize) -> usize {
    request
        .param("limit")
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(default)
        .min(max)
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use schemr::SchemrEngine;
    use schemr_repo::{import::import_str, Repository};

    use crate::service::tests::{engine, get, get_raw};
    use crate::{SchemrServer, ServerConfig};

    #[test]
    fn client_trace_ids_round_trip_through_debug_traces() {
        let server = SchemrServer::start(engine(), ServerConfig::default()).unwrap();
        let addr = server.addr();
        let raw = get_raw(
            addr,
            "/search?q=patient+height",
            "X-Schemr-Trace-Id: my-req-7\r\n",
        );
        assert!(raw.starts_with("HTTP/1.1 200"));
        assert!(raw.contains("X-Schemr-Trace-Id: my-req-7\r\n"), "{raw}");
        // The span tree is retrievable by that id and covers all three
        // phases.
        let (status, body) = get(addr, "/debug/traces/my-req-7");
        assert_eq!(status, 200);
        assert!(body.contains("\"trace_id\":\"my-req-7\""), "{body}");
        assert!(body.contains("\"query\":\"patient height\""));
        for phase in ["candidate_extraction", "matching", "tightness_scoring"] {
            assert!(body.contains(&format!("\"name\":\"{phase}\"")), "{body}");
        }
        // Served over HTTP, the root span also records how long the
        // connection waited for admission.
        assert!(body.contains("\"queue_wait_us\""), "{body}");
        // The listing shows it too.
        let (status, listing) = get(addr, "/debug/traces");
        assert_eq!(status, 200);
        assert!(listing.contains("my-req-7"), "{listing}");
        // Searches without the header still get an id assigned.
        let raw = get_raw(addr, "/search?q=gender", "");
        assert!(raw.contains("X-Schemr-Trace-Id: "), "{raw}");
        // Unknown ids are 404.
        assert_eq!(get(addr, "/debug/traces/never-seen").0, 404);
        assert!(server.shutdown());
    }

    #[test]
    fn slow_searches_appear_in_the_slowlog() {
        use schemr::EngineConfig;
        let repo = Arc::new(Repository::new());
        import_str(
            &repo,
            "clinic",
            "rural health clinic",
            "CREATE TABLE patient (id INT, height REAL, gender TEXT)",
        )
        .unwrap();
        // Threshold zero: every search is "slow".
        let eng = Arc::new(SchemrEngine::with_config(
            repo,
            EngineConfig {
                trace: schemr_obs::TracerConfig {
                    slow_threshold: std::time::Duration::ZERO,
                    ..Default::default()
                },
                ..Default::default()
            },
        ));
        eng.reindex_full();
        let server = SchemrServer::start(eng, ServerConfig::default()).unwrap();
        let addr = server.addr();
        let raw = get_raw(addr, "/search?q=patient", "X-Schemr-Trace-Id: slow-1\r\n");
        assert!(raw.starts_with("HTTP/1.1 200"));
        let (status, body) = get(addr, "/debug/slowlog");
        assert_eq!(status, 200);
        assert!(body.contains("\"trace_id\":\"slow-1\""), "{body}");
        // Full span trees, not just summaries.
        assert!(body.contains("\"spans\":["), "{body}");
        assert!(server.shutdown());
    }

    #[test]
    fn debug_index_reports_postings_statistics() {
        let server = SchemrServer::start(engine(), ServerConfig::default()).unwrap();
        let addr = server.addr();
        let (status, body) = get(addr, "/debug/index");
        assert_eq!(status, 200);
        assert!(body.contains("\"live_docs\":2"), "{body}");
        assert!(body.contains("\"tombstone_ratio\":0.000000"), "{body}");
        assert!(body.contains("\"postings_bytes\":"), "{body}");
        assert!(body.contains("\"deep_bytes\":"), "{body}");
        // The write path's memo: every token looked up, each distinct
        // one analyzed once.
        assert!(body.contains("\"write_tokens\":"), "{body}");
        assert!(!body.contains("\"write_token_analyses\":0,"), "{body}");
        assert!(body.contains("\"top_lists\":["), "{body}");
        assert!(body.contains("\"field\":\"elements\""), "{body}");
        assert!(body.contains("\"max_impact\":"), "{body}");
        // The limit caps how many lists come back.
        let (status, capped) = get(addr, "/debug/index?limit=1");
        assert_eq!(status, 200);
        assert_eq!(capped.matches("\"term\":").count(), 1, "{capped}");
        assert!(server.shutdown());
    }

    #[test]
    fn debug_memory_reports_resident_structures() {
        let server = SchemrServer::start(engine(), ServerConfig::default()).unwrap();
        let addr = server.addr();
        assert_eq!(get(addr, "/search?q=patient+height").0, 200);
        let (status, body) = get(addr, "/debug/memory");
        assert_eq!(status, 200);
        assert!(body.contains("\"repository\":{\"schemas\":2"), "{body}");
        assert!(body.contains("\"index\":{\"deep_bytes\":"), "{body}");
        assert!(
            body.contains("\"candidate_cache\":{\"entries\":1"),
            "{body}"
        );
        assert!(
            body.contains("\"match_artifact_cache\":{\"entries\":"),
            "{body}"
        );
        // The search interned the candidate's words: the lexicon is not
        // empty and its bytes are part of the resident figure.
        let field = |key: &str| -> u64 {
            let at = body.find(key).unwrap_or_else(|| panic!("{key} in {body}")) + key.len();
            body[at..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
                .parse()
                .unwrap()
        };
        assert!(field("\"lexicon_words\":") > 0, "{body}");
        assert!(field("\"budget_entries\":512,\"bytes\":") > 0, "{body}");
        assert!(
            field("\"resident_bytes\":") >= field("\"lexicon_bytes\":")
                && field("\"lexicon_bytes\":") > 0,
            "{body}"
        );
        assert!(body.contains("\"trace_ring\":{\"traces\":1"), "{body}");
        assert!(body.contains("\"slowlog_ring\":"), "{body}");
        assert!(body.contains("\"event_log_bytes\":null"), "{body}");
        // The same residency figures are exported as /metrics gauges.
        let (_, metrics) = get(addr, "/metrics");
        assert!(
            metrics.contains("# TYPE schemr_index_deep_bytes gauge"),
            "{metrics}"
        );
        assert!(
            metrics.contains("# TYPE schemr_repository_deep_bytes gauge"),
            "{metrics}"
        );
        assert!(
            metrics.contains("# TYPE schemr_candidate_cache_resident_entries gauge"),
            "{metrics}"
        );
        assert!(
            metrics.contains("schemr_candidate_cache_resident_entries 1"),
            "{metrics}"
        );
        assert!(
            metrics.contains("# TYPE schemr_match_artifact_cache_resident_bytes gauge"),
            "{metrics}"
        );
        assert!(
            metrics.contains("# TYPE schemr_trace_ring_bytes gauge"),
            "{metrics}"
        );
        assert!(server.shutdown());
    }
}
