//! F5: the architecture round-trip — repository → indexer → search
//! service → XML/GraphML responses parsed back by the client-side XML
//! machinery.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use schemr::SchemrEngine;
use schemr_parse::xml::{Event, XmlParser};
use schemr_repo::{import::import_str, Repository};
use schemr_server::{SchemrServer, ServerConfig};

fn start_server() -> (SchemrServer, schemr_model::SchemaId) {
    let (server, _, clinic) = start_server_with_engine();
    (server, clinic)
}

fn start_server_with_engine() -> (SchemrServer, Arc<SchemrEngine>, schemr_model::SchemaId) {
    let repo = Arc::new(Repository::new());
    let clinic = import_str(
        &repo,
        "clinic",
        "rural health clinic",
        "CREATE TABLE patient (id INT, height REAL, gender TEXT, diagnosis TEXT);
         CREATE TABLE visit (id INT, date DATE, patient_id INT REFERENCES patient(id))",
    )
    .unwrap();
    import_str(
        &repo,
        "store",
        "a shop",
        "CREATE TABLE orders (id INT, total DECIMAL, quantity INT, customer TEXT)",
    )
    .unwrap();
    let engine = Arc::new(SchemrEngine::new(repo));
    engine.reindex_full();
    let server = SchemrServer::start(engine.clone(), ServerConfig::default()).unwrap();
    (server, engine, clinic)
}

fn get(addr: std::net::SocketAddr, target: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut buf = String::new();
    stream.read_to_string(&mut buf).unwrap();
    buf.split_once("\r\n\r\n").unwrap().1.to_string()
}

#[test]
fn search_response_parses_and_ranks_like_the_engine() {
    let (server, clinic) = start_server();
    let xml = get(server.addr(), "/search?q=patient+height+gender");
    let events = XmlParser::parse_all(&xml).unwrap();
    // Pull (id, score) pairs out of the response.
    let results: Vec<(String, f64)> = events
        .iter()
        .filter_map(|e| match e {
            Event::Start { name, attributes } if name == "result" => {
                let id = attributes.iter().find(|a| a.name == "id")?.value.clone();
                let score: f64 = attributes
                    .iter()
                    .find(|a| a.name == "score")?
                    .value
                    .parse()
                    .ok()?;
                Some((id, score))
            }
            _ => None,
        })
        .collect();
    assert!(!results.is_empty());
    assert_eq!(results[0].0, clinic.to_string());
    // Scores are ranked non-increasing.
    for w in results.windows(2) {
        assert!(w[0].1 >= w[1].1);
    }
    server.shutdown();
}

#[test]
fn graphml_drill_in_reconstructs_the_schema_shape() {
    let (server, clinic) = start_server();
    let xml = get(server.addr(), &format!("/schema/{clinic}"));
    let events = XmlParser::parse_all(&xml).unwrap();
    let nodes = events
        .iter()
        .filter(|e| matches!(e, Event::Start { name, .. } if name == "node"))
        .count();
    let edges = events
        .iter()
        .filter(|e| matches!(e, Event::Start { name, .. } if name == "edge"))
        .count();
    // clinic: 2 entities + 7 attributes = 9 nodes; 7 containment + 1 FK = 8
    // edges.
    assert_eq!(nodes, 9);
    assert_eq!(edges, 8);
    server.shutdown();
}

#[test]
fn healthz_reports_revision_and_indexed_docs() {
    let (server, _) = start_server();
    let body = get(server.addr(), "/healthz");
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    assert!(body.contains("\"revision\":2"), "{body}");
    assert!(body.contains("\"indexed_docs\":2"), "{body}");
    server.shutdown();
}

#[test]
fn healthz_counts_live_docs_before_and_after_a_tombstone() {
    let (server, engine, clinic) = start_server_with_engine();
    let body = get(server.addr(), "/healthz");
    assert!(body.contains("\"indexed_docs\":2"), "{body}");
    // Removing a schema tombstones its slot: the probe reports live
    // documents, not slots, and agrees with the full statistics.
    engine.repository().remove(clinic).unwrap();
    assert_eq!(engine.reindex_incremental(), 1);
    let body = get(server.addr(), "/healthz");
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    assert!(body.contains("\"indexed_docs\":1"), "{body}");
    let stats = engine.index_stats();
    assert_eq!((stats.live_docs, stats.total_docs), (1, 2));
    assert_eq!(engine.index_doc_counts(), (1, 2));
    server.shutdown();
}

#[test]
fn metrics_expose_search_phase_and_http_families() {
    let (server, _) = start_server();
    let addr = server.addr();
    // Drive two searches (one explained) so every family has data.
    get(addr, "/search?q=patient+height");
    get(addr, "/search?q=gender&explain=1");
    let body = get(addr, "/metrics");
    assert!(body.contains("# TYPE schemr_search_requests_total counter"));
    assert!(body.contains("schemr_search_requests_total 2"), "{body}");
    for phase in ["candidate_extraction", "matching", "scoring"] {
        assert!(
            body.contains(&format!(
                "schemr_phase_seconds_count{{phase=\"{phase}\"}} 2"
            )),
            "phase {phase}: {body}"
        );
    }
    for matcher in ["name", "context"] {
        assert!(
            body.contains(&format!(
                "schemr_matcher_seconds_count{{matcher=\"{matcher}\"}} 2"
            )),
            "matcher {matcher}: {body}"
        );
    }
    // Phase 2 match-artifact-cache families are exported; two searches of
    // the same two-schema corpus guarantee at least one cache lookup.
    assert!(
        body.contains("# TYPE schemr_match_artifact_cache_hits_total counter"),
        "{body}"
    );
    for family in ["misses", "invalidations", "bytes_inserted"] {
        assert!(
            body.contains(&format!("schemr_match_artifact_cache_{family}_total")),
            "family {family}: {body}"
        );
    }
    assert!(
        body.contains("schemr_http_requests_total{route=\"/search\",status=\"200\"} 2"),
        "{body}"
    );
    assert!(body.contains("schemr_index_terms_looked_up_total"));
    server.shutdown();
}

#[test]
fn explain_trace_round_trips_through_the_xml_parser() {
    let (server, _) = start_server();
    let xml = get(server.addr(), "/search?q=patient+height&explain=1");
    let events = XmlParser::parse_all(&xml).unwrap();
    let trace = events
        .iter()
        .find_map(|e| match e {
            Event::Start { name, attributes } if name == "trace" => Some(attributes.clone()),
            _ => None,
        })
        .expect("trace element present");
    let attr = |n: &str| {
        trace
            .iter()
            .find(|a| a.name == n)
            .map(|a| a.value.clone())
            .unwrap()
    };
    let from_index: usize = attr("candidates-from-index").parse().unwrap();
    let evaluated: usize = attr("candidates-evaluated").parse().unwrap();
    let threads: usize = attr("match-threads").parse().unwrap();
    assert!(from_index >= evaluated);
    assert!(evaluated >= 1);
    assert!(threads >= 1);
    let phases: Vec<String> = events
        .iter()
        .filter_map(|e| match e {
            Event::Start { name, attributes } if name == "phase" => attributes
                .iter()
                .find(|a| a.name == "name")
                .map(|a| a.value.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(phases, ["candidate_extraction", "matching", "scoring"]);
    let matchers: Vec<String> = events
        .iter()
        .filter_map(|e| match e {
            Event::Start { name, attributes } if name == "matcher" => attributes
                .iter()
                .find(|a| a.name == "name")
                .map(|a| a.value.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(matchers, ["name", "context"]);
    // A plain search carries no trace.
    let plain = get(server.addr(), "/search?q=patient");
    assert!(!plain.contains("<trace"));
    server.shutdown();
}

#[test]
fn fragment_post_round_trips_through_the_service() {
    let (server, clinic) = start_server();
    let fragment = "CREATE TABLE patient (height REAL, gender TEXT)";
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    write!(
        stream,
        "POST /search?limit=1 HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{}",
        fragment.len(),
        fragment
    )
    .unwrap();
    let mut buf = String::new();
    stream.read_to_string(&mut buf).unwrap();
    assert!(buf.starts_with("HTTP/1.1 200"));
    assert!(buf.contains(&format!("id=\"{clinic}\"")));
    assert!(buf.contains("count=\"1\""));
    server.shutdown();
}
