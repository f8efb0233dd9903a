//! Every metric family `/metrics` renders has a row in README.md's
//! metrics table, and every row names a family that is rendered, with
//! the kind the row states. A family nobody documented has no reader; a
//! row whose family is gone misleads the next one.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use schemr::SchemrEngine;
use schemr_repo::{import::import_str, Repository};
use schemr_server::{SchemrServer, ServerConfig};

const README: &str = include_str!("../../../README.md");

/// `GET` on its own connection; returns (status, body).
fn get(addr: std::net::SocketAddr, target: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let (head, body) = raw.split_once("\r\n\r\n").expect("a response head");
    let status = head.split_whitespace().nth(1).unwrap().parse().unwrap();
    (status, body.to_string())
}

/// Family → kind, from the table rows: `` | `name{labels}` | kind | … ``.
fn documented() -> BTreeMap<String, String> {
    README
        .lines()
        .filter_map(|line| {
            let mut cells = line.strip_prefix("| `schemr_")?.split('|');
            let name = cells.next()?.split(['`', '{']).next()?;
            let kind = cells.next()?.trim();
            Some((format!("schemr_{name}"), kind.to_string()))
        })
        .collect()
}

/// Family → kind, from the `# TYPE` lines of a rendered exposition.
fn rendered(metrics: &str) -> BTreeMap<String, String> {
    metrics
        .lines()
        .filter_map(|line| {
            let mut words = line.strip_prefix("# TYPE ")?.split_whitespace();
            Some((words.next()?.to_string(), words.next()?.to_string()))
        })
        .collect()
}

#[test]
fn every_rendered_metric_family_is_documented_and_every_documented_one_rendered() {
    let repo = Arc::new(Repository::new());
    import_str(
        &repo,
        "clinic",
        "rural health clinic",
        "CREATE TABLE patient (id INT, height REAL, gender TEXT, diagnosis TEXT)",
    )
    .unwrap();
    let engine = Arc::new(SchemrEngine::new(repo));
    engine.reindex_full();
    let server = SchemrServer::start(engine, ServerConfig::default()).unwrap();
    let addr = server.addr();
    assert_eq!(get(addr, "/search?q=patient+height").0, 200);
    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(server.shutdown());

    let documented = documented();
    let rendered = rendered(&metrics);
    assert!(
        documented.len() >= 30,
        "README table not found: {documented:?}"
    );
    for (family, kind) in &rendered {
        assert_eq!(
            documented.get(family),
            Some(kind),
            "`{family}` ({kind}) is rendered but README.md's metrics table has no such row"
        );
    }
    for (family, kind) in &documented {
        assert_eq!(
            rendered.get(family),
            Some(kind),
            "README.md documents `{family}` ({kind}) but /metrics does not render it"
        );
    }
}
