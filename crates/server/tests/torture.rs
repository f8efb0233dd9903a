//! Serving-path torture tests: hostile and saturating clients against a
//! real listening server — slowloris, oversized requests, keep-alive
//! reuse, queue-full shedding, and drain-under-load.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use schemr::SchemrEngine;
use schemr_repo::{import::import_str, Repository};
use schemr_server::{HttpLimits, SchemrServer, ServerConfig};

fn engine() -> Arc<SchemrEngine> {
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
    engine
}

/// Read exactly one HTTP response off the stream — headers to the blank
/// line, then `Content-Length` body bytes — leaving the connection
/// usable for the next response. Returns (status, head, body).
fn read_response(stream: &mut TcpStream) -> (u16, String, String) {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        match stream.read(&mut byte) {
            Ok(0) => break,
            Ok(_) => head.push(byte[0]),
            Err(e) => panic!("reading response head: {e} (head so far: {head:?})"),
        }
    }
    let head = String::from_utf8_lossy(&head).to_string();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {head:?}"));
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            l.to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(|v| v.trim().parse().unwrap())
        })
        .unwrap_or(0);
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body).unwrap();
    (status, head, String::from_utf8(body).unwrap())
}

/// One-shot request on its own connection.
fn one_shot(addr: std::net::SocketAddr, target: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(
            format!("GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .unwrap();
    read_response(&mut stream)
}

#[test]
fn slowloris_partial_request_line_gets_408() {
    let server = SchemrServer::start(
        engine(),
        ServerConfig {
            read_timeout: Duration::from_millis(200),
            ..Default::default()
        },
    )
    .unwrap();
    // A few bytes of request line, then silence: the read timeout must
    // classify this as a stalled request (408), not an idle connection.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.write_all(b"GET /sea").unwrap();
    let (status, head, _) = read_response(&mut stream);
    assert_eq!(status, 408, "{head}");
    assert!(head.contains("Connection: close\r\n"), "{head}");
    assert!(server.shutdown());
}

#[test]
fn oversized_request_line_is_rejected_with_400() {
    let server = SchemrServer::start(
        engine(),
        ServerConfig {
            http_limits: HttpLimits {
                max_request_line_bytes: 128,
                ..HttpLimits::default()
            },
            ..Default::default()
        },
    )
    .unwrap();
    let (status, head, body) = one_shot(server.addr(), &format!("/{}", "a".repeat(4096)));
    assert_eq!(status, 400, "{head}");
    assert!(body.contains("request line"), "{body}");
    assert!(server.shutdown());
}

#[test]
fn oversized_headers_are_rejected_with_431() {
    let server = SchemrServer::start(
        engine(),
        ServerConfig {
            http_limits: HttpLimits {
                max_header_bytes: 256,
                max_header_count: 8,
                max_total_header_bytes: 1024,
                ..HttpLimits::default()
            },
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    // One oversized header line.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(
            format!(
                "GET /healthz HTTP/1.1\r\nX-Big: {}\r\n\r\n",
                "v".repeat(2048)
            )
            .as_bytes(),
        )
        .unwrap();
    let (status, head, _) = read_response(&mut stream);
    assert_eq!(status, 431, "{head}");

    // Too many headers.
    let mut stream = TcpStream::connect(addr).unwrap();
    let many: String = (0..32).map(|i| format!("X-{i}: v\r\n")).collect();
    stream
        .write_all(format!("GET /healthz HTTP/1.1\r\n{many}\r\n").as_bytes())
        .unwrap();
    let (status, head, _) = read_response(&mut stream);
    assert_eq!(status, 431, "{head}");

    // Both rejections are visible in the request metrics.
    let (_, _, metrics) = one_shot(addr, "/metrics");
    assert!(
        metrics.contains("schemr_http_requests_total{route=\"malformed\",status=\"431\"} 2"),
        "{metrics}"
    );
    assert!(server.shutdown());
}

#[test]
fn keep_alive_reuses_one_connection_for_sequential_requests() {
    let server = SchemrServer::start(engine(), ServerConfig::default()).unwrap();
    let addr = server.addr();
    let mut stream = TcpStream::connect(addr).unwrap();
    // Three requests through one socket; each response must advertise
    // keep-alive and the next request must be answered on the same
    // connection.
    for i in 0..3 {
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let (status, head, body) = read_response(&mut stream);
        assert_eq!(status, 200, "request {i}: {head}");
        assert!(head.contains("Connection: keep-alive\r\n"), "{head}");
        assert!(body.contains("\"status\":\"ok\""), "{body}");
    }
    // The reuse counter saw requests 2 and 3.
    let (_, _, metrics) = one_shot(addr, "/metrics");
    assert!(
        metrics.contains("schemr_http_keepalive_reuse_total 2"),
        "{metrics}"
    );
    assert!(server.shutdown());
}

#[test]
fn keepalive_budget_closes_the_connection_on_the_last_request() {
    let server = SchemrServer::start(
        engine(),
        ServerConfig {
            keepalive_requests: 2,
            ..Default::default()
        },
    )
    .unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let (_, head, _) = read_response(&mut stream);
    assert!(head.contains("Connection: keep-alive\r\n"), "{head}");
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let (status, head, _) = read_response(&mut stream);
    assert_eq!(status, 200);
    assert!(
        head.contains("Connection: close\r\n"),
        "budget exhausted must close: {head}"
    );
    // The server closes after the budgeted request.
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "{rest:?}");
    assert!(server.shutdown());
}

#[test]
fn saturated_queue_sheds_with_503_and_retry_after() {
    let server = SchemrServer::start(
        engine(),
        ServerConfig {
            workers: 1,
            max_queue: 1,
            read_timeout: Duration::from_secs(3),
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    // Pin the only worker: a connection with a half-sent request.
    let mut pin = TcpStream::connect(addr).unwrap();
    pin.write_all(b"GET /healthz HTTP/1.1\r\nHost: t").unwrap();
    std::thread::sleep(Duration::from_millis(150));

    // Fill the one queue slot.
    let mut queued = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(150));

    // Saturated: the next connection must be shed immediately with
    // 503 + Retry-After, not queued without bound.
    let mut extra = TcpStream::connect(addr).unwrap();
    let (status, head, _) = read_response(&mut extra);
    assert_eq!(status, 503, "{head}");
    let retry_after = format!("Retry-After: {}\r\n", schemr_server::http::RETRY_AFTER_SECS);
    assert!(head.contains(&retry_after), "{head}");

    // Release the worker; the pinned and the queued connection both
    // complete normally.
    pin.write_all(b"\r\nConnection: close\r\n\r\n").unwrap();
    let (status, _, _) = read_response(&mut pin);
    assert_eq!(status, 200);
    queued
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .unwrap();
    let (status, _, _) = read_response(&mut queued);
    assert_eq!(status, 200);

    let (_, _, metrics) = one_shot(addr, "/metrics");
    assert!(metrics.contains("schemr_http_shed_total 1"), "{metrics}");
    assert!(
        metrics.contains("schemr_http_requests_total{route=\"shed\",status=\"503\"} 1"),
        "{metrics}"
    );
    // Queue accounting: every admitted connection was dequeued by now
    // except the metrics one we are still holding... which is also done,
    // so enqueued == dequeued is not asserted exactly; the histogram
    // must have observations though.
    assert!(
        metrics.contains("schemr_http_queue_wait_seconds_count"),
        "{metrics}"
    );
    assert!(server.shutdown());
}

#[test]
fn shed_connections_are_accounted_in_queue_wait() {
    // Regression: shed (503) connections used to vanish from the
    // observability plane. A shed request must show up in the shed
    // counter and the queue-wait histogram.
    let server = SchemrServer::start(
        engine(),
        ServerConfig {
            workers: 1,
            max_queue: 1,
            read_timeout: Duration::from_secs(3),
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    // Pin the only worker, fill the one queue slot, then overflow.
    let mut pin = TcpStream::connect(addr).unwrap();
    pin.write_all(b"GET /healthz HTTP/1.1\r\nHost: t").unwrap();
    std::thread::sleep(Duration::from_millis(150));
    let mut queued = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(150));
    let mut extra = TcpStream::connect(addr).unwrap();
    let (status, _, _) = read_response(&mut extra);
    assert_eq!(status, 503);

    // Release the worker and let the queued connection finish.
    pin.write_all(b"\r\nConnection: close\r\n\r\n").unwrap();
    read_response(&mut pin);
    queued
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .unwrap();
    read_response(&mut queued);

    // It was counted in the queue-wait histogram: every observation is
    // either a dequeued connection or a shed one.
    let (_, _, metrics) = one_shot(addr, "/metrics");
    let scrape = |name: &str| -> u64 {
        metrics
            .lines()
            .find(|l| l.starts_with(name) && !l.starts_with('#'))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no sample for {name}: {metrics}"))
    };
    let shed = scrape("schemr_http_shed_total");
    let dequeued = scrape("schemr_http_queue_dequeued_total");
    let observed = scrape("schemr_http_queue_wait_seconds_count");
    assert_eq!(shed, 1, "{metrics}");
    assert_eq!(
        observed,
        dequeued + shed,
        "shed connections must observe queue wait: {metrics}"
    );
    assert!(server.shutdown());
}

/// The first sample of `name` in a `/metrics` body.
fn sample(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find(|l| l.starts_with(name))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no sample for {name}: {metrics}"))
}

#[test]
fn only_searches_reach_the_trace_ring_and_the_event_log() {
    let dir = std::env::temp_dir().join(format!("schemr-searches-only-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let log_path = dir.join("events.jsonl");
    let repo = Arc::new(Repository::new());
    for (name, ddl) in [
        ("clinic", "CREATE TABLE patient (id INT, height REAL)"),
        ("store", "CREATE TABLE orders (id INT, total DECIMAL)"),
    ] {
        import_str(&repo, name, name, ddl).unwrap();
    }
    let engine = Arc::new(SchemrEngine::with_config(
        repo.clone(),
        schemr::EngineConfig {
            trace: schemr_obs::TracerConfig {
                event_log_path: Some(log_path.clone()),
                ..Default::default()
            },
            ..Default::default()
        },
    ));
    engine.reindex_full();
    let server = SchemrServer::start(
        engine.clone(),
        ServerConfig {
            workers: 1,
            max_queue: 1,
            read_timeout: Duration::from_millis(800),
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.addr();
    let (_, _, before) = one_shot(addr, "/metrics");
    const TIMEOUTS: &str = "schemr_http_requests_total{route=\"timeout\",status=\"408\"}";

    // A stalled request pins the only worker, one connection fills the
    // queue, and the next one is shed. The stalled request then gets its
    // 408.
    let mut stalled = TcpStream::connect(addr).unwrap();
    stalled
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t")
        .unwrap();
    std::thread::sleep(Duration::from_millis(150));
    let mut queued = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(150));
    let mut extra = TcpStream::connect(addr).unwrap();
    assert_eq!(read_response(&mut extra).0, 503);
    assert_eq!(read_response(&mut stalled).0, 408);
    queued
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .unwrap();
    read_response(&mut queued);
    // A merge: tombstone one of the two documents, then compact.
    repo.remove(repo.snapshot()[0].metadata.id).unwrap();
    engine.reindex_incremental();
    assert!(engine.maybe_merge(0.25), "merge should run");

    assert_eq!(one_shot(addr, "/debug/traces").2, "[]");
    assert!(schemr_obs::read_events_at(&log_path).unwrap().is_empty());
    let (_, _, after) = one_shot(addr, "/metrics");
    for name in [
        "schemr_http_shed_total",
        TIMEOUTS,
        "schemr_index_merges_total",
    ] {
        let was = if before.contains(name) {
            sample(&before, name)
        } else {
            0
        };
        assert_eq!(sample(&after, name), was + 1, "{name}: {after}");
    }

    // A search is what does land in both.
    assert_eq!(one_shot(addr, "/search?q=orders").0, 200);
    assert!(one_shot(addr, "/debug/traces")
        .2
        .contains("\"query\":\"orders\""));
    assert_eq!(schemr_obs::read_events_at(&log_path).unwrap().len(), 1);
    assert!(server.shutdown());
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn drain_completes_in_flight_requests_and_refuses_new_connections() {
    let server = SchemrServer::start(
        engine(),
        ServerConfig {
            workers: 2,
            read_timeout: Duration::from_secs(3),
            drain_deadline: Duration::from_secs(5),
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    // An established keep-alive session...
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let (status, head, _) = read_response(&mut stream);
    assert_eq!(status, 200);
    assert!(head.contains("Connection: keep-alive\r\n"), "{head}");

    // ...with a request half-sent (in flight) as the drain begins.
    stream
        .write_all(b"GET /search?q=patient HTTP/1.1\r\nHost: t")
        .unwrap();
    let shutdown = std::thread::spawn(move || server.shutdown());
    // The drain sets its flag before it closes the listener, so a refused
    // connect means the drain has begun — whether or not this
    // connection's worker had already picked the half-request up.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while TcpStream::connect(addr).is_ok() {
        assert!(
            std::time::Instant::now() < deadline,
            "listener never closed"
        );
        std::thread::yield_now();
    }

    // The in-flight request completes — answered with
    // `Connection: close` because the server is draining.
    stream.write_all(b"\r\n\r\n").unwrap();
    let (status, head, body) = read_response(&mut stream);
    assert_eq!(status, 200, "{head}");
    assert!(
        head.contains("Connection: close\r\n"),
        "drain must demote keep-alive: {head}"
    );
    assert!(body.contains("<results"), "{body}");

    // The drain finished inside the deadline...
    assert!(shutdown.join().unwrap(), "drain must complete cleanly");

    // ...and the listener is gone: new connections are refused (or get
    // nothing served if the OS briefly accepts them).
    match TcpStream::connect(addr) {
        Err(_) => {}
        Ok(mut conn) => {
            let _ = conn.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
            let mut buf = Vec::new();
            let _ = conn.read_to_end(&mut buf);
            assert!(buf.is_empty(), "post-drain connection must not be served");
        }
    }
}

#[test]
fn drain_wakes_parked_keepalive_connections_immediately() {
    // A parked keep-alive wait must notice a drain long before its idle
    // budget runs out — otherwise shutdown would sit out the idle budget
    // (60s here) or bust the drain deadline.
    let server = SchemrServer::start(
        engine(),
        ServerConfig {
            idle_timeout: Duration::from_secs(60),
            drain_deadline: Duration::from_secs(10),
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    // Park a keep-alive session between requests.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let (status, head, _) = read_response(&mut stream);
    assert_eq!(status, 200);
    assert!(head.contains("Connection: keep-alive\r\n"), "{head}");
    // Give the worker time to re-park in its blocking wait.
    std::thread::sleep(Duration::from_millis(100));

    let start = std::time::Instant::now();
    assert!(server.shutdown(), "drain must complete cleanly");
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "drain must wake parked connections, took {:?}",
        start.elapsed()
    );
    // The parked session was closed silently — no 408, no garbage.
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "woken idle close must be silent: {rest:?}");
}

#[test]
fn idle_budget_resets_between_keepalive_requests() {
    // The idle budget is per gap, not per connection: a session that
    // keeps sending requests inside the budget stays alive even after
    // the cumulative idle time passes the timeout, and the eventual
    // close (one blocking read later) is still silent.
    let server = SchemrServer::start(
        engine(),
        ServerConfig {
            idle_timeout: Duration::from_millis(400),
            ..Default::default()
        },
    )
    .unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    // 3 × 250ms of idling = 750ms total, each gap inside the 400ms
    // budget — every request must still be answered.
    for i in 0..3 {
        std::thread::sleep(Duration::from_millis(250));
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let (status, head, _) = read_response(&mut stream);
        assert_eq!(status, 200, "request {i}: {head}");
        assert!(head.contains("Connection: keep-alive\r\n"), "{head}");
    }
    // Now exceed one gap's budget: silent close, never a 408 (a 408 is
    // reserved for stalls *inside* a request).
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "idle close must be silent: {rest:?}");
    assert!(server.shutdown());
}

#[test]
fn idle_keepalive_connections_are_closed_and_do_not_block_drain() {
    let server = SchemrServer::start(
        engine(),
        ServerConfig {
            idle_timeout: Duration::from_millis(150),
            drain_deadline: Duration::from_secs(2),
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.addr();
    // Session goes idle after one request: the server closes it at the
    // idle timeout with no response bytes (there is no request to
    // answer).
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let (status, _, _) = read_response(&mut stream);
    assert_eq!(status, 200);
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "idle close must be silent: {rest:?}");

    // A fresh idle connection must not hold the drain past its deadline.
    let _idle = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let start = std::time::Instant::now();
    assert!(server.shutdown(), "idle connections must not block drain");
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "drain took {:?}",
        start.elapsed()
    );
}
