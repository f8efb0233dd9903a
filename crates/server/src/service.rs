//! The search service: routing, admission control, worker pool,
//! lifecycle.
//!
//! The connection path is production-shaped: the accept loop feeds a
//! *bounded* pending-connection queue and sheds load with
//! `503 + Retry-After` when it is full (saturation surfaces as fast
//! rejections, never as an unbounded backlog); workers serve HTTP/1.1
//! keep-alive connections under a per-connection request budget and
//! idle timeout; parsing is bounded by [`HttpLimits`]; and
//! [`SchemrServer::shutdown`] drains in-flight requests within a
//! configurable deadline, answering keep-alive clients with
//! `Connection: close` while draining.

use std::io::{BufRead, BufReader};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use schemr::{parse_keywords, SchemrEngine, SearchRequest};
use schemr_model::SchemaId;
use schemr_obs::{Counter, Histogram, MetricsRegistry, SloConfig, SloTracker, LATENCY_BUCKETS};
use schemr_viz::{radial_layout, to_graphml, tree_layout, GraphmlOptions, SvgOptions};

use crate::debug::{
    handle_index, handle_memory, handle_slowlog, handle_trace_by_id, handle_traces,
};
use crate::http::{read_request, HttpLimits, Request, Response};
use crate::xml_response::search_response_to_xml;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub bind: String,
    /// Worker threads handling connections.
    pub workers: usize,
    /// Socket read timeout — a client that stalls mid-request gets a 408
    /// instead of parking a worker forever.
    pub read_timeout: Duration,
    /// Hard caps on request parsing (request line, headers, body).
    pub http_limits: HttpLimits,
    /// How long a keep-alive connection may sit between requests before
    /// the server closes it.
    pub idle_timeout: Duration,
    /// Requests served per connection before the server closes it
    /// (`Connection: close` on the last one). Bounds how long one client
    /// can monopolize a worker; minimum effective value is 1.
    pub keepalive_requests: usize,
    /// Capacity of the pending-connection queue between the accept loop
    /// and the workers. When full, new connections are shed with
    /// `503 + Retry-After` instead of queueing without bound; minimum
    /// effective value is 1.
    pub max_queue: usize,
    /// How long [`SchemrServer::shutdown`] waits for in-flight requests
    /// before giving up on stragglers.
    pub drain_deadline: Duration,
    /// Service-level objectives for the burn-rate tracker
    /// (`GET /debug/slo`; folds into `/healthz` as `degraded`).
    pub slo: SloConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            bind: "127.0.0.1:0".to_string(),
            workers: 4,
            read_timeout: Duration::from_secs(10),
            http_limits: HttpLimits::default(),
            idle_timeout: Duration::from_secs(10),
            keepalive_requests: 64,
            max_queue: 128,
            drain_deadline: Duration::from_secs(5),
            slo: SloConfig::default(),
        }
    }
}

/// A connection admitted to the pending queue, stamped so the dequeuing
/// worker can record how long it waited.
struct Pending {
    stream: TcpStream,
    enqueued: Instant,
}

/// Pre-registered handles for the serving-path metric families, shared
/// by the accept loop and the workers.
struct HttpMetrics {
    /// Connections rejected with `503 + Retry-After` because the pending
    /// queue was full.
    shed: Arc<Counter>,
    /// Connections admitted to the pending queue. Queue depth is
    /// `enqueued - dequeued - shed-free`: the registry is
    /// counters-and-histograms only, so depth is expressed as a counter
    /// pair instead of a gauge.
    queue_enqueued: Arc<Counter>,
    /// Connections taken off the queue by a worker.
    queue_dequeued: Arc<Counter>,
    /// Requests served on an already-used connection (the second and
    /// later requests of each keep-alive session).
    keepalive_reuse: Arc<Counter>,
    /// Time connections spent waiting in the pending queue.
    queue_wait: Arc<Histogram>,
}

impl HttpMetrics {
    fn register(registry: &MetricsRegistry) -> HttpMetrics {
        HttpMetrics {
            shed: registry.counter(
                "schemr_http_shed_total",
                "Connections rejected with 503 because the pending queue was full.",
            ),
            queue_enqueued: registry.counter(
                "schemr_http_queue_enqueued_total",
                "Connections admitted to the pending queue.",
            ),
            queue_dequeued: registry.counter(
                "schemr_http_queue_dequeued_total",
                "Connections dequeued by a worker.",
            ),
            keepalive_reuse: registry.counter(
                "schemr_http_keepalive_reuse_total",
                "Requests served on a reused keep-alive connection.",
            ),
            queue_wait: registry.histogram(
                "schemr_http_queue_wait_seconds",
                "Time connections waited in the pending queue.",
                LATENCY_BUCKETS,
            ),
        }
    }
}

/// A running Schemr search service.
pub struct SchemrServer {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    /// Each worker sends one `()` here when it exits; drain counts them
    /// against the deadline instead of `join`ing (which has no timeout).
    worker_done: mpsc::Receiver<()>,
    drain_deadline: Duration,
}

impl SchemrServer {
    /// Bind and start serving in background threads.
    pub fn start(engine: Arc<SchemrEngine>, config: ServerConfig) -> std::io::Result<SchemrServer> {
        let listener = TcpListener::bind(&config.bind)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let metrics = Arc::new(HttpMetrics::register(engine.metrics_registry()));
        let slo = Arc::new(SloTracker::new(config.slo));
        let (tx, rx) = mpsc::sync_channel::<Pending>(config.max_queue.max(1));
        // Workers take turns on the one receiver; each lets go of it
        // before serving what it took.
        let rx = Arc::new(Mutex::new(rx));
        let (done_tx, worker_done) = mpsc::channel();

        let mut workers = Vec::with_capacity(config.workers);
        for _ in 0..config.workers.max(1) {
            let rx = rx.clone();
            let engine = engine.clone();
            let metrics = metrics.clone();
            let stop = stop.clone();
            let config = config.clone();
            let done_tx = done_tx.clone();
            let slo = slo.clone();
            workers.push(std::thread::spawn(move || {
                loop {
                    let Ok(pending) = rx.lock().recv() else { break };
                    metrics.queue_dequeued.inc();
                    let queue_wait = pending.enqueued.elapsed();
                    metrics.queue_wait.observe_duration(queue_wait);
                    serve_connection(
                        pending.stream,
                        queue_wait,
                        &engine,
                        &metrics,
                        &config,
                        &stop,
                        &slo,
                    );
                }
                let _ = done_tx.send(());
            }));
        }
        drop(done_tx);

        let stop2 = stop.clone();
        let engine2 = engine.clone();
        let metrics2 = metrics.clone();
        let slo2 = slo.clone();
        let accept_thread = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if stop2.load(Ordering::Relaxed) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                match tx.try_send(Pending {
                    stream,
                    enqueued: Instant::now(),
                }) {
                    Ok(()) => metrics2.queue_enqueued.inc(),
                    Err(TrySendError::Full(pending)) => shed(pending, &engine2, &metrics2, &slo2),
                    Err(TrySendError::Disconnected(_)) => break,
                }
            }
            // Dropping tx closes the queue: workers finish what was
            // admitted, then exit.
        });

        Ok(SchemrServer {
            addr,
            stop,
            accept_thread: Some(accept_thread),
            workers,
            worker_done,
            drain_deadline: config.drain_deadline,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Graceful drain: stop accepting, let admitted connections finish
    /// their in-flight requests (keep-alive clients get
    /// `Connection: close`), and wait up to the configured drain
    /// deadline. Returns `true` when every worker exited within the
    /// deadline; on `false`, stragglers are left to finish detached.
    pub fn shutdown(mut self) -> bool {
        self.stop_threads()
    }

    fn stop_threads(&mut self) -> bool {
        // Parked keep-alive waits see the flag within one slice; requests
        // in flight are untouched and finish normally.
        self.stop.store(true, Ordering::Relaxed);
        // Unblock the accept loop with a no-op connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // The accept thread dropped the queue sender, so each worker
        // exits once its current connection is done. Count exits against
        // the deadline; `join` alone has no timeout.
        let deadline = Instant::now() + self.drain_deadline;
        let mut remaining = self.workers.len();
        while remaining > 0 {
            let now = Instant::now();
            let Some(budget) = deadline
                .checked_duration_since(now)
                .filter(|b| !b.is_zero())
            else {
                break;
            };
            match self.worker_done.recv_timeout(budget) {
                Ok(()) => remaining -= 1,
                Err(_) => break,
            }
        }
        if remaining == 0 {
            for w in self.workers.drain(..) {
                let _ = w.join();
            }
            true
        } else {
            // Stragglers hold connections past the deadline; dropping
            // their handles detaches them rather than blocking shutdown.
            self.workers.clear();
            false
        }
    }
}

impl Drop for SchemrServer {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.stop_threads();
        }
    }
}

/// Reject a connection the queue has no room for: `503 + Retry-After`,
/// written from the accept thread under a short write timeout so a slow
/// peer cannot stall accepting.
fn shed(pending: Pending, engine: &SchemrEngine, m: &HttpMetrics, slo: &SloTracker) {
    m.shed.inc();
    // Shed connections spend time in admission too (between accept and
    // the failed try_send); without this observation the queue-wait
    // histogram only ever sees the requests that made it through, which
    // understates waiting exactly when the queue is full.
    let queue_wait = pending.enqueued.elapsed();
    m.queue_wait.observe_duration(queue_wait);
    let started = Instant::now();
    let response = Response::overloaded();
    record_request(engine.metrics_registry(), "shed", &response, started, slo);
    let mut stream = pending.stream;
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let _ = response.write_to(&mut stream);
}

/// What the between-requests wait ended with.
enum Wake {
    /// Request bytes are waiting in the buffer.
    Bytes,
    /// Close the connection without an answer: clean EOF, idle past the
    /// deadline, a drain with nothing in flight, or a socket error.
    Close,
}

/// Socket write timeout for a response.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// How long one read of a parked keep-alive wait blocks before the wait
/// looks at the drain flag again.
const PARK_SLICE: Duration = Duration::from_millis(25);

/// Park until the next request's first byte arrives, without consuming
/// it. The wait reads in [`PARK_SLICE`]s, each capped by what is left of
/// the idle budget: bytes hand off to the request reader, EOF or an
/// exhausted budget closes silently, and between slices the wait looks
/// at the drain flag. The flag is read before the slice's read, so bytes
/// that arrived before a drain began are always served (with
/// `Connection: close`); a drain ends an idle wait within two slices,
/// and never touches the socket.
fn wait_for_request(
    reader: &mut BufReader<TcpStream>,
    idle_timeout: Duration,
    stop: &AtomicBool,
) -> Wake {
    // Pipelined bytes already buffered are a request in flight.
    if !reader.buffer().is_empty() {
        return Wake::Bytes;
    }
    let deadline = Instant::now() + idle_timeout;
    loop {
        let draining = stop.load(Ordering::Relaxed);
        let slice = match deadline
            .checked_duration_since(Instant::now())
            .filter(|b| !b.is_zero())
        {
            Some(left) => left.min(PARK_SLICE),
            None => return Wake::Close, // idle budget exhausted
        };
        if reader.get_ref().set_read_timeout(Some(slice)).is_err() {
            return Wake::Close;
        }
        match reader.fill_buf() {
            Ok(buf) if !buf.is_empty() => return Wake::Bytes,
            // Clean EOF: the peer hung up between requests.
            Ok(_) => return Wake::Close,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            // A slice passed with nothing sent: go on waiting, unless a
            // drain had begun before it. A stall *inside* a request is
            // the request reader's business and still answers 408 under
            // `read_timeout`.
            Err(e)
                if !draining
                    && matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) => {}
            Err(_) => return Wake::Close,
        }
    }
}

/// Serve one connection: up to `keepalive_requests` requests through a
/// single buffered reader (pipelined bytes survive between requests),
/// closing on client request, budget exhaustion, parse errors, idle
/// timeout, or drain.
#[allow(clippy::too_many_arguments)]
fn serve_connection(
    stream: TcpStream,
    queue_wait: Duration,
    engine: &SchemrEngine,
    metrics: &HttpMetrics,
    config: &ServerConfig,
    stop: &AtomicBool,
    slo: &SloTracker,
) {
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    // The peer address gates the operator-only `/debug/*` endpoints to
    // loopback clients.
    let peer = stream.peer_addr().ok();
    let mut reader = BufReader::new(stream);
    let budget = config.keepalive_requests.max(1);
    let mut served = 0usize;
    while served < budget {
        if matches!(
            wait_for_request(&mut reader, config.idle_timeout, stop),
            Wake::Close
        ) {
            break;
        }
        // Bound how long one request read can hold this worker: without
        // the timeout a client that never finishes its request pins the
        // thread indefinitely.
        if reader
            .get_ref()
            .set_read_timeout(Some(config.read_timeout))
            .is_err()
        {
            break;
        }
        let started = Instant::now();
        let (label, response, client_keep_alive) =
            match read_request(&mut reader, &config.http_limits) {
                Ok(request) => {
                    let keep = request.wants_keep_alive();
                    // Queue wait is a property of the connection's arrival;
                    // annotate it on the first request only.
                    let wait = (served == 0).then_some(queue_wait);
                    (
                        route_label(&request.path),
                        route(engine, slo, &request, wait, peer),
                        keep,
                    )
                }
                Err(e) => {
                    let label = if e.is_timeout() {
                        "timeout"
                    } else {
                        "malformed"
                    };
                    match Response::for_error(&e) {
                        // Parse errors always close: the reader may be
                        // mid-garbage and request framing is lost.
                        Some(response) => (label, response, false),
                        None => break,
                    }
                }
            };
        served += 1;
        if served > 1 {
            metrics.keepalive_reuse.inc();
        }
        // Sampled after the (possibly blocking) request read: a drain
        // that began while this request was in flight must demote the
        // response to `Connection: close`, or the client would send
        // another request into a server that is shutting down.
        let draining = stop.load(Ordering::Relaxed);
        let keep_alive = client_keep_alive && served < budget && !draining;
        record_request(engine.metrics_registry(), label, &response, started, slo);
        if response
            .write_to_conn(reader.get_mut(), keep_alive)
            .is_err()
            || !keep_alive
        {
            break;
        }
    }
}

/// Normalize a request path to a bounded label set: known routes keep
/// their name, id-carrying routes collapse to their prefix, and every
/// unknown path becomes one shared `other` label — a scanner probing
/// random URLs must not mint unbounded metric series.
fn route_label(path: &str) -> &'static str {
    match path {
        "/healthz" => "/healthz",
        "/metrics" => "/metrics",
        "/search" => "/search",
        "/debug/traces" => "/debug/traces",
        "/debug/slowlog" => "/debug/slowlog",
        "/debug/slo" => "/debug/slo",
        "/debug/index" => "/debug/index",
        "/debug/memory" => "/debug/memory",
        _ if path.starts_with("/debug/traces/") => "/debug/traces/{id}",
        _ if path.starts_with("/schema/") => "/schema",
        _ => "other",
    }
}

/// Record one served request into the shared registry.
fn record_request(
    registry: &Arc<MetricsRegistry>,
    label: &str,
    response: &Response,
    started: Instant,
    slo: &SloTracker,
) {
    let status = match response.status {
        200 => "200",
        400 => "400",
        403 => "403",
        404 => "404",
        405 => "405",
        408 => "408",
        431 => "431",
        503 => "503",
        _ => "other",
    };
    let latency = started.elapsed();
    // 5xx burns the error budget; client errors (4xx) don't — a scanner
    // probing bad paths must not page the on-call.
    slo.record(latency, response.status >= 500);
    registry
        .counter_with(
            "schemr_http_requests_total",
            "HTTP requests served, by route and status.",
            &[("route", label), ("status", status)],
        )
        .inc();
    registry
        .histogram_with(
            "schemr_http_request_seconds",
            "Wall time from request read to response ready, by route.",
            &[("route", label)],
            LATENCY_BUCKETS,
        )
        .observe_duration(latency);
}

/// Dispatch a request to a handler. `queue_wait` is the admission-queue
/// wait of the connection's first request, for span annotation. `peer`
/// gates operator-only endpoints to loopback clients.
fn route(
    engine: &SchemrEngine,
    slo: &SloTracker,
    request: &Request,
    queue_wait: Option<Duration>,
    peer: Option<std::net::SocketAddr>,
) -> Response {
    // The whole `/debug/*` surface is operator-only: span trees expose
    // query text, and the memory/index reports
    // expose corpus internals. Gate all of it to loopback clients.
    if request.path.starts_with("/debug/") && !peer.is_some_and(|p| p.ip().is_loopback()) {
        return Response::forbidden("debug endpoints are loopback-only");
    }
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => handle_healthz(engine, slo),
        ("GET", "/metrics") => handle_metrics(engine),
        ("GET" | "POST", "/search") => handle_search(engine, request, queue_wait),
        ("GET", "/debug/traces") => handle_traces(engine, request),
        ("GET", "/debug/slowlog") => handle_slowlog(engine, request),
        ("GET", "/debug/slo") => Response::ok("application/json", slo.report().to_json()),
        ("GET", "/debug/index") => handle_index(engine, request),
        ("GET", "/debug/memory") => handle_memory(engine),
        ("GET", _) if request.path.starts_with("/debug/traces/") => {
            handle_trace_by_id(engine, &request.path["/debug/traces/".len()..])
        }
        _ if request.path.starts_with("/schema/") => handle_schema(engine, request),
        _ => Response::not_found(format!("no route for {} {}", request.method, request.path)),
    }
}

/// `GET /metrics`: the registry's counter/histogram families plus
/// hand-rendered gauges. The registry holds monotonic families only, so
/// point-in-time values (resident bytes) are appended here instead of
/// being registered.
fn handle_metrics(engine: &SchemrEngine) -> Response {
    use std::fmt::Write as _;
    let mut body = engine.metrics_registry().render_prometheus();
    let mem = engine.memory_report();
    {
        let mut gauge = |name: &str, help: &str, value: u64| {
            let _ = write!(
                body,
                "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}\n"
            );
        };
        gauge(
            "schemr_repository_deep_bytes",
            "Estimated resident bytes of the schema repository: schemas, metadata, journal.",
            mem.repository_bytes as u64,
        );
        gauge(
            "schemr_index_deep_bytes",
            "Estimated heap bytes of the in-memory inverted index.",
            mem.index_deep_bytes as u64,
        );
        gauge(
            "schemr_candidate_cache_resident_entries",
            "Entries resident in the Phase 1 candidate cache.",
            mem.candidate_cache_entries as u64,
        );
        gauge(
            "schemr_match_artifact_cache_resident_bytes",
            "Bytes resident under the Phase 2 match-artifact budget: artifacts plus word lexicon.",
            mem.artifact_cache_resident_bytes as u64,
        );
        gauge(
            "schemr_trace_ring_bytes",
            "Estimated heap bytes retained by the recent-trace and slowlog rings.",
            (mem.trace_ring_bytes + mem.slow_ring_bytes) as u64,
        );
    }
    Response::ok("text/plain; version=0.0.4", body)
}

fn handle_healthz(engine: &SchemrEngine, slo: &SloTracker) -> Response {
    // A liveness probe: the O(1) counts, not `index_stats()`, which
    // walks every segment's term dictionary.
    let (live_docs, _) = engine.index_doc_counts();
    // Three states: `unavailable` (nothing to serve, 503), `degraded`
    // (serving, but burning SLO budget faster than provisioned — still
    // 200 so orchestrators don't amplify an incident by killing capacity)
    // and `ok`.
    let degraded = slo.report().degraded();
    let status = if live_docs == 0 {
        "unavailable"
    } else if degraded {
        "degraded"
    } else {
        "ok"
    };
    let body = format!(
        "{{\"status\":\"{}\",\"revision\":{},\"indexed_docs\":{},\"slo_degraded\":{}}}",
        status,
        engine.repository().revision(),
        live_docs,
        degraded
    );
    if live_docs == 0 {
        Response::unavailable("application/json", body)
    } else {
        Response::ok("application/json", body)
    }
}

fn handle_search(
    engine: &SchemrEngine,
    request: &Request,
    queue_wait: Option<Duration>,
) -> Response {
    let mut sr = SearchRequest {
        keywords: request.param("q").map(parse_keywords).unwrap_or_default(),
        queue_wait,
        ..Default::default()
    };
    if request.method == "POST" && !request.body.trim().is_empty() {
        match schemr_parse::parse_fragment("fragment", &request.body) {
            Ok(fragment) => sr.fragments.push(fragment),
            Err(e) => return Response::bad_request(format!("fragment: {e}")),
        }
    }
    if let Some(limit) = request.param("limit") {
        match limit.parse::<usize>() {
            Ok(0) => return Response::bad_request("limit must be at least 1"),
            Ok(n) => sr.limit = Some(n),
            Err(_) => return Response::bad_request("limit must be an integer"),
        }
    }
    sr.explain = matches!(request.param("explain"), Some("1") | Some("true"));
    // Propagate a client-supplied trace id; the engine validates it and
    // falls back to a generated one. Either way the id actually used is
    // echoed back in `X-Schemr-Trace-Id`.
    sr.trace_id = request.headers.get("x-schemr-trace-id").cloned();
    match engine.search_detailed(&sr) {
        Ok(response) => {
            let mut http = Response::ok("text/xml", search_response_to_xml(&response));
            if let Some(id) = &response.trace_id {
                http = http.with_header("X-Schemr-Trace-Id", id);
            }
            if let Some(ledger) = &response.ledger {
                let wall_us = response.timings.total().as_micros() as u64;
                http = http.with_header("X-Schemr-Cost", ledger.header_value(wall_us));
            }
            http
        }
        Err(e) => Response::bad_request(e.to_string()),
    }
}

fn handle_schema(engine: &SchemrEngine, request: &Request) -> Response {
    if request.method != "GET" {
        return Response {
            status: 405,
            content_type: "text/plain",
            body: "only GET is supported for /schema".to_string(),
            headers: Vec::new(),
        };
    }
    let rest = &request.path["/schema/".len()..];
    let (id_part, tail) = rest.split_once('/').unwrap_or((rest, ""));
    let Ok(id) = id_part.parse::<SchemaId>() else {
        return Response::bad_request(format!("bad schema id `{id_part}`"));
    };
    let Some(stored) = engine.repository().get(id) else {
        return Response::not_found(format!("schema {id} not found"));
    };
    let depth = request
        .param("depth")
        .and_then(|d| d.parse::<usize>().ok())
        .unwrap_or(3);
    match tail {
        "" => {
            let xml = to_graphml(
                &stored.schema,
                &GraphmlOptions {
                    max_depth: Some(depth),
                    scores: vec![],
                },
            );
            Response::ok("application/graphml+xml", xml)
        }
        "svg" => {
            let roots = stored.schema.roots();
            let layout = match request.param("layout").unwrap_or("tree") {
                "radial" => radial_layout(&stored.schema, &roots, depth),
                "tree" => tree_layout(&stored.schema, &roots, depth),
                other => return Response::bad_request(format!("unknown layout `{other}`")),
            };
            let svg = schemr_viz::render_svg(&stored.schema, &layout, &SvgOptions::default());
            Response::ok("image/svg+xml", svg)
        }
        other => Response::not_found(format!("no such schema view `{other}`")),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use schemr_repo::{import::import_str, Repository};
    use std::io::{Read, Write};

    pub(crate) fn engine() -> Arc<SchemrEngine> {
        let repo = Arc::new(Repository::new());
        import_str(
            &repo,
            "clinic",
            "rural health clinic",
            "CREATE TABLE patient (id INT, height REAL, gender TEXT, diagnosis TEXT)",
        )
        .unwrap();
        import_str(
            &repo,
            "store",
            "a web shop",
            "CREATE TABLE orders (id INT, total DECIMAL, quantity INT, customer TEXT)",
        )
        .unwrap();
        let engine = Arc::new(SchemrEngine::new(repo));
        engine.reindex_full();
        engine
    }

    /// One-shot GET: sends `Connection: close` so `read_to_string` sees
    /// EOF as soon as the response is written.
    pub(crate) fn get(addr: std::net::SocketAddr, target: &str) -> (u16, String) {
        request(
            addr,
            &format!("GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"),
        )
    }

    /// Like `get`, but returns the raw response text (headers included).
    pub(crate) fn get_raw(addr: std::net::SocketAddr, target: &str, extra_headers: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(
                format!(
                    "GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n{extra_headers}\r\n"
                )
                .as_bytes(),
            )
            .unwrap();
        let mut buf = String::new();
        stream.read_to_string(&mut buf).unwrap();
        buf
    }

    pub(crate) fn request(addr: std::net::SocketAddr, raw: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(raw.as_bytes()).unwrap();
        let mut buf = String::new();
        stream.read_to_string(&mut buf).unwrap();
        let status: u16 = buf
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let body = buf
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    /// A connected loopback pair: `(client end, server end)`.
    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (served, _) = listener.accept().unwrap();
        (client, served)
    }

    #[test]
    fn a_park_that_finds_the_drain_begun_still_serves_bytes_already_sent() {
        // Regression: a worker that re-parked just after the drain flag
        // was set closed the connection unread, dropping a request whose
        // first bytes had already arrived.
        let stop = AtomicBool::new(true);
        let idle_budget = Duration::from_secs(60);
        let (mut client, served) = socket_pair();
        client.write_all(b"GET /half").unwrap();
        assert_eq!(served.peek(&mut [0u8; 1]).unwrap(), 1);
        let mut reader = BufReader::new(served);
        let wake = wait_for_request(&mut reader, idle_budget, &stop);
        assert!(matches!(wake, Wake::Bytes));
        // With nothing sent it closes, and without sitting out the budget.
        let (_idle_client, idle) = socket_pair();
        let started = Instant::now();
        let wake = wait_for_request(&mut BufReader::new(idle), idle_budget, &stop);
        assert!(matches!(wake, Wake::Close));
        assert!(started.elapsed() < Duration::from_secs(30));
        // A wait already parked when the drain begins closes within a
        // second of the flag flipping, not at the end of its budget.
        let stop = Arc::new(AtomicBool::new(false));
        let (_idle_client, idle) = socket_pair();
        let waiting = {
            let stop = stop.clone();
            std::thread::spawn(move || {
                let wake = wait_for_request(&mut BufReader::new(idle), idle_budget, &stop);
                (wake, Instant::now())
            })
        };
        std::thread::sleep(Duration::from_millis(100));
        let flipped = Instant::now();
        stop.store(true, Ordering::Relaxed);
        let (wake, woke) = waiting.join().unwrap();
        assert!(matches!(wake, Wake::Close));
        assert!(
            woke - flipped < Duration::from_secs(1),
            "{:?}",
            woke - flipped
        );
    }

    #[test]
    fn healthz_reports_revision_and_doc_count() {
        let server = SchemrServer::start(engine(), ServerConfig::default()).unwrap();
        let (status, body) = get(server.addr(), "/healthz");
        assert_eq!(status, 200);
        assert!(body.contains("\"status\":\"ok\""), "{body}");
        assert!(body.contains("\"revision\":2"), "{body}");
        assert!(body.contains("\"indexed_docs\":2"), "{body}");
        assert!(server.shutdown());
    }

    #[test]
    fn metrics_endpoint_renders_engine_and_http_families() {
        let server = SchemrServer::start(engine(), ServerConfig::default()).unwrap();
        let addr = server.addr();
        let (status, _) = get(addr, "/search?q=patient");
        assert_eq!(status, 200);
        let (status, body) = get(addr, "/metrics");
        assert_eq!(status, 200);
        assert!(body.contains("# TYPE schemr_search_requests_total counter"));
        assert!(body.contains("schemr_search_requests_total 1"), "{body}");
        assert!(
            body.contains("schemr_phase_seconds_bucket{phase=\"matching\","),
            "{body}"
        );
        assert!(body.contains("schemr_matcher_seconds_bucket{matcher=\"name\","));
        assert!(
            body.contains("# TYPE schemr_match_artifact_cache_hits_total counter"),
            "{body}"
        );
        assert!(
            body.contains("schemr_match_artifact_cache_misses_total"),
            "{body}"
        );
        assert!(
            body.contains("schemr_http_requests_total{route=\"/search\",status=\"200\"} 1"),
            "{body}"
        );
        assert!(body.contains("schemr_http_request_seconds_bucket{route=\"/search\","));
        // The serving-path families are pre-registered and render even
        // before saturation or reuse has happened.
        assert!(
            body.contains("# TYPE schemr_http_shed_total counter"),
            "{body}"
        );
        assert!(body.contains("schemr_http_shed_total 0"), "{body}");
        assert!(body.contains("schemr_http_queue_enqueued_total"), "{body}");
        assert!(body.contains("schemr_http_queue_dequeued_total"), "{body}");
        assert!(body.contains("schemr_http_keepalive_reuse_total"), "{body}");
        assert!(
            body.contains("schemr_http_queue_wait_seconds_bucket"),
            "{body}"
        );
        assert!(server.shutdown());
    }

    #[test]
    fn explain_param_attaches_a_trace() {
        let server = SchemrServer::start(engine(), ServerConfig::default()).unwrap();
        let addr = server.addr();
        let (status, plain) = get(addr, "/search?q=patient");
        assert_eq!(status, 200);
        assert!(!plain.contains("<trace"));
        let (status, body) = get(addr, "/search?q=patient&explain=1");
        assert_eq!(status, 200);
        assert!(body.contains("<trace candidates-from-index="), "{body}");
        assert!(body.contains("<phase name=\"candidate_extraction\""));
        assert!(body.contains("<matcher name=\"name\""));
        assert!(server.shutdown());
    }

    #[test]
    fn keyword_search_returns_ranked_xml() {
        let server = SchemrServer::start(engine(), ServerConfig::default()).unwrap();
        let (status, body) = get(server.addr(), "/search?q=patient+height+gender");
        assert_eq!(status, 200);
        assert!(body.contains("<results"));
        assert!(body.contains("<title>clinic</title>"));
        let clinic_pos = body.find("clinic").unwrap();
        let store_pos = body.find("store").unwrap_or(usize::MAX);
        assert!(clinic_pos < store_pos);
        assert!(server.shutdown());
    }

    #[test]
    fn post_fragment_search() {
        let server = SchemrServer::start(engine(), ServerConfig::default()).unwrap();
        let body = "CREATE TABLE patient (height REAL, gender TEXT)";
        let raw = format!(
            "POST /search HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        );
        let (status, resp) = request(server.addr(), &raw);
        assert_eq!(status, 200);
        assert!(resp.contains("clinic"));
        assert!(server.shutdown());
    }

    #[test]
    fn schema_endpoint_returns_graphml_and_svg() {
        let eng = engine();
        let id = eng.repository().ids()[0];
        let server = SchemrServer::start(eng, ServerConfig::default()).unwrap();
        let (status, body) = get(server.addr(), &format!("/schema/{id}"));
        assert_eq!(status, 200);
        assert!(body.contains("<graphml"));
        let (status, svg) = get(server.addr(), &format!("/schema/{id}/svg?layout=radial"));
        assert_eq!(status, 200);
        assert!(svg.starts_with("<svg"));
        assert!(server.shutdown());
    }

    #[test]
    fn error_paths() {
        let server = SchemrServer::start(engine(), ServerConfig::default()).unwrap();
        let addr = server.addr();
        assert_eq!(get(addr, "/nope").0, 404);
        assert_eq!(get(addr, "/schema/zzz").0, 400);
        assert_eq!(get(addr, "/schema/s9999").0, 404);
        assert_eq!(get(addr, "/search").0, 400); // empty query
        assert_eq!(get(addr, "/search?q=patient&limit=abc").0, 400);
        let (status, body) = get(addr, "/search?q=patient&limit=0");
        assert_eq!((status, body.as_str()), (400, "limit must be at least 1"));
        assert_eq!(get(addr, "/schema/s0/svg?layout=spiral").0, 400);
        assert!(server.shutdown());
    }

    #[test]
    fn concurrent_requests_are_served() {
        let server = SchemrServer::start(
            engine(),
            ServerConfig {
                workers: 4,
                ..Default::default()
            },
        );
        let server = server.unwrap();
        let addr = server.addr();
        let handles: Vec<_> = (0..16)
            .map(|_| {
                std::thread::spawn(move || {
                    let (status, _) = get(addr, "/search?q=patient");
                    assert_eq!(status, 200);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(server.shutdown());
    }

    #[test]
    fn healthz_returns_503_on_an_empty_index() {
        let repo = Arc::new(Repository::new());
        let eng = Arc::new(SchemrEngine::new(repo));
        eng.reindex_full();
        let server = SchemrServer::start(eng, ServerConfig::default()).unwrap();
        let (status, body) = get(server.addr(), "/healthz");
        assert_eq!(status, 503);
        assert!(body.contains("\"status\":\"unavailable\""), "{body}");
        assert!(body.contains("\"indexed_docs\":0"));
        // The 503 lands in the request metrics under its own status label.
        let (_, metrics) = get(server.addr(), "/metrics");
        assert!(
            metrics.contains("schemr_http_requests_total{route=\"/healthz\",status=\"503\"} 1"),
            "{metrics}"
        );
        assert!(server.shutdown());
    }

    #[test]
    fn health_and_metrics_set_content_type() {
        let server = SchemrServer::start(engine(), ServerConfig::default()).unwrap();
        let health = get_raw(server.addr(), "/healthz", "");
        assert!(
            health.contains("Content-Type: application/json; charset=utf-8\r\n"),
            "{health}"
        );
        let metrics = get_raw(server.addr(), "/metrics", "");
        assert!(
            metrics.contains("Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"),
            "{metrics}"
        );
        assert!(server.shutdown());
    }

    #[test]
    fn unknown_routes_share_one_metric_label() {
        let server = SchemrServer::start(engine(), ServerConfig::default()).unwrap();
        let addr = server.addr();
        assert_eq!(get(addr, "/totally/made/up").0, 404);
        assert_eq!(get(addr, "/another-random-path-42").0, 404);
        let (_, metrics) = get(addr, "/metrics");
        assert!(
            metrics.contains("schemr_http_requests_total{route=\"other\",status=\"404\"} 2"),
            "{metrics}"
        );
        // And the id-carrying debug route collapses too.
        let _ = get(addr, "/debug/traces/some-id");
        let (_, metrics) = get(addr, "/metrics");
        assert!(
            metrics.contains(
                "schemr_http_requests_total{route=\"/debug/traces/{id}\",status=\"404\"} 1"
            ),
            "{metrics}"
        );
        assert!(server.shutdown());
    }

    #[test]
    fn stalled_clients_get_408_and_free_the_worker() {
        let server = SchemrServer::start(
            engine(),
            ServerConfig {
                read_timeout: Duration::from_millis(200),
                ..Default::default()
            },
        )
        .unwrap();
        let addr = server.addr();
        // A partial request with no terminating blank line: the worker
        // must time out reading it rather than block forever.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"GET /search?q=patient HTTP/1.1\r\nHost: t")
            .unwrap();
        let mut buf = String::new();
        stream.read_to_string(&mut buf).unwrap();
        assert!(buf.starts_with("HTTP/1.1 408 Request Timeout\r\n"), "{buf}");
        drop(stream);
        // The worker is free again and the timeout is visible in metrics.
        let (status, metrics) = get(addr, "/metrics");
        assert_eq!(status, 200);
        assert!(
            metrics.contains("schemr_http_requests_total{route=\"timeout\",status=\"408\"} 1"),
            "{metrics}"
        );
        assert!(server.shutdown());
    }

    #[test]
    fn limit_param_caps_results() {
        let server = SchemrServer::start(engine(), ServerConfig::default()).unwrap();
        let (_, body) = get(server.addr(), "/search?q=id&limit=1");
        assert!(body.contains("count=\"1\""), "{body}");
        assert!(server.shutdown());
    }

    #[test]
    fn cost_header_reports_the_query_ledger() {
        let server = SchemrServer::start(engine(), ServerConfig::default()).unwrap();
        let raw = get_raw(server.addr(), "/search?q=patient+height", "");
        assert!(raw.starts_with("HTTP/1.1 200"));
        assert!(raw.contains("X-Schemr-Cost: wall_us="), "{raw}");
        assert!(raw.contains(";cpu_us="), "{raw}");
        assert!(raw.contains(";alloc="), "{raw}");
        assert!(server.shutdown());
    }

    #[test]
    fn debug_slo_reports_burn_windows_and_healthz_carries_the_verdict() {
        let server = SchemrServer::start(engine(), ServerConfig::default()).unwrap();
        let addr = server.addr();
        let (status, _) = get(addr, "/search?q=patient");
        assert_eq!(status, 200);
        let (status, body) = get(addr, "/debug/slo");
        assert_eq!(status, 200);
        assert!(body.contains("\"p99_objective_ms\""), "{body}");
        assert!(body.contains("\"window\":\"5m\""), "{body}");
        assert!(body.contains("\"window\":\"1h\""), "{body}");
        assert!(body.contains("\"latency_burn\""), "{body}");
        assert!(body.contains("\"error_burn\""), "{body}");
        // A healthy server reports the SLO verdict on its health check.
        let (status, health) = get(addr, "/healthz");
        assert_eq!(status, 200);
        assert!(health.contains("\"slo_degraded\":false"), "{health}");
        assert!(server.shutdown());
    }

    #[test]
    fn sustained_5xx_burn_the_error_budget_and_flag_degraded() {
        // An empty-index server answers /healthz with 503, which counts
        // against the error budget like any other 5xx. Under a tight
        // budget a handful of them pushes the fast window's burn rate
        // past 1.0 and the health body flips to degraded.
        let repo = Arc::new(Repository::new());
        let eng = Arc::new(SchemrEngine::new(repo));
        eng.reindex_full();
        let server = SchemrServer::start(
            eng,
            ServerConfig {
                slo: schemr_obs::SloConfig {
                    error_budget_pct: 0.001,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .unwrap();
        let addr = server.addr();
        for _ in 0..5 {
            assert_eq!(get(addr, "/healthz").0, 503);
        }
        let (_, health) = get(addr, "/healthz");
        assert!(health.contains("\"slo_degraded\":true"), "{health}");
        let (_, slo) = get(addr, "/debug/slo");
        // Every request so far errored: burn is way past 1.0.
        assert!(slo.contains("\"window\":\"5m\""), "{slo}");
        assert!(!slo.contains("\"error_burn\":0.0,"), "{slo}");
        // And a healthy server under plain 2xx traffic stays clean even
        // on the same tight budget.
        let healthy = SchemrServer::start(
            engine(),
            ServerConfig {
                slo: schemr_obs::SloConfig {
                    error_budget_pct: 0.001,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .unwrap();
        for _ in 0..10 {
            assert_eq!(get(healthy.addr(), "/search?q=patient").0, 200);
        }
        let (status, body) = get(healthy.addr(), "/healthz");
        assert_eq!(status, 200);
        assert!(body.contains("\"slo_degraded\":false"), "{body}");
        assert!(server.shutdown());
        assert!(healthy.shutdown());
    }

    #[test]
    fn debug_endpoints_are_loopback_gated() {
        // The route dispatcher refuses any /debug path for a non-loopback
        // peer — and for a missing peer address, which must fail closed.
        let eng = engine();
        let slo = SloTracker::new(SloConfig::default());
        let remote: std::net::SocketAddr = "203.0.113.9:4411".parse().unwrap();
        for path in [
            "/debug/traces",
            "/debug/traces/some-id",
            "/debug/slowlog",
            "/debug/slo",
            "/debug/index",
            "/debug/memory",
        ] {
            let req = Request {
                method: "GET".to_string(),
                path: path.to_string(),
                query: Default::default(),
                headers: Default::default(),
                version: "HTTP/1.1".to_string(),
                body: String::new(),
            };
            let denied = route(&eng, &slo, &req, None, Some(remote));
            assert_eq!(denied.status, 403, "{path} must be gated");
            let no_peer = route(&eng, &slo, &req, None, None);
            assert_eq!(
                no_peer.status, 403,
                "{path} must fail closed without a peer"
            );
        }
        // Loopback keeps working, and non-debug routes stay open to all.
        let local: std::net::SocketAddr = "127.0.0.1:4411".parse().unwrap();
        let req = Request {
            method: "GET".to_string(),
            path: "/debug/memory".to_string(),
            query: Default::default(),
            headers: Default::default(),
            version: "HTTP/1.1".to_string(),
            body: String::new(),
        };
        assert_eq!(route(&eng, &slo, &req, None, Some(local)).status, 200);
        let open = Request {
            method: "GET".to_string(),
            path: "/healthz".to_string(),
            query: Default::default(),
            headers: Default::default(),
            version: "HTTP/1.1".to_string(),
            body: String::new(),
        };
        assert_eq!(route(&eng, &slo, &open, None, Some(remote)).status, 200);
    }

    #[test]
    fn metrics_are_valid_0_0_4_text_after_traced_traffic() {
        let server = SchemrServer::start(engine(), ServerConfig::default()).unwrap();
        let addr = server.addr();
        let raw = get_raw(
            addr,
            "/search?q=patient+height",
            "X-Schemr-Trace-Id: ex-9\r\n",
        );
        assert!(raw.starts_with("HTTP/1.1 200"));
        assert_eq!(get(addr, "/healthz").0, 200);
        let (status, metrics) = get(addr, "/metrics");
        assert_eq!(status, 200);
        // Every sample is `name{labels} value` and nothing after it.
        for line in metrics.lines().filter(|l| !l.starts_with('#')) {
            let (series, value) = line.rsplit_once(' ').unwrap_or((line, ""));
            let name = series.split('{').next().unwrap();
            let labels = &series[name.len()..];
            assert!(
                !name.is_empty()
                    && !name.starts_with(|c: char| c.is_ascii_digit())
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
                    && (labels.is_empty() || labels.starts_with('{') && labels.ends_with('}'))
                    && !series.contains(' ')
                    && value.parse::<f64>().is_ok(),
                "not a 0.0.4 sample: {line}"
            );
        }
        assert!(server.shutdown());
    }
}
