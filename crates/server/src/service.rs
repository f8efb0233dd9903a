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

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use schemr::{parse_keywords, SchemrEngine, SearchRequest};
use schemr_model::SchemaId;
use schemr_obs::{
    Counter, Histogram, LedgerProbe, MetricsRegistry, SearchOutcome, SloConfig, SloTracker,
    LATENCY_BUCKETS,
};
use schemr_viz::{radial_layout, to_graphml, tree_layout, GraphmlOptions, SvgOptions};

use crate::http::{read_request, HttpLimits, Request, Response};
use crate::xml_response::search_response_to_xml;

/// Connections currently parked between keep-alive requests, indexed so
/// a drain can wake their blocking reads with `shutdown(Read)` instead of
/// waiting out their idle budgets. Each parked worker blocks in a single
/// `recv` with the OS socket timeout set to its remaining idle budget —
/// one syscall per wait, instead of the seed's 25ms poll loop that burned
/// a wakeup per slice per idle connection (400k wakeups/s at the 10k
/// connection target).
#[derive(Default)]
struct ParkedConnections {
    /// Parked sockets by ticket id, each with whether a drain has shut
    /// its read side down.
    streams: Mutex<HashMap<u64, (TcpStream, bool)>>,
    next_id: AtomicU64,
}

impl ParkedConnections {
    /// Register a connection about to park. The returned ticket
    /// deregisters on drop; `None` (fd exhaustion on `try_clone`) parks
    /// unregistered — such a wait still honors its idle budget, it just
    /// cannot be woken early by a drain.
    fn park(&self, stream: &TcpStream) -> Option<ParkTicket<'_>> {
        let clone = stream.try_clone().ok()?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.streams.lock().insert(id, (clone, false));
        Some(ParkTicket { registry: self, id })
    }

    /// Wake every idle parked wait by shutting down the read side of its
    /// socket: the blocking `recv` returns EOF and the worker closes the
    /// connection — exactly what a drain wants from an idle session.
    ///
    /// A socket with unread bytes is not idle: a request's first bytes
    /// have arrived and its worker, not yet scheduled, is about to wake
    /// on its own and deregister. Shutting that one down would cut the
    /// request off mid-read (EOF → `400`), so it is left alone and the
    /// request is served like any other in flight. The whole walk holds
    /// the registry lock, and a worker deregisters (takes the lock)
    /// before it reads a request, so the decision cannot interleave with
    /// a request read.
    fn wake_all(&self) {
        for (stream, woken) in self.streams.lock().values_mut() {
            if !has_unread_bytes(stream) {
                let _ = stream.shutdown(Shutdown::Read);
                *woken = true;
            }
        }
    }
}

/// Non-blocking probe: has the peer sent bytes nobody has read yet?
/// Called only under the registry lock, on a socket whose worker is
/// parked. Non-blocking mode is shared with the worker's handle, which is
/// harmless there: a `recv` that is already blocked stays blocked, and
/// one that starts inside the probe sees `WouldBlock` and closes
/// silently — the right end for an idle connection during a drain.
fn has_unread_bytes(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return false;
    }
    let unread = matches!(stream.peek(&mut [0u8; 1]), Ok(n) if n > 0);
    let _ = stream.set_nonblocking(false);
    unread
}

/// RAII deregistration for [`ParkedConnections::park`].
struct ParkTicket<'a> {
    registry: &'a ParkedConnections,
    id: u64,
}

impl ParkTicket<'_> {
    /// Did a drain shut this connection's read side down?
    fn woken(&self) -> bool {
        let streams = self.registry.streams.lock();
        streams.get(&self.id).is_some_and(|(_, woken)| *woken)
    }
}

impl Drop for ParkTicket<'_> {
    fn drop(&mut self) {
        self.registry.streams.lock().remove(&self.id);
    }
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub bind: String,
    /// Worker threads handling connections.
    pub workers: usize,
    /// Socket read timeout — a client that stalls mid-request gets a 408
    /// instead of parking a worker forever. `None` disables the timeout.
    pub read_timeout: Option<Duration>,
    /// Socket write timeout for the response. `None` disables it.
    pub write_timeout: Option<Duration>,
    /// Hard caps on request parsing (request line, headers, body).
    pub http_limits: HttpLimits,
    /// How long a keep-alive connection may sit between requests before
    /// the server closes it. `None` keeps idle connections forever.
    pub idle_timeout: Option<Duration>,
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
    /// The `Retry-After` value (seconds) on shed responses.
    pub retry_after_secs: u32,
    /// Service-level objectives for the burn-rate tracker
    /// (`GET /debug/slo`; folds into `/healthz` as `degraded`).
    pub slo: SloConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            bind: "127.0.0.1:0".to_string(),
            workers: 4,
            read_timeout: Some(Duration::from_secs(10)),
            write_timeout: Some(Duration::from_secs(10)),
            http_limits: HttpLimits::default(),
            idle_timeout: Some(Duration::from_secs(10)),
            keepalive_requests: 64,
            max_queue: 128,
            drain_deadline: Duration::from_secs(5),
            retry_after_secs: 1,
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
    /// Idle keep-alive connections parked in a blocking read; a drain
    /// wakes them instead of waiting out their idle budgets.
    parked: Arc<ParkedConnections>,
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
        let parked = Arc::new(ParkedConnections::default());

        let mut workers = Vec::with_capacity(config.workers);
        for _ in 0..config.workers.max(1) {
            let rx = rx.clone();
            let engine = engine.clone();
            let metrics = metrics.clone();
            let stop = stop.clone();
            let config = config.clone();
            let done_tx = done_tx.clone();
            let slo = slo.clone();
            let parked = parked.clone();
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
                        &parked,
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
        let retry_after = config.retry_after_secs;
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
                    Err(TrySendError::Full(pending)) => {
                        shed(pending, retry_after, &engine2, &metrics2, &slo2)
                    }
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
            parked,
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
        self.stop.store(true, Ordering::Relaxed);
        // Wake idle keep-alive connections out of their blocking reads —
        // in-flight requests are untouched and finish normally.
        self.parked.wake_all();
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
fn shed(
    pending: Pending,
    retry_after_secs: u32,
    engine: &SchemrEngine,
    m: &HttpMetrics,
    slo: &SloTracker,
) {
    m.shed.inc();
    // Shed connections spend time in admission too (between accept and
    // the failed try_send); without this observation the queue-wait
    // histogram only ever sees the requests that made it through, which
    // understates waiting exactly when the queue is full.
    let queue_wait = pending.enqueued.elapsed();
    m.queue_wait.observe_duration(queue_wait);
    trace_rejection(engine, "shed", Some(queue_wait));
    let started = Instant::now();
    let response = Response::overloaded(retry_after_secs);
    record_request(engine.metrics_registry(), "shed", &response, started, slo);
    let mut stream = pending.stream;
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let _ = response.write_to(&mut stream);
}

/// Give a rejected request a trace of its own: a root span named after
/// the rejection (`shed`, `timeout`) carrying the queue wait, finished
/// straight into the trace ring and event log. Without this, rejected
/// work is invisible exactly where one looks when clients report errors.
fn trace_rejection(engine: &SchemrEngine, kind: &str, queue_wait: Option<Duration>) {
    let Some(ctx) = engine.tracer().begin(None) else {
        return;
    };
    let probe = LedgerProbe::start();
    {
        let root = ctx.root_span(kind);
        if let Some(wait) = queue_wait {
            root.annotate("queue_wait_us", wait.as_micros());
        }
    }
    engine.tracer().finish(
        ctx,
        SearchOutcome {
            query: format!("<{kind}>"),
            ledger: probe.delta(),
            ..Default::default()
        },
    );
}

/// What the between-requests wait ended with.
enum Wake {
    /// Request bytes are waiting in the buffer.
    Bytes,
    /// Close the connection without an answer: clean EOF, idle past the
    /// deadline, a drain with nothing in flight, or a socket error.
    Close,
}

/// Park until the next request's first byte arrives, without consuming
/// it. The wait is one blocking `recv` with the OS socket timeout set to
/// the remaining idle budget — a timeout (or EOF) closes silently, bytes
/// hand off to the request reader. A drain wakes the blocked read by
/// shutting down the socket's read side (see [`ParkedConnections`]), so
/// parked workers notice shutdown immediately without ever polling.
fn wait_for_request(
    reader: &mut BufReader<TcpStream>,
    idle_timeout: Option<Duration>,
    stop: &AtomicBool,
    parked: &ParkedConnections,
) -> Wake {
    // Pipelined bytes already buffered are a request in flight: nothing
    // to wait for, and nothing a drain wake may cut off.
    if !reader.buffer().is_empty() {
        return Wake::Bytes;
    }
    let deadline = idle_timeout.map(|d| Instant::now() + d);
    // Register for the drain wake *before* checking the stop flag: a
    // drain sets the flag and then walks the registry, so every park
    // either sees the flag here or is woken by the walk — never missed.
    let ticket = parked.park(reader.get_ref());
    // Seeing the flag means the walk may already be past: nothing would
    // wake a blocking wait, so read without waiting instead. A request
    // whose first bytes beat the drain here is still served; a
    // connection with nothing to read closes, as any idle one does.
    let draining = stop.load(Ordering::Relaxed);
    loop {
        let budget = match deadline {
            _ if draining => Some(Duration::from_millis(1)),
            Some(d) => match d
                .checked_duration_since(Instant::now())
                .filter(|b| !b.is_zero())
            {
                Some(b) => Some(b),
                None => return Wake::Close, // idle budget exhausted
            },
            None => None, // no idle timeout: block until bytes, EOF, or drain wake
        };
        if reader.get_ref().set_read_timeout(budget).is_err() {
            return Wake::Close;
        }
        match reader.fill_buf() {
            // Checked before everything else: bytes already sent during a
            // drain still get served (with `Connection: close`) — unless
            // they slipped in behind a drain wake. That read side is
            // shut, the rest of the request can never arrive, and a
            // connection the drain closed must end silently, not in the
            // `400` a truncated request earns.
            Ok(buf) if !buf.is_empty() => {
                let woken = ticket.as_ref().is_some_and(ParkTicket::woken);
                return if woken { Wake::Close } else { Wake::Bytes };
            }
            // Clean EOF — also how a drain wake surfaces.
            Ok(_) => return Wake::Close,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            // Timed out while parked: the whole idle budget elapsed
            // before the first byte — close without a 408. A stall
            // *inside* a request is the request reader's business and
            // still answers 408 under `read_timeout`.
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return Wake::Close;
            }
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
    parked: &ParkedConnections,
) {
    let _ = stream.set_write_timeout(config.write_timeout);
    // The peer address gates operator-only endpoints (e.g. adjusting the
    // slowlog threshold) to loopback clients.
    let peer = stream.peer_addr().ok();
    let mut reader = BufReader::new(stream);
    let budget = config.keepalive_requests.max(1);
    let mut served = 0usize;
    while served < budget {
        if matches!(
            wait_for_request(&mut reader, config.idle_timeout, stop, parked),
            Wake::Close
        ) {
            break;
        }
        // Bound how long one request read can hold this worker: without
        // the timeout a client that never finishes its request pins the
        // thread indefinitely.
        if reader
            .get_ref()
            .set_read_timeout(config.read_timeout)
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
                    if e.is_timeout() {
                        // A stalled request still waited for admission;
                        // give it a trace like any served request gets.
                        trace_rejection(engine, "timeout", (served == 0).then_some(queue_wait));
                    }
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
        "/stats" => "/stats",
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
    // The request's trace id (echoed in `X-Schemr-Trace-Id` for /search)
    // doubles as the latency exemplar, linking a slow bucket on
    // `/metrics` to its span tree under `/debug/traces/{id}`.
    let trace_id = response
        .headers
        .iter()
        .find(|(name, _)| name.eq_ignore_ascii_case("x-schemr-trace-id"))
        .map_or("", |(_, value)| value.as_str());
    registry
        .histogram_with(
            "schemr_http_request_seconds",
            "Wall time from request read to response ready, by route.",
            &[("route", label)],
            LATENCY_BUCKETS,
        )
        .observe_duration_exemplar(latency, trace_id);
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
    // expose corpus internals. Gate all of it to loopback clients the
    // way POST /debug/slowlog always was.
    if request.path.starts_with("/debug/") && !peer.is_some_and(|p| p.ip().is_loopback()) {
        return Response::forbidden("debug endpoints are loopback-only");
    }
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => handle_healthz(engine, slo),
        ("GET", "/metrics") => handle_metrics(engine),
        ("GET", "/stats") => handle_stats(engine),
        ("GET" | "POST", "/search") => handle_search(engine, request, queue_wait),
        ("GET", "/debug/traces") => handle_traces(engine, request),
        ("GET", "/debug/slowlog") => handle_slowlog(engine, request),
        ("POST", "/debug/slowlog") => handle_slowlog_threshold(engine, request, peer),
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

/// `GET /debug/index?limit=N`: corpus aggregates plus per-postings-list
/// statistics for the heaviest lists, including each list's max-impact
/// score (the WAND/MaxScore upper bound).
fn handle_index(engine: &SchemrEngine, request: &Request) -> Response {
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
fn handle_memory(engine: &SchemrEngine) -> Response {
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

/// `POST /debug/slowlog?threshold_ms=N`: adjust the slowlog admission
/// threshold at runtime. Loopback-only — it changes what the server
/// retains, so a remote client must not be able to flip it.
fn handle_slowlog_threshold(
    engine: &SchemrEngine,
    request: &Request,
    peer: Option<std::net::SocketAddr>,
) -> Response {
    if !peer.is_some_and(|p| p.ip().is_loopback()) {
        return Response::forbidden("slowlog threshold changes are loopback-only");
    }
    let Some(raw) = request.param("threshold_ms") else {
        return Response::bad_request("missing threshold_ms parameter");
    };
    let Ok(ms) = raw.parse::<u64>() else {
        return Response::bad_request("threshold_ms must be a non-negative integer");
    };
    engine
        .tracer()
        .set_slow_threshold(Duration::from_millis(ms));
    Response::ok(
        "application/json",
        format!("{{\"slow_threshold_ms\":{ms}}}"),
    )
}

/// Parse a `limit` query param with a default and an upper bound.
fn limit_param(request: &Request, default: usize, max: usize) -> usize {
    request
        .param("limit")
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(default)
        .min(max)
}

fn handle_traces(engine: &SchemrEngine, request: &Request) -> Response {
    let limit = limit_param(request, 50, 1000);
    let summaries: Vec<String> = engine
        .tracer()
        .recent(limit)
        .iter()
        .map(|t| t.summary_json())
        .collect();
    Response::ok("application/json", format!("[{}]", summaries.join(",")))
}

fn handle_trace_by_id(engine: &SchemrEngine, id: &str) -> Response {
    match engine.tracer().get(id) {
        Some(trace) => Response::ok("application/json", trace.to_json()),
        None => Response::not_found(format!("no retained trace with id `{id}`")),
    }
}

fn handle_slowlog(engine: &SchemrEngine, request: &Request) -> Response {
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

fn handle_stats(engine: &SchemrEngine) -> Response {
    let repo = engine.repository();
    let ix = engine.index_stats();
    let xml = format!(
        "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<stats schemas=\"{}\" revision=\"{}\" indexed=\"{}\" terms=\"{}\" postings=\"{}\"/>\n",
        repo.len(),
        repo.revision(),
        ix.live_docs,
        ix.distinct_terms,
        ix.postings
    );
    Response::ok("text/xml", xml)
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
mod tests {
    use super::*;
    use schemr_repo::{import::import_str, Repository};
    use std::io::{Read, Write};

    fn engine() -> Arc<SchemrEngine> {
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
    fn get(addr: std::net::SocketAddr, target: &str) -> (u16, String) {
        request(
            addr,
            &format!("GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"),
        )
    }

    /// Like `get`, but returns the raw response text (headers included).
    fn get_raw(addr: std::net::SocketAddr, target: &str, extra_headers: &str) -> String {
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

    fn request(addr: std::net::SocketAddr, raw: &str) -> (u16, String) {
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
    fn a_drain_wake_spares_a_parked_socket_whose_request_has_begun() {
        // Regression: the wake used to shut down every registered socket,
        // including one whose request bytes had landed but whose worker
        // had not yet run to deregister — the request then hit EOF
        // mid-read and was answered 400 instead of being served.
        let parked = ParkedConnections::default();
        let (mut busy_client, mut busy) = socket_pair();
        let (_idle_client, mut idle) = socket_pair();
        let busy_ticket = parked.park(&busy).unwrap();
        let idle_ticket = parked.park(&idle).unwrap();
        busy_client.write_all(b"GET /half").unwrap();
        // Blocks until the bytes have arrived, consuming nothing.
        assert_eq!(busy.peek(&mut [0u8; 1]).unwrap(), 1);

        parked.wake_all();

        // The socket with unread bytes kept its read side: the rest of
        // the request still arrives.
        assert!(!busy_ticket.woken());
        busy_client.write_all(b" rest").unwrap();
        let mut request = [0u8; 14];
        busy.read_exact(&mut request).unwrap();
        assert_eq!(&request, b"GET /half rest");
        // The idle one was woken: its blocking read returns EOF at once.
        assert!(idle_ticket.woken());
        assert_eq!(idle.read(&mut [0u8; 1]).unwrap(), 0);
    }

    #[test]
    fn a_park_that_finds_the_drain_begun_still_serves_bytes_already_sent() {
        // Regression: a worker that re-parked just after the drain flag
        // was set closed the connection unread, dropping a request whose
        // first bytes had already arrived.
        let parked = ParkedConnections::default();
        let stop = AtomicBool::new(true);
        let idle_budget = Some(Duration::from_secs(60));
        let (mut client, served) = socket_pair();
        client.write_all(b"GET /half").unwrap();
        assert_eq!(served.peek(&mut [0u8; 1]).unwrap(), 1);
        let mut reader = BufReader::new(served);
        let wake = wait_for_request(&mut reader, idle_budget, &stop, &parked);
        assert!(matches!(wake, Wake::Bytes));
        // With nothing sent it closes, and without sitting out the budget.
        let (_idle_client, idle) = socket_pair();
        let started = Instant::now();
        let wake = wait_for_request(&mut BufReader::new(idle), idle_budget, &stop, &parked);
        assert!(matches!(wake, Wake::Close));
        assert!(started.elapsed() < Duration::from_secs(30));
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
                read_timeout: Some(Duration::from_millis(200)),
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
    fn stats_endpoint_reports_repository_and_index() {
        let server = SchemrServer::start(engine(), ServerConfig::default()).unwrap();
        let (status, body) = get(server.addr(), "/stats");
        assert_eq!(status, 200);
        assert!(body.contains("schemas=\"2\""), "{body}");
        assert!(body.contains("indexed=\"2\""));
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
    fn slowlog_threshold_is_adjustable_at_runtime_from_loopback() {
        let server = SchemrServer::start(engine(), ServerConfig::default()).unwrap();
        let addr = server.addr();
        // Default threshold: an ordinary fast search is not slow.
        let raw = get_raw(addr, "/search?q=patient", "X-Schemr-Trace-Id: fast-1\r\n");
        assert!(raw.starts_with("HTTP/1.1 200"));
        let (_, body) = get(addr, "/debug/slowlog");
        assert!(!body.contains("fast-1"), "{body}");
        // Drop the threshold to zero at runtime: now everything is slow.
        let (status, body) = request(
            addr,
            "POST /debug/slowlog?threshold_ms=0 HTTP/1.1\r\nHost: t\r\n\
             Connection: close\r\nContent-Length: 0\r\n\r\n",
        );
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"slow_threshold_ms\":0"), "{body}");
        let raw = get_raw(addr, "/search?q=patient", "X-Schemr-Trace-Id: now-slow\r\n");
        assert!(raw.starts_with("HTTP/1.1 200"));
        let (_, body) = get(addr, "/debug/slowlog");
        assert!(body.contains("now-slow"), "{body}");
        // Garbage and missing parameters are 400s, not silent defaults.
        let (status, _) = request(
            addr,
            "POST /debug/slowlog?threshold_ms=abc HTTP/1.1\r\nHost: t\r\n\
             Connection: close\r\nContent-Length: 0\r\n\r\n",
        );
        assert_eq!(status, 400);
        let (status, _) = request(
            addr,
            "POST /debug/slowlog HTTP/1.1\r\nHost: t\r\n\
             Connection: close\r\nContent-Length: 0\r\n\r\n",
        );
        assert_eq!(status, 400);
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
    fn metrics_render_exemplars_with_live_trace_ids() {
        let server = SchemrServer::start(engine(), ServerConfig::default()).unwrap();
        let addr = server.addr();
        let raw = get_raw(
            addr,
            "/search?q=patient+height",
            "X-Schemr-Trace-Id: ex-9\r\n",
        );
        assert!(raw.starts_with("HTTP/1.1 200"));
        let (status, metrics) = get(addr, "/metrics");
        assert_eq!(status, 200);
        // Both the engine phase histograms and the HTTP latency histogram
        // carry OpenMetrics exemplars pointing at the trace that produced
        // the worst observation in the bucket's window.
        assert!(metrics.contains("# {trace_id=\"ex-9\"}"), "{metrics}");
        let phase_line = metrics
            .lines()
            .find(|l| l.starts_with("schemr_phase_seconds_bucket") && l.contains("# {trace_id="))
            .unwrap_or_else(|| panic!("no phase exemplar: {metrics}"));
        assert!(phase_line.contains("trace_id=\"ex-9\""), "{phase_line}");
        let http_line = metrics
            .lines()
            .find(|l| {
                l.starts_with("schemr_http_request_seconds_bucket") && l.contains("# {trace_id=")
            })
            .unwrap_or_else(|| panic!("no http exemplar: {metrics}"));
        assert!(http_line.contains("trace_id=\"ex-9\""), "{http_line}");
        assert!(server.shutdown());
    }
}
