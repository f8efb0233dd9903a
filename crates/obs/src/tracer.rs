//! The `schemr-trace` facade: per-request trace lifecycle management.
//!
//! A [`Tracer`] owns everything a running engine needs for per-request
//! observability: a monotonic trace-id source, the in-memory ring of
//! recent [`CompletedTrace`]s (`/debug/traces`), the slow-query ring
//! (`/debug/slowlog`), and the optional durable [`EventLog`]. The engine
//! calls [`Tracer::begin`] at the top of every search and
//! [`Tracer::finish`] at the bottom; everything else (ring eviction,
//! slowlog admission, event-log append + rotation) happens inside
//! `finish`, off the request's critical path measurements.
//!
//! When tracing is disabled, `begin` returns `None` and the search path
//! pays only that one branch — the <5% overhead budget in the e1 bench
//! compares against exactly this path.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::eventlog::{EventLog, EventResult, SearchEvent};
use crate::ledger::ResourceLedger;
use crate::ring::Ring;
use crate::span::{CompletedTrace, TraceContext};

/// Configuration for a [`Tracer`].
#[derive(Debug, Clone, PartialEq)]
pub struct TracerConfig {
    /// Master switch; when false, [`Tracer::begin`] returns `None`.
    pub enabled: bool,
    /// How many completed traces `/debug/traces` retains.
    pub ring_capacity: usize,
    /// How many slow traces `/debug/slowlog` retains.
    pub slowlog_capacity: usize,
    /// Searches at or above this duration enter the slowlog.
    pub slow_threshold: Duration,
    /// Where to append the JSONL event log (`None` disables it).
    pub event_log_path: Option<PathBuf>,
    /// Size bound for the active event-log file before rotation.
    pub event_log_max_bytes: u64,
}

impl Default for TracerConfig {
    fn default() -> Self {
        TracerConfig {
            enabled: true,
            ring_capacity: 128,
            slowlog_capacity: 64,
            slow_threshold: Duration::from_millis(250),
            event_log_path: None,
            event_log_max_bytes: 8 << 20,
        }
    }
}

impl TracerConfig {
    /// A disabled tracer (the bench baseline).
    pub fn disabled() -> Self {
        TracerConfig {
            enabled: false,
            ..TracerConfig::default()
        }
    }
}

/// What the engine knows about a finished search, handed to
/// [`Tracer::finish`] alongside the span context.
#[derive(Debug, Clone, Default)]
pub struct SearchOutcome {
    /// Normalized query text.
    pub query: String,
    /// Phase 1 hit count.
    pub candidates_from_index: usize,
    /// Candidates scored by Phase 2/3.
    pub candidates_evaluated: usize,
    /// Top-k results with per-matcher strengths.
    pub results: Vec<EventResult>,
    /// What the search cost (CPU, allocations).
    pub ledger: ResourceLedger,
}

/// Per-engine trace manager; all methods take `&self`.
#[derive(Debug)]
pub struct Tracer {
    config: TracerConfig,
    /// Slowlog admission threshold in µs — atomic so `POST
    /// /debug/slowlog` can adjust it at runtime.
    slow_threshold_us: AtomicU64,
    seq: AtomicU64,
    ring: Ring<CompletedTrace>,
    slow: Ring<CompletedTrace>,
    event_log: Option<EventLog>,
}

impl Tracer {
    /// Build a tracer. An event log that fails to open is reported to
    /// stderr and dropped rather than failing engine construction —
    /// observability must never take the search path down.
    pub fn new(config: TracerConfig) -> Tracer {
        let event_log = config.event_log_path.as_ref().and_then(|path| {
            match EventLog::open(path, config.event_log_max_bytes) {
                Ok(log) => Some(log),
                Err(err) => {
                    eprintln!("schemr-trace: cannot open event log {path:?}: {err}");
                    None
                }
            }
        });
        Tracer {
            ring: Ring::new(config.ring_capacity),
            slow: Ring::new(config.slowlog_capacity),
            seq: AtomicU64::new(0),
            slow_threshold_us: AtomicU64::new(config.slow_threshold.as_micros() as u64),
            event_log,
            config,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &TracerConfig {
        &self.config
    }

    /// Whether tracing is on.
    pub fn enabled(&self) -> bool {
        self.config.enabled
    }

    /// Start a trace for one search. `client_id` is an optional
    /// caller-supplied id (e.g. the `X-Schemr-Trace-Id` header); invalid
    /// or absent ids fall back to a generated monotonic `t<seq>` id.
    /// Returns `None` when tracing is disabled.
    pub fn begin(&self, client_id: Option<&str>) -> Option<TraceContext> {
        if !self.config.enabled {
            return None;
        }
        let id = match client_id.map(str::trim).filter(|s| valid_trace_id(s)) {
            Some(id) => id.to_string(),
            None => format!("t{}", self.seq.fetch_add(1, Ordering::Relaxed)),
        };
        Some(TraceContext::new(id))
    }

    /// The current slowlog admission threshold.
    pub fn slow_threshold(&self) -> Duration {
        Duration::from_micros(self.slow_threshold_us.load(Ordering::Relaxed))
    }

    /// Adjust the slowlog admission threshold at runtime (`POST
    /// /debug/slowlog?threshold_ms=N`). Takes effect for the next
    /// `finish`; already-admitted traces stay in the slowlog.
    pub fn set_slow_threshold(&self, threshold: Duration) {
        self.slow_threshold_us
            .store(threshold.as_micros() as u64, Ordering::Relaxed);
    }

    /// Complete a trace: publish it to the recent ring, admit it to the
    /// slowlog if over threshold, and append a [`SearchEvent`] to the
    /// event log. Returns the completed trace.
    pub fn finish(&self, ctx: TraceContext, outcome: SearchOutcome) -> Arc<CompletedTrace> {
        let (trace_id, started_unix_ms, total_us, spans) = ctx.into_parts();
        let trace = Arc::new(CompletedTrace {
            trace_id,
            started_unix_ms,
            total_us,
            query: outcome.query,
            candidates_from_index: outcome.candidates_from_index,
            candidates_evaluated: outcome.candidates_evaluated,
            results: outcome.results,
            ledger: outcome.ledger,
            spans,
        });
        self.ring.push(Arc::clone(&trace));
        if total_us >= self.slow_threshold_us.load(Ordering::Relaxed) {
            self.slow.push(Arc::clone(&trace));
        }
        if let Some(log) = &self.event_log {
            let event = SearchEvent {
                trace_id: trace.trace_id.clone(),
                unix_ms: trace.started_unix_ms,
                query: trace.query.clone(),
                candidates_from_index: trace.candidates_from_index,
                candidates_evaluated: trace.candidates_evaluated,
                phase_us: trace
                    .spans
                    .iter()
                    .filter(|s| s.parent == Some(0))
                    .map(|s| (s.name.clone(), s.dur_us.unwrap_or(0)))
                    .collect(),
                total_us: trace.total_us,
                results: trace.results.clone(),
                cpu_us: trace.ledger.cpu_us,
                alloc_count: trace.ledger.alloc_count,
                alloc_bytes: trace.ledger.alloc_bytes,
                tags: Vec::new(),
            };
            if let Err(err) = log.append(&event) {
                eprintln!("schemr-trace: event log append failed: {err}");
            }
        }
        trace
    }

    /// Up to `limit` most recent traces, newest first.
    pub fn recent(&self, limit: usize) -> Vec<Arc<CompletedTrace>> {
        self.ring.recent(limit)
    }

    /// Look up a retained trace by id (newest match wins).
    pub fn get(&self, trace_id: &str) -> Option<Arc<CompletedTrace>> {
        self.ring
            .find(|t| t.trace_id == trace_id)
            .or_else(|| self.slow.find(|t| t.trace_id == trace_id))
    }

    /// Up to `limit` most recent slow traces, newest first.
    pub fn slow(&self, limit: usize) -> Vec<Arc<CompletedTrace>> {
        self.slow.recent(limit)
    }

    /// The event log, when configured and healthy.
    pub fn event_log(&self) -> Option<&EventLog> {
        self.event_log.as_ref()
    }

    /// Approximate resident bytes of the trace and slowlog rings —
    /// `/debug/memory`'s view of the in-memory trace plane.
    pub fn ring_bytes(&self) -> (usize, usize) {
        use crate::memsize::DeepSize;
        (self.ring.deep_size_of(), self.slow.deep_size_of())
    }

    /// Retained entries in the (recent, slow) trace rings.
    pub fn ring_lens(&self) -> (usize, usize) {
        (self.ring.len(), self.slow.len())
    }
}

/// Client-supplied trace ids must be short and header/JSON-safe:
/// ASCII alphanumerics plus `- _ . :`, at most 128 bytes.
fn valid_trace_id(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 128
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b':'))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(query: &str) -> SearchOutcome {
        SearchOutcome {
            query: query.to_string(),
            candidates_from_index: 7,
            candidates_evaluated: 4,
            results: vec![EventResult {
                id: "schema-1".into(),
                score: 0.9,
                matcher_scores: vec![("name".into(), 0.9)],
            }],
            ledger: ResourceLedger {
                cpu_us: 321,
                alloc_count: 12,
                alloc_bytes: 2048,
            },
        }
    }

    #[test]
    fn disabled_tracer_yields_no_context() {
        let tracer = Tracer::new(TracerConfig::disabled());
        assert!(tracer.begin(None).is_none());
        assert!(tracer.begin(Some("client-id")).is_none());
    }

    #[test]
    fn generated_ids_are_monotonic_and_client_ids_win() {
        let tracer = Tracer::new(TracerConfig::default());
        let a = tracer.begin(None).unwrap();
        let b = tracer.begin(None).unwrap();
        assert_eq!(a.trace_id(), "t0");
        assert_eq!(b.trace_id(), "t1");
        let c = tracer.begin(Some("req-42")).unwrap();
        assert_eq!(c.trace_id(), "req-42");
        // Invalid client ids fall back to generated ones.
        let d = tracer.begin(Some("bad id\nwith newline")).unwrap();
        assert_eq!(d.trace_id(), "t2");
    }

    #[test]
    fn finish_publishes_to_ring_and_lookup() {
        let tracer = Tracer::new(TracerConfig::default());
        let ctx = tracer.begin(Some("lookup-me")).unwrap();
        {
            let root = ctx.root_span("search");
            let _p1 = root.child("candidate_extraction");
        }
        let trace = tracer.finish(ctx, outcome("customer"));
        assert_eq!(trace.trace_id, "lookup-me");
        assert_eq!(tracer.recent(10).len(), 1);
        let found = tracer.get("lookup-me").expect("retrievable");
        assert_eq!(found.query, "customer");
        assert!(tracer.get("missing").is_none());
    }

    #[test]
    fn slowlog_admits_only_over_threshold() {
        let config = TracerConfig {
            slow_threshold: Duration::from_millis(5),
            ..TracerConfig::default()
        };
        let tracer = Tracer::new(config);
        // Fast search: not slow.
        let ctx = tracer.begin(None).unwrap();
        tracer.finish(ctx, outcome("fast"));
        assert!(tracer.slow(10).is_empty());
        // Slow search: sleep past the threshold.
        let ctx = tracer.begin(None).unwrap();
        std::thread::sleep(Duration::from_millis(8));
        let trace = tracer.finish(ctx, outcome("slow"));
        let slow = tracer.slow(10);
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].trace_id, trace.trace_id);
    }

    #[test]
    fn finish_appends_to_event_log() {
        let dir = std::env::temp_dir().join(format!("schemr-obs-tracer-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = TracerConfig {
            event_log_path: Some(dir.join("events.jsonl")),
            ..TracerConfig::default()
        };
        let tracer = Tracer::new(config);
        let ctx = tracer.begin(Some("evt-1")).unwrap();
        {
            let root = ctx.root_span("search");
            let _p = root.child("matching");
        }
        tracer.finish(ctx, outcome("order items"));
        let events = tracer.event_log().unwrap().read_events().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].trace_id, "evt-1");
        assert_eq!(events[0].query, "order items");
        assert_eq!(events[0].phase_us.len(), 1);
        assert_eq!(events[0].phase_us[0].0, "matching");
        assert_eq!(events[0].results[0].id, "schema-1");
        // The ledger travels into the durable record.
        assert_eq!(events[0].cpu_us, 321);
        assert_eq!(events[0].alloc_count, 12);
        assert_eq!(events[0].alloc_bytes, 2048);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn slow_threshold_is_runtime_adjustable() {
        let tracer = Tracer::new(TracerConfig::default());
        assert_eq!(tracer.slow_threshold(), Duration::from_millis(250));
        // Everything is slow at threshold 0.
        tracer.set_slow_threshold(Duration::ZERO);
        let ctx = tracer.begin(None).unwrap();
        tracer.finish(ctx, outcome("now slow"));
        assert_eq!(tracer.slow(10).len(), 1);
        // Raise it back: fast searches stop being admitted.
        tracer.set_slow_threshold(Duration::from_secs(5));
        assert_eq!(tracer.slow_threshold(), Duration::from_secs(5));
        let ctx = tracer.begin(None).unwrap();
        tracer.finish(ctx, outcome("fast again"));
        assert_eq!(tracer.slow(10).len(), 1, "still only the first trace");
    }

    #[test]
    fn ring_accounting_reports_retained_traces() {
        let tracer = Tracer::new(TracerConfig::default());
        let (recent0, _) = tracer.ring_bytes();
        let ctx = tracer.begin(None).unwrap();
        tracer.finish(ctx, outcome("memory"));
        let (recent1, _) = tracer.ring_bytes();
        assert!(recent1 > recent0, "a retained trace adds bytes");
        assert_eq!(tracer.ring_lens().0, 1);
    }

    #[test]
    fn completed_trace_carries_the_ledger() {
        let tracer = Tracer::new(TracerConfig::default());
        let ctx = tracer.begin(None).unwrap();
        let trace = tracer.finish(ctx, outcome("cost"));
        assert_eq!(trace.ledger.cpu_us, 321);
        assert!(
            trace.to_json().contains("\"cpu_us\":321"),
            "{}",
            trace.to_json()
        );
    }
}
