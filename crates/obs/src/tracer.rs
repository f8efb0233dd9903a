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

use crate::eventlog::{EventLog, SearchEvent};
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

/// Per-engine trace manager; all methods take `&self`.
#[derive(Debug)]
pub struct Tracer {
    config: TracerConfig,
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

    /// Complete a trace: stamp `event` with the context's trace id and
    /// start time, publish it with the context's spans to the recent
    /// ring, admit it to the slowlog if its `total_us` is over threshold,
    /// and append the same record to the event log. Returns the completed
    /// trace.
    pub fn finish(&self, ctx: TraceContext, mut event: SearchEvent) -> Arc<CompletedTrace> {
        event.trace_id = ctx.trace_id;
        event.unix_ms = ctx.started_unix_ms;
        let trace = Arc::new(CompletedTrace {
            event,
            spans: ctx.spans,
        });
        self.ring.push(Arc::clone(&trace));
        if Duration::from_micros(trace.event.total_us) >= self.config.slow_threshold {
            self.slow.push(Arc::clone(&trace));
        }
        if let Some(log) = &self.event_log {
            if let Err(err) = log.append(&trace.event) {
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
            .find(|t| t.event.trace_id == trace_id)
            .or_else(|| self.slow.find(|t| t.event.trace_id == trace_id))
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
    use crate::eventlog::EventResult;

    fn outcome(query: &str) -> SearchEvent {
        SearchEvent {
            query: query.to_string(),
            candidates_from_index: 7,
            candidates_evaluated: 4,
            results: vec![EventResult {
                id: "schema-1".into(),
                score: 0.9,
                matcher_scores: vec![("name".into(), 0.9)],
            }],
            cpu_us: 321,
            alloc_count: 12,
            alloc_bytes: 2048,
            ..SearchEvent::default()
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
        let trace = tracer.finish(ctx, outcome("customer"));
        assert_eq!(trace.event.trace_id, "lookup-me");
        assert_eq!(tracer.recent(10).len(), 1);
        let found = tracer.get("lookup-me").expect("retrievable");
        assert_eq!(found.event.query, "customer");
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
        // Slow search: its record's total is past the threshold.
        let ctx = tracer.begin(None).unwrap();
        let slow_event = SearchEvent {
            total_us: 8_000,
            ..outcome("slow")
        };
        let trace = tracer.finish(ctx, slow_event);
        let slow = tracer.slow(10);
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].event.trace_id, trace.event.trace_id);
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
        let event = SearchEvent {
            phase_us: vec![("matching".into(), 40)],
            ..outcome("order items")
        };
        let trace = tracer.finish(ctx, event);
        let events = tracer.event_log().unwrap().read_events().unwrap();
        assert_eq!(events.len(), 1);
        // The log appends the record the ring holds.
        assert_eq!(events[0], trace.event);
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
    fn the_config_threshold_admits_at_zero_and_not_at_five_seconds() {
        for (threshold, admitted) in [(Duration::ZERO, 1), (Duration::from_secs(5), 0)] {
            let tracer = Tracer::new(TracerConfig {
                slow_threshold: threshold,
                ..TracerConfig::default()
            });
            let ctx = tracer.begin(None).unwrap();
            tracer.finish(ctx, outcome("fast"));
            assert_eq!(tracer.slow(10).len(), admitted, "{threshold:?}");
        }
    }

    #[test]
    fn a_threshold_past_u64_micros_admits_nothing() {
        // 18,446,744,073,709,552 ms is 2^64 µs + 384 µs: converted to µs
        // and wrapped, it would admit every search slower than 384 µs.
        let tracer = Tracer::new(TracerConfig {
            slow_threshold: Duration::from_millis(18_446_744_073_709_552),
            ..TracerConfig::default()
        });
        let ctx = tracer.begin(None).unwrap();
        let fast = SearchEvent {
            total_us: 1_000,
            ..outcome("fast")
        };
        tracer.finish(ctx, fast);
        assert!(tracer.slow(10).is_empty());
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
        assert_eq!(trace.event.cpu_us, 321);
        assert!(
            trace.to_json().contains("\"cpu_us\":321"),
            "{}",
            trace.to_json()
        );
    }
}
