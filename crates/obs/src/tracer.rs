//! The `schemr-trace` facade: per-request trace lifecycle management.
//!
//! A [`Tracer`] owns everything a running engine needs for per-request
//! observability: a monotonic trace-id source, the in-memory ring of
//! recent [`CompletedTrace`]s (`/debug/traces`), the slow-query ring
//! (`/debug/slowlog`), and the optional durable [`EventLog`]. The engine
//! calls [`Tracer::begin`] at the top of every search, which stamps the
//! search's [`SearchEvent`] with its id and start time, and
//! [`Tracer::finish`] with the filled-in event and its [`SpanFacts`] at
//! the bottom; everything else (ring eviction, slowlog admission,
//! event-log append + rotation) happens inside `finish`, off the
//! request's critical path measurements.
//!
//! When tracing is disabled, `begin` returns `None` and the search path
//! pays only that one branch — the <5% overhead budget in the e1 bench
//! compares against exactly this path.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use crate::eventlog::{EventLog, SearchEvent};
use crate::ring::Ring;
use crate::span::{CompletedTrace, SpanFacts};

/// How many slow traces `/debug/slowlog` retains.
const SLOWLOG_CAPACITY: usize = 64;

/// Size bound for the active event-log file before rotation.
const EVENT_LOG_MAX_BYTES: u64 = 8 << 20;

/// Configuration for a [`Tracer`].
#[derive(Debug, Clone, PartialEq)]
pub struct TracerConfig {
    /// Master switch; when false, [`Tracer::begin`] returns `None`.
    pub enabled: bool,
    /// How many completed traces `/debug/traces` retains.
    pub ring_capacity: usize,
    /// Searches at or above this duration enter the slowlog.
    pub slow_threshold: Duration,
    /// Where to append the JSONL event log (`None` disables it).
    pub event_log_path: Option<PathBuf>,
}

impl Default for TracerConfig {
    fn default() -> Self {
        TracerConfig {
            enabled: true,
            ring_capacity: 128,
            slow_threshold: Duration::from_millis(250),
            event_log_path: None,
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
            match EventLog::open(path, EVENT_LOG_MAX_BYTES) {
                Ok(log) => Some(log),
                Err(err) => {
                    eprintln!("schemr-trace: cannot open event log {path:?}: {err}");
                    None
                }
            }
        });
        Tracer {
            ring: Ring::new(config.ring_capacity),
            slow: Ring::new(SLOWLOG_CAPACITY),
            seq: AtomicU64::new(0),
            event_log,
            config,
        }
    }

    /// Start a trace for one search. `client_id` is an optional
    /// caller-supplied id (e.g. the `X-Schemr-Trace-Id` header); invalid
    /// or absent ids fall back to a generated monotonic `t<seq>` id.
    /// Returns the search's event, stamped with that id and the current
    /// time and otherwise empty, or `None` when tracing is disabled.
    pub fn begin(&self, client_id: Option<&str>) -> Option<SearchEvent> {
        if !self.config.enabled {
            return None;
        }
        let id = match client_id.map(str::trim).filter(|s| valid_trace_id(s)) {
            Some(id) => id.to_string(),
            None => format!("t{}", self.seq.fetch_add(1, Ordering::Relaxed)),
        };
        let unix_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_millis() as u64);
        Some(SearchEvent {
            trace_id: id,
            unix_ms,
            ..SearchEvent::default()
        })
    }

    /// Complete a trace: publish `event` with its span `facts` to the
    /// recent ring, admit it to the slowlog if its `total_us` is over
    /// threshold, and append the event to the event log. Returns the
    /// completed trace.
    pub fn finish(&self, event: SearchEvent, facts: SpanFacts) -> Arc<CompletedTrace> {
        let trace = Arc::new(CompletedTrace { event, facts });
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
    use crate::eventlog::{EventResult, SchemaId};

    /// A search `begun` filled in as the engine fills it.
    fn outcome(begun: SearchEvent, query: &str) -> SearchEvent {
        SearchEvent {
            query: query.to_string(),
            candidates_from_index: 7,
            candidates_evaluated: 4,
            results: vec![EventResult {
                id: SchemaId(1),
                score: 0.9,
            }],
            matchers: Arc::from(["name".to_string()]),
            strengths: vec![0.9],
            cpu_us: 321,
            alloc_count: 12,
            alloc_bytes: 2048,
            ..begun
        }
    }

    /// Begin a search and finish it as `query`, `total_us` long.
    fn run(tracer: &Tracer, id: Option<&str>, query: &str, total_us: u64) -> Arc<CompletedTrace> {
        let event = SearchEvent {
            total_us,
            ..outcome(tracer.begin(id).unwrap(), query)
        };
        tracer.finish(event, SpanFacts::default())
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
        let id = |client| tracer.begin(client).unwrap().trace_id;
        assert_eq!(id(None), "t0");
        assert_eq!(id(None), "t1");
        assert_eq!(id(Some("req-42")), "req-42");
        // Invalid client ids fall back to generated ones.
        assert_eq!(id(Some("bad id\nwith newline")), "t2");
    }

    #[test]
    fn finish_publishes_to_ring_and_lookup() {
        let tracer = Tracer::new(TracerConfig::default());
        let (empty, _) = tracer.ring_bytes();
        let trace = run(&tracer, Some("lookup-me"), "customer", 0);
        assert_eq!(trace.event.trace_id, "lookup-me");
        assert!(trace.event.unix_ms > 0, "begin stamps the start time");
        assert_eq!(tracer.recent(10).len(), 1);
        assert_eq!(tracer.ring_lens().0, 1);
        assert!(tracer.ring_bytes().0 > empty, "a retained trace adds bytes");
        let found = tracer.get("lookup-me").expect("retrievable");
        assert_eq!(found.event.query, "customer");
        // The trace view's header carries the search's ledger.
        assert!(found.to_json().contains("\"cpu_us\":321"));
        assert!(tracer.get("missing").is_none());
    }

    #[test]
    fn the_slowlog_admits_a_search_at_or_over_the_threshold() {
        let ms = Duration::from_millis;
        // 18,446,744,073,709,552 ms is 2^64 µs + 384 µs: converted to µs
        // and wrapped, it would admit every search slower than 384 µs.
        for (threshold, total_us, admitted) in [
            (ms(5), 0, 0),
            (ms(5), 8_000, 1),
            (Duration::ZERO, 0, 1),
            (Duration::from_secs(5), 0, 0),
            (ms(18_446_744_073_709_552), 1_000, 0),
        ] {
            let tracer = Tracer::new(TracerConfig {
                slow_threshold: threshold,
                ..TracerConfig::default()
            });
            let trace = run(&tracer, None, "q", total_us);
            let slow = tracer.slow(10);
            assert_eq!(slow.len(), admitted, "{threshold:?}, {total_us} µs");
            if admitted == 1 {
                assert_eq!(slow[0].event.trace_id, trace.event.trace_id);
            }
        }
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
        let event = SearchEvent {
            phase_us: [0, 40, 0],
            ..outcome(tracer.begin(Some("evt-1")).unwrap(), "order items")
        };
        let trace = tracer.finish(event, SpanFacts::default());
        let events = tracer.event_log().unwrap().read_events().unwrap();
        assert_eq!(events.len(), 1);
        // The log appends the record the ring holds.
        assert_eq!(events[0], trace.event);
        assert_eq!(events[0].trace_id, "evt-1");
        assert_eq!(events[0].query, "order items");
        assert_eq!(events[0].phase_us, [0, 40, 0]);
        assert_eq!(events[0].results[0].id, SchemaId(1));
        // The ledger travels into the durable record.
        assert_eq!(events[0].cpu_us, 321);
        assert_eq!(events[0].alloc_count, 12);
        assert_eq!(events[0].alloc_bytes, 2048);
        let _ = std::fs::remove_dir_all(dir);
    }
}
