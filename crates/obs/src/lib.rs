//! # schemr-obs
//!
//! Zero-dependency observability primitives for the Schemr stack.
//!
//! The paper's three-phase search pipeline (candidate extraction → matcher
//! ensemble → tightness-of-fit) is exactly where latency and quality
//! regressions hide as the corpus grows, so every layer of the
//! reproduction records what it did into a shared [`MetricsRegistry`]:
//!
//! * [`Counter`] — a lock-free monotonically increasing `AtomicU64`,
//! * [`Histogram`] — fixed-bucket latency histogram with lock-free
//!   `observe` and p50/p95/p99 readout via [`HistogramSnapshot`],
//! * [`MetricsRegistry`] — names and labels metrics, hands out shared
//!   handles, and renders the whole set in Prometheus text exposition
//!   format ([`MetricsRegistry::render_prometheus`]).
//!
//! On top of the aggregate metrics sits **schemr-trace**, the
//! per-request layer:
//!
//! * [`CompletedTrace`] — a request's [`SearchEvent`] plus the few
//!   numbers only its span view adds ([`SpanFacts`]); the span tree is
//!   written from those on read, so a span's duration is the number
//!   every other reader of that phase reports,
//! * [`Tracer`] — monotonic trace IDs, a bounded [`Ring`] of recent
//!   [`CompletedTrace`]s, a threshold-gated slow-query ring, and an
//!   optional durable [`EventLog`],
//! * [`EventLog`] — append-only JSONL search history with size-based
//!   rotation and a replay reader ([`read_events_at`]), one versioned
//!   [`SearchEvent`] record per search.
//!
//! The third tier is **resource accounting and service objectives**:
//!
//! * [`ResourceLedger`] / [`LedgerProbe`] — per-query CPU time (via
//!   `CLOCK_THREAD_CPUTIME_ID`) and allocator traffic (via the
//!   [`alloc::CountingAlloc`] counting allocator, feature `obs-alloc`),
//! * [`SloTracker`] — rolling 5m/1h latency- and error-budget burn
//!   rates against configurable objectives.
//!
//! The crate deliberately has **no dependencies** (not even workspace
//! ones): it sits below `schemr-index`, `schemr` (core), and
//! `schemr-server` in the crate graph, so anything it pulled in would be
//! paid by the entire stack. That is also why [`json`] hand-rolls the
//! workspace's one JSON codec: a pull reader the repository file and the
//! community signals are read with, and the tree the event log uses.

pub mod alloc;
pub mod counter;
pub mod eventlog;
pub mod histogram;
pub mod json;
pub mod ledger;
pub mod memsize;
pub mod registry;
pub mod render;
pub mod ring;
pub mod slo;
pub mod span;
pub mod tracer;

pub use alloc::CountingAlloc;
pub use counter::Counter;
pub use eventlog::{
    read_events_at, EventLog, EventResult, SchemaId, SearchEvent, EVENT_SCHEMA_VERSION, PHASES,
};
pub use histogram::{Histogram, HistogramSnapshot, LATENCY_BUCKETS};
pub use ledger::{thread_clock_cost, thread_cpu_us, CpuProbeDepth, LedgerProbe, ResourceLedger};
pub use memsize::DeepSize;
pub use registry::{LabelSet, MetricsRegistry};
pub use ring::Ring;
pub use slo::{SloConfig, SloReport, SloTracker, WindowBurn};
pub use span::{CompletedTrace, ProbeStats, SpanFacts};
pub use tracer::{Tracer, TracerConfig};
