//! Per-layer counts: deltas of the engine's own public counters and
//! histograms over a timed window, turned into the `<crate>.<name>`
//! ratios. Counting happens where the work happens; the benchmark only
//! subtracts.

use schemr::SchemrEngine;

use crate::report::Values;
use crate::stats::ratio;

const COUNTERS: [&str; 15] = [
    "schemr_search_requests_total",
    "schemr_candidates_evaluated_total",
    "schemr_match_candidates_pruned_total",
    "schemr_match_matchers_skipped_total",
    "schemr_candidate_cache_hits_total",
    "schemr_candidate_cache_misses_total",
    "schemr_match_artifact_cache_hits_total",
    "schemr_match_artifact_cache_misses_total",
    "schemr_match_artifact_cache_evictions_total",
    "schemr_match_artifact_cache_bytes_inserted_total",
    "schemr_index_postings_scanned_total",
    "schemr_index_postings_pruned_total",
    "schemr_index_lists_pruned_total",
    "schemr_http_shed_total",
    "schemr_http_keepalive_reuse_total",
];

/// A reading of every counter the per-layer metrics use.
pub struct Counters {
    values: [f64; COUNTERS.len()],
    /// `(count, sum)` of `schemr_http_queue_wait_seconds`.
    queue_wait: (f64, f64),
    /// `(count, sum)` of `schemr_http_request_seconds{route="/search"}`.
    handler: (f64, f64),
}

impl Counters {
    /// Read them now. A family nobody has touched yet reads 0.
    pub fn read(engine: &SchemrEngine) -> Counters {
        let registry = engine.metrics_registry();
        let histogram = |name: &str, labels: &[(&str, &str)]| {
            registry
                .histogram_snapshot(name, labels)
                .map_or((0.0, 0.0), |h| (h.count as f64, h.sum))
        };
        Counters {
            values: COUNTERS.map(|name| registry.counter_value(name, &[]).unwrap_or(0) as f64),
            queue_wait: histogram("schemr_http_queue_wait_seconds", &[]),
            handler: histogram("schemr_http_request_seconds", &[("route", "/search")]),
        }
    }

    fn since(&self, before: &Counters, name: &str) -> f64 {
        let i = COUNTERS
            .iter()
            .position(|&c| c == name)
            .expect("a counter of the list above");
        self.values[i] - before.values[i]
    }

    /// Fill in the count-derived per-layer metrics for the window
    /// between `before` and `self`, in which `ops` requests completed.
    pub fn report(&self, before: &Counters, ops: usize, out: &mut Values) {
        let d = |name: &str| self.since(before, name);
        let per_op = |name: &str| ratio(d(name), ops as f64);
        let searches = d("schemr_search_requests_total") as usize;

        let (cand_hits, cand_misses) = (
            d("schemr_candidate_cache_hits_total"),
            d("schemr_candidate_cache_misses_total"),
        );
        out.set(
            "core.candidate_cache_hit_ratio",
            ratio(cand_hits, cand_hits + cand_misses),
            (cand_hits + cand_misses) as usize,
        );
        let (art_hits, art_misses) = (
            d("schemr_match_artifact_cache_hits_total"),
            d("schemr_match_artifact_cache_misses_total"),
        );
        out.set(
            "core.artifact_cache_hit_ratio",
            ratio(art_hits, art_hits + art_misses),
            (art_hits + art_misses) as usize,
        );
        out.set(
            "core.artifact_cache_evictions_per_op",
            per_op("schemr_match_artifact_cache_evictions_total"),
            ops,
        );
        out.set(
            "core.artifact_kb_per_miss",
            ratio(
                d("schemr_match_artifact_cache_bytes_inserted_total") / 1024.0,
                art_misses,
            ),
            art_misses as usize,
        );
        let evaluated = d("schemr_candidates_evaluated_total");
        out.set("core.candidates_per_op", ratio(evaluated, ops as f64), ops);
        out.set(
            "core.early_exit_pruned_ratio",
            ratio(d("schemr_match_candidates_pruned_total"), evaluated),
            evaluated as usize,
        );
        out.set(
            "core.matchers_skipped_per_op",
            per_op("schemr_match_matchers_skipped_total"),
            ops,
        );
        out.set(
            "index.postings_scanned_per_op",
            per_op("schemr_index_postings_scanned_total"),
            searches,
        );
        out.set(
            "index.postings_pruned_per_op",
            per_op("schemr_index_postings_pruned_total"),
            searches,
        );
        out.set(
            "index.lists_pruned_per_op",
            per_op("schemr_index_lists_pruned_total"),
            searches,
        );
        out.set("server.shed", d("schemr_http_shed_total"), ops);
        out.set(
            "server.keepalive_reuse_ratio",
            per_op("schemr_http_keepalive_reuse_total"),
            ops,
        );
        let waits = self.queue_wait.0 - before.queue_wait.0;
        out.set(
            "server.queue_wait_us",
            ratio((self.queue_wait.1 - before.queue_wait.1) * 1e6, waits),
            waits as usize,
        );
        let handled = self.handler.0 - before.handler.0;
        out.set(
            "server.handler_ms",
            ratio((self.handler.1 - before.handler.1) * 1e3, handled),
            handled as usize,
        );
    }
}

/// Point-in-time shape of the engine's index and caches.
pub fn report_resident(engine: &SchemrEngine, out: &mut Values) {
    let memory = engine.memory_report();
    let shape = engine.index_introspection(0);
    out.set(
        "core.artifact_resident_mb",
        memory.artifact_cache_resident_bytes as f64 / (1024.0 * 1024.0),
        memory.artifact_cache_entries,
    );
    out.set(
        "obs.trace_ring_kb",
        (memory.trace_ring_bytes + memory.slow_ring_bytes) as f64 / 1024.0,
        memory.trace_ring_len + memory.slow_ring_len,
    );
    out.set(
        "index.deep_mb",
        memory.index_deep_bytes as f64 / (1024.0 * 1024.0),
        1,
    );
    out.set(
        "index.bytes_per_posting",
        ratio(
            memory.index_postings_bytes as f64,
            shape.stats.postings as f64,
        ),
        shape.stats.postings,
    );
    out.set("index.segments", shape.segments as f64, 1);
    out.set(
        "index.tombstone_ratio",
        shape.tombstone_ratio,
        shape.stats.total_docs,
    );
}
