//! Engine-level observability: the shared registry and the handles the
//! search path records into.
//!
//! Every [`crate::SchemrEngine`] owns one [`EngineMetrics`], which owns
//! (or is handed) an `Arc<MetricsRegistry>`. The handles are registered
//! once at construction so the hot path pays only relaxed atomic adds;
//! the HTTP layer renders the same registry at `GET /metrics`.

use std::sync::Arc;

use schemr_index::IndexMetrics;
use schemr_obs::{Counter, Histogram, MetricsRegistry, LATENCY_BUCKETS};

/// Pre-registered metric handles for one engine.
///
/// Exported families (all prefixed `schemr_`):
///
/// | metric | kind | meaning |
/// |---|---|---|
/// | `schemr_search_requests_total` | counter | searches started |
/// | `schemr_search_errors_total` | counter | searches rejected (empty query) |
/// | `schemr_search_empty_total` | counter | searches that returned zero results |
/// | `schemr_candidates_evaluated_total` | counter | Phase 1 survivors matched in Phase 2 |
/// | `schemr_phase_seconds{phase=…}` | histogram | per-phase wall time per search |
/// | `schemr_matcher_seconds{matcher=…}` | histogram | per-matcher wall time per search |
/// | `schemr_reindex_seconds` | histogram | full re-index wall time |
/// | `schemr_candidate_cache_{hits,misses,evictions,invalidations}_total` | counter | Phase 1 candidate-cache traffic |
/// | `schemr_match_artifact_cache_{hits,misses,evictions,invalidations}_total` | counter | Phase 2 match-artifact-cache traffic |
/// | `schemr_match_artifact_cache_{bytes_inserted,bytes_evicted}_total` | counter | artifact bytes admitted/released (difference ≈ resident bytes) |
/// | `schemr_index_*_total` | counter | term/posting/candidate/merge work inside the index, and the write path's tokens looked up / analysed |
pub struct EngineMetrics {
    registry: Arc<MetricsRegistry>,
    /// Searches started (`SchemrEngine::search*` calls).
    pub searches_total: Arc<Counter>,
    /// Searches rejected before Phase 1 (empty query).
    pub search_errors_total: Arc<Counter>,
    /// Searches that completed but returned zero results. Divide by
    /// `searches_total` for the zero-result rate — the workload plane's
    /// headline relevance signal.
    pub search_empty_total: Arc<Counter>,
    /// Candidates that reached the Phase 2 matcher ensemble.
    pub candidates_evaluated_total: Arc<Counter>,
    /// Phase 1 wall time.
    pub phase_candidate_extraction: Arc<Histogram>,
    /// Phase 2 wall time.
    pub phase_matching: Arc<Histogram>,
    /// Phase 3 wall time.
    pub phase_scoring: Arc<Histogram>,
    /// Full re-index wall time.
    pub reindex_seconds: Arc<Histogram>,
    /// Phase 1 candidate-cache lookups answered from the cache.
    pub candidate_cache_hits: Arc<Counter>,
    /// Phase 1 candidate-cache lookups that fell through to the index.
    pub candidate_cache_misses: Arc<Counter>,
    /// Candidate-cache entries evicted under capacity pressure.
    pub candidate_cache_evictions: Arc<Counter>,
    /// Candidate-cache entries dropped because the index revision moved.
    pub candidate_cache_invalidations: Arc<Counter>,
    /// Phase 2 artifact-cache lookups answered from the cache.
    pub match_artifact_cache_hits: Arc<Counter>,
    /// Phase 2 artifact-cache lookups that fell through to preparation.
    pub match_artifact_cache_misses: Arc<Counter>,
    /// Artifact-cache entries evicted under byte-budget pressure.
    pub match_artifact_cache_evictions: Arc<Counter>,
    /// Artifact-cache entries dropped because the schema revision or the
    /// matcher set moved.
    pub match_artifact_cache_invalidations: Arc<Counter>,
    /// Artifact bytes admitted into the cache.
    pub match_artifact_cache_bytes_inserted: Arc<Counter>,
    /// Artifact bytes released by eviction.
    pub match_artifact_cache_bytes_evicted: Arc<Counter>,
    /// Counters threaded into every index the engine builds.
    pub index: IndexMetrics,
}

impl EngineMetrics {
    /// Metrics backed by a fresh private registry.
    pub fn new() -> Self {
        Self::with_registry(Arc::new(MetricsRegistry::new()))
    }

    /// Metrics registered into an existing (possibly shared) registry.
    pub fn with_registry(registry: Arc<MetricsRegistry>) -> Self {
        let phase = |name: &str| {
            registry.histogram_with(
                "schemr_phase_seconds",
                "Wall time of each search phase, per search.",
                &[("phase", name)],
                LATENCY_BUCKETS,
            )
        };
        EngineMetrics {
            searches_total: registry.counter(
                "schemr_search_requests_total",
                "Searches started against the engine.",
            ),
            search_errors_total: registry.counter(
                "schemr_search_errors_total",
                "Searches rejected before candidate extraction (empty query).",
            ),
            search_empty_total: registry.counter(
                "schemr_search_empty_total",
                "Searches that completed but returned zero results.",
            ),
            candidates_evaluated_total: registry.counter(
                "schemr_candidates_evaluated_total",
                "Phase 1 candidates evaluated by the Phase 2 matcher ensemble.",
            ),
            phase_candidate_extraction: phase("candidate_extraction"),
            phase_matching: phase("matching"),
            phase_scoring: phase("scoring"),
            reindex_seconds: registry.histogram(
                "schemr_reindex_seconds",
                "Wall time of full index rebuilds.",
                LATENCY_BUCKETS,
            ),
            candidate_cache_hits: registry.counter(
                "schemr_candidate_cache_hits_total",
                "Phase 1 candidate-cache lookups answered from the cache.",
            ),
            candidate_cache_misses: registry.counter(
                "schemr_candidate_cache_misses_total",
                "Phase 1 candidate-cache lookups that fell through to the index.",
            ),
            candidate_cache_evictions: registry.counter(
                "schemr_candidate_cache_evictions_total",
                "Candidate-cache entries evicted under capacity pressure.",
            ),
            candidate_cache_invalidations: registry.counter(
                "schemr_candidate_cache_invalidations_total",
                "Candidate-cache entries dropped because the index revision moved.",
            ),
            match_artifact_cache_hits: registry.counter(
                "schemr_match_artifact_cache_hits_total",
                "Phase 2 match-artifact-cache lookups answered from the cache.",
            ),
            match_artifact_cache_misses: registry.counter(
                "schemr_match_artifact_cache_misses_total",
                "Phase 2 match-artifact-cache lookups that fell through to preparation.",
            ),
            match_artifact_cache_evictions: registry.counter(
                "schemr_match_artifact_cache_evictions_total",
                "Match-artifact-cache entries evicted under byte-budget pressure.",
            ),
            match_artifact_cache_invalidations: registry.counter(
                "schemr_match_artifact_cache_invalidations_total",
                "Match-artifact-cache entries dropped because the schema revision or matcher set moved.",
            ),
            match_artifact_cache_bytes_inserted: registry.counter(
                "schemr_match_artifact_cache_bytes_inserted_total",
                "Prepared-artifact bytes admitted into the match-artifact cache.",
            ),
            match_artifact_cache_bytes_evicted: registry.counter(
                "schemr_match_artifact_cache_bytes_evicted_total",
                "Prepared-artifact bytes released by match-artifact-cache eviction.",
            ),
            index: IndexMetrics::registered(&registry),
            registry,
        }
    }

    /// The backing registry (render it with
    /// [`MetricsRegistry::render_prometheus`]).
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The per-matcher wall-time histogram for `matcher` (registered on
    /// first use, so replacement ensembles get series automatically).
    pub fn matcher_histogram(&self, matcher: &str) -> Arc<Histogram> {
        self.registry.histogram_with(
            "schemr_matcher_seconds",
            "Wall time spent in each matcher, per search.",
            &[("matcher", matcher)],
            LATENCY_BUCKETS,
        )
    }
}

impl Default for EngineMetrics {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registers_every_engine_family() {
        let m = EngineMetrics::new();
        let names = m.registry().family_names();
        for expected in [
            "schemr_search_requests_total",
            "schemr_search_errors_total",
            "schemr_search_empty_total",
            "schemr_candidates_evaluated_total",
            "schemr_phase_seconds",
            "schemr_reindex_seconds",
            "schemr_index_terms_looked_up_total",
            "schemr_index_postings_scanned_total",
            "schemr_index_candidates_returned_total",
            "schemr_index_merges_total",
            "schemr_candidate_cache_hits_total",
            "schemr_candidate_cache_misses_total",
            "schemr_candidate_cache_evictions_total",
            "schemr_candidate_cache_invalidations_total",
            "schemr_match_artifact_cache_hits_total",
            "schemr_match_artifact_cache_misses_total",
            "schemr_match_artifact_cache_evictions_total",
            "schemr_match_artifact_cache_invalidations_total",
            "schemr_match_artifact_cache_bytes_inserted_total",
            "schemr_match_artifact_cache_bytes_evicted_total",
        ] {
            assert!(names.iter().any(|n| n == expected), "missing {expected}");
        }
    }

    #[test]
    fn matcher_histograms_register_lazily_and_are_shared() {
        let m = EngineMetrics::new();
        let a = m.matcher_histogram("name");
        a.observe(0.001);
        let snap = m
            .registry()
            .histogram_snapshot("schemr_matcher_seconds", &[("matcher", "name")])
            .unwrap();
        assert_eq!(snap.count, 1);
    }
}
