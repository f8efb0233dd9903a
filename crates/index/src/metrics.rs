//! Index-level observability counters.

use std::sync::Arc;

use schemr_obs::{Counter, MetricsRegistry};

/// Shared counters describing how much work the candidate-extraction
/// phase does inside the inverted index.
///
/// The handles are `Arc`s so one set of counters can outlive any single
/// [`crate::Index`] instance: the engine registers them once in its
/// [`MetricsRegistry`] and threads the same handles into every index it
/// (re)builds, keeping the exported series monotone across full
/// re-indexes.
#[derive(Debug, Clone)]
pub struct IndexMetrics {
    /// Distinct analyzed query terms probed against the term dictionary.
    pub terms_looked_up: Arc<Counter>,
    /// Posting entries scanned while scoring (live and tombstoned).
    pub postings_scanned: Arc<Counter>,
    /// Candidate hits returned to the caller after top-*n* selection.
    pub candidates_returned: Arc<Counter>,
    /// Background segment merges committed (off-lock tombstone
    /// reclamation and segment-count compaction).
    pub merges: Arc<Counter>,
    /// Query (term, field) lists the WAND/MaxScore pruner skipped without
    /// visiting a single posting.
    pub lists_pruned: Arc<Counter>,
    /// Posting entries the pruner proved unable to rank and never visited.
    pub postings_pruned: Arc<Counter>,
    /// Raw tokens the write path looked up in its word memo: each
    /// element's own name once (a path reuses its parent's terms), the
    /// title, the summary and the docs.
    pub tokens: Arc<Counter>,
    /// Of those, the tokens that ran the analysis pipeline: a memo miss,
    /// or a token too long to remember.
    pub token_analyses: Arc<Counter>,
}

impl Default for IndexMetrics {
    /// Free-standing counters, not attached to any registry — the
    /// default for indexes built outside an engine (tests, tools).
    fn default() -> Self {
        IndexMetrics {
            terms_looked_up: Arc::new(Counter::new()),
            postings_scanned: Arc::new(Counter::new()),
            candidates_returned: Arc::new(Counter::new()),
            merges: Arc::new(Counter::new()),
            lists_pruned: Arc::new(Counter::new()),
            postings_pruned: Arc::new(Counter::new()),
            tokens: Arc::new(Counter::new()),
            token_analyses: Arc::new(Counter::new()),
        }
    }
}

impl IndexMetrics {
    /// Counters registered under the `schemr_index_*` names.
    pub fn registered(registry: &MetricsRegistry) -> Self {
        IndexMetrics {
            terms_looked_up: registry.counter(
                "schemr_index_terms_looked_up_total",
                "Distinct analyzed query terms probed against the term dictionary.",
            ),
            postings_scanned: registry.counter(
                "schemr_index_postings_scanned_total",
                "Posting entries scanned while scoring candidate documents.",
            ),
            candidates_returned: registry.counter(
                "schemr_index_candidates_returned_total",
                "Candidate hits returned by Phase 1 after top-n selection.",
            ),
            merges: registry.counter(
                "schemr_index_merges_total",
                "Background segment merges committed without blocking searches.",
            ),
            lists_pruned: registry.counter(
                "schemr_index_lists_pruned_total",
                "Query postings lists skipped entirely by WAND/MaxScore pruning.",
            ),
            postings_pruned: registry.counter(
                "schemr_index_postings_pruned_total",
                "Posting entries skipped by WAND/MaxScore pruning.",
            ),
            tokens: registry.counter(
                "schemr_index_tokens_total",
                "Raw tokens the index write path looked up in its word memo: titles, summaries, docs, and each element's own name (a path reuses its parent's terms).",
            ),
            token_analyses: registry.counter(
                "schemr_index_token_analyses_total",
                "Tokens that ran the analysis pipeline: memo misses and tokens too long to remember.",
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registered_counters_render_under_index_names() {
        let reg = MetricsRegistry::new();
        let m = IndexMetrics::registered(&reg);
        m.terms_looked_up.add(3);
        m.candidates_returned.inc();
        let text = reg.render_prometheus();
        assert!(
            text.contains("schemr_index_terms_looked_up_total 3"),
            "{text}"
        );
        assert!(text.contains("schemr_index_candidates_returned_total 1"));
        assert!(text.contains("schemr_index_postings_scanned_total 0"));
        assert!(text.contains("schemr_index_merges_total 0"));
        assert!(text.contains("schemr_index_lists_pruned_total 0"));
        assert!(text.contains("schemr_index_postings_pruned_total 0"));
        assert!(text.contains("schemr_index_tokens_total 0"));
        assert!(text.contains("schemr_index_token_analyses_total 0"));
    }

    #[test]
    fn default_counters_are_free_standing() {
        let a = IndexMetrics::default();
        let b = IndexMetrics::default();
        a.terms_looked_up.inc();
        assert_eq!(b.terms_looked_up.get(), 0);
    }
}
