//! Search results: the rows of the paper's result table plus the
//! per-element detail the visualization encodes.

use schemr_model::{SchemaId, SchemaStats};
use schemr_obs::ResourceLedger;

use crate::tightness::MatchedElement;

/// One ranked search result — "a tabular format, including columns for
/// name, score, matches, entities, attributes, and description".
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResult {
    /// Repository id (for drill-in / GraphML requests).
    pub id: SchemaId,
    /// Schema title.
    pub title: String,
    /// Schema summary.
    pub summary: String,
    /// Final relevance score (`t_max` from Phase 3).
    pub score: f64,
    /// Coarse-grain Phase 1 score (TF/IDF × coordination).
    pub coarse_score: f64,
    /// How many distinct query terms matched in Phase 1.
    pub matched_terms: usize,
    /// Element counts for the table's entities/attributes columns.
    pub stats: SchemaStats,
    /// Per-element match detail (drives the similarity color encodings).
    pub matches: Vec<MatchedElement>,
}

/// Wall-clock spent in each phase of one search — experiment E1's
/// latency-breakdown instrumentation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimings {
    /// Phase 1: candidate extraction.
    pub candidate_extraction: std::time::Duration,
    /// Phase 2: matcher ensemble over the candidates.
    pub matching: std::time::Duration,
    /// Phase 3: tightness-of-fit scoring and final ranking.
    pub scoring: std::time::Duration,
}

impl PhaseTimings {
    /// Total across phases.
    pub fn total(&self) -> std::time::Duration {
        self.candidate_extraction + self.matching + self.scoring
    }
}

/// Wall time spent inside one matcher across all candidates of a search.
#[derive(Debug, Clone, PartialEq)]
pub struct MatcherTiming {
    /// The matcher's registered name (`name`, `context`, …).
    pub name: String,
    /// Total wall time across candidates.
    pub wall: std::time::Duration,
}

/// The per-query "explain" trace: where a search spent its time and how
/// much work each stage did. Produced when
/// [`crate::SearchRequest::explain`] is set; surfaced by the server via
/// `/search?…&explain=1` and by the CLI via `--explain`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SearchTrace {
    /// Hits returned by the Phase 1 index probe.
    pub candidates_from_index: usize,
    /// Candidates that survived repository lookup and were matched.
    pub candidates_evaluated: usize,
    /// Per-matcher cost split, in ensemble registration order.
    pub matchers: Vec<MatcherTiming>,
}

/// A full search response: ranked results plus instrumentation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SearchResponse {
    /// Ranked results, best first.
    pub results: Vec<SearchResult>,
    /// Phase timings for this query.
    pub timings: PhaseTimings,
    /// Number of Phase 1 candidates evaluated in Phase 2.
    pub candidates_evaluated: usize,
    /// The explain trace, when the request asked for one.
    pub trace: Option<SearchTrace>,
    /// The id this search was traced under (client-supplied or engine
    /// assigned); `None` when the engine's tracer is disabled. Look the
    /// full span tree up via `Tracer::get` / `GET /debug/traces/{id}`.
    pub trace_id: Option<String>,
    /// What this search cost: scheduled CPU time plus allocator traffic
    /// (the latter zero unless a counting allocator is installed). `None`
    /// when tracing is disabled. The server renders this as the
    /// `X-Schemr-Cost` header.
    pub ledger: Option<ResourceLedger>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timings_total() {
        let t = PhaseTimings {
            candidate_extraction: std::time::Duration::from_millis(2),
            matching: std::time::Duration::from_millis(5),
            scoring: std::time::Duration::from_millis(1),
        };
        assert_eq!(t.total(), std::time::Duration::from_millis(8));
    }
}
