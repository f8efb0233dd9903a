//! # schemr-bench
//!
//! Shared harness code for the experiment binaries (`src/bin/e*.rs`).
//! Each experiment in `DESIGN.md` §4 has a binary that regenerates its
//! table; `EXPERIMENTS.md` records the measured outputs next to the
//! paper's qualitative claims.

use std::collections::HashSet;
use std::sync::Arc;

use schemr::{EngineConfig, SchemrEngine, SearchRequest, TightnessConfig};
use schemr_corpus::{Corpus, GeneratedQuery, RankingMetrics, Workload};
use schemr_match::{Ensemble, NameMatcher, TokenMatcher};
use schemr_model::SchemaId;
use schemr_repo::Repository;

/// A corpus loaded into an engine, with the corpus-index ↔ repository-id
/// mapping the ground truth needs.
pub struct Testbed {
    /// The engine, fully indexed.
    pub engine: Arc<SchemrEngine>,
    /// `ids[i]` is the repository id of corpus schema `i`.
    pub ids: Vec<SchemaId>,
}

impl Testbed {
    /// Insert every corpus schema into a fresh repository and index it.
    pub fn build(corpus: &Corpus) -> Testbed {
        Self::build_with_config(corpus, EngineConfig::default())
    }

    /// Same, with an explicit engine config.
    pub fn build_with_config(corpus: &Corpus, config: EngineConfig) -> Testbed {
        let repo = Arc::new(Repository::new());
        let mut ids = Vec::with_capacity(corpus.len());
        for labeled in &corpus.schemas {
            let id = repo
                .insert(
                    labeled.title.clone(),
                    labeled.summary.clone(),
                    labeled.schema.clone(),
                )
                .expect("corpus schemas validate");
            ids.push(id);
        }
        let engine = Arc::new(SchemrEngine::with_config(repo, config));
        engine.reindex_full();
        Testbed { engine, ids }
    }

    /// Translate a repository id back to its corpus index.
    pub fn corpus_index(&self, id: SchemaId) -> Option<usize> {
        self.ids.iter().position(|&x| x == id)
    }

    /// Turn a generated query into a search request.
    pub fn to_request(query: &GeneratedQuery, limit: usize) -> SearchRequest {
        let mut r = SearchRequest {
            keywords: query.keywords.clone(),
            limit: Some(limit),
            ..Default::default()
        };
        if let Some(f) = &query.fragment {
            r.fragments.push(f.clone());
        }
        r
    }

    /// Run one query, returning ranked corpus indices.
    pub fn run_query(&self, query: &GeneratedQuery, limit: usize) -> Vec<usize> {
        let results = self
            .engine
            .search(&Self::to_request(query, limit))
            .expect("workload queries are nonempty");
        results
            .iter()
            .filter_map(|r| self.corpus_index(r.id))
            .collect()
    }

    /// Run one query ranking by the *coarse* Phase 1 score only — the
    /// pure-TF/IDF document-search baseline.
    pub fn run_query_coarse(&self, query: &GeneratedQuery, limit: usize) -> Vec<usize> {
        let graph = Self::to_request(query, limit).query_graph();
        let mut hits = self.engine.extract_candidates(&graph);
        hits.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.id.cmp(&b.id))
        });
        hits.truncate(limit);
        hits.iter()
            .filter_map(|h| self.corpus_index(h.id))
            .collect()
    }

    /// Evaluate a whole workload with the full pipeline.
    pub fn evaluate(&self, workload: &Workload, limit: usize) -> RankingMetrics {
        self.evaluate_with(workload, limit, |q| self.run_query(q, limit))
    }

    /// Evaluate with a custom ranking function.
    pub fn evaluate_with(
        &self,
        workload: &Workload,
        _limit: usize,
        mut rank: impl FnMut(&GeneratedQuery) -> Vec<usize>,
    ) -> RankingMetrics {
        let runs: Vec<(Vec<usize>, HashSet<usize>)> = workload
            .queries
            .iter()
            .map(|q| (rank(q), q.relevant.iter().copied().collect()))
            .collect();
        RankingMetrics::aggregate(runs.iter().map(|(r, rel)| (r.as_slice(), rel)))
    }
}

/// Named engine-config variants for the ablation experiments.
pub mod variants {
    use super::*;

    /// The full Schemr configuration.
    pub fn full() -> EngineConfig {
        EngineConfig::default()
    }

    /// Tightness-of-fit with structural penalties disabled (Phase 3 still
    /// averages element scores, but structure no longer matters).
    pub fn no_structure() -> EngineConfig {
        EngineConfig {
            tightness: TightnessConfig {
                neighborhood_penalty: 0.0,
                unrelated_penalty: 0.0,
                ..TightnessConfig::default()
            },
            ..EngineConfig::default()
        }
    }

    /// Coordination factor off in Phase 1.
    pub fn no_coordination() -> EngineConfig {
        EngineConfig {
            coordination: false,
            ..EngineConfig::default()
        }
    }

    /// Ensemble with only the n-gram name matcher.
    pub fn name_only_ensemble() -> Ensemble {
        let mut e = Ensemble::empty();
        e.push(Box::new(NameMatcher::new()), 1.0);
        e
    }

    /// Ensemble with only the exact-token matcher (the E3 baseline).
    pub fn token_only_ensemble() -> Ensemble {
        let mut e = Ensemble::empty();
        e.push(Box::new(TokenMatcher::new()), 1.0);
        e
    }
}

/// Fixed-width table printer for experiment reports.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row arity");
        self.rows.push(cells.to_vec());
    }

    /// Render the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
                .trim_end()
                .to_string()
        };
        let mut out = fmt_row(&self.headers);
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemr_corpus::{CorpusConfig, WorkloadConfig};

    #[test]
    fn testbed_maps_corpus_indices_to_repo_ids() {
        let corpus = Corpus::generate(&CorpusConfig::small(1));
        let bed = Testbed::build(&corpus);
        assert_eq!(bed.ids.len(), corpus.len());
        for (i, &id) in bed.ids.iter().enumerate() {
            assert_eq!(bed.corpus_index(id), Some(i));
        }
        assert!(bed.engine.index_stats().live_docs == corpus.len());
    }

    #[test]
    fn full_pipeline_beats_random_on_the_small_corpus() {
        let corpus = Corpus::generate(&CorpusConfig::small(2));
        let bed = Testbed::build(&corpus);
        let workload = Workload::generate(
            &corpus,
            &WorkloadConfig {
                queries: 20,
                ..Default::default()
            },
        );
        let metrics = bed.evaluate(&workload, 10);
        assert_eq!(metrics.queries, 20);
        // Families are ≤6 of 100 schemas; random MRR would be ≈0.1. The
        // engine should be far above that.
        assert!(metrics.mrr > 0.5, "MRR = {}", metrics.mrr);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["a", "bbbb"]);
        t.row(&["1".into(), "2".into()]);
        t.row(&["333".into(), "4".into()]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].starts_with("---"));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn table_rejects_wrong_arity() {
        let mut t = Table::new(&["a"]);
        t.row(&["1".into(), "2".into()]);
    }
}
