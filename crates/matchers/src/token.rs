//! Exact-token matcher: the baseline the n-gram name matcher beats.
//!
//! Tokenizes and case-folds both names, then scores the Jaccard overlap of
//! the *exact* token sets. No n-grams, no stemming, no abbreviation
//! expansion — `pat_ht` and `patient_height` score 0 here. Experiment E3
//! contrasts this baseline with [`crate::NameMatcher`] under the paper's
//! three perturbation classes.

use std::collections::HashSet;

use schemr_model::{QueryGraph, QueryTerm, Schema};
use schemr_text::gramset::hash_term;
use schemr_text::{AnalyzeScratch, Analyzer, GramSet, WordId};

use crate::matrix::SimilarityMatrix;
use crate::prepare::{FlatLists, PrepareScratch, PreparedQuery, PreparedSchema, ScoreScratch};
use crate::{Matcher, NOT_PREPARED_HERE};

/// Exact normalized-token Jaccard matcher.
pub struct TokenMatcher {
    analyzer: Analyzer,
}

impl Default for TokenMatcher {
    fn default() -> Self {
        Self::new()
    }
}

impl TokenMatcher {
    /// Baseline matcher: tokenize + case-fold only.
    pub fn new() -> Self {
        TokenMatcher {
            analyzer: Analyzer::plain(),
        }
    }

    fn tokens(&self, name: &str) -> HashSet<String> {
        self.analyzer.analyze(name).into_iter().collect()
    }

    /// Hashed exact-token signature: one 64-bit id per distinct analyzed
    /// token. Set cardinalities and intersection counts match the string
    /// sets (absent 64-bit hash collisions), so the Jaccard score is
    /// bitwise-identical to [`TokenMatcher::similarity`].
    fn signature(&self, name: &str, scratch: &mut AnalyzeScratch) -> GramSet {
        let mut ids = Vec::new();
        self.analyzer
            .analyze_with(name, scratch, |token| ids.push(hash_term(token)));
        GramSet::from_hashes(ids)
    }

    /// The signature of each of `names`, through one analyzer scratch.
    fn signatures<'a>(
        &self,
        names: impl Iterator<Item = &'a str>,
        scratch: &mut AnalyzeScratch,
    ) -> Vec<GramSet> {
        names.map(|n| self.signature(n, scratch)).collect()
    }

    /// Jaccard similarity of exact token sets, over `HashSet<String>` —
    /// the scalar entry point, and the reference each cell of
    /// [`Matcher::score`]'s matrix is tested against bit for bit; no
    /// scoring path can select it.
    pub fn similarity(&self, a: &str, b: &str) -> f64 {
        let ta = self.tokens(a);
        let tb = self.tokens(b);
        if ta.is_empty() && tb.is_empty() {
            return 0.0;
        }
        let inter = ta.intersection(&tb).count();
        let union = ta.len() + tb.len() - inter;
        inter as f64 / union as f64
    }
}

impl Matcher for TokenMatcher {
    fn name(&self) -> &'static str {
        "token"
    }

    /// Exact tokens are hashed, not interned: this matcher names no
    /// analyzer and builds its artifact from the schema alone.
    fn prepare(
        &self,
        schema: &Schema,
        _words: &FlatLists<WordId>,
        scratch: &mut PrepareScratch,
    ) -> PreparedSchema {
        PreparedSchema {
            tokens: Some(
                self.signatures(schema.elements().map(|el| el.name), &mut scratch.analyze),
            ),
            ..PreparedSchema::default()
        }
    }

    fn prepare_query(&self, terms: &[QueryTerm], _query: &QueryGraph) -> PreparedQuery {
        PreparedQuery {
            term_tokens: Some(self.signatures(
                terms.iter().map(|t| t.text.as_str()),
                &mut AnalyzeScratch::default(),
            )),
            ..PreparedQuery::default()
        }
    }

    fn score_into(
        &self,
        prepared_query: &PreparedQuery,
        terms: &[QueryTerm],
        _query: &QueryGraph,
        prepared: &PreparedSchema,
        candidate: &Schema,
        _scratch: &mut ScoreScratch<'_>,
        out: &mut SimilarityMatrix,
    ) {
        out.reset(terms.len(), candidate.len());
        let term_tokens = prepared_query
            .term_tokens
            .as_ref()
            .expect(NOT_PREPARED_HERE);
        let element_tokens = prepared.tokens.as_ref().expect(NOT_PREPARED_HERE);
        for (col, el) in element_tokens.iter().enumerate() {
            for (row, tt) in term_tokens.iter().enumerate() {
                if tt.is_empty() || el.is_empty() {
                    continue;
                }
                let inter = tt.intersection_size(el);
                if inter > 0 {
                    let union = tt.len() + el.len() - inter;
                    out.set(row, col, inter as f64 / union as f64);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_matches_score_one_regardless_of_delimiters() {
        let m = TokenMatcher::new();
        assert!((m.similarity("first_name", "FirstName") - 1.0).abs() < 1e-12);
    }

    #[test]
    fn abbreviations_score_zero_here() {
        let m = TokenMatcher::new();
        assert_eq!(m.similarity("pat", "patient"), 0.0);
        assert_eq!(m.similarity("descr", "description"), 0.0);
    }

    #[test]
    fn grammatical_variants_score_zero_here() {
        let m = TokenMatcher::new();
        assert_eq!(m.similarity("diagnoses", "diagnosis"), 0.0);
    }

    #[test]
    fn partial_token_overlap_is_jaccard() {
        let m = TokenMatcher::new();
        // {patient, height} vs {patient, gender}: 1 / 3.
        assert!((m.similarity("patient_height", "patient_gender") - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn matrix_is_bitwise_equal_to_the_scalar_reference() {
        use schemr_model::{DataType, QueryGraph, SchemaBuilder};
        let mut q = QueryGraph::new();
        q.add_keyword("patient height");
        q.add_keyword("visit");
        let terms = q.terms();
        let candidate = SchemaBuilder::new("cand")
            .entity("patient", |e| {
                e.attr("patient_height", DataType::Real)
                    .attr("gender", DataType::Text)
            })
            .entity("visit", |e| e.attr("visit_date", DataType::Date))
            .build_unchecked();
        let matcher = TokenMatcher::new();
        let prepared = crate::score_fresh(&matcher, &terms, &q, &candidate);
        for (r, term) in terms.iter().enumerate() {
            for (c, id) in candidate.ids().enumerate() {
                let reference = matcher.similarity(&term.text, candidate.element(id).name);
                assert_eq!(
                    prepared.get(r, c).to_bits(),
                    reference.to_bits(),
                    "cell ({r},{c})"
                );
            }
        }
    }
}
