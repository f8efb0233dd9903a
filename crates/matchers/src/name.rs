//! The name matcher: normalization + all-n-gram overlap.
//!
//! "A name matcher normalizes terms and computes n-gram overlap between
//! query terms and terms in the indexed schemas. Each schema element in the
//! query is parsed into a set of all possible n-grams, ranging in length
//! from one character to the length of the word. … We found this matcher to
//! be particularly helpful for properly ranking schemas containing
//! abbreviated terms, alternate grammatical forms, and delimiter characters
//! not in the original query."

use std::collections::HashSet;

use schemr_model::{QueryGraph, QueryTerm, Schema};
use schemr_text::ngram::{dice, overlap};
use schemr_text::{AnalyzeScratch, Analyzer, GramSet, LexiconReader, WordId};

use crate::matrix::SimilarityMatrix;
use crate::prepare::{
    FlatLists, PairMemo, PrepareScratch, PreparedQuery, PreparedSchema, QueryWords, ScoreScratch,
    WordArena,
};
use crate::{Matcher, NOT_PREPARED_HERE};

/// Name matcher configuration.
#[derive(Debug, Clone)]
pub struct NameMatcherConfig {
    /// Mix between Dice (structure-balanced) and overlap (containment-
    /// friendly) coefficients: `score = (1-α)·dice + α·overlap`.
    /// α > 0 is what makes abbreviations (`pat` ⊂ `patient`) score well.
    pub overlap_alpha: f64,
    /// Names are multi-word after tokenization; word-level best-alignment
    /// scores are averaged over the side with fewer words when true
    /// (`max`-style), over the query side when false.
    pub symmetric: bool,
}

impl Default for NameMatcherConfig {
    fn default() -> Self {
        NameMatcherConfig {
            overlap_alpha: 0.4,
            symmetric: true,
        }
    }
}

/// The all-n-gram name matcher.
pub struct NameMatcher {
    analyzer: Analyzer,
    config: NameMatcherConfig,
}

impl Default for NameMatcher {
    fn default() -> Self {
        Self::new()
    }
}

impl NameMatcher {
    /// Name matcher with the standard name-analysis pipeline.
    pub fn new() -> Self {
        NameMatcher {
            analyzer: Analyzer::for_names(),
            config: NameMatcherConfig::default(),
        }
    }

    /// Custom analyzer/config (ablations use [`Analyzer::plain`]).
    pub fn with(analyzer: Analyzer, config: NameMatcherConfig) -> Self {
        NameMatcher { analyzer, config }
    }

    /// Decompose a raw name into per-word all-n-gram sets.
    fn gram_sets(&self, name: &str) -> Vec<HashSet<String>> {
        self.analyzer
            .analyze(name)
            .iter()
            .map(|w| schemr_text::ngram::all_ngrams(w))
            .collect()
    }

    /// Similarity of two word-gram-set lists: greedy best alignment, each
    /// word paired with its best counterpart, averaged.
    fn name_similarity(&self, a: &[HashSet<String>], b: &[HashSet<String>]) -> f64 {
        if a.is_empty() || b.is_empty() {
            return 0.0;
        }
        let word_pair = |x: &HashSet<String>, y: &HashSet<String>| -> f64 {
            let alpha = self.config.overlap_alpha;
            (1.0 - alpha) * dice(x, y) + alpha * overlap(x, y)
        };
        let side = |from: &[HashSet<String>], to: &[HashSet<String>]| -> f64 {
            let total: f64 = from
                .iter()
                .map(|x| to.iter().map(|y| word_pair(x, y)).fold(0.0, f64::max))
                .sum();
            total / from.len() as f64
        };
        if self.config.symmetric {
            // Average the two directions so extra words on either side
            // dilute equally.
            (side(a, b) + side(b, a)) / 2.0
        } else {
            side(a, b)
        }
    }

    /// Public scalar entry point: similarity of two raw names in `[0,1]`,
    /// over `HashSet<String>` gram sets. Used directly by experiment E3,
    /// and the reference each cell of [`Matcher::score`]'s matrix is
    /// tested against bit for bit — no scoring path can select it.
    pub fn similarity(&self, a: &str, b: &str) -> f64 {
        self.name_similarity(&self.gram_sets(a), &self.gram_sets(b))
    }

    /// The query side of the kernel: every distinct analyzed word of the
    /// term texts once, with its all-gram set, and per term the indices
    /// of its words. Query words are never interned in the lexicon.
    fn query_words(&self, terms: &[QueryTerm]) -> QueryWords {
        let mut distinct = WordArena::default();
        let mut grams: Vec<GramSet> = Vec::new();
        let mut lists = FlatLists::with_capacity(terms.len());
        let mut scratch = AnalyzeScratch::default();
        for term in terms {
            self.analyzer
                .analyze_with(&term.text, &mut scratch, |word| {
                    let ix = distinct.position(word).unwrap_or_else(|| {
                        grams.push(GramSet::all_grams(word));
                        distinct.push(word)
                    });
                    lists.push_item(ix);
                });
            lists.end_list();
        }
        QueryWords {
            grams,
            terms: lists,
        }
    }

    /// `(1-α)·dice + α·overlap` over hashed signatures — arithmetic-
    /// identical to the string-set `word_pair` in
    /// [`NameMatcher::name_similarity`], and symmetric in its arguments
    /// bit for bit (both coefficients are).
    fn word_pair_prepared(&self, x: &GramSet, y: &GramSet) -> f64 {
        let alpha = self.config.overlap_alpha;
        (1.0 - alpha) * x.dice(y) + alpha * x.overlap(y)
    }

    /// The scoring kernel: greedy best word alignment of one query term
    /// against one element name, every word pair read from (or, the first
    /// time, computed into) the memo. `rows[j]` is the memo row of
    /// `element[j]`. Bitwise-identical to
    /// [`NameMatcher::name_similarity`] on the same analyzed words: a
    /// word pair's value is a pure function of the two words, and the
    /// sums run in the same order.
    fn cell(
        &self,
        term: &[u32],
        element: &[WordId],
        rows: &[usize],
        pairs: &mut PairMemo,
        query: &QueryWords,
        lexicon: &LexiconReader<'_>,
    ) -> f64 {
        if term.is_empty() || element.is_empty() {
            return 0.0;
        }
        let mut pair = |q: u32, j: usize| {
            pairs.get_or(rows[j], q as usize, || {
                self.word_pair_prepared(&query.grams[q as usize], lexicon.grams(element[j]))
            })
        };
        let mut forward = 0.0;
        for &q in term {
            let mut best = 0.0f64;
            for j in 0..element.len() {
                best = best.max(pair(q, j));
            }
            forward += best;
        }
        let forward = forward / term.len() as f64;
        if !self.config.symmetric {
            return forward;
        }
        let mut backward = 0.0;
        for j in 0..element.len() {
            let mut best = 0.0f64;
            for &q in term {
                best = best.max(pair(q, j));
            }
            backward += best;
        }
        (forward + backward / element.len() as f64) / 2.0
    }
}

impl Matcher for NameMatcher {
    fn name(&self) -> &'static str {
        "name"
    }

    fn analyzer(&self) -> Option<&Analyzer> {
        Some(&self.analyzer)
    }

    fn prepare(
        &self,
        _schema: &Schema,
        words: &FlatLists<WordId>,
        _scratch: &mut PrepareScratch,
    ) -> PreparedSchema {
        PreparedSchema {
            name_words: Some(words.exact_copy()),
            ..PreparedSchema::default()
        }
    }

    fn prepare_query(&self, terms: &[QueryTerm], _query: &QueryGraph) -> PreparedQuery {
        PreparedQuery {
            term_words: Some(self.query_words(terms)),
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
        scratch: &mut ScoreScratch<'_>,
        out: &mut SimilarityMatrix,
    ) {
        let query_words = prepared_query.term_words.as_ref().expect(NOT_PREPARED_HERE);
        let names = prepared.name_words.as_ref().expect(NOT_PREPARED_HERE);
        out.reset(terms.len(), candidate.len());
        let lexicon = scratch.lexicon().read();
        scratch.pairs.fit(query_words.grams.len(), lexicon.len());
        for (col, element) in names.iter().enumerate() {
            scratch.rows.clear();
            for &word in element {
                scratch.rows.push(scratch.pairs.row(word));
            }
            for (row, term) in query_words.terms.iter().enumerate() {
                let s = self.cell(
                    term,
                    element,
                    &scratch.rows,
                    &mut scratch.pairs,
                    query_words,
                    &lexicon,
                );
                if s > 0.0 {
                    out.set(row, col, s);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemr_model::{DataType, ElementKind, SchemaBuilder};

    fn terms(words: &[&str]) -> Vec<QueryTerm> {
        words
            .iter()
            .map(|w| QueryTerm {
                text: w.to_string(),
                fragment: None,
                element: None,
                kind: ElementKind::Attribute,
            })
            .collect()
    }

    #[test]
    fn identical_names_score_one() {
        let m = NameMatcher::new();
        assert!((m.similarity("patient", "patient") - 1.0).abs() < 1e-9);
    }

    #[test]
    fn unrelated_names_score_near_zero() {
        let m = NameMatcher::new();
        assert!(m.similarity("patient", "xyzzy") < 0.2);
    }

    #[test]
    fn abbreviations_score_high() {
        let m = NameMatcher::new();
        // Dictionary expansion makes pat_ht ≈ patient height …
        assert!(m.similarity("pat_ht", "patient_height") > 0.9);
        // … and raw truncations still score well through n-gram overlap.
        let plain = NameMatcher::with(Analyzer::plain(), NameMatcherConfig::default());
        let s = plain.similarity("descr", "description");
        assert!(s > 0.5, "truncation should score well, got {s}");
    }

    #[test]
    fn delimiters_do_not_matter() {
        let m = NameMatcher::new();
        let a = m.similarity("first_name", "FirstName");
        let b = m.similarity("first-name", "first name");
        assert!((a - 1.0).abs() < 1e-9, "{a}");
        assert!((b - 1.0).abs() < 1e-9, "{b}");
    }

    #[test]
    fn grammatical_forms_conflate_via_stemming() {
        let m = NameMatcher::new();
        assert!(m.similarity("diagnoses", "diagnosis") > 0.8);
        assert!(m.similarity("medications", "medication") > 0.9);
    }

    #[test]
    fn similarity_is_symmetric() {
        let m = NameMatcher::new();
        for (a, b) in [("patient", "pat"), ("first_name", "fname"), ("x", "xyz")] {
            assert!((m.similarity(a, b) - m.similarity(b, a)).abs() < 1e-12);
        }
    }

    #[test]
    fn matrix_rows_are_terms_and_cols_are_elements() {
        let schema = SchemaBuilder::new("s")
            .entity("patient", |e| e.attr("height", DataType::Real))
            .build_unchecked();
        let matcher = NameMatcher::new();
        let q = QueryGraph::new();
        let m = crate::score_fresh(&matcher, &terms(&["height", "nonsense"]), &q, &schema);
        assert_eq!((m.rows(), m.cols()), (2, 2));
        // Row 0 = "height" matches element 1 (patient.height) strongly.
        assert!(m.get(0, 1) > 0.9);
        assert!(m.get(0, 0) < 0.5);
        assert!(m.row_max(1) < 0.35);
    }

    #[test]
    fn multiword_names_align_per_word() {
        let m = NameMatcher::new();
        let s = m.similarity("patient_height_cm", "height");
        // One of three words matches perfectly; symmetric averaging keeps a
        // meaningful but diluted score.
        assert!(s > 0.3 && s < 0.9, "{s}");
    }

    #[test]
    fn empty_names_score_zero() {
        let m = NameMatcher::new();
        assert_eq!(m.similarity("", "patient"), 0.0);
        assert_eq!(m.similarity("__", "--"), 0.0);
    }

    #[test]
    fn matrix_is_bitwise_equal_to_the_scalar_reference() {
        let schema = SchemaBuilder::new("s")
            .entity("patient", |e| {
                e.attr("height", DataType::Real)
                    .attr("patient_height_cm", DataType::Real)
                    .attr("descr", DataType::Text)
            })
            .entity("doctor", |e| e.attr("specialty", DataType::Text))
            .build_unchecked();
        let matcher = NameMatcher::new();
        let q = QueryGraph::new();
        let ts = terms(&["pat_ht", "height", "description", "xyzzy"]);
        let prepared = crate::score_fresh(&matcher, &ts, &q, &schema);
        for (r, term) in ts.iter().enumerate() {
            for (c, id) in schema.ids().enumerate() {
                let reference = matcher.similarity(&term.text, schema.element(id).name);
                assert_eq!(
                    prepared.get(r, c).to_bits(),
                    reference.to_bits(),
                    "cell ({r},{c}): matrix {} vs reference {reference}",
                    prepared.get(r, c)
                );
            }
        }
    }
}
