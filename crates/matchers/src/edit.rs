//! Edit-distance matcher: Levenshtein similarity over normalized names.
//!
//! A second independent ensemble member ("other matchers may be used as
//! well"). Complements the n-gram matcher: edit distance is position-aware,
//! so transposed words score lower while single-character typos score
//! higher than under set-based n-gram overlap.

use schemr_model::{QueryGraph, QueryTerm, Schema};
use schemr_text::normalize::fold_case;
use schemr_text::tokenize::words;

use crate::matrix::SimilarityMatrix;
use crate::prepare::{PreparedQuery, PreparedSchema, ScoreScratch};
use crate::Matcher;

/// Levenshtein distance between two strings (character-wise), O(|a|·|b|)
/// time, O(min) space.
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let (short, long) = if a.len() <= b.len() {
        (&a, &b)
    } else {
        (&b, &a)
    };
    let mut prev: Vec<usize> = (0..=short.len()).collect();
    let mut cur = vec![0usize; short.len() + 1];
    for (i, &lc) in long.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &sc) in short.iter().enumerate() {
            let sub = prev[j] + usize::from(lc != sc);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[short.len()]
}

/// Edit-distance matcher.
#[derive(Debug, Default)]
pub struct EditDistanceMatcher;

impl EditDistanceMatcher {
    /// New matcher.
    pub fn new() -> Self {
        EditDistanceMatcher
    }

    /// Normalized-name similarity: `1 − dist/max_len` on the joined,
    /// case-folded, delimiter-stripped forms.
    pub fn similarity(&self, a: &str, b: &str) -> f64 {
        let na = words(a).join(" ");
        let nb = words(b).join(" ");
        let na = fold_case(&na);
        let nb = fold_case(&nb);
        if na.is_empty() || nb.is_empty() {
            return 0.0;
        }
        let dist = levenshtein(&na, &nb);
        let max_len = na.chars().count().max(nb.chars().count());
        1.0 - dist as f64 / max_len as f64
    }
}

impl Matcher for EditDistanceMatcher {
    fn name(&self) -> &'static str {
        "edit"
    }

    fn score_into(
        &self,
        _prepared_query: &PreparedQuery,
        terms: &[QueryTerm],
        _query: &QueryGraph,
        _prepared: &PreparedSchema,
        candidate: &Schema,
        _scratch: &mut ScoreScratch<'_>,
        out: &mut SimilarityMatrix,
    ) {
        out.reset(terms.len(), candidate.len());
        for (col, id) in candidate.ids().enumerate() {
            let el_name = &candidate.element(id).name;
            for (row, term) in terms.iter().enumerate() {
                let s = self.similarity(&term.text, el_name);
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

    #[test]
    fn classic_distances() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("same", "same"), 0);
    }

    #[test]
    fn distance_is_symmetric() {
        for (a, b) in [("patient", "patent"), ("height", "hight"), ("a", "zzz")] {
            assert_eq!(levenshtein(a, b), levenshtein(b, a));
        }
    }

    #[test]
    fn typos_score_high() {
        let m = EditDistanceMatcher::new();
        assert!(m.similarity("height", "hieght") > 0.6);
        assert!(m.similarity("patient", "patiant") > 0.8);
    }

    #[test]
    fn case_and_delimiters_are_normalized_away() {
        let m = EditDistanceMatcher::new();
        assert!((m.similarity("FirstName", "first_name") - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unrelated_names_score_low() {
        let m = EditDistanceMatcher::new();
        assert!(m.similarity("patient", "invoice") < 0.4);
    }

    #[test]
    fn empty_scores_zero() {
        let m = EditDistanceMatcher::new();
        assert_eq!(m.similarity("", "x"), 0.0);
        assert_eq!(m.similarity("_-_", "x"), 0.0);
    }
}
