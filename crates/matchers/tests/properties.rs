//! Property-based tests for the matcher ensemble.

use proptest::prelude::*;
use schemr_match::{
    ContextMatcher, EditDistanceMatcher, Ensemble, Matcher, NameMatcher, SimilarityMatrix,
    TokenMatcher,
};
use schemr_model::{DataType, QueryGraph, QueryTerm, SchemaBuilder};

fn arb_name() -> impl Strategy<Value = String> {
    "[a-zA-Z][a-zA-Z0-9_]{0,12}"
}

fn keyword_terms(words: &[String]) -> (QueryGraph, Vec<QueryTerm>) {
    let mut q = QueryGraph::new();
    for w in words {
        q.add_keyword(w.clone());
    }
    let t = q.terms();
    (q, t)
}

proptest! {
    /// Scalar similarities are symmetric and bounded for every matcher.
    #[test]
    fn scalar_similarities_symmetric_and_bounded(a in arb_name(), b in arb_name()) {
        let name = NameMatcher::new();
        let token = TokenMatcher::new();
        let edit = EditDistanceMatcher::new();
        for (sa, sb) in [
            (name.similarity(&a, &b), name.similarity(&b, &a)),
            (token.similarity(&a, &b), token.similarity(&b, &a)),
            (edit.similarity(&a, &b), edit.similarity(&b, &a)),
        ] {
            prop_assert!((sa - sb).abs() < 1e-12);
            prop_assert!((0.0..=1.0).contains(&sa), "{}", sa);
        }
    }

    /// Identical names score 1.0 under name and token matchers.
    #[test]
    fn identity_scores_one(a in "[a-z][a-z0-9_]{0,12}") {
        let name = NameMatcher::new();
        let token = TokenMatcher::new();
        prop_assert!((name.similarity(&a, &a) - 1.0).abs() < 1e-9);
        prop_assert!((token.similarity(&a, &a) - 1.0).abs() < 1e-9);
    }

    /// Every matcher's matrix has the declared dimensions and values in
    /// [0, 1].
    #[test]
    fn matrices_have_unit_interval_values(
        keywords in proptest::collection::vec(arb_name(), 1..4),
        attrs in proptest::collection::vec(arb_name(), 1..5),
    ) {
        let (q, terms) = keyword_terms(&keywords);
        let candidate = SchemaBuilder::new("c")
            .entity("entity", move |mut e| {
                for (i, a) in attrs.iter().enumerate() {
                    e = e.attr(format!("{a}{i}"), DataType::Text);
                }
                e
            })
            .build_unchecked();
        let matchers: Vec<Box<dyn Matcher>> = vec![
            Box::new(NameMatcher::new()),
            Box::new(ContextMatcher::new()),
            Box::new(TokenMatcher::new()),
            Box::new(EditDistanceMatcher::new()),
        ];
        for m in &matchers {
            let matrix = m.score(
                &m.prepare_query(&terms, &q),
                &terms,
                &q,
                &m.prepare(&candidate),
                &candidate,
            );
            prop_assert_eq!(matrix.rows(), terms.len());
            prop_assert_eq!(matrix.cols(), candidate.len());
            for (_, _, v) in matrix.nonzero() {
                prop_assert!((0.0..=1.0).contains(&v));
            }
        }
    }

    /// Combining a matrix with itself at any weights reproduces it.
    #[test]
    fn self_combination_is_identity(
        rows in 1usize..4,
        cols in 1usize..4,
        cells in proptest::collection::vec(0.0f64..1.0, 1..16),
        w1 in 0.1f64..5.0,
        w2 in 0.1f64..5.0,
    ) {
        let mut m = SimilarityMatrix::zeros(rows, cols);
        for (i, v) in cells.iter().enumerate().take(rows * cols) {
            m.set(i / cols, i % cols, *v);
        }
        let combined = SimilarityMatrix::combine(&[(&m, w1), (&m, w2)]);
        for r in 0..rows {
            for c in 0..cols {
                prop_assert!((combined.get(r, c) - m.get(r, c)).abs() < 1e-9);
            }
        }
    }

    /// Combination with abstention equals plain combination when no
    /// matcher abstains.
    #[test]
    fn abstention_off_matches_plain_combine(
        cells_a in proptest::collection::vec(0.0f64..1.0, 4),
        cells_b in proptest::collection::vec(0.0f64..1.0, 4),
        w in 0.1f64..3.0,
    ) {
        let mut a = SimilarityMatrix::zeros(2, 2);
        let mut b = SimilarityMatrix::zeros(2, 2);
        for i in 0..4 {
            a.set(i / 2, i % 2, cells_a[i]);
            b.set(i / 2, i % 2, cells_b[i]);
        }
        let plain = SimilarityMatrix::combine(&[(&a, 1.0), (&b, w)]);
        let sparse = SimilarityMatrix::combine_with_abstention(&[(&a, 1.0, false), (&b, w, false)]);
        for r in 0..2 {
            for c in 0..2 {
                prop_assert!((plain.get(r, c) - sparse.get(r, c)).abs() < 1e-12);
            }
        }
    }

    /// An abstaining all-zero matrix never changes the combination.
    #[test]
    fn abstaining_zero_matrix_is_neutral(
        cells in proptest::collection::vec(0.0f64..1.0, 4),
        w in 0.1f64..3.0,
    ) {
        let mut a = SimilarityMatrix::zeros(2, 2);
        for (i, v) in cells.iter().enumerate() {
            a.set(i / 2, i % 2, *v);
        }
        let zeros = SimilarityMatrix::zeros(2, 2);
        let with = SimilarityMatrix::combine_with_abstention(&[(&a, 1.0, false), (&zeros, w, true)]);
        for r in 0..2 {
            for c in 0..2 {
                prop_assert!((with.get(r, c) - a.get(r, c)).abs() < 1e-12);
            }
        }
    }

    /// The ensemble's combined matrix is bounded by the max of the member
    /// matrices per cell (a weighted average cannot exceed the max).
    #[test]
    fn ensemble_bounded_by_member_max(
        keywords in proptest::collection::vec(arb_name(), 1..3),
    ) {
        let (q, terms) = keyword_terms(&keywords);
        let candidate = SchemaBuilder::new("c")
            .entity("patient", |e| {
                e.attr("height", DataType::Real).attr("gender", DataType::Text)
            })
            .build_unchecked();
        let ensemble = Ensemble::standard();
        let combined = ensemble
            .run(
                &ensemble.prepare_query(&terms, &q),
                &terms,
                &q,
                &ensemble.prepare(&candidate),
                &candidate,
                false,
            )
            .matrix;
        let members = ensemble.individual(&terms, &q, &candidate);
        for r in 0..combined.rows() {
            for c in 0..combined.cols() {
                let max_member = members
                    .iter()
                    .map(|(_, m)| m.get(r, c))
                    .fold(0.0f64, f64::max);
                prop_assert!(combined.get(r, c) <= max_member + 1e-12);
            }
        }
    }
}
