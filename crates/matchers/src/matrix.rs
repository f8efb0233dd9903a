//! Similarity matrices: the interchange format between matchers, the
//! ensemble, and the tightness-of-fit scorer.

/// A dense (query terms × schema elements) matrix of similarity scores in
/// `[0, 1]`.
///
/// "Each (query element, schema element) pair has a corresponding value
/// which describes the match quality — a value between 0 and 1."
#[derive(Debug, Clone, PartialEq)]
pub struct SimilarityMatrix {
    rows: usize,
    cols: usize,
    values: Vec<f64>,
}

impl SimilarityMatrix {
    /// A zero matrix with `rows` query terms and `cols` schema elements.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        SimilarityMatrix {
            rows,
            cols,
            values: vec![0.0; rows * cols],
        }
    }

    /// Number of query-term rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of schema-element columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The value at (`row`, `col`).
    pub fn get(&self, row: usize, col: usize) -> f64 {
        debug_assert!(row < self.rows && col < self.cols);
        self.values[row * self.cols + col]
    }

    /// Set the value at (`row`, `col`), clamping into `[0, 1]`. NaN
    /// clamps to 0.0: a similarity that failed to compute is "no match",
    /// and letting NaN into the matrix would make every downstream
    /// comparison (column maxima, final ranking) order-dependent.
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        debug_assert!(row < self.rows && col < self.cols);
        let value = if value.is_nan() { 0.0 } else { value };
        self.values[row * self.cols + col] = value.clamp(0.0, 1.0);
    }

    /// The maximum value in column `col` and the row achieving it —
    /// "selecting the maximum value of each schema element's entry in the
    /// matrix as the final match score for that element".
    pub fn column_max(&self, col: usize) -> (usize, f64) {
        let mut best = (0usize, 0.0f64);
        for row in 0..self.rows {
            let v = self.get(row, col);
            if v > best.1 {
                best = (row, v);
            }
        }
        best
    }

    /// Per-element final match scores: the column maxima.
    pub fn element_scores(&self) -> Vec<f64> {
        (0..self.cols).map(|c| self.column_max(c).1).collect()
    }

    /// The maximum value in row `row` (how well a query term matched
    /// anywhere in the schema).
    pub fn row_max(&self, row: usize) -> f64 {
        debug_assert!(row < self.rows);
        // Cells are never NaN (see `set`), so a compare-and-keep is the
        // same maximum `f64::max` finds, without its NaN handling on
        // every cell of every traced candidate.
        self.values[row * self.cols..(row + 1) * self.cols]
            .iter()
            .fold(0.0, |best, &v| if v > best { v } else { best })
    }

    /// Mean of the row maxima: how well the *average* query term matched
    /// anywhere in the schema. This is the per-matcher strength signal
    /// the search-history event log records for each ranked result — a
    /// scalar per (matcher, candidate) that weight learning can regress
    /// against without storing whole matrices.
    pub fn mean_row_max(&self) -> f64 {
        if self.rows == 0 {
            return 0.0;
        }
        (0..self.rows).map(|r| self.row_max(r)).sum::<f64>() / self.rows as f64
    }

    /// Weighted combination of matcher matrices: `Σ wᵢMᵢ / Σ wᵢ`.
    ///
    /// All matrices must share dimensions. Non-positive total weight yields
    /// a zero matrix.
    pub fn combine(matrices: &[(&SimilarityMatrix, f64)]) -> SimilarityMatrix {
        let Some(((first, _), rest)) = matrices.split_first() else {
            return SimilarityMatrix::zeros(0, 0);
        };
        for (m, _) in rest {
            assert_eq!(
                (m.rows, m.cols),
                (first.rows, first.cols),
                "matcher matrices must agree on dimensions"
            );
        }
        let total: f64 = matrices.iter().map(|(_, w)| w.max(0.0)).sum();
        let mut out = SimilarityMatrix::zeros(first.rows, first.cols);
        if total <= 0.0 {
            return out;
        }
        for i in 0..out.values.len() {
            let mut v = 0.0;
            for (m, w) in matrices {
                v += w.max(0.0) * m.values[i];
            }
            out.values[i] = (v / total).clamp(0.0, 1.0);
        }
        out
    }

    /// Weighted combination with *abstention*: matchers flagged as
    /// abstaining contribute a cell to neither numerator nor denominator
    /// when their value there is zero. Sparse, high-precision matchers
    /// (data-type or codebook agreement) use this so their "don't know"
    /// cells do not dilute the dense matchers.
    ///
    /// Cells where every matcher abstains (or only zero-weight matchers
    /// fire) are zero.
    pub fn combine_with_abstention(
        matrices: &[(&SimilarityMatrix, f64, bool)],
    ) -> SimilarityMatrix {
        let Some(((first, _, _), rest)) = matrices.split_first() else {
            return SimilarityMatrix::zeros(0, 0);
        };
        for (m, _, _) in rest {
            assert_eq!(
                (m.rows, m.cols),
                (first.rows, first.cols),
                "matcher matrices must agree on dimensions"
            );
        }
        let mut out = SimilarityMatrix::zeros(first.rows, first.cols);
        for i in 0..out.values.len() {
            let mut num = 0.0f64;
            let mut den = 0.0f64;
            for (m, w, abstaining) in matrices {
                let w = w.max(0.0);
                let v = m.values[i];
                if *abstaining && v == 0.0 {
                    continue;
                }
                num += w * v;
                den += w;
            }
            if den > 0.0 {
                out.values[i] = (num / den).clamp(0.0, 1.0);
            }
        }
        out
    }

    /// Iterate `(row, col, value)` over non-zero entries.
    pub fn nonzero(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.rows).flat_map(move |r| {
            (0..self.cols).filter_map(move |c| {
                let v = self.get(r, c);
                (v > 0.0).then_some((r, c, v))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_set_clamps_into_unit_interval() {
        let mut m = SimilarityMatrix::zeros(2, 3);
        m.set(0, 1, 0.5);
        m.set(1, 2, 7.0);
        m.set(0, 0, -3.0);
        assert_eq!(m.get(0, 1), 0.5);
        assert_eq!(m.get(1, 2), 1.0);
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    fn nan_scores_clamp_to_zero() {
        let mut m = SimilarityMatrix::zeros(2, 2);
        m.set(0, 0, f64::NAN);
        m.set(1, 0, 0.6);
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.column_max(0), (1, 0.6));
        assert!(m.mean_row_max().is_finite());
    }

    #[test]
    fn column_max_finds_the_best_row() {
        let mut m = SimilarityMatrix::zeros(3, 2);
        m.set(0, 0, 0.2);
        m.set(1, 0, 0.9);
        m.set(2, 0, 0.4);
        assert_eq!(m.column_max(0), (1, 0.9));
        assert_eq!(m.column_max(1), (0, 0.0));
        assert_eq!(m.element_scores(), vec![0.9, 0.0]);
    }

    #[test]
    fn row_max() {
        let mut m = SimilarityMatrix::zeros(1, 3);
        m.set(0, 2, 0.7);
        assert_eq!(m.row_max(0), 0.7);
    }

    #[test]
    fn mean_row_max_averages_per_term_bests() {
        let mut m = SimilarityMatrix::zeros(2, 2);
        m.set(0, 0, 0.8);
        m.set(1, 1, 0.4);
        assert!((m.mean_row_max() - 0.6).abs() < 1e-12);
        assert_eq!(SimilarityMatrix::zeros(0, 3).mean_row_max(), 0.0);
        assert_eq!(SimilarityMatrix::zeros(3, 0).mean_row_max(), 0.0);
    }

    #[test]
    fn row_max_is_the_f64_max_fold_bit_for_bit() {
        let mut m = SimilarityMatrix::zeros(5, 23);
        let mut state = 7u64;
        for r in 0..m.rows() {
            for c in 0..m.cols() {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                // A third of the cells stay zero; row 3 stays all zero.
                if r != 3 && !state.is_multiple_of(3) {
                    m.set(r, c, (state >> 11) as f64 / (1u64 << 53) as f64);
                }
            }
        }
        for r in 0..m.rows() {
            let reference = (0..m.cols()).map(|c| m.get(r, c)).fold(0.0, f64::max);
            assert_eq!(m.row_max(r).to_bits(), reference.to_bits(), "row {r}");
        }
    }

    #[test]
    fn combine_weights_matrices() {
        let mut a = SimilarityMatrix::zeros(1, 1);
        a.set(0, 0, 1.0);
        let b = SimilarityMatrix::zeros(1, 1);
        let combined = SimilarityMatrix::combine(&[(&a, 1.0), (&b, 1.0)]);
        assert!((combined.get(0, 0) - 0.5).abs() < 1e-12);
        let weighted = SimilarityMatrix::combine(&[(&a, 3.0), (&b, 1.0)]);
        assert!((weighted.get(0, 0) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn combine_with_zero_weight_total_is_zero() {
        let mut a = SimilarityMatrix::zeros(1, 1);
        a.set(0, 0, 1.0);
        let combined = SimilarityMatrix::combine(&[(&a, 0.0)]);
        assert_eq!(combined.get(0, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "dimensions")]
    fn combine_rejects_dimension_mismatch() {
        let a = SimilarityMatrix::zeros(1, 1);
        let b = SimilarityMatrix::zeros(2, 1);
        SimilarityMatrix::combine(&[(&a, 1.0), (&b, 1.0)]);
    }

    #[test]
    fn nonzero_iterates_sparse_entries() {
        let mut m = SimilarityMatrix::zeros(2, 2);
        m.set(0, 1, 0.3);
        m.set(1, 0, 0.6);
        let entries: Vec<_> = m.nonzero().collect();
        assert_eq!(entries, vec![(0, 1, 0.3), (1, 0, 0.6)]);
    }

    #[test]
    fn empty_combine_yields_empty_matrix() {
        let m = SimilarityMatrix::combine(&[]);
        assert_eq!((m.rows(), m.cols()), (0, 0));
    }
}
