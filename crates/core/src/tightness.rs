//! Phase 3: the tightness-of-fit measurement.
//!
//! "Our principle here is to measure the tightness-of-fit by minimizing the
//! distance between relevant elements in a result schema. We begin by
//! selecting the maximum value of each schema element's entry in the matrix
//! as the final match score for that element. Next, we apply penalties to
//! the scores of the schema elements based on a relative distance measure
//! and take the average of the scores … This calculation is repeated for
//! all possible anchor entities, and the maximum of all calculations is
//! selected as the final match score for the schema."
//!
//! Penalty classes, per the paper's intuition:
//! * same entity as the anchor → no penalty,
//! * same entity *neighborhood* (transitive closure on foreign keys) →
//!   small penalty,
//! * unrelated entities → larger penalty.

use schemr_match::SimilarityMatrix;
use schemr_model::{DistanceClass, ElementId, Neighborhoods, Schema};

/// Tightness-of-fit parameters.
#[derive(Debug, Clone, Copy)]
pub struct TightnessConfig {
    /// Penalty for elements in the anchor's FK neighborhood.
    pub neighborhood_penalty: f64,
    /// Penalty for elements in unrelated entities.
    pub unrelated_penalty: f64,
    /// Elements whose best matrix entry is below this do not count as
    /// matched (they neither score nor dilute the average). Figure 4 shows
    /// the calculation over "only matched schema elements".
    pub min_element_score: f64,
    /// Average with the mean (true, the paper's prose) or the sum (false,
    /// the paper's formula `t = Σ(S−P)`); ablated in experiment E4.
    pub mean_aggregation: bool,
    /// Weight the anchored score by query coverage (matched query terms ÷
    /// total query terms). The paper's Phase 3 "computes a final score by
    /// weighing similarity scores with a Tightness-of-fit Measurement";
    /// without this weighting a schema matching one query term perfectly
    /// would outrank one matching every term well. Ablated in E4.
    pub coverage_weighting: bool,
}

impl Default for TightnessConfig {
    fn default() -> Self {
        TightnessConfig {
            neighborhood_penalty: 0.1,
            unrelated_penalty: 0.3,
            min_element_score: 0.45,
            mean_aggregation: true,
            coverage_weighting: true,
        }
    }
}

/// The outcome of the tightness-of-fit measurement for one candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct TightnessScore {
    /// The final schema score: `t_max`, multiplied by `coverage` when
    /// [`TightnessConfig::coverage_weighting`] is on.
    pub score: f64,
    /// `t_max` before coverage weighting.
    pub anchored_score: f64,
    /// Fraction of query terms that matched some element (`0..=1`).
    pub coverage: f64,
    /// The anchor entity achieving `t_max` (None when nothing matched).
    pub best_anchor: Option<ElementId>,
    /// Matched elements with their unpenalized scores, the matrix row
    /// (query term) that produced each, and the distance class under the
    /// best anchor.
    pub matched: Vec<MatchedElement>,
}

/// One matched element's detail (feeds the visualization's similarity
/// encodings).
#[derive(Debug, Clone, PartialEq)]
pub struct MatchedElement {
    /// The candidate schema element.
    pub element: ElementId,
    /// The query-term row that best matched it.
    pub term: usize,
    /// Unpenalized match score (the column max).
    pub score: f64,
    /// Distance class relative to the winning anchor.
    pub class: DistanceClass,
}

/// Compute the tightness-of-fit score of `candidate` given the combined
/// similarity matrix from Phase 2.
pub fn tightness_of_fit(
    candidate: &Schema,
    matrix: &SimilarityMatrix,
    config: &TightnessConfig,
) -> TightnessScore {
    let mut matched = Vec::new();
    let score = tightness_of_fit_in(
        candidate,
        matrix,
        config,
        &mut TightnessScratch::default(),
        &mut matched,
    );
    TightnessScore { matched, ..score }
}

/// The tables tightness-of-fit fills for a candidate, kept from one
/// candidate to the next by whoever scores a run of them (one per search
/// in the engine), so a candidate costs no allocation unless it outgrows
/// every one before it.
#[derive(Debug, Default)]
pub struct TightnessScratch {
    /// Matched elements: `(element, best row, column max)`.
    matched: Vec<(ElementId, usize, f64)>,
    /// Distinct entities owning a matched element.
    anchors: Vec<ElementId>,
    neighborhoods: Neighborhoods,
    union_find: Vec<u32>,
}

/// [`tightness_of_fit`] on `scratch`'s tables. The matched elements are
/// appended to `matched` — an arena a caller keeps across candidates —
/// instead of the returned score's own `matched`, which is empty.
pub fn tightness_of_fit_in(
    candidate: &Schema,
    matrix: &SimilarityMatrix,
    config: &TightnessConfig,
    scratch: &mut TightnessScratch,
    matched: &mut Vec<MatchedElement>,
) -> TightnessScore {
    debug_assert_eq!(matrix.cols(), candidate.len());
    // Per-element final scores: column maxima above the matched threshold.
    let found = &mut scratch.matched;
    found.clear();
    for (col, id) in candidate.ids().enumerate() {
        let (row, score) = matrix.column_max(col);
        if score >= config.min_element_score {
            found.push((id, row, score));
        }
    }
    if found.is_empty() {
        return TightnessScore {
            score: 0.0,
            anchored_score: 0.0,
            coverage: 0.0,
            best_anchor: None,
            matched: Vec::new(),
        };
    }

    // Query coverage: fraction of matrix rows (query terms) whose best
    // entry clears the matched threshold.
    let coverage = if matrix.rows() == 0 {
        0.0
    } else {
        let covered = (0..matrix.rows())
            .filter(|&r| matrix.row_max(r) >= config.min_element_score)
            .count();
        covered as f64 / matrix.rows() as f64
    };
    let weight = if config.coverage_weighting {
        coverage
    } else {
        1.0
    };

    let neighborhoods = &mut scratch.neighborhoods;
    candidate.neighborhoods_into(neighborhoods, &mut scratch.union_find);
    // Candidate anchors: every entity that owns at least one matched
    // element. (Anchoring on an unmatched entity can never beat anchoring
    // on a matched one — it penalizes strictly more elements.)
    let anchors = &mut scratch.anchors;
    anchors.clear();
    anchors.extend(
        found
            .iter()
            .filter_map(|(id, _, _)| neighborhoods.owning_entity(*id)),
    );
    anchors.sort();
    anchors.dedup();
    if anchors.is_empty() {
        // Degenerate flat schema with no entities: no penalties apply.
        let total: f64 = found.iter().map(|(_, _, s)| s).sum();
        let score = if config.mean_aggregation {
            total / found.len() as f64
        } else {
            total
        };
        matched.extend(found.iter().map(|&(element, term, score)| MatchedElement {
            element,
            term,
            score,
            class: DistanceClass::SameEntity,
        }));
        return TightnessScore {
            score: sanitize(score * weight),
            anchored_score: sanitize(score),
            coverage,
            best_anchor: None,
            matched: Vec::new(),
        };
    }

    let penalty_for = |class: DistanceClass| -> f64 {
        match class {
            DistanceClass::SameEntity => 0.0,
            DistanceClass::Neighborhood => config.neighborhood_penalty,
            DistanceClass::Unrelated => config.unrelated_penalty,
        }
    };

    let mut best: (f64, ElementId) = (f64::NEG_INFINITY, anchors[0]);
    for &anchor in anchors.iter() {
        let total: f64 = found
            .iter()
            .map(|&(id, _, s)| {
                let p = penalty_for(neighborhoods.classify(anchor, id));
                (s - p).max(0.0)
            })
            .sum();
        let t = if config.mean_aggregation {
            total / found.len() as f64
        } else {
            total
        };
        if t > best.0 {
            best = (t, anchor);
        }
    }

    let (anchored_score, best_anchor) = best;
    matched.extend(found.iter().map(|&(element, term, s)| MatchedElement {
        element,
        term,
        score: s,
        class: neighborhoods.classify(best_anchor, element),
    }));
    TightnessScore {
        score: sanitize(anchored_score * weight),
        anchored_score: sanitize(anchored_score),
        coverage,
        best_anchor: Some(best_anchor),
        matched: Vec::new(),
    }
}

/// NaN → 0.0. The similarity matrix already scrubs NaN on `set`, but a
/// NaN produced *inside* the aggregation (e.g. a pathological weight)
/// must not leak into the final ranking, where a non-total score makes
/// the sort order depend on the input permutation.
fn sanitize(score: f64) -> f64 {
    if score.is_nan() {
        0.0
    } else {
        score
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemr_model::{DataType, SchemaBuilder};

    /// The paper's Figure 4 schema: matched elements case.doctor,
    /// case.patient, patient.height, patient.gender, doctor.gender, with
    /// case→patient and case→doctor foreign keys.
    fn figure4() -> (Schema, SimilarityMatrix) {
        let schema = SchemaBuilder::new("clinic")
            .entity("case", |e| {
                e.attr("doctor", DataType::Integer)
                    .attr("patient", DataType::Integer)
            })
            .entity("patient", |e| {
                e.attr("height", DataType::Real)
                    .attr("gender", DataType::Text)
            })
            .entity("doctor", |e| e.attr("gender", DataType::Text))
            .foreign_key("case", &["patient"], "patient", &[])
            .foreign_key("case", &["doctor"], "doctor", &[])
            .build_unchecked();
        // Element ids: 0 case, 1 case.doctor, 2 case.patient, 3 patient,
        // 4 patient.height, 5 patient.gender, 6 doctor, 7 doctor.gender.
        // One query row per matched element, score 0.8 on the five matched
        // attributes (entities themselves unmatched).
        let mut m = SimilarityMatrix::zeros(5, schema.len());
        for (row, col) in [(0, 1), (1, 2), (2, 4), (3, 5), (4, 7)] {
            m.set(row, col, 0.8);
        }
        (schema, m)
    }

    /// Hand-computed Figure 4 walk-through with the default penalties
    /// (δ₁=0.1 neighborhood, δ₂=0.3 unrelated — though all three entities
    /// here share one FK neighborhood, so δ₂ never fires):
    ///
    /// * anchor = case: case.doctor, case.patient unpenalized (0.8);
    ///   height, gender, gender penalized to 0.7 → mean = (0.8·2 + 0.7·3)/5 = 0.74
    /// * anchor = patient: its two attrs 0.8; other three 0.7 → 0.74
    /// * anchor = doctor: one attr 0.8, four 0.7 → 0.72
    /// * t_max = 0.74 via case or patient.
    #[test]
    fn figure4_worked_example() {
        let (schema, m) = figure4();
        let t = tightness_of_fit(&schema, &m, &TightnessConfig::default());
        assert!((t.score - 0.74).abs() < 1e-9, "t_max = {}", t.score);
        assert_eq!(t.matched.len(), 5);
        let anchor_name = schema.element(t.best_anchor.unwrap()).name;
        assert!(anchor_name == "case" || anchor_name == "patient");
        // Under the winning anchor, two elements are SameEntity and three
        // are Neighborhood.
        let same = t
            .matched
            .iter()
            .filter(|e| e.class == DistanceClass::SameEntity)
            .count();
        let nb = t
            .matched
            .iter()
            .filter(|e| e.class == DistanceClass::Neighborhood)
            .count();
        assert_eq!((same, nb), (2, 3));
    }

    #[test]
    fn nan_similarities_never_reach_the_final_score() {
        // A matcher that fails to compute yields NaN; the matrix scrubs
        // it on `set` and the tightness aggregation sanitizes its own
        // output, so the final score stays finite and the ranking total.
        let (schema, _) = figure4();
        let mut m = SimilarityMatrix::zeros(5, schema.len());
        for col in 0..schema.len() {
            m.set(0, col, f64::NAN);
        }
        m.set(1, 2, 0.8);
        let t = tightness_of_fit(&schema, &m, &TightnessConfig::default());
        assert!(t.score.is_finite(), "score = {}", t.score);
        assert!(t.anchored_score.is_finite());
        assert!(t.matched.iter().all(|e| e.score.is_finite()));
        assert_eq!(sanitize(f64::NAN), 0.0);
        assert_eq!(sanitize(0.4), 0.4);
    }

    #[test]
    fn unrelated_entities_get_the_larger_penalty() {
        // Two disconnected entities, both matched: anchoring on either
        // penalizes the other at δ₂.
        let schema = SchemaBuilder::new("s")
            .entity("patient", |e| e.attr("height", DataType::Real))
            .entity("supply", |e| e.attr("item", DataType::Text))
            .build_unchecked();
        let mut m = SimilarityMatrix::zeros(2, schema.len());
        m.set(0, 1, 0.8); // patient.height
        m.set(1, 3, 0.8); // supply.item
        let t = tightness_of_fit(&schema, &m, &TightnessConfig::default());
        // mean(0.8, 0.8-0.3) = 0.65
        assert!((t.score - 0.65).abs() < 1e-9, "{}", t.score);
    }

    #[test]
    fn colocated_matches_beat_scattered_matches() {
        // Same matrix mass, one schema co-locates it, the other scatters it
        // across unrelated entities — the paper's core ranking claim.
        let colocated = SchemaBuilder::new("a")
            .entity("patient", |e| {
                e.attr("height", DataType::Real)
                    .attr("gender", DataType::Text)
            })
            .build_unchecked();
        let mut mc = SimilarityMatrix::zeros(2, colocated.len());
        mc.set(0, 1, 0.8);
        mc.set(1, 2, 0.8);

        let scattered = SchemaBuilder::new("b")
            .entity("patient", |e| e.attr("height", DataType::Real))
            .entity("staff", |e| e.attr("gender", DataType::Text))
            .build_unchecked();
        let mut ms = SimilarityMatrix::zeros(2, scattered.len());
        ms.set(0, 1, 0.8);
        ms.set(1, 3, 0.8);

        let config = TightnessConfig::default();
        let tc = tightness_of_fit(&colocated, &mc, &config);
        let ts = tightness_of_fit(&scattered, &ms, &config);
        assert!(tc.score > ts.score, "{} vs {}", tc.score, ts.score);
    }

    #[test]
    fn fk_neighborhood_softens_the_scatter() {
        // Scattered but FK-connected should land between co-located and
        // unrelated.
        let connected = SchemaBuilder::new("c")
            .entity("patient", |e| e.attr("height", DataType::Real))
            .entity("visit", |e| {
                e.attr("gender", DataType::Text)
                    .attr("patient_id", DataType::Integer)
            })
            .foreign_key("visit", &["patient_id"], "patient", &[])
            .build_unchecked();
        // ids: 0 patient, 1 height, 2 visit, 3 gender, 4 patient_id
        let mut m = SimilarityMatrix::zeros(2, connected.len());
        m.set(0, 1, 0.8);
        m.set(1, 3, 0.8);
        let config = TightnessConfig::default();
        let t = tightness_of_fit(&connected, &m, &config);
        // mean(0.8, 0.7) = 0.75: above unrelated (0.65), below colocated (0.8).
        assert!((t.score - 0.75).abs() < 1e-9, "{}", t.score);
    }

    #[test]
    fn no_matches_scores_zero() {
        let schema = SchemaBuilder::new("s")
            .entity("a", |e| e.attr("x", DataType::Text))
            .build_unchecked();
        let m = SimilarityMatrix::zeros(1, schema.len());
        let t = tightness_of_fit(&schema, &m, &TightnessConfig::default());
        assert_eq!(t.score, 0.0);
        assert!(t.best_anchor.is_none());
        assert!(t.matched.is_empty());
    }

    #[test]
    fn threshold_excludes_weak_matches_from_the_average() {
        let schema = SchemaBuilder::new("s")
            .entity("a", |e| {
                e.attr("x", DataType::Text).attr("y", DataType::Text)
            })
            .build_unchecked();
        let mut m = SimilarityMatrix::zeros(2, schema.len());
        m.set(0, 1, 0.9);
        m.set(1, 2, 0.1); // below min_element_score
        let t = tightness_of_fit(&schema, &m, &TightnessConfig::default());
        assert_eq!(t.matched.len(), 1);
        // The weak row is excluded from the average but still counts
        // against coverage (only 1 of 2 query terms matched).
        assert!((t.anchored_score - 0.9).abs() < 1e-9);
        assert!((t.coverage - 0.5).abs() < 1e-12);
        assert!((t.score - 0.45).abs() < 1e-9);
    }

    #[test]
    fn sum_aggregation_rewards_more_matches() {
        let schema = SchemaBuilder::new("s")
            .entity("a", |e| {
                e.attr("x", DataType::Text).attr("y", DataType::Text)
            })
            .build_unchecked();
        let mut m = SimilarityMatrix::zeros(2, schema.len());
        m.set(0, 1, 0.6);
        m.set(1, 2, 0.6);
        let mean_cfg = TightnessConfig::default();
        let sum_cfg = TightnessConfig {
            mean_aggregation: false,
            ..mean_cfg
        };
        let tm = tightness_of_fit(&schema, &m, &mean_cfg);
        let ts = tightness_of_fit(&schema, &m, &sum_cfg);
        assert!((tm.score - 0.6).abs() < 1e-9);
        assert!((ts.score - 1.2).abs() < 1e-9);
    }

    #[test]
    fn coverage_weighting_penalizes_partial_query_matches() {
        // Four query terms; schema A matches all four at 0.7, schema B
        // matches one at 1.0. Coverage weighting must rank A first.
        let a = SchemaBuilder::new("a")
            .entity("e", |e| {
                e.attr("w", DataType::Text)
                    .attr("x", DataType::Text)
                    .attr("y", DataType::Text)
                    .attr("z", DataType::Text)
            })
            .build_unchecked();
        let mut ma = SimilarityMatrix::zeros(4, a.len());
        for (row, col) in [(0, 1), (1, 2), (2, 3), (3, 4)] {
            ma.set(row, col, 0.7);
        }
        let b = SchemaBuilder::new("b")
            .entity("e", |e| e.attr("w", DataType::Text))
            .build_unchecked();
        let mut mb = SimilarityMatrix::zeros(4, b.len());
        mb.set(0, 1, 1.0);

        let config = TightnessConfig::default();
        let ta = tightness_of_fit(&a, &ma, &config);
        let tb = tightness_of_fit(&b, &mb, &config);
        assert!((ta.coverage - 1.0).abs() < 1e-12);
        assert!((tb.coverage - 0.25).abs() < 1e-12);
        assert!(ta.score > tb.score, "{} vs {}", ta.score, tb.score);
        // Without coverage weighting, B's single perfect match wins — the
        // very failure mode the weighting exists for.
        let unweighted = TightnessConfig {
            coverage_weighting: false,
            ..config
        };
        let ta2 = tightness_of_fit(&a, &ma, &unweighted);
        let tb2 = tightness_of_fit(&b, &mb, &unweighted);
        assert!(tb2.score > ta2.score);
        assert!((tb2.score - tb2.anchored_score).abs() < 1e-12);
    }

    #[test]
    fn one_scratch_across_candidates_scores_each_like_a_fresh_call() {
        // Figure 4, a flat schema with no entity, an unmatched one, then
        // Figure 4 again: the scratch and the arena carry over, and each
        // candidate's score and slice are the fresh call's.
        let (fig4, m4) = figure4();
        let flat = {
            let mut s = Schema::new("flat");
            s.add_root(schemr_model::Element::attribute("height", DataType::Real));
            s
        };
        let mut mflat = SimilarityMatrix::zeros(1, 1);
        mflat.set(0, 0, 0.9);
        let empty = SimilarityMatrix::zeros(5, fig4.len());
        let config = TightnessConfig::default();
        let mut scratch = TightnessScratch::default();
        let mut arena = Vec::new();
        for (schema, matrix) in [(&fig4, &m4), (&flat, &mflat), (&fig4, &empty), (&fig4, &m4)] {
            let fresh = tightness_of_fit(schema, matrix, &config);
            let start = arena.len();
            let t = tightness_of_fit_in(schema, matrix, &config, &mut scratch, &mut arena);
            assert!(t.matched.is_empty());
            assert_eq!(
                TightnessScore {
                    matched: fresh.matched.clone(),
                    ..t
                },
                fresh
            );
            assert_eq!(arena[start..], fresh.matched[..]);
        }
    }

    #[test]
    fn matched_detail_records_best_term_rows() {
        let (schema, m) = figure4();
        let t = tightness_of_fit(&schema, &m, &TightnessConfig::default());
        let terms: Vec<usize> = t.matched.iter().map(|e| e.term).collect();
        assert_eq!(terms, vec![0, 1, 2, 3, 4]);
    }
}
