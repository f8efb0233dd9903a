//! A similarity-flooding structural matcher (Melnik, Garcia-Molina &
//! Rahm, ICDE 2002 — the classic member of the structural family surveyed
//! by Rahm & Bernstein, which the paper cites for its ensemble).
//!
//! Intuition: two elements are similar if their *neighborhoods* are
//! similar — recursively. Starting from name similarity, similarity flows
//! along matched structural relations (containment up/down, foreign keys)
//! until a fixpoint: a weak name match between `visit` and `encounter`
//! strengthens when their children (`date`×`date`, `patient_id`×`subject`)
//! match, and vice versa.
//!
//! Keywords carry no structure, so (like the context matcher) their rows
//! abstain and the ensemble lets the name matcher carry them.

use schemr_model::{ElementId, QueryGraph, QueryTerm, Schema};

use crate::matrix::SimilarityMatrix;
use crate::name::NameMatcher;
use crate::prepare::{PreparedQuery, PreparedSchema, ScoreScratch};
use crate::Matcher;

/// Flooding parameters.
#[derive(Debug, Clone, Copy)]
pub struct FloodingConfig {
    /// Maximum fixpoint iterations.
    pub max_iterations: usize,
    /// Stop once the largest per-pair change drops below this.
    pub epsilon: f64,
    /// Damping: each iteration keeps `(1-α)` of the initial name
    /// similarity and takes `α` from the relation-averaged neighbor flow.
    pub alpha: f64,
}

impl Default for FloodingConfig {
    fn default() -> Self {
        FloodingConfig {
            max_iterations: 8,
            epsilon: 1e-3,
            alpha: 0.5,
        }
    }
}

/// The similarity-flooding matcher.
pub struct FloodingMatcher {
    name: NameMatcher,
    config: FloodingConfig,
}

impl Default for FloodingMatcher {
    fn default() -> Self {
        Self::new()
    }
}

impl FloodingMatcher {
    /// Matcher with default parameters.
    pub fn new() -> Self {
        FloodingMatcher {
            name: NameMatcher::new(),
            config: FloodingConfig::default(),
        }
    }

    /// Matcher with explicit parameters.
    pub fn with_config(config: FloodingConfig) -> Self {
        FloodingMatcher {
            name: NameMatcher::new(),
            config,
        }
    }

    /// Structural neighbor lists of a schema: for each element, the
    /// related elements under each relation (0 = parent, 1 = child,
    /// 2 = fk-adjacent entity).
    fn neighbors(schema: &Schema) -> Vec<[Vec<ElementId>; 3]> {
        let n = schema.len();
        let mut out: Vec<[Vec<ElementId>; 3]> = (0..n)
            .map(|_| [Vec::new(), Vec::new(), Vec::new()])
            .collect();
        for id in schema.ids() {
            if let Some(p) = schema.element(id).parent {
                out[id.index()][0].push(p);
                out[p.index()][1].push(id);
            }
        }
        for fk in schema.foreign_keys() {
            out[fk.from_entity.index()][2].push(fk.to_entity);
            out[fk.to_entity.index()][2].push(fk.from_entity);
        }
        out
    }

    /// Run flooding for one fragment against the candidate; fills the
    /// fragment's rows of `matrix`.
    fn flood_fragment(
        &self,
        fragment: &Schema,
        frag_rows: &[usize],
        candidate: &Schema,
        matrix: &mut SimilarityMatrix,
    ) {
        let nf = fragment.len();
        let nc = candidate.len();
        if nf == 0 || nc == 0 {
            return;
        }
        // σ⁰: name similarity per pair.
        let mut sigma0 = vec![0.0f64; nf * nc];
        for (fi, fid) in fragment.ids().enumerate() {
            for (ci, cid) in candidate.ids().enumerate() {
                sigma0[fi * nc + ci] = self
                    .name
                    .similarity(fragment.element(fid).name, candidate.element(cid).name);
            }
        }
        let fneigh = Self::neighbors(fragment);
        let cneigh = Self::neighbors(candidate);

        // Damped propagation instead of Melnik et al.'s per-matrix max
        // normalization: normalization rescales each candidate's matrix to
        // its own maximum, which makes scores incomparable *across*
        // candidates (a uniformly-weak candidate gets inflated to 1.0) —
        // unusable for ranking. Damping keeps every value a convex
        // combination of bounded quantities, so σ ∈ [0, 1] and candidates
        // compare directly:
        //   σ^{i+1}(p) = (1-α)·σ⁰(p) + α·mean_over_relations(fan-averaged flow)
        let mut sigma = sigma0.clone();
        let mut next = vec![0.0f64; nf * nc];
        let alpha = self.config.alpha;
        for _ in 0..self.config.max_iterations {
            for fi in 0..nf {
                for ci in 0..nc {
                    let mut flow = 0.0f64;
                    let mut relations_used = 0usize;
                    for rel in 0..3 {
                        let fr = &fneigh[fi][rel];
                        let cr = &cneigh[ci][rel];
                        if fr.is_empty() || cr.is_empty() {
                            continue;
                        }
                        relations_used += 1;
                        let fan = (fr.len() * cr.len()) as f64;
                        for &fa in fr {
                            for &ca in cr {
                                flow += sigma[fa.index() * nc + ca.index()] / fan;
                            }
                        }
                    }
                    let propagated = if relations_used > 0 {
                        flow / relations_used as f64
                    } else {
                        sigma0[fi * nc + ci]
                    };
                    next[fi * nc + ci] = (1.0 - alpha) * sigma0[fi * nc + ci] + alpha * propagated;
                }
            }
            let delta = sigma
                .iter()
                .zip(&next)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            std::mem::swap(&mut sigma, &mut next);
            if delta < self.config.epsilon {
                break;
            }
        }

        for (fi, &row) in frag_rows.iter().enumerate() {
            for ci in 0..nc {
                let v = sigma[fi * nc + ci];
                if v > 0.0 {
                    matrix.set(row, ci, v);
                }
            }
        }
    }
}

impl Matcher for FloodingMatcher {
    fn name(&self) -> &'static str {
        "flooding"
    }

    fn abstains(&self) -> bool {
        // Keyword rows are structurally mute; let the dense matchers carry
        // them rather than diluting.
        true
    }

    fn score_into(
        &self,
        _prepared_query: &PreparedQuery,
        terms: &[QueryTerm],
        query: &QueryGraph,
        _prepared: &PreparedSchema,
        candidate: &Schema,
        _scratch: &mut ScoreScratch<'_>,
        out: &mut SimilarityMatrix,
    ) {
        out.reset(terms.len(), candidate.len());
        for (frag_ix, fragment) in query.fragments().iter().enumerate() {
            // Rows of this fragment, in element order.
            let frag_rows: Vec<usize> = terms
                .iter()
                .enumerate()
                .filter(|(_, t)| t.fragment == Some(frag_ix))
                .map(|(row, _)| row)
                .collect();
            debug_assert_eq!(frag_rows.len(), fragment.len());
            self.flood_fragment(fragment, &frag_rows, candidate, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemr_model::{DataType, SchemaBuilder};

    fn fragment_query(build: impl FnOnce() -> Schema) -> (QueryGraph, Vec<QueryTerm>) {
        let mut q = QueryGraph::new();
        q.add_fragment(build());
        let t = q.terms();
        (q, t)
    }

    #[test]
    fn structure_rescues_renamed_entities() {
        // Fragment: visit(date, patient_id). Candidate A renames the
        // entity to `encounter` but keeps the children; candidate B has an
        // `encounter` with unrelated children. Flooding should score the
        // visit×encounter pair higher in A than in B.
        let (q, terms) = fragment_query(|| {
            SchemaBuilder::new("f")
                .entity("visit", |e| {
                    e.attr("date", DataType::Date)
                        .attr("patient_id", DataType::Integer)
                })
                .build_unchecked()
        });
        let a = SchemaBuilder::new("a")
            .entity("encounter", |e| {
                e.attr("date", DataType::Date)
                    .attr("patient_id", DataType::Integer)
            })
            .build_unchecked();
        let b = SchemaBuilder::new("b")
            .entity("encounter", |e| {
                e.attr("invoice", DataType::Decimal)
                    .attr("warehouse", DataType::Text)
            })
            .build_unchecked();
        let matcher = FloodingMatcher::new();
        let ma = crate::score_fresh(&matcher, &terms, &q, &a);
        let mb = crate::score_fresh(&matcher, &terms, &q, &b);
        // Row 0 = visit; col 0 = encounter in both candidates.
        assert!(
            ma.get(0, 0) > mb.get(0, 0) + 0.1,
            "A {} should beat B {}",
            ma.get(0, 0),
            mb.get(0, 0)
        );
    }

    #[test]
    fn identical_schemas_keep_a_strong_diagonal() {
        let build = || {
            SchemaBuilder::new("s")
                .entity("patient", |e| {
                    e.attr("height", DataType::Real)
                        .attr("gender", DataType::Text)
                })
                .build_unchecked()
        };
        let (q, terms) = fragment_query(build);
        let candidate = build();
        let m = crate::score_fresh(&FloodingMatcher::new(), &terms, &q, &candidate);
        for i in 0..candidate.len() {
            let diag = m.get(i, i);
            for j in 0..candidate.len() {
                if j != i {
                    assert!(
                        diag >= m.get(i, j) - 1e-9,
                        "diagonal {i} ({diag}) < off-diagonal ({i},{j}) = {}",
                        m.get(i, j)
                    );
                }
            }
        }
    }

    #[test]
    fn keyword_rows_are_zero() {
        let mut q = QueryGraph::new();
        q.add_fragment(
            SchemaBuilder::new("f")
                .entity("patient", |e| e.attr("height", DataType::Real))
                .build_unchecked(),
        );
        q.add_keyword("diagnosis");
        let terms = q.terms();
        let candidate = SchemaBuilder::new("c")
            .entity("diagnosis", |e| e.attr("code", DataType::Text))
            .build_unchecked();
        let m = crate::score_fresh(&FloodingMatcher::new(), &terms, &q, &candidate);
        let kw_row = terms.iter().position(|t| t.is_keyword()).unwrap();
        assert_eq!(m.row_max(kw_row), 0.0);
    }

    #[test]
    fn values_stay_in_unit_interval() {
        let (q, terms) = fragment_query(|| {
            SchemaBuilder::new("f")
                .entity("a", |e| {
                    e.attr("x", DataType::Text).attr("y", DataType::Text)
                })
                .entity("b", |e| e.attr("z", DataType::Text))
                .foreign_key("a", &[], "b", &[])
                .build_unchecked()
        });
        let candidate = SchemaBuilder::new("c")
            .entity("a", |e| e.attr("x", DataType::Text))
            .entity("b", |e| {
                e.attr("z", DataType::Text).attr("y", DataType::Text)
            })
            .foreign_key("b", &[], "a", &[])
            .build_unchecked();
        let m = crate::score_fresh(&FloodingMatcher::new(), &terms, &q, &candidate);
        for (_, _, v) in m.nonzero() {
            assert!((0.0..=1.0).contains(&v), "{v}");
        }
    }

    #[test]
    fn empty_fragment_produces_no_rows() {
        let mut q = QueryGraph::new();
        q.add_fragment(Schema::new("empty"));
        q.add_keyword("x");
        let terms = q.terms();
        let candidate = SchemaBuilder::new("c")
            .entity("t", |e| e.attr("x", DataType::Text))
            .build_unchecked();
        let m = crate::score_fresh(&FloodingMatcher::new(), &terms, &q, &candidate);
        assert_eq!(m.rows(), 1); // just the keyword
        assert_eq!(m.row_max(0), 0.0);
    }
}
