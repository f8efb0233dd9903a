//! The context matcher: neighbor-term-set similarity.
//!
//! "A context matcher builds a set of terms from neighboring elements, and
//! tries to capture matches when neighboring-element sets are similar to
//! each other." [Rahm & Bernstein's survey calls this family *structural /
//! context-based* matching.]
//!
//! For a fragment element, the neighborhood is its parent, its siblings,
//! and its children in the query fragment; for a candidate element,
//! likewise in the candidate schema. Keywords carry no context, so their
//! rows are zero — the ensemble lets the name matcher carry them.

#[cfg(test)]
use std::collections::HashSet;

use schemr_model::{ElementId, QueryGraph, QueryTerm, Schema};
use schemr_text::{Analyzer, GramSet};

use crate::matrix::SimilarityMatrix;
use crate::prepare::{PreparedQuery, PreparedSchema};
use crate::Matcher;

/// Neighbor-term-set context matcher.
pub struct ContextMatcher {
    analyzer: Analyzer,
}

impl Default for ContextMatcher {
    fn default() -> Self {
        Self::new()
    }
}

impl ContextMatcher {
    /// Context matcher with the standard name pipeline.
    pub fn new() -> Self {
        ContextMatcher {
            analyzer: Analyzer::for_names(),
        }
    }

    /// The analyzed term set of an element's neighborhood: parent +
    /// siblings + children (the element's own name is excluded — the name
    /// matcher covers it). With [`ContextMatcher::set_similarity`], the
    /// string-set reference each cell of [`Matcher::score`]'s matrix is
    /// tested against bit for bit; compiled for tests only, so no scoring
    /// path can select it.
    #[cfg(test)]
    fn neighbor_terms(&self, schema: &Schema, id: ElementId) -> HashSet<String> {
        let mut names: Vec<&str> = Vec::new();
        let el = schema.element(id);
        if let Some(p) = el.parent {
            names.push(&schema.element(p).name);
            for sib in schema.children(p) {
                if sib != id {
                    names.push(&schema.element(sib).name);
                }
            }
        }
        for child in schema.children(id) {
            names.push(&schema.element(child).name);
        }
        names
            .into_iter()
            .flat_map(|n| self.analyzer.analyze(n))
            .collect()
    }

    /// Dice similarity of two neighborhood term sets (reference).
    #[cfg(test)]
    fn set_similarity(a: &HashSet<String>, b: &HashSet<String>) -> f64 {
        if a.is_empty() || b.is_empty() {
            return 0.0;
        }
        let inter = a.intersection(b).count();
        2.0 * inter as f64 / (a.len() + b.len()) as f64
    }

    /// True when no term can produce a nonzero context row: keywords
    /// carry no fragment membership, so a keyword-only query's matrix is
    /// all zero by construction and the candidate neighborhoods need not
    /// be derived at all.
    fn no_fragment_terms(terms: &[QueryTerm]) -> bool {
        terms
            .iter()
            .all(|t| t.fragment.is_none() || t.element.is_none())
    }

    /// The hashed term-id form of an element's neighborhood: parent +
    /// siblings + children (the element's own name is excluded — the name
    /// matcher covers it).
    fn neighbor_signature(&self, schema: &Schema, id: ElementId) -> GramSet {
        let mut names: Vec<&str> = Vec::new();
        let el = schema.element(id);
        if let Some(p) = el.parent {
            names.push(&schema.element(p).name);
            for sib in schema.children(p) {
                if sib != id {
                    names.push(&schema.element(sib).name);
                }
            }
        }
        for child in schema.children(id) {
            names.push(&schema.element(child).name);
        }
        let analyzed: Vec<String> = names
            .into_iter()
            .flat_map(|n| self.analyzer.analyze(n))
            .collect();
        GramSet::of_terms(analyzed.iter().map(String::as_str))
    }
}

impl Matcher for ContextMatcher {
    fn name(&self) -> &'static str {
        "context"
    }

    fn prepare(&self, schema: &Schema) -> PreparedSchema {
        PreparedSchema {
            neighborhoods: Some(
                schema
                    .ids()
                    .map(|id| self.neighbor_signature(schema, id))
                    .collect(),
            ),
            ..PreparedSchema::default()
        }
    }

    fn prepare_query(&self, terms: &[QueryTerm], query: &QueryGraph) -> PreparedQuery {
        PreparedQuery {
            term_contexts: Some(
                terms
                    .iter()
                    .map(|t| match (t.fragment, t.element) {
                        (Some(frag_ix), Some(el)) => {
                            let sig = self.neighbor_signature(&query.fragments()[frag_ix], el);
                            (!sig.is_empty()).then_some(sig)
                        }
                        _ => None, // keywords have no context
                    })
                    .collect(),
            ),
            ..PreparedQuery::default()
        }
    }

    fn score(
        &self,
        prepared_query: &PreparedQuery,
        terms: &[QueryTerm],
        query: &QueryGraph,
        prepared: &PreparedSchema,
        candidate: &Schema,
    ) -> SimilarityMatrix {
        let mut m = SimilarityMatrix::zeros(terms.len(), candidate.len());
        // Keyword-only queries produce an all-zero matrix; return before
        // any artifact is read or rebuilt.
        if Self::no_fragment_terms(terms) {
            return m;
        }
        let built_query: Vec<Option<GramSet>>;
        let term_contexts: &[Option<GramSet>] = match &prepared_query.term_contexts {
            Some(tc) if tc.len() == terms.len() => tc,
            _ => {
                built_query = self.prepare_query(terms, query).term_contexts.unwrap();
                &built_query
            }
        };
        let built_cand: Vec<GramSet>;
        let cand_ctx: &[GramSet] = match &prepared.neighborhoods {
            Some(n) if n.len() == candidate.len() => n,
            _ => {
                built_cand = candidate
                    .ids()
                    .map(|id| self.neighbor_signature(candidate, id))
                    .collect();
                &built_cand
            }
        };
        for (row, query_ctx) in term_contexts.iter().enumerate() {
            let Some(query_ctx) = query_ctx else {
                continue; // keyword or empty neighborhood
            };
            for (col, ctx) in cand_ctx.iter().enumerate() {
                // Dice over hashed term ids, arithmetic-identical to the
                // reference `set_similarity` (an empty side yields 0
                // either way).
                let s = query_ctx.dice(ctx);
                if s > 0.0 {
                    m.set(row, col, s);
                }
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemr_model::{DataType, SchemaBuilder};

    fn fragment_query() -> (QueryGraph, Vec<QueryTerm>) {
        let mut q = QueryGraph::new();
        q.add_fragment(
            SchemaBuilder::new("frag")
                .entity("patient", |e| {
                    e.attr("height", DataType::Real)
                        .attr("gender", DataType::Text)
                })
                .build_unchecked(),
        );
        q.add_keyword("diagnosis");
        let terms = q.terms();
        (q, terms)
    }

    #[test]
    fn matching_neighborhoods_score_high() {
        let (q, terms) = fragment_query();
        // Candidate shares the patient(height, gender) neighborhood but
        // under a renamed entity.
        let candidate = SchemaBuilder::new("cand")
            .entity("person", |e| {
                e.attr("height", DataType::Real)
                    .attr("gender", DataType::Text)
            })
            .build_unchecked();
        let m = crate::score_fresh(&ContextMatcher::new(), &terms, &q, &candidate);
        // Query "height"'s neighborhood is {patient, gender}; candidate
        // "height"'s is {person, gender}. The shared sibling "gender" gives
        // a positive context score even though the entity was renamed.
        let height_row = 1;
        let height_col = 1;
        assert!(
            m.get(height_row, height_col) > 0.3,
            "got {}",
            m.get(height_row, height_col)
        );
    }

    #[test]
    fn keywords_have_zero_context_rows() {
        let (q, terms) = fragment_query();
        let candidate = SchemaBuilder::new("cand")
            .entity("patient", |e| e.attr("height", DataType::Real))
            .build_unchecked();
        let m = crate::score_fresh(&ContextMatcher::new(), &terms, &q, &candidate);
        let kw_row = terms.iter().position(|t| t.is_keyword()).unwrap();
        assert_eq!(m.row_max(kw_row), 0.0);
    }

    #[test]
    fn disjoint_neighborhoods_score_zero() {
        let (q, terms) = fragment_query();
        let candidate = SchemaBuilder::new("cand")
            .entity("invoice", |e| e.attr("total", DataType::Decimal))
            .build_unchecked();
        let m = crate::score_fresh(&ContextMatcher::new(), &terms, &q, &candidate);
        let entries: Vec<_> = m.nonzero().collect();
        assert!(
            entries.is_empty(),
            "expected empty matrix, found {entries:?}"
        );
    }

    #[test]
    fn keyword_only_queries_score_zero_without_artifacts() {
        // Regression: a query with no fragment terms has an all-zero
        // matrix by construction, so `score` returns before it reads or
        // rebuilds a single neighborhood — empty artifacts included.
        let mut q = QueryGraph::new();
        q.add_keyword("patient");
        q.add_keyword("diagnosis");
        let terms = q.terms();
        let candidate = SchemaBuilder::new("cand")
            .entity("patient", |e| {
                e.attr("height", DataType::Real)
                    .attr("gender", DataType::Text)
            })
            .entity("doctor", |e| e.attr("specialty", DataType::Text))
            .build_unchecked();
        let m = ContextMatcher::new().score(
            &PreparedQuery::default(),
            &terms,
            &q,
            &PreparedSchema::default(),
            &candidate,
        );
        assert!(m.nonzero().next().is_none());
        assert_eq!((m.rows(), m.cols()), (terms.len(), candidate.len()));
    }

    #[test]
    fn matrix_is_bitwise_equal_to_the_scalar_reference() {
        let (q, terms) = fragment_query();
        let candidate = SchemaBuilder::new("cand")
            .entity("person", |e| {
                e.attr("height", DataType::Real)
                    .attr("gender", DataType::Text)
            })
            .entity("doctor", |e| e.attr("gender", DataType::Text))
            .build_unchecked();
        let matcher = ContextMatcher::new();
        let prepared = crate::score_fresh(&matcher, &terms, &q, &candidate);
        // Empty artifacts on both sides are rebuilt inside `score`.
        let rebuilt = matcher.score(
            &PreparedQuery::default(),
            &terms,
            &q,
            &PreparedSchema::default(),
            &candidate,
        );
        let mut nonzero = 0;
        for (r, term) in terms.iter().enumerate() {
            // Keywords carry no context: their reference row is zero.
            let query_ctx = match (term.fragment, term.element) {
                (Some(f), Some(el)) => matcher.neighbor_terms(&q.fragments()[f], el),
                _ => HashSet::new(),
            };
            for (c, id) in candidate.ids().enumerate() {
                let reference = ContextMatcher::set_similarity(
                    &query_ctx,
                    &matcher.neighbor_terms(&candidate, id),
                );
                assert_eq!(
                    prepared.get(r, c).to_bits(),
                    reference.to_bits(),
                    "cell ({r},{c})"
                );
                assert_eq!(rebuilt.get(r, c).to_bits(), reference.to_bits());
                nonzero += usize::from(reference > 0.0);
            }
        }
        assert!(nonzero > 0, "the fixture must exercise the kernel");
    }

    #[test]
    fn context_distinguishes_same_name_in_different_entities() {
        // "gender" inside patient(height, gender) should context-match the
        // candidate's patient.gender better than its doctor.gender.
        let (q, terms) = fragment_query();
        let candidate = SchemaBuilder::new("cand")
            .entity("patient", |e| {
                e.attr("height", DataType::Real)
                    .attr("gender", DataType::Text)
            })
            .entity("doctor", |e| {
                e.attr("specialty", DataType::Text)
                    .attr("gender", DataType::Text)
            })
            .build_unchecked();
        let m = crate::score_fresh(&ContextMatcher::new(), &terms, &q, &candidate);
        let gender_row = 2; // fragment order: patient, height, gender
                            // Candidate ids: 0 patient, 1 height, 2 gender, 3 doctor, 4 specialty, 5 gender
        assert!(
            m.get(gender_row, 2) > m.get(gender_row, 5),
            "patient.gender {} should out-context doctor.gender {}",
            m.get(gender_row, 2),
            m.get(gender_row, 5)
        );
    }
}
