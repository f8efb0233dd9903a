//! Data-type compatibility matcher.
//!
//! When the query is a schema fragment (so its elements carry declared
//! types), type compatibility is a cheap extra signal for the ensemble: a
//! query column `height REAL` matching a candidate `height` is more
//! credible when the candidate's column is also numeric.

use schemr_model::{DataType, ElementKind, QueryGraph, QueryTerm, Schema};

use crate::matrix::SimilarityMatrix;
use crate::prepare::{PreparedQuery, PreparedSchema, ScoreScratch};
use crate::Matcher;

/// Compatibility of two data types, in `[0, 1]`.
pub fn type_compatibility(a: DataType, b: DataType) -> f64 {
    use DataType::*;
    if a == b {
        return match a {
            Unknown => 0.3, // both unknown says little
            _ => 1.0,
        };
    }
    match (a, b) {
        // Numeric family.
        (Integer, Real) | (Real, Integer) => 0.8,
        (Integer, Decimal) | (Decimal, Integer) => 0.8,
        (Real, Decimal) | (Decimal, Real) => 0.9,
        // Temporal family.
        (Date, DateTime) | (DateTime, Date) => 0.8,
        (Time, DateTime) | (DateTime, Time) => 0.7,
        (Date, Time) | (Time, Date) => 0.4,
        // Booleans are often encoded as small integers.
        (Boolean, Integer) | (Integer, Boolean) => 0.5,
        // Text can encode anything, weakly.
        (Text, _) | (_, Text) => 0.4,
        // Unknown is mildly compatible with everything.
        (Unknown, _) | (_, Unknown) => 0.3,
        _ => 0.1,
    }
}

/// The data-type matcher. Scores only (attribute term × attribute element)
/// pairs; entities and keywords get zero rows/columns.
#[derive(Debug, Default)]
pub struct TypeMatcher;

impl TypeMatcher {
    /// New matcher.
    pub fn new() -> Self {
        TypeMatcher
    }
}

impl Matcher for TypeMatcher {
    fn name(&self) -> &'static str {
        "type"
    }

    fn abstains(&self) -> bool {
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
        for (row, term) in terms.iter().enumerate() {
            let (Some(frag_ix), Some(el)) = (term.fragment, term.element) else {
                continue;
            };
            let q_el = query.fragments()[frag_ix].element(el);
            if q_el.kind != ElementKind::Attribute {
                continue;
            }
            for (col, id) in candidate.ids().enumerate() {
                let c_el = candidate.element(id);
                if c_el.kind != ElementKind::Attribute {
                    continue;
                }
                let s = type_compatibility(q_el.data_type, c_el.data_type);
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
    use schemr_model::SchemaBuilder;

    #[test]
    fn identical_concrete_types_are_fully_compatible() {
        assert_eq!(
            type_compatibility(DataType::Integer, DataType::Integer),
            1.0
        );
        assert_eq!(type_compatibility(DataType::Date, DataType::Date), 1.0);
    }

    #[test]
    fn compatibility_is_symmetric() {
        for a in DataType::ALL {
            for b in DataType::ALL {
                assert_eq!(
                    type_compatibility(a, b),
                    type_compatibility(b, a),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn family_relationships_beat_cross_family() {
        assert!(
            type_compatibility(DataType::Integer, DataType::Real)
                > type_compatibility(DataType::Integer, DataType::Date)
        );
        assert!(
            type_compatibility(DataType::Date, DataType::DateTime)
                > type_compatibility(DataType::Boolean, DataType::Binary)
        );
    }

    #[test]
    fn all_values_are_in_unit_interval() {
        for a in DataType::ALL {
            for b in DataType::ALL {
                let v = type_compatibility(a, b);
                assert!((0.0..=1.0).contains(&v), "{a} vs {b} = {v}");
            }
        }
    }

    #[test]
    fn matcher_only_scores_attribute_pairs() {
        let mut q = QueryGraph::new();
        q.add_fragment(
            SchemaBuilder::new("f")
                .entity("patient", |e| e.attr("height", DataType::Real))
                .build_unchecked(),
        );
        q.add_keyword("diagnosis");
        let terms = q.terms();
        let candidate = SchemaBuilder::new("c")
            .entity("person", |e| e.attr("stature", DataType::Real))
            .build_unchecked();
        let m = crate::score_fresh(&TypeMatcher::new(), &terms, &q, &candidate);
        // Row 0 = entity "patient": zero. Row 2 = keyword: zero.
        assert_eq!(m.row_max(0), 0.0);
        assert_eq!(m.row_max(2), 0.0);
        // Row 1 = height(REAL) vs col 1 = stature(REAL): 1.0; col 0 is the
        // entity: zero.
        assert_eq!(m.get(1, 0), 0.0);
        assert_eq!(m.get(1, 1), 1.0);
    }
}
