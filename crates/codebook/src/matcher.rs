//! The codebook matcher: an extra ensemble member scoring semantic-type
//! agreement.
//!
//! Name similarity misses pairs like `lat` / `y_coordinate` or `dob` /
//! `born_on`; a shared codebook type catches them. Conversely, a strong
//! name match between a `latitude` and a `longitude` column is suspicious
//! — the codebook scores those down through family partial credit.

use schemr_match::{Matcher, PreparedQuery, PreparedSchema, ScoreScratch, SimilarityMatrix};
use schemr_model::{ElementKind, QueryGraph, QueryTerm, Schema};

use crate::recognize::recognize;
use crate::types::SemanticType;

/// Semantic-type agreement matcher.
#[derive(Debug, Default)]
pub struct CodebookMatcher;

impl CodebookMatcher {
    /// New matcher.
    pub fn new() -> Self {
        CodebookMatcher
    }

    /// Recognize a query term's semantic type. Fragment attributes use
    /// their declared type; keywords use [`schemr_model::DataType::Unknown`].
    fn term_type(term: &QueryTerm, query: &QueryGraph) -> Option<SemanticType> {
        let data_type = match (term.fragment, term.element) {
            (Some(f), Some(e)) => {
                let el = query.fragments()[f].element(e);
                if el.kind != ElementKind::Attribute {
                    return None;
                }
                el.data_type
            }
            _ => schemr_model::DataType::Unknown,
        };
        recognize(&term.text, data_type)
    }
}

impl Matcher for CodebookMatcher {
    fn name(&self) -> &'static str {
        "codebook"
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
        let term_types: Vec<Option<SemanticType>> =
            terms.iter().map(|t| Self::term_type(t, query)).collect();
        if term_types.iter().all(Option::is_none) {
            return;
        }
        for (col, id) in candidate.ids().enumerate() {
            let el = candidate.element(id);
            if el.kind != ElementKind::Attribute {
                continue;
            }
            let Some(cand_type) = recognize(el.name, el.data_type) else {
                continue;
            };
            for (row, term_type) in term_types.iter().enumerate() {
                if let Some(tt) = term_type {
                    let s = tt.similarity(cand_type);
                    if s > 0.0 {
                        out.set(row, col, s);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemr_match::{Ensemble, MatchScratch};
    use schemr_model::{DataType, SchemaBuilder};
    use schemr_text::Lexicon;

    /// The codebook matcher reads no artifacts: empty ones are its own.
    fn score(terms: &[QueryTerm], q: &QueryGraph, candidate: &Schema) -> SimilarityMatrix {
        CodebookMatcher::new().score(
            &PreparedQuery::default(),
            terms,
            q,
            &PreparedSchema::default(),
            candidate,
            &mut ScoreScratch::new(&Lexicon::new()),
        )
    }

    fn keyword_terms(words: &[&str]) -> (QueryGraph, Vec<QueryTerm>) {
        let mut q = QueryGraph::new();
        for w in words {
            q.add_keyword(*w);
        }
        let t = q.terms();
        (q, t)
    }

    #[test]
    fn catches_pairs_name_similarity_misses() {
        // `dob` vs `born`: almost no n-gram overlap, same semantic type.
        let (q, terms) = keyword_terms(&["dob"]);
        let candidate = SchemaBuilder::new("c")
            .entity("person", |e| e.attr("born", DataType::Date))
            .build_unchecked();
        let m = score(&terms, &q, &candidate);
        assert_eq!(m.get(0, 1), 1.0);
        // And the name matcher indeed misses it.
        let nm = schemr_match::NameMatcher::new();
        assert!(nm.similarity("dob", "born") < 0.5);
    }

    /// e9's ensemble, through the production combine path: where the
    /// codebook abstains, a cell is the standard ensemble's; where it
    /// fires, the weighted combination with abstention of every matcher's
    /// own matrix.
    #[test]
    fn abstaining_codebook_goes_through_the_ensemble_combine() {
        fn run(e: &Ensemble, terms: &[QueryTerm], q: &QueryGraph, c: &Schema) -> SimilarityMatrix {
            let lexicon = Lexicon::new();
            let equery = e.prepare_query(terms, q);
            let pcand = e.prepare(c, &lexicon);
            let mut scratch = MatchScratch::new(&equery, &lexicon);
            e.run(terms, q, &pcand, c, &mut scratch, false).matrix
        }
        let (q, terms) = keyword_terms(&["dob"]);
        let candidate = SchemaBuilder::new("c")
            .entity("person", |e| e.attr("born", DataType::Date))
            .build_unchecked();
        let mut with_codebook = Ensemble::standard();
        with_codebook.push(Box::new(CodebookMatcher::new()), 0.25);
        let combined = run(&with_codebook, &terms, &q, &candidate);
        let standard = run(&Ensemble::standard(), &terms, &q, &candidate);

        let mut prepare = schemr_match::PrepareScratch::default();
        let per = with_codebook.individual(&terms, &q, &candidate, &mut prepare);
        let names: Vec<_> = per.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["name", "context", "codebook"]);
        let members: Vec<(&SimilarityMatrix, f64, bool)> = per
            .iter()
            .zip(with_codebook.weights())
            .zip([false, false, true])
            .map(|(((_, m), w), abstains)| (m, w, abstains))
            .collect();
        let reference = SimilarityMatrix::combine_with_abstention(&members);
        let codebook = &per[2].1;

        let (mut silent, mut fired) = (0, 0);
        for r in 0..combined.rows() {
            for c in 0..combined.cols() {
                let expected = if codebook.get(r, c) == 0.0 {
                    silent += 1;
                    standard.get(r, c)
                } else {
                    fired += 1;
                    reference.get(r, c)
                };
                assert_eq!(
                    combined.get(r, c).to_bits(),
                    expected.to_bits(),
                    "cell ({r},{c})"
                );
            }
        }
        assert!(silent > 0 && fired > 0, "silent {silent}, fired {fired}");
    }

    #[test]
    fn family_partial_credit() {
        let (q, terms) = keyword_terms(&["latitude"]);
        let candidate = SchemaBuilder::new("c")
            .entity("site", |e| {
                e.attr("lat", DataType::Real).attr("lon", DataType::Real)
            })
            .build_unchecked();
        let m = score(&terms, &q, &candidate);
        assert_eq!(m.get(0, 1), 1.0); // latitude × lat
        assert_eq!(m.get(0, 2), 0.5); // latitude × lon: same geo family
    }

    #[test]
    fn unrecognized_terms_produce_zero_rows() {
        let (q, terms) = keyword_terms(&["flavor"]);
        let candidate = SchemaBuilder::new("c")
            .entity("site", |e| e.attr("lat", DataType::Real))
            .build_unchecked();
        let m = score(&terms, &q, &candidate);
        assert_eq!(m.row_max(0), 0.0);
    }

    #[test]
    fn fragment_terms_use_declared_types() {
        let mut q = QueryGraph::new();
        q.add_fragment(
            SchemaBuilder::new("f")
                .entity("order", |e| e.attr("total", DataType::Decimal))
                .build_unchecked(),
        );
        let terms = q.terms();
        let candidate = SchemaBuilder::new("c")
            .entity("invoice", |e| e.attr("amount", DataType::Decimal))
            .build_unchecked();
        let m = score(&terms, &q, &candidate);
        // total(Decimal) and amount(Decimal) both recognize as Currency.
        assert_eq!(m.get(1, 1), 1.0);
        // Entity rows are zero.
        assert_eq!(m.row_max(0), 0.0);
    }
}
