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

#[cfg(test)]
use schemr_model::ElementId;
use schemr_model::{QueryGraph, QueryTerm, Schema};
use schemr_text::gramset::scalar_merge;
use schemr_text::{AnalyzeScratch, Analyzer, WordId};

use crate::matrix::SimilarityMatrix;
use crate::prepare::{FlatLists, PreparedQuery, PreparedSchema, ScoreScratch};
use crate::{Matcher, NOT_PREPARED_HERE};

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
            names.push(schema.element(p).name);
            for sib in schema.children(p) {
                if sib != id {
                    names.push(schema.element(sib).name);
                }
            }
        }
        for child in schema.children(id) {
            names.push(schema.element(child).name);
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

    /// Per query term, the distinct analyzed words of its neighborhood in
    /// its fragment, as strings: the query side is never interned. Each
    /// fragment's names are analyzed once, whatever the number of terms
    /// that point into it.
    fn query_contexts(&self, terms: &[QueryTerm], query: &QueryGraph) -> Vec<Option<Vec<String>>> {
        let mut per_fragment: Vec<Option<FlatLists<String>>> = vec![None; query.fragments().len()];
        terms
            .iter()
            .map(|t| match (t.fragment, t.element) {
                (Some(frag_ix), Some(el)) => {
                    let fragment = &query.fragments()[frag_ix];
                    let sets = per_fragment[frag_ix].get_or_insert_with(|| {
                        let mut words = FlatLists::with_capacity(fragment.len());
                        let mut scratch = AnalyzeScratch::default();
                        for id in fragment.ids() {
                            let name = &fragment.element(id).name;
                            self.analyzer.analyze_with(name, &mut scratch, |w| {
                                words.push_item(w.to_string())
                            });
                            words.end_list();
                        }
                        neighborhoods(fragment, &words)
                    });
                    let words = sets.get(el.index());
                    (!words.is_empty()).then(|| words.to_vec())
                }
                _ => None, // keywords have no context
            })
            .collect()
    }
}

/// Every element's neighborhood as a sorted distinct word set, from the
/// words of each element name (`words.get(i)` for element *i*): the union
/// of its parent's, its siblings' and its children's words — the
/// element's own name is excluded, the name matcher covers it. One pass
/// buckets the elements by parent, so no name is analyzed, and no child
/// list scanned for, more than once.
fn neighborhoods<T: Ord + Clone>(schema: &Schema, words: &FlatLists<T>) -> FlatLists<T> {
    let n = schema.len();
    // Counting sort of the elements by parent: `kids[starts[p]..starts[p + 1]]`
    // are p's children, in id order.
    let mut starts = vec![0usize; n + 1];
    for el in schema.elements() {
        if let Some(p) = el.parent {
            starts[p.index() + 1] += 1;
        }
    }
    for p in 0..n {
        starts[p + 1] += starts[p];
    }
    let mut kids = vec![0usize; starts[n]];
    let mut next = starts.clone();
    for (i, el) in schema.elements().enumerate() {
        if let Some(p) = el.parent {
            kids[next[p.index()]] = i;
            next[p.index()] += 1;
        }
    }
    let children = |p: usize| &kids[starts[p]..starts[p + 1]];

    let mut sets = FlatLists::with_capacity(n);
    let mut set: Vec<T> = Vec::new();
    for (i, el) in schema.elements().enumerate() {
        set.clear();
        if let Some(p) = el.parent {
            set.extend_from_slice(words.get(p.index()));
            for &sibling in children(p.index()) {
                if sibling != i {
                    set.extend_from_slice(words.get(sibling));
                }
            }
        }
        for &child in children(i) {
            set.extend_from_slice(words.get(child));
        }
        set.sort_unstable();
        set.dedup();
        sets.push(set.iter().cloned());
    }
    sets.shrink_to_fit();
    sets
}

impl Matcher for ContextMatcher {
    fn name(&self) -> &'static str {
        "context"
    }

    fn analyzer(&self) -> Option<&Analyzer> {
        Some(&self.analyzer)
    }

    fn prepare(&self, schema: &Schema, words: &FlatLists<WordId>) -> PreparedSchema {
        PreparedSchema {
            neighborhoods: Some(neighborhoods(schema, words)),
            ..PreparedSchema::default()
        }
    }

    fn prepare_query(&self, terms: &[QueryTerm], query: &QueryGraph) -> PreparedQuery {
        PreparedQuery {
            term_contexts: Some(self.query_contexts(terms, query)),
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
        out.reset(terms.len(), candidate.len());
        // Keyword-only queries produce an all-zero matrix; return before
        // any artifact is read.
        if Self::no_fragment_terms(terms) {
            return;
        }
        let term_contexts = prepared_query
            .term_contexts
            .as_ref()
            .expect(NOT_PREPARED_HERE);
        let cand_ctx = prepared.neighborhoods.as_ref().expect(NOT_PREPARED_HERE);
        // The query's neighborhood words as ids, looked up — never
        // interned — in the candidates' lexicon. A word the lexicon does
        // not know is in no candidate neighborhood prepared so far; it
        // may be interned later, so the ids are resolved again whenever
        // the lexicon has grown.
        let lexicon = scratch.lexicon().read();
        if scratch.contexts_resolved_at != Some(lexicon.len()) {
            scratch.contexts = term_contexts
                .iter()
                .map(|ctx| {
                    let mut ids: Vec<WordId> = ctx
                        .iter()
                        .flatten()
                        .filter_map(|w| lexicon.lookup(w))
                        .collect();
                    ids.sort_unstable();
                    ids
                })
                .collect();
            scratch.contexts_resolved_at = Some(lexicon.len());
        }
        drop(lexicon);
        for (row, query_ctx) in term_contexts.iter().enumerate() {
            let Some(query_ctx) = query_ctx else {
                continue; // keyword or empty neighborhood
            };
            let query_ids = &scratch.contexts[row];
            for (col, ctx) in cand_ctx.iter().enumerate() {
                // Dice over word ids, arithmetic-identical to the
                // reference `set_similarity`: equal ids are equal words,
                // and an unresolved query word counts toward the set size
                // but can intersect nothing.
                let inter = scalar_merge(query_ids, ctx);
                if inter > 0 {
                    out.set(
                        row,
                        col,
                        2.0 * inter as f64 / (query_ctx.len() + ctx.len()) as f64,
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prepare_alone;
    use schemr_model::{DataType, SchemaBuilder};
    use schemr_text::Lexicon;

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
        // matrix by construction, so `score` returns before it reads a
        // single neighborhood — empty artifacts included.
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
            &mut ScoreScratch::new(&Lexicon::new()),
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
                nonzero += usize::from(reference > 0.0);
            }
        }
        assert!(nonzero > 0, "the fixture must exercise the kernel");
    }

    /// A schema whose element *i* hangs under `parents[i]` when that is
    /// an earlier element and is a root otherwise — nesting of any depth.
    fn nested_schema(name: &str, names: &[String], parents: &[usize]) -> Schema {
        use schemr_model::Element;
        let mut schema = Schema::new(name);
        for (i, (element, &parent)) in names.iter().zip(parents).enumerate() {
            if parent < i {
                schema.add_child(ElementId(parent as u32), Element::group(element.clone()));
            } else {
                schema.add_root(Element::entity(element.clone()));
            }
        }
        schema
    }

    fn depth_of(schema: &Schema) -> usize {
        schema.ids().map(|id| schema.depth(id)).max().unwrap_or(0)
    }

    proptest::proptest! {
        /// On generated schemas nested three levels and deeper — names
        /// drawn from a small pool so neighborhoods overlap, repeat words
        /// and sometimes analyze to nothing — every cell of the matrix
        /// over word ids equals the string-set reference bit for bit,
        /// whether the lexicon is new, already holds other words, or
        /// learns the candidate's words only after the query's ids were
        /// first resolved.
        #[test]
        fn matrix_equals_the_string_set_reference_on_nested_schemas(
            names in proptest::collection::vec(
                proptest::sample::select(vec![
                    "patient", "patient_height", "height", "ht", "gender", "sex", "id",
                    "visit_date", "date", "διάγνωση", "größe_cm", "", "__", "patient id",
                ]),
                9..14,
            ),
            picks in proptest::collection::vec(0usize..64, 28),
            split in 3usize..6,
        ) {
            let names: Vec<String> = names.into_iter().map(str::to_string).collect();
            // Element i picks a parent among the elements before it, or
            // (pick == i) becomes a root; the first three form a chain so
            // every schema has three levels.
            let parents = |offset: usize, len: usize| -> Vec<usize> {
                (0..len)
                    .map(|i| if i < 3 { i.wrapping_sub(1).min(i) } else { picks[offset + i] % (i + 1) })
                    .collect()
            };
            let (frag_names, cand_names) = names.split_at(split);
            let fragment = nested_schema("frag", frag_names, &parents(0, frag_names.len()));
            let candidate = nested_schema("cand", cand_names, &parents(14, cand_names.len()));
            proptest::prop_assert!(depth_of(&fragment) >= 2 && depth_of(&candidate) >= 2);
            let mut q = QueryGraph::new();
            q.add_fragment(fragment);
            q.add_keyword("gender");
            let terms = q.terms();
            let matcher = ContextMatcher::new();
            let pq = matcher.prepare_query(&terms, &q);

            let fresh = Lexicon::new();
            let seeded = Lexicon::new();
            for w in ["zebra", "height", "quux"] {
                seeded.intern(w);
            }
            // `late`: the scratch first scores an unrelated schema, so the
            // query's ids are resolved before the candidate's words exist.
            let late = Lexicon::new();
            let mut late_scratch = ScoreScratch::new(&late);
            let other = nested_schema("other", &["zebra".to_string()], &[0]);
            matcher.score(&pq, &terms, &q, &prepare_alone(&matcher, &other, &late), &other, &mut late_scratch);
            let matrices = [
                matcher.score(&pq, &terms, &q, &prepare_alone(&matcher, &candidate, &fresh), &candidate, &mut ScoreScratch::new(&fresh)),
                matcher.score(&pq, &terms, &q, &prepare_alone(&matcher, &candidate, &seeded), &candidate, &mut ScoreScratch::new(&seeded)),
                matcher.score(&pq, &terms, &q, &prepare_alone(&matcher, &candidate, &late), &candidate, &mut late_scratch),
            ];
            for (r, term) in terms.iter().enumerate() {
                let query_ctx = match (term.fragment, term.element) {
                    (Some(f), Some(el)) => matcher.neighbor_terms(&q.fragments()[f], el),
                    _ => HashSet::new(),
                };
                for (c, id) in candidate.ids().enumerate() {
                    let reference = ContextMatcher::set_similarity(
                        &query_ctx,
                        &matcher.neighbor_terms(&candidate, id),
                    );
                    for m in &matrices {
                        proptest::prop_assert_eq!(m.get(r, c).to_bits(), reference.to_bits(), "cell ({},{})", r, c);
                    }
                }
            }
        }
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
