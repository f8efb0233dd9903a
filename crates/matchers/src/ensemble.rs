//! The matcher ensemble: weighted combination of similarity matrices.
//!
//! "For every candidate schema, the similarity matrices of the different
//! matchers are combined into a single matrix containing total similarity
//! scores. We combine the scores from each matcher with a weighting scheme,
//! which is initially uniform."

use std::time::{Duration, Instant};

use schemr_model::{QueryGraph, QueryTerm, Schema};
use schemr_text::Lexicon;

use crate::context::ContextMatcher;
use crate::matrix::SimilarityMatrix;
use crate::name::NameMatcher;
use crate::prepare::{
    EnsembleQuery, FlatLists, MatchScratch, PrepareScratch, PreparedCandidate, ScoreScratch,
};
use crate::Matcher;

/// A weighted set of matchers producing one combined similarity matrix per
/// candidate.
pub struct Ensemble {
    matchers: Vec<(Box<dyn Matcher>, f64)>,
    /// One entry per distinct [`Matcher::analyzer`] among the matchers:
    /// the index of the first matcher that names it. A candidate's
    /// element names are analyzed once per entry.
    passes: Vec<usize>,
    /// Per matcher, the entry of `passes` whose words it prepares from;
    /// `None` for a matcher that names no analyzer.
    pass_of: Vec<Option<usize>>,
}

/// The output of one ensemble pass over a candidate, owned
/// ([`Ensemble::run`]).
pub struct EnsembleRun {
    /// The weighted combined similarity matrix.
    pub matrix: SimilarityMatrix,
    /// Per-matcher wall time, in registration order.
    pub timings: Vec<Duration>,
    /// Per-matcher strength ([`SimilarityMatrix::mean_row_max`] of each
    /// matcher's individual matrix), in registration order. Empty unless
    /// requested — computing it costs one extra matrix scan per matcher,
    /// so callers without an event log skip it.
    pub strengths: Vec<f64>,
}

impl Ensemble {
    /// An empty ensemble. Add matchers with [`Ensemble::push`].
    pub fn empty() -> Self {
        Ensemble {
            matchers: Vec::new(),
            passes: Vec::new(),
            pass_of: Vec::new(),
        }
    }

    /// The paper's default ensemble: name + context matchers, uniform
    /// weights.
    pub fn standard() -> Self {
        let mut e = Ensemble::empty();
        e.push(Box::new(NameMatcher::new()), 1.0);
        e.push(Box::new(ContextMatcher::new()), 1.0);
        e
    }

    /// Add a matcher with a weight (negative weights are treated as zero at
    /// combination time).
    /// A matcher whose [`Matcher::analyzer`] equals that of a matcher
    /// already registered joins its pass; analyzers are compared here,
    /// once, never per candidate.
    pub fn push(&mut self, matcher: Box<dyn Matcher>, weight: f64) {
        let pass = matcher.analyzer().map(|analyzer| {
            let shared = self
                .passes
                .iter()
                .position(|&first| self.matchers[first].0.analyzer() == Some(analyzer));
            shared.unwrap_or_else(|| {
                self.passes.push(self.matchers.len());
                self.passes.len() - 1
            })
        });
        self.pass_of.push(pass);
        self.matchers.push((matcher, weight));
    }

    /// How many times [`Ensemble::prepare`] analyzes a candidate's
    /// element names: once per distinct analyzer among the matchers.
    pub fn analyzer_passes(&self) -> usize {
        self.passes.len()
    }

    /// Number of matchers.
    pub fn len(&self) -> usize {
        self.matchers.len()
    }

    /// True when no matchers are registered.
    pub fn is_empty(&self) -> bool {
        self.matchers.is_empty()
    }

    /// Matcher names in registration order.
    pub fn matcher_names(&self) -> Vec<&'static str> {
        self.matchers.iter().map(|(m, _)| m.name()).collect()
    }

    /// Current weights in registration order.
    pub fn weights(&self) -> Vec<f64> {
        self.matchers.iter().map(|(_, w)| *w).collect()
    }

    /// Replace the weights (e.g. with learned ones).
    ///
    /// # Panics
    /// Panics if `weights.len()` differs from the matcher count.
    pub fn set_weights(&mut self, weights: &[f64]) {
        assert_eq!(weights.len(), self.matchers.len(), "one weight per matcher");
        for ((_, w), &nw) in self.matchers.iter_mut().zip(weights) {
            *w = nw;
        }
    }

    /// Build the query-side prepared artifacts for every matcher, once
    /// per search.
    pub fn prepare_query(&self, terms: &[QueryTerm], query: &QueryGraph) -> EnsembleQuery {
        let refs: Vec<&dyn Matcher> = self.matchers.iter().map(|(m, _)| m.as_ref()).collect();
        EnsembleQuery::build(&refs, terms, query)
    }

    /// Build the candidate-side prepared artifacts for every matcher,
    /// interning the candidate's words in `lexicon`. The engine caches
    /// the result per (schema id, repository revision, lexicon).
    ///
    /// [`Ensemble::prepare_into`] on fresh buffers.
    pub fn prepare(&self, schema: &Schema, lexicon: &Lexicon) -> PreparedCandidate {
        self.prepare_into(schema, lexicon, &mut PrepareScratch::default())
    }

    /// [`Ensemble::prepare`] working in `scratch`'s buffers: the element
    /// names are analyzed once per distinct analyzer, not once per
    /// matcher, into the scratch, and each pass's words go to every
    /// matcher that shares it; each matcher writes its lists into the
    /// bundle once, at their exact size. A scratch that has prepared a
    /// candidate before allocates nothing more than the bundle (and the
    /// lexicon, for a word it has never met); the bundle is the same
    /// whatever the scratch held.
    pub fn prepare_into(
        &self,
        schema: &Schema,
        lexicon: &Lexicon,
        scratch: &mut PrepareScratch,
    ) -> PreparedCandidate {
        // The passes' words leave the scratch while the matchers read
        // them, so each matcher can be handed the rest of it as `&mut`;
        // they go back, buffers and all, at the end.
        let mut words = std::mem::take(&mut scratch.passes);
        words.resize_with(self.passes.len(), FlatLists::default);
        for (&first, words) in self.passes.iter().zip(&mut words) {
            let analyzer = self.matchers[first].0.analyzer();
            scratch.element_words(
                analyzer.expect("a pass has an analyzer"),
                schema,
                lexicon,
                words,
            );
        }
        let no_words = FlatLists::default();
        let mut per_matcher = Vec::with_capacity(self.matchers.len());
        for ((m, _), pass) in self.matchers.iter().zip(&self.pass_of) {
            per_matcher.push(m.prepare(schema, pass.map_or(&no_words, |p| &words[p]), scratch));
        }
        scratch.passes = words;
        PreparedCandidate::new(per_matcher)
    }

    /// Score every matcher into its matrix of `scratch`, adding each
    /// one's wall time to `wall` (registration order).
    fn score_each(
        &self,
        terms: &[QueryTerm],
        query: &QueryGraph,
        pcand: &PreparedCandidate,
        candidate: &Schema,
        scratch: &mut MatchScratch<'_>,
        wall: &mut [Duration],
    ) {
        let lexicon = scratch.lexicon;
        scratch
            .per_matcher
            .resize_with(self.matchers.len(), || ScoreScratch::new(lexicon));
        scratch
            .matrices
            .resize_with(self.matchers.len(), || SimilarityMatrix::zeros(0, 0));
        for ((((m, _), (pq, ps)), (own, matrix)), wall) in self
            .matchers
            .iter()
            .zip(scratch.equery.per_matcher.iter().zip(&pcand.per_matcher))
            .zip(scratch.per_matcher.iter_mut().zip(&mut scratch.matrices))
            .zip(wall)
        {
            let start = Instant::now();
            m.score_into(pq, terms, query, ps, candidate, own, matrix);
            *wall += start.elapsed();
        }
    }

    /// The ensemble pass over one candidate: run every matcher on its
    /// prepared artifacts and combine the matrices with the current
    /// weights, all in `scratch`'s buffers; returns the combined matrix.
    /// Matchers whose [`Matcher::abstains`] is true only participate in
    /// cells where they produced a nonzero score. Adds each matcher's
    /// wall time to `wall` (registration order, one slot per matcher),
    /// and when `strengths` is given pushes each matcher's
    /// [`SimilarityMatrix::mean_row_max`] strength onto it for the event
    /// log — a run of candidates fills one flat list, candidate by
    /// candidate.
    ///
    /// `scratch` names the query artifacts and the lexicon, and keeps the
    /// matchers' memos and the matrices from one candidate to the next.
    /// Both bundles are this ensemble's own: the scratch's query
    /// artifacts are what [`Ensemble::prepare_query`] built for
    /// (`terms`, `query`), and `pcand` is what [`Ensemble::prepare`]
    /// built for `candidate` in the scratch's lexicon. One scratch serves
    /// one (`terms`, `query`): the memos are keyed by its words.
    ///
    /// # Panics
    /// Panics if `wall` or either bundle does not hold one entry per
    /// matcher.
    #[allow(clippy::too_many_arguments)]
    pub fn run_into<'s>(
        &self,
        terms: &[QueryTerm],
        query: &QueryGraph,
        pcand: &PreparedCandidate,
        candidate: &Schema,
        scratch: &'s mut MatchScratch<'_>,
        wall: &mut [Duration],
        strengths: Option<&mut Vec<f64>>,
    ) -> &'s SimilarityMatrix {
        assert_eq!(wall.len(), self.matchers.len(), "one wall slot per matcher");
        assert_eq!(
            scratch.equery.per_matcher.len(),
            self.matchers.len(),
            "query artifacts prepared by this ensemble: one per matcher"
        );
        assert_eq!(
            pcand.per_matcher.len(),
            self.matchers.len(),
            "candidate artifacts prepared by this ensemble: one per matcher"
        );
        self.score_each(terms, query, pcand, candidate, scratch, wall);
        if let Some(strengths) = strengths {
            strengths.extend(scratch.matrices.iter().map(SimilarityMatrix::mean_row_max));
        }
        if self.matchers.is_empty() {
            scratch.combined.reset(terms.len(), candidate.len());
        } else {
            scratch.members.clear();
            scratch
                .members
                .extend(self.matchers.iter().map(|(m, w)| (*w, m.abstains())));
            let members = scratch
                .matrices
                .iter()
                .zip(&scratch.members)
                .map(|(matrix, &(w, abstains))| (matrix, w, abstains));
            scratch.combined.combine_into(members);
        }
        &scratch.combined
    }

    /// [`Ensemble::run_into`] returning what it wrote as owned values: the
    /// combined matrix, this candidate's per-matcher wall times, and its
    /// strengths when `with_strengths`.
    pub fn run(
        &self,
        terms: &[QueryTerm],
        query: &QueryGraph,
        pcand: &PreparedCandidate,
        candidate: &Schema,
        scratch: &mut MatchScratch<'_>,
        with_strengths: bool,
    ) -> EnsembleRun {
        let mut timings = vec![Duration::ZERO; self.matchers.len()];
        let mut strengths = Vec::new();
        let matrix = self
            .run_into(
                terms,
                query,
                pcand,
                candidate,
                scratch,
                &mut timings,
                with_strengths.then_some(&mut strengths),
            )
            .clone();
        EnsembleRun {
            matrix,
            timings,
            strengths,
        }
    }

    /// Run every matcher, on artifacts prepared here in a lexicon of
    /// their own, and return the individual matrices (the learner's
    /// feature extraction path): [`Ensemble::run_into`]'s per-matcher
    /// matrices, named.
    pub fn individual(
        &self,
        terms: &[QueryTerm],
        query: &QueryGraph,
        candidate: &Schema,
    ) -> Vec<(&'static str, SimilarityMatrix)> {
        let lexicon = Lexicon::new();
        let equery = self.prepare_query(terms, query);
        let pcand = self.prepare(candidate, &lexicon);
        let mut scratch = MatchScratch::new(&equery, &lexicon);
        let mut wall = vec![Duration::ZERO; self.matchers.len()];
        self.run_into(
            terms,
            query,
            &pcand,
            candidate,
            &mut scratch,
            &mut wall,
            None,
        );
        self.matcher_names()
            .into_iter()
            .zip(scratch.matrices)
            .collect()
    }
}

impl Default for Ensemble {
    fn default() -> Self {
        Self::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edit::EditDistanceMatcher;
    use crate::token::TokenMatcher;
    use schemr_model::{DataType, SchemaBuilder};

    fn query_and_candidate() -> (QueryGraph, Vec<QueryTerm>, Schema) {
        let mut q = QueryGraph::new();
        q.add_fragment(
            SchemaBuilder::new("f")
                .entity("patient", |e| {
                    e.attr("height", DataType::Real)
                        .attr("gender", DataType::Text)
                })
                .build_unchecked(),
        );
        let terms = q.terms();
        let candidate = SchemaBuilder::new("c")
            .entity("patient", |e| {
                e.attr("height", DataType::Real)
                    .attr("gender", DataType::Text)
            })
            .build_unchecked();
        (q, terms, candidate)
    }

    /// One pass on artifacts prepared on the spot.
    fn run_fresh(
        e: &Ensemble,
        terms: &[QueryTerm],
        q: &QueryGraph,
        candidate: &Schema,
        with_strengths: bool,
    ) -> EnsembleRun {
        let lexicon = Lexicon::new();
        e.run(
            terms,
            q,
            &e.prepare(candidate, &lexicon),
            candidate,
            &mut MatchScratch::new(&e.prepare_query(terms, q), &lexicon),
            with_strengths,
        )
    }

    fn assert_same_bits(a: &SimilarityMatrix, b: &SimilarityMatrix) {
        assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()));
        for r in 0..a.rows() {
            for c in 0..a.cols() {
                assert_eq!(
                    a.get(r, c).to_bits(),
                    b.get(r, c).to_bits(),
                    "cell ({r},{c})"
                );
            }
        }
    }

    #[test]
    fn standard_has_name_and_context() {
        let e = Ensemble::standard();
        assert_eq!(e.matcher_names(), ["name", "context"]);
        assert_eq!(e.weights(), [1.0, 1.0]);
        assert!(!e.is_empty());
    }

    #[test]
    fn combined_matrix_blends_matchers() {
        let (q, terms, candidate) = query_and_candidate();
        let e = Ensemble::standard();
        let m = run_fresh(&e, &terms, &q, &candidate, false).matrix;
        assert_eq!((m.rows(), m.cols()), (terms.len(), candidate.len()));
        // Perfect name + strong context → high combined diagonal.
        assert!(m.get(1, 1) > 0.7, "height×height = {}", m.get(1, 1));
    }

    #[test]
    fn weights_shift_the_blend() {
        let (q, terms, candidate) = query_and_candidate();
        let mut name_only = Ensemble::empty();
        name_only.push(Box::new(NameMatcher::new()), 1.0);
        name_only.push(Box::new(ContextMatcher::new()), 0.0);
        let m_name = run_fresh(&name_only, &terms, &q, &candidate, false).matrix;

        let mut ctx_heavy = Ensemble::empty();
        ctx_heavy.push(Box::new(NameMatcher::new()), 0.0);
        ctx_heavy.push(Box::new(ContextMatcher::new()), 1.0);
        let m_ctx = run_fresh(&ctx_heavy, &terms, &q, &candidate, false).matrix;

        // Query "height" (row 1) vs candidate "gender" (col 2): the names
        // differ (low name score) but the neighborhoods are identical
        // ({patient, height} vs {patient, height}) — so the context-heavy
        // blend scores this cell far higher than the name-only blend.
        assert!(
            m_ctx.get(1, 2) > m_name.get(1, 2) + 0.3,
            "ctx {} vs name {}",
            m_ctx.get(1, 2),
            m_name.get(1, 2)
        );
        // And on the diagonal the name-only blend is exact.
        assert!((m_name.get(1, 1) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn set_weights_replaces_in_order() {
        let mut e = Ensemble::standard();
        e.set_weights(&[0.7, 0.3]);
        assert_eq!(e.weights(), [0.7, 0.3]);
    }

    #[test]
    #[should_panic(expected = "one weight per matcher")]
    fn set_weights_length_mismatch_panics() {
        Ensemble::standard().set_weights(&[1.0]);
    }

    fn four_matcher_ensemble() -> Ensemble {
        // Two matchers with artifacts of their own beside the standard
        // pair's, and one (edit) that reads none.
        let mut e = Ensemble::standard();
        e.push(Box::new(TokenMatcher::new()), 0.5);
        e.push(Box::new(EditDistanceMatcher::new()), 0.25);
        e
    }

    #[test]
    fn individual_returns_one_matrix_per_matcher() {
        let (q, terms, candidate) = query_and_candidate();
        let e = four_matcher_ensemble();
        let per = e.individual(&terms, &q, &candidate);
        let names: Vec<_> = per.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["name", "context", "token", "edit"]);
        // `run` combines exactly these matrices.
        let refs: Vec<(&SimilarityMatrix, f64, bool)> = per
            .iter()
            .zip(e.weights())
            .map(|((_, m), w)| (m, w, false))
            .collect();
        assert_same_bits(
            &run_fresh(&e, &terms, &q, &candidate, false).matrix,
            &SimilarityMatrix::combine_with_abstention(&refs),
        );
    }

    #[test]
    fn run_times_every_matcher_and_collects_strengths_only_on_request() {
        let (q, terms, candidate) = query_and_candidate();
        let e = four_matcher_ensemble();
        let pcand = e.prepare(&candidate, &Lexicon::new());
        assert_eq!(pcand.per_matcher.len(), e.len());
        assert!(pcand.bytes > 0, "prepared artifacts report a footprint");
        let bare = run_fresh(&e, &terms, &q, &candidate, false);
        assert_eq!(bare.timings.len(), e.len());
        assert!(bare.strengths.is_empty());
        let full = run_fresh(&e, &terms, &q, &candidate, true);
        assert_eq!(full.strengths.len(), e.len());
        // Identical query and candidate → the name matcher's rows all max
        // at 1.0.
        assert!(
            full.strengths[0] > 0.99,
            "name strength {}",
            full.strengths[0]
        );
        assert!(full.strengths.iter().all(|s| (0.0..=1.0).contains(s)));
        // The combined matrix is unaffected by strength collection.
        assert_same_bits(&bare.matrix, &full.matrix);
    }

    #[test]
    #[should_panic(expected = "candidate artifacts prepared by this ensemble")]
    fn run_refuses_a_bundle_another_matcher_set_prepared() {
        let (q, terms, candidate) = query_and_candidate();
        let e = four_matcher_ensemble();
        let lexicon = Lexicon::new();
        // What the two-matcher standard set prepares: not this
        // ensemble's bundle, so it is never zipped positionally.
        let foreign = Ensemble::standard().prepare(&candidate, &lexicon);
        let equery = e.prepare_query(&terms, &q);
        let mut scratch = MatchScratch::new(&equery, &lexicon);
        let mut wall = vec![Duration::ZERO; e.len()];
        e.run_into(
            &terms,
            &q,
            &foreign,
            &candidate,
            &mut scratch,
            &mut wall,
            None,
        );
    }

    #[test]
    fn empty_ensemble_yields_zero_matrix() {
        let (q, terms, candidate) = query_and_candidate();
        let e = Ensemble::empty();
        let m = run_fresh(&e, &terms, &q, &candidate, false).matrix;
        assert_eq!((m.rows(), m.cols()), (terms.len(), candidate.len()));
        assert_eq!(m.element_scores().iter().sum::<f64>(), 0.0);
    }
}
