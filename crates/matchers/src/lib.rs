//! # schemr-match
//!
//! The fine-grained schema-matching ensemble — Phase 2 of the paper's
//! search algorithm.
//!
//! "The top candidate schemas are evaluated against the query-graph and
//! ranked using an ensemble of fine-grained matchers. … Each matcher
//! produces a similarity matrix between query graph elements and schema
//! elements … the similarity matrices of the different matchers are
//! combined into a single matrix containing total similarity scores. We
//! combine the scores from each matcher with a weighting scheme, which is
//! initially uniform."
//!
//! Provided matchers:
//!
//! * [`NameMatcher`] — the paper's headline matcher: term normalization +
//!   all-n-gram overlap, robust to abbreviations, grammatical variants, and
//!   delimiters,
//! * [`ContextMatcher`] — neighbor-term-set similarity (Rahm & Bernstein's
//!   structural-context family),
//! * [`TokenMatcher`] — exact normalized-token overlap (the baseline the
//!   n-gram matcher is evaluated against in experiment E3),
//! * [`EditDistanceMatcher`] — Levenshtein similarity, a second ensemble
//!   member.
//!
//! Scoring has one path: [`Matcher::score_into`] over the artifacts of
//! [`prepare`] — word ids in the engine's [`schemr_text::Lexicon`], from
//! one analyzer pass per candidate that matchers with equal analyzers
//! share; word-pair similarities memoised in a [`MatchScratch`] — driven
//! per candidate by [`Ensemble::run_into`], which scores every matcher
//! and combines their matrices in buffers the scratch owns and reuses
//! from one candidate to the next. The string-set scalar kernels the
//! prepared kernels are tested against, bit for bit —
//! [`NameMatcher::similarity`], [`TokenMatcher::similarity`], the context
//! matcher's test-only `neighbor_terms` + `set_similarity` — are inherent
//! functions that no trait, ensemble or engine code can select.
//!
//! [`Ensemble`] combines matcher outputs with per-matcher weights;
//! [`learner::WeightLearner`] fits those weights by logistic regression
//! over labeled matches, reproducing the meta-learning approach the paper cites
//! from Madhavan et al. (corpus-based schema matching).

pub mod context;
pub mod edit;
pub mod ensemble;
pub mod learner;
pub mod matrix;
pub mod name;
pub mod prepare;
pub mod token;

pub use context::ContextMatcher;
pub use edit::EditDistanceMatcher;
pub use ensemble::{Ensemble, EnsembleRun};
pub use matrix::SimilarityMatrix;
pub use name::NameMatcher;
pub use prepare::{
    prepare_alone, EnsembleQuery, FlatLists, MatchScratch, PrepareScratch, PreparedCandidate,
    PreparedQuery, PreparedSchema, QueryContexts, QueryWords, ScoreScratch,
};
pub use token::TokenMatcher;

use schemr_model::{QueryGraph, QueryTerm, Schema};
use schemr_text::{Analyzer, WordId};

/// What a matcher's `score_into` panics with when an artifact it reads is
/// absent: the artifact was not built by its own `prepare_query` /
/// `prepare`, which [`Matcher::score_into`] requires.
pub(crate) const NOT_PREPARED_HERE: &str =
    "score_into reads only what this matcher's prepare_query/prepare built";

/// A schema matcher: scores every (query term, candidate element) pair into
/// a [`SimilarityMatrix`] with values in `[0, 1]`.
pub trait Matcher: Send + Sync {
    /// Short identifier used in ensemble reports and learned-weight tables.
    fn name(&self) -> &'static str;

    /// Whether a zero cell from this matcher means "no opinion" rather
    /// than "dissimilar". Sparse, high-precision matchers (the codebook
    /// crate's semantic-type agreement) return true so their silence does
    /// not dilute the dense matchers in the weighted combination.
    fn abstains(&self) -> bool {
        false
    }

    /// The analyzer this matcher reads a candidate's element names
    /// through, when its artifacts are made of the lexicon's word ids —
    /// `None` (the default) for a matcher that reads no analyzed names.
    /// Matchers that name equal analyzers share one pass over each
    /// candidate: the ensemble runs it once and hands every one of them
    /// the same words.
    fn analyzer(&self) -> Option<&Analyzer> {
        None
    }

    /// Precompute this matcher's candidate-side artifacts for `schema`.
    /// `words` holds, per element in [`Schema::ids`] order, the element
    /// name's words as analyzed by [`Matcher::analyzer`] and interned in
    /// the lexicon the candidate will be scored in (no list at all for a
    /// matcher that names no analyzer); the pass that made it is the only
    /// place a lexicon is written. `scratch` holds the buffers a matcher
    /// builds its lists in before it copies them into the artifact at
    /// their exact size — it changes what a call allocates, never what it
    /// returns. Candidate schemas are immutable between repository
    /// revisions, so the engine caches the result per (schema id,
    /// revision, lexicon) and feeds it back through
    /// [`Matcher::score_into`]. The default returns an empty artifact — a
    /// valid artifact for a matcher that reads only the schema itself.
    fn prepare(
        &self,
        schema: &Schema,
        words: &FlatLists<WordId>,
        scratch: &mut PrepareScratch,
    ) -> PreparedSchema {
        let _ = (schema, words, scratch);
        PreparedSchema::default()
    }

    /// Precompute this matcher's query-side artifacts, once per search.
    fn prepare_query(&self, terms: &[QueryTerm], query: &QueryGraph) -> PreparedQuery {
        let _ = (terms, query);
        PreparedQuery::default()
    }

    /// Score `query` against `candidate` into `out`, which this call
    /// resets to `terms.len()` rows and `candidate.len()` columns first:
    /// whatever shape and values `out` held, only its buffer is reused.
    /// Row *i* corresponds to `terms[i]`; column *j* to the candidate's
    /// element with id *j*. `prepared_query` and `prepared` must be what
    /// this matcher's [`Matcher::prepare_query`] and [`Matcher::prepare`]
    /// returned for the same inputs — a matcher reads its own artifact
    /// fields and panics when one is absent — so the matrix depends only on
    /// `terms`, `query` and `candidate`. `scratch` carries the lexicon
    /// `prepared` was built in and whatever this matcher memoised while
    /// scoring earlier candidates against the same query; it changes how
    /// much work a call does, never a bit of its result.
    ///
    /// The one scoring method an implementor writes.
    #[allow(clippy::too_many_arguments)]
    fn score_into(
        &self,
        prepared_query: &PreparedQuery,
        terms: &[QueryTerm],
        query: &QueryGraph,
        prepared: &PreparedSchema,
        candidate: &Schema,
        scratch: &mut ScoreScratch<'_>,
        out: &mut SimilarityMatrix,
    );

    /// [`Matcher::score_into`] a matrix of its own — for a matcher driven
    /// on its own, as tests do; Phase 2 and [`Ensemble::individual`] score
    /// into the matrices of a [`MatchScratch`].
    fn score(
        &self,
        prepared_query: &PreparedQuery,
        terms: &[QueryTerm],
        query: &QueryGraph,
        prepared: &PreparedSchema,
        candidate: &Schema,
        scratch: &mut ScoreScratch<'_>,
    ) -> SimilarityMatrix {
        let mut out = SimilarityMatrix::zeros(0, 0);
        self.score_into(
            prepared_query,
            terms,
            query,
            prepared,
            candidate,
            scratch,
            &mut out,
        );
        out
    }
}

/// Score with artifacts prepared on the spot, in a lexicon and scratch of
/// their own — what the unit tests of the matchers call where the
/// production path goes through [`Ensemble::run_into`].
#[cfg(test)]
pub(crate) fn score_fresh(
    m: &dyn Matcher,
    terms: &[QueryTerm],
    query: &QueryGraph,
    candidate: &Schema,
) -> SimilarityMatrix {
    let lexicon = schemr_text::Lexicon::new();
    m.score(
        &m.prepare_query(terms, query),
        terms,
        query,
        &prepare_alone(m, candidate, &lexicon),
        candidate,
        &mut ScoreScratch::new(&lexicon),
    )
}
