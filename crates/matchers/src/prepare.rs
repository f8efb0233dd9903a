//! Prepared matching artifacts: the per-search and per-candidate
//! precomputation that makes Phase 2 allocation-free on the hot path.
//!
//! The matcher ensemble scores every (query term × candidate element)
//! pair. Candidate schemas are immutable between repository revisions,
//! so the text analysis behind each pair — name analysis, gram sets,
//! neighborhood sets — is hoisted out of [`crate::Matcher::score`]:
//!
//! * [`PreparedQuery`] — one matcher's query-side artifacts, built once
//!   per search (term gram signatures, per-term analyzed context sets,
//!   exact-token sets),
//! * [`PreparedSchema`] — one matcher's candidate-side artifacts
//!   (per-element name signatures, neighborhood term-id sets), built once
//!   per (schema, revision) and cached by the engine,
//! * [`PreparedCandidate`] — the ensemble-level bundle of one
//!   [`PreparedSchema`] per matcher, the unit the engine's
//!   revision-keyed artifact cache stores.
//!
//! A matcher that reads only the schema itself leaves its artifact
//! structs empty: an empty artifact is a valid artifact, and there is no
//! second scoring path for it to select.

use schemr_model::{QueryGraph, QueryTerm, Schema};
use schemr_text::GramSet;

use crate::Matcher;

/// Query-side artifacts for one matcher, built once per search.
#[derive(Debug, Clone, Default)]
pub struct PreparedQuery {
    /// Per query term, the per-word all-n-gram signatures of the term
    /// text (name matcher).
    pub term_grams: Option<Vec<Vec<GramSet>>>,
    /// Per query term, the analyzed neighborhood term-id set — `None`
    /// for keywords, which carry no context (context matcher).
    pub term_contexts: Option<Vec<Option<GramSet>>>,
    /// Per query term, the exact analyzed-token id set (token matcher).
    pub term_tokens: Option<Vec<GramSet>>,
}

/// Candidate-side artifacts for one matcher, immutable for a given
/// (schema id, repository revision).
#[derive(Debug, Clone, Default)]
pub struct PreparedSchema {
    /// Per element (in [`Schema::ids`] order), the per-word all-n-gram
    /// signatures of the element name (name matcher).
    pub name_grams: Option<Vec<Vec<GramSet>>>,
    /// Per element, the analyzed neighborhood term-id set (context
    /// matcher).
    pub neighborhoods: Option<Vec<GramSet>>,
    /// Per element, the exact analyzed-token id set (token matcher).
    pub tokens: Option<Vec<GramSet>>,
}

impl PreparedSchema {
    /// Approximate heap footprint, for the engine's byte-budgeted
    /// artifact cache.
    pub fn heap_bytes(&self) -> usize {
        let vec_of_sets = |sets: &Vec<GramSet>| -> usize {
            sets.iter().map(GramSet::heap_bytes).sum::<usize>()
                + sets.capacity() * std::mem::size_of::<GramSet>()
        };
        let mut bytes = 0;
        if let Some(per_element) = &self.name_grams {
            bytes += per_element.iter().map(vec_of_sets).sum::<usize>()
                + per_element.capacity() * std::mem::size_of::<Vec<GramSet>>();
        }
        if let Some(sets) = &self.neighborhoods {
            bytes += vec_of_sets(sets);
        }
        if let Some(sets) = &self.tokens {
            bytes += vec_of_sets(sets);
        }
        bytes
    }
}

/// The ensemble-level bundle of prepared candidate artifacts: one
/// [`PreparedSchema`] per matcher, in registration order. This is the
/// value the engine's match-artifact cache stores per (schema id,
/// repository revision).
#[derive(Debug, Clone, Default)]
pub struct PreparedCandidate {
    /// One artifact per matcher, aligned with the ensemble's
    /// registration order.
    pub per_matcher: Vec<PreparedSchema>,
    /// Approximate heap footprint of all artifacts, for cache budgeting.
    pub bytes: usize,
}

impl PreparedCandidate {
    /// Prepare every matcher's artifacts for `schema`.
    pub fn build(matchers: &[&dyn Matcher], schema: &Schema) -> PreparedCandidate {
        let per_matcher: Vec<PreparedSchema> = matchers.iter().map(|m| m.prepare(schema)).collect();
        let bytes = per_matcher
            .iter()
            .map(PreparedSchema::heap_bytes)
            .sum::<usize>()
            + per_matcher.capacity() * std::mem::size_of::<PreparedSchema>()
            + std::mem::size_of::<PreparedCandidate>();
        PreparedCandidate { per_matcher, bytes }
    }
}

/// The ensemble-level bundle of prepared query artifacts: one
/// [`PreparedQuery`] per matcher, built once per search.
#[derive(Debug, Clone, Default)]
pub struct EnsembleQuery {
    /// One artifact per matcher, aligned with the ensemble's
    /// registration order.
    pub per_matcher: Vec<PreparedQuery>,
}

impl EnsembleQuery {
    /// Prepare every matcher's query-side artifacts.
    pub fn build(
        matchers: &[&dyn Matcher],
        terms: &[QueryTerm],
        query: &QueryGraph,
    ) -> EnsembleQuery {
        EnsembleQuery {
            per_matcher: matchers
                .iter()
                .map(|m| m.prepare_query(terms, query))
                .collect(),
        }
    }
}
