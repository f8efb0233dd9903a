//! The atomically published, fully immutable view of the index.
//!
//! Every batch of mutations builds a fresh [`IndexSnapshot`] and publishes
//! it with a single `Arc` swap. A search clones the `Arc` once and then
//! runs with no lock held at all: the segments, their overlays, and the
//! epoch were frozen together, so the result set and the epoch are
//! consistent by construction — the property the revision-keyed candidate
//! cache needs, and the one the old "revision read under the search's own
//! lock" comment provided.
//!
//! `epoch` counts *logical mutations* (adds and tombstones). Background
//! merges publish new physical layouts **without** bumping it:
//! a merge changes where postings live, never what a query returns
//! (bitwise — see the segmented-vs-monolithic oracle), so cache entries
//! keyed on the epoch stay exactly valid across merges.

use std::collections::BTreeMap;

use crate::field::Field;
use crate::memory::IndexStats;
use crate::postings::PostingsList;
use crate::segment::Segment;

/// One immutable published state: the sealed segments plus (as its last
/// element, when non-empty) a frozen copy of the mutable head.
#[derive(Debug, Clone, Default)]
pub(crate) struct IndexSnapshot {
    pub segments: Vec<Segment>,
    /// Logical mutation count — the `mutations` half of the public
    /// [`crate::IndexRevision`].
    pub epoch: u64,
    /// Live documents across all segments.
    pub live_docs: usize,
    /// Total document slots including tombstones.
    pub total_docs: usize,
}

impl IndexSnapshot {
    /// All of one field's `(term, portions)` entries merged across
    /// segments in term order; each portion is `(segment index, list)`.
    /// This is the deterministic global iteration order the codec, stats,
    /// and introspection all share.
    pub(crate) fn merged_terms(
        &self,
        field_ord: usize,
    ) -> BTreeMap<&str, Vec<(usize, &PostingsList)>> {
        let mut merged: BTreeMap<&str, Vec<(usize, &PostingsList)>> = BTreeMap::new();
        for (si, seg) in self.segments.iter().enumerate() {
            for (term, pl) in &seg.data.terms[field_ord] {
                merged.entry(term.as_str()).or_default().push((si, pl));
            }
        }
        merged
    }

    /// Aggregate statistics. Distinct terms are counted over the *merged*
    /// dictionary, so a term split across segments counts once — the same
    /// number a monolithic build of the same corpus reports.
    pub(crate) fn stats(&self) -> IndexStats {
        let mut distinct_terms = 0usize;
        let mut postings = 0usize;
        let mut occurrences = 0u64;
        for field_ord in 0..Field::COUNT {
            for (_, portions) in self.merged_terms(field_ord) {
                distinct_terms += 1;
                for (_, pl) in portions {
                    postings += pl.doc_freq();
                    occurrences += pl.total_term_freq();
                }
            }
        }
        IndexStats {
            live_docs: self.live_docs,
            total_docs: self.total_docs,
            distinct_terms,
            postings,
            occurrences,
        }
    }

    /// Estimated heap bytes across all segments (each counted once; the
    /// writer's master copies are the same `Arc`s, not duplicates).
    pub(crate) fn deep_bytes(&self) -> usize {
        self.segments.iter().map(|s| s.data.deep_bytes()).sum()
    }

    /// The global ordinal offset of each segment: segment `s`'s local
    /// ordinal `o` maps to global ordinal `offsets[s] + o`. The codec
    /// serializes the corpus in this order.
    pub(crate) fn ord_offsets(&self) -> Vec<u32> {
        let mut offsets = Vec::with_capacity(self.segments.len());
        let mut acc = 0u32;
        for seg in &self.segments {
            offsets.push(acc);
            acc += seg.data.docs.len() as u32;
        }
        offsets
    }
}
