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
use crate::segment::{Columns, Segment};

/// One immutable published state: the sealed segments, then the head's
/// runs, each frozen into a flat segment like them.
#[derive(Debug, Clone, Default)]
pub(crate) struct IndexSnapshot {
    pub segments: Vec<Segment>,
    /// How many of `segments`, the last ones, are the head's runs.
    pub head_runs: usize,
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
    /// segments in term order; each portion is `(segment index, list id)`.
    /// This is the deterministic global iteration order stats and
    /// introspection share.
    pub(crate) fn merged_terms(&self, field_ord: usize) -> BTreeMap<&str, Vec<(usize, u32)>> {
        let mut merged: BTreeMap<&str, Vec<(usize, u32)>> = BTreeMap::new();
        for (si, seg) in self.segments.iter().enumerate() {
            for id in seg.data.field_lists(field_ord) {
                merged.entry(seg.data.term(id)).or_default().push((si, id));
            }
        }
        merged
    }

    /// Aggregate statistics. Distinct terms are counted over the *merged*
    /// dictionary, so a term split across segments counts once — the same
    /// number a monolithic build of the same corpus reports.
    pub(crate) fn stats(&self) -> IndexStats {
        let distinct_terms = (0..Field::COUNT)
            .map(|field_ord| self.merged_terms(field_ord).len())
            .sum();
        self.stats_with(distinct_terms)
    }

    /// [`stats`](Self::stats), for a caller that has already walked the
    /// merged dictionary and counted its `distinct_terms`.
    pub(crate) fn stats_with(&self, distinct_terms: usize) -> IndexStats {
        let columns = || self.segments.iter().map(|seg| seg.data.columns());
        IndexStats {
            live_docs: self.live_docs,
            total_docs: self.total_docs,
            distinct_terms,
            postings: columns().map(Columns::postings).sum(),
            occurrences: columns().map(|c| u64::from(c.occurrences)).sum(),
        }
    }

    /// Estimated heap bytes of every postings list in every segment, each
    /// list's `approx_bytes`.
    pub(crate) fn postings_bytes(&self) -> usize {
        let bytes = |seg: &Segment| -> usize {
            (0..Field::COUNT)
                .flat_map(|f| seg.data.field_lists(f))
                .map(|id| seg.data.list(id).approx_bytes())
                .sum()
        };
        self.segments.iter().map(bytes).sum()
    }

    /// Heap bytes across all segments, their overlays included (each
    /// counted once; the writer's copies are the same `Arc`s, not
    /// duplicates).
    pub(crate) fn deep_bytes(&self) -> usize {
        self.segments
            .iter()
            .map(|s| s.data.deep_bytes() + s.live.heap_bytes())
            .sum()
    }
}
