//! Postings lists: per-term document occurrences with positions.
//!
//! A list exists in two forms. [`List`] is the read side: borrowed slices
//! of a sealed segment's flat columns, which is all Phase 1, the merger,
//! the statistics and the codec ever see. [`GrowingList`] is the write
//! side: the same columns as growing vectors, held only by the head
//! builder until it is frozen into a sealed segment.
//!
//! A list's **live document frequency** — the postings whose document is
//! not tombstoned — is kept beside it, so the scorer never rescans
//! postings against the tombstone table to compute df. Both forms carry
//! **impact upper bounds** for
//! WAND/MaxScore pruning: the largest `√tf/√field_len` over the whole list
//! and per 64-posting block. Bounds grow as postings are appended;
//! tombstoning leaves them stale-high (still a valid upper bound, merely
//! loose), and a merge rebuilds them tight over live postings.

use std::ops::Range;

use crate::DocOrd;

/// Postings are grouped into fixed-size blocks of this many documents for
/// block-max pruning: each block carries its own `√tf/√field_len` ceiling
/// so the scorer can skip a whole block when even its best posting cannot
/// reach the current top-n floor.
pub const BLOCK_POSTINGS: usize = 64;

/// The idf- and boost-independent part of a posting's impact:
/// `√tf / √field_len`. Per-list and per-block maxima of this quantity are
/// what the index stores; multiplying by `boost · idf` at query time yields
/// the WAND/MaxScore upper bound with the scorer's own arithmetic.
pub(crate) fn tf_norm(term_freq: u32, field_len: u32) -> f64 {
    (term_freq as f64).sqrt() / (field_len.max(1) as f64).sqrt()
}

/// One term's postings within one field of a sealed segment. Posting `i`
/// is document `docs[i]` with the token positions [`List::positions`]`(i)`
/// — the "proximity data" the paper's index stores.
#[derive(Debug, Clone, Copy)]
pub(crate) struct List<'a> {
    /// Document ordinals, strictly ascending.
    pub docs: &'a [DocOrd],
    /// Posting `i`'s positions are `arena[offsets[i]..offsets[i + 1]]`;
    /// one entry longer than `docs`.
    pub offsets: &'a [u32],
    /// The segment's whole positions arena.
    pub arena: &'a [u32],
    pub max_tf_norm: f64,
    pub block_max: &'a [f64],
}

impl<'a> List<'a> {
    /// Document frequency: how many documents contain the term, including
    /// tombstoned ones still awaiting a merge.
    pub fn doc_freq(&self) -> usize {
        self.docs.len()
    }

    /// Term frequency of posting `i`.
    #[inline]
    pub fn term_freq(&self, i: usize) -> u32 {
        self.offsets[i + 1] - self.offsets[i]
    }

    /// Token positions of posting `i`, ascending.
    #[inline]
    pub fn positions(&self, i: usize) -> &'a [u32] {
        &self.arena[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// `(document, term frequency)` of the postings in `range`, in order.
    #[inline]
    pub fn postings(&self, range: Range<usize>) -> impl Iterator<Item = (DocOrd, u32)> + 'a {
        let offsets = &self.offsets[range.start..=range.end];
        self.docs[range]
            .iter()
            .zip(offsets.windows(2))
            .map(|(&doc, w)| (doc, w[1] - w[0]))
    }

    /// Binary-search the posting for `doc`.
    #[inline]
    pub fn find(&self, doc: DocOrd) -> Option<usize> {
        self.docs.binary_search(&doc).ok()
    }

    /// Upper bound on the Phase 1 impact any posting of this list can
    /// contribute, for a field boost and query-time idf. Computed from the
    /// stored `√tf/√field_len` ceiling with the scorer's own factors.
    pub fn max_impact_bound(&self, boost: f64, idf: f64) -> f64 {
        boost * idf * self.max_tf_norm
    }

    /// Number of fixed-size posting blocks ([`BLOCK_POSTINGS`] each).
    pub fn block_count(&self) -> usize {
        self.block_max.len()
    }

    /// The postings of block `b`.
    #[inline]
    pub fn block(&self, b: usize) -> Range<usize> {
        b * BLOCK_POSTINGS..((b + 1) * BLOCK_POSTINGS).min(self.docs.len())
    }

    /// Upper bound on the impact any posting of block `b` can contribute.
    #[inline]
    pub fn block_impact_bound(&self, b: usize, boost: f64, idf: f64) -> f64 {
        boost * idf * self.block_max[b]
    }

    /// Every position of the postings in `range`, posting after posting.
    fn positions_of(&self, range: Range<usize>) -> &'a [u32] {
        &self.arena[self.offsets[range.start] as usize..self.offsets[range.end] as usize]
    }

    /// Heap bytes held by this list: its rows of the ordinal and
    /// position-offset columns, its slice of the positions arena and its
    /// block bounds.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of_val;
        let rows = self.docs.len();
        size_of_val(self.docs)
            + size_of_val(&self.offsets[..rows])
            + size_of_val(self.positions_of(0..rows))
            + size_of_val(self.block_max)
    }
}

/// A list the head builder is still appending to: [`List`]'s columns as
/// three growing vectors (plus the block bounds), not a vector per posting.
#[derive(Debug, Default)]
pub(crate) struct GrowingList {
    pub docs: Vec<DocOrd>,
    /// `ends[i]` is one past posting `i`'s last entry in `positions`.
    pub ends: Vec<u32>,
    pub positions: Vec<u32>,
    pub live: u32,
    pub max_tf_norm: f64,
    pub block_max: Vec<f64>,
}

impl GrowingList {
    /// Append `doc`'s posting: its ascending `positions` in a field of
    /// `field_len` tokens. Documents arrive in ascending ordinal order and
    /// the one being written is live, so the live df grows with the list.
    pub fn push(&mut self, doc: DocOrd, positions: &[u32], field_len: u32) {
        debug_assert!(self.docs.last().is_none_or(|&last| last < doc));
        let norm = tf_norm(positions.len() as u32, field_len);
        if self.docs.len().is_multiple_of(BLOCK_POSTINGS) {
            self.block_max.push(0.0);
        }
        let block = self.block_max.last_mut().expect("pushed above");
        *block = block.max(norm);
        self.max_tf_norm = self.max_tf_norm.max(norm);
        self.docs.push(doc);
        self.positions.extend_from_slice(positions);
        self.ends.push(self.positions.len() as u32);
        self.live += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `list` as the sealed view a freeze would produce.
    fn view<'a>(list: &'a GrowingList, offsets: &'a mut Vec<u32>) -> List<'a> {
        offsets.clear();
        offsets.push(0);
        offsets.extend_from_slice(&list.ends);
        List {
            docs: &list.docs,
            offsets,
            arena: &list.positions,
            max_tf_norm: list.max_tf_norm,
            block_max: &list.block_max,
        }
    }

    #[test]
    fn postings_keep_their_positions_in_document_order() {
        let mut pl = GrowingList::default();
        pl.push(0, &[1, 5], 4);
        pl.push(2, &[0], 4);
        pl.push(7, &[3, 4, 9], 4);
        let mut offsets = Vec::new();
        let list = view(&pl, &mut offsets);
        assert_eq!(list.doc_freq(), 3);
        assert_eq!(pl.live, 3);
        assert_eq!(list.docs, [0, 2, 7]);
        assert_eq!(list.positions(0), [1, 5]);
        assert_eq!(list.positions(2), [3, 4, 9]);
        assert_eq!(list.find(2), Some(1));
        assert_eq!(list.find(1), None);
        let all: Vec<_> = list.postings(0..3).collect();
        assert_eq!(all, [(0, 2), (2, 1), (7, 3)]);
        assert_eq!(list.approx_bytes(), 3 * 8 + 6 * 4 + 8);
    }

    #[test]
    fn empty_list() {
        let pl = GrowingList::default();
        let mut offsets = Vec::new();
        let list = view(&pl, &mut offsets);
        assert_eq!(list.doc_freq(), 0);
        assert_eq!(list.approx_bytes(), 0);
        assert!(list.find(0).is_none());
        assert_eq!(list.block_count(), 0);
        assert_eq!(list.max_impact_bound(2.0, 1.5), 0.0);
    }

    #[test]
    fn bounds_track_the_best_posting() {
        let mut pl = GrowingList::default();
        pl.push(0, &[0], 16); // tf 1, len 16 → 1/4
        assert!((pl.max_tf_norm - 0.25).abs() < 1e-12);
        pl.push(1, &[0, 1], 4); // tf 2, len 4 → √2/2
        let expect = (2.0f64).sqrt() / 2.0;
        let mut offsets = Vec::new();
        let list = view(&pl, &mut offsets);
        assert!((list.max_impact_bound(1.0, 1.0) - expect).abs() < 1e-12);
        // Boost and idf multiply straight through.
        assert!((list.max_impact_bound(2.0, 3.0) - 6.0 * expect).abs() < 1e-12);
    }

    #[test]
    fn blocks_partition_postings_with_local_bounds() {
        let mut pl = GrowingList::default();
        for d in 0..(BLOCK_POSTINGS as u32 + 10) {
            pl.push(d, &[0], 4);
        }
        // The best posting lands in the second block: tf 2.
        pl.push(BLOCK_POSTINGS as u32 + 10, &[0, 1], 4);
        let mut offsets = Vec::new();
        let list = view(&pl, &mut offsets);
        assert_eq!(list.block_count(), 2);
        assert_eq!(list.block(0).len(), BLOCK_POSTINGS);
        assert_eq!(list.block(1).len(), 11);
        assert!(list.block_impact_bound(1, 1.0, 1.0) > list.block_impact_bound(0, 1.0, 1.0));
        // The list bound equals the best block bound.
        assert_eq!(
            list.max_impact_bound(1.0, 1.0),
            list.block_impact_bound(1, 1.0, 1.0)
        );
        // Every posting's tf_norm is dominated by its block's bound.
        for b in 0..list.block_count() {
            let bound = list.block_impact_bound(b, 1.0, 1.0);
            for (_, tf) in list.postings(list.block(b)) {
                assert!(tf_norm(tf, 4) <= bound);
            }
        }
    }
}
