//! Postings lists: per-term document occurrences with positions.

use schemr_obs::DeepSize;
use serde::{Deserialize, Serialize};

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

/// One document's occurrence record for a term in a field.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Posting {
    /// Dense document ordinal.
    pub doc: DocOrd,
    /// Token positions of the term within the field (sorted ascending) —
    /// the "proximity data" the paper's index stores.
    pub positions: Vec<u32>,
}

impl Posting {
    /// Term frequency in this document/field.
    pub fn term_freq(&self) -> u32 {
        self.positions.len() as u32
    }
}

/// A term's postings within one field: documents sorted by ordinal.
///
/// Alongside the postings themselves the list maintains a **live document
/// frequency** — the number of postings whose document is not tombstoned.
/// Writers keep it incrementally up to date (`push_occurrence` counts the
/// new document as live; the index decrements it when a document is
/// tombstoned) so the scorer never has to rescan postings against the
/// tombstone table just to compute df.
///
/// It also maintains **impact upper bounds** for WAND/MaxScore pruning:
/// the largest `√tf/√field_len` over the whole list and per 64-posting
/// block. Bounds grow incrementally on `push_occurrence`; tombstoning
/// leaves them stale-high (still a valid upper bound, merely loose), and
/// a merge / the codec load path rebuild them tight over live postings.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PostingsList {
    postings: Vec<Posting>,
    live: usize,
    max_tf_norm: f64,
    block_max: Vec<f64>,
}

impl PostingsList {
    /// Empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Document frequency: how many documents contain the term, including
    /// tombstoned ones still awaiting a merge.
    pub fn doc_freq(&self) -> usize {
        self.postings.len()
    }

    /// Live document frequency: postings whose document is not deleted.
    /// This is the df the TF/IDF scorer uses.
    pub fn live_doc_freq(&self) -> usize {
        self.live
    }

    /// The postings, sorted by document ordinal.
    pub fn iter(&self) -> impl Iterator<Item = &Posting> {
        self.postings.iter()
    }

    /// The last (largest) document ordinal present, if any.
    pub fn last_doc(&self) -> Option<DocOrd> {
        self.postings.last().map(|p| p.doc)
    }

    /// Record an occurrence of the term at `position` in `doc`, whose
    /// field holds `field_len` tokens. Returns `true` when this was the
    /// first occurrence for `doc` (a new posting was appended).
    ///
    /// Documents must be added in non-decreasing ordinal order (the writer
    /// guarantees this); positions in non-decreasing order per document.
    /// The document being written is assumed live, so a new posting
    /// increments the live document frequency.
    pub fn push_occurrence(&mut self, doc: DocOrd, position: u32, field_len: u32) -> bool {
        let appended = match self.postings.last_mut() {
            Some(last) if last.doc == doc => {
                last.positions.push(position);
                false
            }
            Some(last) => {
                debug_assert!(last.doc < doc, "documents must arrive in order");
                self.postings.push(Posting {
                    doc,
                    positions: vec![position],
                });
                self.live += 1;
                true
            }
            None => {
                self.postings.push(Posting {
                    doc,
                    positions: vec![position],
                });
                self.live += 1;
                true
            }
        };
        let tf = self.postings.last().map_or(0, Posting::term_freq);
        self.note_bound(self.postings.len() - 1, tf_norm(tf, field_len));
        appended
    }

    /// Raise the list-wide and per-block impact bounds to cover a posting
    /// at index `idx` whose `√tf/√field_len` is `norm`.
    fn note_bound(&mut self, idx: usize, norm: f64) {
        if norm > self.max_tf_norm {
            self.max_tf_norm = norm;
        }
        let b = idx / BLOCK_POSTINGS;
        if b >= self.block_max.len() {
            self.block_max.resize(b + 1, 0.0);
        }
        if norm > self.block_max[b] {
            self.block_max[b] = norm;
        }
    }

    /// One of this list's documents was tombstoned: drop it from the live
    /// document frequency. The impact bounds are deliberately left alone —
    /// a stale-high bound is still a valid upper bound — and are rebuilt
    /// tight by a merge or a codec reload.
    pub(crate) fn note_doc_tombstoned(&mut self) {
        debug_assert!(self.live > 0, "live df underflow");
        self.live = self.live.saturating_sub(1);
    }

    /// Overwrite the live document frequency (codec load path, where
    /// liveness is only known after the document table is decoded).
    pub(crate) fn set_live_doc_freq(&mut self, live: usize) {
        debug_assert!(live <= self.postings.len());
        self.live = live;
    }

    /// Recompute the list-wide and per-block impact bounds tightly over
    /// live postings, given the owner's knowledge of per-document field
    /// lengths and liveness (codec load path, after the document table is
    /// decoded).
    pub(crate) fn rebuild_bounds<F, L>(&mut self, field_len_of: F, is_live: L)
    where
        F: Fn(DocOrd) -> u32,
        L: Fn(DocOrd) -> bool,
    {
        self.max_tf_norm = 0.0;
        self.block_max.clear();
        self.block_max
            .resize(self.postings.len().div_ceil(BLOCK_POSTINGS), 0.0);
        for (i, p) in self.postings.iter().enumerate() {
            if !is_live(p.doc) {
                continue;
            }
            let norm = tf_norm(p.term_freq(), field_len_of(p.doc));
            let b = i / BLOCK_POSTINGS;
            if norm > self.block_max[b] {
                self.block_max[b] = norm;
            }
            if norm > self.max_tf_norm {
                self.max_tf_norm = norm;
            }
        }
    }

    /// Upper bound on the Phase 1 impact any posting of this list can
    /// contribute, for a field boost and query-time idf. Computed from the
    /// maintained `√tf/√field_len` ceiling with the scorer's own factors.
    pub fn max_impact_bound(&self, boost: f64, idf: f64) -> f64 {
        boost * idf * self.max_tf_norm
    }

    /// Number of fixed-size posting blocks ([`BLOCK_POSTINGS`] each).
    pub fn block_count(&self) -> usize {
        self.block_max.len()
    }

    /// The postings of block `b` (document-ordered slice).
    pub fn block(&self, b: usize) -> &[Posting] {
        let start = b * BLOCK_POSTINGS;
        let end = ((b + 1) * BLOCK_POSTINGS).min(self.postings.len());
        &self.postings[start..end]
    }

    /// Upper bound on the impact any posting of block `b` can contribute.
    pub fn block_impact_bound(&self, b: usize, boost: f64, idf: f64) -> f64 {
        boost * idf * self.block_max[b]
    }

    /// Binary-search the posting for `doc`.
    pub fn get(&self, doc: DocOrd) -> Option<&Posting> {
        self.postings
            .binary_search_by_key(&doc, |p| p.doc)
            .ok()
            .map(|i| &self.postings[i])
    }

    /// Construct from pre-sorted postings (codec path). Until
    /// [`PostingsList::set_live_doc_freq`] corrects it, every posting is
    /// presumed live. Impact bounds are initialized pessimistically with
    /// `field_len = 1` (an upper bound for any real length ≥ 1); call
    /// [`PostingsList::rebuild_bounds`] once field lengths are known.
    pub fn from_postings(postings: Vec<Posting>) -> Self {
        debug_assert!(postings.windows(2).all(|w| w[0].doc < w[1].doc));
        let live = postings.len();
        let mut pl = PostingsList {
            postings,
            live,
            max_tf_norm: 0.0,
            block_max: Vec::new(),
        };
        for i in 0..pl.postings.len() {
            let norm = tf_norm(pl.postings[i].term_freq(), 1);
            pl.note_bound(i, norm);
        }
        pl
    }

    /// Total occurrences across all documents.
    pub fn total_term_freq(&self) -> u64 {
        self.postings.iter().map(|p| p.term_freq() as u64).sum()
    }

    /// Tombstone ratio: the fraction of postings whose document awaits
    /// a merge. 0 for an empty list.
    pub fn tombstone_ratio(&self) -> f64 {
        if self.postings.is_empty() {
            return 0.0;
        }
        (self.postings.len() - self.live) as f64 / self.postings.len() as f64
    }

    /// Largest single-document term frequency across all postings —
    /// an upper bound input for per-list impact scores.
    pub fn max_term_freq(&self) -> u32 {
        self.postings
            .iter()
            .map(Posting::term_freq)
            .max()
            .unwrap_or(0)
    }

    /// Approximate heap bytes held by this list: the postings vector
    /// at capacity plus every position vector at capacity, plus the
    /// per-block bound table.
    pub fn approx_bytes(&self) -> usize {
        self.postings.capacity() * std::mem::size_of::<Posting>()
            + self
                .postings
                .iter()
                .map(|p| p.positions.capacity() * std::mem::size_of::<u32>())
                .sum::<usize>()
            + self.block_max.capacity() * std::mem::size_of::<f64>()
    }
}

impl DeepSize for PostingsList {
    fn deep_size_of_children(&self) -> usize {
        self.approx_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occurrences_group_by_document() {
        let mut pl = PostingsList::new();
        assert!(pl.push_occurrence(0, 1, 4));
        assert!(!pl.push_occurrence(0, 5, 4));
        assert!(pl.push_occurrence(2, 0, 4));
        assert_eq!(pl.doc_freq(), 2);
        assert_eq!(pl.get(0).unwrap().term_freq(), 2);
        assert_eq!(pl.get(0).unwrap().positions, [1, 5]);
        assert_eq!(pl.get(2).unwrap().term_freq(), 1);
        assert!(pl.get(1).is_none());
        assert_eq!(pl.total_term_freq(), 3);
        assert_eq!(pl.last_doc(), Some(2));
    }

    #[test]
    fn iteration_is_in_document_order() {
        let mut pl = PostingsList::new();
        for d in [0u32, 3, 7] {
            pl.push_occurrence(d, 0, 1);
        }
        let docs: Vec<_> = pl.iter().map(|p| p.doc).collect();
        assert_eq!(docs, [0, 3, 7]);
    }

    #[test]
    fn empty_list() {
        let pl = PostingsList::new();
        assert_eq!(pl.doc_freq(), 0);
        assert_eq!(pl.live_doc_freq(), 0);
        assert_eq!(pl.total_term_freq(), 0);
        assert!(pl.get(0).is_none());
        assert!(pl.last_doc().is_none());
        assert_eq!(pl.block_count(), 0);
        assert_eq!(pl.max_impact_bound(2.0, 1.5), 0.0);
    }

    #[test]
    fn live_df_tracks_tombstones() {
        let mut pl = PostingsList::new();
        pl.push_occurrence(0, 0, 2);
        pl.push_occurrence(0, 3, 2);
        pl.push_occurrence(1, 0, 2);
        pl.push_occurrence(4, 2, 2);
        assert_eq!(pl.live_doc_freq(), 3);
        pl.note_doc_tombstoned();
        assert_eq!(pl.live_doc_freq(), 2);
        assert_eq!(pl.doc_freq(), 3, "postings themselves stay until a merge");
        pl.set_live_doc_freq(1);
        assert_eq!(pl.live_doc_freq(), 1);
    }

    #[test]
    fn introspection_helpers_report_the_list_shape() {
        let mut pl = PostingsList::new();
        pl.push_occurrence(0, 0, 10);
        pl.push_occurrence(0, 4, 10);
        pl.push_occurrence(0, 9, 10);
        pl.push_occurrence(2, 1, 10);
        assert_eq!(pl.max_term_freq(), 3);
        assert_eq!(pl.tombstone_ratio(), 0.0);
        pl.note_doc_tombstoned();
        assert_eq!(pl.tombstone_ratio(), 0.5);
        assert!(pl.approx_bytes() >= 2 * std::mem::size_of::<Posting>() + 4 * 4);
        assert_eq!(PostingsList::new().tombstone_ratio(), 0.0);
        assert_eq!(PostingsList::new().max_term_freq(), 0);
    }

    #[test]
    fn from_postings_presumes_live() {
        let pl = PostingsList::from_postings(vec![
            Posting {
                doc: 0,
                positions: vec![0],
            },
            Posting {
                doc: 5,
                positions: vec![1, 2],
            },
        ]);
        assert_eq!(pl.live_doc_freq(), 2);
    }

    #[test]
    fn bounds_track_the_best_posting() {
        let mut pl = PostingsList::new();
        pl.push_occurrence(0, 0, 16); // tf 1, len 16 → 1/4
        assert!((pl.max_impact_bound(1.0, 1.0) - 0.25).abs() < 1e-12);
        pl.push_occurrence(1, 0, 4); // tf 1, len 4 → 1/2
        pl.push_occurrence(1, 1, 4); // tf 2, len 4 → √2/2
        let expect = (2.0f64).sqrt() / 2.0;
        assert!((pl.max_impact_bound(1.0, 1.0) - expect).abs() < 1e-12);
        // Boost and idf multiply straight through.
        assert!((pl.max_impact_bound(2.0, 3.0) - 6.0 * expect).abs() < 1e-12);
    }

    #[test]
    fn blocks_partition_postings_with_local_bounds() {
        let mut pl = PostingsList::new();
        for d in 0..(BLOCK_POSTINGS as u32 + 10) {
            pl.push_occurrence(d, 0, 4);
        }
        // The best posting lands in the second block: tf 2.
        pl.push_occurrence(BLOCK_POSTINGS as u32 + 10, 0, 4);
        pl.push_occurrence(BLOCK_POSTINGS as u32 + 10, 1, 4);
        assert_eq!(pl.block_count(), 2);
        assert_eq!(pl.block(0).len(), BLOCK_POSTINGS);
        assert_eq!(pl.block(1).len(), 11);
        assert!(pl.block_impact_bound(1, 1.0, 1.0) > pl.block_impact_bound(0, 1.0, 1.0));
        // The list bound equals the best block bound.
        assert!((pl.max_impact_bound(1.0, 1.0) - pl.block_impact_bound(1, 1.0, 1.0)).abs() < 1e-15);
        // Every posting's tf_norm is dominated by its block's bound.
        for b in 0..pl.block_count() {
            let bound = pl.block_impact_bound(b, 1.0, 1.0);
            for p in pl.block(b) {
                assert!(tf_norm(p.term_freq(), 4) <= bound + 1e-15);
            }
        }
    }

    #[test]
    fn tombstones_leave_bounds_stale_high_and_rebuild_tightens() {
        let mut pl = PostingsList::new();
        pl.push_occurrence(0, 0, 1); // tf 1, len 1 → 1.0 (the best)
        pl.push_occurrence(1, 0, 4); // tf 1, len 4 → 0.5
        pl.note_doc_tombstoned(); // pretend doc 0 died
                                  // Stale-high: still 1.0, a valid (loose) bound.
        assert!((pl.max_impact_bound(1.0, 1.0) - 1.0).abs() < 1e-12);
        // Rebuild with doc 0 dead tightens to doc 1's norm.
        pl.rebuild_bounds(|d| if d == 0 { 1 } else { 4 }, |d| d != 0);
        assert!((pl.max_impact_bound(1.0, 1.0) - 0.5).abs() < 1e-12);
        assert_eq!(pl.block_count(), 1);
        assert!((pl.block_impact_bound(0, 1.0, 1.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn from_postings_bounds_are_pessimistic_but_valid() {
        // Without field lengths the constructor assumes len 1 — an upper
        // bound for any real length.
        let pl = PostingsList::from_postings(vec![Posting {
            doc: 0,
            positions: vec![0, 5],
        }]);
        assert!((pl.max_impact_bound(1.0, 1.0) - (2.0f64).sqrt()).abs() < 1e-12);
        assert_eq!(pl.block_count(), 1);
    }
}
