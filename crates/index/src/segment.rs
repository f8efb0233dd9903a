//! Index segments: the immutable unit of the Lucene-style index layout.
//!
//! A sealed segment has exactly one representation, [`Columns`]: a sorted
//! term table whose rows point into flat columns of document ordinals,
//! position offsets, one positions arena and impact bounds, plus a forward
//! index of list ids per document and the document table. Phase 1 scans
//! those columns, the merger reads and writes them, and the codec stores
//! them as they are — there is no second form to decode into or rebuild
//! from. A [`FlatSegment`] is a `Columns` whose structural invariants have
//! been checked (or that this crate built itself), together with the one
//! thing derived from it: the id → ordinal map.
//!
//! A tombstone is recorded one way only: as a bit of a copy-on-write
//! [`LiveOverlay`] next to the frozen data, whether it was set while the
//! segment was the head or after it sealed, so a tombstone costs
//! O(overlay), never a segment rebuild. A [`Segment`] pairs one
//! `FlatSegment` with the overlay that was current when its snapshot was
//! published: the pair is immutable, so a search holding it can never
//! observe a torn state.

use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use schemr_model::SchemaId;

use crate::field::Field;
use crate::postings::{tf_norm, GrowingList, List, BLOCK_POSTINGS};
use crate::DocOrd;

/// Is bit `ord` set in `bits`? Bits past the end read as clear.
#[inline]
pub(crate) fn bit(bits: &[u64], ord: usize) -> bool {
    bits.get(ord / 64)
        .is_some_and(|w| w & (1u64 << (ord % 64)) != 0)
}

/// `offsets` cuts `0..end` into consecutive, possibly empty spans.
fn spans(offsets: &[u32], end: usize) -> bool {
    offsets.first() == Some(&0)
        && offsets.last().map(|&e| e as usize) == Some(end)
        && offsets.windows(2).all(|w| w[0] <= w[1])
}

/// The columns of one sealed segment — plain data, in memory exactly what
/// the codec writes. A *list* is one `(field, term)` postings list and its
/// id is its row in the term table; every `*_offsets` column has one entry
/// more than the rows it cuts, starting at 0.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Columns {
    /// Field `f`'s lists are rows `field_starts[f]..field_starts[f + 1]`,
    /// ascending by term.
    pub field_starts: [u32; Field::COUNT + 1],
    /// List `l`'s term is `term_bytes[term_offsets[l]..term_offsets[l + 1]]`.
    pub term_offsets: Vec<u32>,
    pub term_bytes: Vec<u8>,
    /// List `l`'s postings are rows `list_offsets[l]..list_offsets[l + 1]`
    /// of the per-posting columns.
    pub list_offsets: Vec<u32>,
    /// List `l`'s block bounds are `block_max[block_offsets[l]..block_offsets[l + 1]]`.
    pub block_offsets: Vec<u32>,
    /// Per list: the largest `√tf/√field_len` of any posting.
    pub max_tf_norm: Vec<f64>,
    /// Per posting: the document ordinal, strictly ascending within a list.
    pub posting_docs: Vec<DocOrd>,
    /// Posting `p`'s positions are `positions[pos_offsets[p]..pos_offsets[p + 1]]`.
    pub pos_offsets: Vec<u32>,
    pub positions: Vec<u32>,
    /// Per [`BLOCK_POSTINGS`] postings of a list: their largest `√tf/√field_len`.
    pub block_max: Vec<f64>,
    /// Forward index: document `d` has a posting in exactly the lists
    /// `fwd_lists[fwd_offsets[d]..fwd_offsets[d + 1]]`, so a tombstone
    /// counts against those lists and no others.
    pub fwd_offsets: Vec<u32>,
    pub fwd_lists: Vec<u32>,
    /// Document table: external id and per-field token counts
    /// (row-major, [`Field::COUNT`] a document).
    pub ids: Vec<SchemaId>,
    pub field_lengths: Vec<u32>,
}

impl Columns {
    /// No documents and no lists yet, with room for this many of each
    /// thing: filled to exactly these counts, no column ever reallocates.
    pub(crate) fn with_capacity(
        docs: usize,
        lists: usize,
        postings: usize,
        positions: usize,
        blocks: usize,
        term_bytes: usize,
    ) -> Self {
        let offsets = |rows: usize| {
            let mut column = Vec::with_capacity(rows + 1);
            column.push(0u32);
            column
        };
        Columns {
            field_starts: [0; Field::COUNT + 1],
            term_offsets: offsets(lists),
            term_bytes: Vec::with_capacity(term_bytes),
            list_offsets: offsets(lists),
            block_offsets: offsets(lists),
            max_tf_norm: Vec::with_capacity(lists),
            posting_docs: Vec::with_capacity(postings),
            pos_offsets: offsets(postings),
            positions: Vec::with_capacity(positions),
            block_max: Vec::with_capacity(blocks),
            fwd_offsets: offsets(docs),
            fwd_lists: Vec::with_capacity(postings),
            ids: Vec::with_capacity(docs),
            field_lengths: Vec::with_capacity(docs * Field::COUNT),
        }
    }

    /// Append `list` as the next row of the term table.
    pub(crate) fn push_list(&mut self, term: &[u8], list: &GrowingList) {
        let base = self.positions.len() as u32;
        self.term_bytes.extend_from_slice(term);
        self.term_offsets.push(self.term_bytes.len() as u32);
        self.posting_docs.extend_from_slice(&list.docs);
        self.pos_offsets
            .extend(list.ends.iter().map(|end| base + end));
        self.positions.extend_from_slice(&list.positions);
        self.block_max.extend_from_slice(&list.block_max);
        self.list_offsets.push(self.posting_docs.len() as u32);
        self.block_offsets.push(self.block_max.len() as u32);
        self.max_tf_norm.push(list.max_tf_norm);
    }

    /// Rows of the term table.
    pub(crate) fn list_count(&self) -> usize {
        self.term_offsets.len() - 1
    }

    pub(crate) fn term(&self, list: usize) -> &[u8] {
        &self.term_bytes[self.term_offsets[list] as usize..self.term_offsets[list + 1] as usize]
    }

    /// Check every structural fact a scan, a tombstone or a merge relies
    /// on, so that columns read from a file can be used without a bounds
    /// panic, an underflowing df or a bound that prunes a real hit.
    pub(crate) fn validate(&self) -> Result<(), &'static str> {
        let docs = self.ids.len();
        let lists = self.max_tf_norm.len();
        let postings = self.posting_docs.len();
        if docs > u32::MAX as usize
            || self.term_offsets.len() != lists + 1
            || self.list_offsets.len() != lists + 1
            || self.block_offsets.len() != lists + 1
            || self.pos_offsets.len() != postings + 1
            || self.fwd_offsets.len() != docs + 1
            || self.fwd_lists.len() != postings
            || self.field_lengths.len() != docs * Field::COUNT
        {
            return Err("column lengths disagree");
        }
        if !(spans(&self.term_offsets, self.term_bytes.len())
            && spans(&self.list_offsets, postings)
            && spans(&self.block_offsets, self.block_max.len())
            && spans(&self.pos_offsets, self.positions.len())
            && spans(&self.fwd_offsets, postings)
            && spans(&self.field_starts, lists))
        {
            return Err("offsets out of bounds or not monotone");
        }
        for field_ord in 0..Field::COUNT {
            let rows =
                self.field_starts[field_ord] as usize..self.field_starts[field_ord + 1] as usize;
            for list in rows.clone() {
                if std::str::from_utf8(self.term(list)).is_err() {
                    return Err("term is not UTF-8");
                }
                if list > rows.start && self.term(list - 1) >= self.term(list) {
                    return Err("terms not sorted");
                }
                self.validate_list(list, field_ord)?;
            }
        }
        // The forward index is the exact inverse of the postings: walking
        // documents in order, each mention consumes the next unconsumed
        // posting of its list. The lengths agree, so nothing is left over.
        let mut consumed = vec![0u32; lists];
        for doc in 0..docs {
            for &list in
                &self.fwd_lists[self.fwd_offsets[doc] as usize..self.fwd_offsets[doc + 1] as usize]
            {
                let Some(next) = consumed.get_mut(list as usize) else {
                    return Err("forward index names an unknown list");
                };
                let row = self.list_offsets[list as usize] + *next;
                if row >= self.list_offsets[list as usize + 1]
                    || self.posting_docs[row as usize] as usize != doc
                {
                    return Err("forward index disagrees with the postings");
                }
                *next += 1;
            }
        }
        Ok(())
    }

    /// [`Columns::validate`] for one list of field `field_ord`.
    fn validate_list(&self, list: usize, field_ord: usize) -> Result<(), &'static str> {
        let docs = self.ids.len();
        let rows = self.list_offsets[list] as usize..self.list_offsets[list + 1] as usize;
        let blocks = &self.block_max
            [self.block_offsets[list] as usize..self.block_offsets[list + 1] as usize];
        if blocks.len() != rows.len().div_ceil(BLOCK_POSTINGS) {
            return Err("block count is not ⌈df/64⌉");
        }
        let max = self.max_tf_norm[list];
        if !max.is_finite() || !blocks.iter().all(|b| b.is_finite() && *b <= max) {
            return Err("impact bound not finite or above its list's");
        }
        let mut previous = None;
        for row in rows.clone() {
            let doc = self.posting_docs[row];
            if doc as usize >= docs || previous.is_some_and(|p| p >= doc) {
                return Err("posting ordinals not ascending below the document count");
            }
            previous = Some(doc);
            let positions =
                &self.positions[self.pos_offsets[row] as usize..self.pos_offsets[row + 1] as usize];
            if positions.is_empty() || !positions.windows(2).all(|w| w[0] < w[1]) {
                return Err("positions empty or not ascending");
            }
            let field_len = self.field_lengths[doc as usize * Field::COUNT + field_ord];
            if tf_norm(positions.len() as u32, field_len)
                > blocks[(row - rows.start) / BLOCK_POSTINGS]
            {
                return Err("impact bound below a posting's");
            }
        }
        Ok(())
    }

    /// Bytes the columns hold.
    fn byte_len(&self) -> usize {
        use std::mem::size_of_val;
        size_of_val(&self.field_starts)
            + size_of_val(&self.term_offsets[..])
            + self.term_bytes.len()
            + size_of_val(&self.list_offsets[..])
            + size_of_val(&self.block_offsets[..])
            + size_of_val(&self.max_tf_norm[..])
            + size_of_val(&self.posting_docs[..])
            + size_of_val(&self.pos_offsets[..])
            + size_of_val(&self.positions[..])
            + size_of_val(&self.block_max[..])
            + size_of_val(&self.fwd_offsets[..])
            + size_of_val(&self.fwd_lists[..])
            + size_of_val(&self.ids[..])
            + size_of_val(&self.field_lengths[..])
    }
}

/// One sealed segment: checked [`Columns`] plus the id → ordinal map
/// derived from its document table. Immutable from construction on.
#[derive(Debug)]
pub(crate) struct FlatSegment {
    cols: Columns,
    /// The newest slot of each id — the only one that can be live.
    by_id: HashMap<SchemaId, DocOrd>,
}

impl FlatSegment {
    /// Columns from outside the program (the codec load path).
    pub(crate) fn checked(cols: Columns) -> Result<Self, &'static str> {
        cols.validate()?;
        Ok(Self::derive(cols))
    }

    /// Columns this crate built itself (a frozen head, a merge).
    pub(crate) fn trusted(cols: Columns) -> Self {
        debug_assert_eq!(cols.validate(), Ok(()));
        Self::derive(cols)
    }

    fn derive(cols: Columns) -> Self {
        let by_id = cols
            .ids
            .iter()
            .enumerate()
            .map(|(ord, &id)| (id, ord as DocOrd))
            .collect();
        FlatSegment { by_id, cols }
    }

    pub(crate) fn columns(&self) -> &Columns {
        &self.cols
    }

    /// Document slots, tombstoned ones included.
    pub(crate) fn doc_count(&self) -> usize {
        self.cols.ids.len()
    }

    pub(crate) fn list_count(&self) -> usize {
        self.cols.list_count()
    }

    #[inline]
    pub(crate) fn id(&self, ord: DocOrd) -> SchemaId {
        self.cols.ids[ord as usize]
    }

    #[inline]
    pub(crate) fn field_len(&self, ord: DocOrd, field_ord: usize) -> u32 {
        self.cols.field_lengths[ord as usize * Field::COUNT + field_ord]
    }

    /// The slot that holds `id`'s newest copy, live or not.
    pub(crate) fn ord_of(&self, id: SchemaId) -> Option<DocOrd> {
        self.by_id.get(&id).copied()
    }

    /// The lists document `ord` has a posting in.
    pub(crate) fn lists_of(&self, ord: DocOrd) -> &[u32] {
        let c = &self.cols;
        &c.fwd_lists[c.fwd_offsets[ord as usize] as usize..c.fwd_offsets[ord as usize + 1] as usize]
    }

    /// The ids of one field's lists, ascending by term.
    pub(crate) fn field_lists(&self, field_ord: usize) -> Range<u32> {
        self.cols.field_starts[field_ord]..self.cols.field_starts[field_ord + 1]
    }

    pub(crate) fn term(&self, list: u32) -> &str {
        std::str::from_utf8(self.cols.term(list as usize)).expect("checked at construction")
    }

    /// The id of `(field, term)`'s list: a binary search of the field's
    /// rows of the term table, comparing bytes in place.
    pub(crate) fn find(&self, field: Field, term: &str) -> Option<u32> {
        let rows = self.field_lists(field.ordinal() as usize);
        let (mut lo, mut hi) = (rows.start as usize, rows.end as usize);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.cols.term(mid).cmp(term.as_bytes()) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(mid as u32),
            }
        }
        None
    }

    /// List `id` as slices of the columns.
    #[inline]
    pub(crate) fn list(&self, id: u32) -> List<'_> {
        let c = &self.cols;
        let l = id as usize;
        let rows = c.list_offsets[l] as usize..c.list_offsets[l + 1] as usize;
        List {
            offsets: &c.pos_offsets[rows.start..=rows.end],
            docs: &c.posting_docs[rows],
            arena: &c.positions,
            max_tf_norm: c.max_tf_norm[l],
            block_max: &c.block_max[c.block_offsets[l] as usize..c.block_offsets[l + 1] as usize],
        }
    }

    /// Heap bytes of this segment: what the columns hold plus the id map.
    pub(crate) fn deep_bytes(&self) -> usize {
        use std::mem::size_of;
        self.cols.byte_len() + self.by_id.capacity() * (size_of::<(SchemaId, DocOrd)>() + 1)
    }
}

/// A segment's tombstones, published copy-on-write alongside the frozen
/// data. `dead_df` is, per list id, how many of the list's postings point
/// at dead documents, so the scorer's live df is `posting count − dead df`
/// without a postings rescan. It is empty until the first tombstone and
/// one entry a list afterwards.
#[derive(Debug, Clone, Default)]
pub(crate) struct LiveOverlay {
    bits: Vec<u64>,
    dead_df: Vec<u32>,
    pub(crate) dead_docs: usize,
}

impl LiveOverlay {
    /// Is `ord` tombstoned by this overlay?
    #[inline]
    pub(crate) fn is_dead(&self, ord: DocOrd) -> bool {
        bit(&self.bits, ord as usize)
    }

    /// How many of list `list`'s postings this overlay kills.
    #[inline]
    pub(crate) fn dead_df(&self, list: u32) -> u32 {
        self.dead_df.get(list as usize).copied().unwrap_or(0)
    }

    /// The overlay bitset words.
    pub(crate) fn bits(&self) -> &[u64] {
        &self.bits
    }
}

/// One immutable segment as a snapshot sees it: frozen data plus the
/// overlay current at publish time.
#[derive(Debug, Clone)]
pub(crate) struct Segment {
    pub data: Arc<FlatSegment>,
    pub live: Arc<LiveOverlay>,
}

impl Segment {
    /// Is the document at `ord` deleted?
    #[inline]
    pub(crate) fn is_deleted(&self, ord: DocOrd) -> bool {
        self.live.is_dead(ord)
    }

    /// The scorer's live document frequency for list `id` of this segment:
    /// its posting count less the postings of dead documents.
    #[inline]
    pub(crate) fn live_df(&self, id: u32) -> usize {
        let rows = &self.data.columns().list_offsets[id as usize..id as usize + 2];
        (rows[1] - rows[0] - self.live.dead_df(id)) as usize
    }

    /// Live documents in this segment.
    pub(crate) fn live_docs(&self) -> usize {
        self.data.doc_count() - self.live.dead_docs
    }
}

/// The writer's view of a sealed segment: the frozen data plus the
/// *mutable master* overlay. `overlay()` clones it into an immutable `Arc`
/// on demand (cached until the next tombstone), which is what makes
/// publishing O(changed overlays), not O(corpus).
#[derive(Debug)]
pub(crate) struct SealedSegment {
    pub data: Arc<FlatSegment>,
    master: LiveOverlay,
    cached: Option<Arc<LiveOverlay>>,
}

impl SealedSegment {
    /// `data` with the documents `bits` names tombstoned, each counted
    /// against the lists its forward row names: the one way a bitset
    /// becomes an overlay, for a frozen head, a merge's output and a loaded
    /// segment alike. Every bit must name a document of `data`.
    pub(crate) fn with_tombstones(data: Arc<FlatSegment>, bits: &[u64]) -> Self {
        let mut segment = SealedSegment {
            data,
            master: LiveOverlay::default(),
            cached: None,
        };
        for ord in late_tombstones(&[], bits) {
            segment.tombstone(ord);
        }
        segment
    }

    /// A segment read back with the overlay bitset it was saved with (the
    /// codec load path): the bits must name documents of `data`.
    pub(crate) fn restored(data: Arc<FlatSegment>, bits: &[u64]) -> Result<Self, &'static str> {
        let docs = data.doc_count();
        let in_range = bits.len() <= docs.div_ceil(64)
            && (bits.len() * 64 <= docs || bits[docs / 64] >> (docs % 64) == 0);
        if !in_range {
            return Err("overlay names a document past the last");
        }
        Ok(Self::with_tombstones(data, bits))
    }

    /// Is `ord` dead?
    pub(crate) fn is_dead(&self, ord: DocOrd) -> bool {
        self.master.is_dead(ord)
    }

    /// Tombstone a (currently live) document: set the overlay bit and
    /// count it against every list it appears in.
    pub(crate) fn tombstone(&mut self, ord: DocOrd) {
        debug_assert!(!self.is_dead(ord));
        let word = ord as usize / 64;
        let overlay = &mut self.master;
        if overlay.bits.len() <= word {
            overlay.bits.resize(word + 1, 0);
        }
        overlay.bits[word] |= 1u64 << (ord as usize % 64);
        overlay.dead_docs += 1;
        if overlay.dead_df.is_empty() {
            overlay.dead_df.resize(self.data.list_count(), 0);
        }
        for &list in self.data.lists_of(ord) {
            overlay.dead_df[list as usize] += 1;
        }
        self.cached = None;
    }

    /// The overlay bitset words (for merge diffing).
    pub(crate) fn dead_bits(&self) -> &[u64] {
        &self.master.bits
    }

    /// Live documents.
    pub(crate) fn live_count(&self) -> usize {
        self.data.doc_count() - self.master.dead_docs
    }

    /// Total document slots including tombstones.
    pub(crate) fn total_count(&self) -> usize {
        self.data.doc_count()
    }

    /// The immutable overlay to publish, cached across publishes while no
    /// new tombstone lands on this segment.
    pub(crate) fn overlay(&mut self) -> Arc<LiveOverlay> {
        if let Some(o) = &self.cached {
            return o.clone();
        }
        let o = if self.master.dead_docs == 0 {
            // One process-wide empty overlay, shared by every segment
            // without a tombstone: publishing those never allocates.
            static EMPTY: OnceLock<Arc<LiveOverlay>> = OnceLock::new();
            EMPTY
                .get_or_init(|| Arc::new(LiveOverlay::default()))
                .clone()
        } else {
            Arc::new(self.master.clone())
        };
        self.cached = Some(o.clone());
        o
    }

    /// This segment as a snapshot publishes it.
    pub(crate) fn published(&mut self) -> Segment {
        Segment {
            data: self.data.clone(),
            live: self.overlay(),
        }
    }
}

/// Compact a list of segments (with their dead bitsets) into one fresh,
/// fully-live segment with tight impact bounds.
///
/// Documents keep their relative order (parts in order, ordinals ascending
/// within each part), so every surviving document accumulates the exact
/// same f64 additions in the exact same order afterwards — compaction is
/// bitwise invisible to search, the invariant the segmented-vs-monolithic
/// oracle asserts across merges.
pub(crate) fn compact(parts: &[(Arc<FlatSegment>, Vec<u64>)]) -> FlatSegment {
    // Room for everything the parts hold: what the dead documents leave
    // unused is never touched.
    let total = |len: fn(&Columns) -> usize| parts.iter().map(|(p, _)| len(p.columns())).sum();
    let mut out = Columns::with_capacity(
        total(|c| c.ids.len()),
        total(Columns::list_count),
        total(|c| c.posting_docs.len()),
        total(|c| c.positions.len()),
        total(|c| c.block_max.len()),
        total(|c| c.term_bytes.len()),
    );
    let mut remaps: Vec<Vec<Option<DocOrd>>> = Vec::with_capacity(parts.len());
    for (data, dead) in parts {
        let remap = (0..data.doc_count() as DocOrd)
            .map(|ord| {
                if bit(dead, ord as usize) {
                    return None;
                }
                let lengths = ord as usize * Field::COUNT..(ord as usize + 1) * Field::COUNT;
                out.ids.push(data.id(ord));
                out.field_lengths
                    .extend_from_slice(&data.columns().field_lengths[lengths]);
                Some(out.ids.len() as DocOrd - 1)
            })
            .collect();
        remaps.push(remap);
    }
    // Where each part's lists went, for the forward index.
    let mut new_list: Vec<Vec<u32>> = parts
        .iter()
        .map(|(data, _)| vec![u32::MAX; data.list_count()])
        .collect();
    for field_ord in 0..Field::COUNT {
        // Merge the parts' term tables in term order; within one output
        // list, parts contribute in input order, so remapped ordinals are
        // strictly ascending and the bounds come out tight.
        let mut merged: BTreeMap<&[u8], Vec<(usize, u32)>> = BTreeMap::new();
        for (pi, (data, _)) in parts.iter().enumerate() {
            for id in data.field_lists(field_ord) {
                let term = data.columns().term(id as usize);
                merged.entry(term).or_default().push((pi, id));
            }
        }
        for (term, lists) in merged {
            let mut merged_list = GrowingList::default();
            for &(pi, id) in &lists {
                let list = parts[pi].0.list(id);
                for (i, &doc) in list.docs.iter().enumerate() {
                    if let Some(ord) = remaps[pi][doc as usize] {
                        let field_len = out.field_lengths[ord as usize * Field::COUNT + field_ord];
                        merged_list.push(ord, list.positions(i), field_len);
                    }
                }
            }
            if merged_list.docs.is_empty() {
                continue;
            }
            for (pi, id) in lists {
                new_list[pi][id as usize] = out.list_count() as u32;
            }
            out.push_list(term, &merged_list);
        }
        out.field_starts[field_ord + 1] = out.list_count() as u32;
    }
    // A live document keeps every one of its postings, so each of its
    // lists survived and its forward-index entries carry over renamed.
    for (pi, (data, _)) in parts.iter().enumerate() {
        for ord in 0..data.doc_count() as DocOrd {
            if remaps[pi][ord as usize].is_some() {
                let lists = data.lists_of(ord).iter().map(|&l| new_list[pi][l as usize]);
                out.fwd_lists.extend(lists);
                out.fwd_offsets.push(out.fwd_lists.len() as u32);
            }
        }
    }
    FlatSegment::trusted(out)
}

/// Ordinals that are dead in `now` but were not in `then` — the
/// tombstones that raced a background merge and must be re-applied to the
/// compacted segment before it is published.
pub(crate) fn late_tombstones(then: &[u64], now: &[u64]) -> Vec<DocOrd> {
    let mut out = Vec::new();
    for (w, &now_word) in now.iter().enumerate() {
        let then_word = then.get(w).copied().unwrap_or(0);
        let mut fresh = now_word & !then_word;
        while fresh != 0 {
            let b = fresh.trailing_zeros();
            out.push((w * 64) as DocOrd + b);
            fresh &= fresh - 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::head::HeadBuilder;
    use crate::session::{AnalyzedDoc, Interner, Key, RowTable};

    /// One document a given id, each with the single posting `(Title, "t")`.
    fn segment_with(ids: &[u64]) -> Arc<FlatSegment> {
        let mut head = HeadBuilder::default();
        let (mut terms, mut rows) = (Interner::new(), RowTable::new());
        let key = Key::new(0, terms.intern("t").0, 1);
        rows.cover(terms.len());
        rows.next_head();
        for &id in ids {
            let doc = AnalyzedDoc {
                id: SchemaId(id),
                field_lengths: [1, 0, 0, 0],
                keys: &[key],
                positions: &[0],
                first_position: 0,
            };
            head.push(&doc, &terms, &mut rows);
        }
        head.freeze().data
    }

    #[test]
    fn overlay_tombstone_updates_dead_df_and_bits() {
        let mut seg = SealedSegment::with_tombstones(segment_with(&[1, 2, 3]), &[]);
        let t = seg.data.find(Field::Title, "t").expect("the one list");
        assert!(seg.data.find(Field::Title, "missing").is_none());
        assert!(seg.data.find(Field::Elements, "t").is_none());
        assert!(!seg.is_dead(1));
        seg.tombstone(1);
        assert!(seg.is_dead(1));
        assert_eq!(seg.live_count(), 2);
        let o = seg.overlay();
        assert!(o.is_dead(1));
        assert!(!o.is_dead(0));
        assert_eq!(o.dead_df(t), 1);
        let published = Segment {
            data: seg.data.clone(),
            live: o,
        };
        assert_eq!(published.live_df(t), 2);
        assert_eq!(published.live_docs(), 2);
    }

    #[test]
    fn overlay_arc_is_cached_until_the_next_tombstone() {
        let mut seg = SealedSegment::with_tombstones(segment_with(&[1, 2]), &[]);
        let a = seg.overlay();
        let b = seg.overlay();
        assert!(Arc::ptr_eq(&a, &b));
        seg.tombstone(0);
        let c = seg.overlay();
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn a_restored_overlay_must_name_live_documents() {
        let data = segment_with(&[1, 2, 3]);
        let seg = SealedSegment::restored(data.clone(), &[0b101]).unwrap();
        assert_eq!(seg.live_count(), 1);
        assert!(seg.is_dead(0) && !seg.is_dead(1) && seg.is_dead(2));
        assert!(SealedSegment::restored(data.clone(), &[]).is_ok());
        assert!(SealedSegment::restored(data.clone(), &[0b1000]).is_err());
        assert!(SealedSegment::restored(data, &[0, 1]).is_err());
    }

    #[test]
    fn compact_drops_dead_docs_and_remaps_ordinals() {
        let data = segment_with(&[10, 20, 30]);
        let dead = vec![1u64 << 1]; // kill ordinal 1 (id 20)
        let out = compact(&[(data, dead)]);
        assert_eq!(out.doc_count(), 2);
        assert_eq!(out.id(0), SchemaId(10));
        assert_eq!(out.id(1), SchemaId(30));
        let t = out.find(Field::Title, "t").unwrap();
        assert_eq!(out.list(t).docs, [0, 1]);
        assert_eq!(out.ord_of(SchemaId(30)), Some(1));
        assert_eq!(out.lists_of(1), [t]);
    }

    #[test]
    fn compact_concatenates_parts_in_order() {
        let a = segment_with(&[1, 2]);
        let b = segment_with(&[3]);
        let out = compact(&[(a, Vec::new()), (b, Vec::new())]);
        let ids: Vec<u64> = (0..3).map(|ord| out.id(ord).0).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        let t = out.find(Field::Title, "t").unwrap();
        assert_eq!(out.list(t).doc_freq(), 3);
    }

    #[test]
    fn late_tombstone_diff_finds_new_bits_only() {
        let then = vec![0b0101u64];
        let now = vec![0b1101u64, 1 << 3];
        assert_eq!(late_tombstones(&then, &now), vec![3, 64 + 3]);
        assert!(late_tombstones(&now, &now).is_empty());
        assert_eq!(late_tombstones(&[], &[1]), vec![0]);
    }
}
