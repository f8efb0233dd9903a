//! Index segments: the immutable unit of the Lucene-style index layout.
//!
//! A sealed segment has exactly one representation, [`Columns`]: a sorted
//! term table whose rows point into one block-coded postings stream with
//! its skip rows and impact bounds, plus a forward index of list ids per
//! document and the document table. Phase 1 scans those columns, the
//! merger reads and writes them, and the codec stores them as they are —
//! there is no second form to decode into or rebuild from. A
//! [`FlatSegment`] is a `Columns` whose structural invariants have been
//! checked (or that this crate built itself), together with the one thing
//! derived from it: its ordinals sorted by id.
//!
//! A tombstone is recorded one way only: as a bit of a copy-on-write
//! [`LiveOverlay`] next to the frozen data, whether it was set while the
//! segment was the head or after it sealed, so a tombstone costs
//! O(overlay), never a segment rebuild. A [`Segment`] pairs one
//! `FlatSegment` with the overlay that was current when its snapshot was
//! published: the pair is immutable, so a search holding it can never
//! observe a torn state.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use schemr_model::SchemaId;

use crate::field::Field;
use crate::postings::{
    check_run, encode_block, push_run, read_run, run_value, run_width, tf_norm, BlockBuf,
    BlockCodes, List, BLOCK_POSTINGS,
};
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
/// id is its row in the term table; every `*_offsets` and `*_starts`
/// column has one entry more than the rows it cuts, starting at 0.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Columns {
    /// Field `f`'s lists are rows `field_starts[f]..field_starts[f + 1]`,
    /// ascending by term.
    pub field_starts: [u32; Field::COUNT + 1],
    /// List `l`'s term is `term_bytes[term_offsets[l]..term_offsets[l + 1]]`.
    pub term_offsets: Vec<u32>,
    pub term_bytes: Vec<u8>,
    /// List `l`'s postings are `list_offsets[l]..list_offsets[l + 1]`,
    /// counted across the segment: its document frequency is the span.
    pub list_offsets: Vec<u32>,
    /// List `l`'s blocks are rows `block_offsets[l]..block_offsets[l + 1]`
    /// of the per-block columns, ⌈df / [`BLOCK_POSTINGS`]⌉ of them.
    pub block_offsets: Vec<u32>,
    /// Per list: the largest `√tf/√field_len` of any posting.
    pub max_tf_norm: Vec<f64>,
    /// Per block, its skip row: the first document, where its bytes start
    /// in `blocks` (`block_starts` has one entry more, ending at the
    /// stream's length) and its largest `√tf/√field_len`.
    pub block_first: Vec<DocOrd>,
    pub block_starts: Vec<u32>,
    pub block_max: Vec<f64>,
    /// The block stream: every list's blocks, list after list, each coded
    /// as [`crate::postings`] lays out.
    pub blocks: Vec<u8>,
    /// Positions across all postings: the sum of their term frequencies.
    pub occurrences: u32,
    /// Forward index: document `d` has a posting in exactly the
    /// `fwd_offsets[d + 1] − fwd_offsets[d]` lists of the delta run
    /// `fwd_bytes[fwd_starts[d]..fwd_starts[d + 1]]`, ascending, so a
    /// tombstone counts against those lists and no others.
    pub fwd_offsets: Vec<u32>,
    pub fwd_starts: Vec<u32>,
    pub fwd_bytes: Vec<u8>,
    /// Document table: external id and per-field token counts
    /// (row-major, [`Field::COUNT`] a document).
    pub ids: Vec<SchemaId>,
    pub field_lengths: Vec<u32>,
}

impl Columns {
    /// No documents and no lists yet, with room for this many of each
    /// thing: filled to these counts, no column reallocates.
    pub(crate) fn with_capacity(
        docs: usize,
        lists: usize,
        blocks: usize,
        block_bytes: usize,
        fwd_bytes: usize,
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
            block_first: Vec::with_capacity(blocks),
            block_starts: offsets(blocks),
            block_max: Vec::with_capacity(blocks),
            blocks: Vec::with_capacity(block_bytes),
            occurrences: 0,
            fwd_offsets: offsets(docs),
            fwd_starts: offsets(docs),
            fwd_bytes: Vec::with_capacity(fwd_bytes),
            ids: Vec::with_capacity(docs),
            field_lengths: Vec::with_capacity(docs * Field::COUNT),
        }
    }

    /// Append the next document's forward row: the ids of its lists,
    /// ascending, at their [`run_width`].
    pub(crate) fn push_row(&mut self, lists: &[u32], width: u32) {
        push_run(&mut self.fwd_bytes, lists, width);
        let end = self.fwd_offsets.last().expect("starts at 0") + lists.len() as u32;
        self.fwd_offsets.push(end);
        self.fwd_starts.push(self.fwd_bytes.len() as u32);
    }

    /// Rows of the term table.
    pub(crate) fn list_count(&self) -> usize {
        self.term_offsets.len() - 1
    }

    /// Postings across all lists.
    pub(crate) fn postings(&self) -> usize {
        *self.list_offsets.last().expect("starts at 0") as usize
    }

    pub(crate) fn term(&self, list: usize) -> &[u8] {
        &self.term_bytes[self.term_offsets[list] as usize..self.term_offsets[list + 1] as usize]
    }

    /// List `l` over the block columns.
    #[inline]
    pub(crate) fn list(&self, l: usize) -> List<'_> {
        let blocks = self.block_offsets[l] as usize..self.block_offsets[l + 1] as usize;
        List::new(
            (self.list_offsets[l + 1] - self.list_offsets[l]) as usize,
            &self.block_first[blocks.clone()],
            &self.block_starts[blocks.start..=blocks.end],
            &self.blocks,
            self.max_tf_norm[l],
            &self.block_max[blocks],
        )
    }

    /// Document `doc`'s forward row: its list count and the forward bytes
    /// from its run on — the run is the first `fwd_starts[doc + 1] −
    /// fwd_starts[doc]` of them, and the rest lets a reader read every
    /// packed value of it in place.
    fn row(&self, doc: usize) -> (usize, &[u8]) {
        let count = self.fwd_offsets[doc + 1] - self.fwd_offsets[doc];
        (
            count as usize,
            &self.fwd_bytes[self.fwd_starts[doc] as usize..],
        )
    }

    /// Check every structural fact a scan, a tombstone or a merge relies
    /// on, so that columns read from a file can be used without a bounds
    /// panic, an underflowing df or a bound that prunes a real hit. Every
    /// block and every forward row is decoded once, checked.
    pub(crate) fn validate(&self) -> Result<(), &'static str> {
        let docs = self.ids.len();
        let lists = self.max_tf_norm.len();
        let blocks = self.block_max.len();
        if docs > u32::MAX as usize
            || self.term_offsets.len() != lists + 1
            || self.list_offsets.len() != lists + 1
            || self.block_offsets.len() != lists + 1
            || self.block_first.len() != blocks
            || self.block_starts.len() != blocks + 1
            || self.fwd_offsets.len() != docs + 1
            || self.fwd_starts.len() != docs + 1
            || self.field_lengths.len() != docs * Field::COUNT
        {
            return Err("column lengths disagree");
        }
        let postings = self.postings();
        if !(spans(&self.term_offsets, self.term_bytes.len())
            && spans(&self.list_offsets, postings)
            && spans(&self.block_offsets, blocks)
            && spans(&self.block_starts, self.blocks.len())
            && spans(&self.fwd_offsets, postings)
            && spans(&self.fwd_starts, self.fwd_bytes.len())
            && spans(&self.field_starts, lists))
        {
            return Err("offsets out of bounds or not monotone");
        }
        for doc in 0..docs {
            let (count, row) = self.row(doc);
            let len = self.fwd_starts[doc + 1] - self.fwd_starts[doc];
            check_run(&row[..len as usize], count)?;
        }
        // Per document: how many entries of its forward row the postings
        // walked so far have consumed, and the last one.
        let mut rows = vec![(0u32, 0u32); docs];
        let mut buf = BlockBuf::default();
        let mut occurrences = 0u64;
        for field_ord in 0..Field::COUNT {
            let field_rows =
                self.field_starts[field_ord] as usize..self.field_starts[field_ord + 1] as usize;
            for list in field_rows.clone() {
                if std::str::from_utf8(self.term(list)).is_err() {
                    return Err("term is not UTF-8");
                }
                if list > field_rows.start && self.term(list - 1) >= self.term(list) {
                    return Err("terms not sorted");
                }
                occurrences += self.validate_list(list, field_ord, &mut buf, &mut rows)?;
            }
        }
        if occurrences != u64::from(self.occurrences) {
            return Err("tf sums disagree with the positions count");
        }
        if (0..docs).any(|doc| rows[doc].0 as usize != self.row(doc).0) {
            return Err("forward index disagrees with the postings");
        }
        Ok(())
    }

    /// [`Columns::validate`] for one list of field `field_ord`, its blocks
    /// decoded through `buf`: returns its position count.
    ///
    /// The forward index is the exact inverse of the postings: walking
    /// lists in id order, each posting consumes the next entry of its
    /// document's forward row (`rows` says how far each row is read), and
    /// that entry must name the list. The lengths agree, so once every row
    /// has been read to its end exactly, nothing is left over.
    fn validate_list(
        &self,
        list: usize,
        field_ord: usize,
        buf: &mut BlockBuf,
        rows: &mut [(u32, u32)],
    ) -> Result<u64, &'static str> {
        let docs = self.ids.len();
        let view = self.list(list);
        if view.block_count() != view.doc_freq().div_ceil(BLOCK_POSTINGS) {
            return Err("block count is not ⌈df/64⌉");
        }
        let max = view.max_tf_norm;
        if !max.is_finite() || !view.block_max.iter().all(|b| b.is_finite() && *b <= max) {
            return Err("impact bound not finite or above its list's");
        }
        let field_len = |doc: DocOrd| self.field_lengths[doc as usize * Field::COUNT + field_ord];
        let mut positions = 0;
        let mut last = None;
        let mut cursor = view.cursor(buf);
        for b in 0..view.block_count() {
            positions += cursor.load_checked(b, docs)?;
            if last >= Some(view.block_first(b)) {
                return Err("posting ordinals not ascending below the document count");
            }
            // No posting's impact exceeds the largest tf's over the
            // shortest field's (√ and ÷ round monotonically), which in most
            // blocks is the bound itself: only a block whose bound is below
            // that is checked a posting at a time.
            let (docs, tfs) = cursor.postings();
            let shortest = docs.iter().map(|&doc| field_len(doc)).min();
            let most = tfs.iter().max();
            let bound = view.block_max[b];
            if tf_norm(*most.unwrap_or(&0), shortest.unwrap_or(0)) > bound
                && docs
                    .iter()
                    .zip(tfs)
                    .any(|(&doc, &tf)| tf_norm(tf, field_len(doc)) > bound)
            {
                return Err("impact bound below a posting's");
            }
            for &doc in docs {
                let (_, row) = self.row(doc as usize);
                let (next, entry) = &mut rows[doc as usize];
                if run_value(row, *next as usize, *entry) != list as u64 {
                    return Err("forward index disagrees with the postings");
                }
                (*next, *entry) = (*next + 1, list as u32);
            }
            last = cursor.docs().last().copied();
        }
        Ok(positions)
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
            + size_of_val(&self.block_first[..])
            + size_of_val(&self.block_starts[..])
            + size_of_val(&self.block_max[..])
            + self.blocks.len()
            + size_of_val(&self.fwd_offsets[..])
            + size_of_val(&self.fwd_starts[..])
            + self.fwd_bytes.len()
            + size_of_val(&self.ids[..])
            + size_of_val(&self.field_lengths[..])
    }
}

/// One sealed segment: checked [`Columns`] plus the id → ordinal index
/// derived from its document table. Immutable from construction on.
#[derive(Debug)]
pub(crate) struct FlatSegment {
    cols: Columns,
    /// Every ordinal, sorted by (id, ordinal): an id's slots are a run,
    /// and its newest — the only one that can be live — ends it.
    by_id: Vec<DocOrd>,
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
        let mut by_id: Vec<DocOrd> = (0..cols.ids.len() as DocOrd).collect();
        by_id.sort_unstable_by_key(|&ord| (cols.ids[ord as usize], ord));
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
        // Outside the segment's id range at once: a bulk build asks every
        // older segment about each new, larger id.
        let (&first, &last) = (self.by_id.first()?, self.by_id.last()?);
        if id < self.id(first) || id > self.id(last) {
            return None;
        }
        let run_end = self.by_id.partition_point(|&ord| self.id(ord) <= id);
        let newest = self.by_id[..run_end].last().copied()?;
        (self.id(newest) == id).then_some(newest)
    }

    /// The lists document `ord` has a posting in, ascending.
    pub(crate) fn lists_of(&self, ord: DocOrd) -> impl Iterator<Item = u32> + '_ {
        let (count, run) = self.cols.row(ord as usize);
        read_run(run, count)
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

    /// List `id` over the block columns.
    #[inline]
    pub(crate) fn list(&self, id: u32) -> List<'_> {
        self.cols.list(id as usize)
    }

    /// Heap bytes of this segment: what the columns hold plus the id
    /// index.
    pub(crate) fn deep_bytes(&self) -> usize {
        self.cols.byte_len() + std::mem::size_of_val(&self.by_id[..])
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

    /// Heap bytes of the overlay.
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.bits.capacity() * size_of::<u64>() + self.dead_df.capacity() * size_of::<u32>()
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

/// The writer's view of a sealed segment: the frozen data plus its
/// overlay, shared with every snapshot published since the last
/// tombstone. A tombstone copies the overlay first if a snapshot still
/// holds it, which is what makes publishing O(changed overlays), not
/// O(corpus), and keeps one copy of an overlay while nothing changes it.
#[derive(Debug)]
pub(crate) struct SealedSegment {
    pub data: Arc<FlatSegment>,
    overlay: Arc<LiveOverlay>,
}

impl SealedSegment {
    /// `data` with the documents `bits` names tombstoned, each counted
    /// against the lists its forward row names: the one way a bitset
    /// becomes an overlay, for a frozen head, a merge's output and a loaded
    /// segment alike. Every bit must name a document of `data`.
    pub(crate) fn with_tombstones(data: Arc<FlatSegment>, bits: &[u64]) -> Self {
        // One process-wide empty overlay, shared by every segment without
        // a tombstone: publishing those never allocates.
        static EMPTY: OnceLock<Arc<LiveOverlay>> = OnceLock::new();
        let mut segment = SealedSegment {
            data,
            overlay: EMPTY
                .get_or_init(|| Arc::new(LiveOverlay::default()))
                .clone(),
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
        self.overlay.is_dead(ord)
    }

    /// Tombstone a (currently live) document: set the overlay bit and
    /// count it against every list it appears in.
    pub(crate) fn tombstone(&mut self, ord: DocOrd) {
        debug_assert!(!self.is_dead(ord));
        let word = ord as usize / 64;
        let overlay = Arc::make_mut(&mut self.overlay);
        if overlay.bits.len() <= word {
            overlay.bits.resize(word + 1, 0);
        }
        overlay.bits[word] |= 1u64 << (ord as usize % 64);
        overlay.dead_docs += 1;
        if overlay.dead_df.is_empty() {
            overlay.dead_df.resize(self.data.list_count(), 0);
        }
        for list in self.data.lists_of(ord) {
            overlay.dead_df[list as usize] += 1;
        }
    }

    /// The overlay bitset words (for merge diffing).
    pub(crate) fn dead_bits(&self) -> &[u64] {
        &self.overlay.bits
    }

    /// Live documents.
    pub(crate) fn live_count(&self) -> usize {
        self.data.doc_count() - self.overlay.dead_docs
    }

    /// Total document slots including tombstones.
    pub(crate) fn total_count(&self) -> usize {
        self.data.doc_count()
    }

    /// The immutable overlay to publish: shared until the next tombstone
    /// lands on this segment.
    pub(crate) fn overlay(&self) -> Arc<LiveOverlay> {
        self.overlay.clone()
    }

    /// This segment as a snapshot publishes it.
    pub(crate) fn published(&mut self) -> Segment {
        Segment {
            data: self.data.clone(),
            live: self.overlay(),
        }
    }
}

/// Writes lists into a segment's columns a posting at a time, each
/// posting given as its document, its position codes, their OR and its
/// `tf_norm`: how a freeze and a merge both write theirs. It stages up to
/// [`BLOCK_POSTINGS`] postings, their codes copied, and writes each full
/// block through [`encode_block`], so a list is cut into blocks, sized
/// and bounded one way whoever writes it.
pub(crate) struct ListWriter {
    len: usize,
    docs: [DocOrd; BLOCK_POSTINGS],
    /// Posting `i`'s codes are `codes[ends[i]..ends[i + 1]]`.
    ends: [u32; BLOCK_POSTINGS + 1],
    codes: Vec<u32>,
    summary: BlockCodes,
    bound: f64,
    /// The list so far: its postings and its largest bound.
    postings: usize,
    max: f64,
}

impl ListWriter {
    pub(crate) fn new() -> Self {
        ListWriter {
            len: 0,
            docs: [0; BLOCK_POSTINGS],
            ends: [0; BLOCK_POSTINGS + 1],
            codes: Vec::new(),
            summary: BlockCodes::default(),
            bound: 0.0,
            postings: 0,
            max: 0.0,
        }
    }

    /// Append `doc`'s posting, above the list's last document, to the
    /// list being written into `cols`: its position codes, `codes_or`
    /// their OR, and its `tf_norm`.
    #[inline]
    pub(crate) fn push(
        &mut self,
        cols: &mut Columns,
        doc: DocOrd,
        codes: &[u32],
        codes_or: u32,
        norm: f64,
    ) {
        let gap = match self.len {
            0 => 0,
            len => doc - self.docs[len - 1] - 1,
        };
        self.codes.extend(codes.iter().copied());
        self.summary.add(gap, codes.len() as u32, codes_or);
        self.bound = self.bound.max(norm);
        self.docs[self.len] = doc;
        self.len += 1;
        self.ends[self.len] = self.codes.len() as u32;
        if self.len == BLOCK_POSTINGS {
            self.flush(cols);
        }
    }

    /// Write the staged postings as the next block of `cols`.
    fn flush(&mut self, cols: &mut Columns) {
        let docs = &self.docs[..self.len];
        cols.block_first.push(docs[0]);
        cols.block_max.push(self.bound);
        let widths = self.summary.widths();
        encode_block(
            &mut cols.blocks,
            widths,
            docs,
            &self.ends[..=self.len],
            &self.codes,
        );
        cols.block_starts.push(cols.blocks.len() as u32);
        cols.occurrences += self.codes.len() as u32;
        self.postings += self.len;
        self.max = self.max.max(self.bound);
        (self.len, self.summary, self.bound) = (0, BlockCodes::default(), 0.0);
        self.codes.clear();
    }

    /// Close the list as the next row of `cols`' term table, under
    /// `term`, and start the next one. A list with no postings writes
    /// nothing: returns whether there was one.
    pub(crate) fn finish(&mut self, cols: &mut Columns, term: &[u8]) -> bool {
        if self.len > 0 {
            self.flush(cols);
        }
        if self.postings == 0 {
            return false;
        }
        cols.term_bytes.extend_from_slice(term);
        cols.term_offsets.push(cols.term_bytes.len() as u32);
        cols.list_offsets
            .push((cols.postings() + self.postings) as u32);
        cols.block_offsets.push(cols.block_max.len() as u32);
        cols.max_tf_norm.push(self.max);
        (self.postings, self.max) = (0, 0.0);
        true
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
///
/// Postings move as their blocks store them: each input block's position
/// codes come out in one unpack, and each live posting's codes go into
/// its output block as they are, never added up into positions.
pub(crate) fn compact(parts: &[(Arc<FlatSegment>, Vec<u64>)]) -> FlatSegment {
    // Room for everything the parts hold. Lists re-cut into blocks and
    // re-coded at new widths can come out a little longer or shorter; the
    // two streams are trimmed to their lengths at the end.
    let total = |len: fn(&Columns) -> usize| parts.iter().map(|(p, _)| len(p.columns())).sum();
    let mut out = Columns::with_capacity(
        total(|c| c.ids.len()),
        total(Columns::list_count),
        total(|c| c.block_max.len()),
        total(|c| c.blocks.len()),
        total(|c| c.fwd_bytes.len()),
        total(|c| c.term_bytes.len()),
    );
    // Per part, where its documents and its lists start in `remap` and
    // `new_list`: the ordinal each document gets (`None` when dead) and
    // the id each list gets.
    let mut bases = Vec::with_capacity(parts.len());
    let mut remap = Vec::with_capacity(total(|c| c.ids.len()));
    let mut lists = 0;
    for (data, dead) in parts {
        bases.push((remap.len(), lists));
        lists += data.list_count();
        remap.extend((0..data.doc_count() as DocOrd).map(|ord| {
            if bit(dead, ord as usize) {
                return None;
            }
            let lengths = ord as usize * Field::COUNT..(ord as usize + 1) * Field::COUNT;
            out.ids.push(data.id(ord));
            out.field_lengths
                .extend_from_slice(&data.columns().field_lengths[lengths]);
            Some(out.ids.len() as DocOrd - 1)
        }));
    }
    let mut new_list = vec![u32::MAX; lists];
    // Each part's next row of the field's term table, smallest term on
    // top and a term's parts in input order; the parts of the term being
    // written; one list writer and one block to decode into: all for the
    // whole compaction.
    let mut next: BinaryHeap<Reverse<(&[u8], usize, u32)>> = BinaryHeap::with_capacity(parts.len());
    let mut group = Vec::with_capacity(parts.len());
    let mut writer = ListWriter::new();
    let mut buf = BlockBuf::default();
    for field_ord in 0..Field::COUNT {
        // The parts' term tables are each sorted, so walking them in step
        // visits the terms in order, and within one output list remapped
        // ordinals are strictly ascending and the bounds come out tight.
        for (pi, (data, _)) in parts.iter().enumerate() {
            let field = data.field_lists(field_ord);
            if !field.is_empty() {
                next.push(Reverse((
                    data.columns().term(field.start as usize),
                    pi,
                    field.start,
                )));
            }
        }
        while let Some(Reverse((term, pi, id))) = next.pop() {
            let data = &parts[pi].0;
            if id + 1 < data.field_lists(field_ord).end {
                next.push(Reverse((data.columns().term(id as usize + 1), pi, id + 1)));
            }
            group.push((pi, id));
            let (doc_base, _) = bases[pi];
            let list = data.list(id);
            let mut cursor = list.cursor(&mut buf);
            for b in 0..list.block_count() {
                cursor.load(b);
                let (docs, ends, codes) = cursor.codes();
                for (i, &doc) in docs.iter().enumerate() {
                    let Some(ord) = remap[doc_base + doc as usize] else {
                        continue;
                    };
                    let codes = &codes[ends[i] as usize..ends[i + 1] as usize];
                    let field_len = out.field_lengths[ord as usize * Field::COUNT + field_ord];
                    let norm = tf_norm(codes.len() as u32, field_len);
                    let or = codes.iter().fold(0, |or, &code| or | code);
                    writer.push(&mut out, ord, codes, or, norm);
                }
            }
            if next.peek().is_some_and(|Reverse(top)| top.0 == term) {
                continue;
            }
            let id = out.list_count() as u32;
            if writer.finish(&mut out, term) {
                for &(pi, list) in &group {
                    new_list[bases[pi].1 + list as usize] = id;
                }
            }
            group.clear();
        }
        out.field_starts[field_ord + 1] = out.list_count() as u32;
    }
    // A live document keeps every one of its postings, so each of its
    // lists survived and its forward-index entries carry over renamed.
    let mut row = Vec::new();
    for ((data, _), &(doc_base, list_base)) in parts.iter().zip(&bases) {
        for ord in 0..data.doc_count() as DocOrd {
            if remap[doc_base + ord as usize].is_some() {
                row.clear();
                row.extend(data.lists_of(ord).map(|l| new_list[list_base + l as usize]));
                out.push_row(&row, run_width(&row));
            }
        }
    }
    out.blocks.shrink_to_fit();
    out.fwd_bytes.shrink_to_fit();
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
pub(crate) mod tests {
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
        head.freeze_all().data
    }

    /// Every document of `list`, in order.
    pub(crate) fn docs_of(list: List<'_>) -> Vec<DocOrd> {
        let mut buf = BlockBuf::default();
        let mut cursor = list.cursor(&mut buf);
        (0..list.block_count())
            .flat_map(|b| {
                cursor.load(b);
                cursor.docs().to_vec()
            })
            .collect()
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
    fn blocks_out_of_document_order_are_refused() {
        // 70 postings in documents 0–69, every gap 0: blocks 0–63 and
        // 64–69. Starting them at 6 and 0 keeps each block ascending and
        // every document's posting and forward entry; only the order of
        // the blocks is wrong.
        let data = segment_with(&(0..70).collect::<Vec<_>>());
        let mut cols = data.columns().clone();
        assert_eq!(cols.block_first, [0, 64]);
        cols.block_first = vec![6, 0];
        assert_eq!(
            cols.validate(),
            Err("posting ordinals not ascending below the document count")
        );
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
        assert_eq!(docs_of(out.list(t)), [0, 1]);
        assert_eq!(out.ord_of(SchemaId(30)), Some(1));
        assert!(out.lists_of(1).eq([t]));
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
