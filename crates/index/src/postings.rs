//! Postings lists: per-term document occurrences with positions.
//!
//! A list exists in two forms. `List` is the read side: borrowed slices
//! of a sealed segment's block-coded columns, which is all Phase 1, the
//! merger, the statistics and the codec ever see. `GrowingList` is the
//! write side: plain growing vectors, held only by the head builder until
//! a freeze encodes it into a sealed segment.
//!
//! ## Block coding
//!
//! A sealed list is cut into blocks of [`BLOCK_POSTINGS`] postings. Each
//! block is one byte run of the segment's block stream:
//!
//! ```text
//! block := wd:u8 wt:u8 wp:u8 gaps tfs positions
//! gaps      := (n − 1) × wd bits   doc[i] − doc[i − 1] − 1, from the second posting on
//! tfs       := n × wt bits         tf − 1
//! positions := Σtf × wp bits       per posting: its first position, then
//!                                  each next one's distance − 1
//! ```
//!
//! Each stream starts on a byte and is bit-packed at the block's own
//! width (`Packer` / `unpack`, one routine for every width 0–32), except
//! that a block with a posting of more than one position writes its
//! positions in at least 1 bit (`position_width`): every position past
//! a posting's first costs the file a bit, so no file declares positions
//! for nothing and what a decoder allocates stays within 32 times the
//! file's bytes. A skip row beside the stream holds each block's first
//! document, where its bytes start and its impact bound, so a scan
//! reaches any block, and skips any block, without decoding the ones
//! before it.
//!
//! A list's document frequency is its posting count. Its **live**
//! document frequency is that count less the postings of tombstoned
//! documents, which the segment's overlay counts per list, so the scorer
//! never rescans postings against the tombstones to compute df. Both
//! forms carry **impact upper bounds** for WAND/MaxScore pruning: the
//! largest `√tf/√field_len` over the whole list and per block. Bounds
//! grow as postings are appended; tombstoning leaves them stale-high
//! (still a valid upper bound, merely loose), and a merge rebuilds them
//! tight over live postings.

use std::ops::Range;

use crate::DocOrd;

/// Postings are grouped into fixed-size blocks of this many documents: the
/// unit of block coding and of block-max pruning. Each block carries its
/// own `√tf/√field_len` ceiling so the scorer can skip a whole block when
/// even its best posting cannot reach the current top-n floor.
pub const BLOCK_POSTINGS: usize = 64;

/// The width bytes that open every block.
const BLOCK_HEADER: usize = 3;

/// The idf- and boost-independent part of a posting's impact:
/// `√tf / √field_len`. Per-list and per-block maxima of this quantity are
/// what the index stores; multiplying by `boost · idf` at query time yields
/// the WAND/MaxScore upper bound with the scorer's own arithmetic.
pub(crate) fn tf_norm(term_freq: u32, field_len: u32) -> f64 {
    (term_freq as f64).sqrt() / (field_len.max(1) as f64).sqrt()
}

/// Bits needed to write `value`: 0 for 0, 32 for anything at or above
/// 2³¹.
pub(crate) fn width_of(value: u32) -> u32 {
    u32::BITS - value.leading_zeros()
}

/// The width of a block's positions stream, given the OR of its position
/// codes and the OR of its tf − 1 values: at least 1 bit once a posting
/// has a second position.
pub(crate) fn position_width(codes: u32, tf_codes: u32) -> u32 {
    width_of(codes).max(u32::from(tf_codes != 0))
}

/// Bytes `count` values of `width` bits take.
pub(crate) fn packed_len(count: usize, width: u32) -> usize {
    (count * width as usize).div_ceil(8)
}

/// Append `values` to `out` through a [`Packer`]. Returns how many values
/// were written.
#[cfg(test)]
pub(crate) fn pack(out: &mut Vec<u8>, width: u32, values: impl IntoIterator<Item = u32>) -> usize {
    let mut packer = Packer::new(out, width);
    let mut count = 0;
    for value in values {
        packer.put(value);
        count += 1;
    }
    packer.finish();
    count
}

/// Appends values to a byte vector, each in `width` bits (0–32), least
/// significant bit first, the last byte zero-padded: `count` values take
/// `⌈count · width / 8⌉` bytes. Every value must fit in `width` bits.
pub(crate) struct Packer<'a> {
    out: &'a mut Vec<u8>,
    /// The `bits` low bits not written out yet.
    pending: u64,
    bits: u32,
    width: u32,
}

impl<'a> Packer<'a> {
    pub fn new(out: &'a mut Vec<u8>, width: u32) -> Self {
        debug_assert!(width <= 32);
        Packer {
            out,
            pending: 0,
            bits: 0,
            width,
        }
    }

    #[inline]
    pub fn put(&mut self, value: u32) {
        debug_assert!(
            u64::from(value) >> self.width == 0,
            "{value} in {} bits",
            self.width
        );
        self.pending |= u64::from(value) << self.bits;
        self.bits += self.width;
        if self.bits >= 32 {
            self.out
                .extend_from_slice(&(self.pending as u32).to_le_bytes());
            self.pending >>= 32;
            self.bits -= 32;
        }
    }

    /// Write out what is pending, the last byte zero-padded.
    pub fn finish(self) {
        let bytes = self.bits.div_ceil(8) as usize;
        self.out
            .extend_from_slice(&self.pending.to_le_bytes()[..bytes]);
    }
}

/// Fill `out` with values `first..first + out.len()` of what a [`Packer`]
/// wrote to `src` at `width` bits (0–32). Bytes past the end of `src`
/// read as zero, so a short `src` never panics; a checked reader compares
/// lengths first.
///
/// Every value is read on its own as the 8 bytes that hold it, so no
/// value waits on the one before it; near the end of `src`, from a
/// zero-padded copy of up to [`BLOCK_POSTINGS`] values at a time.
pub(crate) fn unpack(src: &[u8], width: u32, first: usize, out: &mut [u32]) {
    debug_assert!(width <= 32);
    let mask = (1u64 << width) - 1;
    let decode = |bytes: &[u8], shift: usize, chunk: &mut [u32]| {
        for (i, value) in chunk.iter_mut().enumerate() {
            let bit = shift + i * width as usize;
            let word = u64::from_le_bytes(bytes[bit / 8..bit / 8 + 8].try_into().expect("8"));
            *value = ((word >> (bit % 8)) & mask) as u32;
        }
    };
    for (c, chunk) in out.chunks_mut(BLOCK_POSTINGS).enumerate() {
        let start = (first + c * BLOCK_POSTINGS) * width as usize;
        let bytes = src.get(start / 8..).unwrap_or_default();
        let len = (start % 8 + chunk.len() * width as usize).div_ceil(8);
        if bytes.len() >= len + 8 {
            decode(bytes, start % 8, chunk);
        } else {
            let mut window = [0u8; BLOCK_POSTINGS * 4 + 16];
            window[..bytes.len()].copy_from_slice(bytes);
            decode(&window, start % 8, chunk);
        }
    }
}

/// Value `i` of what a [`Packer`] wrote at `width` bits, read on its own
/// as the 8 bytes that hold it, in place where they exist; bytes past the
/// end of `src` read as zero.
fn read(src: &[u8], width: u32, i: usize) -> u32 {
    let bit = i * width as usize;
    let bytes = src.get(bit / 8..).unwrap_or_default();
    let word = match bytes.first_chunk::<8>() {
        Some(&word) => word,
        None => {
            let mut word = [0; 8];
            word[..bytes.len()].copy_from_slice(bytes);
            word
        }
    };
    ((u64::from_le_bytes(word) >> (bit % 8)) & ((1u64 << width) - 1)) as u32
}

/// One term's postings within one field of a sealed segment: block `b`
/// is `stream[starts[b]..starts[b + 1]]`, its first document
/// `first_docs[b]` — the "frequency data" and "proximity data" the
/// paper's index stores.
#[derive(Debug, Clone, Copy)]
pub(crate) struct List<'a> {
    postings: usize,
    first_docs: &'a [DocOrd],
    /// One entry longer than `first_docs`.
    starts: &'a [u32],
    /// The segment's whole block stream.
    stream: &'a [u8],
    pub max_tf_norm: f64,
    pub block_max: &'a [f64],
}

impl<'a> List<'a> {
    /// A list of `postings` postings over its rows of a segment's block
    /// columns.
    pub fn new(
        postings: usize,
        first_docs: &'a [DocOrd],
        starts: &'a [u32],
        stream: &'a [u8],
        max_tf_norm: f64,
        block_max: &'a [f64],
    ) -> Self {
        List {
            postings,
            first_docs,
            starts,
            stream,
            max_tf_norm,
            block_max,
        }
    }

    /// Document frequency: how many documents contain the term, including
    /// tombstoned ones still awaiting a merge.
    pub fn doc_freq(&self) -> usize {
        self.postings
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
        b * BLOCK_POSTINGS..((b + 1) * BLOCK_POSTINGS).min(self.postings)
    }

    /// The first document of block `b`, from its skip row.
    #[inline]
    pub fn block_first(&self, b: usize) -> DocOrd {
        self.first_docs[b]
    }

    /// Upper bound on the impact any posting of block `b` can contribute.
    #[inline]
    pub fn block_impact_bound(&self, b: usize, boost: f64, idf: f64) -> f64 {
        boost * idf * self.block_max[b]
    }

    /// The bytes of block `b`.
    fn block_bytes(&self, b: usize) -> &'a [u8] {
        &self.stream[self.starts[b] as usize..self.starts[b + 1] as usize]
    }

    /// Read this list through `buf`, one block at a time.
    pub fn cursor<'b>(&self, buf: &'b mut BlockBuf) -> Cursor<'a, 'b> {
        buf.block = None;
        Cursor { list: *self, buf }
    }

    /// Heap bytes held by this list: its blocks' bytes and skip rows
    /// (first document, start offset and impact bound).
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of_val;
        let blocks = self.block_count();
        (self.starts[blocks] - self.starts[0]) as usize
            + size_of_val(self.first_docs)
            + size_of_val(&self.starts[..blocks])
            + size_of_val(self.block_max)
    }
}

/// One decoded block — the decoder's whole state, reused from block to
/// block and list to list, so reading postings allocates nothing once its
/// positions buffer has grown to the longest posting met.
#[derive(Debug)]
pub(crate) struct BlockBuf {
    /// The block of the cursor's list this buffer holds.
    block: Option<usize>,
    len: usize,
    docs: [DocOrd; BLOCK_POSTINGS],
    /// Where the block's tf and position streams start in the segment
    /// stream, and their widths.
    tfs_at: usize,
    positions_at: usize,
    widths: [u32; 2],
    /// The term frequencies and, posting `i`'s positions being codes
    /// `ends[i]..ends[i + 1]` of the position stream, their running sums:
    /// decoded on first use.
    tfs_ready: bool,
    tfs: [u32; BLOCK_POSTINGS],
    ends: [u32; BLOCK_POSTINGS + 1],
    /// The positions of the posting last asked for.
    positions: Vec<u32>,
}

impl Default for BlockBuf {
    fn default() -> Self {
        BlockBuf {
            block: None,
            len: 0,
            docs: [0; BLOCK_POSTINGS],
            tfs_at: 0,
            positions_at: 0,
            widths: [0; 2],
            tfs_ready: false,
            tfs: [0; BLOCK_POSTINGS],
            ends: [0; BLOCK_POSTINGS + 1],
            positions: Vec::new(),
        }
    }
}

/// The widths of a block whose width bytes are `bytes[..3]`, refused past
/// 32 bits.
fn block_widths(bytes: &[u8]) -> Result<[u32; 3], &'static str> {
    let widths: [u8; BLOCK_HEADER] = bytes
        .get(..BLOCK_HEADER)
        .and_then(|w| w.try_into().ok())
        .ok_or(STREAM_LENGTH)?;
    let widths = widths.map(u32::from);
    if widths.iter().any(|&w| w > 32) {
        return Err("block width past 32 bits");
    }
    Ok(widths)
}

const STREAM_LENGTH: &str = "packed stream length disagrees with its counts";
const FREE_POSITIONS: &str = "a posting's second position stored in 0 bits";

/// A list read through a [`BlockBuf`]: load a block, then read its
/// documents and — decoded on first use — term frequencies and
/// positions.
pub(crate) struct Cursor<'a, 'b> {
    list: List<'a>,
    buf: &'b mut BlockBuf,
}

impl Cursor<'_, '_> {
    /// Decode block `b`'s documents, unless the buffer holds them already.
    pub fn load(&mut self, b: usize) {
        if self.buf.block == Some(b) {
            return;
        }
        let bytes = self.list.block_bytes(b);
        let n = self.list.block(b).len();
        let [wd, wt, wp] = [bytes[0], bytes[1], bytes[2]].map(u32::from);
        let buf = &mut *self.buf;
        buf.docs[0] = self.list.first_docs[b];
        unpack(&bytes[BLOCK_HEADER..], wd, 0, &mut buf.docs[1..n]);
        for i in 1..n {
            buf.docs[i] = buf.docs[i - 1].wrapping_add(buf.docs[i]).wrapping_add(1);
        }
        buf.tfs_at = self.list.starts[b] as usize + BLOCK_HEADER + packed_len(n - 1, wd);
        buf.positions_at = buf.tfs_at + packed_len(n, wt);
        buf.widths = [wt, wp];
        buf.tfs_ready = false;
        buf.len = n;
        buf.block = Some(b);
    }

    /// The loaded block's documents, ascending.
    #[inline]
    pub fn docs(&self) -> &[DocOrd] {
        &self.buf.docs[..self.buf.len]
    }

    /// The loaded block's documents and term frequencies.
    #[inline]
    pub fn postings(&mut self) -> (&[DocOrd], &[u32]) {
        let buf = &mut *self.buf;
        if !buf.tfs_ready {
            let n = buf.len;
            unpack(
                &self.list.stream[buf.tfs_at..],
                buf.widths[0],
                0,
                &mut buf.tfs[..n],
            );
            for i in 0..n {
                buf.tfs[i] = buf.tfs[i].wrapping_add(1);
                buf.ends[i + 1] = buf.ends[i].wrapping_add(buf.tfs[i]);
            }
            buf.tfs_ready = true;
        }
        (&buf.docs[..buf.len], &buf.tfs[..buf.len])
    }

    /// The term frequency of the loaded block's posting `i`, read on its
    /// own unless the block's are decoded already.
    #[inline]
    pub fn tf(&self, i: usize) -> u32 {
        let buf = &*self.buf;
        if buf.tfs_ready {
            buf.tfs[i]
        } else {
            read(&self.list.stream[buf.tfs_at..], buf.widths[0], i) + 1
        }
    }

    /// Load the block that would hold `doc` and return the index of its
    /// posting of `doc`, if the list has one.
    pub fn seek(&mut self, doc: DocOrd) -> Option<usize> {
        let b = self.list.first_docs.partition_point(|&first| first <= doc);
        self.load(b.checked_sub(1)?);
        self.docs().binary_search(&doc).ok()
    }

    /// Posting `i` of the loaded block: its positions, ascending.
    pub fn positions(&mut self, i: usize) -> &[u32] {
        self.postings();
        let buf = &mut *self.buf;
        let src = &self.list.stream[buf.positions_at..];
        let codes = buf.ends[i] as usize..buf.ends[i + 1] as usize;
        buf.positions.clear();
        let mut position = read(src, buf.widths[1], codes.start);
        buf.positions.push(position);
        for code in codes.skip(1) {
            position += read(src, buf.widths[1], code) + 1;
            buf.positions.push(position);
        }
        &buf.positions
    }

    /// [`Cursor::load`] for a block read from a file, checking what
    /// reading it relies on: widths of at most 32 bits, a byte length that
    /// is what its widths and counts make it, documents ascending below
    /// `docs`, no term frequency of 0 or summing past 2³², positions past
    /// each posting's first in at least 1 bit, and positions below 2³²
    /// however large the gaps. Decoding wraps where a value is
    /// too large, so a wrapped document stops ascending and a wrapped term
    /// frequency reads 0. Returns the block's position count.
    pub fn load_checked(&mut self, b: usize, docs: usize) -> Result<u64, &'static str> {
        let bytes = self.list.block_bytes(b);
        let n = self.list.block(b).len();
        let [wd, wt, wp] = block_widths(bytes)?;
        let positions_at = BLOCK_HEADER + packed_len(n - 1, wd) + packed_len(n, wt);
        if positions_at > bytes.len() {
            return Err(STREAM_LENGTH);
        }
        self.load(b);
        let (read_docs, tfs) = self.postings();
        if !read_docs.windows(2).all(|w| w[0] < w[1]) || read_docs[n - 1] as usize >= docs {
            return Err("a gap runs a document ordinal past the document count");
        }
        let positions: u64 = tfs.iter().map(|&tf| u64::from(tf)).sum();
        if tfs.contains(&0) || positions > u64::from(u32::MAX) {
            return Err("tf sums disagree with the positions count");
        }
        if wp == 0 && positions > n as u64 {
            return Err(FREE_POSITIONS);
        }
        if (positions * u64::from(wp)).div_ceil(8) != (bytes.len() - positions_at) as u64 {
            return Err(STREAM_LENGTH);
        }
        // A posting's last position is below tf · 2^wp, so only a block
        // whose positions could reach 2³² has them added up.
        if positions << wp > u64::from(u32::MAX) {
            let mut codes_at = 0;
            for &tf in tfs {
                let run = (codes_at..codes_at + tf as usize)
                    .map(|i| u64::from(read(&bytes[positions_at..], wp, i)));
                if run.reduce(|position, gap| position + gap + 1) > Some(u64::from(u32::MAX)) {
                    return Err("a position past 2^32");
                }
                codes_at += tf as usize;
            }
        }
        Ok(positions)
    }
}

/// The width of a delta run over strictly ascending `values`: of the
/// first value and each distance less 1.
pub(crate) fn run_width(values: &[u32]) -> u32 {
    let first = values.first().copied().unwrap_or(0);
    width_of(
        values
            .windows(2)
            .fold(first, |bits, w| bits | (w[1] - w[0] - 1)),
    )
}

/// Append strictly ascending `values` as a delta run at `width`, their
/// [`run_width`]: a width byte, then the first value and each distance
/// less 1 packed at that width, `1 + packed_len(values.len(), width)`
/// bytes. How a document's row of the forward index is stored.
pub(crate) fn push_run(out: &mut Vec<u8>, values: &[u32], width: u32) {
    debug_assert_eq!(width, run_width(values));
    out.push(width as u8);
    let mut packer = Packer::new(out, width);
    if let Some(&first) = values.first() {
        packer.put(first);
    }
    for w in values.windows(2) {
        packer.put(w[1] - w[0] - 1);
    }
    packer.finish();
}

/// The `count` values of a run [`push_run`] wrote, `run` starting with it
/// (and possibly running on past it).
pub(crate) fn read_run(run: &[u8], count: usize) -> impl Iterator<Item = u32> + '_ {
    let (width, packed) = (u32::from(run[0]), &run[1..]);
    (0..count).scan(None, move |previous: &mut Option<u32>, i| {
        let value = read(packed, width, i);
        let next = previous.map_or(value, |p| p + value + 1);
        *previous = Some(next);
        Some(next)
    })
}

/// Value `k` of a run [`push_run`] wrote, `run` starting with it, given
/// value `k − 1` (anything for the first): one packed read, widened so
/// that no run read from a file can overflow it.
pub(crate) fn run_value(run: &[u8], k: usize, previous: u32) -> u64 {
    let value = u64::from(read(&run[1..], u32::from(run[0]), k));
    if k == 0 {
        value
    } else {
        u64::from(previous) + value + 1
    }
}

/// Check a run read from a file before anything reads it: a width of at
/// most 32 bits and exactly the bytes `count` values take at it.
pub(crate) fn check_run(run: &[u8], count: usize) -> Result<(), &'static str> {
    match run.split_first() {
        Some((&width, packed))
            if width <= 32 && packed.len() == packed_len(count, width.into()) =>
        {
            Ok(())
        }
        _ => Err("a forward delta run overruns its row"),
    }
}

/// A list the head builder is still appending to: plain growing vectors
/// (plus the block bounds and, per block, the bitwise OR of each stream's
/// codes, which is all a freeze needs to size and write the block), not
/// a vector per posting. A freeze encodes it into blocks; nothing reads it
/// before.
#[derive(Debug, Default, Clone, PartialEq)]
pub(crate) struct GrowingList {
    pub(crate) docs: Vec<DocOrd>,
    /// `ends[i]` is one past posting `i`'s last entry in `positions`.
    pub(crate) ends: Vec<u32>,
    pub(crate) positions: Vec<u32>,
    pub(crate) max_tf_norm: f64,
    pub(crate) block_max: Vec<f64>,
    /// Per block: the OR of its document gaps, of its tf − 1 values and
    /// of its position codes — their widest's width is the stream's.
    block_codes: Vec<[u32; 3]>,
}

impl GrowingList {
    /// Append `doc`'s posting: its ascending `positions` in a field of
    /// `field_len` tokens. Documents arrive in ascending ordinal order.
    pub fn push(&mut self, doc: u32, positions: &[u32], field_len: u32) {
        debug_assert!(self.docs.last().is_none_or(|&last| last < doc));
        debug_assert!(!positions.is_empty() && positions.is_sorted_by(|a, b| a < b));
        let norm = tf_norm(positions.len() as u32, field_len);
        if self.docs.len().is_multiple_of(BLOCK_POSTINGS) {
            self.block_max.push(0.0);
        }
        let block = self.block_max.last_mut().expect("pushed above");
        *block = block.max(norm);
        self.max_tf_norm = self.max_tf_norm.max(norm);
        self.append(doc, positions);
    }

    /// Append a posting's data and its codes, bounds aside.
    fn append(&mut self, doc: DocOrd, positions: &[u32]) {
        let gap = match self.docs.len() % BLOCK_POSTINGS {
            0 => {
                self.block_codes.push([0; 3]);
                0
            }
            _ => doc - self.docs.last().expect("mid-block") - 1,
        };
        let position_codes = positions
            .windows(2)
            .fold(positions[0], |bits, w| bits | (w[1] - w[0] - 1));
        let codes = self.block_codes.last_mut().expect("pushed above");
        codes[0] |= gap;
        codes[1] |= positions.len() as u32 - 1;
        codes[2] |= position_codes;
        self.docs.push(doc);
        self.positions.extend_from_slice(positions);
        self.ends.push(self.positions.len() as u32);
    }

    /// Empty again, keeping what the vectors hold room for.
    pub(crate) fn clear(&mut self) {
        self.docs.clear();
        self.ends.clear();
        self.positions.clear();
        self.max_tf_norm = 0.0;
        self.block_max.clear();
        self.block_codes.clear();
    }

    fn block(&self, b: usize) -> Range<usize> {
        b * BLOCK_POSTINGS..((b + 1) * BLOCK_POSTINGS).min(self.docs.len())
    }

    fn start(&self, i: usize) -> u32 {
        i.checked_sub(1).map_or(0, |before| self.ends[before])
    }

    /// Posting `i`'s positions.
    fn positions(&self, i: usize) -> &[u32] {
        &self.positions[self.start(i) as usize..self.ends[i] as usize]
    }

    /// Block `b`'s stream widths: documents, tf − 1, positions.
    fn widths(&self, b: usize) -> [u32; 3] {
        let [gaps, tfs, positions] = self.block_codes[b];
        [
            width_of(gaps),
            width_of(tfs),
            position_width(positions, tfs),
        ]
    }

    /// Bytes [`GrowingList::encode`] appends to the block stream.
    pub(crate) fn encoded_len(&self) -> usize {
        (0..self.block_codes.len())
            .map(|b| {
                let rows = self.block(b);
                let positions = (self.ends[rows.end - 1] - self.start(rows.start)) as usize;
                let [wd, wt, wp] = self.widths(b);
                BLOCK_HEADER
                    + packed_len(rows.len() - 1, wd)
                    + packed_len(rows.len(), wt)
                    + packed_len(positions, wp)
            })
            .sum()
    }

    /// Append this list's blocks: each one's first document to
    /// `first_docs`, its bytes to `stream` and where they end to `starts`.
    pub(crate) fn encode(
        &self,
        first_docs: &mut Vec<DocOrd>,
        starts: &mut Vec<u32>,
        stream: &mut Vec<u8>,
    ) {
        for b in 0..self.block_codes.len() {
            let rows = self.block(b);
            let [wd, wt, wp] = self.widths(b);
            first_docs.push(self.docs[rows.start]);
            stream.extend([wd, wt, wp].map(|width| width as u8));
            let mut gaps = Packer::new(stream, wd);
            for w in self.docs[rows.clone()].windows(2) {
                gaps.put(w[1] - w[0] - 1);
            }
            gaps.finish();
            let mut tfs = Packer::new(stream, wt);
            for i in rows.clone() {
                tfs.put(self.ends[i] - self.start(i) - 1);
            }
            tfs.finish();
            let mut positions = Packer::new(stream, wp);
            for i in rows {
                let posting = self.positions(i);
                positions.put(posting[0]);
                for w in posting.windows(2) {
                    positions.put(w[1] - w[0] - 1);
                }
            }
            positions.finish();
            starts.push(stream.len() as u32);
        }
    }

    /// This list frozen into blocks and read back through the block
    /// decoder, its stored bounds carried over: equal to the list itself,
    /// which the coder oracle below holds it to.
    #[cfg(test)]
    fn thawed(&self) -> GrowingList {
        let (mut first_docs, mut starts, mut stream) = (Vec::new(), vec![0], Vec::new());
        self.encode(&mut first_docs, &mut starts, &mut stream);
        let list = List::new(
            self.docs.len(),
            &first_docs,
            &starts,
            &stream,
            self.max_tf_norm,
            &self.block_max,
        );
        let mut out = GrowingList {
            max_tf_norm: list.max_tf_norm,
            block_max: list.block_max.to_vec(),
            ..GrowingList::default()
        };
        let mut buf = BlockBuf::default();
        let mut cursor = list.cursor(&mut buf);
        for b in 0..list.block_count() {
            cursor.load(b);
            for i in 0..cursor.docs().len() {
                let doc = cursor.docs()[i];
                out.append(doc, cursor.positions(i));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use proptest::collection::vec;
    use proptest::prelude::*;

    use super::*;

    /// `list`'s block columns, as a freeze writes them.
    fn sealed(list: &GrowingList) -> (Vec<DocOrd>, Vec<u32>, Vec<u8>) {
        let (mut first_docs, mut starts, mut stream) = (Vec::new(), vec![0], Vec::new());
        list.encode(&mut first_docs, &mut starts, &mut stream);
        assert_eq!(stream.len(), list.encoded_len());
        (first_docs, starts, stream)
    }

    fn view<'a>(list: &'a GrowingList, cols: &'a (Vec<DocOrd>, Vec<u32>, Vec<u8>)) -> List<'a> {
        List::new(
            list.docs.len(),
            &cols.0,
            &cols.1,
            &cols.2,
            list.max_tf_norm,
            &list.block_max,
        )
    }

    #[test]
    fn postings_keep_their_positions_in_document_order() {
        let mut pl = GrowingList::default();
        pl.push(0, &[1, 5], 4);
        pl.push(2, &[0], 4);
        pl.push(7, &[3, 4, 9], 4);
        let cols = sealed(&pl);
        let list = view(&pl, &cols);
        assert_eq!(list.doc_freq(), 3);
        let mut buf = BlockBuf::default();
        let mut cursor = list.cursor(&mut buf);
        cursor.load(0);
        assert_eq!(cursor.docs(), [0, 2, 7]);
        assert_eq!(cursor.postings().1, [2, 1, 3]);
        assert_eq!(cursor.positions(0), [1, 5]);
        assert_eq!(cursor.positions(2), [3, 4, 9]);
        assert_eq!(cursor.seek(2), Some(1));
        assert_eq!(cursor.seek(1), None);
        // Gaps 1 and 4 in 3 bits, tf − 1 in 2, positions 1 3 0 3 0 4 in 3:
        // three width bytes and 1 + 1 + 3 packed ones, and a 16-byte skip
        // row.
        assert_eq!(cols.2.len(), 8);
        assert_eq!(list.approx_bytes(), 8 + 4 + 4 + 8);
        assert_eq!(pl.thawed(), pl);
    }

    #[test]
    fn empty_list() {
        let pl = GrowingList::default();
        let cols = sealed(&pl);
        let list = view(&pl, &cols);
        assert_eq!(list.doc_freq(), 0);
        assert_eq!(list.approx_bytes(), 0);
        assert!(list.cursor(&mut BlockBuf::default()).seek(0).is_none());
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
        let cols = sealed(&pl);
        let list = view(&pl, &cols);
        assert!((list.max_impact_bound(1.0, 1.0) - expect).abs() < 1e-12);
        // Boost and idf multiply straight through.
        assert!((list.max_impact_bound(2.0, 3.0) - 6.0 * expect).abs() < 1e-12);
    }

    #[test]
    fn blocks_partition_postings_with_local_bounds() {
        let mut pl = GrowingList::default();
        for d in 0..(BLOCK_POSTINGS as u32 + 10) {
            pl.push(d * 3, &[0], 4);
        }
        // The best posting lands in the second block: tf 2.
        pl.push(BLOCK_POSTINGS as u32 * 3 + 40, &[0, 1], 4);
        let cols = sealed(&pl);
        let list = view(&pl, &cols);
        assert_eq!(list.block_count(), 2);
        assert_eq!(list.block(0).len(), BLOCK_POSTINGS);
        assert_eq!(list.block(1).len(), 11);
        assert_eq!(list.block_first(1), BLOCK_POSTINGS as u32 * 3);
        assert!(list.block_impact_bound(1, 1.0, 1.0) > list.block_impact_bound(0, 1.0, 1.0));
        // The list bound equals the best block bound.
        assert_eq!(
            list.max_impact_bound(1.0, 1.0),
            list.block_impact_bound(1, 1.0, 1.0)
        );
        // Every posting's tf_norm is dominated by its block's bound, and
        // a checked load reads what a plain one does.
        let mut buf = BlockBuf::default();
        let mut cursor = list.cursor(&mut buf);
        for b in 0..list.block_count() {
            let bound = list.block_impact_bound(b, 1.0, 1.0);
            assert_eq!(
                cursor.load_checked(b, 1_000),
                Ok(list.block(b).len() as u64 + u64::from(b == 1))
            );
            for &tf in cursor.postings().1 {
                assert!(tf_norm(tf, 4) <= bound);
            }
        }
        assert_eq!(cursor.seek(BLOCK_POSTINGS as u32 * 3 + 40), Some(10));
        assert_eq!(cursor.positions(10), [0, 1]);
        assert_eq!(pl.thawed(), pl);
    }

    #[test]
    fn a_checked_load_refuses_what_a_block_cannot_hold() {
        let mut pl = GrowingList::default();
        pl.push(3, &[2, 9], 4);
        pl.push(8, &[1], 4);
        let cols = sealed(&pl);
        let refused = |cols: &(Vec<DocOrd>, Vec<u32>, Vec<u8>), docs| {
            view(&pl, cols)
                .cursor(&mut BlockBuf::default())
                .load_checked(0, docs)
                .unwrap_err()
        };
        assert_eq!(
            view(&pl, &cols)
                .cursor(&mut BlockBuf::default())
                .load_checked(0, 9),
            Ok(3)
        );
        assert_eq!(
            refused(&cols, 8),
            "a gap runs a document ordinal past the document count"
        );
        let mut wide = cols.clone();
        wide.2[2] = 33;
        assert_eq!(refused(&wide, 9), "block width past 32 bits");
        let mut long = cols.clone();
        long.2.push(0);
        long.1[1] += 1;
        assert_eq!(refused(&long, 9), STREAM_LENGTH);
        // Documents 3 and 4, the second of 2³² − 2 positions at width 0:
        // the widths and the byte length agree, and nothing pays for them.
        let mut free = vec![0, 32, 0, 0, 0, 0, 0];
        free.extend((u32::MAX - 2).to_le_bytes());
        assert_eq!(
            refused(&(vec![3], vec![0, free.len() as u32], free), 9),
            FREE_POSITIONS
        );
    }

    #[test]
    fn runs_round_trip_and_are_checked() {
        let values = [0u32, 1, 7, 300, 301];
        let mut run = Vec::new();
        push_run(&mut run, &values, run_width(&values));
        assert_eq!(run.len(), 1 + packed_len(5, 9));
        assert!(read_run(&run, 5).eq(values));
        assert_eq!(run_value(&run, 0, 99), 0);
        assert_eq!(run_value(&run, 3, 7), 300);
        assert_eq!(check_run(&run, 5), Ok(()));
        assert!(check_run(&run, 4).is_err());
        run[0] = 33;
        assert!(check_run(&run, 5).is_err());
        let mut empty = Vec::new();
        push_run(&mut empty, &[], 0);
        assert_eq!((empty.len(), check_run(&empty, 0)), (1, Ok(())));
    }

    /// One list's postings: ascending documents, each with 1–5 ascending
    /// positions and its field's length; gaps small and large, so blocks are
    /// packed at widths from 0 to well past 20 bits.
    fn arb_postings() -> impl Strategy<Value = Vec<(u32, Vec<u32>, u32)>> {
        let gap = || {
            (0u32..3, 0u32..1 << 22).prop_map(|(scale, gap)| match scale {
                0 => gap % 4,
                1 => gap % 100_000,
                _ => gap,
            })
        };
        let positions = (0u32..1 << 20, vec(0u32..1 << 12, 0..5));
        vec((gap(), positions, 1u32..1_000), 1..200).prop_map(|postings| {
            let mut doc = 0u32;
            postings
                .into_iter()
                .enumerate()
                .map(|(i, (gap, (first, steps), field_len))| {
                    doc = if i == 0 { gap } else { doc + gap + 1 };
                    let mut position = first;
                    let mut positions = vec![first];
                    for step in steps {
                        position += step + 1;
                        positions.push(position);
                    }
                    (doc, positions, field_len)
                })
                .collect()
        })
    }

    proptest! {
        /// The block coder's one routine: any values packed at any width
        /// 0–32 take exactly their bits, rounded up to a byte, and come back.
        #[test]
        fn pack_and_unpack_round_trip_at_every_width(
            width in 0u32..=32,
            values in vec(0u32..=u32::MAX, 1..=64),
        ) {
            let values: Vec<u32> = values
                .iter()
                .map(|&v| (u64::from(v) & ((1u64 << width) - 1)) as u32)
                .collect();
            let mut bytes = Vec::new();
            prop_assert_eq!(pack(&mut bytes, width, values.iter().copied()), values.len());
            prop_assert_eq!(bytes.len(), (values.len() * width as usize).div_ceil(8));
            let mut back = vec![u32::MAX; values.len()];
            unpack(&bytes, width, 0, &mut back);
            prop_assert_eq!(back, values);
        }

        /// A list frozen into blocks decodes to exactly the list it came
        /// from: documents, term frequencies, positions and block bounds.
        #[test]
        fn a_frozen_list_decodes_to_the_list_it_came_from(postings in arb_postings()) {
            let mut list = GrowingList::default();
            for (doc, positions, field_len) in &postings {
                list.push(*doc, positions, *field_len);
            }
            prop_assert_eq!(list.thawed(), list);
        }
    }
}
