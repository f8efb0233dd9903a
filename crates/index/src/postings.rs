//! Postings lists: per-term document occurrences with positions.
//!
//! A list exists in one form, `List`: borrowed slices of a sealed
//! segment's block-coded columns, which is all Phase 1, the merger, the
//! statistics and the codec ever see. A freeze and a merge both write
//! lists through the segment's list writer, which gathers a block's
//! postings and hands them to `encode_block`, the one writer of the
//! block layout.
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

/// Append `values` to `out` through a [`Packer`].
#[cfg(test)]
pub(crate) fn pack(out: &mut Vec<u8>, width: u32, values: impl IntoIterator<Item = u32>) {
    let mut packer = Packer::new(out, width);
    for value in values {
        packer.put(value);
    }
    packer.finish();
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
    /// The term frequencies, decoded on first use.
    tfs_ready: bool,
    tfs: [u32; BLOCK_POSTINGS],
    /// Posting `i`'s positions are codes `ends[i]..ends[i + 1]` of the
    /// position stream: the term frequencies' running sums, made on first
    /// use — a scan that reads no positions never pays for them.
    ends_ready: bool,
    ends: [u32; BLOCK_POSTINGS + 1],
    /// The positions of the posting last asked for.
    positions: Vec<u32>,
    /// The loaded block's position codes, when asked for all at once.
    codes: Vec<u32>,
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
            ends_ready: false,
            ends: [0; BLOCK_POSTINGS + 1],
            positions: Vec::new(),
            codes: Vec::new(),
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
        buf.ends_ready = false;
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
            for tf in &mut buf.tfs[..n] {
                *tf = tf.wrapping_add(1);
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

    /// Where each of the loaded block's postings' position codes end, the
    /// first starting at 0.
    fn ends(&mut self) -> &[u32] {
        self.postings();
        let buf = &mut *self.buf;
        if !buf.ends_ready {
            for i in 0..buf.len {
                buf.ends[i + 1] = buf.ends[i].wrapping_add(buf.tfs[i]);
            }
            buf.ends_ready = true;
        }
        &buf.ends[..=buf.len]
    }

    /// Posting `i` of the loaded block: its positions, ascending.
    pub fn positions(&mut self, i: usize) -> &[u32] {
        self.ends();
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

    /// The loaded block's documents and position codes, every posting's
    /// codes in one unpack: posting `i`'s are `codes[ends[i]..ends[i + 1]]`,
    /// its first position, then each next one's distance − 1 — what
    /// [`encode_block`] takes, so a merge moves them without adding them
    /// up.
    pub fn codes(&mut self) -> (&[DocOrd], &[u32], &[u32]) {
        let count = *self.ends().last().expect("one entry more than postings") as usize;
        let buf = &mut *self.buf;
        if buf.codes.len() < count {
            buf.codes.resize(count, 0);
        }
        let src = &self.list.stream[buf.positions_at..];
        unpack(src, buf.widths[1], 0, &mut buf.codes[..count]);
        (
            &buf.docs[..buf.len],
            &buf.ends[..=buf.len],
            &buf.codes[..count],
        )
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

/// The OR of each of a block's three streams' codes: its document gaps,
/// its tf − 1 values and its position codes. The widest code of each
/// stream is its width.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct BlockCodes {
    gaps: u32,
    tfs: u32,
    positions: u32,
}

impl BlockCodes {
    /// Take a posting: its gap to the posting before it less 1 (0 for a
    /// block's first), its tf and the OR of its position codes.
    #[inline]
    pub fn add(&mut self, gap: u32, tf: u32, codes: u32) {
        self.gaps |= gap;
        self.tfs |= tf - 1;
        self.positions |= codes;
    }

    /// The block's stream widths: documents, tf − 1, positions.
    pub fn widths(&self) -> [u32; 3] {
        [
            width_of(self.gaps),
            width_of(self.tfs),
            position_width(self.positions, self.tfs),
        ]
    }
}

/// The position codes of ascending `positions`: the first, then each
/// distance − 1, appended to `out`. Returns their OR.
pub(crate) fn push_codes(out: &mut Vec<u32>, positions: &[u32]) -> u32 {
    debug_assert!(!positions.is_empty() && positions.is_sorted_by(|a, b| a < b));
    let mut or = positions[0];
    out.push(or);
    out.extend(positions.windows(2).map(|w| {
        let code = w[1] - w[0] - 1;
        or |= code;
        code
    }));
    or
}

/// Append one block to `stream` at `widths`, the [`BlockCodes::widths`]
/// of its postings: `docs`, ascending, posting `i`'s position codes being
/// `codes[ends[i]..ends[i + 1]]` (`ends` one entry longer than `docs`,
/// starting at 0). The one writer of the layout this module describes.
pub(crate) fn encode_block(
    stream: &mut Vec<u8>,
    widths: [u32; 3],
    docs: &[DocOrd],
    ends: &[u32],
    codes: &[u32],
) {
    let [wd, wt, wp] = widths;
    stream.extend(widths.map(|width| width as u8));
    let mut gaps = Packer::new(stream, wd);
    for w in docs.windows(2) {
        gaps.put(w[1] - w[0] - 1);
    }
    gaps.finish();
    let mut tfs = Packer::new(stream, wt);
    for w in ends.windows(2) {
        tfs.put(w[1] - w[0] - 1);
    }
    tfs.finish();
    let mut positions = Packer::new(stream, wp);
    for &code in codes {
        positions.put(code);
    }
    positions.finish();
}

#[cfg(test)]
mod tests {
    use proptest::collection::vec;
    use proptest::prelude::*;

    use super::*;
    use crate::segment::{Columns, ListWriter};

    /// One posting as a test writes it: document, positions, field length.
    type Posting = (DocOrd, Vec<u32>, u32);

    /// Columns holding `postings` (ascending documents) as their one list,
    /// written through the [`ListWriter`] a freeze and a merge write every
    /// list through, each posting's bound its `tf_norm`.
    fn sealed(postings: &[Posting]) -> Columns {
        let mut cols = Columns::with_capacity(0, 1, 0, 0, 0, 0);
        let (mut writer, mut codes) = (ListWriter::new(), Vec::new());
        for (doc, positions, field_len) in postings {
            codes.clear();
            let or = push_codes(&mut codes, positions);
            let norm = tf_norm(positions.len() as u32, *field_len);
            writer.push(&mut cols, *doc, &codes, or, norm);
        }
        assert_eq!(writer.finish(&mut cols, b"t"), !postings.is_empty());
        cols
    }

    /// The list [`sealed`] wrote.
    fn list(cols: &Columns) -> List<'_> {
        if cols.list_count() == 0 {
            return List::new(0, &[], &[0], &[], 0.0, &[]);
        }
        cols.list(0)
    }

    /// Every posting of `list` read back through a cursor: its document
    /// and positions, the positions read one posting at a time and, from
    /// the block's codes read all at once, again.
    fn thawed(list: List<'_>) -> Vec<(DocOrd, Vec<u32>)> {
        let (mut buf, mut out) = (BlockBuf::default(), Vec::new());
        let mut cursor = list.cursor(&mut buf);
        for b in 0..list.block_count() {
            cursor.load(b);
            let (_, ends, codes) = cursor.codes();
            let from_codes: Vec<Vec<u32>> = ends
                .windows(2)
                .map(|w| {
                    let mut position = 0;
                    (w[0]..w[1])
                        .map(|c| {
                            let code = codes[c as usize];
                            position = if c == w[0] { code } else { position + code + 1 };
                            position
                        })
                        .collect()
                })
                .collect();
            for (i, positions) in from_codes.into_iter().enumerate() {
                assert_eq!(cursor.positions(i), positions);
                assert_eq!(cursor.tf(i) as usize, positions.len());
                out.push((cursor.docs()[i], positions));
            }
        }
        out
    }

    /// The postings a test wrote, less their field lengths.
    fn written(postings: &[Posting]) -> Vec<(DocOrd, Vec<u32>)> {
        postings.iter().map(|(d, p, _)| (*d, p.clone())).collect()
    }

    #[test]
    fn postings_keep_their_positions_in_document_order() {
        let postings = [(0, vec![1, 5], 4), (2, vec![0], 4), (7, vec![3, 4, 9], 4)];
        let sealed = sealed(&postings);
        let list = list(&sealed);
        assert_eq!(list.doc_freq(), 3);
        let mut buf = BlockBuf::default();
        let mut cursor = list.cursor(&mut buf);
        cursor.load(0);
        assert_eq!(cursor.docs(), [0, 2, 7]);
        assert_eq!(cursor.postings().1, [2, 1, 3]);
        assert_eq!(cursor.positions(0), [1, 5]);
        assert_eq!(cursor.positions(2), [3, 4, 9]);
        let (docs, ends, codes) = cursor.codes();
        assert_eq!(
            (docs, ends, codes),
            (&[0, 2, 7][..], &[0, 2, 3, 6][..], &[1, 3, 0, 3, 0, 4][..])
        );
        assert_eq!(cursor.seek(2), Some(1));
        assert_eq!(cursor.seek(1), None);
        // Gaps 1 and 4 in 3 bits, tf − 1 in 2, positions 1 3 0 3 0 4 in 3:
        // three width bytes and 1 + 1 + 3 packed ones, and a 16-byte skip
        // row.
        assert_eq!(sealed.blocks.len(), 8);
        assert_eq!(list.approx_bytes(), 8 + 4 + 4 + 8);
        assert_eq!(thawed(list), written(&postings));
    }

    #[test]
    fn empty_list() {
        let sealed = sealed(&[]);
        let list = list(&sealed);
        assert_eq!(list.doc_freq(), 0);
        assert_eq!(list.approx_bytes(), 0);
        assert!(list.cursor(&mut BlockBuf::default()).seek(0).is_none());
        assert_eq!(list.block_count(), 0);
        assert_eq!(list.max_impact_bound(2.0, 1.5), 0.0);
    }

    #[test]
    fn bounds_track_the_best_posting() {
        // tf 1 in a field of 16 → 1/4; tf 2 in one of 4 → √2/2.
        let quarter = sealed(&[(0, vec![0], 16)]);
        assert!((list(&quarter).max_tf_norm - 0.25).abs() < 1e-12);
        let sealed = sealed(&[(0, vec![0], 16), (1, vec![0, 1], 4)]);
        let expect = (2.0f64).sqrt() / 2.0;
        let list = list(&sealed);
        assert!((list.max_impact_bound(1.0, 1.0) - expect).abs() < 1e-12);
        // Boost and idf multiply straight through.
        assert!((list.max_impact_bound(2.0, 3.0) - 6.0 * expect).abs() < 1e-12);
    }

    #[test]
    fn blocks_partition_postings_with_local_bounds() {
        let mut postings: Vec<Posting> = (0..BLOCK_POSTINGS as u32 + 10)
            .map(|d| (d * 3, vec![0], 4))
            .collect();
        // The best posting lands in the second block: tf 2.
        postings.push((BLOCK_POSTINGS as u32 * 3 + 40, vec![0, 1], 4));
        let sealed = sealed(&postings);
        let list = list(&sealed);
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
        assert_eq!(thawed(list), written(&postings));
    }

    #[test]
    fn a_checked_load_refuses_what_a_block_cannot_hold() {
        let sealed = sealed(&[(3, vec![2, 9], 4), (8, vec![1], 4)]);
        let load = |sealed: &Columns, docs| {
            list(sealed)
                .cursor(&mut BlockBuf::default())
                .load_checked(0, docs)
        };
        assert_eq!(load(&sealed, 9), Ok(3));
        assert_eq!(
            load(&sealed, 8),
            Err("a gap runs a document ordinal past the document count")
        );
        let mut wide = sealed.clone();
        wide.blocks[2] = 33;
        assert_eq!(load(&wide, 9), Err("block width past 32 bits"));
        let mut long = sealed.clone();
        long.blocks.push(0);
        long.block_starts[1] += 1;
        assert_eq!(load(&long, 9), Err(STREAM_LENGTH));
        // Documents 3 and 4, the second of 2³² − 2 positions at width 0:
        // the widths and the byte length agree, and nothing pays for them.
        let mut free = sealed.clone();
        free.blocks = vec![0, 32, 0, 0, 0, 0, 0];
        free.blocks.extend((u32::MAX - 2).to_le_bytes());
        free.block_starts = vec![0, free.blocks.len() as u32];
        assert_eq!(load(&free, 9), Err(FREE_POSITIONS));
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
            pack(&mut bytes, width, values.iter().copied());
            prop_assert_eq!(bytes.len(), (values.len() * width as usize).div_ceil(8));
            let mut back = vec![u32::MAX; values.len()];
            unpack(&bytes, width, 0, &mut back);
            prop_assert_eq!(back, values);
        }

        /// A list written through the block encoder decodes to exactly
        /// the list it came from: documents, term frequencies and
        /// positions, read a posting at a time and a block's codes at
        /// once; and every stored bound is its block's largest impact.
        #[test]
        fn a_frozen_list_decodes_to_the_list_it_came_from(postings in arb_postings()) {
            let sealed = sealed(&postings);
            let list = list(&sealed);
            prop_assert_eq!(thawed(list), written(&postings));
            for (b, block) in postings.chunks(BLOCK_POSTINGS).enumerate() {
                let best = block
                    .iter()
                    .map(|(_, positions, len)| tf_norm(positions.len() as u32, *len))
                    .fold(0.0, f64::max);
                prop_assert_eq!(list.block_max[b].to_bits(), best.to_bits());
            }
            let best = list.block_max.iter().copied().fold(0.0, f64::max);
            prop_assert_eq!(list.max_tf_norm.to_bits(), best.to_bits());
        }
    }
}
