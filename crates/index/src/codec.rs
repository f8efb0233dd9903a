//! Binary on-disk codec for the index.
//!
//! The paper's text indexer runs "at scheduled intervals" offline and the
//! search service loads what it produced; this codec is that boundary. A
//! file is the published snapshot as it sits in memory: a header, then
//! every segment's `Columns` little-endian and in a fixed order, with the
//! overlay bitset that was published beside them — the segment's only
//! record of its tombstones — and a checksum.
//!
//! ```text
//! file    := "SCHMRIDX" version:u32 segments:u32 segment*
//! segment := len:u64 body checksum:u64      (len = bytes of body, a multiple of 8)
//! body    := docs lists postings positions blocks term_bytes overlay_words   (u32 each)
//!            field_starts:u32[5]
//!            max_tf_norm:f64[lists] block_max:f64[blocks]
//!            ids:u64[docs] overlay:u64[overlay_words]
//!            term_offsets list_offsets block_offsets :u32[lists+1]
//!            posting_docs:u32[postings] pos_offsets:u32[postings+1] positions:u32[positions]
//!            fwd_offsets:u32[docs+1] fwd_lists:u32[postings] field_lengths:u32[4·docs]
//!            term_bytes:u8[term_bytes] zero padding to a multiple of 8
//! ```
//!
//! Wide columns come first, so every column is naturally aligned in the
//! file. Loading reads each column into one allocation, verifies the
//! checksum and then the structure (`FlatSegment::checked`), and
//! publishes the same segments with the same overlays: nothing is decoded
//! per posting and nothing is rebuilt.

use std::fs::File;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

use schemr_model::SchemaId;

use crate::field::Field;
use crate::memory::Index;
use crate::segment::{Columns, FlatSegment, SealedSegment};

const MAGIC: &[u8; 8] = b"SCHMRIDX";
const VERSION: u32 = 3;

/// Errors raised while decoding an index file.
#[derive(Debug)]
pub enum CodecError {
    /// The input is not a Schemr index file.
    BadMagic,
    /// The file's format version is unsupported.
    BadVersion(u32),
    /// The file is truncated or internally inconsistent.
    Corrupt(&'static str),
    /// I/O failure while reading or writing an index file.
    Io(std::io::Error),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "not a Schemr index file"),
            CodecError::BadVersion(v) => write!(f, "unsupported index file version {v}"),
            CodecError::Corrupt(what) => write!(f, "corrupt index file: {what}"),
            CodecError::Io(e) => write!(f, "index file I/O error: {e}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<std::io::Error> for CodecError {
    fn from(e: std::io::Error) -> Self {
        CodecError::Io(e)
    }
}

/// FNV-1a over little-endian 64-bit words. Every step is a bijection of
/// the running state, so no single-word change can cancel out.
fn checksum(words: &[u8]) -> u64 {
    debug_assert_eq!(words.len() % 8, 0);
    words
        .chunks_exact(8)
        .fold(0xcbf2_9ce4_8422_2325, |h: u64, w| {
            (h ^ u64::from_le_bytes(w.try_into().expect("a chunk of 8")))
                .wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Append `column`, each value through `le`.
fn put<const N: usize, T: Copy>(out: &mut Vec<u8>, column: &[T], le: impl Fn(T) -> [u8; N]) {
    let start = out.len();
    out.resize(start + column.len() * N, 0);
    for (bytes, &value) in out[start..].chunks_exact_mut(N).zip(column) {
        bytes.copy_from_slice(&le(value));
    }
}

fn write_segment(out: &mut Vec<u8>, c: &Columns, overlay: &[u64]) {
    let len_at = out.len();
    out.extend_from_slice(&[0; 8]);
    let counts = [
        c.ids.len(),
        c.list_count(),
        c.posting_docs.len(),
        c.positions.len(),
        c.block_max.len(),
        c.term_bytes.len(),
        overlay.len(),
    ]
    .map(|n| u32::try_from(n).expect("u32 offsets bound every column"));
    put(out, &counts, u32::to_le_bytes);
    put(out, &c.field_starts, u32::to_le_bytes);
    put(out, &c.max_tf_norm, f64::to_le_bytes);
    put(out, &c.block_max, f64::to_le_bytes);
    put(out, &c.ids, |id: SchemaId| id.0.to_le_bytes());
    put(out, overlay, u64::to_le_bytes);
    for column in [
        &c.term_offsets,
        &c.list_offsets,
        &c.block_offsets,
        &c.posting_docs,
        &c.pos_offsets,
        &c.positions,
        &c.fwd_offsets,
        &c.fwd_lists,
        &c.field_lengths,
    ] {
        put(out, column, u32::to_le_bytes);
    }
    out.extend_from_slice(&c.term_bytes);
    // The header is 16 bytes and every segment a multiple of 8.
    out.resize(out.len().next_multiple_of(8), 0);
    let body = len_at + 8;
    let len = (out.len() - body) as u64;
    out[len_at..body].copy_from_slice(&len.to_le_bytes());
    let sum = checksum(&out[body..]);
    out.extend_from_slice(&sum.to_le_bytes());
}

/// Serialize the index to a byte buffer. Reads the published snapshot —
/// concurrent searches and writers are unaffected.
pub fn encode(index: &Index) -> Vec<u8> {
    let snap = index.snapshot();
    let mut out = Vec::with_capacity(16 + snap.deep_bytes() + 128 * snap.segments.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(snap.segments.len() as u32).to_le_bytes());
    for seg in &snap.segments {
        write_segment(&mut out, seg.data.columns(), seg.live.bits());
    }
    out
}

/// What is left of the input. Every read is bounded by it, so no count in
/// the file can make a column allocate more than the file's own length.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: u64) -> Result<&'a [u8], CodecError> {
        let n = usize::try_from(n)
            .ok()
            .filter(|&n| n <= self.0.len())
            .ok_or(CodecError::Corrupt("truncated"))?;
        let (head, tail) = self.0.split_at(n);
        self.0 = tail;
        Ok(head)
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// The next `rows` values of a column, each through `le`: one
    /// allocation, exactly sized.
    fn column<const N: usize, T>(
        &mut self,
        rows: u64,
        le: impl Fn([u8; N]) -> T,
    ) -> Result<Vec<T>, CodecError> {
        let bytes = self.take(rows * N as u64)?;
        Ok(bytes
            .chunks_exact(N)
            .map(|b| le(b.try_into().expect("a chunk of N")))
            .collect())
    }
}

fn read_segment(file: &mut Reader<'_>) -> Result<SealedSegment, CodecError> {
    let len = file.u64()?;
    if len % 8 != 0 {
        return Err(CodecError::Corrupt("segment length is not a multiple of 8"));
    }
    let body = file.take(len)?;
    if checksum(body) != file.u64()? {
        return Err(CodecError::Corrupt("checksum mismatch"));
    }
    let mut r = Reader(body);
    // Counts are u32 in the file; as u64 no sum or product below overflows.
    let mut count = || r.u32().map(u64::from);
    let (docs, lists, postings) = (count()?, count()?, count()?);
    let (positions, blocks, term_bytes, overlay_words) = (count()?, count()?, count()?, count()?);
    let mut field_starts = [0u32; Field::COUNT + 1];
    for start in &mut field_starts {
        *start = r.u32()?;
    }
    let max_tf_norm = r.column(lists, f64::from_le_bytes)?;
    let block_max = r.column(blocks, f64::from_le_bytes)?;
    let ids = r.column(docs, |b| SchemaId(u64::from_le_bytes(b)))?;
    let overlay = r.column(overlay_words, u64::from_le_bytes)?;
    let mut u32s = |rows| r.column(rows, u32::from_le_bytes);
    let cols = Columns {
        field_starts,
        max_tf_norm,
        block_max,
        ids,
        term_offsets: u32s(lists + 1)?,
        list_offsets: u32s(lists + 1)?,
        block_offsets: u32s(lists + 1)?,
        posting_docs: u32s(postings)?,
        pos_offsets: u32s(postings + 1)?,
        positions: u32s(positions)?,
        fwd_offsets: u32s(docs + 1)?,
        fwd_lists: u32s(postings)?,
        field_lengths: u32s(docs * Field::COUNT as u64)?,
        term_bytes: r.take(term_bytes)?.to_vec(),
    };
    if r.0.len() >= 8 || r.0.iter().any(|&b| b != 0) {
        return Err(CodecError::Corrupt(
            "segment length disagrees with its counts",
        ));
    }
    let data = FlatSegment::checked(cols).map_err(CodecError::Corrupt)?;
    SealedSegment::restored(Arc::new(data), &overlay).map_err(CodecError::Corrupt)
}

/// Deserialize an index from bytes produced by [`encode`]: the same
/// segments in the same order with the same tombstones, at epoch 0.
pub fn decode(data: &[u8]) -> Result<Index, CodecError> {
    let mut file = Reader(data);
    let magic = file.take(8).map_err(|_| CodecError::Corrupt("too short"))?;
    if magic != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = file.u32()?;
    if version != VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let segments = file.u32()?;
    let mut sealed = Vec::new();
    for _ in 0..segments {
        sealed.push(read_segment(&mut file)?);
    }
    if !file.0.is_empty() {
        return Err(CodecError::Corrupt("bytes after the last segment"));
    }
    Ok(Index::from_sealed(sealed))
}

/// Replace `path` by what `write` produces, or leave it untouched: the
/// bytes go to `<path>.tmp`, are synced, and only then renamed over the
/// target, so a crash or a full disk mid-write never truncates a good file.
fn replace_file(
    path: &Path,
    write: impl FnOnce(&mut File) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let replace = || {
        let mut file = File::create(&tmp)?;
        write(&mut file)?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)?;
        // The rename is durable once its directory is.
        let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
        File::open(dir.unwrap_or(Path::new(".")))?.sync_all()
    };
    let result = replace();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Write the index to a file, atomically.
pub fn save_to(index: &Index, path: impl AsRef<Path>) -> Result<(), CodecError> {
    let bytes = encode(index);
    Ok(replace_file(path.as_ref(), |file| file.write_all(&bytes))?)
}

/// Read an index from a file written by [`save_to`].
pub fn load_from(path: impl AsRef<Path>) -> Result<Index, CodecError> {
    decode(&std::fs::read(path)?)
}

#[cfg(test)]
mod hostile;
#[cfg(test)]
mod tests;
