//! The mutable head: the one place postings exist in a growable form.
//!
//! The writer appends analyzed documents into a [`HeadBuilder`] and
//! tombstones its slots by setting a bit. Nothing ever searches the
//! builder: it is published as *runs*, segments frozen from it over
//! consecutive document ranges, and sealed by freezing all of it. Both go
//! through one freeze, of a document range, that encodes the range into
//! the flat columns of a sealed segment, term table sorted, with the
//! range's dead bits as the segment's overlay.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use schemr_model::SchemaId;

use crate::field::Field;
use crate::postings::{packed_len, push_codes, tf_norm, width_of, BLOCK_POSTINGS};
use crate::segment::{bit, Columns, FlatSegment, ListWriter, SealedSegment};
use crate::session::{AnalyzedDoc, Interner, RowTable};
use crate::DocOrd;

/// A row no freeze in progress has named.
const UNNAMED: u32 = u32::MAX;

/// One posting of the head, kept in arrival order: what a freeze needs of
/// it besides its list, its impact norm computed once.
#[derive(Debug, Clone, Copy)]
struct HeadPosting {
    doc: DocOrd,
    tf: u32,
    /// Its position codes are `codes[codes_at..codes_at + tf]` of the
    /// head's.
    codes_at: u32,
    /// The OR of those codes.
    codes_or: u32,
    /// `tf_norm(tf, field_len)`.
    norm: f64,
}

/// The head's documents from `start` on, frozen: as many as its segment
/// holds.
#[derive(Debug)]
struct Run {
    start: usize,
    segment: SealedSegment,
}

impl Run {
    fn len(&self) -> usize {
        self.segment.total_count()
    }
}

/// The head segment under construction. It only appends; the seal
/// threshold bounds what it holds, and a built or loaded index starts
/// with an empty head, so it holds only what was written since.
///
/// It is published as a stack of runs, oldest first, that together cover
/// every document pushed before the last [`HeadBuilder::freeze_new`]: a
/// binary counter, in which each run holds more documents than all newer
/// runs together, so a head of `n` documents is at most ⌊log2 n⌋ + 1
/// runs. A commit freezes only what it added, merged with the newer runs
/// it outgrows, from the builder; each document is frozen again
/// O(log n) times before its head seals, not once a commit. Sealing
/// freezes the whole head, as it always has, so a sealed segment never
/// depends on how the runs were cut.
///
/// Its postings are flat: one record each in arrival order — document by
/// document, a document's in (field, term) order — beside one run of
/// position codes, so a new term costs the head its dictionary entry and
/// a scratch slot, not a vector of its own. Posting `p` is in row
/// `fwd_lists[p]`.
#[derive(Debug, Default)]
pub(crate) struct HeadBuilder {
    /// `(field, term)` → row, in first-seen order. Row `r`'s key is the
    /// field's ordinal as one byte, then the term, so keys sort in
    /// (field, term) order; a freeze sorts the rows it touches by them.
    dict: Interner,
    /// Per row: its list id in the freeze under way, or [`UNNAMED`].
    named: Vec<u32>,
    /// A key being looked up.
    key: String,
    postings: Vec<HeadPosting>,
    /// Every posting's position codes, as the block stream stores them:
    /// its first position, then each next one's distance − 1.
    codes: Vec<u32>,
    /// Forward index over rows, cut like [`Columns::fwd_offsets`] less
    /// the leading 0.
    fwd_ends: Vec<u32>,
    fwd_lists: Vec<u32>,
    ids: Vec<SchemaId>,
    field_lengths: Vec<u32>,
    dead: Vec<u64>,
    by_id: HashMap<SchemaId, DocOrd>,
    live_docs: usize,
    runs: Vec<Run>,
}

impl HeadBuilder {
    /// Document slots, tombstoned ones included.
    pub(crate) fn doc_count(&self) -> usize {
        self.ids.len()
    }

    pub(crate) fn live_docs(&self) -> usize {
        self.live_docs
    }

    /// Append an analyzed document, its keys' terms named by id in
    /// `terms`. The head's dictionary is searched by text only for a key
    /// `rows` does not hold yet — once per term and head in a batch, not
    /// once per posting.
    pub(crate) fn push(&mut self, doc: &AnalyzedDoc<'_>, terms: &Interner, rows: &mut RowTable) {
        let ord = self.ids.len() as DocOrd;
        let mut start = doc.first_position as usize;
        for key in doc.keys {
            let row = rows.get(*key).unwrap_or_else(|| {
                self.key.clear();
                self.key.push(char::from(key.field() as u8));
                self.key.push_str(terms.text(key.term()));
                let (row, new) = self.dict.intern(&self.key);
                if new {
                    self.named.push(UNNAMED);
                }
                rows.set(*key, row);
                row
            });
            let end = key.positions_end as usize;
            let codes_at =
                u32::try_from(self.codes.len()).expect("a head holds fewer than 2^32 positions");
            let codes_or = push_codes(&mut self.codes, &doc.positions[start..end]);
            let tf = (end - start) as u32;
            self.postings.push(HeadPosting {
                doc: ord,
                tf,
                codes_at,
                codes_or,
                norm: tf_norm(tf, doc.field_lengths[key.field()]),
            });
            self.fwd_lists.push(row);
            start = end;
        }
        self.fwd_ends.push(self.fwd_lists.len() as u32);
        if self.ids.len().is_multiple_of(64) {
            self.dead.push(0);
        }
        self.ids.push(doc.id);
        self.field_lengths.extend_from_slice(&doc.field_lengths);
        self.by_id.insert(doc.id, ord);
        self.live_docs += 1;
    }

    /// Tombstone the head's copy of `id`, in the builder and in the run
    /// that holds it: `None` when the head never held the id, otherwise
    /// whether a live copy was there to kill. The head holds an id's
    /// newest copy, so `Some(false)` means it is gone everywhere.
    pub(crate) fn tombstone(&mut self, id: SchemaId) -> Option<bool> {
        let ord = *self.by_id.get(&id)? as usize;
        if bit(&self.dead, ord) {
            return Some(false);
        }
        self.dead[ord / 64] |= 1u64 << (ord % 64);
        self.live_docs -= 1;
        // Runs cover the head from document 0 on, so the last one to
        // start at or before `ord` holds it, if any does yet.
        let holder = self.runs.partition_point(|run| run.start <= ord);
        if let Some(run) = holder.checked_sub(1).map(|r| &mut self.runs[r]) {
            if ord - run.start < run.len() {
                run.segment.tombstone((ord - run.start) as DocOrd);
            }
        }
        Some(true)
    }

    /// Freeze the documents pushed since the newest run into one run,
    /// together with every run from the oldest one that holds no more
    /// documents than all the runs after it and the new documents: the
    /// binary counter's carry, as one freeze from the builder.
    pub(crate) fn freeze_new(&mut self) {
        let end = self.doc_count();
        let covered = self.runs.last().map_or(0, |run| run.start + run.len());
        if covered == end {
            return;
        }
        // Walking from the newest run back, `newer` is what the runs after
        // this one hold, the new documents included.
        let (mut newer, mut keep) = (end - covered, self.runs.len());
        for (r, run) in self.runs.iter().enumerate().rev() {
            if run.len() <= newer {
                keep = r;
            }
            newer += run.len();
        }
        let start = self.runs.get(keep).map_or(covered, |run| run.start);
        self.runs.truncate(keep);
        let segment = self.freeze(start..end);
        self.runs.push(Run { start, segment });
    }

    /// The runs a snapshot publishes, oldest first.
    pub(crate) fn runs(&mut self) -> impl ExactSizeIterator<Item = &mut SealedSegment> {
        self.runs.iter_mut().map(|run| &mut run.segment)
    }

    /// The whole head as one sealed segment: what sealing keeps and what
    /// a saved file stores.
    pub(crate) fn freeze_all(&mut self) -> SealedSegment {
        self.freeze(0..self.doc_count())
    }

    /// Where document `doc`'s postings start.
    fn postings_of(&self, doc: usize) -> usize {
        doc.checked_sub(1).map_or(0, |d| self.fwd_ends[d] as usize)
    }

    /// Encode documents `docs` into a sealed segment's columns, ordinals
    /// counted from the range's start, its dead slots the segment's
    /// overlay.
    ///
    /// The range's postings name the rows it touches; only those are
    /// sorted into (field, term) order, which is their list ids. One
    /// counting sort over the range's forward rows then groups its
    /// postings by list, documents ascending within each, and every list
    /// goes through the [`ListWriter`] a merge writes with. Every column
    /// but the block stream is allocated once at its final size; the
    /// stream grows as it is written and is trimmed after (room reserved
    /// at a bound and trimmed kept ~1 MiB of a bulk build resident).
    /// Nothing is allocated per list or per posting.
    fn freeze(&mut self, docs: Range<usize>) -> SealedSegment {
        let postings = self.postings_of(docs.start)..self.postings_of(docs.end);
        // The rows the range touches, each with its posting count.
        let mut lists: Vec<(u32, u32)> = Vec::new();
        for &row in &self.fwd_lists[postings.clone()] {
            let named = &mut self.named[row as usize];
            if *named == UNNAMED {
                *named = lists.len() as u32;
                lists.push((row, 0));
            }
            lists[*named as usize].1 += 1;
        }
        let dict = &self.dict;
        lists.sort_unstable_by(|a, b| dict.bytes(a.0).cmp(dict.bytes(b.0)));
        // The counting sort: list `l`'s postings are `order[ends[l − 1]..
        // ends[l]]`, in arrival order, which is document order.
        let mut ends = Vec::with_capacity(lists.len());
        let (mut blocks, mut sum, mut term_bytes) = (0, 0, 0);
        for (id, &(row, df)) in lists.iter().enumerate() {
            self.named[row as usize] = id as u32;
            blocks += (df as usize).div_ceil(BLOCK_POSTINGS);
            term_bytes += dict.bytes(row).len() - 1;
            ends.push(sum);
            sum += df;
        }
        let mut order = vec![0u32; postings.len()];
        for p in postings.clone() {
            let end = &mut ends[self.named[self.fwd_lists[p] as usize] as usize];
            order[*end as usize] = p as u32;
            *end += 1;
        }
        // The forward rows renamed — a document's keys arrive in
        // (field, term) order, which is the list id order, so its renamed
        // entries stay ascending — and each one's run width, in one pass.
        let mut renamed = Vec::with_capacity(postings.len());
        let mut row_widths = Vec::with_capacity(docs.len());
        let mut row_bytes = 0;
        let mut start = postings.start;
        for &end in &self.fwd_ends[docs.clone()] {
            // The codes: the first id, then each distance less 1.
            let (mut codes, mut next) = (0, 0);
            renamed.extend(self.fwd_lists[start..end as usize].iter().map(|&row| {
                let id = self.named[row as usize];
                codes |= id - next;
                next = id + 1;
                id
            }));
            let width = width_of(codes);
            row_widths.push(width);
            row_bytes += 1 + packed_len(end as usize - start, width);
            start = end as usize;
        }
        let mut cols =
            Columns::with_capacity(docs.len(), lists.len(), blocks, 0, row_bytes, term_bytes);
        cols.ids.extend_from_slice(&self.ids[docs.clone()]);
        cols.field_lengths.extend_from_slice(
            &self.field_lengths[docs.start * Field::COUNT..docs.end * Field::COUNT],
        );
        let base = docs.start as DocOrd;
        let mut writer = ListWriter::new();
        let mut start = 0;
        for (&(row, _), &end) in lists.iter().zip(&ends) {
            for &p in &order[start as usize..end as usize] {
                let posting = &self.postings[p as usize];
                let at = posting.codes_at as usize;
                let codes = &self.codes[at..at + posting.tf as usize];
                writer.push(
                    &mut cols,
                    posting.doc - base,
                    codes,
                    posting.codes_or,
                    posting.norm,
                );
            }
            writer.finish(&mut cols, &dict.bytes(row)[1..]);
            start = end;
        }
        for field_ord in 0..Field::COUNT {
            cols.field_starts[field_ord + 1] = lists
                .partition_point(|&(row, _)| usize::from(dict.bytes(row)[0]) <= field_ord)
                as u32;
        }
        cols.blocks.shrink_to_fit();
        let mut start = 0;
        for (&end, &width) in self.fwd_ends[docs.clone()].iter().zip(&row_widths) {
            let end = end as usize - postings.start;
            cols.push_row(&renamed[start..end], width);
            start = end;
        }
        for &(row, _) in &lists {
            self.named[row as usize] = UNNAMED;
        }
        let mut dead = vec![0u64; docs.len().div_ceil(64)];
        for ord in docs.clone().filter(|&ord| bit(&self.dead, ord)) {
            let at = ord - docs.start;
            dead[at / 64] |= 1u64 << (at % 64);
        }
        SealedSegment::with_tombstones(Arc::new(FlatSegment::trusted(cols)), &dead)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::postings::BlockBuf;
    use crate::segment::tests::docs_of;
    use crate::session::Key;

    /// Pushes documents whose keys are given terms (sorted) in the title
    /// field, one occurrence each, the way a write session would.
    struct Pusher {
        head: HeadBuilder,
        terms: Interner,
        rows: RowTable,
    }

    impl Pusher {
        fn push(&mut self, id: u64, terms: &[&str]) {
            let keys: Vec<Key> = terms
                .iter()
                .enumerate()
                .map(|(i, term)| Key::new(0, self.terms.intern(term).0, i as u32 + 1))
                .collect();
            self.rows.cover(self.terms.len());
            let doc = AnalyzedDoc {
                id: SchemaId(id),
                field_lengths: [terms.len() as u32, 0, 0, 0],
                keys: &keys,
                positions: &(0..terms.len() as u32).collect::<Vec<_>>(),
                first_position: 0,
            };
            self.head.push(&doc, &self.terms, &mut self.rows);
        }
    }

    #[test]
    fn freeze_sorts_the_term_table_and_carries_tombstones_as_overlay_bits() {
        let mut pusher = Pusher {
            head: HeadBuilder::default(),
            terms: Interner::new(),
            rows: RowTable::new(),
        };
        pusher.rows.next_head();
        // "zeta" is met before "alpha": builder rows are first-seen order.
        pusher.push(1, &["zeta"]);
        pusher.push(2, &["alpha", "zeta"]);
        let head = &mut pusher.head;
        assert_eq!(head.tombstone(SchemaId(7)), None);
        // A replacement, the way the writer does it: kill, then append.
        assert_eq!(head.tombstone(SchemaId(1)), Some(true));
        pusher.push(1, &["alpha"]);
        let head = &mut pusher.head;
        assert_eq!((head.doc_count(), head.live_docs()), (3, 2));

        let mut sealed = head.freeze_all();
        let frozen = &sealed.data;
        let (alpha, zeta) = (
            frozen.find(Field::Title, "alpha").unwrap(),
            frozen.find(Field::Title, "zeta").unwrap(),
        );
        assert_eq!((alpha, zeta), (0, 1), "list ids follow term order");
        assert_eq!(docs_of(frozen.list(alpha)), [1, 2]);
        assert_eq!(docs_of(frozen.list(zeta)), [0, 1]);
        let mut buf = BlockBuf::default();
        let mut zeta_postings = frozen.list(zeta).cursor(&mut buf);
        assert_eq!(zeta_postings.seek(1), Some(1));
        assert_eq!(zeta_postings.positions(1), [1]);
        assert!(frozen.lists_of(1).eq([alpha, zeta]));
        assert!(frozen.lists_of(2).eq([alpha]));
        assert_eq!(frozen.ord_of(SchemaId(1)), Some(2), "the newest copy");
        assert_eq!(frozen.columns().validate(), Ok(()));
        // Slot 0 (the old id 1) was tombstoned: zeta lost a live posting.
        assert!(sealed.is_dead(0) && !sealed.is_dead(2));
        assert_eq!(sealed.live_count(), 2);
        let published = sealed.published();
        assert_eq!((published.live_df(alpha), published.live_df(zeta)), (2, 1));
        // The newest copy is the one a later tombstone finds.
        assert_eq!(head.tombstone(SchemaId(1)), Some(true));
        assert_eq!(head.tombstone(SchemaId(1)), Some(false));
        let published = head.freeze_all().published();
        assert_eq!((published.live_df(alpha), published.live_df(zeta)), (1, 1));
    }
}
