//! The mutable head: the one place postings exist in a growable form.
//!
//! The writer appends analyzed documents into a [`HeadBuilder`] and
//! tombstones its slots by setting a bit. Nothing ever searches it:
//! `freeze` encodes it into the flat columns of a sealed segment, term
//! table sorted, with those bits as the segment's overlay, and that
//! segment is what a snapshot publishes and what sealing keeps.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use schemr_model::SchemaId;

use crate::field::Field;
use crate::postings::{packed_len, push_codes, tf_norm, width_of, BLOCK_POSTINGS};
use crate::segment::{bit, Columns, FlatSegment, ListWriter, SealedSegment};
use crate::session::{AnalyzedDoc, Interner, RowTable};
use crate::DocOrd;

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

/// The head segment under construction. It only appends, and each
/// freeze encodes all of it afresh, at a cost in proportion to what it
/// holds: the seal threshold bounds that, and a built or loaded index
/// starts with an empty head, so the head holds only what was written
/// since.
///
/// Its postings are flat: one record each in arrival order — document by
/// document, a document's in (field, term) order — beside one run of
/// position codes, so a new term costs the head its dictionary entry and
/// a counter, not a vector of its own. Posting `p` is in row
/// `fwd_lists[p]`.
#[derive(Debug, Default)]
pub(crate) struct HeadBuilder {
    /// Per field: term → row. Rows are in first-seen order; `freeze`
    /// renumbers them in term order.
    dict: [BTreeMap<String, u32>; Field::COUNT],
    /// Per row the dictionary has handed out: its postings.
    dfs: Vec<u32>,
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
    /// Bytes of the dictionary's terms.
    term_bytes: usize,
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
    /// `terms`. The head's dictionary is searched by `&str` only for a
    /// key `rows` does not hold yet — once per term and head in a batch,
    /// not once per posting — and only a term the head has not met is
    /// copied into it.
    pub(crate) fn push(&mut self, doc: &AnalyzedDoc<'_>, terms: &Interner, rows: &mut RowTable) {
        let ord = self.ids.len() as DocOrd;
        let mut start = doc.first_position as usize;
        for key in doc.keys {
            let row = rows.get(*key).unwrap_or_else(|| {
                let term = terms.text(key.term());
                let dict = &mut self.dict[key.field()];
                let row = match dict.get(term) {
                    Some(&row) => row,
                    None => {
                        let row = u32::try_from(self.dfs.len())
                            .expect("a head holds fewer than 2^32 lists");
                        self.dfs.push(0);
                        dict.insert(term.to_string(), row);
                        self.term_bytes += term.len();
                        row
                    }
                };
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
            self.dfs[row as usize] += 1;
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

    /// Tombstone the head's copy of `id`: `None` when the head never held
    /// the id, otherwise whether a live copy was there to kill. The head
    /// holds an id's newest copy, so `Some(false)` means it is gone
    /// everywhere.
    pub(crate) fn tombstone(&mut self, id: SchemaId) -> Option<bool> {
        let ord = *self.by_id.get(&id)? as usize;
        if bit(&self.dead, ord) {
            return Some(false);
        }
        self.dead[ord / 64] |= 1u64 << (ord % 64);
        self.live_docs -= 1;
        Some(true)
    }

    /// Encode the head into a sealed segment's columns, its dead slots the
    /// segment's overlay.
    ///
    /// One counting sort over the forward rows groups the postings by
    /// list, documents ascending within each; then every list, in term
    /// order, goes through the [`ListWriter`] a merge writes with. Every
    /// column but the block stream is allocated once at its final size;
    /// the stream grows as it is written and is trimmed after (room
    /// reserved at a bound and trimmed kept ~1 MiB of a bulk build
    /// resident). Nothing is allocated per list or per posting; a dead
    /// slot costs a forward-row walk.
    pub(crate) fn freeze(&self) -> SealedSegment {
        let lists = self.dfs.len();
        // The counting sort: row `r`'s postings are `order[ends[r − 1]..
        // ends[r]]`, in arrival order, which is document order.
        let mut ends = self.dfs.clone();
        let (mut blocks, mut sum) = (0, 0);
        for end in &mut ends {
            blocks += (*end as usize).div_ceil(BLOCK_POSTINGS);
            (*end, sum) = (sum, sum + *end);
        }
        let mut order = vec![0u32; self.postings.len()];
        for (p, &row) in self.fwd_lists.iter().enumerate() {
            let end = &mut ends[row as usize];
            order[*end as usize] = p as u32;
            *end += 1;
        }
        // The lists in (field, term) order are the sealed ids.
        let mut sealed_id = vec![0u32; lists];
        for (id, &row) in self.dict.iter().flat_map(|d| d.values()).enumerate() {
            sealed_id[row as usize] = id as u32;
        }
        let docs = self.ids.len();
        // The forward rows renamed — a document's keys arrive in
        // (field, term) order, which is the sealed id order, so its renamed
        // entries stay ascending — and each one's run width, in one pass.
        let mut renamed = Vec::with_capacity(self.fwd_lists.len());
        let mut row_widths = Vec::with_capacity(docs);
        let mut row_bytes = 0;
        let mut start = 0;
        for &end in &self.fwd_ends {
            // The codes: the first id, then each distance less 1.
            let (mut codes, mut next) = (0, 0);
            renamed.extend(self.fwd_lists[start..end as usize].iter().map(|&row| {
                let id = sealed_id[row as usize];
                codes |= id - next;
                next = id + 1;
                id
            }));
            let width = width_of(codes);
            row_widths.push(width);
            row_bytes += 1 + packed_len(end as usize - start, width);
            start = end as usize;
        }
        let mut cols = Columns::with_capacity(docs, lists, blocks, 0, row_bytes, self.term_bytes);
        cols.ids.extend_from_slice(&self.ids);
        cols.field_lengths.extend_from_slice(&self.field_lengths);
        let mut writer = ListWriter::new();
        for (field_ord, dict) in self.dict.iter().enumerate() {
            for (term, &row) in dict {
                let start = row.checked_sub(1).map_or(0, |r| ends[r as usize]);
                for &p in &order[start as usize..ends[row as usize] as usize] {
                    let posting = &self.postings[p as usize];
                    let at = posting.codes_at as usize;
                    let codes = &self.codes[at..at + posting.tf as usize];
                    writer.push(
                        &mut cols,
                        posting.doc,
                        codes,
                        posting.codes_or,
                        posting.norm,
                    );
                }
                writer.finish(&mut cols, term.as_bytes());
            }
            cols.field_starts[field_ord + 1] = cols.list_count() as u32;
        }
        cols.blocks.shrink_to_fit();
        let mut start = 0;
        for (&end, &width) in self.fwd_ends.iter().zip(&row_widths) {
            cols.push_row(&renamed[start..end as usize], width);
            start = end as usize;
        }
        SealedSegment::with_tombstones(Arc::new(FlatSegment::trusted(cols)), &self.dead)
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

        let mut sealed = head.freeze();
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
        let published = head.freeze().published();
        assert_eq!((published.live_df(alpha), published.live_df(zeta)), (1, 1));
    }
}
