//! The mutable head: the one place postings exist in a growable form.
//!
//! The writer appends analyzed documents into a [`HeadBuilder`] and
//! tombstones its slots by setting a bit. Nothing ever searches it:
//! `freeze` copies it into the flat columns of a sealed segment, term
//! table sorted, with those bits as the segment's overlay, and that copy
//! is what a snapshot publishes and what sealing keeps.

use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::sync::Arc;

use schemr_model::SchemaId;

use crate::field::Field;
use crate::postings::{packed_len, width_of, GrowingList, BLOCK_POSTINGS};
use crate::segment::{bit, Columns, FlatSegment, SealedSegment};
use crate::session::{AnalyzedDoc, Interner, RowTable};
use crate::DocOrd;

/// The head segment under construction.
#[derive(Debug, Default)]
pub(crate) struct HeadBuilder {
    /// Per field: term → row of `lists`. Rows are in first-seen order;
    /// `freeze` renumbers them in term order.
    dict: [BTreeMap<String, u32>; Field::COUNT],
    lists: Vec<GrowingList>,
    /// Forward index over rows of `lists`, cut like [`Columns::fwd_offsets`]
    /// less the leading 0.
    fwd_ends: Vec<u32>,
    fwd_lists: Vec<u32>,
    ids: Vec<SchemaId>,
    field_lengths: Vec<u32>,
    dead: Vec<u64>,
    by_id: HashMap<SchemaId, DocOrd>,
    live_docs: usize,
    /// Bytes of the dictionary's terms.
    term_bytes: usize,
    last: Option<LastFreeze>,
    /// A freeze's renamed forward rows and their run widths, kept for the
    /// next freeze to reuse.
    renamed: Vec<u32>,
    row_widths: Vec<u8>,
}

/// What the head's last freeze built, for the next one to copy from. The
/// head only appends, so a list with no posting since encodes to the same
/// bytes, and so does an earlier document's forward row while no list has
/// moved: a publish encodes what changed and copies the rest, as the
/// segment it replaces holds it.
#[derive(Debug)]
struct LastFreeze {
    data: Arc<FlatSegment>,
    /// The list each row of `lists` became.
    sealed_id: Vec<u32>,
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
                        let row = u32::try_from(self.lists.len())
                            .expect("a head holds fewer than 2^32 lists");
                        dict.insert(term.to_string(), row);
                        self.term_bytes += term.len();
                        self.lists.push(GrowingList::default());
                        row
                    }
                };
                rows.set(*key, row);
                row
            });
            let end = key.positions_end as usize;
            self.lists[row as usize].push(
                ord,
                &doc.positions[start..end],
                doc.field_lengths[key.field()],
            );
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
    /// segment's overlay, copying from the last freeze what has not
    /// changed since. Every column is allocated once at its final size (a
    /// pass over the lists and the forward rows adds the sizes up), and
    /// nothing is allocated per list or per posting; a dead slot costs a
    /// forward-row walk.
    pub(crate) fn freeze(&mut self) -> SealedSegment {
        let lists = self.lists.len();
        // The lists in (field, term) order are the sealed ids.
        let mut sealed_id = vec![0u32; lists];
        for (id, &row) in self.dict.iter().flat_map(|d| d.values()).enumerate() {
            sealed_id[row as usize] = id as u32;
        }
        let previous = self.last.take();
        let last = previous
            .as_ref()
            .map(|l| (l.data.columns(), &l.sealed_id[..]));
        // What the last freeze encoded of row `row`'s list that still
        // holds: its list there and how many of its blocks — all of them
        // if it has had no posting since, else the ones that were full,
        // as appending touches only the last block.
        let reusable = |row: usize| {
            let (cols, ids) = last?;
            let id = *ids.get(row)? as usize;
            let was = (cols.list_offsets[id + 1] - cols.list_offsets[id]) as usize;
            let blocks = if was == self.lists[row].docs.len() {
                was.div_ceil(BLOCK_POSTINGS)
            } else {
                was / BLOCK_POSTINGS
            };
            (blocks > 0).then_some((cols, id, blocks))
        };
        // Documents whose forward rows carry over: all the last freeze held,
        // unless a new term moved a list.
        let (kept_rows, kept_bytes) = match last {
            Some((cols, ids)) if sealed_id.starts_with(ids) => {
                (cols.ids.len(), cols.fwd_starts[cols.ids.len()] as usize)
            }
            _ => (0, 0),
        };
        let docs = self.ids.len();
        // The rows to encode, renamed — a document's keys arrive in
        // (field, term) order, which is the sealed id order, so its
        // renamed entries stay ascending — and each one's run width, in one
        // pass.
        let first = kept_rows.checked_sub(1).map_or(0, |d| self.fwd_ends[d]) as usize;
        self.renamed.clear();
        self.row_widths.clear();
        let mut row_bytes = kept_bytes;
        let mut start = first;
        for &end in &self.fwd_ends[kept_rows..] {
            // The codes: the first id, then each distance less 1.
            let (mut codes, mut next) = (0, 0);
            self.renamed
                .extend(self.fwd_lists[start..end as usize].iter().map(|&row| {
                    let id = sealed_id[row as usize];
                    codes |= id - next;
                    next = id + 1;
                    id
                }));
            let width = width_of(codes);
            self.row_widths.push(width as u8);
            row_bytes += 1 + packed_len(end as usize - start, width);
            start = end as usize;
        }
        let block_bytes = (0..lists)
            .map(|row| match reusable(row) {
                Some((cols, id, blocks)) => {
                    cols.block_bytes(id, blocks).len() + self.lists[row].encoded_len(blocks)
                }
                None => self.lists[row].encoded_len(0),
            })
            .sum();
        let mut cols = Columns::with_capacity(
            docs,
            lists,
            self.lists.iter().map(|l| l.block_max.len()).sum(),
            block_bytes,
            row_bytes,
            self.term_bytes,
        );
        cols.ids.extend_from_slice(&self.ids);
        cols.field_lengths.extend_from_slice(&self.field_lengths);
        for (field_ord, dict) in self.dict.iter().enumerate() {
            // Lists with no posting since, consecutive there as here, are
            // copied a run at a time: the run's lists there, and their
            // positions.
            let mut run: Option<(&Columns, Range<usize>, u32)> = None;
            for (term, &row) in dict {
                let list = &self.lists[row as usize];
                let positions = list.positions.len() as u32;
                match reusable(row as usize) {
                    Some((from, id, blocks)) if blocks == list.block_max.len() => match &mut run {
                        Some((_, ids, sum)) if ids.end == id => {
                            ids.end += 1;
                            *sum += positions;
                        }
                        _ => {
                            if let Some((from, ids, sum)) = run.take() {
                                cols.copy_lists(from, ids, sum);
                            }
                            run = Some((from, id..id + 1, positions));
                        }
                    },
                    reuse => {
                        if let Some((from, ids, sum)) = run.take() {
                            cols.copy_lists(from, ids, sum);
                        }
                        cols.push_list(term.as_bytes(), list, reuse);
                    }
                }
            }
            if let Some((from, ids, sum)) = run {
                cols.copy_lists(from, ids, sum);
            }
            cols.field_starts[field_ord + 1] = cols.list_count() as u32;
        }
        if let Some((from, _)) = last.filter(|_| kept_rows > 0) {
            cols.copy_rows(from, kept_rows);
        }
        let mut start = 0;
        for (&end, &width) in self.fwd_ends[kept_rows..].iter().zip(&self.row_widths) {
            let end = end as usize - first;
            cols.push_row(&self.renamed[start..end], width.into());
            start = end;
        }
        let data = Arc::new(match &previous {
            Some(previous) => FlatSegment::trusted_after(cols, &previous.data),
            None => FlatSegment::trusted(cols),
        });
        self.last = Some(LastFreeze {
            data: data.clone(),
            sealed_id,
        });
        SealedSegment::with_tombstones(data, &self.dead)
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

    fn pusher() -> Pusher {
        let mut pusher = Pusher {
            head: HeadBuilder::default(),
            terms: Interner::new(),
            rows: RowTable::new(),
        };
        pusher.rows.next_head();
        pusher
    }

    #[test]
    fn a_freeze_that_copies_from_the_last_equals_one_that_encodes_all() {
        // Documents 0–69 give "gamma" a full block; the last three bring
        // nothing new, then a new first term, then a new last term.
        let docs: Vec<(u64, Vec<&str>)> = (0..70)
            .map(|id| (id, vec!["beta", "gamma"]))
            .chain([
                (70, vec!["gamma"]),
                (71, vec!["alpha", "beta"]),
                (72, vec!["delta"]),
            ])
            .collect();
        let mut every = pusher();
        for (id, terms) in &docs {
            every.push(*id, terms);
            let frozen = every.head.freeze();
            let mut fresh = pusher();
            docs.iter()
                .take_while(|(other, _)| other <= id)
                .for_each(|(id, terms)| fresh.push(*id, terms));
            assert_eq!(
                frozen.data.columns(),
                fresh.head.freeze().data.columns(),
                "after document {id}"
            );
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
