//! The mutable head: the one place postings exist in a growable form.
//!
//! The writer appends analyzed documents into a [`HeadBuilder`] and
//! tombstones its slots in place (*baked* flags). Nothing ever searches
//! it: `freeze` copies it into the flat columns of a sealed segment, term
//! table sorted, and that copy is what a snapshot publishes and what
//! sealing keeps.

use std::collections::{BTreeMap, HashMap};

use schemr_model::SchemaId;

use crate::field::Field;
use crate::postings::GrowingList;
use crate::segment::{bit, Columns, FlatSegment};
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
        let start = ord.checked_sub(1).map_or(0, |prev| self.fwd_ends[prev]);
        for &row in &self.fwd_lists[start as usize..self.fwd_ends[ord] as usize] {
            self.lists[row as usize].live -= 1;
        }
        Some(true)
    }

    /// Copy the head into a sealed segment's columns. Every column is
    /// allocated once at its final size (a pass over the lists adds the
    /// sizes up), so the cost is a few block copies a list — nothing per
    /// posting.
    pub(crate) fn freeze(&self) -> FlatSegment {
        let lists = self.lists.len();
        let total = |len: fn(&GrowingList) -> usize| self.lists.iter().map(len).sum();
        let mut cols = Columns::with_capacity(
            self.ids.len(),
            lists,
            self.fwd_lists.len(),
            total(|l| l.positions.len()),
            total(|l| l.block_max.len()),
            self.dict
                .iter()
                .flat_map(|d| d.keys())
                .map(String::len)
                .sum(),
        );
        cols.ids.extend_from_slice(&self.ids);
        cols.field_lengths.extend_from_slice(&self.field_lengths);
        cols.baked_dead.extend_from_slice(&self.dead);
        let mut sealed_id = vec![0u32; lists];
        for (field_ord, dict) in self.dict.iter().enumerate() {
            for (term, &row) in dict {
                sealed_id[row as usize] = cols.live_df.len() as u32;
                cols.push_list(term.as_bytes(), &self.lists[row as usize]);
            }
            cols.field_starts[field_ord + 1] = cols.live_df.len() as u32;
        }
        // A document's keys arrive in (field, term) order, which is the
        // sealed id order: its renamed entries stay ascending.
        cols.fwd_offsets.extend_from_slice(&self.fwd_ends);
        cols.fwd_lists
            .extend(self.fwd_lists.iter().map(|&row| sealed_id[row as usize]));
        FlatSegment::trusted(cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn freeze_sorts_the_term_table_and_bakes_tombstones() {
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

        let frozen = head.freeze();
        let (alpha, zeta) = (
            frozen.find(Field::Title, "alpha").unwrap(),
            frozen.find(Field::Title, "zeta").unwrap(),
        );
        assert_eq!((alpha, zeta), (0, 1), "list ids follow term order");
        assert_eq!(frozen.list(alpha).docs, [1, 2]);
        assert_eq!(frozen.list(zeta).docs, [0, 1]);
        assert_eq!(frozen.list(zeta).positions(1), [1]);
        assert_eq!(frozen.lists_of(1), [alpha, zeta]);
        assert_eq!(frozen.lists_of(2), [alpha]);
        // Slot 0 (the old id 1) was tombstoned: zeta lost a live posting.
        assert!(frozen.is_baked_dead(0) && !frozen.is_baked_dead(2));
        assert_eq!(frozen.columns().live_df, [2, 1]);
        assert_eq!(frozen.live_docs(), 2);
        assert_eq!(frozen.ord_of(SchemaId(1)), Some(2), "the newest copy");
        assert_eq!(frozen.columns().validate(), Ok(()));
        // The newest copy is the one a later tombstone finds.
        assert_eq!(head.tombstone(SchemaId(1)), Some(true));
        assert_eq!(head.tombstone(SchemaId(1)), Some(false));
        assert_eq!(head.freeze().columns().live_df, [1, 1]);
    }
}
