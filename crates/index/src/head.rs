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
use crate::DocOrd;

/// One document analyzed into what [`HeadBuilder::push`] applies under the
/// writer lock: its occurrences grouped by postings list, the lists' terms
/// back to back in one text arena. Analysis (the expensive part) runs
/// before the lock is taken.
#[derive(Debug)]
pub(crate) struct AnalyzedDoc {
    pub id: SchemaId,
    pub field_lengths: [u32; Field::COUNT],
    /// The distinct `(field, term)` keys' terms, concatenated in key order
    /// (by field, then by term).
    pub text: String,
    /// Per key: its field, one past its term's last byte in `text`, and
    /// one past its last entry in `positions`.
    pub keys: Vec<(u8, u32, u32)>,
    /// Every occurrence's position, key by key and ascending within a key.
    pub positions: Vec<u32>,
}

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

    /// Append an analyzed document. A term costs a dictionary lookup by
    /// `&str`; only one the head has not met is copied into it.
    pub(crate) fn push(&mut self, doc: &AnalyzedDoc) {
        let ord = self.ids.len() as DocOrd;
        let (mut text_start, mut start) = (0usize, 0usize);
        for &(field, text_end, end) in &doc.keys {
            let term = &doc.text[text_start..text_end as usize];
            let dict = &mut self.dict[field as usize];
            let row = match dict.get(term) {
                Some(&row) => row,
                None => {
                    let row = self.lists.len() as u32;
                    dict.insert(term.to_string(), row);
                    self.lists.push(GrowingList::default());
                    row
                }
            };
            self.lists[row as usize].push(
                ord,
                &doc.positions[start..end as usize],
                doc.field_lengths[field as usize],
            );
            self.fwd_lists.push(row);
            (text_start, start) = (text_end as usize, end as usize);
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

    /// A document whose keys are `terms` (sorted) in the title field, one
    /// occurrence each.
    fn titled(id: u64, terms: &[&str]) -> AnalyzedDoc {
        let mut text = String::new();
        let keys = terms
            .iter()
            .enumerate()
            .map(|(i, term)| {
                text.push_str(term);
                (0u8, text.len() as u32, i as u32 + 1)
            })
            .collect();
        AnalyzedDoc {
            id: SchemaId(id),
            field_lengths: [terms.len() as u32, 0, 0, 0],
            text,
            keys,
            positions: (0..terms.len() as u32).collect(),
        }
    }

    #[test]
    fn freeze_sorts_the_term_table_and_bakes_tombstones() {
        let mut head = HeadBuilder::default();
        // "zeta" is met before "alpha": builder rows are first-seen order.
        head.push(&titled(1, &["zeta"]));
        head.push(&titled(2, &["alpha", "zeta"]));
        assert_eq!(head.tombstone(SchemaId(7)), None);
        // A replacement, the way the writer does it: kill, then append.
        assert_eq!(head.tombstone(SchemaId(1)), Some(true));
        head.push(&titled(1, &["alpha"]));
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
