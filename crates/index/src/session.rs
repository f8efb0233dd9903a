//! The write session: what [`Index::apply`] analyzes a batch in.
//!
//! A schema corpus repeats its vocabulary heavily — 30,000 generated
//! schemas hold 1.9 million term occurrences over ≈16,000 distinct raw
//! tokens and ≈11,600 distinct terms — so the write path runs the
//! analysis pipeline once per distinct token and then works in integers.
//! It reads a schema's element column as stored, each name once: a dotted
//! path analyzes to its parent's terms followed by its own name's, so no
//! path is ever spelled out.
//!
//! * a **word memo** per pipeline (names, prose) maps a raw token to the
//!   run of term ids it analyzes to; the same token under the two
//!   pipelines is two entries (`to` is a name and a stop word);
//! * a **term interner** maps a term to a dense id, so a document's
//!   occurrences are packed `u64`s `(field, term id, position)` that sort
//!   as integers, and only its distinct keys are ordered by term text —
//!   the `(field, term)` order [`HeadBuilder::freeze`] relies on;
//! * a **row table** remembers, per `(field, term id)`, the head's
//!   postings row, so the head's term dictionary is searched by string
//!   once per term and head instead of once per posting.
//!
//! All three are open addressing or plain columns over one text arena —
//! no allocation per entry — so a cold session costs a two-document
//! batch a few microseconds. They belong to the session: ids mean
//! nothing outside it, never reach a snapshot, a file or a reader, and
//! are gone with it. The session borrows its [`Index`], so a memo can
//! never meet another index's analyzers.
//!
//! What the session holds is bounded by what it is given. Tokens longer
//! than [`MAX_MEMO_TOKEN`] bytes are analyzed and not remembered; the
//! tables cost at most 64 bytes per distinct token or term beyond the
//! text itself (1.3 MiB at 30,000 schemas), and their columns grow by a
//! quarter, not by doubling. Hashing is the standard library's keyed
//! SipHash under a per-session key: tokens come from imported schemas,
//! and crafted collisions must not turn a build quadratic.
//!
//! [`HeadBuilder::freeze`]: crate::head::HeadBuilder

use std::hash::{BuildHasher, RandomState};

use schemr_model::{ElementId, SchemaId};
use schemr_text::tokenize::tokenize;
use schemr_text::{AnalyzeScratch, Analyzer};

use crate::document::{IndexDocument, Positions};
use crate::field::Field;
use crate::memory::{Index, IndexChange};

/// Tokens longer than this many bytes bypass the word memo: a real name
/// is far shorter, and text that is not made of repeating words should
/// not be kept.
pub(crate) const MAX_MEMO_TOKEN: usize = 64;

/// Term ids are packed beside a 2-bit field ordinal.
const MAX_TERMS: u32 = 1 << 30;
const _: () = assert!(Field::COUNT <= 4);

const EMPTY: u32 = u32::MAX;

/// What to `reserve_exact` on a buffer of `len` of `capacity` so that
/// `additional` more elements fit: nothing when they do, else enough to
/// grow it by a quarter where `Vec` would double. The session's columns
/// are sized once and kept; doubling left them up to half empty — ≈0.5 MiB
/// of a 1,024-document batch's buffers, ≈0.3 MiB of the tables.
fn gentle_growth(len: usize, capacity: usize, additional: usize) -> usize {
    if capacity - len >= additional {
        0
    } else {
        additional.max(capacity / 4)
    }
}

fn reserve_gently<T>(buffer: &mut Vec<T>, additional: usize) {
    buffer.reserve_exact(gentle_growth(buffer.len(), buffer.capacity(), additional));
}

fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("a write session's arenas stay under 4 GiB")
}

/// Text → dense id in first-seen order: open addressing over one text
/// arena, the 32-bit hash kept beside each entry so a probe compares
/// bytes only on a hash match and growing never rehashes text.
#[derive(Debug, Default)]
pub(crate) struct Interner {
    hasher: RandomState,
    text: String,
    /// `ends[id]` is one past `id`'s last byte of `text`.
    ends: Vec<u32>,
    hashes: Vec<u32>,
    /// Ids, [`EMPTY`] where free; a power of two, at most half full.
    slots: Vec<u32>,
}

impl Interner {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    pub(crate) fn text(&self, id: u32) -> &str {
        &self.text[self.span(id)]
    }

    /// [`Interner::text`] as bytes, which order and compare as the text
    /// does without a character-boundary check.
    pub(crate) fn bytes(&self, id: u32) -> &[u8] {
        &self.text.as_bytes()[self.span(id)]
    }

    fn span(&self, id: u32) -> std::ops::Range<usize> {
        let id = id as usize;
        let start = id.checked_sub(1).map_or(0, |prev| self.ends[prev]);
        start as usize..self.ends[id] as usize
    }

    /// The id of `text`, and whether this call gave it one.
    pub(crate) fn intern(&mut self, text: &str) -> (u32, bool) {
        if self.ends.len() * 2 >= self.slots.len() {
            self.rebuild_slots((self.slots.len() * 2).max(64));
        }
        // Truncated on purpose: 32 bits tell entries apart well enough
        // to make a byte comparison rare, at 4 bytes an entry.
        let hash = self.hasher.hash_one(text) as u32;
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            let id = self.slots[slot];
            if id == EMPTY {
                break;
            }
            if self.hashes[id as usize] == hash && self.bytes(id) == text.as_bytes() {
                return (id, false);
            }
            slot = (slot + 1) & mask;
        }
        let id = offset(self.ends.len());
        let room = gentle_growth(self.text.len(), self.text.capacity(), text.len());
        self.text.reserve_exact(room);
        reserve_gently(&mut self.ends, 1);
        reserve_gently(&mut self.hashes, 1);
        self.text.push_str(text);
        self.ends.push(offset(self.text.len()));
        self.hashes.push(hash);
        self.slots[slot] = id;
        (id, true)
    }

    /// Make room for `entries` more entries of a name's length without
    /// growing again.
    fn reserve(&mut self, entries: usize) {
        self.text.reserve(entries * 8);
        self.ends.reserve(entries);
        self.hashes.reserve(entries);
        let slots = ((self.ends.len() + entries) * 2 + 1).next_power_of_two();
        if slots > self.slots.len() {
            self.rebuild_slots(slots);
        }
    }

    fn rebuild_slots(&mut self, size: usize) {
        self.slots.clear();
        self.slots.resize(size, EMPTY);
        for (id, &hash) in self.hashes.iter().enumerate() {
            let mut slot = hash as usize & (size - 1);
            while self.slots[slot] != EMPTY {
                slot = (slot + 1) & (size - 1);
            }
            self.slots[slot] = id as u32;
        }
    }

    #[cfg(test)]
    fn heap_bytes(&self) -> usize {
        self.text.capacity()
            + 4 * (self.ends.capacity() + self.hashes.capacity() + self.slots.capacity())
    }
}

/// Raw token → the term ids it analyzes to under one pipeline.
struct WordMemo {
    tokens: Interner,
    /// Token `t`'s terms are `runs[run_ends[t - 1]..run_ends[t]]`.
    run_ends: Vec<u32>,
    runs: Vec<u32>,
    /// The terms of the last token too long to remember.
    unremembered: Vec<u32>,
}

/// Tokens looked up and tokens that ran the pipeline.
#[derive(Default)]
struct TokenCounts {
    tokens: u64,
    analyses: u64,
}

impl WordMemo {
    fn new() -> Self {
        WordMemo {
            tokens: Interner::new(),
            run_ends: Vec::new(),
            runs: Vec::new(),
            unremembered: Vec::new(),
        }
    }

    /// The term ids of `token` (a tokenizer output) under `analyzer`, the
    /// one pipeline this memo is ever asked about.
    fn terms_of(
        &mut self,
        token: &str,
        analyzer: &Analyzer,
        scratch: &mut AnalyzeScratch,
        terms: &mut Interner,
        counts: &mut TokenCounts,
    ) -> &[u32] {
        let WordMemo {
            tokens,
            run_ends,
            runs,
            unremembered,
        } = self;
        counts.tokens += 1;
        let mut intern_into = |out: &mut Vec<u32>| {
            counts.analyses += 1;
            analyzer.analyze_token_with(token, scratch, |term| {
                let (id, _) = terms.intern(term);
                assert!(id < MAX_TERMS, "a write session holds under 2^30 terms");
                reserve_gently(out, 1);
                out.push(id);
            });
        };
        if token.len() > MAX_MEMO_TOKEN {
            unremembered.clear();
            intern_into(unremembered);
            return unremembered;
        }
        let (entry, fresh) = tokens.intern(token);
        if fresh {
            intern_into(runs);
            reserve_gently(run_ends, 1);
            run_ends.push(offset(runs.len()));
        }
        let entry = entry as usize;
        let start = entry.checked_sub(1).map_or(0, |prev| run_ends[prev]);
        &runs[start as usize..run_ends[entry] as usize]
    }

    #[cfg(test)]
    fn heap_bytes(&self) -> usize {
        self.tokens.heap_bytes()
            + 4 * (self.run_ends.capacity() + self.runs.capacity() + self.unremembered.capacity())
    }
}

/// Where a `(field, term id)` pair's postings live in the head being
/// written, valid for one lock hold and one head: a term's rows carry the
/// stamp they were written under, and the stamp moves at every
/// [`RowTable::next_head`].
pub(crate) struct RowTable {
    /// Per term id: the stamp its rows belong to, and per field the row
    /// or [`EMPTY`].
    terms: Vec<(u32, [u32; Field::COUNT])>,
    stamp: u32,
}

impl RowTable {
    pub(crate) fn new() -> Self {
        RowTable {
            terms: Vec::new(),
            stamp: 0,
        }
    }

    /// Cover term ids below `terms`. Exact growth: it happens once a
    /// batch, and doubling would double the table's 20 bytes a term.
    pub(crate) fn cover(&mut self, terms: usize) {
        if terms > self.terms.len() {
            self.terms.reserve_exact(terms - self.terms.len());
            self.terms.resize(terms, (0, [EMPTY; Field::COUNT]));
        }
    }

    /// Forget every row: a new lock hold, or the head was sealed.
    pub(crate) fn next_head(&mut self) {
        if self.stamp == u32::MAX {
            self.terms.fill((0, [EMPTY; Field::COUNT]));
            self.stamp = 0;
        }
        self.stamp += 1;
    }

    pub(crate) fn get(&self, key: Key) -> Option<u32> {
        let (stamp, rows) = self.terms[key.term() as usize];
        let row = rows[key.field()];
        (stamp == self.stamp && row != EMPTY).then_some(row)
    }

    pub(crate) fn set(&mut self, key: Key, row: u32) {
        let (stamp, rows) = &mut self.terms[key.term() as usize];
        if *stamp != self.stamp {
            (*stamp, *rows) = (self.stamp, [EMPTY; Field::COUNT]);
        }
        rows[key.field()] = row;
    }
}

/// One distinct `(field, term)` of an analyzed document.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Key {
    /// `term id * 4 + field ordinal`, packed so a key is 8 bytes.
    field_term: u32,
    /// One past the key's last entry in the batch's positions.
    pub positions_end: u32,
}

impl Key {
    pub(crate) fn new(field: u8, term: u32, positions_end: u32) -> Self {
        Key {
            field_term: term << 2 | field as u32,
            positions_end,
        }
    }

    pub(crate) fn field(self) -> usize {
        (self.field_term & 3) as usize
    }

    pub(crate) fn term(self) -> u32 {
        self.field_term >> 2
    }
}

/// One document analyzed into what [`crate::head::HeadBuilder::push`]
/// applies under the writer lock: its occurrences grouped by postings
/// list. Analysis (the expensive part) runs before the lock is taken.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AnalyzedDoc<'a> {
    pub id: SchemaId,
    pub field_lengths: [u32; Field::COUNT],
    /// The distinct keys, by field, then by term text.
    pub keys: &'a [Key],
    /// The batch's positions: key by key from `first_position`, ascending
    /// within a key.
    pub positions: &'a [u32],
    pub first_position: u32,
}

/// One change of a batch, analyzed.
pub(crate) enum Analyzed<'a> {
    Put(AnalyzedDoc<'a>),
    Delete(SchemaId),
}

enum Op {
    Put {
        id: SchemaId,
        field_lengths: [u32; Field::COUNT],
        keys_end: u32,
    },
    Delete(SchemaId),
}

/// A batch's analysis, in flat buffers kept from one batch to the next.
#[derive(Default)]
pub(crate) struct Batch {
    ops: Vec<Op>,
    keys: Vec<Key>,
    positions: Vec<u32>,
}

impl Batch {
    fn clear(&mut self) {
        self.ops.clear();
        self.keys.clear();
        self.positions.clear();
    }

    /// The batch's changes, in order.
    pub(crate) fn changes(&self) -> impl Iterator<Item = Analyzed<'_>> {
        let mut first_key = 0usize;
        self.ops.iter().map(move |op| match *op {
            Op::Delete(id) => Analyzed::Delete(id),
            Op::Put {
                id,
                field_lengths,
                keys_end,
            } => {
                let first_position = first_key
                    .checked_sub(1)
                    .map_or(0, |prev| self.keys[prev].positions_end);
                let keys = &self.keys[first_key..keys_end as usize];
                first_key = keys_end as usize;
                Analyzed::Put(AnalyzedDoc {
                    id,
                    field_lengths,
                    keys,
                    positions: &self.positions,
                    first_position,
                })
            }
        })
    }

    #[cfg(test)]
    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.ops.capacity() * size_of::<Op>()
            + self.keys.capacity() * size_of::<Key>()
            + self.positions.capacity() * 4
    }
}

/// A write session on one [`Index`]: [`Session::apply`] is
/// [`Index::apply`] with the analysis tables kept from one batch to the
/// next, for a caller that loads many batches. Results do not depend on
/// how changes are cut into batches or sessions, which is what lets
/// [`Index::bulk_load`] analyze in a session per thread.
pub struct Session<'i> {
    index: &'i Index,
    scratch: AnalyzeScratch,
    /// One memo per pipeline: names, prose.
    memos: [WordMemo; 2],
    terms: Interner,
    rows: RowTable,
    /// The current field's source strings as runs of term ids: source
    /// `i`'s is `runs[run_ends[i - 1]..run_ends[i]]`.
    runs: Vec<u32>,
    run_ends: Vec<u32>,
    /// The current document's occurrences: field in the top 2 bits, then
    /// 30 of term id, then the position.
    occurrences: Vec<u64>,
    /// The current document's distinct keys.
    doc_keys: Vec<DocKey>,
    batch: Batch,
    /// This batch's tokens, added to the index's counters once a batch.
    counts: TokenCounts,
}

/// A distinct key of the document being analyzed: its occurrences are
/// `occurrences[start..end]`.
#[derive(Clone, Copy)]
struct DocKey {
    field: u8,
    term: u32,
    start: u32,
    end: u32,
}

impl<'i> Session<'i> {
    pub(crate) fn new(index: &'i Index) -> Self {
        Session {
            index,
            scratch: AnalyzeScratch::default(),
            memos: [WordMemo::new(), WordMemo::new()],
            terms: Interner::new(),
            rows: RowTable::new(),
            runs: Vec::new(),
            run_ends: Vec::new(),
            occurrences: Vec::new(),
            doc_keys: Vec::new(),
            batch: Batch::default(),
            counts: TokenCounts::default(),
        }
    }

    /// [`Index::apply`], to the letter: analysis before the writer lock
    /// is taken, one lock hold, one publish.
    pub fn apply<'a>(&mut self, changes: impl IntoIterator<Item = IndexChange<'a>>) -> usize {
        self.analyze_batch(changes);
        self.commit(false)
    }

    /// The off-lock half of [`Session::apply`]: analyze `changes` into
    /// the session's batch, replacing the last one. Touches nothing but
    /// the session and the index's counters, so it runs on any thread.
    pub(crate) fn analyze_batch<'a>(&mut self, changes: impl IntoIterator<Item = IndexChange<'a>>) {
        self.batch.clear();
        for change in changes {
            match change {
                IndexChange::Put(doc) => self.analyze(doc),
                IndexChange::Delete(id) => self.batch.ops.push(Op::Delete(id)),
            }
        }
        let counts = std::mem::take(&mut self.counts);
        let metrics = self.index.metrics();
        metrics.tokens.add(counts.tokens);
        metrics.token_analyses.add(counts.analyses);
        self.rows.cover(self.terms.len());
    }

    /// The locked half of [`Session::apply`]: commit the analyzed batch
    /// under one writer-lock hold and publish once, with `seal` sealing
    /// the head first.
    pub(crate) fn commit(&mut self, seal: bool) -> usize {
        self.index
            .commit(&self.batch, &self.terms, &mut self.rows, seal)
    }

    /// Analyze a document into the batch: its distinct `(field, term)`
    /// keys in the order the head wants them, and each key's positions.
    ///
    /// Every source string becomes a run of term ids at consecutive
    /// positions. An element's source is its dotted path; a token never
    /// spans a dot, so the path's run is its parent's run followed by the
    /// terms of its own name. The elements are read in id order, parents
    /// first, so each name is analyzed once and the parent's run is
    /// already in `runs`.
    fn analyze(&mut self, doc: IndexDocument<'_>) {
        if self.occurrences.capacity() == 0 {
            self.reserve_small_batch();
        }
        let Session {
            index,
            scratch,
            memos,
            terms,
            runs,
            run_ends,
            occurrences,
            doc_keys,
            batch,
            counts,
            ..
        } = self;
        occurrences.clear();
        let analyzers = index.analyzers();
        let mut field_lengths = [0u32; Field::COUNT];
        for field in Field::ALL {
            let pipeline = usize::from(field.is_prose());
            let (memo, analyzer) = (&mut memos[pipeline], analyzers[pipeline]);
            let tag = u64::from(field.ordinal()) << 62;
            let before = occurrences.len();
            let mut positions = Positions::default();
            runs.clear();
            run_ends.clear();
            // One source: the run of this field's source `prefix`, if
            // any, then the terms of `text`.
            let mut source = |prefix: Option<usize>, text: &str| {
                let start = runs.len();
                if let Some(i) = prefix {
                    let from = i.checked_sub(1).map_or(0, |prev| run_ends[prev]);
                    runs.extend_from_within(from as usize..run_ends[i] as usize);
                }
                for token in tokenize(text) {
                    runs.extend_from_slice(
                        memo.terms_of(token.text, analyzer, scratch, terms, counts),
                    );
                }
                run_ends.push(offset(runs.len()));
                positions.start_source();
                for &term in &runs[start..] {
                    let position = u64::from(positions.next());
                    occurrences.push(tag | u64::from(term) << 32 | position);
                }
            };
            let elements = doc.schema.elements();
            match field {
                Field::Title => source(None, doc.title),
                Field::Summary => source(None, doc.summary),
                Field::Elements => {
                    elements.for_each(|el| source(el.parent.map(ElementId::index), el.name))
                }
                Field::Docs => elements
                    .filter_map(|el| el.doc)
                    .for_each(|text| source(None, text)),
            }
            field_lengths[field.ordinal() as usize] = offset(occurrences.len() - before);
        }
        // Integers order the occurrences: a key's are adjacent, positions
        // ascending. Only the distinct keys are then put in term order.
        occurrences.sort_unstable();
        doc_keys.clear();
        let mut start = 0usize;
        for run in occurrences.chunk_by(|a, b| a >> 32 == b >> 32) {
            let end = start + run.len();
            doc_keys.push(DocKey {
                field: (run[0] >> 62) as u8,
                term: (run[0] >> 32) as u32 & (MAX_TERMS - 1),
                start: offset(start),
                end: offset(end),
            });
            start = end;
        }
        doc_keys.sort_unstable_by_key(|key| (key.field, terms.bytes(key.term)));
        reserve_gently(&mut batch.keys, doc_keys.len());
        reserve_gently(&mut batch.positions, occurrences.len());
        reserve_gently(&mut batch.ops, 1);
        for key in doc_keys.iter() {
            let positions = occurrences[key.start as usize..key.end as usize].iter();
            batch.positions.extend(positions.map(|&o| o as u32));
            let positions_end = offset(batch.positions.len());
            batch
                .keys
                .push(Key::new(key.field, key.term, positions_end));
        }
        batch.ops.push(Op::Put {
            id: doc.id,
            field_lengths,
            keys_end: offset(batch.keys.len()),
        });
    }

    /// Start every table at the size a scheduler tick's batch fills, so a
    /// cold session — `Index::apply` opens one per call — pays a fixed
    /// two dozen small allocations instead of a doubling ladder a table.
    fn reserve_small_batch(&mut self) {
        const WORDS: usize = 128;
        for memo in &mut self.memos {
            memo.tokens.reserve(WORDS);
            memo.run_ends.reserve(WORDS);
            memo.runs.reserve(WORDS + WORDS / 4);
        }
        self.terms.reserve(WORDS);
        self.runs.reserve(2 * WORDS);
        self.run_ends.reserve(WORDS);
        self.occurrences.reserve(2 * WORDS);
        self.doc_keys.reserve(WORDS);
        self.batch.keys.reserve(WORDS);
        self.batch.positions.reserve(2 * WORDS);
    }

    /// Distinct raw tokens the two word memos hold.
    #[cfg(test)]
    pub(crate) fn remembered_tokens(&self) -> usize {
        self.memos.iter().map(|memo| memo.tokens.len()).sum()
    }

    /// Heap bytes the session holds: the tables and the batch buffers.
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        self.memos.iter().map(WordMemo::heap_bytes).sum::<usize>()
            + self.terms.heap_bytes()
            + self.rows.terms.capacity() * 20
            + 4 * (self.runs.capacity() + self.run_ends.capacity())
            + self.occurrences.capacity() * 8
            + self.doc_keys.capacity() * 16
            + self.batch.heap_bytes()
    }
}
