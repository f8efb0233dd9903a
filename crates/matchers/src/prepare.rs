//! Prepared matching artifacts: the precomputation that lets Phase 2 do
//! each piece of text work once.
//!
//! The matcher ensemble scores every (query term × candidate element)
//! pair, and the same words come back in every pair, every candidate and
//! every search. The text work is therefore done at four resolutions,
//! each exactly once:
//!
//! * **per distinct word** — the engine's [`Lexicon`] interns each
//!   analyzed candidate word under a dense [`WordId`] and builds its
//!   all-gram set then and only then;
//! * **per (candidate, distinct analyzer)** — `element_words` is the
//!   one pass over a candidate's element names: the streaming analyzer
//!   hands each term to the lexicon as a `&str`, a whole schema resolves
//!   under one read view, and only a word the lexicon has never seen
//!   takes the interning write path. The [`crate::Ensemble`] groups its
//!   matchers by analyzer, runs the pass once per group and hands the
//!   resulting word ids to every matcher of the group — the standard
//!   ensemble's name and context matchers share one pass;
//! * **per (schema, revision)** — a [`PreparedSchema`] holds one
//!   matcher's view of a candidate as flat word-id arrays ([`FlatLists`]):
//!   the name matcher keeps the pass's ids as they are, the context
//!   matcher derives neighborhoods from them as sorted id sets.
//!   [`PreparedCandidate`] bundles one per matcher and is what the
//!   engine's revision-keyed artifact cache stores. It carries no gram
//!   set of its own, and its ids are meaningful only in the lexicon it
//!   was prepared against. The pass and the matchers work in a
//!   [`PrepareScratch`] — the analyzer's buffers, the resolved ids, the
//!   missed words in one string arena, the neighborhoods' counting-sort
//!   tables — that the engine keeps for a whole search, and each matcher
//!   copies its lists into the bundle once, at their exact size: against
//!   a warm lexicon a prepare allocates the bundle and nothing else (5
//!   allocations for the standard pair, where fresh buffers took ≈28);
//! * **per (query word, candidate word)** — a [`MatchScratch`] holds each
//!   matcher's memo of word-pair similarities, filled on first use while
//!   a run of candidates is scored, so a cell of the similarity matrix is
//!   composed from table reads; and the matrices themselves, reset for
//!   each candidate of the run.
//!
//! Query-side artifacts ([`PreparedQuery`], bundled as
//! [`EnsembleQuery`]) are built once per search, through the same
//! streaming analyzer, and never touch the lexicon: query text arrives
//! from a socket and must not grow it. Their distinct words are kept in
//! one string arena each, not a `String` a word.
//!
//! A matcher that reads only the schema itself leaves its artifact
//! structs empty: an empty artifact is a valid artifact, and there is no
//! second scoring path for it to select.

use schemr_model::{QueryGraph, QueryTerm, Schema};
use schemr_text::{AnalyzeScratch, Analyzer, GramSet, Lexicon, WordId};

use crate::context::Neighborhoods;
use crate::matrix::SimilarityMatrix;
use crate::Matcher;

/// A list of lists stored flat: one items array plus one end offset per
/// list. A candidate's per-element word lists are tiny and numerous, so
/// one allocation pair per schema replaces one `Vec` per element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatLists<T> {
    items: Vec<T>,
    /// `ends[i]` is one past list *i*'s last item.
    ends: Vec<u32>,
}

impl<T> Default for FlatLists<T> {
    fn default() -> Self {
        FlatLists {
            items: Vec::new(),
            ends: Vec::new(),
        }
    }
}

impl<T> FlatLists<T> {
    /// Empty, with room for `lists` lists.
    pub fn with_capacity(lists: usize) -> Self {
        FlatLists {
            items: Vec::new(),
            ends: Vec::with_capacity(lists),
        }
    }

    /// Append one list.
    pub fn push(&mut self, list: impl IntoIterator<Item = T>) {
        self.items.extend(list);
        self.end_list();
    }

    /// Append one item to the list being built — for a producer that
    /// hands items over one at a time. [`FlatLists::end_list`] closes it.
    pub(crate) fn push_item(&mut self, item: T) {
        self.items.push(item);
    }

    /// Close the list being built: the items pushed since the last list
    /// ended (none is a valid, empty list) become the next list.
    pub(crate) fn end_list(&mut self) {
        self.ends
            .push(u32::try_from(self.items.len()).expect("a schema's word lists fit in u32"));
    }

    /// [`FlatLists::end_list`], sorting the list's items first.
    pub(crate) fn end_sorted_list(&mut self)
    where
        T: Ord,
    {
        let start = self.ends.last().map_or(0, |&end| end as usize);
        self.items[start..].sort_unstable();
        self.end_list();
    }

    /// Number of lists.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when no list has been pushed.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// List *i*.
    pub fn get(&self, i: usize) -> &[T] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.items[start..self.ends[i] as usize]
    }

    /// Every list, in order.
    pub fn iter(&self) -> impl Iterator<Item = &[T]> {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Drop every list, keeping the buffers.
    pub(crate) fn clear(&mut self) {
        self.items.clear();
        self.ends.clear();
    }

    /// A copy with no growth slack — two allocations, each exactly the
    /// size of what it holds — so [`FlatLists::heap_bytes`] is what stays
    /// resident in a byte-budgeted cache.
    pub(crate) fn exact_copy(&self) -> FlatLists<T>
    where
        T: Clone,
    {
        FlatLists {
            items: self.items.to_vec(),
            ends: self.ends.to_vec(),
        }
    }

    /// Approximate heap footprint.
    pub fn heap_bytes(&self) -> usize {
        self.items.capacity() * std::mem::size_of::<T>()
            + self.ends.capacity() * std::mem::size_of::<u32>()
    }
}

/// Strings stored end to end in one buffer: word *i* is
/// `text[ends[i - 1]..ends[i]]`. One allocation pair for a run of words
/// where a `String` each would take one a word.
#[derive(Debug, Clone, Default)]
pub(crate) struct WordArena {
    text: String,
    ends: Vec<u32>,
}

impl WordArena {
    /// Append `word`; returns its index.
    pub(crate) fn push(&mut self, word: &str) -> u32 {
        self.text.push_str(word);
        self.ends
            .push(u32::try_from(self.text.len()).expect("a word arena fits in u32"));
        u32::try_from(self.ends.len() - 1).expect("a word arena fits in u32")
    }

    /// Word `i`.
    pub(crate) fn get(&self, i: u32) -> &str {
        let i = i as usize;
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.text[start..self.ends[i] as usize]
    }

    /// The index of the first word equal to `word`.
    pub(crate) fn position(&self, word: &str) -> Option<u32> {
        // `push` keeps the count in u32.
        (0..self.ends.len() as u32).find(|&i| self.get(i) == word)
    }

    /// Drop every word, keeping the buffers.
    pub(crate) fn clear(&mut self) {
        self.text.clear();
        self.ends.clear();
    }
}

/// The name matcher's query side: each distinct analyzed query word once,
/// and per term the indices of its words.
#[derive(Debug, Clone, Default)]
pub struct QueryWords {
    /// All-gram set of each distinct query word.
    pub grams: Vec<GramSet>,
    /// Per query term, its analyzed words as indices into `grams`, in
    /// order and with repeats.
    pub terms: FlatLists<u32>,
}

/// The context matcher's query side: each distinct analyzed word of the
/// fragments' element names once, every fragment element's neighborhood
/// as a set of those words' indices in one flat list, and per term which
/// of those neighborhoods is its own — terms share them, nothing is
/// copied per term. Read only by the context matcher.
#[derive(Debug, Clone, Default)]
pub struct QueryContexts {
    /// The distinct words, in first-seen order.
    pub(crate) words: WordArena,
    /// Every fragment element's neighborhood, sorted distinct indices
    /// into `words`; the fragments' elements end to end.
    pub(crate) neighborhoods: FlatLists<u32>,
    /// Per query term, its list in `neighborhoods` — `None` for
    /// keywords, which carry no context.
    pub(crate) terms: Vec<Option<u32>>,
}

impl QueryContexts {
    /// Query term `i`'s neighborhood as indices of distinct words; empty
    /// for a keyword.
    pub(crate) fn term(&self, i: usize) -> &[u32] {
        self.terms[i].map_or(&[], |list| self.neighborhoods.get(list as usize))
    }
}

/// Query-side artifacts for one matcher, built once per search.
#[derive(Debug, Clone, Default)]
pub struct PreparedQuery {
    /// The analyzed words of the term texts (name matcher).
    pub term_words: Option<QueryWords>,
    /// Per query term, the distinct analyzed words of its neighborhood
    /// (context matcher).
    pub term_contexts: Option<QueryContexts>,
    /// Per query term, the exact analyzed-token id set (token matcher).
    pub term_tokens: Option<Vec<GramSet>>,
}

/// Candidate-side artifacts for one matcher, immutable for a given
/// (schema id, repository revision) and valid in one [`Lexicon`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PreparedSchema {
    /// Per element (in [`Schema::ids`] order), the analyzed words of the
    /// element name, in order and with repeats (name matcher).
    pub name_words: Option<FlatLists<WordId>>,
    /// Per element, the sorted distinct words of its neighborhood
    /// (context matcher).
    pub neighborhoods: Option<FlatLists<WordId>>,
    /// Per element, the exact analyzed-token id set (token matcher).
    pub tokens: Option<Vec<GramSet>>,
}

impl PreparedSchema {
    /// Approximate heap footprint, for the engine's byte-budgeted
    /// artifact cache.
    pub fn heap_bytes(&self) -> usize {
        let lists = |l: &Option<FlatLists<WordId>>| l.as_ref().map_or(0, FlatLists::heap_bytes);
        let tokens = self.tokens.as_ref().map_or(0, |sets| {
            sets.iter().map(GramSet::heap_bytes).sum::<usize>()
                + sets.capacity() * std::mem::size_of::<GramSet>()
        });
        lists(&self.name_words) + lists(&self.neighborhoods) + tokens
    }
}

/// Every buffer a candidate prepare works in: the streaming analyzer's,
/// the analyzer passes' word lists and what they resolve through, and
/// what a matcher builds its lists in before it copies them out at their
/// exact size. Owned by whoever prepares a run of candidates — the engine
/// keeps one per search — and handed down as `&mut` through
/// [`crate::Ensemble::prepare_into`] and [`Matcher::prepare`], so a warm
/// prepare allocates only the artifacts it returns. What a scratch
/// already holds changes how much a prepare allocates, never a bit of
/// what it returns.
#[derive(Debug, Default)]
pub struct PrepareScratch {
    /// The streaming analyzer's buffers.
    pub(crate) analyze: AnalyzeScratch,
    /// The pass being run: every word of every name, `None` where the
    /// lexicon's read view had not met it.
    resolved: Vec<Option<WordId>>,
    /// The words that view missed, and where in `resolved` each goes.
    missed: WordArena,
    missed_at: Vec<usize>,
    /// Per analyzer pass of an ensemble, the words it resolved.
    pub(crate) passes: Vec<FlatLists<WordId>>,
    /// The context matcher's counting-sort tables and the neighborhoods
    /// it derives.
    pub(crate) neighborhoods: Neighborhoods<WordId>,
}

impl PrepareScratch {
    /// Analyze every element name of `schema` once and intern its words
    /// into `words`: list *i* holds element *i*'s words, in order and with
    /// repeats.
    ///
    /// The whole schema resolves under one read view of the lexicon — a
    /// corpus repeats its vocabulary, so against a warm lexicon every word
    /// is a lookup. Only the words that view did not know go through
    /// [`Lexicon::intern`], after the view is dropped: interning takes the
    /// write lock.
    pub(crate) fn element_words(
        &mut self,
        analyzer: &Analyzer,
        schema: &Schema,
        lexicon: &Lexicon,
        words: &mut FlatLists<WordId>,
    ) {
        words.clear();
        self.resolved.clear();
        self.missed.clear();
        self.missed_at.clear();
        {
            let known = lexicon.read();
            for el in schema.elements() {
                analyzer.analyze_with(el.name, &mut self.analyze, |word| {
                    let id = known.lookup(word);
                    if id.is_none() {
                        self.missed_at.push(self.resolved.len());
                        self.missed.push(word);
                    }
                    self.resolved.push(id);
                });
                words.ends.push(
                    u32::try_from(self.resolved.len()).expect("a schema's word lists fit in u32"),
                );
            }
        }
        for (word, &at) in (0..).zip(&self.missed_at) {
            self.resolved[at] = Some(lexicon.intern(self.missed.get(word)));
        }
        words.items.extend(
            self.resolved
                .iter()
                .map(|id| id.expect("every word the view missed was interned")),
        );
    }
}

/// One matcher's candidate artifacts prepared without an ensemble: the
/// pass of its own analyzer (if it names one), then [`Matcher::prepare`],
/// on fresh buffers. What [`crate::Ensemble::prepare`] must equal for
/// every matcher however it shares passes and scratches, and how a matcher
/// is driven on its own.
pub fn prepare_alone(matcher: &dyn Matcher, schema: &Schema, lexicon: &Lexicon) -> PreparedSchema {
    let mut scratch = PrepareScratch::default();
    let mut words = FlatLists::default();
    if let Some(analyzer) = matcher.analyzer() {
        scratch.element_words(analyzer, schema, lexicon, &mut words);
    }
    matcher.prepare(schema, &words, &mut scratch)
}

/// The ensemble-level bundle of prepared candidate artifacts: one
/// [`PreparedSchema`] per matcher, in registration order. This is the
/// value the engine's match-artifact cache stores per (schema id,
/// repository revision).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PreparedCandidate {
    /// One artifact per matcher, aligned with the ensemble's
    /// registration order.
    pub per_matcher: Vec<PreparedSchema>,
    /// Approximate heap footprint of all artifacts, for cache budgeting.
    pub bytes: usize,
}

impl PreparedCandidate {
    /// Bundle the matchers' artifacts, in registration order, and size
    /// them.
    pub fn new(per_matcher: Vec<PreparedSchema>) -> PreparedCandidate {
        let bytes = per_matcher
            .iter()
            .map(PreparedSchema::heap_bytes)
            .sum::<usize>()
            + per_matcher.capacity() * std::mem::size_of::<PreparedSchema>()
            + std::mem::size_of::<PreparedCandidate>();
        PreparedCandidate { per_matcher, bytes }
    }
}

/// The ensemble-level bundle of prepared query artifacts: one
/// [`PreparedQuery`] per matcher, built once per search.
#[derive(Debug, Clone, Default)]
pub struct EnsembleQuery {
    /// One artifact per matcher, aligned with the ensemble's
    /// registration order.
    pub per_matcher: Vec<PreparedQuery>,
}

impl EnsembleQuery {
    /// Prepare every matcher's query-side artifacts.
    pub fn build(
        matchers: &[&dyn Matcher],
        terms: &[QueryTerm],
        query: &QueryGraph,
    ) -> EnsembleQuery {
        EnsembleQuery {
            per_matcher: matchers
                .iter()
                .map(|m| m.prepare_query(terms, query))
                .collect(),
        }
    }
}

/// One matcher's memo of word-pair similarities: `(query-word index,
/// candidate WordId) → f64`, filled on first use. A plain table — a slot
/// per lexicon word naming a row, a row of one value per query word —
/// because both keys are dense.
#[derive(Debug, Default)]
pub(crate) struct PairMemo {
    /// `rows[id]` is 1 + the row of candidate word `id`, 0 while the word
    /// has not been met.
    rows: Vec<u32>,
    /// Row-major, `stride` values a row; NaN marks a pair not yet
    /// computed (a similarity is never NaN).
    values: Vec<f64>,
    stride: usize,
    /// Rows opened so far.
    opened: u32,
}

impl PairMemo {
    /// Size the table for `query_words` distinct query words over a
    /// lexicon of `lexicon_words`. A memo sized for another query is
    /// emptied; the lexicon may have grown since the last call.
    pub(crate) fn fit(&mut self, query_words: usize, lexicon_words: usize) {
        if self.stride != query_words {
            self.rows.clear();
            self.values.clear();
            self.opened = 0;
            self.stride = query_words;
        }
        if self.rows.len() < lexicon_words {
            self.rows.resize(lexicon_words, 0);
        }
    }

    /// The offset in the value table of candidate word `id`'s row,
    /// opening the row when the word is new. `id` must be below the
    /// `lexicon_words` last passed to [`PairMemo::fit`].
    pub(crate) fn row(&mut self, id: WordId) -> usize {
        let slot = &mut self.rows[id.index()];
        if *slot == 0 {
            self.values
                .resize(self.values.len() + self.stride, f64::NAN);
            self.opened += 1;
            *slot = self.opened;
        }
        (*slot as usize - 1) * self.stride
    }

    /// The memoised value at `row + query_word`, computing it with
    /// `compute` the first time.
    pub(crate) fn get_or(
        &mut self,
        row: usize,
        query_word: usize,
        compute: impl FnOnce() -> f64,
    ) -> f64 {
        let cell = &mut self.values[row + query_word];
        if cell.is_nan() {
            *cell = compute();
        }
        *cell
    }
}

/// One matcher's scratch for scoring a run of candidates against one
/// query: the lexicon the candidates' artifacts were prepared in, and
/// what the matcher has worked out so far and need not work out again.
pub struct ScoreScratch<'a> {
    lexicon: &'a Lexicon,
    /// Word-pair similarities (name matcher).
    pub(crate) pairs: PairMemo,
    /// Per query term, the neighborhood words resolved to sorted ids, one
    /// flat list refilled in place (context matcher), and the lexicon
    /// size they were resolved at — a word unknown then may have been
    /// interned since.
    pub(crate) contexts: FlatLists<WordId>,
    pub(crate) contexts_resolved_at: Option<usize>,
    /// Reused per element: the memo rows of its words.
    pub(crate) rows: Vec<usize>,
}

impl<'a> ScoreScratch<'a> {
    /// An empty scratch over `lexicon`.
    pub fn new(lexicon: &'a Lexicon) -> Self {
        ScoreScratch {
            lexicon,
            pairs: PairMemo::default(),
            contexts: FlatLists::default(),
            contexts_resolved_at: None,
            rows: Vec::new(),
        }
    }

    /// The lexicon candidate artifacts are prepared and read in.
    pub fn lexicon(&self) -> &'a Lexicon {
        self.lexicon
    }
}

/// The ensemble-level scratch for one run of candidates scored against
/// one query: the query's artifacts, the lexicon, one [`ScoreScratch`]
/// per matcher, and the matrices [`crate::Ensemble::run_into`] writes —
/// one per matcher and the combined one, reset for every candidate so
/// they are allocated once a run, not once a candidate. Owned by
/// whoever drives the run (one per search in the engine, on the
/// request's thread) and handed down as `&mut`, so the memos need no
/// lock and the shared [`EnsembleQuery`] no interior mutability. Results
/// do not depend on what a scratch already holds — only the work does.
pub struct MatchScratch<'a> {
    pub(crate) equery: &'a EnsembleQuery,
    pub(crate) lexicon: &'a Lexicon,
    pub(crate) per_matcher: Vec<ScoreScratch<'a>>,
    /// Per matcher, its matrix for the candidate being scored.
    pub(crate) matrices: Vec<SimilarityMatrix>,
    /// Per matcher, `(weight, abstains)`: what the combination reads of
    /// it for every cell, gathered once a candidate.
    pub(crate) members: Vec<(f64, bool)>,
    /// The weighted combination of `matrices`.
    pub(crate) combined: SimilarityMatrix,
}

impl<'a> MatchScratch<'a> {
    /// An empty scratch for scoring candidates prepared in `lexicon`
    /// against the query `equery` was built for.
    pub fn new(equery: &'a EnsembleQuery, lexicon: &'a Lexicon) -> Self {
        MatchScratch {
            equery,
            lexicon,
            per_matcher: Vec::new(),
            matrices: Vec::new(),
            members: Vec::new(),
            combined: SimilarityMatrix::zeros(0, 0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One pass on fresh buffers.
    fn element_words(analyzer: &Analyzer, schema: &Schema, lexicon: &Lexicon) -> FlatLists<WordId> {
        let mut words = FlatLists::default();
        PrepareScratch::default().element_words(analyzer, schema, lexicon, &mut words);
        words
    }

    #[test]
    fn flat_lists_round_trip_including_empty_lists() {
        let mut lists = FlatLists::with_capacity(3);
        lists.push([1u32, 2, 2]);
        lists.push([]);
        lists.push([7]);
        assert_eq!(lists.len(), 3);
        assert_eq!(lists.get(0), [1, 2, 2]);
        assert!(lists.get(1).is_empty());
        assert_eq!(lists.get(2), [7]);
        assert_eq!(lists.iter().map(<[u32]>::len).sum::<usize>(), 4);
        let copy = lists.exact_copy();
        assert_eq!(copy, lists);
        assert_eq!(copy.heap_bytes(), 4 * 4 + 3 * 4, "no growth slack");
        lists.clear();
        assert!(lists.is_empty());
        lists.push_item(9);
        lists.push_item(3);
        lists.end_sorted_list();
        assert_eq!(lists.get(0), [3, 9]);
    }

    #[test]
    fn a_word_arena_finds_each_word_it_holds() {
        let mut arena = WordArena::default();
        assert_eq!(arena.push("größe"), 0);
        assert_eq!(arena.push(""), 1);
        assert_eq!(arena.push("gr"), 2);
        assert_eq!(
            (arena.get(0), arena.get(1), arena.get(2)),
            ("größe", "", "gr")
        );
        assert_eq!(arena.position("gr"), Some(2));
        assert_eq!(arena.position(""), Some(1));
        assert_eq!(arena.position("ö"), None);
        arena.clear();
        assert_eq!(arena.position("gr"), None);
    }

    #[test]
    fn streamed_lists_equal_pushed_lists() {
        let mut pushed = FlatLists::with_capacity(3);
        pushed.push(["a", "b"]);
        pushed.push([]);
        pushed.push(["c"]);
        let mut streamed = FlatLists::with_capacity(3);
        streamed.push_item("a");
        streamed.push_item("b");
        streamed.end_list();
        streamed.end_list();
        streamed.push_item("c");
        streamed.end_list();
        assert_eq!(streamed, pushed);
    }

    #[test]
    fn element_words_resolve_every_word_of_every_name_in_order() {
        use schemr_model::{DataType, SchemaBuilder};
        let schema = SchemaBuilder::new("s")
            .entity("patient", |e| {
                e.attr("pat_ht", DataType::Real)
                    .attr("__", DataType::Text)
                    .attr("DOB", DataType::Date)
            })
            .build_unchecked();
        let analyzer = Analyzer::for_names();
        let lexicon = Lexicon::new();
        lexicon.intern("height"); // known before the pass: a lookup
        let words = element_words(&analyzer, &schema, &lexicon);
        assert_eq!(words.len(), schema.len());
        let reader = lexicon.read();
        for (list, id) in words.iter().zip(schema.ids()) {
            let expected: Vec<WordId> = analyzer
                .analyze(schema.element(id).name)
                .iter()
                .map(|w| reader.lookup(w).expect("the pass interned it"))
                .collect();
            assert_eq!(list, expected);
        }
        assert_eq!(reader.len(), 5, "patient height date of birth");
        drop(reader);
        // A scratch that ran a longer pass first leaves nothing behind.
        let mut scratch = PrepareScratch::default();
        let mut reused = FlatLists::default();
        let longer = SchemaBuilder::new("t")
            .entity("visit", |e| {
                e.attr("visit_date", DataType::Date)
                    .attr("zz_unknown_word", DataType::Text)
            })
            .build_unchecked();
        scratch.element_words(&analyzer, &longer, &lexicon, &mut reused);
        scratch.element_words(&analyzer, &schema, &lexicon, &mut reused);
        assert_eq!(reused, words);
    }

    #[test]
    fn eight_threads_against_a_cold_lexicon_resolve_the_sequential_result() {
        use schemr_model::{DataType, SchemaBuilder};
        // Every thread finds the lexicon empty, so every word goes
        // through the reader-then-intern path and first-sight races
        // happen; whichever thread wins a word, all must agree on its id.
        let schema = SchemaBuilder::new("s")
            .entity("patient_visit", |mut e| {
                for i in 0..40 {
                    e = e.attr(format!("visit{i}_diagnoses_cd"), DataType::Text);
                }
                e.attr("DOB", DataType::Date)
            })
            .build_unchecked();
        let analyzer = Analyzer::for_names();
        let lexicon = Lexicon::new();
        let barrier = std::sync::Barrier::new(8);
        let racing: Vec<FlatLists<WordId>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        element_words(&analyzer, &schema, &lexicon)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("analysis threads do not panic"))
                .collect()
        });
        let sequential = element_words(&analyzer, &schema, &lexicon);
        for raced in &racing {
            assert_eq!(raced, &sequential);
        }
        // … and the ids name the words the analyzer produces.
        let reader = lexicon.read();
        for (list, id) in sequential.iter().zip(schema.ids()) {
            let expected: Vec<Option<WordId>> = analyzer
                .analyze(schema.element(id).name)
                .iter()
                .map(|w| reader.lookup(w))
                .collect();
            assert_eq!(list.iter().copied().map(Some).collect::<Vec<_>>(), expected);
        }
    }

    #[test]
    fn pair_memo_computes_each_pair_once_and_survives_lexicon_growth() {
        let lexicon = Lexicon::new();
        let (a, b) = (lexicon.intern("a"), lexicon.intern("b"));
        let mut memo = PairMemo::default();
        memo.fit(2, lexicon.len());
        let row_b = memo.row(b);
        assert_eq!(memo.get_or(row_b, 1, || 0.5), 0.5);
        assert_eq!(memo.get_or(row_b, 1, || unreachable!("memoised")), 0.5);
        let c = lexicon.intern("c");
        memo.fit(2, lexicon.len());
        let (row_a, row_c) = (memo.row(a), memo.row(c));
        assert_eq!(memo.get_or(row_a, 0, || 0.25), 0.25);
        assert_eq!(memo.get_or(row_c, 0, || 0.0), 0.0);
        assert_eq!(memo.row(b), row_b, "rows stay put as the table grows");
        assert_eq!(memo.get_or(row_b, 1, || unreachable!("memoised")), 0.5);
        // A different query shape starts over.
        memo.fit(3, lexicon.len());
        let row_b = memo.row(b);
        assert_eq!(memo.get_or(row_b, 1, || 0.75), 0.75);
    }
}
