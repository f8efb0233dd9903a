//! The word lexicon: every distinct analyzed word once, under a dense id,
//! with its all-gram [`GramSet`].
//!
//! A schema corpus repeats its vocabulary heavily — hundreds of
//! thousands of word occurrences over a few thousand distinct analyzed
//! words — so Phase 2's candidate artifacts store [`WordId`]s and the
//! gram set behind each id is built once, here, the first time the word
//! is seen. Ids are dense (`0..len`) and never reassigned while the
//! lexicon lives, which is what lets a matcher memoise per-word work in a
//! plain table indexed by id. Ids are also *exact*: two words share an id
//! only when they are the same string, where a hashed term id could
//! collide.
//!
//! A lexicon only grows. Whoever owns one bounds it by replacing it
//! ([`Lexicon::heap_bytes`] says when); ids from one lexicon mean
//! nothing in another.

use std::collections::HashMap;
use std::sync::{RwLock, RwLockReadGuard};

use crate::GramSet;

/// Dense identifier of one distinct word within one [`Lexicon`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WordId(u32);

impl WordId {
    /// The id as a table index (`0..Lexicon::len()`).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Default)]
struct Words {
    ids: HashMap<Box<str>, WordId>,
    /// `grams[id]` is the all-gram set of the word interned as `id`.
    grams: Vec<GramSet>,
    bytes: usize,
}

/// Bookkeeping bytes per word beside its text and grams: the map entry
/// and the gram-set header.
const ENTRY_BYTES: usize =
    std::mem::size_of::<(Box<str>, WordId)>() + std::mem::size_of::<GramSet>();

/// An append-only interner from analyzed word to [`WordId`] and all-gram
/// set, shared by concurrent matchers.
#[derive(Default)]
pub struct Lexicon {
    words: RwLock<Words>,
}

impl Lexicon {
    /// An empty lexicon.
    pub fn new() -> Self {
        Self::default()
    }

    /// The id of `word`, interning it (and building its all-gram set) on
    /// first sight. Concurrent callers agree on one id per word.
    pub fn intern(&self, word: &str) -> WordId {
        if let Some(id) = self.read().lookup(word) {
            return id;
        }
        // Built outside the write lock; a racing thread may build the
        // same set and lose, which costs work but never an id.
        let grams = GramSet::all_grams(word);
        let mut words = self.words.write().expect("no panic under the lexicon lock");
        if let Some(&id) = words.ids.get(word) {
            return id;
        }
        let id = WordId(
            u32::try_from(words.grams.len()).expect("a lexicon holds fewer than 2^32 words"),
        );
        words.bytes += ENTRY_BYTES + word.len() + grams.heap_bytes();
        words.grams.push(grams);
        words.ids.insert(word.into(), id);
        id
    }

    /// A read view for a burst of lookups under one lock hold. Do not
    /// call [`Lexicon::intern`] on the same thread while holding it.
    pub fn read(&self) -> LexiconReader<'_> {
        LexiconReader(self.words.read().expect("no panic under the lexicon lock"))
    }

    /// Number of distinct words interned.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// True when no word has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate heap footprint of the words and their gram sets, for
    /// the byte budget the owner holds the lexicon under.
    pub fn heap_bytes(&self) -> usize {
        self.read().0.bytes
    }
}

/// A read-locked view of a [`Lexicon`].
pub struct LexiconReader<'a>(RwLockReadGuard<'a, Words>);

impl LexiconReader<'_> {
    /// The all-gram set of an interned word.
    ///
    /// # Panics
    /// Panics if `id` was not issued by this lexicon.
    pub fn grams(&self, id: WordId) -> &GramSet {
        &self.0.grams[id.index()]
    }

    /// The id of `word` if it has been interned — never interns, so
    /// query-side text cannot grow the lexicon.
    pub fn lookup(&self, word: &str) -> Option<WordId> {
        self.0.ids.get(word).copied()
    }

    /// Number of distinct words interned.
    pub fn len(&self) -> usize {
        self.0.grams.len()
    }

    /// True when no word has been interned.
    pub fn is_empty(&self) -> bool {
        self.0.grams.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let lex = Lexicon::new();
        let a = lex.intern("patient");
        let b = lex.intern("height");
        assert_eq!(lex.intern("patient"), a);
        assert_eq!((a.index(), b.index()), (0, 1));
        assert_eq!(lex.len(), 2);
        let reader = lex.read();
        assert_eq!(reader.grams(a), &GramSet::all_grams("patient"));
        assert_eq!(reader.lookup("height"), Some(b));
        assert_eq!(reader.lookup("gender"), None, "lookup never interns");
        assert_eq!(reader.len(), 2);
    }

    #[test]
    fn heap_bytes_grow_with_each_new_word_only() {
        let lex = Lexicon::new();
        assert_eq!(lex.heap_bytes(), 0);
        lex.intern("patient");
        let one = lex.heap_bytes();
        assert!(one >= GramSet::all_grams("patient").heap_bytes() + "patient".len());
        lex.intern("patient");
        assert_eq!(lex.heap_bytes(), one);
        lex.intern("διάγνωση");
        assert!(lex.heap_bytes() > one);
    }

    #[test]
    fn eight_threads_agree_on_one_dense_id_per_word() {
        // Overlapping lists, each thread starting at a different offset,
        // all released at once so first-sight races actually happen.
        let vocabulary: Vec<String> = (0..200).map(|i| format!("word{i}")).collect();
        let lex = Lexicon::new();
        let barrier = Barrier::new(8);
        let seen: Vec<Vec<(String, WordId)>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..8)
                .map(|t| {
                    let (lex, barrier, vocabulary) = (&lex, &barrier, &vocabulary);
                    scope.spawn(move || {
                        barrier.wait();
                        (0..150)
                            .map(|k| {
                                let word = &vocabulary[(t * 25 + k) % vocabulary.len()];
                                (word.clone(), lex.intern(word))
                            })
                            .collect()
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("interning threads do not panic"))
                .collect()
        });
        let mut by_word: HashMap<String, WordId> = HashMap::new();
        for (word, id) in seen.into_iter().flatten() {
            assert_eq!(*by_word.entry(word.clone()).or_insert(id), id, "{word}");
        }
        assert_eq!(by_word.len(), vocabulary.len());
        assert_eq!(lex.len(), vocabulary.len());
        let mut ids: Vec<usize> = by_word.values().map(|id| id.index()).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..vocabulary.len()).collect::<Vec<_>>(), "dense");
        let reader = lex.read();
        for (word, id) in &by_word {
            assert_eq!(reader.grams(*id), &GramSet::all_grams(word));
        }
    }
}
