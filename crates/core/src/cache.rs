//! Revision-keyed caches: Phase 1 candidates and Phase 2 match artifacts.
//!
//! Both caches rest on the same correctness idea — *lazy invalidation by
//! stamp*. An entry is stored together with an identifier of the exact
//! state it was computed against, and is served only while the caller's
//! current state matches; any mutation changes the stamp, so stale
//! entries can never be returned and are dropped on the next lookup.
//!
//! * [`CandidateCache`] stores `terms → hits` stamped with the
//!   [`IndexRevision`] — any index mutation (add, tombstone, swap)
//!   changes it.
//! * [`MatchArtifactCache`] stores `schema id → prepared matcher
//!   artifacts` stamped with the schema's repository revision plus the
//!   engine's ensemble generation — a schema update or a matcher-set
//!   replacement changes it.
//!
//! Shared mechanics live in [`LruCore`]: a stamped entry map with a
//! logical clock and weighted LRU eviction (weight 1 per entry for the
//! candidate cache, heap bytes for the artifact cache). Recency is kept
//! in an ordered side index, so finding a victim is O(log n) amortised
//! however many entries the budget holds, and a hit only restamps its
//! entry: the index re-files it when eviction reaches it.
//!
//! The artifact cache shares its byte budget with the engine's word
//! lexicon (artifacts are word ids into it): [`MatchArtifactCache::put`]
//! is told how many bytes the lexicon holds and evicts until artifacts
//! plus lexicon fit.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::Arc;

use parking_lot::Mutex;
use schemr_index::{Hit, IndexRevision};
use schemr_match::PreparedCandidate;
use schemr_model::SchemaId;
use schemr_obs::Counter;

/// The cache key: the analyzed query terms. Everything else Phase 1
/// depends on — candidate budget, coordination, proximity weight — is a
/// constant of the engine's immutable `EngineConfig`, and the cache
/// lives and dies with its engine.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey(pub(crate) Vec<String>);

struct LruEntry<V, S> {
    value: V,
    stamp: S,
    weight: usize,
    /// Logical timestamp of the last access, for LRU eviction.
    last_used: u64,
    /// The timestamp this entry is filed under in the recency index: its
    /// `last_used` when it was filed, older once a hit has touched it.
    filed: u64,
}

/// Outcome of a stamped lookup.
enum Lookup<V> {
    /// Present with a matching stamp.
    Hit(V),
    /// Present but stamped with a different state — removed.
    Stale,
    /// Not present.
    Absent,
}

/// The stamped-LRU core shared by both caches: entries carry the state
/// stamp they were computed against and a weight; [`LruCore::put`] evicts
/// least-recently-used entries until total weight fits the budget.
///
/// A hit only moves the entry's `last_used`; its place in the recency
/// index moves when eviction reaches it. Every entry is filed once, at a
/// timestamp no newer than its last use, so the first record whose
/// timestamp still is its entry's last use names the least recently used
/// entry — the same victim a re-filing on every hit would give, without
/// the index's node splits on the hot path (a warm search's candidates
/// are all hits).
struct LruCore<K, V, S> {
    entries: HashMap<K, LruEntry<V, S>>,
    /// `filed → key` for every entry, oldest first. The clock ticks on
    /// every access, so timestamps are unique.
    recency: BTreeMap<u64, K>,
    clock: u64,
    weight: usize,
}

impl<K: Eq + Hash + Clone, V: Clone, S: PartialEq> LruCore<K, V, S> {
    fn new() -> Self {
        LruCore {
            entries: HashMap::new(),
            recency: BTreeMap::new(),
            clock: 0,
            weight: 0,
        }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Look up `key` against the caller's current `stamp`. A present
    /// entry with a different stamp is stale — it is removed so the
    /// slot's weight is released immediately.
    fn get(&mut self, key: &K, stamp: &S) -> Lookup<V> {
        let clock = self.tick();
        match self.entries.get_mut(key) {
            Some(entry) if entry.stamp == *stamp => {
                entry.last_used = clock;
                Lookup::Hit(entry.value.clone())
            }
            Some(_) => {
                if let Some(old) = self.entries.remove(key) {
                    self.recency.remove(&old.filed);
                    self.weight -= old.weight;
                }
                Lookup::Stale
            }
            None => Lookup::Absent,
        }
    }

    /// Insert, replacing any previous entry under `key`, then evict
    /// least-recently-used entries while the total weight exceeds
    /// `budget`. The just-inserted entry holds the newest timestamp, so
    /// it is evicted only if it alone exceeds the budget. Returns the
    /// evicted `(count, weight)`.
    fn put(&mut self, key: K, stamp: S, value: V, weight: usize, budget: usize) -> (u64, usize) {
        let clock = self.tick();
        self.recency.insert(clock, key.clone());
        if let Some(old) = self.entries.insert(
            key,
            LruEntry {
                value,
                stamp,
                weight,
                last_used: clock,
                filed: clock,
            },
        ) {
            self.recency.remove(&old.filed);
            self.weight -= old.weight;
        }
        self.weight += weight;
        let mut evicted = 0u64;
        let mut evicted_weight = 0usize;
        while self.weight > budget {
            let Some((filed, victim)) = self.recency.pop_first() else {
                break;
            };
            let entry = self
                .entries
                .get_mut(&victim)
                .expect("the recency index names only resident entries");
            if entry.last_used != filed {
                // Used since it was filed: file it where it really is.
                entry.filed = entry.last_used;
                self.recency.insert(entry.filed, victim);
                continue;
            }
            let entry = self
                .entries
                .remove(&victim)
                .expect("the recency index names only resident entries");
            self.weight -= entry.weight;
            evicted += 1;
            evicted_weight += entry.weight;
        }
        (evicted, evicted_weight)
    }

    /// Drop every entry. Returns how many there were.
    fn clear(&mut self) -> usize {
        let dropped = self.entries.len();
        self.entries.clear();
        self.recency.clear();
        self.weight = 0;
        dropped
    }

    /// Resident entries.
    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// A small LRU cache of Phase 1 results, safe under concurrent searches
/// and writers. `capacity == 0` is a cache that always misses: nothing is
/// admitted and nothing is counted.
pub(crate) struct CandidateCache {
    capacity: usize,
    state: Mutex<LruCore<CacheKey, Vec<Hit>, IndexRevision>>,
    /// Lookups answered from the cache.
    pub hits: Arc<Counter>,
    /// Lookups that fell through to the index.
    pub misses: Arc<Counter>,
    /// Entries evicted to make room (capacity pressure).
    pub evictions: Arc<Counter>,
    /// Entries dropped because their revision no longer matched.
    pub invalidations: Arc<Counter>,
}

impl CandidateCache {
    pub(crate) fn new(
        capacity: usize,
        hits: Arc<Counter>,
        misses: Arc<Counter>,
        evictions: Arc<Counter>,
        invalidations: Arc<Counter>,
    ) -> Self {
        CandidateCache {
            capacity,
            state: Mutex::new(LruCore::new()),
            hits,
            misses,
            evictions,
            invalidations,
        }
    }

    fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Look up `key` against the index's `current` revision. A present
    /// entry with a different revision is stale — it is removed and
    /// counted as an invalidation, and the lookup is a miss.
    pub(crate) fn get(&self, key: &CacheKey, current: IndexRevision) -> Option<Vec<Hit>> {
        if !self.enabled() {
            return None;
        }
        let outcome = self.state.lock().get(key, &current);
        match outcome {
            Lookup::Hit(hits) => {
                self.hits.inc();
                Some(hits)
            }
            Lookup::Stale => {
                self.invalidations.inc();
                self.misses.inc();
                None
            }
            Lookup::Absent => {
                self.misses.inc();
                None
            }
        }
    }

    /// Store a result computed at `revision`. The caller must have read
    /// `revision` under the same index lock hold that produced `hits`
    /// (see `Index::search_terms_versioned`), otherwise a concurrent
    /// writer could stamp the entry with a state it does not reflect.
    pub(crate) fn put(&self, key: CacheKey, revision: IndexRevision, hits: Vec<Hit>) {
        if !self.enabled() {
            return;
        }
        // Weight 1 per entry: the byte budget degenerates to an entry
        // count.
        let (evicted, _) = self.state.lock().put(key, revision, hits, 1, self.capacity);
        self.evictions.add(evicted);
    }

    /// Resident occupancy under one lock hold: `(entries, capacity)`.
    /// Weight is 1 per entry, so entries double as resident weight —
    /// surfaced by `/debug/memory`.
    pub(crate) fn usage(&self) -> CacheUsage {
        let state = self.state.lock();
        CacheUsage {
            entries: state.len(),
            resident_weight: state.weight,
            budget: self.capacity,
        }
    }

    /// Estimated heap bytes of the resident entries: each key (held by
    /// the entry map and by the recency index) and each hit list.
    pub(crate) fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        let state = self.state.lock();
        let per_entry = size_of::<LruEntry<Vec<Hit>, IndexRevision>>() + 2 * size_of::<CacheKey>();
        state
            .entries
            .iter()
            .map(|(key, entry)| {
                let terms = key.0.iter().map(String::capacity).sum::<usize>();
                let key_bytes = key.0.capacity() * size_of::<String>() + terms;
                per_entry + 2 * key_bytes + entry.value.capacity() * size_of::<Hit>()
            })
            .sum()
    }

    /// Resident entries (tests).
    #[cfg(test)]
    fn len(&self) -> usize {
        self.state.lock().len()
    }
}

/// A point-in-time occupancy snapshot of one stamped-LRU cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CacheUsage {
    /// Entries currently resident.
    pub entries: usize,
    /// Total resident weight (entry count for the candidate cache,
    /// heap bytes for the artifact cache).
    pub resident_weight: usize,
    /// The eviction budget the weight is held under.
    pub budget: usize,
}

/// Stamp for a prepared-candidate entry: the schema's repository
/// revision, the engine's ensemble generation and the generation of the
/// lexicon its word ids live in. `Repository::update` bumps the first,
/// `SchemrEngine::set_ensemble` the second, retiring a full lexicon the
/// third; weight-only changes (`set_ensemble_weights`) leave artifacts
/// valid because they are weight-independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ArtifactStamp {
    /// `StoredSchema::metadata::revision` at preparation time.
    pub schema_revision: u64,
    /// The engine's ensemble generation at preparation time.
    pub ensemble_generation: u64,
    /// The generation of the lexicon the artifacts were prepared in.
    pub lexicon_generation: u64,
}

struct ArtifactState {
    entries: LruCore<SchemaId, Arc<PreparedCandidate>, ArtifactStamp>,
    /// The lexicon generation the cache serves. A search still running
    /// in a retired lexicon neither reads nor writes the cache: its
    /// stamps would drop, and its artifacts replace, entries the current
    /// lexicon's searches use.
    lexicon_generation: u64,
}

/// A byte-budgeted LRU cache of [`PreparedCandidate`] artifact bundles,
/// keyed by schema id and stamped with [`ArtifactStamp`]. Survives across
/// searches and is shared by concurrent ones.
/// `budget_bytes == 0` disables it entirely: every lookup misses without
/// being counted and nothing is admitted.
pub(crate) struct MatchArtifactCache {
    budget_bytes: usize,
    state: Mutex<ArtifactState>,
    /// Lookups answered from the cache.
    pub hits: Arc<Counter>,
    /// Lookups that fell through to `Ensemble::prepare`.
    pub misses: Arc<Counter>,
    /// Entries evicted under byte-budget pressure.
    pub evictions: Arc<Counter>,
    /// Entries dropped because their stamp no longer matched.
    pub invalidations: Arc<Counter>,
    /// Artifact bytes admitted into the cache.
    pub bytes_inserted: Arc<Counter>,
    /// Artifact bytes released by eviction.
    pub bytes_evicted: Arc<Counter>,
}

impl MatchArtifactCache {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        budget_bytes: usize,
        hits: Arc<Counter>,
        misses: Arc<Counter>,
        evictions: Arc<Counter>,
        invalidations: Arc<Counter>,
        bytes_inserted: Arc<Counter>,
        bytes_evicted: Arc<Counter>,
    ) -> Self {
        MatchArtifactCache {
            budget_bytes,
            state: Mutex::new(ArtifactState {
                entries: LruCore::new(),
                lexicon_generation: 0,
            }),
            hits,
            misses,
            evictions,
            invalidations,
            bytes_inserted,
            bytes_evicted,
        }
    }

    pub(crate) fn enabled(&self) -> bool {
        self.budget_bytes > 0
    }

    /// Look up the artifacts for `id` against the caller's current
    /// `stamp`. A present entry with a different stamp (schema updated,
    /// or matcher set replaced) is dropped and counted as an
    /// invalidation. A caller whose lexicon has been retired misses and
    /// drops nothing.
    pub(crate) fn get(&self, id: SchemaId, stamp: ArtifactStamp) -> Option<Arc<PreparedCandidate>> {
        if !self.enabled() {
            return None;
        }
        let outcome = {
            let mut state = self.state.lock();
            if stamp.lexicon_generation < state.lexicon_generation {
                Lookup::Absent
            } else {
                state.entries.get(&id, &stamp)
            }
        };
        match outcome {
            Lookup::Hit(artifacts) => {
                self.hits.inc();
                Some(artifacts)
            }
            Lookup::Stale => {
                self.invalidations.inc();
                self.misses.inc();
                None
            }
            Lookup::Absent => {
                self.misses.inc();
                None
            }
        }
    }

    /// Store `artifacts` prepared at `stamp`, then evict LRU entries
    /// until resident artifact bytes plus `lexicon_bytes` — what the
    /// lexicon behind the artifacts' word ids holds — fit the budget.
    /// Artifacts prepared in a retired lexicon are not admitted.
    pub(crate) fn put(
        &self,
        id: SchemaId,
        stamp: ArtifactStamp,
        artifacts: Arc<PreparedCandidate>,
        lexicon_bytes: usize,
    ) {
        if !self.enabled() {
            return;
        }
        let bytes = artifacts.bytes.max(1);
        let (evicted, evicted_bytes) = {
            let mut state = self.state.lock();
            if stamp.lexicon_generation < state.lexicon_generation {
                return;
            }
            state.entries.put(
                id,
                stamp,
                artifacts,
                bytes,
                self.budget_bytes.saturating_sub(lexicon_bytes),
            )
        };
        self.bytes_inserted.add(bytes as u64);
        self.evictions.add(evicted);
        self.bytes_evicted.add(evicted_bytes as u64);
    }

    /// The lexicon the entries' word ids live in is retired: drop every
    /// entry — all stale at once, counted as invalidations — and serve
    /// `next_generation` from here on.
    pub(crate) fn retire_lexicon(&self, next_generation: u64) {
        let dropped = {
            let mut state = self.state.lock();
            state.lexicon_generation = next_generation;
            state.entries.clear()
        };
        self.invalidations.add(dropped as u64);
    }

    /// Resident occupancy under one lock hold: entries plus resident
    /// artifact bytes against the byte budget — surfaced by
    /// `/debug/memory`.
    pub(crate) fn usage(&self) -> CacheUsage {
        let state = self.state.lock();
        CacheUsage {
            entries: state.entries.len(),
            resident_weight: state.entries.weight,
            budget: self.budget_bytes,
        }
    }

    /// Resident bytes (tests).
    #[cfg(test)]
    pub(crate) fn resident_bytes(&self) -> usize {
        self.state.lock().entries.weight
    }

    /// Resident entries (tests).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.state.lock().entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemr_model::SchemaId;

    fn cache(capacity: usize) -> CandidateCache {
        CandidateCache::new(
            capacity,
            Arc::new(Counter::new()),
            Arc::new(Counter::new()),
            Arc::new(Counter::new()),
            Arc::new(Counter::new()),
        )
    }

    fn key(word: &str) -> CacheKey {
        CacheKey(vec![word.to_string()])
    }

    fn rev(mutations: u64) -> IndexRevision {
        IndexRevision {
            instance: 1,
            mutations,
        }
    }

    fn hit(id: u64) -> Hit {
        Hit {
            id: SchemaId(id),
            score: 1.0,
            matched_terms: 1,
        }
    }

    #[test]
    fn hit_after_put_at_same_revision() {
        let c = cache(4);
        assert!(c.get(&key("a"), rev(1)).is_none());
        c.put(key("a"), rev(1), vec![hit(7)]);
        let got = c.get(&key("a"), rev(1)).unwrap();
        assert_eq!(got[0].id, SchemaId(7));
        assert_eq!(c.hits.get(), 1);
        assert_eq!(c.misses.get(), 1);
    }

    #[test]
    fn revision_change_invalidates() {
        let c = cache(4);
        c.put(key("a"), rev(1), vec![hit(7)]);
        assert!(c.get(&key("a"), rev(2)).is_none());
        assert_eq!(c.invalidations.get(), 1);
        assert_eq!(c.len(), 0, "stale entry dropped eagerly");
        // Different instance is just as stale.
        c.put(key("a"), rev(2), vec![hit(7)]);
        let other_instance = IndexRevision {
            instance: 9,
            mutations: 2,
        };
        assert!(c.get(&key("a"), other_instance).is_none());
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let c = cache(2);
        c.put(key("a"), rev(1), vec![]);
        c.put(key("b"), rev(1), vec![]);
        // Touch "a" so "b" becomes the LRU victim.
        assert!(c.get(&key("a"), rev(1)).is_some());
        c.put(key("c"), rev(1), vec![]);
        assert_eq!(c.evictions.get(), 1);
        assert!(c.get(&key("a"), rev(1)).is_some());
        assert!(c.get(&key("b"), rev(1)).is_none());
        assert!(c.get(&key("c"), rev(1)).is_some());
    }

    #[test]
    fn zero_capacity_disables() {
        let c = cache(0);
        c.put(key("a"), rev(1), vec![hit(1)]);
        assert!(c.get(&key("a"), rev(1)).is_none());
        assert_eq!(c.misses.get(), 0, "disabled cache records nothing");
    }

    // --- LruCore ---

    /// The reference the recency index replaced: same entry map, same
    /// clock, each victim found by scanning every entry for the oldest
    /// timestamp.
    struct ScanLru {
        entries: HashMap<u32, (u8, usize, u64)>, // stamp, weight, last_used
        clock: u64,
        weight: usize,
    }

    impl ScanLru {
        fn get(&mut self, key: u32, stamp: u8) -> Option<bool> {
            self.clock += 1;
            match self.entries.get_mut(&key) {
                Some(entry) if entry.0 == stamp => {
                    entry.2 = self.clock;
                    Some(true)
                }
                Some(_) => {
                    let old = self.entries.remove(&key).unwrap();
                    self.weight -= old.1;
                    Some(false)
                }
                None => None,
            }
        }

        fn put(&mut self, key: u32, stamp: u8, weight: usize, budget: usize) -> (u64, usize) {
            self.clock += 1;
            if let Some(old) = self.entries.insert(key, (stamp, weight, self.clock)) {
                self.weight -= old.1;
            }
            self.weight += weight;
            let (mut evicted, mut evicted_weight) = (0, 0);
            while self.weight > budget && !self.entries.is_empty() {
                let victim = *self.entries.iter().min_by_key(|(_, e)| e.2).unwrap().0;
                let entry = self.entries.remove(&victim).unwrap();
                self.weight -= entry.1;
                evicted += 1;
                evicted_weight += entry.1;
            }
            (evicted, evicted_weight)
        }
    }

    #[test]
    fn recency_index_evicts_exactly_what_the_linear_scan_evicts() {
        let mut lru: LruCore<u32, (), u8> = LruCore::new();
        let mut scan = ScanLru {
            entries: HashMap::new(),
            clock: 0,
            weight: 0,
        };
        // xorshift: a fixed, seeded mix of hits, stale lookups, misses,
        // replacements, oversized puts and budgets that move (as the
        // artifact budget does when the lexicon grows).
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let (mut evictions, mut stale) = (0u64, 0u64);
        for _ in 0..20_000 {
            let key = next(64) as u32;
            let stamp = next(3) as u8;
            if next(5) < 2 {
                let got = match lru.get(&key, &stamp) {
                    Lookup::Hit(()) => Some(true),
                    Lookup::Stale => Some(false),
                    Lookup::Absent => None,
                };
                assert_eq!(got, scan.get(key, stamp));
                stale += u64::from(got == Some(false));
            } else {
                let weight = 1 + next(40) as usize;
                let budget = 200 + next(200) as usize;
                let out = lru.put(key, stamp, (), weight, budget);
                assert_eq!(out, scan.put(key, stamp, weight, budget));
                evictions += out.0;
            }
            assert_eq!(lru.weight, scan.weight);
            assert_eq!(lru.len(), scan.entries.len());
            assert_eq!(lru.recency.len(), lru.len());
            for (key, entry) in &lru.entries {
                let reference = scan.entries.get(key).expect("same residents");
                assert_eq!((entry.stamp, entry.weight, entry.last_used), *reference);
                assert_eq!(lru.recency.get(&entry.filed), Some(key));
                assert!(entry.filed <= entry.last_used);
            }
        }
        assert!(evictions > 1_000 && stale > 100, "the mix exercises both");
    }

    // --- MatchArtifactCache ---

    fn artifact_cache(budget: usize) -> MatchArtifactCache {
        MatchArtifactCache::new(
            budget,
            Arc::new(Counter::new()),
            Arc::new(Counter::new()),
            Arc::new(Counter::new()),
            Arc::new(Counter::new()),
            Arc::new(Counter::new()),
            Arc::new(Counter::new()),
        )
    }

    fn artifacts(bytes: usize) -> Arc<PreparedCandidate> {
        Arc::new(PreparedCandidate {
            per_matcher: Vec::new(),
            bytes,
        })
    }

    fn stamp(schema_revision: u64, ensemble_generation: u64) -> ArtifactStamp {
        ArtifactStamp {
            schema_revision,
            ensemble_generation,
            lexicon_generation: 0,
        }
    }

    #[test]
    fn artifact_hit_after_put_at_same_stamp() {
        let c = artifact_cache(1024);
        assert!(c.get(SchemaId(1), stamp(3, 1)).is_none());
        c.put(SchemaId(1), stamp(3, 1), artifacts(100), 0);
        let got = c.get(SchemaId(1), stamp(3, 1)).unwrap();
        assert_eq!(got.bytes, 100);
        assert_eq!(c.hits.get(), 1);
        assert_eq!(c.misses.get(), 1);
        assert_eq!(c.bytes_inserted.get(), 100);
        assert_eq!(c.resident_bytes(), 100);
    }

    #[test]
    fn schema_revision_change_invalidates_artifacts() {
        let c = artifact_cache(1024);
        c.put(SchemaId(1), stamp(3, 1), artifacts(100), 0);
        assert!(c.get(SchemaId(1), stamp(4, 1)).is_none(), "schema updated");
        assert_eq!(c.invalidations.get(), 1);
        assert_eq!(c.len(), 0, "stale entry dropped eagerly");
        assert_eq!(c.resident_bytes(), 0, "stale bytes released");
    }

    #[test]
    fn ensemble_generation_change_invalidates_artifacts() {
        let c = artifact_cache(1024);
        c.put(SchemaId(1), stamp(3, 1), artifacts(100), 0);
        assert!(
            c.get(SchemaId(1), stamp(3, 2)).is_none(),
            "matcher set replaced"
        );
        assert_eq!(c.invalidations.get(), 1);
    }

    #[test]
    fn byte_budget_evicts_least_recently_used() {
        let c = artifact_cache(250);
        c.put(SchemaId(1), stamp(1, 1), artifacts(100), 0);
        c.put(SchemaId(2), stamp(1, 1), artifacts(100), 0);
        // Touch 1 so 2 becomes the LRU victim.
        assert!(c.get(SchemaId(1), stamp(1, 1)).is_some());
        c.put(SchemaId(3), stamp(1, 1), artifacts(100), 0);
        assert_eq!(c.evictions.get(), 1);
        assert_eq!(c.bytes_evicted.get(), 100);
        assert!(c.get(SchemaId(1), stamp(1, 1)).is_some());
        assert!(c.get(SchemaId(2), stamp(1, 1)).is_none());
        assert!(c.get(SchemaId(3), stamp(1, 1)).is_some());
        assert!(c.resident_bytes() <= 250);
    }

    #[test]
    fn lexicon_bytes_share_the_artifact_budget() {
        let c = artifact_cache(250);
        c.put(SchemaId(1), stamp(1, 1), artifacts(100), 0);
        c.put(SchemaId(2), stamp(1, 1), artifacts(100), 0);
        assert_eq!(c.resident_bytes(), 200);
        // 100 bytes of lexicon leave 150 for artifacts: the LRU entry goes.
        c.put(SchemaId(3), stamp(1, 1), artifacts(40), 100);
        assert_eq!(c.evictions.get(), 1);
        assert_eq!(c.resident_bytes(), 140);
        assert!(c.get(SchemaId(1), stamp(1, 1)).is_none());
        // A lexicon at the budget leaves no room at all.
        c.put(SchemaId(4), stamp(1, 1), artifacts(10), 250);
        assert_eq!(c.resident_bytes(), 0);
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn retiring_the_lexicon_drops_everything_and_shuts_its_searches_out() {
        let c = artifact_cache(1024);
        let next = |schema_revision| ArtifactStamp {
            lexicon_generation: 1,
            ..stamp(schema_revision, 1)
        };
        c.put(SchemaId(1), stamp(1, 1), artifacts(100), 0);
        c.put(SchemaId(2), stamp(1, 1), artifacts(60), 0);
        c.retire_lexicon(1);
        assert_eq!((c.len(), c.resident_bytes()), (0, 0));
        assert_eq!(c.invalidations.get(), 2);
        assert_eq!(c.evictions.get(), 0);
        // Usable afterwards, by searches in the next lexicon.
        c.put(SchemaId(1), next(1), artifacts(100), 0);
        assert!(c.get(SchemaId(1), next(1)).is_some());
        // A search still running in the retired lexicon misses without
        // dropping the entry, and what it prepares is not admitted — over
        // the resident entry or beside it.
        assert!(c.get(SchemaId(1), stamp(1, 1)).is_none());
        c.put(SchemaId(1), stamp(1, 1), artifacts(70), 0);
        c.put(SchemaId(3), stamp(1, 1), artifacts(70), 0);
        assert_eq!((c.len(), c.resident_bytes()), (1, 100));
        assert_eq!(c.invalidations.get(), 2);
        assert_eq!(c.get(SchemaId(1), next(1)).unwrap().bytes, 100);
    }

    #[test]
    fn oversized_entry_does_not_stick() {
        let c = artifact_cache(50);
        c.put(SchemaId(1), stamp(1, 1), artifacts(100), 0);
        // The entry alone exceeds the budget: admitted, then immediately
        // evicted — the cache never holds more than the budget.
        assert_eq!(c.resident_bytes(), 0);
        assert!(c.get(SchemaId(1), stamp(1, 1)).is_none());
    }

    #[test]
    fn replacing_an_entry_adjusts_resident_bytes() {
        let c = artifact_cache(1024);
        c.put(SchemaId(1), stamp(1, 1), artifacts(100), 0);
        c.put(SchemaId(1), stamp(2, 1), artifacts(60), 0);
        assert_eq!(c.resident_bytes(), 60);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn usage_reports_resident_occupancy() {
        let c = cache(4);
        c.put(key("a"), rev(1), vec![hit(1)]);
        c.put(key("b"), rev(1), vec![hit(2)]);
        let usage = c.usage();
        assert_eq!(usage.entries, 2);
        assert_eq!(usage.resident_weight, 2, "weight 1 per candidate entry");
        assert_eq!(usage.budget, 4);

        let a = artifact_cache(1024);
        a.put(SchemaId(1), stamp(1, 1), artifacts(100), 0);
        a.put(SchemaId(2), stamp(1, 1), artifacts(60), 0);
        let usage = a.usage();
        assert_eq!(usage.entries, 2);
        assert_eq!(usage.resident_weight, 160, "artifact weight is bytes");
        assert_eq!(usage.budget, 1024);
    }

    #[test]
    fn zero_budget_disables_artifacts() {
        let c = artifact_cache(0);
        assert!(!c.enabled());
        c.put(SchemaId(1), stamp(1, 1), artifacts(10), 0);
        assert!(c.get(SchemaId(1), stamp(1, 1)).is_none());
        assert_eq!(c.misses.get(), 0, "disabled cache records nothing");
    }
}
