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
//!   artifacts` stamped with the schema's repository revision — a schema
//!   update changes it. What else the artifacts depend on, the matcher
//!   set and the lexicon their word ids live in, is fixed for the cache's
//!   whole life: the engine pairs one cache with one of each and replaces
//!   all three together.
//!
//! Shared mechanics live in [`LruCore`]: a stamped entry map with a
//! logical clock and weighted LRU eviction (weight 1 per entry for the
//! candidate cache, heap bytes for the artifact cache). Recency is kept
//! in an ordered side index, so finding a victim is O(log n) amortised
//! however many entries the budget holds, and a hit only restamps its
//! entry: the index re-files it when eviction reaches it. [`CountedLru`]
//! puts one behind a mutex, under a budget, and counts its lookups.
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

    /// Resident entries.
    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// An [`LruCore`] behind a mutex, held under a weight budget, counting
/// its lookups, safe under concurrent searches and writers. A zero
/// budget is a cache that always misses: nothing is admitted and nothing
/// is counted.
pub(crate) struct CountedLru<K, V, S> {
    budget: usize,
    state: Mutex<LruCore<K, V, S>>,
    /// Lookups answered from the cache.
    pub hits: Arc<Counter>,
    /// Lookups that fell through to the work the cache saves.
    pub misses: Arc<Counter>,
    /// Entries evicted under budget pressure.
    pub evictions: Arc<Counter>,
    /// Entries dropped because their stamp no longer matched.
    pub invalidations: Arc<Counter>,
}

impl<K: Eq + Hash + Clone, V: Clone, S: PartialEq> CountedLru<K, V, S> {
    pub(crate) fn new(
        budget: usize,
        hits: Arc<Counter>,
        misses: Arc<Counter>,
        evictions: Arc<Counter>,
        invalidations: Arc<Counter>,
    ) -> Self {
        CountedLru {
            budget,
            state: Mutex::new(LruCore::new()),
            hits,
            misses,
            evictions,
            invalidations,
        }
    }

    /// An empty cache under the same budget, counting into the same
    /// counters.
    pub(crate) fn emptied(&self) -> Self {
        CountedLru::new(
            self.budget,
            self.hits.clone(),
            self.misses.clone(),
            self.evictions.clone(),
            self.invalidations.clone(),
        )
    }

    pub(crate) fn enabled(&self) -> bool {
        self.budget > 0
    }

    /// Look up `key` against the caller's current `stamp`. A present
    /// entry with a different stamp is stale — it is removed and counted
    /// as an invalidation, and the lookup is a miss.
    fn lookup(&self, key: &K, stamp: &S) -> Option<V> {
        if !self.enabled() {
            return None;
        }
        let outcome = self.state.lock().get(key, stamp);
        match outcome {
            Lookup::Hit(value) => {
                self.hits.inc();
                Some(value)
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

    /// Store `value` at `stamp` with `weight`, then evict LRU entries
    /// until the resident weight fits the budget less `reserved`.
    /// Returns the evicted weight; `None` when the cache is disabled and
    /// admitted nothing.
    fn insert(&self, key: K, stamp: S, value: V, weight: usize, reserved: usize) -> Option<usize> {
        if !self.enabled() {
            return None;
        }
        let budget = self.budget.saturating_sub(reserved);
        let (evicted, evicted_weight) = self.state.lock().put(key, stamp, value, weight, budget);
        self.evictions.add(evicted);
        Some(evicted_weight)
    }

    /// Resident occupancy under one lock hold — surfaced by
    /// `/debug/memory`.
    pub(crate) fn usage(&self) -> CacheUsage {
        let state = self.state.lock();
        CacheUsage {
            entries: state.len(),
            resident_weight: state.weight,
            budget: self.budget,
        }
    }

    /// Resident entries.
    pub(crate) fn len(&self) -> usize {
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

/// A small LRU cache of Phase 1 results, keyed by the analyzed query
/// terms and stamped with the index revision; its budget is an entry
/// count.
pub(crate) type CandidateCache = CountedLru<CacheKey, Vec<Hit>, IndexRevision>;

impl CandidateCache {
    /// Look up `key` against the index's `current` revision.
    pub(crate) fn get(&self, key: &CacheKey, current: IndexRevision) -> Option<Vec<Hit>> {
        self.lookup(key, &current)
    }

    /// Store a result computed at `revision`. The caller must have read
    /// `revision` under the same index lock hold that produced `hits`
    /// (see `Index::search_terms_versioned`), otherwise a concurrent
    /// writer could stamp the entry with a state it does not reflect.
    pub(crate) fn put(&self, key: CacheKey, revision: IndexRevision, hits: Vec<Hit>) {
        // Weight 1 per entry: the budget is an entry count.
        self.insert(key, revision, hits, 1, 0);
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
}

/// A byte-budgeted LRU cache of [`PreparedCandidate`] artifact bundles,
/// keyed by schema id and stamped with the schema's repository revision.
/// It serves one matcher set and one lexicon: the engine replaces it
/// whenever it replaces either.
pub(crate) type MatchArtifactCache = CountedLru<SchemaId, Arc<PreparedCandidate>, u64>;

impl MatchArtifactCache {
    /// Look up the artifacts for `id` as of `schema_revision`. An entry
    /// prepared at another revision (the schema was updated) is dropped
    /// and counted as an invalidation.
    pub(crate) fn get(&self, id: SchemaId, schema_revision: u64) -> Option<Arc<PreparedCandidate>> {
        self.lookup(&id, &schema_revision)
    }

    /// Store `artifacts` prepared at `schema_revision`, then evict LRU
    /// entries until resident artifact bytes plus `lexicon_bytes` — what
    /// the lexicon behind the artifacts' word ids holds — fit the budget.
    /// Returns the bytes admitted and the bytes evicted; `None` when the
    /// cache is disabled.
    pub(crate) fn put(
        &self,
        id: SchemaId,
        schema_revision: u64,
        artifacts: Arc<PreparedCandidate>,
        lexicon_bytes: usize,
    ) -> Option<(usize, usize)> {
        let bytes = artifacts.bytes.max(1);
        let evicted = self.insert(id, schema_revision, artifacts, bytes, lexicon_bytes)?;
        Some((bytes, evicted))
    }

    /// Resident bytes (tests).
    #[cfg(test)]
    pub(crate) fn resident_bytes(&self) -> usize {
        self.usage().resident_weight
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
        )
    }

    fn artifacts(bytes: usize) -> Arc<PreparedCandidate> {
        Arc::new(PreparedCandidate {
            per_matcher: Vec::new(),
            bytes,
        })
    }

    #[test]
    fn artifact_hit_after_put_at_same_stamp() {
        let c = artifact_cache(1024);
        assert!(c.get(SchemaId(1), 3).is_none());
        assert_eq!(c.put(SchemaId(1), 3, artifacts(100), 0), Some((100, 0)));
        let got = c.get(SchemaId(1), 3).unwrap();
        assert_eq!(got.bytes, 100);
        assert_eq!(c.hits.get(), 1);
        assert_eq!(c.misses.get(), 1);
        assert_eq!(c.resident_bytes(), 100);
    }

    #[test]
    fn schema_revision_change_invalidates_artifacts() {
        let c = artifact_cache(1024);
        c.put(SchemaId(1), 3, artifacts(100), 0);
        assert!(c.get(SchemaId(1), 4).is_none(), "schema updated");
        assert_eq!(c.invalidations.get(), 1);
        assert_eq!(c.len(), 0, "stale entry dropped eagerly");
        assert_eq!(c.resident_bytes(), 0, "stale bytes released");
    }

    #[test]
    fn byte_budget_evicts_least_recently_used() {
        let c = artifact_cache(250);
        c.put(SchemaId(1), 1, artifacts(100), 0);
        c.put(SchemaId(2), 1, artifacts(100), 0);
        // Touch 1 so 2 becomes the LRU victim.
        assert!(c.get(SchemaId(1), 1).is_some());
        assert_eq!(c.put(SchemaId(3), 1, artifacts(100), 0), Some((100, 100)));
        assert_eq!(c.evictions.get(), 1);
        assert!(c.get(SchemaId(1), 1).is_some());
        assert!(c.get(SchemaId(2), 1).is_none());
        assert!(c.get(SchemaId(3), 1).is_some());
        assert!(c.resident_bytes() <= 250);
    }

    #[test]
    fn lexicon_bytes_share_the_artifact_budget() {
        let c = artifact_cache(250);
        c.put(SchemaId(1), 1, artifacts(100), 0);
        c.put(SchemaId(2), 1, artifacts(100), 0);
        assert_eq!(c.resident_bytes(), 200);
        // 100 bytes of lexicon leave 150 for artifacts: the LRU entry goes.
        c.put(SchemaId(3), 1, artifacts(40), 100);
        assert_eq!(c.evictions.get(), 1);
        assert_eq!(c.resident_bytes(), 140);
        assert!(c.get(SchemaId(1), 1).is_none());
        // A lexicon at the budget leaves no room at all.
        c.put(SchemaId(4), 1, artifacts(10), 250);
        assert_eq!(c.resident_bytes(), 0);
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn oversized_entry_does_not_stick() {
        let c = artifact_cache(50);
        c.put(SchemaId(1), 1, artifacts(100), 0);
        // The entry alone exceeds the budget: admitted, then immediately
        // evicted — the cache never holds more than the budget.
        assert_eq!(c.resident_bytes(), 0);
        assert!(c.get(SchemaId(1), 1).is_none());
    }

    #[test]
    fn replacing_an_entry_adjusts_resident_bytes() {
        let c = artifact_cache(1024);
        c.put(SchemaId(1), 1, artifacts(100), 0);
        c.put(SchemaId(1), 2, artifacts(60), 0);
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
        a.put(SchemaId(1), 1, artifacts(100), 0);
        a.put(SchemaId(2), 1, artifacts(60), 0);
        let usage = a.usage();
        assert_eq!(usage.entries, 2);
        assert_eq!(usage.resident_weight, 160, "artifact weight is bytes");
        assert_eq!(usage.budget, 1024);
    }

    #[test]
    fn zero_budget_disables_artifacts() {
        let c = artifact_cache(0);
        assert!(!c.enabled());
        assert_eq!(c.put(SchemaId(1), 1, artifacts(10), 0), None);
        assert!(c.get(SchemaId(1), 1).is_none());
        assert_eq!(c.misses.get(), 0, "disabled cache records nothing");
    }
}
