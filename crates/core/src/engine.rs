//! The search engine: repository + index + matcher ensemble + scorer.
//!
//! `SchemrEngine` wires the paper's architecture (Figure 5) together: the
//! schema repository feeds an offline text indexer; queries flow through
//! candidate extraction, the match engine, and tightness-of-fit scoring;
//! ranked results carry the metadata and per-element detail the GUI
//! renders.

use std::ops::Range;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock, RwLockWriteGuard};
use schemr_index::{
    codec, Index, IndexChange, IndexDocument, IndexRevision, IndexStats, SearchOptions,
};
use schemr_match::{Ensemble, EnsembleQuery, MatchScratch, PrepareScratch, PreparedCandidate};
use schemr_model::{QueryGraph, QueryTerm, SchemaId};
use schemr_obs::{
    DeepSize, EventResult, Histogram, LedgerProbe, MetricsRegistry, ResourceLedger, SearchEvent,
    SpanFacts, Tracer, TracerConfig,
};
use schemr_repo::{ChangeKind, Repository, StoredSchema};
use schemr_text::Lexicon;

use crate::cache::{CacheKey, CandidateCache, MatchArtifactCache};
use crate::metrics::EngineMetrics;
use crate::request::SearchRequest;
use crate::result::{MatcherTiming, PhaseTimings, SearchResponse, SearchResult, SearchTrace};
use crate::tightness::{tightness_of_fit_in, MatchedElement, TightnessConfig, TightnessScratch};

/// Result-list length when the request doesn't set one.
const DEFAULT_LIMIT: usize = 10;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Phase 1 candidate budget (the paper's "top n candidate results").
    pub top_candidates: usize,
    /// Apply the coordination factor in Phase 1 (ablated in E5).
    pub coordination: bool,
    /// Proximity-bonus weight in Phase 1 (0 disables; ablated in E5).
    pub proximity_weight: f64,
    /// Phase 3 parameters.
    pub tightness: TightnessConfig,
    /// Request-tracing configuration (trace ring, slowlog, event log).
    pub trace: TracerConfig,
    /// Capacity of the revision-keyed Phase 1 candidate cache (entries).
    /// 0 means only "don't cache": every lookup misses, same path.
    pub candidate_cache_entries: usize,
    /// Byte budget of the revision-keyed Phase 2 match-artifact cache
    /// and the word lexicon its artifacts point into, together. 0 means
    /// only "retain nothing": every search then builds its candidates'
    /// artifacts itself, in a lexicon that lives for that search, and
    /// scores them through the same path.
    ///
    /// The lexicon only grows — about 0.45 KiB per distinct analyzed
    /// word, words of removed schemas included — and artifacts get what
    /// it leaves, so the smallest budget that keeps a steady artifact set
    /// is the corpus vocabulary plus that set (4.2 MiB of vocabulary on
    /// the 30,000-schema benchmark corpus; `memory_report().lexicon_bytes`
    /// says how far along it is). Below the vocabulary the artifacts'
    /// share shrinks towards nothing as the lexicon fills, and each time
    /// it outgrows the budget a new, empty lexicon and artifact cache
    /// replace it. That costs re-interning, never a result: DESIGN.md,
    /// "Match-artifact cache and the lexicon's bound", has the
    /// measurements.
    pub match_artifact_cache_bytes: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            top_candidates: 50,
            coordination: true,
            proximity_weight: 0.25,
            tightness: TightnessConfig::default(),
            trace: TracerConfig::default(),
            candidate_cache_entries: 512,
            match_artifact_cache_bytes: 8 * 1024 * 1024,
        }
    }
}

/// Errors from a search call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SearchError {
    /// The request had no keywords and no fragments.
    EmptyQuery,
}

impl std::fmt::Display for SearchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SearchError::EmptyQuery => write!(f, "query is empty"),
        }
    }
}

impl std::error::Error for SearchError {}

/// A point-in-time deep-memory report across the engine's resident data
/// structures (`GET /debug/memory`). All byte figures are estimates
/// computed from capacities and element sizes ([`DeepSize`]), not
/// allocator measurements — they attribute resident memory structure by
/// structure; what `VmRSS` holds beyond their sum (allocator slack, code,
/// stacks) is the unattributed remainder (DESIGN.md has the table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryReport {
    /// Schemas the repository stores.
    pub repository_schemas: usize,
    /// Estimated resident bytes of the repository: stored schemas,
    /// metadata strings, id map and change journal.
    pub repository_bytes: usize,
    /// Estimated heap bytes of the whole inverted index (term
    /// dictionary, postings, document table, forward index).
    pub index_deep_bytes: usize,
    /// Estimated heap bytes of the postings lists alone.
    pub index_postings_bytes: usize,
    /// Resident Phase 1 candidate-cache entries.
    pub candidate_cache_entries: usize,
    /// Candidate-cache capacity (entries; 0 = disabled).
    pub candidate_cache_budget: usize,
    /// Estimated heap bytes of the candidate cache's keys and hit lists.
    pub candidate_cache_bytes: usize,
    /// Resident Phase 2 match-artifact-cache entries.
    pub artifact_cache_entries: usize,
    /// Resident bytes held under the match-artifact budget: the cached
    /// artifacts plus the word lexicon they point into.
    pub artifact_cache_resident_bytes: usize,
    /// Artifact-cache byte budget (0 = disabled).
    pub artifact_cache_budget_bytes: usize,
    /// Distinct words in the engine's lexicon.
    pub lexicon_words: usize,
    /// Estimated heap bytes of the lexicon (words and gram sets) — part
    /// of `artifact_cache_resident_bytes`.
    pub lexicon_bytes: usize,
    /// Completed traces retained in the recent ring.
    pub trace_ring_len: usize,
    /// Estimated heap bytes of the recent-trace ring.
    pub trace_ring_bytes: usize,
    /// Completed traces retained in the slowlog ring.
    pub slow_ring_len: usize,
    /// Estimated heap bytes of the slowlog ring.
    pub slow_ring_bytes: usize,
    /// Bytes written to the JSONL event log since open, when configured.
    pub event_log_bytes: Option<u64>,
}

/// The Schemr search engine.
pub struct SchemrEngine {
    repo: Arc<Repository>,
    index: RwLock<Index>,
    config: EngineConfig,
    last_indexed_revision: Mutex<u64>,
    candidate_cache: CandidateCache,
    /// What Phase 2 reads: each search clones the `Arc` once and reads
    /// nothing else; every change installs a whole new state.
    phase2: RwLock<Arc<Phase2State>>,
    metrics: EngineMetrics,
    tracer: Tracer,
}

impl SchemrEngine {
    /// Engine over a repository with default config and the standard
    /// (name + context) ensemble. Call [`SchemrEngine::reindex_full`]
    /// before the first search.
    pub fn new(repo: Arc<Repository>) -> Self {
        Self::with_config(repo, EngineConfig::default())
    }

    /// Engine with explicit config.
    pub fn with_config(repo: Arc<Repository>, config: EngineConfig) -> Self {
        let metrics = EngineMetrics::new();
        let tracer = Tracer::new(config.trace.clone());
        let candidate_cache = CandidateCache::new(
            config.candidate_cache_entries,
            metrics.candidate_cache_hits.clone(),
            metrics.candidate_cache_misses.clone(),
            metrics.candidate_cache_evictions.clone(),
            metrics.candidate_cache_invalidations.clone(),
        );
        let phase2 = Phase2State {
            matchers: Arc::new(Matchers::new(Ensemble::standard())),
            lexicon: Arc::new(Lexicon::new()),
            artifacts: MatchArtifactCache::new(
                config.match_artifact_cache_bytes,
                metrics.match_artifact_cache_hits.clone(),
                metrics.match_artifact_cache_misses.clone(),
                metrics.match_artifact_cache_evictions.clone(),
                metrics.match_artifact_cache_invalidations.clone(),
            ),
        };
        SchemrEngine {
            repo,
            index: RwLock::new(Index::new().with_metrics(metrics.index.clone())),
            config,
            last_indexed_revision: Mutex::new(0),
            candidate_cache,
            phase2: RwLock::new(Arc::new(phase2)),
            metrics,
            tracer,
        }
    }

    /// The underlying repository.
    pub fn repository(&self) -> &Arc<Repository> {
        &self.repo
    }

    /// The engine's metric handles.
    pub fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    /// The engine's metrics registry — the HTTP layer registers its own
    /// request metrics here and renders the whole set at `/metrics`.
    pub fn metrics_registry(&self) -> &Arc<MetricsRegistry> {
        self.metrics.registry()
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The engine's request tracer — the server's `/debug/traces`,
    /// `/debug/slowlog`, and event-log surfaces all read through this.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Replace the matcher ensemble (e.g. with learned weights or an
    /// ablation variant). Searches already in Phase 2 finish with the
    /// set they started with; this call does not wait for them.
    pub fn set_ensemble(&self, ensemble: Ensemble) {
        let matchers = Arc::new(Matchers::new(ensemble));
        // Cached artifacts are matcher-set-specific, so the new set gets
        // an empty cache; the lexicon's words are not, so it keeps them.
        let slot = self.phase2.write();
        let lexicon = slot.lexicon.clone();
        self.install(slot, matchers, lexicon);
    }

    /// Put a state of `matchers` and `lexicon`, with an empty artifact
    /// cache, in `slot`. The old state's artifacts go with it, counted as
    /// invalidations; a search still holding it keeps reading (and
    /// filling) that old cache until it finishes.
    fn install(
        &self,
        mut slot: RwLockWriteGuard<'_, Arc<Phase2State>>,
        matchers: Arc<Matchers>,
        lexicon: Arc<Lexicon>,
    ) {
        let artifacts = slot.artifacts.emptied();
        let next = Phase2State {
            matchers,
            lexicon,
            artifacts,
        };
        let old = std::mem::replace(&mut *slot, Arc::new(next));
        drop(slot);
        let dropped = old.artifacts.len() as u64;
        old.artifacts.invalidations.add(dropped);
    }

    /// Rebuild the document index from scratch — the offline indexer's
    /// full pass.
    pub fn reindex_full(&self) {
        let started = Instant::now();
        let revision = self.repo.revision();
        let fresh = Index::new().with_metrics(self.metrics.index.clone());
        // Nobody sees `fresh` until it is swapped in, and the result does
        // not depend on the batches or on how many threads analyze them.
        fresh.bulk_load(&self.repo.snapshot(), Index::bulk_analysers(), |s| {
            index_document(s)
        });
        *self.index.write() = fresh;
        *self.last_indexed_revision.lock() = revision;
        self.metrics
            .reindex_seconds
            .observe_duration(started.elapsed());
    }

    /// Apply repository changes since the last (re)index — the "scheduled
    /// intervals" incremental path. The whole journal tail goes to the
    /// index as one batch in journal order, so a tick costs one snapshot
    /// publish however many changes it carries. Returns how many changes
    /// were applied.
    pub fn reindex_incremental(&self) -> usize {
        let mut last = self.last_indexed_revision.lock();
        let changes = self.repo.changes_since(*last);
        if changes.is_empty() {
            return 0;
        }
        // A put indexes the schema as the repository holds it now; one
        // removed again since has nothing to index, and its delete
        // follows in the journal. `None` is a delete.
        let stored: Vec<(SchemaId, Option<Arc<StoredSchema>>)> = changes
            .iter()
            .filter_map(|change| match change.kind {
                ChangeKind::Put => Some((change.id, Some(self.repo.get(change.id)?))),
                ChangeKind::Delete => Some((change.id, None)),
            })
            .collect();
        let batch = stored.iter().map(|(id, stored)| match stored {
            Some(stored) => IndexChange::Put(index_document(stored)),
            None => IndexChange::Delete(*id),
        });
        self.index.read().apply(batch);
        *last = changes.iter().map(|c| c.revision).fold(*last, u64::max);
        changes.len()
    }

    /// Statistics of the live index.
    pub fn index_stats(&self) -> IndexStats {
        self.index.read().stats()
    }

    /// `(live, total)` document slots of the live index, in O(1) — what
    /// `/healthz` reads instead of the full [`SchemrEngine::index_stats`].
    pub fn index_doc_counts(&self) -> (usize, usize) {
        self.index.read().doc_counts()
    }

    /// Revision of the live index (instance id + mutation count). Moves
    /// only on logical mutations — background merges leave it in place.
    pub fn index_revision(&self) -> IndexRevision {
        self.index.read().revision()
    }

    /// Data-plane introspection of the live index: corpus aggregates
    /// plus per-postings-list statistics for the `top_lists` heaviest
    /// lists (`GET /debug/index`).
    pub fn index_introspection(&self, top_lists: usize) -> schemr_index::IndexIntrospection {
        self.index.read().introspect(top_lists)
    }

    /// Deep memory accounting across the engine's resident data
    /// structures (`GET /debug/memory`): the repository, the index, both
    /// revision-keyed caches, the trace rings, and the event log.
    pub fn memory_report(&self) -> MemoryReport {
        let (index_deep_bytes, postings_bytes) = {
            let index = self.index.read();
            (index.deep_size_of(), index.postings_bytes())
        };
        let candidate = self.candidate_cache.usage();
        let phase2 = self.phase2.read().clone();
        let artifact = phase2.artifacts.usage();
        let (lexicon_words, lexicon_bytes) = (phase2.lexicon.len(), phase2.lexicon.heap_bytes());
        let (trace_ring_bytes, slow_ring_bytes) = self.tracer.ring_bytes();
        let (trace_ring_len, slow_ring_len) = self.tracer.ring_lens();
        MemoryReport {
            repository_schemas: self.repo.len(),
            repository_bytes: self.repo.deep_bytes(),
            index_deep_bytes,
            index_postings_bytes: postings_bytes,
            candidate_cache_entries: candidate.entries,
            candidate_cache_budget: candidate.budget,
            candidate_cache_bytes: self.candidate_cache.resident_bytes(),
            artifact_cache_entries: artifact.entries,
            artifact_cache_resident_bytes: artifact.resident_weight + lexicon_bytes,
            artifact_cache_budget_bytes: artifact.budget,
            lexicon_words,
            lexicon_bytes,
            trace_ring_len,
            trace_ring_bytes,
            slow_ring_len,
            slow_ring_bytes,
            event_log_bytes: self
                .tracer
                .event_log()
                .map(schemr_obs::EventLog::written_bytes),
        }
    }

    /// Persist the index segment to disk (offline-indexer output).
    pub fn save_index(&self, path: impl AsRef<std::path::Path>) -> Result<(), codec::CodecError> {
        codec::save_to(&self.index.read(), path)
    }

    /// Load a previously saved index segment.
    pub fn load_index(&self, path: impl AsRef<std::path::Path>) -> Result<(), codec::CodecError> {
        let mut loaded = codec::load_from(path)?;
        loaded.set_metrics(self.metrics.index.clone());
        *self.index.write() = loaded;
        *self.last_indexed_revision.lock() = self.repo.revision();
        Ok(())
    }

    /// Phase 1 only: the coarse candidate list for a query graph. Exposed
    /// for the scalability and coordination experiments.
    pub fn extract_candidates(&self, graph: &QueryGraph) -> Vec<schemr_index::Hit> {
        self.candidates_for(&graph.terms()).0
    }

    /// Phase 1 over the query's flattened terms, through the candidate
    /// cache. Also returns whether the cache answered.
    fn candidates_for(&self, terms: &[QueryTerm]) -> (Vec<schemr_index::Hit>, bool) {
        let options = SearchOptions {
            top_n: self.config.top_candidates,
            coordination: self.config.coordination,
            proximity_weight: self.config.proximity_weight,
            ..SearchOptions::default()
        };
        let index = self.index.read();
        let key = CacheKey(index.analyze_query(terms.iter().map(|t| t.text.as_str())));
        // A revision observed *before* the lookup can only be older than
        // the entry's true state, which makes a stale hit impossible and
        // at worst turns a usable entry into a miss.
        if let Some(hits) = self.candidate_cache.get(&key, index.revision()) {
            return (hits, true);
        }
        // The versioned search reads the revision and the postings under
        // one lock hold, so the entry is stamped with exactly the state
        // that produced it — the invariant the cache's correctness rests
        // on.
        let (hits, revision) = index.search_terms_versioned(&key.0, &options);
        self.candidate_cache.put(key, revision, hits.clone());
        (hits, false)
    }

    /// The Phase 2 state a search reads from start to end. With a zero
    /// artifact budget nothing is retained, the lexicon included: each
    /// search gets a state of its own, whose cache admits and counts
    /// nothing.
    fn phase2_for_search(&self) -> Arc<Phase2State> {
        let shared = self.phase2.read().clone();
        if shared.artifacts.enabled() {
            return shared;
        }
        Arc::new(Phase2State {
            matchers: shared.matchers.clone(),
            lexicon: Arc::new(Lexicon::new()),
            artifacts: shared.artifacts.emptied(),
        })
    }

    /// Resolve the prepared match artifacts for `stored` through the
    /// state's artifact cache, building and admitting them on a miss —
    /// in `scratch`'s buffers, so a miss allocates the bundle it caches
    /// and little else.
    /// Concurrent searches may race on a cold entry; both build the same
    /// deterministic bundle and the second put replaces the first, so the
    /// race costs work but never correctness.
    ///
    /// A miss is the only place the lexicon grows, so its size is checked
    /// here: artifacts are admitted into what the lexicon leaves of the
    /// budget, and a lexicon that alone exceeds the budget is replaced,
    /// with the cache, by empty ones — if `state` is still the engine's.
    /// This search keeps scoring in the state it started with.
    fn prepared_for(
        &self,
        state: &Arc<Phase2State>,
        stored: &StoredSchema,
        scratch: &mut PrepareScratch,
    ) -> Arc<PreparedCandidate> {
        let Phase2State {
            matchers,
            lexicon,
            artifacts: cache,
        } = &**state;
        let (id, revision) = (stored.metadata.id, stored.metadata.revision);
        if let Some(artifacts) = cache.get(id, revision) {
            return artifacts;
        }
        let artifacts = Arc::new(
            matchers
                .ensemble
                .prepare_into(&stored.schema, lexicon, scratch),
        );
        let lexicon_bytes = lexicon.heap_bytes();
        if lexicon_bytes > self.config.match_artifact_cache_bytes {
            // Replace the engine's state only if it is still this one: a
            // racing search may have replaced it already, and a zero
            // budget's per-search state never is the engine's.
            let slot = self.phase2.write();
            if Arc::ptr_eq(&slot, state) {
                self.install(slot, matchers.clone(), Arc::new(Lexicon::new()));
            }
        } else if let Some((admitted, evicted)) =
            cache.put(id, revision, artifacts.clone(), lexicon_bytes)
        {
            let m = &self.metrics;
            m.match_artifact_cache_bytes_inserted.add(admitted as u64);
            m.match_artifact_cache_bytes_evicted.add(evicted as u64);
        }
        artifacts
    }

    /// Phase 2 over every candidate, on the request's thread: resolve
    /// each candidate's artifacts, run the ensemble, and score
    /// tightness-of-fit on the combined matrix it produced. One scratch
    /// serves the whole loop: what one candidate's scoring worked out
    /// about a word pair, the next candidate's reads, and the matrices,
    /// the prepare buffers of an artifact miss and the tightness tables
    /// one candidate filled, the next refills. What a candidate leaves
    /// behind goes to flat arenas, so the loop allocates per search, not
    /// per candidate — apart from the bundle a miss caches.
    fn match_candidates(
        &self,
        p2: &Phase2<'_>,
        cands: &[(schemr_index::Hit, Arc<StoredSchema>)],
    ) -> Matched {
        let matchers = p2.state.matchers.ensemble.len();
        let strengths = if p2.with_strengths {
            cands.len() * matchers
        } else {
            0
        };
        let mut done = Matched {
            scores: Vec::with_capacity(cands.len()),
            matched: Vec::new(),
            matched_at: Vec::with_capacity(cands.len()),
            strengths: Vec::with_capacity(strengths),
            matchers,
            matcher_wall: vec![Duration::ZERO; matchers],
            tightness_wall: Duration::ZERO,
        };
        let mut scratch = MatchScratch::new(p2.equery, &p2.state.lexicon);
        let mut prepare = PrepareScratch::default();
        let mut tightness = TightnessScratch::default();
        for (_, stored) in cands {
            let artifacts = self.prepared_for(p2.state, stored, &mut prepare);
            let combined = p2.state.matchers.ensemble.run_into(
                p2.terms,
                p2.graph,
                &artifacts,
                &stored.schema,
                &mut scratch,
                &mut done.matcher_wall,
                p2.with_strengths.then_some(&mut done.strengths),
            );
            let tstart = Instant::now();
            let first = done.matched.len();
            let fit = tightness_of_fit_in(
                &stored.schema,
                combined,
                &self.config.tightness,
                &mut tightness,
                &mut done.matched,
            );
            done.scores.push(fit.score);
            done.matched_at.push(first..done.matched.len());
            done.tightness_wall += tstart.elapsed();
        }
        done
    }

    /// Merge the index's segments when the tombstone ratio reaches
    /// `threshold` (0 < threshold ≤ 1) or the sealed segments crowd past
    /// the index's own bound. Returns whether a merge committed. The
    /// scheduler calls this every tick so neither put/delete churn nor
    /// the segment fan-out a bulk build leaves behind can degrade Phase 1
    /// indefinitely.
    ///
    /// The compaction runs entirely off-lock — searches keep reading
    /// their published snapshots throughout, and the new layout lands with
    /// a single pointer swap.
    pub fn maybe_merge(&self, threshold: f64) -> bool {
        // Runs on every scheduler tick: `merge` looks at the writer's
        // per-segment counts and returns at once when neither rule holds,
        // or when a concurrent merge beat this one to the segments.
        // Committed merges are counted by `schemr_index_merges_total`.
        self.index.read().merge(threshold).is_some()
    }

    /// Run the full three-phase search.
    pub fn search(&self, request: &SearchRequest) -> Result<Vec<SearchResult>, SearchError> {
        self.search_detailed(request).map(|r| r.results)
    }

    /// Run the full search, returning phase timings too.
    pub fn search_detailed(&self, request: &SearchRequest) -> Result<SearchResponse, SearchError> {
        self.metrics.searches_total.inc();
        let graph = request.query_graph();
        if graph.is_empty() {
            self.metrics.search_errors_total.inc();
            return Err(SearchError::EmptyQuery);
        }
        // The flattened query, built once: Phase 1's key, the trace's
        // query text and Phase 2's matrix rows all read it.
        let terms = graph.terms();
        // Request tracing: when disabled, `begin` is a single branch and
        // the ledger is never read. When enabled, the ledger is read once
        // before the search's first clock reading and once after its
        // last; the phase boundaries read the clock alone.
        let event = self.tracer.begin(request.trace_id.as_deref());
        let traced = event.is_some();
        let probe = traced.then(LedgerProbe::start);
        let start = Instant::now();

        // Phase 1: candidate extraction.
        let (hits, candidate_cache_hit) = self.candidates_for(&terms);
        let candidates_from_index = hits.len();
        let extracted = Instant::now();

        // Phase 2: matcher ensemble over the candidates, all of it in the
        // one state read here.
        let state = self.phase2_for_search();
        let candidates: Vec<(schemr_index::Hit, Arc<StoredSchema>)> = hits
            .into_iter()
            .filter_map(|h| self.repo.get(h.id).map(|s| (h, s)))
            .collect();
        // Query-side artifacts are built once per search; candidate-side
        // artifacts resolve through the state's revision-keyed cache.
        let equery = state.matchers.ensemble.prepare_query(&terms, &graph);
        let phase2 = Phase2 {
            state: &state,
            equery: &equery,
            terms: &terms,
            graph: &graph,
            with_strengths: traced,
        };
        let done = self.match_candidates(&phase2, &candidates);
        let matched = Instant::now();

        // Phase 3: final ranking. Tightness-of-fit itself ran inside
        // `match_candidates`; `report` charges its wall to this phase,
        // which otherwise assembles, sorts, and truncates.
        // Rank on the scores alone, each row remembering its candidate
        // position; only the rows that survive the limit get their
        // display fields copied out of the shared schema and their
        // matched elements out of the arena.
        let mut ranked: Vec<(SearchResult, Arc<StoredSchema>, usize)> = candidates
            .into_iter()
            .enumerate()
            .map(|(at, (hit, stored))| {
                let row = SearchResult {
                    id: stored.metadata.id,
                    title: String::new(),
                    summary: String::new(),
                    score: done.scores[at],
                    coarse_score: hit.score,
                    matched_terms: hit.matched_terms,
                    stats: schemr_model::SchemaStats::default(),
                    matches: Vec::new(),
                };
                (row, stored, at)
            })
            .collect();
        ranked.sort_by(|a, b| rank_order(&a.0, &b.0));
        ranked.truncate(request.limit.unwrap_or(DEFAULT_LIMIT));
        // Each surviving row's candidate position, for the event log's
        // per-matcher strengths.
        let mut origins: Vec<usize> = Vec::new();
        if traced {
            origins.extend(ranked.iter().map(|(_, _, at)| *at));
        }
        let results: Vec<SearchResult> = ranked
            .into_iter()
            .map(|(mut row, stored, at)| {
                row.title = stored.metadata.title.clone();
                row.summary = stored.metadata.summary.clone();
                row.stats = stored.stats();
                row.matches = done.matched(at).to_vec();
                row
            })
            .collect();
        let ranked = Instant::now();
        let ledger = probe.map(|probe| probe.delta());

        let record = SearchRecord {
            request,
            terms: &terms,
            marks: [start, extracted, matched, ranked],
            ledger,
            candidate_cache_hit,
            candidates_from_index,
            phase2: &state,
            done: &done,
            origins: &origins,
        };
        Ok(self.report(event, &record, results))
    }

    /// Turn what a search recorded into everything it reports: the phase
    /// timings, the registry's counters and histograms, the explain
    /// trace and, when traced, the search's event and span facts. This is
    /// the one place a search's timings are split, so every reader sees
    /// one split: tightness-of-fit runs inside the matching loop but is
    /// charged to Phase 3, in the timings and the trace alike.
    fn report(
        &self,
        event: Option<SearchEvent>,
        s: &SearchRecord<'_>,
        results: Vec<SearchResult>,
    ) -> SearchResponse {
        let [start, extracted, matched, ranked] = s.marks;
        let evaluated = s.done.scores.len();
        let tightness = s.done.tightness_wall;
        let t1 = extracted - start;
        let t2 = (matched - extracted).saturating_sub(tightness);
        let t3 = ranked - matched + tightness;
        // Record the phase work into the registry on every search (not just
        // when the caller keeps the timings).
        let m = &self.metrics;
        if results.is_empty() {
            m.search_empty_total.inc();
        }
        m.candidates_evaluated_total.add(evaluated as u64);
        m.phase_candidate_extraction.observe_duration(t1);
        m.phase_matching.observe_duration(t2);
        m.phase_scoring.observe_duration(t3);
        let matchers = &s.phase2.matchers;
        for (seconds, wall) in matchers.seconds(m).iter().zip(&s.done.matcher_wall) {
            seconds.observe_duration(*wall);
        }

        let trace = s.request.explain.then(|| SearchTrace {
            candidates_from_index: s.candidates_from_index,
            candidates_evaluated: evaluated,
            matchers: matchers
                .names
                .iter()
                .zip(&s.done.matcher_wall)
                .map(|(name, wall)| MatcherTiming {
                    name: name.clone(),
                    wall: *wall,
                })
                .collect(),
        });

        let trace_id = event.map(|begun| {
            let us = |d: Duration| d.as_micros() as u64;
            let ledger = s.ledger.unwrap_or_default();
            let mut strengths = Vec::with_capacity(s.origins.len() * matchers.names.len());
            for &at in s.origins {
                strengths.extend_from_slice(s.done.strengths(at));
            }
            let event = SearchEvent {
                query: joined_terms(s.terms),
                candidates_from_index: s.candidates_from_index,
                candidates_evaluated: evaluated,
                phase_us: [us(t1), us(t2), us(t3)],
                total_us: us(t1 + t2 + t3),
                results: results
                    .iter()
                    .map(|r| EventResult {
                        id: r.id,
                        score: r.score,
                    })
                    .collect(),
                matchers: Arc::clone(&matchers.names),
                strengths,
                cpu_us: ledger.cpu_us,
                alloc_count: ledger.alloc_count,
                alloc_bytes: ledger.alloc_bytes,
                ..begun
            };
            let facts = SpanFacts {
                queue_wait_us: s.request.queue_wait.map(us),
                candidate_cache_hit: s.candidate_cache_hit,
                matcher_us: s.done.matcher_wall.iter().map(|&wall| us(wall)).collect(),
            };
            self.tracer.finish(event, facts).event.trace_id.clone()
        });

        SearchResponse {
            results,
            timings: PhaseTimings {
                candidate_extraction: t1,
                matching: t2,
                scoring: t3,
            },
            candidates_evaluated: evaluated,
            trace,
            ledger: s.ledger,
            trace_id,
        }
    }
}

/// A stored schema as the index reads it, borrowed — the one place both
/// indexer passes (full and incremental) name its parts.
fn index_document(stored: &StoredSchema) -> IndexDocument<'_> {
    IndexDocument {
        id: stored.metadata.id,
        title: &stored.metadata.title,
        summary: &stored.metadata.summary,
        schema: &stored.schema,
    }
}

/// Everything one search did, phase by phase: what
/// [`SchemrEngine::report`] turns into timings, metrics, the explain
/// trace and the span tree.
struct SearchRecord<'a> {
    request: &'a SearchRequest,
    terms: &'a [QueryTerm],
    /// The search's start and the end of each of its three phases.
    marks: [Instant; 4],
    /// What the search cost its thread, start to end; `None` when
    /// untraced.
    ledger: Option<ResourceLedger>,
    /// Whether the candidate cache answered Phase 1.
    candidate_cache_hit: bool,
    candidates_from_index: usize,
    phase2: &'a Phase2State,
    done: &'a Matched,
    /// Each result's candidate position (traced searches only).
    origins: &'a [usize],
}

/// What Phase 2 of one search reads: the engine's Phase 2 state as the
/// search found it, and the query's artifacts.
struct Phase2<'a> {
    state: &'a Arc<Phase2State>,
    equery: &'a EnsembleQuery,
    terms: &'a [QueryTerm],
    graph: &'a QueryGraph,
    /// Collect per-matcher strengths: the search is traced.
    with_strengths: bool,
}

/// Everything Phase 2 reads that outlives a search: the matcher set, the
/// word lexicon candidate artifacts point into (append-only while it
/// lives), and the artifacts cached for that pair. A new matcher set or
/// a full lexicon comes with a new state and an empty cache, so an
/// artifact's stamp is its schema's revision alone.
struct Phase2State {
    matchers: Arc<Matchers>,
    lexicon: Arc<Lexicon>,
    artifacts: MatchArtifactCache,
}

/// The matcher set searches run, with each matcher's
/// `schemr_matcher_seconds` series. [`SchemrEngine::set_ensemble`]
/// installs a new one, so the series are resolved once per matcher
/// set — by its first search, which is when a series first appears on
/// `/metrics` — and every later search only reads them.
struct Matchers {
    ensemble: Ensemble,
    /// The matchers' names, in registration order, which every traced
    /// search's event shares.
    names: Arc<[String]>,
    seconds: OnceLock<Vec<Arc<Histogram>>>,
}

impl Matchers {
    fn new(ensemble: Ensemble) -> Self {
        let names = ensemble
            .matcher_names()
            .into_iter()
            .map(String::from)
            .collect();
        Matchers {
            ensemble,
            names,
            seconds: OnceLock::new(),
        }
    }

    /// Per matcher, in registration order, its wall-time histogram.
    fn seconds(&self, metrics: &EngineMetrics) -> &[Arc<Histogram>] {
        self.seconds.get_or_init(|| {
            self.names
                .iter()
                .map(|name| metrics.matcher_histogram(name))
                .collect()
        })
    }
}

/// What [`SchemrEngine::match_candidates`] produced, indexed by candidate
/// position: per candidate a score, a range of the matched-element arena
/// and (traced) a run of strengths, each list flat so the loop grows a
/// few arenas instead of allocating per candidate.
struct Matched {
    /// Final (tightness-of-fit) score per candidate.
    scores: Vec<f64>,
    /// Every candidate's matched elements, one after another.
    matched: Vec<MatchedElement>,
    /// Per candidate, its range of `matched`.
    matched_at: Vec<Range<usize>>,
    /// Per candidate, one strength per matcher for the event log; empty
    /// unless the search is traced.
    strengths: Vec<f64>,
    /// Matchers in the ensemble: the stride of `strengths`.
    matchers: usize,
    /// Per-matcher wall time, accumulated over the candidates.
    matcher_wall: Vec<Duration>,
    /// Wall time spent in tightness-of-fit calls. Tightness executes in
    /// the candidate loop but is *accounted* to Phase 3, so the
    /// matching/scoring split keeps its meaning — Phase 2 = matchers,
    /// Phase 3 = tightness + assembly.
    tightness_wall: Duration,
}

impl Matched {
    /// Candidate `at`'s matched elements.
    fn matched(&self, at: usize) -> &[MatchedElement] {
        &self.matched[self.matched_at[at].clone()]
    }

    /// Candidate `at`'s per-matcher strengths, in registration order.
    fn strengths(&self, at: usize) -> &[f64] {
        &self.strengths[at * self.matchers..(at + 1) * self.matchers]
    }
}

/// The trace's query text: the flattened terms, space-separated.
fn joined_terms(terms: &[QueryTerm]) -> String {
    let mut text = String::with_capacity(terms.iter().map(|t| t.text.len() + 1).sum());
    for (i, term) in terms.iter().enumerate() {
        if i > 0 {
            text.push(' ');
        }
        text.push_str(&term.text);
    }
    text
}

/// The final ranking order: tightness score descending, Phase 1 coarse
/// score descending, schema id ascending. Uses `total_cmp` so the order
/// is total even if a NaN score ever slips through — `partial_cmp`'s
/// `unwrap_or(Equal)` made NaN non-transitive, and a non-total
/// comparator makes the sort order depend on the input permutation
/// (identical corpora could rank differently across runs).
pub(crate) fn rank_order(a: &SearchResult, b: &SearchResult) -> std::cmp::Ordering {
    b.score
        .total_cmp(&a.score)
        .then(b.coarse_score.total_cmp(&a.coarse_score))
        .then(a.id.cmp(&b.id))
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemr_obs::json::Json;
    use schemr_obs::PHASES;
    use schemr_repo::import::import_str;

    fn clinic_repo() -> Arc<Repository> {
        let repo = Arc::new(Repository::new());
        import_str(
            &repo,
            "clinic",
            "rural health clinic",
            "CREATE TABLE patient (id INT, height REAL, gender TEXT, diagnosis TEXT);
             CREATE TABLE doctor (id INT, gender TEXT);
             CREATE TABLE clinic_case (id INT, patient INT REFERENCES patient(id), doctor INT REFERENCES doctor(id))",
        )
        .unwrap();
        import_str(
            &repo,
            "store",
            "a web shop",
            "CREATE TABLE orders (id INT, total DECIMAL, quantity INT);
             CREATE TABLE customer (id INT, name TEXT, address TEXT)",
        )
        .unwrap();
        import_str(
            &repo,
            "hr",
            "human resources",
            "CREATE TABLE employee (id INT, name TEXT, gender TEXT, salary DECIMAL)",
        )
        .unwrap();
        repo
    }

    /// The root span of the trace `id` as `/debug/traces/{id}` renders it.
    fn rendered_root(engine: &SchemrEngine, id: &str) -> Json {
        let trace = engine.tracer().get(id).expect("retained");
        let doc = Json::parse(&trace.to_json()).expect("valid json");
        doc.get("spans").and_then(Json::as_arr).unwrap()[0].clone()
    }

    /// `span`'s children, each as (name, `dur_us`).
    fn children(span: &Json) -> Vec<(&str, u64)> {
        let kids = span.get("children").and_then(Json::as_arr).unwrap();
        kids.iter()
            .map(|k| {
                let name = k.get("name").and_then(Json::as_str).unwrap();
                (name, k.get("dur_us").and_then(Json::as_u64).unwrap())
            })
            .collect()
    }

    /// `span`'s child named `name`.
    fn child<'a>(span: &'a Json, name: &str) -> &'a Json {
        let kids = span.get("children").and_then(Json::as_arr).unwrap();
        let named = kids
            .iter()
            .find(|k| k.get("name").and_then(Json::as_str) == Some(name));
        named.unwrap_or_else(|| panic!("no span {name}"))
    }

    #[test]
    fn rank_order_is_total_and_pins_the_tie_break() {
        use schemr_model::SchemaId;
        let result = |id: u64, score: f64, coarse: f64| SearchResult {
            id: SchemaId(id),
            title: String::new(),
            summary: String::new(),
            score,
            coarse_score: coarse,
            matched_terms: 0,
            stats: Default::default(),
            matches: Vec::new(),
        };
        // Score descending, then coarse descending, then id ascending.
        let mut rows = [
            result(5, 0.3, 0.9),
            result(2, 0.7, 0.1),
            result(4, 0.3, 0.9),
            result(3, 0.7, 0.5),
            result(1, f64::NAN, 0.8),
        ];
        rows.sort_by(rank_order);
        let order: Vec<u64> = rows.iter().map(|r| r.id.0).collect();
        // total_cmp puts NaN above every finite score (descending), and
        // critically the order is a *total* order: the old
        // `partial_cmp(..).unwrap_or(Equal)` comparator was
        // non-transitive around NaN, so the final ranking depended on
        // the input permutation.
        assert_eq!(order, vec![1, 3, 2, 4, 5]);
        // Same elements, different starting permutation, same ranking.
        let mut shuffled = [
            result(1, f64::NAN, 0.8),
            result(4, 0.3, 0.9),
            result(3, 0.7, 0.5),
            result(5, 0.3, 0.9),
            result(2, 0.7, 0.1),
        ];
        shuffled.sort_by(rank_order);
        let order2: Vec<u64> = shuffled.iter().map(|r| r.id.0).collect();
        assert_eq!(order, order2);
    }

    #[test]
    fn end_to_end_keyword_search_ranks_the_clinic_first() {
        let engine = SchemrEngine::new(clinic_repo());
        engine.reindex_full();
        let results = engine
            .search(&SearchRequest::keywords([
                "patient",
                "height",
                "gender",
                "diagnosis",
            ]))
            .unwrap();
        assert!(!results.is_empty());
        assert_eq!(results[0].title, "clinic");
        assert!(results[0].score > 0.0);
        assert!(!results[0].matches.is_empty());
    }

    #[test]
    fn fragment_search_works() {
        let engine = SchemrEngine::new(clinic_repo());
        engine.reindex_full();
        let request =
            SearchRequest::parse("", &["CREATE TABLE patient (height REAL, gender TEXT)"]).unwrap();
        let results = engine.search(&request).unwrap();
        assert_eq!(results[0].title, "clinic");
    }

    #[test]
    fn empty_query_is_an_error() {
        let engine = SchemrEngine::new(clinic_repo());
        engine.reindex_full();
        assert_eq!(
            engine.search(&SearchRequest::default()),
            Err(SearchError::EmptyQuery)
        );
    }

    #[test]
    fn search_before_indexing_returns_nothing() {
        let engine = SchemrEngine::new(clinic_repo());
        let results = engine
            .search(&SearchRequest::keywords(["patient"]))
            .unwrap();
        assert!(results.is_empty());
    }

    #[test]
    fn incremental_reindex_picks_up_changes() {
        let repo = clinic_repo();
        let engine = SchemrEngine::new(repo.clone());
        engine.reindex_full();
        assert_eq!(engine.reindex_incremental(), 0);
        let id = import_str(
            &repo,
            "lab",
            "",
            "CREATE TABLE specimen (assay TEXT, result REAL, collected DATE, vessel TEXT)",
        )
        .unwrap();
        assert!(engine
            .search(&SearchRequest::keywords(["specimen"]))
            .unwrap()
            .is_empty());
        assert_eq!(engine.reindex_incremental(), 1);
        let results = engine
            .search(&SearchRequest::keywords(["specimen", "assay"]))
            .unwrap();
        assert_eq!(results[0].id, id);
        // Deletions propagate too.
        repo.remove(id).unwrap();
        engine.reindex_incremental();
        assert!(engine
            .search(&SearchRequest::keywords(["specimen"]))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn detailed_response_carries_timings_and_counts() {
        let engine = SchemrEngine::new(clinic_repo());
        engine.reindex_full();
        let resp = engine
            .search_detailed(&SearchRequest::keywords(["gender"]))
            .unwrap();
        assert!(resp.candidates_evaluated >= 2); // clinic and hr both mention gender
        assert!(resp.timings.total() > std::time::Duration::ZERO);
    }

    #[test]
    fn limit_truncates_results() {
        let engine = SchemrEngine::new(clinic_repo());
        engine.reindex_full();
        let results = engine
            .search(&SearchRequest::keywords(["gender"]).with_limit(1))
            .unwrap();
        assert_eq!(results.len(), 1);
    }

    #[test]
    fn index_persists_and_reloads() {
        let dir = std::env::temp_dir().join("schemr-engine-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("engine.idx");
        let repo = clinic_repo();
        let engine = SchemrEngine::new(repo.clone());
        engine.reindex_full();
        engine.save_index(&path).unwrap();

        let cold = SchemrEngine::new(repo);
        cold.load_index(&path).unwrap();
        let results = cold.search(&SearchRequest::keywords(["patient"])).unwrap();
        assert_eq!(results[0].title, "clinic");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn searches_populate_the_metrics_registry() {
        let engine = SchemrEngine::new(clinic_repo());
        engine.reindex_full();
        engine.search(&SearchRequest::keywords(["gender"])).unwrap();
        engine
            .search(&SearchRequest::keywords(["patient", "height"]))
            .unwrap();
        assert_eq!(
            engine.search(&SearchRequest::default()),
            Err(SearchError::EmptyQuery)
        );

        let reg = engine.metrics_registry();
        assert_eq!(
            reg.counter_value("schemr_search_requests_total", &[]),
            Some(3)
        );
        assert_eq!(
            reg.counter_value("schemr_search_errors_total", &[]),
            Some(1)
        );
        assert!(
            reg.counter_value("schemr_candidates_evaluated_total", &[])
                .unwrap()
                >= 2
        );
        // Two successful searches → two observations per phase.
        for phase in ["candidate_extraction", "matching", "scoring"] {
            let snap = reg
                .histogram_snapshot("schemr_phase_seconds", &[("phase", phase)])
                .unwrap();
            assert_eq!(snap.count, 2, "phase {phase}");
        }
        // Per-matcher histograms registered lazily during the searches.
        for matcher in ["name", "context"] {
            let snap = reg
                .histogram_snapshot("schemr_matcher_seconds", &[("matcher", matcher)])
                .unwrap();
            assert_eq!(snap.count, 2, "matcher {matcher}");
        }
        // Index counters flowed through the engine-owned handles.
        assert!(
            reg.counter_value("schemr_index_terms_looked_up_total", &[])
                .unwrap()
                >= 3
        );
        // Re-index timing recorded once.
        assert_eq!(
            reg.histogram_snapshot("schemr_reindex_seconds", &[])
                .unwrap()
                .count,
            1
        );
        // And the rendered exposition carries the headline families.
        let text = reg.render_prometheus();
        assert!(text.contains("schemr_search_requests_total 3"));
        assert!(text.contains("schemr_phase_seconds_bucket{phase=\"matching\","));
    }

    #[test]
    fn index_counters_survive_reindex_and_reload() {
        let dir = std::env::temp_dir().join("schemr-engine-metrics-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("engine.idx");
        let engine = SchemrEngine::new(clinic_repo());
        engine.reindex_full();
        engine.search(&SearchRequest::keywords(["gender"])).unwrap();
        let before = engine
            .metrics_registry()
            .counter_value("schemr_index_terms_looked_up_total", &[])
            .unwrap();
        assert!(before >= 1);
        // A rebuild swaps the Index value but keeps the same counters.
        engine.save_index(&path).unwrap();
        engine.reindex_full();
        engine.load_index(&path).unwrap();
        engine.search(&SearchRequest::keywords(["gender"])).unwrap();
        let after = engine
            .metrics_registry()
            .counter_value("schemr_index_terms_looked_up_total", &[])
            .unwrap();
        assert!(after > before, "{after} vs {before}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn explain_attaches_a_trace_only_when_requested() {
        let engine = SchemrEngine::new(clinic_repo());
        engine.reindex_full();
        let plain = engine
            .search_detailed(&SearchRequest::keywords(["gender"]))
            .unwrap();
        assert!(plain.trace.is_none());

        let explained = engine
            .search_detailed(&SearchRequest::keywords(["gender"]).with_explain())
            .unwrap();
        let trace = explained.trace.expect("explain requested");
        assert!(trace.candidates_from_index >= trace.candidates_evaluated);
        assert!(trace.candidates_evaluated >= 2);
        let names: Vec<&str> = trace.matchers.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["name", "context"]);
    }

    #[test]
    fn searches_are_traced_with_three_phase_spans() {
        let engine = SchemrEngine::new(clinic_repo());
        engine.reindex_full();
        let resp = engine
            .search_detailed(
                &SearchRequest::keywords(["patient", "gender"]).with_trace_id("test-trace-1"),
            )
            .unwrap();
        assert_eq!(resp.trace_id.as_deref(), Some("test-trace-1"));
        let trace = engine.tracer().get("test-trace-1").expect("retained");
        assert_eq!(trace.event.query, "patient gender");
        assert!(trace.event.candidates_from_index >= trace.event.candidates_evaluated);
        let root = rendered_root(&engine, "test-trace-1");
        let phases: Vec<&str> = children(&root).into_iter().map(|(n, _)| n).collect();
        assert_eq!(phases, PHASES);
        // Matcher walls materialized as children of the matching span.
        let matchers: Vec<&str> = children(child(&root, "matching"))
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(matchers, ["matcher:name", "matcher:context"]);
        // Phase 1 says whether the candidate cache answered it.
        let p1 = child(&root, "candidate_extraction");
        let outcome = p1.get("attrs").unwrap().get("candidate_cache");
        assert_eq!(outcome.and_then(Json::as_str), Some("miss"));
        // Results carry per-matcher strengths for the event log.
        assert!(!trace.event.results.is_empty());
        assert_eq!(&trace.event.matchers[..], ["name", "context"]);
        assert_eq!(trace.event.strengths_of(0).len(), 2);
        // Generated ids for requests without one; response echoes it.
        let auto = engine
            .search_detailed(&SearchRequest::keywords(["gender"]))
            .unwrap();
        let auto_id = auto.trace_id.expect("tracer enabled");
        assert!(engine.tracer().get(&auto_id).is_some());
    }

    #[test]
    fn disabled_tracer_costs_nothing_and_reports_no_id() {
        let engine = SchemrEngine::with_config(
            clinic_repo(),
            EngineConfig {
                trace: schemr_obs::TracerConfig::disabled(),
                ..Default::default()
            },
        );
        engine.reindex_full();
        let resp = engine
            .search_detailed(&SearchRequest::keywords(["gender"]).with_trace_id("ignored"))
            .unwrap();
        assert!(resp.trace_id.is_none());
        assert!(engine.tracer().recent(10).is_empty());
    }

    #[test]
    fn traced_searches_append_to_the_event_log() {
        let dir = std::env::temp_dir().join(format!("schemr-engine-evlog-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = SchemrEngine::with_config(
            clinic_repo(),
            EngineConfig {
                trace: schemr_obs::TracerConfig {
                    event_log_path: Some(dir.join("events.jsonl")),
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        engine.reindex_full();
        engine
            .search(&SearchRequest::keywords(["patient", "height"]))
            .unwrap();
        let events = engine.tracer().event_log().unwrap().read_events().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].query, "patient height");
        let line = std::fs::read_to_string(dir.join("events.jsonl")).unwrap();
        let phases = "\"phases\":{\"candidate_extraction\":";
        assert!(line.contains(phases), "{line}");
        assert!(line.contains(",\"tightness_scoring\":"), "{line}");
        assert!(!events[0].results.is_empty());
        assert_eq!(events[0].strengths_of(0).len(), 2);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn warm_artifact_cache_reproduces_cold_and_uncached_results_bitwise() {
        let repo = clinic_repo();
        let cached = SchemrEngine::new(repo.clone());
        cached.reindex_full();
        let uncached = SchemrEngine::with_config(
            repo,
            EngineConfig {
                match_artifact_cache_bytes: 0,
                ..Default::default()
            },
        );
        uncached.reindex_full();
        let request = SearchRequest::keywords(["patient", "gender", "height"]);
        let cold = cached.search(&request).unwrap();
        let cold_misses = cached.metrics().match_artifact_cache_misses.get();
        assert!(cold_misses > 0, "first search prepares artifacts");
        let warm = cached.search(&request).unwrap();
        assert!(
            cached.metrics().match_artifact_cache_hits.get() >= cold_misses,
            "second search reuses every prepared candidate"
        );
        let reference = uncached.search(&request).unwrap();
        assert_eq!(cold.len(), reference.len());
        for ((c, w), n) in cold.iter().zip(&warm).zip(&reference) {
            assert_eq!(c.id, w.id);
            assert_eq!(c.id, n.id);
            assert_eq!(c.score.to_bits(), w.score.to_bits());
            assert_eq!(c.score.to_bits(), n.score.to_bits(), "cached vs uncached");
        }
        // A zero budget means only "don't cache": nothing was looked up
        // or admitted.
        assert_eq!(uncached.metrics().match_artifact_cache_misses.get(), 0);
        assert_eq!(uncached.metrics().match_artifact_cache_hits.get(), 0);
    }

    #[test]
    fn artifact_less_matchers_score_the_same_bits_cached_uncached_and_restamped() {
        // `edit` prepares nothing: its (empty) artifacts ride the same
        // bundles, cache and stamps as the name and context matchers'.
        let with_edit = || {
            let mut e = Ensemble::standard();
            e.push(Box::new(schemr_match::EditDistanceMatcher::new()), 0.5);
            e
        };
        let repo = clinic_repo();
        let cached = SchemrEngine::new(repo.clone());
        let uncached = SchemrEngine::with_config(
            repo,
            EngineConfig {
                match_artifact_cache_bytes: 0,
                ..Default::default()
            },
        );
        for engine in [&cached, &uncached] {
            engine.reindex_full();
            engine.set_ensemble(with_edit());
        }
        let request = SearchRequest::keywords(["patient", "gender", "hieght"]).with_explain();
        let reference = uncached.search_detailed(&request).unwrap();
        let names: Vec<&str> = reference
            .trace
            .as_ref()
            .unwrap()
            .matchers
            .iter()
            .map(|m| m.name.as_str())
            .collect();
        assert_eq!(names, ["name", "context", "edit"]);
        assert!(!reference.results.is_empty());
        let cold = cached.search(&request).unwrap();
        let warm = cached.search(&request).unwrap();
        assert!(cached.metrics().match_artifact_cache_hits.get() > 0);
        // A new matcher set comes with an empty artifact cache: every
        // bundle is prepared again, by the set that scores it.
        cached.set_ensemble(with_edit());
        let restamped = cached.search(&request).unwrap();
        assert!(cached.metrics().match_artifact_cache_invalidations.get() >= 1);
        for (what, got) in [("cold", &cold), ("warm", &warm), ("restamped", &restamped)] {
            assert_eq!(got.len(), reference.results.len(), "{what}");
            for (x, y) in got.iter().zip(&reference.results) {
                assert_eq!(x.id, y.id, "{what}");
                assert_eq!(x.score.to_bits(), y.score.to_bits(), "{what}");
            }
        }
    }

    #[test]
    fn schema_update_invalidates_cached_artifacts() {
        let repo = clinic_repo();
        let engine = SchemrEngine::new(repo.clone());
        engine.reindex_full();
        let request = SearchRequest::keywords(["gender"]);
        engine.search(&request).unwrap();
        // Replace the hr schema: its cached artifacts are now stale.
        let id = repo
            .snapshot()
            .into_iter()
            .find(|s| s.metadata.title == "hr")
            .unwrap()
            .metadata
            .id;
        let replacement = schemr_parse::parse_fragment(
            "hr",
            "CREATE TABLE staff (id INT, gender TEXT, grade INT)",
        )
        .unwrap();
        repo.update(id, replacement).unwrap();
        engine.reindex_incremental();
        engine.search(&request).unwrap();
        assert!(
            engine.metrics().match_artifact_cache_invalidations.get() >= 1,
            "stale artifacts dropped after the update"
        );
        // The refreshed entry serves the next search.
        let hits_before = engine.metrics().match_artifact_cache_hits.get();
        engine.search(&request).unwrap();
        assert!(engine.metrics().match_artifact_cache_hits.get() > hits_before);
    }

    #[test]
    fn set_ensemble_invalidates_cached_artifacts() {
        let engine = SchemrEngine::new(clinic_repo());
        engine.reindex_full();
        let request = SearchRequest::keywords(["gender"]);
        engine.search(&request).unwrap();
        engine.set_ensemble(Ensemble::standard());
        engine.search(&request).unwrap();
        assert!(
            engine.metrics().match_artifact_cache_invalidations.get() >= 1,
            "artifacts from the old matcher set are stale"
        );
    }

    #[test]
    fn each_search_counts_its_artifact_cache_outcome() {
        let engine = SchemrEngine::new(clinic_repo());
        engine.reindex_full();
        let m = engine.metrics();
        // One search's (hits, misses): the deltas of the registry's
        // artifact-cache counters across it.
        let outcome = || {
            let before = (
                m.match_artifact_cache_hits.get(),
                m.match_artifact_cache_misses.get(),
            );
            engine.search(&SearchRequest::keywords(["gender"])).unwrap();
            (
                m.match_artifact_cache_hits.get() - before.0,
                m.match_artifact_cache_misses.get() - before.1,
            )
        };
        let (hits, misses) = outcome();
        assert!(misses > 0);
        assert_eq!(hits, 0);
        assert_eq!(outcome(), (misses, 0), "the warm search hits every bundle");
    }

    /// Fifteen schemas that all reach Phase 2 for `patient archive`:
    /// three match the query exactly, twelve only through their summary
    /// text.
    fn wide_repo() -> Arc<Repository> {
        use schemr_model::{DataType, SchemaBuilder};
        let repo = Arc::new(Repository::new());
        for name in ["one", "two", "three"] {
            let schema = SchemaBuilder::new(format!("registry {name}"))
                .entity("patient", |e| e.attr("patient", DataType::Text))
                .build_unchecked();
            repo.insert(format!("patient registry {name}"), String::new(), schema)
                .unwrap();
        }
        for i in 0..12 {
            let schema = SchemaBuilder::new(format!("archive {i}"))
                .entity(format!("zzyxqvvplorqbahhnnzw{i:02}"), |e| {
                    e.attr(format!("qqwwrrttyyuunnooppllkkjj{i:02}"), DataType::Text)
                })
                .build_unchecked();
            repo.insert(
                format!("archive {i}"),
                "patient data archive".to_string(),
                schema,
            )
            .unwrap();
        }
        repo
    }

    /// Eight distinct queries over `wide_repo`'s words.
    const RACING_QUERIES: [&[&str]; 8] = [
        &["patient", "archive"],
        &["patient"],
        &["archive", "data"],
        &["registry", "one"],
        &["patient", "registry", "two"],
        &["data", "three"],
        &["patient", "data"],
        &["archive", "registry"],
    ];

    /// Run every racing query on its own thread, all released at once.
    fn race(engine: &Arc<SchemrEngine>) {
        let start = Arc::new(std::sync::Barrier::new(RACING_QUERIES.len()));
        let searches: Vec<_> = RACING_QUERIES
            .iter()
            .map(|query| {
                let (engine, start) = (engine.clone(), start.clone());
                std::thread::spawn(move || {
                    start.wait();
                    engine.search(&SearchRequest::keywords(query.iter().copied()))
                })
            })
            .collect();
        for search in searches {
            search.join().expect("a search does not panic").unwrap();
        }
    }

    #[test]
    fn concurrent_searches_on_a_cold_engine_score_what_sequential_ones_do() {
        let repo = wide_repo();
        let fresh = || {
            let engine = Arc::new(SchemrEngine::new(repo.clone()));
            engine.reindex_full();
            engine
        };
        // Racing searches number a cold lexicon's words and fill the
        // artifact cache in whatever order they meet them; neither may
        // change a result.
        let compare = |raced: &SchemrEngine, sequential: &SchemrEngine, what: &str| {
            for limit in [1, 2, 5, 15] {
                let request = SearchRequest::keywords(["patient", "archive"]).with_limit(limit);
                let a = raced.search(&request).unwrap();
                let b = sequential.search(&request).unwrap();
                assert_eq!(a.len(), limit, "{what}, limit {limit}");
                assert_eq!(a.len(), b.len(), "{what}, limit {limit}");
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(x.id, y.id, "{what}, limit {limit}");
                    assert_eq!(
                        x.score.to_bits(),
                        y.score.to_bits(),
                        "{what}, limit {limit}"
                    );
                    assert_eq!(x.coarse_score.to_bits(), y.coarse_score.to_bits());
                    assert_eq!(x.matches, y.matches, "{what}, limit {limit}");
                }
            }
        };
        let warm_sequentially = |engine: &SchemrEngine| {
            for query in RACING_QUERIES {
                engine
                    .search(&SearchRequest::keywords(query.iter().copied()))
                    .unwrap();
            }
        };
        let (raced, sequential) = (fresh(), fresh());
        race(&raced);
        warm_sequentially(&sequential);
        compare(&raced, &sequential, "cold engine, eight racing searches");
        // A new matcher set makes every cached artifact stale; the words
        // already interned stay.
        raced.set_ensemble(Ensemble::standard());
        sequential.set_ensemble(Ensemble::standard());
        race(&raced);
        warm_sequentially(&sequential);
        compare(&raced, &sequential, "after a matcher-set swap");
    }

    #[test]
    fn a_replaced_phase2_state_never_touches_the_one_that_replaced_it() {
        let repo = wide_repo();
        // A few words' worth: far below the corpus vocabulary, so the
        // searches below outgrow it and replace the lexicon.
        let config = EngineConfig {
            match_artifact_cache_bytes: 4 * 1024,
            ..Default::default()
        };
        let engine = SchemrEngine::with_config(repo.clone(), config);
        engine.reindex_full();
        let held = engine.phase2_for_search();
        for query in RACING_QUERIES {
            engine
                .search(&SearchRequest::keywords(query.iter().copied()))
                .unwrap();
        }
        assert!(
            !Arc::ptr_eq(&held, &engine.phase2.read()),
            "the lexicon outgrew the budget and was replaced"
        );
        engine.set_ensemble(Ensemble::standard());
        // Three candidates whose words fit the budget: the new state
        // keeps their artifacts.
        engine
            .search(&SearchRequest::keywords(["registry"]))
            .unwrap();
        let report = engine.memory_report();
        assert_eq!(report.artifact_cache_entries, 3);

        // The held state's lookups, prepares and puts stay in the held
        // state, whatever they find there.
        let mut scratch = PrepareScratch::default();
        for stored in repo.snapshot() {
            for _ in 0..2 {
                let artifacts = engine.prepared_for(&held, &stored, &mut scratch);
                let (id, revision) = (stored.metadata.id, stored.metadata.revision);
                held.artifacts.put(id, revision, artifacts, 0);
            }
        }
        assert!(held.artifacts.len() > 0, "the held state was written");
        assert_eq!(engine.memory_report(), report);

        // And every search from here on ranks what a fresh engine does.
        let fresh = SchemrEngine::new(repo);
        fresh.reindex_full();
        for round in 0..2 {
            for query in RACING_QUERIES {
                let request = SearchRequest::keywords(query.iter().copied()).with_limit(15);
                let got = engine.search(&request).unwrap();
                let want = fresh.search(&request).unwrap();
                assert_eq!(got.len(), want.len(), "{query:?}, round {round}");
                for (x, y) in got.iter().zip(&want) {
                    assert_eq!(x.id, y.id, "{query:?}, round {round}");
                    assert_eq!(x.score.to_bits(), y.score.to_bits(), "{query:?}");
                    assert_eq!(x.matches, y.matches, "{query:?}, round {round}");
                }
            }
        }
    }

    /// A matcher that stops the one search it is part of in the middle of
    /// Phase 2, says so on `entered`, and goes on when `resume` speaks —
    /// or panics, failing that search, if it stays silent for 10 s.
    struct Pause {
        entered: Mutex<std::sync::mpsc::Sender<()>>,
        resume: Mutex<std::sync::mpsc::Receiver<()>>,
    }

    impl schemr_match::Matcher for Pause {
        fn name(&self) -> &'static str {
            "pause"
        }

        fn prepare_query(&self, _: &[QueryTerm], _: &QueryGraph) -> schemr_match::PreparedQuery {
            let _ = self.entered.lock().send(());
            let resumed = self.resume.lock().recv_timeout(Duration::from_secs(10));
            assert!(
                resumed.is_ok(),
                "set_ensemble did not return while a search was in Phase 2"
            );
            schemr_match::PreparedQuery::default()
        }

        fn score_into(
            &self,
            prepared_query: &schemr_match::PreparedQuery,
            terms: &[QueryTerm],
            query: &QueryGraph,
            prepared: &schemr_match::PreparedSchema,
            candidate: &schemr_model::Schema,
            scratch: &mut schemr_match::ScoreScratch<'_>,
            out: &mut schemr_match::SimilarityMatrix,
        ) {
            schemr_match::EditDistanceMatcher::new().score_into(
                prepared_query,
                terms,
                query,
                prepared,
                candidate,
                scratch,
                out,
            );
        }
    }

    #[test]
    fn set_ensemble_returns_while_a_search_is_in_phase_2() {
        let engine = Arc::new(SchemrEngine::new(clinic_repo()));
        engine.reindex_full();
        let (entered, in_phase2) = std::sync::mpsc::channel();
        let (resume, resumed) = std::sync::mpsc::channel();
        let mut paused = Ensemble::standard();
        let pause = Pause {
            entered: Mutex::new(entered),
            resume: Mutex::new(resumed),
        };
        paused.push(Box::new(pause), 0.5);
        engine.set_ensemble(paused);
        let search = {
            let engine = engine.clone();
            std::thread::spawn(move || {
                engine.search(&SearchRequest::keywords(["patient", "gender"]))
            })
        };
        in_phase2
            .recv_timeout(Duration::from_secs(10))
            .expect("the search reaches Phase 2");
        let swap = {
            let engine = engine.clone();
            std::thread::spawn(move || {
                engine.set_ensemble(Ensemble::standard());
                let _ = resume.send(());
            })
        };
        swap.join().unwrap();
        let results = search
            .join()
            .expect("the paused search was let go")
            .unwrap();
        assert_eq!(results[0].title, "clinic");
        // Searches from here on run the standard set again.
        let names: Vec<String> = engine
            .search_detailed(&SearchRequest::keywords(["gender"]).with_explain())
            .unwrap()
            .trace
            .unwrap()
            .matchers
            .into_iter()
            .map(|m| m.name)
            .collect();
        assert_eq!(names, ["name", "context"]);
    }

    #[test]
    fn every_reader_sees_one_phase_split() {
        let dir = std::env::temp_dir().join(format!("schemr-engine-split-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = EngineConfig::default();
        config.trace.event_log_path = Some(dir.join("events.jsonl"));
        let engine = SchemrEngine::with_config(wide_repo(), config);
        engine.reindex_full();
        let us = |d: Duration| d.as_micros() as u64;
        // Cold, then warm: both caches miss, then both hit.
        for id in ["split-cold", "split-warm"] {
            let request = SearchRequest::keywords(["patient", "archive"]).with_trace_id(id);
            let t = engine.search_detailed(&request).unwrap().timings;
            let split = [us(t.candidate_extraction), us(t.matching), us(t.scoring)];
            let root = rendered_root(&engine, id);
            let phases: Vec<(&str, u64)> = children(&root);
            let named: Vec<(&str, u64)> = PHASES.into_iter().zip(split).collect();
            assert_eq!(phases, named, "{id}: spans vs timings");
            let events = engine.tracer().event_log().unwrap().read_events().unwrap();
            let event = events.iter().find(|e| e.trace_id == id).unwrap();
            assert_eq!(event.phase_us, split, "{id}: event log vs timings");
            let root_us = root.get("dur_us").and_then(Json::as_u64);
            assert_eq!(
                (root_us, event.total_us),
                (Some(us(t.total())), us(t.total()))
            );
            let matching = child(&root, "matching");
            let matchers: u64 = children(matching).iter().map(|(_, us)| us).sum();
            let matching_us = matching.get("dur_us").and_then(Json::as_u64).unwrap();
            assert!(matchers <= matching_us, "{id}: {matchers} µs");
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn abbreviated_queries_still_find_the_clinic() {
        // The paper's name-matcher motivation, end to end: query uses
        // abbreviations, index has full words.
        let engine = SchemrEngine::new(clinic_repo());
        engine.reindex_full();
        let results = engine
            .search(&SearchRequest::keywords(["pat", "ht"]))
            .unwrap();
        assert!(!results.is_empty());
        assert_eq!(results[0].title, "clinic");
    }
}
