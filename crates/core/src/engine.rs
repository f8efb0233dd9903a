//! The search engine: repository + index + matcher ensemble + scorer.
//!
//! `SchemrEngine` wires the paper's architecture (Figure 5) together: the
//! schema repository feeds an offline text indexer; queries flow through
//! candidate extraction, the match engine, and tightness-of-fit scoring;
//! ranked results carry the metadata and per-element detail the GUI
//! renders.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};
use schemr_index::{
    codec, Index, IndexChange, IndexDocument, IndexRevision, IndexStats, SearchOptions,
};
use schemr_match::{Ensemble, EnsembleQuery, MatchScratch, PreparedCandidate};
use schemr_model::{QueryGraph, QueryTerm, SchemaId};
use schemr_obs::{
    CpuProbeDepth, DeepSize, EventResult, Histogram, LedgerProbe, MetricsRegistry, ResourceLedger,
    SearchEvent, SearchOutcome, SpanGuard, SpanTimer, Tracer, TracerConfig,
};
use schemr_repo::{ChangeKind, Repository, StoredSchema};
use schemr_text::Lexicon;

use crate::cache::{ArtifactStamp, CacheKey, CandidateCache, MatchArtifactCache};
use crate::metrics::EngineMetrics;
use crate::request::SearchRequest;
use crate::result::{MatcherTiming, PhaseTimings, SearchResponse, SearchResult, SearchTrace};
use crate::tightness::{tightness_of_fit_in, MatchedElement, TightnessConfig, TightnessScratch};

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
    /// Default result-list length when the request doesn't set one.
    pub default_limit: usize,
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
    /// it reaches the budget the lexicon is retired — emptied, every
    /// cached artifact with it. That costs re-interning, never a result:
    /// DESIGN.md, "Match-artifact cache and the lexicon's bound", has the
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
            default_limit: 10,
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
    ensemble: RwLock<Matchers>,
    config: EngineConfig,
    last_indexed_revision: Mutex<u64>,
    candidate_cache: CandidateCache,
    artifact_cache: MatchArtifactCache,
    /// The word lexicon cached artifacts point into, with its generation.
    /// Append-only while it lives; retired — replaced by an empty one
    /// under the next generation, which makes every cached artifact stale
    /// — once it alone outgrows the artifact budget.
    lexicon: RwLock<(Arc<Lexicon>, u64)>,
    /// Generation of the current matcher set; part of every artifact
    /// stamp so [`SchemrEngine::set_ensemble`] invalidates cached
    /// artifacts lazily.
    ensemble_generation: AtomicU64,
    metrics: EngineMetrics,
    tracer: Tracer,
    /// How deeply traced searches read the thread-CPU clock, from the
    /// clock-call cost measured once, at construction — not per query.
    cpu_depth: CpuProbeDepth,
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
        let artifact_cache = MatchArtifactCache::new(
            config.match_artifact_cache_bytes,
            metrics.match_artifact_cache_hits.clone(),
            metrics.match_artifact_cache_misses.clone(),
            metrics.match_artifact_cache_evictions.clone(),
            metrics.match_artifact_cache_invalidations.clone(),
            metrics.match_artifact_cache_bytes_inserted.clone(),
            metrics.match_artifact_cache_bytes_evicted.clone(),
        );
        SchemrEngine {
            repo,
            index: RwLock::new(Index::new().with_metrics(metrics.index.clone())),
            ensemble: RwLock::new(Matchers::new(Ensemble::standard())),
            config,
            last_indexed_revision: Mutex::new(0),
            candidate_cache,
            artifact_cache,
            lexicon: RwLock::new((Arc::new(Lexicon::new()), 0)),
            ensemble_generation: AtomicU64::new(0),
            metrics,
            tracer,
            cpu_depth: CpuProbeDepth::measured(),
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
    /// ablation variant).
    pub fn set_ensemble(&self, ensemble: Ensemble) {
        *self.ensemble.write() = Matchers::new(ensemble);
        // Cached match artifacts are matcher-set-specific: a new
        // generation makes every existing entry stale, so a bundle
        // prepared for the old set can never be zipped against the new
        // one. Weight changes (`set_ensemble_weights`) don't bump it —
        // artifacts are weight-independent.
        self.ensemble_generation.fetch_add(1, Ordering::AcqRel);
    }

    /// Replace the ensemble weights in place.
    pub fn set_ensemble_weights(&self, weights: &[f64]) {
        self.ensemble.write().ensemble.set_weights(weights);
    }

    /// Rebuild the document index from scratch — the offline indexer's
    /// full pass.
    pub fn reindex_full(&self) {
        let _span = SpanTimer::start(self.metrics.reindex_seconds.clone());
        let revision = self.repo.revision();
        let fresh = Index::new().with_metrics(self.metrics.index.clone());
        // Nobody sees `fresh` until it is swapped in, and the result does
        // not depend on the batches or on how many threads analyze them.
        fresh.bulk_load(&self.repo.snapshot(), Index::bulk_analysers(), |s| {
            index_document(s)
        });
        *self.index.write() = fresh;
        *self.last_indexed_revision.lock() = revision;
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
            (index.deep_size_of(), index.introspect(0).postings_bytes)
        };
        let candidate = self.candidate_cache.usage();
        let artifact = self.artifact_cache.usage();
        let (lexicon_words, lexicon_bytes) = {
            let slot = self.lexicon.read();
            (slot.0.len(), slot.0.heap_bytes())
        };
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
        self.extract_candidates_traced(&graph.terms(), None)
    }

    /// Phase 1 over the query's flattened terms, with tracing.
    fn extract_candidates_traced(
        &self,
        terms: &[QueryTerm],
        span: Option<&SpanGuard<'_>>,
    ) -> Vec<schemr_index::Hit> {
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
            if let Some(s) = span {
                s.annotate("candidate_cache", "hit");
                s.annotate("hits", hits.len());
            }
            return hits;
        }
        // The versioned search reads the revision and the postings under
        // one lock hold, so the entry is stamped with exactly the state
        // that produced it — the invariant the cache's correctness rests
        // on.
        let (hits, revision) = index.search_terms_versioned(&key.0, &options, span);
        if let Some(s) = span {
            s.annotate("candidate_cache", "miss");
        }
        self.candidate_cache.put(key, revision, hits.clone());
        hits
    }

    /// The lexicon a search prepares and reads its candidates' artifacts
    /// in, with its generation. With a zero budget nothing is retained,
    /// the lexicon included: each search gets one of its own.
    fn lexicon_for_search(&self) -> (Arc<Lexicon>, u64) {
        if self.artifact_cache.enabled() {
            self.lexicon.read().clone()
        } else {
            (Arc::new(Lexicon::new()), 0)
        }
    }

    /// Resolve the prepared match artifacts for `stored` through the
    /// revision-keyed artifact cache, building and admitting them on a
    /// miss. Returns the artifacts and whether the lookup was a hit. A
    /// disabled cache (zero budget) never hits, admits nothing and counts
    /// nothing, so the artifacts are simply built here every time.
    /// Concurrent searches may race on a cold entry; both build the same
    /// deterministic bundle and the second put replaces the first, so the
    /// race costs work but never correctness.
    ///
    /// A miss is the only place the lexicon grows, so its size is checked
    /// here: artifacts are admitted into what the lexicon leaves of the
    /// budget, and a lexicon that alone exceeds the budget is retired.
    /// This search keeps scoring in the lexicon it started with.
    fn prepared_for(
        &self,
        p2: &Phase2<'_>,
        stored: &StoredSchema,
    ) -> (Arc<PreparedCandidate>, bool) {
        let stamp = ArtifactStamp {
            schema_revision: stored.metadata.revision,
            ensemble_generation: p2.ensemble_generation,
            lexicon_generation: p2.lexicon_generation,
        };
        if let Some(artifacts) = self.artifact_cache.get(stored.metadata.id, stamp) {
            return (artifacts, true);
        }
        let artifacts = Arc::new(p2.ensemble.prepare(&stored.schema, p2.lexicon));
        if self.artifact_cache.enabled() {
            let lexicon_bytes = p2.lexicon.heap_bytes();
            if lexicon_bytes > self.config.match_artifact_cache_bytes {
                self.retire_lexicon(p2.lexicon_generation);
            } else {
                self.artifact_cache.put(
                    stored.metadata.id,
                    stamp,
                    artifacts.clone(),
                    lexicon_bytes,
                );
            }
        }
        (artifacts, false)
    }

    /// Replace the lexicon of `generation` with an empty one and drop the
    /// artifacts that point into it. A no-op when another thread already
    /// did. Searches in flight hold the old lexicon until they finish.
    fn retire_lexicon(&self, generation: u64) {
        let mut slot = self.lexicon.write();
        if slot.1 == generation {
            *slot = (Arc::new(Lexicon::new()), generation + 1);
            self.artifact_cache.retire_lexicon(generation + 1);
        }
    }

    /// Phase 2 over every candidate, on the request's thread: resolve
    /// each candidate's artifacts, run the ensemble, and score
    /// tightness-of-fit on the combined matrix it produced. One scratch
    /// serves the whole loop: what one candidate's scoring worked out
    /// about a word pair, the next candidate's reads, and the matrices
    /// and tightness tables one candidate filled, the next refills. What
    /// a candidate leaves behind goes to flat arenas, so the loop
    /// allocates per search, not per candidate.
    fn match_candidates(
        &self,
        p2: &Phase2<'_>,
        cands: &[(schemr_index::Hit, Arc<StoredSchema>)],
    ) -> Matched {
        let matchers = p2.ensemble.len();
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
            artifact_hits: 0,
            artifact_misses: 0,
        };
        let mut scratch = MatchScratch::new(p2.equery, p2.lexicon);
        let mut tightness = TightnessScratch::default();
        for (_, stored) in cands {
            let (artifacts, was_hit) = self.prepared_for(p2, stored);
            if was_hit {
                done.artifact_hits += 1;
            } else {
                done.artifact_misses += 1;
            }
            let combined = p2.ensemble.run_into(
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
        if threshold <= 0.0 {
            return false;
        }
        let index = self.index.read();
        let (live, total) = index.doc_counts();
        let before_ratio = (total - live) as f64 / total.max(1) as f64;
        let started = Instant::now();
        // Runs on every scheduler tick: `merge` looks at the writer's
        // per-segment counts and returns at once when neither rule holds.
        let Some(outcome) = index.merge(threshold) else {
            // Nothing to do, or a concurrent merge beat this one to the
            // segments; nothing was lost and nothing needs recording.
            return false;
        };
        let took = started.elapsed();
        // Leave a maintenance record in the event log so offline analysis
        // of a latency window can see the merge that ran inside it. The
        // `<merge>` query marker keeps the record parseable by every
        // reader of ordinary search lines.
        if let Some(log) = self.tracer.event_log() {
            let (live, total) = index.doc_counts();
            let after_ratio = if total == 0 {
                0.0
            } else {
                (total - live) as f64 / total as f64
            };
            let event = SearchEvent {
                trace_id: format!("merge-r{}", index.revision().mutations),
                unix_ms: std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map_or(0, |d| d.as_millis() as u64),
                query: "<merge>".to_string(),
                candidates_from_index: 0,
                candidates_evaluated: 0,
                phase_us: vec![("merge".to_string(), took.as_micros() as u64)],
                total_us: took.as_micros() as u64,
                results: Vec::new(),
                cpu_us: 0,
                alloc_count: 0,
                alloc_bytes: 0,
                tags: vec![
                    (
                        "tombstone_ratio_before".to_string(),
                        format!("{before_ratio:.4}"),
                    ),
                    (
                        "tombstone_ratio_after".to_string(),
                        format!("{after_ratio:.4}"),
                    ),
                    (
                        "docs_reclaimed".to_string(),
                        outcome.docs_reclaimed.to_string(),
                    ),
                    (
                        "segments_before".to_string(),
                        outcome.segments_before.to_string(),
                    ),
                    (
                        "segments_after".to_string(),
                        outcome.segments_after.to_string(),
                    ),
                ],
            };
            let _ = log.append(&event);
        }
        true
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
        // Request tracing: when enabled, one root span per search with
        // one child per phase. The disabled path costs a single branch.
        let ctx = self.tracer.begin(request.trace_id.as_deref());
        let want_trace = ctx.is_some();
        // Resource accounting rides the same gate as tracing: the
        // disabled path takes no clock_gettime calls at all. How many
        // clock reads the *traced* path takes is governed by the
        // measured probe depth — on kernels where the thread-CPU clock
        // is a trapped syscall (tens of µs a read), only the root probe
        // reads it and phase probes collect allocations alone.
        let deep_cpu = want_trace && self.cpu_depth == CpuProbeDepth::Full;
        let probe = want_trace.then(LedgerProbe::start);
        let query_text = if want_trace {
            joined_terms(&terms)
        } else {
            String::new()
        };
        let root = ctx.as_ref().map(|c| c.root_span("search"));
        if let Some(r) = &root {
            r.annotate("query", &query_text);
            if let Some(wait) = request.queue_wait {
                r.annotate("queue_wait_us", wait.as_micros());
            }
        }

        // Phase 1: candidate extraction.
        let t0 = Instant::now();
        let p1 = root.as_ref().map(|r| r.child("candidate_extraction"));
        let p1_probe = want_trace.then(|| LedgerProbe::start_with_cpu(deep_cpu));
        let hits = self.extract_candidates_traced(&terms, p1.as_ref());
        if let (Some(s), Some(pr)) = (&p1, &p1_probe) {
            annotate_ledger(s, &pr.delta());
        }
        drop(p1);
        let candidate_extraction = t0.elapsed();
        let candidates_from_index = hits.len();

        // Phase 2: matcher ensemble over the candidates.
        let t1 = Instant::now();
        let p2 = root.as_ref().map(|r| r.child("matching"));
        let p2_probe = want_trace.then(|| LedgerProbe::start_with_cpu(deep_cpu));
        let matchers = self.ensemble.read();
        let ensemble = &matchers.ensemble;
        let matcher_names = ensemble.matcher_names();
        let candidates: Vec<(schemr_index::Hit, Arc<StoredSchema>)> = hits
            .into_iter()
            .filter_map(|h| self.repo.get(h.id).map(|s| (h, s)))
            .collect();
        if let Some(s) = &p2 {
            s.annotate("candidates", candidates.len());
        }
        // Query-side artifacts are built once per search; candidate-side
        // artifacts resolve through the revision-keyed cache, in the
        // lexicon this search holds from here to its end.
        let equery = ensemble.prepare_query(&terms, &graph);
        let (lexicon, lexicon_generation) = self.lexicon_for_search();
        let phase2 = Phase2 {
            ensemble,
            ensemble_generation: self.ensemble_generation.load(Ordering::Acquire),
            lexicon: &lexicon,
            lexicon_generation,
            equery: &equery,
            terms: &terms,
            graph: &graph,
            with_strengths: want_trace,
        };
        let done = self.match_candidates(&phase2, &candidates);
        if let (Some(s), true) = (&p2, self.artifact_cache.enabled()) {
            // "hit" only when every candidate's artifacts came from the
            // cache.
            let outcome = if done.artifact_misses == 0 {
                "hit"
            } else {
                "miss"
            };
            s.annotate("artifact_cache", outcome);
            s.annotate("artifact_hits", done.artifact_hits);
            s.annotate("artifact_misses", done.artifact_misses);
        }
        // Materialize each matcher's accumulated wall as a closed child
        // of the matching span.
        if let Some(s) = &p2 {
            for (name, wall) in matcher_names.iter().zip(&done.matcher_wall) {
                s.add_closed_child(&format!("matcher:{name}"), *wall);
            }
        }
        if let (Some(s), Some(pr)) = (&p2, &p2_probe) {
            annotate_ledger(s, &pr.delta());
        }
        drop(p2);
        // The loop's wall minus its hosted tightness time.
        let matching = t1.elapsed().saturating_sub(done.tightness_wall);

        // Phase 3: final ranking. Tightness-of-fit itself ran inside
        // `match_candidates`; its wall was accumulated there and is added
        // back to this phase, which otherwise assembles, sorts, and
        // truncates.
        let t2 = Instant::now();
        let p3 = root.as_ref().map(|r| r.child("tightness_scoring"));
        let p3_probe = want_trace.then(|| LedgerProbe::start_with_cpu(deep_cpu));
        let candidates_evaluated = candidates.len();
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
        ranked.truncate(request.limit.unwrap_or(self.config.default_limit));
        // Each surviving row's candidate position, for the event log's
        // per-matcher strengths.
        let mut origins: Vec<usize> = Vec::new();
        if want_trace {
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
        if let Some(s) = &p3 {
            s.annotate("results", results.len());
            if let Some(pr) = &p3_probe {
                annotate_ledger(s, &pr.delta());
            }
        }
        drop(p3);
        let scoring = t2.elapsed() + done.tightness_wall;

        // Zero-result accounting: the counter feeds the zero-result rate
        // on `/metrics`; the root-span annotation makes empty searches
        // findable in `/debug/traces` without opening each span tree.
        if results.is_empty() {
            self.metrics.search_empty_total.inc();
            if let Some(r) = &root {
                r.annotate("results", 0usize);
            }
        }

        // Record the phase work into the registry on every search (not just
        // when the caller keeps the timings).
        let m = &self.metrics;
        m.candidates_evaluated_total
            .add(candidates_evaluated as u64);
        // Offer each observation as its bucket's exemplar: a p99 spike on
        // `/metrics` then links straight to `/debug/traces/{id}`. With
        // tracing off the id is empty and the histogram records plainly.
        let tid = ctx.as_ref().map_or("", |c| c.trace_id());
        m.phase_candidate_extraction
            .observe_duration_exemplar(candidate_extraction, tid);
        m.phase_matching.observe_duration_exemplar(matching, tid);
        m.phase_scoring.observe_duration_exemplar(scoring, tid);
        for (seconds, wall) in matchers.seconds(m).iter().zip(&done.matcher_wall) {
            seconds.observe_duration(*wall);
        }

        let trace = request.explain.then(|| SearchTrace {
            candidates_from_index,
            candidates_evaluated,
            matchers: matcher_names
                .iter()
                .zip(&done.matcher_wall)
                .map(|(name, wall)| MatcherTiming {
                    name: name.to_string(),
                    wall: *wall,
                })
                .collect(),
        });

        // The full cost of this search, stamped on the root span so
        // traces, the event log, and the `X-Schemr-Cost` header all agree.
        let ledger = probe.map_or_else(ResourceLedger::default, |p| p.delta());
        if let Some(r) = &root {
            annotate_ledger(r, &ledger);
        }

        // Close the trace: publish to the ring/slowlog/event log and
        // echo the id so callers can fetch the span tree.
        drop(root);
        let trace_id = ctx.map(|ctx| {
            let event_results = results
                .iter()
                .zip(&origins)
                .map(|(r, &at)| EventResult {
                    id: r.id.to_string(),
                    score: r.score,
                    matcher_scores: matcher_names
                        .iter()
                        .zip(done.strengths(at))
                        .map(|(name, s)| (name.to_string(), *s))
                        .collect(),
                })
                .collect();
            let completed = self.tracer.finish(
                ctx,
                SearchOutcome {
                    query: query_text,
                    candidates_from_index,
                    candidates_evaluated,
                    results: event_results,
                    ledger,
                },
            );
            completed.trace_id.clone()
        });

        Ok(SearchResponse {
            results,
            timings: PhaseTimings {
                candidate_extraction,
                matching,
                scoring,
            },
            candidates_evaluated,
            trace,
            trace_id,
            ledger: want_trace.then_some(ledger),
        })
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

/// What Phase 2 of one search reads: the matcher set and the query's
/// artifacts, and the lexicon candidate artifacts live in. The two
/// generations stamp artifact-cache entries.
struct Phase2<'a> {
    ensemble: &'a Ensemble,
    ensemble_generation: u64,
    lexicon: &'a Lexicon,
    lexicon_generation: u64,
    equery: &'a EnsembleQuery,
    terms: &'a [QueryTerm],
    graph: &'a QueryGraph,
    /// Collect per-matcher strengths: the search is traced.
    with_strengths: bool,
}

/// The matcher set searches run, with each matcher's
/// `schemr_matcher_seconds` series. [`SchemrEngine::set_ensemble`]
/// installs a new one, so the series are resolved once per ensemble
/// generation — by its first search, which is when a series first
/// appears on `/metrics` — and every later search only reads them.
struct Matchers {
    ensemble: Ensemble,
    seconds: OnceLock<Vec<Arc<Histogram>>>,
}

impl Matchers {
    fn new(ensemble: Ensemble) -> Self {
        Matchers {
            ensemble,
            seconds: OnceLock::new(),
        }
    }

    /// Per matcher, in registration order, its wall-time histogram.
    fn seconds(&self, metrics: &EngineMetrics) -> &[Arc<Histogram>] {
        self.seconds.get_or_init(|| {
            self.ensemble
                .matcher_names()
                .into_iter()
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
    artifact_hits: u64,
    artifact_misses: u64,
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

/// Stamp a thread's resource delta onto a span as annotations. Zero
/// fields are skipped rather than printed: `cpu_us` is 0 whenever the
/// probe depth withheld the clock from this span, and the allocation
/// counters are 0 unless a counting allocator is installed
/// (`schemr_obs::CountingAlloc`) — either way an explicit 0 would read
/// as a measurement when it is really an absence.
fn annotate_ledger(span: &SpanGuard<'_>, ledger: &ResourceLedger) {
    if ledger.cpu_us > 0 {
        span.annotate("cpu_us", ledger.cpu_us);
    }
    if ledger.alloc_count > 0 || ledger.alloc_bytes > 0 {
        span.annotate("alloc_count", ledger.alloc_count);
        span.annotate("alloc_bytes", ledger.alloc_bytes);
    }
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
        assert_eq!(trace.query, "patient gender");
        assert!(trace.candidates_from_index >= trace.candidates_evaluated);
        let phases = trace.phase_names();
        assert_eq!(
            phases,
            vec!["candidate_extraction", "matching", "tightness_scoring"]
        );
        // Matcher walls materialized as children of the matching span.
        let matching_idx = trace
            .spans
            .iter()
            .position(|s| s.name == "matching")
            .unwrap();
        let matcher_children: Vec<&str> = trace
            .spans
            .iter()
            .filter(|s| s.parent == Some(matching_idx) && s.name.starts_with("matcher:"))
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(matcher_children, vec!["matcher:name", "matcher:context"]);
        // Phase 1 annotated with index probe stats.
        let p1 = &trace.spans[trace
            .spans
            .iter()
            .position(|s| s.name == "candidate_extraction")
            .unwrap()];
        assert!(p1.attrs.iter().any(|(k, _)| k == "postings_scanned"));
        // Results carry per-matcher strengths for the event log.
        assert!(!trace.results.is_empty());
        assert_eq!(
            trace.results[0]
                .matcher_scores
                .iter()
                .map(|(n, _)| n.as_str())
                .collect::<Vec<_>>(),
            vec!["name", "context"]
        );
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
        assert_eq!(
            events[0]
                .phase_us
                .iter()
                .map(|(n, _)| n.as_str())
                .collect::<Vec<_>>(),
            vec!["candidate_extraction", "matching", "tightness_scoring"]
        );
        assert!(!events[0].results.is_empty());
        assert!(events[0].results[0].matcher_scores.len() == 2);
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
        // A generation bump makes every cached bundle stale.
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
    fn matching_spans_report_the_artifact_cache_outcome() {
        let engine = SchemrEngine::new(clinic_repo());
        engine.reindex_full();
        engine
            .search_detailed(&SearchRequest::keywords(["gender"]).with_trace_id("art-cold"))
            .unwrap();
        let cold = engine.tracer().get("art-cold").unwrap();
        let batch = cold
            .spans
            .iter()
            .find(|s| s.attrs.iter().any(|(k, _)| k == "artifact_cache"))
            .expect("a batch span carries the artifact_cache annotation");
        assert!(batch
            .attrs
            .iter()
            .any(|(k, v)| k == "artifact_cache" && v == "miss"));
        engine
            .search_detailed(&SearchRequest::keywords(["gender"]).with_trace_id("art-warm"))
            .unwrap();
        let warm = engine.tracer().get("art-warm").unwrap();
        let batch = warm
            .spans
            .iter()
            .find(|s| s.attrs.iter().any(|(k, _)| k == "artifact_cache"))
            .unwrap();
        assert!(batch
            .attrs
            .iter()
            .any(|(k, v)| k == "artifact_cache" && v == "hit"));
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
        compare(&raced, &sequential, "after a generation bump");
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
