//! The thread-safe inverted index: sealed immutable segments + a small
//! mutable head, searched entirely over an atomically published snapshot.
//!
//! ## Write path
//!
//! A single writer state (head segment, sealed segments, overlay
//! tombstones) lives behind a `Mutex`, and every logical mutation reaches
//! it through one function: [`Index::apply`] takes a batch of
//! [`IndexChange`]s, analyzes the documents off-lock (in a write
//! [`Session`], which is where the analysis lives), applies the changes
//! in order under one lock hold, and then *publishes* once: builds a
//! fresh immutable [`IndexSnapshot`] (sealed `Arc`s are reused; the head
//! builder is frozen into a flat segment, bounded by the seal threshold)
//! and swaps it into place. A batch in which nothing took effect publishes
//! nothing. When the head reaches the seal threshold its frozen form
//! joins the sealed segments and a fresh builder starts.
//!
//! A fresh index filled in bulk goes through [`Index::bulk_load`]: the
//! same commits in the same order, a sealed segment each, while later
//! batches are analyzed on other threads.
//!
//! ## Read path
//!
//! Searches clone the published `Arc` once and never touch a lock again:
//! a background merge and a churning writer can both run concurrently
//! without blocking a single query. Queries in flight keep their old
//! snapshot alive through the `Arc`.
//!
//! ## Merge
//!
//! [`Index::merge`] is the only compactor: it captures the tombstoned
//! segments under the writer lock, compacts them **off-lock**, then
//! re-acquires the lock only to re-apply tombstones that raced the
//! compaction and swap the segment list. Merges do not bump the epoch —
//! they are bitwise invisible to search — so revision-keyed caches stay
//! warm across them.

use std::cmp::Reverse;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};

use parking_lot::{Mutex, RwLock};
use schemr_model::SchemaId;
use schemr_obs::DeepSize;
use schemr_text::{AnalyzeScratch, Analyzer};

use crate::document::IndexDocument;
use crate::field::Field;
use crate::head::HeadBuilder;
use crate::metrics::IndexMetrics;
use crate::postings::BlockBuf;
use crate::search::{idf_weight, impact, search_postings, Hit, SearchOptions};
use crate::segment::{compact, late_tombstones, FlatSegment, SealedSegment, Segment};
use crate::session::{Analyzed, AnalyzedDoc, Batch, Interner, RowTable, Session};
use crate::snapshot::IndexSnapshot;

/// Documents the mutable head accumulates before it is sealed into an
/// immutable segment. Bounds the head-freeze cost of a publish; small
/// enough that per-batch publishing stays cheap, large enough that a
/// typical corpus spans only a handful of segments.
const DEFAULT_SEAL_THRESHOLD: usize = 1024;

/// Most threads a bulk load analyzes on. Measured on 30,000 schemas
/// (2 vCPUs, ten builds), a build's analysis is 0.25–0.37 s summed over
/// its two analysers and its locked half 0.09–0.13 s (head pushes
/// 0.05–0.07, seal freezes 0.04–0.06): each analyser's half already
/// takes longer than the one thread that commits, and a third analyser
/// would only share the same two cores.
const BULK_ANALYSERS: usize = 2;

/// Sealed-segment count past which a maintenance merge compacts even
/// without tombstone pressure, bounding per-query segment fan-out: every
/// segment costs a query a term-table search per (term, field) and a pass
/// of its own. Measured on 30,000 schemas (400 queries in the paper's mix,
/// seeds 1–2): Phase 1 is ≈1.06 ms over the 30 segments a bulk build
/// leaves, 0.73–0.83 ms over 8 and 0.62–0.63 ms over 1, and compacting
/// the 30 takes 50–80 ms off-lock (medians 66–69 ms over seven builds).
const MAX_SEGMENTS: usize = 8;

/// Identifies one exact state of one index instance: which in-memory index
/// (`instance` is unique per [`Index`] constructed in this process) at
/// which mutation count. Equal revisions imply identical search results,
/// which is what makes this the key of the engine's candidate cache.
/// Background merges change the physical layout without changing results,
/// so they deliberately do **not** move the revision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IndexRevision {
    /// Process-unique id of the index instance.
    pub instance: u64,
    /// Logical mutations (adds and tombstones) applied so far.
    pub mutations: u64,
}

/// Source of process-unique index instance ids.
static NEXT_INSTANCE: AtomicU64 = AtomicU64::new(1);

/// One logical change to the index — the unit [`Index::apply`] takes a
/// batch of.
#[derive(Debug, Clone, Copy)]
pub enum IndexChange<'a> {
    /// Add the document, replacing any live copy of the same id.
    Put(IndexDocument<'a>),
    /// Tombstone the live copy of the id. Deleting an id that is not
    /// live is not a mutation.
    Delete(SchemaId),
}

/// What a background merge accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeOutcome {
    /// Tombstoned document slots reclaimed.
    pub docs_reclaimed: usize,
    /// Segments (sealed + head) before the merge.
    pub segments_before: usize,
    /// Segments (sealed + head) after the merge.
    pub segments_after: usize,
}

/// The writer's private state: the mutable head plus the sealed segments
/// with their master overlays. Guarded by the `Index`'s writer mutex;
/// readers never touch it.
struct Writer {
    head: HeadBuilder,
    sealed: Vec<SealedSegment>,
    epoch: u64,
}

impl Writer {
    /// Tombstone the live copy of `id`, wherever it lives. At most one
    /// live copy exists (replacement tombstones the old version at add
    /// time), so dead copies in other segments are simply skipped.
    fn tombstone_existing(&mut self, id: SchemaId) -> bool {
        if let Some(killed) = self.head.tombstone(id) {
            return killed;
        }
        for seg in self.sealed.iter_mut() {
            if let Some(ord) = seg.data.ord_of(id) {
                if !seg.is_dead(ord) {
                    seg.tombstone(ord);
                    return true;
                }
            }
        }
        false
    }

    /// Append an analyzed document to the head (replacing any live copy
    /// of the same id) and count the mutation.
    fn put(&mut self, doc: &AnalyzedDoc<'_>, terms: &Interner, rows: &mut RowTable) {
        self.tombstone_existing(doc.id);
        self.head.push(doc, terms, rows);
        self.epoch += 1;
    }

    /// Freeze the head into a sealed segment and start a fresh one.
    /// Head tombstones ride along as the segment's overlay.
    fn seal(&mut self) {
        self.sealed.push(std::mem::take(&mut self.head).freeze());
    }

    fn total_docs(&self) -> usize {
        self.sealed.iter().map(|s| s.total_count()).sum::<usize>() + self.head.doc_count()
    }

    fn live_docs(&self) -> usize {
        self.sealed.iter().map(|s| s.live_count()).sum::<usize>() + self.head.live_docs()
    }
}

/// A thread-safe inverted index over flattened schema documents.
///
/// Writers serialize on an internal mutex; searches run lock-free over the
/// published snapshot. Re-adding a document with an id already present
/// replaces it (tombstone + append), which is how the scheduled re-indexer
/// applies repository changes.
pub struct Index {
    published: RwLock<Arc<IndexSnapshot>>,
    writer: Mutex<Writer>,
    instance: u64,
    seal_threshold: usize,
    names: Analyzer,
    prose: Analyzer,
    metrics: IndexMetrics,
}

impl Default for Index {
    fn default() -> Self {
        Self::new()
    }
}

impl Index {
    /// An empty index with the standard analyzers.
    pub fn new() -> Self {
        Self::with_analyzers(Analyzer::for_names(), Analyzer::for_documents())
    }

    /// An empty index with custom analyzers (ablation experiments use
    /// [`Analyzer::plain`] here).
    pub fn with_analyzers(names: Analyzer, prose: Analyzer) -> Self {
        Index {
            published: RwLock::new(Arc::new(IndexSnapshot::default())),
            writer: Mutex::new(Writer {
                head: HeadBuilder::default(),
                sealed: Vec::new(),
                epoch: 0,
            }),
            instance: NEXT_INSTANCE.fetch_add(1, Ordering::Relaxed),
            seal_threshold: DEFAULT_SEAL_THRESHOLD,
            names,
            prose,
            metrics: IndexMetrics::default(),
        }
    }

    /// Override the head seal threshold (builder-style). `usize::MAX`
    /// keeps everything in one segment forever — the monolithic mode the
    /// segmented-vs-monolithic oracles compare against; small values
    /// force multi-segment layouts in tests.
    pub fn with_seal_threshold(mut self, threshold: usize) -> Self {
        self.seal_threshold = threshold.max(1);
        self
    }

    /// The current published snapshot — one `Arc` clone, no lock held
    /// afterwards.
    pub(crate) fn snapshot(&self) -> Arc<IndexSnapshot> {
        self.published.read().clone()
    }

    /// The head seal threshold — the batch size a bulk load cuts its
    /// documents into, each batch one sealed segment.
    pub fn seal_threshold(&self) -> usize {
        self.seal_threshold
    }

    /// Build an index over pre-built sealed segments, overlays included
    /// (the codec load path).
    pub(crate) fn from_sealed(sealed: Vec<SealedSegment>) -> Self {
        let index = Index::new();
        {
            let mut w = index.writer.lock();
            w.sealed = sealed;
            index.publish(&mut w);
        }
        index
    }

    /// The index's current revision: `(instance, mutation count)`. Two
    /// equal revisions guarantee identical search results, so callers can
    /// key caches on it; any add or tombstone changes it, and a freshly
    /// built or loaded index gets a new `instance`.
    /// Background merges keep it — their results are bitwise identical.
    pub fn revision(&self) -> IndexRevision {
        IndexRevision {
            instance: self.instance,
            mutations: self.published.read().epoch,
        }
    }

    /// Attach shared observability counters (builder-style). The engine
    /// threads one registered [`IndexMetrics`] into every index it
    /// builds so the exported series stay monotone across re-indexes.
    pub fn with_metrics(mut self, metrics: IndexMetrics) -> Self {
        self.metrics = metrics;
        self
    }

    /// Replace the counters on an existing index (used after
    /// [`crate::codec::load_from`] reconstructs one from disk).
    pub fn set_metrics(&mut self, metrics: IndexMetrics) {
        self.metrics = metrics;
    }

    /// The index's observability counters.
    pub fn metrics(&self) -> &IndexMetrics {
        &self.metrics
    }

    /// Number of segments in the published snapshot (sealed + head).
    pub fn segment_count(&self) -> usize {
        self.published.read().segments.len()
    }

    /// Build and swap in a fresh snapshot from the writer's state. Sealed
    /// segments are republished as `Arc` clones (overlays cached while
    /// unchanged); the head is frozen into a flat segment of its own, its
    /// cost bounded by the seal threshold.
    fn publish(&self, w: &mut Writer) {
        let mut head = (w.head.doc_count() > 0).then(|| w.head.freeze());
        let mut segments = Vec::with_capacity(w.sealed.len() + 1);
        segments.extend(
            w.sealed
                .iter_mut()
                .chain(&mut head)
                .map(SealedSegment::published),
        );
        let live_docs = segments.iter().map(Segment::live_docs).sum();
        let total_docs = segments.iter().map(|s| s.data.doc_count()).sum();
        let fresh = Arc::new(IndexSnapshot {
            segments,
            epoch: w.epoch,
            live_docs,
            total_docs,
        });
        // Swap the pointer under the lock but tear the old snapshot down
        // *after* releasing it: when this publish retires the last refs
        // to merged-away segments, dropping them inside the write hold
        // would stall every arriving search behind a multi-ms teardown
        // (readers queue once a writer holds the lock).
        let stale = std::mem::replace(&mut *self.published.write(), fresh);
        drop(stale);
    }

    /// Apply a batch of changes in order — the one way into the index.
    /// Documents are analyzed before the writer lock is taken; the batch
    /// then runs under a single lock hold (the head seals whenever it
    /// reaches the threshold) and is made visible by **one** publish.
    /// Returns how many changes took effect, which is also how far the
    /// revision moved: every put counts, a delete only when the id was
    /// live. A batch in which nothing took effect publishes nothing.
    ///
    /// This is a [`Session`] of one batch; a caller with many batches
    /// opens one with [`Index::session`] and keeps it.
    pub fn apply<'a>(&self, changes: impl IntoIterator<Item = IndexChange<'a>>) -> usize {
        self.session().apply(changes)
    }

    /// A write session on this index: [`Session::apply`] is
    /// [`Index::apply`], with what analysis learns about the vocabulary
    /// kept from one batch to the next.
    pub fn session(&self) -> Session<'_> {
        Session::new(self)
    }

    /// The analysers [`Index::bulk_load`] should run on this machine: two,
    /// or one where there is a single core.
    pub fn bulk_analysers() -> usize {
        std::thread::available_parallelism()
            .map_or(1, usize::from)
            .min(BULK_ANALYSERS)
    }

    /// Put `docs` into a fresh index a seal threshold's worth a batch, so
    /// that each batch, a partial last one included, becomes one sealed
    /// segment and the head is left empty, as a load of the index's file
    /// leaves it. Up to `analysers` scoped threads each analyze every
    /// `analysers`-th batch in a session of their own, while this thread
    /// commits the batches in order and hands each session back to its
    /// analyser once its batch is in. Segments, revision, published
    /// snapshot and file are therefore those of [`Session::apply`] called
    /// on each batch in turn, except that the last batch's commit seals
    /// the head before it publishes, so that batch is frozen once; with
    /// one analyser (or one batch) that is what runs, on this thread, and
    /// nothing is spawned.
    ///
    /// What outlives the build — the head's postings, the frozen segments,
    /// each published snapshot — is allocated here, on the calling thread;
    /// an analyser allocates only its session. Segments built on the
    /// analysers instead landed in their threads' malloc arenas and cost
    /// the process 5–25 MiB of peak RSS.
    ///
    /// A panic on an analyser resumes here. Returns how many changes took
    /// effect, as [`Index::apply`] does.
    pub fn bulk_load<'d, T: Sync>(
        &self,
        docs: &'d [T],
        analysers: usize,
        document: impl Fn(&T) -> IndexDocument<'_> + Sync,
    ) -> usize {
        let batches = || docs.chunks(self.seal_threshold);
        let batch_count = batches().len();
        let analysers = analysers.clamp(1, batch_count.max(1));
        let document = &document;
        let puts =
            move |batch: &'d [T]| batch.iter().map(move |doc| IndexChange::Put(document(doc)));
        // The last batch's commit seals the head, so the head is left
        // empty, as a load of the file leaves it.
        let last = |batch: usize| batch + 1 == batch_count;
        let took_effect = if analysers == 1 {
            let mut session = self.session();
            let mut took_effect = 0;
            for (i, batch) in batches().enumerate() {
                session.analyze_batch(puts(batch));
                took_effect += session.commit(last(i));
            }
            took_effect
        } else {
            std::thread::scope(|scope| {
                let (mut handles, hand_offs): (Vec<_>, Vec<_>) = (0..analysers)
                    .map(|first| {
                        let (analyzed, ready) = mpsc::sync_channel::<Session<'_>>(1);
                        let (give_back, returned) = mpsc::sync_channel::<Session<'_>>(1);
                        let mine = batches().skip(first).step_by(analysers);
                        let handle = scope.spawn(move || {
                            let mut session = self.session();
                            for batch in mine {
                                session.analyze_batch(puts(batch));
                                // Either side hangs up only while unwinding.
                                if analyzed.send(session).is_err() {
                                    return;
                                }
                                match returned.recv() {
                                    Ok(back) => session = back,
                                    Err(_) => return,
                                }
                            }
                        });
                        (handle, (ready, give_back))
                    })
                    .unzip();
                let mut took_effect = 0;
                for (i, analyser) in (0..analysers).cycle().take(batch_count).enumerate() {
                    let (ready, give_back) = &hand_offs[analyser];
                    let Ok(mut session) = ready.recv() else {
                        // The analyser dropped its sender without a batch: it
                        // panicked. Re-raise its panic rather than wait.
                        let handle = handles.swap_remove(analyser);
                        let panic = handle.join().expect_err("an analyser quit early");
                        std::panic::resume_unwind(panic)
                    };
                    took_effect += session.commit(last(i));
                    // After its last batch too: a session is freed on the
                    // thread that allocated it.
                    let _ = give_back.send(session);
                }
                took_effect
            })
        };
        took_effect
    }

    /// The name and the prose pipeline, in that order.
    pub(crate) fn analyzers(&self) -> [&Analyzer; 2] {
        [&self.names, &self.prose]
    }

    /// The locked half of [`Index::apply`]: run an analyzed batch under
    /// one writer-lock hold and publish once; with `seal`, seal the head
    /// before that publish. `rows` is the session's, and holds rows of
    /// this lock hold's current head only.
    pub(crate) fn commit(
        &self,
        batch: &Batch,
        terms: &Interner,
        rows: &mut RowTable,
        seal: bool,
    ) -> usize {
        let mut w = self.writer.lock();
        let before = w.epoch;
        rows.next_head();
        for change in batch.changes() {
            match change {
                Analyzed::Put(doc) => {
                    w.put(&doc, terms, rows);
                    if w.head.doc_count() >= self.seal_threshold {
                        w.seal();
                        rows.next_head();
                    }
                }
                Analyzed::Delete(id) => {
                    if w.tombstone_existing(id) {
                        w.epoch += 1;
                    }
                }
            }
        }
        if seal && w.head.doc_count() > 0 {
            w.seal();
        }
        let took_effect = (w.epoch - before) as usize;
        if took_effect > 0 {
            self.publish(&mut w);
        }
        took_effect
    }

    /// Add (or replace) one document: a one-element [`Index::apply`].
    pub fn add(&self, doc: IndexDocument<'_>) {
        self.apply([IndexChange::Put(doc)]);
    }

    /// Tombstone a document by schema id: a one-element [`Index::apply`].
    /// Returns whether it was present. A failed remove is not a mutation
    /// and does not move the revision.
    pub fn remove(&self, id: SchemaId) -> bool {
        self.apply([IndexChange::Delete(id)]) == 1
    }

    /// Number of live (non-deleted) documents.
    pub fn len(&self) -> usize {
        self.published.read().live_docs
    }

    /// True when no live documents exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(live, total)` document slots — the two [`IndexStats`] fields the
    /// published snapshot already holds, read in O(1). A liveness probe
    /// or a per-tick tombstone-ratio check wants only these; the full
    /// [`Index::stats`] merges every segment's term dictionary to count
    /// terms and postings.
    pub fn doc_counts(&self) -> (usize, usize) {
        let snap = self.published.read();
        (snap.live_docs, snap.total_docs)
    }

    /// Is `id` currently indexed (live)?
    pub fn contains(&self, id: SchemaId) -> bool {
        let snap = self.snapshot();
        snap.segments
            .iter()
            .any(|seg| seg.data.ord_of(id).is_some_and(|ord| !seg.is_deleted(ord)))
    }

    /// Search with raw query strings (each analyzed through the name
    /// pipeline — queries are element names and keywords).
    pub fn search(&self, query: &[&str], options: &SearchOptions) -> Vec<Hit> {
        self.search_terms(&self.analyze_query(query.iter().copied()), options)
    }

    /// The terms of raw query strings, each through the name pipeline,
    /// in order — what [`Index::search_terms`] takes.
    pub fn analyze_query<'a>(&self, texts: impl IntoIterator<Item = &'a str>) -> Vec<String> {
        let mut terms = Vec::new();
        let mut scratch = AnalyzeScratch::default();
        for text in texts {
            self.names
                .analyze_with(text, &mut scratch, |term| terms.push(term.to_string()));
        }
        terms
    }

    /// Search with pre-analyzed terms.
    pub fn search_terms(&self, terms: &[String], options: &SearchOptions) -> Vec<Hit> {
        self.search_terms_versioned(terms, options).0
    }

    /// [`Index::search_terms`], also returning the [`IndexRevision`] the
    /// results were computed against.
    /// The snapshot carries its epoch, so the pair is consistent by
    /// construction even while writers, sealers, and mergers run
    /// concurrently — no lock is held during the scan. This is the safe
    /// way to populate a revision-keyed cache.
    pub fn search_terms_versioned(
        &self,
        terms: &[String],
        options: &SearchOptions,
    ) -> (Vec<Hit>, IndexRevision) {
        let snap = self.snapshot();
        let revision = IndexRevision {
            instance: self.instance,
            mutations: snap.epoch,
        };
        let hits = search_postings(&snap, terms, options, &self.metrics);
        (hits, revision)
    }

    /// Index statistics.
    pub fn stats(&self) -> IndexStats {
        self.snapshot().stats()
    }

    /// Estimated heap bytes across all postings lists: the figure
    /// [`introspect`](Self::introspect) reports, without its per-list
    /// walk.
    pub fn postings_bytes(&self) -> usize {
        self.snapshot().postings_bytes()
    }

    /// Document frequency of an (already analyzed) term in a field,
    /// summed across segments and including tombstoned postings (they
    /// stay until a merge reclaims them). Exposed for tests and
    /// the ablation benches. Borrowed lookup — no per-call allocation.
    pub fn doc_freq(&self, field: Field, term: &str) -> usize {
        self.snapshot()
            .segments
            .iter()
            .filter_map(|seg| {
                seg.data
                    .find(field, term)
                    .map(|id| seg.data.list(id).doc_freq())
            })
            .sum()
    }

    /// Background merge: compact tombstoned segments off-lock and publish
    /// the new layout with a single pointer swap. Returns what was done,
    /// or `None` when the tombstone ratio is below `threshold` (and the
    /// segment count is within bounds), or when a concurrent merge
    /// replaced the captured segments first (this one simply aborts;
    /// nothing was lost).
    ///
    /// The writer lock is held only to capture victims and to commit —
    /// the compaction itself runs with no lock at all, and searches never
    /// block on any phase. Tombstones that land on a victim during the
    /// off-lock compaction are re-applied to the merged segment before it
    /// is published. Merges do not move the revision: results are bitwise
    /// identical before and after, so revision-keyed caches stay warm.
    pub fn merge(&self, threshold: f64) -> Option<MergeOutcome> {
        // Phase A — capture victims under the writer lock.
        let (victims, segments_before) = {
            let mut w = self.writer.lock();
            let total = w.total_docs();
            let live = w.live_docs();
            let dead = total - live;
            let over_threshold =
                threshold > 0.0 && total > 0 && dead as f64 >= threshold * total as f64;
            let crowded = w.sealed.len() > MAX_SEGMENTS;
            if !over_threshold && !crowded {
                // The common answer on a scheduler tick: nothing touched.
                return None;
            }
            if w.head.doc_count() > w.head.live_docs() {
                // Head tombstones can only be reclaimed from a sealed
                // segment.
                w.seal();
            }
            let victims: Vec<(usize, Arc<FlatSegment>, Vec<u64>)> = w
                .sealed
                .iter()
                .enumerate()
                .filter(|(_, s)| crowded || s.live_count() < s.total_count())
                .map(|(slot, s)| (slot, s.data.clone(), s.dead_bits().to_vec()))
                .collect();
            if victims.is_empty() {
                return None;
            }
            let before = w.sealed.len() + usize::from(w.head.doc_count() > 0);
            (victims, before)
        };

        // Phase B — compact with no lock held. Searches and writers both
        // proceed freely; the captured Arcs keep the victim data alive.
        let parts: Vec<(Arc<FlatSegment>, Vec<u64>)> = victims
            .iter()
            .map(|(_, data, bits)| (data.clone(), bits.clone()))
            .collect();
        let compacted = compact(&parts);

        // Phase C — commit under the writer lock.
        let mut w = self.writer.lock();
        for (slot, data, _) in &victims {
            let still_there = w
                .sealed
                .get(*slot)
                .is_some_and(|s| Arc::ptr_eq(&s.data, data));
            if !still_there {
                // A concurrent merge committed first and rewrote the
                // segment list; this merge's inputs are stale. Abort —
                // the other merge already reclaimed them.
                return None;
            }
        }
        let docs_before: usize = victims.iter().map(|(_, d, _)| d.doc_count()).sum();
        let mut merged = SealedSegment::with_tombstones(Arc::new(compacted), &[]);
        // Re-apply tombstones that raced the off-lock compaction.
        for (slot, data, captured_bits) in &victims {
            for ord in late_tombstones(captured_bits, w.sealed[*slot].dead_bits()) {
                if let Some(new_ord) = merged.data.ord_of(data.id(ord)) {
                    if !merged.is_dead(new_ord) {
                        merged.tombstone(new_ord);
                    }
                }
            }
        }
        let victim_slots: Vec<usize> = victims.iter().map(|(slot, _, _)| *slot).collect();
        let mut slot_iter = 0usize;
        w.sealed.retain(|_| {
            let keep = !victim_slots.contains(&slot_iter);
            slot_iter += 1;
            keep
        });
        let docs_reclaimed = docs_before - merged.total_count();
        if merged.total_count() > 0 {
            w.sealed.push(merged);
        }
        self.metrics.merges.inc();
        self.publish(&mut w);
        Some(MergeOutcome {
            docs_reclaimed,
            segments_before,
            segments_after: w.sealed.len() + usize::from(w.head.doc_count() > 0),
        })
    }
}

impl DeepSize for Index {
    /// Reads the published snapshot — concurrent searches are unaffected.
    fn deep_size_of_children(&self) -> usize {
        self.snapshot().deep_bytes()
    }
}

impl Index {
    /// Data-plane introspection: per-postings-list statistics for the
    /// `top_lists` largest lists (by live document frequency) plus
    /// corpus-level aggregates, computed on demand over the published
    /// snapshot — concurrent searches are never blocked. Lists split
    /// across segments are aggregated into one logical entry, so the
    /// report is layout-independent.
    ///
    /// Each list's `max_impact` is the largest Phase 1 score any of its
    /// live postings can contribute, computed with the scorer's own
    /// `impact` arithmetic — the per-list upper bound WAND/MaxScore
    /// pruning uses.
    pub fn introspect(&self, top_lists: usize) -> IndexIntrospection {
        let snap = self.snapshot();
        let n_docs = snap.live_docs as f64;
        // Rank every list by its sort key alone (live df descending, then
        // term, then field); only the kept ones are decoded for their
        // `max_impact`.
        let mut ranked = Vec::new();
        for field_ord in 0..Field::COUNT {
            for (term, portions) in snap.merged_terms(field_ord) {
                let live_df: usize = portions
                    .iter()
                    .map(|&(si, id)| snap.segments[si].live_df(id))
                    .sum();
                ranked.push((Reverse(live_df), term, field_ord, portions));
            }
        }
        let distinct_terms = ranked.len();
        ranked.sort_by(|a, b| (a.0, a.1, a.2).cmp(&(b.0, b.1, b.2)));
        ranked.truncate(top_lists);
        let mut buf = BlockBuf::default();
        let mut lists: Vec<PostingsListStats> = Vec::with_capacity(ranked.len());
        for (Reverse(live_df), term, field_ord, portions) in ranked {
            let field = Field::from_ordinal(field_ord as u8).unwrap_or(Field::Elements);
            let portion_lists = || {
                portions
                    .iter()
                    .map(|&(si, id)| (&snap.segments[si], snap.segments[si].data.list(id)))
            };
            let doc_freq: usize = portion_lists().map(|(_, list)| list.doc_freq()).sum();
            let idf = idf_weight(live_df, n_docs);
            let mut max_impact = 0.0f64;
            for (seg, list) in portion_lists() {
                let mut cursor = list.cursor(&mut buf);
                for b in 0..list.block_count() {
                    cursor.load(b);
                    let (docs, tfs) = cursor.postings();
                    for (&doc, &tf) in docs.iter().zip(tfs) {
                        if !seg.is_deleted(doc) {
                            let field_len = seg.data.field_len(doc, field_ord);
                            max_impact = max_impact.max(impact(field, tf, idf, field_len));
                        }
                    }
                }
            }
            let stored_bound = portion_lists()
                .map(|(_, list)| list.max_impact_bound(field.boost(), idf))
                .fold(0.0f64, f64::max);
            let tombstone_ratio = if doc_freq == 0 {
                0.0
            } else {
                (doc_freq - live_df) as f64 / doc_freq as f64
            };
            lists.push(PostingsListStats {
                field,
                term: term.to_string(),
                doc_freq,
                live_doc_freq: live_df,
                tombstone_ratio,
                approx_bytes: portion_lists().map(|(_, list)| list.approx_bytes()).sum(),
                max_impact,
                stored_bound,
            });
        }
        let stats = snap.stats_with(distinct_terms);
        let tombstone_ratio = if stats.total_docs == 0 {
            0.0
        } else {
            (stats.total_docs - stats.live_docs) as f64 / stats.total_docs as f64
        };
        IndexIntrospection {
            stats,
            revision: snap.epoch,
            tombstone_ratio,
            segments: snap.segments.len(),
            postings_bytes: snap.postings_bytes(),
            deep_bytes: snap.deep_bytes(),
            top_lists: lists,
        }
    }
}

/// Per-postings-list statistics (`/debug/index`).
#[derive(Debug, Clone, PartialEq)]
pub struct PostingsListStats {
    /// The field the list belongs to.
    pub field: Field,
    /// The analyzed term.
    pub term: String,
    /// Postings including tombstoned documents, across all segments.
    pub doc_freq: usize,
    /// Postings whose document is live (the scorer's df).
    pub live_doc_freq: usize,
    /// Fraction of postings awaiting merge reclamation.
    pub tombstone_ratio: f64,
    /// Estimated heap bytes held by the list.
    pub approx_bytes: usize,
    /// Largest Phase 1 score any live posting of this list can
    /// contribute, recomputed tight for this snapshot — the ideal
    /// WAND/MaxScore upper bound.
    pub max_impact: f64,
    /// The bound the live pruner actually uses: maintained incrementally
    /// on writes, left stale-high by tombstones, rebuilt tight by merges.
    /// Invariant: `stored_bound ≥ max_impact`.
    pub stored_bound: f64,
}

/// Corpus-level introspection (`/debug/index`): aggregates plus the
/// heaviest postings lists.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexIntrospection {
    /// The same aggregates [`Index::stats`] reports.
    pub stats: IndexStats,
    /// Mutation count at the time of the snapshot.
    pub revision: u64,
    /// Fraction of document slots that are tombstones.
    pub tombstone_ratio: f64,
    /// Segments in the published snapshot (sealed + head).
    pub segments: usize,
    /// Estimated heap bytes across all postings lists.
    pub postings_bytes: usize,
    /// Estimated heap bytes of the whole in-memory index.
    pub deep_bytes: usize,
    /// The `top_lists` largest lists by live document frequency.
    pub top_lists: Vec<PostingsListStats>,
}

/// Aggregate statistics about an index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexStats {
    /// Live documents.
    pub live_docs: usize,
    /// Total document slots including tombstones.
    pub total_docs: usize,
    /// Distinct `(field, term)` dictionary entries (merged across
    /// segments).
    pub distinct_terms: usize,
    /// Total postings (document entries across all terms).
    pub postings: usize,
    /// Total term occurrences.
    pub occurrences: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::OwnedDocument;
    use proptest::collection::vec;
    use proptest::prelude::Strategy;
    use proptest::sample::select;
    use schemr_model::{Element, ElementId, Schema};

    /// A merge threshold any single tombstone clears.
    const ANY_TOMBSTONE: f64 = 1e-9;

    #[test]
    fn add_search_roundtrip() {
        let index = Index::new();
        index.add(
            OwnedDocument::new(1, "clinic", ["patient", "patient.height", "patient.gender"]).view(),
        );
        index.add(OwnedDocument::new(2, "store", ["order", "order.total"]).view());
        let hits = index.search(&["patient", "height"], &SearchOptions::default());
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, SchemaId(1));
        assert!(hits[0].score > 0.0);
    }

    #[test]
    fn replacement_tombstones_the_old_version() {
        let index = Index::new();
        index.add(OwnedDocument::new(1, "v1", ["alpha"]).view());
        index.add(OwnedDocument::new(1, "v2", ["beta"]).view());
        assert_eq!(index.len(), 1);
        assert!(index
            .search(&["alpha"], &SearchOptions::default())
            .is_empty());
        assert_eq!(index.search(&["beta"], &SearchOptions::default()).len(), 1);
    }

    #[test]
    fn remove_hides_documents() {
        let index = Index::new();
        index.add(OwnedDocument::new(1, "a", ["x"]).view());
        assert!(index.remove(SchemaId(1)));
        assert!(!index.remove(SchemaId(1)));
        assert!(index.is_empty());
        assert!(index.search(&["x"], &SearchOptions::default()).is_empty());
        assert!(!index.contains(SchemaId(1)));
    }

    #[test]
    fn a_batch_in_which_nothing_took_effect_publishes_nothing() {
        let index = Index::new();
        index.add(OwnedDocument::new(1, "a", ["x"]).view());
        let (published, revision) = (index.snapshot(), index.revision());
        assert_eq!(index.apply([]), 0);
        let failed = [7, 9].map(|id| IndexChange::Delete(SchemaId(id)));
        assert_eq!(index.apply(failed), 0);
        assert_eq!(
            index.revision(),
            revision,
            "failed deletes are not mutations"
        );
        assert!(
            Arc::ptr_eq(&index.snapshot(), &published),
            "nothing published"
        );
    }

    #[test]
    fn stats_count_terms_and_postings() {
        let index = Index::new();
        index.add(OwnedDocument::new(1, "clinic", ["patient"]).view());
        index.add(OwnedDocument::new(2, "clinic", ["patient", "doctor"]).view());
        let st = index.stats();
        assert_eq!(st.live_docs, 2);
        // (Title, clinic), (Elements, patient), (Elements, doctor)
        assert_eq!(st.distinct_terms, 3);
        assert_eq!(st.postings, 5);
        assert_eq!(st.occurrences, 5);
    }

    #[test]
    fn doc_freq_reflects_live_state() {
        let index = Index::new();
        index.add(OwnedDocument::new(1, "t", ["patient"]).view());
        index.add(OwnedDocument::new(2, "t", ["patient"]).view());
        assert_eq!(index.doc_freq(Field::Elements, "patient"), 2);
    }

    #[test]
    fn search_counters_observe_lookup_work() {
        let reg = schemr_obs::MetricsRegistry::new();
        let index = Index::new().with_metrics(IndexMetrics::registered(&reg));
        index.add(OwnedDocument::new(1, "clinic", ["patient", "height"]).view());
        index.add(OwnedDocument::new(2, "store", ["order", "total"]).view());
        let hits = index.search(&["patient", "height"], &SearchOptions::default());
        assert_eq!(hits.len(), 1);
        // Two distinct terms probed, one candidate returned, and at
        // least the two matching postings scanned.
        assert_eq!(
            reg.counter_value("schemr_index_terms_looked_up_total", &[]),
            Some(2)
        );
        assert_eq!(
            reg.counter_value("schemr_index_candidates_returned_total", &[]),
            Some(1)
        );
        assert!(
            reg.counter_value("schemr_index_postings_scanned_total", &[])
                .unwrap()
                >= 2
        );
        // A second search keeps accumulating on the same counters.
        index.search(&["order"], &SearchOptions::default());
        assert_eq!(
            reg.counter_value("schemr_index_terms_looked_up_total", &[]),
            Some(3)
        );
    }

    #[test]
    fn abbreviations_meet_expansions_in_the_index() {
        // `pat_ht` indexes as patient/height, so the full-word query hits.
        let index = Index::new();
        index.add(OwnedDocument::new(1, "t", ["pat_ht"]).view());
        let hits = index.search(&["patient", "height"], &SearchOptions::default());
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn introspection_surfaces_per_list_and_corpus_stats() {
        let index = Index::new();
        index.add(OwnedDocument::new(1, "clinic", ["patient", "patient.height"]).view());
        index.add(OwnedDocument::new(2, "hospital", ["patient", "ward"]).view());
        index.add(OwnedDocument::new(3, "store", ["order"]).view());
        let truncated = index.introspect(4);
        assert_eq!(truncated.top_lists.len(), 4, "top_lists honors the cap");
        let report = index.introspect(usize::MAX);
        assert_eq!(report.stats, index.stats());
        assert_eq!(report.tombstone_ratio, 0.0);
        assert!(report.postings_bytes > 0);
        assert!(report.deep_bytes > report.postings_bytes);
        // Truncation keeps the heaviest lists and their stats intact.
        assert_eq!(truncated.top_lists[..], report.top_lists[..4]);
        assert_eq!(truncated.postings_bytes, report.postings_bytes);
        // `patient` (elements field, df 2) is the heaviest list.
        let heaviest = &report.top_lists[0];
        assert_eq!(heaviest.term, "patient");
        assert_eq!(heaviest.field, Field::Elements);
        assert_eq!(heaviest.live_doc_freq, 2);
        assert!(heaviest.max_impact > 0.0);
        // Rarer terms carry higher idf, so their max impact beats an
        // equally-frequent-per-doc common term in the same field.
        let order = report
            .top_lists
            .iter()
            .find(|l| l.term == "order" && l.field == Field::Elements)
            .expect("df-1 elements list present");
        assert!(order.max_impact > heaviest.max_impact);
    }

    #[test]
    fn a_one_list_report_is_the_full_report_cut_to_its_first_list() {
        // Lists split across segments, tombstones, a term in two fields.
        let index = Index::new().with_seal_threshold(2);
        index.add(OwnedDocument::new(1, "clinic", ["patient", "patient.height"]).view());
        index.add(OwnedDocument::new(2, "hospital", ["patient", "ward"]).view());
        index.add(OwnedDocument::new(3, "patient", ["order", "ward"]).view());
        index.add(OwnedDocument::new(4, "ward", ["patient", "bed"]).view());
        index.add(OwnedDocument::new(2, "hospital", ["ward"]).view());
        index.remove(SchemaId(3));
        let mut full = index.introspect(usize::MAX);
        assert!(full.segments > 1 && full.tombstone_ratio > 0.0);
        assert_eq!(full.stats, index.stats());
        full.top_lists.truncate(1);
        assert_eq!(index.introspect(1), full);
    }

    #[test]
    fn stored_bound_dominates_tight_max_impact() {
        // The incrementally-maintained bound the pruner consults must
        // dominate the introspection plane's tight recomputation — under
        // fresh builds, churn, merges, and codec-style rebuilds alike.
        let index = Index::new();
        index.add(OwnedDocument::new(1, "clinic", ["patient", "patient.height", "share"]).view());
        index.add(OwnedDocument::new(2, "hospital", ["patient", "ward", "share"]).view());
        index.add(OwnedDocument::new(1, "v2", ["beta", "share"]).view()); // replace → tombstone
        index.remove(SchemaId(2));
        for (label, report) in [
            ("churned", index.introspect(usize::MAX)),
            ("merged", {
                index.merge(ANY_TOMBSTONE).expect("two tombstones");
                index.introspect(usize::MAX)
            }),
        ] {
            for l in &report.top_lists {
                assert!(
                    l.stored_bound >= l.max_impact - 1e-12,
                    "{label}: stored bound {} must dominate tight max {} for {:?}/{}",
                    l.stored_bound,
                    l.max_impact,
                    l.field,
                    l.term
                );
            }
        }
    }

    #[test]
    fn introspection_max_impact_bounds_observed_scores() {
        // The published per-list max impact must upper-bound any actual
        // Phase 1 contribution — the WAND/MaxScore contract.
        let index = Index::new();
        index.add(OwnedDocument::new(1, "clinic", ["patient", "patient.height"]).view());
        index.add(OwnedDocument::new(2, "hospital", ["patient"]).view());
        let report = index.introspect(usize::MAX);
        let bound: f64 = report
            .top_lists
            .iter()
            .filter(|l| l.term == "patient")
            .map(|l| l.max_impact)
            .sum();
        let hits = index.search(&["patient"], &SearchOptions::default());
        // Single-term query: no coordination penalty, no proximity bonus.
        assert!(hits[0].score <= bound + 1e-9);
    }

    #[test]
    fn introspection_tracks_tombstones_and_merge() {
        let index = Index::new();
        index.add(OwnedDocument::new(1, "v1", ["alpha", "shared"]).view());
        index.add(OwnedDocument::new(2, "other", ["shared"]).view());
        index.add(OwnedDocument::new(1, "v2", ["beta", "shared"]).view());
        let before = index.introspect(usize::MAX);
        assert!(before.tombstone_ratio > 0.0);
        // The analyzer stems, so `shared` indexes as `share`.
        let shared = before
            .top_lists
            .iter()
            .find(|l| l.term == "share" && l.field == Field::Elements)
            .unwrap();
        assert_eq!(shared.doc_freq, 3);
        assert_eq!(shared.live_doc_freq, 2);
        assert!(shared.tombstone_ratio > 0.0);
        // Tombstoned docs contribute nothing to max impact, but the
        // incrementally-maintained bound stays stale-high (still a valid
        // upper bound — the pruner skips df-0 lists before consulting it).
        let alpha = before.top_lists.iter().find(|l| l.term == "alpha").unwrap();
        assert_eq!(alpha.live_doc_freq, 0);
        assert_eq!(alpha.max_impact, 0.0);
        assert!(alpha.stored_bound > 0.0);
        index.merge(ANY_TOMBSTONE).expect("one tombstone");
        let after = index.introspect(usize::MAX);
        assert_eq!(after.tombstone_ratio, 0.0);
        assert!(after.top_lists.iter().all(|l| l.tombstone_ratio == 0.0));
        assert!(after.top_lists.iter().all(|l| l.term != "alpha"));
    }

    #[test]
    fn deep_size_covers_the_whole_structure() {
        use schemr_obs::DeepSize;
        let index = Index::new();
        let empty = index.deep_size_of_children();
        index.add(OwnedDocument::new(1, "clinic", ["patient", "patient.height"]).view());
        index.add(OwnedDocument::new(2, "store", ["order", "order.total"]).view());
        let populated = index.deep_size_of_children();
        assert!(populated > empty);
        // The forward index and term dictionary both hold term text, so
        // the deep size exceeds postings bytes alone.
        assert!(populated > index.introspect(0).postings_bytes);
    }

    #[test]
    fn sealing_splits_the_corpus_without_changing_results() {
        let segmented = Index::new().with_seal_threshold(2);
        let monolith = Index::new().with_seal_threshold(usize::MAX);
        for i in 0..7 {
            let d = OwnedDocument::new(i, "t", ["patient", "height"]);
            segmented.add(d.view());
            monolith.add(d.view());
        }
        assert!(segmented.segment_count() > 1, "threshold 2 must seal");
        assert_eq!(monolith.segment_count(), 1);
        assert_eq!(segmented.stats(), monolith.stats());
        let q = ["patient", "height"];
        let a = segmented.search(&q, &SearchOptions::default());
        let b = monolith.search(&q, &SearchOptions::default());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.score.to_bits(), y.score.to_bits(), "bitwise identity");
            assert_eq!(x.matched_terms, y.matched_terms);
        }
    }

    #[test]
    fn merge_reclaims_tombstones_without_moving_the_revision() {
        let index = Index::new().with_seal_threshold(4);
        for i in 0..10 {
            index.add(OwnedDocument::new(i, "t", ["patient"]).view());
        }
        for i in 0..5 {
            assert!(index.remove(SchemaId(i)));
        }
        let before = index.revision();
        let hits_before = index.search(&["patient"], &SearchOptions::default());
        let outcome = index.merge(0.3).expect("half the corpus is tombstoned");
        assert!(outcome.docs_reclaimed >= 5);
        assert_eq!(index.revision(), before, "merge is not a logical mutation");
        let st = index.stats();
        assert_eq!(st.live_docs, 5);
        assert_eq!(st.total_docs, 5, "all tombstones reclaimed");
        let hits_after = index.search(&["patient"], &SearchOptions::default());
        assert_eq!(hits_before.len(), hits_after.len());
        for (x, y) in hits_before.iter().zip(&hits_after) {
            assert_eq!(x.id, y.id);
            assert_eq!(
                x.score.to_bits(),
                y.score.to_bits(),
                "merge is bitwise invisible"
            );
        }
        // Below-threshold state: nothing left to do.
        assert!(index.merge(0.3).is_none());
    }

    #[test]
    fn doc_counts_track_stats_across_every_mutation() {
        let index = Index::new().with_seal_threshold(3);
        let check = |what: &str| {
            let st = index.stats();
            assert_eq!(
                index.doc_counts(),
                (st.live_docs, st.total_docs),
                "after {what}"
            );
        };
        check("construction");
        for i in 0..7 {
            index.add(OwnedDocument::new(i, "t", ["patient", "height"]).view());
            check("add");
        }
        assert!(index.segment_count() > 1, "threshold 3 must have sealed");
        index.add(OwnedDocument::new(2, "t2", ["patient"]).view());
        check("replace in a sealed segment");
        index.add(OwnedDocument::new(6, "t2", ["patient"]).view());
        check("replace in the head");
        for i in 0..4 {
            assert!(index.remove(SchemaId(i)));
            check("remove");
        }
        assert!(!index.remove(SchemaId(0)));
        check("failed remove");
        let (live, total) = index.doc_counts();
        assert!(live < total, "tombstones are still counted as slots");
        index
            .merge(0.1)
            .expect("over half the slots are tombstones");
        check("merge");
        assert_eq!(index.doc_counts(), (3, 3));
        index.remove(SchemaId(4));
        index.merge(ANY_TOMBSTONE).expect("one tombstone");
        check("merge of a single tombstone");
    }

    /// Words for generated names and text. Compound and abbreviated names,
    /// words that repeat within and across fields, and what a memo keyed
    /// by raw token can get wrong: a token that is a name under one
    /// pipeline and a stop word under the other (`to`, `of`), one that
    /// differs from another only by case, abbreviations that expand to
    /// several words (`dob`) or to nothing but stop words (`na`, in
    /// [`memo_analyzers`]), camelCase and acronyms, caseless scripts,
    /// words that analyze to nothing, and a token too long to remember.
    fn words() -> Vec<String> {
        let mut words = [
            "patient",
            "Height",
            "PatientVisits",
            "HTTPServer",
            "parseXMLDoc",
            "pat",
            "ht",
            "DOB",
            "dob",
            "the",
            "to",
            "of",
            "na",
            "icd10code",
            "größe",
            "GRÖSSE",
            "患者",
            "מטופל",
            "___",
            "",
        ]
        .map(String::from)
        .to_vec();
        words.push("verylong".repeat(crate::session::MAX_MEMO_TOKEN / 8 + 1));
        words
    }

    /// A name or a line of text: up to three words joined by one of the
    /// tokenizer's delimiters — dots included — or by nothing, which
    /// makes a camelCase or run-on name.
    fn arb_text() -> impl Strategy<Value = String> {
        let delimiters = vec!["_", "-", ".", " ", "/", ",", ":", "..", ""];
        (vec(select(words()), 0..4), select(delimiters))
            .prop_map(|(words, delimiter)| words.join(delimiter))
    }

    /// A schema nested at least three deep: a chain of four elements, then
    /// more under any earlier one or at the top; a third documented.
    fn arb_schema() -> impl Strategy<Value = Schema> {
        vec((arb_text(), arb_text(), 0usize..64), 4..12).prop_map(|elements| {
            let mut schema = Schema::new("generated");
            for (i, (name, doc, pick)) in elements.into_iter().enumerate() {
                let mut element = Element::entity(name);
                element.doc = (pick % 3 == 0).then_some(doc);
                let parent = match i {
                    0 => None,
                    1..=3 => Some(i - 1),
                    _ => Some(pick % (i + 1)).filter(|&p| p < i),
                };
                match parent {
                    Some(p) => schema.add_child(ElementId(p as u32), element),
                    None => schema.add_root(element),
                };
            }
            schema
        })
    }

    fn arb_document() -> impl Strategy<Value = OwnedDocument> {
        (arb_text(), arb_text(), arb_schema()).prop_map(|(title, summary, schema)| OwnedDocument {
            id: SchemaId(0),
            title,
            summary,
            schema,
        })
    }

    /// The standard pipelines over a dictionary with an abbreviation made
    /// of stop words only: `na` is two names, and nothing at all as prose.
    fn memo_analyzers() -> (Analyzer, Analyzer) {
        let dict = || {
            schemr_text::normalize::AbbreviationDict::from_pairs([
                ("dob", "date of birth"),
                ("pat", "patient"),
                ("ht", "height"),
                ("na", "not of"),
            ])
        };
        (
            Analyzer::for_names().with_abbreviations(dict()),
            Analyzer::for_documents().with_abbreviations(dict()),
        )
    }

    /// A head built from `docs` (document `i` at ordinal `i`) holds what
    /// the flattening reference spells out: per document and field the
    /// `(term, position)` sequence and its length, and forward keys in
    /// `(field, term)` order that name every posting of the document.
    fn check_head_against_the_reference(
        head: &FlatSegment,
        docs: &[OwnedDocument],
        names: &Analyzer,
        prose: &Analyzer,
    ) {
        for (ord, doc) in docs.iter().enumerate() {
            let ord = ord as crate::DocOrd;
            let mut held: [Vec<(String, u32)>; Field::COUNT] = Default::default();
            let mut keys = Vec::new();
            for list in head.lists_of(ord) {
                let field = (0..Field::COUNT)
                    .find(|&f| head.field_lists(f).contains(&list))
                    .expect("every list belongs to a field");
                let (term, mut buf) = (head.term(list), BlockBuf::default());
                let mut postings = head.list(list).cursor(&mut buf);
                let posting = postings.seek(ord).expect("a forward key has a posting");
                let positions = postings.positions(posting).iter();
                held[field].extend(positions.map(|&p| (term.to_string(), p)));
                keys.push((field, term));
            }
            assert!(keys.windows(2).all(|pair| pair[0] < pair[1]));
            for field in Field::ALL {
                let f = field.ordinal() as usize;
                held[f].sort_unstable_by_key(|&(_, position)| position);
                let expected = doc.view().field_terms_positioned(field, names, prose);
                assert_eq!(held[f], expected, "{field:?} of document {ord}");
                assert_eq!(head.field_len(ord, f) as usize, expected.len());
            }
        }
        // No list mentions a document its keys do not name.
        let postings = head.columns().postings();
        let keys: usize = (0..docs.len())
            .map(|ord| head.lists_of(ord as crate::DocOrd).count())
            .sum();
        assert_eq!(postings, keys);
    }

    proptest::proptest! {
        /// What the session writes — each element's terms composed from
        /// its parent's run and its own name — is what the flattening
        /// spelled out path by path, to the bit. The documents go through
        /// **one** session one at a time, so each follows what the memo,
        /// the interner and the batch buffers kept of the ones before; a
        /// fresh session each, and one batch, must build the very same
        /// index.
        #[test]
        fn composed_paths_equal_the_flattening_reference(
            docs in vec(arb_document(), 1..6),
        ) {
            // A token the prose memo meets first (`Docs`), then the name
            // memo (`Title`), ahead of whatever was generated.
            let met_in_docs_then_title = "to dob na größe 患者 PatientVisits";
            let fixed = [
                OwnedDocument::new(0, "", [""; 0]).with_docs([met_in_docs_then_title]),
                OwnedDocument::new(0, met_in_docs_then_title, [""; 0]),
            ];
            let docs: Vec<OwnedDocument> = fixed
                .into_iter()
                .chain(docs)
                .enumerate()
                .map(|(i, doc)| OwnedDocument { id: SchemaId(i as u64), ..doc })
                .collect();
            let (names, prose) = memo_analyzers();
            let index_over = || {
                Index::with_analyzers(names.clone(), prose.clone()).with_seal_threshold(usize::MAX)
            };
            let one_session = index_over();
            let mut session = one_session.session();
            for doc in &docs {
                session.apply([IndexChange::Put(doc.view())]);
            }
            drop(session);
            let head = &one_session.snapshot().segments[0].data;
            check_head_against_the_reference(head, &docs, &names, &prose);

            let fresh_sessions = index_over();
            for doc in &docs {
                fresh_sessions.add(doc.view());
            }
            proptest::prop_assert_eq!(
                crate::codec::encode(&fresh_sessions),
                crate::codec::encode(&one_session)
            );
            let one_batch = index_over();
            one_batch.apply(docs.iter().map(|doc| IndexChange::Put(doc.view())));
            proptest::prop_assert_eq!(
                crate::codec::encode(&one_batch),
                crate::codec::encode(&one_session)
            );
        }
    }

    #[test]
    fn a_vocabulary_that_never_repeats_is_analyzed_right_and_not_remembered() {
        // 50,000 distinct 200-byte tokens, one element each, under a
        // 1 MiB token for a title: nothing a memo should keep.
        let word = |i: usize| {
            let letters: String = (0..4)
                .map(|place| (b'a' + (i / 26usize.pow(place) % 26) as u8) as char)
                .collect();
            format!("{letters:q<200}")
        };
        let hostile = OwnedDocument::new(1, &"z".repeat(1 << 20), (0..50_000).map(word));
        let text_bytes = hostile.title.len() + 50_000 * 200;
        let index = Index::new().with_seal_threshold(usize::MAX);
        let mut session = index.session();
        assert_eq!(session.apply([IndexChange::Put(hostile.view())]), 1);

        let snapshot = index.snapshot();
        let docs = std::slice::from_ref(&hostile);
        let head = &snapshot.segments[0].data;
        check_head_against_the_reference(head, docs, &index.names, &index.prose);
        assert_eq!(snapshot.stats().distinct_terms, 50_001);
        // Tokens over 64 bytes bypass the memos; what the session holds
        // is each distinct term's text once (a `String`'s growth may
        // double it), 64 bytes of tables a term, and the batch: 80 bytes
        // an occurrence across the runs, the occurrence list, the key
        // list and the batch's keys and positions, growth slack included.
        assert_eq!(session.remembered_tokens(), 0);
        let bound = 2 * text_bytes + 50_001 * (64 + 80) + (64 << 10);
        assert!(
            session.heap_bytes() <= bound,
            "{} bytes held after {text_bytes} bytes of text (bound {bound})",
            session.heap_bytes()
        );
        // The session goes on working in its usual way.
        let clinic = OwnedDocument::new(2, "clinic", ["patient.height", "patient.gender"]);
        session.apply([IndexChange::Put(clinic.view())]);
        assert_eq!(session.remembered_tokens(), 4);
        let hits = index.search(&["patient", "height"], &SearchOptions::default());
        assert_eq!(hits[0].id, SchemaId(2));
    }

    #[test]
    fn merge_compacts_crowded_segment_lists() {
        let index = Index::new().with_seal_threshold(1);
        for i in 0..20 {
            index.add(OwnedDocument::new(i, "t", ["patient"]).view());
        }
        assert!(index.segment_count() > MAX_SEGMENTS);
        let outcome = index.merge(0.5).expect("crowding alone triggers a merge");
        assert_eq!(outcome.docs_reclaimed, 0, "no tombstones to drop");
        assert!(index.segment_count() <= 2);
        assert_eq!(index.stats().live_docs, 20);
    }
}
