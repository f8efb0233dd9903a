//! The scheduled offline indexer.
//!
//! "At scheduled intervals, an offline Lucene Text Indexer flattens schemas
//! from the Schema Repository to construct or update the document index."
//!
//! [`IndexScheduler`] drives [`crate::SchemrEngine::reindex_incremental`]
//! either manually (deterministic `tick()` for tests and benches) or from a
//! background thread at a fixed interval.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::engine::SchemrEngine;

/// Deleted-to-total document ratio at which a tick merges the index's
/// tombstoned segments.
pub const DEFAULT_MERGE_THRESHOLD: f64 = 0.3;

/// Drives incremental re-indexing.
pub struct IndexScheduler {
    engine: Arc<SchemrEngine>,
    ticks: AtomicU64,
    applied: AtomicU64,
    merges: AtomicU64,
}

impl IndexScheduler {
    /// A scheduler over an engine, merging tombstoned segments at
    /// [`DEFAULT_MERGE_THRESHOLD`].
    pub fn new(engine: Arc<SchemrEngine>) -> Self {
        IndexScheduler {
            engine,
            ticks: AtomicU64::new(0),
            applied: AtomicU64::new(0),
            merges: AtomicU64::new(0),
        }
    }

    /// One scheduling tick: apply pending repository changes, then merge
    /// tombstoned segments if deletions have accumulated past the
    /// threshold — without this, put/delete churn grows tombstones (and
    /// Phase 1 scan work) without bound. The merge compacts off-lock, so
    /// concurrent searches never stall behind a tick. Returns the number
    /// of changes applied.
    pub fn tick(&self) -> usize {
        let applied = self.engine.reindex_incremental();
        self.ticks.fetch_add(1, Ordering::Relaxed);
        self.applied.fetch_add(applied as u64, Ordering::Relaxed);
        if self.engine.maybe_merge(DEFAULT_MERGE_THRESHOLD) {
            self.merges.fetch_add(1, Ordering::Relaxed);
        }
        applied
    }

    /// Ticks executed so far.
    pub fn tick_count(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }

    /// Total changes applied so far.
    pub fn applied_count(&self) -> u64 {
        self.applied.load(Ordering::Relaxed)
    }

    /// Background merges triggered by ticks so far.
    pub fn merge_count(&self) -> u64 {
        self.merges.load(Ordering::Relaxed)
    }

    /// Run ticks on a background thread every `interval` until the
    /// returned handle is stopped or dropped.
    pub fn run_background(self: Arc<Self>, interval: Duration) -> SchedulerHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let scheduler = self;
        let join = std::thread::spawn(move || {
            while !stop2.load(Ordering::Relaxed) {
                scheduler.tick();
                // Sleep in small slices so stop() is responsive.
                let mut remaining = interval;
                let slice = Duration::from_millis(10);
                while remaining > Duration::ZERO && !stop2.load(Ordering::Relaxed) {
                    let nap = remaining.min(slice);
                    std::thread::sleep(nap);
                    remaining = remaining.saturating_sub(nap);
                }
            }
        });
        SchedulerHandle {
            stop,
            join: Some(join),
        }
    }
}

/// Handle to a background scheduler thread; stops it on drop.
pub struct SchedulerHandle {
    stop: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl SchedulerHandle {
    /// Stop the background thread and wait for it.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for SchedulerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::SearchRequest;
    use schemr_repo::{import::import_str, Repository};

    fn engine() -> Arc<SchemrEngine> {
        let repo = Arc::new(Repository::new());
        import_str(
            &repo,
            "seed",
            "",
            "CREATE TABLE seed (a INT, b INT, c INT, d INT)",
        )
        .unwrap();
        let engine = Arc::new(SchemrEngine::new(repo));
        engine.reindex_full();
        engine
    }

    #[test]
    fn manual_ticks_apply_changes() {
        let engine = engine();
        let scheduler = IndexScheduler::new(engine.clone());
        assert_eq!(scheduler.tick(), 0);
        import_str(
            engine.repository(),
            "new",
            "",
            "CREATE TABLE sighting (species TEXT, latitude REAL, longitude REAL, observer TEXT)",
        )
        .unwrap();
        assert_eq!(scheduler.tick(), 1);
        assert_eq!(scheduler.tick_count(), 2);
        assert_eq!(scheduler.applied_count(), 1);
        let results = engine
            .search(&SearchRequest::keywords(["species"]))
            .unwrap();
        assert_eq!(results.len(), 1);
    }

    #[test]
    fn ticks_merge_once_tombstones_cross_the_threshold() {
        let repo = Arc::new(Repository::new());
        let mut ids = Vec::new();
        for i in 0..5 {
            ids.push(
                import_str(
                    &repo,
                    &format!("s{i}"),
                    "",
                    "CREATE TABLE t (a INT, b INT, c INT, d INT)",
                )
                .unwrap(),
            );
        }
        let engine = Arc::new(SchemrEngine::new(repo.clone()));
        engine.reindex_full();
        let scheduler = IndexScheduler::new(engine.clone());
        // One deletion: 1/5 tombstoned, below threshold — no merge.
        repo.remove(ids[0]).unwrap();
        scheduler.tick();
        assert_eq!(scheduler.merge_count(), 0);
        assert_eq!(engine.index_stats().total_docs, 5);
        // Two more: 3/5 tombstoned, over threshold — the merge compacts.
        let revision_before = engine.index_revision();
        repo.remove(ids[1]).unwrap();
        repo.remove(ids[2]).unwrap();
        scheduler.tick();
        assert_eq!(scheduler.merge_count(), 1);
        assert_eq!(engine.index_stats().total_docs, 2);
        assert_eq!(engine.index_stats().live_docs, 2);
        assert_eq!(
            engine
                .metrics_registry()
                .counter_value("schemr_index_merges_total", &[]),
            Some(1)
        );
        // The merge itself is invisible to revision-keyed caches: only the
        // two removes moved the mutation count.
        assert_eq!(
            engine.index_revision().mutations,
            revision_before.mutations + 2
        );
        // Steady state: nothing left to reclaim, no further merges.
        scheduler.tick();
        assert_eq!(scheduler.merge_count(), 1);
    }

    #[test]
    fn background_scheduler_indexes_within_the_interval() {
        let engine = engine();
        let scheduler = Arc::new(IndexScheduler::new(engine.clone()));
        let handle = scheduler.clone().run_background(Duration::from_millis(20));
        import_str(
            engine.repository(),
            "bg",
            "",
            "CREATE TABLE watershed (area REAL, rainfall REAL, elevation REAL, name TEXT)",
        )
        .unwrap();
        // Wait for the scheduler to pick it up.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let hits = engine
                .search(&SearchRequest::keywords(["watershed", "rainfall"]))
                .unwrap();
            if !hits.is_empty() {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "scheduler never indexed"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        handle.stop();
        assert!(scheduler.tick_count() >= 1);
    }

    #[test]
    fn handle_drop_stops_the_thread() {
        let engine = engine();
        let scheduler = Arc::new(IndexScheduler::new(engine));
        let handle = scheduler.clone().run_background(Duration::from_millis(10));
        drop(handle); // must not hang
    }
}
