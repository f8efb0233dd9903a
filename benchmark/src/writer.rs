//! The write path both writers share: replace schemas with the same
//! content under new ids (`Repository::remove` + `Repository::insert`),
//! then `IndexScheduler::tick()` — incremental reindex, and a merge
//! when tombstones pass the default threshold.

use std::sync::Arc;
use std::time::Instant;

use schemr::{IndexScheduler, SchemrEngine};
use schemr_corpus::Corpus;
use schemr_model::SchemaId;
use schemr_repo::Repository;

use crate::report::Values;
use crate::spans::SpanLog;
use crate::stats::{mean, median, ratio};

/// Stride through the corpus for the next victim; prime, so every
/// schema is visited before one repeats.
const STRIDE: usize = 7_919;

/// One replace batch.
pub struct Batch {
    /// How late it started against its schedule (0 when unscheduled).
    pub lag_ms: f64,
    pub wall_ms: f64,
    pub tick_ms: f64,
    /// Its tick committed a merge.
    pub merged: bool,
}

/// What a writer's batches cost. One ledger can pass through several
/// [`Replacer`]s in turn (ingest builds a new engine every cycle).
pub struct WriteLedger {
    docs_per_batch: usize,
    pub log: SpanLog,
    pub batches: Vec<Batch>,
    /// Merges the ticks committed.
    pub merges: u64,
    /// Removes or inserts the repository refused.
    pub failed: u64,
}

impl WriteLedger {
    /// An empty ledger for batches of `docs_per_batch` replacements,
    /// its span clock starting at `epoch`.
    pub fn new(docs_per_batch: usize, epoch: Instant) -> WriteLedger {
        WriteLedger {
            docs_per_batch,
            log: SpanLog::new(epoch),
            batches: Vec::new(),
            merges: 0,
            failed: 0,
        }
    }

    /// Documents replaced.
    pub fn docs_replaced(&self) -> usize {
        self.batches.len() * self.docs_per_batch
    }

    /// Documents replaced per second of batch wall time.
    pub fn docs_per_second(&self) -> f64 {
        let wall_s = self.batches.iter().map(|b| b.wall_ms).sum::<f64>() / 1e3;
        ratio(self.docs_replaced() as f64, wall_s)
    }

    /// The write path's per-layer lines.
    pub fn report(&self, out: &mut Values) {
        let n = self.batches.len();
        let column = |f: fn(&Batch) -> f64| self.batches.iter().map(f).collect::<Vec<f64>>();
        let ticks = column(|b| b.tick_ms);
        let merging: Vec<f64> = self
            .batches
            .iter()
            .filter(|b| b.merged)
            .map(|b| b.tick_ms)
            .collect();
        out.set("core.tick_ms", median(&ticks), n);
        out.set("core.writer_lag_ms", median(&column(|b| b.lag_ms)), n);
        out.set("core.incremental_docs_per_s", self.docs_per_second(), n);
        out.set(
            "index.incremental_us_per_doc",
            ratio(ticks.iter().sum::<f64>() * 1e3, self.docs_replaced() as f64),
            n,
        );
        out.set("index.merges", self.merges as f64, n);
        out.set("index.merge_ms", mean(&merging), merging.len());
        let removes = self.log.micros_of("repo.remove");
        out.set("repo.remove_us_per_doc", mean(&removes), removes.len());
    }
}

/// Replaces schemas batch by batch.
pub struct Replacer<'a> {
    repo: &'a Repository,
    corpus: &'a Corpus,
    ids: Vec<SchemaId>,
    cursor: usize,
    scheduler: IndexScheduler,
    ledger: WriteLedger,
}

impl<'a> Replacer<'a> {
    /// `ids[i]` is the repository id of corpus schema `i`; `seed` picks
    /// where in the corpus the victims start.
    pub fn new(
        engine: &Arc<SchemrEngine>,
        repo: &'a Repository,
        corpus: &'a Corpus,
        ids: Vec<SchemaId>,
        seed: u64,
        ledger: WriteLedger,
    ) -> Replacer<'a> {
        Replacer {
            repo,
            corpus,
            cursor: seed as usize % ids.len(),
            ids,
            scheduler: IndexScheduler::new(engine.clone()),
            ledger,
        }
    }

    /// Replace the next batch of schemas and tick, under the span tree
    /// `core.batch` → `repo.remove`, `repo.insert`, `core.tick`.
    pub fn batch(&mut self, lag_ms: f64) {
        let ledger = &mut self.ledger;
        let rid = format!("w{}", ledger.batches.len());
        let begin = ledger.log.now_ns();
        let root = ledger.log.push("core.batch", &rid, None, begin, begin);
        for _ in 0..ledger.docs_per_batch {
            self.cursor = (self.cursor + STRIDE) % self.ids.len();
            let (repo, victim) = (self.repo, self.ids[self.cursor]);
            let labeled = &self.corpus.schemas[self.cursor];
            let (removed, _) = ledger
                .log
                .timed("repo.remove", &rid, Some(root), || repo.remove(victim));
            let (inserted, _) = ledger.log.timed("repo.insert", &rid, Some(root), || {
                repo.insert(
                    labeled.title.clone(),
                    labeled.summary.clone(),
                    labeled.schema.clone(),
                )
            });
            match (removed, inserted) {
                (Ok(()), Ok(id)) => self.ids[self.cursor] = id,
                _ => ledger.failed += 1,
            }
        }
        let merges_before = self.scheduler.merge_count();
        let scheduler = &self.scheduler;
        let (_, tick) = ledger
            .log
            .timed("core.tick", &rid, Some(root), || scheduler.tick());
        ledger.log.close(root);
        let spans = ledger.log.spans();
        let batch = Batch {
            lag_ms,
            wall_ms: spans[root as usize].micros() / 1e3,
            tick_ms: spans[tick as usize].micros() / 1e3,
            merged: self.scheduler.merge_count() > merges_before,
        };
        ledger.batches.push(batch);
    }

    /// Stop writing; what it cost.
    pub fn finish(mut self) -> WriteLedger {
        self.ledger.merges += self.scheduler.merge_count();
        self.ledger
    }
}
