//! The ingest workload: no serving. Whole cycles of
//!
//! * **A** bulk load: `Repository::insert` of every schema, then
//!   `SchemrEngine::new` + `reindex_full`;
//! * **B** `save_index`;
//! * **C** cold start from disk: a fresh engine, `load_index`, first
//!   query;
//! * **D** small replace batches: `Repository::remove` +
//!   `Repository::insert` of the same content, then
//!   `IndexScheduler::tick()`;
//!
//! repeated until the timed stages add up to `--seconds`. Medians over
//! the cycles are reported. The first cycle also checks, off the clock,
//! that the restored engine ranks like the built one.

use std::sync::Arc;
use std::time::Instant;

use schemr::SchemrEngine;
use schemr_corpus::Corpus;

use crate::fixture::{
    build_pool, decode, first_search, generate_corpus, load_repository, mean_reciprocal_rank,
    Query, RANKED_QUERIES,
};
use crate::layers::report_resident;
use crate::report::{RunResult, Values};
use crate::serve::{Options, SETUP_REPS};
use crate::stats::{median, percentile, ratio, sorted};
use crate::sys::{peak_rss_mb, Meter};
use crate::writer::{Replacer, WriteLedger};

/// Queries compared between the built and the restored engine.
const VERIFY_QUERIES: usize = 24;
/// Stage D: this many batches a cycle, each replacing this many schemas.
/// Small batches, because every change republishes the index head (≈4 ms
/// at 30,000 schemas) and every tick carries ≈45 ms of fixed cost: the
/// issue's 25 + 25 batch takes ≈400 ms, 28 s a cycle. 50 batches a cycle
/// give the batch-latency p90 its ten samples beyond it after two cycles.
/// (Batches of 10 + 10 were tried: they repeat no better — this
/// sandbox's memory-bound work varies by a third from process to process
/// whichever part of the batch carries it.)
const BATCHES: usize = 50;
const BATCH_DOCS: usize = 2;
/// Stage C runs this many times a cycle.
const RESTORES: usize = 3;

#[derive(Default)]
struct Cycles {
    insert_s: Vec<f64>,
    reindex_s: Vec<f64>,
    save_s: Vec<f64>,
    load_s: Vec<f64>,
    cold_start_s: Vec<f64>,
    file_bytes: u64,
    docs_written: u64,
}

struct Verified {
    attempted: u64,
    failed: u64,
    mrr: f64,
    seconds: f64,
}

/// The restored engine must return what the built one returns: same
/// ids, same order, same score bits.
fn verify(
    built: &SchemrEngine,
    restored: &SchemrEngine,
    queries: &[Query],
    ids: &[schemr_model::SchemaId],
) -> Verified {
    let t = Instant::now();
    let mut out = Verified {
        attempted: 0,
        failed: 0,
        mrr: 0.0,
        seconds: 0.0,
    };
    for query in &queries[..VERIFY_QUERIES] {
        out.attempted += 1;
        let answers = decode(&query.bytes).and_then(|sr| {
            let a = built.search(&sr).map_err(|e| e.to_string())?;
            let b = restored.search(&sr).map_err(|e| e.to_string())?;
            Ok((a, b))
        });
        match answers {
            Ok((a, b)) => {
                let same = a.len() == b.len()
                    && a.iter()
                        .zip(&b)
                        .all(|(x, y)| x.id == y.id && x.score.to_bits() == y.score.to_bits());
                if !same {
                    eprintln!("ingest: restored engine ranks differently from the built one");
                    out.failed += 1;
                }
            }
            Err(e) => {
                eprintln!("ingest: verification query failed: {e}");
                out.failed += 1;
            }
        }
    }
    match mean_reciprocal_rank(restored, queries, ids) {
        Ok(mrr) => out.mrr = mrr,
        Err(e) => {
            eprintln!("ingest: ranking queries failed: {e}");
            out.failed += 1;
        }
    }
    out.seconds = t.elapsed().as_secs_f64();
    out
}

/// What the cycles share.
struct Ingest<'a> {
    corpus: &'a Corpus,
    queries: &'a [Query],
    index_path: std::path::PathBuf,
    seed: u64,
    /// Runs over the timed stages only.
    meter: Meter,
    /// Stage D's batches; out on loan to the cycle's `Replacer`.
    writes: Option<WriteLedger>,
    acc: Cycles,
    /// Set by the first cycle.
    verified: Option<Verified>,
}

impl Ingest<'_> {
    /// One cycle; `resident`, when given, receives the shape of the
    /// index and caches at the end of stage D.
    fn cycle(&mut self, resident: Option<&mut Values>) -> Result<(), String> {
        let Ingest {
            corpus,
            queries,
            index_path,
            seed,
            meter,
            writes,
            acc,
            verified,
        } = self;
        // A: bulk load.
        let (repo, ids, insert_s) = load_repository(corpus);
        let t = Instant::now();
        let engine = Arc::new(SchemrEngine::new(repo.clone()));
        engine.reindex_full();
        acc.insert_s.push(insert_s);
        acc.reindex_s.push(t.elapsed().as_secs_f64());
        acc.docs_written += corpus.len() as u64;

        // B: save.
        let t = Instant::now();
        engine
            .save_index(&*index_path)
            .map_err(|e| format!("save_index: {e}"))?;
        acc.save_s.push(t.elapsed().as_secs_f64());
        acc.file_bytes = std::fs::metadata(&*index_path).map_or(0, |m| m.len());

        // C: cold start from the file, a few times over: it is short, and
        // its median is a headline number.
        let mut restored = None;
        for _ in 0..RESTORES {
            drop(restored.take());
            let t = Instant::now();
            let engine = SchemrEngine::new(repo.clone());
            engine
                .load_index(&*index_path)
                .map_err(|e| format!("load_index: {e}"))?;
            acc.load_s.push(t.elapsed().as_secs_f64());
            first_search(&engine, &queries[0]).map_err(|e| e.to_string())?;
            acc.cold_start_s.push(t.elapsed().as_secs_f64());
            restored = Some(engine);
        }
        let restored = restored.expect("RESTORES is at least 1");

        if verified.is_none() {
            meter.pause();
            *verified = Some(verify(&engine, &restored, queries, &ids));
            meter.resume();
        }
        drop(restored);

        // D: replace batches.
        let mut replacer = Replacer::new(
            &engine,
            &repo,
            corpus,
            ids,
            *seed,
            writes.take().expect("returned at the end of every cycle"),
        );
        for _ in 0..BATCHES {
            replacer.batch(0.0);
        }
        *writes = Some(replacer.finish());
        acc.docs_written += (BATCHES * BATCH_DOCS) as u64;

        meter.pause();
        if let Some(values) = resident {
            report_resident(&engine, values);
        }
        // Tearing 30,000 schemas down is not ingest work.
        drop((engine, repo));
        meter.resume();
        Ok(())
    }
}

/// Run the ingest workload.
pub fn run(opt: &Options, scratch: &std::path::Path) -> Result<RunResult, String> {
    // Set-up is the fixture alone: the corpus and the few queries the
    // cold start and the verification need.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut generate = Vec::with_capacity(SETUP_REPS);
    let mut fixture = None;
    for _ in 0..SETUP_REPS {
        drop(fixture.take());
        let t = Instant::now();
        let (corpus, generate_s) = generate_corpus(opt.seed, opt.corpus_size);
        let (queries, _) = build_pool(&corpus, opt.seed, RANKED_QUERIES);
        setups.push(t.elapsed().as_secs_f64());
        generate.push(generate_s);
        fixture = Some((corpus, queries));
    }
    let (corpus, queries) = fixture.expect("SETUP_REPS is at least 1");
    if queries.len() < RANKED_QUERIES {
        return Err(format!("query pool has {} queries", queries.len()));
    }

    let mut run = Ingest {
        corpus: &corpus,
        queries: &queries,
        index_path: scratch.join(format!("ingest-{}.idx", std::process::id())),
        seed: opt.seed,
        meter: Meter::start(),
        writes: Some(WriteLedger::new(BATCH_DOCS, Instant::now())),
        acc: Cycles::default(),
        verified: None,
    };
    let mut values = Values::default();
    let mut cycles = 0usize;
    let outcome = loop {
        let resident = (opt.traced && cycles == 0).then_some(&mut values);
        if let Err(e) = run.cycle(resident) {
            break Err(e);
        }
        cycles += 1;
        if run.meter.wall().as_secs_f64() >= opt.seconds {
            break Ok(());
        }
    };
    run.meter.pause();
    let _ = std::fs::remove_file(&run.index_path);
    outcome?;
    let Ingest {
        meter,
        writes,
        acc,
        verified,
        ..
    } = run;
    let writes = writes.expect("returned at the end of every cycle");
    let verified = verified.expect("the first cycle verifies");
    let (timed_s, cpu_s, allocs) = meter.totals();

    let docs = corpus.len() as f64;
    let batch_ms = sorted(writes.batches.iter().map(|b| b.wall_ms).collect());
    let written = acc.docs_written as f64;
    let bulk_s: Vec<f64> = acc
        .insert_s
        .iter()
        .zip(&acc.reindex_s)
        .map(|(i, r)| i + r)
        .collect();
    values.set("setup_s", median(&setups), SETUP_REPS);
    values.set(
        "throughput_ops_s",
        ratio(written, timed_s),
        acc.docs_written as usize,
    );
    values.set("latency_p50_ms", percentile(&batch_ms, 0.5), batch_ms.len());
    values.set("latency_p90_ms", percentile(&batch_ms, 0.9), batch_ms.len());
    values.set(
        "process.cpu_ms_per_op",
        ratio(cpu_s * 1e3, written),
        acc.docs_written as usize,
    );
    values.set(
        "allocs_per_op",
        ratio(allocs as f64, written),
        acc.docs_written as usize,
    );
    values.set("peak_rss_mb", peak_rss_mb(), 1);
    values.set("mrr_at_10", verified.mrr, RANKED_QUERIES);
    values.set(
        "core.ingest_docs_per_s",
        ratio(docs, median(&bulk_s)),
        cycles,
    );
    values.set(
        "core.cold_start_s",
        median(&acc.cold_start_s),
        acc.cold_start_s.len(),
    );

    if opt.traced {
        values.set("corpus.generate_s", median(&generate), SETUP_REPS);
        values.set("corpus.schemas", docs, 1);
        values.set("index.build_s", median(&acc.reindex_s), cycles);
        values.set("index.save_s", median(&acc.save_s), cycles);
        values.set("index.load_s", median(&acc.load_s), acc.load_s.len());
        values.set(
            "index.file_mb",
            acc.file_bytes as f64 / (1024.0 * 1024.0),
            1,
        );
        values.set(
            "repo.insert_us_per_doc",
            ratio(median(&acc.insert_s) * 1e6, docs),
            corpus.len(),
        );
        writes.report(&mut values);
        writes
            .log
            .write_jsonl(&opt.trace_out)
            .map_err(|e| format!("{}: {e}", opt.trace_out.display()))?;
    }

    Ok(RunResult {
        workload: "ingest",
        seed: opt.seed,
        traced: opt.traced,
        seconds: opt.seconds,
        corpus_schemas: corpus.len(),
        clients: 1,
        attempted: acc.docs_written + verified.attempted,
        failed: writes.failed + verified.failed,
        verify_s: verified.seconds,
        values,
    })
}
