//! The three serving workloads: closed-loop keep-alive clients on real
//! loopback sockets against an in-process `SchemrServer`, driven from
//! outside only.
//!
//! One run is: set-up (several times, the median is `setup_s`) →
//! verification → warm-up → timed window → verification again → (traced
//! runs only) an in-process replay of the requests that come next in the
//! sequence, with every layer call wrapped in a span.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use schemr::{EngineConfig, SchemrEngine};
use schemr_obs::alloc::process_alloc_count;
use schemr_obs::TracerConfig;

use crate::client::Client;
use crate::fixture::{
    decode, mean_reciprocal_rank, BuildTimes, Fixture, Query, LIMIT, RANKED_QUERIES,
};
use crate::inproc::{handle, handle_traced};
use crate::layers::{report_resident, Counters};
use crate::report::{RunResult, Values};
use crate::spans::SpanLog;
use crate::stats::{mean, median, percentile, ratio, sorted};
use crate::sys::{cpu_seconds, nproc, peak_rss_mb};
use crate::writer::{Replacer, WriteLedger};

/// Which serving workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Hot,
    Broad,
    Churn,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Hot => "serve_hot",
            Kind::Broad => "serve_broad",
            Kind::Churn => "serve_churn",
        }
    }
}

/// What a run needs to know.
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub corpus_size: usize,
    /// Where the traced pass writes its spans.
    pub trace_out: PathBuf,
}

/// Set-up runs this many times; `setup_s` is built from the medians.
pub const SETUP_REPS: usize = 3;
/// Pool queries checked over the socket against the in-process answer,
/// before the warm-up and again after the window.
const VERIFY_QUERIES: usize = 24;
/// Distinct queries serve_hot cycles through: ≈400 candidate schemas,
/// ≈4 MB of match artifacts, inside the 8 MiB artifact cache.
const HOT_QUERIES: usize = 8;
/// Pool slice the hot queries are picked from. What a warm query costs
/// follows how much text it carries (r ≈ 0.8), and eight queries are too
/// few for that to average out, so the first eight of a seed make
/// serve_hot a lottery; the eight keyword queries of median length do not.
const HOT_CANDIDATES: usize = 96;
const HOT_WARM_PASSES: usize = 5;
/// Warm-up requests of serve_broad / serve_churn, from a slice of the
/// pool the timed window never uses.
const WARM_REQUESTS: usize = 40;
/// Requests the traced pass replays in-process.
const REPLAY_REQUESTS: usize = 100;
/// Distinct queries provisioned per second of window; past that the
/// sequence wraps and `corpus.pool_wraps` says so.
const POOL_QUERIES_PER_SECOND: f64 = 120.0;
/// serve_churn's writer: every period, replace this many schemas, then
/// `IndexScheduler::tick()`.
const CHURN_PERIOD: Duration = Duration::from_millis(500);
const CHURN_BATCH: usize = 20;
/// Passes over the hot queries for the tracing-on vs tracing-off line.
const OBS_PASSES: usize = 20;

/// The request sequence: a pure function of (client, request index).
/// Clients interleave over `queries`, so no two send the same query
/// while the sequence has not wrapped.
struct Sequence<'a> {
    queries: Vec<&'a Query>,
    clients: usize,
}

impl<'a> Sequence<'a> {
    fn position(&self, client: usize, k: usize) -> usize {
        client + k * self.clients
    }

    fn get(&self, position: usize) -> &'a Query {
        self.queries[position % self.queries.len()]
    }
}

struct ClientOutcome {
    latencies_ms: Vec<f64>,
    sent: usize,
    failed: u64,
    first_error: Option<String>,
    body_bytes: u64,
}

fn client_loop(
    addr: SocketAddr,
    sequence: &Sequence<'_>,
    client_no: usize,
    start: &Barrier,
    seconds: f64,
) -> ClientOutcome {
    let mut client = Client::new(addr);
    let mut out = ClientOutcome {
        latencies_ms: Vec::with_capacity(4096),
        sent: 0,
        failed: 0,
        first_error: None,
        body_bytes: 0,
    };
    start.wait();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        let query = sequence.get(sequence.position(client_no, out.sent));
        // First byte written to last body byte read, reconnect included.
        let t = Instant::now();
        let answer = client.search(&query.bytes, LIMIT);
        let took = t.elapsed();
        out.sent += 1;
        match answer {
            Ok(()) => out.latencies_ms.push(took.as_secs_f64() * 1e3),
            Err(e) => {
                out.failed += 1;
                out.first_error.get_or_insert(e);
            }
        }
    }
    out.body_bytes = client.body_bytes;
    out
}

/// serve_churn's writer: on a fixed schedule, replace `CHURN_BATCH`
/// schemas, then tick. Runs until `stop`; a batch that is late starts at
/// once and its lateness is the reported lag.
fn writer_loop(mut replacer: Replacer<'_>, start: &Barrier, stop: &AtomicBool) -> WriteLedger {
    start.wait();
    let t0 = Instant::now();
    for batch_no in 0u32.. {
        let due = t0 + CHURN_PERIOD * batch_no;
        while !stop.load(Ordering::Relaxed) {
            match due.checked_duration_since(Instant::now()) {
                Some(wait) => std::thread::sleep(wait.min(Duration::from_millis(2))),
                None => break,
            }
        }
        if stop.load(Ordering::Relaxed) {
            break;
        }
        replacer.batch(due.elapsed().as_secs_f64() * 1e3);
    }
    replacer.finish()
}

#[derive(Default)]
struct Verification {
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
    seconds: f64,
}

/// Send each query over the socket and require the body to be byte for
/// byte what the same public functions produce in-process.
fn verify(fx: &Fixture, queries: &[&Query]) -> Verification {
    let t = Instant::now();
    let mut out = Verification::default();
    let mut client = Client::new(fx.server.addr());
    for query in queries {
        out.attempted += 1;
        let outcome = client
            .search(&query.bytes, LIMIT)
            .and_then(|()| handle(&fx.engine, &query.bytes))
            .and_then(|reference| {
                if reference.as_bytes() == client.body {
                    Ok(())
                } else {
                    Err("socket body differs from the in-process render".to_string())
                }
            });
        if let Err(e) = outcome {
            out.failed += 1;
            out.first_error.get_or_insert(e);
        }
    }
    out.seconds = t.elapsed().as_secs_f64();
    out
}

/// Send `queries` from `clients` connections, untimed; failures count.
fn warm_up(addr: SocketAddr, queries: &[&Query], clients: usize) -> (u64, u64) {
    let failed: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    let mut client = Client::new(addr);
                    queries
                        .iter()
                        .skip(c)
                        .step_by(clients)
                        .filter(|q| client.search(&q.bytes, LIMIT).is_err())
                        .count() as u64
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm-up client panicked"))
            .sum()
    });
    (queries.len() as u64, failed)
}

/// p50 of `search_detailed` on the default engine minus the same on an
/// engine built with `trace: TracerConfig::disabled()`: the
/// observability plane's own cost per search.
fn obs_overhead_us(fx: &Fixture, hot: &[&Query]) -> Result<(f64, usize), String> {
    let plain = SchemrEngine::with_config(
        fx.repo.clone(),
        EngineConfig {
            trace: TracerConfig::disabled(),
            ..EngineConfig::default()
        },
    );
    plain.reindex_full();
    let requests = hot
        .iter()
        .map(|q| decode(&q.bytes))
        .collect::<Result<Vec<_>, _>>()?;
    let (mut on, mut off) = (Vec::new(), Vec::new());
    // Pass 0 warms both engines' caches and is not recorded. The two
    // engines alternate so drift in machine load lands on both.
    for pass in 0..=OBS_PASSES {
        for sr in &requests {
            for (engine, samples) in [(&*fx.engine, &mut on), (&plain, &mut off)] {
                let t = Instant::now();
                std::hint::black_box(engine.search_detailed(sr).map_err(|e| e.to_string())?);
                if pass > 0 {
                    samples.push(t.elapsed().as_secs_f64() * 1e6);
                }
            }
        }
    }
    Ok((median(&on) - median(&off), on.len()))
}

/// Run one serving workload.
pub fn run(kind: Kind, opt: &Options) -> Result<RunResult, String> {
    let clients = match kind {
        // One core's worth of load goes to the writer.
        Kind::Churn => nproc().saturating_sub(1).max(1),
        _ => nproc(),
    };
    let window_queries = (opt.seconds * POOL_QUERIES_PER_SECOND).ceil() as usize;
    let pool_size =
        VERIFY_QUERIES + HOT_CANDIDATES + WARM_REQUESTS + window_queries + REPLAY_REQUESTS;

    // Set-up, several times over; the last build is the one served.
    let mut builds: Vec<BuildTimes> = Vec::with_capacity(SETUP_REPS);
    let mut fixture = None;
    for _ in 0..SETUP_REPS {
        // The previous build goes first, so two never share memory.
        if let Some(previous) = fixture.take() {
            shut_down(previous);
        }
        let built =
            Fixture::build(opt.seed, opt.corpus_size, pool_size).map_err(|e| e.to_string())?;
        builds.push(built.times);
        fixture = Some(built);
    }
    let fx = fixture.expect("SETUP_REPS is at least 1");
    let median_of = |f: fn(&BuildTimes) -> f64| median(&builds.iter().map(f).collect::<Vec<_>>());
    if fx.pool.len() < pool_size {
        return Err(format!(
            "query pool has {} of {pool_size} queries",
            fx.pool.len()
        ));
    }
    if fx.pool_dropped > 0 {
        eprintln!(
            "{}: {} generated queries left out (the server would refuse them)",
            kind.name(),
            fx.pool_dropped
        );
    }
    let addr = fx.server.addr();

    let (verify_slice, rest) = fx.pool.split_at(VERIFY_QUERIES);
    let (hot_slice, rest) = rest.split_at(HOT_CANDIDATES);
    let (warm_slice, window_slice) = rest.split_at(WARM_REQUESTS);
    let mut by_length: Vec<&Query> = hot_slice.iter().filter(|q| !q.is_post).collect();
    by_length.sort_by_key(|q| q.bytes.len());
    if by_length.len() < HOT_QUERIES {
        return Err("too few keyword queries among the hot candidates".to_string());
    }
    let middle = (by_length.len() - HOT_QUERIES) / 2;
    let hot = by_length[middle..middle + HOT_QUERIES].to_vec();
    // serve_hot's own queries are verified too.
    let mut verified: Vec<&Query> = verify_slice.iter().collect();
    if kind == Kind::Hot {
        verified.extend(&hot);
    }
    let sequence = Sequence {
        queries: match kind {
            Kind::Hot => hot.clone(),
            _ => window_slice.iter().collect(),
        },
        clients,
    };

    let before = verify(&fx, &verified);
    let t_rank = Instant::now();
    let mrr = mean_reciprocal_rank(&fx.engine, &fx.pool[..RANKED_QUERIES], &fx.ids)?;
    let rank_s = t_rank.elapsed().as_secs_f64();

    let t_warm = Instant::now();
    let (warm_attempted, warm_failed) = match kind {
        Kind::Hot => {
            let passes: Vec<&Query> = (0..HOT_WARM_PASSES)
                .flat_map(|_| hot.iter().copied())
                .collect();
            warm_up(addr, &passes, clients)
        }
        _ => warm_up(addr, &warm_slice.iter().collect::<Vec<_>>(), clients),
    };
    let warm_s = t_warm.elapsed().as_secs_f64();

    // The timed window (and, traced, the replay the writer runs through).
    let epoch = Instant::now();
    let stop_writer = AtomicBool::new(false);
    let start = Barrier::new(clients + 1 + usize::from(kind == Kind::Churn));
    let mut replay_log = SpanLog::new(epoch);
    let mut replay_failed = 0u64;
    let (outcomes, writer, window) = std::thread::scope(|s| {
        let writer = (kind == Kind::Churn).then(|| {
            let replacer = Replacer::new(
                &fx.engine,
                &fx.repo,
                &fx.corpus,
                fx.ids.clone(),
                opt.seed,
                WriteLedger::new(CHURN_BATCH, epoch),
            );
            let (start, stop) = (&start, &stop_writer);
            s.spawn(move || writer_loop(replacer, start, stop))
        });
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (sequence, start) = (&sequence, &start);
                s.spawn(move || client_loop(addr, sequence, c, start, opt.seconds))
            })
            .collect();
        let counters_before = Counters::read(&fx.engine);
        let (cpu0, allocs0) = (cpu_seconds(), process_alloc_count());
        start.wait();
        let t0 = Instant::now();
        let outcomes: Vec<ClientOutcome> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        let window = Window {
            elapsed_s: t0.elapsed().as_secs_f64(),
            cpu_s: cpu_seconds() - cpu0,
            allocs: process_alloc_count() - allocs0,
            counters_before,
            counters_after: Counters::read(&fx.engine),
        };
        if opt.traced {
            // The requests that come next in the sequence, single
            // threaded, every layer call in a span.
            let next = outcomes.iter().map(|o| o.sent).max().unwrap_or(0) * clients;
            for i in 0..REPLAY_REQUESTS {
                let query = sequence.get(next + i);
                if handle_traced(&fx.engine, &query.bytes, &mut replay_log, i).is_err() {
                    replay_failed += 1;
                }
            }
        }
        stop_writer.store(true, Ordering::Relaxed);
        let writer = writer.map(|h| h.join().expect("writer thread panicked"));
        (outcomes, writer, window)
    });

    let after = verify(&fx, &verified);

    // End-to-end numbers.
    let latencies = sorted(
        outcomes
            .iter()
            .flat_map(|o| o.latencies_ms.iter().copied())
            .collect(),
    );
    let ok = latencies.len();
    let sent: usize = outcomes.iter().map(|o| o.sent).sum();
    let window_failed: u64 = outcomes.iter().map(|o| o.failed).sum();
    let writer_failed = writer.as_ref().map_or(0, |w| w.failed);
    let failed =
        before.failed + after.failed + warm_failed + window_failed + writer_failed + replay_failed;
    for e in [&before.first_error, &after.first_error]
        .into_iter()
        .chain(outcomes.iter().map(|o| &o.first_error))
        .flatten()
    {
        eprintln!("{}: failed operation: {e}", kind.name());
    }
    let mut values = Values::default();
    let docs = fx.corpus.len() as f64;
    values.set("setup_s", median_of(|b| b.total_s) + warm_s, SETUP_REPS);
    values.set("throughput_ops_s", ratio(ok as f64, window.elapsed_s), ok);
    values.set("latency_p50_ms", percentile(&latencies, 0.5), ok);
    values.set("latency_p90_ms", percentile(&latencies, 0.9), ok);
    values.set(
        "process.cpu_ms_per_op",
        ratio(window.cpu_s * 1e3, ok as f64),
        ok,
    );
    values.set("allocs_per_op", ratio(window.allocs as f64, ok as f64), ok);
    values.set("peak_rss_mb", peak_rss_mb(), 1);
    values.set("mrr_at_10", mrr, RANKED_QUERIES);
    values.set(
        "core.ingest_docs_per_s",
        ratio(docs, median_of(|b| b.insert_s + b.reindex_s)),
        SETUP_REPS,
    );
    values.set(
        "core.cold_start_s",
        median_of(|b| b.cold_start_s),
        SETUP_REPS,
    );

    if opt.traced {
        let wraps = sent.saturating_sub(1) / sequence.queries.len();
        values.set(
            "corpus.pool_wraps",
            if kind == Kind::Hot { 0.0 } else { wraps as f64 },
            sent,
        );
        values.set("corpus.generate_s", median_of(|b| b.generate_s), SETUP_REPS);
        values.set("corpus.schemas", docs, 1);
        values.set("index.build_s", median_of(|b| b.reindex_s), SETUP_REPS);
        values.set(
            "repo.insert_us_per_doc",
            ratio(median_of(|b| b.insert_s) * 1e6, docs),
            fx.corpus.len(),
        );
        values.set("server.latency_p99_ms", percentile(&latencies, 0.99), ok);
        values.set(
            "server.response_bytes",
            ratio(
                outcomes.iter().map(|o| o.body_bytes).sum::<u64>() as f64,
                ok as f64,
            ),
            ok,
        );
        window
            .counters_after
            .report(&window.counters_before, ok, &mut values);
        report_resident(&fx.engine, &mut values);
        if let Some(w) = &writer {
            w.report(&mut values);
        }
        report_replay(&replay_log, percentile(&latencies, 0.5), &mut values);
        if kind == Kind::Hot {
            let (overhead, samples) = obs_overhead_us(&fx, &hot)?;
            values.set("obs.overhead_us_per_search", overhead, samples);
        }
        if let Some(w) = writer {
            replay_log.absorb(w.log);
        }
        replay_log
            .write_jsonl(&opt.trace_out)
            .map_err(|e| format!("{}: {e}", opt.trace_out.display()))?;
    }

    shut_down(fx);
    let replayed = if opt.traced { REPLAY_REQUESTS } else { 0 };
    Ok(RunResult {
        workload: kind.name(),
        seed: opt.seed,
        traced: opt.traced,
        seconds: opt.seconds,
        corpus_schemas: docs as usize,
        clients,
        attempted: before.attempted + after.attempted + warm_attempted + (sent + replayed) as u64,
        failed,
        verify_s: before.seconds + rank_s + after.seconds,
        values,
    })
}

struct Window {
    elapsed_s: f64,
    cpu_s: f64,
    allocs: u64,
    counters_before: Counters,
    counters_after: Counters,
}

/// Drain the server, then drop the engine and the corpus.
fn shut_down(fx: Fixture) {
    let Fixture { server, .. } = fx;
    server.shutdown();
}

/// Per-layer timings out of the replay's spans, and the reconciliation
/// line: what the socket's p50 has that no in-process span accounts for.
fn report_replay(log: &SpanLog, socket_p50_ms: f64, out: &mut Values) {
    let p50 = |name: &str| {
        let samples = log.micros_of(name);
        (median(&samples), samples.len())
    };
    let mut set_p50 = |metric: &'static str, span: &str, per_ms: bool| {
        let (us, n) = p50(span);
        out.set(metric, if per_ms { us / 1e3 } else { us }, n);
    };
    set_p50("server.http_parse_us", "server.http_parse", false);
    set_p50("server.xml_render_us", "server.xml_render", false);
    set_p50("server.http_write_us", "server.http_write", false);
    set_p50("parse.fragment_us", "parse.fragment", false);
    set_p50("core.search_ms", "core.search", true);
    set_p50("core.tightness_us", "core.tightness", false);
    set_p50("index.phase1_us", "index.phase1", false);
    set_p50("matchers.phase2_ms", "matchers.phase2", true);
    set_p50("repo.get_us_per_candidate", "repo.get", false);
    set_p50("server.inprocess_p50_ms", "server.request", true);

    let phase1 = log.micros_of("index.phase1");
    out.set("index.phase1_mean_us", mean(&phase1), phase1.len());
    // Summed over match threads, so a mean per request, not a p50.
    for (metric, span) in [
        ("matchers.name_us", "matchers.name"),
        ("matchers.context_us", "matchers.context"),
    ] {
        let walls = log.micros_of(span);
        out.set(metric, mean(&walls), walls.len());
    }
    let own = log.self_times_ns();
    let search_self: Vec<f64> = log
        .spans()
        .iter()
        .filter(|s| s.name == "core.search")
        .map(|s| own[s.id as usize] as f64 / 1e3)
        .collect();
    out.set(
        "core.search_self_us",
        median(&search_self),
        search_self.len(),
    );

    let (inprocess_us, n) = p50("server.request");
    let unattributed = socket_p50_ms - inprocess_us / 1e3;
    out.set("server.unattributed_ms", unattributed, n);
    out.set(
        "server.unattributed_share",
        ratio(unattributed, socket_p50_ms),
        n,
    );
}
