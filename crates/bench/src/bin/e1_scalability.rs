//! **E1 — Search latency and phase breakdown vs corpus size.**
//!
//! The paper claims the document index is "a fast and scalable filter for
//! relevant candidate schemas" and demonstrates search over 30,000 public
//! schemas. This harness measures, per corpus size: mean end-to-end search
//! latency, the per-phase breakdown (candidate extraction / matching /
//! tightness scoring), and the index size. Per-phase p50/p95/p99 come from
//! the engine's own `schemr_phase_seconds` histograms (the same series
//! `/metrics` exports) and are written to `results/e1_scalability.json`.
//!
//! Run with `cargo run --release -p schemr-bench --bin e1_scalability`
//! (pass `--quick` for a fast smoke run).
//!
//! Pass `--check-overhead` to instead compare traced vs untraced search
//! latency on one corpus (per-query paired timings, median ratio) and exit
//! nonzero when request tracing costs more than 5% — the CI guard that
//! keeps `schemr-trace` honest about being cheap enough to leave on.
//!
//! Pass `--phase2` to measure Phase 2 matching cost instead: large
//! candidate sets (raised `top_candidates`) over wide generated schemas,
//! per-candidate matching wall time (p50/p95/p99) and an
//! allocations-per-query proxy (a counting global allocator), with a cold
//! artifact cache (every query invalidated: each candidate's names are
//! re-analyzed and its words looked up again in the engine's lexicon,
//! which stays warm) and a warm one. Results land
//! in `results/e2_matching.json`. Combine with `--check-speedup` to exit
//! nonzero unless the artifact cache does what it is for: the warm pass
//! misses no artifact, the cold pass hits none, and warm matching is no
//! slower per candidate than cold. (How much faster is reported, not
//! gated: it is a ratio against the cost of a cold prepare, and making
//! that cheap must not turn the guard red.) Combine with
//! `--check-kernel` to also gate the intersection kernel: a synthetic
//! count oracle checks `intersection_size` against a bench-local scalar
//! merge across dense / asymmetric / large regimes before anything is
//! timed; then a paired microbenchmark of the kernel against the scalar
//! reference must clear its speedup bar (when the `simd` feature is
//! compiled in).

use schemr::EngineConfig;
use schemr_bench::{Table, Testbed};
use schemr_corpus::{
    Corpus, CorpusConfig, GeneratedQuery, GeneratorConfig, Workload, WorkloadConfig,
};
use schemr_match::Ensemble;
use schemr_obs::alloc::{process_alloc_count, CountingAlloc};
use schemr_obs::{HistogramSnapshot, TracerConfig};
use schemr_text::GramSet;
use std::time::{Duration, Instant};

// The shared counting allocator from `obs::alloc` — the
// allocations-per-query proxy the `--phase2` report uses, and the same
// type the per-query ledger reads when a server opts in via the
// `obs-alloc` feature. One relaxed atomic add per allocation — cheap
// enough to leave on for every mode.
#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const PHASES: &[&str] = &["candidate_extraction", "matching", "scoring"];

/// One corpus size's measurements, ready for the JSON report.
struct SizeReport {
    corpus: usize,
    docs: usize,
    terms: usize,
    queries: usize,
    mean_total_ms: f64,
    mean_candidates: f64,
    /// Mean scheduled CPU per query in ms, from the per-query resource
    /// ledger (can exceed wall time under parallel matching).
    mean_cpu_ms: f64,
    /// Mean allocator calls per query, from the ledger (the bench
    /// installs the counting allocator).
    mean_allocs: f64,
    /// `(phase, snapshot)` in `PHASES` order.
    phases: Vec<(&'static str, HistogramSnapshot)>,
}

fn json_report(top_candidates: usize, sizes: &[SizeReport]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"experiment\": \"e1_scalability\",\n");
    out.push_str(&format!("  \"top_candidates\": {top_candidates},\n"));
    out.push_str("  \"sizes\": [\n");
    for (i, s) in sizes.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"corpus\": {},\n", s.corpus));
        out.push_str(&format!("      \"docs\": {},\n", s.docs));
        out.push_str(&format!("      \"terms\": {},\n", s.terms));
        out.push_str(&format!("      \"queries\": {},\n", s.queries));
        out.push_str(&format!(
            "      \"mean_total_ms\": {:.4},\n",
            s.mean_total_ms
        ));
        out.push_str(&format!(
            "      \"mean_candidates\": {:.2},\n",
            s.mean_candidates
        ));
        out.push_str(&format!("      \"mean_cpu_ms\": {:.4},\n", s.mean_cpu_ms));
        out.push_str(&format!("      \"mean_allocs\": {:.0},\n", s.mean_allocs));
        out.push_str("      \"phases\": {\n");
        for (j, (name, snap)) in s.phases.iter().enumerate() {
            out.push_str(&format!(
                "        \"{}\": {{\"count\": {}, \"p50_ms\": {:.4}, \"p95_ms\": {:.4}, \"p99_ms\": {:.4}}}{}\n",
                name,
                snap.count,
                snap.quantile(0.50) * 1e3,
                snap.quantile(0.95) * 1e3,
                snap.quantile(0.99) * 1e3,
                if j + 1 < s.phases.len() { "," } else { "" }
            ));
        }
        out.push_str("      }\n");
        out.push_str(&format!(
            "    }}{}\n",
            if i + 1 < sizes.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Wall-clock for one full pass over the workload.
fn run_workload(bed: &Testbed, workload: &Workload) -> f64 {
    let start = Instant::now();
    for q in &workload.queries {
        bed.engine
            .search_detailed(&Testbed::to_request(q, 10))
            .expect("nonempty query");
    }
    start.elapsed().as_secs_f64()
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

/// Wall-clock for one query on one engine.
fn time_query(bed: &Testbed, q: &GeneratedQuery) -> f64 {
    let start = Instant::now();
    bed.engine
        .search_detailed(&Testbed::to_request(q, 10))
        .expect("nonempty query");
    start.elapsed().as_secs_f64()
}

/// `--check-overhead`: full-observability vs obs-off latency on one
/// corpus.
///
/// The traced side runs with `EngineConfig::default()`, which means
/// span tracing *plus* the per-query resource ledger (thread-CPU probes
/// on every phase and worker the measured probe depth affords) — every
/// per-search observability cost, priced together.
/// Each query is timed on both engines back to back (alternating which
/// side goes first), and the verdict is the median of the per-query
/// traced/untraced ratios. Pairing adjacent timings cancels the slow
/// machine drift (CPU frequency, co-tenants) that dominates round-level
/// comparisons on shared hardware, and the median discards the pairs a
/// scheduler hiccup lands in. Returns the process exit code.
fn check_overhead(quick: bool) -> i32 {
    let size = if quick { 1_000 } else { 5_000 };
    let queries = if quick { 30 } else { 60 };
    let rounds = if quick { 7 } else { 11 };
    const BUDGET_PCT: f64 = 5.0;

    let corpus = Corpus::generate(&CorpusConfig {
        target_size: size,
        seed: 42,
        ..CorpusConfig::default()
    });
    let workload = Workload::generate(
        &corpus,
        &WorkloadConfig {
            queries,
            seed: 7,
            ..Default::default()
        },
    );
    let traced = Testbed::build_with_config(&corpus, EngineConfig::default());
    let untraced = Testbed::build_with_config(
        &corpus,
        EngineConfig {
            trace: TracerConfig::disabled(),
            ..EngineConfig::default()
        },
    );

    // The traced engine must actually be paying for everything this
    // check prices: a trace and a ledger on every response.
    let probe_resp = traced
        .engine
        .search_detailed(&Testbed::to_request(&workload.queries[0], 10))
        .expect("nonempty query");
    assert!(
        probe_resp.trace_id.is_some() && probe_resp.ledger.is_some(),
        "traced responses must carry a trace and a resource ledger"
    );

    // Warm both engines before timing anything.
    run_workload(&traced, &workload);
    run_workload(&untraced, &workload);

    // One measurement block: every query timed on both engines back to
    // back (alternating which side goes first), repeated for `rounds`
    // rounds; the per-query estimate is the minimum across rounds —
    // under purely additive interference (a co-tenant stealing a core, a
    // scheduler hiccup) the fastest observation is the closest to the
    // intrinsic cost — and the block's verdict is the median of the
    // per-query ratios of minima.
    let measure = || {
        let n = workload.queries.len();
        let mut best_on = vec![f64::INFINITY; n];
        let mut best_off = vec![f64::INFINITY; n];
        let mut on_total = 0.0;
        let mut off_total = 0.0;
        for round in 0..rounds {
            for (qi, q) in workload.queries.iter().enumerate() {
                let (t_on, t_off) = if (round + qi) % 2 == 0 {
                    let on = time_query(&traced, q);
                    let off = time_query(&untraced, q);
                    (on, off)
                } else {
                    let off = time_query(&untraced, q);
                    let on = time_query(&traced, q);
                    (on, off)
                };
                on_total += t_on;
                off_total += t_off;
                best_on[qi] = best_on[qi].min(t_on);
                best_off[qi] = best_off[qi].min(t_off);
            }
        }
        let mut ratios: Vec<f64> = best_on
            .iter()
            .zip(&best_off)
            .filter(|(_, off)| **off > 0.0)
            .map(|(on, off)| on / off)
            .collect();
        ((median(&mut ratios) - 1.0) * 100.0, on_total, off_total)
    };

    println!("E1 --check-overhead: observability cost, per-query paired timings");
    println!("  traced side: span tracing + resource ledger");
    println!("  corpus {size}, {queries} queries x {rounds} rounds, best-of-rounds per query");

    // A measurement block can only over-report: interference is additive
    // and lands on either side at random, so a block that says "within
    // budget" had a window calm enough to see the intrinsic costs, while
    // a block that says "over budget" may just have been unlucky — this
    // box loses double-digit percentages to co-tenants for seconds at a
    // time. Re-measuring on failure converts that asymmetry into a
    // stable gate: transient noise has to corrupt every attempt to force
    // a false failure, while a real regression fails all of them.
    const ATTEMPTS: usize = 4;
    let mut verdicts = Vec::with_capacity(ATTEMPTS);
    for attempt in 1..=ATTEMPTS {
        let (overhead_pct, on_total, off_total) = measure();
        println!(
            "  attempt {attempt}: overhead {overhead_pct:+.2}% \
             (obs on {:.0} ms, obs off {:.0} ms, budget {BUDGET_PCT}%)",
            on_total * 1e3,
            off_total * 1e3
        );
        verdicts.push(overhead_pct);
        if overhead_pct < BUDGET_PCT {
            println!("  PASS: observability fits the {BUDGET_PCT}% budget");
            return 0;
        }
    }
    let all = verdicts
        .iter()
        .map(|v| format!("{v:+.2}%"))
        .collect::<Vec<_>>()
        .join(" ");
    println!(
        "  FAIL: observability exceeds the {BUDGET_PCT}% budget in all {ATTEMPTS} attempts ({all})"
    );
    1
}

/// Per-candidate matching samples and allocation counts for one
/// `--phase2` configuration.
struct Phase2Segment {
    /// Per-query `matching wall / candidates evaluated`, in seconds.
    samples: Vec<f64>,
    /// Allocations observed across the segment's search calls.
    allocs: u64,
    /// Search calls in the segment.
    queries: u64,
}

impl Phase2Segment {
    fn sorted(mut self) -> Self {
        self.samples
            .sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        self
    }

    /// Quantile of the (sorted) per-candidate cost, in microseconds.
    fn us(&self, q: f64) -> f64 {
        let i = ((self.samples.len() - 1) as f64 * q).round() as usize;
        self.samples[i] * 1e6
    }

    fn allocs_per_query(&self) -> f64 {
        self.allocs as f64 / self.queries as f64
    }
}

/// One pass over the workload on `bed`, sampling per-candidate matching
/// cost. When `invalidate`, the ensemble generation is bumped before
/// every query so each search sees a fully cold artifact cache.
fn phase2_pass(bed: &Testbed, workload: &Workload, invalidate: bool, seg: &mut Phase2Segment) {
    for q in &workload.queries {
        if invalidate {
            // Replacing the ensemble stamps a new generation: every
            // cached artifact goes stale, so this query re-analyzes every
            // candidate name and looks its words up again — the cold
            // measurement. The engine's word lexicon survives the bump,
            // so gram sets are not rebuilt; the memo starts empty on
            // every search, cold or warm.
            bed.engine.set_ensemble(Ensemble::standard());
        }
        let a0 = process_alloc_count();
        let resp = bed
            .engine
            .search_detailed(&Testbed::to_request(q, 10))
            .expect("nonempty query");
        seg.allocs += process_alloc_count() - a0;
        seg.queries += 1;
        if resp.candidates_evaluated > 0 {
            seg.samples
                .push(resp.timings.matching.as_secs_f64() / resp.candidates_evaluated as f64);
        }
    }
}

/// Deterministic splitmix64 — the bench-local PRNG for the synthetic
/// kernel oracle (independent of `rand`'s shimmed distributions).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The bench-local reference the kernel is checked and timed against: a
/// plain scalar two-pointer merge count over sorted-dedup slices.
fn reference_merge_count(a: &[u64], b: &[u64]) -> usize {
    let (mut i, mut j, mut n) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// The synthetic kernel oracle plus paired microbenchmark.
///
/// Across regimes chosen to drive every `intersection_size` dispatch
/// path — dense block-merge bodies, vector-width multiples, the
/// galloping branch, sub-vector scalar tails, disjoint and heavily
/// overlapping pools — the kernel must report exactly the reference
/// merge count. The merge-path regimes (size ratio below the galloping
/// threshold) are then timed, best-of-rounds, against the scalar
/// reference on identical pairs. Returns the kernel's speedup over the
/// reference; panics on any count mismatch.
fn kernel_oracle_and_microbench() -> f64 {
    // (|a|, |b|, shared per mille, timed): `timed` marks merge-path
    // regimes — asymmetric pairs dispatch to galloping in both builds,
    // so timing them would not isolate the kernel.
    const REGIMES: &[(usize, usize, u64, bool)] = &[
        (64, 64, 300, true),
        (512, 512, 1000, true),
        (1_000, 900, 0, true),
        (4_096, 4_096, 200, true),
        (40, 4_000, 500, false), // ratio ≥ GALLOP_RATIO → galloping path
        (7, 5, 400, false),      // below vector width → scalar tail only
    ];
    const PAIRS: usize = 24;
    const REPS: usize = 48;
    const ROUNDS: usize = 5;

    let mut state = 0x5EED_u64;
    let pool: Vec<u64> = (0..4096).map(|_| splitmix64(&mut state)).collect();
    let mut draw = |len: usize, shared_per_mille: u64| -> Vec<u64> {
        let mut v = Vec::with_capacity(len);
        for _ in 0..len {
            let r = splitmix64(&mut state);
            if r % 1000 < shared_per_mille {
                v.push(pool[(splitmix64(&mut state) % pool.len() as u64) as usize]);
            } else {
                v.push(r);
            }
        }
        v
    };

    let mut timed_pairs: Vec<(GramSet, GramSet, Vec<u64>, Vec<u64>)> = Vec::new();
    for &(la, lb, shared, timed) in REGIMES {
        for p in 0..PAIRS {
            let (ra, rb) = (draw(la, shared), draw(lb, shared));
            let sorted = |mut v: Vec<u64>| {
                v.sort_unstable();
                v.dedup();
                v
            };
            let (sa, sb) = (sorted(ra.clone()), sorted(rb.clone()));
            let (ga, gb) = (GramSet::from_hashes(ra), GramSet::from_hashes(rb));
            assert_eq!(
                ga.intersection_size(&gb),
                reference_merge_count(&sa, &sb),
                "kernel oracle: regime ({la},{lb},{shared}), pair {p}: \
                 intersection_size disagrees with the scalar reference"
            );
            if timed {
                timed_pairs.push((ga, gb, sa, sb));
            }
        }
    }

    // Paired best-of-rounds timing on the merge-path pairs (the oracle
    // pass above already resolved the process-wide kernel OnceLock).
    let (mut best_kernel, mut best_ref) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..ROUNDS {
        let start = Instant::now();
        let mut acc = 0usize;
        for _ in 0..REPS {
            for (ga, gb, _, _) in &timed_pairs {
                acc += std::hint::black_box(ga).intersection_size(std::hint::black_box(gb));
            }
        }
        let t_kernel = start.elapsed().as_secs_f64();
        std::hint::black_box(acc);

        let start = Instant::now();
        let mut acc = 0usize;
        for _ in 0..REPS {
            for (_, _, sa, sb) in &timed_pairs {
                acc += reference_merge_count(std::hint::black_box(sa), std::hint::black_box(sb));
            }
        }
        let t_ref = start.elapsed().as_secs_f64();
        std::hint::black_box(acc);

        best_kernel = best_kernel.min(t_kernel);
        best_ref = best_ref.min(t_ref);
    }
    best_ref / best_kernel.max(1e-12)
}

/// `--phase2`: per-candidate Phase 2 cost with a cold and a warm
/// artifact cache. Returns the process exit code (nonzero only under
/// `--check-speedup` when the warm pass misses an artifact, the cold
/// pass hits one, or warm is slower than cold; or under `--check-kernel`
/// when the intersection kernel misses its bar).
fn run_phase2(quick: bool, check_speedup: bool, check_kernel: bool) -> i32 {
    let size = if quick { 400 } else { 2_000 };
    let queries = if quick { 12 } else { 30 };
    let rounds = if quick { 3 } else { 5 };
    let top = if quick { 100 } else { 200 };
    // The kernel bar applies only when the `simd` feature is compiled in:
    // the AVX2 block merge must beat the bench-local scalar merge on the
    // merge-path regimes. Without the feature the dispatch resolves to an
    // equivalent scalar merge and the microbenchmark is reported but not
    // gated.
    const KERNEL_BAR: f64 = 1.2;

    // Wide schemas: more elements per candidate → matching dominates.
    let corpus = Corpus::generate(&CorpusConfig {
        target_size: size,
        seed: 42,
        generator: GeneratorConfig {
            entities: (4, 9),
            attributes: (8, 18),
            ..GeneratorConfig::default()
        },
        ..CorpusConfig::default()
    });
    let workload = Workload::generate(
        &corpus,
        &WorkloadConfig {
            queries,
            seed: 7,
            ..Default::default()
        },
    );
    // A raised candidate budget so Phase 2 is the bulk of every search.
    let bed = Testbed::build_with_config(
        &corpus,
        EngineConfig {
            top_candidates: top,
            match_artifact_cache_bytes: 64 * 1024 * 1024,
            ..EngineConfig::default()
        },
    );

    // The synthetic kernel oracle runs before anything is timed (it also
    // microbenchmarks the merge kernel against a bench-local scalar
    // reference).
    let kernel_speedup = kernel_oracle_and_microbench();

    // Warm the OS/caches once before any timing.
    run_workload(&bed, &workload);

    let segment = || Phase2Segment {
        samples: Vec::new(),
        allocs: 0,
        queries: 0,
    };
    let reg = bed.engine.metrics_registry();
    let counter = |name: &str| reg.counter_value(name, &[]).unwrap_or(0);
    let hits_and_misses = || {
        (
            counter("schemr_match_artifact_cache_hits_total"),
            counter("schemr_match_artifact_cache_misses_total"),
        )
    };
    let (mut cold, mut warm) = (segment(), segment());
    let (hits_before_cold, _) = hits_and_misses();
    for _ in 0..rounds {
        phase2_pass(&bed, &workload, true, &mut cold);
    }
    let cold_hits = hits_and_misses().0 - hits_before_cold;
    // Prime once after the cold segment's final invalidation, then
    // measure warm rounds — every candidate served from the cache.
    run_workload(&bed, &workload);
    let (_, misses_before_warm) = hits_and_misses();
    for _ in 0..rounds {
        phase2_pass(&bed, &workload, false, &mut warm);
    }
    let warm_misses = hits_and_misses().1 - misses_before_warm;
    let cold = cold.sorted();
    let warm = warm.sorted();
    let speedup_vs_cold = cold.us(0.50) / warm.us(0.50);

    let (hits, misses) = hits_and_misses();
    let (evictions, invalidations) = (
        counter("schemr_match_artifact_cache_evictions_total"),
        counter("schemr_match_artifact_cache_invalidations_total"),
    );
    let (bytes_in, bytes_out) = (
        counter("schemr_match_artifact_cache_bytes_inserted_total"),
        counter("schemr_match_artifact_cache_bytes_evicted_total"),
    );

    println!(
        "E1 --phase2: per-candidate matching cost, corpus {size}, top-n {top}, {} queries x {rounds} rounds\n",
        workload.queries.len()
    );
    let mut table = Table::new(&[
        "segment",
        "p50 (us)",
        "p95 (us)",
        "p99 (us)",
        "allocs/query",
    ]);
    for (name, seg) in [("cache cold", &cold), ("cache warm", &warm)] {
        table.row(&[
            name.into(),
            format!("{:.2}", seg.us(0.50)),
            format!("{:.2}", seg.us(0.95)),
            format!("{:.2}", seg.us(0.99)),
            format!("{:.0}", seg.allocs_per_query()),
        ]);
    }
    table.print();
    println!(
        "\nper-candidate p50: cold {:.2} us ({cold_hits} artifact hits), warm {:.2} us \
         ({warm_misses} artifact misses) — warm is {speedup_vs_cold:.2}x faster",
        cold.us(0.50),
        warm.us(0.50),
    );
    println!(
        "kernel: simd {}, {kernel_speedup:.2}x vs scalar reference on merge-path regimes",
        if cfg!(feature = "simd") { "on" } else { "off" },
    );
    println!(
        "artifact cache: {hits} hits, {misses} misses, {evictions} evictions, {invalidations} invalidations, {bytes_in} bytes in, {bytes_out} bytes evicted"
    );

    let seg_json = |seg: &Phase2Segment| {
        format!(
            "{{\"per_candidate_us\": {{\"p50\": {:.3}, \"p95\": {:.3}, \"p99\": {:.3}}}, \"allocs_per_query\": {:.0}}}",
            seg.us(0.50),
            seg.us(0.95),
            seg.us(0.99),
            seg.allocs_per_query()
        )
    };
    let json = format!(
        "{{\n  \"experiment\": \"e2_matching\",\n  \"corpus\": {size},\n  \"top_candidates\": {top},\n  \"queries\": {},\n  \"rounds\": {rounds},\n  \"cold\": {},\n  \"warm\": {},\n  \"speedup_warm_vs_cold\": {speedup_vs_cold:.2},\n  \"kernel\": {{\"simd_compiled\": {}, \"speedup_vs_scalar\": {kernel_speedup:.2}}},\n  \"artifact_cache\": {{\"hits\": {hits}, \"misses\": {misses}, \"evictions\": {evictions}, \"invalidations\": {invalidations}, \"bytes_inserted\": {bytes_in}, \"bytes_evicted\": {bytes_out}}}\n}}\n",
        workload.queries.len(),
        seg_json(&cold),
        seg_json(&warm),
        cfg!(feature = "simd"),
    );
    let out_path = std::path::Path::new("results").join("e2_matching.json");
    match std::fs::create_dir_all("results").and_then(|()| std::fs::write(&out_path, &json)) {
        Ok(()) => println!("\nwrote matching measurements to {}", out_path.display()),
        Err(e) => eprintln!("\ncould not write {}: {e}", out_path.display()),
    }

    let mut failures = Vec::new();
    if check_speedup {
        if warm_misses > 0 {
            failures.push(format!(
                "the warm pass missed {warm_misses} artifacts (every candidate should be cached)"
            ));
        }
        if cold_hits > 0 {
            failures.push(format!(
                "the cold pass hit {cold_hits} artifacts (every query should invalidate them all)"
            ));
        }
        if warm.us(0.50) > cold.us(0.50) {
            failures.push(format!(
                "warm matching is slower than cold: p50 {:.2} us vs {:.2} us per candidate",
                warm.us(0.50),
                cold.us(0.50)
            ));
        }
    }
    if check_kernel && cfg!(feature = "simd") && kernel_speedup < KERNEL_BAR {
        failures.push(format!(
            "simd kernel is only {kernel_speedup:.2}x vs the scalar reference (bar {KERNEL_BAR}x)"
        ));
    }
    if check_speedup || check_kernel {
        if failures.is_empty() {
            println!(
                "\nPASS: warm pass {warm_misses} artifact misses, cold pass {cold_hits} hits, \
                 warm p50 {:.2} us vs cold {:.2} us ({speedup_vs_cold:.2}x); kernel \
                 {kernel_speedup:.2}x, counts equal to the scalar reference",
                warm.us(0.50),
                cold.us(0.50),
            );
            0
        } else {
            for f in &failures {
                println!("\nFAIL: {f}");
            }
            1
        }
    } else {
        println!(
            "\nExpected shape: warm-cache matching skips all text analysis (cached\n\
             word-id artifacts + memoised word pairs only), so its per-candidate\n\
             cost and allocations sit well below the cold cache's."
        );
        0
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    if std::env::args().any(|a| a == "--check-overhead") {
        std::process::exit(check_overhead(quick));
    }
    if std::env::args().any(|a| a == "--phase2") {
        let check = std::env::args().any(|a| a == "--check-speedup");
        let check_kernel = std::env::args().any(|a| a == "--check-kernel");
        std::process::exit(run_phase2(quick, check, check_kernel));
    }
    let sizes: &[usize] = if quick {
        &[500, 1_000, 2_000]
    } else {
        &[1_000, 5_000, 10_000, 30_000]
    };
    let queries = if quick { 10 } else { 40 };

    println!("E1: search latency & phase breakdown vs corpus size (top-n = 50)\n");
    let mut table = Table::new(&[
        "corpus",
        "docs",
        "terms",
        "p1 (ms)",
        "p2 (ms)",
        "p3 (ms)",
        "total (ms)",
        "p95 sum",
        "candidates",
        "cpu (ms)",
        "allocs",
    ]);
    let mut reports: Vec<SizeReport> = Vec::with_capacity(sizes.len());
    for &size in sizes {
        let corpus = Corpus::generate(&CorpusConfig {
            target_size: size,
            seed: 42,
            ..CorpusConfig::default()
        });
        let bed = Testbed::build(&corpus);
        let workload = Workload::generate(
            &corpus,
            &WorkloadConfig {
                queries,
                seed: 7,
                ..Default::default()
            },
        );
        let mut p1 = Duration::ZERO;
        let mut p2 = Duration::ZERO;
        let mut p3 = Duration::ZERO;
        let mut cands = 0usize;
        let mut cpu_us = 0u64;
        let mut allocs = 0u64;
        for q in &workload.queries {
            let resp = bed
                .engine
                .search_detailed(&Testbed::to_request(q, 10))
                .expect("nonempty query");
            p1 += resp.timings.candidate_extraction;
            p2 += resp.timings.matching;
            p3 += resp.timings.scoring;
            cands += resp.candidates_evaluated;
            if let Some(ledger) = resp.ledger {
                cpu_us += ledger.cpu_us;
                allocs += ledger.alloc_count;
            }
        }
        // Each testbed has a private registry, so these snapshots cover
        // exactly this corpus size's workload.
        let registry = bed.engine.metrics_registry();
        let phases: Vec<(&'static str, HistogramSnapshot)> = PHASES
            .iter()
            .map(|&phase| {
                let snap = registry
                    .histogram_snapshot("schemr_phase_seconds", &[("phase", phase)])
                    .expect("engine registers phase histograms");
                (phase, snap)
            })
            .collect();
        let n = workload.queries.len() as f64;
        let ms = |d: Duration| format!("{:.2}", d.as_secs_f64() * 1000.0 / n);
        let stats = bed.engine.index_stats();
        let p95_total_ms: f64 = phases.iter().map(|(_, s)| s.quantile(0.95) * 1e3).sum();
        table.row(&[
            size.to_string(),
            stats.live_docs.to_string(),
            stats.distinct_terms.to_string(),
            ms(p1),
            ms(p2),
            ms(p3),
            format!("{:.2}", (p1 + p2 + p3).as_secs_f64() * 1000.0 / n),
            format!("{p95_total_ms:.2}"),
            format!("{:.1}", cands as f64 / n),
            format!("{:.2}", cpu_us as f64 / 1e3 / n),
            format!("{:.0}", allocs as f64 / n),
        ]);
        reports.push(SizeReport {
            corpus: size,
            docs: stats.live_docs,
            terms: stats.distinct_terms,
            queries: workload.queries.len(),
            mean_total_ms: (p1 + p2 + p3).as_secs_f64() * 1e3 / n,
            mean_candidates: cands as f64 / n,
            mean_cpu_ms: cpu_us as f64 / 1e3 / n,
            mean_allocs: allocs as f64 / n,
            phases,
        });
    }
    table.print();

    let json = json_report(50, &reports);
    let out_path = std::path::Path::new("results").join("e1_scalability.json");
    match std::fs::create_dir_all("results").and_then(|()| std::fs::write(&out_path, &json)) {
        Ok(()) => println!("\nwrote per-phase p50/p95/p99 to {}", out_path.display()),
        Err(e) => eprintln!("\ncould not write {}: {e}", out_path.display()),
    }
    println!(
        "\nExpected shape: phase 1 grows sublinearly with corpus size (inverted index);\n\
         phases 2+3 are flat (bounded by top-n candidates), so total latency stays\n\
         interactive at 30k schemas — the paper's scalability claim."
    );
}
