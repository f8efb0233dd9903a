//! The benchmark's fixed vocabulary — workload and metric names, units,
//! directions and bounds — and the documents built from it: the result
//! line the driver reads, the `--out` document, and `--compare`.
//!
//! `BENCHMARK.json` at the repo root lists the same names; a test below
//! fails when the two drift apart.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use schemr_obs::json::{escape, Json};

use crate::stats::{highest_supported_percentile, median};
use crate::sys::Fingerprint;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric of the catalog.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before it counts as a regression; `None` for a per-layer metric.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// The workloads, with the one sentence on why each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "serve_hot",
        "8 keyword queries round-robin, so both caches hit: server (parse, render, write, queue, socket) and the warm matchers kernel carry the request; an index change must show nothing here",
    ),
    (
        "serve_broad",
        "every request a distinct query in the paper's mix: candidate cache misses, artifact cache thrashes; index phase 1, parse, repo.get and matchers prepare+score do the work, server the small share",
    ),
    (
        "serve_churn",
        "serve_broad's reads from 1 client beside a writer replacing 20 schemas + tick every 500 ms: revision bumps and head publishes under search; a read gain that costs writers shows only here",
    ),
    (
        "ingest",
        "no serving: bulk insert + reindex_full, save_index, load_index + first query, small replace batches + tick; index, repo and codec do all the work, matchers and server none",
    ),
];

/// What a user of the system sees. Every workload reports every one of
/// these; an *op* is one request (serve_*) or one document written
/// (ingest).
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("throughput_ops_s", "1/s", Higher, 0.25),
    e2e("latency_p50_ms", "ms", Lower, 0.25),
    e2e("latency_p90_ms", "ms", Lower, 0.25),
    e2e("allocs_per_op", "count", Lower, 0.15),
    e2e("peak_rss_mb", "MiB", Lower, 0.05),
    e2e("mrr_at_10", "ratio", Higher, 0.25),
];

/// One number per layer underneath, `<crate>.<name>`. A metric a
/// workload does not exercise reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    layer("process.cpu_ms_per_op", "ms", Lower),
    layer("server.http_parse_us", "us", Lower),
    layer("server.xml_render_us", "us", Lower),
    layer("server.http_write_us", "us", Lower),
    layer("server.queue_wait_us", "us", Lower),
    layer("server.handler_ms", "ms", Lower),
    layer("server.shed", "count", Lower),
    layer("server.keepalive_reuse_ratio", "ratio", Higher),
    layer("server.response_bytes", "bytes", Lower),
    layer("server.latency_p99_ms", "ms", Lower),
    layer("server.inprocess_p50_ms", "ms", Lower),
    layer("server.unattributed_ms", "ms", Lower),
    layer("server.unattributed_share", "ratio", Lower),
    layer("parse.fragment_us", "us", Lower),
    layer("core.search_ms", "ms", Lower),
    layer("core.search_self_us", "us", Lower),
    layer("core.tightness_us", "us", Lower),
    layer("core.candidate_cache_hit_ratio", "ratio", Higher),
    layer("core.artifact_cache_hit_ratio", "ratio", Higher),
    layer("core.artifact_cache_evictions_per_op", "count", Lower),
    layer("core.artifact_kb_per_miss", "KiB", Lower),
    layer("core.candidates_per_op", "count", Lower),
    layer("core.early_exit_pruned_ratio", "ratio", Higher),
    layer("core.matchers_skipped_per_op", "count", Higher),
    layer("core.artifact_resident_mb", "MiB", Lower),
    layer("core.ingest_docs_per_s", "1/s", Higher),
    layer("core.cold_start_s", "s", Lower),
    layer("core.tick_ms", "ms", Lower),
    layer("core.writer_lag_ms", "ms", Lower),
    layer("core.incremental_docs_per_s", "1/s", Higher),
    layer("index.phase1_us", "us", Lower),
    layer("index.phase1_mean_us", "us", Lower),
    layer("index.postings_scanned_per_op", "count", Lower),
    layer("index.postings_pruned_per_op", "count", Higher),
    layer("index.lists_pruned_per_op", "count", Higher),
    layer("index.build_s", "s", Lower),
    layer("index.incremental_us_per_doc", "us", Lower),
    layer("index.merges", "count", Lower),
    layer("index.merge_ms", "ms", Lower),
    layer("index.segments", "count", Lower),
    layer("index.tombstone_ratio", "ratio", Lower),
    layer("index.save_s", "s", Lower),
    layer("index.load_s", "s", Lower),
    layer("index.file_mb", "MiB", Lower),
    layer("index.deep_mb", "MiB", Lower),
    layer("index.bytes_per_posting", "bytes", Lower),
    layer("matchers.phase2_ms", "ms", Lower),
    layer("matchers.name_us", "us", Lower),
    layer("matchers.context_us", "us", Lower),
    layer("repo.get_us_per_candidate", "us", Lower),
    layer("repo.insert_us_per_doc", "us", Lower),
    layer("repo.remove_us_per_doc", "us", Lower),
    layer("obs.overhead_us_per_search", "us", Lower),
    layer("obs.trace_ring_kb", "KiB", Lower),
    layer("corpus.generate_s", "s", Lower),
    layer("corpus.schemas", "count", Higher),
    layer("corpus.pool_wraps", "count", Lower),
];

/// Measured values by metric name, each with the number of samples
/// behind it.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, (f64, usize)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.0.insert(name, (value, samples));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|&(v, _)| v)
    }
}

/// What one run of one workload produced.
pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub seconds: f64,
    pub corpus_schemas: usize,
    pub clients: usize,
    /// Operations sent, verification comparisons included.
    pub attempted: u64,
    /// Operations that failed: I/O error, non-200, malformed body, or a
    /// verification mismatch.
    pub failed: u64,
    /// Seconds spent verifying outputs (in neither `setup_s` nor the
    /// timed window).
    pub verify_s: f64,
    pub values: Values,
}

impl RunResult {
    /// The catalog slice this run reports: end-to-end metrics from an
    /// untraced run, per-layer metrics from a traced one.
    pub fn catalog(&self) -> &'static [MetricDef] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// An end-to-end metric that was not measured, is not finite or is
    /// not positive is a bug in the benchmark, not a result.
    pub fn check(&self) -> Result<(), String> {
        if self.traced {
            return Ok(());
        }
        for def in END_TO_END {
            match self.values.get(def.name) {
                Some(v) if v.is_finite() && v > 0.0 => {}
                other => return Err(format!("{}: no usable value ({other:?})", def.name)),
            }
        }
        Ok(())
    }

    fn value_of(&self, def: &MetricDef) -> (f64, usize) {
        let (v, n) = self.values.0.get(def.name).copied().unwrap_or((0.0, 0));
        (if v.is_finite() { v } else { 0.0 }, n)
    }

    /// The last line of standard output: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, values with all their digits.
    pub fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, def) in self.catalog().iter().enumerate() {
            let (value, _) = self.value_of(def);
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                def.name, def.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// The `--out` document: the result line's content plus sample
    /// counts, directions, bounds, and what the run was.
    pub fn document(&self, fingerprint: &Fingerprint) -> String {
        let mut out = format!(
            "{{\"schema\":\"schemr-benchmark/1\",\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"window_s\":{},\"corpus_schemas\":{},\"clients\":{},\"fingerprint\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\"verify_s\":{},\"metrics\":{{",
            self.workload,
            self.seed,
            u8::from(self.traced),
            self.seconds,
            self.corpus_schemas,
            self.clients,
            fingerprint_json(fingerprint),
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            self.verify_s,
        );
        for (i, def) in self.catalog().iter().enumerate() {
            let (value, samples) = self.value_of(def);
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\"{}\":{{\"value\":{value},\"unit\":\"{}\",\"samples\":{samples},\"better\":\"{}\"",
                def.name,
                def.unit,
                def.better.as_str()
            );
            if let Some(bound) = def.bound {
                let _ = write!(out, ",\"bound\":{bound}");
            }
            out.push('}');
        }
        out.push_str("}}");
        out
    }

    /// The human table, for standard error.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{} seed {} ({}): {} attempted, {} failed, verification {:.2} s\n",
            self.workload,
            self.seed,
            if self.traced {
                "per layer"
            } else {
                "end to end"
            },
            self.attempted,
            self.failed,
            self.verify_s
        );
        for def in self.catalog() {
            let (value, samples) = self.value_of(def);
            let _ = write!(
                out,
                "  {:<38} {:>14.4} {:<6} n={samples}",
                def.name, value, def.unit
            );
            // A tail percentile is only as good as the samples beyond it.
            if def.name == "latency_p90_ms" {
                match highest_supported_percentile(samples) {
                    Some(p) if p >= 0.9 => {}
                    Some(p) => {
                        let _ = write!(out, "  (samples support only p{:.0})", p * 100.0);
                    }
                    None => out.push_str("  (too few samples for any tail)"),
                }
            }
            out.push('\n');
        }
        out
    }
}

fn fingerprint_json(f: &Fingerprint) -> String {
    format!(
        "{{\"nproc\":{},\"cpu_model\":\"{}\",\"kernel\":\"{}\",\"git_rev\":\"{}\"}}",
        f.nproc,
        escape(&f.cpu_model),
        escape(&f.kernel),
        escape(&f.git_rev)
    )
}

/// Wrap the per-run documents of a `--workload all` run into one.
pub fn suite_document(fingerprint: &Fingerprint, seed: u64, runs: &[String]) -> String {
    format!(
        "{{\"schema\":\"schemr-benchmark/1\",\"seed\":{seed},\"fingerprint\":{},\"runs\":[{}]}}",
        fingerprint_json(fingerprint),
        runs.join(",")
    )
}

/// `(workload, metric)` → value for every end-to-end metric in a
/// document: either one run's `--out` or a suite's.
fn end_to_end_values(doc: &Json, into: &mut BTreeMap<(String, String), Vec<f64>>) {
    if let Some(runs) = doc.get("runs").and_then(Json::as_arr) {
        for run in runs {
            end_to_end_values(run, into);
        }
        return;
    }
    let (Some(workload), Some(metrics)) = (
        doc.get("workload").and_then(Json::as_str),
        doc.get("metrics").and_then(Json::as_obj),
    ) else {
        return;
    };
    for (name, metric) in metrics {
        if END_TO_END.iter().any(|d| d.name == name) {
            if let Some(v) = metric.get("value").and_then(Json::as_f64) {
                into.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
}

/// One row of a comparison.
#[derive(Debug, PartialEq)]
pub struct Comparison {
    pub workload: String,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    /// How much worse `b` is than `a`, as a share of `a` (negative when
    /// better).
    pub worse_by: f64,
    pub bound: f64,
}

impl Comparison {
    pub fn exceeded(&self) -> bool {
        self.worse_by > self.bound
    }
}

/// Compare two sides, each a set of documents (one run's or a suite's):
/// per workload and end-to-end metric, the median of each side and the
/// relative difference against the metric's bound. Pairs present on
/// only one side are an error — a comparison that silently skips a
/// metric proves nothing.
pub fn compare(a_docs: &[Json], b_docs: &[Json]) -> Result<Vec<Comparison>, String> {
    let mut a = BTreeMap::new();
    let mut b = BTreeMap::new();
    a_docs.iter().for_each(|d| end_to_end_values(d, &mut a));
    b_docs.iter().for_each(|d| end_to_end_values(d, &mut b));
    if a.is_empty() {
        return Err("no end-to-end metrics in the first set".to_string());
    }
    if a.keys().ne(b.keys()) {
        return Err("the two sets do not cover the same workloads and metrics".to_string());
    }
    let mut rows = Vec::with_capacity(a.len());
    for ((workload, name), a_values) in &a {
        let def = END_TO_END
            .iter()
            .find(|d| d.name == name)
            .expect("filtered on the catalog");
        let (ma, mb) = (
            median(a_values),
            median(&b[&(workload.clone(), name.clone())]),
        );
        let worse_by = match def.better {
            Lower => (mb - ma) / ma,
            Higher => (ma - mb) / ma,
        };
        rows.push(Comparison {
            workload: workload.clone(),
            metric: def.name,
            a: ma,
            b: mb,
            worse_by,
            bound: def.bound.unwrap_or(0.0),
        });
    }
    Ok(rows)
}

/// Render comparison rows; the verdict column says which bounds broke.
pub fn comparison_table(rows: &[Comparison]) -> String {
    let mut out = format!(
        "{:<12} {:<18} {:>14} {:>14} {:>9} {:>7}\n",
        "workload", "metric", "a", "b", "worse by", "bound"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<12} {:<18} {:>14.4} {:>14.4} {:>8.2}% {:>6.1}%{}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_by * 100.0,
            r.bound * 100.0,
            if r.exceeded() { "  EXCEEDED" } else { "" }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(workload: &'static str, throughput: f64, p50: f64) -> RunResult {
        let mut values = Values::default();
        for def in END_TO_END {
            values.set(def.name, 1.0, 1);
        }
        values.set("throughput_ops_s", throughput, 100);
        values.set("latency_p50_ms", p50, 100);
        RunResult {
            workload,
            seed: 1,
            traced: false,
            seconds: 10.0,
            corpus_schemas: 30_000,
            clients: 2,
            attempted: 100,
            failed: 0,
            verify_s: 0.5,
            values,
        }
    }

    fn fingerprint() -> Fingerprint {
        Fingerprint {
            nproc: 2,
            cpu_model: "test \"cpu\"".to_string(),
            kernel: "6.0".to_string(),
            git_rev: "unknown".to_string(),
        }
    }

    fn doc(r: &RunResult) -> Json {
        Json::parse(&r.document(&fingerprint())).unwrap()
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_every_metric() {
        let r = run("serve_hot", 40.5, 49.25);
        let line = Json::parse(&r.result_line()).unwrap();
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct").unwrap().as_bool(), Some(true));
        let metrics = line.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        let p50 = line.get("metrics").unwrap().get("latency_p50_ms").unwrap();
        assert_eq!(p50.get("value").unwrap().as_f64(), Some(49.25));
        assert_eq!(p50.get("unit").unwrap().as_str(), Some("ms"));
        assert!(r.check().is_ok());
        let mut broken = run("serve_hot", 0.0, 1.0);
        assert!(broken.check().is_err());
        broken.traced = true;
        assert_eq!(
            Json::parse(&broken.result_line())
                .unwrap()
                .get("metrics")
                .unwrap()
                .as_obj()
                .unwrap()
                .len(),
            PER_LAYER.len()
        );
    }

    #[test]
    fn compare_flags_only_changes_past_the_bound_in_the_bad_direction() {
        let base = doc(&run("serve_hot", 100.0, 10.0));
        // Throughput 8% lower (inside 25%), p50 30% higher (outside 25%).
        let worse = doc(&run("serve_hot", 92.0, 13.0));
        let rows = compare(std::slice::from_ref(&base), &[worse]).unwrap();
        let row = |m: &str| rows.iter().find(|r| r.metric == m).unwrap();
        assert!(!row("throughput_ops_s").exceeded());
        assert!((row("throughput_ops_s").worse_by - 0.08).abs() < 1e-9);
        assert!(row("latency_p50_ms").exceeded());
        assert_eq!(rows.iter().filter(|r| r.exceeded()).count(), 1);
        // Much better is never a regression.
        let better = doc(&run("serve_hot", 300.0, 2.0));
        assert!(compare(std::slice::from_ref(&base), &[better])
            .unwrap()
            .iter()
            .all(|r| !r.exceeded()));
        assert!(comparison_table(&rows).contains("EXCEEDED"));
    }

    #[test]
    fn compare_takes_medians_of_sets_and_suites_and_rejects_mismatched_coverage() {
        let f = fingerprint();
        let suite = |values: [f64; 3]| {
            let runs: Vec<String> = values
                .iter()
                .map(|&t| run("ingest", t, 5.0).document(&f))
                .collect();
            Json::parse(&suite_document(&f, 1, &runs)).unwrap()
        };
        // Medians 100 vs 95: one wild run on either side does not matter.
        let rows = compare(
            &[suite([100.0, 20.0, 101.0])],
            &[suite([95.0, 96.0, 500.0])],
        )
        .unwrap();
        let t = rows
            .iter()
            .find(|r| r.metric == "throughput_ops_s")
            .unwrap();
        assert_eq!((t.a, t.b), (100.0, 96.0));
        assert!(!t.exceeded());
        let other = doc(&run("serve_hot", 1.0, 1.0));
        assert!(compare(&[suite([1.0, 1.0, 1.0])], &[other]).is_err());
        assert!(compare(&[], &[]).is_err());
    }

    #[test]
    fn benchmark_json_lists_the_same_workloads_and_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let spec = Json::parse(&text).unwrap();
        let names = |key: &str| -> Vec<String> {
            spec.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
                .collect()
        };
        assert_eq!(
            names("workloads"),
            WORKLOADS.iter().map(|w| w.0).collect::<Vec<_>>()
        );
        assert_eq!(
            names("end_to_end"),
            END_TO_END.iter().map(|d| d.name).collect::<Vec<_>>()
        );
        assert_eq!(
            names("per_layer"),
            PER_LAYER.iter().map(|d| d.name).collect::<Vec<_>>()
        );
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            for (m, def) in spec
                .get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .zip(defs)
            {
                assert_eq!(
                    m.get("unit").unwrap().as_str(),
                    Some(def.unit),
                    "{}",
                    def.name
                );
                assert_eq!(m.get("better").unwrap().as_str(), Some(def.better.as_str()));
                assert_eq!(
                    m.get("bound").and_then(Json::as_f64),
                    def.bound,
                    "{}",
                    def.name
                );
            }
        }
        for (w, (_, why)) in spec
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .zip(WORKLOADS)
        {
            assert_eq!(w.get("why").unwrap().as_str(), Some(*why));
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
    }
}
