//! **E2 — Ranking quality: full Schemr vs baselines.**
//!
//! The paper claims Schemr ranks "schemas according to a query's semantic
//! intent" by combining document search, schema matching, and structure-
//! aware scoring. This harness quantifies that with labeled synthetic
//! ground truth: P@10 / MRR / NDCG@10 / MAP for:
//!
//! * `full`       — the complete three-phase pipeline,
//! * `tfidf`      — Phase 1 only (pure document search, the Lucene baseline),
//! * `name-only`  — ensemble reduced to the n-gram name matcher,
//! * `token-only` — ensemble reduced to exact-token matching,
//! * `no-struct`  — full ensemble but structural penalties disabled.
//!
//! Exits non-zero unless `full` beats `tfidf` on all four metrics.
//!
//! Run with `cargo run --release -p schemr-bench --bin e2_ranking_quality`.

use schemr_bench::{variants, Table, Testbed};
use schemr_corpus::{Corpus, CorpusConfig, RankingMetrics, Workload, WorkloadConfig};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let corpus = Corpus::generate(&CorpusConfig {
        target_size: if quick { 500 } else { 5_000 },
        seed: 11,
        ..CorpusConfig::default()
    });
    let workload = Workload::generate(
        &corpus,
        &WorkloadConfig {
            queries: if quick { 30 } else { 200 },
            seed: 13,
            ..Default::default()
        },
    );
    println!(
        "E2: ranking quality over {} schemas, {} queries (keyword/fragment/mixed)\n",
        corpus.len(),
        workload.len()
    );

    let mut table = Table::new(&["variant", "P@10", "MRR", "NDCG@10", "MAP"]);
    let mut push = |name: &str, m: RankingMetrics| {
        table.row(&[
            name.to_string(),
            format!("{:.3}", m.p_at_10),
            format!("{:.3}", m.mrr),
            format!("{:.3}", m.ndcg_at_10),
            format!("{:.3}", m.map),
        ]);
    };

    // Full pipeline.
    let bed = Testbed::build(&corpus);
    let full = bed.evaluate(&workload, 10);
    push("full", full);

    // Phase-1-only TF/IDF baseline (same index, coarse ranking).
    let coarse = bed.evaluate_with(&workload, 10, |q| bed.run_query_coarse(q, 10));
    push("tfidf (phase 1 only)", coarse);

    // Name-matcher-only ensemble.
    bed.engine.set_ensemble(variants::name_only_ensemble());
    push("name-only ensemble", bed.evaluate(&workload, 10));

    // Exact-token-only ensemble.
    bed.engine.set_ensemble(variants::token_only_ensemble());
    push("token-only ensemble", bed.evaluate(&workload, 10));

    // Structural penalties off.
    let flat = Testbed::build_with_config(&corpus, variants::no_structure());
    push("no structural penalty", flat.evaluate(&workload, 10));

    table.print();
    println!(
        "\nExpected shape: full leads on MAP/NDCG; the ensemble variants beat the\n\
         phase-1 TF/IDF baseline; the exact-token ensemble trails on P@10/NDCG/MAP\n\
         (it finds the unperturbed family members and misses the rest — its MRR\n\
         stays high because *one* exact survivor usually exists). Structural\n\
         penalties are near-neutral here; E4 isolates where they matter\n\
         (scattered-distractor discrimination)."
    );

    // The paper's claim: Phase 2+3 beat plain document search.
    let behind: Vec<&str> = [
        ("P@10", full.p_at_10, coarse.p_at_10),
        ("MRR", full.mrr, coarse.mrr),
        ("NDCG@10", full.ndcg_at_10, coarse.ndcg_at_10),
        ("MAP", full.map, coarse.map),
    ]
    .into_iter()
    .filter(|&(_, f, t)| f <= t)
    .map(|(metric, _, _)| metric)
    .collect();
    if behind.is_empty() {
        println!("\nPASS: full beats the phase-1 TF/IDF baseline on every metric");
    } else {
        println!(
            "\nFAIL: full does not beat the phase-1 TF/IDF baseline on {}",
            behind.join(", ")
        );
        std::process::exit(1);
    }
}
