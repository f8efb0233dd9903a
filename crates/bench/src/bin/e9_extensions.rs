//! **E9 — The paper's proposed extensions, measured.**
//!
//! The Applications section sketches two ranking-relevant integrations:
//!
//! * community signals — "collaboration functionality that provides usage
//!   statistics and comments on schemas would improve schema search
//!   results" (Part A),
//! * the data-type codebook — "a codebook that contains data types like
//!   units, date/time, and geographic location" (Part B, as an extra
//!   ensemble matcher).
//!
//! Run with `cargo run --release -p schemr-bench --bin e9_extensions`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use schemr_bench::{Table, Testbed};
use schemr_codebook::CodebookMatcher;
use schemr_collab::{CommunityRanker, CommunityStore};
use schemr_corpus::{Corpus, CorpusConfig, PerturbConfig, Workload, WorkloadConfig};
use schemr_match::Ensemble;

/// Part A: simulate a click history over training queries (users click
/// relevant results far more often than irrelevant ones), then measure
/// held-out ranking quality with and without community re-ranking.
fn community(quick: bool) {
    println!("Part A: community-signal re-ranking\n");
    let corpus = Corpus::generate(&CorpusConfig {
        target_size: if quick { 400 } else { 2_000 },
        seed: 91,
        ..CorpusConfig::default()
    });
    let bed = Testbed::build(&corpus);
    // Hard queries (heavy abbreviation) leave the engine headroom that
    // community signals can reclaim.
    let hard = PerturbConfig {
        abbreviation: 0.5,
        morphology: 0.3,
        delimiter: 0.0,
        synonym: 0.3,
    };
    let train = Workload::generate(
        &corpus,
        &WorkloadConfig {
            queries: if quick { 40 } else { 200 },
            seed: 92,
            perturb: hard,
            ..Default::default()
        },
    );
    let test = Workload::generate(
        &corpus,
        &WorkloadConfig {
            queries: if quick { 30 } else { 120 },
            seed: 93,
            perturb: hard,
            ..Default::default()
        },
    );

    // Click model: P(click | relevant shown) = 0.6, P(click | other) = 0.03.
    let store = CommunityStore::new();
    let mut rng = StdRng::seed_from_u64(94);
    for q in &train.queries {
        let relevant: std::collections::HashSet<usize> = q.relevant.iter().copied().collect();
        let results = bed
            .engine
            .search(&Testbed::to_request(q, 10))
            .expect("nonempty");
        for r in &results {
            store.record_impression(r.id);
            let ix = bed.corpus_index(r.id);
            let p = if ix.is_some_and(|i| relevant.contains(&i)) {
                0.6
            } else {
                0.03
            };
            if rng.random_bool(p) {
                store.record_click(r.id);
            }
        }
    }

    let ranker = CommunityRanker::new(&store);
    let mut table = Table::new(&["ranking", "P@10", "MRR", "NDCG@10"]);
    for (name, boosted) in [("engine only", false), ("engine + community", true)] {
        let m = bed.evaluate_with(&test, 10, |q| {
            // Re-rank the whole candidate pool, then truncate — community
            // signals can pull a schema into the top 10, not just permute
            // it.
            let mut results = bed
                .engine
                .search(&Testbed::to_request(q, 50))
                .expect("nonempty");
            if boosted {
                ranker.rerank(&mut results);
            }
            results
                .iter()
                .take(10)
                .filter_map(|r| bed.corpus_index(r.id))
                .collect()
        });
        table.row(&[
            name.to_string(),
            format!("{:.3}", m.p_at_10),
            format!("{:.3}", m.mrr),
            format!("{:.3}", m.ndcg_at_10),
        ]);
    }
    table.print();
    println!(
        "\nExpected shape: clicks concentrate on truly relevant schemas, so the\n\
         community-boosted ranking matches or beats the engine-only ranking.\n"
    );
}

/// Part B: the codebook matcher on a synonym-heavy corpus — families where
/// members renamed columns through synonym classes (gender↔sex,
/// birthday↔dob) that pure name similarity cannot bridge.
fn codebook(quick: bool) {
    println!("Part B: codebook matcher in the ensemble (synonym-heavy corpus)\n");
    let corpus = Corpus::generate(&CorpusConfig {
        target_size: if quick { 400 } else { 2_000 },
        seed: 95,
        perturb: PerturbConfig {
            synonym: 0.7,
            abbreviation: 0.1,
            morphology: 0.1,
            delimiter: 0.3,
        },
        ..CorpusConfig::default()
    });
    let workload = Workload::generate(
        &corpus,
        &WorkloadConfig {
            queries: if quick { 30 } else { 120 },
            seed: 96,
            perturb: PerturbConfig {
                synonym: 0.5,
                ..PerturbConfig::none()
            },
            ..Default::default()
        },
    );
    let bed = Testbed::build(&corpus);

    let mut table = Table::new(&["ensemble", "P@10", "MRR", "NDCG@10"]);
    // The codebook is a coarse signal (family credit between any two
    // geographic or quantity columns), so it enters at a low weight.
    let with_codebook = || {
        let mut e = Ensemble::standard();
        e.push(Box::new(CodebookMatcher::new()), 0.25);
        e
    };
    for (name, ensemble) in [
        ("name + context", Ensemble::standard()),
        ("name + context + codebook@0.25", with_codebook()),
    ] {
        bed.engine.set_ensemble(ensemble);
        let m = bed.evaluate(&workload, 10);
        table.row(&[
            name.to_string(),
            format!("{:.3}", m.p_at_10),
            format!("{:.3}", m.mrr),
            format!("{:.3}", m.ndcg_at_10),
        ]);
    }
    table.print();
    println!(
        "\nExpected shape: on synonym-renamed families the codebook matcher adds\n\
         recall the n-gram matcher cannot (dob↔birthday, sex↔gender), nudging\n\
         the metrics up; on ordinary corpora it is neutral."
    );
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    println!("E9: proposed-extension ablations\n");
    community(quick);
    codebook(quick);
}
