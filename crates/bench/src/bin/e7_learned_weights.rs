//! **E7 — Learned matcher weights vs uniform.**
//!
//! "We combine the scores from each matcher with a weighting scheme, which
//! is initially uniform. As Schemr is utilized in practice, we can record
//! search histories to create a training set … we may then determine an
//! appropriate weighting scheme via a logistic regression."
//!
//! This harness simulates the recorded search history: for each training
//! query, Phase 1 candidates are labeled relevant/irrelevant by the corpus
//! ground truth; per-matcher aggregate similarities become the feature
//! vector. A from-scratch logistic regression fits the weights, which are
//! then evaluated against the uniform scheme on held-out queries.
//!
//! Run with `cargo run --release -p schemr-bench --bin e7_learned_weights`.

use schemr_bench::{Table, Testbed};
use schemr_corpus::{Corpus, CorpusConfig, Workload, WorkloadConfig};
use schemr_match::learner::{TrainingExample, WeightLearner};
use schemr_match::{
    ContextMatcher, EditDistanceMatcher, Ensemble, NameMatcher, PrepareScratch, TokenMatcher,
};

fn wide_ensemble() -> Ensemble {
    let mut e = Ensemble::empty();
    e.push(Box::new(NameMatcher::new()), 1.0);
    e.push(Box::new(ContextMatcher::new()), 1.0);
    e.push(Box::new(TokenMatcher::new()), 1.0);
    e.push(Box::new(EditDistanceMatcher::new()), 1.0);
    e
}

/// Aggregate a matcher matrix into one scalar feature: the mean of the
/// per-element final scores (column maxima) over matched columns.
fn matrix_feature(m: &schemr_match::SimilarityMatrix) -> f64 {
    let scores = m.element_scores();
    let hot: Vec<f64> = scores.iter().copied().filter(|&s| s > 0.0).collect();
    if hot.is_empty() {
        0.0
    } else {
        hot.iter().sum::<f64>() / hot.len() as f64
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let corpus = Corpus::generate(&CorpusConfig {
        target_size: if quick { 500 } else { 3_000 },
        seed: 71,
        ..CorpusConfig::default()
    });
    let train = Workload::generate(
        &corpus,
        &WorkloadConfig {
            queries: if quick { 20 } else { 80 },
            seed: 72,
            ..Default::default()
        },
    );
    let test = Workload::generate(
        &corpus,
        &WorkloadConfig {
            queries: if quick { 20 } else { 100 },
            seed: 73,
            ..Default::default()
        },
    );
    println!(
        "E7: learned matcher weights over {} schemas ({} training / {} test queries)\n",
        corpus.len(),
        train.len(),
        test.len()
    );

    let bed = Testbed::build(&corpus);
    let ensemble = wide_ensemble();
    let matcher_names = ensemble.matcher_names();

    // Build the simulated search-history training set, every pair's
    // candidate prepared in one scratch.
    let mut examples: Vec<TrainingExample> = Vec::new();
    let mut prepare = PrepareScratch::default();
    for q in &train.queries {
        let request = Testbed::to_request(q, 10);
        let graph = request.query_graph();
        let terms = graph.terms();
        let relevant: std::collections::HashSet<usize> = q.relevant.iter().copied().collect();
        for hit in bed.engine.extract_candidates(&graph) {
            let Some(ix) = bed.corpus_index(hit.id) else {
                continue;
            };
            let stored = bed
                .engine
                .repository()
                .get(hit.id)
                .expect("indexed schemas exist");
            let features: Vec<f64> = ensemble
                .individual(&terms, &graph, &stored.schema, &mut prepare)
                .iter()
                .map(|(_, m)| matrix_feature(m))
                .collect();
            examples.push(TrainingExample {
                features,
                label: relevant.contains(&ix),
            });
        }
    }
    let positives = examples.iter().filter(|e| e.label).count();
    println!(
        "training set: {} (query, candidate) pairs, {} positive\n",
        examples.len(),
        positives
    );

    let model = WeightLearner::default()
        .fit(&examples)
        .expect("training set is non-degenerate");
    let learned = model.ensemble_weights();

    let mut wtable = Table::new(&["matcher", "uniform", "learned"]);
    for (name, w) in matcher_names.iter().zip(&learned) {
        wtable.row(&[name.to_string(), "1.000".to_string(), format!("{w:.3}")]);
    }
    wtable.print();

    // Evaluate uniform vs learned on held-out queries.
    let mut rtable = Table::new(&["weighting", "P@10", "MRR", "NDCG@10"]);
    for (label, weights) in [
        ("uniform", vec![1.0; learned.len()]),
        ("learned", learned.clone()),
    ] {
        let mut e = wide_ensemble();
        e.set_weights(&weights);
        bed.engine.set_ensemble(e);
        let m = bed.evaluate(&test, 10);
        rtable.row(&[
            label.to_string(),
            format!("{:.3}", m.p_at_10),
            format!("{:.3}", m.mrr),
            format!("{:.3}", m.ndcg_at_10),
        ]);
    }
    println!();
    rtable.print();
    println!(
        "\nExpected shape: the learner upweights the informative matchers (name,\n\
         context) relative to the weak exact-token matcher, and learned weights\n\
         match or beat uniform on held-out queries."
    );
}
