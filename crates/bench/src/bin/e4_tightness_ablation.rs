//! **E4 — Tightness-of-fit ablation.**
//!
//! The paper's Phase 3 intuition: schemas whose matched elements sit close
//! together (same entity, or FK neighborhood) fit the query's semantic
//! intent better than schemas with the same matches scattered across
//! unrelated entities.
//!
//! Part A reproduces the Figure 4 micro-example: a query whose terms
//! co-locate in one candidate but scatter in another; the co-located
//! candidate must rank first, and the margin must come from the penalties.
//!
//! Part B ablates Phase 3 design choices on fragment-heavy retrieval:
//! full vs no-penalties vs sum-vs-mean aggregation vs no coverage
//! weighting.
//!
//! Run with `cargo run --release -p schemr-bench --bin e4_tightness_ablation`.

use schemr::{EngineConfig, SearchRequest, TightnessConfig};
use schemr_bench::{variants, Table, Testbed};
use schemr_corpus::{Corpus, CorpusConfig, Workload, WorkloadConfig};
use schemr_repo::import::import_str;
use schemr_repo::Repository;
use std::sync::Arc;

fn micro_example() {
    println!("Part A: Figure-4-style micro example\n");
    let repo = Arc::new(Repository::new());
    // Co-located: height & gender in one patient table.
    import_str(
        &repo,
        "colocated",
        "",
        "CREATE TABLE patient (id INT, height REAL, gender TEXT, dob DATE)",
    )
    .unwrap();
    // Neighborhood: split across FK-joined tables.
    import_str(
        &repo,
        "neighborhood",
        "",
        "CREATE TABLE patient (id INT, height REAL);
         CREATE TABLE visit (id INT, gender TEXT, patient_id INT REFERENCES patient(id))",
    )
    .unwrap();
    // Scattered: same columns in unrelated tables.
    import_str(
        &repo,
        "scattered",
        "",
        "CREATE TABLE patient (id INT, height REAL);
         CREATE TABLE warehouse (id INT, gender TEXT)",
    )
    .unwrap();

    let engine = schemr::SchemrEngine::new(repo);
    engine.reindex_full();
    let results = engine
        .search(&SearchRequest::keywords(["patient", "height", "gender"]))
        .unwrap();
    let mut table = Table::new(&["rank", "schema", "score"]);
    for (i, r) in results.iter().enumerate() {
        table.row(&[
            (i + 1).to_string(),
            r.title.clone(),
            format!("{:.3}", r.score),
        ]);
    }
    table.print();
    println!("\nExpected order: colocated > neighborhood > scattered.\n");
}

/// Part B: scatter discrimination at scale. For N generated concepts we
/// index the clean base schema and its scattered twin (identical
/// attribute names, structure destroyed, no FKs). Queries use one base
/// entity's exact attribute names, so coarse score and coverage tie — only
/// the structural penalty can tell the two apart.
fn scatter_discrimination(quick: bool) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use schemr_corpus::{GeneratorConfig, SchemaGenerator};

    println!("Part B: scatter discrimination at scale\n");
    let n = if quick { 30 } else { 150 };
    let mut rng = StdRng::seed_from_u64(41);
    let generator = SchemaGenerator::new(GeneratorConfig {
        entities: (2, 4),
        tree_probability: 0.0,
        fk_probability: 1.0,
        compound_rate: 0.6,
        ..GeneratorConfig::default()
    });

    // Build the paired corpus.
    let repo = Arc::new(Repository::new());
    let mut cases: Vec<(schemr_model::SchemaId, schemr_model::SchemaId, Vec<String>)> = Vec::new();
    for i in 0..n {
        let domain = &schemr_corpus::vocab::DOMAINS[i % schemr_corpus::vocab::DOMAINS.len()];
        let base = generator.generate(&format!("base{i}"), domain, &mut rng);
        // Scattered twin: same attribute names, one entity each, no FKs.
        let mut twin = schemr_model::Schema::new(format!("twin{i}"));
        let hosts: Vec<_> = (0..3)
            .map(|h| twin.add_root(schemr_model::Element::entity(format!("export{i}_{h}"))))
            .collect();
        for id in base.ids() {
            let el = base.element(id);
            if el.kind == schemr_model::ElementKind::Attribute {
                let host = hosts[rng.random_range(0..hosts.len())];
                twin.add_child(
                    host,
                    schemr_model::Element::attribute(el.name, el.data_type),
                );
            }
        }
        // Query: the attribute names of the base's largest entity.
        let entity = *base
            .entities()
            .iter()
            .max_by_key(|&&e| base.children(e).len())
            .unwrap();
        let keywords: Vec<String> = base
            .children(entity)
            .into_iter()
            .filter(|&c| base.element(c).kind == schemr_model::ElementKind::Attribute)
            .take(5)
            .map(|a| base.element(a).name.to_string())
            .collect();
        let base_id = repo.insert(format!("base{i}"), "", base).unwrap();
        let twin_id = repo.insert(format!("twin{i}"), "", twin).unwrap();
        cases.push((base_id, twin_id, keywords));
    }

    let mut table = Table::new(&["variant", "base wins", "ties", "twin wins", "mean Δscore"]);
    for (name, config) in [
        ("penalties on", variants::full()),
        ("penalties off", variants::no_structure()),
    ] {
        let engine = schemr::SchemrEngine::with_config(repo.clone(), config);
        engine.reindex_full();
        let (mut wins, mut ties, mut losses, mut delta) = (0usize, 0usize, 0usize, 0.0f64);
        for (base_id, twin_id, keywords) in &cases {
            let kw: Vec<&str> = keywords.iter().map(String::as_str).collect();
            let results = engine
                .search(&SearchRequest::keywords(kw).with_limit(repo.len()))
                .unwrap();
            let score_of = |id| results.iter().find(|r| r.id == id).map_or(0.0, |r| r.score);
            let (sb, st) = (score_of(*base_id), score_of(*twin_id));
            delta += sb - st;
            if (sb - st).abs() < 1e-9 {
                ties += 1;
            } else if sb > st {
                wins += 1;
            } else {
                losses += 1;
            }
        }
        table.row(&[
            name.to_string(),
            wins.to_string(),
            ties.to_string(),
            losses.to_string(),
            format!("{:+.3}", delta / cases.len() as f64),
        ]);
    }
    table.print();
    println!(
        "\nExpected shape: with penalties ON the co-located base wins nearly always;\n\
         with penalties OFF the two are indistinguishable (ties), since the twin\n\
         carries identical attribute names.\n"
    );
}

fn ablation(quick: bool) {
    println!("Part C: Phase 3 ablations on fragment-heavy retrieval\n");
    let corpus = Corpus::generate(&CorpusConfig {
        target_size: if quick { 500 } else { 3_000 },
        seed: 31,
        ..CorpusConfig::default()
    });
    // Fragment-only workload: structure matters most here.
    let workload = Workload::generate(
        &corpus,
        &WorkloadConfig {
            queries: if quick { 30 } else { 150 },
            seed: 32,
            kind_mix: (0.0, 1.0, 0.0),
            ..Default::default()
        },
    );

    let variants_list: Vec<(&str, EngineConfig)> = vec![
        ("full (mean, penalties, coverage)", variants::full()),
        ("no structural penalties", variants::no_structure()),
        (
            "sum aggregation",
            EngineConfig {
                tightness: TightnessConfig {
                    mean_aggregation: false,
                    ..TightnessConfig::default()
                },
                ..EngineConfig::default()
            },
        ),
        (
            "no coverage weighting",
            EngineConfig {
                tightness: TightnessConfig {
                    coverage_weighting: false,
                    ..TightnessConfig::default()
                },
                ..EngineConfig::default()
            },
        ),
    ];

    let mut table = Table::new(&["variant", "P@10", "MRR", "NDCG@10"]);
    for (name, config) in variants_list {
        let bed = Testbed::build_with_config(&corpus, config);
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
        "\nExpected shape: the full configuration leads; removing penalties or\n\
         coverage weighting costs ranking quality; sum aggregation favors large\n\
         schemas and degrades precision."
    );
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    println!("E4: tightness-of-fit ablation\n");
    micro_example();
    scatter_discrimination(quick);
    ablation(quick);
}
