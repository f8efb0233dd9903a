//! **E6 — Offline index build throughput, size, and incremental updates.**
//!
//! The paper's architecture runs the text indexer "at scheduled intervals"
//! offline over the whole repository. This harness measures, per corpus
//! size: full-build wall time and throughput, on-disk segment size (our
//! varint codec), dictionary size, and the cost of applying an incremental
//! batch through the change journal.
//!
//! Run with `cargo run --release -p schemr-bench --bin e6_index_build`.

use schemr::{IndexScheduler, SchemrEngine};
use schemr_bench::Table;
use schemr_corpus::{Corpus, CorpusConfig};
use schemr_repo::Repository;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let sizes: &[usize] = if quick {
        &[500, 1_000]
    } else {
        &[1_000, 5_000, 10_000, 30_000]
    };

    println!("E6: offline index build & incremental updates\n");
    let mut table = Table::new(&[
        "corpus",
        "build (ms)",
        "docs/s",
        "segment (KiB)",
        "terms",
        "postings",
        "incr 100 (ms)",
    ]);
    for &size in sizes {
        let corpus = Corpus::generate(&CorpusConfig {
            target_size: size,
            seed: 61,
            ..CorpusConfig::default()
        });
        let repo = Arc::new(Repository::new());
        for s in &corpus.schemas {
            repo.insert(s.title.clone(), s.summary.clone(), s.schema.clone())
                .unwrap();
        }
        let engine = Arc::new(SchemrEngine::new(repo.clone()));

        let t0 = Instant::now();
        engine.reindex_full();
        let build = t0.elapsed();

        let stats = engine.index_stats();
        // Segment size through the codec.
        let tmp = std::env::temp_dir().join(format!("schemr-e6-{size}.idx"));
        engine.save_index(&tmp).unwrap();
        let bytes = std::fs::metadata(&tmp).map(|m| m.len()).unwrap_or(0);
        let _ = std::fs::remove_file(&tmp);

        // Incremental batch: 100 fresh schemas through the journal.
        let extra = Corpus::generate(&CorpusConfig {
            target_size: 100,
            seed: 62,
            ..CorpusConfig::default()
        });
        for s in &extra.schemas {
            repo.insert(s.title.clone(), s.summary.clone(), s.schema.clone())
                .unwrap();
        }
        let scheduler = IndexScheduler::new(engine.clone());
        let t1 = Instant::now();
        let applied = scheduler.tick();
        let incr = t1.elapsed();
        assert_eq!(applied, 100);

        table.row(&[
            size.to_string(),
            format!("{:.1}", build.as_secs_f64() * 1000.0),
            format!("{:.0}", size as f64 / build.as_secs_f64()),
            format!("{:.0}", bytes as f64 / 1024.0),
            stats.distinct_terms.to_string(),
            stats.postings.to_string(),
            format!("{:.1}", incr.as_secs_f64() * 1000.0),
        ]);
    }
    table.print();
    println!(
        "\nExpected shape: build time linear in corpus size (thousands of docs/s);\n\
         incremental batches cost milliseconds regardless of corpus size — why the\n\
         paper's scheduled-interval indexer is viable."
    );
}
