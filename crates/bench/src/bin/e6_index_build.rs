//! **E6 — Offline index build throughput, size, and incremental updates.**
//!
//! The paper's architecture runs the text indexer "at scheduled intervals"
//! offline over the whole repository. This harness measures, per corpus
//! size: full-build wall time and throughput, on-disk size (the sealed
//! segments' columns as they sit in memory), the time a fresh engine takes
//! to load that file, the index's resident bytes, dictionary size, and
//! the cost of applying an incremental batch through the change journal.
//! Beside the index it times the repository file a restart reads first:
//! `persist::save` of the whole repository, and its first
//! `persist::load` in the process.
//!
//! Run with `cargo run --release -p schemr-bench --bin e6_index_build`.

use schemr::{IndexScheduler, SchemrEngine};
use schemr_bench::Table;
use schemr_corpus::{Corpus, CorpusConfig};
use schemr_repo::{persist, Repository};
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
        "file (KiB)",
        "load (ms)",
        "resident (MiB)",
        "segments",
        "terms",
        "postings",
        "incr 100 (ms)",
        "repo save (ms)",
        "repo load (ms)",
        "repo.json (MiB)",
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
        // Through the codec and back: a load reads the columns, verifies
        // them and publishes the same segments.
        let tmp = std::env::temp_dir().join(format!("schemr-e6-{size}.idx"));
        engine.save_index(&tmp).unwrap();
        let bytes = std::fs::metadata(&tmp).map(|m| m.len()).unwrap_or(0);
        let restored = SchemrEngine::new(repo.clone());
        let t_load = Instant::now();
        restored.load_index(&tmp).unwrap();
        let load = t_load.elapsed();
        let _ = std::fs::remove_file(&tmp);
        assert_eq!(restored.index_stats(), stats);
        let resident = restored.memory_report().index_deep_bytes;
        let segments = restored.index_introspection(0).segments;
        drop(restored);

        let repo_file = std::env::temp_dir().join(format!("schemr-e6-{size}.json"));
        let t_save = Instant::now();
        persist::save(&repo, &repo_file).unwrap();
        let repo_save = t_save.elapsed();
        let repo_bytes = std::fs::metadata(&repo_file).map(|m| m.len()).unwrap_or(0);
        let t_load = Instant::now();
        let reloaded = persist::load(&repo_file).unwrap();
        let repo_load = t_load.elapsed();
        let _ = std::fs::remove_file(&repo_file);
        assert_eq!(reloaded.len(), repo.len());
        drop(reloaded);

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
            format!("{:.1}", load.as_secs_f64() * 1000.0),
            format!("{:.1}", resident as f64 / (1024.0 * 1024.0)),
            segments.to_string(),
            stats.distinct_terms.to_string(),
            stats.postings.to_string(),
            format!("{:.1}", incr.as_secs_f64() * 1000.0),
            format!("{:.1}", repo_save.as_secs_f64() * 1000.0),
            format!("{:.1}", repo_load.as_secs_f64() * 1000.0),
            format!("{:.1}", repo_bytes as f64 / (1024.0 * 1024.0)),
        ]);
    }
    table.print();
    println!(
        "\nExpected shape: build time linear in corpus size (thousands of docs/s);\n\
         the file is as large as the resident index and loads an order of magnitude\n\
         faster than it builds; incremental batches cost milliseconds regardless of\n\
         corpus size — why the paper's scheduled-interval indexer is viable. (Past 8\n\
         segments the first tick after a bulk build also compacts them: ~60 ms of\n\
         the 30,000 row's batch.)"
    );
}
