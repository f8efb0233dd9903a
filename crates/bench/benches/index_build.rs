//! Offline-indexer bench (experiment E6): full index build, incremental
//! updates, and codec round-trip throughput.

use criterion::{criterion_group, criterion_main, Criterion};
use schemr_corpus::{Corpus, CorpusConfig};
use schemr_index::{codec, Index, IndexChange, IndexDocument};
use schemr_model::SchemaId;
use std::hint::black_box;

fn documents(size: usize, seed: u64) -> Vec<IndexDocument> {
    let corpus = Corpus::generate(&CorpusConfig {
        target_size: size,
        seed,
        ..CorpusConfig::default()
    });
    corpus
        .schemas
        .iter()
        .enumerate()
        .map(|(i, s)| {
            IndexDocument::from_schema(SchemaId(i as u64), &s.title, &s.summary, &s.schema)
        })
        .collect()
}

fn bench_index_build(c: &mut Criterion) {
    let docs = documents(1_000, 3);
    let mut group = c.benchmark_group("index_build");
    group.sample_size(10);
    group.bench_function("build_1k_docs", |b| {
        b.iter(|| {
            let index = Index::new();
            index.apply(docs.iter().map(IndexChange::Put));
            black_box(index.stats())
        })
    });

    // The bulk build as `reindex_full` runs it: a head's worth a batch,
    // one write session for all of them.
    let corpus = documents(30_000, 1);
    group.bench_function("build_30k_docs_one_session", |b| {
        b.iter(|| {
            let index = Index::new();
            let mut session = index.session();
            for batch in corpus.chunks(index.seal_threshold()) {
                session.apply(batch.iter().map(IndexChange::Put));
            }
            black_box(index.doc_counts())
        })
    });
    drop(corpus);

    let built = Index::new();
    built.apply(docs.iter().map(IndexChange::Put));
    group.bench_function("codec_encode_1k", |b| {
        b.iter(|| black_box(codec::encode(&built)))
    });
    let bytes = codec::encode(&built);
    group.bench_function("codec_decode_1k", |b| {
        b.iter(|| black_box(codec::decode(&bytes).unwrap().stats()))
    });
    group.bench_function("incremental_add_one", |b| {
        let extra = documents(32, 99);
        let mut i = 0usize;
        b.iter(|| {
            // Re-adding replaces: steady-state single-document update.
            built.add(&extra[i % extra.len()]);
            i += 1;
        })
    });
    group.finish();
}

criterion_group!(benches, bench_index_build);
criterion_main!(benches);
