//! The bulk build's index file is the one-document build's, byte for byte.
//!
//! `reindex_full` loads the corpus a head's worth at a time through one
//! write session, so its word memo, term ids and row table carry over
//! from batch to batch. None of that may show in what is built: an index
//! filled by one-document `apply` calls — a cold session each — must save
//! to the very same file, a second `reindex_full` must too, and an engine
//! restored from either file must rank like the one that built it.
//!
//! Both of those builds go through the same analysis, so they cannot see
//! a change to it; the pinned digest at the end can.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use schemr::{SchemrEngine, SearchRequest};
use schemr_corpus::workload::{Workload, WorkloadConfig};
use schemr_corpus::{Corpus, CorpusConfig};
use schemr_index::{codec, Index, IndexChange, IndexDocument};
use schemr_repo::Repository;

const QUERIES: usize = 24;

/// A file under the system's temporary directory, removed on drop.
struct TempFile(PathBuf);

impl TempFile {
    fn new(name: &str) -> Self {
        let unique = format!("schemr-bulk-identity-{}-{name}", std::process::id());
        TempFile(std::env::temp_dir().join(unique))
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn saved(path: &Path) -> Vec<u8> {
    std::fs::read(path).expect("the index file was just written")
}

/// A repository over the generated corpus of `schemas` schemas.
fn repository(schemas: usize, seed: u64) -> (Corpus, Arc<Repository>) {
    let corpus = Corpus::generate(&CorpusConfig {
        target_size: schemas,
        ..CorpusConfig::paper_scale(seed)
    });
    let repo = Arc::new(Repository::new());
    for labeled in &corpus.schemas {
        repo.insert(
            labeled.title.clone(),
            labeled.summary.clone(),
            labeled.schema.clone(),
        )
        .expect("generated schemas validate");
    }
    (corpus, repo)
}

fn check_bulk_build_identity(schemas: usize, seed: u64) {
    let (corpus, repo) = repository(schemas, seed);
    let bulk_file = TempFile::new(&format!("bulk-{schemas}"));
    let engine = SchemrEngine::new(repo.clone());
    engine.reindex_full();
    engine.save_index(&bulk_file.0).expect("save_index");
    let bulk = saved(&bulk_file.0);
    let stats = engine.index_stats();
    assert_eq!(stats.live_docs, corpus.len());
    assert!(
        stats.live_docs > 1024,
        "the build must span more than one sealed segment"
    );

    // The same build again: nothing of a session (its hash keys, the
    // order it met words in) reaches the file.
    engine.reindex_full();
    engine.save_index(&bulk_file.0).expect("save_index");
    assert!(saved(&bulk_file.0) == bulk, "reindex_full twice");

    // One document an `apply`, so every call analyzes in a cold session
    // and finds the head the last call left; sealing at 1,024 as the
    // engine's index does.
    let one_by_one = Index::new().with_seal_threshold(1024);
    for stored in repo.snapshot() {
        let document = IndexDocument {
            id: stored.metadata.id,
            title: &stored.metadata.title,
            summary: &stored.metadata.summary,
            schema: &stored.schema,
        };
        assert_eq!(one_by_one.apply([IndexChange::Put(document)]), 1);
    }
    let single_file = TempFile::new(&format!("single-{schemas}"));
    codec::save_to(&one_by_one, &single_file.0).expect("save_to");
    assert!(
        saved(&single_file.0) == bulk,
        "one-document applies built a different file"
    );

    // And the file ranks like the engine that built it.
    let restored = SchemrEngine::new(repo);
    restored.load_index(&single_file.0).expect("load_index");
    let workload = Workload::generate(
        &corpus,
        &WorkloadConfig {
            seed,
            queries: QUERIES,
            ..WorkloadConfig::default()
        },
    );
    for query in &workload.queries {
        let mut request = SearchRequest::keywords(query.keywords.iter().cloned());
        request.fragments.extend(query.fragment.clone());
        let built = engine.search(&request).expect("search");
        let loaded = restored.search(&request).expect("search");
        assert!(!built.is_empty(), "{:?} found nothing", query.keywords);
        assert_eq!(built.len(), loaded.len());
        for (a, b) in built.iter().zip(&loaded) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }
}

#[test]
fn bulk_build_is_byte_identical_to_one_document_applies() {
    check_bulk_build_identity(2_000, 5);
}

/// The benchmark's scale. A few seconds in release, too slow in debug:
/// CI runs it with `cargo test --release -- --ignored`.
#[test]
#[ignore]
fn bulk_build_is_byte_identical_at_paper_scale() {
    check_bulk_build_identity(30_000, 1);
}

/// FNV-1a over 64 bits: enough to tell two files apart in a test.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The file `save_index` writes after `reindex_full` over 2,000 schemas,
/// seed 5, pinned by length and digest as the owned-flattening analysis
/// (dotted element paths, each tokenized from the root) wrote it. The
/// identity test above compares two builds through the same analysis;
/// this one sees a change to the analysis, to term order or positions,
/// or to the codec. A deliberate format change updates both numbers and
/// says why: version 3 dropped the per-list live df and the per-document
/// baked tombstone columns, 14,288 bytes over this file's two segments.
#[test]
fn the_index_file_is_pinned() {
    let (_, repo) = repository(2_000, 5);
    let engine = SchemrEngine::new(repo);
    engine.reindex_full();
    let file = TempFile::new("pinned");
    engine.save_index(&file.0).expect("save_index");
    let bytes = saved(&file.0);
    assert_eq!(
        (bytes.len(), fnv1a(&bytes)),
        (1_467_336, 0x6ea2_e9c1_29d8_612c)
    );
}
