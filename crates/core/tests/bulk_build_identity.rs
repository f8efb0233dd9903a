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

use schemr::{IndexScheduler, SchemrEngine, SearchRequest};
use schemr_corpus::workload::{Workload, WorkloadConfig};
use schemr_corpus::{Corpus, CorpusConfig};
use schemr_index::{codec, Index, IndexChange, IndexDocument};
use schemr_model::SchemaId;
use schemr_repo::{Repository, StoredSchema};

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

/// A built engine and one restored from its file are in one state: the
/// bulk build seals its last batch, as a load leaves every segment
/// sealed, so the same tick on both leaves the same file.
#[test]
fn a_built_engine_and_its_restored_file_stay_in_one_state() {
    let (corpus, repo) = repository(2_000, 5);
    let built = SchemrEngine::new(repo.clone());
    built.reindex_full();
    let file = TempFile::new("restored");
    built.save_index(&file.0).expect("save_index");
    let restored = SchemrEngine::new(repo.clone());
    restored.load_index(&file.0).expect("load_index");

    let stored = repo.snapshot();
    for (i, replacement) in corpus.schemas.iter().rev().take(20).enumerate() {
        repo.update(stored[i * 97].metadata.id, replacement.schema.clone())
            .expect("a generated schema replaces a stored one");
    }
    assert_eq!(built.reindex_incremental(), 20);
    assert_eq!(restored.reindex_incremental(), 20);
    built.save_index(&file.0).expect("save_index");
    let built_file = saved(&file.0);
    restored.save_index(&file.0).expect("save_index");
    assert!(
        saved(&file.0) == built_file,
        "the built and the restored engine saved different files after one tick"
    );
}

/// The benchmark's scale. About 18 s in release on 2 vCPUs, as every
/// one-document apply re-freezes a head of up to 1,024 documents; too
/// slow in debug: CI runs it with `cargo test --release -- --ignored`.
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
/// says why: version 4 block-codes the postings and delta-codes the
/// forward index, 1,467,336 → 469,904 bytes over this file's two segments.
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
        (469_904, 0x4bd9_c68f_a782_8d2d)
    );
}

/// The index a merge leaves: 2,000 schemas, seed 5, sealed at 400 (five
/// segments), then schemas replaced and deleted across all five, so the
/// merge compacts five parts, each with tombstones. Pinned by length and
/// digest: a merge re-cuts every surviving list into blocks, re-codes
/// them at their new widths and renames the forward rows, and none of
/// that may change the file unless the format does.
#[test]
fn the_merged_index_file_is_pinned() {
    let (_, repo) = repository(2_000, 5);
    let stored = repo.snapshot();
    // `id`'s document with `content`'s title, summary and schema.
    fn document(id: SchemaId, content: &StoredSchema) -> IndexDocument<'_> {
        IndexDocument {
            id,
            title: &content.metadata.title,
            summary: &content.metadata.summary,
            schema: &content.schema,
        }
    }
    let index = Index::new().with_seal_threshold(400);
    index.bulk_load(&stored, Index::bulk_analysers(), |s| {
        document(s.metadata.id, s)
    });
    assert_eq!(index.segment_count(), 5);
    let replaced = (0..stored.len()).step_by(97).map(|i| {
        let content = &stored[(i * 7 + 3) % stored.len()];
        IndexChange::Put(document(stored[i].metadata.id, content))
    });
    let deleted = (50..stored.len())
        .step_by(131)
        .map(|i| IndexChange::Delete(stored[i].metadata.id));
    let changes: Vec<IndexChange<'_>> = replaced.chain(deleted).collect();
    assert_eq!(index.apply(changes.iter().copied()), changes.len());
    let outcome = index
        .merge(0.001)
        .expect("every sealed segment holds tombstones");
    assert_eq!((outcome.segments_before, outcome.segments_after), (6, 2));
    assert_eq!(outcome.docs_reclaimed, changes.len());
    let bytes = codec::encode(&index);
    assert_eq!(
        (bytes.len(), fnv1a(&bytes)),
        (447_544, 0x93eb_f055_cd6b_788a)
    );
}

/// [`the_merged_index_file_is_pinned`] at the benchmark's scale: 30,000
/// schemas, seed 1, built by `reindex_full` (30 sealed segments), 300
/// schemas replaced, then one scheduler tick, whose merge compacts the 30
/// because they are more than the index keeps. Pinned by length and
/// digest. CI runs it with the other `--ignored` tests.
#[test]
#[ignore]
fn the_paper_scale_merged_file_is_pinned() {
    let (corpus, repo) = repository(30_000, 1);
    let engine = Arc::new(SchemrEngine::new(repo.clone()));
    engine.reindex_full();
    let stored = repo.snapshot();
    for (i, replacement) in corpus.schemas.iter().rev().take(300).enumerate() {
        repo.update(stored[i * 97].metadata.id, replacement.schema.clone())
            .expect("a generated schema replaces a stored one");
    }
    let scheduler = IndexScheduler::new(engine.clone());
    assert_eq!(scheduler.tick(), 300);
    assert_eq!(scheduler.merge_count(), 1);
    let file = TempFile::new("merged-paper-scale");
    engine.save_index(&file.0).expect("save_index");
    let bytes = saved(&file.0);
    assert_eq!(
        (bytes.len(), fnv1a(&bytes)),
        (5_761_024, 0x79c1_2053_fa9c_4735)
    );
}

/// What the paper-scale index may take, on disk and resident.
const BYTE_BUDGET: usize = 10 << 20;

/// The benchmark's 30,000 schemas, seed 1, from `reindex_full`: the file
/// `save_index` writes and the index's resident bytes each fit in
/// [`BYTE_BUDGET`] (6.6 and 6.7 MiB when this gate was set; the raw
/// `u32` columns of version 3 were 20.6 and 21.5). CI runs it with the
/// other `--ignored` tests.
#[test]
#[ignore]
fn the_paper_scale_index_fits_its_byte_budget() {
    let (_, repo) = repository(30_000, 1);
    let engine = SchemrEngine::new(repo);
    engine.reindex_full();
    let file = TempFile::new("budget");
    engine.save_index(&file.0).expect("save_index");
    let (file_bytes, resident) = (
        saved(&file.0).len(),
        engine.memory_report().index_deep_bytes,
    );
    assert!(
        file_bytes <= BYTE_BUDGET && resident <= BYTE_BUDGET,
        "{file_bytes} bytes on disk, {resident} resident, over {BYTE_BUDGET}"
    );
}
