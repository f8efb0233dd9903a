//! A bulk load builds the same index however many threads analyze it.
//!
//! `Index::bulk_load` analyzes every `analysers`-th batch in a session per
//! thread and commits the batches in order on the caller. Sessions number
//! terms in the order they meet them, so two analysers hold two different
//! numberings of one vocabulary; none of that may reach what is built. Per
//! analyser count, seal threshold and corpus size, the file, the revision
//! and the token count must be the one-analyser build's, and a partial
//! last batch is sealed too, so a built index is in the state a load of
//! its file gives.

use std::sync::mpsc;
use std::time::Duration;

use schemr_index::{codec, Index, IndexChange, OwnedDocument};
use schemr_model::SchemaId;

/// Names that share words, stem, expand and repeat across fields, over a
/// vocabulary wide enough that each batch meets words the others have not.
fn doc(i: u64) -> OwnedDocument {
    const WORDS: [&str; 8] = [
        "patient", "visits", "pat_ht", "dob", "order", "TotalQty", "of", "größe",
    ];
    let word = |k: u64| {
        let n = (i * 7 + k * 13) % 151;
        match WORDS.get(n as usize) {
            Some(word) => word.to_string(),
            None => format!("w{n}"),
        }
    };
    let elements = (0..4).map(|k| format!("{}.{}_{}", word(k), word(k + 1), word(k + 2)));
    OwnedDocument::new(i, &format!("{} {}", word(5), word(0)), elements)
        .with_summary(&format!("the {} of {}", word(6), word(7)))
        .with_docs([format!("{} in {}", word(8), word(1))])
}

/// What a build must agree on: the file, the revision, the tokens read.
fn built(threshold: usize, docs: &[OwnedDocument], analysers: usize) -> (Vec<u8>, u64, u64) {
    let index = Index::new().with_seal_threshold(threshold);
    let applied = index.bulk_load(docs, analysers, OwnedDocument::view);
    assert_eq!(applied, docs.len(), "every put is a mutation");
    (
        codec::encode(&index).to_vec(),
        index.revision().mutations,
        index.metrics().tokens.get(),
    )
}

#[test]
fn every_analyser_count_builds_the_one_analyser_index() {
    for threshold in [1, 3, 1024] {
        let mut counts = vec![0, 1, threshold - 1, threshold, threshold + 1, 2_000];
        counts.sort_unstable();
        counts.dedup();
        for n in counts {
            let docs: Vec<OwnedDocument> = (0..n as u64).map(doc).collect();
            let serial = built(threshold, &docs, 1);
            for analysers in [2, 3, 8] {
                let (file, mutations, tokens) = built(threshold, &docs, analysers);
                let case = format!("{analysers} analysers, threshold {threshold}, {n} documents");
                assert!(file == serial.0, "{case}: a different file");
                assert_eq!(mutations, serial.1, "{case}: revision");
                assert_eq!(tokens, serial.2, "{case}: tokens");
            }
        }
    }
}

#[test]
fn replacements_across_batches_tombstone_as_the_serial_path_does() {
    // Ids repeat 25 documents on, so a put tombstones a copy that a batch
    // of either analyser sealed several commits before.
    let docs: Vec<OwnedDocument> = (0..40u64)
        .map(|i| OwnedDocument {
            id: SchemaId(i % 25),
            ..doc(i)
        })
        .collect();
    let serial = built(4, &docs, 1);
    assert_eq!(built(4, &docs, 2), serial);
    let index = Index::new().with_seal_threshold(4);
    index.bulk_load(&docs, 2, OwnedDocument::view);
    assert_eq!(index.doc_counts(), (25, 40));
}

#[test]
fn a_bulk_build_leaves_what_a_load_of_its_file_leaves() {
    // 2,000 documents at 1,024 a segment: two sealed, the head empty. An
    // apply after the build starts a head of one, as it does after a load
    // of the serial loop's file.
    let docs: Vec<OwnedDocument> = (0..2_000).map(doc).collect();
    let next = doc(2_000);
    let serial = Index::new();
    let mut session = serial.session();
    for batch in docs.chunks(serial.seal_threshold()) {
        session.apply(batch.iter().map(|d| IndexChange::Put(d.view())));
    }
    drop(session);
    let loaded = codec::decode(&codec::encode(&serial)).expect("the file loads");
    loaded.apply([IndexChange::Put(next.view())]);

    let pipelined = Index::new();
    pipelined.bulk_load(&docs, 2, OwnedDocument::view);
    assert_eq!(pipelined.segment_count(), 2);
    pipelined.apply([IndexChange::Put(next.view())]);
    assert_eq!(pipelined.segment_count(), 3);
    assert!(codec::encode(&pipelined) == codec::encode(&loaded));
    assert_eq!(pipelined.revision().mutations, 2_001);
}

#[test]
fn a_panic_while_analyzing_reaches_the_caller() {
    let docs: Vec<OwnedDocument> = (0..40).map(doc).collect();
    let (done, finished) = mpsc::channel();
    let builder = std::thread::spawn(move || {
        let index = Index::new().with_seal_threshold(4);
        let outcome = std::panic::catch_unwind(|| {
            index.bulk_load(&docs, 2, |d| {
                // Batch 5, the second analyser's third.
                assert_ne!(d.id, SchemaId(21), "an analyser fails");
                d.view()
            })
        });
        let message = outcome
            .expect_err("the build must panic")
            .downcast::<String>()
            .map(|message| *message);
        done.send(message).unwrap();
    });
    let message = finished
        .recv_timeout(Duration::from_secs(60))
        .expect("the caller must not hang on a dead analyser")
        .expect("the analyser's own panic message");
    assert!(message.contains("an analyser fails"), "{message}");
    builder.join().expect("the panic was caught");
}
