//! Damaged index files are refused with a typed error, never a panic and
//! never a wrong answer: every truncation and every single-bit flip of a
//! small multi-segment index with tombstones in sealed segments and in
//! the head.
//!
//! (Files with a *valid* checksum over broken structure are built in
//! `src/codec/hostile.rs`, which can reach the column writer.)

use schemr_index::codec::{decode, encode, CodecError};
use schemr_index::{Index, OwnedDocument, SearchOptions};
use schemr_model::SchemaId;

const QUERIES: &[&[&str]] = &[
    &["patient", "height"],
    &["ward"],
    &["order", "total", "patient"],
];

fn doc(id: u64, title: &str, elements: &[&str]) -> OwnedDocument {
    OwnedDocument::new(id, title, elements)
        .with_summary("a rural clinic")
        .with_docs(["height in cm"])
}

/// Three sealed segments and a head; tombstones on the first segment (a
/// removal and a replacement) and one in the head.
fn fixture() -> Index {
    let index = Index::new().with_seal_threshold(3);
    for id in 0..11 {
        let title = ["clinic", "ward", "store"][id as usize % 3];
        index.add(doc(id, title, &["patient.height", "order.total", "patient"]).view());
    }
    index.remove(SchemaId(1));
    index.add(doc(2, "ward", &["patient.gender"]).view());
    index.add(doc(10, "store", &["order"]).view());
    assert_eq!(index.segment_count(), 5);
    assert!(index.stats().total_docs > index.stats().live_docs);
    index
}

/// A file that loads must answer like the index it was written from.
fn assert_refused(original: &Index, bytes: &[u8], what: &str) {
    match decode(bytes) {
        Err(CodecError::Io(e)) => panic!("{what}: decoding bytes does no I/O, got {e}"),
        Err(_) => {}
        Ok(loaded) => {
            for q in QUERIES {
                let (a, b) = (
                    original.search(q, &SearchOptions::default()),
                    loaded.search(q, &SearchOptions::default()),
                );
                assert_eq!(a, b, "{what}: loaded and answers differently");
            }
            panic!("{what}: loaded");
        }
    }
}

#[test]
fn every_truncation_is_refused() {
    let index = fixture();
    let bytes = encode(&index).to_vec();
    decode(&bytes).expect("the whole file loads");
    for len in 0..bytes.len() {
        assert_refused(
            &index,
            &bytes[..len],
            &format!("cut at {len} of {}", bytes.len()),
        );
    }
    let mut longer = bytes.clone();
    longer.push(0);
    assert_refused(&index, &longer, "one byte appended");
}

#[test]
fn every_bit_flip_is_refused() {
    let index = fixture();
    let mut bytes = encode(&index).to_vec();
    for byte in 0..bytes.len() {
        for bit in 0..8 {
            bytes[byte] ^= 1 << bit;
            assert_refused(&index, &bytes, &format!("byte {byte} bit {bit}"));
            bytes[byte] ^= 1 << bit;
        }
    }
    decode(&bytes).expect("every flip was undone");
}
