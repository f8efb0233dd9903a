//! Round trips, refusals by name, and the atomic save.

use super::*;
use crate::document::OwnedDocument;
use crate::search::SearchOptions;

pub(super) fn doc(id: u64, title: &str, elements: &[&str]) -> OwnedDocument {
    OwnedDocument::new(id, title, elements)
        .with_summary("rural health clinic")
        .with_docs(["height in cm"])
}

fn sample_index() -> Index {
    let index = Index::new();
    index.add(
        doc(
            1,
            "clinic",
            &["patient", "patient.height", "patient.gender"],
        )
        .view(),
    );
    index.add(doc(9, "store", &["order", "order.total"]).view());
    index.remove(SchemaId(9));
    index.add(doc(9, "store", &["order", "order.quantity"]).view());
    index
}

fn assert_same_bits(a: &Index, b: &Index, q: &[&str]) {
    let (a, b) = (
        a.search(q, &SearchOptions::default()),
        b.search(q, &SearchOptions::default()),
    );
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.id, y.id);
        assert_eq!(x.score.to_bits(), y.score.to_bits(), "bitwise identity");
    }
}

#[test]
fn encode_decode_round_trips_search_behaviour() {
    let index = sample_index();
    let decoded = decode(&encode(&index)).unwrap();
    assert_eq!(decoded.len(), index.len());
    assert_eq!(decoded.stats(), index.stats());
    assert_same_bits(&index, &decoded, &["patient", "height"]);
}

#[test]
fn segmented_index_round_trips_through_the_flat_format() {
    // A multi-segment index with overlay tombstones comes back as the
    // same segments: count, per-segment document order, overlay bits
    // and stored bounds — and searches like its monolithic twin.
    let segmented = Index::new().with_seal_threshold(2);
    let monolith = Index::new();
    for i in 0..9u64 {
        let d = doc(i, &format!("schema{i}"), &["patient", "patient.height"]);
        segmented.add(d.view());
        monolith.add(d.view());
    }
    segmented.remove(SchemaId(3));
    monolith.remove(SchemaId(3));
    assert!(segmented.segment_count() > 1);
    let decoded = decode(&encode(&segmented)).unwrap();
    assert_eq!(decoded.stats(), segmented.stats());
    let (before, after) = (segmented.snapshot(), decoded.snapshot());
    assert_eq!(after.segments.len(), before.segments.len());
    for (a, b) in before.segments.iter().zip(&after.segments) {
        assert_eq!(a.data.columns(), b.data.columns());
        assert_eq!(a.live.bits(), b.live.bits());
        assert_eq!(a.live_docs(), b.live_docs());
    }
    assert!(after.segments.iter().any(|s| s.live.dead_docs > 0));
    assert_same_bits(&decoded, &monolith, &["patient", "height"]);

    // A head that holds tombstones, three ways: published as the head,
    // sealed on reaching the threshold, and read back from a file.
    let build = |threshold| {
        let index = Index::new().with_seal_threshold(threshold);
        for i in 0..6u64 {
            index.add(doc(i, &format!("schema{i}"), &["patient", "patient.height"]).view());
        }
        index.remove(SchemaId(1));
        index.add(doc(4, "ward", &["patient", "bed"]).view());
        index
    };
    let (head, sealed) = (build(8), build(7));
    let last = |index: &Index| index.snapshot().segments.last().cloned().unwrap();
    let published = last(&head);
    assert_eq!(published.live.dead_docs, 2);
    for other in [last(&sealed), last(&decode(&encode(&head)).unwrap())] {
        assert_eq!(other.data.columns(), published.data.columns());
        assert_eq!(other.live.bits(), published.live.bits());
        assert_eq!(other.live_docs(), published.live_docs());
        for list in 0..published.data.list_count() as u32 {
            assert_eq!(other.live_df(list), published.live_df(list));
        }
    }
    // One more document starts a second segment only beside a sealed one.
    for (index, segments) in [(&head, 1), (&sealed, 2)] {
        index.add(doc(9, "ward", &["bed"]).view());
        assert_eq!(index.segment_count(), segments);
    }
}

#[test]
fn decode_restores_live_df_and_forward_index() {
    // sample_index() leaves one tombstoned version of schema 9, so the
    // (Title, "store") list holds two postings but only one live doc.
    let decoded = decode(&encode(&sample_index())).unwrap();
    let store = decoded
        .introspect(usize::MAX)
        .top_lists
        .into_iter()
        .find(|l| l.field == Field::Title && l.term == "store")
        .expect("(Title, store) list present");
    assert_eq!(store.doc_freq, 2);
    assert_eq!(store.live_doc_freq, 1);
    // The forward index must be usable: removing the live schema 9
    // drives its lists' live df to zero, hiding it from search.
    assert!(decoded.remove(SchemaId(9)));
    assert!(decoded
        .search(&["store"], &SearchOptions::default())
        .is_empty());
}

#[test]
fn a_save_that_fails_half_way_leaves_the_previous_file() {
    let dir = std::env::temp_dir().join(format!("schemr-index-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("segment.idx");
    let index = sample_index();
    save_to(&index, &path).unwrap();
    assert_eq!(load_from(&path).unwrap().stats(), index.stats());

    index.add(doc(12, "ward", &["patient", "bed"]).view());
    let bytes = encode(&index);
    let failed = replace_file(&path, |file| {
        file.write_all(&bytes[..bytes.len() / 2])?;
        Err(std::io::Error::other("disk full"))
    });
    assert!(failed.is_err());
    assert!(!dir.join("segment.idx.tmp").exists(), "temp file removed");
    let previous = load_from(&path).expect("the target was never touched");
    assert_same_bits(&previous, &sample_index(), &["patient", "height"]);
    assert_eq!(previous.len(), 2);

    save_to(&index, &path).unwrap();
    assert_eq!(load_from(&path).unwrap().len(), 3);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn foreign_and_older_files_are_rejected_by_name() {
    assert!(matches!(decode(b"NOTANIDX0000"), Err(CodecError::BadMagic)));
    let mut data = encode(&sample_index()).to_vec();
    for older in [1, 2] {
        data[8] = older;
        let refused = decode(&data);
        assert!(matches!(refused, Err(CodecError::BadVersion(v)) if v == u32::from(older)));
    }
    assert!(matches!(decode(b"SCHM"), Err(CodecError::Corrupt(_))));
}

#[test]
fn empty_index_round_trips() {
    let decoded = decode(&encode(&Index::new())).unwrap();
    assert!(decoded.is_empty());
    assert_eq!(decoded.segment_count(), 0);
}
