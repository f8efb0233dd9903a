//! Bitwise segmented-vs-monolithic oracle.
//!
//! Segmentation must change *where* postings live, never *what* a query
//! returns: for any churn history, a segmented index (small seal
//! threshold, background merges) must return hits whose ids, matched
//! counts, ranked order, and raw score *bit patterns* are identical to a
//! monolithic index (`usize::MAX` seal threshold) rebuilt from the live
//! documents — across sealing, merging, codec round trips, and with
//! pruning both on and off. Deterministic hand-rolled
//! RNG — no external property-testing dependency.

use std::collections::BTreeMap;

use schemr_index::{Hit, Index, IndexChange, OwnedDocument, SearchOptions};
use schemr_model::SchemaId;

/// xorshift64* — deterministic, no dependencies.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const VOCAB: &[&str] = &[
    "patient",
    "height",
    "gender",
    "diagnosis",
    "order",
    "total",
    "quantity",
    "doctor",
    "specimen",
    "assay",
    "patient_height",
    "order_total",
];

const QUERIES: &[&[&str]] = &[
    &["patient", "height"],
    &["order", "total", "quantity"],
    &["doctor"],
    &["specimen", "assay", "gender", "diagnosis"],
    &["patient_height", "order_total"],
];

fn doc(id: u64, rng: &mut Rng) -> OwnedDocument {
    let n = 2 + rng.below(5) as usize;
    let elements: Vec<_> = (0..n)
        .map(|_| VOCAB[rng.below(VOCAB.len() as u64) as usize].to_string())
        .collect();
    OwnedDocument::new(id, &format!("schema{}", rng.below(6)), elements)
}

/// A monolithic replay of the live set: one segment, no tombstones.
fn monolith(live: &BTreeMap<u64, OwnedDocument>) -> Index {
    let mono = Index::new().with_seal_threshold(usize::MAX);
    mono.apply(live.values().map(|d| IndexChange::Put(d.view())));
    mono
}

/// All oracle queries under `options`, with generous and tight top-n.
fn probe(index: &Index, options: &SearchOptions) -> Vec<Vec<Hit>> {
    let mut out = Vec::new();
    for top_n in [1_000usize, 3] {
        let options = SearchOptions { top_n, ..*options };
        for q in QUERIES {
            out.push(index.search(q, &options));
        }
    }
    out
}

/// Bitwise comparison: same ids, same order, same matched counts, and
/// score `f64::to_bits` equality — not epsilon closeness.
fn assert_bitwise(a: &[Vec<Hit>], b: &[Vec<Hit>], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: probe count");
    for (qi, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.len(), y.len(), "{what}: probe {qi} hit count");
        for (i, (hx, hy)) in x.iter().zip(y).enumerate() {
            assert_eq!(hx.id, hy.id, "{what}: probe {qi} rank {i} id");
            assert_eq!(
                hx.matched_terms, hy.matched_terms,
                "{what}: probe {qi} rank {i} matched_terms"
            );
            assert_eq!(
                hx.score.to_bits(),
                hy.score.to_bits(),
                "{what}: probe {qi} rank {i} score bits ({} vs {})",
                hx.score,
                hy.score
            );
        }
    }
}

/// Compare a segmented index against the monolith oracle under every
/// option combination: pruning on/off × proximity on/off.
fn assert_matches_monolith(segmented: &Index, live: &BTreeMap<u64, OwnedDocument>, what: &str) {
    let mono = monolith(live);
    for prune in [true, false] {
        for proximity_weight in [0.25, 0.0] {
            let options = SearchOptions {
                prune,
                proximity_weight,
                ..Default::default()
            };
            let a = probe(segmented, &options);
            let b = probe(&mono, &options);
            assert_bitwise(
                &a,
                &b,
                &format!("{what} (prune={prune}, prox={proximity_weight})"),
            );
        }
    }
}

/// Drive one churn step against the index and the live-set model.
fn churn_step(index: &Index, live: &mut BTreeMap<u64, OwnedDocument>, rng: &mut Rng, ids: u64) {
    let id = rng.below(ids);
    match rng.below(3) {
        0 | 1 => {
            let d = doc(id, rng);
            index.add(d.view());
            live.insert(id, d);
        }
        _ => {
            let removed = index.remove(SchemaId(id));
            assert_eq!(removed, live.remove(&id).is_some());
        }
    }
}

#[test]
fn churn_across_seals_and_merges_is_bitwise_identical_to_a_monolith() {
    let mut rng = Rng(0x5E6_3141);
    // Tiny threshold: sealing happens every few puts, so the corpus is
    // spread over many segments and every query crosses segment borders.
    let index = Index::new().with_seal_threshold(8);
    let mut live: BTreeMap<u64, OwnedDocument> = BTreeMap::new();

    for step in 0..300u32 {
        churn_step(&index, &mut live, &mut rng, 64);
        if step % 37 == 36 {
            // Background merge at a low bar — runs often, reclaims
            // tombstones, must never change any bit of any answer.
            index.merge(0.05);
        }
        if step % 50 == 49 {
            assert_matches_monolith(&index, &live, &format!("step {step}"));
        }
    }
    assert!(
        index.segment_count() > 1,
        "churn at threshold 8 must actually produce multiple segments"
    );
    assert_matches_monolith(&index, &live, "final");

    // A merge at the lowest bar reclaims every tombstone; still bitwise.
    index.merge(1e-9);
    assert_eq!(index.stats().total_docs, live.len());
    assert_matches_monolith(&index, &live, "post-merge");
}

#[test]
fn codec_round_trip_of_a_segmented_index_is_bitwise_clean() {
    let mut rng = Rng(0xC0DE_C0DE);
    let index = Index::new().with_seal_threshold(4);
    let mut live: BTreeMap<u64, OwnedDocument> = BTreeMap::new();
    for _ in 0..160 {
        churn_step(&index, &mut live, &mut rng, 32);
    }
    assert!(index.segment_count() > 1);

    // The file holds the segments as they are, overlay tombstones beside
    // them; decode publishes the same layout. Both sides of the trip must
    // agree with each other, pruned and exhaustive, and with the monolith.
    let decoded = schemr_index::codec::decode(&schemr_index::codec::encode(&index)).unwrap();
    assert_eq!(decoded.stats(), index.stats());
    assert_eq!(decoded.segment_count(), index.segment_count());
    for prune in [true, false] {
        let options = SearchOptions {
            prune,
            ..Default::default()
        };
        assert_bitwise(
            &probe(&index, &options),
            &probe(&decoded, &options),
            &format!("segmented vs decoded (prune={prune})"),
        );
    }
    assert_matches_monolith(&decoded, &live, "decoded");

    // The decoded index churns on correctly (forward index and overlay
    // dead-df usable), through merges of the loaded segments too.
    for step in 0..60 {
        churn_step(&decoded, &mut live, &mut rng, 32);
        if step % 20 == 19 {
            decoded.merge(0.05);
            assert_matches_monolith(&decoded, &live, &format!("decoded + churn step {step}"));
        }
    }
    decoded.merge(1e-9);
    assert_eq!(decoded.stats().total_docs, live.len());
    assert_matches_monolith(&decoded, &live, "decoded + churn + merge");
}

#[test]
fn merge_preserves_tombstones_applied_after_capture() {
    // Removals that land between a merge's victim capture and its commit
    // are re-applied to the merged segment. Exercised deterministically
    // here via the single-threaded path: remove, merge, remove again —
    // every step must keep agreeing with the monolith.
    let mut rng = Rng(0x7057_0CE5);
    let index = Index::new().with_seal_threshold(5);
    let mut live: BTreeMap<u64, OwnedDocument> = BTreeMap::new();
    for _ in 0..60 {
        churn_step(&index, &mut live, &mut rng, 24);
    }
    let victims: Vec<u64> = live.keys().copied().take(6).collect();
    for (i, id) in victims.iter().enumerate() {
        assert!(index.remove(SchemaId(*id)));
        live.remove(id);
        if i % 2 == 0 {
            index.merge(0.01);
        }
        assert_matches_monolith(&index, &live, &format!("tombstone wave {i}"));
    }
    for id in victims {
        assert!(!index.contains(SchemaId(id)));
    }
}
