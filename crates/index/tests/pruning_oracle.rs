//! Pruned-vs-exhaustive equivalence oracle.
//!
//! WAND/MaxScore pruning must be *invisible*: for every query, option
//! combination, and index state — churned with tombstones (stale-high
//! bounds), codec round-tripped (the same stored bounds read back), merged
//! (bounds rebuilt tight in place) — the pruned search must return hits
//! bitwise identical to the exhaustive scan: same ids, same
//! `matched_terms`, same order, and the exact same `f64` bit patterns
//! for every score. Any tolerance here would let a pruning bug hide
//! behind "close enough" ranking drift, so there is none.
//!
//! Deterministic hand-rolled RNG — no external property-testing
//! dependency (same idiom as `churn.rs`).

use schemr_index::{codec, Hit, Index, OwnedDocument, SearchOptions};
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

fn doc(id: u64, rng: &mut Rng) -> OwnedDocument {
    let n = 2 + rng.below(5) as usize;
    let elements: Vec<_> = (0..n)
        .map(|_| VOCAB[rng.below(VOCAB.len() as u64) as usize].to_string())
        .collect();
    OwnedDocument::new(id, &format!("schema{}", rng.below(6)), elements)
}

/// Queries covering the pruner's interesting shapes: single common term,
/// multi-term disjunctions, an intact compound name (proximity credit),
/// a repeated term (one semantic term), and a miss.
const QUERIES: &[&[&str]] = &[
    &["patient"],
    &["patient", "height"],
    &["order", "total", "doctor"],
    &["specimen", "assay", "gender", "quantity"],
    &["patient_height"],
    &["patient", "patient"],
    &["patient", "no_such_term"],
];

fn assert_bitwise(pruned: &[Hit], exhaustive: &[Hit], what: &str) {
    assert_eq!(
        pruned.len(),
        exhaustive.len(),
        "{what}: hit counts differ (pruning dropped or invented a hit)"
    );
    for (i, (p, e)) in pruned.iter().zip(exhaustive).enumerate() {
        assert_eq!(p.id, e.id, "{what}: rank {i} id differs");
        assert_eq!(
            p.matched_terms, e.matched_terms,
            "{what}: rank {i} matched_terms differs"
        );
        assert_eq!(
            p.score.to_bits(),
            e.score.to_bits(),
            "{what}: rank {i} score bits differ ({} vs {})",
            p.score,
            e.score
        );
    }
}

/// Run every option combination against one index state and demand
/// bitwise identity between pruned and exhaustive results.
fn oracle(index: &Index, state: &str) {
    let corpus = index.len().max(1);
    for (qi, q) in QUERIES.iter().enumerate() {
        for coordination in [true, false] {
            for proximity_weight in [0.25, 0.0] {
                for top_n in [1usize, 10, corpus] {
                    let base = SearchOptions {
                        top_n,
                        coordination,
                        proximity_weight,
                        prune: false,
                    };
                    let exhaustive = index.search(q, &base);
                    let pruned = index.search(
                        q,
                        &SearchOptions {
                            prune: true,
                            ..base
                        },
                    );
                    assert_bitwise(
                        &pruned,
                        &exhaustive,
                        &format!(
                            "{state}, query {qi}, coord={coordination}, \
                             prox={proximity_weight}, top_n={top_n}"
                        ),
                    );
                }
            }
        }
    }
}

#[test]
fn pruning_is_bitwise_invisible_across_churn_and_merge() {
    let mut rng = Rng(0xBEEF_F00D_5EED_0001);
    let index = Index::new();
    for step in 0..700u32 {
        let id = rng.below(96);
        match rng.below(3) {
            0 | 1 => index.add(doc(id, &mut rng).view()),
            _ => {
                index.remove(SchemaId(id));
            }
        }
        // Oracle checkpoints mid-churn: bounds are at their stalest right
        // after a burst of tombstones, which is exactly when an unsound
        // bound would mis-prune.
        if step % 175 == 174 {
            oracle(&index, &format!("churned@{step}"));
        }
    }

    // A codec round trip keeps the stored (stale-high) bounds as they are.
    let decoded = codec::decode(&codec::encode(&index)).unwrap();
    oracle(&decoded, "decoded");

    // A merge rebuilds bounds tight in place; pruning must stay invisible
    // both right after and through further churn on the compacted index.
    index.merge(1e-9).expect("the churn left tombstones");
    oracle(&index, "merged");
    for _ in 0..120 {
        let id = rng.below(96);
        if rng.below(3) == 0 {
            index.remove(SchemaId(id));
        } else {
            index.add(doc(id, &mut rng).view());
        }
    }
    oracle(&index, "merged+rechurned");
}

#[test]
fn pruning_is_bitwise_invisible_on_a_skewed_corpus() {
    // Heavy skew: one ubiquitous term and a handful of rare ones. This is
    // the shape where pruning actually fires (the common list is provably
    // hopeless once the rare lists fill the top-n floor), so bitwise
    // identity here exercises the suppressed-block probe path, not just
    // the exhaustive fallback.
    let index = Index::new();
    for i in 0..400u64 {
        let mut elements = vec!["patient".to_string(); 1 + (i % 3) as usize];
        if i % 97 == 0 {
            elements.push("specimen".to_string());
        }
        if i % 181 == 0 {
            elements.push("assay".to_string());
        }
        index.add(OwnedDocument::new(i, "", elements).view());
    }
    // Tombstone a band in the middle so block maxima go stale.
    for i in 100..220u64 {
        index.remove(SchemaId(i));
    }
    oracle(&index, "skewed");
}
