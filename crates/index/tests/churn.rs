//! Churn invariants for the incremental live-df bookkeeping.
//!
//! A long interleaved put/delete/replace stream must leave the index
//! observably identical to a fresh index built from just the surviving
//! documents: scores depend on live document frequencies and the live doc
//! count, so any drift in the incremental accounting shows up as a score
//! or ranking difference. Deterministic hand-rolled RNG — no external
//! property-testing dependency.

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

fn doc(id: u64, rng: &mut Rng) -> OwnedDocument {
    let n = 2 + rng.below(4) as usize;
    let elements: Vec<_> = (0..n)
        .map(|_| VOCAB[rng.below(VOCAB.len() as u64) as usize].to_string())
        .collect();
    OwnedDocument::new(id, &format!("schema{}", rng.below(6)), elements)
}

const QUERIES: &[&[&str]] = &[
    &["patient", "height"],
    &["order", "total"],
    &["doctor"],
    &["specimen", "assay", "gender"],
    &["patient_height"],
];

/// A merge threshold any single tombstone clears.
const ANY_TOMBSTONE: f64 = 1e-9;

fn all_results(index: &Index) -> Vec<Vec<Hit>> {
    let options = SearchOptions {
        top_n: 1_000,
        ..Default::default()
    };
    QUERIES.iter().map(|q| index.search(q, &options)).collect()
}

fn assert_equivalent(churned: &Index, what: &str) {
    // Oracle: rebuild from scratch with only the live documents. Same
    // live docs + same live dfs ⇒ identical scores; any incremental
    // bookkeeping bug in the churned index breaks the equality.
    let stats = churned.stats();
    let a = all_results(churned);
    for (qi, hits) in a.iter().enumerate() {
        for h in hits {
            assert!(
                churned.contains(h.id),
                "{what}: query {qi} surfaced tombstoned {:?}",
                h.id
            );
        }
    }
    let merged = {
        // merge() must not change what any query returns.
        churned.merge(ANY_TOMBSTONE);
        churned
    };
    assert_eq!(merged.stats().live_docs, stats.live_docs, "{what}");
    assert_eq!(
        merged.stats().total_docs,
        stats.live_docs,
        "{what}: merge reclaims every tombstone"
    );
    let b = all_results(merged);
    for (qi, (x, y)) in a.iter().zip(&b).enumerate() {
        assert_eq!(x.len(), y.len(), "{what}: query {qi} count changed");
        for (hx, hy) in x.iter().zip(y) {
            assert_eq!(hx.id, hy.id, "{what}: query {qi} ranking changed");
            assert_eq!(hx.matched_terms, hy.matched_terms, "{what}: query {qi}");
            assert!(
                (hx.score - hy.score).abs() < 1e-9,
                "{what}: query {qi} score drifted: {} vs {}",
                hx.score,
                hy.score
            );
        }
    }
}

#[test]
fn interleaved_churn_matches_a_fresh_rebuild() {
    let mut rng = Rng(0x5EED_CAFE);
    let index = Index::new();
    // Model of what should be live: id → current document.
    let mut live: BTreeMap<u64, OwnedDocument> = BTreeMap::new();

    for step in 0..400u32 {
        let id = rng.below(48);
        match rng.below(3) {
            0 | 1 => {
                // Put (fresh insert or replacement).
                let d = doc(id, &mut rng);
                index.add(d.view());
                live.insert(id, d);
            }
            _ => {
                let removed = index.remove(SchemaId(id));
                assert_eq!(removed, live.remove(&id).is_some(), "step {step}");
            }
        }
        assert_eq!(index.len(), live.len(), "step {step}");
    }

    // Side-by-side oracle: a fresh index over only the live documents
    // must return exactly the same ranked hits.
    let fresh = Index::new();
    for d in live.values() {
        fresh.add(d.view());
    }
    let churned_hits = all_results(&index);
    let fresh_hits = all_results(&fresh);
    for (qi, (a, b)) in churned_hits.iter().zip(&fresh_hits).enumerate() {
        assert_eq!(a.len(), b.len(), "query {qi}: hit counts differ");
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.id, y.id, "query {qi}: ranking differs");
            assert_eq!(x.matched_terms, y.matched_terms, "query {qi}");
            assert!(
                (x.score - y.score).abs() < 1e-9,
                "query {qi}: live-df accounting drifted: {} vs {}",
                x.score,
                y.score
            );
        }
    }

    assert_equivalent(&index, "after churn");
}

#[test]
fn codec_round_trip_preserves_live_df_under_churn() {
    let mut rng = Rng(0xD15C_0B07);
    let index = Index::new();
    for _ in 0..120 {
        let id = rng.below(24);
        if rng.below(3) == 0 {
            index.remove(SchemaId(id));
        } else {
            index.add(doc(id, &mut rng).view());
        }
    }
    let decoded = schemr_index::codec::decode(&schemr_index::codec::encode(&index)).unwrap();
    assert_eq!(decoded.stats(), index.stats());
    assert_eq!(decoded.segment_count(), index.segment_count());
    let assert_same_bits = |what: &str| {
        let a = all_results(&index);
        let b = all_results(&decoded);
        for (qi, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_eq!(x.len(), y.len(), "{what}: query {qi}");
            for (hx, hy) in x.iter().zip(y) {
                assert_eq!(hx.id, hy.id, "{what}: query {qi}");
                assert_eq!(
                    hx.score.to_bits(),
                    hy.score.to_bits(),
                    "{what}: query {qi}: decoded live df differs: {} vs {}",
                    hx.score,
                    hy.score
                );
            }
        }
    };
    assert_same_bits("decoded");
    // The decoded index keeps churning correctly: the forward index was
    // read back, so further removals keep df accounting exact.
    let live_ids: Vec<u64> = (0..24).filter(|&i| index.contains(SchemaId(i))).collect();
    for &id in live_ids.iter().take(live_ids.len() / 2) {
        assert!(decoded.remove(SchemaId(id)));
        assert!(index.remove(SchemaId(id)));
    }
    assert_same_bits("post-removal");
    // Replacements land in a fresh head beside the loaded segments, and a
    // merge of the loaded copy alone changes no bit.
    for id in [3, 7, 30] {
        let d = doc(id, &mut rng);
        decoded.add(d.view());
        index.add(d.view());
    }
    assert_same_bits("post-put");
    decoded
        .merge(ANY_TOMBSTONE)
        .expect("removals left tombstones");
    assert_same_bits("post-merge");
}

#[test]
fn churning_out_a_term_pair_costs_the_proximity_walk_nothing() {
    // Regression: the proximity lockstep walk used to traverse postings
    // lists even when every document in them was tombstoned — a churn
    // workload that deleted a popular compound pair kept paying full
    // scan cost for adjacency checks that could never produce a live
    // credit. Dead (live_df = 0) lists must now be skipped outright.
    let index = Index::new();
    for i in 0..40u64 {
        index.add(OwnedDocument::new(i, "", ["patient", "height"]).view());
    }
    // One unrelated live document keeps the index non-empty so the
    // search path runs end to end.
    index.add(OwnedDocument::new(1_000, "", ["doctor"]).view());
    for i in 0..40u64 {
        assert!(index.remove(SchemaId(i)));
    }

    let options = SearchOptions {
        proximity_weight: 0.25,
        ..Default::default()
    };
    // Both query terms are all-tombstoned: scoring skips the dead lists
    // and the proximity walk must skip the dead (patient, height) pair,
    // so the whole query does zero posting-scan work.
    let before = index.metrics().postings_scanned.get();
    assert!(index.search(&["patient", "height"], &options).is_empty());
    assert_eq!(
        index.metrics().postings_scanned.get(),
        before,
        "dead pair lists must cost no scan work"
    );

    // Mixing in a live term: only the live list's single posting is
    // scanned; the dead pair still contributes nothing.
    let before = index.metrics().postings_scanned.get();
    let hits = index.search(&["patient", "height", "doctor"], &options);
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].id, SchemaId(1_000));
    assert_eq!(
        index.metrics().postings_scanned.get() - before,
        1,
        "only the live doctor posting should be visited"
    );

    // A merge reclaims the tombstones; behaviour is unchanged after.
    index.merge(ANY_TOMBSTONE).expect("40 tombstones");
    let before = index.metrics().postings_scanned.get();
    assert!(index.search(&["patient", "height"], &options).is_empty());
    assert_eq!(index.metrics().postings_scanned.get(), before);
}

#[test]
fn revision_moves_on_every_mutation_and_is_instance_scoped() {
    let index = Index::new();
    let r0 = index.revision();
    index.add(OwnedDocument::new(1, "t", ["patient"]).view());
    let r1 = index.revision();
    assert_ne!(r0, r1, "add must move the revision");
    assert!(!index.remove(SchemaId(9)));
    assert_eq!(index.revision(), r1, "failed remove is not a mutation");
    assert!(index.remove(SchemaId(1)));
    let r2 = index.revision();
    assert_ne!(r1, r2);
    index.merge(ANY_TOMBSTONE).expect("one tombstone");
    assert_eq!(r2, index.revision(), "a merge is not a mutation");
    // Two indexes never share a revision, even at the same mutation count.
    let other = Index::new();
    assert_ne!(other.revision(), Index::new().revision());
    assert_ne!(other.revision(), r0);
}

#[test]
fn a_batch_equals_the_same_changes_applied_one_by_one() {
    // `Index::apply` is the only write path, so a batch must be
    // indistinguishable — revision, counts, layout-derived stats and
    // every hit bit — from its changes applied one at a time.
    let mut rng = Rng(0xBA7C_4ED5);
    let docs: Vec<OwnedDocument> = (0..160)
        .map(|_| {
            let id = rng.below(24);
            doc(id, &mut rng)
        })
        .collect();
    // Opens with a put-then-delete of one id and a delete of an id that
    // was never put, all inside the first batch.
    let mut history = vec![
        IndexChange::Put(docs[0].view()),
        IndexChange::Delete(docs[0].id),
        IndexChange::Delete(SchemaId(999)),
    ];
    for d in &docs[1..] {
        history.push(IndexChange::Put(d.view()));
        if rng.below(2) == 0 {
            history.push(IndexChange::Delete(SchemaId(rng.below(24))));
        }
    }

    // Threshold 3 with batches of up to 7: most batches seal mid-way.
    let batched = Index::new().with_seal_threshold(3);
    let sequential = Index::new().with_seal_threshold(3);
    let grid = |index: &Index, prune: bool| -> Vec<Vec<(SchemaId, u64, usize)>> {
        let options = SearchOptions {
            top_n: 10,
            prune,
            ..Default::default()
        };
        QUERIES
            .iter()
            .map(|q| {
                let hits = index.search(q, &options);
                hits.iter()
                    .map(|h| (h.id, h.score.to_bits(), h.matched_terms))
                    .collect()
            })
            .collect()
    };
    let mut rest = history.as_slice();
    let mut len = 3;
    let mut failed_deletes = 0;
    while !rest.is_empty() {
        let (batch, tail) = rest.split_at(len.min(rest.len()));
        rest = tail;
        let took_effect = batched.apply(batch.iter().copied());
        let one_by_one: usize = batch.iter().map(|&c| sequential.apply([c])).sum();
        failed_deletes += batch.len() - one_by_one;
        let what = format!("after a batch of {}", batch.len());
        assert_eq!(took_effect, one_by_one, "{what}");
        assert_eq!(
            batched.revision().mutations,
            sequential.revision().mutations,
            "{what}"
        );
        assert_eq!(batched.doc_counts(), sequential.doc_counts(), "{what}");
        assert_eq!(batched.stats(), sequential.stats(), "{what}");
        for prune in [true, false] {
            assert_eq!(
                grid(&batched, prune),
                grid(&sequential, prune),
                "{what}, prune {prune}"
            );
        }
        // Batch sizes 0..=7, the empty batch included.
        len = rng.below(8) as usize;
    }
    assert!(
        failed_deletes > 1,
        "the history must include failed deletes"
    );
    assert!(batched.segment_count() > 1, "threshold 3 must have sealed");
}

#[test]
fn postings_bytes_sums_every_list_of_a_churned_multi_segment_index() {
    let mut rng = Rng(0xB17E_5000);
    let index = Index::new().with_seal_threshold(8);
    for _ in 0..300 {
        let id = rng.below(64);
        if rng.below(4) == 0 {
            index.remove(SchemaId(id));
        } else {
            index.add(doc(id, &mut rng).view());
        }
    }
    assert!(
        index.segment_count() > 1,
        "{} segments",
        index.segment_count()
    );
    let report = index.introspect(usize::MAX);
    let listed: usize = report.top_lists.iter().map(|l| l.approx_bytes).sum();
    assert!(listed > 0);
    assert_eq!(index.postings_bytes(), listed);
    assert_eq!(index.postings_bytes(), index.introspect(0).postings_bytes);
}

/// Every hit of every query as bits, pruned or exhaustive.
fn ranked(index: &Index, prune: bool) -> Vec<Vec<(SchemaId, u64, usize)>> {
    let options = SearchOptions {
        top_n: 1_000,
        prune,
        ..Default::default()
    };
    QUERIES
        .iter()
        .map(|q| {
            let hits = index.search(q, &options);
            hits.iter()
                .map(|h| (h.id, h.score.to_bits(), h.matched_terms))
                .collect()
        })
        .collect()
}

#[test]
fn a_head_in_runs_ranks_like_a_bulk_build_after_every_apply() {
    // A seeded script of batches of one to four puts, replacements and
    // deletes. The head is published as runs frozen from its builder, so
    // every apply re-cuts them; after each one, what a search returns must
    // be what a bulk build of the live documents returns, to the bit.
    for threshold in [7, Index::new().seal_threshold()] {
        let mut rng = Rng(0x2B1A_C0DE ^ threshold as u64);
        let index = Index::new().with_seal_threshold(threshold);
        let mut live: BTreeMap<u64, OwnedDocument> = BTreeMap::new();
        let (mut puts, mut most_runs) = (0usize, 0usize);
        for step in 0..300u32 {
            let mut batch = Vec::new();
            for _ in 0..1 + rng.below(4) {
                let id = rng.below(64);
                if rng.below(4) == 0 {
                    batch.push((id, None));
                } else {
                    batch.push((id, Some(doc(id, &mut rng))));
                }
            }
            let changes = batch.iter().map(|(id, put)| match put {
                Some(d) => IndexChange::Put(d.view()),
                None => IndexChange::Delete(SchemaId(*id)),
            });
            index.apply(changes);
            for (id, put) in batch {
                match put {
                    Some(d) => {
                        live.insert(id, d);
                        puts += 1;
                    }
                    None => {
                        live.remove(&id);
                    }
                }
            }
            let what = format!("threshold {threshold}, step {step}");
            assert_eq!(index.len(), live.len(), "{what}");

            let built = Index::new().with_seal_threshold(threshold);
            let docs: Vec<&OwnedDocument> = live.values().collect();
            built.bulk_load(&docs, 1, |d| d.view());
            for prune in [true, false] {
                assert_eq!(
                    ranked(&index, prune),
                    ranked(&built, prune),
                    "{what}, prune {prune}"
                );
            }

            // No merge runs here, so the head holds every put since the
            // last seal, and is published as at most ⌊log2 n⌋ + 1 runs.
            let head_docs = puts % threshold;
            let sealed = index.segment_count() - usize::from(head_docs > 0);
            let runs = index.introspect(0).segments - sealed;
            let bound = match head_docs {
                0 => 0,
                n => n.ilog2() as usize + 1,
            };
            assert!(
                runs <= bound,
                "{what}: {runs} runs over {head_docs} documents"
            );
            assert_eq!(runs == 0, head_docs == 0, "{what}");
            most_runs = most_runs.max(runs);

            if step % 20 == 19 {
                let bytes = schemr_index::codec::encode(&index);
                let loaded = schemr_index::codec::decode(&bytes).unwrap();
                assert_eq!(loaded.stats(), index.stats(), "{what}");
                for prune in [true, false] {
                    assert_eq!(
                        ranked(&loaded, prune),
                        ranked(&index, prune),
                        "{what}: loaded, prune {prune}"
                    );
                }
            }
        }
        assert!(
            most_runs >= 2,
            "threshold {threshold}: at most {most_runs} runs"
        );
    }
}
