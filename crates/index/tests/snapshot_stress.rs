//! Concurrent readers vs. churn + seal + merge: the lock-free invariant.
//!
//! N searcher threads race a writer that puts, removes, seals, and
//! re-freezes the head's runs on every apply, and a merger that compacts
//! continuously. Every result set a searcher observes is captured
//! together with the snapshot's epoch
//! (`search_terms_versioned` reads both from one `Arc` grab), and after
//! the race each observation is replayed against a monolithic index
//! built from exactly the documents live at that epoch — ids, order,
//! matched counts, and score bit patterns must all be identical. This is
//! the invariant the old "revision read under the search's own lock"
//! comment provided; with lock-free reads it must hold by construction
//! (epoch travels inside the snapshot), and this test pins it.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

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
];

/// Pre-analyzed query term lists — both the racing searches and the
/// replay oracle use `search_terms`, so analyzer behavior cancels out.
fn queries() -> Vec<Vec<String>> {
    vec![
        vec!["patient".into(), "height".into()],
        vec!["order".into(), "total".into(), "quantity".into()],
        vec!["doctor".into()],
        vec!["specimen".into(), "assay".into(), "gender".into()],
    ]
}

/// One scripted mutation. The script is generated against a model so
/// every op succeeds — op k is then exactly mutation k, and a snapshot at
/// epoch m is the state after `ops[0..m]`.
#[derive(Clone)]
enum Op {
    Put(OwnedDocument),
    Remove(u64),
}

fn doc(id: u64, rng: &mut Rng) -> OwnedDocument {
    let n = 2 + rng.below(4) as usize;
    let elements: Vec<_> = (0..n)
        .map(|_| VOCAB[rng.below(VOCAB.len() as u64) as usize].to_string())
        .collect();
    OwnedDocument::new(id, &format!("schema{}", rng.below(4)), elements)
}

fn script(steps: usize, ids: u64, seed: u64) -> Vec<Op> {
    let mut rng = Rng(seed);
    let mut live: BTreeSet<u64> = BTreeSet::new();
    let mut ops = Vec::with_capacity(steps);
    for _ in 0..steps {
        if !live.is_empty() && rng.below(3) == 0 {
            let nth = rng.below(live.len() as u64) as usize;
            let id = *live.iter().nth(nth).unwrap();
            live.remove(&id);
            ops.push(Op::Remove(id));
        } else {
            let id = rng.below(ids);
            live.insert(id);
            ops.push(Op::Put(doc(id, &mut rng)));
        }
    }
    ops
}

/// A result set one searcher observed, with the epoch it was computed at.
struct Observation {
    mutations: u64,
    query: usize,
    hits: Vec<Hit>,
}

#[test]
fn concurrent_reads_are_bitwise_consistent_with_their_epoch() {
    // Tiny seal threshold: the writer seals every few puts, so searchers
    // constantly cross segment boundaries mid-churn.
    race(4, 0x57E5_5EED);
}

#[test]
fn reads_racing_head_run_refreezes_are_bitwise_consistent_with_their_epoch() {
    // A head of up to 64 documents, applied one at a time: every apply
    // re-cuts its runs, merging the newest ones, between seals and merges.
    race(64, 0x0B1A_2E75);
}

/// Race searchers against a writer that replays a script one change an
/// apply under `seal_threshold`, and a merger; then check every result a
/// searcher saw against a monolith of the documents live at its epoch.
fn race(seal_threshold: usize, seed: u64) {
    const STEPS: usize = 2_500;
    const IDS: u64 = 48;
    const SEARCHERS: usize = 3;

    let ops = Arc::new(script(STEPS, IDS, seed));
    let index = Arc::new(Index::new().with_seal_threshold(seal_threshold));
    let done = Arc::new(AtomicBool::new(false));
    let options = SearchOptions {
        top_n: 10,
        ..Default::default()
    };

    let mut searchers = Vec::new();
    for s in 0..SEARCHERS {
        let index = index.clone();
        let done = done.clone();
        let options = options.clone();
        searchers.push(std::thread::spawn(move || {
            let queries = queries();
            let mut observations: Vec<Observation> = Vec::new();
            let mut seen: BTreeSet<(u64, usize)> = BTreeSet::new();
            let mut qi = s; // stagger starting queries across threads
            loop {
                let finished = done.load(Ordering::Relaxed);
                let q = qi % queries.len();
                qi += 1;
                let (hits, revision) = index.search_terms_versioned(&queries[q], &options);
                if seen.insert((revision.mutations, q)) {
                    observations.push(Observation {
                        mutations: revision.mutations,
                        query: q,
                        hits,
                    });
                }
                if finished {
                    return observations;
                }
            }
        }));
    }

    // A dedicated merger hammers compaction the whole time — merges must
    // be invisible to every searcher.
    let merger = {
        let index = index.clone();
        let done = done.clone();
        std::thread::spawn(move || {
            let mut merges = 0u64;
            while !done.load(Ordering::Relaxed) {
                if index.merge(0.02).is_some() {
                    merges += 1;
                }
                std::thread::sleep(Duration::from_micros(200));
            }
            merges
        })
    };

    // The writer replays the script with small pauses so searchers and
    // the merger genuinely interleave with seals and publishes. It counts
    // the publishes whose head was more than one run.
    let mut split_heads = 0;
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Put(d) => index.add(d.view()),
            Op::Remove(id) => assert!(index.remove(SchemaId(*id)), "scripted remove {i}"),
        }
        // Segments beyond sealed + one head are extra runs. Counted in
        // this order, a merge in between can only hide a split head.
        let logical = index.segment_count();
        if index.introspect(0).segments > logical {
            split_heads += 1;
        }
        if i % 8 == 7 {
            std::thread::sleep(Duration::from_micros(300));
        }
    }
    done.store(true, Ordering::Relaxed);
    assert!(split_heads > 0, "no publish split the head into runs");

    let merges = merger.join().unwrap();
    let observed: Vec<Vec<Observation>> =
        searchers.into_iter().map(|s| s.join().unwrap()).collect();

    // Sanity: the race actually raced — merges ran, and searchers caught
    // snapshots strictly between the first and last mutation.
    assert!(merges > 0, "the merger thread never committed a merge");
    let mut all: Vec<Observation> = observed.into_iter().flatten().collect();
    assert!(
        all.iter()
            .any(|o| o.mutations > 0 && o.mutations < STEPS as u64),
        "no searcher observed a mid-churn snapshot"
    );

    // Replay each observed epoch into a monolith and compare bitwise.
    // Observations are verified in epoch order so the model advances
    // through the script exactly once.
    all.sort_by_key(|o| o.mutations);
    let queries = queries();
    let mut model: BTreeMap<u64, OwnedDocument> = BTreeMap::new();
    let mut applied = 0usize;
    let mut oracle: Option<(u64, Index)> = None;
    let mut distinct_epochs = 0usize;
    for obs in &all {
        let m = obs.mutations as usize;
        assert!(m <= STEPS, "epoch beyond the script");
        while applied < m {
            match &ops[applied] {
                Op::Put(d) => {
                    model.insert(d.id.0, d.clone());
                }
                Op::Remove(id) => {
                    assert!(model.remove(id).is_some());
                }
            }
            applied += 1;
        }
        if oracle.as_ref().map(|(e, _)| *e) != Some(obs.mutations) {
            let mono = Index::new().with_seal_threshold(usize::MAX);
            mono.apply(model.values().map(|d| IndexChange::Put(d.view())));
            oracle = Some((obs.mutations, mono));
            distinct_epochs += 1;
        }
        let (_, mono) = oracle.as_ref().unwrap();
        let expect = mono.search_terms(&queries[obs.query], &options);
        assert_eq!(
            expect.len(),
            obs.hits.len(),
            "epoch {} query {}: hit count",
            obs.mutations,
            obs.query
        );
        for (i, (a, b)) in obs.hits.iter().zip(&expect).enumerate() {
            assert_eq!(
                a.id, b.id,
                "epoch {} query {} rank {i}",
                obs.mutations, obs.query
            );
            assert_eq!(
                a.matched_terms, b.matched_terms,
                "epoch {} query {} rank {i}",
                obs.mutations, obs.query
            );
            assert_eq!(
                a.score.to_bits(),
                b.score.to_bits(),
                "epoch {} query {} rank {i}: score bits {} vs {}",
                obs.mutations,
                obs.query,
                a.score,
                b.score
            );
        }
    }
    assert!(
        distinct_epochs > 10,
        "searchers observed only {distinct_epochs} distinct epochs — not a real race"
    );
}
