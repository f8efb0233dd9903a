//! Property-based tests for the inverted index: codec round trips, search
//! invariants, and tombstone behaviour.

use proptest::prelude::*;
use schemr_index::{codec, Index, IndexChange, OwnedDocument, SearchOptions};
use schemr_model::SchemaId;

/// A merge threshold any single tombstone clears.
const ANY_TOMBSTONE: f64 = 1e-9;

fn arb_documents() -> impl Strategy<Value = Vec<OwnedDocument>> {
    proptest::collection::vec(
        (
            0u64..32,
            "[a-z ]{0,24}",
            proptest::collection::vec("[a-z_.]{1,16}", 0..8),
        ),
        1..16,
    )
    .prop_map(|docs| {
        docs.into_iter()
            .map(|(id, title, elements)| OwnedDocument::new(id, &title, elements))
            .collect()
    })
}

fn arb_query() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec("[a-z]{1,8}", 1..5)
}

proptest! {
    /// Codec round trip preserves stats and search behaviour exactly.
    #[test]
    fn codec_round_trip(docs in arb_documents(), query in arb_query()) {
        let index = Index::new();
        index.apply(docs.iter().map(|d| IndexChange::Put(d.view())));
        let decoded = codec::decode(&codec::encode(&index)).unwrap();
        prop_assert_eq!(decoded.stats(), index.stats());
        let q: Vec<&str> = query.iter().map(String::as_str).collect();
        let a = index.search(&q, &SearchOptions::default());
        let b = decoded.search(&q, &SearchOptions::default());
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.id, y.id);
            prop_assert!((x.score - y.score).abs() < 1e-12);
        }
    }

    /// The decoder never panics on corrupted bytes.
    #[test]
    fn decoder_never_panics(docs in arb_documents(), cut in 0usize..4096, flip in 0usize..4096) {
        let index = Index::new();
        index.apply(docs.iter().map(|d| IndexChange::Put(d.view())));
        let mut data = codec::encode(&index).to_vec();
        if !data.is_empty() {
            let f = flip % data.len();
            data[f] ^= 0xA5;
            let c = cut % (data.len() + 1);
            let _ = codec::decode(&data[..c]);
            let _ = codec::decode(&data);
        }
    }

    /// Hits are sorted by non-increasing score and contain no duplicates.
    #[test]
    fn hits_sorted_and_unique(docs in arb_documents(), query in arb_query()) {
        let index = Index::new();
        index.apply(docs.iter().map(|d| IndexChange::Put(d.view())));
        let q: Vec<&str> = query.iter().map(String::as_str).collect();
        let hits = index.search(&q, &SearchOptions::default());
        for w in hits.windows(2) {
            prop_assert!(w[0].score >= w[1].score - 1e-12);
        }
        let ids: std::collections::HashSet<_> = hits.iter().map(|h| h.id).collect();
        prop_assert_eq!(ids.len(), hits.len());
    }

    /// top_n truncation returns a prefix of the full ranking.
    #[test]
    fn top_n_is_a_prefix(docs in arb_documents(), query in arb_query(), n in 1usize..8) {
        let index = Index::new();
        index.apply(docs.iter().map(|d| IndexChange::Put(d.view())));
        let q: Vec<&str> = query.iter().map(String::as_str).collect();
        let full = index.search(&q, &SearchOptions { top_n: usize::MAX, ..Default::default() });
        let cut = index.search(&q, &SearchOptions { top_n: n, ..Default::default() });
        prop_assert_eq!(cut.len(), full.len().min(n));
        for (a, b) in cut.iter().zip(&full) {
            prop_assert_eq!(a.id, b.id);
        }
    }

    /// Removing every document yields an empty index; a merge agrees.
    #[test]
    fn remove_all_then_merge(docs in arb_documents()) {
        let index = Index::new();
        index.apply(docs.iter().map(|d| IndexChange::Put(d.view())));
        let ids: Vec<SchemaId> = docs.iter().map(|d| d.id).collect();
        for id in &ids {
            index.remove(*id);
        }
        prop_assert!(index.is_empty());
        index.merge(ANY_TOMBSTONE);
        let st = index.stats();
        prop_assert_eq!(st.total_docs, 0);
        prop_assert_eq!(st.distinct_terms, 0);
    }

    /// A merge never changes search results.
    #[test]
    fn merge_preserves_search(docs in arb_documents(), query in arb_query()) {
        let index = Index::new();
        index.apply(docs.iter().map(|d| IndexChange::Put(d.view())));
        // Remove every third document to create tombstones.
        for d in docs.iter().step_by(3) {
            index.remove(d.id);
        }
        let q: Vec<&str> = query.iter().map(String::as_str).collect();
        let before = index.search(&q, &SearchOptions::default());
        index.merge(ANY_TOMBSTONE);
        let after = index.search(&q, &SearchOptions::default());
        prop_assert_eq!(before.len(), after.len());
        for (x, y) in before.iter().zip(&after) {
            prop_assert_eq!(x.id, y.id);
            prop_assert!((x.score - y.score).abs() < 1e-9, "{} vs {}", x.score, y.score);
        }
    }

    /// The pruner's stored per-list bounds plus the proximity ceiling
    /// dominate every realized document score — the soundness invariant
    /// WAND/MaxScore pruning rests on. Checked against the *stored*
    /// bounds (stale-high after tombstones), with proximity enabled and
    /// coordination off (coordination multiplies by ≤ 1, so it only
    /// shrinks realized scores; proximity *adds* after the impact sum,
    /// so the ceiling must cover it explicitly).
    #[test]
    fn stored_bounds_dominate_realized_scores(
        docs in arb_documents(),
        query in arb_query(),
        stride in 2usize..5,
    ) {
        let index = Index::new();
        index.apply(docs.iter().map(|d| IndexChange::Put(d.view())));
        // Tombstone a slice so stored bounds go stale-high.
        for d in docs.iter().step_by(stride) {
            index.remove(d.id);
        }
        let terms: Vec<String> = query.clone();
        let distinct: std::collections::HashSet<&str> =
            query.iter().map(String::as_str).collect();
        let intro = index.introspect(usize::MAX);
        let impact_ceiling: f64 = intro
            .top_lists
            .iter()
            .filter(|l| distinct.contains(l.term.as_str()))
            .map(|l| l.stored_bound)
            .sum();
        let proximity_weight = 0.25;
        let adj_pairs = terms.windows(2).filter(|w| w[0] != w[1]).count() as f64;
        let boost_sum: f64 = schemr_index::Field::ALL.iter().map(|f| f.boost()).sum();
        let ceiling =
            (impact_ceiling + adj_pairs * proximity_weight * boost_sum) * (1.0 + 1e-9);
        let options = SearchOptions {
            top_n: usize::MAX,
            coordination: false,
            proximity_weight,
            prune: false,
        };
        for hit in index.search_terms(&terms, &options) {
            prop_assert!(
                hit.score <= ceiling,
                "realized score {} exceeds pruning ceiling {}",
                hit.score,
                ceiling
            );
        }
    }

    /// Matched-term counts never exceed the number of distinct query
    /// terms, and scores are positive.
    #[test]
    fn hit_invariants(docs in arb_documents(), query in arb_query()) {
        let index = Index::new();
        index.apply(docs.iter().map(|d| IndexChange::Put(d.view())));
        let q: Vec<&str> = query.iter().map(String::as_str).collect();
        let distinct: std::collections::HashSet<_> = query.iter().collect();
        for hit in index.search(&q, &SearchOptions::default()) {
            prop_assert!(hit.matched_terms >= 1);
            prop_assert!(hit.matched_terms <= distinct.len());
            prop_assert!(hit.score > 0.0);
        }
    }
}

/// Regression: processing postings lists in a flat priority order let a
/// *different* term's list land between two field lists of the same term,
/// resetting the per-document matched-term stamp and double-counting the
/// first term. With coordination on, that pushed the coordination factor
/// past 1 (matched 3 of 2 distinct terms here) — inflating scores and, in
/// pruned mode, invalidating the `coordination ≤ 1` assumption the
/// admission bounds rest on. List order must keep each term's field lists
/// adjacent.
#[test]
fn interleaved_field_lists_never_double_count_a_term() {
    let index = Index::new();
    // "alpha" appears in doc 0's title (df 1 → high idf, boost 2.0) and
    // in 21 documents' elements (low idf, boost 1.5); "beta" only in doc
    // 0's elements (df 1 → high idf, boost 1.5). A flat boost·idf sort
    // orders the lists alpha-title, beta-elements, alpha-elements —
    // exactly the interleaving that broke the stamp.
    index.add(OwnedDocument::new(0, "alpha", ["alpha", "beta"]).view());
    for i in 1..=20u64 {
        index.add(OwnedDocument::new(i, "", ["alpha"]).view());
    }
    for prune in [false, true] {
        let options = SearchOptions {
            prune,
            ..Default::default()
        };
        let hits = index.search(&["alpha", "beta"], &options);
        let top = &hits[0];
        assert_eq!(top.id, SchemaId(0), "prune={prune}");
        assert_eq!(
            top.matched_terms, 2,
            "prune={prune}: doc 0 matches exactly the two distinct terms"
        );
        for h in &hits {
            assert!(h.matched_terms <= 2, "prune={prune}: {:?}", h);
        }
    }
}
