//! Property-based tests for the text-analysis substrate.

use proptest::prelude::*;
use schemr_text::gramset::{hash_term, GramSet};
use schemr_text::ngram::{all_ngrams, dice, jaccard, ngrams, overlap};
use schemr_text::normalize::fold_case;
use schemr_text::stem::stem;
use schemr_text::tokenize::tokenize;
use schemr_text::Analyzer;

proptest! {
    /// Tokens contain no delimiter characters and reassemble from the source.
    #[test]
    fn tokens_are_alphanumeric_slices_of_the_source(s in ".{0,64}") {
        for t in tokenize(&s) {
            prop_assert!(!t.text.is_empty());
            prop_assert!(t.text.chars().all(|c| c.is_alphanumeric()));
            prop_assert_eq!(&s[t.offset..t.offset + t.text.len()], t.text);
        }
    }

    /// Tokenization never loses alphanumeric characters, whatever the
    /// script: a caseless letter or a non-ASCII digit is no delimiter.
    #[test]
    fn tokenization_preserves_alphanumeric_count(s in ".{0,64}") {
        let total: usize = tokenize(&s).map(|t| t.text.chars().count()).sum();
        let expected = s.chars().filter(|c| c.is_alphanumeric()).count();
        prop_assert_eq!(total, expected);
    }

    /// Stems are nonempty lowercase ASCII for nonempty lowercase input.
    /// (Porter stemming is *not* idempotent in general — e.g. "oase" →
    /// "oas" → "oa" — so we assert shape invariants instead.)
    #[test]
    fn stems_are_nonempty_ascii_lowercase(w in "[a-z]{1,16}") {
        let s = stem(&w);
        prop_assert!(!s.is_empty());
        prop_assert!(s.bytes().all(|b| b.is_ascii_lowercase()));
    }

    /// Stems never grow longer than the input.
    #[test]
    fn stems_do_not_grow(w in "[a-z]{1,16}") {
        prop_assert!(stem(&w).len() <= w.len() + 1, "stem may add at most a restored 'e'");
    }

    /// Case folding is idempotent.
    #[test]
    fn fold_case_idempotent(s in ".{0,32}") {
        let once = fold_case(&s);
        prop_assert_eq!(fold_case(&once), once);
    }

    /// all_ngrams of a k-char word has at most k(k+1)/2 entries and contains
    /// the word itself.
    #[test]
    fn all_ngram_cardinality_bound(w in "[a-z]{1,12}") {
        let grams = all_ngrams(&w);
        let k = w.chars().count();
        prop_assert!(grams.len() <= k * (k + 1) / 2);
        prop_assert!(grams.contains(&w));
    }

    /// Similarity coefficients are symmetric and bounded in [0, 1].
    #[test]
    fn coefficients_symmetric_and_bounded(a in "[a-z]{0,10}", b in "[a-z]{0,10}") {
        let ga = all_ngrams(&a);
        let gb = all_ngrams(&b);
        for f in [dice, jaccard, overlap] {
            let ab = f(&ga, &gb);
            let ba = f(&gb, &ga);
            prop_assert_eq!(ab, ba);
            prop_assert!((0.0..=1.0).contains(&ab), "value {} out of range", ab);
        }
    }

    /// Jaccard never exceeds Dice, Dice never exceeds overlap.
    #[test]
    fn coefficient_ordering(a in "[a-z]{1,10}", b in "[a-z]{1,10}") {
        let ga = all_ngrams(&a);
        let gb = all_ngrams(&b);
        let j = jaccard(&ga, &gb);
        let d = dice(&ga, &gb);
        let o = overlap(&ga, &gb);
        prop_assert!(j <= d + 1e-12);
        prop_assert!(d <= o + 1e-12);
    }

    /// Fixed n-grams of length n each have n chars (when the word is long
    /// enough).
    #[test]
    fn fixed_ngram_lengths(w in "[a-z]{3,12}") {
        for g in ngrams(&w, 3) {
            prop_assert_eq!(g.chars().count(), 3);
        }
    }

    /// Analyzer output terms are nonempty and lowercase for ASCII input.
    #[test]
    fn analyzer_terms_are_normalized(s in "[a-zA-Z0-9_ .-]{0,48}") {
        for term in Analyzer::for_documents().analyze(&s) {
            prop_assert!(!term.is_empty());
            prop_assert_eq!(term.clone(), term.to_lowercase());
        }
    }

    /// `GramSet::intersection_size` (whichever kernel the build/CPU
    /// selects — scalar merge, galloping, or AVX2) matches the
    /// `HashSet<String>` ground truth over arbitrary unicode words.
    #[test]
    fn gramset_intersection_matches_string_set_ground_truth(
        x in ".{0,24}",
        y in ".{0,24}",
    ) {
        let (gx, gy) = (GramSet::all_grams(&x), GramSet::all_grams(&y));
        let (sx, sy) = (all_ngrams(&x), all_ngrams(&y));
        let truth = sx.intersection(&sy).count();
        prop_assert_eq!(gx.intersection_size(&gy), truth);
        prop_assert_eq!(gy.intersection_size(&gx), truth);
        prop_assert_eq!(gx.len(), sx.len());
        prop_assert_eq!(gy.len(), sy.len());
        prop_assert_eq!(gx.dice(&gy).to_bits(), dice(&sx, &sy).to_bits());
        prop_assert_eq!(gx.jaccard(&gy).to_bits(), jaccard(&sx, &sy).to_bits());
        prop_assert_eq!(gx.overlap(&gy).to_bits(), overlap(&sx, &sy).to_bits());
    }

    /// Asymmetric set sizes route through the galloping kernel; the
    /// string-set ground truth must still hold. A short word vs the gram
    /// set of many words gives |large| ≥ 16·|small|.
    #[test]
    fn gramset_gallop_path_matches_ground_truth(
        x in "[a-z]{1,2}",
        words in proptest::collection::vec("[a-z]{1,10}", 8..16),
    ) {
        let mut merged = std::collections::HashSet::new();
        for w in &words {
            merged.extend(all_ngrams(w));
        }
        let of_terms = |terms: &std::collections::HashSet<String>| {
            GramSet::from_hashes(terms.iter().map(|t| hash_term(t)).collect())
        };
        let sx = all_ngrams(&x);
        let (large, small) = (of_terms(&merged), of_terms(&sx));
        let truth = sx.intersection(&merged).count();
        prop_assert_eq!(small.intersection_size(&large), truth);
        prop_assert_eq!(large.intersection_size(&small), truth);
    }
}
