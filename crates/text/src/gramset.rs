//! Hashed gram signatures: the prepared, allocation-free counterpart of
//! [`crate::ngram`]'s `HashSet<String>` sets.
//!
//! The name matcher scores a (query word × candidate word) pair by the
//! overlap of their all-n-gram sets. A [`GramSet`] stores a word's gram
//! set as a sorted, deduplicated `Vec<u64>` of FNV-1a gram hashes; Dice,
//! Jaccard, and overlap coefficients come from a sorted-merge
//! intersection count that touches no heap. Building the set is the
//! expensive part, so it happens once per distinct word: candidate words
//! are interned in a [`crate::Lexicon`], which owns their gram sets (the
//! only [`GramSet::all_grams`] call on the candidate side), query words
//! get theirs once per search, and the matcher memoises the coefficient
//! per word pair — an intersection runs once per distinct pair, not once
//! per matrix cell. [`GramSet::from_hashes`] over [`hash_term`] ids is the
//! same container over whole terms, which the exact-token matcher uses.
//!
//! The coefficients use the exact arithmetic of [`crate::ngram`], so a
//! score computed over two `GramSet`s is bitwise identical to the same
//! score over the corresponding string sets (up to 64-bit hash collisions,
//! which are vanishingly unlikely within a schema vocabulary — and which
//! the string-set references the matchers are tested against would
//! expose, since they hash nothing).
//!
//! ## Intersection kernels
//!
//! `intersection_size` picks among three kernels, all returning the exact
//! count (the coefficients depend only on the count, so every kernel
//! preserves bitwise-identical scores):
//!
//! * **galloping** — when one side is ≥ `GALLOP_RATIO`× larger, walk the
//!   small side and exponentially probe + binary-search the large side:
//!   O(|small| · log |large|) beats the linear merge on asymmetric pairs,
//!   with or without SIMD.
//! * **AVX2 block merge** (x86-64, when the CPU reports AVX2) —
//!   compares 4×4 u64 blocks per iteration via lane rotations, advancing
//!   whichever block exhausts first; the scalar merge finishes the tail.
//! * **scalar merge** — the portable two-pointer merge, on CPUs without
//!   AVX2.
//!
//! The merge kernel is chosen at run time only, once per process (a
//! `OnceLock` function pointer seeded by `is_x86_feature_detected!`),
//! never per call; every x86-64 build compiles the AVX2 kernel.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a hash of a full string — the "term id" of the exact-token
/// matcher's prepared sets.
pub fn hash_term(term: &str) -> u64 {
    let mut h = FNV_OFFSET;
    for b in term.as_bytes() {
        h = (h ^ u64::from(*b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// A sorted, deduplicated set of 64-bit gram (or term) hashes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GramSet {
    hashes: Vec<u64>,
}

impl GramSet {
    /// The all-n-gram signature of one word: every character n-gram with
    /// lengths `1..=word.len()`, hashed. Mirrors [`crate::ngram::all_ngrams`]
    /// without allocating a string per gram — each suffix start extends
    /// one rolling FNV-1a state per added character.
    pub fn all_grams(word: &str) -> GramSet {
        let n = word.chars().count();
        let mut hashes = Vec::with_capacity(n * (n + 1) / 2);
        for (start, _) in word.char_indices() {
            let tail = &word.as_bytes()[start..];
            let mut h = FNV_OFFSET;
            for (k, &byte) in tail.iter().enumerate() {
                h = (h ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
                // A gram ends at every character boundary: the next byte
                // is absent or not a UTF-8 continuation byte.
                if tail.get(k + 1).is_none_or(|&nb| nb & 0xC0 != 0x80) {
                    hashes.push(h);
                }
            }
        }
        Self::from_hashes(hashes)
    }

    /// Normalize a raw hash list into the sorted-dedup invariant. The vec
    /// is shrunk so [`GramSet::heap_bytes`] reflects resident size in the
    /// byte-budgeted match-artifact cache.
    pub fn from_hashes(mut hashes: Vec<u64>) -> GramSet {
        hashes.sort_unstable();
        hashes.dedup();
        hashes.shrink_to_fit();
        GramSet { hashes }
    }

    /// Number of distinct grams.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// True when the set has no grams.
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// Approximate heap footprint, for byte-budgeted caches.
    pub fn heap_bytes(&self) -> usize {
        self.hashes.capacity() * std::mem::size_of::<u64>()
    }

    /// `|self ∩ other|` — no allocation. Dispatches to galloping search
    /// for highly asymmetric sizes, otherwise to the process-wide merge
    /// kernel (AVX2 block merge when the CPU supports it, scalar
    /// two-pointer merge elsewhere). All paths return the exact count,
    /// so coefficient scores are kernel-independent.
    pub fn intersection_size(&self, other: &GramSet) -> usize {
        let (a, b) = (self.hashes.as_slice(), other.hashes.as_slice());
        if a.is_empty() || b.is_empty() {
            return 0;
        }
        let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
        if large.len() >= small.len().saturating_mul(GALLOP_RATIO) {
            gallop_intersect(small, large)
        } else {
            merge_kernel()(a, b)
        }
    }

    /// Dice coefficient, arithmetic-identical to [`crate::ngram::dice`].
    pub fn dice(&self, other: &GramSet) -> f64 {
        if self.is_empty() && other.is_empty() {
            return 0.0;
        }
        let inter = self.intersection_size(other);
        2.0 * inter as f64 / (self.len() + other.len()) as f64
    }

    /// Jaccard coefficient, arithmetic-identical to
    /// [`crate::ngram::jaccard`].
    pub fn jaccard(&self, other: &GramSet) -> f64 {
        if self.is_empty() && other.is_empty() {
            return 0.0;
        }
        let inter = self.intersection_size(other);
        let union = self.len() + other.len() - inter;
        inter as f64 / union as f64
    }

    /// Overlap coefficient, arithmetic-identical to
    /// [`crate::ngram::overlap`].
    pub fn overlap(&self, other: &GramSet) -> f64 {
        if self.is_empty() || other.is_empty() {
            return 0.0;
        }
        let inter = self.intersection_size(other);
        inter as f64 / self.len().min(other.len()) as f64
    }
}

/// Size ratio at which galloping beats the linear merge: with |large| ≥
/// 16·|small|, |small|·log₂|large| comparisons undercut |a| + |b|.
const GALLOP_RATIO: usize = 16;

type MergeFn = fn(&[u64], &[u64]) -> usize;

/// The process-wide merge kernel, resolved exactly once: AVX2 block merge
/// when the CPU reports AVX2, scalar two-pointer merge otherwise.
fn merge_kernel() -> MergeFn {
    static KERNEL: std::sync::OnceLock<MergeFn> = std::sync::OnceLock::new();
    *KERNEL.get_or_init(select_merge_kernel)
}

fn select_merge_kernel() -> MergeFn {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return avx2_merge;
    }
    scalar_merge
}

/// Safe shim with the plain `MergeFn` ABI around the `target_feature`
/// kernel; installed only after runtime AVX2 detection.
#[cfg(target_arch = "x86_64")]
fn avx2_merge(a: &[u64], b: &[u64]) -> usize {
    // SAFETY: `select_merge_kernel` picks this path only when
    // `is_x86_feature_detected!("avx2")` held, so the required target
    // feature is present for the whole process lifetime.
    unsafe { avx2::merge_count(a, b) }
}

/// `|a ∩ b|` by a portable two-pointer merge over two sorted,
/// deduplicated slices — gram hashes here, word ids in the context
/// matcher.
pub fn scalar_merge<T: Ord>(a: &[T], b: &[T]) -> usize {
    let (mut i, mut j, mut inter) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    inter
}

/// Intersection count for asymmetric sizes: walk `small`, and for each
/// element probe `large` by exponential doubling from the previous match
/// position, then binary-search the bounded window. O(|small|·log|large|).
fn gallop_intersect(small: &[u64], large: &[u64]) -> usize {
    let (mut inter, mut lo) = (0usize, 0usize);
    for &x in small {
        if lo >= large.len() {
            break;
        }
        let mut bound = 1usize;
        while lo + bound < large.len() && large[lo + bound] < x {
            bound *= 2;
        }
        // The insertion point for `x` is ≤ lo + bound (the probe either
        // ran off the end or found a value ≥ x there), so the window
        // below contains it.
        let hi = (lo + bound + 1).min(large.len());
        let idx = lo + large[lo..hi].partition_point(|&v| v < x);
        if large.get(idx) == Some(&x) {
            inter += 1;
            lo = idx + 1;
        } else {
            lo = idx;
        }
    }
    inter
}

/// AVX2 block-merge intersection. Compares 4×4 u64 blocks per iteration:
/// four lane rotations of the `b` block are each tested for lane-wise
/// equality against the `a` block, covering all 16 cross pairs, and the
/// OR of the masks popcounts to the number of `a` lanes matched (each
/// `a` lane matches at most one rotation — elements within a sorted,
/// deduplicated set are distinct). Whichever block's maximum is smaller
/// cannot match anything beyond the other block, so it advances; the
/// scalar merge finishes the tails.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::{
        __m256i, _mm256_castsi256_pd, _mm256_cmpeq_epi64, _mm256_loadu_si256, _mm256_movemask_pd,
        _mm256_or_si256, _mm256_permute4x64_epi64,
    };

    #[target_feature(enable = "avx2")]
    pub fn merge_count(a: &[u64], b: &[u64]) -> usize {
        let (mut i, mut j, mut inter) = (0usize, 0usize, 0usize);
        while i + 4 <= a.len() && j + 4 <= b.len() {
            // SAFETY: the loop condition guarantees four readable u64
            // lanes at both offsets; loadu has no alignment requirement.
            let (va, vb) = unsafe {
                (
                    _mm256_loadu_si256(a.as_ptr().add(i) as *const __m256i),
                    _mm256_loadu_si256(b.as_ptr().add(j) as *const __m256i),
                )
            };
            let r0 = _mm256_cmpeq_epi64(va, vb);
            let r1 = _mm256_cmpeq_epi64(va, _mm256_permute4x64_epi64::<0x39>(vb));
            let r2 = _mm256_cmpeq_epi64(va, _mm256_permute4x64_epi64::<0x4E>(vb));
            let r3 = _mm256_cmpeq_epi64(va, _mm256_permute4x64_epi64::<0x93>(vb));
            let any = _mm256_or_si256(_mm256_or_si256(r0, r1), _mm256_or_si256(r2, r3));
            inter += _mm256_movemask_pd(_mm256_castsi256_pd(any)).count_ones() as usize;
            let (a_max, b_max) = (a[i + 3], b[j + 3]);
            if a_max <= b_max {
                i += 4;
            }
            if b_max <= a_max {
                j += 4;
            }
        }
        inter + super::scalar_merge(&a[i..], &b[j..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ngram;

    /// The string-set ground truth for a word's all-gram signature.
    fn naive(word: &str) -> std::collections::HashSet<String> {
        ngram::all_ngrams(word)
    }

    #[test]
    fn all_grams_cardinality_matches_string_sets() {
        for w in ["abc", "aa", "patient", "x", "", "héllo", "διάγνωση"] {
            assert_eq!(GramSet::all_grams(w).len(), naive(w).len(), "word {w}");
        }
    }

    #[test]
    fn coefficients_are_bitwise_equal_to_string_sets() {
        let pairs = [
            ("patient", "pat"),
            ("first_name", "firstname"),
            ("height", "heights"),
            ("abc", "xyz"),
            ("diagnosis", "diagnoses"),
            ("a", "a"),
        ];
        for (x, y) in pairs {
            let (gx, gy) = (GramSet::all_grams(x), GramSet::all_grams(y));
            let (sx, sy) = (naive(x), naive(y));
            assert_eq!(gx.dice(&gy).to_bits(), ngram::dice(&sx, &sy).to_bits());
            assert_eq!(
                gx.jaccard(&gy).to_bits(),
                ngram::jaccard(&sx, &sy).to_bits()
            );
            assert_eq!(
                gx.overlap(&gy).to_bits(),
                ngram::overlap(&sx, &sy).to_bits()
            );
        }
    }

    #[test]
    fn intersection_by_merge_matches_set_intersection() {
        let a = GramSet::all_grams("patient");
        let b = GramSet::all_grams("patent");
        let expect = naive("patient").intersection(&naive("patent")).count();
        assert_eq!(a.intersection_size(&b), expect);
        assert_eq!(b.intersection_size(&a), expect);
    }

    #[test]
    fn term_sets_dedupe_and_ignore_order() {
        let of_terms =
            |terms: &[&str]| GramSet::from_hashes(terms.iter().map(|t| hash_term(t)).collect());
        let a = of_terms(&["height", "gender", "height"]);
        let b = of_terms(&["gender", "height"]);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn empty_sets_behave_like_the_string_versions() {
        let e = GramSet::default();
        let a = GramSet::all_grams("a");
        assert_eq!(e.dice(&e), 0.0);
        assert_eq!(e.jaccard(&e), 0.0);
        assert_eq!(e.overlap(&a), 0.0);
        assert!(GramSet::all_grams("").is_empty());
    }

    #[test]
    fn hash_term_distinguishes_common_words() {
        let words = ["patient", "height", "gender", "diagnosis", "pat", "ht"];
        let set = GramSet::from_hashes(words.iter().map(|w| hash_term(w)).collect());
        assert_eq!(set.len(), words.len());
    }

    #[test]
    fn from_hashes_shrinks_to_resident_size() {
        // A heavily duplicated input leaves a large capacity behind
        // without the shrink; heap_bytes must track the surviving len.
        let raw: Vec<u64> = (0..1024u64).map(|i| i % 8).collect();
        let set = GramSet::from_hashes(raw);
        assert_eq!(set.len(), 8);
        assert_eq!(set.heap_bytes(), 8 * std::mem::size_of::<u64>());
    }

    /// Every kernel path must return the same count as the scalar merge,
    /// on both symmetric and asymmetric (gallop-dispatched) sizes.
    fn assert_kernels_agree(a: &GramSet, b: &GramSet) {
        let expect = scalar_merge(&a.hashes, &b.hashes);
        assert_eq!(a.intersection_size(b), expect);
        assert_eq!(b.intersection_size(a), expect);
        let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
        assert_eq!(gallop_intersect(&small.hashes, &large.hashes), expect);
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: guarded by the runtime AVX2 check above.
            assert_eq!(unsafe { avx2::merge_count(&a.hashes, &b.hashes) }, expect);
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn the_dispatcher_resolves_avx2_on_a_cpu_that_reports_it() {
        assert_eq!(
            std::ptr::fn_addr_eq(merge_kernel(), avx2_merge as MergeFn),
            std::arch::is_x86_feature_detected!("avx2")
        );
    }

    proptest::proptest! {
        /// Scalar, galloping, AVX2 (when available), and the dispatching
        /// `intersection_size` all agree — dense hash domain for heavy
        /// collision coverage.
        #[test]
        fn kernel_paths_agree_on_dense_sets(
            xs in proptest::collection::vec(0u64..512, 0..160),
            ys in proptest::collection::vec(0u64..512, 0..160),
        ) {
            assert_kernels_agree(&GramSet::from_hashes(xs), &GramSet::from_hashes(ys));
        }

        /// Asymmetric sizes exercise the gallop dispatch (|large| ≥
        /// 16·|small|) against the same oracle.
        #[test]
        fn kernel_paths_agree_on_asymmetric_sets(
            xs in proptest::collection::vec(0u64..4096, 0..6),
            ys in proptest::collection::vec(0u64..4096, 200..400),
        ) {
            assert_kernels_agree(&GramSet::from_hashes(xs), &GramSet::from_hashes(ys));
        }

        /// Real word signatures (unicode included via the `.` class) stay
        /// kernel-independent too.
        #[test]
        fn kernel_paths_agree_on_word_grams(x in ".{0,16}", y in ".{0,16}") {
            assert_kernels_agree(&GramSet::all_grams(&x), &GramSet::all_grams(&y));
        }
    }
}
