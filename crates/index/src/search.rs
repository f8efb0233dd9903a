//! Disjunctive TF/IDF scoring with the coordination factor — Phase 1 of the
//! paper's search algorithm (Candidate Extraction) — plus WAND/MaxScore
//! top-n pruning over the maintained per-list and per-block impact bounds.
//!
//! ## Segmented scanning
//!
//! The scorer runs over an immutable `IndexSnapshot` — no lock is held
//! anywhere in this module. Segments are scanned sequentially; inside each
//! segment the query's list portions are processed in the *global*
//! deterministic order (strongest `boost · idf` term first), and idf is
//! computed from corpus-wide live document frequencies. A document lives
//! in exactly one segment, so it accumulates the exact same f64 additions
//! in the exact same order as a monolithic index over the same corpus —
//! results are **bitwise identical** across any segment layout, the
//! invariant the segmented-vs-monolithic oracle asserts.
//!
//! The top-n floor θ is shared across segments: the running top-n heap is
//! carried from segment to segment and its scores (exact, final) extend
//! the floor selection, so a later segment starts pruning at full
//! strength instead of warming a fresh floor from nothing. Per-segment
//! bounds (suffix sums, distinct-term caps, proximity ceilings) are
//! computed over the segment's own portions — tighter than any global
//! bound, and valid because a document can only gain from lists in its
//! own segment.
//!
//! ## How pruning works
//!
//! Every query (term, field) list carries an upper bound on the impact any
//! single posting can contribute: `boost · idf · max(√tf/√field_len)`, with
//! the `√tf/√field_len` ceiling maintained incrementally by the index (see
//! [`crate::postings`]). Lists are processed in descending
//! bound order. After each list, the scorer selects the top-n *lower*
//! bounds among touched documents and carried hits (partial score ×
//! matched/total when coordination is on — monotonically nondecreasing,
//! hence a valid lower bound on each document's final score) as the floor
//! θ. From then on:
//!
//! - a document whose partial score plus the summed bounds of all
//!   remaining lists plus the maximum attainable proximity credit is below
//!   θ is dropped from the candidate set;
//! - a posting block whose block bound plus the remaining-list bounds plus
//!   the proximity ceiling is below θ cannot admit *new* documents, so the
//!   scorer only probes surviving candidates inside it (binary search) —
//!   or skips it outright when no candidate falls in its range.
//!
//! Two scoring subtleties make the bound derivation non-trivial: the
//! coordination factor multiplies afterwards (≤ 1, so ignoring it keeps
//! upper bounds valid), but the **proximity bonus adds afterwards**, so
//! every upper bound must include the query's maximum attainable proximity
//! credit — `proximity_weight · Σ field boosts` over adjacent distinct
//! query-term pairs whose lists both exist with live postings in the
//! segment at hand.
//!
//! Pruned and exhaustive modes share the bound-sorted list order, so a
//! returned document accumulates the exact same f64 additions in the exact
//! same order in both — results are bitwise identical, which the
//! `pruning_oracle` integration suite asserts.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::ops::Range;

use schemr_model::SchemaId;

use crate::field::Field;
use crate::metrics::IndexMetrics;
use crate::postings::{BlockBuf, List};
use crate::segment::Segment;
use crate::snapshot::IndexSnapshot;

/// Multiplied into every stored upper bound before comparison: the bound's
/// arithmetic differs from the scorer's by a handful of f64 ops (≈1e-16
/// relative), so 1e-9 of slack leaves six orders of margin while staying
/// far too small to admit real extra work.
const BOUND_SLACK: f64 = 1.0 + 1e-9;
/// The pruning floor is deflated by the same margin before use, so every
/// bound-vs-floor comparison is doubly safe against rounding.
const FLOOR_SLACK: f64 = 1.0 - 1e-9;

/// Options controlling candidate extraction.
#[derive(Debug, Clone)]
pub struct SearchOptions {
    /// Return at most this many hits (the paper's top-*n* candidates).
    pub top_n: usize,
    /// Multiply scores by the coordination factor — "the number of terms
    /// matched divided by the number of terms in the query". Ablated in
    /// experiment E5.
    pub coordination: bool,
    /// Weight of the adjacency (proximity) bonus. The index stores
    /// "proximity data" per the paper; consecutive query terms found at
    /// adjacent positions in a field (the tokens of one compound element
    /// name like `patient_height`) earn this extra credit. 0 disables.
    pub proximity_weight: f64,
    /// Enable WAND/MaxScore top-n pruning: skip postings (whole lists and
    /// whole blocks) that provably cannot place a document in the top n.
    /// Results are bitwise identical either way; `false` forces the
    /// exhaustive scan (the reference `tests/pruning_oracle.rs` compares
    /// the pruner against).
    pub prune: bool,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions {
            top_n: 50,
            coordination: true,
            proximity_weight: 0.25,
            prune: true,
        }
    }
}

/// A scored candidate document.
#[derive(Debug, Clone, PartialEq)]
pub struct Hit {
    /// The schema's repository id.
    pub id: SchemaId,
    /// Coarse-grain relevance score.
    pub score: f64,
    /// How many distinct query terms matched.
    pub matched_terms: usize,
}

/// How much work one Phase 1 probe did: accumulated locally over the
/// scan, so the scan loop stays free of atomic traffic, and published to
/// [`IndexMetrics`] once.
#[derive(Default)]
struct ProbeStats {
    /// Distinct analyzed query terms probed.
    distinct_terms: usize,
    /// Postings entries scanned across all term/field lookups.
    postings_scanned: u64,
    /// Query list portions the pruner skipped entirely (no posting
    /// visited).
    pruned_lists: usize,
    /// Posting entries the pruner proved irrelevant and never visited.
    pruned_postings: u64,
}

/// Min-heap entry for top-n selection (reverse ordering on score). Carries
/// the matched-term count along so building a hit never needs a side
/// lookup over the full scored set.
struct HeapEntry {
    score: f64,
    id: SchemaId,
    matched: u32,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        // Derived from `cmp` so Eq and Ord can never disagree — the
        // `BinaryHeap` consistency contract.
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse on score so the max-heap's root is the *worst* hit; ties
        // break on the external id (larger id is worse), matching the
        // final result ordering so truncation is always a prefix of the
        // full ranking. Scores are never NaN, so `total_cmp` agrees with
        // IEEE comparison while keeping the ordering total. The (score,
        // id) order is layout-independent, so carrying the heap across
        // segments selects the same top n as one corpus-wide pass.
        other
            .score
            .total_cmp(&self.score)
            .then(self.id.cmp(&other.id))
    }
}

/// Per-thread scratch buffers for the scoring loop, reused across queries
/// (and across the segments of one query — `begin` is called once per
/// segment, so accumulators are segment-ordinal-indexed). A warm search
/// allocates what it returns and a few buffers a query, none a segment.
///
/// Accumulators are dense, ordinal-indexed arrays instead of hash maps:
/// every access is a direct index, and "clearing" between queries is an
/// epoch-stamp bump, so reset cost is O(docs touched by the previous
/// query), not O(corpus). `doc_stamp[ord] == query stamp` means the slot's
/// `score`/`matched` values belong to the current query; `term_stamp`
/// guards the matched-count increment so each distinct term counts a
/// document at most once across fields; `pruned[ord] == query stamp` marks
/// a document the pruner proved unable to rank. Stamps are `u64` and never
/// reset, so they cannot collide within a process lifetime.
#[derive(Default)]
struct Scratch {
    score: Vec<f64>,
    matched: Vec<u32>,
    doc_stamp: Vec<u64>,
    term_stamp: Vec<u64>,
    pruned: Vec<u64>,
    /// Ordinals touched by the current (query, segment) pass, in
    /// first-touch order — drives top-n selection without scanning the
    /// whole segment.
    touched: Vec<u32>,
    /// Per-distinct-term stamps for the current pass, pre-assigned
    /// because the bound-sorted walk interleaves terms' field lists.
    term_ids: Vec<u64>,
    /// Floor-selection buffer (per-document lower bounds).
    lower: Vec<f64>,
    /// Surviving candidate ordinals, sorted ascending — the documents a
    /// suppressed block still has to probe for.
    cands: Vec<u32>,
    /// The query's portions, each query list's a run of them.
    portions: Vec<Portion>,
    plan: SegmentPlan,
    /// The block decoders: the scanned list's, and in the proximity walk
    /// the second list's.
    blocks: [BlockBuf; 2],
    stamp: u64,
}

impl Scratch {
    /// Start a new pass over `n_docs` document slots with `n_terms`
    /// distinct terms; returns the pass stamp.
    fn begin(&mut self, n_docs: usize, n_terms: usize) -> u64 {
        if self.score.len() < n_docs {
            self.score.resize(n_docs, 0.0);
            self.matched.resize(n_docs, 0);
            self.doc_stamp.resize(n_docs, 0);
            self.term_stamp.resize(n_docs, 0);
            self.pruned.resize(n_docs, 0);
        }
        self.touched.clear();
        self.stamp += 1;
        let q = self.stamp;
        self.term_ids.clear();
        self.term_ids.extend((1..=n_terms as u64).map(|i| q + i));
        self.stamp += n_terms as u64;
        q
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// The scorer's inverse document frequency for a term with `live_df`
/// live postings in a corpus of `n_docs` live documents. Both inputs are
/// corpus-wide (summed across segments), so idf — and every score — is a
/// function of live content only, never of segment layout.
pub(crate) fn idf_weight(live_df: usize, n_docs: f64) -> f64 {
    1.0 + (n_docs / (1.0 + live_df as f64)).ln()
}

/// One posting's Phase 1 score contribution for `field`:
/// `boost · √tf · idf · 1/√field_len`. Shared between the scan loop and
/// the introspection plane's per-list max-impact bound (the WAND
/// precursor), so the published bound is computed with the scorer's own
/// arithmetic and can never drift from it.
pub(crate) fn impact(field: Field, term_freq: u32, idf: f64, field_len: u32) -> f64 {
    let tf = (term_freq as f64).sqrt();
    let norm = 1.0 / (field_len.max(1) as f64).sqrt();
    field.boost() * tf * idf * norm
}

/// Is any position in `b` exactly one after a position in `a`? Both
/// slices are sorted ascending; two-pointer scan, O(|a| + |b|).
fn has_adjacent(a: &[u32], b: &[u32]) -> bool {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        // Widened: a position read from a file may be `u32::MAX`.
        let want = u64::from(a[i]) + 1;
        match u64::from(b[j]).cmp(&want) {
            Ordering::Equal => return true,
            Ordering::Less => j += 1,
            Ordering::Greater => i += 1,
        }
    }
    false
}

/// One (term, field) query list with its global idf and the per-segment
/// portions that hold live postings for it: `Scratch::portions[portions]`,
/// in segment order.
struct QueryList {
    term_idx: usize,
    field: Field,
    idf: f64,
    portions: Range<usize>,
}

/// List `id` of segment `seg`, a portion of a query list.
#[derive(Clone, Copy)]
struct Portion {
    seg: usize,
    id: u32,
}

/// One portion of a query list inside the segment currently being
/// scanned — query list `list`'s, the segment's list `id` — with its
/// slacked per-segment impact upper bound.
#[derive(Clone, Copy)]
struct SegList {
    list: usize,
    id: u32,
    bound: f64,
}

/// The segment being scanned: its portions in the global list order and
/// the per-position bounds over them.
#[derive(Default)]
struct SegmentPlan {
    lists: Vec<SegList>,
    /// `suffix[i]`: upper bound on what this segment's portions `i..` can
    /// still add to any one document's score. Per-segment — a document
    /// can only gain from lists in its own segment, so this is tighter
    /// than any global sum while staying a valid bound.
    suffix: Vec<f64>,
    /// `distinct_from[i]`: how many distinct query terms still have a
    /// portion in this segment at position `i` or later. A document first
    /// touched at portion `i` appears in no earlier portion, and every
    /// term it matches has at least one live portion here, so its final
    /// matched count — and with coordination on, its coordination factor
    /// — is capped by this value. Scaling admission bounds by it is what
    /// lets pruning fire on multi-term coordinated queries at all: the
    /// floor is a *coordinated* score, so comparing it against
    /// uncoordinated impact sums would leave a factor-of-`total_terms`
    /// gap no bound could ever close.
    distinct_from: Vec<usize>,
    /// Per distinct term: seen while filling `distinct_from`.
    seen: Vec<bool>,
}

impl SegmentPlan {
    /// Plan segment `si`: keep the portions `lists` have there, in order,
    /// and fill the bounds over them.
    fn fill(
        &mut self,
        si: usize,
        seg: &Segment,
        lists: &[QueryList],
        portions: &[Portion],
        total_terms: usize,
    ) {
        self.lists.clear();
        self.lists
            .extend(lists.iter().enumerate().filter_map(|(list, l)| {
                portions[l.portions.clone()]
                    .iter()
                    .find(|p| p.seg == si)
                    .map(|p| SegList {
                        list,
                        id: p.id,
                        bound: l.pl_bound(&seg.data.list(p.id)),
                    })
            }));
        let n = self.lists.len();
        self.suffix.clear();
        self.suffix.resize(n + 1, 0.0);
        self.distinct_from.clear();
        self.distinct_from.resize(n + 1, 0);
        self.seen.clear();
        self.seen.resize(total_terms, false);
        let mut count = 0usize;
        for i in (0..n).rev() {
            let term = lists[self.lists[i].list].term_idx;
            self.suffix[i] = self.suffix[i + 1] + self.lists[i].bound;
            if !self.seen[term] {
                self.seen[term] = true;
                count += 1;
            }
            self.distinct_from[i] = count;
        }
    }
}

/// Recompute the pruning floor θ at a list boundary: the top-n-th largest
/// per-document *lower* bound among surviving touched documents plus the
/// (exact, final) scores already in the carried cross-segment heap,
/// deflated by [`FLOOR_SLACK`]. Also re-derives the surviving candidate
/// set — documents whose upper bound cannot reach θ are marked pruned for
/// this pass. The upper bound is `(score + headroom)` (headroom =
/// remaining list bounds + proximity ceiling), and with coordination on
/// it is additionally scaled by the best coordination factor the document
/// can still attain: `min(total, matched + distinct_remaining) / total`.
/// Without that scaling the floor (which IS coordinated) sits a factor of
/// up to `total_terms` below every uncoordinated upper bound and pruning
/// never fires on multi-term queries. Returns `NEG_INFINITY` (pruning
/// inert) while fewer than top-n documents survive, which keeps
/// tiny-corpus behavior exhaustive.
fn refresh_floor(
    scratch: &mut Scratch,
    q_stamp: u64,
    options: &SearchOptions,
    total_terms: usize,
    headroom: f64,
    distinct_remaining: usize,
    carried: &BinaryHeap<HeapEntry>,
) -> f64 {
    let Scratch {
        score,
        matched,
        pruned,
        touched,
        lower,
        cands,
        ..
    } = scratch;
    lower.clear();
    // Hits carried from earlier segments are final scores — the strongest
    // possible lower bounds, and what lets a later segment prune from its
    // very first list.
    lower.extend(carried.iter().map(|e| e.score));
    for &ord in touched.iter() {
        let o = ord as usize;
        if pruned[o] == q_stamp {
            continue;
        }
        // Monotone lower bound on the final score: the partial sum only
        // grows, matched/total only grows, and proximity only adds.
        let lb = if options.coordination {
            score[o] * (matched[o] as f64 / total_terms as f64)
        } else {
            score[o]
        };
        lower.push(lb);
    }
    if lower.len() < options.top_n {
        return f64::NEG_INFINITY;
    }
    let k = options.top_n - 1;
    let (_, kth, _) = lower.select_nth_unstable_by(k, |a, b| b.total_cmp(a));
    let floor = *kth * FLOOR_SLACK;
    cands.clear();
    for &ord in touched.iter() {
        let o = ord as usize;
        if pruned[o] == q_stamp {
            continue;
        }
        // Best attainable final score. For documents whose tracked score
        // is exact-so-far this dominates their true final (score and
        // matched only grow by what the remaining lists hold); documents
        // that entered understated via a suppressed block were already
        // proven unable to reach the (monotone) floor when first
        // suppressed, so pruning them here is sound regardless.
        let upper = if options.coordination {
            let best_matched = (matched[o] as usize + distinct_remaining).min(total_terms);
            (score[o] + headroom) * (best_matched as f64 / total_terms as f64)
        } else {
            score[o] + headroom
        };
        if upper < floor {
            pruned[o] = q_stamp;
        } else {
            cands.push(ord);
        }
    }
    cands.sort_unstable();
    floor
}

/// Score every document against the analyzed query terms and return the top
/// `options.top_n` by score.
///
/// Per the paper: each term scores independently (pure disjunction — "the
/// candidate extraction algorithm need not match all search terms"), the
/// per-term scores are summed, and the coordination factor is multiplied
/// in afterwards. With `options.prune` the scan skips lists and blocks
/// that provably cannot place a document in the top n; the returned hits
/// are bitwise identical to the exhaustive scan's — and to a monolithic
/// index's, whatever the segment layout.
pub(crate) fn search_postings(
    snap: &IndexSnapshot,
    terms: &[String],
    options: &SearchOptions,
    metrics: &IndexMetrics,
) -> Vec<Hit> {
    if terms.is_empty() || snap.live_docs == 0 || options.top_n == 0 {
        return Vec::new();
    }
    // Distinct terms: a query repeating a word is one semantic term both
    // for scoring and for the coordination denominator.
    let mut distinct: Vec<&String> = terms.iter().collect();
    distinct.sort();
    distinct.dedup();
    metrics.terms_looked_up.add(distinct.len() as u64);
    let mut stats = ProbeStats {
        distinct_terms: distinct.len(),
        ..ProbeStats::default()
    };

    let n_docs = snap.live_docs as f64;
    let total_terms = distinct.len();

    let mut hits = SCRATCH.with(|cell| {
        let scratch = &mut *cell.borrow_mut();
        // Gather the query's (term, field) lists with their live portions.
        // Each lookup is a binary search of a segment's term table in
        // place. df is corpus-wide (summed across segments) so idf is
        // content-determined; a portion whose segment-live df is zero
        // holds only tombstoned postings and is dropped here, exactly as
        // a monolith drops a df-0 list.
        scratch.portions.clear();
        let mut lists: Vec<QueryList> = Vec::new();
        for (term_idx, term) in distinct.iter().enumerate() {
            for field in Field::ALL {
                let first = scratch.portions.len();
                let mut df = 0usize;
                for (seg, segment) in snap.segments.iter().enumerate() {
                    let Some(id) = segment.data.find(field, term) else {
                        continue;
                    };
                    // Live document frequency, maintained incrementally
                    // by the writers — no tombstone rescan per query.
                    let live = segment.live_df(id);
                    if live == 0 {
                        continue;
                    }
                    df += live;
                    scratch.portions.push(Portion { seg, id });
                }
                if df == 0 {
                    continue;
                }
                lists.push(QueryList {
                    term_idx,
                    field,
                    idf: idf_weight(df, n_docs),
                    portions: first..scratch.portions.len(),
                });
            }
        }
        // Process lists term-major — every field list of a term adjacent
        // — with terms ordered by their strongest `boost · idf`
        // descending (ties broken by term, then field within a term; all
        // deterministic).
        //
        // Term-major is a correctness requirement: the matched-term
        // counter uses one stamp per document, which only stays exact
        // while a term's lists are processed consecutively (an
        // intervening term's list would reset the stamp and double-count
        // the first term, inflating the coordination factor past 1).
        //
        // Priority order is what makes pruning effective: rare,
        // high-impact terms build the top-n floor early so long
        // common-term lists are prunable by the time they come up.
        // `boost · idf` tracks the bound's magnitude but depends only on
        // live content (live df, live doc count), never on physical index
        // state, so per-document accumulation sequences — and therefore
        // result bit patterns — are identical between the pruned and
        // exhaustive modes and across churned, sealed, merged, and
        // freshly loaded copies of the same corpus, which ordering by the
        // stale-high stored bounds could not guarantee.
        let mut term_prio = vec![0.0f64; total_terms];
        for l in &lists {
            let p = l.field.boost() * l.idf;
            if p > term_prio[l.term_idx] {
                term_prio[l.term_idx] = p;
            }
        }
        lists.sort_by(|a, b| {
            term_prio[b.term_idx]
                .total_cmp(&term_prio[a.term_idx])
                .then_with(|| distinct[a.term_idx].cmp(distinct[b.term_idx]))
                .then_with(|| a.field.ordinal().cmp(&b.field.ordinal()))
        });

        // The cross-segment top-n heap: hits survive from one segment to
        // the next, so the floor a later segment starts from is the real
        // global floor, not a per-segment restart.
        let mut carried: BinaryHeap<HeapEntry> = BinaryHeap::with_capacity(
            options
                .top_n
                .saturating_add(1)
                .min(snap.total_docs.saturating_add(1)),
        );
        let mut plan = std::mem::take(&mut scratch.plan);
        for (si, seg) in snap.segments.iter().enumerate() {
            if seg.live_docs() == 0 {
                continue;
            }
            plan.fill(si, seg, &lists, &scratch.portions, total_terms);
            if plan.lists.is_empty() {
                continue;
            }
            scan_segment(
                seg,
                &lists,
                &plan,
                terms,
                options,
                scratch,
                &mut carried,
                &mut stats,
            );
        }
        scratch.plan = plan;

        carried
            .into_iter()
            .map(|e| Hit {
                id: e.id,
                score: e.score,
                matched_terms: e.matched as usize,
            })
            .collect::<Vec<Hit>>()
    });
    hits.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.id.cmp(&b.id)));
    metrics.postings_scanned.add(stats.postings_scanned);
    metrics.candidates_returned.add(hits.len() as u64);
    metrics.lists_pruned.add(stats.pruned_lists as u64);
    metrics.postings_pruned.add(stats.pruned_postings);
    hits
}

impl QueryList {
    /// The slacked impact upper bound of one of this list's portions.
    fn pl_bound(&self, pl: &List<'_>) -> f64 {
        pl.max_impact_bound(self.field.boost(), self.idf) * BOUND_SLACK
    }
}

/// Scan one segment: score its portions in global list order, apply the
/// proximity walk, and fold survivors into the carried cross-segment
/// top-n heap. Scan work and pruning go to `stats`.
#[allow(clippy::too_many_arguments)]
fn scan_segment(
    seg: &Segment,
    lists: &[QueryList],
    plan: &SegmentPlan,
    terms: &[String],
    options: &SearchOptions,
    scratch: &mut Scratch,
    carried: &mut BinaryHeap<HeapEntry>,
    stats: &mut ProbeStats,
) {
    let data = &*seg.data;
    let total_terms = stats.distinct_terms;
    let (suffix, distinct_from) = (&plan.suffix, &plan.distinct_from);

    // Maximum attainable proximity credit for any single document in this
    // segment: one adjacency bonus per adjacent distinct query-term pair
    // per field where both lists have live postings *here*. The proximity
    // bonus adds *after* the impact sum, so it must ride along in every
    // upper bound or pruning would silently reorder results.
    let pair_alive =
        |field: Field, t: &String| data.find(field, t).is_some_and(|id| seg.live_df(id) > 0);
    let mut prox_bound = 0.0f64;
    if options.proximity_weight > 0.0 {
        for pair in terms.windows(2) {
            if pair[0] == pair[1] {
                continue;
            }
            for field in Field::ALL {
                if pair_alive(field, &pair[0]) && pair_alive(field, &pair[1]) {
                    prox_bound += options.proximity_weight * field.boost();
                }
            }
        }
        prox_bound *= BOUND_SLACK;
    }

    let q_stamp = scratch.begin(data.doc_count(), total_terms);

    // θ (deflated): NEG_INFINITY means "no floor yet — scan
    // exhaustively", which is also the permanent state when pruning is
    // off. With carried hits from earlier segments the floor activates
    // before this segment's very first portion.
    let mut floor = f64::NEG_INFINITY;
    for (li, sl) in plan.lists.iter().enumerate() {
        if options.prune && (li > 0 || !carried.is_empty()) {
            floor = refresh_floor(
                scratch,
                q_stamp,
                options,
                total_terms,
                suffix[li] + prox_bound,
                distinct_from[li],
                carried,
            );
        }
        let l = &lists[sl.list];
        let pl = data.list(sl.id);
        let t_stamp = scratch.term_ids[l.term_idx];
        let Scratch {
            score,
            matched,
            doc_stamp,
            term_stamp,
            touched,
            cands,
            blocks: [buf, _],
            ..
        } = &mut *scratch;
        let mut cursor = pl.cursor(buf);
        let field_ord = l.field.ordinal() as usize;
        let boost = l.field.boost();
        // Best coordination factor any document *first seen here* can
        // reach: it matches at most the distinct terms with a portion at
        // or after this position.
        let admit_scale = if options.coordination {
            distinct_from[li] as f64 / total_terms as f64
        } else {
            1.0
        };
        // If even the whole-portion bound cannot reach the floor, no
        // block of it can admit new documents.
        let list_admits = (sl.bound + suffix[li + 1] + prox_bound) * admit_scale >= floor;
        let mut visited = 0u64;
        let mut ci = 0usize;
        for b in 0..pl.block_count() {
            let admits = floor == f64::NEG_INFINITY
                || list_admits
                    && (pl.block_impact_bound(b, boost, l.idf) * BOUND_SLACK
                        + suffix[li + 1]
                        + prox_bound)
                        * admit_scale
                        >= floor;
            if admits {
                // The block might hold a document able to reach the top
                // n (or there is no floor yet): scan it in full.
                cursor.load(b);
                let (docs, tfs) = cursor.postings();
                visited += docs.len() as u64;
                for (&doc, &tf) in docs.iter().zip(tfs) {
                    if seg.is_deleted(doc) {
                        continue;
                    }
                    let o = doc as usize;
                    if doc_stamp[o] != q_stamp {
                        doc_stamp[o] = q_stamp;
                        score[o] = 0.0;
                        matched[o] = 0;
                        touched.push(doc);
                    }
                    score[o] += impact(l.field, tf, l.idf, data.field_len(doc, field_ord));
                    if term_stamp[o] != t_stamp {
                        term_stamp[o] = t_stamp;
                        matched[o] += 1;
                    }
                }
                continue;
            }
            // The block cannot admit new documents — only surviving
            // candidates need their scores kept exact, and they are
            // probed by binary search. The skip rows say which
            // candidates can fall in the block; it is decoded only if
            // one does.
            let first = pl.block_first(b);
            while ci < cands.len() && cands[ci] < first {
                ci += 1;
            }
            let next = (b + 1 < pl.block_count()).then(|| pl.block_first(b + 1));
            let mut probes = 0u64;
            if ci < cands.len() && next.is_none_or(|next| cands[ci] < next) {
                cursor.load(b);
                let blk_docs = cursor.docs();
                let last = blk_docs[blk_docs.len() - 1];
                while ci < cands.len() && cands[ci] <= last {
                    if let Ok(pos) = blk_docs.binary_search(&cands[ci]) {
                        let o = cands[ci] as usize;
                        debug_assert_eq!(doc_stamp[o], q_stamp);
                        score[o] += impact(
                            l.field,
                            cursor.tf(pos),
                            l.idf,
                            data.field_len(cands[ci], field_ord),
                        );
                        if term_stamp[o] != t_stamp {
                            term_stamp[o] = t_stamp;
                            matched[o] += 1;
                        }
                    }
                    probes += 1;
                    ci += 1;
                }
            }
            visited += probes;
            stats.pruned_postings += (pl.block(b).len() as u64).saturating_sub(probes);
        }
        if floor != f64::NEG_INFINITY && visited == 0 {
            stats.pruned_lists += 1;
        }
        stats.postings_scanned += visited;
    }

    // Proximity bonus: consecutive query terms adjacent in a field — the
    // signature of an intact compound name.
    if options.proximity_weight > 0.0 {
        // With an active floor the pair walk is the last remaining score
        // source, so any document that cannot reach the floor even with
        // the full proximity ceiling is pruned now, and the walk
        // degenerates to probing the surviving candidates — the
        // full-list lockstep scan is otherwise the dominant cost pruning
        // cannot touch. Every surviving document still receives its
        // credits in the same (pair, field) order as the exhaustive
        // walk, so its additions — and its final bit pattern — are
        // unchanged.
        if options.prune {
            // No term lists remain: each document's coordination factor
            // is final, so `distinct_remaining` is 0 and only the
            // proximity ceiling is left as headroom.
            floor = refresh_floor(
                scratch,
                q_stamp,
                options,
                total_terms,
                prox_bound,
                0,
                carried,
            );
        }
        let probe = floor != f64::NEG_INFINITY;
        let Scratch {
            score,
            doc_stamp,
            cands,
            blocks: [buf_a, buf_b],
            ..
        } = &mut *scratch;
        for pair in terms.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            if a == b {
                continue;
            }
            for field in Field::ALL {
                let (Some(ia), Some(ib)) = (data.find(field, a), data.find(field, b)) else {
                    continue;
                };
                // All-tombstoned portions cannot yield a live adjacency;
                // walking them would only burn scan work under churn.
                if seg.live_df(ia) == 0 || seg.live_df(ib) == 0 {
                    continue;
                }
                let (pa, pb) = (data.list(ia), data.list(ib));
                let (mut ca, mut cb) = (pa.cursor(buf_a), pb.cursor(buf_b));
                // Probing beats the lockstep walk only while the
                // candidate set is smaller than the lists; both paths
                // credit each document identically, so this is purely a
                // cost choice.
                if probe && 2 * cands.len() < pa.doc_freq() + pb.doc_freq() {
                    // Look each surviving candidate up in both lists;
                    // each probe pair is counted as scan work, the
                    // postings the lockstep walk would have visited are
                    // counted as pruned.
                    let mut probes = 0u64;
                    for &d in cands.iter() {
                        probes += 2;
                        let (Some(i), Some(j)) = (ca.seek(d), cb.seek(d)) else {
                            continue;
                        };
                        if seg.is_deleted(d) {
                            continue;
                        }
                        if has_adjacent(ca.positions(i), cb.positions(j)) {
                            let ord = d as usize;
                            if doc_stamp[ord] == q_stamp {
                                score[ord] += options.proximity_weight * field.boost();
                            }
                        }
                    }
                    stats.postings_scanned += probes;
                    stats.pruned_postings +=
                        ((pa.doc_freq() + pb.doc_freq()) as u64).saturating_sub(probes);
                    continue;
                }
                // Walk the (sorted) postings in lockstep, counting every
                // posting the walk visits — this traversal is real scan
                // work and shows up in `postings_scanned`. `a` is at
                // posting `i` of its block `a_block`.
                let (mut a_block, mut i) = (0, 0);
                ca.load(0);
                'walk: for b_block in 0..pb.block_count() {
                    cb.load(b_block);
                    for j in 0..cb.docs().len() {
                        let doc = cb.docs()[j];
                        stats.postings_scanned += 1;
                        loop {
                            if i == ca.docs().len() {
                                a_block += 1;
                                if a_block == pa.block_count() {
                                    break 'walk;
                                }
                                ca.load(a_block);
                                i = 0;
                            }
                            if ca.docs()[i] >= doc {
                                break;
                            }
                            i += 1;
                            stats.postings_scanned += 1;
                        }
                        if ca.docs()[i] != doc || seg.is_deleted(doc) {
                            continue;
                        }
                        if has_adjacent(ca.positions(i), cb.positions(j)) {
                            let ord = doc as usize;
                            if doc_stamp[ord] == q_stamp {
                                score[ord] += options.proximity_weight * field.boost();
                            }
                        }
                    }
                }
            }
        }
    }

    // Fold this segment's survivors into the carried top-n heap. The
    // (score, id) heap order is layout-independent, so incremental
    // folding selects exactly the set a single corpus-wide pass would.
    for &ord in &scratch.touched {
        if scratch.pruned[ord as usize] == q_stamp {
            continue;
        }
        let matched = scratch.matched[ord as usize];
        let coord = if options.coordination {
            matched as f64 / total_terms as f64
        } else {
            1.0
        };
        carried.push(HeapEntry {
            score: scratch.score[ord as usize] * coord,
            id: data.id(ord),
            matched,
        });
        if carried.len() > options.top_n {
            carried.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::OwnedDocument;
    use crate::memory::{Index, IndexChange};

    fn doc(id: u64, elements: &[&str]) -> OwnedDocument {
        OwnedDocument::new(id, &format!("schema{id}"), elements)
    }

    fn build(docs: &[OwnedDocument]) -> Index {
        let index = Index::new();
        index.apply(docs.iter().map(|doc| IndexChange::Put(doc.view())));
        index
    }

    #[test]
    fn more_matched_terms_rank_higher_with_coordination() {
        let index = build(&[
            doc(1, &["patient", "height", "gender", "diagnosis"]),
            doc(2, &["patient", "address", "city", "zip"]),
        ]);
        let hits = index.search(
            &["patient", "height", "gender", "diagnosis"],
            &SearchOptions::default(),
        );
        assert_eq!(hits[0].id, SchemaId(1));
        assert_eq!(hits[0].matched_terms, 4);
        assert_eq!(hits[1].matched_terms, 1);
        assert!(hits[0].score > hits[1].score * 2.0);
    }

    #[test]
    fn disjunction_preserves_recall() {
        // A document matching only one of four terms still surfaces.
        let index = build(&[doc(1, &["diagnosis"]), doc(2, &["unrelated"])]);
        let hits = index.search(
            &["patient", "height", "gender", "diagnosis"],
            &SearchOptions::default(),
        );
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, SchemaId(1));
    }

    #[test]
    fn coordination_off_flattens_the_reward() {
        let index = build(&[
            doc(1, &["patient", "height"]),
            doc(2, &["patient", "other"]),
        ]);
        let on = index.search(&["patient", "height"], &SearchOptions::default());
        let off = index.search(
            &["patient", "height"],
            &SearchOptions {
                coordination: false,
                ..Default::default()
            },
        );
        let ratio_on = on[0].score / on[1].score;
        let ratio_off = off[0].score / off[1].score;
        assert!(ratio_on > ratio_off, "coordination should widen the gap");
    }

    #[test]
    fn rare_terms_outweigh_common_ones() {
        let mut docs: Vec<OwnedDocument> = (0..20).map(|i| doc(i, &["common"])).collect();
        docs.push(doc(100, &["common", "rare"]));
        docs.push(doc(101, &["common", "common2"]));
        let index = build(&docs);
        let hits = index.search(&["rare"], &SearchOptions::default());
        assert_eq!(hits[0].id, SchemaId(100));
    }

    #[test]
    fn top_n_truncates_deterministically() {
        let docs: Vec<OwnedDocument> = (0..30).map(|i| doc(i, &["patient"])).collect();
        let index = build(&docs);
        let hits = index.search(
            &["patient"],
            &SearchOptions {
                top_n: 10,
                ..Default::default()
            },
        );
        assert_eq!(hits.len(), 10);
        // Equal scores → lowest ids win the tie-break.
        let ids: Vec<u64> = hits.iter().map(|h| h.id.0).collect();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn empty_query_and_empty_index() {
        let index = build(&[doc(1, &["x"])]);
        assert!(index.search(&[], &SearchOptions::default()).is_empty());
        let empty = Index::new();
        assert!(empty.search(&["x"], &SearchOptions::default()).is_empty());
        assert!(index
            .search(
                &["x"],
                &SearchOptions {
                    top_n: 0,
                    ..Default::default()
                }
            )
            .is_empty());
    }

    #[test]
    fn repeated_query_words_count_once() {
        let index = build(&[doc(1, &["patient"]), doc(2, &["patient", "height"])]);
        let once = index.search(&["patient"], &SearchOptions::default());
        let thrice = index.search(
            &["patient", "patient", "patient"],
            &SearchOptions::default(),
        );
        assert_eq!(once.len(), thrice.len());
        assert!((once[0].score - thrice[0].score).abs() < 1e-9);
    }

    #[test]
    fn has_adjacent_two_pointer() {
        assert!(has_adjacent(&[0, 5, 9], &[6]));
        assert!(has_adjacent(&[3], &[4]));
        assert!(!has_adjacent(&[3], &[3]));
        assert!(!has_adjacent(&[4], &[3]));
        assert!(!has_adjacent(&[], &[1]));
        assert!(!has_adjacent(&[1], &[]));
        assert!(has_adjacent(&[1, 10, 20], &[0, 2, 30]));
        assert!(!has_adjacent(&[u32::MAX], &[0, u32::MAX]));
    }

    #[test]
    fn intact_compound_names_earn_the_proximity_bonus() {
        // Both docs contain "patient" and "height"; only doc 1 has them as
        // one compound element (adjacent positions after analysis).
        let index = build(&[
            doc(1, &["patient_height", "gender"]),
            doc(2, &["patient", "room", "ceiling_height"]),
        ]);
        let with = index.search(&["patient_height"], &SearchOptions::default());
        assert_eq!(with[0].id, SchemaId(1));
        let margin_with = with[0].score - with[1].score;
        let without = index.search(
            &["patient_height"],
            &SearchOptions {
                proximity_weight: 0.0,
                ..Default::default()
            },
        );
        let margin_without = without[0].score - without[1].score;
        assert!(
            margin_with > margin_without + 0.1,
            "proximity should widen the margin: {margin_with} vs {margin_without}"
        );
    }

    #[test]
    fn separate_adjacent_elements_get_no_proximity_bonus() {
        // Both documents contain "patient" and "height" with identical
        // frequencies and field lengths; only doc 1 has them inside ONE
        // compound element name. The element-boundary position gap must
        // keep doc 2's two adjacent single-token elements from collecting
        // the compound-name bonus.
        let index = build(&[
            OwnedDocument::new(1, "", ["patient_height"]),
            OwnedDocument::new(2, "", ["patient", "height"]),
        ]);
        let hits = index.search(&["patient", "height"], &SearchOptions::default());
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].id, SchemaId(1), "only the intact compound wins");
        assert!(
            hits[0].score > hits[1].score + 1e-9,
            "compound must outscore separated elements: {} vs {}",
            hits[0].score,
            hits[1].score
        );
        // Without proximity the two documents are indistinguishable.
        let flat = index.search(
            &["patient", "height"],
            &SearchOptions {
                proximity_weight: 0.0,
                ..Default::default()
            },
        );
        assert!((flat[0].score - flat[1].score).abs() < 1e-9);
    }

    #[test]
    fn postings_scanned_counts_scoring_and_proximity_work() {
        let reg = schemr_obs::MetricsRegistry::new();
        let index = Index::new().with_metrics(crate::metrics::IndexMetrics::registered(&reg));
        index.add(OwnedDocument::new(1, "", ["patient_height"]).view());
        index.add(OwnedDocument::new(2, "", ["patient"]).view());
        index.search(&["patient", "height"], &SearchOptions::default());
        // Scoring walks (Elements, patient) = 2 postings and
        // (Elements, height) = 1 posting; the proximity lockstep walk over
        // the (patient, height) pair visits the single height posting.
        // 2 + 1 + 1 = 4 — the metric matches the work actually done.
        // (Fewer documents than top_n touched, so pruning stays inert and
        // the counts are the exhaustive ones.)
        assert_eq!(
            reg.counter_value("schemr_index_postings_scanned_total", &[]),
            Some(4)
        );
    }

    #[test]
    fn proximity_never_changes_the_matched_count() {
        let index = build(&[doc(1, &["patient_height"])]);
        let hits = index.search(&["patient_height"], &SearchOptions::default());
        assert_eq!(hits[0].matched_terms, 2); // patient + height
    }

    #[test]
    fn title_hits_outscore_element_hits() {
        let index = build(&[
            OwnedDocument::new(1, "patient", ["x"]),
            OwnedDocument::new(2, "other", ["patient"]),
        ]);
        let hits = index.search(&["patient"], &SearchOptions::default());
        assert_eq!(hits[0].id, SchemaId(1));
    }

    #[test]
    fn heap_entry_eq_agrees_with_cmp() {
        let a = HeapEntry {
            score: 1.0,
            id: SchemaId(1),
            matched: 1,
        };
        let b = HeapEntry {
            score: 1.0,
            id: SchemaId(2),
            matched: 1,
        };
        let c = HeapEntry {
            score: 1.0,
            id: SchemaId(1),
            matched: 9,
        };
        assert_ne!(a.cmp(&b), Ordering::Equal);
        assert!(
            a != b,
            "Eq must agree with Ord: different ids compare unequal"
        );
        assert!(a == c, "Eq must agree with Ord: same (score, id) is equal");
    }

    #[test]
    fn pruning_skips_hopeless_lists_and_is_bitwise_identical() {
        let reg = schemr_obs::MetricsRegistry::new();
        let index = Index::new().with_metrics(crate::metrics::IndexMetrics::registered(&reg));
        // One document holds the rare term; two hundred hold only the
        // common term. With top_n = 1 the rare hit alone sets a floor the
        // common-only documents can never reach.
        index.add(doc(0, &["rare"]).view());
        for i in 1..=200 {
            index.add(doc(i, &["common"]).view());
        }
        let opts = SearchOptions {
            top_n: 1,
            ..Default::default()
        };
        let pruned = index.search(&["rare", "common"], &opts);
        assert!(
            reg.counter_value("schemr_index_lists_pruned_total", &[])
                .unwrap()
                >= 1,
            "the common list should be skipped entirely"
        );
        assert!(
            reg.counter_value("schemr_index_postings_pruned_total", &[])
                .unwrap()
                >= 200,
            "all common postings should go unvisited"
        );
        let exhaustive = index.search(
            &["rare", "common"],
            &SearchOptions {
                prune: false,
                ..opts
            },
        );
        assert_eq!(pruned.len(), exhaustive.len());
        for (p, e) in pruned.iter().zip(&exhaustive) {
            assert_eq!(p.id, e.id);
            assert_eq!(p.score.to_bits(), e.score.to_bits(), "bitwise identity");
            assert_eq!(p.matched_terms, e.matched_terms);
        }
        assert_eq!(pruned[0].id, SchemaId(0));
    }

    #[test]
    fn pruning_stays_bitwise_identical_across_segments() {
        // Same corpus shape as above, but sealed into many segments: the
        // carried floor must activate in later segments without ever
        // changing a returned bit.
        let index = Index::new().with_seal_threshold(32);
        index.add(doc(0, &["rare"]).view());
        for i in 1..=200 {
            index.add(doc(i, &["common"]).view());
        }
        assert!(index.segment_count() > 1);
        let opts = SearchOptions {
            top_n: 1,
            ..Default::default()
        };
        let pruned = index.search(&["rare", "common"], &opts);
        let exhaustive = index.search(
            &["rare", "common"],
            &SearchOptions {
                prune: false,
                ..opts
            },
        );
        assert_eq!(pruned.len(), exhaustive.len());
        for (p, e) in pruned.iter().zip(&exhaustive) {
            assert_eq!(p.id, e.id);
            assert_eq!(p.score.to_bits(), e.score.to_bits(), "bitwise identity");
            assert_eq!(p.matched_terms, e.matched_terms);
        }
        assert_eq!(pruned[0].id, SchemaId(0));
    }

    #[test]
    fn dead_pair_lists_skip_the_proximity_walk() {
        // Every document holding the compound pair is tombstoned; the
        // proximity walk must not traverse their dead postings.
        let reg = schemr_obs::MetricsRegistry::new();
        let index = Index::new().with_metrics(crate::metrics::IndexMetrics::registered(&reg));
        for i in 0..50 {
            index.add(doc(i, &["patient_height"]).view());
        }
        for i in 0..50 {
            index.remove(SchemaId(i));
        }
        index.add(doc(100, &["unrelated"]).view());
        let hits = index.search(&["patient", "height"], &SearchOptions::default());
        assert!(hits.is_empty());
        // Scoring skips the df-0 lists before touching postings, and the
        // proximity walk now skips the dead (patient, height) pair too.
        assert_eq!(
            reg.counter_value("schemr_index_postings_scanned_total", &[]),
            Some(0)
        );
    }
}
