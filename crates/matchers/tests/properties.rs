//! Property-based tests for the matcher ensemble.

use proptest::prelude::*;
use schemr_match::name::NameMatcherConfig;
use schemr_match::{
    prepare_alone, ContextMatcher, EditDistanceMatcher, Ensemble, MatchScratch, Matcher,
    NameMatcher, PrepareScratch, PreparedCandidate, ScoreScratch, SimilarityMatrix, TokenMatcher,
};
use schemr_model::{DataType, ElementKind, QueryGraph, QueryTerm, Schema, SchemaBuilder};
use schemr_text::{Analyzer, AnalyzerConfig, Lexicon};

fn arb_name() -> impl Strategy<Value = String> {
    "[a-zA-Z][a-zA-Z0-9_]{0,12}"
}

/// Names built from a small pool — so words repeat inside a name, across
/// the elements of a schema and across query terms — in ASCII and
/// multi-byte scripts, glued with every delimiter convention, stop words
/// and nothing-but-delimiters included.
fn arb_pooled_name() -> impl Strategy<Value = String> {
    const POOL: &[&str] = &[
        "patient",
        "pat",
        "height",
        "ht",
        "id",
        "the",
        "of",
        "diagnoses",
        "diagnosis",
        "Date",
        "größe",
        "διάγνωση",
        "名前",
        "x",
        "cm2",
    ];
    const GLUE: &[&str] = &["_", "-", " ", ".", "__", ""];
    proptest::collection::vec((0..POOL.len(), 0..GLUE.len()), 0..5).prop_map(|parts| {
        parts
            .into_iter()
            .map(|(word, glue)| format!("{}{}", POOL[word], GLUE[glue]))
            .collect()
    })
}

/// Keyword terms over arbitrary texts, empty ones included (which
/// `QueryGraph::add_keyword` would drop).
fn raw_terms(texts: &[String]) -> Vec<QueryTerm> {
    texts
        .iter()
        .map(|text| QueryTerm {
            text: text.clone(),
            fragment: None,
            element: None,
            kind: ElementKind::Attribute,
        })
        .collect()
}

/// One entity named `names[0]` with an attribute per remaining name.
fn flat_schema(title: &str, names: &[String]) -> Schema {
    let attrs = names[1..].to_vec();
    SchemaBuilder::new(title)
        .entity(names[0].clone(), move |mut e| {
            for a in &attrs {
                e = e.attr(a.clone(), DataType::Text);
            }
            e
        })
        .build_unchecked()
}

fn assert_same_bits(a: &SimilarityMatrix, b: &SimilarityMatrix) {
    assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()));
    for r in 0..a.rows() {
        for c in 0..a.cols() {
            assert_eq!(
                a.get(r, c).to_bits(),
                b.get(r, c).to_bits(),
                "cell ({r},{c})"
            );
        }
    }
}

fn keyword_terms(words: &[String]) -> (QueryGraph, Vec<QueryTerm>) {
    let mut q = QueryGraph::new();
    for w in words {
        q.add_keyword(w.clone());
    }
    let t = q.terms();
    (q, t)
}

/// Five matchers over two analyzers: the standard pair and a second name
/// matcher that analyzes plainly, plus two that name no analyzer (token
/// hashes its own plain tokens; edit reads the schema itself).
fn two_analyzer_matchers() -> Vec<Box<dyn Matcher>> {
    vec![
        Box::new(NameMatcher::new()),
        Box::new(ContextMatcher::new()),
        Box::new(NameMatcher::with(
            Analyzer::plain(),
            NameMatcherConfig::default(),
        )),
        Box::new(TokenMatcher::new()),
        Box::new(EditDistanceMatcher::new()),
    ]
}

/// The standard ensemble's pair, one analyzer pass between them.
fn standard_matchers() -> Vec<Box<dyn Matcher>> {
    vec![
        Box::new(NameMatcher::new()),
        Box::new(ContextMatcher::new()),
    ]
}

fn ensemble_of(matchers: Vec<Box<dyn Matcher>>) -> Ensemble {
    let mut ensemble = Ensemble::empty();
    for m in matchers {
        ensemble.push(m, 1.0);
    }
    ensemble
}

proptest! {
    /// Scalar similarities are symmetric and bounded for every matcher.
    #[test]
    fn scalar_similarities_symmetric_and_bounded(a in arb_name(), b in arb_name()) {
        let name = NameMatcher::new();
        let token = TokenMatcher::new();
        let edit = EditDistanceMatcher::new();
        for (sa, sb) in [
            (name.similarity(&a, &b), name.similarity(&b, &a)),
            (token.similarity(&a, &b), token.similarity(&b, &a)),
            (edit.similarity(&a, &b), edit.similarity(&b, &a)),
        ] {
            prop_assert!((sa - sb).abs() < 1e-12);
            prop_assert!((0.0..=1.0).contains(&sa), "{}", sa);
        }
    }

    /// Identical names score 1.0 under name and token matchers.
    #[test]
    fn identity_scores_one(a in "[a-z][a-z0-9_]{0,12}") {
        let name = NameMatcher::new();
        let token = TokenMatcher::new();
        prop_assert!((name.similarity(&a, &a) - 1.0).abs() < 1e-9);
        prop_assert!((token.similarity(&a, &a) - 1.0).abs() < 1e-9);
    }

    /// Every matcher's matrix has the declared dimensions and values in
    /// [0, 1].
    #[test]
    fn matrices_have_unit_interval_values(
        keywords in proptest::collection::vec(arb_name(), 1..4),
        attrs in proptest::collection::vec(arb_name(), 1..5),
    ) {
        let (q, terms) = keyword_terms(&keywords);
        let candidate = SchemaBuilder::new("c")
            .entity("entity", move |mut e| {
                for (i, a) in attrs.iter().enumerate() {
                    e = e.attr(format!("{a}{i}"), DataType::Text);
                }
                e
            })
            .build_unchecked();
        let matchers: Vec<Box<dyn Matcher>> = vec![
            Box::new(NameMatcher::new()),
            Box::new(ContextMatcher::new()),
            Box::new(TokenMatcher::new()),
            Box::new(EditDistanceMatcher::new()),
        ];
        let lexicon = Lexicon::new();
        for m in &matchers {
            let matrix = m.score(
                &m.prepare_query(&terms, &q),
                &terms,
                &q,
                &prepare_alone(m.as_ref(), &candidate, &lexicon),
                &candidate,
                &mut ScoreScratch::new(&lexicon),
            );
            prop_assert_eq!(matrix.rows(), terms.len());
            prop_assert_eq!(matrix.cols(), candidate.len());
            for (_, _, v) in matrix.nonzero() {
                prop_assert!((0.0..=1.0).contains(&v));
            }
        }
    }

    /// Combining a matrix with itself at any weights reproduces it.
    #[test]
    fn self_combination_is_identity(
        rows in 1usize..4,
        cols in 1usize..4,
        cells in proptest::collection::vec(0.0f64..1.0, 1..16),
        w1 in 0.1f64..5.0,
        w2 in 0.1f64..5.0,
    ) {
        let mut m = SimilarityMatrix::zeros(rows, cols);
        for (i, v) in cells.iter().enumerate().take(rows * cols) {
            m.set(i / cols, i % cols, *v);
        }
        let combined = SimilarityMatrix::combine(&[(&m, w1), (&m, w2)]);
        for r in 0..rows {
            for c in 0..cols {
                prop_assert!((combined.get(r, c) - m.get(r, c)).abs() < 1e-9);
            }
        }
    }

    /// Combination with abstention equals plain combination when no
    /// matcher abstains.
    #[test]
    fn abstention_off_matches_plain_combine(
        cells_a in proptest::collection::vec(0.0f64..1.0, 4),
        cells_b in proptest::collection::vec(0.0f64..1.0, 4),
        w in 0.1f64..3.0,
    ) {
        let mut a = SimilarityMatrix::zeros(2, 2);
        let mut b = SimilarityMatrix::zeros(2, 2);
        for i in 0..4 {
            a.set(i / 2, i % 2, cells_a[i]);
            b.set(i / 2, i % 2, cells_b[i]);
        }
        let plain = SimilarityMatrix::combine(&[(&a, 1.0), (&b, w)]);
        let sparse = SimilarityMatrix::combine_with_abstention(&[(&a, 1.0, false), (&b, w, false)]);
        for r in 0..2 {
            for c in 0..2 {
                prop_assert!((plain.get(r, c) - sparse.get(r, c)).abs() < 1e-12);
            }
        }
    }

    /// An abstaining all-zero matrix never changes the combination.
    #[test]
    fn abstaining_zero_matrix_is_neutral(
        cells in proptest::collection::vec(0.0f64..1.0, 4),
        w in 0.1f64..3.0,
    ) {
        let mut a = SimilarityMatrix::zeros(2, 2);
        for (i, v) in cells.iter().enumerate() {
            a.set(i / 2, i % 2, *v);
        }
        let zeros = SimilarityMatrix::zeros(2, 2);
        let with = SimilarityMatrix::combine_with_abstention(&[(&a, 1.0, false), (&zeros, w, true)]);
        for r in 0..2 {
            for c in 0..2 {
                prop_assert!((with.get(r, c) - a.get(r, c)).abs() < 1e-12);
            }
        }
    }

    /// The ensemble's combined matrix is bounded by the max of the member
    /// matrices per cell (a weighted average cannot exceed the max).
    #[test]
    fn ensemble_bounded_by_member_max(
        keywords in proptest::collection::vec(arb_name(), 1..3),
    ) {
        let (q, terms) = keyword_terms(&keywords);
        let candidate = SchemaBuilder::new("c")
            .entity("patient", |e| {
                e.attr("height", DataType::Real).attr("gender", DataType::Text)
            })
            .build_unchecked();
        let ensemble = Ensemble::standard();
        let lexicon = Lexicon::new();
        let combined = ensemble
            .run(
                &terms,
                &q,
                &ensemble.prepare(&candidate, &lexicon),
                &candidate,
                &mut MatchScratch::new(&ensemble.prepare_query(&terms, &q), &lexicon),
                false,
            )
            .matrix;
        let members = ensemble.individual(&terms, &q, &candidate);
        for r in 0..combined.rows() {
            for c in 0..combined.cols() {
                let max_member = members
                    .iter()
                    .map(|(_, m)| m.get(r, c))
                    .fold(0.0f64, f64::max);
                prop_assert!(combined.get(r, c) <= max_member + 1e-12);
            }
        }
    }

    /// The name matrix composed from word ids and the word-pair memo
    /// equals the string-set reference `NameMatcher::similarity`, cell by
    /// cell and bit for bit — for pooled and for arbitrary unicode names,
    /// with the names analyzer and with one that strips stop words (so
    /// some names analyze to nothing), in a new lexicon and in one that
    /// already holds words, with a new memo and with one that has
    /// already scored another candidate.
    #[test]
    fn name_matrix_equals_the_string_reference(
        pooled_terms in proptest::collection::vec(arb_pooled_name(), 1..5),
        wild_term in ".{0,10}",
        pooled_elements in proptest::collection::vec(arb_pooled_name(), 1..7),
        wild_element in ".{0,10}",
        other_elements in proptest::collection::vec(arb_pooled_name(), 1..5),
    ) {
        let mut texts = pooled_terms;
        texts.push(wild_term);
        texts.push(texts[0].clone()); // one term twice: its words share memo columns
        let terms = raw_terms(&texts);
        let mut names = pooled_elements;
        names.push(wild_element);
        let candidate = flat_schema("cand", &names);
        let other = flat_schema("other", &other_elements);
        let q = QueryGraph::new();
        let matchers = [
            NameMatcher::new(),
            NameMatcher::with(Analyzer::new(AnalyzerConfig::default()), NameMatcherConfig::default()),
        ];
        for m in &matchers {
            let pq = m.prepare_query(&terms, &q);
            let lexicon = Lexicon::new();
            let cold = m.score(
                &pq, &terms, &q, &prepare_alone(m, &candidate, &lexicon), &candidate,
                &mut ScoreScratch::new(&lexicon),
            );
            // Warm: lexicon and memo have both seen another candidate.
            let lexicon = Lexicon::new();
            let mut scratch = ScoreScratch::new(&lexicon);
            m.score(&pq, &terms, &q, &prepare_alone(m, &other, &lexicon), &other, &mut scratch);
            let warm = m.score(
                &pq, &terms, &q, &prepare_alone(m, &candidate, &lexicon), &candidate, &mut scratch,
            );
            for (r, term) in terms.iter().enumerate() {
                for (c, id) in candidate.ids().enumerate() {
                    let reference = m.similarity(&term.text, candidate.element(id).name);
                    prop_assert_eq!(cold.get(r, c).to_bits(), reference.to_bits(), "cold ({},{})", r, c);
                    prop_assert_eq!(warm.get(r, c).to_bits(), reference.to_bits(), "warm ({},{})", r, c);
                }
            }
        }
    }

    /// What a scratch already holds changes the work, never the result:
    /// three candidates scored in one order through one scratch, in the
    /// reverse order through another (in a lexicon that numbers the words
    /// differently), and each alone in a scratch and lexicon of its own
    /// give bit-identical matrices. Candidates are prepared just before
    /// they are scored, so the lexicon grows under a live scratch.
    #[test]
    fn scratch_contents_and_scoring_order_never_change_a_matrix(
        fragment in proptest::collection::vec(arb_pooled_name(), 2..5),
        keywords in proptest::collection::vec(arb_pooled_name(), 1..3),
        a in proptest::collection::vec(arb_pooled_name(), 2..6),
        b in proptest::collection::vec(arb_pooled_name(), 2..6),
        c in proptest::collection::vec(arb_pooled_name(), 2..6),
    ) {
        let mut q = QueryGraph::new();
        q.add_fragment(flat_schema("frag", &fragment));
        for k in &keywords {
            q.add_keyword(k.clone());
        }
        let terms = q.terms();
        let candidates = [flat_schema("a", &a), flat_schema("b", &b), flat_schema("c", &c)];
        let ensemble = Ensemble::standard();
        let equery = ensemble.prepare_query(&terms, &q);
        let score_in_order = |order: &[usize]| -> Vec<(usize, SimilarityMatrix)> {
            let lexicon = Lexicon::new();
            let mut scratch = MatchScratch::new(&equery, &lexicon);
            order
                .iter()
                .map(|&i| {
                    let pcand = ensemble.prepare(&candidates[i], &lexicon);
                    let run = ensemble.run(&terms, &q, &pcand, &candidates[i], &mut scratch, false);
                    (i, run.matrix)
                })
                .collect()
        };
        let forward = score_in_order(&[0, 1, 2]);
        let backward = score_in_order(&[2, 1, 0]);
        for (i, matrix) in &forward {
            let alone = score_in_order(&[*i]);
            assert_same_bits(matrix, &alone[0].1);
            let reversed = backward.iter().find(|(j, _)| j == i).expect("scored");
            assert_same_bits(matrix, &reversed.1);
        }
    }

    /// Matchers that share an analyzer share one pass over a candidate's
    /// element names, and what the ensemble prepares that way is bit for
    /// bit what each matcher prepares alone from a pass of its own: the
    /// same lists, the same word ids, the same footprint.
    #[test]
    fn shared_passes_prepare_what_each_matcher_prepares_alone(
        pooled in proptest::collection::vec(arb_pooled_name(), 1..7),
        wild in ".{0,10}",
    ) {
        let mut names = pooled;
        names.push(wild);
        let candidate = flat_schema("cand", &names);

        let standard = Ensemble::standard();
        prop_assert_eq!(standard.analyzer_passes(), 1, "name and context share for_names");
        let lexicon = Lexicon::new();
        let alone = PreparedCandidate::new(vec![
            prepare_alone(&NameMatcher::new(), &candidate, &lexicon),
            prepare_alone(&ContextMatcher::new(), &candidate, &lexicon),
        ]);
        prop_assert_eq!(&standard.prepare(&candidate, &Lexicon::new()), &alone);
        // Against the lexicon the lone passes already filled: all lookups.
        prop_assert_eq!(&standard.prepare(&candidate, &lexicon), &alone);

        let mixed = ensemble_of(two_analyzer_matchers());
        prop_assert_eq!(mixed.analyzer_passes(), 2, "for_names and plain");
        // Alone in registration order in one lexicon, which numbers the
        // words as the ensemble's two passes do: for_names' first.
        let lexicon = Lexicon::new();
        let alone = PreparedCandidate::new(
            two_analyzer_matchers()
                .iter()
                .map(|m| prepare_alone(m.as_ref(), &candidate, &lexicon))
                .collect(),
        );
        prop_assert_eq!(&mixed.prepare(&candidate, &Lexicon::new()), &alone);
    }

    /// An ensemble over two analyzers runs two passes and every matcher
    /// still scores its reference: the matrix it scores alone on a pass
    /// of its own, and for the name and token matchers the string-set
    /// scalar kernel, cell by cell and bit for bit.
    #[test]
    fn two_pass_ensemble_scores_each_matchers_reference(
        fragment in proptest::collection::vec(arb_pooled_name(), 2..5),
        keywords in proptest::collection::vec(arb_pooled_name(), 1..3),
        elements in proptest::collection::vec(arb_pooled_name(), 2..7),
        wild in ".{0,10}",
    ) {
        let mut q = QueryGraph::new();
        q.add_fragment(flat_schema("frag", &fragment));
        for k in &keywords {
            q.add_keyword(k.clone());
        }
        let terms = q.terms();
        let mut names = elements;
        names.push(wild);
        let candidate = flat_schema("cand", &names);
        let ensemble = ensemble_of(two_analyzer_matchers());
        let through_ensemble = ensemble.individual(&terms, &q, &candidate);
        let matchers = two_analyzer_matchers();
        for (m, (name, matrix)) in matchers.iter().zip(&through_ensemble) {
            prop_assert_eq!(m.name(), *name);
            let lexicon = Lexicon::new();
            let alone = m.score(
                &m.prepare_query(&terms, &q),
                &terms,
                &q,
                &prepare_alone(m.as_ref(), &candidate, &lexicon),
                &candidate,
                &mut ScoreScratch::new(&lexicon),
            );
            assert_same_bits(matrix, &alone);
        }
        let name = NameMatcher::new();
        let plain_name = NameMatcher::with(Analyzer::plain(), NameMatcherConfig::default());
        let token = TokenMatcher::new();
        for (r, term) in terms.iter().enumerate() {
            for (c, id) in candidate.ids().enumerate() {
                let (a, b) = (term.text.as_str(), candidate.element(id).name);
                // (position in the ensemble, the matcher's scalar kernel)
                let references = [
                    (0, name.similarity(a, b)),
                    (2, plain_name.similarity(a, b)),
                    (3, token.similarity(a, b)),
                ];
                for (ix, reference) in references {
                    prop_assert_eq!(
                        through_ensemble[ix].1.get(r, c).to_bits(), reference.to_bits(),
                        "matcher {} cell ({},{})", ix, r, c
                    );
                }
            }
        }
    }
    /// One scratch prepares a run of candidates of varying size, first
    /// against a cold lexicon and then again, in reverse, once it is warm
    /// and other words were interned in between: every bundle is what
    /// `Ensemble::prepare` builds on fresh buffers, and each artifact what
    /// its matcher prepares alone — the same lists, word ids and bytes.
    #[test]
    fn a_reused_prepare_scratch_prepares_what_fresh_buffers_do(
        schemas in proptest::collection::vec(
            (proptest::collection::vec(arb_pooled_name(), 1..9), ".{0,10}"),
            1..6,
        ),
        interned in proptest::collection::vec(arb_name(), 0..4),
    ) {
        let candidates: Vec<Schema> = schemas
            .iter()
            .enumerate()
            .map(|(i, (pooled, wild))| {
                let mut names = pooled.clone();
                names.push(wild.clone());
                flat_schema(&format!("cand{i}"), &names)
            })
            .collect();
        for matchers in [standard_matchers as fn() -> _, two_analyzer_matchers] {
            let ensemble = ensemble_of(matchers());
            let lexicon = Lexicon::new();
            let mut scratch = PrepareScratch::default();
            for round in 0..2 {
                let run: Vec<&Schema> = if round == 0 {
                    candidates.iter().collect()
                } else {
                    candidates.iter().rev().collect()
                };
                for candidate in run {
                    let reused = ensemble.prepare_into(candidate, &lexicon, &mut scratch);
                    let fresh = ensemble.prepare(candidate, &lexicon);
                    prop_assert_eq!(&reused, &fresh);
                    let alone = PreparedCandidate::new(
                        matchers()
                            .iter()
                            .map(|m| prepare_alone(m.as_ref(), candidate, &lexicon))
                            .collect(),
                    );
                    prop_assert_eq!(&reused, &alone);
                    prop_assert_eq!(reused.bytes, alone.bytes);
                }
                for word in &interned {
                    lexicon.intern(word);
                }
            }
        }
    }
}
