//! The analyzer pipeline: tokenize → fold → (expand) → (stop) → (stem).
//!
//! One [`Analyzer`] instance is shared by the offline indexer and the
//! online query flattener so both sides of the index agree on terms — the
//! same contract Lucene analyzers provide in the paper's implementation.
//!
//! The pipeline has one implementation and it streams:
//! [`Analyzer::analyze_with`] tokenizes — tokens are slices of the input —
//! and hands each token to [`Analyzer::analyze_token_with`], which
//! case-folds it into a buffer the caller keeps ([`AnalyzeScratch`]),
//! looks it up in the abbreviation dictionary by that folded `&str`,
//! checks the stop list, stems in a second kept buffer, and hands each
//! term to the caller's closure as a `&str`. With a warm scratch a call
//! allocates nothing; what a term costs beyond that is whatever the
//! closure does with it. [`Analyzer::analyze`] is the closure that
//! collects `String`s. A caller that meets the same tokens over and over
//! (the index's write session) tokenizes itself and asks the per-token
//! entry point once per distinct token.
//!
//! The allocating pipeline this replaced lives on as the test-only
//! `reference` module, which the property tests below compare the
//! stream against term for term.

use crate::normalize::{fold_case_into, AbbreviationDict};
use crate::stem::stem_in;
use crate::stopwords::is_stopword;
use crate::tokenize::tokenize;

/// Configuration of the analysis pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyzerConfig {
    /// Drop stopwords (on for document text, often off for element names).
    pub remove_stopwords: bool,
    /// Apply the Porter stemmer.
    pub stem: bool,
    /// Expand abbreviations through the dictionary.
    pub expand_abbreviations: bool,
}

impl Default for AnalyzerConfig {
    fn default() -> Self {
        AnalyzerConfig {
            remove_stopwords: true,
            stem: true,
            expand_abbreviations: true,
        }
    }
}

/// The analysis pipeline. Two analyzers are equal when they produce the
/// same terms for every input: same configuration, same dictionary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Analyzer {
    config: AnalyzerConfig,
    abbreviations: AbbreviationDict,
}

/// The buffers [`Analyzer::analyze_with`] works in. Keep one across calls
/// and analysis stops allocating once they have grown to the longest
/// token seen.
#[derive(Debug, Default)]
pub struct AnalyzeScratch {
    folded: String,
    stemmed: Vec<u8>,
}

impl Analyzer {
    /// Analyzer with the given config and the built-in abbreviation
    /// dictionary.
    pub fn new(config: AnalyzerConfig) -> Self {
        Analyzer {
            config,
            abbreviations: AbbreviationDict::builtin(),
        }
    }

    /// Replace the abbreviation dictionary.
    pub fn with_abbreviations(mut self, dict: AbbreviationDict) -> Self {
        self.abbreviations = dict;
        self
    }

    /// The pipeline used for free document text (titles, summaries, docs):
    /// stopwords removed, stemming on.
    pub fn for_documents() -> Self {
        Analyzer::new(AnalyzerConfig::default())
    }

    /// The pipeline used for element names: no stopword removal (an element
    /// named `to` is still a name), stemming and expansion on.
    pub fn for_names() -> Self {
        Analyzer::new(AnalyzerConfig {
            remove_stopwords: false,
            ..AnalyzerConfig::default()
        })
    }

    /// A minimal pipeline: tokenize + case fold only. Used by baselines and
    /// ablation experiments.
    pub fn plain() -> Self {
        Analyzer::new(AnalyzerConfig {
            remove_stopwords: false,
            stem: false,
            expand_abbreviations: false,
        })
        .with_abbreviations(AbbreviationDict::empty())
    }

    /// Run the pipeline over `input`, handing each index/query term to
    /// `emit` in order. The `&str` is valid for that call only.
    pub fn analyze_with(
        &self,
        input: &str,
        scratch: &mut AnalyzeScratch,
        mut emit: impl FnMut(&str),
    ) {
        for token in tokenize(input) {
            self.analyze_token_with(token.text, scratch, &mut emit);
        }
    }

    /// The pipeline after the tokenizer: fold, expand, stop and stem one
    /// token (a [`tokenize`] output — it is not split again), handing its
    /// terms to `emit` in order. What a token analyzes to depends on
    /// nothing but the token, so a caller may remember the answer.
    pub fn analyze_token_with(
        &self,
        token: &str,
        scratch: &mut AnalyzeScratch,
        mut emit: impl FnMut(&str),
    ) {
        let AnalyzeScratch { folded, stemmed } = scratch;
        let mut finish = |word: &str| {
            if self.config.remove_stopwords && is_stopword(word) {
                return;
            }
            let term = if self.config.stem {
                stem_in(word, stemmed)
            } else {
                word
            };
            if !term.is_empty() {
                emit(term);
            }
        };
        fold_case_into(token, folded);
        let expansion = if self.config.expand_abbreviations {
            self.abbreviations.expand(folded)
        } else {
            None
        };
        match expansion {
            Some(words) => words.split_whitespace().for_each(&mut finish),
            None => finish(folded),
        }
    }

    /// Run the pipeline over `input`, collecting the terms.
    pub fn analyze(&self, input: &str) -> Vec<String> {
        let mut terms = Vec::new();
        self.analyze_with(input, &mut AnalyzeScratch::default(), |term| {
            terms.push(term.to_string())
        });
        terms
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenize::Token;
    use proptest::prelude::*;

    #[test]
    fn document_pipeline_folds_splits_stops_and_stems() {
        let a = Analyzer::for_documents();
        assert_eq!(
            a.analyze("The PatientDiagnoses of the clinic"),
            vec!["patient", "diagnos", "clinic"]
        );
    }

    #[test]
    fn name_pipeline_keeps_stopword_like_names() {
        let a = Analyzer::for_names();
        assert_eq!(a.analyze("to"), vec!["to"]);
    }

    #[test]
    fn abbreviations_expand_before_stemming() {
        let a = Analyzer::for_names();
        // pat_ht → patient, height
        assert_eq!(a.analyze("pat_ht"), vec!["patient", "height"]);
        // dob expands to three words; "of" survives because the name
        // pipeline keeps stopwords.
        assert_eq!(a.analyze("DOB"), vec!["date", "of", "birth"]);
    }

    #[test]
    fn document_pipeline_drops_stopwords_from_expansions() {
        let a = Analyzer::for_documents();
        assert_eq!(a.analyze("dob"), vec!["date", "birth"]);
    }

    #[test]
    fn plain_pipeline_only_tokenizes_and_folds() {
        let a = Analyzer::plain();
        assert_eq!(
            a.analyze("The PatientDiagnoses"),
            vec!["the", "patient", "diagnoses"]
        );
        assert_eq!(a.analyze("qty"), vec!["qty"]);
    }

    #[test]
    fn same_pipeline_conflates_grammatical_variants() {
        let a = Analyzer::for_names();
        assert_eq!(a.analyze("diagnoses"), a.analyze("diagnosed"));
        assert_eq!(a.analyze("patients"), a.analyze("patient"));
    }

    #[test]
    fn empty_input_yields_no_terms() {
        assert!(Analyzer::for_documents().analyze("").is_empty());
        assert!(Analyzer::for_documents().analyze("___").is_empty());
    }

    #[test]
    fn caseless_scripts_and_non_ascii_digits_are_analyzed() {
        // Regression (tokenizer fix): each of these lost its caseless
        // letters or non-ASCII digit — `[]`, `[]`, `["identifi"]`,
        // `["patient"]` — so such an element was invisible to Phase 1
        // and scored 0 in the name matcher. These are the only inputs
        // whose analysis differs from the allocating pipeline's.
        let a = Analyzer::for_names();
        assert_eq!(a.analyze("患者"), vec!["患者"]);
        assert_eq!(a.analyze("מטופל"), vec!["מטופל"]);
        assert_eq!(a.analyze("患者_id"), vec!["患者", "identifi"]);
        assert_eq!(a.analyze("patient٣"), vec!["patient", "٣"]);
    }

    #[test]
    fn analyzers_compare_by_configuration_and_dictionary() {
        assert_eq!(Analyzer::for_names(), Analyzer::for_names());
        assert_ne!(Analyzer::for_names(), Analyzer::for_documents());
        assert_ne!(Analyzer::for_names(), Analyzer::plain());
        let custom = AbbreviationDict::from_pairs([("tnc", "the nature conservancy")]);
        assert_ne!(
            Analyzer::for_names(),
            Analyzer::for_names().with_abbreviations(custom)
        );
    }

    /// The three pipelines the system uses, which the property tests run.
    fn pipelines() -> [Analyzer; 3] {
        [
            Analyzer::for_names(),
            Analyzer::for_documents(),
            Analyzer::plain(),
        ]
    }

    /// The stream's terms through one scratch kept across every call, so
    /// a buffer that leaked from one input into the next would show.
    fn streamed(a: &Analyzer, input: &str, scratch: &mut AnalyzeScratch) -> Vec<String> {
        let mut terms = Vec::new();
        a.analyze_with(input, scratch, |t| terms.push(t.to_string()));
        terms
    }

    /// One piece of a generated element name: a word from a pool heavy in
    /// built-in abbreviations (single- and multi-word), stop words,
    /// stemmable forms, acronyms, digits and non-ASCII scripts; a casing;
    /// and the delimiter that follows it.
    fn arb_piece() -> impl Strategy<Value = (&'static str, usize, &'static str)> {
        (
            proptest::sample::select(vec![
                "patient",
                "height",
                "diagnoses",
                "address",
                "visited",
                "relational",
                "dob",
                "fk",
                "pk",
                "qty",
                "id",
                "ht",
                "pat",
                "no",
                "co",
                "the",
                "of",
                "to",
                "http",
                "xml",
                "a",
                "2",
                "10",
                "größe",
                "über",
                "患者",
                "מטופל",
                "٣",
                "ǆ",
            ]),
            0usize..4,
            proptest::sample::select(vec!["", "", "_", "-", ".", " ", "__", "/"]),
        )
    }

    fn name_from(pieces: &[(&str, usize, &str)]) -> String {
        let mut name = String::new();
        for (word, casing, delimiter) in pieces {
            match casing {
                0 => name.push_str(word),
                1 => name.push_str(&word.to_uppercase()),
                2 => {
                    // Capitalized: camelCase and ACRONYMCase boundaries
                    // appear where pieces meet without a delimiter.
                    let mut chars = word.chars();
                    if let Some(first) = chars.next() {
                        name.extend(first.to_uppercase());
                        name.push_str(chars.as_str());
                    }
                }
                _ => name.push_str(&word.to_lowercase()),
            }
            name.push_str(delimiter);
        }
        name
    }

    proptest! {
        /// The streaming core emits exactly the reference pipeline's
        /// terms, in order, over arbitrary input.
        #[test]
        fn stream_equals_the_reference_on_arbitrary_input(
            inputs in proptest::collection::vec(".{0,64}", 1..4),
        ) {
            let mut scratch = AnalyzeScratch::default();
            for a in &pipelines() {
                for input in &inputs {
                    prop_assert_eq!(
                        streamed(a, input, &mut scratch),
                        reference::analyze(a, input),
                        "{:?} under {:?}", input, a.config
                    );
                    prop_assert_eq!(a.analyze(input), reference::analyze(a, input));
                }
            }
        }

        /// … and over name-shaped input: camelCase, ACRONYMCase, digits,
        /// the usual delimiters, dictionary abbreviations.
        #[test]
        fn stream_equals_the_reference_on_element_names(
            names in proptest::collection::vec(proptest::collection::vec(arb_piece(), 1..6), 1..4),
        ) {
            let mut scratch = AnalyzeScratch::default();
            for a in &pipelines() {
                for pieces in &names {
                    let name = name_from(pieces);
                    prop_assert_eq!(
                        streamed(a, &name, &mut scratch),
                        reference::analyze(a, &name),
                        "{:?} under {:?}", name, a.config
                    );
                }
            }
        }

        /// An input's terms are its tokens' terms, token by token, and a
        /// token handed back to the tokenizer comes out whole — the two
        /// facts a memo keyed by raw token stands on.
        #[test]
        fn analysis_is_the_concatenation_of_its_tokens_analyses(
            wild in ".{0,64}",
            pieces in proptest::collection::vec(arb_piece(), 1..6),
        ) {
            let mut scratch = AnalyzeScratch::default();
            for input in [wild, name_from(&pieces)] {
                for token in tokenize(&input) {
                    prop_assert_eq!(crate::tokenize::words(token.text), [token.text]);
                }
                for a in &pipelines() {
                    let mut by_token = Vec::new();
                    for token in tokenize(&input) {
                        a.analyze_token_with(token.text, &mut scratch, |t| {
                            by_token.push(t.to_string())
                        });
                    }
                    prop_assert_eq!(
                        streamed(a, &input, &mut scratch),
                        by_token,
                        "{:?} under {:?}", input, a.config
                    );
                }
            }
        }

        /// Every token is a slice of the input at the offset it reports,
        /// and the tokens are the reference tokenizer's.
        #[test]
        fn tokens_are_the_reference_tokens_and_slices_of_the_input(
            wild in ".{0,64}",
            pieces in proptest::collection::vec(arb_piece(), 1..6),
        ) {
            for input in [wild, name_from(&pieces)] {
                let tokens: Vec<Token<'_>> = tokenize(&input).collect();
                let expected = reference::tokenize(&input);
                prop_assert_eq!(tokens.len(), expected.len(), "{:?}", input);
                for (t, r) in tokens.iter().zip(&expected) {
                    prop_assert_eq!((t.text, t.offset), (r.text.as_str(), r.offset));
                    prop_assert!(std::ptr::eq(
                        t.text.as_ptr(),
                        input[t.offset..].as_ptr()
                    ));
                    prop_assert_eq!(&input[t.offset..t.offset + t.text.len()], t.text);
                }
            }
        }
    }
}
