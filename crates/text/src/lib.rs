//! # schemr-text
//!
//! The text-analysis substrate shared by the document index (Phase 1,
//! candidate extraction) and the name/context matchers (Phase 2).
//!
//! Schema element names arrive in every convention imaginable —
//! `PatientHeight`, `pat_ht`, `patient-height`, `PATIENTHEIGHT2` — and the
//! paper's name matcher is explicitly designed around "abbreviated terms,
//! alternate grammatical forms, and delimiter characters". This crate
//! provides the pieces that make that robustness possible:
//!
//! * [`tokenize`] — delimiter + camelCase + letter/digit boundary splitting,
//!   as borrowed slices of the input,
//! * [`normalize`] — case folding and abbreviation expansion,
//! * [`stem`] — a from-scratch Porter stemmer for grammatical variants,
//! * [`stopwords`] — a small stopword list for flattened documents,
//! * [`ngram`] — the all-n-gram decomposition the name matcher scores with,
//! * [`gramset`] — hashed, sorted gram signatures for prepared matching,
//! * [`lexicon`] — each distinct word once, under a dense id, with its
//!   gram signature,
//! * [`Analyzer`] — a configurable pipeline combining the above: one
//!   streaming pass ([`Analyzer::analyze_with`]: tokenize, then
//!   [`Analyzer::analyze_token_with`] per token) that allocates nothing
//!   over a kept [`AnalyzeScratch`], under the indexer, the matchers'
//!   prepare step and the query flattener alike.

pub mod gramset;
pub mod lexicon;
pub mod ngram;
pub mod normalize;
pub mod stem;
pub mod stopwords;
pub mod tokenize;

mod analyzer;

pub use analyzer::{AnalyzeScratch, Analyzer, AnalyzerConfig};
pub use gramset::GramSet;
pub use lexicon::{Lexicon, LexiconReader, WordId};
