//! # schemr-index
//!
//! A from-scratch inverted index over flattened schema documents — the
//! reproduction's substitute for the Apache Lucene index in the paper's
//! architecture (Figure 5).
//!
//! Per the paper, "each schema in the index is represented as a document,
//! for which we store a title, a summary, an ID, and a flattened
//! representation of each element in the schema", and the index itself
//! "stores a term dictionary of frequency data, proximity data, and
//! normalization factors, providing a fast and scalable filter for relevant
//! candidate schemas". This crate implements exactly that contract:
//!
//! * [`IndexDocument`] — one schema as the index reads it, borrowed: the
//!   title and summary, and the schema's element column, whose names the
//!   write session flattens into dotted paths as it reads them (each
//!   element's path terms are its parent's plus its own name's), split
//!   into [`Field`]s,
//! * [`Index`] — a thread-safe inverted index with a term dictionary,
//!   positional postings, and per-field length norms,
//! * [`Index::search`] — disjunctive TF/IDF top-*n* retrieval with the
//!   paper's coordination factor (matched terms ÷ query terms),
//! * [`codec`] — the binary on-disk format: the sealed segments' columns
//!   as they sit in memory, checksummed, so the "offline indexer" can
//!   persist its work and the service can load it without rebuilding.
//!
//! Scoring follows the paper's prescription: "match scores are computed
//! independently for each search term and summed" (no conjunctive
//! filtering, to preserve recall), then multiplied by the coordination
//! factor "to reward results which match the most terms".

pub mod codec;
pub mod document;
pub mod field;
pub mod metrics;
pub mod postings;
pub mod search;

mod head;
mod memory;
mod segment;
mod session;
mod snapshot;

pub use document::{IndexDocument, OwnedDocument, ELEMENT_POSITION_GAP};
pub use field::Field;
pub use memory::{
    Index, IndexChange, IndexIntrospection, IndexRevision, IndexStats, MergeOutcome,
    PostingsListStats,
};
pub use metrics::IndexMetrics;
pub use search::{Hit, SearchOptions};
pub use session::Session;

/// Internal dense document ordinal (position in insertion order).
pub(crate) type DocOrd = u32;
