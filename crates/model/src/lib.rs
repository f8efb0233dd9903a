//! # schemr-model
//!
//! The schema graph model underlying the Schemr search engine.
//!
//! Schemr treats every schema — relational or semi-structured — as a graph of
//! *elements*. Entities (tables, XML complex types) contain attributes
//! (columns, simple elements); foreign keys connect entities into
//! *neighborhoods*. A user query is a [`QueryGraph`]: a forest of schema
//! fragments plus free-standing keywords (Figure 1 of the paper).
//!
//! This crate is deliberately free of parsing, indexing, and matching logic;
//! it only defines the data model those layers share:
//!
//! * [`Schema`] — the schema graph with containment and foreign-key
//!   edges, stored flat: one text arena and one 16-byte record per element;
//!   [`Element`] is what goes in, [`ElementRef`] is what reads hand back,
//! * [`SchemaBuilder`] — ergonomic construction,
//! * [`DistanceClass`] — the structural distance classes used by the
//!   tightness-of-fit measure (same entity / FK neighborhood / unrelated),
//! * [`QueryGraph`] — the parsed search input,
//! * validation and statistics helpers.

mod builder;
mod column;
mod element;
mod query;
mod schema;
mod stats;
mod validate;

pub use builder::{EntityBuilder, SchemaBuilder};
pub use column::ElementRef;
pub use element::{DataType, Element, ElementId, ElementKind};
pub use query::{QueryGraph, QueryTerm};
pub use schema::{DistanceClass, ForeignKey, Neighborhoods, Schema};
pub use stats::SchemaStats;
pub use validate::{validate, ValidationError};

/// A stable identifier for a schema within a repository, defined beside
/// the event log that records result ids.
pub use schemr_obs::SchemaId;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_id_round_trips_through_display() {
        let id = SchemaId(42);
        assert_eq!(id.to_string(), "s42");
        assert_eq!("s42".parse::<SchemaId>().unwrap(), id);
        assert_eq!("42".parse::<SchemaId>().unwrap(), id);
    }

    #[test]
    fn schema_id_rejects_garbage() {
        assert!("sx".parse::<SchemaId>().is_err());
        assert!("".parse::<SchemaId>().is_err());
    }
}
