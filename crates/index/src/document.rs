//! Schema documents: what the index reads of a schema.

use schemr_model::{Element, Schema, SchemaId};
#[cfg(test)]
use schemr_text::{AnalyzeScratch, Analyzer};

#[cfg(test)]
use crate::field::Field;

/// One schema as the index reads it: "a title, a summary, an ID, and a
/// flattened representation of each element in the schema".
///
/// Everything is borrowed — the title and summary from the repository's
/// metadata, the elements from the schema's own column — and nothing is
/// flattened into a copy: the write session reads each element's name
/// once and composes its dotted path's terms from its parent's, which
/// precedes it in the column.
#[derive(Debug, Clone, Copy)]
pub struct IndexDocument<'a> {
    /// The repository id of the schema this document describes.
    pub id: SchemaId,
    /// Schema title.
    pub title: &'a str,
    /// Human-written summary (may be empty).
    pub summary: &'a str,
    /// The elements: each indexed under its dotted path from its root
    /// (`patient.height`), its documentation under the Docs field.
    pub schema: &'a Schema,
}

/// The parts of an [`IndexDocument`], owned, for a caller with no
/// repository to borrow them from: tests, examples and experiments.
#[derive(Debug, Clone, PartialEq)]
pub struct OwnedDocument {
    /// The schema id.
    pub id: SchemaId,
    /// Schema title.
    pub title: String,
    /// Summary (empty unless set with [`OwnedDocument::with_summary`]).
    pub summary: String,
    /// The elements.
    pub schema: Schema,
}

impl OwnedDocument {
    /// A schema of top-level elements, one per name, in order. A name may
    /// hold dots: a top-level `"patient.height"` indexes exactly as a
    /// `height` inside a `patient` does, since tokens never span a dot.
    pub fn new<S: AsRef<str>>(id: u64, title: &str, elements: impl IntoIterator<Item = S>) -> Self {
        let mut schema = Schema::new(title);
        for name in elements {
            schema.add_root(Element::entity(name.as_ref()));
        }
        OwnedDocument {
            id: SchemaId(id),
            title: title.to_string(),
            summary: String::new(),
            schema,
        }
    }

    /// Set the summary.
    pub fn with_summary(mut self, summary: &str) -> Self {
        self.summary = summary.to_string();
        self
    }

    /// Append documentation strings, in order, each on an unnamed
    /// top-level element: they fill the Docs field and add nothing to
    /// the elements'.
    pub fn with_docs<S: AsRef<str>>(mut self, docs: impl IntoIterator<Item = S>) -> Self {
        for doc in docs {
            self.schema
                .add_root(Element::entity("").with_doc(doc.as_ref()));
        }
        self
    }

    /// The document the index reads, borrowing this one.
    pub fn view(&self) -> IndexDocument<'_> {
        IndexDocument {
            id: self.id,
            title: &self.title,
            summary: &self.summary,
            schema: &self.schema,
        }
    }
}

/// Position increment between the last token of one source string and the
/// first token of the next. Any value > 1 breaks false adjacency across
/// element boundaries; 2 is the smallest that does.
pub const ELEMENT_POSITION_GAP: u32 = 2;

/// Assigns positions to the terms of one field's source strings.
///
/// Terms from one source string sit at consecutive positions, so the
/// proximity scorer can recognize an intact compound name
/// (`patient_height` → `patient`@p, `height`@p+1). Between *separate*
/// source strings — one element path and the next, one doc string and
/// the next — the counter jumps by [`ELEMENT_POSITION_GAP`] (> 1), so two
/// adjacent single-token elements (`["patient", "height"]`) never
/// masquerade as a compound. A source that analyzes to nothing leaves the
/// counter where it was.
#[derive(Default)]
pub(crate) struct Positions {
    next: u32,
    any_before: bool,
    source_has_terms: bool,
}

impl Positions {
    /// The terms that follow come from the next source string.
    pub(crate) fn start_source(&mut self) {
        self.source_has_terms = false;
    }

    /// The position of the next term.
    pub(crate) fn next(&mut self) -> u32 {
        if !self.source_has_terms {
            self.source_has_terms = true;
            if self.any_before {
                // `next` is already one past the previous term, so adding
                // GAP - 1 makes the increment between adjacent terms GAP.
                self.next += ELEMENT_POSITION_GAP - 1;
            }
            self.any_before = true;
        }
        let position = self.next;
        self.next = position
            .checked_add(1)
            .expect("a field holds fewer than 2^32 positions");
        position
    }
}

/// The flattening the write session replaced, kept as its reference:
/// every source string spelled out, each element's as its dotted path
/// from the root, and each analyzed from scratch.
#[cfg(test)]
impl IndexDocument<'_> {
    /// `field`'s source strings, in order: the title or the summary, or
    /// each element's dotted path or each doc string.
    pub(crate) fn flattened(&self, field: Field) -> Vec<String> {
        let schema = self.schema;
        match field {
            Field::Title => vec![self.title.to_string()],
            Field::Summary => vec![self.summary.to_string()],
            Field::Elements => schema.ids().map(|id| schema.path(id)).collect(),
            Field::Docs => schema
                .elements()
                .filter_map(|el| el.doc.map(str::to_string))
                .collect(),
        }
    }

    /// One field analyzed into `(term, position)` pairs in position
    /// order, using the right pipeline per field (names use the name
    /// pipeline; prose uses the document pipeline) — what the writer
    /// indexes, spelled out term by term.
    pub(crate) fn field_terms_positioned(
        &self,
        field: Field,
        names: &Analyzer,
        prose: &Analyzer,
    ) -> Vec<(String, u32)> {
        let analyzer = if field.is_prose() { prose } else { names };
        let mut terms = Vec::new();
        let mut scratch = AnalyzeScratch::default();
        let mut positions = Positions::default();
        for source in self.flattened(field) {
            positions.start_source();
            analyzer.analyze_with(&source, &mut scratch, |term| {
                terms.push((term.to_string(), positions.next()))
            });
        }
        terms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemr_model::{DataType, SchemaBuilder};

    /// The reference's terms of one field.
    fn terms(doc: &OwnedDocument, field: Field) -> Vec<(String, u32)> {
        let (names, prose) = (Analyzer::for_names(), Analyzer::for_documents());
        doc.view().field_terms_positioned(field, &names, &prose)
    }

    #[test]
    fn flattening_produces_paths_and_docs() {
        let schema = SchemaBuilder::new("clinic")
            .entity("patient", |e| {
                e.attr_doc("height", DataType::Real, "height in cm")
                    .attr("gender", DataType::Text)
            })
            .build_unchecked();
        let d = IndexDocument {
            id: SchemaId(7),
            title: "clinic",
            summary: "a rural health clinic",
            schema: &schema,
        };
        assert_eq!(
            d.flattened(Field::Elements),
            ["patient", "patient.height", "patient.gender"]
        );
        assert_eq!(d.flattened(Field::Docs), ["height in cm"]);
        let (names, prose) = (Analyzer::for_names(), Analyzer::for_documents());
        let terms = |field| -> Vec<String> {
            let positioned = d.field_terms_positioned(field, &names, &prose);
            positioned.into_iter().map(|(term, _)| term).collect()
        };
        let elements = terms(Field::Elements);
        // Paths split on dots; "patient" appears for each path mentioning it.
        assert_eq!(elements.iter().filter(|t| *t == "patient").count(), 3);
        assert!(elements.contains(&"height".to_string()));
        let summary = terms(Field::Summary);
        // Stopword "a" removed by the prose pipeline.
        assert!(!summary.contains(&"a".to_string()));
        assert!(summary.contains(&"clinic".to_string()));
    }

    #[test]
    fn an_owned_document_keeps_its_names_whole() {
        let d = OwnedDocument::new(1, "t", ["patient.height", ""]).with_docs(["in cm"]);
        let d = d.view();
        assert_eq!(d.flattened(Field::Elements), ["patient.height", "", ""]);
        assert_eq!(d.flattened(Field::Docs), ["in cm"]);
    }

    #[test]
    fn element_boundaries_get_a_position_gap() {
        let terms = terms(
            &OwnedDocument::new(1, "", ["patient", "height"]),
            Field::Elements,
        );
        assert_eq!(terms.len(), 2);
        let delta = terms[1].1 - terms[0].1;
        assert!(
            delta > 1,
            "separate elements must not sit at adjacent positions (delta {delta})"
        );
    }

    #[test]
    fn tokens_within_one_element_stay_adjacent() {
        let terms = terms(
            &OwnedDocument::new(1, "", ["patient_height"]),
            Field::Elements,
        );
        let patient = terms.iter().find(|(t, _)| t == "patient").unwrap().1;
        let height = terms.iter().find(|(t, _)| t == "height").unwrap().1;
        assert_eq!(height, patient + 1, "compound tokens stay adjacent");
    }

    #[test]
    fn empty_sources_do_not_advance_positions() {
        let terms = terms(&OwnedDocument::new(1, "", ["", "patient"]), Field::Elements);
        assert_eq!(terms, vec![("patient".to_string(), 0)]);
    }

    #[test]
    fn a_source_that_analyzes_to_nothing_opens_no_gap_of_its_own() {
        let d = OwnedDocument::new(1, "", ["patient", "___", "height_cm"]);
        let expected = [("patient", 0), ("height", 2), ("cm", 3)];
        assert_eq!(
            terms(&d, Field::Elements),
            expected.map(|(t, p)| (t.to_string(), p))
        );
    }
}
