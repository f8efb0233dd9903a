//! Flattened schema documents.

use schemr_model::{Schema, SchemaId};
use schemr_text::{AnalyzeScratch, Analyzer};

use crate::field::Field;

/// The indexable, flattened form of one schema: "a title, a summary, an ID,
/// and a flattened representation of each element in the schema".
#[derive(Debug, Clone, PartialEq)]
pub struct IndexDocument {
    /// The repository id of the schema this document describes.
    pub id: SchemaId,
    /// Schema title.
    pub title: String,
    /// Human-written summary (may be empty).
    pub summary: String,
    /// One entry per element: its dotted path (`patient.height`).
    pub elements: Vec<String>,
    /// Element documentation strings, concatenated per element.
    pub docs: Vec<String>,
}

impl IndexDocument {
    /// Flatten a schema (plus repository metadata) into a document.
    pub fn from_schema(id: SchemaId, title: &str, summary: &str, schema: &Schema) -> Self {
        let mut elements = Vec::with_capacity(schema.len());
        let mut docs = Vec::new();
        for el_id in schema.ids() {
            elements.push(schema.path(el_id));
            if let Some(doc) = schema.element(el_id).doc {
                docs.push(doc.to_string());
            }
        }
        IndexDocument {
            id,
            title: title.to_string(),
            summary: summary.to_string(),
            elements,
            docs,
        }
    }

    /// Hand `field`'s source strings to `f`, in order: the title or the
    /// summary, or each element path or doc string.
    pub(crate) fn for_each_source(&self, field: Field, mut f: impl FnMut(&str)) {
        match field {
            Field::Title => f(&self.title),
            Field::Summary => f(&self.summary),
            Field::Elements => self.elements.iter().for_each(|s| f(s)),
            Field::Docs => self.docs.iter().for_each(|s| f(s)),
        }
    }

    /// One field analyzed into `(term, position)` pairs in position
    /// order, using the right pipeline per field (names use the name
    /// pipeline; prose uses the document pipeline) — what the writer
    /// indexes, spelled out term by term.
    pub fn field_terms_positioned(
        &self,
        field: Field,
        names: &Analyzer,
        prose: &Analyzer,
    ) -> Vec<(String, u32)> {
        let analyzer = if field.is_prose() { prose } else { names };
        let mut terms = Vec::new();
        let mut scratch = AnalyzeScratch::default();
        let mut positions = Positions::default();
        self.for_each_source(field, |source| {
            positions.start_source();
            analyzer.analyze_with(source, &mut scratch, |term| {
                terms.push((term.to_string(), positions.next()))
            });
        });
        terms
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

#[cfg(test)]
mod tests {
    use super::*;
    use schemr_model::{DataType, SchemaBuilder};

    fn doc() -> IndexDocument {
        let schema = SchemaBuilder::new("clinic")
            .entity("patient", |e| {
                e.attr_doc("height", DataType::Real, "height in cm")
                    .attr("gender", DataType::Text)
            })
            .build_unchecked();
        IndexDocument::from_schema(SchemaId(7), "clinic", "a rural health clinic", &schema)
    }

    #[test]
    fn flattening_produces_paths_and_docs() {
        let d = doc();
        assert_eq!(d.id, SchemaId(7));
        assert_eq!(d.elements, ["patient", "patient.height", "patient.gender"]);
        assert_eq!(d.docs, ["height in cm"]);
    }

    #[test]
    fn field_terms_use_the_right_pipelines() {
        let d = doc();
        let names = Analyzer::for_names();
        let prose = Analyzer::for_documents();
        let terms = |field| -> Vec<String> {
            let positioned = d.field_terms_positioned(field, &names, &prose);
            positioned.into_iter().map(|(term, _)| term).collect()
        };
        let elements = terms(Field::Elements);
        // Paths split on dots; "patient" appears for each path mentioning it.
        assert!(elements.iter().filter(|t| *t == "patient").count() >= 3);
        assert!(elements.contains(&"height".to_string()));
        let summary = terms(Field::Summary);
        // Stopword "a" removed by the prose pipeline.
        assert!(!summary.contains(&"a".to_string()));
        assert!(summary.contains(&"clinic".to_string()));
    }

    #[test]
    fn element_boundaries_get_a_position_gap() {
        let d = IndexDocument {
            id: SchemaId(1),
            title: String::new(),
            summary: String::new(),
            elements: vec!["patient".into(), "height".into()],
            docs: vec![],
        };
        let names = Analyzer::for_names();
        let prose = Analyzer::for_documents();
        let terms = d.field_terms_positioned(Field::Elements, &names, &prose);
        assert_eq!(terms.len(), 2);
        let delta = terms[1].1 - terms[0].1;
        assert!(
            delta > 1,
            "separate elements must not sit at adjacent positions (delta {delta})"
        );
    }

    #[test]
    fn tokens_within_one_element_stay_adjacent() {
        let d = IndexDocument {
            id: SchemaId(1),
            title: String::new(),
            summary: String::new(),
            elements: vec!["patient_height".into()],
            docs: vec![],
        };
        let names = Analyzer::for_names();
        let prose = Analyzer::for_documents();
        let terms = d.field_terms_positioned(Field::Elements, &names, &prose);
        let patient = terms.iter().find(|(t, _)| t == "patient").unwrap().1;
        let height = terms.iter().find(|(t, _)| t == "height").unwrap().1;
        assert_eq!(height, patient + 1, "compound tokens stay adjacent");
    }

    #[test]
    fn empty_sources_do_not_advance_positions() {
        let d = IndexDocument {
            id: SchemaId(1),
            title: String::new(),
            summary: String::new(),
            elements: vec![String::new(), "patient".into()],
            docs: vec![],
        };
        let names = Analyzer::for_names();
        let prose = Analyzer::for_documents();
        let terms = d.field_terms_positioned(Field::Elements, &names, &prose);
        assert_eq!(terms, vec![("patient".to_string(), 0)]);
    }

    #[test]
    fn a_source_that_analyzes_to_nothing_opens_no_gap_of_its_own() {
        let d = IndexDocument {
            id: SchemaId(1),
            title: String::new(),
            summary: String::new(),
            elements: vec!["patient".into(), "___".into(), "height_cm".into()],
            docs: vec![],
        };
        let names = Analyzer::for_names();
        let prose = Analyzer::for_documents();
        let terms = d.field_terms_positioned(Field::Elements, &names, &prose);
        let expected = [("patient", 0), ("height", 2), ("cm", 3)];
        assert_eq!(terms, expected.map(|(t, p)| (t.to_string(), p)));
    }
}
