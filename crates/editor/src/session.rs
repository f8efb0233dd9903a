//! The editing session: a mutable draft with provenance bookkeeping.

use schemr_model::{DataType, Element, ElementId, Schema, SchemaId};
use schemr_parse::printer::print_ddl;
use schemr_repo::{Repository, RepositoryError};
use serde::{Deserialize, Serialize};

/// Where a draft element came from.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Provenance {
    /// The element in the draft.
    pub draft_element: ElementId,
    /// The repository schema it was adopted from.
    pub source_schema: SchemaId,
    /// The source element's dotted path at adoption time.
    pub source_path: String,
}

/// An implicit semantic mapping captured by adoption: the draft element
/// and its source element denote the same concept.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Mapping {
    /// Draft side.
    pub draft_element: ElementId,
    /// Source schema.
    pub source_schema: SchemaId,
    /// Source element.
    pub source_element: ElementId,
}

/// A schema-drafting session.
#[derive(Debug, Clone)]
pub struct EditSession {
    draft: Schema,
    provenance: Vec<Provenance>,
    mappings: Vec<Mapping>,
}

impl EditSession {
    /// Start a fresh draft named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        EditSession {
            draft: Schema::new(name),
            provenance: Vec::new(),
            mappings: Vec::new(),
        }
    }

    /// Continue from an existing schema (e.g. a repository export).
    pub fn from_schema(schema: Schema) -> Self {
        EditSession {
            draft: schema,
            provenance: Vec::new(),
            mappings: Vec::new(),
        }
    }

    /// The current draft.
    pub fn draft(&self) -> &Schema {
        &self.draft
    }

    /// Provenance records, in adoption order.
    pub fn provenance(&self) -> &[Provenance] {
        &self.provenance
    }

    /// Captured implicit mappings.
    pub fn mappings(&self) -> &[Mapping] {
        &self.mappings
    }

    /// Add a hand-written entity.
    pub fn add_entity(&mut self, name: impl Into<String>) -> ElementId {
        self.draft.add_root(Element::entity(name))
    }

    /// Add a hand-written attribute under `entity`.
    pub fn add_attribute(
        &mut self,
        entity: ElementId,
        name: impl Into<String>,
        data_type: DataType,
    ) -> ElementId {
        self.draft
            .add_child(entity, Element::attribute(name, data_type))
    }

    /// Rename a draft element.
    pub fn rename(&mut self, element: ElementId, name: impl AsRef<str>) {
        self.draft.set_name(element, name.as_ref());
    }

    /// Adopt one element from a repository schema into the draft under
    /// `parent` (None = as a root), recording provenance and the implicit
    /// mapping. Entities adopt *with their attributes*; attributes adopt
    /// alone.
    pub fn adopt(
        &mut self,
        source_id: SchemaId,
        source: &Schema,
        element: ElementId,
        parent: Option<ElementId>,
    ) -> ElementId {
        let src = source.element(element);
        let copy = Element {
            parent: None,
            ..src.to_element()
        };
        let new_id = match parent {
            Some(p) => self.draft.add_child(p, copy),
            None => self.draft.add_root(copy),
        };
        self.record(new_id, source_id, source, element);
        if src.kind == schemr_model::ElementKind::Entity {
            for child in source.children(element) {
                let c = source.element(child);
                if c.kind == schemr_model::ElementKind::Attribute {
                    let child_id = self.draft.add_child(new_id, c.to_element());
                    self.record(child_id, source_id, source, child);
                }
            }
        }
        new_id
    }

    fn record(
        &mut self,
        draft_element: ElementId,
        source_schema: SchemaId,
        source: &Schema,
        source_element: ElementId,
    ) {
        self.provenance.push(Provenance {
            draft_element,
            source_schema,
            source_path: source.path(source_element),
        });
        self.mappings.push(Mapping {
            draft_element,
            source_schema,
            source_element,
        });
    }

    /// Which repository schemas the draft reuses, with element counts —
    /// the paper's "information on schema re-use".
    pub fn reuse_summary(&self) -> Vec<(SchemaId, usize)> {
        let mut counts: std::collections::BTreeMap<SchemaId, usize> = Default::default();
        for p in &self.provenance {
            *counts.entry(p.source_schema).or_insert(0) += 1;
        }
        counts.into_iter().collect()
    }

    /// Export the draft as DDL.
    pub fn export_ddl(&self) -> String {
        print_ddl(&self.draft)
    }

    /// Store the draft in the repository; the description records the
    /// provenance trail.
    pub fn commit(
        &self,
        repo: &Repository,
        title: &str,
        summary: &str,
    ) -> Result<SchemaId, RepositoryError> {
        let id = repo.insert(title, summary, self.draft.clone())?;
        if !self.provenance.is_empty() {
            let trail: Vec<String> = self
                .provenance
                .iter()
                .map(|p| {
                    format!(
                        "{} <- {}:{}",
                        self.draft.path(p.draft_element),
                        p.source_schema,
                        p.source_path
                    )
                })
                .collect();
            repo.annotate(id, trail.join("; "), "schemr-editor")?;
        }
        Ok(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemr_model::SchemaBuilder;

    fn source() -> (SchemaId, Schema) {
        (
            SchemaId(7),
            SchemaBuilder::new("clinic")
                .entity("patient", |e| {
                    e.attr("height", DataType::Real)
                        .attr("gender", DataType::Text)
                })
                .build_unchecked(),
        )
    }

    #[test]
    fn hand_editing_builds_a_draft() {
        let mut s = EditSession::new("mydraft");
        let e = s.add_entity("visit");
        s.add_attribute(e, "date", DataType::Date);
        s.rename(e, "encounter");
        assert_eq!(s.draft().element(e).name, "encounter");
        assert_eq!(s.draft().attributes().len(), 1);
        assert!(s.provenance().is_empty());
    }

    #[test]
    fn adopting_an_attribute_records_provenance_and_mapping() {
        let (sid, src) = source();
        let mut s = EditSession::new("draft");
        let entity = s.add_entity("subject");
        let height = src.attributes()[0];
        let adopted = s.adopt(sid, &src, height, Some(entity));
        assert_eq!(s.draft().element(adopted).name, "height");
        assert_eq!(s.draft().element(adopted).parent, Some(entity));
        assert_eq!(s.provenance().len(), 1);
        assert_eq!(s.provenance()[0].source_path, "patient.height");
        assert_eq!(s.mappings()[0].source_element, height);
        assert_eq!(s.reuse_summary(), vec![(sid, 1)]);
    }

    #[test]
    fn adopting_an_entity_brings_its_attributes() {
        let (sid, src) = source();
        let mut s = EditSession::new("draft");
        let adopted = s.adopt(sid, &src, src.entities()[0], None);
        assert_eq!(s.draft().children(adopted).len(), 2);
        assert_eq!(s.provenance().len(), 3);
        assert_eq!(s.reuse_summary(), vec![(sid, 3)]);
        assert!(schemr_model::validate(s.draft()).is_empty());
    }

    #[test]
    fn export_and_commit_round_trip() {
        let (sid, src) = source();
        let mut s = EditSession::new("draft");
        s.adopt(sid, &src, src.entities()[0], None);
        let ddl = s.export_ddl();
        assert!(ddl.contains("CREATE TABLE patient"));
        let repo = Repository::new();
        let id = s
            .commit(&repo, "my_patient_schema", "drafted with schemr")
            .unwrap();
        let stored = repo.get(id).unwrap();
        assert_eq!(stored.metadata.source, "schemr-editor");
        assert!(stored.metadata.description.contains("patient.height"));
        assert!(stored.metadata.description.contains("s7:patient"));
    }

    #[test]
    fn commit_without_adoptions_skips_the_trail() {
        let mut s = EditSession::new("draft");
        let e = s.add_entity("thing");
        for a in ["a", "b", "c", "d"] {
            s.add_attribute(e, a, DataType::Text);
        }
        let repo = Repository::new();
        let id = s.commit(&repo, "t", "").unwrap();
        assert!(repo.get(id).unwrap().metadata.description.is_empty());
    }
}
