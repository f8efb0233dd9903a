//! Suggestion engine: what should the designer add next?
//!
//! Searches the repository with the current draft as a query fragment,
//! then proposes attributes from the best-matching schemas that the draft
//! does not already cover — the iterative augmentation loop.

use schemr::{SchemrEngine, SearchRequest};
use schemr_match::NameMatcher;
use schemr_model::{DataType, ElementId, ElementKind, SchemaId};

use crate::session::EditSession;

/// A proposed addition to the draft.
#[derive(Debug, Clone, PartialEq)]
pub struct Suggestion {
    /// Schema the suggestion comes from.
    pub source_schema: SchemaId,
    /// Title of that schema.
    pub source_title: String,
    /// The element to adopt.
    pub element: ElementId,
    /// Its dotted path.
    pub path: String,
    /// Its name.
    pub name: String,
    /// Its data type.
    pub data_type: DataType,
    /// How strongly the source schema matched the draft.
    pub schema_score: f64,
}

/// Compute suggestions for a session. Returns up to `limit` attributes
/// from the top-matching schemas whose names are not already covered by
/// the draft (name similarity below `novelty_threshold` against every
/// draft attribute).
pub fn suggest_for(
    session: &EditSession,
    engine: &SchemrEngine,
    limit: usize,
    novelty_threshold: f64,
) -> Vec<Suggestion> {
    if session.draft().is_empty() || limit == 0 {
        return Vec::new();
    }
    let request = SearchRequest::fragment(session.draft().clone()).with_limit(5);
    let Ok(results) = engine.search(&request) else {
        return Vec::new();
    };
    let matcher = NameMatcher::new();
    let draft_names: Vec<String> = session
        .draft()
        .attributes()
        .into_iter()
        .map(|a| session.draft().element(a).name.to_string())
        .collect();

    let mut out = Vec::new();
    for result in results {
        let Some(stored) = engine.repository().get(result.id) else {
            continue;
        };
        for attr in stored.schema.attributes() {
            if out.len() >= limit {
                return out;
            }
            let el = stored.schema.element(attr);
            debug_assert_eq!(el.kind, ElementKind::Attribute);
            let covered = draft_names
                .iter()
                .any(|d| matcher.similarity(d, el.name) >= novelty_threshold);
            let already_suggested = out
                .iter()
                .any(|s: &Suggestion| matcher.similarity(&s.name, el.name) >= novelty_threshold);
            if !covered && !already_suggested {
                out.push(Suggestion {
                    source_schema: result.id,
                    source_title: result.title.clone(),
                    element: attr,
                    path: stored.schema.path(attr),
                    name: el.name.to_string(),
                    data_type: el.data_type,
                    schema_score: result.score,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemr_model::DataType;
    use schemr_repo::{import::import_str, Repository};
    use std::sync::Arc;

    fn engine() -> SchemrEngine {
        let repo = Arc::new(Repository::new());
        import_str(
            &repo,
            "clinic",
            "",
            "CREATE TABLE patient (height REAL, gender TEXT, blood_pressure REAL, allergy TEXT)",
        )
        .unwrap();
        import_str(
            &repo,
            "store",
            "",
            "CREATE TABLE orders (total DECIMAL, quantity INT, discount REAL)",
        )
        .unwrap();
        let e = SchemrEngine::new(repo);
        e.reindex_full();
        e
    }

    #[test]
    fn suggests_uncovered_attributes_from_matching_schemas() {
        let engine = engine();
        let mut session = EditSession::new("draft");
        let e = session.add_entity("patient");
        session.add_attribute(e, "height", DataType::Real);
        session.add_attribute(e, "gender", DataType::Text);

        let suggestions = suggest_for(&session, &engine, 5, 0.8);
        assert!(!suggestions.is_empty());
        let names: Vec<&str> = suggestions.iter().map(|s| s.name.as_str()).collect();
        // Already-covered attributes are not re-suggested…
        assert!(!names.contains(&"height"));
        assert!(!names.contains(&"gender"));
        // …but the clinic's novel ones are.
        assert!(
            names.contains(&"blood_pressure") || names.contains(&"allergy"),
            "{names:?}"
        );
        assert!(suggestions[0].source_title == "clinic");
    }

    #[test]
    fn adopting_a_suggestion_closes_the_loop() {
        let engine = engine();
        let mut session = EditSession::new("draft");
        let e = session.add_entity("patient");
        session.add_attribute(e, "height", DataType::Real);
        let suggestions = suggest_for(&session, &engine, 3, 0.8);
        let pick = &suggestions[0];
        let stored = engine.repository().get(pick.source_schema).unwrap();
        let adopted = session.adopt(pick.source_schema, &stored.schema, pick.element, Some(e));
        assert_eq!(session.draft().element(adopted).name, pick.name);
        assert_eq!(session.provenance().len(), 1);
        // The adopted name is now covered and disappears from suggestions.
        let again = suggest_for(&session, &engine, 5, 0.8);
        assert!(again.iter().all(|s| s.name != pick.name));
    }

    #[test]
    fn empty_draft_or_zero_limit_suggest_nothing() {
        let engine = engine();
        let session = EditSession::new("draft");
        assert!(suggest_for(&session, &engine, 5, 0.8).is_empty());
        let mut s2 = EditSession::new("d2");
        let e = s2.add_entity("patient");
        s2.add_attribute(e, "height", DataType::Real);
        assert!(suggest_for(&s2, &engine, 0, 0.8).is_empty());
    }
}
