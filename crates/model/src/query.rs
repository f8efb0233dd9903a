//! The query graph: Schemr's unified representation of search input.
//!
//! A query is "a forest of trees consisting of schema fragments and
//! keywords" (paper, §2 / Figure 1): the user may type free keywords, upload
//! DDL/XSD fragments, or both. Each keyword is a degenerate one-node graph.

use serde::{Deserialize, Serialize};

use crate::element::{ElementId, ElementKind};
use crate::schema::Schema;

/// One logical query element, addressable in similarity matrices.
///
/// Flattening a [`QueryGraph`] yields one `QueryTerm` per fragment element
/// plus one per keyword; matchers score candidate schema elements against
/// these.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryTerm {
    /// The raw text of the term (element name or keyword).
    pub text: String,
    /// Which fragment the term came from (`None` for keywords).
    pub fragment: Option<usize>,
    /// The element within that fragment (`None` for keywords).
    pub element: Option<ElementId>,
    /// Element kind for fragment terms; keywords report
    /// [`ElementKind::Attribute`] since they name data the user wants.
    pub kind: ElementKind,
}

impl QueryTerm {
    /// True when the term came from free-keyword input.
    pub fn is_keyword(&self) -> bool {
        self.fragment.is_none()
    }
}

/// A parsed query: schema fragments plus keywords.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct QueryGraph {
    fragments: Vec<Schema>,
    keywords: Vec<String>,
}

impl QueryGraph {
    /// An empty query graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a free keyword. Blank keywords are ignored.
    pub fn add_keyword(&mut self, kw: impl Into<String>) {
        let kw = kw.into();
        if !kw.trim().is_empty() {
            self.keywords.push(kw.trim().to_string());
        }
    }

    /// Add a schema fragment (parsed from DDL or XSD).
    pub fn add_fragment(&mut self, fragment: Schema) {
        self.fragments.push(fragment);
    }

    /// The fragments in insertion order.
    pub fn fragments(&self) -> &[Schema] {
        &self.fragments
    }

    /// The keywords in insertion order.
    pub fn keywords(&self) -> &[String] {
        &self.keywords
    }

    /// True when the user supplied nothing searchable.
    pub fn is_empty(&self) -> bool {
        self.keywords.is_empty() && self.fragments.iter().all(|f| f.is_empty())
    }

    /// Flatten the forest into addressable query terms: every fragment
    /// element contributes its name; every keyword contributes itself.
    ///
    /// This is the "flattens the query-graph into a list of keywords" step
    /// feeding candidate extraction, kept structured enough that Phase 2 can
    /// still map matrix rows back to fragment elements.
    pub fn terms(&self) -> Vec<QueryTerm> {
        let mut out = Vec::new();
        for (fi, frag) in self.fragments.iter().enumerate() {
            for id in frag.ids() {
                let el = frag.element(id);
                out.push(QueryTerm {
                    text: el.name.to_string(),
                    fragment: Some(fi),
                    element: Some(id),
                    kind: el.kind,
                });
            }
        }
        for kw in &self.keywords {
            out.push(QueryTerm {
                text: kw.clone(),
                fragment: None,
                element: None,
                kind: ElementKind::Attribute,
            });
        }
        out
    }

    /// Just the raw texts, for the document-index lookup of Phase 1.
    pub fn flat_texts(&self) -> Vec<String> {
        self.terms().into_iter().map(|t| t.text).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SchemaBuilder;
    use crate::element::DataType;

    /// Figure 1: fragment `patient(height, gender)` plus keyword
    /// `diagnosis`.
    fn figure1_query() -> QueryGraph {
        let mut q = QueryGraph::new();
        q.add_fragment(
            SchemaBuilder::new("fragment")
                .entity("patient", |e| {
                    e.attr("height", DataType::Real)
                        .attr("gender", DataType::Text)
                })
                .build_unchecked(),
        );
        q.add_keyword("diagnosis");
        q
    }

    #[test]
    fn figure1_flattens_to_four_terms() {
        let q = figure1_query();
        let texts = q.flat_texts();
        assert_eq!(texts, vec!["patient", "height", "gender", "diagnosis"]);
    }

    #[test]
    fn keyword_terms_are_marked_as_keywords() {
        let q = figure1_query();
        let terms = q.terms();
        assert!(terms[..3].iter().all(|t| !t.is_keyword()));
        assert!(terms[3].is_keyword());
        assert_eq!(terms[3].text, "diagnosis");
    }

    #[test]
    fn fragment_terms_point_back_into_the_fragment() {
        let q = figure1_query();
        let terms = q.terms();
        let t = &terms[1];
        let frag = &q.fragments()[t.fragment.unwrap()];
        assert_eq!(frag.element(t.element.unwrap()).name, t.text);
        assert_eq!(t.kind, ElementKind::Attribute);
        assert_eq!(terms[0].kind, ElementKind::Entity);
    }

    #[test]
    fn blank_keywords_are_dropped() {
        let mut q = QueryGraph::new();
        q.add_keyword("   ");
        q.add_keyword("");
        assert!(q.is_empty());
        q.add_keyword("  height ");
        assert_eq!(q.keywords(), ["height"]);
    }

    #[test]
    fn empty_fragments_do_not_make_the_query_nonempty() {
        let mut q = QueryGraph::new();
        q.add_fragment(Schema::new("empty"));
        assert!(q.is_empty());
    }

    #[test]
    fn multiple_fragments_keep_fragment_indices() {
        let mut q = figure1_query();
        q.add_fragment(
            SchemaBuilder::new("f2")
                .entity("visit", |e| e.attr("date", DataType::Date))
                .build_unchecked(),
        );
        let terms = q.terms();
        let visit_terms: Vec<_> = terms.iter().filter(|t| t.fragment == Some(1)).collect();
        assert_eq!(visit_terms.len(), 2);
    }
}
