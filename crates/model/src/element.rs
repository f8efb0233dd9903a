//! Schema elements: the nodes of the schema graph.

use schemr_obs::json::{JsonError, Reader};

/// Index of an element within its [`crate::Schema`].
///
/// `ElementId`s are dense (0..n) and only meaningful relative to the schema
/// that issued them, which lets similarity matrices be plain 2-D arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ElementId(pub u32);

impl ElementId {
    /// The element's position in [`crate::Schema::elements`].
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// An id as `repo.json` writes it: a bare integer that fits a `u32`.
    pub(crate) fn read_json(r: &mut Reader<'_>) -> Result<ElementId, JsonError> {
        let n = r.u64()?;
        u32::try_from(n)
            .map(ElementId)
            .map_err(|_| r.error(format!("element id {n} out of range")))
    }
}

impl std::fmt::Display for ElementId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// What kind of node a schema element is.
///
/// The paper's GUI colors nodes by this type ("e.g. entity or attribute");
/// matchers and the tightness-of-fit measure also branch on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElementKind {
    /// A container of attributes: a relational table or an XML complex type.
    Entity,
    /// A leaf carrying data: a column or a simple XML element/attribute.
    Attribute,
    /// An intermediate grouping node (XSD `sequence`/`choice`, nested
    /// record). Groups behave like entities for containment but do not
    /// participate in foreign keys.
    Group,
}

impl ElementKind {
    pub(crate) const ALL: [ElementKind; 3] = [
        ElementKind::Entity,
        ElementKind::Attribute,
        ElementKind::Group,
    ];

    /// The variant's name, as `repo.json` spells it.
    pub(crate) fn wire_name(self) -> &'static str {
        match self {
            ElementKind::Entity => "Entity",
            ElementKind::Attribute => "Attribute",
            ElementKind::Group => "Group",
        }
    }

    /// Short lowercase label used in flattened index documents and GraphML.
    pub fn label(self) -> &'static str {
        match self {
            ElementKind::Entity => "entity",
            ElementKind::Attribute => "attribute",
            ElementKind::Group => "group",
        }
    }
}

impl std::fmt::Display for ElementKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Logical data type of an attribute.
///
/// Parsers map concrete SQL / XSD types onto this small lattice; the
/// codebook matcher reads it to recognize an attribute's semantic type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DataType {
    Integer,
    Real,
    Decimal,
    Text,
    Boolean,
    Date,
    Time,
    DateTime,
    Binary,
    /// Unparsed or absent type information.
    #[default]
    Unknown,
}

impl DataType {
    /// All variants, in a stable order (used by the wire codecs and by
    /// the tests' generators).
    pub const ALL: [DataType; 10] = [
        DataType::Integer,
        DataType::Real,
        DataType::Decimal,
        DataType::Text,
        DataType::Boolean,
        DataType::Date,
        DataType::Time,
        DataType::DateTime,
        DataType::Binary,
        DataType::Unknown,
    ];

    /// Whether the type carries numeric values.
    pub fn is_numeric(self) -> bool {
        matches!(self, DataType::Integer | DataType::Real | DataType::Decimal)
    }

    /// Whether the type carries temporal values.
    pub fn is_temporal(self) -> bool {
        matches!(self, DataType::Date | DataType::Time | DataType::DateTime)
    }

    /// The variant's name, as `repo.json` spells it.
    pub(crate) fn wire_name(self) -> &'static str {
        match self {
            DataType::Integer => "Integer",
            DataType::Real => "Real",
            DataType::Decimal => "Decimal",
            DataType::Text => "Text",
            DataType::Boolean => "Boolean",
            DataType::Date => "Date",
            DataType::Time => "Time",
            DataType::DateTime => "DateTime",
            DataType::Binary => "Binary",
            DataType::Unknown => "Unknown",
        }
    }

    /// Short lowercase label for display and GraphML.
    pub fn label(self) -> &'static str {
        match self {
            DataType::Integer => "integer",
            DataType::Real => "real",
            DataType::Decimal => "decimal",
            DataType::Text => "text",
            DataType::Boolean => "boolean",
            DataType::Date => "date",
            DataType::Time => "time",
            DataType::DateTime => "datetime",
            DataType::Binary => "binary",
            DataType::Unknown => "unknown",
        }
    }
}

impl std::fmt::Display for DataType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A node in the schema graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Element {
    /// The element's declared name, exactly as parsed (`PatientHeight`,
    /// `pat_ht`, …). Normalization happens in the text-analysis layer.
    pub name: String,
    /// Entity, attribute, or group.
    pub kind: ElementKind,
    /// Data type; meaningful for attributes, [`DataType::Unknown`] otherwise.
    pub data_type: DataType,
    /// Containment parent (`None` for roots).
    pub parent: Option<ElementId>,
    /// Free-text documentation attached in the source (SQL `COMMENT`, XSD
    /// `xs:documentation`).
    pub doc: Option<String>,
}

impl Element {
    /// A new entity element with no parent.
    pub fn entity(name: impl Into<String>) -> Self {
        Element {
            name: name.into(),
            kind: ElementKind::Entity,
            data_type: DataType::Unknown,
            parent: None,
            doc: None,
        }
    }

    /// A new attribute element; the parent is fixed by [`crate::Schema::add_child`].
    pub fn attribute(name: impl Into<String>, data_type: DataType) -> Self {
        Element {
            name: name.into(),
            kind: ElementKind::Attribute,
            data_type,
            parent: None,
            doc: None,
        }
    }

    /// A new grouping element.
    pub fn group(name: impl Into<String>) -> Self {
        Element {
            name: name.into(),
            kind: ElementKind::Group,
            data_type: DataType::Unknown,
            parent: None,
            doc: None,
        }
    }

    /// Attach documentation, builder-style.
    pub fn with_doc(mut self, doc: impl Into<String>) -> Self {
        self.doc = Some(doc.into());
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_kinds() {
        assert_eq!(Element::entity("patient").kind, ElementKind::Entity);
        let a = Element::attribute("height", DataType::Real);
        assert_eq!(a.kind, ElementKind::Attribute);
        assert_eq!(a.data_type, DataType::Real);
        assert_eq!(Element::group("seq").kind, ElementKind::Group);
    }

    #[test]
    fn with_doc_attaches_documentation() {
        let e = Element::entity("patient").with_doc("a person under care");
        assert_eq!(e.doc.as_deref(), Some("a person under care"));
    }

    #[test]
    fn data_type_predicates() {
        assert!(DataType::Integer.is_numeric());
        assert!(DataType::Decimal.is_numeric());
        assert!(!DataType::Text.is_numeric());
        assert!(DataType::DateTime.is_temporal());
        assert!(!DataType::Boolean.is_temporal());
    }

    #[test]
    fn labels_are_lowercase_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for t in DataType::ALL {
            let l = t.label();
            assert_eq!(l, l.to_lowercase());
            assert!(seen.insert(l), "duplicate label {l}");
        }
    }

    #[test]
    fn wire_names_are_the_variant_names() {
        for kind in ElementKind::ALL {
            assert_eq!(kind.wire_name(), format!("{kind:?}"));
        }
        for t in DataType::ALL {
            assert_eq!(t.wire_name(), format!("{t:?}"));
        }
    }

    #[test]
    fn element_id_display_and_index() {
        assert_eq!(ElementId(7).to_string(), "e7");
        assert_eq!(ElementId(7).index(), 7);
    }
}
