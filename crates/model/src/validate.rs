//! Structural validation of schemas.
//!
//! Parsers and the repository run [`validate`] before accepting a schema, so
//! downstream code (indexer, matchers, layouts) can assume well-formedness.
//!
//! Containment needs no check here: a [`Schema`] cannot hold a dangling
//! parent or a containment cycle (parents precede children, enforced where
//! elements enter — `add_child` and deserialization alike).

use crate::element::{ElementId, ElementKind};
use crate::schema::Schema;

/// A structural defect found by [`validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// An element has an empty or whitespace-only name.
    EmptyName(ElementId),
    /// An attribute has containment children.
    AttributeWithChildren(ElementId),
    /// A foreign key references an element that is not an entity.
    ForeignKeyNotEntity(ElementId),
    /// A foreign key's attribute does not belong to its declared entity.
    ForeignKeyAttrOutsideEntity { attr: ElementId, entity: ElementId },
    /// A foreign key references an out-of-range element.
    ForeignKeyDangling(ElementId),
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::EmptyName(id) => write!(f, "element {id} has an empty name"),
            ValidationError::AttributeWithChildren(id) => {
                write!(f, "attribute {id} has children")
            }
            ValidationError::ForeignKeyNotEntity(id) => {
                write!(f, "foreign key endpoint {id} is not an entity")
            }
            ValidationError::ForeignKeyAttrOutsideEntity { attr, entity } => {
                write!(
                    f,
                    "foreign key attribute {attr} is not owned by entity {entity}"
                )
            }
            ValidationError::ForeignKeyDangling(id) => {
                write!(f, "foreign key references out-of-range element {id}")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// Check a schema for structural defects; returns every defect found.
pub fn validate(schema: &Schema) -> Vec<ValidationError> {
    let mut errors = Vec::new();
    let n = schema.len();
    let in_range = |id: ElementId| id.index() < n;

    for (id, el) in schema.ids().zip(schema.elements()) {
        if el.name.trim().is_empty() {
            errors.push(ValidationError::EmptyName(id));
        }
        if let Some(p) = el.parent {
            if schema.element(p).kind == ElementKind::Attribute {
                errors.push(ValidationError::AttributeWithChildren(p));
            }
        }
    }

    for fk in schema.foreign_keys() {
        for endpoint in [fk.from_entity, fk.to_entity] {
            if !in_range(endpoint) {
                errors.push(ValidationError::ForeignKeyDangling(endpoint));
            } else if schema.element(endpoint).kind != ElementKind::Entity {
                errors.push(ValidationError::ForeignKeyNotEntity(endpoint));
            }
        }
        for (attrs, entity) in [
            (&fk.from_attrs, fk.from_entity),
            (&fk.to_attrs, fk.to_entity),
        ] {
            for &attr in attrs {
                if !in_range(attr) {
                    errors.push(ValidationError::ForeignKeyDangling(attr));
                } else if in_range(entity) && schema.owning_entity(attr) != Some(entity) {
                    errors.push(ValidationError::ForeignKeyAttrOutsideEntity { attr, entity });
                }
            }
        }
    }

    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SchemaBuilder;
    use crate::element::{DataType, Element};
    use crate::schema::ForeignKey;

    #[test]
    fn a_well_formed_schema_validates_cleanly() {
        let s = SchemaBuilder::new("ok")
            .entity("a", |e| e.attr("b_id", DataType::Integer))
            .entity("b", |e| e.attr("id", DataType::Integer))
            .foreign_key("a", &["b_id"], "b", &["id"])
            .build_unchecked();
        assert!(validate(&s).is_empty());
    }

    #[test]
    fn empty_names_are_reported() {
        let mut s = Schema::new("x");
        s.add_root(Element::entity("  "));
        let errs = validate(&s);
        assert!(matches!(errs[0], ValidationError::EmptyName(_)));
    }

    #[test]
    fn attribute_children_are_reported() {
        let mut s = Schema::new("x");
        let a = s.add_root(Element::attribute("leaf", DataType::Text));
        s.add_child(a, Element::attribute("child", DataType::Text));
        let errs = validate(&s);
        assert!(errs.contains(&ValidationError::AttributeWithChildren(a)));
    }

    #[test]
    fn fk_endpoint_must_be_entity() {
        let mut s = Schema::new("x");
        let a = s.add_root(Element::entity("a"));
        let attr = s.add_child(a, Element::attribute("id", DataType::Integer));
        s.add_foreign_key(ForeignKey {
            from_entity: attr,
            from_attrs: vec![],
            to_entity: a,
            to_attrs: vec![],
        });
        let errs = validate(&s);
        assert!(errs.contains(&ValidationError::ForeignKeyNotEntity(attr)));
    }

    #[test]
    fn fk_attr_must_belong_to_declared_entity() {
        let mut s = Schema::new("x");
        let a = s.add_root(Element::entity("a"));
        let b = s.add_root(Element::entity("b"));
        let b_attr = s.add_child(b, Element::attribute("id", DataType::Integer));
        s.add_foreign_key(ForeignKey {
            from_entity: a,
            from_attrs: vec![b_attr],
            to_entity: b,
            to_attrs: vec![],
        });
        let errs = validate(&s);
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidationError::ForeignKeyAttrOutsideEntity { .. })));
    }

    #[test]
    fn fk_out_of_range_is_dangling() {
        let mut s = Schema::new("x");
        let a = s.add_root(Element::entity("a"));
        s.add_foreign_key(ForeignKey {
            from_entity: a,
            from_attrs: vec![],
            to_entity: ElementId(42),
            to_attrs: vec![],
        });
        let errs = validate(&s);
        assert!(errs.contains(&ValidationError::ForeignKeyDangling(ElementId(42))));
    }
}
