//! Fluent construction of schemas.
//!
//! Parsers and tests build schemas through [`SchemaBuilder`], which keeps
//! the id bookkeeping and foreign-key name resolution out of call sites:
//!
//! ```
//! use schemr_model::{SchemaBuilder, DataType};
//!
//! let schema = SchemaBuilder::new("clinic")
//!     .entity("patient", |e| {
//!         e.attr("height", DataType::Real).attr("gender", DataType::Text)
//!     })
//!     .entity("case", |e| {
//!         e.attr("patient", DataType::Integer).attr("doctor", DataType::Integer)
//!     })
//!     .foreign_key("case", &["patient"], "patient", &[])
//!     .build()
//!     .unwrap();
//! assert_eq!(schema.entities().len(), 2);
//! ```

use std::collections::HashMap;

use crate::element::{DataType, Element, ElementId};
use crate::schema::{ForeignKey, Schema};

/// Error raised when a builder references an undeclared name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildError(pub String);

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "schema build error: {}", self.0)
    }
}

impl std::error::Error for BuildError {}

/// Builder for one entity's attribute list.
pub struct EntityBuilder {
    attrs: Vec<(String, DataType, Option<String>)>,
}

impl EntityBuilder {
    /// Add an attribute of the given type.
    pub fn attr(mut self, name: impl Into<String>, data_type: DataType) -> Self {
        self.attrs.push((name.into(), data_type, None));
        self
    }

    /// Add a documented attribute.
    pub fn attr_doc(
        mut self,
        name: impl Into<String>,
        data_type: DataType,
        doc: impl Into<String>,
    ) -> Self {
        self.attrs.push((name.into(), data_type, Some(doc.into())));
        self
    }
}

/// Fluent builder for a whole schema.
pub struct SchemaBuilder {
    schema: Schema,
    entity_ids: HashMap<String, ElementId>,
    attr_ids: HashMap<(String, String), ElementId>,
    pending_fks: Vec<(String, Vec<String>, String, Vec<String>)>,
}

impl SchemaBuilder {
    /// Start a schema with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        SchemaBuilder {
            schema: Schema::new(name),
            entity_ids: HashMap::new(),
            attr_ids: HashMap::new(),
            pending_fks: Vec::new(),
        }
    }

    /// Declare an entity and populate it via the closure.
    pub fn entity(
        mut self,
        name: impl Into<String>,
        f: impl FnOnce(EntityBuilder) -> EntityBuilder,
    ) -> Self {
        let name = name.into();
        let eb = f(EntityBuilder { attrs: Vec::new() });
        let eid = self.schema.add_root(Element::entity(name.clone()));
        self.entity_ids.insert(name.clone(), eid);
        for (aname, ty, doc) in eb.attrs {
            let mut el = Element::attribute(aname.clone(), ty);
            el.doc = doc;
            let aid = self.schema.add_child(eid, el);
            self.attr_ids.insert((name.clone(), aname), aid);
        }
        self
    }

    /// Declare a foreign key by entity/attribute names; resolved at
    /// [`SchemaBuilder::build`] so declaration order doesn't matter.
    pub fn foreign_key(
        mut self,
        from_entity: impl Into<String>,
        from_attrs: &[&str],
        to_entity: impl Into<String>,
        to_attrs: &[&str],
    ) -> Self {
        self.pending_fks.push((
            from_entity.into(),
            from_attrs.iter().map(|s| s.to_string()).collect(),
            to_entity.into(),
            to_attrs.iter().map(|s| s.to_string()).collect(),
        ));
        self
    }

    /// Resolve foreign keys and produce the schema.
    pub fn build(mut self) -> Result<Schema, BuildError> {
        let fks = std::mem::take(&mut self.pending_fks);
        for (fe, fas, te, tas) in fks {
            let from_entity = *self
                .entity_ids
                .get(&fe)
                .ok_or_else(|| BuildError(format!("unknown entity `{fe}` in foreign key")))?;
            let to_entity = *self
                .entity_ids
                .get(&te)
                .ok_or_else(|| BuildError(format!("unknown entity `{te}` in foreign key")))?;
            let resolve = |entity: &str, attrs: &[String]| -> Result<Vec<ElementId>, BuildError> {
                attrs
                    .iter()
                    .map(|a| {
                        self.attr_ids
                            .get(&(entity.to_string(), a.clone()))
                            .copied()
                            .ok_or_else(|| {
                                BuildError(format!(
                                    "unknown attribute `{entity}.{a}` in foreign key"
                                ))
                            })
                    })
                    .collect()
            };
            let from_attrs = resolve(&fe, &fas)?;
            let to_attrs = resolve(&te, &tas)?;
            self.schema.add_foreign_key(ForeignKey {
                from_entity,
                from_attrs,
                to_entity,
                to_attrs,
            });
        }
        self.schema.shrink_to_fit();
        Ok(self.schema)
    }

    /// Build, panicking on unresolved names. For tests and examples.
    pub fn build_unchecked(self) -> Schema {
        self.build().expect("schema builder names resolve")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::ElementKind;

    #[test]
    fn builds_entities_with_attributes() {
        let s = SchemaBuilder::new("shop")
            .entity("order", |e| {
                e.attr("id", DataType::Integer)
                    .attr_doc("total", DataType::Decimal, "grand total")
            })
            .build()
            .unwrap();
        assert_eq!(s.name, "shop");
        assert_eq!(s.entities().len(), 1);
        let attrs = s.children(s.entities()[0]);
        assert_eq!(attrs.len(), 2);
        assert_eq!(s.element(attrs[1]).doc, Some("grand total"));
        assert_eq!(s.element(attrs[0]).kind, ElementKind::Attribute);
    }

    #[test]
    fn foreign_keys_resolve_regardless_of_order() {
        let s = SchemaBuilder::new("x")
            .foreign_key("a", &["b_id"], "b", &["id"])
            .entity("a", |e| e.attr("b_id", DataType::Integer))
            .entity("b", |e| e.attr("id", DataType::Integer))
            .build()
            .unwrap();
        assert_eq!(s.foreign_keys().len(), 1);
        let fk = &s.foreign_keys()[0];
        assert_eq!(s.element(fk.from_entity).name, "a");
        assert_eq!(s.element(fk.to_entity).name, "b");
        assert_eq!(s.element(fk.from_attrs[0]).name, "b_id");
        assert_eq!(s.element(fk.to_attrs[0]).name, "id");
    }

    #[test]
    fn unknown_entity_in_fk_is_an_error() {
        let err = SchemaBuilder::new("x")
            .entity("a", |e| e.attr("id", DataType::Integer))
            .foreign_key("a", &["id"], "nope", &[])
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("nope"), "{err}");
    }

    #[test]
    fn unknown_attribute_in_fk_is_an_error() {
        let err = SchemaBuilder::new("x")
            .entity("a", |e| e.attr("id", DataType::Integer))
            .entity("b", |e| e.attr("id", DataType::Integer))
            .foreign_key("a", &["missing"], "b", &[])
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("a.missing"), "{err}");
    }
}
