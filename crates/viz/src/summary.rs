//! Schema summarization for very large schemas.
//!
//! "To ensure Schemr scales to very large schemas, we plan to employ schema
//! visualization and summarization techniques, such as those proposed in
//! [Yu & Jagadish, Schema summarization, VLDB 2006]."
//!
//! This module implements an importance-based summarizer in that spirit:
//! entities are scored by how much of the schema they carry (attribute
//! count), how central they are (foreign-key degree), and how close to the
//! root they sit; the summary keeps the top-*k* entities with their most
//! important attributes and every foreign key between kept entities.

use std::collections::HashMap;

use schemr_model::{Element, ElementId, ElementKind, ForeignKey, Schema};

/// An entity's importance breakdown.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EntityImportance {
    /// The entity.
    pub entity: ElementId,
    /// Combined importance (higher = keep first).
    pub score: f64,
    /// Attribute count component.
    pub attributes: usize,
    /// FK degree component.
    pub fk_degree: usize,
}

/// Rank entities by importance, descending.
pub fn rank_entities(schema: &Schema) -> Vec<EntityImportance> {
    let mut fk_degree: HashMap<ElementId, usize> = HashMap::new();
    for fk in schema.foreign_keys() {
        *fk_degree.entry(fk.from_entity).or_insert(0) += 1;
        *fk_degree.entry(fk.to_entity).or_insert(0) += 1;
    }
    let mut ranked: Vec<EntityImportance> = schema
        .entities()
        .into_iter()
        .map(|entity| {
            let attributes = schema
                .children(entity)
                .into_iter()
                .filter(|&c| schema.element(c).kind == ElementKind::Attribute)
                .count();
            let degree = fk_degree.get(&entity).copied().unwrap_or(0);
            let depth = schema.depth(entity);
            // Attribute mass + 2× connectivity, discounted by nesting depth.
            let score = (attributes as f64 + 2.0 * degree as f64) / (1.0 + depth as f64);
            EntityImportance {
                entity,
                score,
                attributes,
                fk_degree: degree,
            }
        })
        .collect();
    ranked.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.entity.cmp(&b.entity))
    });
    ranked
}

/// Produce a summary schema with at most `max_entities` entities and at
/// most `max_attrs_per_entity` attributes each. Foreign keys between kept
/// entities survive (attribute detail dropped when the attribute was
/// pruned).
pub fn summarize(schema: &Schema, max_entities: usize, max_attrs_per_entity: usize) -> Schema {
    let keep: Vec<ElementId> = rank_entities(schema)
        .into_iter()
        .take(max_entities)
        .map(|e| e.entity)
        .collect();
    let mut out = Schema::new(format!("{} (summary)", schema.name));
    let mut id_map: HashMap<ElementId, ElementId> = HashMap::new();
    for &entity in &keep {
        let new_entity = out.add_root(Element::entity(schema.element(entity).name));
        id_map.insert(entity, new_entity);
        // Attributes in insertion order; FK attributes first so surviving
        // FKs keep their column detail.
        let mut attrs: Vec<ElementId> = schema
            .children(entity)
            .into_iter()
            .filter(|&c| schema.element(c).kind == ElementKind::Attribute)
            .collect();
        let is_fk_attr = |id: ElementId| {
            schema
                .foreign_keys()
                .iter()
                .any(|fk| fk.from_attrs.contains(&id) || fk.to_attrs.contains(&id))
        };
        attrs.sort_by_key(|&a| (!is_fk_attr(a), a));
        for attr in attrs.into_iter().take(max_attrs_per_entity) {
            let el = schema.element(attr);
            let new_attr = out.add_child(new_entity, Element::attribute(el.name, el.data_type));
            id_map.insert(attr, new_attr);
        }
    }
    for fk in schema.foreign_keys() {
        let (Some(&from_entity), Some(&to_entity)) =
            (id_map.get(&fk.from_entity), id_map.get(&fk.to_entity))
        else {
            continue;
        };
        let map_attrs = |attrs: &[ElementId]| -> Vec<ElementId> {
            attrs
                .iter()
                .filter_map(|a| id_map.get(a).copied())
                .collect()
        };
        let from_attrs = map_attrs(&fk.from_attrs);
        // Only keep column detail when every column survived.
        let from_attrs = if from_attrs.len() == fk.from_attrs.len() {
            from_attrs
        } else {
            vec![]
        };
        let to_attrs = map_attrs(&fk.to_attrs);
        let to_attrs = if to_attrs.len() == fk.to_attrs.len() {
            to_attrs
        } else {
            vec![]
        };
        out.add_foreign_key(ForeignKey {
            from_entity,
            from_attrs,
            to_entity,
            to_attrs,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemr_model::{validate, DataType, SchemaBuilder};

    /// A star schema: `fact` joined to three dimensions plus an isolated
    /// junk table.
    fn star() -> Schema {
        SchemaBuilder::new("warehouse")
            .entity("fact_sales", |e| {
                e.attr("amount", DataType::Decimal)
                    .attr("quantity", DataType::Integer)
                    .attr("store_id", DataType::Integer)
                    .attr("product_id", DataType::Integer)
                    .attr("date_id", DataType::Integer)
            })
            .entity("dim_store", |e| {
                e.attr("id", DataType::Integer).attr("city", DataType::Text)
            })
            .entity("dim_product", |e| {
                e.attr("id", DataType::Integer)
                    .attr("brand", DataType::Text)
            })
            .entity("dim_date", |e| {
                e.attr("id", DataType::Integer)
                    .attr("month", DataType::Integer)
            })
            .entity("scratch", |e| e.attr("junk", DataType::Text))
            .foreign_key("fact_sales", &["store_id"], "dim_store", &["id"])
            .foreign_key("fact_sales", &["product_id"], "dim_product", &["id"])
            .foreign_key("fact_sales", &["date_id"], "dim_date", &["id"])
            .build_unchecked()
    }

    #[test]
    fn the_fact_table_ranks_first() {
        let s = star();
        let ranked = rank_entities(&s);
        assert_eq!(s.element(ranked[0].entity).name, "fact_sales");
        assert_eq!(ranked[0].fk_degree, 3);
        // The isolated junk table ranks last.
        assert_eq!(s.element(ranked.last().unwrap().entity).name, "scratch");
    }

    #[test]
    fn summary_keeps_top_entities_and_their_fks() {
        let s = star();
        let summary = summarize(&s, 3, 3);
        assert!(validate(&summary).is_empty());
        assert_eq!(summary.entities().len(), 3);
        let names: Vec<String> = summary
            .entities()
            .into_iter()
            .map(|e| summary.element(e).name.to_string())
            .collect();
        assert!(names.contains(&"fact_sales".to_string()));
        assert!(!names.contains(&"scratch".to_string()));
        // FKs between kept entities survive.
        assert_eq!(summary.foreign_keys().len(), 2);
        for e in summary.entities() {
            assert!(summary.children(e).len() <= 3);
        }
    }

    #[test]
    fn fk_attributes_survive_attribute_pruning_first() {
        let s = star();
        let summary = summarize(&s, 5, 2);
        // Even with only 2 attributes kept per entity, every surviving FK
        // either keeps full column detail or drops to entity-level.
        for fk in summary.foreign_keys() {
            for &a in fk.from_attrs.iter().chain(&fk.to_attrs) {
                assert!(summary.get(a).is_some());
            }
        }
        assert!(validate(&summary).is_empty());
    }

    #[test]
    fn summary_of_small_schema_is_lossless_in_entity_count() {
        let s = star();
        let summary = summarize(&s, 100, 100);
        assert_eq!(summary.entities().len(), s.entities().len());
        assert_eq!(summary.foreign_keys().len(), s.foreign_keys().len());
    }

    #[test]
    fn summary_name_is_marked() {
        let summary = summarize(&star(), 2, 2);
        assert!(summary.name.ends_with("(summary)"));
    }
}
