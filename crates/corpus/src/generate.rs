//! Base schema generation: one clean, canonical schema per concept.
//!
//! Generated schemas are always snake_case and unperturbed — the
//! [`crate::Perturber`] then derives the family variants organizations
//! would actually publish.

use rand::Rng;
use schemr_model::{DataType, Element, ElementId, ForeignKey, Schema};

use crate::vocab::{Domain, COMMON_ATTRIBUTES};

/// Overall shape of a generated schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemaShape {
    /// Flat tables joined by foreign keys (DDL-style).
    Relational,
    /// Nested entities (XSD-style), depth up to 3.
    Tree,
}

/// Generator knobs.
#[derive(Debug, Clone, Copy)]
pub struct GeneratorConfig {
    /// Entity count range (inclusive).
    pub entities: (usize, usize),
    /// Attributes per entity (inclusive range).
    pub attributes: (usize, usize),
    /// Probability that a non-first entity gets a foreign key to an
    /// earlier one.
    pub fk_probability: f64,
    /// Probability a schema is tree-shaped instead of relational.
    pub tree_probability: f64,
    /// Probability each entity gains one common bookkeeping attribute
    /// (`id`, `created`, …).
    pub common_attribute_rate: f64,
    /// Probability an attribute gets a modifier prefix (`max_height`,
    /// `annual_rainfall`). Compound names make the synthetic name space as
    /// diverse as real web-table headers, so that textual collisions
    /// between unrelated schemas stay rare.
    pub compound_rate: f64,
}

/// Modifier prefixes for compound attribute names.
const MODIFIERS: &[&str] = &[
    "max",
    "min",
    "avg",
    "total",
    "initial",
    "final",
    "primary",
    "secondary",
    "annual",
    "monthly",
    "daily",
    "current",
    "previous",
    "estimated",
    "measured",
    "reported",
    "net",
    "gross",
    "adjusted",
    "baseline",
];

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            entities: (1, 5),
            attributes: (3, 9),
            fk_probability: 0.7,
            tree_probability: 0.3,
            common_attribute_rate: 0.6,
            compound_rate: 0.5,
        }
    }
}

/// Plausible data type for an attribute noun.
fn type_for(attr: &str, rng: &mut impl Rng) -> DataType {
    match attr {
        "height" | "weight" | "temperature" | "rainfall" | "salinity" | "ph" | "elevation"
        | "latitude" | "longitude" | "price" | "total" | "discount" | "tax" | "balance"
        | "amount" | "interest" | "rate" | "gpa" | "distance" | "depth" | "turbidity" | "yield"
        | "margin" => DataType::Real,
        "age" | "quantity" | "count" | "stock" | "capacity" | "credit" | "mileage"
        | "abundance" | "score" | "rank" | "pulse" | "dosage" | "level" | "limit" => {
            DataType::Integer
        }
        "created" | "updated" | "admission" | "discharge" | "departure" | "arrival"
        | "birthday" | "onset" | "maturity" => DataType::Date,
        "id" => DataType::Integer,
        _ => {
            // Mostly text, occasionally something else for variety.
            match rng.random_range(0..10) {
                0 => DataType::Integer,
                1 => DataType::Boolean,
                _ => DataType::Text,
            }
        }
    }
}

/// The base-schema generator.
#[derive(Debug, Clone, Default)]
pub struct SchemaGenerator {
    config: GeneratorConfig,
}

impl SchemaGenerator {
    /// Generator with the given config.
    pub fn new(config: GeneratorConfig) -> Self {
        SchemaGenerator { config }
    }

    /// Sample `k` distinct items from `pool` (or all of them if `k` exceeds
    /// the pool).
    fn sample_distinct<'a>(pool: &[&'a str], k: usize, rng: &mut impl Rng) -> Vec<&'a str> {
        let mut indices: Vec<usize> = (0..pool.len()).collect();
        // Partial Fisher-Yates.
        let k = k.min(pool.len());
        for i in 0..k {
            let j = rng.random_range(i..indices.len());
            indices.swap(i, j);
        }
        indices[..k].iter().map(|&i| pool[i]).collect()
    }

    /// Generate one base schema for `domain`, named `title`.
    pub fn generate(&self, title: &str, domain: &Domain, rng: &mut impl Rng) -> Schema {
        let shape = if rng.random_bool(self.config.tree_probability) {
            SchemaShape::Tree
        } else {
            SchemaShape::Relational
        };
        self.generate_shaped(title, domain, shape, rng)
    }

    /// Generate with an explicit shape.
    pub fn generate_shaped(
        &self,
        title: &str,
        domain: &Domain,
        shape: SchemaShape,
        rng: &mut impl Rng,
    ) -> Schema {
        let n_entities = rng.random_range(self.config.entities.0..=self.config.entities.1);
        let entity_names = Self::sample_distinct(domain.entities, n_entities, rng);
        let mut schema = Schema::new(title);
        match shape {
            SchemaShape::Relational => {
                let mut ids: Vec<ElementId> = Vec::new();
                for (i, &ename) in entity_names.iter().enumerate() {
                    let eid = schema.add_root(Element::entity(ename));
                    self.add_attributes(&mut schema, eid, domain, rng);
                    // Foreign key to one earlier entity.
                    if i > 0 && rng.random_bool(self.config.fk_probability) {
                        let target_ix = rng.random_range(0..i);
                        let target = ids[target_ix];
                        let fk_name = format!("{}_id", schema.element(target).name);
                        let fk_attr =
                            schema.add_child(eid, Element::attribute(fk_name, DataType::Integer));
                        schema.add_foreign_key(ForeignKey {
                            from_entity: eid,
                            from_attrs: vec![fk_attr],
                            to_entity: target,
                            to_attrs: vec![],
                        });
                    }
                    ids.push(eid);
                }
            }
            SchemaShape::Tree => {
                // Chain/star nesting: first entity is the root; the rest
                // nest beneath a random earlier entity, depth-capped at 3.
                let mut placed: Vec<ElementId> = Vec::new();
                for (i, &ename) in entity_names.iter().enumerate() {
                    let eid = if i == 0 {
                        schema.add_root(Element::entity(ename))
                    } else {
                        // Choose a parent whose depth is < 2 so entities
                        // stay within depth 3 overall.
                        let shallow: Vec<ElementId> = placed
                            .iter()
                            .copied()
                            .filter(|&p| schema.depth(p) < 2)
                            .collect();
                        let parent = shallow[rng.random_range(0..shallow.len())];
                        schema.add_child(parent, Element::entity(ename))
                    };
                    self.add_attributes(&mut schema, eid, domain, rng);
                    placed.push(eid);
                }
            }
        }
        schema
    }

    fn add_attributes(
        &self,
        schema: &mut Schema,
        entity: ElementId,
        domain: &Domain,
        rng: &mut impl Rng,
    ) {
        let n_attrs = rng.random_range(self.config.attributes.0..=self.config.attributes.1);
        for attr in Self::sample_distinct(domain.attributes, n_attrs, rng) {
            let ty = type_for(attr, rng);
            let name = if rng.random_bool(self.config.compound_rate) {
                let m = MODIFIERS[rng.random_range(0..MODIFIERS.len())];
                format!("{m}_{attr}")
            } else {
                attr.to_string()
            };
            schema.add_child(entity, Element::attribute(name, ty));
        }
        if rng.random_bool(self.config.common_attribute_rate) {
            let c = COMMON_ATTRIBUTES[rng.random_range(0..COMMON_ATTRIBUTES.len())];
            // Avoid duplicating a domain attribute already present.
            let present = schema
                .children(entity)
                .iter()
                .any(|&a| schema.element(a).name == c);
            if !present {
                let ty = type_for(c, rng);
                schema.add_child(entity, Element::attribute(c, ty));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab::DOMAINS;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use schemr_model::validate;

    fn health() -> &'static Domain {
        &DOMAINS[0]
    }

    #[test]
    fn generated_schemas_validate() {
        let g = SchemaGenerator::default();
        let mut rng = StdRng::seed_from_u64(11);
        for i in 0..100 {
            let d = &DOMAINS[i % DOMAINS.len()];
            let s = g.generate(&format!("s{i}"), d, &mut rng);
            let errs = validate(&s);
            assert!(errs.is_empty(), "schema {i}: {errs:?}");
            assert!(!s.entities().is_empty());
        }
    }

    #[test]
    fn relational_schemas_have_fk_wiring() {
        let g = SchemaGenerator::new(GeneratorConfig {
            entities: (3, 5),
            fk_probability: 1.0,
            tree_probability: 0.0,
            ..Default::default()
        });
        let mut rng = StdRng::seed_from_u64(12);
        let s = g.generate_shaped("t", health(), SchemaShape::Relational, &mut rng);
        assert!(s.foreign_keys().len() >= 2);
        assert!(validate(&s).is_empty());
    }

    #[test]
    fn tree_schemas_nest_within_depth_three() {
        let g = SchemaGenerator::new(GeneratorConfig {
            entities: (4, 6),
            ..Default::default()
        });
        let mut rng = StdRng::seed_from_u64(13);
        let s = g.generate_shaped("t", health(), SchemaShape::Tree, &mut rng);
        // At least one nested entity, and entity depth ≤ 2 (attributes ≤ 3).
        let nested = s
            .entities()
            .iter()
            .filter(|&&e| s.element(e).parent.is_some())
            .count();
        assert!(nested >= 1);
        for id in s.ids() {
            assert!(s.depth(id) <= 3, "depth of {}", s.path(id));
        }
    }

    #[test]
    fn entity_names_are_distinct_within_a_schema() {
        let g = SchemaGenerator::new(GeneratorConfig {
            entities: (5, 5),
            ..Default::default()
        });
        let mut rng = StdRng::seed_from_u64(14);
        let s = g.generate("t", health(), &mut rng);
        let names: Vec<_> = s.entities().iter().map(|&e| s.element(e).name).collect();
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let g = SchemaGenerator::default();
        let s1 = g.generate("t", health(), &mut StdRng::seed_from_u64(42));
        let s2 = g.generate("t", health(), &mut StdRng::seed_from_u64(42));
        assert_eq!(s1, s2);
    }

    #[test]
    fn attribute_counts_respect_config() {
        let g = SchemaGenerator::new(GeneratorConfig {
            entities: (1, 1),
            attributes: (4, 4),
            common_attribute_rate: 0.0,
            tree_probability: 0.0,
            ..Default::default()
        });
        let mut rng = StdRng::seed_from_u64(15);
        let s = g.generate("t", health(), &mut rng);
        assert_eq!(s.attributes().len(), 4);
    }
}
