//! Corpus assembly: concept families, noise, and the paper's filter.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use schemr_model::{Element, ElementKind, Schema, SchemaStats};

use crate::generate::{GeneratorConfig, SchemaGenerator};
use crate::perturb::{PerturbConfig, Perturber};
use crate::vocab::DOMAINS;

/// One corpus schema with its ground-truth labels.
#[derive(Debug, Clone)]
pub struct LabeledSchema {
    /// Display title (becomes the repository/index title).
    pub title: String,
    /// One-line summary.
    pub summary: String,
    /// The schema graph.
    pub schema: Schema,
    /// Domain name.
    pub domain: &'static str,
    /// Ground-truth family: schemas in the same family describe the same
    /// concept and are mutually relevant.
    pub family: usize,
}

/// Corpus generation knobs.
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    /// RNG seed — same seed, same corpus.
    pub seed: u64,
    /// Approximate number of schemas to produce (before filtering).
    pub target_size: usize,
    /// Family size range (members per concept), inclusive.
    pub family_size: (usize, usize),
    /// Perturbation mix applied to family members.
    pub perturb: PerturbConfig,
    /// Base-schema generator config.
    pub generator: GeneratorConfig,
    /// Probability a family member drops each attribute (schema churn).
    pub attribute_drop: f64,
    /// Fraction of extra "raw web table" noise schemas: digit-ridden
    /// names, singletons, and trivial tables — what the paper's filter
    /// removes.
    pub raw_noise: f64,
    /// Fraction of families that also emit a *scattered twin*: a schema
    /// carrying the family's vocabulary but strewn across unrelated
    /// entities with no foreign keys. These are the adversarial
    /// distractors the tightness-of-fit measure exists to demote — a
    /// hospital-wide grab-bag schema mentions patient, height, and gender
    /// without those columns belonging together.
    pub scatter_noise: f64,
}

impl CorpusConfig {
    /// A small config for tests.
    pub fn small(seed: u64) -> Self {
        CorpusConfig {
            seed,
            target_size: 100,
            ..Self::default()
        }
    }

    /// A config sized like the paper's repository (30k schemas).
    pub fn paper_scale(seed: u64) -> Self {
        CorpusConfig {
            seed,
            target_size: 30_000,
            ..Self::default()
        }
    }
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            seed: 0,
            target_size: 1_000,
            family_size: (2, 6),
            perturb: PerturbConfig::standard(),
            generator: GeneratorConfig::default(),
            attribute_drop: 0.1,
            raw_noise: 0.0,
            scatter_noise: 0.25,
        }
    }
}

/// A generated corpus.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// The schemas, in generation order. Indices are the corpus-local ids
    /// the workload's ground truth uses.
    pub schemas: Vec<LabeledSchema>,
}

impl Corpus {
    /// Generate a corpus from a config. Deterministic in `config.seed`.
    pub fn generate(config: &CorpusConfig) -> Corpus {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let generator = SchemaGenerator::new(config.generator);
        let perturber = Perturber::new(config.perturb);
        let mut schemas = Vec::with_capacity(config.target_size);
        let mut family = 0usize;
        while schemas.len() < config.target_size {
            let domain = &DOMAINS[family % DOMAINS.len()];
            let base = generator.generate(&format!("concept{family}"), domain, &mut rng);
            let members = rng.random_range(config.family_size.0..=config.family_size.1);
            for v in 0..members {
                if schemas.len() >= config.target_size {
                    break;
                }
                let schema = derive_member(&base, &perturber, config.attribute_drop, &mut rng);
                let head_entity = schema
                    .entities()
                    .first()
                    .map(|&e| schema.element(e).name.to_string())
                    .unwrap_or_else(|| "misc".to_string());
                schemas.push(LabeledSchema {
                    title: format!("{}_{}_{}", domain.name, head_entity, v),
                    summary: format!("{} data about {}", domain.name, head_entity),
                    schema,
                    domain: domain.name,
                    family,
                });
            }
            // Scattered twin: same vocabulary, destroyed structure, NOT a
            // family member (it is exactly what tightness-of-fit should
            // rank below the real members).
            if schemas.len() < config.target_size && rng.random_bool(config.scatter_noise) {
                let schema = scatter_twin(&base, domain, family, &mut rng);
                schemas.push(LabeledSchema {
                    title: format!("{}_scattered_{}", domain.name, family),
                    summary: format!("{} grab-bag export", domain.name),
                    schema,
                    domain: domain.name,
                    family: usize::MAX,
                });
            }
            family += 1;
        }
        // Optional raw noise on top.
        let n_noise = (config.target_size as f64 * config.raw_noise) as usize;
        for i in 0..n_noise {
            let schema = raw_noise_schema(i, &mut rng);
            schemas.push(LabeledSchema {
                title: format!("webtable_{i}"),
                summary: String::new(),
                schema,
                domain: "noise",
                family: usize::MAX, // singletons: no family
            });
        }
        Corpus { schemas }
    }

    /// Number of schemas.
    pub fn len(&self) -> usize {
        self.schemas.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.schemas.is_empty()
    }

    /// Indices of the members of `family`.
    pub fn family_members(&self, family: usize) -> Vec<usize> {
        self.schemas
            .iter()
            .enumerate()
            .filter(|(_, s)| s.family == family)
            .map(|(i, _)| i)
            .collect()
    }

    /// Number of distinct families (noise excluded).
    pub fn family_count(&self) -> usize {
        self.schemas
            .iter()
            .filter(|s| s.family != usize::MAX)
            .map(|s| s.family)
            .max()
            .map_or(0, |m| m + 1)
    }
}

/// Derive one family member from the base concept: rename every element
/// through the perturber and drop some attributes.
fn derive_member(
    base: &Schema,
    perturber: &Perturber,
    attribute_drop: f64,
    rng: &mut impl Rng,
) -> Schema {
    let mut out = Schema::new(base.name.clone());
    let mut id_map: Vec<Option<schemr_model::ElementId>> = Vec::with_capacity(base.len());
    for id in base.ids() {
        let el = base.element(id);
        // Attributes may be dropped; keep FK attrs so FK edges survive.
        let is_fk_attr = base
            .foreign_keys()
            .iter()
            .any(|fk| fk.from_attrs.contains(&id) || fk.to_attrs.contains(&id));
        if el.kind == ElementKind::Attribute && !is_fk_attr && rng.random_bool(attribute_drop) {
            id_map.push(None);
            continue;
        }
        let new_name = perturber.perturb_name(el.name, rng);
        let mut new_el = Element {
            name: new_name,
            kind: el.kind,
            data_type: el.data_type,
            parent: None,
            doc: el.doc.map(str::to_string),
        };
        let new_id = match el.parent.and_then(|p| id_map[p.index()]) {
            Some(parent) => out.add_child(parent, new_el),
            None => {
                new_el.parent = None;
                out.add_root(new_el)
            }
        };
        id_map.push(Some(new_id));
    }
    for fk in base.foreign_keys() {
        let (Some(from_entity), Some(to_entity)) =
            (id_map[fk.from_entity.index()], id_map[fk.to_entity.index()])
        else {
            continue;
        };
        let map_all = |attrs: &[schemr_model::ElementId]| -> Option<Vec<schemr_model::ElementId>> {
            attrs.iter().map(|a| id_map[a.index()]).collect()
        };
        let (Some(from_attrs), Some(to_attrs)) = (map_all(&fk.from_attrs), map_all(&fk.to_attrs))
        else {
            continue;
        };
        out.add_foreign_key(schemr_model::ForeignKey {
            from_entity,
            from_attrs,
            to_entity,
            to_attrs,
        });
    }
    out.shrink_to_fit();
    out
}

/// The scattered twin of a base schema: every attribute survives (names
/// intact, so it is textually as good a hit as any family member) but the
/// attributes are strewn across unrelated entities named after *other*
/// domain nouns, with no foreign keys connecting them.
fn scatter_twin(
    base: &Schema,
    domain: &crate::vocab::Domain,
    family: usize,
    rng: &mut impl Rng,
) -> Schema {
    let mut out = Schema::new(format!("scattered{family}"));
    let attrs: Vec<schemr_model::ElementRef<'_>> = base
        .elements()
        .filter(|e| e.kind == ElementKind::Attribute)
        .collect();
    let n_entities = (attrs.len() / 2).clamp(2, 6);
    let mut entity_ids = Vec::with_capacity(n_entities);
    for i in 0..n_entities {
        // Entity names drawn from the tail of the domain's noun pool so
        // they rarely coincide with the base schema's entities.
        let name = domain.entities[(domain.entities.len() - 1 - i) % domain.entities.len()];
        entity_ids.push(out.add_root(Element::entity(format!("{name}_export"))));
    }
    for attr in attrs {
        let host = entity_ids[rng.random_range(0..entity_ids.len())];
        out.add_child(host, Element::attribute(attr.name, attr.data_type));
    }
    out.shrink_to_fit();
    out
}

/// A junk "raw web table": the kind of thing the paper's filter removes.
fn raw_noise_schema(i: usize, rng: &mut impl Rng) -> Schema {
    let mut s = Schema::new(format!("webtable_{i}"));
    // Entity names stay alphabetic so each noise class trips exactly the
    // intended filter rule (the junk lives in the *column* labels).
    let root = s.add_root(Element::entity("sheet"));
    match rng.random_range(0..3) {
        0 => {
            // Non-alphabetical column labels.
            for j in 0..rng.random_range(4..8) {
                s.add_child(
                    root,
                    Element::attribute(format!("col#{j}!"), schemr_model::DataType::Unknown),
                );
            }
        }
        1 => {
            // Trivial: ≤ 3 elements total.
            s.add_child(
                root,
                Element::attribute("x", schemr_model::DataType::Unknown),
            );
        }
        _ => {
            // Numbers-as-headers.
            for j in 0..rng.random_range(4..8) {
                s.add_child(
                    root,
                    Element::attribute(format!("{}", 1990 + j), schemr_model::DataType::Unknown),
                );
            }
        }
    }
    s.shrink_to_fit();
    s
}

/// The paper's corpus filter: "removing schemas containing non-alphabetical
/// characters, schemas that only appeared once on the web, and trivial
/// schemas with three or less elements".
///
/// Interpretation notes (documented substitutions):
/// * *non-alphabetical characters* — element names containing characters
///   other than letters and the delimiter set `_- ` (digits and symbols
///   disqualify the schema);
/// * *appeared once* — in our synthetic setting, a schema whose family has
///   a single member (noise schemas are all singletons);
/// * *trivial* — total element count ≤ 3, via [`SchemaStats::is_trivial`].
#[derive(Debug, Clone, Copy, Default)]
pub struct CorpusFilter;

impl CorpusFilter {
    /// Does a single element name pass the alphabetical rule?
    fn name_is_alphabetical(name: &str) -> bool {
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_alphabetic() || matches!(c, '_' | '-' | ' '))
    }

    /// Why a schema would be rejected, if at all.
    pub fn rejection_reason(corpus: &Corpus, ix: usize) -> Option<&'static str> {
        let labeled = &corpus.schemas[ix];
        let non_alpha = labeled
            .schema
            .ids()
            .any(|id| !Self::name_is_alphabetical(labeled.schema.element(id).name));
        if non_alpha {
            return Some("non-alphabetical");
        }
        if SchemaStats::of(&labeled.schema).is_trivial() {
            return Some("trivial");
        }
        let singleton =
            labeled.family == usize::MAX || corpus.family_members(labeled.family).len() <= 1;
        if singleton {
            return Some("singleton");
        }
        None
    }

    /// Apply the filter, returning the surviving corpus and counts of
    /// removals per rule `(non_alphabetical, singleton, trivial)`.
    pub fn apply(corpus: &Corpus) -> (Corpus, (usize, usize, usize)) {
        let mut kept = Vec::new();
        let mut counts = (0usize, 0usize, 0usize);
        for ix in 0..corpus.len() {
            match Self::rejection_reason(corpus, ix) {
                None => kept.push(corpus.schemas[ix].clone()),
                Some("non-alphabetical") => counts.0 += 1,
                Some("singleton") => counts.1 += 1,
                Some("trivial") => counts.2 += 1,
                Some(_) => unreachable!(),
            }
        }
        (Corpus { schemas: kept }, counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemr_model::validate;

    #[test]
    fn corpus_hits_target_size_and_validates() {
        let c = Corpus::generate(&CorpusConfig::small(1));
        assert_eq!(c.len(), 100);
        for (i, s) in c.schemas.iter().enumerate() {
            assert!(validate(&s.schema).is_empty(), "schema {i} invalid");
        }
    }

    #[test]
    fn corpus_is_deterministic() {
        let a = Corpus::generate(&CorpusConfig::small(7));
        let b = Corpus::generate(&CorpusConfig::small(7));
        for (x, y) in a.schemas.iter().zip(&b.schemas) {
            assert_eq!(x.title, y.title);
            assert_eq!(x.schema, y.schema);
            assert_eq!(x.family, y.family);
        }
    }

    #[test]
    fn families_have_multiple_members() {
        let c = Corpus::generate(&CorpusConfig::small(2));
        let fam0 = c.family_members(0);
        assert!(fam0.len() >= 2, "family 0 has {} members", fam0.len());
        assert!(c.family_count() > 10);
    }

    #[test]
    fn family_members_share_structure_but_not_exact_names() {
        let c = Corpus::generate(&CorpusConfig::small(3));
        let fam = c.family_members(0);
        let a = &c.schemas[fam[0]].schema;
        let b = &c.schemas[fam[1]].schema;
        // Same entity count (attribute churn only drops attributes).
        assert_eq!(a.entities().len(), b.entities().len());
        // Some names should differ across members (perturbation fired
        // somewhere in the family).
        let differs = fam.windows(2).any(|w| {
            let x = &c.schemas[w[0]].schema;
            let y = &c.schemas[w[1]].schema;
            x.ids()
                .zip(y.ids())
                .any(|(i, j)| x.get(i).map(|e| e.name) != y.get(j).map(|e| e.name))
        });
        assert!(differs);
    }

    #[test]
    fn domains_cycle_across_families() {
        let c = Corpus::generate(&CorpusConfig::small(4));
        let domains: std::collections::HashSet<_> = c.schemas.iter().map(|s| s.domain).collect();
        assert!(domains.len() >= 4, "{domains:?}");
    }

    #[test]
    fn filter_removes_each_noise_class() {
        let config = CorpusConfig {
            raw_noise: 0.5,
            ..CorpusConfig::small(5)
        };
        let c = Corpus::generate(&config);
        let before = c.len();
        let (filtered, (non_alpha, singleton, trivial)) = CorpusFilter::apply(&c);
        assert!(filtered.len() < before);
        assert!(non_alpha > 0, "non-alpha removals");
        assert!(singleton + trivial > 0, "singleton/trivial removals");
        // Survivors all pass the rules.
        for ix in 0..filtered.len() {
            assert_eq!(CorpusFilter::rejection_reason(&filtered, ix), None);
        }
    }

    #[test]
    fn clean_families_survive_the_filter() {
        let c = Corpus::generate(&CorpusConfig {
            perturb: PerturbConfig::none(),
            raw_noise: 0.0,
            ..CorpusConfig::small(6)
        });
        let (filtered, _) = CorpusFilter::apply(&c);
        // Base names are alphabetic snake_case and families are ≥2, so only
        // occasionally-trivial schemas may drop.
        assert!(filtered.len() as f64 > 0.8 * c.len() as f64);
    }

    #[test]
    fn paper_scale_config_targets_thirty_thousand() {
        assert_eq!(CorpusConfig::paper_scale(0).target_size, 30_000);
    }
}
