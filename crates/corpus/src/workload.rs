//! Query workload generation with ground truth.
//!
//! Each query is derived from one *target* corpus schema; all members of
//! the target's family are relevant. Query terms are re-perturbed copies of
//! the target's element names — the searcher never sees the exact indexed
//! strings, which is what makes the evaluation honest.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use schemr_model::{ElementKind, Schema};

use crate::corpus::Corpus;
use crate::perturb::{PerturbConfig, Perturber};

/// The form of a generated query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// Free keywords only (the paper's "patient, height, gender,
    /// diagnosis" scenario).
    Keywords,
    /// A schema fragment only (search by example).
    Fragment,
    /// Fragment plus extra keywords (Figure 1's combined query).
    Mixed,
}

/// One generated query with its ground truth.
#[derive(Debug, Clone)]
pub struct GeneratedQuery {
    /// Query form.
    pub kind: QueryKind,
    /// Keyword terms (empty for pure fragment queries).
    pub keywords: Vec<String>,
    /// Schema fragment (None for pure keyword queries).
    pub fragment: Option<Schema>,
    /// Corpus indices of relevant schemas (the target's family).
    pub relevant: Vec<usize>,
    /// The family the query targets.
    pub family: usize,
}

/// Workload knobs.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// RNG seed.
    pub seed: u64,
    /// Number of queries.
    pub queries: usize,
    /// Keywords per keyword query (inclusive range).
    pub keywords: (usize, usize),
    /// Perturbation applied to query terms relative to the target schema.
    pub perturb: PerturbConfig,
    /// Mix of query kinds as (keywords, fragment, mixed) weights.
    pub kind_mix: (f64, f64, f64),
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            seed: 1,
            queries: 100,
            keywords: (3, 5),
            perturb: PerturbConfig {
                // Queries are typed by humans: moderate abbreviation and
                // morphology, no delimiter games (keywords are single
                // words), no synonym swaps beyond what families already
                // have.
                abbreviation: 0.15,
                morphology: 0.15,
                delimiter: 0.0,
                synonym: 0.1,
            },
            kind_mix: (0.5, 0.25, 0.25),
        }
    }
}

/// A generated set of queries over a corpus.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The queries.
    pub queries: Vec<GeneratedQuery>,
}

impl Workload {
    /// Generate a workload for `corpus`. Deterministic in `config.seed`.
    ///
    /// Only families with at least two members are targeted (so that a
    /// query always has at least one relevant schema besides chance), and
    /// targets rotate across families.
    pub fn generate(corpus: &Corpus, config: &WorkloadConfig) -> Workload {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let perturber = Perturber::new(config.perturb);
        let eligible: Vec<usize> = (0..corpus.family_count())
            .filter(|&f| corpus.family_members(f).len() >= 2)
            .collect();
        assert!(!eligible.is_empty(), "corpus has no multi-member families");
        let mut queries = Vec::with_capacity(config.queries);
        for qi in 0..config.queries {
            let family = eligible[qi % eligible.len()];
            let members = corpus.family_members(family);
            let target_ix = members[rng.random_range(0..members.len())];
            let target = &corpus.schemas[target_ix].schema;
            let kind = pick_kind(config.kind_mix, &mut rng);
            let (keywords, fragment) = match kind {
                QueryKind::Keywords => (
                    sample_keywords(target, config.keywords, &perturber, &mut rng),
                    None,
                ),
                QueryKind::Fragment => (
                    Vec::new(),
                    Some(sample_fragment(target, &perturber, &mut rng)),
                ),
                QueryKind::Mixed => (
                    sample_keywords(target, (1, 2), &perturber, &mut rng),
                    Some(sample_fragment(target, &perturber, &mut rng)),
                ),
            };
            queries.push(GeneratedQuery {
                kind,
                keywords,
                fragment,
                relevant: members,
                family,
            });
        }
        Workload { queries }
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }
}

fn pick_kind(mix: (f64, f64, f64), rng: &mut impl Rng) -> QueryKind {
    let total = mix.0 + mix.1 + mix.2;
    let x = rng.random_range(0.0..total.max(f64::MIN_POSITIVE));
    if x < mix.0 {
        QueryKind::Keywords
    } else if x < mix.0 + mix.1 {
        QueryKind::Fragment
    } else {
        QueryKind::Mixed
    }
}

/// Sample keyword terms from ONE entity of the target (perturbed).
///
/// The paper's designer is modeling a single new table ("patient, height,
/// gender, diagnosis"), so query vocabulary concentrates in one entity —
/// the assumption behind the tightness-of-fit measure.
fn sample_keywords(
    target: &Schema,
    range: (usize, usize),
    perturber: &Perturber,
    rng: &mut impl Rng,
) -> Vec<String> {
    let entities = target.entities();
    let pool: Vec<String> = if entities.is_empty() {
        target
            .attributes()
            .iter()
            .map(|&a| target.element(a).name.to_string())
            .collect()
    } else {
        let entity = entities[rng.random_range(0..entities.len())];
        let mut names: Vec<String> = target
            .children(entity)
            .into_iter()
            .filter(|&c| target.element(c).kind == ElementKind::Attribute)
            .map(|a| target.element(a).name.to_string())
            .collect();
        // The entity name itself is part of how a designer describes the
        // table.
        names.push(target.element(entity).name.to_string());
        names
    };
    if pool.is_empty() {
        return vec![target.name.clone()];
    }
    let k = rng.random_range(range.0..=range.1).min(pool.len()).max(1);
    let mut indices: Vec<usize> = (0..pool.len()).collect();
    for i in 0..k {
        let j = rng.random_range(i..indices.len());
        indices.swap(i, j);
    }
    indices[..k]
        .iter()
        .map(|&i| perturber.perturb_name(&pool[i], rng))
        .collect()
}

/// Sample a one-entity fragment: a random entity with a subset of its
/// attributes, all names perturbed.
fn sample_fragment(target: &Schema, perturber: &Perturber, rng: &mut impl Rng) -> Schema {
    let entities = target.entities();
    let entity = entities[rng.random_range(0..entities.len())];
    let mut frag = Schema::new("fragment");
    let root_name = perturber.perturb_name(target.element(entity).name, rng);
    let root = frag.add_root(schemr_model::Element::entity(root_name));
    let attrs: Vec<_> = target
        .children(entity)
        .into_iter()
        .filter(|&c| target.element(c).kind == ElementKind::Attribute)
        .collect();
    let keep = attrs.len().max(1).div_ceil(2); // about half, at least one
    let mut indices: Vec<usize> = (0..attrs.len()).collect();
    for i in 0..keep.min(attrs.len()) {
        let j = rng.random_range(i..indices.len());
        indices.swap(i, j);
    }
    for &ix in indices.iter().take(keep.min(attrs.len())) {
        let el = target.element(attrs[ix]);
        frag.add_child(
            root,
            schemr_model::Element::attribute(perturber.perturb_name(el.name, rng), el.data_type),
        );
    }
    frag
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusConfig;
    use schemr_model::validate;

    fn corpus() -> Corpus {
        Corpus::generate(&CorpusConfig::small(1))
    }

    #[test]
    fn workload_has_requested_size_and_valid_fragments() {
        let c = corpus();
        let w = Workload::generate(
            &c,
            &WorkloadConfig {
                queries: 40,
                ..Default::default()
            },
        );
        assert_eq!(w.len(), 40);
        for q in &w.queries {
            if let Some(f) = &q.fragment {
                assert!(validate(f).is_empty());
                assert!(!f.is_empty());
            }
            match q.kind {
                QueryKind::Keywords => {
                    assert!(!q.keywords.is_empty());
                    assert!(q.fragment.is_none());
                }
                QueryKind::Fragment => {
                    assert!(q.keywords.is_empty());
                    assert!(q.fragment.is_some());
                }
                QueryKind::Mixed => {
                    assert!(!q.keywords.is_empty());
                    assert!(q.fragment.is_some());
                }
            }
        }
    }

    #[test]
    fn ground_truth_has_at_least_two_members() {
        let c = corpus();
        let w = Workload::generate(&c, &WorkloadConfig::default());
        for q in &w.queries {
            assert!(q.relevant.len() >= 2, "family {} too small", q.family);
            for &r in &q.relevant {
                assert_eq!(c.schemas[r].family, q.family);
            }
        }
    }

    #[test]
    fn workload_is_deterministic() {
        let c = corpus();
        let a = Workload::generate(&c, &WorkloadConfig::default());
        let b = Workload::generate(&c, &WorkloadConfig::default());
        for (x, y) in a.queries.iter().zip(&b.queries) {
            assert_eq!(x.keywords, y.keywords);
            assert_eq!(x.fragment, y.fragment);
            assert_eq!(x.relevant, y.relevant);
        }
    }

    #[test]
    fn queries_rotate_across_families() {
        let c = corpus();
        let w = Workload::generate(
            &c,
            &WorkloadConfig {
                queries: 30,
                ..Default::default()
            },
        );
        let families: std::collections::HashSet<_> = w.queries.iter().map(|q| q.family).collect();
        assert!(families.len() >= 10);
    }

    #[test]
    fn keyword_counts_respect_range() {
        let c = corpus();
        let w = Workload::generate(
            &c,
            &WorkloadConfig {
                queries: 30,
                keywords: (3, 5),
                kind_mix: (1.0, 0.0, 0.0),
                ..Default::default()
            },
        );
        for q in &w.queries {
            assert!(
                (1..=5).contains(&q.keywords.len()),
                "{} keywords",
                q.keywords.len()
            );
        }
    }
}
