//! Property-based tests for the schema model.

use proptest::prelude::*;
use schemr_model::{validate, DataType, DistanceClass, Element, ElementId, ForeignKey, Schema};
use schemr_obs::json::Reader;

/// Strategy: a random well-formed schema with `n` entities, up to 6
/// attributes each, and random FK edges between entities.
fn arb_schema() -> impl Strategy<Value = Schema> {
    (
        1usize..6,
        proptest::collection::vec(0usize..6, 1..6),
        proptest::collection::vec((0usize..6, 0usize..6), 0..8),
    )
        .prop_map(|(n_entities, attr_counts, fk_pairs)| {
            let mut s = Schema::new("prop");
            let mut entities = Vec::new();
            for i in 0..n_entities {
                let e = s.add_root(Element::entity(format!("entity{i}")));
                let n_attrs = attr_counts[i % attr_counts.len()];
                for j in 0..n_attrs {
                    s.add_child(
                        e,
                        Element::attribute(format!("attr{i}x{j}"), DataType::Text),
                    );
                }
                entities.push(e);
            }
            for (a, b) in fk_pairs {
                let from = entities[a % entities.len()];
                let to = entities[b % entities.len()];
                if from != to {
                    s.add_foreign_key(ForeignKey {
                        from_entity: from,
                        from_attrs: vec![],
                        to_entity: to,
                        to_attrs: vec![],
                    });
                }
            }
            s
        })
}

proptest! {
    /// Generated schemas always validate.
    #[test]
    fn generated_schemas_validate(s in arb_schema()) {
        prop_assert!(validate(&s).is_empty());
    }

    /// Every element's path starts with its root's name and depth matches
    /// the number of dots.
    #[test]
    fn paths_encode_depth(s in arb_schema()) {
        for id in s.ids() {
            let path = s.path(id);
            prop_assert_eq!(path.matches('.').count(), s.depth(id));
        }
    }

    /// The distance classification is symmetric between entities.
    #[test]
    fn distance_class_symmetric(s in arb_schema()) {
        let nb = s.neighborhoods();
        let entities = s.entities();
        for &a in &entities {
            for &b in &entities {
                prop_assert_eq!(nb.classify(a, b), nb.classify(b, a));
            }
        }
    }

    /// Same-entity classification is exactly reflexivity of owning
    /// entities.
    #[test]
    fn same_entity_iff_same_owner(s in arb_schema()) {
        let nb = s.neighborhoods();
        for a in s.ids() {
            for b in s.ids() {
                let same = nb.classify(a, b) == DistanceClass::SameEntity;
                let owners_equal = s.owning_entity(a).is_some()
                    && s.owning_entity(a) == s.owning_entity(b);
                prop_assert_eq!(same, owners_equal);
            }
        }
    }

    /// Neighborhood is transitive: if a~b and b~c are in one FK component,
    /// then a~c is not Unrelated.
    #[test]
    fn neighborhood_is_transitive(s in arb_schema()) {
        let nb = s.neighborhoods();
        let entities = s.entities();
        for &a in &entities {
            for &b in &entities {
                for &c in &entities {
                    let ab = nb.classify(a, b) != DistanceClass::Unrelated;
                    let bc = nb.classify(b, c) != DistanceClass::Unrelated;
                    if ab && bc {
                        prop_assert_ne!(nb.classify(a, c), DistanceClass::Unrelated);
                    }
                }
            }
        }
    }

    /// subtree() output size is monotone in the depth cap.
    #[test]
    fn subtree_monotone_in_depth(s in arb_schema(), depth in 0usize..4) {
        for root in s.roots() {
            let small = s.subtree(root, depth).len();
            let big = s.subtree(root, depth + 1).len();
            prop_assert!(small <= big);
        }
    }

    /// The JSON codec round-trips schemas exactly.
    #[test]
    fn json_round_trip(s in arb_schema()) {
        let mut json = String::new();
        s.write_json(&mut json);
        let mut r = Reader::new(&json);
        let back = Schema::read_json(&mut r).unwrap();
        r.finish().unwrap();
        prop_assert_eq!(s, back);
    }

    /// ElementIds index elements in insertion order.
    #[test]
    fn ids_are_dense(s in arb_schema()) {
        for (i, id) in s.ids().enumerate() {
            prop_assert_eq!(id, ElementId(i as u32));
            prop_assert!(s.get(id).is_some());
        }
        prop_assert!(s.get(ElementId(s.len() as u32)).is_none());
    }
}
