//! The flat schema against the reference model: random sequences of every
//! mutating call go into both, and every accessor has to agree.

mod reference;

use proptest::prelude::*;
use reference::RefSchema;
use schemr_model::{DataType, Element, ElementId, ElementKind, ForeignKey, Schema};
use schemr_obs::json::{escape, Reader};

/// Names and docs: empty, ASCII, multi-byte.
const TEXTS: [&str; 9] = [
    "",
    "a",
    "patient",
    "PatientHeight",
    "größe",
    "身長",
    "naïve – doc",
    "x_y z",
    "☂",
];

fn text(pick: usize) -> &'static str {
    TEXTS[pick % TEXTS.len()]
}

/// Absent, or one of `TEXTS` (the empty string among them).
fn doc(pick: usize) -> Option<&'static str> {
    (pick % (TEXTS.len() + 1) < TEXTS.len()).then(|| text(pick))
}

fn element(shape: usize, name: usize, doc_pick: usize) -> Element {
    let mut el = match shape % 3 {
        0 => Element::entity(text(name)),
        1 => Element::attribute(text(name), DataType::ALL[shape % DataType::ALL.len()]),
        _ => Element::group(text(name)),
    };
    if let Some(d) = doc(doc_pick) {
        el = el.with_doc(d);
    }
    el
}

/// One step: `(op, target, shape, text, doc)`, interpreted by [`apply`].
type Step = (u8, usize, usize, usize, usize);

fn steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        (0u8..7, 0usize..64, 0usize..30, 0usize..9, 0usize..10),
        1..60,
    )
}

fn apply(steps: &[Step]) -> (Schema, RefSchema) {
    let mut flat = Schema::new("prop");
    let mut model = RefSchema::new("prop");
    for &(op, target, shape, name, doc_pick) in steps {
        let n = flat.len();
        let at = ElementId((target % n.max(1)) as u32);
        match op {
            0 => {
                let id = flat.add_root(element(shape, name, doc_pick));
                assert_eq!(id, model.add_root(element(shape, name, doc_pick)));
            }
            _ if n == 0 => {}
            1..=3 => {
                let id = flat.add_child(at, element(shape, name, doc_pick));
                assert_eq!(id, model.add_child(at, element(shape, name, doc_pick)));
            }
            4 => {
                flat.set_name(at, text(name));
                model.set_name(at, text(name));
            }
            5 => {
                flat.set_doc(at, doc(doc_pick));
                model.set_doc(at, doc(doc_pick));
            }
            _ => {
                let other = |k: usize| ElementId(((target + shape * k) % n) as u32);
                let fk = ForeignKey {
                    from_entity: at,
                    from_attrs: (0..name % 3).map(|k| other(k + 1)).collect(),
                    to_entity: other(5),
                    to_attrs: (0..doc_pick % 2).map(|k| other(k + 7)).collect(),
                };
                flat.add_foreign_key(fk.clone());
                model.foreign_keys.push(fk);
            }
        }
    }
    (flat, model)
}

proptest! {
    /// Every read agrees with the reference, element by element.
    #[test]
    fn every_accessor_agrees(steps in steps()) {
        let (flat, model) = apply(&steps);
        prop_assert_eq!(flat.len(), model.elements.len());
        prop_assert_eq!(flat.is_empty(), model.elements.is_empty());
        prop_assert_eq!(flat.elements().len(), model.elements.len());
        prop_assert_eq!(flat.foreign_keys(), model.foreign_keys.as_slice());
        prop_assert_eq!(flat.ids().collect::<Vec<_>>(), model.ids().collect::<Vec<_>>());
        for (view, (id, expected)) in flat.elements().zip(model.ids().zip(&model.elements)) {
            prop_assert_eq!(&view.to_element(), expected);
            prop_assert_eq!(flat.element(id), view);
            prop_assert_eq!(flat.get(id), Some(view));
            prop_assert_eq!(view.name, expected.name.as_str());
            prop_assert_eq!(view.doc, expected.doc.as_deref());
            prop_assert_eq!((view.kind, view.data_type, view.parent),
                (expected.kind, expected.data_type, expected.parent));
            prop_assert_eq!(flat.children(id), model.children(id));
            prop_assert_eq!(flat.owning_entity(id), model.owning_entity(id));
            prop_assert_eq!(flat.path(id), model.path(id));
            prop_assert_eq!(flat.depth(id), model.depth(id));
            for cap in 0..4 {
                prop_assert_eq!(flat.subtree(id, cap), model.subtree(id, cap));
            }
        }
        prop_assert_eq!(flat.get(ElementId(flat.len() as u32)), None);
        prop_assert_eq!(flat.roots(), model.roots());
        prop_assert_eq!(flat.entities(), model.entities());
        prop_assert_eq!(flat.attributes(), model.attributes());
        let oracle = flat.neighborhoods();
        for a in flat.ids() {
            prop_assert_eq!(oracle.owning_entity(a), model.owning_entity(a));
            for b in flat.ids() {
                prop_assert_eq!(oracle.classify(a, b), model.classify(a, b), "{} ~ {}", a, b);
            }
        }
    }

    /// The arena is canonical: the same elements compare equal however
    /// they got there, and a clone is the original.
    #[test]
    fn equality_ignores_the_order_of_edits(steps in steps()) {
        let (flat, model) = apply(&steps);
        prop_assert_eq!(&flat.clone(), &flat);

        // Straight from the final state, no `set_*` at all.
        let mut direct = Schema::new("prop");
        // Placeholders first, every text set afterwards, last element first.
        let mut edited = Schema::new("prop");
        for el in &model.elements {
            let placeholder = Element {
                name: "placeholder".to_string(),
                doc: Some("to be replaced".to_string()),
                ..el.clone()
            };
            match el.parent {
                None => {
                    direct.add_root(el.clone());
                    edited.add_root(placeholder);
                }
                Some(p) => {
                    direct.add_child(p, el.clone());
                    edited.add_child(p, placeholder);
                }
            }
        }
        for (i, el) in model.elements.iter().enumerate().rev() {
            edited.set_doc(ElementId(i as u32), el.doc.as_deref());
            edited.set_name(ElementId(i as u32), &el.name);
        }
        for fk in &model.foreign_keys {
            direct.add_foreign_key(fk.clone());
            edited.add_foreign_key(fk.clone());
        }
        prop_assert_eq!(&direct, &flat);
        prop_assert_eq!(&edited, &flat);

        // Capacity is not identity; a shrunk schema weighs what its clone does.
        edited.shrink_to_fit();
        prop_assert_eq!(&edited, &flat);
        prop_assert_eq!(edited.heap_bytes(), edited.clone().heap_bytes());
        if let Some(last) = flat.ids().last() {
            edited.set_name(last, "something else entirely");
            prop_assert_ne!(&edited, &flat);
        }
    }

    /// What is written is what the element list always wrote, and it
    /// reads back to the same schema — when its foreign keys are in range,
    /// which `apply` guarantees.
    #[test]
    fn json_is_the_reference_layouts_json(steps in steps()) {
        let (flat, model) = apply(&steps);
        let mut json = String::new();
        flat.write_json(&mut json);
        prop_assert_eq!(&json, &reference_json(&model));
        let mut r = Reader::new(&json);
        let back = Schema::read_json(&mut r).unwrap();
        r.finish().unwrap();
        prop_assert_eq!(&back, &flat);
        prop_assert_eq!(back.heap_bytes(), back.clone().heap_bytes());
    }
}

/// The reference layout written the obvious way: a `{name, elements,
/// foreign_keys}` object, each element an object of its five fields in
/// declaration order, unit variants by name, `None` as `null`.
fn reference_json(model: &RefSchema) -> String {
    let text = |s: &str| format!("\"{}\"", escape(s));
    let or_null = |v: Option<String>| v.unwrap_or_else(|| "null".to_string());
    let ids = |ids: &[ElementId]| {
        let ids: Vec<String> = ids.iter().map(|id| id.0.to_string()).collect();
        format!("[{}]", ids.join(","))
    };
    let elements: Vec<String> = model
        .elements
        .iter()
        .map(|el| {
            format!(
                "{{\"name\":{},\"kind\":\"{:?}\",\"data_type\":\"{:?}\",\"parent\":{},\"doc\":{}}}",
                text(&el.name),
                el.kind,
                el.data_type,
                or_null(el.parent.map(|p| p.0.to_string())),
                or_null(el.doc.as_deref().map(text)),
            )
        })
        .collect();
    let foreign_keys: Vec<String> = model
        .foreign_keys
        .iter()
        .map(|fk| {
            format!(
                "{{\"from_entity\":{},\"from_attrs\":{},\"to_entity\":{},\"to_attrs\":{}}}",
                fk.from_entity.0,
                ids(&fk.from_attrs),
                fk.to_entity.0,
                ids(&fk.to_attrs),
            )
        })
        .collect();
    format!(
        "{{\"name\":{},\"elements\":[{}],\"foreign_keys\":[{}]}}",
        text(&model.name),
        elements.join(","),
        foreign_keys.join(","),
    )
}

#[test]
fn the_kinds_are_all_exercised() {
    // `element` must reach every kind, or the property above is weaker
    // than it reads.
    let kinds: std::collections::HashSet<ElementKind> =
        (0..3).map(|shape| element(shape, 1, 0).kind).collect();
    assert_eq!(kinds.len(), 3);
    assert_eq!(doc(TEXTS.len()), None);
    assert_eq!(doc(0), Some(""));
}
