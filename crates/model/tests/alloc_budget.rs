//! What the flat layout promises the allocator: a schema is a handful of
//! blocks however many elements it has, cloning it asks for exactly the
//! bytes `heap_bytes` reports, and that is well under half of what one
//! owned `Element` a node weighed.
//!
//! This file is its own test binary, so the counting `#[global_allocator]`
//! reaches nothing else; counts are per thread, so the harness's own
//! threads do not disturb the one running a test.

mod reference;

use reference::RefSchema;
use schemr_corpus::{Corpus, CorpusConfig};
use schemr_model::{DataType, Element, ForeignKey, Schema};
use schemr_obs::alloc::{thread_alloc_bytes, thread_alloc_count, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation events and bytes requested on this thread while `f` runs.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (count, bytes) = (thread_alloc_count(), thread_alloc_bytes());
    let out = f();
    (
        out,
        thread_alloc_count() - count,
        thread_alloc_bytes() - bytes,
    )
}

/// `elements` elements in entities of ten, every third one documented,
/// each entity but the first referencing the one before it.
fn schema_of(elements: usize) -> Schema {
    let mut s = Schema::new(format!("sized{elements}"));
    let mut previous = None;
    while s.len() < elements {
        let entity = s.add_root(Element::entity(format!("entity{}", s.len())));
        let mut key = None;
        while s.len() < elements && !s.len().is_multiple_of(10) {
            let mut attr = Element::attribute(format!("attribute_{}", s.len()), DataType::Text);
            if s.len().is_multiple_of(3) {
                attr = attr.with_doc("what this column holds");
            }
            key = Some(s.add_child(entity, attr));
        }
        if let (Some(to_entity), Some(key)) = (previous, key) {
            s.add_foreign_key(ForeignKey {
                from_entity: entity,
                from_attrs: vec![key],
                to_entity,
                to_attrs: vec![],
            });
        }
        previous = Some(entity);
    }
    s.shrink_to_fit();
    s
}

/// The same schema in the reference layout, at exact size.
fn reference_of(schema: &Schema) -> RefSchema {
    let mut elements: Vec<Element> = schema.elements().map(|el| el.to_element()).collect();
    elements.shrink_to_fit();
    RefSchema {
        name: schema.name.clone(),
        elements,
        foreign_keys: schema.foreign_keys().to_vec(),
    }
}

#[test]
fn a_clone_is_a_few_blocks_whatever_the_schema_holds() {
    for elements in [5, 50, 500] {
        let schema = schema_of(elements);
        assert_eq!(schema.len(), elements);
        let (copy, allocations, bytes) = counted(|| schema.clone());
        assert_eq!(copy, schema);
        // Name, arena, records, the foreign-key list — and one block per
        // non-empty attribute list, which is what foreign keys are made of.
        let attr_lists = schema
            .foreign_keys()
            .iter()
            .flat_map(|fk| [&fk.from_attrs, &fk.to_attrs])
            .filter(|attrs| !attrs.is_empty())
            .count() as u64;
        assert!(
            allocations <= 4 + attr_lists,
            "{allocations} allocations to clone {elements} elements ({attr_lists} attribute lists)"
        );
        assert_eq!(bytes as usize, schema.heap_bytes());
        // The reference layout paid one block a name and one a doc.
        let reference = reference_of(&schema);
        let (_, reference_allocations, _) = counted(|| reference.clone());
        assert!(reference_allocations as usize > elements);
    }
}

#[test]
fn generated_schemas_weigh_what_they_report_and_far_less_than_before() {
    let corpus = Corpus::generate(&CorpusConfig {
        seed: 7,
        target_size: 1_000,
        ..CorpusConfig::default()
    });
    assert_eq!(corpus.len(), 1_000);
    let (mut reported, mut requested, mut before) = (0usize, 0u64, 0usize);
    for labeled in &corpus.schemas {
        let schema = &labeled.schema;
        let (copy, _, bytes) = counted(|| schema.clone());
        // The generator finishes at exact size: a generated schema weighs
        // what its clone weighs.
        assert_eq!(schema.heap_bytes(), copy.heap_bytes(), "{}", labeled.title);
        reported += schema.heap_bytes();
        requested += bytes;
        before += reference_of(schema).heap_bytes();
    }
    let (reported, requested, before) = (reported as f64, requested as f64, before as f64);
    assert!(
        (reported - requested).abs() <= 0.10 * requested,
        "heap_bytes says {reported}, clone asked the allocator for {requested}"
    );
    assert!(
        reported <= 0.40 * before,
        "flat {reported} bytes against the reference layout's {before}"
    );
}

#[test]
fn a_path_is_one_allocation_at_any_depth() {
    let mut s = Schema::new("nested");
    let patient = s.add_root(Element::entity("patient"));
    let visit = s.add_child(patient, Element::group("visit"));
    let height = s.add_child(visit, Element::attribute("größe", DataType::Real));
    for (id, expected) in [
        (patient, "patient"),
        (visit, "patient.visit"),
        (height, "patient.visit.größe"),
    ] {
        let (path, allocations, bytes) = counted(|| s.path(id));
        assert_eq!(path, expected);
        assert_eq!((allocations, bytes as usize), (1, expected.len()));
    }
}
