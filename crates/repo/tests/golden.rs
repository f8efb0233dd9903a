//! `data/golden_repo.json` was written by the commit *before* the flat
//! schema layout (`persist::save` over 46 generated schemas, an XSD import
//! with documentation, a DDL import with a foreign key, a hand-built
//! schema with groups, empty / multi-byte / escaped text and a composite
//! key, an empty schema; then an annotate, an update, a remove and a
//! journal truncation). The layout changed what a schema is in memory and
//! nothing about what it is on disk: the file loads, and saving what was
//! loaded writes the same bytes.

use schemr_model::{validate, DataType, ElementKind};
use schemr_repo::persist;

const GOLDEN: &str = include_str!("data/golden_repo.json");

#[test]
fn the_parent_commits_dump_loads_and_resaves_byte_for_byte() {
    let repo = persist::from_json(GOLDEN).unwrap();
    assert_eq!(repo.len(), 49);
    assert_eq!(repo.revision(), 53);
    assert_eq!(persist::to_json(&repo), GOLDEN);

    // Through a file as well, and once more from what that wrote.
    let path = std::env::temp_dir().join(format!("schemr-golden-{}.json", std::process::id()));
    persist::save(&repo, &path).unwrap();
    assert_eq!(std::fs::read_to_string(&path).unwrap(), GOLDEN);
    let again = persist::load(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(persist::to_json(&again), GOLDEN);
    for (a, b) in repo.snapshot().iter().zip(again.snapshot()) {
        assert_eq!(**a, *b);
    }
}

#[test]
fn what_loads_is_what_was_stored() {
    let repo = persist::from_json(GOLDEN).unwrap();
    let stored = repo.snapshot();
    assert!(stored.iter().all(|s| validate(&s.schema).is_empty()));
    // Loading leaves no slack behind: every schema weighs what its clone
    // weighs.
    for s in &stored {
        assert_eq!(s.schema.heap_bytes(), s.schema.clone().heap_bytes());
    }

    let hand_built = stored
        .iter()
        .find(|s| s.metadata.title == "Überweisung")
        .expect("the hand-built schema");
    let schema = &hand_built.schema;
    assert_eq!(schema.name, "Überweisung \"ref\"");
    let by_name = |name: &str| {
        schema
            .elements()
            .find(|el| el.name == name)
            .unwrap_or_else(|| panic!("{name} in {schema:?}"))
    };
    assert_eq!(by_name("Bestellung").doc, Some(""));
    assert_eq!(by_name("Produkt").doc, None);
    assert_eq!(by_name("Positionen").kind, ElementKind::Group);
    assert_eq!(by_name("Positionen").doc, Some("Zeilen – 行"));
    assert_eq!(by_name("Menge").doc, Some("Stück\n\tje Zeile"));
    assert_eq!(by_name("bild").data_type, DataType::Binary);
    assert_eq!(by_name("rev\\ision").parent, by_name("sku").parent);
    let fk = &schema.foreign_keys()[0];
    assert_eq!(fk.from_attrs.len(), 2);
    assert_eq!(
        schema.path(fk.from_attrs[0]),
        "Bestellung.Positionen.Artikel№"
    );

    let clinic = stored
        .iter()
        .find(|s| s.metadata.title == "clinic")
        .expect("the XSD import");
    let documented: Vec<&str> = clinic.schema.elements().filter_map(|el| el.doc).collect();
    assert_eq!(
        documented,
        ["A person under care", "in \"cm\" \\ not inches"]
    );
}
