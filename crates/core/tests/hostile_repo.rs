//! A repository file is untrusted input. Whatever bytes it holds, loading
//! answers a typed error or a repository every reader can walk: no parent
//! pointer leads out of a schema or round in a circle, no foreign key
//! names an element that is not there. Before the flat schema layout a
//! `parent` past the end panicked `validate` and `path`, and two groups
//! containing each other hung `validate` and every search that reached
//! `neighborhoods()`.

use std::sync::Arc;

use schemr::{SchemrEngine, SearchRequest};
use schemr_model::{validate, DataType, Element, ForeignKey, Schema};
use schemr_repo::persist::{self, PersistError};
use schemr_repo::Repository;

/// `case(patient → patient.id, notes{severity})` and `patient(id, height)`:
/// an entity, a group under it, attributes at two depths, documentation
/// present, empty and absent, and a foreign key with attribute lists.
fn small_repo() -> Repository {
    let mut s = Schema::new("clinic");
    let patient = s.add_root(Element::entity("patient").with_doc("a person under care"));
    let id = s.add_child(patient, Element::attribute("id", DataType::Integer));
    s.add_child(
        patient,
        Element::attribute("height", DataType::Real).with_doc(""),
    );
    let case = s.add_root(Element::entity("case"));
    let case_patient = s.add_child(case, Element::attribute("patient", DataType::Integer));
    let notes = s.add_child(case, Element::group("notes"));
    s.add_child(notes, Element::attribute("severity", DataType::Text));
    s.add_foreign_key(ForeignKey {
        from_entity: case,
        from_attrs: vec![case_patient],
        to_entity: patient,
        to_attrs: vec![id],
    });
    let repo = Repository::new();
    repo.insert("clinic", "a rural clinic", s).unwrap();
    repo
}

/// Everything downstream of a load that follows parents or foreign keys.
fn walk(repo: Repository) {
    let repo = Arc::new(repo);
    for stored in repo.snapshot() {
        let schema = &stored.schema;
        // `validate` may have findings (a hostile file can make an
        // attribute a parent); it may not panic or hang.
        let _ = validate(schema);
        let oracle = schema.neighborhoods();
        for id in schema.ids() {
            let path = schema.path(id);
            assert!(path.matches('.').count() >= schema.depth(id));
            assert_eq!(oracle.owning_entity(id), schema.owning_entity(id));
            for other in schema.ids() {
                let _ = oracle.classify(id, other);
            }
            let _ = schema.subtree(id, 3);
        }
    }
    let engine = SchemrEngine::new(repo);
    engine.reindex_full();
    for keywords in [["patient", "height"], ["case", "severity"]] {
        engine.search(&SearchRequest::keywords(keywords)).unwrap();
    }
}

fn format_error(json: &str) -> String {
    match persist::from_json(json) {
        Err(PersistError::Format(e)) => e.to_string(),
        Err(other) => panic!("expected a format error, got {other}"),
        Ok(_) => panic!("loaded: {json}"),
    }
}

#[test]
fn the_unmodified_dump_loads_and_walks() {
    let dump = persist::to_json(&small_repo());
    // The edits below are textual: make sure their targets are there.
    for needle in [
        "\"name\":\"severity\",\"kind\":\"Attribute\",\"data_type\":\"Text\",\"parent\":5",
        "\"from_entity\":3,\"from_attrs\":[4],\"to_entity\":0,\"to_attrs\":[1]",
        "\"doc\":\"a person under care\"",
    ] {
        assert!(dump.contains(needle), "{needle} in {dump}");
    }
    let loaded = persist::from_json(&dump).unwrap();
    assert_eq!(persist::to_json(&loaded), dump);
    walk(loaded);
}

#[test]
fn a_parent_must_precede_its_child() {
    let dump = persist::to_json(&small_repo());
    let severity = "\"data_type\":\"Text\",\"parent\":5";
    // Its own id, the first id past the end, the root sentinel itself.
    for parent in ["6", "7", "4294967295"] {
        let hostile = dump.replace(
            severity,
            &format!("\"data_type\":\"Text\",\"parent\":{parent}"),
        );
        assert_ne!(hostile, dump);
        let message = format_error(&hostile);
        assert!(message.contains("does not precede"), "{message}");
    }
    // Two groups containing each other: `notes` (e5) under `severity` (e6).
    let notes = "\"kind\":\"Group\",\"data_type\":\"Unknown\",\"parent\":3";
    let cycle = dump.replace(
        notes,
        "\"kind\":\"Group\",\"data_type\":\"Unknown\",\"parent\":6",
    );
    assert_ne!(cycle, dump);
    assert!(format_error(&cycle).contains("e5: parent e6 does not precede"));
    // A root may not name itself either.
    let own = dump.replacen("\"parent\":null", "\"parent\":0", 1);
    assert!(format_error(&own).contains("e0: parent e0 does not precede"));
    // Not an id at all.
    for junk in ["-1", "1.5", "\"0\"", "4294967296", "[0]"] {
        let hostile = dump.replace(
            severity,
            &format!("\"data_type\":\"Text\",\"parent\":{junk}"),
        );
        format_error(&hostile);
    }
}

#[test]
fn any_earlier_parent_loads_and_every_walk_survives_it() {
    // Every element re-parented onto every earlier element (and onto
    // none): all of these are well-formed files, whatever `validate`
    // thinks of an attribute with children.
    let dump = persist::to_json(&small_repo());
    let elements = small_repo().snapshot()[0].schema.len();
    let mut at = 0;
    for element in 0..elements {
        let key = dump[at..]
            .find("\"parent\":")
            .expect("one parent an element")
            + at;
        let value = key + "\"parent\":".len();
        let end = dump[value..].find(',').unwrap() + value;
        at = end;
        let earlier = (0..element).map(|p| p.to_string());
        for parent in earlier.chain(["null".to_string()]) {
            let edited = format!("{}{parent}{}", &dump[..value], &dump[end..]);
            walk(persist::from_json(&edited).unwrap());
        }
    }
}

#[test]
fn foreign_keys_must_stay_inside_the_schema() {
    let dump = persist::to_json(&small_repo());
    let fk = "\"from_entity\":3,\"from_attrs\":[4],\"to_entity\":0,\"to_attrs\":[1]";
    for hostile_fk in [
        "\"from_entity\":7,\"from_attrs\":[4],\"to_entity\":0,\"to_attrs\":[1]",
        "\"from_entity\":3,\"from_attrs\":[4,99],\"to_entity\":0,\"to_attrs\":[1]",
        "\"from_entity\":3,\"from_attrs\":[4],\"to_entity\":4294967295,\"to_attrs\":[1]",
        "\"from_entity\":3,\"from_attrs\":[4],\"to_entity\":0,\"to_attrs\":[7]",
    ] {
        let message = format_error(&dump.replace(fk, hostile_fk));
        assert!(message.contains("foreign key references"), "{message}");
    }
    // In range but meaningless (attributes as endpoints, a column of the
    // wrong table): loads, `validate` objects, nothing panics.
    let odd = dump.replace(
        fk,
        "\"from_entity\":1,\"from_attrs\":[6],\"to_entity\":6,\"to_attrs\":[0]",
    );
    let loaded = persist::from_json(&odd).unwrap();
    assert!(!validate(&loaded.snapshot()[0].schema).is_empty());
    walk(loaded);
}

#[test]
fn names_and_docs_must_be_strings() {
    let dump = persist::to_json(&small_repo());
    for (from, to) in [
        ("\"name\":\"severity\"", "\"name\":7"),
        ("\"name\":\"severity\"", "\"name\":null"),
        ("\"name\":\"severity\"", "\"name\":[\"severity\"]"),
        ("\"doc\":\"a person under care\"", "\"doc\":3"),
        (
            "\"doc\":\"a person under care\"",
            "\"doc\":{\"text\":\"x\"}",
        ),
        ("\"doc\":\"a person under care\"", "\"doc\":true"),
        ("\"kind\":\"Group\"", "\"kind\":\"Table\""),
        ("\"data_type\":\"Real\"", "\"data_type\":2"),
        ("\"elements\":[", "\"elements\":[null,"),
        ("\"elements\":[", "\"elements\":{\"0\":["),
    ] {
        let hostile = dump.replacen(from, to, 1);
        assert_ne!(hostile, dump, "{from}");
        format_error(&hostile);
    }
}

#[test]
fn journal_revisions_must_strictly_ascend() {
    let repo = small_repo();
    let id = repo.snapshot()[0].metadata.id;
    repo.remove(id).unwrap();
    let journal = |put: u64, delete: u64| {
        let id = id.0;
        format!("\"journal\":[{{\"revision\":{put},\"id\":{id},\"kind\":\"Put\"}},{{\"revision\":{delete},\"id\":{id},\"kind\":\"Delete\"}}]")
    };
    let dump = persist::to_json(&repo);
    assert!(dump.contains(&journal(1, 2)), "{dump}");
    persist::from_json(&dump).unwrap();
    // Out of order, or one revision twice.
    for (put, delete) in [(2, 1), (1, 1)] {
        let hostile = dump.replace(&journal(1, 2), &journal(put, delete));
        let message = format_error(&hostile);
        assert!(message.contains("do not strictly ascend"), "{message}");
    }
}

#[test]
fn a_dump_truncated_at_any_length_is_an_error() {
    let dump = persist::to_json(&small_repo());
    for len in 0..dump.len() {
        if dump.is_char_boundary(len) {
            format_error(&dump[..len]);
        }
    }
}

#[test]
fn json_punctuation_over_any_ascii_byte_loads_a_walkable_repo_or_is_a_format_error() {
    let dump = persist::to_json(&small_repo());
    for (at, original) in dump.bytes().enumerate() {
        if !original.is_ascii() {
            continue;
        }
        for &byte in br#""{}[],:0\"# {
            let mut bytes = dump.clone().into_bytes();
            bytes[at] = byte;
            let hostile = String::from_utf8(bytes).expect("ASCII over ASCII");
            match persist::from_json(&hostile) {
                Ok(loaded) => walk(loaded),
                Err(PersistError::Format(_)) => {}
                Err(other) => panic!("byte {at} = {:?}: {other}", byte as char),
            }
        }
    }
}
