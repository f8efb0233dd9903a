//! F4: the Figure 4 worked example through the *full engine* — the anchor
//! walk-through the paper narrates, driven by a real query instead of a
//! hand-built matrix.

use std::sync::Arc;

use schemr::{SchemrEngine, SearchRequest};
use schemr_model::DistanceClass;
use schemr_repo::{import::import_str, Repository};

/// Figure 4's schema: case(doctor, patient) → patient(height, gender),
/// doctor(gender).
const FIGURE4_DDL: &str = "
    CREATE TABLE patient (id INT, height REAL, gender TEXT);
    CREATE TABLE doctor (id INT, gender TEXT);
    CREATE TABLE clinic_case (id INT,
        patient INT REFERENCES patient(id),
        doctor INT REFERENCES doctor(id))";

fn engine_with_figure4() -> (Arc<Repository>, SchemrEngine) {
    let repo = Arc::new(Repository::new());
    import_str(&repo, "clinic", "figure 4", FIGURE4_DDL).unwrap();
    let engine = SchemrEngine::new(repo.clone());
    engine.reindex_full();
    (repo, engine)
}

#[test]
fn matched_elements_carry_figure4_distance_classes() {
    let (repo, engine) = engine_with_figure4();
    let results = engine
        .search(&SearchRequest::keywords([
            "patient", "doctor", "height", "gender",
        ]))
        .unwrap();
    let top = &results[0];
    let schema = repo.get(top.id).unwrap().schema.clone();

    // Elements matched in several entities; the best anchor puts some in
    // SameEntity and the rest (reachable through case's FKs) in
    // Neighborhood. Nothing is Unrelated — the FK transitive closure
    // connects all three entities, exactly the paper's walk-through.
    assert!(
        top.matches.len() >= 4,
        "matched {} elements",
        top.matches.len()
    );
    let classes: Vec<DistanceClass> = top.matches.iter().map(|m| m.class).collect();
    assert!(classes.contains(&DistanceClass::SameEntity));
    assert!(classes.contains(&DistanceClass::Neighborhood));
    assert!(!classes.contains(&DistanceClass::Unrelated));

    // Each matched element resolves to a real path.
    for m in &top.matches {
        let path = schema.path(m.element);
        assert!(!path.is_empty());
        assert!(m.score > 0.0 && m.score <= 1.0);
    }
}

#[test]
fn adding_an_unrelated_entity_introduces_the_larger_penalty_class() {
    let repo = Arc::new(Repository::new());
    import_str(
        &repo,
        "clinic_plus_supply",
        "",
        "CREATE TABLE patient (id INT, height REAL, gender TEXT);
         CREATE TABLE supply (id INT, item TEXT, quantity INT)",
    )
    .unwrap();
    let engine = SchemrEngine::new(repo);
    engine.reindex_full();
    let results = engine
        .search(&SearchRequest::keywords(["height", "gender", "item"]))
        .unwrap();
    let top = &results[0];
    let classes: Vec<DistanceClass> = top.matches.iter().map(|m| m.class).collect();
    // patient and supply share no FK path: whichever anchors, the other's
    // matches are Unrelated.
    assert!(classes.contains(&DistanceClass::Unrelated), "{classes:?}");
}

#[test]
fn colocated_beats_neighborhood_beats_scattered_end_to_end() {
    let repo = Arc::new(Repository::new());
    import_str(
        &repo,
        "colocated",
        "",
        "CREATE TABLE patient (id INT, height REAL, gender TEXT, dob DATE)",
    )
    .unwrap();
    import_str(
        &repo,
        "neighborhood",
        "",
        "CREATE TABLE patient (id INT, height REAL);
         CREATE TABLE visit (id INT, gender TEXT, patient_id INT REFERENCES patient(id))",
    )
    .unwrap();
    import_str(
        &repo,
        "scattered",
        "",
        "CREATE TABLE patient (id INT, height REAL);
         CREATE TABLE warehouse (id INT, gender TEXT)",
    )
    .unwrap();
    let engine = SchemrEngine::new(repo);
    engine.reindex_full();
    let results = engine
        .search(&SearchRequest::keywords(["patient", "height", "gender"]))
        .unwrap();
    let titles: Vec<&str> = results.iter().map(|r| r.title.as_str()).collect();
    assert_eq!(titles, ["colocated", "neighborhood", "scattered"]);
    assert!(results[0].score > results[1].score);
    assert!(results[1].score > results[2].score);
}
