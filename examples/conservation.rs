//! The Nature Conservancy scenario: XML schemas, search by example,
//! visualization export, and the scheduled indexer.
//!
//! Small conservation organizations share semi-structured monitoring
//! schemas (XSD). A new partner uploads their draft schema as the query;
//! Schemr finds the community's closest designs, and the partner exports a
//! GraphML + SVG view to explore the best match.
//!
//! ```sh
//! cargo run --example conservation
//! ```

use std::sync::Arc;
use std::time::Duration;

use schemr::{IndexScheduler, SchemrEngine, SearchRequest};
use schemr_repo::{import::import_str, Repository};
use schemr_viz::{radial_layout, render_svg, to_graphml, tree_layout, GraphmlOptions, SvgOptions};

const SURVEY_XSD: &str = r#"<?xml version="1.0"?>
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="survey">
    <xs:annotation><xs:documentation>A monitoring survey visit</xs:documentation></xs:annotation>
    <xs:complexType><xs:sequence>
      <xs:element name="site" type="xs:string"/>
      <xs:element name="date" type="xs:date"/>
      <xs:element name="observation">
        <xs:complexType><xs:sequence>
          <xs:element name="species" type="xs:string"/>
          <xs:element name="abundance" type="xs:integer"/>
          <xs:element name="latitude" type="xs:double"/>
          <xs:element name="longitude" type="xs:double"/>
        </xs:sequence></xs:complexType>
      </xs:element>
    </xs:sequence></xs:complexType>
  </xs:element>
</xs:schema>"#;

const WATERSHED_XSD: &str = r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="watershed">
    <xs:complexType><xs:sequence>
      <xs:element name="name" type="xs:string"/>
      <xs:element name="area" type="xs:double"/>
      <xs:element name="rainfall" type="xs:double"/>
      <xs:element name="salinity" type="xs:double"/>
    </xs:sequence></xs:complexType>
  </xs:element>
</xs:schema>"#;

fn main() {
    let repo = Arc::new(Repository::new());
    let survey_id = import_str(
        &repo,
        "community_survey",
        "shared monitoring design",
        SURVEY_XSD,
    )
    .unwrap();
    import_str(
        &repo,
        "watershed_monitoring",
        "hydrology partner",
        WATERSHED_XSD,
    )
    .unwrap();
    import_str(
        &repo,
        "donor_tracking",
        "fundraising, unrelated",
        "CREATE TABLE donor (id INT, name TEXT, amount DECIMAL, pledge_date DATE)",
    )
    .unwrap();

    let engine = Arc::new(SchemrEngine::new(repo.clone()));
    engine.reindex_full();

    // Search by example: the new partner's draft schema (note the
    // abbreviations and different naming style — the name matcher's job).
    let draft = r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="FieldObservation">
    <xs:complexType><xs:sequence>
      <xs:element name="SpeciesName" type="xs:string"/>
      <xs:element name="Abund" type="xs:integer"/>
      <xs:element name="Lat" type="xs:double"/>
      <xs:element name="Lon" type="xs:double"/>
    </xs:sequence></xs:complexType>
  </xs:element>
</xs:schema>"#;
    let request = SearchRequest::parse("", &[draft]).unwrap();
    let results = engine.search(&request).unwrap();
    println!("{}", schemr_viz::format_results(&results));
    assert_eq!(results[0].id, survey_id, "the community survey should win");

    // Export the winner for exploration: GraphML (the GUI transport) and
    // SVG in both layouts (the GUI's views), depth-capped at 3.
    let stored = repo.get(results[0].id).unwrap();
    let out_dir = std::env::temp_dir().join("schemr-conservation");
    std::fs::create_dir_all(&out_dir).unwrap();

    let graphml = to_graphml(
        &stored.schema,
        &GraphmlOptions {
            max_depth: Some(3),
            scores: results[0].matches.clone(),
        },
    );
    std::fs::write(out_dir.join("survey.graphml"), &graphml).unwrap();

    let roots = stored.schema.roots();
    for (name, layout) in [
        ("survey_tree.svg", tree_layout(&stored.schema, &roots, 3)),
        (
            "survey_radial.svg",
            radial_layout(&stored.schema, &roots, 3),
        ),
    ] {
        let svg = render_svg(
            &stored.schema,
            &layout,
            &SvgOptions {
                scores: results[0].matches.clone(),
            },
        );
        std::fs::write(out_dir.join(name), svg).unwrap();
    }
    println!(
        "exported GraphML + tree/radial SVG to {}",
        out_dir.display()
    );

    // A partner publishes a new schema; the scheduled indexer picks it up.
    let scheduler = Arc::new(IndexScheduler::new(engine.clone()));
    let handle = scheduler.clone().run_background(Duration::from_millis(20));
    import_str(
        &repo,
        "transect_survey",
        "late-arriving partner schema",
        "CREATE TABLE transect (length REAL, habitat TEXT, canopy REAL, observer TEXT)",
    )
    .unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let hits = engine
            .search(&SearchRequest::keywords(["transect", "habitat"]))
            .unwrap();
        if !hits.is_empty() {
            println!(
                "scheduled indexer picked up `{}` after {} tick(s)",
                hits[0].title,
                scheduler.tick_count()
            );
            break;
        }
        assert!(std::time::Instant::now() < deadline, "indexer never ran");
        std::thread::sleep(Duration::from_millis(5));
    }
    handle.stop();
}
