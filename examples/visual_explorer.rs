//! Figure 2 as code: the results workspace — tabular view, side-by-side
//! schema visualizations with similarity encodings, and drill-in.
//!
//! ```sh
//! cargo run --example visual_explorer
//! ```

use std::sync::Arc;

use schemr::{SchemrEngine, SearchRequest};
use schemr_repo::{import::import_str, Repository};
use schemr_viz::{
    format_results, radial_layout, ramp_color, render_svg, tree_layout, type_color, SvgOptions,
};

fn main() {
    let repo = Arc::new(Repository::new());
    import_str(
        &repo,
        "clinic_a",
        "district hospital design",
        "CREATE TABLE patient (id INT, height REAL, gender TEXT, dob DATE);
         CREATE TABLE encounter (id INT, diagnosis TEXT, patient_id INT REFERENCES patient(id))",
    )
    .unwrap();
    import_str(
        &repo,
        "clinic_b",
        "community health worker design",
        "CREATE TABLE subject (subj_id INT, ht REAL, sex TEXT);
         CREATE TABLE visit (visit_id INT, dx TEXT, subj INT REFERENCES subject(subj_id))",
    )
    .unwrap();
    import_str(
        &repo,
        "logistics",
        "supply chain, unrelated",
        "CREATE TABLE shipment (id INT, weight REAL, origin TEXT, destination TEXT)",
    )
    .unwrap();

    let engine = SchemrEngine::new(repo.clone());
    engine.reindex_full();

    // (1)+(2) of Figure 2: keywords plus a DDL fragment.
    let request = SearchRequest::parse(
        "diagnosis",
        &["CREATE TABLE patient (height REAL, gender TEXT)"],
    )
    .unwrap();
    let results = engine.search(&request).unwrap();

    // (3) Tabular view.
    println!("{}", format_results(&results));

    // (4) Side-by-side schema visualizations for the top two results, with
    // node colors by element type and similarity halos from the match
    // detail.
    let out_dir = std::env::temp_dir().join("schemr-explorer");
    std::fs::create_dir_all(&out_dir).unwrap();
    for (i, result) in results.iter().take(2).enumerate() {
        let stored = repo.get(result.id).unwrap();
        let roots = stored.schema.roots();
        for (view, layout) in [
            ("tree", tree_layout(&stored.schema, &roots, 3)),
            ("radial", radial_layout(&stored.schema, &roots, 3)),
        ] {
            let svg = render_svg(
                &stored.schema,
                &layout,
                &SvgOptions {
                    scores: result.matches.clone(),
                },
            );
            let path = out_dir.join(format!("result{}_{}_{}.svg", i + 1, result.title, view));
            std::fs::write(&path, svg).unwrap();
            println!("wrote {}", path.display());
        }
    }

    // Drill-in: double-clicking a node re-centers the layout on it. Here:
    // re-root the top result's layout on its second entity.
    let stored = repo.get(results[0].id).unwrap();
    let entities = stored.schema.entities();
    if entities.len() > 1 {
        let drill = tree_layout(&stored.schema, &entities[1..2], 3);
        let svg = render_svg(&stored.schema, &drill, &SvgOptions::default());
        let path = out_dir.join("drill_in.svg");
        std::fs::write(&path, svg).unwrap();
        println!(
            "drill-in on `{}` → {}",
            stored.schema.element(entities[1]).name,
            path.display()
        );
    }

    // The legend the GUI would show.
    println!("\nlegend:");
    for kind in [
        schemr_model::ElementKind::Entity,
        schemr_model::ElementKind::Attribute,
        schemr_model::ElementKind::Group,
    ] {
        println!("  {:<10} {}", kind.label(), type_color(kind).hex());
    }
    println!(
        "  similarity ramp: 0.0 {} → 1.0 {}",
        ramp_color(0.0).hex(),
        ramp_color(1.0).hex()
    );
}
