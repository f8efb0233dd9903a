//! Phase 2 bench (supports E3): individual matcher and ensemble
//! throughput on realistic name pairs and candidate schemas.

use criterion::{criterion_group, criterion_main, Criterion};
use schemr_bench::variants;
use schemr_match::{EditDistanceMatcher, MatchScratch, NameMatcher, TokenMatcher};
use schemr_model::{DataType, QueryGraph, SchemaBuilder};
use schemr_text::Lexicon;
use std::hint::black_box;

const PAIRS: &[(&str, &str)] = &[
    ("patient_height", "PatientHeight"),
    ("pat_ht", "patient height"),
    ("diagnosis", "diagnoses"),
    ("customer_address", "cust_addr"),
    ("species_abundance", "abundance of species"),
    ("unrelated_thing", "totally_different"),
];

fn bench_scalar_matchers(c: &mut Criterion) {
    let name = NameMatcher::new();
    let token = TokenMatcher::new();
    let edit = EditDistanceMatcher::new();
    let mut group = c.benchmark_group("scalar_matchers");
    group.bench_function("name_ngram", |b| {
        b.iter(|| {
            for (x, y) in PAIRS {
                black_box(name.similarity(x, y));
            }
        })
    });
    group.bench_function("token_exact", |b| {
        b.iter(|| {
            for (x, y) in PAIRS {
                black_box(token.similarity(x, y));
            }
        })
    });
    group.bench_function("edit_distance", |b| {
        b.iter(|| {
            for (x, y) in PAIRS {
                black_box(edit.similarity(x, y));
            }
        })
    });
    group.finish();
}

fn bench_ensemble(c: &mut Criterion) {
    let mut q = QueryGraph::new();
    q.add_fragment(
        SchemaBuilder::new("frag")
            .entity("patient", |e| {
                e.attr("height", DataType::Real)
                    .attr("gender", DataType::Text)
                    .attr("diagnosis", DataType::Text)
            })
            .build_unchecked(),
    );
    q.add_keyword("medication");
    let terms = q.terms();
    let candidate = SchemaBuilder::new("cand")
        .entity("person", |e| {
            e.attr("stature", DataType::Real)
                .attr("sex", DataType::Text)
                .attr("condition", DataType::Text)
                .attr("dob", DataType::Date)
        })
        .entity("visit", |e| {
            e.attr("date", DataType::Date)
                .attr("prescription", DataType::Text)
        })
        .build_unchecked();

    // Artifacts are prepared outside the timed loop, as the engine's
    // warm artifact cache would hand them over; the scratch is new each
    // pass, as for the first candidate of a Phase 2 chunk.
    for (name, ensemble) in [
        ("ensemble_combined_matrix", variants::standard_ensemble()),
        ("ensemble_with_flooding", variants::flooding_ensemble()),
    ] {
        let lexicon = Lexicon::new();
        let equery = ensemble.prepare_query(&terms, &q);
        let pcand = ensemble.prepare(&candidate, &lexicon);
        c.bench_function(name, |b| {
            b.iter(|| {
                let mut scratch = MatchScratch::new(&equery, &lexicon);
                black_box(
                    ensemble
                        .run(&terms, &q, &pcand, &candidate, &mut scratch, false)
                        .matrix,
                )
            })
        });
    }
}

criterion_group!(benches, bench_scalar_matchers, bench_ensemble);
criterion_main!(benches);
