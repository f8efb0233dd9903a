//! The shape of `/debug/traces/{id}`, pinned: a traced search's JSON with
//! every timing and resource value masked.
//!
//! What is compared, byte for byte after masking: the header keys and
//! their order, the results with their per-matcher strengths, the span
//! names and their nesting, each span's attribute keys, and the attribute
//! values that are not timings (`candidate_cache`, `distinct_terms`,
//! `postings_scanned`, `artifact_hits`, `artifact_misses`). Masked: the
//! value of every `*_us` key, `unix_ms` and every `alloc_*` key. A span's
//! own `cpu_us` / `alloc_*` deltas are dropped, not masked, because
//! whether they appear at all depends on the machine (the probe depth the
//! CPU clock's cost picks, and whether a counting allocator is
//! installed); the header's ledger is always there and is masked.
//!
//! Two searches: the first misses the candidate cache, the second, the
//! same query, hits it. The expected strings are goldens: a change to the
//! trace view that an operator or a script would notice fails here.

use std::sync::Arc;
use std::time::Duration;

use schemr::{SchemrEngine, SearchRequest};
use schemr_obs::json::{self, Json};
use schemr_repo::{import, Repository};

const MISS: &str = concat!(
    r##"{"trace_id":"golden-miss","unix_ms":"#","total_us":"#","query":"patient height","##,
    r##""candidates_from_index":2,"candidates_evaluated":2,"##,
    r##""results":[{"id":"s0","score":0.5,"matchers":{"name":1,"context":0}},"##,
    r##"{"id":"s1","score":0.25,"matchers":{"name":0.5682978723404255,"context":0}}],"##,
    r##""ledger":{"cpu_us":"#","alloc_count":"#","alloc_bytes":"#"},"##,
    r##""spans":[{"name":"search","start_us":"#","dur_us":"#","children":["##,
    r##"{"name":"candidate_extraction","start_us":"#","dur_us":"#","##,
    r##""attrs":{"distinct_terms":"2","postings_scanned":"4","candidate_cache":"miss"}},"##,
    r##"{"name":"matching","start_us":"#","dur_us":"#","##,
    r##""attrs":{"artifact_hits":"0","artifact_misses":"2"},"children":["##,
    r##"{"name":"matcher:name","start_us":"#","dur_us":"#"},"##,
    r##"{"name":"matcher:context","start_us":"#","dur_us":"#"}]},"##,
    r##"{"name":"tightness_scoring","start_us":"#","dur_us":"#"}]}]}"##,
);

/// The same query again, as the server runs it: it waited in the
/// admission queue, which the root span says.
const HIT: &str = concat!(
    r##"{"trace_id":"golden-hit","unix_ms":"#","total_us":"#","query":"patient height","##,
    r##""candidates_from_index":2,"candidates_evaluated":2,"##,
    r##""results":[{"id":"s0","score":0.5,"matchers":{"name":1,"context":0}},"##,
    r##"{"id":"s1","score":0.25,"matchers":{"name":0.5682978723404255,"context":0}}],"##,
    r##""ledger":{"cpu_us":"#","alloc_count":"#","alloc_bytes":"#"},"##,
    r##""spans":[{"name":"search","start_us":"#","dur_us":"#","attrs":{"queue_wait_us":"#"},"children":["##,
    r##"{"name":"candidate_extraction","start_us":"#","dur_us":"#","##,
    r##""attrs":{"candidate_cache":"hit"}},"##,
    r##"{"name":"matching","start_us":"#","dur_us":"#","##,
    r##""attrs":{"artifact_hits":"2","artifact_misses":"0"},"children":["##,
    r##"{"name":"matcher:name","start_us":"#","dur_us":"#"},"##,
    r##"{"name":"matcher:context","start_us":"#","dur_us":"#"}]},"##,
    r##"{"name":"tightness_scoring","start_us":"#","dur_us":"#"}]}]}"##,
);

fn seeded_repo() -> Arc<Repository> {
    let repo = Arc::new(Repository::new());
    import::import_str(
        &repo,
        "clinic",
        "a rural clinic",
        "CREATE TABLE patient (height REAL, gender TEXT, diagnosis TEXT)",
    )
    .unwrap();
    import::import_str(
        &repo,
        "store",
        "web shop",
        "CREATE TABLE orders (total DECIMAL, quantity INT, customer TEXT, patient TEXT)",
    )
    .unwrap();
    repo
}

/// Whether `key` holds a timing or resource value.
fn masked(key: &str) -> bool {
    key.ends_with("_us") || key == "unix_ms" || key.starts_with("alloc_")
}

/// Whether `key` is a span's own resource delta.
fn ledger_attr(key: &str) -> bool {
    key == "cpu_us" || key.starts_with("alloc_")
}

/// `value` written back compactly, in document order, with the masking
/// the module comment describes. `in_attrs` is set inside a span's
/// `attrs` object.
fn write_masked(out: &mut String, value: &Json, in_attrs: bool) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => out.push_str(&json::number(*n)),
        Json::Str(s) => json::string_into(out, s),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_masked(out, item, false);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            let mut first = true;
            for (key, field) in fields {
                if in_attrs && ledger_attr(key) {
                    continue;
                }
                if key == "attrs"
                    && field
                        .as_obj()
                        .is_some_and(|attrs| attrs.iter().all(|(k, _)| ledger_attr(k)))
                {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                json::string_into(out, key);
                out.push(':');
                if masked(key) {
                    out.push_str("\"#\"");
                } else {
                    write_masked(out, field, key == "attrs");
                }
            }
            out.push('}');
        }
    }
}

fn traced_json(engine: &SchemrEngine, trace_id: &str, queue_wait: Option<Duration>) -> String {
    let request = SearchRequest {
        trace_id: Some(trace_id.to_string()),
        queue_wait,
        ..SearchRequest::keywords(["patient", "height"])
    };
    let response = engine.search_detailed(&request).unwrap();
    assert_eq!(response.trace_id.as_deref(), Some(trace_id));
    let trace = engine
        .tracer()
        .get(trace_id)
        .expect("the trace is retained");
    let mut out = String::new();
    write_masked(&mut out, &Json::parse(&trace.to_json()).unwrap(), false);
    out
}

#[test]
fn a_candidate_cache_miss_then_a_hit_render_the_golden_shapes() {
    let engine = SchemrEngine::new(seeded_repo());
    engine.reindex_full();
    let miss = traced_json(&engine, "golden-miss", None);
    let hit = traced_json(&engine, "golden-hit", Some(Duration::from_micros(250)));
    let both = format!("{miss}\n{hit}");
    assert_eq!(miss, MISS, "{both}");
    assert_eq!(hit, HIT, "{both}");
}
