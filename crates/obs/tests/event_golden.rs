//! The event log's wire form, byte for byte.
//!
//! `SearchEvent::to_json` writes the `"v":1` line every log on disk is
//! made of, and `tracelog stats` / `replay` read those lines back. The
//! record below has two matchers and two results; it is read from a line
//! with its keys in another order, extra whitespace and an unknown field,
//! so the bytes compared are the writer's own, not an echo of the input.
//! The expected line is a golden: if it has to change, the log format
//! has changed, and old logs need a new version number.

use schemr_obs::SearchEvent;

const INPUT: &str = r#"{
    "results": [
        { "matchers": { "name": 0.8125, "context": 0.30000000000000004 }, "score": 0.6932, "id": "s12" },
        { "score": 0.25, "id": "s3", "matchers": { "name": 0.5, "context": 0 } }
    ],
    "phases": { "candidate_extraction": 120, "matching": 480, "tightness_scoring": 61 },
    "alloc_bytes": 16384, "alloc_count": 42, "cpu_us": 650,
    "total_us": 661, "candidates_evaluated": 5, "candidates_from_index": 10,
    "query": "patient \"height\" gender", "unix_ms": 1700000000123,
    "trace_id": "golden-1", "v": 1, "unknown_future_field": [1, 2]
}"#;

const GOLDEN: &str = concat!(
    r#"{"v":1,"trace_id":"golden-1","unix_ms":1700000000123,"query":"patient \"height\" gender","#,
    r#""candidates_from_index":10,"candidates_evaluated":5,"total_us":661,"cpu_us":650,"#,
    r#""alloc_count":42,"alloc_bytes":16384,"#,
    r#""phases":{"candidate_extraction":120,"matching":480,"tightness_scoring":61},"#,
    r#""results":[{"id":"s12","score":0.6932,"matchers":{"name":0.8125,"context":0.30000000000000004}},"#,
    r#"{"id":"s3","score":0.25,"matchers":{"name":0.5,"context":0}}]}"#,
);

#[test]
fn a_two_matcher_two_result_record_writes_the_golden_line() {
    let event = SearchEvent::from_json_line(&INPUT.replace('\n', " ")).expect("the input parses");
    assert_eq!(event.to_json(), GOLDEN);
}

#[test]
fn the_golden_line_reads_back_to_itself() {
    let event = SearchEvent::from_json_line(GOLDEN).expect("the golden parses");
    assert_eq!(event.to_json(), GOLDEN);
}
