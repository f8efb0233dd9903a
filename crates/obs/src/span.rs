//! A finished search's trace, and its span tree rendered on read.
//!
//! A trace is the search's [`SearchEvent`] — the record the event log
//! appends — plus [`SpanFacts`], the few facts only the span view adds.
//! The span tree's shape never varies: a `search` root, the three
//! [`PHASES`] laid end to end under it, and one `matcher:<name>` span per
//! matcher under `matching`. So nothing stores a tree: `/debug/traces/{id}`
//! and the slowlog write it from those two records when an operator asks.

use std::fmt::Write as _;

use crate::eventlog::{SearchEvent, PHASES};
use crate::json;
use crate::memsize::DeepSize;

/// What a trace's span view says beyond its [`SearchEvent`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanFacts {
    /// How long the request waited for a worker, µs; `None` when the
    /// search did not come through the server's queue.
    pub queue_wait_us: Option<u64>,
    /// Whether the candidate cache answered Phase 1.
    pub candidate_cache_hit: bool,
    /// Each matcher's wall over the candidates, µs, in the event's
    /// `matchers` order.
    pub matcher_us: Vec<u64>,
}

/// A finished request trace: the request's [`SearchEvent`] and its
/// [`SpanFacts`]. That is enough context to make `/debug/traces/{id}` and
/// the slow-query log useful on their own.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedTrace {
    /// Trace id, start time, query, candidate counts, per-phase and total
    /// durations, top-k results and the ledger.
    pub event: SearchEvent,
    /// Queue wait, the candidate-cache outcome and matcher walls.
    pub facts: SpanFacts,
}

impl DeepSize for CompletedTrace {
    fn deep_size_of_children(&self) -> usize {
        self.event.deep_size_of_children() + self.facts.matcher_us.deep_size_of_children()
    }
}

impl CompletedTrace {
    /// One-line JSON summary (for `/debug/traces` listings).
    pub fn summary_json(&self) -> String {
        let e = &self.event;
        format!(
            "{{\"trace_id\":\"{}\",\"unix_ms\":{},\"total_us\":{},\"query\":\"{}\",\"candidates\":{},\"results\":{}}}",
            json::escape(&e.trace_id),
            e.unix_ms,
            e.total_us,
            json::escape(&e.query),
            e.candidates_evaluated,
            e.results.len(),
        )
    }

    /// Full JSON: header fields, top-k results, the ledger, and the span
    /// tree nested via `children`. Each span's `start_us` is measured
    /// from the search's start; the phases, and the matchers inside
    /// `matching`, follow one another.
    pub fn to_json(&self) -> String {
        let (e, f) = (&self.event, &self.facts);
        let mut out = String::with_capacity(512 + e.results.len() * 96);
        let _ = write!(
            out,
            "{{\"trace_id\":\"{}\",\"unix_ms\":{},\"total_us\":{},\"query\":\"{}\",\"candidates_from_index\":{},\"candidates_evaluated\":{},",
            json::escape(&e.trace_id),
            e.unix_ms,
            e.total_us,
            json::escape(&e.query),
            e.candidates_from_index,
            e.candidates_evaluated,
        );
        e.write_results(&mut out);
        let _ = write!(
            out,
            ",\"ledger\":{{\"cpu_us\":{},\"alloc_count\":{},\"alloc_bytes\":{}}},\"spans\":[",
            e.cpu_us, e.alloc_count, e.alloc_bytes,
        );
        let mut root = Span::open(&mut out, "search", 0, e.total_us);
        if let Some(wait) = f.queue_wait_us {
            root.attr("queue_wait_us", wait);
        }
        root.end(true);
        let [extraction_us, matching_us, tightness_us] = e.phase_us;

        let mut span = Span::open(&mut out, PHASES[0], 0, extraction_us);
        let outcome = if f.candidate_cache_hit { "hit" } else { "miss" };
        span.attr("candidate_cache", outcome);
        span.end(false);

        out.push(',');
        Span::open(&mut out, PHASES[1], extraction_us, matching_us).end(true);
        let mut at = extraction_us;
        for (i, (name, &wall)) in e.matchers.iter().zip(&f.matcher_us).enumerate() {
            let comma = if i > 0 { "," } else { "" };
            let name = json::escape(name);
            let _ = write!(
                out,
                "{comma}{{\"name\":\"matcher:{name}\",\"start_us\":{at},\"dur_us\":{wall}}}"
            );
            at += wall;
        }
        out.push_str("]},");

        let start_us = extraction_us + matching_us;
        Span::open(&mut out, PHASES[2], start_us, tightness_us).end(false);
        out.push_str("]}]}");
        out
    }
}

/// One span's JSON object while it is written: the name and times, then
/// its `attrs` object, opened by the first annotation.
struct Span<'a> {
    out: &'a mut String,
    attrs: bool,
}

impl<'a> Span<'a> {
    fn open(out: &'a mut String, name: &str, start_us: u64, dur_us: u64) -> Self {
        let _ = write!(
            out,
            "{{\"name\":\"{name}\",\"start_us\":{start_us},\"dur_us\":{dur_us}"
        );
        Span { out, attrs: false }
    }

    /// One annotation; its value is written as a JSON string.
    fn attr(&mut self, key: &str, value: impl std::fmt::Display) {
        let open = if self.attrs { "," } else { ",\"attrs\":{" };
        let _ = write!(self.out, "{open}\"{key}\":\"{value}\"");
        self.attrs = true;
    }

    /// Close `attrs`, then the span or, with `children`, open its
    /// `children` array.
    fn end(self, children: bool) {
        if self.attrs {
            self.out.push('}');
        }
        self.out
            .push_str(if children { ",\"children\":[" } else { "}" });
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::eventlog::{EventResult, SchemaId};
    use crate::json::Json;

    fn trace(facts: SpanFacts) -> CompletedTrace {
        CompletedTrace {
            event: SearchEvent {
                query: "patient height".into(),
                phase_us: [100, 400, 50],
                total_us: 551,
                results: vec![EventResult {
                    id: SchemaId(7),
                    score: 0.5,
                }],
                matchers: Arc::from(["name".to_string(), "context".to_string()]),
                strengths: vec![1.0, 0.25],
                cpu_us: 9,
                trace_id: "t\"4".into(),
                unix_ms: 1_000,
                ..SearchEvent::default()
            },
            facts,
        }
    }

    #[test]
    fn a_cache_hit_renders_the_phases_and_matchers_end_to_end() {
        let text = trace(SpanFacts {
            candidate_cache_hit: true,
            matcher_us: vec![120, 30],
            ..SpanFacts::default()
        })
        .to_json();
        assert_eq!(
            text,
            concat!(
                r#"{"trace_id":"t\"4","unix_ms":1000,"total_us":551,"query":"patient height","#,
                r#""candidates_from_index":0,"candidates_evaluated":0,"#,
                r#""results":[{"id":"s7","score":0.5,"matchers":{"name":1,"context":0.25}}],"#,
                r#""ledger":{"cpu_us":9,"alloc_count":0,"alloc_bytes":0},"#,
                r#""spans":[{"name":"search","start_us":0,"dur_us":551,"children":["#,
                r#"{"name":"candidate_extraction","start_us":0,"dur_us":100,"attrs":{"candidate_cache":"hit"}},"#,
                r#"{"name":"matching","start_us":100,"dur_us":400,"children":["#,
                r#"{"name":"matcher:name","start_us":100,"dur_us":120},"#,
                r#"{"name":"matcher:context","start_us":220,"dur_us":30}]},"#,
                r#"{"name":"tightness_scoring","start_us":500,"dur_us":50}]}]}"#,
            )
        );
        assert!(Json::parse(&text).is_ok());
        assert!(Json::parse(&trace(SpanFacts::default()).summary_json()).is_ok());
    }

    #[test]
    fn a_miss_and_a_queue_wait_annotate_their_spans() {
        let text = trace(SpanFacts {
            queue_wait_us: Some(12),
            matcher_us: vec![1, 2],
            ..SpanFacts::default()
        })
        .to_json();
        for fragment in [
            r#""dur_us":551,"attrs":{"queue_wait_us":"12"},"children""#,
            r#""dur_us":100,"attrs":{"candidate_cache":"miss"}},"#,
            r#"{"name":"matching","start_us":100,"dur_us":400,"children""#,
            r#"{"name":"tightness_scoring","start_us":500,"dur_us":50}"#,
        ] {
            assert!(text.contains(fragment), "{fragment} in {text}");
        }
    }
}
