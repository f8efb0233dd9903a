//! A finished search's trace, and its span tree rendered on read.
//!
//! A trace is the search's [`SearchEvent`] — the record the event log
//! appends — plus [`SpanFacts`], the few numbers only the span view adds.
//! The span tree's shape never varies: a `search` root, the three
//! [`PHASES`] laid end to end under it, and one `matcher:<name>` span per
//! matcher under `matching`. So nothing stores a tree: `/debug/traces/{id}`
//! and the slowlog write it from those two records when an operator asks.

use std::fmt::Write as _;

use crate::eventlog::{SearchEvent, PHASES};
use crate::json;
use crate::ledger::ResourceLedger;
use crate::memsize::DeepSize;

/// How much work one Phase 1 index probe did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeStats {
    /// Distinct analyzed query terms probed.
    pub distinct_terms: usize,
    /// Postings entries scanned across all term/field lookups.
    pub postings_scanned: u64,
    /// Query list portions the pruner skipped entirely (no posting
    /// visited).
    pub pruned_lists: usize,
    /// Posting entries the pruner proved irrelevant and never visited.
    pub pruned_postings: u64,
}

/// What a trace's span view says beyond its [`SearchEvent`]: all numbers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanFacts {
    /// How long the request waited for a worker, µs; `None` when the
    /// search did not come through the server's queue.
    pub queue_wait_us: Option<u64>,
    /// Phase 1's index probe; `None` when the candidate cache answered.
    pub probe: Option<ProbeStats>,
    /// Phase 2's artifact-cache `(hits, misses)`; `None` when the cache
    /// is off.
    pub artifacts: Option<(u64, u64)>,
    /// What the thread spent in each of [`PHASES`].
    pub phase_ledger: [ResourceLedger; 3],
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
    /// Queue wait, probe, artifact cache, per-phase ledgers and matcher
    /// walls.
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
        match &f.probe {
            None => span.attr("candidate_cache", "hit"),
            Some(probe) => {
                span.attr("distinct_terms", probe.distinct_terms);
                span.attr("postings_scanned", probe.postings_scanned);
                if probe.pruned_lists > 0 || probe.pruned_postings > 0 {
                    span.attr("pruned_lists", probe.pruned_lists);
                    span.attr("pruned_postings", probe.pruned_postings);
                }
                span.attr("candidate_cache", "miss");
            }
        }
        span.ledger(&f.phase_ledger[0]);
        span.end(false);

        out.push(',');
        let mut span = Span::open(&mut out, PHASES[1], extraction_us, matching_us);
        if let Some((hits, misses)) = f.artifacts {
            span.attr("artifact_hits", hits);
            span.attr("artifact_misses", misses);
        }
        span.ledger(&f.phase_ledger[1]);
        span.end(true);
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
        let mut span = Span::open(&mut out, PHASES[2], start_us, tightness_us);
        span.ledger(&f.phase_ledger[2]);
        span.end(false);
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

    /// A phase's resource delta, zero fields skipped: `cpu_us` is 0 when
    /// the probe depth withheld the clock from the phase, the allocation
    /// counters when no counting allocator is installed, and an explicit
    /// 0 would read as a measurement when it is an absence.
    fn ledger(&mut self, ledger: &ResourceLedger) {
        if ledger.cpu_us > 0 {
            self.attr("cpu_us", ledger.cpu_us);
        }
        if ledger.alloc_count > 0 || ledger.alloc_bytes > 0 {
            self.attr("alloc_count", ledger.alloc_count);
            self.attr("alloc_bytes", ledger.alloc_bytes);
        }
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
    fn a_miss_annotates_the_probe_and_only_non_zero_ledgers() {
        let ledger = |cpu_us, alloc_count, alloc_bytes| ResourceLedger {
            cpu_us,
            alloc_count,
            alloc_bytes,
        };
        let text = trace(SpanFacts {
            queue_wait_us: Some(12),
            probe: Some(ProbeStats {
                distinct_terms: 2,
                postings_scanned: 40,
                pruned_lists: 1,
                pruned_postings: 9,
            }),
            artifacts: Some((3, 1)),
            phase_ledger: [ledger(5, 0, 0), ledger(0, 4, 256), ledger(0, 0, 0)],
            matcher_us: vec![1, 2],
        })
        .to_json();
        for fragment in [
            r#""dur_us":551,"attrs":{"queue_wait_us":"12"},"children""#,
            r#""attrs":{"distinct_terms":"2","postings_scanned":"40","pruned_lists":"1","pruned_postings":"9","candidate_cache":"miss","cpu_us":"5"}}"#,
            r#""attrs":{"artifact_hits":"3","artifact_misses":"1","alloc_count":"4","alloc_bytes":"256"},"children""#,
            r#"{"name":"tightness_scoring","start_us":500,"dur_us":50}"#,
        ] {
            assert!(text.contains(fragment), "{fragment} in {text}");
        }
    }
}
