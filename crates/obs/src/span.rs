//! Hierarchical request spans, recorded closed.
//!
//! One [`TraceContext`] lives for the duration of one search request. The
//! caller times its work itself and, once it is done, pushes each span
//! with its start, duration and annotations ([`TraceContext::push`]); no
//! span is ever open, so there is nothing to close or to finish. Span
//! records are flat `(name, parent, start, duration, attrs)` rows — the
//! tree is reconstructed from parent indices when rendering.

use std::fmt::Write as _;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use crate::eventlog::SearchEvent;
use crate::json;
use crate::memsize::DeepSize;

/// One recorded span: a named interval within a request, positioned
/// relative to the request's start.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span name (`search`, `candidate_extraction`, `matcher:name`, …).
    pub name: String,
    /// Index of the parent span in the context's span list (`None` for
    /// the root).
    pub parent: Option<usize>,
    /// Microseconds from the request start to this span opening.
    pub start_us: u64,
    /// Span duration in microseconds.
    pub dur_us: u64,
    /// Free-form key/value annotations, in insertion order.
    pub attrs: Vec<(String, String)>,
}

/// Per-request span collector. Create one per search via
/// [`crate::Tracer::begin`], [`push`](Self::push) the spans, and hand it
/// to [`crate::Tracer::finish`] with the request's [`SearchEvent`].
#[derive(Debug)]
pub struct TraceContext {
    pub(crate) trace_id: String,
    pub(crate) started_unix_ms: u64,
    pub(crate) spans: Vec<SpanRecord>,
}

impl TraceContext {
    /// A fresh context with the given (already sanitized) trace id.
    pub fn new(trace_id: String) -> Self {
        TraceContext {
            trace_id,
            started_unix_ms: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map_or(0, |d| d.as_millis() as u64),
            spans: Vec::with_capacity(16),
        }
    }

    /// The request's trace id.
    pub fn trace_id(&self) -> &str {
        &self.trace_id
    }

    /// Record one closed span: `start` is measured from the request's
    /// start, `parent` is an index this method returned earlier (`None`
    /// for the root). Returns the new span's index.
    pub fn push(
        &mut self,
        parent: Option<usize>,
        name: impl Into<String>,
        start: Duration,
        duration: Duration,
        attrs: Vec<(String, String)>,
    ) -> usize {
        self.spans.push(SpanRecord {
            name: name.into(),
            parent,
            start_us: start.as_micros() as u64,
            dur_us: duration.as_micros() as u64,
            attrs,
        });
        self.spans.len() - 1
    }
}

/// A finished request trace: the request's [`SearchEvent`] — the record
/// the event log appends — plus its span tree. That is enough context to
/// make `/debug/traces/{id}` and the slow-query log useful on their own.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedTrace {
    /// Trace id, start time, query, candidate counts, per-phase and total
    /// durations, top-k results and the ledger.
    pub event: SearchEvent,
    /// Flat span records; tree via `parent` indices.
    pub spans: Vec<SpanRecord>,
}

impl DeepSize for SpanRecord {
    fn deep_size_of_children(&self) -> usize {
        self.name.deep_size_of_children() + self.attrs.deep_size_of_children()
    }
}

impl DeepSize for CompletedTrace {
    fn deep_size_of_children(&self) -> usize {
        self.event.deep_size_of_children() + self.spans.deep_size_of_children()
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

    /// Full JSON: header fields, top-k results, and the span tree nested
    /// via `children`.
    pub fn to_json(&self) -> String {
        let e = &self.event;
        let mut out = String::with_capacity(256 + self.spans.len() * 96);
        let _ = write!(
            out,
            "{{\"trace_id\":\"{}\",\"unix_ms\":{},\"total_us\":{},\"query\":\"{}\",\"candidates_from_index\":{},\"candidates_evaluated\":{},\"results\":[",
            json::escape(&e.trace_id),
            e.unix_ms,
            e.total_us,
            json::escape(&e.query),
            e.candidates_from_index,
            e.candidates_evaluated,
        );
        for (i, r) in e.results.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&r.to_json());
        }
        let _ = write!(
            out,
            "],\"ledger\":{{\"cpu_us\":{},\"alloc_count\":{},\"alloc_bytes\":{}}},\"spans\":[",
            e.cpu_us, e.alloc_count, e.alloc_bytes,
        );
        // children[i] = indices of spans whose parent is i.
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        let mut roots: Vec<usize> = Vec::new();
        for (i, span) in self.spans.iter().enumerate() {
            match span.parent {
                Some(p) if p < self.spans.len() => children[p].push(i),
                _ => roots.push(i),
            }
        }
        for (i, &root) in roots.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            self.write_span(&mut out, root, &children);
        }
        out.push_str("]}");
        out
    }

    fn write_span(&self, out: &mut String, idx: usize, children: &[Vec<usize>]) {
        let span = &self.spans[idx];
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"start_us\":{},\"dur_us\":{}",
            json::escape(&span.name),
            span.start_us,
            span.dur_us,
        );
        if !span.attrs.is_empty() {
            out.push_str(",\"attrs\":{");
            for (i, (k, v)) in span.attrs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":\"{}\"", json::escape(k), json::escape(v));
            }
            out.push('}');
        }
        if !children[idx].is_empty() {
            out.push_str(",\"children\":[");
            for (i, &c) in children[idx].iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                self.write_span(out, c, children);
            }
            out.push(']');
        }
        out.push('}');
    }

    /// Names of the direct children of the root span (test/debug
    /// convenience: "does the trace cover all three phases?").
    pub fn phase_names(&self) -> Vec<&str> {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(0))
            .map(|s| s.name.as_str())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finish(ctx: TraceContext) -> CompletedTrace {
        CompletedTrace {
            event: SearchEvent {
                trace_id: ctx.trace_id,
                unix_ms: ctx.started_unix_ms,
                query: "q".into(),
                ..SearchEvent::default()
            },
            spans: ctx.spans,
        }
    }

    fn us(n: u64) -> Duration {
        Duration::from_micros(n)
    }

    #[test]
    fn pushed_spans_build_a_tree() {
        let mut ctx = TraceContext::new("t1".into());
        let root = ctx.push(None, "search", us(0), us(500), Vec::new());
        ctx.push(
            Some(root),
            "candidate_extraction",
            us(0),
            us(100),
            vec![("hits".into(), "42".into())],
        );
        let matching = ctx.push(Some(root), "matching", us(100), us(400), Vec::new());
        ctx.push(Some(matching), "matcher:name", us(100), us(120), Vec::new());
        ctx.push(Some(matching), "nested", us(220), us(10), Vec::new());
        let trace = finish(ctx);
        assert_eq!(trace.event.trace_id, "t1");
        assert_eq!(trace.spans.len(), 5);
        assert_eq!(trace.spans[0].parent, None);
        assert_eq!(
            trace.phase_names(),
            vec!["candidate_extraction", "matching"]
        );
        // Annotation survived.
        assert_eq!(
            trace.spans[1].attrs,
            vec![("hits".to_string(), "42".to_string())]
        );
        // A child carries the start and duration it was pushed with.
        let matcher = trace
            .spans
            .iter()
            .find(|s| s.name == "matcher:name")
            .unwrap();
        assert_eq!((matcher.start_us, matcher.dur_us), (100, 120));
        assert_eq!(matcher.parent, Some(2));
    }

    #[test]
    fn json_rendering_nests_children() {
        let mut ctx = TraceContext::new("t\"4".into());
        let root = ctx.push(None, "search", us(0), us(7), Vec::new());
        ctx.push(Some(root), "candidate_extraction", us(0), us(5), Vec::new());
        let trace = finish(ctx);
        let json_text = trace.to_json();
        let parsed = crate::json::Json::parse(&json_text).expect("valid json");
        assert_eq!(parsed.get("trace_id").unwrap().as_str(), Some("t\"4"));
        let spans = parsed.get("spans").unwrap().as_arr().unwrap();
        assert_eq!(spans.len(), 1); // one root
        let root = &spans[0];
        assert_eq!(root.get("name").unwrap().as_str(), Some("search"));
        let kids = root.get("children").unwrap().as_arr().unwrap();
        assert_eq!(
            kids[0].get("name").unwrap().as_str(),
            Some("candidate_extraction")
        );
        // Summary parses too.
        assert!(crate::json::Json::parse(&trace.summary_json()).is_ok());
    }
}
