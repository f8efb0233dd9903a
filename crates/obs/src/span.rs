//! Hierarchical request spans with an RAII guard API.
//!
//! One [`TraceContext`] lives for the duration of one search request.
//! Layers open spans against it ([`TraceContext::root_span`],
//! [`SpanGuard::child`]); dropping a guard closes its span. Span records
//! are flat `(name, parent, start, duration, attrs)` rows — the tree is
//! reconstructed from parent indices when rendering, which keeps the
//! hot-path cost to one `Vec::push` per span.
//!
//! A search runs on one thread, and so does its trace: the span list is a
//! `RefCell`, so the context is `Send` but not `Sync` and no span can be
//! opened from another thread.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use crate::eventlog::EventResult;
use crate::json;
use crate::ledger::ResourceLedger;
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
    /// Span duration in microseconds (`None` while still open).
    pub dur_us: Option<u64>,
    /// Free-form key/value annotations, in insertion order.
    pub attrs: Vec<(String, String)>,
}

/// Per-request span collector. Create one per search via
/// [`crate::Tracer::begin`]; hand out spans with [`Self::root_span`] /
/// [`SpanGuard::child`]; turn it into a [`CompletedTrace`] when the
/// request finishes.
#[derive(Debug)]
pub struct TraceContext {
    trace_id: String,
    started_unix_ms: u64,
    t0: Instant,
    spans: RefCell<Vec<SpanRecord>>,
}

impl TraceContext {
    /// A fresh context with the given (already sanitized) trace id.
    pub fn new(trace_id: String) -> Self {
        TraceContext {
            trace_id,
            started_unix_ms: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map_or(0, |d| d.as_millis() as u64),
            t0: Instant::now(),
            spans: RefCell::new(Vec::with_capacity(16)),
        }
    }

    /// The request's trace id.
    pub fn trace_id(&self) -> &str {
        &self.trace_id
    }

    /// Microseconds since the context was created.
    pub fn elapsed_us(&self) -> u64 {
        self.t0.elapsed().as_micros() as u64
    }

    fn open(&self, parent: Option<usize>, name: &str) -> usize {
        let start_us = self.elapsed_us();
        let mut spans = self.spans.borrow_mut();
        spans.push(SpanRecord {
            name: name.to_string(),
            parent,
            start_us,
            dur_us: None,
            attrs: Vec::new(),
        });
        spans.len() - 1
    }

    /// Open the root span. Call once per request.
    pub fn root_span(&self, name: &str) -> SpanGuard<'_> {
        SpanGuard {
            ctx: self,
            idx: self.open(None, name),
        }
    }

    fn close(&self, idx: usize) {
        let now = self.elapsed_us();
        let mut spans = self.spans.borrow_mut();
        if let Some(span) = spans.get_mut(idx) {
            if span.dur_us.is_none() {
                span.dur_us = Some(now.saturating_sub(span.start_us));
            }
        }
    }

    fn annotate(&self, idx: usize, key: &str, value: String) {
        let mut spans = self.spans.borrow_mut();
        if let Some(span) = spans.get_mut(idx) {
            span.attrs.push((key.to_string(), value));
        }
    }

    /// Insert an already-measured child span (used for per-matcher wall
    /// times that are accumulated outside the span API).
    pub fn add_closed_child(&self, parent: usize, name: &str, wall: Duration) {
        let now = self.elapsed_us();
        let dur = wall.as_micros() as u64;
        let mut spans = self.spans.borrow_mut();
        spans.push(SpanRecord {
            name: name.to_string(),
            parent: Some(parent),
            start_us: now.saturating_sub(dur),
            dur_us: Some(dur),
            attrs: Vec::new(),
        });
    }

    /// Close any still-open spans and return the raw parts
    /// (`trace_id`, start wall-clock ms, total µs, spans).
    pub fn into_parts(self) -> (String, u64, u64, Vec<SpanRecord>) {
        let total_us = self.elapsed_us();
        let mut spans = self.spans.into_inner();
        for span in &mut spans {
            if span.dur_us.is_none() {
                span.dur_us = Some(total_us.saturating_sub(span.start_us));
            }
        }
        (self.trace_id, self.started_unix_ms, total_us, spans)
    }
}

/// RAII guard for one open span. Dropping it closes the span; it never
/// records into a metrics registry (that's [`crate::SpanTimer`]'s job) —
/// it only marks the interval inside its request's trace.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    ctx: &'a TraceContext,
    idx: usize,
}

impl<'a> SpanGuard<'a> {
    /// Open a child span.
    pub fn child(&self, name: &str) -> SpanGuard<'a> {
        SpanGuard {
            ctx: self.ctx,
            idx: self.ctx.open(Some(self.idx), name),
        }
    }

    /// Attach a key/value annotation to this span.
    pub fn annotate(&self, key: &str, value: impl std::fmt::Display) {
        self.ctx.annotate(self.idx, key, value.to_string());
    }

    /// Insert an already-measured, immediately-closed child (per-matcher
    /// walls summed across candidates).
    pub fn add_closed_child(&self, name: &str, wall: Duration) {
        self.ctx.add_closed_child(self.idx, name, wall);
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.ctx.close(self.idx);
    }
}

/// A finished request trace: the span tree plus enough request/response
/// context to make `/debug/traces/{id}` and the slow-query log useful on
/// their own.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedTrace {
    /// The request's trace id (client-supplied or generated).
    pub trace_id: String,
    /// Wall-clock start, milliseconds since the Unix epoch.
    pub started_unix_ms: u64,
    /// End-to-end duration in microseconds.
    pub total_us: u64,
    /// The normalized query text.
    pub query: String,
    /// Phase 1 hits.
    pub candidates_from_index: usize,
    /// Candidates scored by Phase 2/3.
    pub candidates_evaluated: usize,
    /// Top-k results (ids, scores, per-matcher strengths).
    pub results: Vec<EventResult>,
    /// What the search cost (zeroed when the engine recorded no ledger).
    pub ledger: ResourceLedger,
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
        self.trace_id.deep_size_of_children()
            + self.query.deep_size_of_children()
            + self.results.deep_size_of_children()
            + self.spans.deep_size_of_children()
    }
}

impl CompletedTrace {
    /// One-line JSON summary (for `/debug/traces` listings).
    pub fn summary_json(&self) -> String {
        format!(
            "{{\"trace_id\":\"{}\",\"unix_ms\":{},\"total_us\":{},\"query\":\"{}\",\"candidates\":{},\"results\":{}}}",
            json::escape(&self.trace_id),
            self.started_unix_ms,
            self.total_us,
            json::escape(&self.query),
            self.candidates_evaluated,
            self.results.len(),
        )
    }

    /// Full JSON: header fields, top-k results, and the span tree nested
    /// via `children`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.spans.len() * 96);
        let _ = write!(
            out,
            "{{\"trace_id\":\"{}\",\"unix_ms\":{},\"total_us\":{},\"query\":\"{}\",\"candidates_from_index\":{},\"candidates_evaluated\":{},\"results\":[",
            json::escape(&self.trace_id),
            self.started_unix_ms,
            self.total_us,
            json::escape(&self.query),
            self.candidates_from_index,
            self.candidates_evaluated,
        );
        for (i, r) in self.results.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&r.to_json());
        }
        let _ = write!(
            out,
            "],\"ledger\":{{\"cpu_us\":{},\"alloc_count\":{},\"alloc_bytes\":{}}},\"spans\":[",
            self.ledger.cpu_us, self.ledger.alloc_count, self.ledger.alloc_bytes,
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
            span.dur_us.unwrap_or(0),
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
        let (trace_id, started_unix_ms, total_us, spans) = ctx.into_parts();
        CompletedTrace {
            trace_id,
            started_unix_ms,
            total_us,
            query: "q".into(),
            candidates_from_index: 0,
            candidates_evaluated: 0,
            results: vec![],
            ledger: ResourceLedger::default(),
            spans,
        }
    }

    #[test]
    fn guards_build_a_tree() {
        let ctx = TraceContext::new("t1".into());
        {
            let root = ctx.root_span("search");
            {
                let p1 = root.child("candidate_extraction");
                p1.annotate("hits", 42);
            }
            {
                let p2 = root.child("matching");
                p2.add_closed_child("matcher:name", Duration::from_micros(120));
                let _grand = p2.child("nested");
            }
        }
        let trace = finish(ctx);
        assert_eq!(trace.trace_id, "t1");
        assert_eq!(trace.spans.len(), 5);
        assert_eq!(trace.spans[0].parent, None);
        assert_eq!(
            trace.phase_names(),
            vec!["candidate_extraction", "matching"]
        );
        // All spans closed.
        assert!(trace.spans.iter().all(|s| s.dur_us.is_some()));
        // Annotation survived.
        assert_eq!(
            trace.spans[1].attrs,
            vec![("hits".to_string(), "42".to_string())]
        );
        // Closed child carries the externally measured wall.
        let matcher = trace
            .spans
            .iter()
            .find(|s| s.name == "matcher:name")
            .unwrap();
        assert_eq!(matcher.dur_us, Some(120));
        assert_eq!(matcher.parent, Some(2));
    }

    #[test]
    fn open_spans_are_closed_at_finish() {
        let ctx = TraceContext::new("t2".into());
        let root = ctx.root_span("search");
        std::mem::forget(root); // never dropped → still open
        let trace = finish(ctx);
        assert!(trace.spans[0].dur_us.is_some());
    }

    #[test]
    fn json_rendering_nests_children() {
        let ctx = TraceContext::new("t\"4".into());
        {
            let root = ctx.root_span("search");
            let _p1 = root.child("candidate_extraction");
        }
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
