//! Bench-side spans: one record per call into a layer, kept in memory
//! and written as JSONL when the run ends. Spans inside the program are
//! a later issue; these wrap the layers' public functions from outside.

use std::collections::HashMap;
use std::io::Write;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index into the log; a child names its parent by this.
    pub id: u32,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// `<crate>.<what>`, e.g. `index.phase1`.
    pub name: String,
    /// Spans of one request share this: `r<n>` for a replayed request,
    /// `w<n>` for a writer batch.
    pub request: String,
    /// Nanoseconds since the log's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn micros(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

/// An append-only span log. Each thread records into its own log (they
/// share an epoch) and the logs are merged when the threads have joined.
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose clock starts at `epoch`.
    pub fn new(epoch: Instant) -> SpanLog {
        SpanLog {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a finished span; returns its id.
    pub fn push(
        &mut self,
        name: &str,
        request: &str,
        parent: Option<u32>,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            request: request.to_string(),
            start_ns,
            end_ns,
        });
        id
    }

    /// Run `f` inside a span.
    pub fn timed<T>(
        &mut self,
        name: &str,
        request: &str,
        parent: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> (T, u32) {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        (out, self.push(name, request, parent, start, end))
    }

    /// Move the end of an open-ended parent span to now.
    pub fn close(&mut self, id: u32) {
        let now = self.now_ns();
        self.spans[id as usize].end_ns = now;
    }

    /// Append another thread's log, renumbering its spans.
    pub fn absorb(&mut self, other: SpanLog) {
        let offset = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += offset;
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// All spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (µs) of every span called `name`.
    pub fn micros_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::micros)
            .collect()
    }

    /// Self time of every span, by id: its duration minus the part of
    /// its interval that its children cover. Overlapping children
    /// (per-matcher walls summed over match threads) are counted once,
    /// and a child is clipped to its parent's interval.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p as usize];
                let start = s.start_ns.max(parent.start_ns);
                let end = s.end_ns.min(parent.end_ns);
                if end > start {
                    children.entry(p).or_default().push((start, end));
                }
            }
        }
        self.spans
            .iter()
            .map(|s| {
                let total = s.end_ns.saturating_sub(s.start_ns);
                let Some(intervals) = children.get_mut(&s.id) else {
                    return total;
                };
                intervals.sort_unstable();
                let mut covered = 0u64;
                let mut reach = 0u64;
                for &(start, end) in intervals.iter() {
                    let start = start.max(reach);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                total - covered
            })
            .collect()
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_counts_overlapping_children_once_and_clips_them() {
        let mut log = SpanLog::new(Instant::now());
        let root = log.push("core.search", "r0", None, 100, 1_100);
        log.push("index.phase1", "r0", Some(root), 100, 300);
        let p2 = log.push("matchers.phase2", "r0", Some(root), 300, 900);
        // Two matcher walls that overlap each other and overrun phase 2.
        log.push("matchers.name", "r0", Some(p2), 300, 800);
        log.push("matchers.context", "r0", Some(p2), 500, 1_500);
        log.push("core.tightness", "r0", Some(root), 900, 1_000);
        let own = log.self_times_ns();
        // root: 1000 − (200 + 600 + 100).
        assert_eq!(own[root as usize], 100);
        // phase 2: children cover 300..900 entirely once clipped.
        assert_eq!(own[p2 as usize], 0);
        // A leaf's self time is its duration.
        assert_eq!(own[1], 200);
    }

    #[test]
    fn absorb_renumbers_ids_and_parents() {
        let epoch = Instant::now();
        let mut a = SpanLog::new(epoch);
        a.push("server.request", "r0", None, 0, 10);
        let mut b = SpanLog::new(epoch);
        let batch = b.push("core.batch", "w0", None, 0, 50);
        b.push("core.tick", "w0", Some(batch), 20, 50);
        a.absorb(b);
        let spans = a.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].id, 2);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(a.self_times_ns()[1], 20);
        assert_eq!(a.micros_of("core.tick"), vec![0.03]);
    }
}
