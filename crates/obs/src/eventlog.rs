//! Durable append-only search-history log.
//!
//! One JSONL record per completed search: the normalized query, candidate
//! counts, per-phase timings, and the top-k result IDs with their
//! per-matcher scores. This is the raw material for the ROADMAP's weight
//! learning — a logistic-regression pass over (per-matcher score, was the
//! result clicked/kept) pairs needs exactly these rows — and for
//! `schemr-cli tracelog replay`, which re-executes logged queries against
//! the current engine and diffs the result lists.
//!
//! Records carry a schema version (`"v":1`) so future fields can be added
//! without breaking replay of old logs. Rotation is size-based: when an
//! append would push the current file past `max_bytes`, the file is
//! renamed to `<path>.N` (N increasing, so `.1` is the oldest) and a
//! fresh file is started. Each record is written with a single
//! `write_all` of one complete line under a mutex, so concurrent writers
//! can never interleave partial lines.

use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use crate::json::{self, Json};
use crate::memsize::DeepSize;

/// Event-log record schema version written as `"v"` in every line.
pub const EVENT_SCHEMA_VERSION: u64 = 1;

/// A search's three phases, in order. Each names a span in the trace
/// view and a duration in the event record's `phases`.
pub const PHASES: [&str; 3] = ["candidate_extraction", "matching", "tightness_scoring"];

/// A stable identifier for a schema within a repository, assigned by the
/// repository. Defined here, below the model that re-exports it, so the
/// event log can record result ids as ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SchemaId(pub u64);

impl std::fmt::Display for SchemaId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl std::str::FromStr for SchemaId {
    type Err = std::num::ParseIntError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let digits = s.strip_prefix('s').unwrap_or(s);
        digits.parse().map(SchemaId)
    }
}

/// One ranked hit inside a [`SearchEvent`]; its per-matcher strengths
/// are the event's [`SearchEvent::strengths_of`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventResult {
    pub id: SchemaId,
    pub score: f64,
}

/// One search-history record (one JSONL line).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SearchEvent {
    /// Trace id the record belongs to.
    pub trace_id: String,
    /// Wall-clock time of the search, milliseconds since the Unix epoch.
    pub unix_ms: u64,
    /// Normalized query text.
    pub query: String,
    /// Phase 1 hit count.
    pub candidates_from_index: usize,
    /// Candidates that reached Phase 2/3.
    pub candidates_evaluated: usize,
    /// Duration of each of [`PHASES`], in µs.
    pub phase_us: [u64; 3],
    /// End-to-end duration in µs.
    pub total_us: u64,
    /// The top-k results, ranked.
    pub results: Vec<EventResult>,
    /// Matcher names in ensemble order, shared with the matcher set that
    /// ran the search: the stride of `strengths`.
    pub matchers: Arc<[String]>,
    /// Per result, one strength per matcher, results one after another.
    pub strengths: Vec<f64>,
    /// Scheduled CPU time across the search's threads, µs (ledger;
    /// 0 in records written before the ledger existed).
    pub cpu_us: u64,
    /// Allocation events attributed to the search (ledger).
    pub alloc_count: u64,
    /// Bytes requested from the allocator (ledger).
    pub alloc_bytes: u64,
}

impl DeepSize for SearchEvent {
    fn deep_size_of_children(&self) -> usize {
        // `matchers` is the matcher set's, shared by every record.
        self.trace_id.deep_size_of_children()
            + self.query.deep_size_of_children()
            + self.results.capacity() * std::mem::size_of::<EventResult>()
            + self.strengths.deep_size_of_children()
    }
}

impl SearchEvent {
    /// Result `i`'s per-matcher strengths, in `matchers` order (empty
    /// when the record holds none).
    pub fn strengths_of(&self, i: usize) -> &[f64] {
        let stride = self.matchers.len();
        self.strengths
            .get(i * stride..(i + 1) * stride)
            .unwrap_or(&[])
    }

    /// Render as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(192 + self.results.len() * 64);
        let _ = write!(
            out,
            "{{\"v\":{},\"trace_id\":\"{}\",\"unix_ms\":{},\"query\":\"{}\",\"candidates_from_index\":{},\"candidates_evaluated\":{},\"total_us\":{},\"cpu_us\":{},\"alloc_count\":{},\"alloc_bytes\":{},\"phases\":{{",
            EVENT_SCHEMA_VERSION,
            json::escape(&self.trace_id),
            self.unix_ms,
            json::escape(&self.query),
            self.candidates_from_index,
            self.candidates_evaluated,
            self.total_us,
            self.cpu_us,
            self.alloc_count,
            self.alloc_bytes,
        );
        for (i, (name, us)) in PHASES.iter().zip(self.phase_us).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{us}");
        }
        out.push_str("},");
        self.write_results(&mut out);
        out.push('}');
        out
    }

    /// `"results":[…]`, each result with its per-matcher strengths.
    pub(crate) fn write_results(&self, out: &mut String) {
        out.push_str("\"results\":[");
        for (i, r) in self.results.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"id\":\"{}\",\"score\":{},\"matchers\":{{",
                r.id,
                json::number(r.score)
            );
            for (j, (name, v)) in self.matchers.iter().zip(self.strengths_of(i)).enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":{}", json::escape(name), json::number(*v));
            }
            out.push_str("}}");
        }
        out.push(']');
    }

    /// Parse one JSONL line back into a record. Returns `None` for lines
    /// that don't parse or miss required fields (replay skips them).
    /// Unknown fields, phases other than [`PHASES`] and results without
    /// an id and a score are ignored. The matcher names are the first
    /// result's; a later result that lacks one of them reads `NaN` there.
    pub fn from_json_line(line: &str) -> Option<SearchEvent> {
        let v = Json::parse(line.trim()).ok()?;
        // Unknown future versions are still read best-effort; the
        // required fields below are the v1 contract.
        let count = |key| v.get(key).and_then(Json::as_u64).unwrap_or(0);
        let mut event = SearchEvent {
            trace_id: v.get("trace_id")?.as_str()?.to_string(),
            unix_ms: count("unix_ms"),
            query: v.get("query")?.as_str()?.to_string(),
            candidates_from_index: count("candidates_from_index") as usize,
            candidates_evaluated: count("candidates_evaluated") as usize,
            total_us: count("total_us"),
            // Ledger fields arrived after v1 shipped; absent in old records.
            cpu_us: count("cpu_us"),
            alloc_count: count("alloc_count"),
            alloc_bytes: count("alloc_bytes"),
            ..SearchEvent::default()
        };
        for (name, us) in v.get("phases").and_then(Json::as_obj).unwrap_or(&[]) {
            if let (Some(at), Some(us)) = (PHASES.iter().position(|p| p == name), us.as_u64()) {
                event.phase_us[at] = us;
            }
        }
        for r in v.get("results").and_then(Json::as_arr).unwrap_or(&[]) {
            let id = r
                .get("id")
                .and_then(Json::as_str)
                .and_then(|id| id.parse().ok());
            let (Some(id), Some(score)) = (id, r.get("score").and_then(Json::as_f64)) else {
                continue;
            };
            let strengths = r.get("matchers").and_then(Json::as_obj).unwrap_or(&[]);
            if event.results.is_empty() {
                event.matchers = strengths.iter().map(|(name, _)| name.clone()).collect();
            }
            event.results.push(EventResult { id, score });
            for name in event.matchers.iter() {
                let strength = strengths.iter().find(|(k, _)| k == name);
                let strength = strength.and_then(|(_, s)| s.as_f64());
                event.strengths.push(strength.unwrap_or(f64::NAN));
            }
        }
        Some(event)
    }
}

#[derive(Debug)]
struct LogInner {
    file: File,
    /// Bytes written to the current file so far.
    written: u64,
}

/// Append-only JSONL event log with size-based rotation.
#[derive(Debug)]
pub struct EventLog {
    path: PathBuf,
    max_bytes: u64,
    inner: Mutex<LogInner>,
}

impl EventLog {
    /// Open (creating if needed) the log at `path`. `max_bytes` bounds
    /// the size of the active file; a record that would push it past the
    /// bound triggers rotation first. Rotated files never exceed
    /// `max_bytes` plus one record. A file whose last record was torn
    /// (no trailing newline) gets one first, so the torn bytes stay on
    /// their own line and the next record is not glued onto them.
    pub fn open(path: impl Into<PathBuf>, max_bytes: u64) -> io::Result<EventLog> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&path)?;
        let mut written = file.metadata()?.len();
        if written > 0 {
            let mut last = [0u8];
            file.seek(SeekFrom::End(-1))?;
            file.read_exact(&mut last)?;
            if last[0] != b'\n' {
                file.write_all(b"\n")?;
                written += 1;
            }
        }
        Ok(EventLog {
            path,
            max_bytes: max_bytes.max(1),
            inner: Mutex::new(LogInner { file, written }),
        })
    }

    /// Bytes written to the active file so far — the figure
    /// `/debug/memory` reports as the log's on-disk residency (rotated
    /// files are bounded separately by `max_bytes` each).
    pub fn written_bytes(&self) -> u64 {
        self.inner.lock().expect("event log lock").written
    }

    /// Append one record as a single line. Returns any I/O error; the
    /// caller (the tracer) treats failures as non-fatal.
    pub fn append(&self, event: &SearchEvent) -> io::Result<()> {
        let mut line = event.to_json();
        line.push('\n');
        let mut guard = self.inner.lock().expect("event log lock");
        let inner = &mut *guard;
        if inner.written > 0 && inner.written + line.len() as u64 > self.max_bytes {
            // Rotate: shift the current file to the next free `.N`.
            let next = self.next_rotation_index();
            let rotated = rotated_path(&self.path, next);
            // Flush before rename so the rotated file is complete.
            inner.file.flush()?;
            std::fs::rename(&self.path, rotated)?;
            inner.file = OpenOptions::new()
                .create(true)
                .append(true)
                .open(&self.path)?;
            inner.written = 0;
        }
        // One write_all per line: concurrent appends serialize on the
        // mutex, so no reader ever sees a torn line.
        inner.file.write_all(line.as_bytes())?;
        inner.written += line.len() as u64;
        Ok(())
    }

    fn next_rotation_index(&self) -> u64 {
        (1..)
            .find(|&n| !rotated_path(&self.path, n).exists())
            .unwrap_or(1)
    }

    /// All records in chronological order: rotated files `.1 .. .N`
    /// first, then the active file. Unparseable lines are skipped.
    pub fn read_events(&self) -> io::Result<Vec<SearchEvent>> {
        // Flush buffered bytes so readers in the same process see them.
        self.inner.lock().expect("event log lock").file.flush()?;
        read_events_at(&self.path)
    }
}

fn rotated_path(path: &Path, n: u64) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(format!(".{n}"));
    PathBuf::from(os)
}

/// Replay reader: read every record for the log at `path` (rotated files
/// in order, then the active file). Standalone so the CLI can read a log
/// without opening it for writing. A path with neither an active file
/// nor rotated siblings is `NotFound`, not an empty log. Lines that are
/// not UTF-8 (a record torn inside a character) or do not parse are
/// skipped.
pub fn read_events_at(path: &Path) -> io::Result<Vec<SearchEvent>> {
    let mut files: Vec<PathBuf> = Vec::new();
    for n in 1.. {
        let rotated = rotated_path(path, n);
        if rotated.exists() {
            files.push(rotated);
        } else {
            break;
        }
    }
    if path.exists() {
        files.push(path.to_path_buf());
    } else if files.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("no event log at {}", path.display()),
        ));
    }
    let mut events = Vec::new();
    for file in files {
        for line in BufReader::new(File::open(&file)?).split(b'\n') {
            let line = line?;
            if let Some(event) = std::str::from_utf8(&line)
                .ok()
                .and_then(SearchEvent::from_json_line)
            {
                events.push(event);
            }
        }
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(i: usize) -> SearchEvent {
        SearchEvent {
            trace_id: format!("t{i}"),
            unix_ms: 1_000 + i as u64,
            query: format!("customer order {i}"),
            candidates_from_index: 10,
            candidates_evaluated: 5,
            phase_us: [120, 480, 60],
            total_us: 700,
            results: vec![EventResult {
                id: SchemaId(i as u64),
                score: 0.75,
            }],
            matchers: Arc::from(["name".to_string(), "structure".to_string()]),
            strengths: vec![0.8, 0.7],
            cpu_us: 650,
            alloc_count: 42,
            alloc_bytes: 16_384,
        }
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("schemr-obs-eventlog-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn round_trips_records() {
        let event = sample(3);
        let line = event.to_json();
        let parsed = SearchEvent::from_json_line(&line).expect("parses");
        assert_eq!(parsed, event);
    }

    #[test]
    fn strengths_are_read_by_the_first_results_matcher_names() {
        let line = "{\"trace_id\":\"t1\",\"query\":\"q\",\"results\":[\
                    {\"id\":\"s4\",\"score\":0.5,\"matchers\":{\"name\":0.9,\"context\":0.1}},\
                    {\"id\":\"not-an-id\",\"score\":0.4},\
                    {\"id\":\"s2\",\"score\":0.3,\"matchers\":{\"context\":0.2}}]}";
        let parsed = SearchEvent::from_json_line(line).expect("parses");
        let ids: Vec<SchemaId> = parsed.results.iter().map(|r| r.id).collect();
        assert_eq!(ids, [SchemaId(4), SchemaId(2)]);
        assert_eq!(&parsed.matchers[..], ["name", "context"]);
        assert_eq!(parsed.strengths_of(0), [0.9, 0.1]);
        assert!(parsed.strengths_of(1)[0].is_nan());
        assert_eq!(parsed.strengths_of(1)[1], 0.2);
    }

    #[test]
    fn a_line_an_earlier_build_wrote_with_tags_still_parses() {
        // Earlier builds wrote a `tags` object on maintenance records;
        // the reader ignores it like any other unknown field.
        let old = "{\"v\":1,\"trace_id\":\"merge-r3\",\"unix_ms\":2000,\"query\":\"q\",\
                   \"total_us\":1234,\"phases\":{\"merge\":1234},\"results\":[],\
                   \"tags\":{\"tombstone_ratio_before\":\"0.400\"}}";
        let parsed = SearchEvent::from_json_line(old).expect("parses");
        assert_eq!(parsed.trace_id, "merge-r3");
        assert_eq!(parsed.total_us, 1_234);
        // Its `merge` phase is not a search phase: the record keeps none.
        assert_eq!(parsed.phase_us, [0; 3]);
        assert!(!parsed.to_json().contains("tags"));
    }

    #[test]
    fn pre_ledger_v1_records_still_parse() {
        // A `"v":1` line exactly as written before the ledger fields
        // existed: it must replay with the ledger defaulted to zero.
        let old = "{\"v\":1,\"trace_id\":\"t9\",\"unix_ms\":1000,\"query\":\"customer order\",\
                   \"candidates_from_index\":10,\"candidates_evaluated\":5,\"total_us\":700,\
                   \"phases\":{\"candidate_extraction\":120,\"matching\":480},\
                   \"results\":[{\"id\":\"s1\",\"score\":0.75,\"matchers\":{\"name\":0.8}}]}";
        let parsed = SearchEvent::from_json_line(old).expect("old records parse");
        assert_eq!(parsed.trace_id, "t9");
        assert_eq!(parsed.total_us, 700);
        assert_eq!(parsed.phase_us, [120, 480, 0]);
        assert_eq!(parsed.results[0].id, SchemaId(1));
        assert_eq!(parsed.strengths_of(0), [0.8]);
        assert_eq!(parsed.cpu_us, 0);
        assert_eq!(parsed.alloc_count, 0);
        assert_eq!(parsed.alloc_bytes, 0);
    }

    #[test]
    fn old_and_new_records_coexist_in_one_log() {
        let dir = tempdir("mixed");
        let path = dir.join("events.jsonl");
        // Hand-write an old-format line, then append a new-format one.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .unwrap();
            writeln!(
                f,
                "{{\"v\":1,\"trace_id\":\"old\",\"unix_ms\":1,\"query\":\"q\",\"total_us\":5,\"phases\":{{}},\"results\":[]}}"
            )
            .unwrap();
        }
        let log = EventLog::open(&path, 1 << 20).unwrap();
        log.append(&sample(1)).unwrap();
        let events = log.read_events().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].trace_id, "old");
        assert_eq!(events[0].cpu_us, 0);
        assert_eq!(events[1].cpu_us, 650);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn append_then_read_back() {
        let dir = tempdir("rw");
        let log = EventLog::open(dir.join("events.jsonl"), 1 << 20).unwrap();
        for i in 0..4 {
            log.append(&sample(i)).unwrap();
        }
        let events = log.read_events().unwrap();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].trace_id, "t0");
        assert_eq!(events[3].trace_id, "t3");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn skips_corrupt_lines() {
        let dir = tempdir("corrupt");
        let path = dir.join("events.jsonl");
        let log = EventLog::open(&path, 1 << 20).unwrap();
        log.append(&sample(0)).unwrap();
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            writeln!(f, "{{ not json").unwrap();
        }
        log.append(&sample(1)).unwrap();
        let events = log.read_events().unwrap();
        assert_eq!(events.len(), 2);
        let _ = std::fs::remove_dir_all(dir);
    }
}
