//! Event-log integration tests: rotation at the size boundary, replay
//! across rotated files, and concurrent writers producing no torn lines.

use std::path::PathBuf;
use std::sync::Arc;

use schemr_obs::{read_events_at, EventLog, EventResult, SearchEvent};

/// Unique temp dir, removed on drop.
struct TempDir {
    path: PathBuf,
}

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("schemr-eventlog-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path).unwrap();
        TempDir { path }
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

fn event(trace_id: &str, query: &str) -> SearchEvent {
    SearchEvent {
        trace_id: trace_id.to_string(),
        unix_ms: 1_700_000_000_000,
        query: query.to_string(),
        candidates_from_index: 5,
        candidates_evaluated: 3,
        phase_us: vec![
            ("candidate_extraction".to_string(), 40),
            ("matching".to_string(), 300),
            ("tightness_scoring".to_string(), 12),
        ],
        total_us: 360,
        cpu_us: 310,
        alloc_count: 42,
        alloc_bytes: 16_384,
        results: vec![EventResult {
            id: "s0".to_string(),
            score: 0.75,
            matcher_scores: vec![("name".to_string(), 0.8), ("context".to_string(), 0.7)],
        }],
    }
}

#[test]
fn rotation_triggers_exactly_at_the_size_boundary() {
    let dir = TempDir::new("boundary");
    let path = dir.path.join("events.log");
    let one_line = {
        let mut l = event("t0", "warm").to_json();
        l.push('\n');
        l.len() as u64
    };

    // Budget for exactly two records: the third append must rotate.
    let log = EventLog::open(&path, 2 * one_line).unwrap();
    log.append(&event("t0", "warm")).unwrap();
    log.append(&event("t1", "warm")).unwrap();
    assert!(
        !path.with_extension("log.1").exists(),
        "two records fit the budget exactly — no rotation yet"
    );
    log.append(&event("t2", "warm")).unwrap();
    let rotated = PathBuf::from(format!("{}.1", path.display()));
    assert!(rotated.exists(), "third record must push out the first two");

    // The rotated file holds the old records, the active file the new one.
    let all = log.read_events().unwrap();
    let ids: Vec<&str> = all.iter().map(|e| e.trace_id.as_str()).collect();
    assert_eq!(ids, ["t0", "t1", "t2"], "chronological across rotation");
    assert!(
        std::fs::metadata(&rotated).unwrap().len() <= 2 * one_line,
        "rotated file respects the budget"
    );
}

#[test]
fn replay_reads_rotated_files_oldest_first() {
    let dir = TempDir::new("replay");
    let path = dir.path.join("events.log");
    let one_line = event("t00", "q").to_json().len() as u64 + 1;

    // One record per file: every append after the first rotates.
    let log = EventLog::open(&path, one_line).unwrap();
    for i in 0..5 {
        log.append(&event(&format!("t{i:02}"), &format!("query {i}")))
            .unwrap();
    }
    // 4 rotated files + the active one.
    for n in 1..=4u64 {
        assert!(
            PathBuf::from(format!("{}.{n}", path.display())).exists(),
            "expected rotation .{n}"
        );
    }

    // The standalone reader (what `tracelog replay` uses) must see every
    // record, oldest first, without an open handle on the log.
    drop(log);
    let events = read_events_at(&path).unwrap();
    let ids: Vec<&str> = events.iter().map(|e| e.trace_id.as_str()).collect();
    assert_eq!(ids, ["t00", "t01", "t02", "t03", "t04"]);
    assert_eq!(events[3].query, "query 3");
    assert_eq!(events[0].results[0].matcher_scores.len(), 2);
}

#[test]
fn concurrent_writers_never_tear_lines() {
    const WRITERS: usize = 8;
    const PER_WRITER: usize = 50;

    let dir = TempDir::new("concurrent");
    let path = dir.path.join("events.log");
    // Small budget so the test also rotates under contention.
    let log = Arc::new(EventLog::open(&path, 4096).unwrap());

    let mut handles = Vec::new();
    for w in 0..WRITERS {
        let log = Arc::clone(&log);
        handles.push(std::thread::spawn(move || {
            for i in 0..PER_WRITER {
                log.append(&event(&format!("w{w}-{i}"), "concurrent load"))
                    .unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    // Every line in every file must parse — a torn line would fail
    // from_json_line and drop a record.
    let events = log.read_events().unwrap();
    assert_eq!(events.len(), WRITERS * PER_WRITER, "no record lost or torn");
    let mut raw_lines = 0usize;
    let mut n = 0u64;
    loop {
        let file = if n == 0 {
            path.clone()
        } else {
            PathBuf::from(format!("{}.{n}", path.display()))
        };
        if file.exists() {
            let text = std::fs::read_to_string(&file).unwrap();
            assert!(
                text.ends_with('\n') || text.is_empty(),
                "{file:?} torn tail"
            );
            raw_lines += text.lines().count();
        } else if n > 0 {
            break;
        }
        n += 1;
    }
    assert_eq!(
        raw_lines,
        WRITERS * PER_WRITER,
        "line count matches records"
    );

    // Each writer's own records stay in its submission order.
    for w in 0..WRITERS {
        let mine: Vec<usize> = events
            .iter()
            .filter_map(|e| {
                e.trace_id
                    .strip_prefix(&format!("w{w}-"))
                    .map(|i| i.parse().unwrap())
            })
            .collect();
        assert_eq!(
            mine,
            (0..PER_WRITER).collect::<Vec<_>>(),
            "writer {w} order"
        );
    }
}

/// Write `a`, then the first `cut(line)` bytes of `b`'s line as if the
/// process died mid-append, then reopen the log and append `c`.
fn tear_then_append(dir: &TempDir, b: &SearchEvent, cut: impl Fn(&str) -> usize) -> PathBuf {
    use std::io::Write as _;
    let path = dir.path.join("events.log");
    let log = EventLog::open(&path, 1 << 20).unwrap();
    log.append(&event("a", "warm")).unwrap();
    drop(log);
    let line = b.to_json();
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .unwrap();
    file.write_all(&line.as_bytes()[..cut(&line)]).unwrap();
    drop(file);
    let log = EventLog::open(&path, 1 << 20).unwrap();
    log.append(&event("c", "warm")).unwrap();
    path
}

fn ids(path: &std::path::Path) -> Vec<String> {
    let events = read_events_at(path).expect("a torn record does not fail the log");
    events.into_iter().map(|e| e.trace_id).collect()
}

#[test]
fn a_record_torn_inside_a_character_is_skipped() {
    let dir = TempDir::new("torn-utf8");
    // Cut after the first byte of `ö`: the torn line is not UTF-8.
    let path = tear_then_append(&dir, &event("b", "größe"), |line| {
        line.find('ö').unwrap() + 1
    });
    assert_eq!(ids(&path), ["a", "c"]);
}

#[test]
fn a_record_torn_in_ascii_does_not_swallow_the_next() {
    let dir = TempDir::new("torn-ascii");
    let path = tear_then_append(&dir, &event("b", "warm"), |line| line.len() / 2);
    assert_eq!(ids(&path), ["a", "c"]);
}
