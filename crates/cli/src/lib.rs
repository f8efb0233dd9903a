//! # schemr-cli
//!
//! The command-line face of the reproduction: everything a user needs to
//! stand up a repository, fill it, search it, and serve it — without
//! writing Rust.
//!
//! ```text
//! schemr-cli init      <repo.json>
//! schemr-cli import    <repo.json> <file-or-dir>...
//! schemr-cli list      <repo.json>
//! schemr-cli show      <repo.json> <schema-id>
//! schemr-cli search    <repo.json> [-k "<keywords>"] [-f <fragment-file>] [-n <limit>] [--explain]
//! schemr-cli export    <repo.json> <schema-id> [--format ddl|graphml|svg]
//! schemr-cli summarize <repo.json> <schema-id> [--entities <n>]
//! schemr-cli stats     <repo.json>
//! schemr-cli serve     <repo.json> [--bind <addr>] [--event-log <path>]
//!                      [--slowlog-ms <n>] [--trace-ring <n>]
//!                      [--slo-p99-ms <n>] [--slo-error-pct <f>]
//! schemr-cli doctor    <host:port>
//! schemr-cli tracelog  tail   <event.log> [-n <limit>]
//! schemr-cli tracelog  stats  <event.log>
//! schemr-cli tracelog  replay <event.log> <repo.json>
//! ```
//!
//! The argument parser is deliberately from scratch (no dependency): each
//! subcommand takes positionals plus `-x value` / `--long value` flags.
//! [`run`] is the testable entry point; the binary only forwards to it.

use std::io::Write;
use std::sync::Arc;

use schemr::{SchemrEngine, SearchRequest};
use schemr_repo::{import, persist, Repository};

/// CLI errors (exit code 2).
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError(format!("io: {e}"))
    }
}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Flags that take no value — present or absent.
const BOOL_FLAGS: &[&str] = &["explain"];

/// Parsed flags: `-k v` / `--key v` pairs plus bare positionals.
struct Args {
    positionals: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, CliError> {
        let mut positionals = Vec::new();
        let mut flags = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--").or_else(|| a.strip_prefix('-')) {
                if BOOL_FLAGS.contains(&name) {
                    flags.push((name.to_string(), "true".to_string()));
                    continue;
                }
                let value = it
                    .next()
                    .ok_or_else(|| err(format!("flag `{a}` expects a value")))?;
                flags.push((name.to_string(), value.clone()));
            } else {
                positionals.push(a.clone());
            }
        }
        Ok(Args { positionals, flags })
    }

    fn flag(&self, names: &[&str]) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| names.contains(&n.as_str()))
            .map(|(_, v)| v.as_str())
    }

    fn has_flag(&self, names: &[&str]) -> bool {
        self.flag(names).is_some()
    }

    fn positional(&self, ix: usize, what: &str) -> Result<&str, CliError> {
        self.positionals
            .get(ix)
            .map(String::as_str)
            .ok_or_else(|| err(format!("missing {what}")))
    }
}

const USAGE: &str = "\
usage: schemr-cli <command> [...]

commands:
  init      <repo.json>                                create an empty repository
  import    <repo.json> <file-or-dir>...               import DDL/XSD/CSV sources
  list      <repo.json>                                list stored schemas
  show      <repo.json> <id>                           print one schema (DDL + annotations)
  search    <repo.json> [-k words] [-f file] [-n N] [--explain]
                                                       three-phase schema search
                                                       (--explain prints the per-phase trace)
  export    <repo.json> <id> [--format ddl|xsd|graphml|svg]
  summarize <repo.json> <id> [--entities N]            importance-based summary
  stats     <repo.json>                                repository statistics
  serve     <repo.json> [--bind 127.0.0.1:7878]        start the search service
            [--event-log path] [--slowlog-ms N] [--trace-ring N]
            [--max-queue N] [--keepalive-requests N] [--drain-ms N]
            [--slo-p99-ms N] [--slo-error-pct F]
                                (objectives for /debug/slo burn rates)
            [--serve-for-ms N]  (serve N ms, then drain and exit —
                                 exit code 0 on a clean drain)
  doctor    <host:port>                                one-shot health check: folds
                                                       /healthz, SLO burn rates, the
                                                       search counters and index/memory
                                                       statistics into one verdict
                                                       (exit 0 healthy, 1 degraded,
                                                       2 unreachable)
  tracelog  tail   <event.log> [-n N]                  print the last N logged searches
  tracelog  stats  <event.log>                         aggregate timings across the log
  tracelog  replay <event.log> <repo.json>             re-run logged queries, diff results
";

/// Run the CLI. Returns the process exit code.
pub fn run(args: &[String], out: &mut impl Write) -> Result<i32, CliError> {
    let Some(command) = args.first().map(String::as_str) else {
        write!(out, "{USAGE}")?;
        return Ok(2);
    };
    let rest = Args::parse(&args[1..])?;
    match command {
        "help" | "--help" | "-h" => {
            write!(out, "{USAGE}")?;
            Ok(0)
        }
        "init" => cmd_init(&rest, out),
        "import" => cmd_import(&rest, out),
        "list" => cmd_list(&rest, out),
        "show" => cmd_show(&rest, out),
        "search" => cmd_search(&rest, out),
        "export" => cmd_export(&rest, out),
        "summarize" => cmd_summarize(&rest, out),
        "stats" => cmd_stats(&rest, out),
        "serve" => cmd_serve(&rest, out),
        "doctor" => cmd_doctor(&rest, out),
        "tracelog" => cmd_tracelog(&rest, out),
        other => Err(err(format!("unknown command `{other}`\n{USAGE}"))),
    }
}

fn load_repo(args: &Args) -> Result<(String, Arc<Repository>), CliError> {
    let path = args.positional(0, "repository path")?.to_string();
    let repo = persist::load(&path).map_err(|e| err(format!("open {path}: {e}")))?;
    Ok((path, Arc::new(repo)))
}

fn parse_id(raw: &str) -> Result<schemr_model::SchemaId, CliError> {
    raw.parse()
        .map_err(|_| err(format!("bad schema id `{raw}` (expected e.g. s3)")))
}

fn cmd_init(args: &Args, out: &mut impl Write) -> Result<i32, CliError> {
    let path = args.positional(0, "repository path")?;
    if std::path::Path::new(path).exists() {
        return Err(err(format!("{path} already exists")));
    }
    persist::save(&Repository::new(), path).map_err(|e| err(e.to_string()))?;
    writeln!(out, "created empty repository at {path}")?;
    Ok(0)
}

fn cmd_import(args: &Args, out: &mut impl Write) -> Result<i32, CliError> {
    let (path, repo) = load_repo(args)?;
    if args.positionals.len() < 2 {
        return Err(err("import expects at least one file or directory"));
    }
    let mut imported = 0usize;
    let mut failed = 0usize;
    for source in &args.positionals[1..] {
        let p = std::path::Path::new(source);
        if p.is_dir() {
            let (ids, errors) = import::import_dir(&repo, p).map_err(|e| err(e.to_string()))?;
            imported += ids.len();
            failed += errors.len();
            for (file, e) in errors {
                writeln!(out, "  skipped {}: {e}", file.display())?;
            }
        } else {
            match import::import_file(&repo, p) {
                Ok(id) => {
                    writeln!(out, "  imported {} as {id}", p.display())?;
                    imported += 1;
                }
                Err(e) => {
                    writeln!(out, "  skipped {}: {e}", p.display())?;
                    failed += 1;
                }
            }
        }
    }
    persist::save(&repo, &path).map_err(|e| err(e.to_string()))?;
    writeln!(
        out,
        "imported {imported} schema(s), {failed} failed; saved {path}"
    )?;
    Ok(if imported > 0 { 0 } else { 1 })
}

fn cmd_list(args: &Args, out: &mut impl Write) -> Result<i32, CliError> {
    let (_, repo) = load_repo(args)?;
    for id in repo.ids() {
        let stored = repo.get(id).expect("listed ids exist");
        let st = stored.stats();
        writeln!(
            out,
            "{id}\t{}\t{} entities, {} attributes\t{}",
            stored.metadata.title, st.entities, st.attributes, stored.metadata.summary
        )?;
    }
    writeln!(out, "{} schema(s)", repo.len())?;
    Ok(0)
}

fn cmd_show(args: &Args, out: &mut impl Write) -> Result<i32, CliError> {
    let (_, repo) = load_repo(args)?;
    let id = parse_id(args.positional(1, "schema id")?)?;
    let stored = repo
        .get(id)
        .ok_or_else(|| err(format!("schema {id} not found")))?;
    writeln!(out, "# {} ({id})", stored.metadata.title)?;
    if !stored.metadata.summary.is_empty() {
        writeln!(out, "# {}", stored.metadata.summary)?;
    }
    if !stored.metadata.description.is_empty() {
        writeln!(out, "# {}", stored.metadata.description)?;
    }
    write!(out, "{}", schemr_parse::printer::print_ddl(&stored.schema))?;
    let annotations = schemr_codebook::annotate(&stored.schema);
    if !annotations.is_empty() {
        writeln!(out, "\n-- codebook annotations:")?;
        for a in annotations {
            writeln!(
                out,
                "--   {:<28} {}",
                stored.schema.path(a.element),
                a.semantic_type
            )?;
        }
    }
    Ok(0)
}

fn cmd_search(args: &Args, out: &mut impl Write) -> Result<i32, CliError> {
    let (_, repo) = load_repo(args)?;
    let mut request = SearchRequest::default();
    if let Some(kw) = args.flag(&["k", "keywords"]) {
        request.keywords = schemr::parse_keywords(kw);
    }
    if let Some(file) = args.flag(&["f", "fragment"]) {
        let source = std::fs::read_to_string(file)?;
        let fragment = schemr_parse::parse_fragment("fragment", &source)
            .map_err(|e| err(format!("fragment {file}: {e}")))?;
        request.fragments.push(fragment);
    }
    if let Some(n) = args.flag(&["n", "limit"]) {
        match n.parse() {
            Ok(0) => return Err(err("limit must be at least 1")),
            Ok(n) => request.limit = Some(n),
            Err(_) => return Err(err("limit must be an integer")),
        }
    }
    if request.is_empty() {
        return Err(err("search needs -k keywords and/or -f fragment-file"));
    }
    if args.has_flag(&["explain"]) {
        request.explain = true;
    }
    let engine = SchemrEngine::new(repo);
    engine.reindex_full();
    let response = engine
        .search_detailed(&request)
        .map_err(|e| err(e.to_string()))?;
    write!(out, "{}", schemr_viz::format_results(&response.results))?;
    writeln!(
        out,
        "({} candidates, {:.1} ms)",
        response.candidates_evaluated,
        response.timings.total().as_secs_f64() * 1e3
    )?;
    if let Some(trace) = &response.trace {
        writeln!(out, "trace:")?;
        writeln!(
            out,
            "  candidates: {} from index, {} evaluated",
            trace.candidates_from_index, trace.candidates_evaluated
        )?;
        let t = &response.timings;
        for (name, d) in [
            ("candidate_extraction", t.candidate_extraction),
            ("matching", t.matching),
            ("scoring", t.scoring),
        ] {
            writeln!(
                out,
                "  phase {:<21} {:>9.3} ms",
                name,
                d.as_secs_f64() * 1e3
            )?;
        }
        for m in &trace.matchers {
            writeln!(
                out,
                "  matcher {:<19} {:>9.3} ms",
                m.name,
                m.wall.as_secs_f64() * 1e3
            )?;
        }
    }
    Ok(0)
}

fn cmd_export(args: &Args, out: &mut impl Write) -> Result<i32, CliError> {
    let (_, repo) = load_repo(args)?;
    let id = parse_id(args.positional(1, "schema id")?)?;
    let stored = repo
        .get(id)
        .ok_or_else(|| err(format!("schema {id} not found")))?;
    match args.flag(&["format"]).unwrap_or("ddl") {
        "ddl" => write!(out, "{}", schemr_parse::printer::print_ddl(&stored.schema))?,
        "xsd" => write!(
            out,
            "{}",
            schemr_parse::xsd_printer::print_xsd(&stored.schema)
        )?,
        "graphml" => write!(
            out,
            "{}",
            schemr_viz::to_graphml(&stored.schema, &schemr_viz::GraphmlOptions::default())
        )?,
        "svg" => {
            let roots = stored.schema.roots();
            let layout = schemr_viz::tree_layout(&stored.schema, &roots, 3);
            write!(
                out,
                "{}",
                schemr_viz::render_svg(&stored.schema, &layout, &schemr_viz::SvgOptions::default())
            )?;
        }
        other => {
            return Err(err(format!(
                "unknown format `{other}` (ddl|xsd|graphml|svg)"
            )))
        }
    }
    Ok(0)
}

fn cmd_summarize(args: &Args, out: &mut impl Write) -> Result<i32, CliError> {
    let (_, repo) = load_repo(args)?;
    let id = parse_id(args.positional(1, "schema id")?)?;
    let stored = repo
        .get(id)
        .ok_or_else(|| err(format!("schema {id} not found")))?;
    let max_entities = match args.flag(&["entities"]) {
        Some(n) => n.parse().map_err(|_| err("entities must be an integer"))?,
        None => 5,
    };
    let summary = schemr_viz::summarize(&stored.schema, max_entities, 6);
    write!(out, "{}", schemr_parse::printer::print_ddl(&summary))?;
    Ok(0)
}

fn cmd_stats(args: &Args, out: &mut impl Write) -> Result<i32, CliError> {
    let (_, repo) = load_repo(args)?;
    let mut entities = 0usize;
    let mut attributes = 0usize;
    let mut fks = 0usize;
    for id in repo.ids() {
        let st = repo.get(id).expect("listed ids exist").stats();
        entities += st.entities;
        attributes += st.attributes;
        fks += st.foreign_keys;
    }
    writeln!(out, "schemas:      {}", repo.len())?;
    writeln!(out, "entities:     {entities}")?;
    writeln!(out, "attributes:   {attributes}")?;
    writeln!(out, "foreign keys: {fks}")?;
    writeln!(out, "revision:     {}", repo.revision())?;
    let engine = SchemrEngine::new(repo);
    engine.reindex_full();
    let ix = engine.index_stats();
    writeln!(out, "index terms:  {}", ix.distinct_terms)?;
    writeln!(out, "postings:     {}", ix.postings)?;
    Ok(0)
}

fn cmd_serve(args: &Args, out: &mut impl Write) -> Result<i32, CliError> {
    let (_, repo) = load_repo(args)?;
    let bind = args.flag(&["bind"]).unwrap_or("127.0.0.1:7878").to_string();
    let mut config = schemr::EngineConfig::default();
    if let Some(path) = args.flag(&["event-log"]) {
        config.trace.event_log_path = Some(path.into());
    }
    if let Some(ms) = args.flag(&["slowlog-ms"]) {
        let ms: u64 = ms
            .parse()
            .map_err(|_| err("slowlog-ms must be an integer (milliseconds)"))?;
        config.trace.slow_threshold = std::time::Duration::from_millis(ms);
    }
    if let Some(n) = args.flag(&["trace-ring"]) {
        config.trace.ring_capacity = n
            .parse()
            .map_err(|_| err("trace-ring must be an integer"))?;
    }
    let mut server_config = schemr_server::ServerConfig {
        bind,
        workers: 4,
        ..Default::default()
    };
    if let Some(n) = args.flag(&["max-queue"]) {
        server_config.max_queue = n.parse().map_err(|_| err("max-queue must be an integer"))?;
    }
    if let Some(n) = args.flag(&["keepalive-requests"]) {
        server_config.keepalive_requests = n
            .parse()
            .map_err(|_| err("keepalive-requests must be an integer"))?;
    }
    if let Some(ms) = args.flag(&["drain-ms"]) {
        let ms: u64 = ms
            .parse()
            .map_err(|_| err("drain-ms must be an integer (milliseconds)"))?;
        server_config.drain_deadline = std::time::Duration::from_millis(ms);
    }
    if let Some(ms) = args.flag(&["slo-p99-ms"]) {
        let ms: u64 = ms
            .parse()
            .map_err(|_| err("slo-p99-ms must be an integer (milliseconds)"))?;
        server_config.slo.p99_latency = std::time::Duration::from_millis(ms);
    }
    if let Some(pct) = args.flag(&["slo-error-pct"]) {
        server_config.slo.error_budget_pct = pct
            .parse()
            .map_err(|_| err("slo-error-pct must be a number (percent of requests)"))?;
    }
    let serve_for = match args.flag(&["serve-for-ms"]) {
        Some(ms) => Some(std::time::Duration::from_millis(
            ms.parse()
                .map_err(|_| err("serve-for-ms must be an integer (milliseconds)"))?,
        )),
        None => None,
    };
    let engine = Arc::new(SchemrEngine::with_config(repo, config));
    engine.reindex_full();
    let server = schemr_server::SchemrServer::start(engine, server_config)?;
    match serve_for {
        // Bounded run (smoke tests, CI): serve for the window, then
        // drain. The exit code reports whether the drain was clean.
        Some(window) => {
            writeln!(
                out,
                "serving on http://{} for {} ms, then draining",
                server.addr(),
                window.as_millis()
            )?;
            out.flush()?;
            std::thread::sleep(window);
            let clean = server.shutdown();
            writeln!(
                out,
                "drain {}",
                if clean { "clean" } else { "exceeded deadline" }
            )?;
            Ok(if clean { 0 } else { 1 })
        }
        None => {
            writeln!(out, "serving on http://{} — Ctrl-C to stop", server.addr())?;
            out.flush()?;
            // Serve until the process is killed.
            loop {
                std::thread::park();
            }
        }
    }
}

/// One `GET` against a running server: connect, send, read to EOF,
/// return (status, body). `timeout_ms` bounds the read.
fn http_get(addr: &str, target: &str, timeout_ms: u64) -> Result<(u16, String), CliError> {
    let mut stream =
        std::net::TcpStream::connect(addr).map_err(|e| err(format!("connect {addr}: {e}")))?;
    stream
        .set_read_timeout(Some(std::time::Duration::from_millis(timeout_ms)))
        .map_err(|e| err(format!("socket setup: {e}")))?;
    write!(
        stream,
        "GET {target} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| err(format!("send request: {e}")))?;
    let mut raw = String::new();
    std::io::Read::read_to_string(&mut stream, &mut raw)
        .map_err(|e| err(format!("read response: {e}")))?;
    let (head, body) = raw.split_once("\r\n\r\n").unwrap_or((raw.as_str(), ""));
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    Ok((status, body.to_string()))
}

/// Render a byte count the way an operator reads it.
fn fmt_bytes(b: f64) -> String {
    if b >= 1024.0 * 1024.0 {
        format!("{:.1} MiB", b / (1024.0 * 1024.0))
    } else if b >= 1024.0 {
        format!("{:.1} KiB", b / 1024.0)
    } else {
        format!("{b:.0} B")
    }
}

/// `doctor <host:port>` — one-shot operational check against a running
/// server. Folds `/healthz`, `/debug/slo`, `/metrics`, `/debug/index`
/// and `/debug/memory` into a single operator-readable
/// verdict: exit 0 when healthy, 1 when serving but degraded, 2 when
/// unreachable. The debug endpoints are loopback-gated, so run doctor on
/// the host the server lives on.
fn cmd_doctor(args: &Args, out: &mut impl Write) -> Result<i32, CliError> {
    use schemr_obs::json::Json;
    const TIMEOUT_MS: u64 = 5_000;
    /// Tombstone fraction past which a merge is overdue.
    const TOMBSTONE_WARN: f64 = 0.30;

    let addr = args
        .positional(0, "server address (host:port)")?
        .to_string();
    let fetch = |target: &str| -> Result<(u16, Json), CliError> {
        let (status, body) = http_get(&addr, target, TIMEOUT_MS)?;
        let json = Json::parse(&body)
            .map_err(|e| err(format!("{target} answered {status} with bad JSON: {e}")))?;
        Ok((status, json))
    };
    let get_u64 = |j: &Json, key: &str| j.get(key).and_then(Json::as_u64).unwrap_or(0);
    let get_f64 = |j: &Json, key: &str| j.get(key).and_then(Json::as_f64).unwrap_or(0.0);

    let mut problems: Vec<String> = Vec::new();
    writeln!(out, "schemr doctor @ {addr}")?;

    // /healthz — liveness and the folded SLO signal.
    let (_, health) = fetch("/healthz")?;
    let state = health
        .get("status")
        .and_then(Json::as_str)
        .unwrap_or("unknown")
        .to_string();
    writeln!(
        out,
        "  health     {state} (revision {}, {} doc(s) indexed)",
        get_u64(&health, "revision"),
        get_u64(&health, "indexed_docs"),
    )?;
    if state != "ok" {
        problems.push(format!("health status is `{state}`"));
    }

    // /debug/slo — burn rates per rolling window.
    let (slo_status, slo) = fetch("/debug/slo")?;
    if slo_status == 200 {
        let degraded = slo.get("degraded").and_then(Json::as_bool).unwrap_or(false);
        let windows = slo.get("windows").and_then(Json::as_arr).unwrap_or(&[]);
        let burns: Vec<String> = windows
            .iter()
            .map(|w| {
                format!(
                    "{} latency×{:.2} errors×{:.2}",
                    w.get("window").and_then(Json::as_str).unwrap_or("?"),
                    get_f64(w, "latency_burn"),
                    get_f64(w, "error_burn"),
                )
            })
            .collect();
        writeln!(
            out,
            "  slo        p99 objective {} ms, error budget {}%: {}",
            get_u64(&slo, "p99_objective_ms"),
            get_f64(&slo, "error_budget_pct"),
            if burns.is_empty() {
                "no windows".to_string()
            } else {
                burns.join(", ")
            },
        )?;
        if degraded {
            problems.push("fast-window SLO burn rate above 1.0".to_string());
        }
    } else {
        writeln!(out, "  slo        unavailable (http {slo_status})")?;
    }

    // /metrics — the engine's search counters since start. A completed
    // search is a request minus an error (an empty query is rejected
    // before Phase 1); the zero-result rate is over completed searches.
    let (_, metrics) = http_get(&addr, "/metrics", TIMEOUT_MS)?;
    let counter = |name: &str| {
        metrics
            .lines()
            .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
            .unwrap_or(0u64)
    };
    let searches = counter("schemr_search_requests_total")
        .saturating_sub(counter("schemr_search_errors_total"));
    let empty = counter("schemr_search_empty_total");
    writeln!(
        out,
        "  searches   {searches} query(ies), {empty} zero-result ({:.1}%)",
        100.0 * empty as f64 / searches.max(1) as f64,
    )?;
    problems.extend(zero_result_finding(searches, empty));

    // /debug/index — postings statistics; tombstone ratio is the merge
    // pressure gauge.
    let (_, index) = fetch("/debug/index?limit=1")?;
    let tombstone = get_f64(&index, "tombstone_ratio");
    writeln!(
        out,
        "  index      {} live doc(s), {} term(s), {} posting(s), tombstone ratio {:.1}%",
        get_u64(&index, "live_docs"),
        get_u64(&index, "distinct_terms"),
        get_u64(&index, "postings"),
        tombstone * 100.0,
    )?;
    if tombstone > TOMBSTONE_WARN {
        problems.push(format!(
            "index tombstone ratio {:.0}% — merge is overdue",
            tombstone * 100.0
        ));
    }

    let (tokens, analysed) = (
        get_u64(&index, "write_tokens"),
        get_u64(&index, "write_token_analyses"),
    );
    writeln!(
        out,
        "  index write path: {tokens} tokens (names, not paths), {analysed} analysed ({:.1}%)",
        100.0 * analysed as f64 / tokens.max(1) as f64,
    )?;
    problems.extend(write_path_finding(
        get_u64(&index, "live_docs"),
        tokens,
        analysed,
    ));

    // /debug/memory — deep resident bytes per structure.
    let (_, mem) = fetch("/debug/memory")?;
    let nested = |obj: &str, key: &str| {
        mem.get(obj)
            .and_then(|o| o.get(key))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let schemas = nested("repository", "schemas");
    writeln!(
        out,
        "  repository {} schema(s), {} resident ({} a schema)",
        schemas,
        fmt_bytes(nested("repository", "deep_bytes")),
        fmt_bytes(nested("repository", "deep_bytes") / schemas.max(1.0)),
    )?;
    writeln!(
        out,
        "  memory     index {} deep, artifact cache {} (lexicon {} in {} words), trace rings {}",
        fmt_bytes(nested("index", "deep_bytes")),
        fmt_bytes(nested("match_artifact_cache", "resident_bytes")),
        fmt_bytes(nested("match_artifact_cache", "lexicon_bytes")),
        nested("match_artifact_cache", "lexicon_words"),
        fmt_bytes(nested("trace_ring", "bytes") + nested("slowlog_ring", "bytes")),
    )?;

    if problems.is_empty() {
        writeln!(out, "verdict: healthy")?;
        Ok(0)
    } else {
        for p in &problems {
            writeln!(out, "  !! {p}")?;
        }
        writeln!(out, "verdict: degraded ({} finding(s))", problems.len())?;
        Ok(1)
    }
}

/// The doctor's finding on the index write path's word memo: a corpus
/// repeats its vocabulary, so a build of any size analyzes a small share
/// of the tokens it looks up. One that analyzes more than half is
/// indexing text that does not repeat, and the memo only costs memory.
fn write_path_finding(docs: u64, tokens: u64, analysed: u64) -> Option<String> {
    const MIN_DOCS: u64 = 10_000;
    (docs >= MIN_DOCS && analysed * 2 > tokens).then(|| {
        format!(
            "index write path analysed {:.0}% of {tokens} tokens — the vocabulary is not repeating",
            100.0 * analysed as f64 / tokens as f64
        )
    })
}

/// The doctor's finding on the zero-result rate: once at least 20
/// searches have completed, more than half of them finding nothing means
/// the corpus is not answering the workload.
fn zero_result_finding(searches: u64, empty: u64) -> Option<String> {
    const MIN_SEARCHES: u64 = 20;
    (searches >= MIN_SEARCHES && empty * 2 > searches).then(|| {
        format!(
            "zero-result rate {:.0}% — the corpus is not answering the workload",
            100.0 * empty as f64 / searches as f64
        )
    })
}

fn load_events(args: &Args, ix: usize) -> Result<(String, Vec<schemr_obs::SearchEvent>), CliError> {
    let path = args.positional(ix, "event-log path")?.to_string();
    let events = schemr_obs::read_events_at(std::path::Path::new(&path))
        .map_err(|e| err(format!("read {path}: {e}")))?;
    Ok((path, events))
}

/// `tracelog tail|stats|replay` — inspect and re-execute the durable
/// search event log written by `serve --event-log` (or any engine with
/// `TracerConfig::event_log_path` set).
fn cmd_tracelog(args: &Args, out: &mut impl Write) -> Result<i32, CliError> {
    match args.positional(0, "tracelog subcommand (tail|stats|replay)")? {
        "tail" => cmd_tracelog_tail(args, out),
        "stats" => cmd_tracelog_stats(args, out),
        "replay" => cmd_tracelog_replay(args, out),
        other => Err(err(format!(
            "unknown tracelog subcommand `{other}` (tail|stats|replay)"
        ))),
    }
}

fn cmd_tracelog_tail(args: &Args, out: &mut impl Write) -> Result<i32, CliError> {
    let (_, events) = load_events(args, 1)?;
    let limit = match args.flag(&["n", "limit"]) {
        Some(n) => n.parse().map_err(|_| err("limit must be an integer"))?,
        None => 20usize,
    };
    let start = events.len().saturating_sub(limit);
    for ev in &events[start..] {
        let top = ev
            .results
            .first()
            .map_or("-".to_string(), |r| r.id.to_string());
        writeln!(
            out,
            "{}\t{:>9.3} ms\t{} result(s)\ttop={}\t\"{}\"",
            ev.trace_id,
            ev.total_us as f64 / 1e3,
            ev.results.len(),
            top,
            ev.query
        )?;
    }
    writeln!(out, "{} of {} event(s)", events.len() - start, events.len())?;
    Ok(0)
}

fn cmd_tracelog_stats(args: &Args, out: &mut impl Write) -> Result<i32, CliError> {
    let (_, events) = load_events(args, 1)?;
    writeln!(out, "events:       {}", events.len())?;
    if events.is_empty() {
        return Ok(0);
    }
    let n = events.len() as f64;
    let total: u64 = events.iter().map(|e| e.total_us).sum();
    writeln!(out, "mean total:   {:.3} ms", total as f64 / n / 1e3)?;
    for (at, name) in schemr_obs::PHASES.iter().enumerate() {
        let sum: u64 = events.iter().map(|e| e.phase_us[at]).sum();
        writeln!(out, "mean {:<21} {:>9.3} ms", name, sum as f64 / n / 1e3)?;
    }
    let slowest = events.iter().max_by_key(|e| e.total_us).expect("non-empty");
    writeln!(
        out,
        "slowest:      {} ({:.3} ms, \"{}\")",
        slowest.trace_id,
        slowest.total_us as f64 / 1e3,
        slowest.query
    )?;
    let empty = events.iter().filter(|e| e.results.is_empty()).count();
    writeln!(out, "empty results: {empty}")?;
    Ok(0)
}

/// Re-execute every logged query against the repository as it stands
/// now and diff the result lists. Queries are replayed from the logged
/// normalized term text, so fragment structure is flattened to keywords;
/// on an unchanged repository the top-1 (and normally the full list)
/// must come back identical.
fn cmd_tracelog_replay(args: &Args, out: &mut impl Write) -> Result<i32, CliError> {
    let (_, events) = load_events(args, 1)?;
    let repo_path = args.positional(2, "repository path")?;
    let repo = persist::load(repo_path).map_err(|e| err(format!("open {repo_path}: {e}")))?;
    let engine = SchemrEngine::new(Arc::new(repo));
    engine.reindex_full();

    let mut drifted = 0usize;
    let mut replayed = 0usize;
    for ev in &events {
        let keywords = schemr::parse_keywords(&ev.query);
        if keywords.is_empty() {
            writeln!(out, "{}\tskipped (empty query)", ev.trace_id)?;
            continue;
        }
        let request = SearchRequest {
            keywords,
            limit: Some(ev.results.len().max(1)),
            ..SearchRequest::default()
        };
        let response = engine
            .search_detailed(&request)
            .map_err(|e| err(e.to_string()))?;
        replayed += 1;
        let logged: Vec<String> = ev.results.iter().map(|r| r.id.to_string()).collect();
        let now: Vec<String> = response.results.iter().map(|r| r.id.to_string()).collect();
        if logged == now {
            writeln!(out, "{}\tok ({} result(s))", ev.trace_id, now.len())?;
        } else if logged.first() == now.first() {
            writeln!(
                out,
                "{}\ttop-1 stable, tail drifted (logged {:?}, now {:?})",
                ev.trace_id, logged, now
            )?;
        } else {
            drifted += 1;
            writeln!(
                out,
                "{}\tTOP-1 DRIFTED (logged {:?}, now {:?})",
                ev.trace_id, logged, now
            )?;
        }
    }
    writeln!(
        out,
        "replayed {replayed} of {} event(s); {drifted} with a changed top-1",
        events.len()
    )?;
    Ok(if drifted == 0 { 0 } else { 1 })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_str(args: &[&str]) -> (i32, String) {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        let code = match run(&args, &mut out) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("CLI ERR: {e}");
                2
            }
        };
        (code, String::from_utf8(out).unwrap())
    }

    fn run_err(args: &[&str]) -> String {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        run(&args, &mut out).unwrap_err().to_string()
    }

    fn temp_repo() -> (tempdir::TempDirGuard, String) {
        let dir = tempdir::guard("schemr-cli-test");
        let path = dir.path.join("repo.json").display().to_string();
        let (code, _) = run_str(&["init", &path]);
        assert_eq!(code, 0);
        (dir, path)
    }

    /// Minimal temp-dir helper (std only).
    mod tempdir {
        pub struct TempDirGuard {
            pub path: std::path::PathBuf,
        }
        impl Drop for TempDirGuard {
            fn drop(&mut self) {
                let _ = std::fs::remove_dir_all(&self.path);
            }
        }
        static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        pub fn guard(prefix: &str) -> TempDirGuard {
            let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let path = std::env::temp_dir().join(format!("{prefix}-{}-{n}", std::process::id()));
            std::fs::create_dir_all(&path).unwrap();
            TempDirGuard { path }
        }
    }

    #[test]
    fn no_args_prints_usage() {
        let (code, out) = run_str(&[]);
        assert_eq!(code, 2);
        assert!(out.contains("usage:"));
        let (code, out) = run_str(&["help"]);
        assert_eq!(code, 0);
        assert!(out.contains("search"));
    }

    #[test]
    fn unknown_command_is_an_error() {
        assert!(run_err(&["frobnicate"]).contains("unknown command"));
    }

    #[test]
    fn init_import_list_show_roundtrip() {
        let (dir, repo) = temp_repo();
        let ddl = dir.path.join("clinic.sql");
        std::fs::write(
            &ddl,
            "CREATE TABLE patient (height REAL, gender TEXT, latitude REAL, dob DATE)",
        )
        .unwrap();
        let (code, out) = run_str(&["import", &repo, ddl.to_str().unwrap()]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("imported 1 schema"));

        let (code, out) = run_str(&["list", &repo]);
        assert_eq!(code, 0);
        assert!(out.contains("clinic"));
        assert!(out.contains("1 schema(s)"));

        let (code, out) = run_str(&["show", &repo, "s0"]);
        assert_eq!(code, 0);
        assert!(out.contains("CREATE TABLE patient"));
        assert!(
            out.contains("latitude"),
            "codebook annotation expected: {out}"
        );
    }

    #[test]
    fn search_finds_the_right_schema() {
        let (dir, repo) = temp_repo();
        std::fs::write(
            dir.path.join("clinic.sql"),
            "CREATE TABLE patient (height REAL, gender TEXT, diagnosis TEXT)",
        )
        .unwrap();
        std::fs::write(
            dir.path.join("store.sql"),
            "CREATE TABLE orders (total DECIMAL, quantity INT, customer TEXT)",
        )
        .unwrap();
        let (code, _) = run_str(&["import", &repo, dir.path.to_str().unwrap()]);
        assert_eq!(code, 0);

        let (code, out) = run_str(&["search", &repo, "-k", "patient, height", "-n", "1"]);
        assert_eq!(code, 0);
        assert!(out.contains("clinic"), "{out}");
        assert!(!out.lines().any(|l| l.starts_with("2")), "limit 1: {out}");
        // A zero limit is refused, as the server's `limit=0` is.
        let refused = run_err(&["search", &repo, "-k", "patient", "-n", "0"]);
        assert!(refused.contains("limit must be at least 1"), "{refused}");

        // Fragment search from a file.
        let frag = dir.path.join("frag.sql");
        std::fs::write(&frag, "CREATE TABLE orders (total DECIMAL)").unwrap();
        let (code, out) = run_str(&["search", &repo, "-f", frag.to_str().unwrap()]);
        assert_eq!(code, 0);
        assert!(out.lines().nth(2).unwrap().contains("store"), "{out}");
    }

    #[test]
    fn search_explain_prints_the_trace() {
        let (dir, repo) = temp_repo();
        std::fs::write(
            dir.path.join("clinic.sql"),
            "CREATE TABLE patient (height REAL, gender TEXT, diagnosis TEXT)",
        )
        .unwrap();
        run_str(&["import", &repo, dir.path.to_str().unwrap()]);

        let (code, plain) = run_str(&["search", &repo, "-k", "patient"]);
        assert_eq!(code, 0);
        assert!(!plain.contains("trace:"));

        let (code, out) = run_str(&["search", &repo, "-k", "patient", "--explain"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("trace:"), "{out}");
        assert!(out.contains("phase candidate_extraction"), "{out}");
        assert!(out.contains("phase matching"));
        assert!(out.contains("phase scoring"));
        assert!(out.contains("matcher name"));
        assert!(out.contains("matcher context"));
        assert!(out.contains("candidates: "));
    }

    #[test]
    fn export_formats() {
        let (dir, repo) = temp_repo();
        std::fs::write(
            dir.path.join("a.sql"),
            "CREATE TABLE t (a INT, b TEXT, c DATE, d REAL)",
        )
        .unwrap();
        run_str(&["import", &repo, dir.path.to_str().unwrap()]);
        let (_, ddl) = run_str(&["export", &repo, "s0"]);
        assert!(ddl.contains("CREATE TABLE t"));
        let (_, graphml) = run_str(&["export", &repo, "s0", "--format", "graphml"]);
        assert!(graphml.contains("<graphml"));
        let (_, svg) = run_str(&["export", &repo, "s0", "--format", "svg"]);
        assert!(svg.starts_with("<svg"));
        let (_, xsd) = run_str(&["export", &repo, "s0", "--format", "xsd"]);
        assert!(xsd.contains("xs:schema"));
        assert!(run_err(&["export", &repo, "s0", "--format", "pdf"]).contains("unknown format"));
    }

    #[test]
    fn summarize_caps_entities() {
        let (dir, repo) = temp_repo();
        std::fs::write(
            dir.path.join("warehouse.sql"),
            "CREATE TABLE fact (a INT, b INT, s_id INT, p_id INT);
             CREATE TABLE dim_s (id INT, x TEXT);
             CREATE TABLE dim_p (id INT, y TEXT);
             CREATE TABLE scratch (j TEXT)",
        )
        .unwrap();
        run_str(&["import", &repo, dir.path.to_str().unwrap()]);
        let (code, out) = run_str(&["summarize", &repo, "s0", "--entities", "2"]);
        assert_eq!(code, 0);
        assert_eq!(out.matches("CREATE TABLE").count(), 2);
        assert!(out.contains("fact"));
    }

    #[test]
    fn stats_reports_counts() {
        let (dir, repo) = temp_repo();
        std::fs::write(
            dir.path.join("a.sql"),
            "CREATE TABLE t (a INT, b TEXT, c DATE, d REAL)",
        )
        .unwrap();
        run_str(&["import", &repo, dir.path.to_str().unwrap()]);
        let (code, out) = run_str(&["stats", &repo]);
        assert_eq!(code, 0);
        assert!(out.contains("schemas:      1"));
        assert!(out.contains("attributes:   4"));
    }

    #[test]
    fn errors_are_informative() {
        assert!(run_err(&["list", "/nonexistent/repo.json"]).contains("open"));
        let (dir, repo) = temp_repo();
        let _ = dir;
        assert!(run_err(&["show", &repo, "zzz"]).contains("bad schema id"));
        assert!(run_err(&["show", &repo, "s99"]).contains("not found"));
        assert!(run_err(&["search", &repo]).contains("needs -k"));
        assert!(run_err(&["import", &repo]).contains("at least one"));
        assert!(run_err(&["search", &repo, "-k"]).contains("expects a value"));
    }

    #[test]
    fn init_refuses_to_overwrite() {
        let (_dir, repo) = temp_repo();
        assert!(run_err(&["init", &repo]).contains("already exists"));
    }

    /// Run searches through an engine configured to write `log`, so the
    /// tracelog tests exercise the same JSONL the server produces.
    fn write_event_log(repo: &str, log: &std::path::Path, queries: &[&str]) {
        let repo = Arc::new(persist::load(repo).unwrap());
        let engine = SchemrEngine::with_config(
            repo,
            schemr::EngineConfig {
                trace: schemr_obs::TracerConfig {
                    event_log_path: Some(log.to_path_buf()),
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        engine.reindex_full();
        for q in queries {
            let request = SearchRequest {
                keywords: schemr::parse_keywords(q),
                ..SearchRequest::default()
            };
            engine.search_detailed(&request).unwrap();
        }
    }

    #[test]
    fn tracelog_tail_and_stats_summarize_the_log() {
        let (dir, repo) = temp_repo();
        std::fs::write(
            dir.path.join("clinic.sql"),
            "CREATE TABLE patient (height REAL, gender TEXT, diagnosis TEXT)",
        )
        .unwrap();
        run_str(&["import", &repo, dir.path.to_str().unwrap()]);
        let log = dir.path.join("events.log");
        write_event_log(&repo, &log, &["patient height", "gender"]);
        let log_s = log.to_str().unwrap();

        let (code, out) = run_str(&["tracelog", "tail", log_s]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("patient height"), "{out}");
        assert!(out.contains("top=s0"), "{out}");
        assert!(out.contains("2 of 2 event(s)"), "{out}");

        let (code, out) = run_str(&["tracelog", "tail", log_s, "-n", "1"]);
        assert_eq!(code, 0);
        assert!(
            !out.contains("patient height"),
            "limit 1 keeps newest: {out}"
        );
        assert!(out.contains("1 of 2 event(s)"), "{out}");

        let (code, out) = run_str(&["tracelog", "stats", log_s]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("events:       2"), "{out}");
        assert!(out.contains("mean candidate_extraction"), "{out}");
        assert!(out.contains("mean matching"), "{out}");
        assert!(out.contains("mean tightness_scoring"), "{out}");
        assert!(out.contains("slowest:"), "{out}");
    }

    #[test]
    fn tracelog_replay_reproduces_logged_results() {
        let (dir, repo) = temp_repo();
        std::fs::write(
            dir.path.join("clinic.sql"),
            "CREATE TABLE patient (height REAL, gender TEXT, diagnosis TEXT)",
        )
        .unwrap();
        std::fs::write(
            dir.path.join("store.sql"),
            "CREATE TABLE orders (total DECIMAL, quantity INT, customer TEXT)",
        )
        .unwrap();
        run_str(&["import", &repo, dir.path.to_str().unwrap()]);
        let log = dir.path.join("events.log");
        write_event_log(&repo, &log, &["patient height", "orders total customer"]);

        let (code, out) = run_str(&["tracelog", "replay", log.to_str().unwrap(), &repo]);
        assert_eq!(
            code, 0,
            "replay must reproduce top-1 on an unchanged repo: {out}"
        );
        assert!(
            out.contains("replayed 2 of 2 event(s); 0 with a changed top-1"),
            "{out}"
        );
        assert!(!out.contains("DRIFTED"), "{out}");
    }

    #[test]
    fn tracelog_errors_are_informative() {
        assert!(run_err(&["tracelog"]).contains("tracelog subcommand"));
        assert!(run_err(&["tracelog", "frob", "x"]).contains("unknown tracelog subcommand"));
        assert!(run_err(&["tracelog", "tail", "/nonexistent/events.log"]).contains("read"));
        let (_dir, repo) = temp_repo();
        assert!(run_err(&["serve", &repo, "--slowlog-ms", "abc"]).contains("slowlog-ms"));
        assert!(run_err(&["serve", &repo, "--trace-ring", "x"]).contains("trace-ring"));
        assert!(run_err(&["serve", &repo, "--max-queue", "x"]).contains("max-queue"));
        assert!(
            run_err(&["serve", &repo, "--keepalive-requests", "x"]).contains("keepalive-requests")
        );
        assert!(run_err(&["serve", &repo, "--drain-ms", "x"]).contains("drain-ms"));
        assert!(run_err(&["serve", &repo, "--serve-for-ms", "x"]).contains("serve-for-ms"));
        assert!(run_err(&["serve", &repo, "--slo-p99-ms", "abc"]).contains("slo-p99-ms"));
        assert!(run_err(&["serve", &repo, "--slo-error-pct", "x"]).contains("slo-error-pct"));
        assert!(run_err(&["profile", "127.0.0.1:1"]).contains("unknown command"));
        assert!(run_err(&["doctor"]).contains("server address"));
        assert!(run_err(&["doctor", "127.0.0.1:1"]).contains("connect"));
    }

    fn start_server(engine: Arc<SchemrEngine>) -> schemr_server::SchemrServer {
        schemr_server::SchemrServer::start(
            engine,
            schemr_server::ServerConfig {
                bind: "127.0.0.1:0".to_string(),
                workers: 2,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn doctor_reports_a_healthy_server() {
        let (dir, repo) = temp_repo();
        std::fs::write(
            dir.path.join("clinic.sql"),
            "CREATE TABLE patient (height REAL, gender TEXT, diagnosis TEXT)",
        )
        .unwrap();
        run_str(&["import", &repo, dir.path.to_str().unwrap()]);
        let repo = Arc::new(persist::load(&repo).unwrap());
        let engine = Arc::new(SchemrEngine::new(repo));
        engine.reindex_full();
        // One search, so doctor has search counters to report.
        engine
            .search(&SearchRequest::keywords(["patient", "height"]))
            .unwrap();
        let server = start_server(engine);
        let addr = server.addr().to_string();

        let (code, out) = run_str(&["doctor", &addr]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("verdict: healthy"), "{out}");
        assert!(out.contains("health     ok"), "{out}");
        assert!(out.contains("1 query(ies), 0 zero-result"), "{out}");
        assert!(out.contains("tombstone ratio 0.0%"), "{out}");
        // The title, `patient` and its three columns: five tokens, each
        // new. Paths are composed from the parent's terms, so `patient`
        // is read once, not once per column.
        assert!(
            out.contains("index write path: 5 tokens (names, not paths), 5 analysed (100.0%)"),
            "{out}"
        );
        assert!(out.contains("slo"), "{out}");
        assert!(out.contains("repository 1 schema(s), "), "{out}");
        assert!(out.contains("memory     index"), "{out}");
        assert!(out.contains("(lexicon "), "{out}");
        assert!(!out.contains("in 0 words"), "{out}");
        server.shutdown();
    }

    #[test]
    fn doctor_finds_a_large_build_whose_vocabulary_does_not_repeat() {
        assert_eq!(write_path_finding(30_000, 1_129_303, 16_016), None);
        assert_eq!(
            write_path_finding(9_999, 1_000, 1_000),
            None,
            "too small to judge"
        );
        assert_eq!(write_path_finding(10_000, 1_000, 500), None);
        let finding = write_path_finding(10_000, 1_000, 501).expect("over half");
        assert!(finding.contains("50% of 1000 tokens"), "{finding}");
    }

    #[test]
    fn doctor_finds_a_workload_the_corpus_does_not_answer() {
        assert_eq!(
            zero_result_finding(19, 19),
            None,
            "too few searches to judge"
        );
        let finding = zero_result_finding(20, 11).expect("over half");
        assert!(finding.contains("zero-result rate 55%"), "{finding}");
        assert_eq!(zero_result_finding(20, 10), None, "half is not over half");
    }

    #[test]
    fn doctor_flags_an_empty_server_as_degraded() {
        let engine = Arc::new(SchemrEngine::new(Arc::new(Repository::new())));
        engine.reindex_full();
        let server = start_server(engine);
        let addr = server.addr().to_string();

        let (code, out) = run_str(&["doctor", &addr]);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("health     unavailable"), "{out}");
        assert!(out.contains("verdict: degraded"), "{out}");
        assert!(out.contains("health status is `unavailable`"), "{out}");
        server.shutdown();
    }

    #[test]
    fn serve_for_a_bounded_window_exits_with_a_clean_drain() {
        let (_dir, repo) = temp_repo();
        let (code, out) = run_str(&[
            "serve",
            &repo,
            "--bind",
            "127.0.0.1:0",
            "--serve-for-ms",
            "100",
            "--drain-ms",
            "2000",
            "--max-queue",
            "8",
            "--keepalive-requests",
            "4",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("then draining"), "{out}");
        assert!(out.contains("drain clean"), "{out}");
    }
}
