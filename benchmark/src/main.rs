//! schemr's one benchmark.
//!
//! ```text
//! schemr-benchmark --workload <serve_hot|serve_broad|serve_churn|ingest|all>
//!                  [--seed N] [--seconds S | --duration-s S] [--trace 0|1]
//!                  [--quick] [--out FILE] [--trace-out FILE]
//! schemr-benchmark --compare A.json[,A2.json…] B.json[,B2.json…]
//! ```
//!
//! One workload runs per process, so set-up time, peak memory and
//! allocation counts never bleed from one into the next; `all` re-runs
//! this executable once per workload and trace mode. The last line of
//! standard output is the result; the human table goes to standard
//! error. See `README.md` beside this package for the glossary.

mod client;
mod fixture;
mod ingest;
mod inproc;
mod layers;
mod report;
mod serve;
mod spans;
mod stats;
mod sys;
mod writer;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use schemr_obs::json::Json;

use crate::report::{RunResult, WORKLOADS};
use crate::serve::{Kind, Options};
use crate::sys::Fingerprint;

/// One relaxed add per allocation, the same on both sides of any
/// comparison; `allocs_per_op` reads it.
#[global_allocator]
static GLOBAL: schemr_obs::alloc::CountingAlloc = schemr_obs::alloc::CountingAlloc;

/// Timed seconds of a recorded run when the caller names none
/// (`run_seconds` in `BENCHMARK.json`), and of a `--quick` smoke run.
const DEFAULT_SECONDS: f64 = 10.0;
const QUICK_SECONDS: f64 = 3.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    quick: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    compare: Option<(String, String)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        traced: false,
        quick: false,
        out: None,
        trace_out: None,
        compare: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" | "--duration-s" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--quick" => args.quick = true,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            "--compare" => args.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Files the benchmark writes by itself go next to its executable: that
/// is inside the build directory, which `.gitignore` names.
fn scratch_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe
        .parent()
        .ok_or("the executable has no parent directory")?
        .join("bench-scratch");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn run_workload(name: &str, args: &Args) -> Result<RunResult, String> {
    let scratch = scratch_dir()?;
    let options = Options {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.quick {
            QUICK_SECONDS
        } else {
            DEFAULT_SECONDS
        }),
        traced: args.traced,
        corpus_size: if args.quick {
            fixture::QUICK_CORPUS
        } else {
            fixture::FULL_CORPUS
        },
        trace_out: args
            .trace_out
            .clone()
            .unwrap_or_else(|| scratch.join(format!("spans-{name}.jsonl"))),
    };
    let result = match name {
        "serve_hot" => serve::run(Kind::Hot, &options),
        "serve_broad" => serve::run(Kind::Broad, &options),
        "serve_churn" => serve::run(Kind::Churn, &options),
        "ingest" => ingest::run(&options, &scratch),
        other => Err(format!("unknown workload `{other}`")),
    }?;
    result.check()?;
    Ok(result)
}

/// Run every workload, untraced then traced, each in a process of its
/// own, and gather their documents into one.
fn run_all(args: &Args) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let scratch = scratch_dir()?;
    let mut documents = Vec::new();
    for (workload, _) in WORKLOADS {
        for trace in ["0", "1"] {
            let doc_path = scratch.join(format!(
                "run-{workload}-{trace}-{}.json",
                std::process::id()
            ));
            let mut child = std::process::Command::new(&exe);
            child
                .args(["--workload", workload, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .arg("--out")
                .arg(&doc_path)
                .stdout(std::process::Stdio::null());
            if let Some(s) = args.seconds {
                child.args(["--seconds", &s.to_string()]);
            }
            if args.quick {
                child.arg("--quick");
            }
            // `status` waits for the child to end.
            let status = child.status().map_err(|e| format!("{workload}: {e}"))?;
            if !status.success() {
                return Err(format!("{workload} --trace {trace} exited with {status}"));
            }
            let doc = std::fs::read_to_string(&doc_path)
                .map_err(|e| format!("{}: {e}", doc_path.display()))?;
            let _ = std::fs::remove_file(&doc_path);
            documents.push(doc);
        }
    }
    Ok(report::suite_document(
        &Fingerprint::read(),
        args.seed,
        &documents,
    ))
}

fn load_documents(list: &str) -> Result<Vec<Json>, String> {
    list.split(',')
        .map(|path| {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            Json::parse(&text).map_err(|e| format!("{path}: {} at byte {}", e.message, e.pos))
        })
        .collect()
}

fn write_out(path: &Path, document: &str) -> Result<(), String> {
    std::fs::write(path, format!("{document}\n")).map_err(|e| format!("{}: {e}", path.display()))
}

fn real_main() -> Result<ExitCode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;

    if let Some((a, b)) = &args.compare {
        let rows = report::compare(&load_documents(a)?, &load_documents(b)?)?;
        print!("{}", report::comparison_table(&rows));
        let exceeded = rows.iter().filter(|r| r.exceeded()).count();
        println!("{exceeded} of {} bounds exceeded", rows.len());
        return Ok(if exceeded == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }

    let workload = args
        .workload
        .as_deref()
        .ok_or("--workload <name|all> or --compare <a> <b> is required")?;
    if workload == "all" {
        let document = run_all(&args)?;
        if let Some(path) = &args.out {
            write_out(path, &document)?;
        }
        println!("{document}");
        return Ok(ExitCode::SUCCESS);
    }

    let result = run_workload(workload, &args)?;
    eprint!("{}", result.table());
    if let Some(path) = &args.out {
        write_out(path, &result.document(&Fingerprint::read()))?;
    }
    println!("{}", result.result_line());
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("schemr-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
