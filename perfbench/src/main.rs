//! `nosq-perfbench`: the repository's end-to-end and per-layer
//! benchmark.
//!
//! ```text
//! nosq-perfbench run --workload sweep|table5|sampled|serve --seed N
//!                    --seconds S --trace 0|1 --out DIR
//! nosq-perfbench daemon --journal FILE
//! ```
//!
//! `run` measures one workload for `S` seconds and prints the outputs'
//! digest and, as its last line, one JSON result object. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` reports the per-layer
//! metrics from spans recorded around the calls into each layer, and
//! writes the spans to `DIR/spans.jsonl`. `daemon` hosts the
//! `nosq serve` daemon with its default options, for the `serve`
//! workload to start as a child process.

mod metrics;
mod offline;
mod serve;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use nosq_lab::json::{self, Json};
use nosq_serve::{ServeOptions, Server};

use crate::metrics::{result_line, Outcome, END_TO_END, PER_LAYER};
use crate::offline::Kind;
use crate::spans::{write_jsonl, Recorder};

/// The seed whose output digests `digests.json` records.
const DEFAULT_SEED: u64 = 1;

/// The recorded digest of `workload` at [`DEFAULT_SEED`].
fn recorded_digest(workload: &str) -> Option<u64> {
    let doc = json::parse(include_str!("../digests.json")).expect("digests.json parses");
    doc.get(workload)
        .and_then(Json::as_str)
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
        out: PathBuf::from(".perfbench_runs/run"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("`{flag}` expects a whole number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?,
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("`--trace` expects 0 or 1".to_owned()),
                }
            }
            "--out" => parsed.out = PathBuf::from(value),
            _ => return Err(format!("unknown option `{flag}`")),
        }
    }
    Ok(parsed)
}

fn run(args: &Args) -> Result<Outcome, String> {
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("creating {}: {e}", args.out.display()))?;
    let expected = if args.seed == DEFAULT_SEED {
        Some(recorded_digest(&args.workload).unwrap_or(0))
    } else {
        None
    };
    let mut rec = Recorder::new(Instant::now(), 0);
    let kind = match args.workload.as_str() {
        "sweep" => Kind::Sweep,
        "table5" => Kind::Table5,
        "sampled" => Kind::Sampled,
        "serve" => {
            return serve::run(
                args.seed,
                args.seconds,
                args.trace,
                expected,
                &args.out,
                &mut rec,
            )
            .and_then(|outcome| finish(args, &rec, outcome))
        }
        other => return Err(format!("unknown workload `{other}`")),
    };
    let outcome = offline::run(
        kind,
        args.seed,
        args.seconds,
        args.trace,
        expected,
        &mut rec,
    );
    finish(args, &rec, outcome)
}

fn finish(args: &Args, rec: &Recorder, outcome: Outcome) -> Result<Outcome, String> {
    if args.trace {
        let path = args.out.join("spans.jsonl");
        write_jsonl(&path, rec.spans()).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(outcome)
}

fn daemon(args: &[String]) -> ExitCode {
    let journal = match args {
        [flag, path] if flag == "--journal" => PathBuf::from(path),
        _ => {
            eprintln!("usage: nosq-perfbench daemon --journal FILE");
            return ExitCode::from(2);
        }
    };
    nosq_serve::signal::install();
    let server = match Server::bind(ServeOptions {
        journal: Some(journal),
        watch_signals: true,
        ..ServeOptions::default()
    }) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("nosq-perfbench daemon: {e}");
            return ExitCode::FAILURE;
        }
    };
    {
        use std::io::Write;
        let mut stdout = std::io::stdout();
        let _ = writeln!(stdout, "listening on {}", server.local_addr());
        let _ = stdout.flush();
    }
    match server.run() {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("nosq-perfbench daemon: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("daemon") => return daemon(&argv[1..]),
        Some("run") => {}
        _ => {
            eprintln!(
                "usage: nosq-perfbench run --workload W --seed N --seconds S --trace 0|1 --out DIR"
            );
            return ExitCode::from(2);
        }
    }
    let args = match parse_args(&argv[1..]) {
        Ok(args) if !args.workload.is_empty() => args,
        Ok(_) => {
            eprintln!("nosq-perfbench: `--workload` is required");
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("nosq-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("nosq-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (decls, strict) = if args.trace {
        (PER_LAYER, false)
    } else {
        (END_TO_END, true)
    };
    for decl in decls {
        let value = outcome.values.get(decl.name).copied().unwrap_or(0.0);
        eprintln!(
            "{:<26} {:>16.6} {:<6} ({} is better)",
            decl.name, value, decl.unit, decl.better
        );
    }
    match result_line(&outcome, decls, strict) {
        Ok(line) => {
            println!("digest {} {:016x}", args.workload, outcome.digest);
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("nosq-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
