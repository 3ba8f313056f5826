//! End-to-end benchmark of the shipped server, `flexctl serve --listen`.
//!
//! ```text
//! e2e_bench --flexctl PATH --workload NAME --seed N --seconds S --trace 0|1
//!           [--profile NAME] [--repeat N]
//! ```
//!
//! `--trace 0` drives the server from a closed loop of two connections and
//! prints the end-to-end metrics; `--trace 1` replays the same generated
//! requests in process with a span around every layer call and prints the
//! per-layer metrics. Every run checks the answers against the batch
//! oracle and prints a host record. The last stdout line is the JSON
//! result. `--repeat N` is the steadiness mode: it runs the workload N
//! times, on seeds `--seed`, `--seed + 1`, …, and prints each metric's
//! median, quartiles and spread against its bound in `BENCHMARK.json`.
//!
//! `e2e_bench/run.sh` builds both binaries and supplies `--flexctl`.

mod e2e;
mod gen;
mod host;
mod load;
mod preload;
mod report;
mod server;
mod stats;
mod trace;
mod traced;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use gen::Workload;
use host::Host;
use report::{unit_of, Outcome};

/// Working space for journal directories, removed after each run.
const WORK_ROOT: &str = ".bench_work";
/// Where traced runs write their spans.
const OUT_ROOT: &str = ".bench_out";

struct Args {
    flexctl: PathBuf,
    profile: String,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut flexctl = None;
    let mut profile = "unknown".to_owned();
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut repeat = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--flexctl" => flexctl = Some(PathBuf::from(&value)),
            "--profile" => profile = value,
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!(
                        "unknown workload {value:?}; expected one of {}",
                        names.join(", ")
                    )
                })?)
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| bad(&e))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            "--repeat" => {
                let n: usize = value.parse().map_err(|e| bad(&e))?;
                if n < 2 {
                    return Err("--repeat needs at least 2 runs".to_owned());
                }
                repeat = Some(n);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let flexctl = flexctl.ok_or("--flexctl PATH is required")?;
    if !flexctl.is_file() {
        return Err(format!("no flexctl binary at {}", flexctl.display()));
    }
    Ok(Args {
        flexctl,
        profile,
        workload: workload.ok_or("--workload NAME is required")?,
        seed,
        seconds,
        trace,
        repeat,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match args.repeat {
        Some(n) => steadiness(&args, n),
        None => single(&args),
    }
}

/// Runs the workload once in a fresh work directory (removed afterwards)
/// and prints the host record. Returns the outcome.
fn run_once(args: &Args, seed: u64) -> Result<Outcome, String> {
    let work = Path::new(WORK_ROOT).join(format!(
        "{}-seed{seed}-pid{}",
        args.workload.name(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let host = Host::probe(&work, &args.profile);
    println!("host {}", host.json());
    let result = if args.trace {
        traced::run(&args.flexctl, &work, args.workload, seed, args.seconds).and_then(
            |(outcome, tracer)| {
                std::fs::create_dir_all(OUT_ROOT).map_err(|e| format!("create {OUT_ROOT}: {e}"))?;
                let path = Path::new(OUT_ROOT)
                    .join(format!("trace-{}-seed{seed}.jsonl", args.workload.name()));
                let text = format!("{{\"host\":{}}}\n{}", host.json(), tracer.to_jsonl());
                std::fs::write(&path, text)
                    .map_err(|e| format!("write {}: {e}", path.display()))?;
                println!("spans written to {}", path.display());
                Ok(outcome)
            },
        )
    } else {
        e2e::run(&args.flexctl, &work, args.workload, seed, args.seconds)
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(WORK_ROOT);
    result
}

fn single(args: &Args) -> ExitCode {
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let outcome = match run_once(args, args.seed) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for line in &outcome.notes {
        println!("{line}");
    }
    for (name, value) in &outcome.metrics {
        println!("metric {name} {value} {}", unit_of(name));
    }
    println!("{}", outcome.json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: the answers did not match the oracle");
        ExitCode::FAILURE
    }
}

/// Repeats the workload `n` times on consecutive seeds and prints each
/// metric's median, quartiles and spread against its bound.
fn steadiness(args: &Args, n: usize) -> ExitCode {
    let bounds = match read_bounds() {
        Ok(bounds) => bounds,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut runs: Vec<Outcome> = Vec::with_capacity(n);
    for i in 0..n {
        let seed = args.seed + i as u64;
        match run_once(args, seed) {
            Ok(outcome) if outcome.correct => {
                let line: Vec<String> = outcome
                    .metrics
                    .iter()
                    .map(|(name, v)| format!("{name}={v:.6}"))
                    .collect();
                println!("run {i} seed {seed}: {}", line.join(" "));
                runs.push(outcome);
            }
            Ok(_) => {
                eprintln!("error: run {i} (seed {seed}) failed the oracle");
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("error: run {i} (seed {seed}): {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "{:<40} {:>12} {:>12} {:>12} {:>8} {:>6} {:>8}",
        "metric", "median", "q1", "q3", "spread", "bound", "spr/bnd"
    );
    let mut json = Vec::new();
    for (name, _) in &runs[0].metrics {
        let values: Vec<f64> = runs.iter().filter_map(|o| o.get(name)).collect();
        let med = stats::median(&values).unwrap_or(0.0);
        let [q1, _, q3] = stats::quartiles(&values).unwrap_or([0.0; 3]);
        let spread = stats::spread(&values).unwrap_or(0.0);
        let bound = bounds.iter().find(|(b, _)| b == name).map(|(_, v)| *v);
        let (bound_text, share) = match bound {
            Some(b) => (format!("{b}"), format!("{:.3}", spread / b)),
            None => ("-".to_owned(), "-".to_owned()),
        };
        println!(
            "{name:<40} {med:>12.4} {q1:>12.4} {q3:>12.4} {spread:>8.4} {bound_text:>6} {share:>8}"
        );
        json.push(format!(
            "{}:{{\"median\":{},\"q1\":{},\"q3\":{},\"spread\":{},\"bound\":{}}}",
            host::quote(name),
            report::number(med),
            report::number(q1),
            report::number(q3),
            report::number(spread),
            bound.map_or("null".to_owned(), report::number)
        ));
    }
    println!(
        "{{\"workload\":{},\"runs\":{n},\"first_seed\":{},\"metrics\":{{{}}}}}",
        host::quote(args.workload.name()),
        args.seed,
        json.join(",")
    );
    ExitCode::SUCCESS
}

/// `(name, bound)` of every end-to-end metric in `BENCHMARK.json`.
fn read_bounds() -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json (run from the repository root): {e}"))?;
    let value: serde::Value =
        serde_json::from_str(&text).map_err(|e| format!("parse BENCHMARK.json: {e}"))?;
    let Some(serde::Value::Array(entries)) = value.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".to_owned());
    };
    Ok(entries
        .iter()
        .filter_map(|e| {
            let name = e.get("name")?.as_str()?.to_owned();
            Some((name, e.get("bound")?.as_f64()?))
        })
        .collect())
}
