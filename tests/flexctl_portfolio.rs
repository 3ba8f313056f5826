//! Integration tests for `flexctl measure --portfolio`: the engine-backed
//! batch path, its JSON output, the `--city` generator's argument rules,
//! and every documented error path (empty portfolio, malformed JSON,
//! zero-thread request, unknown measure, unknown flag).

use std::io::Write;
use std::process::{Command, Output, Stdio};

use serde::Deserialize;

/// Typed mirror of the `--json` report (the vendored `serde_json` has no
/// dynamic `Value`; typed deserialisation doubles as a schema check). The
/// mirror is deliberately timing- and budget-free so equal portfolios
/// serialise to equal bytes at any thread count.
#[derive(Debug, Deserialize)]
struct JsonReport {
    offers: usize,
    measures: Vec<JsonMeasure>,
}

#[derive(Debug, Deserialize, PartialEq)]
struct JsonMeasure {
    measure: String,
    value: Option<f64>,
    error: Option<String>,
    evaluated: usize,
    failed: usize,
    min: Option<f64>,
    max: Option<f64>,
}

const ALL_EIGHT_MEASURES: [&str; 8] = [
    "Time",
    "Energy",
    "Product",
    "Vector",
    "Time-series",
    "Assignments",
    "Abs. Area",
    "Rel. Area",
];

fn flexctl(args: &[&str], stdin: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_flexctl"));
    cmd.args(args).stdout(Stdio::piped()).stderr(Stdio::piped());
    if stdin.is_some() {
        cmd.stdin(Stdio::piped());
    } else {
        cmd.stdin(Stdio::null());
    }
    let mut child = cmd.spawn().expect("flexctl spawns");
    if let Some(input) = stdin {
        // The child may exit before draining stdin (e.g. a flag error like
        // `--threads 0` is rejected before any input is read), so a broken
        // pipe here is expected; the assertions run on status and output.
        let _ = child
            .stdin
            .take()
            .expect("stdin piped")
            .write_all(input.as_bytes());
    }
    child.wait_with_output().expect("flexctl terminates")
}

fn portfolio_template() -> String {
    let out = flexctl(&["template", "--portfolio"], None);
    assert!(out.status.success(), "flexctl template --portfolio exits 0");
    String::from_utf8(out.stdout).expect("template output is UTF-8")
}

#[test]
fn portfolio_measure_reports_all_eight_measures() {
    let template = portfolio_template();
    let out = flexctl(&["measure", "--portfolio", "-"], Some(&template));
    assert!(
        out.status.success(),
        "measure --portfolio exits 0; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("output is UTF-8");
    assert!(stdout.contains("offers"), "header line present:\n{stdout}");
    for name in ALL_EIGHT_MEASURES {
        assert!(stdout.contains(name), "output missing {name:?}:\n{stdout}");
    }
}

#[test]
fn portfolio_measure_accepts_a_bare_offer_array() {
    let template = portfolio_template();
    let portfolio: flexoffers::Portfolio =
        serde_json::from_str(&template).expect("template parses as a portfolio");
    let bare = serde_json::to_string(&portfolio.into_offers()).expect("offers array re-serialises");
    let out = flexctl(&["measure", "--portfolio", "-"], Some(&bare));
    assert!(
        out.status.success(),
        "bare array accepted; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn portfolio_json_output_is_byte_identical_across_thread_counts() {
    let template = portfolio_template();
    let json = |threads: &str| -> String {
        let out = flexctl(
            &[
                "measure",
                "--portfolio",
                "-",
                "--json",
                "--threads",
                threads,
            ],
            Some(&template),
        );
        assert!(
            out.status.success(),
            "measure --portfolio --json --threads {threads} exits 0; stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("UTF-8")
    };
    // The JSON mirror excludes every budget and wall-clock field, so the
    // whole document is byte-comparable.
    let one = json("1");
    assert_eq!(one, json("8"));

    let report: JsonReport = serde_json::from_str(&one).expect("--json output parses");
    assert!(report.offers > 0);
    assert_eq!(report.measures.len(), 8);
    let time = &report.measures[0];
    assert_eq!(time.measure, "Time");
    assert!(time.value.is_some() && time.error.is_none());
    assert_eq!(time.evaluated + time.failed, report.offers);
    assert!(time.min.is_some() && time.max.is_some());
    assert!(!one.contains("threads"), "mirror must stay budget-free");
    assert!(!one.contains("elapsed"), "mirror must stay wall-clock-free");
}

#[test]
fn portfolio_measure_honours_a_measure_subset() {
    let template = portfolio_template();
    let out = flexctl(
        &["measure", "--portfolio", "-", "time", "energy"],
        Some(&template),
    );
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("UTF-8");
    assert!(stdout.contains("Time"));
    assert!(stdout.contains("Energy"));
    assert!(!stdout.contains("Assignments"));
}

#[test]
fn empty_portfolio_is_rejected() {
    for empty in [r#"{"offers": []}"#, "[]"] {
        let out = flexctl(&["measure", "--portfolio", "-"], Some(empty));
        assert!(!out.status.success(), "empty portfolio {empty:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(
            stderr.contains("empty portfolio"),
            "stderr names the problem: {stderr}"
        );
    }
}

#[test]
fn malformed_json_is_rejected() {
    let out = flexctl(&["measure", "--portfolio", "-"], Some("{not json"));
    assert!(!out.status.success(), "bad JSON must fail");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        stderr.contains("parsing portfolio JSON"),
        "stderr names the problem: {stderr}"
    );
}

#[test]
fn zero_threads_is_rejected() {
    let template = portfolio_template();
    let out = flexctl(
        &["measure", "--portfolio", "-", "--threads", "0"],
        Some(&template),
    );
    assert!(!out.status.success(), "--threads 0 must fail");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        stderr.contains("thread count must be at least 1"),
        "stderr names the problem: {stderr}"
    );
    let non_numeric = flexctl(
        &["measure", "--portfolio", "-", "--threads", "many"],
        Some(&template),
    );
    assert!(!non_numeric.status.success(), "--threads many must fail");
}

#[test]
fn unknown_measure_is_rejected() {
    let template = portfolio_template();
    let out = flexctl(&["measure", "--portfolio", "-", "entropy"], Some(&template));
    assert!(!out.status.success(), "unknown measure must fail");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(stderr.contains("unknown measure"), "stderr: {stderr}");
}

fn stderr_of_failure(args: &[&str], stdin: Option<&str>) -> String {
    let out = flexctl(args, stdin);
    assert!(!out.status.success(), "flexctl {args:?} must fail");
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn unknown_flags_are_rejected_and_shards_is_serve_only() {
    // `--shards` is the live book's shard count: `serve`/`recover` take
    // it, the flat `measure --portfolio` and `simulate` paths do not.
    let stderr = stderr_of_failure(
        &["measure", "--portfolio", "--city", "10", "--shards", "4"],
        None,
    );
    assert!(
        stderr.contains("unknown measure argument --shards"),
        "stderr: {stderr}"
    );
    let stderr = stderr_of_failure(&["simulate", "--scenario", "market", "--shards", "4"], None);
    assert!(
        stderr.contains("unknown simulate argument --shards"),
        "stderr: {stderr}"
    );
    // A misspelt flag is named as such, not taken for a measure or a file.
    let stderr = stderr_of_failure(&["measure", "--portfolio", "--city", "10", "--jsn"], None);
    assert!(
        stderr.contains("unknown measure argument --jsn"),
        "stderr: {stderr}"
    );
}

#[test]
fn positional_measure_names_work_on_either_side_of_city() {
    // Positionals are classified after flag parsing, so a measure name
    // means the same thing before and after --city.
    let run = |args: &[&str]| {
        let out = flexctl(args, None);
        assert!(out.status.success(), "flexctl {args:?} exits 0");
        String::from_utf8(out.stdout).expect("output is UTF-8")
    };
    let before = run(&["measure", "--portfolio", "time", "--city", "10", "--json"]);
    let after = run(&["measure", "--portfolio", "--city", "10", "time", "--json"]);
    assert_eq!(before, after);
    assert!(before.contains("Time"), "subset honoured:\n{before}");
    assert!(!before.contains("Energy"), "subset honoured:\n{before}");
}

#[test]
fn city_flag_rejects_a_competing_file_argument_as_an_unknown_measure() {
    let stderr = stderr_of_failure(
        &["measure", "--portfolio", "input.json", "--city", "10"],
        None,
    );
    assert!(
        stderr.contains("unknown measure input.json"),
        "stderr: {stderr}"
    );
}

#[test]
fn seed_without_city_is_rejected() {
    let template = portfolio_template();
    let stderr = stderr_of_failure(
        &["measure", "--portfolio", "-", "--seed", "9"],
        Some(&template),
    );
    assert!(
        stderr.contains("--seed only applies to a generated portfolio"),
        "stderr: {stderr}"
    );
}
