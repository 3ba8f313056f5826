//! The untraced run: the shipped server under the closed loop, timed from
//! outside, with the correctness oracle checked after the timed window.

use std::path::Path;

use flexoffers_serving::{batch, QueryKind, ServeConfig};

use crate::gen::{preload_offers, Spec, Workload};
use crate::load::{ask, closed_loop, query_loop};
use crate::preload::{engine, write_preload};
use crate::report::Outcome;
use crate::server::{copy_dir, stored_bytes, Server};
use crate::stats::{median, percentile, Tally};

/// Queries each connection sends to the recovered server in each cycle of
/// `ingest_durable`, whose timed window has no queries but its barriers.
const READ_QUERIES_PER_CONN: usize = 100;
/// Restarts after the kill timed for `recover_s` (the median is reported).
const RECOVERY_STARTS: usize = 5;

/// What one cycle (start, load, oracle, kill, recover) measured.
struct Cycle {
    correct: bool,
    window_s: f64,
    ok: u64,
    tally: Tally,
    mutation_ms: Vec<f64>,
    query_ms: Vec<f64>,
    setups: Vec<f64>,
    recoveries: Vec<f64>,
    stored_bytes: u64,
    input_bytes: u64,
    peak_rss_kib: u64,
}

/// The seed of cycle `cycle`; cycle 0 runs the run's own seed, which is
/// the one the traced run replays.
fn cycle_seed(seed: u64, cycle: usize) -> u64 {
    seed.wrapping_add((cycle as u64) << 32)
}

/// Runs `workload` once and reports its end-to-end metrics.
pub fn run(
    flexctl: &Path,
    work: &Path,
    workload: Workload,
    seed: u64,
    seconds: f64,
) -> Result<Outcome, String> {
    let spec = workload.spec();
    let mut out = Outcome::default();
    let mut cycles = Vec::with_capacity(spec.cycles);
    for c in 0..spec.cycles {
        let dir = work.join(format!("cycle-{c}"));
        cycles.push(cycle(
            flexctl,
            &dir,
            workload,
            cycle_seed(seed, c),
            seconds,
            &mut out,
        )?);
        let _ = std::fs::remove_dir_all(&dir);
    }

    let pooled = |f: fn(&Cycle) -> &Vec<f64>| -> Vec<f64> {
        cycles.iter().flat_map(|c| f(c).iter().copied()).collect()
    };
    let (query_ms, mutation_ms) = (pooled(|c| &c.query_ms), pooled(|c| &c.mutation_ms));
    let (setups, recoveries) = (pooled(|c| &c.setups), pooled(|c| &c.recoveries));
    let peaks: Vec<f64> = cycles
        .iter()
        .map(|c| c.peak_rss_kib as f64 / 1024.0)
        .collect();
    let window_s: f64 = cycles.iter().map(|c| c.window_s).sum();
    let ok: u64 = cycles.iter().map(|c| c.ok).sum();
    let stored: u64 = cycles.iter().map(|c| c.stored_bytes).sum();
    let input: u64 = cycles.iter().map(|c| c.input_bytes).sum();
    let mut tally = Tally::default();
    for c in &cycles {
        tally.merge(&c.tally);
    }

    out.correct = cycles.iter().all(|c| c.correct);
    out.attempted = tally.attempted;
    out.failed = tally.failed();
    out.metric("throughput_rps", ok as f64 / window_s);
    let pick = |name: &str, samples: &[f64], p: f64| {
        percentile(samples, p).ok_or_else(|| {
            format!(
                "{name}: {} samples leave fewer than ten beyond the percentile",
                samples.len()
            )
        })
    };
    out.metric("query_p50_ms", pick("query_p50_ms", &query_ms, 50.0)?);
    out.metric("query_p90_ms", pick("query_p90_ms", &query_ms, 90.0)?);
    out.metric(
        "mutation_p99_ms",
        pick("mutation_p99_ms", &mutation_ms, 99.0)?,
    );
    // Printed, not gated: the round trip of an enqueued mutation is a pair
    // of thread wake-ups, and on a shared 2-vCPU host its median moved by
    // up to 78% between runs minutes apart (see METRICS.md).
    let mutation_p50 = pick("mutation_p50_ms", &mutation_ms, 50.0)?;
    out.note(format!(
        "mutation_p50_ms {mutation_p50} ms (printed, not gated)"
    ));
    out.metric("setup_s", median(&setups).expect("set-up ran"));
    out.metric("recover_s", median(&recoveries).expect("recovery ran"));
    out.metric(
        "stored_bytes_per_input_byte",
        stored as f64 / input.max(1) as f64,
    );
    out.metric("peak_rss_mb", median(&peaks).expect("a cycle ran"));

    out.note(format!(
        "{} cycle(s), windows {window_s:.3} s in all, {ok} requests ok, {} queries and {} mutations sampled",
        cycles.len(),
        query_ms.len(),
        mutation_ms.len()
    ));
    out.note(error_rate_line(&tally));
    for (name, starts) in [("setup_s", &setups), ("recover_s", &recoveries)] {
        let starts: Vec<String> = starts.iter().map(|s| format!("{s:.4}")).collect();
        out.note(format!(
            "{name} is the median of {} start-ups: {}",
            starts.len(),
            starts.join(" ")
        ));
    }
    let peaks: Vec<String> = peaks.iter().map(|p| format!("{p:.1}")).collect();
    out.note(format!(
        "peak_rss_mb is the median over cycles: {}",
        peaks.join(" ")
    ));
    out.note(format!(
        "stored {stored} bytes (journal + snapshot) for {input} bytes of mutation events"
    ));
    Ok(out)
}

/// One cycle in `dir`: start the server on the preload (timing each
/// start-up), run the closed loop, check the oracle, SIGKILL, restart on
/// copies of the killed directory (timing recovery). On `ingest_durable`
/// the first answer after recovery must equal the pre-kill answer, and
/// read-only queries against the recovered server give the query samples.
fn cycle(
    flexctl: &Path,
    dir: &Path,
    workload: Workload,
    seed: u64,
    seconds: f64,
    out: &mut Outcome,
) -> Result<Cycle, String> {
    let spec = workload.spec();
    let preload = preload_offers(seed, spec.preload);
    let preload_dir = dir.join("preload");
    let preload_bytes = write_preload(&spec, &preload_dir, &preload)?;
    let (server, setups) = start_copies(
        flexctl,
        dir,
        &spec,
        &preload_dir,
        "serve",
        spec.setup_spawns,
    )?;
    let load = closed_loop(server.addr, workload, seed, &preload, seconds);
    drop(preload);
    for (c, conn) in load.conns.iter().enumerate() {
        if let Some(fault) = &conn.fault {
            out.note(format!("connection {c} stopped: {fault}"));
        }
    }

    // The oracle, outside the window: the final answers must equal a
    // batch evaluation of the book the acknowledged mutations imply.
    let expected = load.expected_book();
    let engine = engine(&spec);
    let config = ServeConfig::default();
    let mut correct = true;
    let mut final_measure = String::new();
    for kind in [QueryKind::Measure, QueryKind::Aggregate] {
        let got = ask(server.addr, kind)?;
        if got != batch::answer(&engine, &config, &expected, kind) {
            correct = false;
            out.note(format!(
                "oracle mismatch on the final {kind} answer ({} offers expected)",
                expected.len()
            ));
        }
        if kind == QueryKind::Measure {
            final_measure = got;
        }
    }
    if load.last_barrier() != Some(final_measure.as_str()) {
        correct = false;
        out.note("oracle mismatch: the last barrier answer differs from the final measure answer");
    }
    let peak_rss_kib = server.peak_rss_kib();
    let killed_dir = server.dir.clone();
    drop(server);

    let mut tally = load.tally();
    let mut query_ms: Vec<f64> = load.conns.iter().flat_map(|c| c.query_ms.clone()).collect();
    let (recovered, recoveries) =
        start_copies(flexctl, dir, &spec, &killed_dir, "recover", RECOVERY_STARTS)?;
    if workload == Workload::IngestDurable {
        if ask(recovered.addr, QueryKind::Measure)? != final_measure {
            correct = false;
            out.note(
                "oracle mismatch: the first answer after recovery differs from the pre-kill answer",
            );
        }
        let (reads, read_tally) = query_loop(recovered.addr, READ_QUERIES_PER_CONN);
        query_ms = reads;
        tally.merge(&read_tally);
    }
    drop(recovered);
    Ok(Cycle {
        correct,
        window_s: load.window.as_secs_f64(),
        ok: load.tally().ok,
        tally,
        mutation_ms: load
            .conns
            .iter()
            .flat_map(|c| c.mutation_ms.clone())
            .collect(),
        query_ms,
        setups,
        recoveries,
        stored_bytes: stored_bytes(&killed_dir),
        input_bytes: preload_bytes + load.conns.iter().map(|c| c.mutation_bytes).sum::<u64>(),
        peak_rss_kib,
    })
}

/// Starts the server `count` times, each on a fresh copy of `from`, and
/// keeps the last one running. Returns it with every start-up time in s.
fn start_copies(
    flexctl: &Path,
    work: &Path,
    spec: &Spec,
    from: &Path,
    name: &str,
    count: usize,
) -> Result<(Server, Vec<f64>), String> {
    let mut times = Vec::with_capacity(count);
    for k in 0..count {
        let dir = work.join(format!("{name}-{k}"));
        copy_dir(from, &dir)?;
        let (server, took) = Server::start(flexctl, spec, &dir)?;
        times.push(took.as_secs_f64());
        if k + 1 == count {
            return Ok((server, times));
        }
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }
    Err(format!("{name}: no start-up requested"))
}

/// `error_rate` with its base spelled out.
fn error_rate_line(tally: &Tally) -> String {
    format!(
        "error_rate {} ratio = ({} error replies + {} transport failures + {} refused connections) / {} attempted",
        tally.error_rate(),
        tally.error_replies,
        tally.transport_failures,
        tally.refused,
        tally.attempted
    )
}
