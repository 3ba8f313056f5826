//! Bench-regression comparison: is a freshly measured engine baseline
//! still in the same league as the committed one?
//!
//! CI regenerates `BENCH_engine_ci.json` on whatever runner it lands on
//! and compares it against the committed `BENCH_engine.json` via the
//! `bench_check` binary. Absolute throughput is meaningless across hosts,
//! so both sides are normalised to *per-core* throughput — each engine
//! run's offers/sec divided by the parallelism it could actually use
//! (`min(threads, host_cpus)`) — and the gate only fails when the
//! candidate's best per-core figure drops below a generous fraction of
//! the baseline's (default 0.5×). That tolerates runner noise and CPU
//! generation gaps while still catching a hot path that got an order of
//! magnitude slower.
//!
//! Serving reports (`BENCH_serving.json`) also carry a cross-tier
//! invariant that needs no baseline: at the largest size, every warm
//! one-update query must be faster than the batch rebuild it replaces.

use std::fmt;

use serde::Deserialize;

/// The schema tag `bench_report` stamps into its JSON.
pub const ENGINE_BENCH_SCHEMA: &str = "flexoffers-engine-bench/1";

/// The default failure threshold: candidate per-core throughput below
/// half the baseline fails the gate.
pub const DEFAULT_MIN_RATIO: f64 = 0.5;

/// One sequential `of_set` loop timing (mirror of `bench_report`'s JSON).
#[derive(Clone, Debug, Deserialize)]
pub struct SequentialRun {
    /// Portfolio size.
    pub offers: usize,
    /// Wall-clock seconds of the fastest pass.
    pub secs: f64,
    /// Throughput.
    pub offers_per_sec: f64,
}

/// One engine timing (mirror of `bench_report`'s JSON).
#[derive(Clone, Debug, Deserialize)]
pub struct EngineRun {
    /// Portfolio size.
    pub offers: usize,
    /// Worker threads the run used.
    pub threads: usize,
    /// Wall-clock seconds of the fastest pass.
    pub secs: f64,
    /// Throughput.
    pub offers_per_sec: f64,
}

/// The genuinely parallel data point a report recorded on a multi-core
/// host (mirror of `bench_report`'s optional `multi_core` section).
#[derive(Clone, Debug, Deserialize)]
pub struct MultiCoreRun {
    /// Portfolio size.
    pub offers: usize,
    /// Worker threads the run used (capped at the host's cpus).
    pub threads: usize,
    /// Wall-clock seconds of the fastest pass.
    pub secs: f64,
    /// Throughput.
    pub offers_per_sec: f64,
    /// Same size at 1 thread divided by this run.
    pub speedup_vs_1_thread: f64,
}

/// Typed mirror of a `BENCH_engine.json` report.
#[derive(Clone, Debug)]
pub struct EngineBenchReport {
    /// Schema tag; must equal [`ENGINE_BENCH_SCHEMA`].
    pub schema: String,
    /// Workload description.
    pub workload: String,
    /// Number of measures evaluated per offer.
    pub measures: usize,
    /// CPUs the host offered when the report was recorded.
    pub host_cpus: usize,
    /// Sequential baseline timings.
    pub sequential: Vec<SequentialRun>,
    /// Engine timings.
    pub engine: Vec<EngineRun>,
    /// Recorded speedup headline.
    pub speedup_8_threads_largest: f64,
    /// Multi-core scaling section; absent in reports recorded on
    /// single-core hosts (and in reports predating the section).
    pub multi_core: Option<MultiCoreRun>,
    /// `(offers, secs)` of every engine run that recorded a warm
    /// one-update query (`update_query_secs`, serving reports only).
    pub warm_queries: Vec<(usize, f64)>,
}

// Hand-written rather than derived: the vendored serde derive has no
// `#[serde(default)]`, and `multi_core` must tolerate being absent (or
// null) so reports from single-core hosts and pre-section baselines keep
// parsing.
impl serde::Deserialize for EngineBenchReport {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let field = |name: &str| {
            v.get(name).ok_or_else(|| {
                serde::DeError::custom(format!("missing field `{name}` in EngineBenchReport"))
            })
        };
        Ok(Self {
            schema: Deserialize::from_value(field("schema")?)?,
            workload: Deserialize::from_value(field("workload")?)?,
            measures: Deserialize::from_value(field("measures")?)?,
            host_cpus: Deserialize::from_value(field("host_cpus")?)?,
            sequential: Deserialize::from_value(field("sequential")?)?,
            engine: Deserialize::from_value(field("engine")?)?,
            speedup_8_threads_largest: Deserialize::from_value(field(
                "speedup_8_threads_largest",
            )?)?,
            multi_core: match v.get("multi_core") {
                Some(section) => Deserialize::from_value(section)?,
                None => None,
            },
            warm_queries: match field("engine")? {
                serde::Value::Array(runs) => runs
                    .iter()
                    .filter_map(|run| Some((run.get("offers")?, run.get("update_query_secs")?)))
                    .map(|(offers, secs)| {
                        Ok((
                            Deserialize::from_value(offers)?,
                            Deserialize::from_value(secs)?,
                        ))
                    })
                    .collect::<Result<_, serde::DeError>>()?,
                _ => Vec::new(),
            },
        })
    }
}

impl EngineBenchReport {
    /// The report's best per-core engine throughput: each run's
    /// offers/sec divided by the parallelism it could actually use,
    /// maximised over runs. `None` when the report has no engine runs.
    pub fn per_core_peak(&self) -> Option<f64> {
        self.engine
            .iter()
            .map(|r| r.offers_per_sec / r.threads.min(self.host_cpus).max(1) as f64)
            .fold(None, |best: Option<f64>, v| {
                Some(best.map_or(v, |b| b.max(v)))
            })
    }

    /// The slowest warm one-update query at the largest size over the
    /// batch rebuild of that size (the largest `sequential` run) — below
    /// 1.0 when the incremental tier beats the rebuild it replaces.
    /// `None` for reports without warm queries or batch runs.
    pub fn incremental_vs_batch(&self) -> Option<f64> {
        let largest = self.warm_queries.iter().map(|&(offers, _)| offers).max()?;
        let batch = self.sequential.iter().max_by_key(|run| run.offers)?;
        self.warm_queries
            .iter()
            .filter(|&&(offers, _)| offers == largest)
            .map(|&(_, secs)| secs / batch.secs)
            .reduce(f64::max)
    }
}

/// Why a comparison could not be carried out (distinct from a failed
/// gate, which is a [`RegressionVerdict`] with `passed() == false`).
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum RegressionError {
    /// A report carried an unexpected schema tag.
    SchemaMismatch {
        /// Which side was malformed (`"baseline"` / `"candidate"`).
        side: &'static str,
        /// The tag found.
        found: String,
    },
    /// A report contained no engine runs to normalise.
    NoEngineRuns {
        /// Which side was empty.
        side: &'static str,
    },
}

impl fmt::Display for RegressionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegressionError::SchemaMismatch { side, found } => write!(
                f,
                "{side} report has schema {found:?}, expected {ENGINE_BENCH_SCHEMA:?}"
            ),
            RegressionError::NoEngineRuns { side } => {
                write!(f, "{side} report has no engine runs")
            }
        }
    }
}

impl std::error::Error for RegressionError {}

/// The outcome of comparing a candidate bench report against a baseline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RegressionVerdict {
    /// Baseline per-core throughput (offers/sec/core).
    pub baseline_per_core: f64,
    /// Candidate per-core throughput (offers/sec/core).
    pub candidate_per_core: f64,
    /// Candidate multi-core speedup over baseline multi-core speedup;
    /// `None` unless *both* reports carry a `multi_core` section (a
    /// single-core runner comparing against a multi-core baseline, or
    /// vice versa, cannot be judged on scaling).
    pub multi_core_ratio: Option<f64>,
    /// The candidate's [`EngineBenchReport::incremental_vs_batch`]; the
    /// gate requires it below 1.0 when present.
    pub incremental_vs_batch: Option<f64>,
    /// The failure threshold the gate was run with.
    pub min_ratio: f64,
}

impl RegressionVerdict {
    /// Candidate over baseline.
    pub fn ratio(&self) -> f64 {
        if self.baseline_per_core == 0.0 {
            // A zero baseline cannot regress; treat as trivially passing.
            f64::INFINITY
        } else {
            self.candidate_per_core / self.baseline_per_core
        }
    }

    /// `true` when the candidate clears the threshold — per-core always,
    /// multi-core scaling too when both sides recorded it, and the warm
    /// incremental query beats the batch rebuild when the candidate
    /// recorded both.
    pub fn passed(&self) -> bool {
        self.ratio() >= self.min_ratio
            && self.multi_core_ratio.is_none_or(|r| r >= self.min_ratio)
            && self.incremental_vs_batch.is_none_or(|r| r < 1.0)
    }

    /// Human-readable one-paragraph summary.
    pub fn render(&self) -> String {
        let multi_core = match self.multi_core_ratio {
            Some(r) => format!("; multi-core speedup ratio {r:.2}x"),
            None => String::new(),
        };
        let incremental = match self.incremental_vs_batch {
            Some(r) => format!("; warm query / batch rebuild {r:.3} (gate: < 1)"),
            None => String::new(),
        };
        format!(
            "per-core throughput: baseline {:.0} offers/s/core, candidate {:.0} offers/s/core \
             — ratio {:.2}x{multi_core} (gate: >= {:.2}x){incremental} => {}",
            self.baseline_per_core,
            self.candidate_per_core,
            self.ratio(),
            self.min_ratio,
            if self.passed() { "PASS" } else { "FAIL" }
        )
    }
}

/// Compares `candidate` against `baseline` at `min_ratio`.
pub fn check_regression(
    baseline: &EngineBenchReport,
    candidate: &EngineBenchReport,
    min_ratio: f64,
) -> Result<RegressionVerdict, RegressionError> {
    for (side, report) in [("baseline", baseline), ("candidate", candidate)] {
        if report.schema != ENGINE_BENCH_SCHEMA {
            return Err(RegressionError::SchemaMismatch {
                side,
                found: report.schema.clone(),
            });
        }
    }
    let baseline_per_core = baseline
        .per_core_peak()
        .ok_or(RegressionError::NoEngineRuns { side: "baseline" })?;
    let candidate_per_core = candidate
        .per_core_peak()
        .ok_or(RegressionError::NoEngineRuns { side: "candidate" })?;
    let multi_core_ratio = match (&baseline.multi_core, &candidate.multi_core) {
        (Some(b), Some(c)) if b.speedup_vs_1_thread > 0.0 => {
            Some(c.speedup_vs_1_thread / b.speedup_vs_1_thread)
        }
        _ => None,
    };
    Ok(RegressionVerdict {
        baseline_per_core,
        candidate_per_core,
        multi_core_ratio,
        incremental_vs_batch: candidate.incremental_vs_batch(),
        min_ratio,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(host_cpus: usize, runs: &[(usize, f64)]) -> EngineBenchReport {
        EngineBenchReport {
            schema: ENGINE_BENCH_SCHEMA.to_owned(),
            workload: "test".to_owned(),
            measures: 8,
            host_cpus,
            sequential: vec![],
            engine: runs
                .iter()
                .map(|&(threads, offers_per_sec)| EngineRun {
                    offers: 1000,
                    threads,
                    secs: 1000.0 / offers_per_sec,
                    offers_per_sec,
                })
                .collect(),
            speedup_8_threads_largest: 1.0,
            multi_core: None,
            warm_queries: vec![],
        }
    }

    fn with_multi_core(mut r: EngineBenchReport, speedup: f64) -> EngineBenchReport {
        r.multi_core = Some(MultiCoreRun {
            offers: 1000,
            threads: 4,
            secs: 0.25,
            offers_per_sec: 4000.0,
            speedup_vs_1_thread: speedup,
        });
        r
    }

    #[test]
    fn per_core_normalises_by_usable_parallelism() {
        // 8 threads on a 4-cpu host only count as 4-way parallelism.
        let r = report(4, &[(1, 100.0), (8, 400.0)]);
        assert_eq!(r.per_core_peak(), Some(100.0));
        // On a 1-cpu host every run is per-core as measured.
        let single = report(1, &[(8, 250.0)]);
        assert_eq!(single.per_core_peak(), Some(250.0));
    }

    #[test]
    fn equal_reports_pass_and_big_drops_fail() {
        let baseline = report(4, &[(4, 400.0)]);
        let same = check_regression(&baseline, &baseline.clone(), 0.5).unwrap();
        assert!(same.passed());
        assert!((same.ratio() - 1.0).abs() < 1e-12);

        let slow = report(4, &[(4, 100.0)]);
        let verdict = check_regression(&baseline, &slow, 0.5).unwrap();
        assert!(!verdict.passed(), "{}", verdict.render());
        assert!(verdict.render().contains("FAIL"));
    }

    #[test]
    fn cross_host_comparison_uses_per_core_figures() {
        // Baseline on 1 cpu, candidate on 8: raw throughput differs 6x but
        // per-core the candidate is fine.
        let baseline = report(1, &[(1, 1000.0)]);
        let candidate = report(8, &[(8, 6000.0)]);
        let verdict = check_regression(&baseline, &candidate, 0.5).unwrap();
        assert!((verdict.candidate_per_core - 750.0).abs() < 1e-9);
        assert!(verdict.passed());
    }

    #[test]
    fn schema_and_empty_reports_are_rejected() {
        let good = report(1, &[(1, 100.0)]);
        let mut bad_schema = good.clone();
        bad_schema.schema = "something-else/9".to_owned();
        assert!(matches!(
            check_regression(&good, &bad_schema, 0.5),
            Err(RegressionError::SchemaMismatch {
                side: "candidate",
                ..
            })
        ));
        let empty = report(1, &[]);
        let err = check_regression(&empty, &good, 0.5).unwrap_err();
        assert!(err.to_string().contains("no engine runs"));
    }

    #[test]
    fn multi_core_gate_only_engages_when_both_sides_recorded_it() {
        let flat = report(4, &[(4, 400.0)]);
        let scaled = with_multi_core(report(4, &[(4, 400.0)]), 3.6);

        // One-sided sections never produce a ratio: cross-host runs where
        // only the baseline (or only the candidate) is multi-core still
        // gate on per-core throughput alone.
        for (b, c) in [(&flat, &scaled), (&scaled, &flat), (&flat, &flat)] {
            let verdict = check_regression(b, c, 0.5).unwrap();
            assert_eq!(verdict.multi_core_ratio, None);
            assert!(verdict.passed());
            assert!(!verdict.render().contains("multi-core"));
        }

        // Both sides recorded: scaling holds → pass, with the ratio shown.
        let still_scaled = with_multi_core(report(4, &[(4, 400.0)]), 3.4);
        let verdict = check_regression(&scaled, &still_scaled, 0.5).unwrap();
        assert!(verdict.multi_core_ratio.is_some());
        assert!(verdict.passed());
        assert!(verdict.render().contains("multi-core speedup ratio"));

        // Scaling collapsed (3.6x -> 1.1x) while per-core throughput held:
        // the gate fails on the multi-core leg alone.
        let collapsed = with_multi_core(report(4, &[(4, 400.0)]), 1.1);
        let verdict = check_regression(&scaled, &collapsed, 0.5).unwrap();
        assert!((verdict.ratio() - 1.0).abs() < 1e-12);
        assert!(!verdict.passed(), "{}", verdict.render());
    }

    #[test]
    fn multi_core_section_parses_from_json() {
        let text = r#"{
            "schema": "flexoffers-engine-bench/1",
            "workload": "test",
            "measures": 8,
            "host_cpus": 8,
            "sequential": [],
            "engine": [{"offers": 1000, "threads": 4, "secs": 0.5, "offers_per_sec": 2000.0}],
            "speedup_8_threads_largest": 1.0,
            "multi_core": {
                "offers": 1000, "threads": 4, "secs": 0.25,
                "offers_per_sec": 4000.0, "speedup_vs_1_thread": 3.7
            }
        }"#;
        let parsed: EngineBenchReport = serde_json::from_str(text).expect("parses");
        let mc = parsed.multi_core.expect("section present");
        assert_eq!(mc.threads, 4);
        assert!((mc.speedup_vs_1_thread - 3.7).abs() < 1e-12);
    }

    #[test]
    fn warm_queries_must_beat_the_batch_rebuild_at_the_largest_size() {
        let mut serving = report(2, &[(4, 400.0)]);
        serving.sequential = vec![
            SequentialRun {
                offers: 990,
                secs: 0.002,
                offers_per_sec: 495_000.0,
            },
            SequentialRun {
                offers: 9_950,
                secs: 0.020,
                offers_per_sec: 497_500.0,
            },
        ];
        // Slower than the 1k rebuild at 1k, but only the largest size
        // (10k, whose rebuild is the largest sequential run) is gated.
        serving.warm_queries = vec![(1_000, 0.003), (10_000, 0.004), (10_000, 0.005)];
        assert_eq!(serving.incremental_vs_batch(), Some(0.25));
        let verdict = check_regression(&serving, &serving, 0.5).unwrap();
        assert!(verdict.passed(), "{}", verdict.render());
        assert!(verdict
            .render()
            .contains("warm query / batch rebuild 0.250"));

        // One warm query at the largest size slower than the rebuild fails
        // the gate even though throughput held.
        let mut inverted = serving.clone();
        inverted.warm_queries.push((10_000, 0.021));
        let verdict = check_regression(&serving, &inverted, 0.5).unwrap();
        assert!((verdict.ratio() - 1.0).abs() < 1e-12);
        assert!(!verdict.passed(), "{}", verdict.render());

        // Reports without warm queries (every non-serving bench) are not
        // gated on it.
        assert_eq!(report(2, &[(4, 400.0)]).incremental_vs_batch(), None);
    }

    #[test]
    fn zero_baseline_cannot_fail_the_gate() {
        let zero = report(1, &[(1, 0.0)]);
        let candidate = report(1, &[(1, 1.0)]);
        let verdict = check_regression(&zero, &candidate, 0.5).unwrap();
        assert!(verdict.passed());
    }

    #[test]
    fn committed_baseline_parses_and_checks_against_itself() {
        // The committed BENCH_engine.json must stay parseable by this
        // mirror, or the CI gate goes dark.
        let text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_engine.json"
        ))
        .expect("committed baseline exists");
        let baseline: EngineBenchReport = serde_json::from_str(&text).expect("baseline parses");
        let verdict = check_regression(&baseline, &baseline, DEFAULT_MIN_RATIO).unwrap();
        assert!(verdict.passed());
    }

    #[test]
    fn committed_serving_baseline_feeds_the_same_gate() {
        // BENCH_serving.json reuses the engine-bench schema (runs carry
        // extra shards/churn/events/update_query_secs fields this mirror
        // ignores; offers_per_sec records events applied per second), so
        // the one bench_check binary gates the serving baseline too.
        let text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_serving.json"
        ))
        .expect("committed serving baseline exists");
        let baseline: EngineBenchReport = serde_json::from_str(&text).expect("baseline parses");
        assert_eq!(baseline.schema, ENGINE_BENCH_SCHEMA);
        assert!(!baseline.engine.is_empty());
        assert!(!baseline.sequential.is_empty());
        assert_eq!(baseline.warm_queries.len(), baseline.engine.len());
        let verdict = check_regression(&baseline, &baseline, DEFAULT_MIN_RATIO).unwrap();
        assert!(verdict.incremental_vs_batch.is_some_and(|r| r < 1.0));
        assert!(verdict.passed());
    }

    #[test]
    fn committed_columnar_baseline_feeds_the_same_gate() {
        // BENCH_columnar.json reuses the engine-bench schema (`sequential`
        // records the scalar kernel at 1 thread, `engine` the columnar
        // kernel per thread count, plus a columnar_speedup_1_thread_largest
        // headline this mirror ignores), so the one bench_check binary
        // gates the columnar baseline too.
        let text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_columnar.json"
        ))
        .expect("committed columnar baseline exists");
        let baseline: EngineBenchReport = serde_json::from_str(&text).expect("baseline parses");
        assert_eq!(baseline.schema, ENGINE_BENCH_SCHEMA);
        assert!(!baseline.engine.is_empty());
        assert!(!baseline.sequential.is_empty());
        let verdict = check_regression(&baseline, &baseline, DEFAULT_MIN_RATIO).unwrap();
        assert!(verdict.passed());
    }

    #[test]
    fn committed_journal_baseline_feeds_the_same_gate() {
        // BENCH_journal.json reuses the engine-bench schema (`sequential`
        // records the journaling-off LiveBook replay, `engine` the
        // journaling-on and recovery modes with extra `mode`/`events`/
        // `sync_every` fields this mirror ignores; the headline is the
        // off/on throughput ratio), so the one bench_check binary gates
        // the durability baseline too.
        let text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_journal.json"
        ))
        .expect("committed journal baseline exists");
        let baseline: EngineBenchReport = serde_json::from_str(&text).expect("baseline parses");
        assert_eq!(baseline.schema, ENGINE_BENCH_SCHEMA);
        assert!(!baseline.engine.is_empty());
        assert!(!baseline.sequential.is_empty());
        let verdict = check_regression(&baseline, &baseline, DEFAULT_MIN_RATIO).unwrap();
        assert!(verdict.passed());
    }

    #[test]
    fn committed_net_baseline_feeds_the_same_gate() {
        // BENCH_net.json reuses the engine-bench schema (`threads` records
        // the connection count; runs carry extra `conns`/`queries`/
        // `query_p*_ms` latency fields this mirror ignores; `sequential`
        // is the same events applied in process without the network), so
        // the one bench_check binary gates the network baseline too.
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_net.json"))
                .expect("committed net baseline exists");
        let baseline: EngineBenchReport = serde_json::from_str(&text).expect("baseline parses");
        assert_eq!(baseline.schema, ENGINE_BENCH_SCHEMA);
        assert!(!baseline.engine.is_empty());
        assert!(!baseline.sequential.is_empty());
        assert!(
            baseline.engine.iter().any(|run| run.threads >= 4),
            "the committed net baseline must cover >= 4 concurrent connections"
        );
        let verdict = check_regression(&baseline, &baseline, DEFAULT_MIN_RATIO).unwrap();
        assert!(verdict.passed());
    }

    #[test]
    fn committed_cluster_baseline_feeds_the_same_gate_and_pins_delta_gather() {
        // BENCH_cluster.json reuses the engine-bench schema (`threads`
        // records the worker process count; runs carry extra
        // `workers`/`queries` fields this mirror ignores), so the one
        // bench_check binary gates the cluster baseline too. On top of
        // the gate, the `warm` section pins the delta-gather acceptance
        // headline: on a mostly-clean book (1 dirty shard of 4 workers),
        // digest-gated gathers must answer at >= 10x the full-gather
        // oracle's throughput, with a hit rate that shows the digest gate
        // actually engaging.
        let text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_cluster.json"
        ))
        .expect("committed cluster baseline exists");
        let baseline: EngineBenchReport = serde_json::from_str(&text).expect("baseline parses");
        assert_eq!(baseline.schema, ENGINE_BENCH_SCHEMA);
        assert!(!baseline.engine.is_empty());
        assert!(!baseline.sequential.is_empty());
        let verdict = check_regression(&baseline, &baseline, DEFAULT_MIN_RATIO).unwrap();
        assert!(verdict.passed());

        let raw: serde::Value = serde_json::from_str(&text).expect("baseline is JSON");
        let warm = raw
            .get("warm")
            .expect("baseline records the warm-query sweep");
        let number = |name: &str| {
            warm.get(name)
                .and_then(serde::Value::as_f64)
                .unwrap_or_else(|| panic!("warm section records `{name}`"))
        };
        assert!(
            number("speedup_vs_full_gather") >= 10.0,
            "warm delta-gather throughput must stay >= 10x the full-gather oracle, got {:.1}x",
            number("speedup_vs_full_gather")
        );
        assert!(
            number("gather_hit_rate") > 0.9,
            "a 1-dirty-of-4 warm sweep must confirm most shards by digest, got {:.3}",
            number("gather_hit_rate")
        );
        assert!(number("dirty_bytes") > 0.0, "dirty shards still ship bytes");
    }
}
