//! The engine's streaming summary type: what a portfolio pass produced,
//! how fast, and per-measure detail — consumed by `flexctl measure
//! --portfolio`, the experiment binaries, and the benchmark reporter.

use std::time::Duration;

use flexoffers_measures::MeasureError;
use serde::Serialize;

/// One measure's outcome over a portfolio.
#[derive(Clone, Debug, PartialEq)]
pub struct MeasureSummary {
    /// The measure's Table 1 column name.
    pub measure: &'static str,
    /// The set-level value under the measure's canonical set semantics, or
    /// the first per-offer error in portfolio order (exactly what the
    /// sequential `of_set` loop returns).
    pub value: Result<f64, MeasureError>,
    /// Offers the measure evaluated successfully.
    pub evaluated: usize,
    /// Offers the measure rejected.
    pub failed: usize,
    /// Smallest per-offer value, over successful evaluations.
    pub min: Option<f64>,
    /// Largest per-offer value, over successful evaluations.
    pub max: Option<f64>,
}

/// The result of one portfolio measurement pass.
#[derive(Clone, Debug)]
pub struct PortfolioReport {
    /// Portfolio size.
    pub offers: usize,
    /// Worker threads the pass ran with.
    pub threads: usize,
    /// Chunk size the pass used (derived or pinned; see
    /// [`Budget::chunk_size_for`](crate::Budget::chunk_size_for)).
    pub chunk_size: usize,
    /// Wall-clock duration of the pass.
    pub elapsed: Duration,
    /// Per-measure outcomes, in the order the measures were given.
    pub summaries: Vec<MeasureSummary>,
}

impl PortfolioReport {
    /// Throughput of the pass, in offers per second (0 for an instant or
    /// empty pass).
    pub fn offers_per_second(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.offers as f64 / secs
        } else {
            0.0
        }
    }

    /// Renders the report as an aligned text table, one measure per line.
    pub fn render(&self) -> String {
        let mut out = format!(
            "portfolio: {} offers · {} thread(s) · chunk {} · {:.1} ms · {:.0} offers/s\n",
            self.offers,
            self.threads,
            self.chunk_size,
            self.elapsed.as_secs_f64() * 1e3,
            self.offers_per_second(),
        );
        out.push_str(&format!(
            "{:<14} {:>16} {:>9} {:>14} {:>14}\n",
            "measure", "set value", "offers", "min", "max"
        ));
        for s in &self.summaries {
            match &s.value {
                Ok(v) => out.push_str(&format!(
                    "{:<14} {:>16.6} {:>9} {:>14.4} {:>14.4}\n",
                    s.measure,
                    v,
                    s.evaluated,
                    s.min.unwrap_or(f64::NAN),
                    s.max.unwrap_or(f64::NAN),
                )),
                Err(e) => out.push_str(&format!("{:<14} n/a ({e})\n", s.measure)),
            }
        }
        out
    }

    /// A serialisable mirror of the report containing only the
    /// deterministic fields (errors flattened to strings) for `--json`
    /// consumers. Threads, chunk size and timing are deliberately
    /// excluded: everything in the mirror is a pure function of the
    /// portfolio and the measure set, so equal portfolios serialise to
    /// equal bytes at any budget and any shard count — the property the
    /// CI determinism smokes `cmp`.
    pub fn json(&self) -> PortfolioReportJson {
        PortfolioReportJson {
            offers: self.offers,
            measures: self
                .summaries
                .iter()
                .map(|s| MeasureSummaryJson {
                    measure: s.measure,
                    value: s.value.as_ref().ok().copied(),
                    error: s.value.as_ref().err().map(ToString::to_string),
                    evaluated: s.evaluated,
                    failed: s.failed,
                    min: s.min,
                    max: s.max,
                })
                .collect(),
        }
    }
}

/// Serialisable mirror of [`PortfolioReport`] (deterministic fields only —
/// no threads, no chunk size, no timing).
#[derive(Clone, Debug, Serialize)]
pub struct PortfolioReportJson {
    /// Portfolio size.
    pub offers: usize,
    /// Per-measure outcomes.
    pub measures: Vec<MeasureSummaryJson>,
}

/// Serialisable mirror of [`MeasureSummary`].
#[derive(Clone, Debug, Serialize)]
pub struct MeasureSummaryJson {
    /// The measure's Table 1 column name.
    pub measure: &'static str,
    /// The set-level value, when defined.
    pub value: Option<f64>,
    /// The error message, when the measure does not apply.
    pub error: Option<String>,
    /// Offers evaluated successfully.
    pub evaluated: usize,
    /// Offers rejected.
    pub failed: usize,
    /// Smallest per-offer value.
    pub min: Option<f64>,
    /// Largest per-offer value.
    pub max: Option<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PortfolioReport {
        PortfolioReport {
            offers: 2,
            threads: 4,
            chunk_size: 1,
            elapsed: Duration::from_millis(10),
            summaries: vec![
                MeasureSummary {
                    measure: "Time",
                    value: Ok(6.0),
                    evaluated: 2,
                    failed: 0,
                    min: Some(1.0),
                    max: Some(5.0),
                },
                MeasureSummary {
                    measure: "Rel. Area",
                    value: Err(MeasureError::UndefinedDenominator),
                    evaluated: 0,
                    failed: 2,
                    min: None,
                    max: None,
                },
            ],
        }
    }

    #[test]
    fn render_lists_values_and_errors() {
        let text = sample().render();
        assert!(text.contains("2 offers"));
        assert!(text.contains("Time"));
        assert!(text.contains("6.000000"));
        assert!(text.contains("Rel. Area"));
        assert!(text.contains("n/a"));
    }

    #[test]
    fn throughput_is_offers_over_elapsed() {
        let r = sample();
        assert!((r.offers_per_second() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn json_mirror_splits_value_and_error() {
        let j = sample().json();
        assert_eq!(j.measures[0].value, Some(6.0));
        assert_eq!(j.measures[0].error, None);
        assert_eq!(j.measures[1].value, None);
        assert!(j.measures[1]
            .error
            .as_deref()
            .unwrap()
            .contains("|cmin| + |cmax|"));
        let text = serde_json::to_string(&j).expect("report serialises");
        assert!(text.contains("\"offers\":2"));
    }

    #[test]
    fn json_mirror_excludes_budget_and_wall_clock_fields() {
        // The mirror must be a pure function of the portfolio so flat,
        // live, and any-thread-count runs serialise to identical bytes.
        let text = serde_json::to_string(&sample().json()).unwrap();
        assert!(!text.contains("threads"));
        assert!(!text.contains("chunk_size"));
        assert!(!text.contains("elapsed"));
        assert!(!text.contains("offers_per_second"));
    }
}
