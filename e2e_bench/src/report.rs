//! The metric names the benchmark reports (they match `BENCHMARK.json`)
//! and the result a run prints.

use std::fmt::Write as _;

use crate::host::quote;

/// End-to-end metrics, reported by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("throughput_rps", "req/s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("mutation_p99_ms", "ms"),
    ("setup_s", "s"),
    ("recover_s", "s"),
    ("stored_bytes_per_input_byte", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every traced run: `(name, unit)`. A
/// layer the workload does not reach reads 0.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("net.frame_parse_us", "us"),
    ("net.reply_render_us", "us"),
    ("net.request_bytes", "bytes"),
    ("net.reply_bytes", "bytes"),
    ("serving.apply_us.add", "us"),
    ("serving.apply_us.update", "us"),
    ("serving.apply_us.remove", "us"),
    ("serving.refresh_ms", "ms"),
    ("serving.answer_ms.measure", "ms"),
    ("serving.answer_ms.aggregate", "ms"),
    ("serving.offers_reevaluated_per_mutation", "ratio"),
    ("serving.groups_cache_hit_rate", "ratio"),
    ("batch.answer_ms.measure", "ms"),
    ("batch.answer_ms.aggregate", "ms"),
    ("storage.append_us", "us"),
    ("storage.sync_ms", "ms"),
    ("storage.syncs", "count"),
    ("storage.snapshot_ms", "ms"),
    ("storage.snapshot_bytes", "bytes"),
    ("storage.journal_bytes", "bytes"),
    ("storage.load_snapshot_ms", "ms"),
    ("storage.recover_ms", "ms"),
    ("storage.replayed_events", "count"),
    ("storage.replay_only_ms", "ms"),
    ("cluster.mutation_us", "us"),
    ("cluster.answer_ms", "ms"),
    ("cluster.gather_hit_rate", "ratio"),
    ("cluster.dirty_bytes_per_query", "bytes"),
    ("cluster.respawns", "count"),
    ("cluster.inprocess_answer_ms", "ms"),
    ("serving.incremental_vs_batch", "ratio"),
    ("storage.snapshot_vs_replay", "ratio"),
    ("cluster.vs_inprocess", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// The unit of a known metric.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("unknown metric {name}"))
}

/// What one run found.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Whether every oracle check passed.
    pub correct: bool,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests that failed (error replies, transport failures, refusals).
    pub failed: u64,
    /// `(name, value)` in report order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable report lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Records a report line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The value of `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            if i > 0 {
                metrics.push(',');
            }
            let _ = write!(
                metrics,
                "{}:{{\"value\":{},\"unit\":{}}}",
                quote(name),
                number(*value),
                quote(unit_of(name))
            );
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

/// A finite JSON number with all its digits (non-finite values print 0).
pub fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let mut outcome = Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            ..Outcome::default()
        };
        outcome.metric("throughput_rps", 1234.5);
        outcome.metric("setup_s", 0.25);
        let value: serde::Value = serde_json::from_str(&outcome.json()).unwrap();
        let serde::Value::Object(fields) = &value else {
            panic!("an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = value.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("unit").and_then(|u| u.as_str()), Some("s"));
        assert_eq!(setup.get("value").and_then(|v| v.as_f64()), Some(0.25));
    }

    /// Every metric has a row in the layer map other changes cite.
    #[test]
    fn every_metric_is_documented_in_the_map() {
        let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/METRICS.md"))
            .expect("METRICS.md beside Cargo.toml");
        for (name, _) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                text.contains(&format!("`{name}`")),
                "{name} is not in METRICS.md"
            );
        }
        for (name, _) in PER_LAYER {
            assert!(
                text.contains(&format!("| `{name}` |")),
                "{name} has no map row"
            );
        }
    }

    /// `BENCHMARK.json` at the repository root names exactly these metrics.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let value: serde::Value = serde_json::from_str(&text).unwrap();
        for (key, list) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let serde::Value::Array(entries) = value.get(key).unwrap() else {
                panic!("{key} is a list")
            };
            let declared: Vec<(&str, &str)> = entries
                .iter()
                .map(|e| {
                    (
                        e.get("name").and_then(|n| n.as_str()).unwrap(),
                        e.get("unit").and_then(|u| u.as_str()).unwrap(),
                    )
                })
                .collect();
            assert_eq!(declared, list, "{key}");
        }
    }
}
