//! The metrics the benchmark reports, by name, and the result line.
//!
//! These tables repeat what `BENCHMARK.json` declares; `tests/smoke.rs`
//! fails when the two drift apart in either direction.

use std::collections::BTreeMap;

use serde::Value;

/// One declared metric: `(name, unit)`.
pub type Decl = (&'static str, &'static str);

/// What a user of the system sees; printed by the untraced run.
pub const END_TO_END: &[Decl] = &[
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("cost_usd", "usd"),
    ("jct_mean_h", "h"),
    ("completed_share", "ratio"),
];

/// Single layers, named after the crate or module measured; printed by
/// the traced run. A layer a workload does not exercise reports 0.
pub const PER_LAYER: &[Decl] = &[
    ("world.rounds", "count"),
    ("world.steps", "count"),
    ("world.events_scheduled", "count"),
    ("world.event_queue_peak", "count"),
    ("world.job_rows_peak", "count"),
    ("world.round_s", "s"),
    ("world.round_ms_p50", "ms"),
    ("world.round_ms_p99", "ms"),
    ("world.round_ms_max", "ms"),
    ("world.tasks_running_mean", "count"),
    ("world.round_us_per_task", "us"),
    ("world.event_s", "s"),
    ("world.event_us_p50", "us"),
    ("world.event_us_p99", "us"),
    ("world.build_s", "s"),
    ("world.finalize_s", "s"),
    ("world.audit_ok", "bool"),
    ("core.eva.cold_ms.n32", "ms"),
    ("core.eva.steady_ms.n32", "ms"),
    ("core.eva.cold_ms.n384", "ms"),
    ("core.eva.steady_ms.n384", "ms"),
    ("core.eva.full_rate", "ratio"),
    ("baselines.no-packing.cold_ms.n384", "ms"),
    ("baselines.no-packing.steady_ms.n384", "ms"),
    ("baselines.stratus.cold_ms.n384", "ms"),
    ("baselines.stratus.steady_ms.n384", "ms"),
    ("baselines.synergy.cold_ms.n384", "ms"),
    ("baselines.synergy.steady_ms.n384", "ms"),
    ("baselines.owl.cold_ms.n384", "ms"),
    ("baselines.owl.steady_ms.n384", "ms"),
    ("baselines.stratus.round_share", "ratio"),
    ("engine.hold_ns.q1k", "ns"),
    ("engine.hold_ns.q100k", "ns"),
    ("workloads.generate_s", "s"),
    ("workloads.source_s", "s"),
    ("workloads.source_us_p50", "us"),
    ("workloads.lines_rejected", "count"),
    ("serve.emit_s", "s"),
    ("serve.metrics_lines", "count"),
    ("serve.out_bytes", "bytes"),
    ("serve.replica_matches", "bool"),
    ("sweep.cells", "count"),
    ("sweep.executed", "count"),
    ("sweep.cache_hits", "count"),
    ("sweep.cold_cells_per_s", "1/s"),
    ("sweep.nocache_cells_per_s", "1/s"),
    ("sweep.warm_cells_per_s", "1/s"),
    ("sweep.serial_cells_per_s", "1/s"),
    ("sweep.pool_speedup", "ratio"),
    ("sweep.store_ms_per_cell", "ms"),
    ("sweep.cache_mb", "MiB"),
    ("sweep.cell_ms_p50", "ms"),
    ("sweep.cell_ms_p99", "ms"),
    ("sweep.eva_cell_share", "ratio"),
    ("sweep.warm_matches_cold", "bool"),
    ("sweep.eva_norm_cost", "ratio"),
    ("sweep.eva_norm_jct", "ratio"),
    ("harness.trace_overhead", "ratio"),
    ("harness.cpu_share", "ratio"),
    ("harness.rep_spread", "ratio"),
];

/// Values for one of the two tables above.
pub struct MetricSet {
    decls: &'static [Decl],
    values: BTreeMap<&'static str, f64>,
}

impl MetricSet {
    pub fn new(decls: &'static [Decl]) -> Self {
        MetricSet {
            decls,
            values: BTreeMap::new(),
        }
    }

    /// Records `value` under a declared name; an undeclared name is a
    /// bug in the benchmark and panics.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.decls.iter().any(|(n, _)| *n == name),
            "undeclared metric `{name}`"
        );
        assert!(value.is_finite(), "metric `{name}` is not finite");
        self.values.insert(name, value);
    }

    pub fn set_flag(&mut self, name: &'static str, ok: bool) {
        self.set(name, f64::from(u8::from(ok)));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// `{name: {"value": v, "unit": u}}` for every declared metric, in
    /// declaration order; one never set reads 0.
    fn to_json(&self) -> Value {
        let pairs = self.decls.iter().map(|(name, unit)| {
            let value = self.get(name).unwrap_or(0.0);
            let entry = Value::Object(vec![
                ("value".to_string(), Value::Number(serde::Number::F(value))),
                ("unit".to_string(), Value::String(unit.to_string())),
            ]);
            (name.to_string(), entry)
        });
        Value::Object(pairs.collect())
    }
}

/// The one-line JSON object a run prints last.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &MetricSet) -> String {
    let doc = Value::Object(vec![
        ("correct".to_string(), Value::Bool(correct)),
        (
            "attempted".to_string(),
            Value::Number(serde::Number::U(attempted)),
        ),
        (
            "failed".to_string(),
            Value::Number(serde::Number::U(failed)),
        ),
        ("metrics".to_string(), metrics.to_json()),
    ]);
    serde_json::to_string(&doc).expect("result serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_every_declared_metric_once() {
        let mut set = MetricSet::new(END_TO_END);
        set.set("setup_s", 0.25);
        let line = result_line(true, 7, 0, &set);
        let doc = serde_json::from_str_value(&line).unwrap();
        let metrics = doc.get_field("metrics").unwrap().as_object().unwrap();
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let declared: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, declared);
        assert!(
            line.contains(r#""setup_s":{"value":0.25,"unit":"s"}"#),
            "{line}"
        );
        assert!(
            line.starts_with(r#"{"correct":true,"attempted":7,"failed":0,"#),
            "{line}"
        );

        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(
            all.len(),
            END_TO_END.len() + PER_LAYER.len(),
            "a name is used twice"
        );
    }

    #[test]
    #[should_panic(expected = "undeclared metric")]
    fn undeclared_names_are_refused() {
        MetricSet::new(END_TO_END).set("world.rounds", 1.0);
    }
}
