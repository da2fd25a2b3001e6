//! Golden regression for Eva's `plan` at the size where Algorithm 1
//! dominates.
//!
//! `arena_parity` pins every scheduler at 20–24 jobs, where a packed
//! instance holds two or three tasks and Full Reconfiguration scans a
//! few dozen candidates. This suite pins the same code at the standing
//! load of the `batch_eva` benchmark workload (≈ 200 running tasks at
//! the plateau of a 400-job trace): every Eva configuration that reaches
//! `full_reconfiguration`, `partial_reconfiguration` (with and without
//! refill) or `concretize`, plus Synergy, whose admission test asks the
//! same "TNRP if this task joined" question. Per configuration the
//! golden records the FNV-1a 64 of the whole `SimReport` JSON and the
//! headline figures a divergence would move first.
//!
//! The golden was generated on the commit *before* the incremental TNRP
//! kernel, so it is that kernel's byte-identity rail. Regenerate it only
//! when scheduling semantics are meant to change (and say so in the PR):
//!
//! ```text
//! EVA_BLESS=1 cargo test --release --test eva_scale_golden
//! ```

use std::path::PathBuf;

use eva::prelude::*;
use eva::types::fnv1a64;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("eva_scale.json")
}

/// `batch_eva`'s arrival and duration model, shorter.
fn trace() -> Trace {
    SyntheticTraceConfig {
        num_jobs: 400,
        ..SyntheticTraceConfig::huge_100k()
    }
    .generate(2025)
}

fn configs() -> Vec<(&'static str, SchedulerKind)> {
    // `EvaConfig::eva()` refills kept instances; the ablation that sends
    // the reconsidered subset to new instances only is pinned as well.
    let no_refill = EvaConfig {
        refill_existing: false,
        ..EvaConfig::eva()
    };
    vec![
        ("eva", SchedulerKind::Eva(EvaConfig::eva())),
        ("eva_no_refill", SchedulerKind::Eva(no_refill)),
        ("eva_rp", SchedulerKind::Eva(EvaConfig::eva_rp())),
        ("eva_single", SchedulerKind::Eva(EvaConfig::eva_single())),
        (
            "without_full",
            SchedulerKind::Eva(EvaConfig::without_full()),
        ),
        (
            "without_partial",
            SchedulerKind::Eva(EvaConfig::without_partial()),
        ),
        ("synergy", SchedulerKind::Synergy),
    ]
}

/// One line per configuration, so a divergence names it. The
/// configurations are independent worlds; each runs on its own thread.
fn render() -> String {
    let trace = trace();
    let lines: Vec<String> = std::thread::scope(|s| {
        let runs: Vec<_> = configs()
            .into_iter()
            .map(|(name, scheduler)| {
                let cfg = SimConfig::new(trace.clone(), scheduler);
                s.spawn(move || line(name, &run_simulation(&cfg)))
            })
            .collect();
        runs.into_iter()
            .map(|run| run.join().expect("simulation thread panicked"))
            .collect()
    });
    format!("{{\n{}\n}}\n", lines.join(",\n"))
}

fn line(name: &str, report: &SimReport) -> String {
    assert_eq!(report.jobs_completed, 400, "{name}: every job completes");
    let num = |v: f64| serde_json::to_string(&v).expect("floats serialize");
    let json = serde_json::to_string(report).expect("report serializes");
    format!(
        "\"{name}\": {{\"report_fnv1a64\": \"{:016x}\", \"total_cost_dollars\": {}, \
         \"avg_jct_hours\": {}, \"full_reconfig_rate\": {}, \"migrations_per_task\": {}, \
         \"instances_launched\": {}}}",
        fnv1a64(json.as_bytes()),
        num(report.total_cost_dollars),
        num(report.avg_jct_hours),
        num(report.full_reconfig_rate),
        num(report.migrations_per_task),
        report.instances_launched,
    )
}

#[test]
fn reports_are_byte_identical_to_golden() {
    let rendered = render();
    serde_json::from_str::<serde_json::Value>(&rendered).expect("rendered doc parses");
    let path = golden_path();
    if std::env::var("EVA_BLESS")
        .map(|v| v == "1")
        .unwrap_or(false)
    {
        std::fs::write(&path, &rendered).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); generate with EVA_BLESS=1 cargo test --release --test eva_scale_golden",
            path.display()
        )
    });
    for (r, g) in rendered.lines().zip(golden.lines()) {
        assert_eq!(r, g, "a report diverged from the golden");
    }
    assert_eq!(rendered.len(), golden.len(), "golden has a different shape");
}
