//! Figure 7: impact of multi-task jobs.
//!
//! Converts a growing share of jobs into 2-/4-task gang-coupled jobs
//! (1:1); each mix is one trace-axis value of a single sweep grid
//! comparing the schedulers plus Eva-Single (no §4.4 extension).

use eva_bench::{is_full_scale, run_grid, save_json};
use eva_core::EvaConfig;
use eva_sim::{SchedulerKind, SweepGrid};
use eva_workloads::{AlibabaTraceConfig, DurationModelChoice, MultiTaskMix};

fn main() {
    println!("== Figure 7: multi-task job proportion sweep ==");
    let mut tc = AlibabaTraceConfig::full(DurationModelChoice::Alibaba);
    tc.num_jobs = if is_full_scale() { 6_274 } else { 800 };
    let base_trace = tc.generate(7);
    let pcts = [0.0, 0.2, 0.4, 0.6];
    let mut grid = SweepGrid::new(
        format!("multi-task {:.0}%", 100.0 * pcts[0]),
        MultiTaskMix::new(pcts[0]).apply(&base_trace, 70),
    );
    for &pct in &pcts[1..] {
        grid = grid.trace(
            format!("multi-task {:.0}%", 100.0 * pct),
            MultiTaskMix::new(pct).apply(&base_trace, 70 + (pct * 100.0) as u64),
        );
    }
    let grid = grid
        .scheduler("No-Packing", SchedulerKind::NoPacking)
        .scheduler("Stratus", SchedulerKind::Stratus)
        .scheduler("Synergy", SchedulerKind::Synergy)
        .scheduler("Eva-Single", SchedulerKind::Eva(EvaConfig::eva_single()))
        .scheduler("Eva", SchedulerKind::Eva(EvaConfig::eva()));
    let result = run_grid(grid);
    println!(
        "{:<8} {:>10} {:>10} {:>12} {:>10}",
        "multi%", "Stratus", "Synergy", "Eva-Single", "Eva"
    );
    for (pct, block) in pcts.iter().zip(result.blocks()) {
        let np = block[0].report.total_cost_dollars;
        let n = |i: usize| 100.0 * block[i].report.total_cost_dollars / np;
        println!(
            "{:<8.0} {:>9.1}% {:>9.1}% {:>11.1}% {:>9.1}%",
            100.0 * pct,
            n(1),
            n(2),
            n(3),
            n(4)
        );
    }
    save_json("fig7.json", &result);
    eva_bench::finish();
}
