//! Figure 6: impact of workload composition (multi-GPU proportion).
//!
//! Converts a growing share of single-GPU jobs into 2/4/8-GPU jobs
//! (ratio 5:4:1); each mix is one trace-axis value of a single sweep grid
//! comparing No-Packing, Stratus, Synergy, Eva w/o Full Reconfiguration,
//! and Eva.

use eva_bench::{is_full_scale, run_grid, save_json};
use eva_core::EvaConfig;
use eva_sim::{SchedulerKind, SweepGrid};
use eva_workloads::{AlibabaTraceConfig, DurationModelChoice, MultiGpuMix};

fn main() {
    println!("== Figure 6: multi-GPU job proportion sweep ==");
    let mut tc = AlibabaTraceConfig::full(DurationModelChoice::Alibaba);
    tc.num_jobs = if is_full_scale() { 6_274 } else { 1000 };
    let base_trace = tc.generate(6);
    let pcts = [0.0, 0.15, 0.3, 0.45, 0.6];
    let mut grid = SweepGrid::new(
        format!("multi-gpu {:.0}%", 100.0 * pcts[0]),
        MultiGpuMix::new(pcts[0]).apply(&base_trace, 60),
    );
    for &pct in &pcts[1..] {
        grid = grid.trace(
            format!("multi-gpu {:.0}%", 100.0 * pct),
            MultiGpuMix::new(pct).apply(&base_trace, 60 + (pct * 100.0) as u64),
        );
    }
    let grid = grid
        .scheduler("No-Packing", SchedulerKind::NoPacking)
        .scheduler("Stratus", SchedulerKind::Stratus)
        .scheduler("Synergy", SchedulerKind::Synergy)
        .scheduler("Eva w/o Full", SchedulerKind::Eva(EvaConfig::without_full()))
        .scheduler("Eva", SchedulerKind::Eva(EvaConfig::eva()));
    let result = run_grid(grid);
    println!(
        "{:<8} {:>10} {:>10} {:>12} {:>14} {:>8}",
        "multi%", "Stratus", "Synergy", "Eva w/o Full", "Eva", "(vs NP)"
    );
    for (pct, block) in pcts.iter().zip(result.blocks()) {
        let np = block[0].report.total_cost_dollars;
        let n = |i: usize| 100.0 * block[i].report.total_cost_dollars / np;
        println!(
            "{:<8.0} {:>9.1}% {:>9.1}% {:>11.1}% {:>13.1}%",
            100.0 * pct,
            n(1),
            n(2),
            n(3),
            n(4)
        );
    }
    save_json("fig6.json", &result);
    eva_bench::finish();
}
