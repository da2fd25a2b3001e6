//! Figure 4: impact of co-location interference.
//!
//! Declares one sweep grid — uniform pairwise co-location throughput over
//! {1.0, 0.95, 0.9, 0.85, 0.8} × {No-Packing, Owl, Eva-RP, Eva-TNRP} —
//! and fans the 20 cells out across sweep workers. Eva-RP's cost should
//! blow up as interference grows while Eva-TNRP stays below No-Packing.

use eva_bench::{is_full_scale, run_grid, save_json};
use eva_core::EvaConfig;
use eva_sim::{InterferenceSpec, SchedulerKind, SweepGrid};
use eva_workloads::{AlibabaTraceConfig, DurationModelChoice};

fn main() {
    eva_bench::parse_flags();
    println!("== Figure 4: interference sweep ==");
    let mut tc = AlibabaTraceConfig::full(DurationModelChoice::Alibaba);
    tc.num_jobs = if is_full_scale() { 6_274 } else { 1000 };
    let trace = tc.generate(4);
    let tputs = [1.0, 0.95, 0.9, 0.85, 0.8];
    let grid = SweepGrid::new("alibaba", trace)
        .scheduler("No-Packing", SchedulerKind::NoPacking)
        .scheduler("Owl", SchedulerKind::Owl)
        .scheduler("Eva-RP", SchedulerKind::Eva(EvaConfig::eva_rp()))
        .scheduler("Eva-TNRP", SchedulerKind::Eva(EvaConfig::eva()))
        .interferences(
            tputs
                .iter()
                .map(|&t| InterferenceSpec::Uniform(t))
                .collect::<Vec<_>>(),
        );
    let result = run_grid(grid);
    println!(
        "{:<8} {:<12} {:>12} {:>12} {:>10}",
        "tput", "scheduler", "norm cost", "norm tput", "JCT (h)"
    );
    for (tput, block) in tputs.iter().zip(result.blocks()) {
        let baseline_cost = block[0].report.total_cost_dollars;
        for cell in block {
            let r = &cell.report;
            println!(
                "{tput:<8} {:<12} {:>11.1}% {:>12.2} {:>10.2}",
                cell.key.scheduler,
                100.0 * r.total_cost_dollars / baseline_cost,
                r.avg_norm_tput,
                r.avg_jct_hours
            );
        }
    }
    save_json("fig4.json", &result);
}
