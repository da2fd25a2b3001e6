//! Figure 5: impact of migration overhead.
//!
//! Declares a sweep grid over the per-task migration-delay multiplier ×
//! {Eva, Eva w/o Partial, Stratus} and reports (a) Eva's Full
//! Reconfiguration adoption proportion and migrations per job, and
//! (b) total cost normalized against a No-Packing baseline cell.

use eva_bench::{is_full_scale, run_grid, save_json};
use eva_core::EvaConfig;
use eva_sim::{run_simulation, SchedulerKind, SimConfig, SweepGrid};
use eva_workloads::{AlibabaTraceConfig, DurationModelChoice};

fn main() {
    eva_bench::parse_flags();
    println!("== Figure 5: migration-delay sweep ==");
    let mut tc = AlibabaTraceConfig::full(DurationModelChoice::Alibaba);
    tc.num_jobs = if is_full_scale() { 6_274 } else { 1000 };
    let trace = tc.generate(5);
    // No-Packing never migrates, so its baseline is a single unscaled cell.
    let base = run_simulation(&SimConfig::new(trace.clone(), SchedulerKind::NoPacking));
    let scales = [1.0, 2.0, 4.0, 8.0];
    let grid = SweepGrid::new("alibaba", trace)
        .scheduler("Eva", SchedulerKind::Eva(EvaConfig::eva()))
        .scheduler(
            "Eva w/o Partial",
            SchedulerKind::Eva(EvaConfig::without_partial()),
        )
        .scheduler("Stratus", SchedulerKind::Stratus)
        .migration_scales(scales.to_vec());
    let result = run_grid(grid);
    println!("(a) Eva under scaled migration delays; (b) cost vs baselines");
    println!(
        "{:<7} {:>11} {:>10} | {:>10} {:>12} {:>10}",
        "scale", "full prop.", "mig/job", "Eva", "Eva w/o P.", "Stratus"
    );
    for (scale, block) in scales.iter().zip(result.blocks()) {
        let [eva, full_only, stratus] = [&block[0].report, &block[1].report, &block[2].report];
        println!(
            "{scale:<7} {:>10.1}% {:>10.2} | {:>9.1}% {:>11.1}% {:>9.1}%",
            100.0 * eva.full_reconfig_rate,
            eva.migrations_per_task,
            100.0 * eva.total_cost_dollars / base.total_cost_dollars,
            100.0 * full_only.total_cost_dollars / base.total_cost_dollars,
            100.0 * stratus.total_cost_dollars / base.total_cost_dollars,
        );
    }
    save_json("fig5.json", &(base, result));
}
