//! Figure 8: impact of job arrival rate.
//!
//! Sweeps the Poisson arrival rate over 0.5–3 jobs/hr — one trace-axis
//! value per rate in a single grid over the five §6.1 schedulers. Lower
//! rates mean fewer co-resident jobs and therefore smaller packing
//! benefits, but Eva should stay the cheapest packer throughout.

use eva_bench::{is_full_scale, run_grid, save_json};
use eva_sim::SweepGrid;
use eva_workloads::{AlibabaTraceConfig, DurationModelChoice};

fn main() {
    eva_bench::parse_flags();
    println!("== Figure 8: arrival-rate sweep ==");
    let rates = [0.5, 1.0, 2.0, 3.0];
    let trace_for = |rate: f64| {
        let mut tc = AlibabaTraceConfig::full(DurationModelChoice::Alibaba);
        tc.arrival_rate_per_hour = rate;
        tc.num_jobs = if is_full_scale() { 6_274 } else { 700 };
        tc.generate(80 + (rate * 10.0) as u64)
    };
    let mut grid = SweepGrid::new(format!("{} jobs/hr", rates[0]), trace_for(rates[0]));
    for &rate in &rates[1..] {
        grid = grid.trace(format!("{rate} jobs/hr"), trace_for(rate));
    }
    let result = run_grid(grid.paper_schedulers());
    println!(
        "{:<10} {:>10} {:>10} {:>10} {:>10}",
        "jobs/hr", "Stratus", "Synergy", "Owl", "Eva"
    );
    for (rate, block) in rates.iter().zip(result.blocks()) {
        let np = block[0].report.total_cost_dollars;
        let n = |i: usize| 100.0 * block[i].report.total_cost_dollars / np;
        println!(
            "{rate:<10} {:>9.1}% {:>9.1}% {:>9.1}% {:>9.1}%",
            n(1),
            n(2),
            n(3),
            n(4),
        );
    }
    save_json("fig8.json", &result);
}
