//! Table 8: Alibaba trace composition by GPU demand.

use eva_workloads::{AlibabaTraceConfig, DurationModelChoice, TABLE8_GPU_MIX};

fn main() {
    eva_bench::parse_flags();
    println!("== Table 8: job composition by GPU demand ==");
    let mut cfg = AlibabaTraceConfig::full(DurationModelChoice::Alibaba);
    cfg.num_jobs = 50_000; // Large sample for tight percentages.
    let stats = cfg.generate(8).stats();
    println!("{:<12} {:>12} {:>12}", "GPU Demand", "Paper", "Generated");
    for (gpus, p) in TABLE8_GPU_MIX {
        println!(
            "{gpus:<12} {:>11.2}% {:>11.2}%",
            100.0 * p,
            100.0 * stats.gpu_fraction(gpus)
        );
    }
}
