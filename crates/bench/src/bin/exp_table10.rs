//! Table 10 + Figure 3: 120-job end-to-end experiment.
//!
//! The paper ran this on AWS EC2; here the same trace runs through the
//! validated simulator (Table 12 justifies the substitution). Prints the
//! Table 10 rows and the Figure 3 instance-uptime CDF deciles.

use eva_bench::{run_and_print, save_json};
use eva_core::EvaConfig;
use eva_sim::SchedulerKind;
use eva_workloads::SyntheticTraceConfig;

fn main() {
    eva_bench::parse_flags();
    let trace = SyntheticTraceConfig::large_scale().generate(10);
    let kinds = vec![
        SchedulerKind::NoPacking,
        SchedulerKind::Stratus,
        SchedulerKind::Eva(EvaConfig::eva()),
    ];
    let reports = run_and_print(&trace, kinds, "Table 10: 120-job end-to-end");
    println!(
        "\n{:<12} {:>10} {:>10}",
        "Scheduler", "Launched", "Mig/Task"
    );
    for r in &reports {
        println!(
            "{:<12} {:>10} {:>10.2}",
            r.scheduler, r.instances_launched, r.migrations_per_task
        );
    }
    println!("\n== Figure 3: instance uptime CDF (hours at density deciles) ==");
    print!("{:<12}", "density");
    for d in 1..=9 {
        print!("{:>7.0}%", d as f64 * 10.0);
    }
    println!();
    for r in &reports {
        print!("{:<12}", r.scheduler);
        for d in 1..=9 {
            let target = d as f64 / 10.0;
            let v = r
                .uptime_cdf
                .iter()
                .find(|p| p.density >= target)
                .map(|p| p.value)
                .unwrap_or(0.0);
            print!("{v:>8.2}");
        }
        println!();
    }
    save_json("table10_fig3.json", &reports);
}
