//! Design-choice ablations beyond the paper's figures.
//!
//! * **Partial refill** — Partial Reconfiguration placing reconsidered
//!   tasks into kept instances' spare capacity (this repo's default
//!   reading of §4.5) vs packing them exclusively into new instances.
//! * **Default pairwise throughput `t`** — the paper fixes `t = 0.95`;
//!   smaller values pack more conservatively (§4.3).
//! * **Decision estimators** — online λ/p estimation vs pessimistic and
//!   optimistic fixed priors.
//!
//! All variants are declared as one sweep grid (No-Packing first as the
//! normalization baseline) and run concurrently.

use eva_bench::{is_full_scale, run_grid, save_json};
use eva_core::EvaConfig;
use eva_sim::{SchedulerKind, SweepGrid};
use eva_workloads::{AlibabaTraceConfig, DurationModelChoice};

fn main() {
    eva_bench::parse_flags();
    println!("== Ablations ==");
    let mut tc = AlibabaTraceConfig::full(DurationModelChoice::Alibaba);
    tc.num_jobs = if is_full_scale() { 6_274 } else { 1200 };
    let trace = tc.generate(99);

    let mut grid =
        SweepGrid::new("alibaba", trace).scheduler("No-Packing", SchedulerKind::NoPacking);
    let variants: Vec<(&str, EvaConfig)> = vec![
        ("Eva (refill kept instances)", EvaConfig::eva()),
        (
            "Eva (new instances only, §4.5 text)",
            EvaConfig {
                refill_existing: false,
                ..EvaConfig::eva()
            },
        ),
        (
            "Eva (t = 0.99)",
            EvaConfig {
                default_tput: 0.99,
                ..EvaConfig::eva()
            },
        ),
        (
            "Eva (t = 0.95)",
            EvaConfig {
                default_tput: 0.95,
                ..EvaConfig::eva()
            },
        ),
        (
            "Eva (t = 0.9)",
            EvaConfig {
                default_tput: 0.9,
                ..EvaConfig::eva()
            },
        ),
        (
            "Eva (t = 0.8)",
            EvaConfig {
                default_tput: 0.8,
                ..EvaConfig::eva()
            },
        ),
        (
            "Eva (long-horizon prior p = 0.01)",
            EvaConfig {
                initial_p: 0.01,
                ..EvaConfig::eva()
            },
        ),
        (
            "Eva (short-horizon prior p = 0.9)",
            EvaConfig {
                initial_p: 0.9,
                ..EvaConfig::eva()
            },
        ),
    ];
    for (label, cfg) in &variants {
        grid = grid.scheduler(*label, SchedulerKind::Eva(cfg.clone()));
    }
    let result = run_grid(grid);
    let base = result.cells[0].report.total_cost_dollars;

    // `shown` lets one cell appear under several section labels (the
    // defaults row is the same config as the refill row — run it once).
    let print_row_as = |label: &str, shown: &str| {
        let cell = result.first_for(label).expect("declared scheduler");
        let r = &cell.report;
        println!(
            "{shown:<34} cost {:>6.1}%  t/i {:>4.2}  mig/task {:>4.2}  full {:>4.1}%",
            100.0 * r.total_cost_dollars / base,
            r.tasks_per_instance,
            r.migrations_per_task,
            100.0 * r.full_reconfig_rate
        );
    };

    let print_row = |label: &str| print_row_as(label, label);

    println!("-- Partial Reconfiguration refill --");
    print_row("Eva (refill kept instances)");
    print_row("Eva (new instances only, §4.5 text)");

    println!("-- Default pairwise throughput t --");
    for t in ["0.99", "0.95", "0.9", "0.8"] {
        print_row(&format!("Eva (t = {t})"));
    }

    println!("-- Decision estimator priors --");
    print_row_as("Eva (refill kept instances)", "Eva (online λ/p, defaults)");
    print_row("Eva (long-horizon prior p = 0.01)");
    print_row("Eva (short-horizon prior p = 0.9)");

    save_json("ablations.json", &result);
}
