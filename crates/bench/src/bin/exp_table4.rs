//! Table 4: provisioning-cost micro-benchmark.
//!
//! 30 trials of 200 tasks sampled from the Table 7 workloads. Compares the
//! No-Packing cost, the Full Reconfiguration heuristic, and the exact
//! branch-and-bound solver (Gurobi stand-in) under a time limit. Costs are
//! normalized to the solver's best solution per trial, as in the paper.
//!
//! Declared as a [`SolverSweep`]: one cell per trial, sharing the
//! harness's cell pool, persistent cache (`--no-cache` to re-measure
//! runtimes), and `results/table4.json` output convention.

use std::time::{Duration, Instant};

use eva_bench::is_full_scale;
use eva_bench::solver::{random_tasks, SolverSweep};
use eva_cloud::Catalog;
use eva_core::{full_reconfiguration, ReservationPrices, TnrpEvaluator, UnitTput};
use eva_solver::{branch_and_bound, BnbConfig, Item, PackingProblem};
use serde::{Deserialize, Serialize};

/// One trial's measurements (serialized into the cache and the artifact).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Table4Trial {
    trial: usize,
    np_ratio: f64,
    fr_ratio: f64,
    fr_runtime_ms: f64,
    solver_timed_out: bool,
    /// True when this row was replayed from the persistent cache: its
    /// runtime and time-limited solver outcome describe the build and
    /// machine that produced it, not this run. Stamped after the sweep —
    /// cached bytes always store `false`.
    from_cache: bool,
}

fn run_trial(trial: usize, tasks_per_trial: usize, time_limit: Duration) -> Table4Trial {
    let catalog = Catalog::aws_eval_2025();
    let tasks = random_tasks(1000 + trial as u64, tasks_per_trial);
    let prices = ReservationPrices::compute(&catalog, tasks.iter());
    let no_packing: f64 = tasks.iter().map(|t| prices.rp_dollars(t.id)).sum();

    let eval = TnrpEvaluator::new(&UnitTput, &prices, true);
    let t0 = Instant::now();
    let fr = full_reconfiguration(&tasks, &catalog, &eval);
    let fr_runtime_ms = t0.elapsed().as_secs_f64() * 1e3;

    let items: Vec<Item> = tasks
        .iter()
        .enumerate()
        .map(|(i, t)| Item {
            id: i,
            demand: t.demand,
        })
        .collect();
    let problem = PackingProblem::new(items, catalog.clone());
    let solution = branch_and_bound(
        &problem,
        BnbConfig {
            time_limit,
            ..Default::default()
        },
    );
    Table4Trial {
        trial,
        np_ratio: no_packing / solution.cost_dollars,
        fr_ratio: fr.total_cost_dollars() / solution.cost_dollars,
        fr_runtime_ms,
        solver_timed_out: !solution.proven_optimal,
        from_cache: false,
    }
}

fn main() {
    eva_bench::parse_flags();
    let trials = if is_full_scale() { 30 } else { 10 };
    let tasks_per_trial = 200;
    let time_limit = if is_full_scale() {
        Duration::from_secs(1800)
    } else {
        Duration::from_secs(10)
    };
    println!("== Table 4: cost minimization micro-benchmark ({trials} trials × {tasks_per_trial} tasks, solver limit {time_limit:?}) ==");

    let mut sweep = SolverSweep::new("table4").timing();
    for trial in 0..trials {
        sweep = sweep.cell(
            format!("trial:{trial}|tasks:{tasks_per_trial}|limit:{time_limit:?}"),
            move || run_trial(trial, tasks_per_trial, time_limit),
        );
    }
    let results: Vec<Table4Trial> = sweep
        .run_flagged()
        .into_iter()
        .map(|(mut row, cached)| {
            row.from_cache = cached;
            row
        })
        .collect();
    sweep.save(&results);

    let np_ratio: Vec<f64> = results.iter().map(|r| r.np_ratio).collect();
    let fr_ratio: Vec<f64> = results.iter().map(|r| r.fr_ratio).collect();
    let fr_runtime_ms: Vec<f64> = results.iter().map(|r| r.fr_runtime_ms).collect();
    let solver_timeouts = results.iter().filter(|r| r.solver_timed_out).count();

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let std = |v: &[f64]| {
        let m = mean(v);
        (v.iter().map(|x| (x - m).powi(2)).sum::<f64>() / v.len() as f64).sqrt()
    };
    println!(
        "{:<16} {:>18} {:>12}",
        "Scheduler", "Provisioning Cost", "Runtime"
    );
    println!(
        "{:<16} {:>10.2} ± {:.2}x {:>10}",
        "No-Packing",
        mean(&np_ratio),
        std(&np_ratio),
        "—"
    );
    println!(
        "{:<16} {:>10.2} ± {:.2}x {:>9.0}ms",
        "Full Reconfig.",
        mean(&fr_ratio),
        std(&fr_ratio),
        mean(&fr_runtime_ms)
    );
    println!(
        "{:<16} {:>10}x {:>12} (timed out in {solver_timeouts}/{trials} trials)",
        "ILP (B&B)",
        "1.00",
        format!("≤{time_limit:?}")
    );
}
