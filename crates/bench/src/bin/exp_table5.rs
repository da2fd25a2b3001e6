//! Table 5: Full Reconfiguration runtime scaling.
//!
//! Times Algorithm 1 over 1,000–8,000 tasks sampled from Table 7 (the
//! paper reports 0.4 s / 1.5 s / 5.5 s / 22 s in Python, a quadratic
//! shape; the Rust port scans class heads instead of tasks, so its times
//! grow with tasks × classes and the 8,000-task row costs well under 16×
//! the 1,000-task row — read `runtime_s` in the artifact, the printed
//! table rounds to a millisecond).
//!
//! Declared as a [`SolverSweep`]: one cell per task count, run serially
//! for stable timings, cached under `results/cache/` (`--no-cache` to
//! re-measure), saved to `results/table5.json`.

use std::time::Instant;

use eva_bench::is_full_scale;
use eva_bench::solver::{random_tasks, SolverSweep};
use eva_cloud::Catalog;
use eva_core::{full_reconfiguration, ReservationPrices, TnrpEvaluator, UnitTput};
use serde::{Deserialize, Serialize};

/// One scaling point (serialized into the cache and the artifact).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Table5Row {
    num_tasks: usize,
    runtime_s: f64,
    instances: usize,
    /// True when this row's runtime was replayed from the persistent
    /// cache rather than measured this run. Stamped after the sweep —
    /// cached bytes always store `false`.
    from_cache: bool,
}

fn time_full_reconfiguration(n: usize) -> Table5Row {
    let catalog = Catalog::aws_eval_2025();
    let tasks = random_tasks(n as u64, n);
    let prices = ReservationPrices::compute(&catalog, tasks.iter());
    let eval = TnrpEvaluator::new(&UnitTput, &prices, true);
    let t0 = Instant::now();
    let config = full_reconfiguration(&tasks, &catalog, &eval);
    Table5Row {
        num_tasks: n,
        runtime_s: t0.elapsed().as_secs_f64(),
        instances: config.instances.len(),
        from_cache: false,
    }
}

fn main() {
    println!("== Table 5: Full Reconfiguration runtime ==");
    let sizes: &[usize] = if is_full_scale() {
        &[1000, 2000, 4000, 8000]
    } else {
        &[1000, 2000, 4000]
    };
    let mut sweep = SolverSweep::new("table5").timing();
    for &n in sizes {
        sweep = sweep.cell(format!("fr-runtime|n:{n}"), move || {
            time_full_reconfiguration(n)
        });
    }
    let results: Vec<Table5Row> = sweep
        .run_flagged()
        .into_iter()
        .map(|(mut row, cached)| {
            row.from_cache = cached;
            row
        })
        .collect();
    sweep.save(&results);
    println!("{:<12} {:>12}", "Num. Tasks", "Runtime (s)");
    for row in &results {
        println!(
            "{:<12} {:>12.3}   ({} instances){}",
            row.num_tasks,
            row.runtime_s,
            row.instances,
            if row.from_cache { "  [cached]" } else { "" }
        );
    }
    eva_bench::finish();
}
