//! Table 6: multi-task job micro-benchmark.
//!
//! 10 trials, each scheduling 100 gang-coupled 4-task jobs (durations
//! 0.5–16 h) under No-Packing, Eva-Single (tasks treated independently),
//! and Eva-Multi (the §4.4 extension). Reports normalized total cost and
//! mean JCT — Eva-Multi should cost less *and* finish sooner than
//! Eva-Single.
//!
//! Declared as one [`SweepGrid`] whose trace axis is the trial traces —
//! the trials fan out across the shared runner's workers, land in the
//! persistent report cache, and save to `results/table6.json`.

use eva_bench::{is_full_scale, run_grid, save_json};
use eva_core::EvaConfig;
use eva_sim::{SchedulerKind, SweepGrid};
use eva_types::{JobId, SimDuration, SimTime};
use eva_workloads::DurationSampler;
use eva_workloads::{Trace, UniformHours, WorkloadCatalog};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn gang_trace(seed: u64, num_jobs: usize) -> Trace {
    let catalog = WorkloadCatalog::table7();
    let pool: Vec<_> = catalog.iter().filter(|w| w.num_tasks == 1).collect();
    let durations = UniformHours::new(0.5, 16.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut now = SimTime::ZERO;
    let jobs = (0..num_jobs)
        .map(|i| {
            now += SimDuration::from_hours_f64(-0.33 * (1.0f64 - rng.gen::<f64>()).ln());
            let w = pool[rng.gen_range(0..pool.len())];
            let mut job = w.job_spec(JobId(i as u64), now, durations.sample(&mut rng));
            // Duplicate into a 4-task gang-coupled job.
            let template = job.tasks[0].clone();
            job.tasks = (0..4)
                .map(|k| {
                    let mut t = template.clone();
                    t.id = eva_types::TaskId::new(job.id, k);
                    t
                })
                .collect();
            job.gang_coupled = true;
            job
        })
        .collect();
    Trace::new(jobs)
}

fn main() {
    let trials = if is_full_scale() { 10 } else { 4 };
    let jobs = if is_full_scale() { 100 } else { 60 };
    println!("== Table 6: multi-task job scheduling ({trials} trials × {jobs} 4-task jobs) ==");

    let mut grid = SweepGrid::new("trial0", gang_trace(7000, jobs))
        .scheduler("No-Packing", SchedulerKind::NoPacking)
        .scheduler("Eva-Single", SchedulerKind::Eva(EvaConfig::eva_single()))
        .scheduler("Eva-Multi", SchedulerKind::Eva(EvaConfig::eva()));
    for trial in 1..trials {
        grid = grid.trace(format!("trial{trial}"), gang_trace(7000 + trial as u64, jobs));
    }
    let result = run_grid(grid);
    save_json("table6.json", &result);

    // One comparison block per trial; the first entry is the baseline.
    let mut rows: Vec<(&str, Vec<f64>, Vec<f64>)> = vec![
        ("No-Packing", Vec::new(), Vec::new()),
        ("Eva-Single", Vec::new(), Vec::new()),
        ("Eva-Multi", Vec::new(), Vec::new()),
    ];
    for block in result.blocks() {
        let base = block[0].report.total_cost_dollars;
        for (row, cell) in rows.iter_mut().zip(block) {
            row.1.push(cell.report.total_cost_dollars / base);
            row.2.push(cell.report.avg_jct_hours);
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let std = |v: &[f64]| {
        let m = mean(v);
        (v.iter().map(|x| (x - m).powi(2)).sum::<f64>() / v.len() as f64).sqrt()
    };
    println!(
        "{:<12} {:>20} {:>16}",
        "Scheduler", "Norm. Total Cost", "JCT (hours)"
    );
    for (name, costs, jcts) in rows {
        println!(
            "{name:<12} {:>11.1}% ± {:>4.1}% {:>8.2} ± {:.2}",
            100.0 * mean(&costs),
            100.0 * std(&costs),
            mean(&jcts),
            std(&jcts)
        );
    }
    eva_bench::finish();
}
