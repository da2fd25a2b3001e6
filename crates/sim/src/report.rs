//! Report assembly: folds a finished [`ClusterSim`] into a [`SimReport`].

use eva_types::{SimDuration, SimTime};

use crate::arena::RATE_ONE;
use crate::metrics::SimReport;
use crate::world::ClusterSim;

/// Consumes a fully-stepped world and produces its experiment report.
pub(crate) fn finalize(mut sim: ClusterSim) -> SimReport {
    let end = sim.finish();

    // Completed jobs were summed exactly as each completed.
    let done = sim.completed;
    let jobs_completed = sim.metrics.completions_total as usize;
    let n = jobs_completed.max(1) as f64;
    let hours = |ms: u128| ms as f64 / SimDuration::from_hours(1).as_millis() as f64;
    let avg_jct_hours = hours(done.jct_ms) / n;
    let avg_idle_hours = hours(done.idle_ms) / n;
    let avg_norm_tput = done.tput_q as f64 / RATE_ONE as f64 / n;

    let uptimes: Vec<f64> = sim
        .cloud
        .uptime_rows(end)
        .into_iter()
        .map(|(_, u)| u)
        .collect();
    let billed_hours: f64 = uptimes.iter().sum();

    let alloc = |r: usize| {
        if sim.capacity_integral[r] <= 0.0 {
            0.0
        } else {
            sim.alloc_integral[r] / sim.capacity_integral[r]
        }
    };

    // The first admitted job's arrival anchors the makespan.
    let first_arrival = sim.first_arrival_seen.unwrap_or(SimTime::ZERO);

    SimReport {
        scheduler: sim.scheduler.name().to_string(),
        jobs_completed,
        total_cost_dollars: sim.cloud.total_bill(end).as_dollars(),
        instances_launched: sim.cloud.launch_count(),
        migrations_per_task: sim.migration_count as f64 / sim.total_tasks.max(1) as f64,
        avg_jct_hours,
        avg_idle_hours,
        avg_norm_tput,
        tasks_per_instance: if billed_hours > 0.0 {
            sim.task_running_hours / billed_hours
        } else {
            0.0
        },
        gpu_alloc: alloc(0),
        cpu_alloc: alloc(1),
        ram_alloc: alloc(2),
        uptime_cdf: crate::metrics::empirical_cdf(uptimes, 100),
        full_reconfig_rate: if sim.rounds > 0 {
            sim.full_rounds as f64 / sim.rounds as f64
        } else {
            0.0
        },
        makespan_hours: end.duration_since(first_arrival).as_hours_f64(),
        billed_hours,
    }
}
