//! Report assembly: folds a finished [`ClusterSim`] into a [`SimReport`].

use eva_types::{InstanceId, JobId, SimTime};

use crate::metrics::SimReport;
use crate::world::ClusterSim;

/// Consumes a fully-stepped world and produces its experiment report.
pub(crate) fn finalize(mut sim: ClusterSim) -> SimReport {
    // Fold any deferred lazy progress into the job lanes before reading
    // them (a fully drained run has settled everything already; this is
    // the safety net for partially stepped worlds).
    sim.world.jobs.settle_active_and_reset();
    // Safety: nothing should remain live.
    let now = sim.now();
    let leftovers: Vec<InstanceId> = sim.cloud.live_instances(now).map(|i| i.id).collect();
    for id in leftovers {
        let _ = sim.cloud.terminate(id, now);
    }

    let end = sim.cloud.max_terminated_at().unwrap_or(now).max(now);

    // Completed jobs fold in ascending JobId order, matching the former
    // map iteration. Retired jobs contribute from the completed log
    // (values frozen at completion with the identical float operations
    // this pass applies to still-held slots); the rest come from the
    // slot scan. Without retirement the log is empty and slot order is
    // ID order, so the sort is a stable no-op and every metric folds in
    // the identical sequence as before. The log's already-folded prefix
    // (ids below every entry here — see `CompletedLog`) seeds the sums,
    // and the loop continues the identical left-to-right additions.
    let mut completed: Vec<(JobId, f64, f64, f64)> = sim.completed.pending_rows().collect();
    for s in 0..sim.world.jobs.ids.len() as u32 {
        if sim.world.jobs.released[s as usize] || !sim.world.jobs.is_done(s) {
            continue;
        }
        let jct = sim.world.jobs.completed_at[s as usize]
            .map(|t| t.duration_since(sim.job_spec(s).arrival).as_hours_f64())
            .unwrap_or(0.0);
        completed.push((
            sim.world.jobs.ids[s as usize],
            jct,
            sim.world.jobs.idle_hours[s as usize],
            sim.world.jobs.mean_tput(s),
        ));
    }
    completed.sort_by_key(|e| e.0);
    let (folded_n, mut jct_sum, mut idle_sum, mut tput_sum) = sim.completed.folded();
    for e in &completed {
        jct_sum += e.1;
    }
    for e in &completed {
        idle_sum += e.2;
    }
    for e in &completed {
        tput_sum += e.3;
    }
    let jobs_completed = folded_n + completed.len();
    let n = jobs_completed.max(1) as f64;
    let avg_jct_hours = jct_sum / n;
    let avg_idle_hours = idle_sum / n;
    let avg_norm_tput = tput_sum / n;

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

    // Streaming worlds have an empty trace; the first ingested job's
    // arrival anchors the makespan instead.
    let first_arrival = sim
        .first_arrival_seen
        .or_else(|| sim.cfg.trace.jobs().first().map(|j| j.arrival))
        .unwrap_or(SimTime::ZERO);

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
