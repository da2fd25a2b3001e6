//! Layers measured alone, on inputs the benchmark builds: each
//! scheduler's `plan` on a cluster snapshot (`core`, `baselines`) and the
//! event queue under the hold model (`engine`).

use std::hint::black_box;
use std::time::Instant;

use eva_baselines::{
    NoPackingScheduler, OracleProfile, OwlScheduler, StratusScheduler, SynergyScheduler,
};
use eva_cloud::Catalog;
use eva_core::{
    EvaConfig, EvaScheduler, InstanceSnapshot, PlannedInstance, Scheduler, SchedulerContext,
    TaskSnapshot,
};
use eva_engine::{derive_seed, EventEngine, SimEvent};
use eva_types::{InstanceId, JobId, SimDuration, SimTime, TaskId, WorkloadKind};
use eva_workloads::{InterferenceModel, SyntheticTraceConfig, WorkloadCatalog};

use crate::metrics::MetricSet;
use crate::stats;

/// Makes a scheduler that has planned nothing yet.
type Make<'a> = &'a dyn Fn() -> Box<dyn Scheduler>;

/// A cluster as a scheduler is shown it.
struct Cluster {
    tasks: Vec<TaskSnapshot>,
    instances: Vec<InstanceSnapshot>,
}

impl Cluster {
    fn ctx<'a>(&'a self, catalog: &'a Catalog) -> SchedulerContext<'a> {
        SchedulerContext {
            now: SimTime::from_secs(3600),
            catalog,
            tasks: &self.tasks,
            instances: &self.instances,
        }
    }
}

/// `n` pending tasks of whole jobs drawn as the synthetic traces draw
/// them, shaped as `build_snapshot` shapes a task. Job ids start at
/// `first_job`.
fn pending_tasks(n: usize, seed: u64, first_job: u64) -> Vec<TaskSnapshot> {
    // More jobs than tasks wanted, so that single-task jobs are left to
    // fill the count exactly once a gang job no longer fits.
    let shape = SyntheticTraceConfig {
        num_jobs: n + 16,
        ..SyntheticTraceConfig::huge_100k()
    };
    let mut tasks = Vec::with_capacity(n);
    for job in shape.generate(seed).jobs() {
        if tasks.len() + job.num_tasks() > n {
            continue;
        }
        let id = JobId(first_job + job.id.0);
        tasks.extend(job.tasks.iter().map(|t| TaskSnapshot {
            id: TaskId::new(id, t.id.index),
            workload: t.workload,
            demand: t.demand.clone(),
            checkpoint_delay: t.checkpoint_delay,
            launch_delay: t.launch_delay,
            gang_size: job.num_tasks() as u32,
            gang_coupled: job.gang_coupled,
            assigned_to: None,
            remaining_hint: Some(job.duration_at_full_tput),
        }));
    }
    assert_eq!(
        tasks.len(),
        n,
        "the trace holds enough single-task jobs to reach {n} tasks"
    );
    tasks
}

/// The cluster `plan` leaves behind when every instance it asks for is
/// launched, plus 5 % more pending tasks: the steady state of a round.
fn steady_after(
    cold: &Cluster,
    scheduler: &mut dyn Scheduler,
    catalog: &Catalog,
    seed: u64,
) -> Cluster {
    let plan = scheduler.plan(&cold.ctx(catalog));
    let mut tasks = cold.tasks.clone();
    let mut instances = Vec::new();
    for assignment in &plan.assignments {
        let PlannedInstance::New(type_id) = assignment.instance else {
            panic!("a plan for an empty cluster reuses an instance");
        };
        let id = InstanceId(instances.len() as u64);
        instances.push(InstanceSnapshot { id, type_id });
        for task in tasks
            .iter_mut()
            .filter(|t| assignment.tasks.contains(&t.id))
        {
            task.assigned_to = Some(id);
        }
    }
    tasks.extend(pending_tasks(
        (tasks.len() / 20).max(1),
        derive_seed(seed, 1),
        1 << 32,
    ));
    Cluster { tasks, instances }
}

/// Median milliseconds of `calls` calls of `plan` on `cluster`, each on
/// a scheduler fresh from `make`.
fn plan_ms(cluster: &Cluster, catalog: &Catalog, calls: usize, make: Make<'_>) -> f64 {
    let ctx = cluster.ctx(catalog);
    let samples: Vec<f64> = (0..calls)
        .map(|_| {
            let mut scheduler = make();
            let start = Instant::now();
            black_box(scheduler.plan(black_box(&ctx)));
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::median(&samples)
}

/// Measures `plan` cold (every task pending, no instance) and steady
/// (see [`steady_after`]) at `n` tasks.
fn measure_plan(
    layers: &mut MetricSet,
    names: [&'static str; 2],
    n: usize,
    seed: u64,
    calls: usize,
    make: Make<'_>,
) {
    let catalog = Catalog::aws_eval_2025();
    let cold = Cluster {
        tasks: pending_tasks(n, seed, 0),
        instances: Vec::new(),
    };
    let steady = steady_after(&cold, make().as_mut(), &catalog, seed);
    layers.set(names[0], plan_ms(&cold, &catalog, calls, make));
    layers.set(names[1], plan_ms(&steady, &catalog, calls, make));
}

/// The event type of the hold model; the engine needs nothing of it.
struct Tick;

impl SimEvent for Tick {}

/// Nanoseconds per hold operation (pop the earliest event, schedule one
/// later) on a queue standing at `queue` events.
fn hold_ns(queue: usize, ops: usize, seed: u64) -> f64 {
    // xorshift64*: the increments only need to be spread, not good.
    let mut state = seed | 1;
    let mut next_ms = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        1 + (state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 44)
    };
    let mut engine: EventEngine<Tick> = EventEngine::new();
    for _ in 0..queue {
        engine.schedule(SimTime::from_millis(next_ms()), Tick);
    }
    let start = Instant::now();
    for _ in 0..ops {
        let due = engine.pop().expect("the queue never drains");
        engine.advance_to(due.at);
        engine.schedule(due.at + SimDuration::from_millis(next_ms()), due.event);
    }
    let ns = start.elapsed().as_nanos() as f64 / ops as f64;
    assert_eq!(black_box(engine.len()), queue);
    ns
}

/// Fills in the `core.*`, `baselines.*` and `engine.*` fixture metrics.
pub fn measure(layers: &mut MetricSet, seed: u64, calls: usize, hold_ops: usize) {
    let eva = || Box::new(EvaScheduler::new(EvaConfig::eva())) as Box<dyn Scheduler>;
    measure_plan(
        layers,
        ["core.eva.cold_ms.n32", "core.eva.steady_ms.n32"],
        32,
        seed,
        calls,
        &eva,
    );
    measure_plan(
        layers,
        ["core.eva.cold_ms.n384", "core.eva.steady_ms.n384"],
        384,
        seed,
        calls,
        &eva,
    );

    // Owl is given the measured pairwise profile, as the world gives it.
    let workloads = WorkloadCatalog::table7();
    let kinds: Vec<WorkloadKind> = workloads.iter().map(|w| w.kind).collect();
    let model = InterferenceModel::measured(&workloads);
    let profile = OracleProfile::from_fn(&kinds, |a, b| model.pairwise(a, b));
    let baselines: [([&'static str; 2], Make<'_>); 4] = [
        (
            [
                "baselines.no-packing.cold_ms.n384",
                "baselines.no-packing.steady_ms.n384",
            ],
            &|| Box::new(NoPackingScheduler::new()),
        ),
        (
            [
                "baselines.stratus.cold_ms.n384",
                "baselines.stratus.steady_ms.n384",
            ],
            &|| Box::new(StratusScheduler::new()),
        ),
        (
            [
                "baselines.synergy.cold_ms.n384",
                "baselines.synergy.steady_ms.n384",
            ],
            &|| Box::new(SynergyScheduler::new()),
        ),
        (
            ["baselines.owl.cold_ms.n384", "baselines.owl.steady_ms.n384"],
            &|| Box::new(OwlScheduler::new(profile.clone())),
        ),
    ];
    for (names, make) in baselines {
        measure_plan(layers, names, 384, seed, calls, make);
    }

    // The queue peaks of the streamed and the batch 100 000-job runs.
    layers.set("engine.hold_ns.q1k", hold_ns(1_000, hold_ops, seed));
    layers.set("engine.hold_ns.q100k", hold_ns(100_000, hold_ops, seed));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_cluster_keeps_the_cold_plan_and_adds_pending_tasks() {
        let catalog = Catalog::aws_eval_2025();
        let cold = Cluster {
            tasks: pending_tasks(64, 9, 0),
            instances: Vec::new(),
        };
        assert!(
            cold.tasks.iter().any(|t| t.gang_size > 1),
            "gang jobs are part of the mix"
        );
        let steady = steady_after(&cold, &mut StratusScheduler::new(), &catalog, 9);
        assert_eq!(steady.tasks.len(), 64 + 3);
        assert!(!steady.instances.is_empty());
        assert!(steady.tasks[..64].iter().all(|t| t.assigned_to.is_some()));
        assert!(steady.tasks[64..].iter().all(|t| t.assigned_to.is_none()));
        let mut ids: Vec<_> = steady.tasks.iter().map(|t| t.id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), steady.tasks.len(), "task ids are unique");
    }

    #[test]
    fn hold_keeps_the_queue_standing() {
        assert!(hold_ns(100, 1_000, 3) > 0.0);
    }
}
