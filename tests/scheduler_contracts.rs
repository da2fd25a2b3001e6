//! Contract tests every scheduler must satisfy: plans must be executable
//! (capacity-respecting, no duplicated tasks, terminate only untouched
//! instances) on randomized cluster states — including tasks whose
//! `assigned_to` names an instance the snapshot does not list, which is
//! what the world produces while an instance drains. Observations are
//! pulled only by the schedulers that learn from them, and `plan` is
//! `plan_in` over `ClusterView::of`.

use proptest::prelude::*;

use eva::baselines::{
    NoPackingScheduler, OracleProfile, OwlScheduler, StratusScheduler, SynergyScheduler,
};
use eva::core::{ClusterView, InstanceSnapshot, JobObservation, PlannedInstance, TaskSnapshot};
use eva::interference::TaskContext;
use eva::prelude::*;

fn arb_state() -> impl Strategy<Value = (Vec<TaskSnapshot>, Vec<InstanceSnapshot>)> {
    let catalog = Catalog::aws_eval_2025();
    let n_types = catalog.len() as u32;
    (
        proptest::collection::vec((0u32..=2, 1u32..=16, 1u64..=128, 0u32..8, 0u32..5), 1..16),
        proptest::collection::vec(0u32..n_types, 0..6),
    )
        .prop_map(move |(task_specs, instance_types)| {
            let catalog = Catalog::aws_eval_2025();
            let instances: Vec<InstanceSnapshot> = instance_types
                .into_iter()
                .enumerate()
                .map(|(i, ty)| InstanceSnapshot {
                    id: InstanceId(i as u64),
                    type_id: eva::types::InstanceTypeId(ty),
                })
                .collect();
            let mut tasks: Vec<TaskSnapshot> = task_specs
                .into_iter()
                .enumerate()
                .map(|(i, (gpu, cpu, ram_gb, workload, orphan))| TaskSnapshot {
                    id: TaskId::new(JobId(i as u64), 0),
                    workload: WorkloadKind(workload),
                    demand: DemandSpec::uniform(ResourceVector::with_ram_gb(gpu, cpu, ram_gb)),
                    checkpoint_delay: SimDuration::from_secs(2),
                    launch_delay: SimDuration::from_secs(10),
                    gang_size: 1,
                    gang_coupled: false,
                    // One task in five sits on an instance (id ≥ 100) that
                    // `instances` does not list.
                    assigned_to: (orphan == 0).then_some(InstanceId(100 + i as u64 % 2)),
                    remaining_hint: Some(SimDuration::from_mins(30 + i as u64 * 13)),
                })
                .collect();
            // Assign a prefix of tasks onto instances where they fit.
            let mut used: Vec<ResourceVector> =
                instances.iter().map(|_| ResourceVector::ZERO).collect();
            for (i, task) in tasks.iter_mut().enumerate() {
                if instances.is_empty() || i % 3 == 0 || task.assigned_to.is_some() {
                    continue; // Leave some pending.
                }
                let slot = i % instances.len();
                let ty = catalog.get(instances[slot].type_id).unwrap();
                let d = ty.demand_of(&task.demand);
                if let Some(total) = used[slot].checked_add(&d) {
                    if total.fits_within(&ty.capacity) {
                        used[slot] = total;
                        task.assigned_to = Some(instances[slot].id);
                    }
                }
            }
            (tasks, instances)
        })
}

/// The seven scheduler configurations, fresh, as `(scheduler,
/// replaces_orphans, learns)`: whether it re-places a task assigned to an
/// unlisted instance (Eva and Synergy do) or leaves it out of the plan
/// (No-Packing, Stratus and Owl), and whether it reads its observations.
fn schedulers() -> Vec<(Box<dyn Scheduler>, bool, bool)> {
    let workloads = WorkloadCatalog::table7();
    let kinds: Vec<WorkloadKind> = workloads.iter().map(|w| w.kind).collect();
    let profile = OracleProfile::from_fn(&kinds, |_, _| 0.95);
    vec![
        (Box::new(NoPackingScheduler::new()), false, false),
        (Box::new(StratusScheduler::new()), false, false),
        (Box::new(SynergyScheduler::new()), true, true),
        (Box::new(OwlScheduler::new(profile)), false, false),
        (Box::new(EvaScheduler::new(EvaConfig::eva())), true, true),
        (
            Box::new(EvaScheduler::new(EvaConfig::without_partial())),
            true,
            true,
        ),
        (
            Box::new(EvaScheduler::new(EvaConfig::without_full())),
            true,
            true,
        ),
    ]
}

fn check_plan(
    name: &str,
    plan: &eva::core::Plan,
    tasks: &[TaskSnapshot],
    instances: &[InstanceSnapshot],
    replaces_orphans: bool,
) -> Result<(), TestCaseError> {
    let catalog = Catalog::aws_eval_2025();
    // No task appears twice.
    let mut seen = std::collections::BTreeSet::new();
    for a in &plan.assignments {
        for t in &a.tasks {
            prop_assert!(seen.insert(*t), "{name}: task {t} duplicated");
        }
    }
    for t in tasks {
        let listed = |id| instances.iter().any(|i| i.id == id);
        if t.assigned_to.is_some_and(|id| !listed(id)) {
            prop_assert_eq!(
                seen.contains(&t.id),
                replaces_orphans,
                "{}: orphan {}",
                name,
                t.id
            );
        }
    }
    // Capacity respected per planned instance; none targets an unlisted one.
    for a in &plan.assignments {
        let type_id = match a.instance {
            PlannedInstance::Existing(id) => {
                let inst = instances.iter().find(|i| i.id == id);
                prop_assert!(inst.is_some(), "{name}: unknown instance {id}");
                inst.unwrap().type_id
            }
            PlannedInstance::New(ty) => ty,
        };
        let ty = catalog.get(type_id).unwrap();
        let mut total = ResourceVector::ZERO;
        for tid in &a.tasks {
            let task = tasks.iter().find(|t| t.id == *tid).unwrap();
            total += ty.demand_of(&task.demand);
        }
        prop_assert!(
            total.fits_within(&ty.capacity),
            "{name}: overfull {} on {}",
            total,
            ty.name
        );
    }
    // Terminated instances receive no assignments.
    for id in &plan.terminate {
        let assigned = plan
            .assignments
            .iter()
            .any(|a| matches!(a.instance, PlannedInstance::Existing(i) if i == *id));
        prop_assert!(!assigned, "{name}: assigns to terminated {id}");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_schedulers_emit_executable_plans((tasks, instances) in arb_state()) {
        let catalog = Catalog::aws_eval_2025();
        let ctx = SchedulerContext {
            now: SimTime::from_secs(3600),
            catalog: &catalog,
            tasks: &tasks,
            instances: &instances,
        };
        for (mut sched, replaces_orphans, _) in schedulers() {
            let plan = sched.plan(&ctx);
            check_plan(sched.name(), &plan, &tasks, &instances, replaces_orphans)?;
        }
    }

    #[test]
    fn observations_are_pulled_by_learners_only_and_plan_is_plan_in(
        (tasks, instances) in arb_state(),
    ) {
        let catalog = Catalog::aws_eval_2025();
        let ctx = SchedulerContext {
            now: SimTime::from_secs(3600),
            catalog: &catalog,
            tasks: &tasks,
            instances: &instances,
        };
        // One observation per placed task, each sharing its instance with
        // the next workload kind.
        let offered: Vec<JobObservation> = tasks
            .iter()
            .filter(|t| t.assigned_to.is_some())
            .map(|t| JobObservation {
                job: t.id.job,
                gang_coupled: false,
                observed_tput: 0.8,
                contexts: vec![TaskContext::new(
                    t.id,
                    t.workload,
                    vec![WorkloadKind((t.workload.0 + 1) % 8)],
                )],
            })
            .collect();
        for ((mut a, _, learns), (mut b, ..)) in schedulers().into_iter().zip(schedulers()) {
            let mut pulled = 0;
            a.observe(&mut offered.iter().cloned().inspect(|_| pulled += 1));
            prop_assert_eq!(pulled, if learns { offered.len() } else { 0 }, "{}", a.name());
            b.observe(&mut offered.iter().cloned());
            let view = ClusterView::of(&ctx);
            prop_assert_eq!(a.plan_in(&ctx, &view), b.plan(&ctx), "{}", a.name());
        }
    }

    #[test]
    fn cluster_view_is_the_naive_derivation((tasks, instances) in arb_state()) {
        let catalog = Catalog::aws_eval_2025();
        let ctx = SchedulerContext {
            now: SimTime::ZERO,
            catalog: &catalog,
            tasks: &tasks,
            instances: &instances,
        };
        let view = ClusterView::of(&ctx);
        prop_assert_eq!(view.instances.len(), instances.len());
        for (got, inst) in view.instances.iter().zip(&instances) {
            let ty = catalog.get(inst.type_id).unwrap();
            let residents: Vec<&TaskSnapshot> =
                tasks.iter().filter(|t| t.assigned_to == Some(inst.id)).collect();
            let used: ResourceVector = residents.iter().map(|t| ty.demand_of(&t.demand)).sum();
            prop_assert_eq!((got.id, got.type_id, got.ty), (inst.id, inst.type_id, Some(ty)));
            prop_assert_eq!(&got.residents, &residents);
            prop_assert_eq!(got.used, used);
            prop_assert_eq!(view.instance(inst.id).map(|i| i.id), Some(inst.id));
        }
        let pending: Vec<&TaskSnapshot> = tasks.iter().filter(|t| t.assigned_to.is_none()).collect();
        prop_assert_eq!(view.pending().collect::<Vec<_>>(), pending);
        let unplaced: Vec<&TaskSnapshot> = tasks
            .iter()
            .filter(|t| t.assigned_to.is_none_or(|id| view.instance(id).is_none()))
            .collect();
        prop_assert_eq!(&view.unplaced, &unplaced);
        prop_assert!(view.instance(InstanceId(100)).is_none());
        for t in &tasks {
            prop_assert_eq!(view.task(t.id), Some(t));
        }
    }
}

#[test]
fn cluster_view_lookups_answer_with_the_first_listing() {
    // Ids neither ascending nor unique: instance 7 is listed twice (with
    // different types), task 5/0 twice (on different instances).
    let inst = |id, ty| InstanceSnapshot {
        id: InstanceId(id),
        type_id: eva::types::InstanceTypeId(ty),
    };
    let instances = [inst(7, 3), inst(2, 0), inst(7, 5), inst(4, 1)];
    let task = |job, on: Option<u64>, cpu| TaskSnapshot {
        id: TaskId::new(JobId(job), 0),
        workload: WorkloadKind(0),
        demand: DemandSpec::uniform(ResourceVector::with_ram_gb(0, cpu, 1)),
        checkpoint_delay: SimDuration::from_secs(2),
        launch_delay: SimDuration::from_secs(10),
        gang_size: 1,
        gang_coupled: false,
        assigned_to: on.map(InstanceId),
        remaining_hint: None,
    };
    let tasks = [
        task(9, Some(7), 1),
        task(5, Some(2), 2),
        task(1, None, 3),
        task(5, Some(4), 4),
        task(3, Some(7), 5),
    ];
    let catalog = Catalog::aws_eval_2025();
    let ctx = SchedulerContext {
        now: SimTime::ZERO,
        catalog: &catalog,
        tasks: &tasks,
        instances: &instances,
    };
    let view = ClusterView::of(&ctx);

    // Every listing keeps its row, in listed order; residents go to the
    // first row of their instance id.
    let rows: Vec<(u64, u32, usize)> = view
        .instances
        .iter()
        .map(|i| (i.id.0, i.type_id.0, i.residents.len()))
        .collect();
    assert_eq!(rows, vec![(7, 3, 2), (2, 0, 1), (7, 5, 0), (4, 1, 1)]);
    assert_eq!(view.instance(InstanceId(7)).unwrap().type_id.0, 3);
    assert_eq!(view.instance(InstanceId(4)).unwrap().type_id.0, 1);
    assert!(view.instance(InstanceId(5)).is_none());

    let first = view.task(TaskId::new(JobId(5), 0)).unwrap();
    assert!(std::ptr::eq(first, &tasks[1]));
    assert_eq!(first.assigned_to, Some(InstanceId(2)));
    assert!(std::ptr::eq(view.task(tasks[4].id).unwrap(), &tasks[4]));
    assert!(view.task(TaskId::new(JobId(5), 1)).is_none());
    assert_eq!(
        view.pending().map(|t| t.id.job.0).collect::<Vec<_>>(),
        vec![1]
    );
}
