//! `StratusScheduler::plan_in` held to the planner it replaced, plan for
//! plan: the same new instances in the same order, the same terminations,
//! and the same task lists on the same existing instances.
//!
//! The reference lists each instance whose residents all stay, with exactly
//! those residents: a pure keep listing, which `Plan::moves` skips. The
//! product keeps such an instance implicitly (see `Plan`) and lists it only
//! when it receives a task, so the comparison drops the reference's pure
//! keep listings. It compares the other assignments to existing instances
//! by instance, not by position, because the product lists them in the
//! order it places their first task. The executor ignores that order: it
//! launches the new instances in plan order, and it resolves each move to
//! its destination instance and applies the moves in task order, so a
//! plan that lists no task twice makes the same changes in any order of
//! its assignments to existing instances. Neither plan may list a task
//! twice.
//!
//! The reference below is that planner verbatim. It scans the catalog
//! (`reservation_price`) for each resident in the scale-in sum and for each
//! empty-instance probe. It bins each resident again for every (pending
//! task × instance) pair, with the bin's `f64` definition written out here.
//! It probes every listed instance for every task. The product does four
//! things differently:
//! - it makes one pass over the instances for scale-in, keep and rows;
//! - a task probes only the rows holding a resident of its bin, and then
//!   the empty rows if none fits;
//! - it resolves a task's demand only on the rows it probes, and prices a
//!   task at most once, only when an empty row fits it;
//! - it keeps its rows and buckets across rounds.
//!
//! So one scheduler is also driven through a sequence of clusters, and
//! hints are drawn at ±1 ms of bin boundaries in bins up to 48.

use std::collections::BTreeMap;

use eva_baselines::StratusScheduler;
use eva_cloud::Catalog;
use eva_core::{
    reservation_price, Assignment, ClusterView, InstanceSnapshot, Plan, PlannedInstance, Scheduler,
    SchedulerContext, TaskSnapshot,
};
use eva_types::{
    DemandSpec, InstanceId, InstanceTypeId, JobId, ResourceVector, SimDuration, SimTime, TaskId,
    WorkloadKind,
};
use proptest::prelude::*;

/// Stratus's runtime bin, as the reference planner computed it.
fn reference_bin(remaining: SimDuration) -> i32 {
    let minutes = (remaining.as_secs_f64() / 60.0).max(1.0);
    minutes.log2().floor() as i32
}

fn reference_plan(ctx: &SchedulerContext<'_>, view: &ClusterView<'_>) -> Plan {
    // Per listed instance: the residents that stay and the capacity
    // in use (residents plus tasks placed this round).
    let mut residents: Vec<&[&TaskSnapshot]> =
        view.instances.iter().map(|i| view.residents(i)).collect();
    let mut used: Vec<ResourceVector> = view.instances.iter().map(|i| i.used).collect();

    // Scale-in consolidation (the source of Stratus's rare
    // migrations): when a group has partially completed and the
    // leftovers' reservation prices no longer cover the instance, the
    // leftovers are re-placed and the instance released.
    let mut evicted: Vec<&TaskSnapshot> = Vec::new();
    for (i, inst) in view.instances.iter().enumerate() {
        let Some(ty) = inst.ty else {
            continue;
        };
        if view.residents(inst).is_empty() {
            continue;
        }
        let rp_sum: f64 = view
            .residents(inst)
            .iter()
            .filter_map(|t| reservation_price(ctx.catalog, &t.demand))
            .map(|(_, c)| c.as_dollars())
            .sum();
        if rp_sum + 1e-9 < ty.hourly_cost.as_dollars() {
            evicted.extend(view.residents(inst));
            residents[i] = &[];
            used[i] = ResourceVector::ZERO;
        }
    }

    // Keep current placements; `slot[i]` is instance `i`'s assignment.
    let mut assignments: Vec<Assignment> = Vec::new();
    let mut slot: Vec<Option<usize>> = vec![None; view.instances.len()];
    for (i, inst) in view.instances.iter().enumerate() {
        if !residents[i].is_empty() {
            slot[i] = Some(assignments.len());
            assignments.push(Assignment {
                instance: PlannedInstance::Existing(inst.id),
                tasks: view.task_ids(inst),
            });
        }
    }

    // Place pending tasks bin-first.
    let mut leftover_by_bin: BTreeMap<Option<i32>, Vec<&TaskSnapshot>> = BTreeMap::new();
    for task in view.pending().chain(evicted) {
        let bin = task.remaining_hint.map(reference_bin);
        // Candidate instances: capacity for the task, ranked by
        // (same-bin residents desc, spare capacity asc).
        let mut best: Option<(usize, usize)> = None;
        for (i, inst) in view.instances.iter().enumerate() {
            let Some(ty) = inst.ty else {
                continue;
            };
            let Some(total) = used[i].checked_add(&ty.demand_of(&task.demand)) else {
                continue;
            };
            if !total.fits_within(&ty.capacity) {
                continue;
            }
            let same_bin = residents[i]
                .iter()
                .filter(|r| match (bin, r.remaining_hint.map(reference_bin)) {
                    (Some(a), Some(b)) => a == b,
                    _ => false,
                })
                .count();
            // Stratus only co-locates when bins match (or the instance
            // is one it just opened this round for the same bin).
            let occupied = !residents[i].is_empty();
            if occupied && same_bin == 0 {
                continue;
            }
            // An empty instance is only worth reusing when it is no
            // more expensive than the task's reservation-price type —
            // tiny tasks must not keep idle big boxes alive.
            if !occupied {
                let rp = reservation_price(ctx.catalog, &task.demand)
                    .map(|(_, c)| c)
                    .unwrap_or_default();
                if ty.hourly_cost > rp {
                    continue;
                }
            }
            if best.is_none_or(|(_, s)| same_bin > s) {
                best = Some((i, same_bin));
            }
        }
        match best {
            Some((i, _)) => {
                let inst = &view.instances[i];
                if let Some(ty) = inst.ty {
                    used[i] += ty.demand_of(&task.demand);
                }
                let at = *slot[i].get_or_insert_with(|| {
                    assignments.push(Assignment {
                        instance: PlannedInstance::Existing(inst.id),
                        tasks: Vec::new(),
                    });
                    assignments.len() - 1
                });
                assignments[at].tasks.push(task.id);
            }
            None => leftover_by_bin.entry(bin).or_default().push(task),
        }
    }

    // Scale-out: size new instances for whole same-bin groups rather
    // than per task — Stratus's group-aware acquisition. For each bin,
    // repeatedly pick the instance type minimizing cost per hosted
    // task and open one instance for as many group members as fit.
    for (_bin, mut group) in leftover_by_bin {
        group.sort_by_key(|a| a.id);
        while !group.is_empty() {
            let mut best: Option<(eva_types::InstanceTypeId, Vec<usize>, f64)> = None;
            for ty in ctx.catalog.types() {
                if ty.hourly_cost.is_zero() {
                    continue;
                }
                let mut fill = ResourceVector::ZERO;
                let mut members = Vec::new();
                for (idx, task) in group.iter().enumerate() {
                    let d = ty.demand_of(&task.demand);
                    if let Some(total) = fill.checked_add(&d) {
                        if total.fits_within(&ty.capacity) {
                            fill = total;
                            members.push(idx);
                        }
                    }
                }
                if members.is_empty() {
                    continue;
                }
                let per_task = ty.hourly_cost.as_dollars() / members.len() as f64;
                let better = match &best {
                    None => true,
                    Some((_, m, c)) => {
                        per_task < c - 1e-12
                            || ((per_task - c).abs() <= 1e-12 && members.len() > m.len())
                    }
                };
                if better {
                    best = Some((ty.id, members, per_task));
                }
            }
            let Some((ty, members, _)) = best else { break };
            let ids: Vec<_> = members.iter().map(|i| group[*i].id).collect();
            let mut keep = members.clone();
            keep.sort_unstable_by(|a, b| b.cmp(a));
            for idx in keep {
                group.remove(idx);
            }
            assignments.push(Assignment {
                instance: PlannedInstance::New(ty),
                tasks: ids,
            });
        }
    }

    view.plan(assignments, 0..view.instances.len())
}

/// `2^bin` minutes plus `offset` milliseconds (at least 0): a bin boundary
/// or a point near it.
fn boundary(bin: u32, offset: i64) -> SimDuration {
    SimDuration::from_millis((60_000u64 << bin).saturating_add_signed(offset))
}

/// Instances of any catalog type or of two the catalog does not know;
/// tasks of 108 possible shapes (one in four with Table 7's C7i/R7i
/// overrides; a 40-task cluster often holds more distinct ones than the
/// product's price memo keeps, so every path of the memo is compared),
/// one in six without a `remaining_hint`, each pending, resident on a
/// listed instance (fitting or not) or on one the snapshot does not list.
/// Instances nobody is resident on are the empty ones; with
/// `vacant_first` the first listed is always one.
///
/// Half the clusters draw hints of 7, 28, 112, 448 or 1792 minutes
/// (bins 2, 4, 6, 8, 10); the other half draw them at a bin boundary or
/// 1 ms to either side, in three adjacent bins from 0..=46 up.
fn arb_cluster(
    vacant_first: bool,
) -> impl Strategy<Value = (Vec<TaskSnapshot>, Vec<InstanceSnapshot>)> {
    let n_types = Catalog::aws_eval_2025().len() as u32;
    let hint = (0u32..6, -1i64..=1);
    let task = (0u32..=2, 1u32..=6, 0u32..3, 0u32..4, hint, 0usize..12);
    (
        collection::vec(0u32..n_types + 2, 0..8),
        collection::vec(task, 0..40),
        (0u32..=46, 0u32..2),
    )
        .prop_map(move |(types, specs, (base_bin, at_boundary))| {
            let instances: Vec<InstanceSnapshot> = types
                .iter()
                .enumerate()
                .map(|(i, ty)| InstanceSnapshot {
                    id: InstanceId(10 + i as u64),
                    type_id: InstanceTypeId(*ty),
                })
                .collect();
            let skip = usize::from(vacant_first);
            let task = |(job, (gpu, cpu, ram, kind, (hint, offset), place))| {
                // Few shapes, so that specs differing only in their overrides meet.
                let (cpu, ram_gb) = (4 * cpu, 4u64 << (2 * ram));
                let mut demand = DemandSpec::uniform(ResourceVector::with_ram_gb(gpu, cpu, ram_gb));
                if kind == 0 {
                    let fast = ResourceVector::with_ram_gb(0, cpu.div_ceil(2), ram_gb);
                    demand = DemandSpec::uniform(ResourceVector::with_ram_gb(0, cpu, ram_gb))
                        .with_family_override("c7i", fast)
                        .with_family_override("r7i", fast);
                }
                let remaining_hint = (hint > 0).then(|| match at_boundary {
                    0 => SimDuration::from_mins(7u64 << (2 * (hint - 1))),
                    _ => boundary(base_bin + (hint - 1) % 3, offset),
                });
                TaskSnapshot {
                    id: TaskId::new(JobId(job as u64), 0),
                    workload: WorkloadKind(kind),
                    demand,
                    checkpoint_delay: SimDuration::from_secs(2),
                    launch_delay: SimDuration::from_secs(10),
                    gang_size: 1,
                    gang_coupled: false,
                    assigned_to: match place {
                        0..=5 => instances.get(place + skip).map(|i| i.id),
                        6 => Some(InstanceId(99)),
                        _ => None,
                    },
                    remaining_hint,
                }
            };
            let tasks = specs.into_iter().enumerate().map(task).collect();
            (tasks, instances)
        })
}

/// New instances, terminations, and task lists by existing instance.
type Changes = (
    Vec<Assignment>,
    Vec<InstanceId>,
    BTreeMap<InstanceId, Vec<TaskId>>,
);

/// The parts of a plan the executor acts on: its new instances in order,
/// its terminations, and each existing instance's listed tasks, except a
/// pure keep listing, which fails unless `keeps` allows it. Fails on a
/// task or an instance listed twice.
fn changes(plan: &Plan, view: &ClusterView<'_>, keeps: bool) -> Result<Changes, TestCaseError> {
    let mut seen = std::collections::BTreeSet::new();
    let (mut new, mut existing) = (Vec::new(), BTreeMap::new());
    for a in &plan.assignments {
        for t in &a.tasks {
            prop_assert!(seen.insert(*t), "task {} listed twice", t);
        }
        match a.instance {
            PlannedInstance::New(_) => new.push(a.clone()),
            PlannedInstance::Existing(id) => {
                let keep = view
                    .instance(id)
                    .is_some_and(|i| view.task_ids(i) == a.tasks);
                prop_assert!(keeps || !keep, "pure keep listing of {}", id);
                if !keep {
                    let listed = existing.insert(id, a.tasks.clone());
                    prop_assert!(listed.is_none(), "instance {} listed twice", id);
                }
            }
        }
    }
    Ok((new, plan.terminate.clone(), existing))
}

/// Asserts that `stratus` plans what the reference plans for this cluster,
/// through `plan_in` and through `plan`.
fn holds_to_reference(
    stratus: &mut StratusScheduler,
    tasks: &[TaskSnapshot],
    instances: &[InstanceSnapshot],
) -> Result<(), TestCaseError> {
    let catalog = Catalog::aws_eval_2025();
    let ctx = SchedulerContext {
        now: SimTime::ZERO,
        catalog: &catalog,
        tasks,
        instances,
    };
    let view = ClusterView::of(&ctx);
    let expected = changes(&reference_plan(&ctx, &view), &view, true)?;
    prop_assert_eq!(
        &changes(&stratus.plan_in(&ctx, &view), &view, false)?,
        &expected
    );
    prop_assert_eq!(&changes(&stratus.plan(&ctx), &view, false)?, &expected);
    Ok(())
}

#[test]
fn runtime_bin_is_the_f64_definition_at_every_boundary() {
    // A bin read from the float's exponent, or an integer `ilog2`, differs
    // from `log2` just below a boundary, where `log2` rounds up to it:
    // ±1 ms and ±2^j ms around every boundary hold the product to it.
    let offsets = (0..40).flat_map(|j| [1i64 << j, -(1i64 << j)]);
    for bin in 0..=48 {
        for offset in offsets.clone().chain([0]) {
            let d = boundary(bin, offset);
            assert_eq!(StratusScheduler::runtime_bin(d), reference_bin(d), "{d:?}");
        }
    }
    let max = SimDuration::from_millis(u64::MAX);
    assert_eq!(StratusScheduler::runtime_bin(max), 48);
}

#[test]
fn a_same_bin_row_beats_a_vacant_row_listed_before_it() {
    // An empty c7i.xlarge, the pending task's reservation-price type, is
    // listed first; the p3.8xlarge after it holds a same-bin resident and
    // has room. The task joins the resident.
    let catalog = Catalog::aws_eval_2025();
    let listed = [(10, "c7i.xlarge"), (11, "p3.8xlarge")];
    let instances: Vec<InstanceSnapshot> = listed
        .iter()
        .map(|&(id, ty)| InstanceSnapshot {
            id: InstanceId(id),
            type_id: catalog.by_name(ty).unwrap().id,
        })
        .collect();
    let task = |job, gpu, cpu, on: Option<u64>| TaskSnapshot {
        id: TaskId::new(JobId(job), 0),
        workload: WorkloadKind(0),
        demand: DemandSpec::uniform(ResourceVector::with_ram_gb(gpu, cpu, 8)),
        checkpoint_delay: SimDuration::from_secs(2),
        launch_delay: SimDuration::from_secs(10),
        gang_size: 1,
        gang_coupled: false,
        assigned_to: on.map(InstanceId),
        remaining_hint: Some(SimDuration::from_mins(100)),
    };
    let tasks = vec![task(1, 4, 20, Some(11)), task(2, 0, 4, None)];
    let mut stratus = StratusScheduler::new();
    holds_to_reference(&mut stratus, &tasks, &instances).unwrap();
    let ctx = SchedulerContext {
        now: SimTime::ZERO,
        catalog: &catalog,
        tasks: &tasks,
        instances: &instances,
    };
    let plan = stratus.plan(&ctx);
    let joint = Assignment {
        instance: PlannedInstance::Existing(InstanceId(11)),
        tasks: vec![tasks[0].id, tasks[1].id],
    };
    assert_eq!(plan.assignments, vec![joint]);
    assert_eq!(plan.terminate, vec![InstanceId(10)]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn stratus_plans_what_the_reference_plans((tasks, instances) in arb_cluster(false)) {
        holds_to_reference(&mut StratusScheduler::new(), &tasks, &instances)?;
    }

    #[test]
    fn one_scheduler_plans_a_sequence_as_the_reference_does(
        clusters in collection::vec(arb_cluster(true), 1..8)
    ) {
        // Rows and buckets left from one cluster must not leak into the next.
        let mut stratus = StratusScheduler::new();
        for (tasks, instances) in &clusters {
            holds_to_reference(&mut stratus, tasks, instances)?;
        }
    }
}
