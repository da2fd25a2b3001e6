//! `StratusScheduler::plan_in` held to the planner it replaced, plan for
//! plan: same assignments in the same order, same terminations.
//!
//! The reference below is that planner verbatim — a catalog scan
//! (`reservation_price`) per resident in the scale-in sum and per
//! empty-instance probe, and a `runtime_bin` per (pending task ×
//! instance × resident) in the same-bin count. The product prices each
//! distinct demand once per round and bins each resident once.

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

fn reference_plan(ctx: &SchedulerContext<'_>, view: &ClusterView<'_>) -> Plan {
    // Per listed instance: the residents that stay and the capacity
    // in use (residents plus tasks placed this round).
    let mut residents: Vec<&[&TaskSnapshot]> =
        view.instances.iter().map(|i| &i.residents[..]).collect();
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
        if inst.residents.is_empty() {
            continue;
        }
        let rp_sum: f64 = inst
            .residents
            .iter()
            .filter_map(|t| reservation_price(ctx.catalog, &t.demand))
            .map(|(_, c)| c.as_dollars())
            .sum();
        if rp_sum + 1e-9 < ty.hourly_cost.as_dollars() {
            evicted.extend(&inst.residents);
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
                tasks: inst.task_ids(),
            });
        }
    }

    // Place pending tasks bin-first.
    let mut leftover_by_bin: BTreeMap<Option<i32>, Vec<&TaskSnapshot>> = BTreeMap::new();
    for task in view.pending().chain(evicted) {
        let bin = task.remaining_hint.map(StratusScheduler::runtime_bin);
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
                .filter(
                    |r| match (bin, r.remaining_hint.map(StratusScheduler::runtime_bin)) {
                        (Some(a), Some(b)) => a == b,
                        _ => false,
                    },
                )
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

    view.plan(assignments)
}

/// Instances of any catalog type or of two the catalog does not know;
/// tasks of 108 possible shapes (one in four with Table 7's C7i/R7i
/// overrides; a 40-task cluster often holds more distinct ones than the
/// product's price memo keeps, so both of its paths are compared),
/// one in six without a `remaining_hint`, each pending, resident on a
/// listed instance (fitting or not) or on one the snapshot does not list.
/// Instances nobody is resident on are the empty ones.
fn arb_cluster() -> impl Strategy<Value = (Vec<TaskSnapshot>, Vec<InstanceSnapshot>)> {
    let n_types = Catalog::aws_eval_2025().len() as u32;
    let task = (0u32..=2, 1u32..=6, 0u32..3, 0u32..4, 0u64..6, 0usize..12);
    (
        collection::vec(0u32..n_types + 2, 0..8),
        collection::vec(task, 0..40),
    )
        .prop_map(|(types, specs)| {
            let instances: Vec<InstanceSnapshot> = types
                .iter()
                .enumerate()
                .map(|(i, ty)| InstanceSnapshot {
                    id: InstanceId(10 + i as u64),
                    type_id: InstanceTypeId(*ty),
                })
                .collect();
            let task = |(job, (gpu, cpu, ram, kind, hint, place))| {
                // Few shapes, so that specs differing only in their overrides meet.
                let (cpu, ram_gb) = (4 * cpu, 4u64 << (2 * ram));
                let mut demand = DemandSpec::uniform(ResourceVector::with_ram_gb(gpu, cpu, ram_gb));
                if kind == 0 {
                    let fast = ResourceVector::with_ram_gb(0, cpu.div_ceil(2), ram_gb);
                    demand = DemandSpec::uniform(ResourceVector::with_ram_gb(0, cpu, ram_gb))
                        .with_family_override("c7i", fast)
                        .with_family_override("r7i", fast);
                }
                TaskSnapshot {
                    id: TaskId::new(JobId(job as u64), 0),
                    workload: WorkloadKind(kind),
                    demand,
                    checkpoint_delay: SimDuration::from_secs(2),
                    launch_delay: SimDuration::from_secs(10),
                    gang_size: 1,
                    gang_coupled: false,
                    assigned_to: match place {
                        0..=5 => instances.get(place).map(|i| i.id),
                        6 => Some(InstanceId(99)),
                        _ => None,
                    },
                    // 7, 28, 112, 448, 1792 minutes: bins 2, 4, 6, 8, 10.
                    remaining_hint: (hint > 0)
                        .then(|| SimDuration::from_mins(7u64 << (2 * (hint - 1)))),
                }
            };
            let tasks = specs.into_iter().enumerate().map(task).collect();
            (tasks, instances)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn stratus_plans_what_the_reference_plans((tasks, instances) in arb_cluster()) {
        let catalog = Catalog::aws_eval_2025();
        let ctx = SchedulerContext {
            now: SimTime::ZERO,
            catalog: &catalog,
            tasks: &tasks,
            instances: &instances,
        };
        let view = ClusterView::of(&ctx);
        let expected = reference_plan(&ctx, &view);
        prop_assert_eq!(&StratusScheduler::new().plan_in(&ctx, &view), &expected);
        prop_assert_eq!(&StratusScheduler::new().plan(&ctx), &expected);
    }
}
