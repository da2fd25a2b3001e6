//! The Stratus baseline (SoCC '18), adapted as in §6.1.
//!
//! Stratus packs tasks with *similar finish times* onto the same instance
//! so instances empty out all at once and can be released promptly; it is
//! deliberately conservative about migration. Following the paper's
//! comparison setup, Stratus receives perfect job-duration estimates
//! (`TaskSnapshot::remaining_hint`).
//!
//! Tasks are bucketed into exponential runtime bins (bin *b* holds
//! remaining runtimes in `[2^b, 2^{b+1})` minutes). A pending task prefers
//! an existing instance whose residents share its bin and have capacity;
//! otherwise new instances are sized for whole same-bin groups. Running
//! tasks migrate only during scale-in consolidation (when leftovers of a
//! completed group no longer justify their instance); empty instances
//! terminate.

use std::collections::BTreeMap;

use eva_core::{
    reservation_price, Assignment, ClusterView, Plan, PlannedInstance, Scheduler, SchedulerContext,
    TaskSnapshot,
};
use eva_types::{Cost, DemandSpec, ResourceVector, SimDuration};

/// Distinct demands one `plan_in` remembers the reservation price of.
const PRICED_DEMANDS: usize = 16;

/// See the module docs.
#[derive(Debug, Default)]
pub struct StratusScheduler;

impl StratusScheduler {
    /// Builds the scheduler.
    pub fn new() -> Self {
        StratusScheduler
    }

    /// Exponential runtime bin of a remaining duration.
    pub fn runtime_bin(remaining: SimDuration) -> i32 {
        let minutes = (remaining.as_secs_f64() / 60.0).max(1.0);
        minutes.log2().floor() as i32
    }
}

impl Scheduler for StratusScheduler {
    fn name(&self) -> &'static str {
        "Stratus"
    }

    fn plan_in(&mut self, ctx: &SchedulerContext<'_>, view: &ClusterView<'_>) -> Plan {
        // Reservation price per distinct demand: a round sees the handful
        // of Table 7 shapes over and over, so each pays for one catalog
        // scan per round. The memo is searched linearly and therefore kept
        // short; a round of one-off shapes scans for the rest, as it did.
        let mut priced: Vec<(DemandSpec, Option<Cost>)> = Vec::new();
        let mut price = |demand: &DemandSpec| {
            if let Some(&(_, rp)) = priced.iter().find(|(d, _)| d == demand) {
                return rp;
            }
            let rp = reservation_price(ctx.catalog, demand).map(|(_, c)| c);
            if priced.len() < PRICED_DEMANDS {
                priced.push((*demand, rp));
            }
            rp
        };

        // Per listed instance: the runtime bins of the residents that stay
        // and the capacity in use (residents plus tasks placed this round).
        let bin_of = |t: &TaskSnapshot| t.remaining_hint.map(Self::runtime_bin);
        let residents = view.instances.iter().flat_map(|i| &i.residents);
        let resident_bins: Vec<Option<i32>> = residents.map(|t| bin_of(t)).collect();
        let mut rest = &resident_bins[..];
        let lens = view.instances.iter().map(|i| i.residents.len());
        let mut bins: Vec<_> = lens
            .map(|n| rest.split_off(..n).unwrap_or_default())
            .collect();
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
                .filter_map(|t| price(&t.demand))
                .map(|c| c.as_dollars())
                .sum();
            if rp_sum + 1e-9 < ty.hourly_cost.as_dollars() {
                evicted.extend(&inst.residents);
                bins[i] = &[];
                used[i] = ResourceVector::ZERO;
            }
        }

        // Keep current placements; `slot[i]` is instance `i`'s assignment.
        let mut assignments: Vec<Assignment> = Vec::new();
        let mut slot: Vec<Option<usize>> = vec![None; view.instances.len()];
        for (i, inst) in view.instances.iter().enumerate() {
            if !bins[i].is_empty() {
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
            let bin = bin_of(task);
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
                // A task without a hint shares a bin with nobody.
                let same_bin = match bin {
                    Some(_) => bins[i].iter().filter(|b| **b == bin).count(),
                    None => 0,
                };
                // Stratus only co-locates when bins match (or the instance
                // is one it just opened this round for the same bin).
                let occupied = !bins[i].is_empty();
                if occupied && same_bin == 0 {
                    continue;
                }
                // An empty instance is only worth reusing when it is no
                // more expensive than the task's reservation-price type —
                // tiny tasks must not keep idle big boxes alive.
                if !occupied && ty.hourly_cost > price(&task.demand).unwrap_or_default() {
                    continue;
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use eva_cloud::Catalog;
    use eva_core::InstanceSnapshot;
    use eva_types::{InstanceId, JobId, SimTime, TaskId, WorkloadKind};

    fn task(
        job: u64,
        gpu: u32,
        cpu: u32,
        ram_gb: u64,
        assigned: Option<u64>,
        remaining_mins: u64,
    ) -> TaskSnapshot {
        TaskSnapshot {
            id: TaskId::new(JobId(job), 0),
            workload: WorkloadKind(0),
            demand: DemandSpec::uniform(ResourceVector::with_ram_gb(gpu, cpu, ram_gb)),
            checkpoint_delay: SimDuration::from_secs(2),
            launch_delay: SimDuration::from_secs(10),
            gang_size: 1,
            gang_coupled: false,
            assigned_to: assigned.map(InstanceId),
            remaining_hint: Some(SimDuration::from_mins(remaining_mins)),
        }
    }

    /// Stratus's plan for `tasks` over instances of the named types.
    fn plan_for(tasks: &[TaskSnapshot], instances: &[(u64, &str)]) -> Plan {
        let catalog = Catalog::aws_eval_2025();
        let listed = instances.iter().map(|&(id, ty)| InstanceSnapshot {
            id: InstanceId(id),
            type_id: catalog.by_name(ty).unwrap().id,
        });
        let ctx = SchedulerContext {
            now: SimTime::ZERO,
            catalog: &catalog,
            tasks,
            instances: &listed.collect::<Vec<_>>(),
        };
        StratusScheduler::new().plan(&ctx)
    }

    #[test]
    fn runtime_bins_are_exponential() {
        let bin = |m: u64| StratusScheduler::runtime_bin(SimDuration::from_mins(m));
        assert_eq!(bin(1), 0);
        assert_eq!(bin(2), 1);
        assert_eq!(bin(3), 1);
        assert_eq!(bin(4), 2);
        assert_eq!(bin(60), 5);
        assert_eq!(bin(90), 6);
        assert_eq!(bin(120), 6);
    }

    #[test]
    fn same_bin_tasks_colocate() {
        // An efficient resident (its 20-vCPU demand prices it at the
        // p3.8xlarge itself) with ~2h remaining; a pending task with ~1.7h
        // (same bin 6) should join it.
        let tasks = vec![
            task(1, 1, 20, 24, Some(0), 120),
            task(2, 1, 4, 24, None, 100),
        ];
        let plan = plan_for(&tasks, &[(0, "p3.8xlarge")]);
        let joint = plan
            .assignments
            .iter()
            .find(|a| matches!(a.instance, PlannedInstance::Existing(i) if i == InstanceId(0)))
            .unwrap();
        assert_eq!(joint.tasks.len(), 2);
        assert_eq!(plan.new_instance_count(), 0);
    }

    #[test]
    fn different_bin_tasks_do_not_colocate() {
        // Resident has 8 minutes left (bin 3); pending has 8 hours (bin 8).
        let tasks = vec![task(1, 1, 20, 24, Some(0), 8), task(2, 1, 4, 24, None, 480)];
        let plan = plan_for(&tasks, &[(0, "p3.8xlarge")]);
        assert_eq!(plan.new_instance_count(), 1);
    }

    #[test]
    fn capacity_is_respected_when_joining() {
        let tasks = vec![task(1, 1, 4, 24, Some(0), 60), task(2, 1, 4, 24, None, 60)];
        // One GPU only, and the resident holds it: a new instance must
        // open despite matching bins.
        let plan = plan_for(&tasks, &[(0, "p3.2xlarge")]);
        assert_eq!(plan.new_instance_count(), 1);
    }

    #[test]
    fn efficient_placements_never_migrate() {
        let tasks = vec![
            task(1, 1, 20, 24, Some(0), 60),
            task(2, 1, 20, 24, Some(1), 60),
        ];
        let plan = plan_for(&tasks, &[(0, "p3.8xlarge"), (1, "p3.8xlarge")]);
        assert!(plan.migrations(&tasks, false).is_empty());
    }

    #[test]
    fn scale_in_consolidates_underfilled_boxes() {
        // A lone balanced 1-GPU task (RP $3.06) left on a $12.24 box after
        // its group finished: Stratus scales in, re-placing it cheaply.
        let tasks = vec![task(1, 1, 4, 24, Some(0), 60)];
        let plan = plan_for(&tasks, &[(0, "p3.8xlarge")]);
        assert_eq!(plan.terminate, vec![InstanceId(0)]);
        assert_eq!(plan.migrations(&tasks, false).len(), 1);
        let PlannedInstance::New(new_ty) = plan.assignments[0].instance else {
            panic!()
        };
        let catalog = Catalog::aws_eval_2025();
        assert_eq!(catalog.get(new_ty).unwrap().name, "p3.2xlarge");
    }

    #[test]
    fn empty_instances_terminate() {
        let plan = plan_for(&[], &[(3, "c7i.large")]);
        assert_eq!(plan.terminate, vec![InstanceId(3)]);
    }
}
