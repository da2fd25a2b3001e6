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
//! terminate. Scale-in reads each instance's `reserved`, its residents'
//! summed reservation prices, from the view: exact micro-dollars, which
//! the world keeps on its instance rows, so a round prices no resident.
//!
//! A plan names only what a round changes (see `Plan`): an instance whose
//! residents all stay is kept implicitly and listed only when it receives
//! a task, with its residents and then the tasks it receives.
//!
//! # Which instances a task probes
//!
//! A round files each instance whose residents stay in the bucket of each
//! bin they hold, with its count of residents in that bin; an instance
//! left empty is vacant. A task of bin *b* scans bucket *b* in listing
//! order, then the vacant instances only if no bucket one fits. A scan of
//! every instance picks the same one: it skips occupied instances without
//! a bin-*b* resident, scores the rest by their bin-*b* count (≥ 1, and 0
//! when vacant) and keeps the first of the highest score. Buckets hold
//! the residents a round starts with, not the tasks it places.

use std::collections::BTreeMap;

use eva_core::{
    price_memo, Assignment, ClusterView, Plan, PlannedInstance, Scheduler, SchedulerContext,
    TaskSnapshot,
};
use eva_types::{Cost, FamilyKey, ResourceVector, SimDuration};

/// An instance's free room and the family key its demands resolve by.
type Room = (ResourceVector, FamilyKey);

/// See the module docs. The fields are one round's scratch, kept to be reused.
#[derive(Debug, Default)]
pub struct StratusScheduler {
    /// Per listed instance: its room beside the residents that stay and the
    /// tasks placed this round (`None` when it hosts nothing new: an unknown
    /// type, or residents past its capacity), whether its residents stay,
    /// and its assignment in the plan, if any.
    rows: Vec<(Option<Room>, bool, Option<usize>)>,
    /// `buckets[b]`: (instance, its residents in bin `b`), in listing order.
    buckets: Vec<Vec<(usize, u32)>>,
    /// The instances no resident stays on, in listing order.
    vacant: Vec<usize>,
}

impl StratusScheduler {
    /// Builds the scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Exponential runtime bin of a remaining duration: `⌊log2⌋` of its
    /// minutes in `f64`. Outside the top 2⁻³⁰ of a bin, where `log2` may
    /// round up, that is the float's exponent, read without calling `log2`.
    pub fn runtime_bin(remaining: SimDuration) -> i32 {
        let minutes = (remaining.as_secs_f64() / 60.0).max(1.0);
        match minutes.to_bits() {
            bits if bits << 12 < u64::MAX << 34 => (bits >> 52) as i32 - 1023,
            _ => minutes.log2().floor() as i32,
        }
    }
}

impl Scheduler for StratusScheduler {
    fn name(&self) -> &'static str {
        "Stratus"
    }

    fn plan_in(&mut self, ctx: &SchedulerContext<'_>, view: &ClusterView<'_>) -> Plan {
        let mut price = price_memo(ctx.catalog);
        self.rows.clear();
        self.buckets.iter_mut().for_each(Vec::clear);
        self.vacant.clear();

        // One pass over the listed instances: scale-in and rows. An
        // instance whose residents stay is kept implicitly (see `Plan`).
        let mut assignments = Vec::new();
        let mut evicted: Vec<&TaskSnapshot> = Vec::new();
        for (i, inst) in view.instances.iter().enumerate() {
            // Scale-in consolidation (the source of Stratus's rare
            // migrations): when a group has partially completed and the
            // leftovers' reservation prices no longer cover the instance,
            // the leftovers are re-placed and the instance released.
            let residents = view.residents(inst);
            let cost = inst.ty.map_or(Cost::ZERO, |ty| ty.hourly_cost);
            let stay = !residents.is_empty() && inst.reserved >= cost;
            let used = if stay { inst.used } else { Default::default() };
            let room = inst.ty.filter(|ty| used.fits_within(&ty.capacity));
            let room = room.map(|ty| (ty.capacity - used, ty.family.key()));
            self.rows.push((room, stay, None));
            if !stay {
                evicted.extend(residents);
                self.vacant.push(i);
                continue;
            }
            for hint in residents.iter().filter_map(|t| t.remaining_hint) {
                let b = Self::runtime_bin(hint) as usize;
                if self.buckets.len() <= b {
                    self.buckets.resize_with(b + 1, Vec::new);
                }
                match self.buckets[b].last_mut() {
                    Some((at, n)) if *at == i => *n += 1,
                    _ => self.buckets[b].push((i, 1)),
                }
            }
        }

        // Place pending tasks bin-first (module docs).
        let mut leftover_by_bin: BTreeMap<Option<i32>, Vec<&TaskSnapshot>> = BTreeMap::new();
        for task in view.pending().chain(evicted) {
            // The task's demand there if it fits the room.
            let fit = |i: usize| {
                let (room, key) = self.rows[i].0?;
                let demand = task.demand.for_key(key);
                demand.fits_within(&room).then_some(demand)
            };
            let bin = task.remaining_hint.map(Self::runtime_bin);
            let bucket = bin.and_then(|b| self.buckets.get(b as usize));
            // (instance, same-bin residents, the task's demand there).
            let mut best: Option<(usize, u32, ResourceVector)> = None;
            for &(i, n) in bucket.into_iter().flatten() {
                if best.is_none_or(|(_, s, _)| n > s) {
                    best = fit(i).map(|demand| (i, n, demand)).or(best);
                }
            }
            // An empty instance is only worth reusing when it is no more
            // expensive than the task's reservation-price type, priced once
            // — tiny tasks must not keep idle big boxes alive.
            if best.is_none() {
                let mut rp = None;
                best = self.vacant.iter().find_map(|&i| {
                    let demand = fit(i)?;
                    let rp = *rp.get_or_insert_with(|| price(&task.demand).unwrap_or_default());
                    (view.instances[i].ty?.hourly_cost <= rp).then_some((i, 0, demand))
                });
            }
            let Some((i, _, demand)) = best else {
                leftover_by_bin.entry(bin).or_default().push(task);
                continue;
            };
            let (room, stay, slot) = &mut self.rows[i];
            if let Some((room, _)) = room {
                *room -= demand;
            }
            let at = *slot.get_or_insert_with(|| {
                // The first task placed here: list the residents that stay.
                let inst = &view.instances[i];
                let tasks = if *stay {
                    view.task_ids(inst)
                } else {
                    Vec::new()
                };
                assignments.push(Assignment::new(PlannedInstance::Existing(inst.id), tasks));
                assignments.len() - 1
            });
            assignments[at].tasks.push(task.id);
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
                    let better = |(_, m, c): &(_, Vec<usize>, f64)| {
                        per_task < c - 1e-12
                            || ((per_task - c).abs() <= 1e-12 && members.len() > m.len())
                    };
                    if best.as_ref().is_none_or(better) {
                        best = Some((ty.id, members, per_task));
                    }
                }
                let Some((ty, members, _)) = best else { break };
                let ids: Vec<_> = members.iter().map(|i| group[*i].id).collect();
                // `members` ascends: remove from the back.
                for &idx in members.iter().rev() {
                    group.remove(idx);
                }
                assignments.push(Assignment::new(PlannedInstance::New(ty), ids));
            }
        }

        view.plan(assignments, self.vacant.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eva_cloud::Catalog;
    use eva_core::InstanceSnapshot;
    use eva_types::{DemandSpec, InstanceId, JobId, SimTime, TaskId, WorkloadKind};

    /// A task of `(gpu, cpu, ram_gb)` on `assigned`, `mins` from done.
    fn task(job: u64, gpu: u32, cpu: u32, gb: u64, on: Option<u64>, mins: u64) -> TaskSnapshot {
        let demand = DemandSpec::uniform(ResourceVector::with_ram_gb(gpu, cpu, gb));
        let mut task = TaskSnapshot::new(TaskId::new(JobId(job), 0), WorkloadKind(0), demand);
        task.assigned_to = on.map(InstanceId);
        task.remaining_hint = Some(SimDuration::from_mins(mins));
        task
    }

    /// Stratus's plan for `tasks` over instances of the named types.
    fn plan_for(tasks: &[TaskSnapshot], instances: &[(u64, &str)]) -> Plan {
        let catalog = Catalog::aws_eval_2025();
        let listed = instances.iter().map(|&(id, ty)| {
            InstanceSnapshot::new(InstanceId(id), catalog.by_name(ty).unwrap().id)
        });
        let listed: Vec<_> = listed.collect();
        StratusScheduler::new().plan(&SchedulerContext::new(
            SimTime::ZERO,
            &catalog,
            tasks,
            &listed,
        ))
    }

    /// The plan's moves over `tasks` that are not first placements.
    fn migrations(plan: &Plan, tasks: &[TaskSnapshot]) -> usize {
        let catalog = Catalog::aws_eval_2025();
        let ctx = SchedulerContext::new(SimTime::ZERO, &catalog, tasks, &[]);
        let view = ClusterView::of(&ctx);
        plan.moves(&view).filter(|m| !m.is_initial()).count()
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
        assert_eq!(migrations(&plan, &tasks), 0);
    }

    #[test]
    fn scale_in_consolidates_underfilled_boxes() {
        // A lone balanced 1-GPU task (RP $3.06) left on a $12.24 box after
        // its group finished: Stratus scales in, re-placing it cheaply.
        let tasks = vec![task(1, 1, 4, 24, Some(0), 60)];
        let plan = plan_for(&tasks, &[(0, "p3.8xlarge")]);
        assert_eq!(plan.terminate, vec![InstanceId(0)]);
        assert_eq!(migrations(&plan, &tasks), 1);
        let PlannedInstance::New(new_ty) = plan.assignments[0].instance else {
            panic!()
        };
        let catalog = Catalog::aws_eval_2025();
        assert_eq!(catalog.get(new_ty).unwrap().name, "p3.2xlarge");
        // Scale-in reads the view's `reserved`: a sum equal to the box's
        // price keeps it as it is, one micro-dollar less evicts the task.
        let ty = catalog.by_name("p3.8xlarge").unwrap();
        let listed = [InstanceSnapshot::new(InstanceId(0), ty.id)];
        let ctx = SchedulerContext::new(SimTime::ZERO, &catalog, &tasks, &listed);
        let plan = |micros| {
            let sums = [(ty.demand_of(&tasks[0].demand), Cost::from_micros(micros))];
            StratusScheduler::new().plan_in(&ctx, &ClusterView::with_hosts(&ctx, &[0], &sums))
        };
        assert_eq!(plan(12_240_000), Plan::empty());
        assert_eq!(plan(12_239_999).terminate, vec![InstanceId(0)]);
    }

    #[test]
    fn empty_instances_terminate() {
        let plan = plan_for(&[], &[(3, "c7i.large")]);
        assert_eq!(plan.terminate, vec![InstanceId(3)]);
    }

    #[test]
    fn a_probe_resolves_the_family_override_against_the_room() {
        // Residents priced at their box's own cost stay: 3 vCPUs are left on
        // the c7i, 3 vCPUs and 24 GiB on the r7i. Job 3 fits either room by
        // its default demand only, job 4 the c7i's and job 5 the r7i's by
        // its override there only.
        let mut tasks = vec![task(1, 0, 5, 8, Some(0), 60)];
        tasks.push(task(2, 0, 5, 40, Some(1), 60));
        let cpus = |cpu| ResourceVector::with_ram_gb(0, cpu, 4);
        for (job, default, c7i, r7i) in [(3, 2, 4, 4), (4, 6, 2, 6), (5, 6, 4, 3)] {
            let mut t = task(job, 0, 0, 0, None, 60);
            t.demand = DemandSpec::uniform(cpus(default)).with_family_override("c7i", cpus(c7i));
            t.demand = t.demand.with_family_override("r7i", cpus(r7i));
            tasks.push(t);
        }
        let plan = plan_for(&tasks, &[(0, "c7i.2xlarge"), (1, "r7i.2xlarge")]);
        let jobs = |a: &Assignment| (a.instance, a.tasks.iter().map(|t| t.job.0).collect());
        let placed: Vec<(PlannedInstance, Vec<u64>)> = plan.assignments.iter().map(jobs).collect();
        let on = |id| PlannedInstance::Existing(InstanceId(id));
        assert_eq!(placed[..2], [(on(0), vec![1, 4]), (on(1), vec![2, 5])]);
        assert!(matches!(&placed[2], (PlannedInstance::New(_), jobs) if jobs == &[3]));
    }
}
