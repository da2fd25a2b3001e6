//! The Synergy baseline (OSDI '22), adapted as in §6.1.
//!
//! Synergy is a best-fit packing heuristic that minimizes resource
//! fragmentation and re-derives placements as jobs arrive and complete.
//! The paper adapts it to cloud-based clusters by launching the
//! lowest-cost instance type that can host a task when no existing
//! instance has room, and enhances it to be interference-aware through
//! throughput-normalized reservation prices. Unlike Eva it has no notion
//! of instance-type optimization or migration-cost trade-offs: every
//! round it simply (1) evicts tasks from instances whose set TNRP no
//! longer covers the instance cost, then (2) best-fit places evicted and
//! newly arrived tasks.

use std::collections::BTreeSet;

use eva_core::{
    reservation_price, Assignment, ClusterView, JobObservation, Plan, PlannedInstance,
    ReservationPrices, Scheduler, SchedulerContext, TaskSnapshot, TnrpEvaluator,
};
use eva_interference::ThroughputMonitor;
use eva_types::{ResourceVector, TaskId};

/// See the module docs.
pub struct SynergyScheduler {
    monitor: ThroughputMonitor,
}

impl SynergyScheduler {
    /// Builds the scheduler with the paper's default pairwise throughput.
    pub fn new() -> Self {
        SynergyScheduler {
            monitor: ThroughputMonitor::with_default_tput(0.95),
        }
    }
}

impl Default for SynergyScheduler {
    fn default() -> Self {
        SynergyScheduler::new()
    }
}

impl Scheduler for SynergyScheduler {
    fn name(&self) -> &'static str {
        "Synergy"
    }

    fn plan_in(&mut self, ctx: &SchedulerContext<'_>, view: &ClusterView<'_>) -> Plan {
        let prices = ReservationPrices::compute(ctx.catalog, ctx.tasks.iter());
        let eval = TnrpEvaluator::new(self.monitor.table(), &prices, false);

        // Per listed instance: its task set, carried with the set's TNRP.
        let sets = view.instances.iter().map(|i| eval.set(view.residents(i)));
        let mut residents: Vec<_> = sets.map(|mut set| (set.tnrp(), set)).collect();
        let mut used: Vec<ResourceVector> = view.instances.iter().map(|i| i.used).collect();

        // Phase 1: evict residents of no-longer-cost-efficient instances.
        let mut pool: Vec<&TaskSnapshot> = view.pending().collect();
        for (i, inst) in view.instances.iter().enumerate() {
            let Some(ty) = inst.ty else {
                continue;
            };
            let (tnrp, set) = &mut residents[i];
            let efficient = *tnrp + 1e-9 >= ty.hourly_cost.as_dollars();
            if set.tasks().len() > 0 && !efficient {
                pool.extend(set.tasks());
                *set = eval.set(&[]);
                used[i] = ResourceVector::ZERO;
            }
        }
        // Stable large-first placement order.
        pool.sort_by(|a, b| {
            prices
                .rp_dollars(b.id)
                .total_cmp(&prices.rp_dollars(a.id))
                .then(a.id.cmp(&b.id))
        });

        // Phase 2: best-fit place the pool; a task no instance takes is
        // left out of `residents` and opens its own instance in phase 3.
        for task in pool {
            let mut best: Option<(usize, f64, f64)> = None;
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
                let (tnrp, set) = &mut residents[i];
                let joined = set.join(task.workload)(eval.priced(task));
                if set.tasks().len() == 0 {
                    // An empty box is only worth keeping when it is no more
                    // expensive than the task's reservation-price type.
                    if ty.hourly_cost.as_dollars() > prices.rp_dollars(task.id) + 1e-9 {
                        continue;
                    }
                } else if joined < *tnrp {
                    // Interference-aware admission: a running box is a sunk
                    // cost, but joining it must not destroy value.
                    continue;
                }
                let leftover = ty.capacity.saturating_sub(&total);
                let frag = f64::from(leftover.gpu) * 4.0
                    + f64::from(leftover.cpu) / 8.0
                    + leftover.ram_mb as f64 / (64.0 * 1024.0);
                if best.is_none_or(|(_, b, _)| frag < b) {
                    best = Some((i, frag, joined));
                }
            }
            if let Some((i, _, joined)) = best {
                if let Some(ty) = view.instances[i].ty {
                    used[i] += ty.demand_of(&task.demand);
                }
                let (tnrp, set) = &mut residents[i];
                *tnrp = joined;
                set.push(task);
            }
        }

        // Phase 3: build assignments; every task resident nowhere opens
        // its reservation-price instance.
        let mut assignments: Vec<Assignment> = Vec::new();
        let mut placed: BTreeSet<TaskId> = BTreeSet::new();
        for (inst, (_, set)) in view.instances.iter().zip(&residents) {
            if set.tasks().len() == 0 {
                continue;
            }
            let tasks: Vec<TaskId> = set.tasks().map(|t| t.id).collect();
            placed.extend(&tasks);
            assignments.push(Assignment::new(PlannedInstance::Existing(inst.id), tasks));
        }
        for task in ctx.tasks {
            if placed.contains(&task.id) {
                continue;
            }
            if let Some((ty, _)) = reservation_price(ctx.catalog, &task.demand) {
                assignments.push(Assignment::new(PlannedInstance::New(ty), vec![task.id]));
            }
        }
        view.plan(assignments, 0..view.instances.len())
    }

    fn observe(&mut self, observations: &mut dyn Iterator<Item = JobObservation>) {
        for obs in observations {
            self.monitor
                .observe_job(obs.job, obs.gang_coupled, obs.observed_tput, obs.contexts);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eva_cloud::Catalog;
    use eva_core::InstanceSnapshot;
    use eva_interference::TaskContext;
    use eva_types::{DemandSpec, InstanceId, JobId, SimTime, WorkloadKind};

    fn task(job: u64, gpu: u32, cpu: u32, ram_gb: u64, assigned: Option<u64>) -> TaskSnapshot {
        let demand = DemandSpec::uniform(ResourceVector::with_ram_gb(gpu, cpu, ram_gb));
        let mut task = TaskSnapshot::new(
            TaskId::new(JobId(job), 0),
            WorkloadKind((job % 8) as u32),
            demand,
        );
        task.assigned_to = assigned.map(InstanceId);
        task
    }

    #[test]
    fn best_fit_prefers_tightest_instance() {
        let catalog = Catalog::aws_eval_2025();
        let big = catalog.by_name("p3.8xlarge").unwrap().id;
        let small = catalog.by_name("p3.2xlarge").unwrap().id;
        let tasks = vec![task(1, 1, 4, 24, None)];
        let instances = vec![
            InstanceSnapshot::new(InstanceId(0), big),
            InstanceSnapshot::new(InstanceId(1), small),
        ];
        let ctx = SchedulerContext::new(SimTime::ZERO, &catalog, &tasks, &instances);
        let plan = SynergyScheduler::new().plan(&ctx);
        let a = plan
            .assignments
            .iter()
            .find(|a| a.tasks.contains(&TaskId::new(JobId(1), 0)))
            .unwrap();
        assert!(matches!(a.instance, PlannedInstance::Existing(i) if i == InstanceId(1)));
        assert_eq!(plan.terminate, vec![InstanceId(0)]);
    }

    #[test]
    fn small_tasks_do_not_keep_empty_big_boxes_alive() {
        let catalog = Catalog::aws_eval_2025();
        let big = catalog.by_name("p3.8xlarge").unwrap().id;
        let tasks = vec![task(1, 0, 2, 4, None)];
        let instances = vec![InstanceSnapshot::new(InstanceId(0), big)];
        let ctx = SchedulerContext::new(SimTime::ZERO, &catalog, &tasks, &instances);
        let plan = SynergyScheduler::new().plan(&ctx);
        // The tiny task launches its cheap RP type; the big box dies.
        assert_eq!(plan.new_instance_count(), 1);
        assert_eq!(plan.terminate, vec![InstanceId(0)]);
    }

    #[test]
    fn stranded_riders_are_evicted_to_cheap_instances() {
        let catalog = Catalog::aws_eval_2025();
        let big = catalog.by_name("p3.8xlarge").unwrap().id;
        // A lone small CPU task left on a $12.24 box after its co-resident
        // finished: the set TNRP (≈ $0.18) no longer covers the cost, so
        // Synergy re-packs it onto its reservation-price type.
        let tasks = vec![task(1, 0, 4, 8, Some(0))];
        let instances = vec![InstanceSnapshot::new(InstanceId(0), big)];
        let ctx = SchedulerContext::new(SimTime::ZERO, &catalog, &tasks, &instances);
        let plan = SynergyScheduler::new().plan(&ctx);
        assert_eq!(plan.terminate, vec![InstanceId(0)]);
        let PlannedInstance::New(ty) = plan.assignments[0].instance else {
            panic!("expected re-placement")
        };
        assert_eq!(catalog.get(ty).unwrap().name, "c7i.xlarge");
    }

    #[test]
    fn learned_interference_blocks_bad_joins() {
        let catalog = Catalog::aws_eval_2025();
        let ty = catalog.by_name("p3.8xlarge").unwrap().id;
        // Resident worth keeping (imbalanced task whose RP covers the box).
        let mut resident = task(0, 1, 32, 24, Some(0));
        resident.workload = WorkloadKind(0);
        let mut newcomer = task(1, 1, 4, 24, None);
        newcomer.workload = WorkloadKind(1);
        let tasks = vec![resident, newcomer];
        let instances = vec![InstanceSnapshot::new(InstanceId(0), ty)];
        let mut sched = SynergyScheduler::new();
        // Joining would collapse the resident's throughput to 0.2: the set
        // TNRP would *drop*, so the join is rejected.
        let obs = JobObservation {
            job: JobId(9),
            gang_coupled: false,
            observed_tput: 0.2,
            contexts: vec![TaskContext::new(
                TaskId::new(JobId(9), 0),
                WorkloadKind(0),
                vec![WorkloadKind(1)],
            )],
        };
        sched.observe(&mut [obs].into_iter());
        let ctx = SchedulerContext::new(SimTime::ZERO, &catalog, &tasks, &instances);
        let plan = sched.plan(&ctx);
        let newcomer_assignment = plan
            .assignments
            .iter()
            .find(|a| a.tasks.contains(&TaskId::new(JobId(1), 0)))
            .unwrap();
        assert!(matches!(
            newcomer_assignment.instance,
            PlannedInstance::New(_)
        ));
    }

    #[test]
    fn falls_back_to_cheapest_new_type() {
        let catalog = Catalog::aws_eval_2025();
        let tasks = vec![task(1, 0, 6, 8, None)];
        let ctx = SchedulerContext::new(SimTime::ZERO, &catalog, &tasks, &[]);
        let plan = SynergyScheduler::new().plan(&ctx);
        let PlannedInstance::New(ty) = plan.assignments[0].instance else {
            panic!()
        };
        assert_eq!(catalog.get(ty).unwrap().name, "c7i.2xlarge");
    }

    #[test]
    fn efficient_residents_stay_put() {
        let catalog = Catalog::aws_eval_2025();
        let ty = catalog.by_name("p3.2xlarge").unwrap().id;
        let tasks = vec![task(0, 1, 4, 24, Some(0))];
        let instances = vec![InstanceSnapshot::new(InstanceId(0), ty)];
        let ctx = SchedulerContext::new(SimTime::ZERO, &catalog, &tasks, &instances);
        let plan = SynergyScheduler::new().plan(&ctx);
        let view = ClusterView::of(&ctx);
        assert!(plan.moves(&view).all(|m| m.is_initial()));
        assert!(plan.terminate.is_empty());
    }
}
