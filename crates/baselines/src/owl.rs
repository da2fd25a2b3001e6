//! The Owl baseline (SoCC '22), adapted as in §6.1.
//!
//! Owl minimizes interference by co-locating only task *pairs* whose
//! profiled interference is low. It relies on an offline pairwise profile
//! — which the paper provides to Owl exclusively, and which this port
//! receives as an [`OracleProfile`]. Following the paper's extension, the
//! scheduler ranks candidate pairs by the ratio of their combined
//! throughput-normalized reservation price to the cost of the cheapest
//! instance type that fits both, pairing greedily while the ratio exceeds
//! 1 (cost-efficiency) and the profiled throughputs clear a floor.

use std::collections::{BTreeSet, HashMap};

use eva_core::{
    reservation_price, Assignment, ClusterView, Plan, PlannedInstance, ReservationPrices,
    Scheduler, SchedulerContext, TaskSnapshot, TputEstimator,
};
use eva_types::{InstanceId, InstanceTypeId, TaskId, WorkloadKind};

/// An offline pairwise interference profile (the ground truth the paper
/// grants Owl).
#[derive(Debug, Clone, Default)]
pub struct OracleProfile {
    pairs: HashMap<(WorkloadKind, WorkloadKind), f64>,
}

impl OracleProfile {
    /// Builds an empty profile (all pairs assumed interference-free).
    pub fn new() -> Self {
        OracleProfile::default()
    }

    /// Sets the throughput of `a` when co-located with `b`.
    pub fn set(&mut self, a: WorkloadKind, b: WorkloadKind, tput: f64) {
        self.pairs.insert((a, b), tput.clamp(0.0, 1.0));
    }

    /// Builds a profile by probing a pairwise oracle function over a set
    /// of workload kinds.
    pub fn from_fn(kinds: &[WorkloadKind], f: impl Fn(WorkloadKind, WorkloadKind) -> f64) -> Self {
        let mut profile = OracleProfile::new();
        for &a in kinds {
            for &b in kinds {
                profile.set(a, b, f(a, b));
            }
        }
        profile
    }
}

impl TputEstimator for OracleProfile {
    fn recorded(&self, _task: WorkloadKind, _others: &[WorkloadKind]) -> Option<f64> {
        None
    }
    fn pairwise(&self, task: WorkloadKind, other: WorkloadKind) -> f64 {
        self.pairs.get(&(task, other)).copied().unwrap_or(1.0)
    }
}

/// Minimum profiled throughput for both members of a pair: "low
/// interference only".
const TPUT_FLOOR: f64 = 0.85;

/// See the module docs.
pub struct OwlScheduler {
    profile: OracleProfile,
}

impl OwlScheduler {
    /// Builds the scheduler with the paper-granted profile.
    pub fn new(profile: OracleProfile) -> Self {
        OwlScheduler { profile }
    }
}

impl Scheduler for OwlScheduler {
    fn name(&self) -> &'static str {
        "Owl"
    }

    fn plan_in(&mut self, ctx: &SchedulerContext<'_>, view: &ClusterView<'_>) -> Plan {
        let prices = ReservationPrices::compute(ctx.catalog, ctx.tasks.iter());

        let mut assignments: Vec<Assignment> = Vec::new();
        // Running tasks stay put unless their instance is no longer
        // cost-efficient under the oracle profile (e.g. a pair member
        // finished, stranding its partner on an oversized box) — such
        // tasks rejoin the pending pool for re-placement. `kept[i]` is the
        // assignment of listed instance `i` when it stays.
        let mut evicted: Vec<&TaskSnapshot> = Vec::new();
        let mut kept: Vec<Option<usize>> = vec![None; view.instances.len()];
        for (i, inst) in view.instances.iter().enumerate() {
            let residents = &inst.residents;
            if residents.is_empty() {
                continue;
            }
            let efficient = inst.ty.is_some_and(|ty| {
                let tnrp: f64 = residents
                    .iter()
                    .map(|t| {
                        let others: Vec<_> = residents
                            .iter()
                            .filter(|o| o.id != t.id)
                            .map(|o| o.workload)
                            .collect();
                        prices.rp_dollars(t.id) * self.profile.estimate(t.workload, &others)
                    })
                    .sum();
                tnrp + 1e-9 >= ty.hourly_cost.as_dollars()
            });
            if efficient {
                kept[i] = Some(assignments.len());
                assignments.push(Assignment {
                    instance: PlannedInstance::Existing(inst.id),
                    tasks: inst.task_ids(),
                });
            } else {
                evicted.extend(residents);
            }
        }
        let pool: Vec<&TaskSnapshot> = view.pending().chain(evicted).collect();

        // Join pending tasks onto instances currently hosting exactly one
        // running task, when the profiled pair interference is low and the
        // capacity allows — jobs arrive one at a time, so most of Owl's
        // pairs form against already-running solo tasks.
        let mut joined: BTreeSet<TaskId> = BTreeSet::new();
        {
            struct Join {
                task: TaskId,
                instance: InstanceId,
                slot: usize,
                ratio: f64,
            }
            let mut joins: Vec<Join> = Vec::new();
            for task in &pool {
                for (inst, slot) in view.instances.iter().zip(&kept) {
                    // Only instances kept above (cost-efficient) can host
                    // a join; evicted ones are being drained.
                    let (Some(slot), [resident], Some(ty)) = (*slot, &inst.residents[..], inst.ty)
                    else {
                        continue;
                    };
                    let tput_new = self.profile.estimate(task.workload, &[resident.workload]);
                    let tput_res = self.profile.estimate(resident.workload, &[task.workload]);
                    if tput_new < TPUT_FLOOR || tput_res < TPUT_FLOOR {
                        continue;
                    }
                    let total = ty.demand_of(&task.demand) + inst.used;
                    if !total.fits_within(&ty.capacity) {
                        continue;
                    }
                    let tnrp = prices.rp_dollars(task.id) * tput_new
                        + prices.rp_dollars(resident.id) * tput_res;
                    joins.push(Join {
                        task: task.id,
                        instance: inst.id,
                        slot,
                        ratio: tnrp / ty.hourly_cost.as_dollars().max(1e-9),
                    });
                }
            }
            joins.sort_by(|a, b| {
                b.ratio
                    .total_cmp(&a.ratio)
                    .then_with(|| (a.task, a.instance).cmp(&(b.task, b.instance)))
            });
            let mut used_instances: BTreeSet<InstanceId> = BTreeSet::new();
            for j in joins {
                if joined.contains(&j.task) || used_instances.contains(&j.instance) {
                    continue;
                }
                joined.insert(j.task);
                used_instances.insert(j.instance);
                assignments[j.slot].tasks.push(j.task);
            }
        }

        // Enumerate candidate pairs among the remaining pool tasks.
        let mut pending = pool;
        pending.retain(|t| !joined.contains(&t.id));
        struct Candidate {
            a: usize,
            b: usize,
            ratio: f64,
            type_id: InstanceTypeId,
        }
        let mut candidates: Vec<Candidate> = Vec::new();
        for i in 0..pending.len() {
            for j in (i + 1)..pending.len() {
                let (a, b) = (pending[i], pending[j]);
                let tput_a = self.profile.estimate(a.workload, &[b.workload]);
                let tput_b = self.profile.estimate(b.workload, &[a.workload]);
                if tput_a < TPUT_FLOOR || tput_b < TPUT_FLOOR {
                    continue;
                }
                let Some(ty) = ctx.catalog.cheapest_fit_all(&[&a.demand, &b.demand]) else {
                    continue;
                };
                let tnrp = prices.rp_dollars(a.id) * tput_a + prices.rp_dollars(b.id) * tput_b;
                let ratio = tnrp / ty.hourly_cost.as_dollars().max(1e-9);
                if ratio >= 1.0 {
                    candidates.push(Candidate {
                        a: i,
                        b: j,
                        ratio,
                        type_id: ty.id,
                    });
                }
            }
        }
        // Greedy matching by descending ratio.
        candidates.sort_by(|x, y| {
            y.ratio
                .partial_cmp(&x.ratio)
                .unwrap()
                .then_with(|| (x.a, x.b).cmp(&(y.a, y.b)))
        });
        let mut taken: BTreeSet<usize> = BTreeSet::new();
        let mut paired: Vec<(usize, usize, InstanceTypeId)> = Vec::new();
        for c in candidates {
            if taken.contains(&c.a) || taken.contains(&c.b) {
                continue;
            }
            taken.insert(c.a);
            taken.insert(c.b);
            paired.push((c.a, c.b, c.type_id));
        }

        for (a, b, ty) in paired {
            assignments.push(Assignment {
                instance: PlannedInstance::New(ty),
                tasks: vec![pending[a].id, pending[b].id],
            });
        }
        for (idx, task) in pending.iter().enumerate() {
            if taken.contains(&idx) {
                continue;
            }
            if let Some((ty, _)) = reservation_price(ctx.catalog, &task.demand) {
                assignments.push(Assignment {
                    instance: PlannedInstance::New(ty),
                    tasks: vec![task.id],
                });
            }
        }

        // Owl releases only instances that are already empty: one evicted
        // above still holds its tasks and goes once they have left.
        let terminate = view
            .instances
            .iter()
            .filter(|inst| inst.residents.is_empty())
            .map(|inst| inst.id)
            .collect();
        Plan {
            assignments,
            terminate,
            full_reconfiguration: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eva_cloud::Catalog;
    use eva_types::{DemandSpec, InstanceId, JobId, ResourceVector, SimDuration, SimTime};

    fn task(job: u64, gpu: u32, cpu: u32, ram_gb: u64, workload: u32) -> TaskSnapshot {
        TaskSnapshot {
            id: TaskId::new(JobId(job), 0),
            workload: WorkloadKind(workload),
            demand: DemandSpec::uniform(ResourceVector::with_ram_gb(gpu, cpu, ram_gb)),
            checkpoint_delay: SimDuration::from_secs(2),
            launch_delay: SimDuration::from_secs(10),
            gang_size: 1,
            gang_coupled: false,
            assigned_to: None,
            remaining_hint: None,
        }
    }

    fn friendly_profile() -> OracleProfile {
        OracleProfile::from_fn(&(0..8).map(WorkloadKind).collect::<Vec<_>>(), |_, _| 0.98)
    }

    #[test]
    fn low_interference_pairs_colocate() {
        let catalog = Catalog::aws_eval_2025();
        // A 1-GPU task + a small CPU task: pair fits p3.2xlarge and the
        // TNRP ratio exceeds 1.
        let tasks = vec![task(1, 1, 4, 24, 0), task(2, 0, 4, 8, 1)];
        let ctx = SchedulerContext {
            now: SimTime::ZERO,
            catalog: &catalog,
            tasks: &tasks,
            instances: &[],
        };
        let plan = OwlScheduler::new(friendly_profile()).plan(&ctx);
        assert_eq!(plan.assignments.len(), 1);
        assert_eq!(plan.assignments[0].tasks.len(), 2);
    }

    #[test]
    fn high_interference_pairs_stay_apart() {
        let catalog = Catalog::aws_eval_2025();
        let mut profile = friendly_profile();
        profile.set(WorkloadKind(0), WorkloadKind(1), 0.5);
        let tasks = vec![task(1, 1, 4, 24, 0), task(2, 0, 4, 8, 1)];
        let ctx = SchedulerContext {
            now: SimTime::ZERO,
            catalog: &catalog,
            tasks: &tasks,
            instances: &[],
        };
        let plan = OwlScheduler::new(profile).plan(&ctx);
        assert_eq!(plan.assignments.len(), 2);
        for a in &plan.assignments {
            assert_eq!(a.tasks.len(), 1);
        }
    }

    #[test]
    fn cost_inefficient_pairs_are_rejected() {
        let catalog = Catalog::aws_eval_2025();
        // Two tiny CPU tasks: cheapest joint type costs as much as two
        // singles (linear pricing), ratio < 1 → no pairing... unless the
        // joint type is the same cost; then ratio = (2×rp×0.98)/(2×rp) < 1.
        let tasks = vec![task(1, 0, 2, 4, 2), task(2, 0, 2, 4, 3)];
        let ctx = SchedulerContext {
            now: SimTime::ZERO,
            catalog: &catalog,
            tasks: &tasks,
            instances: &[],
        };
        let plan = OwlScheduler::new(friendly_profile()).plan(&ctx);
        assert_eq!(plan.assignments.len(), 2);
    }

    #[test]
    fn pairs_max_out_at_two_tasks() {
        let catalog = Catalog::aws_eval_2025();
        let tasks: Vec<TaskSnapshot> = (0..6)
            .map(|i| {
                if i % 2 == 0 {
                    task(i, 1, 4, 24, (i % 8) as u32)
                } else {
                    task(i, 0, 4, 8, (i % 8) as u32)
                }
            })
            .collect();
        let ctx = SchedulerContext {
            now: SimTime::ZERO,
            catalog: &catalog,
            tasks: &tasks,
            instances: &[],
        };
        let plan = OwlScheduler::new(friendly_profile()).plan(&ctx);
        for a in &plan.assignments {
            assert!(a.tasks.len() <= 2, "Owl co-locates pairs only");
        }
        // The three GPU+CPU pairs all form.
        let pairs = plan
            .assignments
            .iter()
            .filter(|a| a.tasks.len() == 2)
            .count();
        assert_eq!(pairs, 3);
    }

    #[test]
    fn running_tasks_are_untouched_and_empties_released() {
        let catalog = Catalog::aws_eval_2025();
        let ty = catalog.by_name("p3.2xlarge").unwrap().id;
        let mut running = task(1, 1, 4, 24, 0);
        running.assigned_to = Some(InstanceId(0));
        let tasks = vec![running];
        let instances = vec![
            eva_core::InstanceSnapshot {
                id: InstanceId(0),
                type_id: ty,
            },
            eva_core::InstanceSnapshot {
                id: InstanceId(1),
                type_id: ty,
            },
        ];
        let ctx = SchedulerContext {
            now: SimTime::ZERO,
            catalog: &catalog,
            tasks: &tasks,
            instances: &instances,
        };
        let plan = OwlScheduler::new(friendly_profile()).plan(&ctx);
        assert!(plan.migrations(&tasks, false).is_empty());
        assert_eq!(plan.terminate, vec![InstanceId(1)]);
    }

    #[test]
    fn nan_profile_entry_does_not_panic() {
        let catalog = Catalog::aws_eval_2025();
        let ty = catalog.by_name("p3.8xlarge").unwrap().id;
        let mut profile = friendly_profile();
        profile.set(WorkloadKind(1), WorkloadKind(0), f64::NAN);
        // A kept solo resident (its 20 vCPUs price it at the p3.8xlarge)
        // and two pending tasks that could join it: one join ratio is NaN,
        // and sorting the joins used to unwrap a `partial_cmp` on it.
        let mut running = task(1, 1, 20, 24, 0);
        running.assigned_to = Some(InstanceId(0));
        let tasks = vec![running, task(2, 0, 4, 8, 1), task(3, 0, 4, 8, 2)];
        let instances = vec![eva_core::InstanceSnapshot {
            id: InstanceId(0),
            type_id: ty,
        }];
        let ctx = SchedulerContext {
            now: SimTime::ZERO,
            catalog: &catalog,
            tasks: &tasks,
            instances: &instances,
        };
        let plan = OwlScheduler::new(profile).plan(&ctx);
        let placed: usize = plan.assignments.iter().map(|a| a.tasks.len()).sum();
        assert_eq!(placed, 3);
    }

    #[test]
    fn oracle_profile_composes_multiplicatively() {
        let mut p = OracleProfile::new();
        p.set(WorkloadKind(0), WorkloadKind(1), 0.9);
        p.set(WorkloadKind(0), WorkloadKind(2), 0.8);
        let t = p.estimate(WorkloadKind(0), &[WorkloadKind(1), WorkloadKind(2)]);
        assert!((t - 0.72).abs() < 1e-12);
        // Unknown pairs default to 1.0.
        assert_eq!(p.estimate(WorkloadKind(5), &[WorkloadKind(6)]), 1.0);
    }
}
