//! Partial Reconfiguration (§4.5).
//!
//! Instead of re-deriving the whole cluster, Partial Reconfiguration
//! reconsiders only:
//!
//! * tasks from recently submitted jobs not yet assigned anywhere, and
//! * tasks on instances that are no longer cost-efficient (the instance's
//!   set TNRP dropped below its hourly cost — job completions or newly
//!   learned interference can cause this),
//!
//! packing that subset with Algorithm 1 into *new* instances while the
//! rest of the cluster stays untouched. Instances left empty are
//! terminated. An optional `refill_existing` mode (ablation; off in the
//! faithful configuration) first tries to place subset tasks into spare
//! capacity on kept instances.

use std::cmp::Reverse;
use std::collections::BTreeSet;

use eva_cloud::{Catalog, InstanceType};
use eva_types::{InstanceId, TaskId};

use crate::packing::{pack, PackedConfig};
use crate::plan::{ClusterView, TaskSnapshot};
use crate::reservation::TnrpEvaluator;

/// The outcome of Partial Reconfiguration.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PartialOutcome {
    /// Existing instances kept untouched, with their task ids.
    pub kept: Vec<(InstanceId, Vec<TaskId>)>,
    /// Newly packed instances for the reconsidered subset.
    pub packed: PackedConfig,
    /// Instances to terminate (now empty).
    pub terminate: Vec<InstanceId>,
    /// Tasks that were reconsidered (telemetry).
    pub reconsidered: Vec<TaskId>,
}

impl PartialOutcome {
    /// Instantaneous provisioning saving `S_P` in dollars: kept instances'
    /// `TNRP − C` plus the packed instances' savings.
    pub fn total_saving_dollars(&self, view: &ClusterView<'_>, eval: &TnrpEvaluator<'_>) -> f64 {
        let mut saving = self.packed.total_saving_dollars();
        for (id, task_ids) in &self.kept {
            let Some(ty) = view.instance(*id).and_then(|i| i.ty) else {
                continue;
            };
            let set: Vec<&TaskSnapshot> = task_ids.iter().filter_map(|t| view.task(*t)).collect();
            saving += eval.tnrp_set(&set) - ty.hourly_cost.as_dollars();
        }
        saving
    }
}

/// Runs Partial Reconfiguration on the current configuration `view`.
///
/// `refill_existing` enables the ablation where subset tasks may also fill
/// spare capacity on kept instances (cheapest-instance-first) when doing so
/// keeps the instance cost-efficient.
pub fn partial_reconfiguration(
    view: &ClusterView<'_>,
    catalog: &Catalog,
    eval: &TnrpEvaluator<'_>,
    refill_existing: bool,
) -> PartialOutcome {
    partial_over(view, &catalog.types_by_cost_desc(), eval, refill_existing)
}

/// [`partial_reconfiguration`] with `types` as [`crate::packing::pack`] takes them.
pub(crate) fn partial_over(
    view: &ClusterView<'_>,
    types: &[&InstanceType],
    eval: &TnrpEvaluator<'_>,
    refill_existing: bool,
) -> PartialOutcome {
    // Unassigned tasks, and tasks on an instance the context no longer
    // lists (e.g. being drained), are reconsidered.
    let mut subset: Vec<&TaskSnapshot> = view.unplaced.clone();

    // Instances that stopped being cost-efficient surrender their tasks.
    let mut kept = Vec::new();
    let mut terminate: Vec<InstanceId> = Vec::new();
    for inst in &view.instances {
        match inst.ty {
            Some(ty)
                if !inst.residents.is_empty()
                    && eval.is_cost_efficient(&inst.residents, ty.hourly_cost) =>
            {
                kept.push((inst, ty, inst.residents.clone()));
            }
            // Empty, inefficient, or of an unknown type (treated as
            // inefficient so tasks escape).
            _ => {
                subset.extend(&inst.residents);
                terminate.push(inst.id);
            }
        }
    }

    let reconsidered: Vec<TaskId> = subset.iter().map(|t| t.id).collect();

    // Optional ablation: try to refill kept instances' spare capacity.
    let mut refilled: BTreeSet<TaskId> = BTreeSet::new();
    if refill_existing && !subset.is_empty() {
        // Visit kept instances by descending hourly cost, mirroring
        // Algorithm 1's type ordering.
        let mut order: Vec<usize> = (0..kept.len()).collect();
        order.sort_by_key(|slot| Reverse(kept[*slot].1.hourly_cost));
        for slot in order {
            let (inst, ty, set) = &mut kept[slot];
            let mut used = inst.used;
            loop {
                // Pick the candidate maximizing the refilled set's TNRP.
                // The set's TNRP as it is, wanted once a candidate fits.
                let mut before: Option<f64> = None;
                let mut best: Option<(usize, f64)> = None;
                for (idx, task) in subset.iter().enumerate() {
                    if refilled.contains(&task.id) {
                        continue;
                    }
                    let demand = ty.demand_of(&task.demand);
                    let Some(total) = used.checked_add(&demand) else {
                        continue;
                    };
                    if !total.fits_within(&ty.capacity) {
                        continue;
                    }
                    let tnrp = eval.set(set).join(task.workload)(eval.priced(task));
                    if tnrp >= *before.get_or_insert_with(|| eval.tnrp_set(set))
                        && tnrp + 1e-9 >= ty.hourly_cost.as_dollars()
                        && best.is_none_or(|(_, b)| tnrp > b)
                    {
                        best = Some((idx, tnrp));
                    }
                }
                let Some((idx, _)) = best else { break };
                let task = subset[idx];
                refilled.insert(task.id);
                used = used
                    .checked_add(&ty.demand_of(&task.demand))
                    .unwrap_or(used);
                set.push(task);
            }
        }
        subset.retain(|t| !refilled.contains(&t.id));
    }

    // Pack the remaining subset into new instances with Algorithm 1.
    let packed = pack(&subset, types, eval);

    PartialOutcome {
        kept: kept
            .into_iter()
            .map(|(inst, _, set)| (inst.id, set.iter().map(|t| t.id).collect()))
            .collect(),
        packed,
        terminate,
        reconsidered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{test_task, InstanceSnapshot, SchedulerContext};
    use crate::reservation::{ReservationPrices, UnitTput};
    use eva_interference::ThroughputTable;
    use eva_types::{JobId, ResourceVector, SimTime, WorkloadKind};

    fn view<'a>(
        tasks: &'a [TaskSnapshot],
        instances: &'a [InstanceSnapshot],
        catalog: &'a Catalog,
    ) -> ClusterView<'a> {
        ClusterView::of(&SchedulerContext {
            now: SimTime::ZERO,
            catalog,
            tasks,
            instances,
        })
    }

    fn run(
        tasks: &[TaskSnapshot],
        instances: &[InstanceSnapshot],
        catalog: &Catalog,
        eval: &TnrpEvaluator<'_>,
        refill_existing: bool,
    ) -> PartialOutcome {
        partial_reconfiguration(
            &view(tasks, instances, catalog),
            catalog,
            eval,
            refill_existing,
        )
    }

    fn t(job: u64, gpu: u32, cpu: u32, ram_gb: u64, assigned: Option<u64>) -> TaskSnapshot {
        let demand = ResourceVector::with_ram_gb(gpu, cpu, ram_gb);
        TaskSnapshot {
            assigned_to: assigned.map(InstanceId),
            ..test_task(job, demand, (job % 8) as u32)
        }
    }

    fn instance(id: u64, catalog: &Catalog, name: &str) -> InstanceSnapshot {
        InstanceSnapshot {
            id: InstanceId(id),
            type_id: catalog.by_name(name).unwrap().id,
        }
    }

    #[test]
    fn new_tasks_go_to_new_instances_only() {
        let catalog = Catalog::table3_example();
        // One efficient existing instance (τ1 on it1 has RP 12 ≥ 12).
        let tasks = vec![t(1, 2, 8, 24, Some(0)), t(2, 1, 4, 10, None)];
        let instances = vec![instance(0, &catalog, "it1")];
        let prices = ReservationPrices::compute(&catalog, tasks.iter());
        let eval = TnrpEvaluator::new(&UnitTput, &prices, true);
        let out = run(&tasks, &instances, &catalog, &eval, false);
        assert_eq!(
            out.kept,
            vec![(InstanceId(0), vec![TaskId::new(JobId(1), 0)])]
        );
        assert_eq!(out.reconsidered, vec![TaskId::new(JobId(2), 0)]);
        assert_eq!(out.packed.instances.len(), 1);
        assert_eq!(
            catalog.get(out.packed.instances[0].type_id).unwrap().name,
            "it2"
        );
        assert!(out.terminate.is_empty());
    }

    #[test]
    fn inefficient_instances_surrender_their_tasks() {
        let catalog = Catalog::table3_example();
        // τ4 (RP 0.4) alone on an it1 ($12): wildly inefficient.
        let tasks = vec![t(4, 0, 4, 12, Some(0))];
        let instances = vec![instance(0, &catalog, "it1")];
        let prices = ReservationPrices::compute(&catalog, tasks.iter());
        let eval = TnrpEvaluator::new(&UnitTput, &prices, true);
        let out = run(&tasks, &instances, &catalog, &eval, false);
        assert!(out.kept.is_empty());
        assert_eq!(out.terminate, vec![InstanceId(0)]);
        assert_eq!(out.reconsidered, vec![TaskId::new(JobId(4), 0)]);
        // Task repacked onto its reservation-price type.
        assert_eq!(
            catalog.get(out.packed.instances[0].type_id).unwrap().name,
            "it4"
        );
    }

    #[test]
    fn empty_instances_are_terminated() {
        let catalog = Catalog::table3_example();
        let tasks: Vec<TaskSnapshot> = vec![];
        let instances = vec![instance(0, &catalog, "it2")];
        let prices = ReservationPrices::compute(&catalog, tasks.iter());
        let eval = TnrpEvaluator::new(&UnitTput, &prices, true);
        let out = run(&tasks, &instances, &catalog, &eval, false);
        assert_eq!(out.terminate, vec![InstanceId(0)]);
        assert!(out.packed.instances.is_empty());
    }

    #[test]
    fn interference_drop_triggers_reconsideration() {
        let catalog = Catalog::table3_example();
        // Two $3-RP tasks packed on one it2-priced... it2 only fits one;
        // host both on it1 ($12): RP sum 6 < 12, but pretend they were
        // placed there by an earlier full reconfig along with others that
        // completed. Now the instance is inefficient.
        let tasks = vec![t(1, 1, 4, 10, Some(0)), t(2, 1, 4, 10, Some(0))];
        let instances = vec![instance(0, &catalog, "it1")];
        let prices = ReservationPrices::compute(&catalog, tasks.iter());
        let eval = TnrpEvaluator::new(&UnitTput, &prices, true);
        let out = run(&tasks, &instances, &catalog, &eval, false);
        assert_eq!(out.terminate, vec![InstanceId(0)]);
        assert_eq!(out.reconsidered.len(), 2);
        // Each lands on its own it2.
        assert_eq!(out.packed.instances.len(), 2);
    }

    #[test]
    fn refill_existing_uses_spare_capacity() {
        let catalog = Catalog::table3_example();
        // τ1 on it1 leaves 2 GPU / 8 CPU / 220 GB spare; a new τ2 fits.
        let tasks = vec![t(1, 2, 8, 24, Some(0)), t(2, 1, 4, 10, None)];
        let instances = vec![instance(0, &catalog, "it1")];
        let prices = ReservationPrices::compute(&catalog, tasks.iter());
        let eval = TnrpEvaluator::new(&UnitTput, &prices, true);
        let out = run(&tasks, &instances, &catalog, &eval, true);
        assert_eq!(
            out.kept,
            vec![(
                InstanceId(0),
                vec![TaskId::new(JobId(1), 0), TaskId::new(JobId(2), 0)]
            )]
        );
        assert!(out.packed.instances.is_empty());
    }

    #[test]
    fn refill_respects_capacity() {
        let catalog = Catalog::table3_example();
        // it2 (1 GPU, 4 CPU) fully used by τ1's clone; τ2 cannot refill.
        let tasks = vec![t(1, 1, 4, 10, Some(0)), t(2, 1, 4, 10, None)];
        let instances = vec![instance(0, &catalog, "it2")];
        let prices = ReservationPrices::compute(&catalog, tasks.iter());
        let eval = TnrpEvaluator::new(&UnitTput, &prices, true);
        let out = run(&tasks, &instances, &catalog, &eval, true);
        assert_eq!(out.kept[0].1.len(), 1);
        assert_eq!(out.packed.instances.len(), 1);
    }

    #[test]
    fn saving_accounts_kept_and_packed() {
        let catalog = Catalog::table3_example();
        let tasks = vec![
            t(1, 2, 8, 24, Some(0)),
            t(2, 1, 4, 10, Some(0)),
            t(3, 0, 6, 20, None),
        ];
        let instances = vec![instance(0, &catalog, "it1")];
        let prices = ReservationPrices::compute(&catalog, tasks.iter());
        let eval = TnrpEvaluator::new(&UnitTput, &prices, true);
        let out = run(&tasks, &instances, &catalog, &eval, false);
        // Kept it1 holds τ1 + τ2: RP 15 − 12 = 3; τ3 on it3: 0.8 − 0.8 = 0.
        let s = out.total_saving_dollars(&view(&tasks, &instances, &catalog), &eval);
        assert!((s - 3.0).abs() < 1e-9, "saving {s}");
    }

    #[test]
    fn gang_aware_eviction_with_learned_interference() {
        let catalog = Catalog::table3_example();
        let mut tasks = vec![t(1, 1, 4, 10, Some(0)), t(2, 1, 4, 10, Some(0))];
        tasks[0].workload = WorkloadKind(0);
        tasks[1].workload = WorkloadKind(1);
        let instances = vec![instance(0, &catalog, "it1")];
        let prices = ReservationPrices::compute(&catalog, tasks.iter());
        let mut table = ThroughputTable::new(0.95);
        // Terrible interference learned online → instance inefficient even
        // though RP sum (6) was already below it1's cost; with tput the set
        // TNRP drops further.
        table.record(WorkloadKind(0), &[WorkloadKind(1)], 0.5);
        table.record(WorkloadKind(1), &[WorkloadKind(0)], 0.5);
        let eval = TnrpEvaluator::new(&table, &prices, true);
        let out = run(&tasks, &instances, &catalog, &eval, false);
        assert_eq!(out.terminate, vec![InstanceId(0)]);
        assert_eq!(out.packed.instances.len(), 2);
    }
}
