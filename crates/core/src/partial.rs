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
//! terminated. With `refill_existing` — on in [`crate::EvaConfig::default`]
//! — subset tasks first fill spare capacity on kept instances; with it off
//! (the new-instances-only ablation) the whole subset goes to new
//! instances.

use std::cmp::Reverse;

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
    saving: f64,
}

impl PartialOutcome {
    /// Instantaneous provisioning saving `S_P` in dollars: the packed
    /// instances' savings plus the kept instances' `TNRP − C`.
    pub fn total_saving_dollars(&self) -> f64 {
        self.saving
    }
}

/// Runs Partial Reconfiguration on the current configuration `view`.
///
/// With `refill_existing`, subset tasks may also fill spare capacity on
/// kept instances (dearest instance first) when doing so keeps the
/// instance cost-efficient and does not lower its TNRP.
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

    // Instances that stopped being cost-efficient surrender their tasks; a
    // kept one carries its task set and the set's TNRP from here on.
    let mut kept = Vec::new();
    let mut terminate: Vec<InstanceId> = Vec::new();
    for inst in &view.instances {
        let mut set = eval.set(view.residents(inst));
        let tnrp = set.tnrp();
        match inst.ty {
            Some(ty) if set.tasks().len() > 0 && tnrp + 1e-9 >= ty.hourly_cost.as_dollars() => {
                kept.push((inst, ty, set, tnrp));
            }
            // Empty, inefficient, or of an unknown type (treated as
            // inefficient so tasks escape).
            _ => {
                subset.extend(view.residents(inst));
                terminate.push(inst.id);
            }
        }
    }

    // Refill kept instances' spare capacity.
    if refill_existing && !subset.is_empty() {
        let mut refilled = vec![false; subset.len()];
        // Visit kept instances by descending hourly cost, mirroring
        // Algorithm 1's type ordering.
        let mut order: Vec<usize> = (0..kept.len()).collect();
        order.sort_by_key(|slot| Reverse(kept[*slot].1.hourly_cost));
        for slot in order {
            let (inst, ty, set, tnrp) = &mut kept[slot];
            let mut used = inst.used;
            loop {
                // Pick the candidate maximizing the refilled set's TNRP.
                let mut best = None;
                for (idx, task) in subset.iter().enumerate() {
                    if refilled[idx] {
                        continue;
                    }
                    let demand = ty.demand_of(&task.demand);
                    let Some(total) = used.checked_add(&demand) else {
                        continue;
                    };
                    if !total.fits_within(&ty.capacity) {
                        continue;
                    }
                    let joined = set.join(task.workload)(eval.priced(task));
                    if joined >= *tnrp
                        && joined + 1e-9 >= ty.hourly_cost.as_dollars()
                        && best.is_none_or(|(_, b, _)| joined > b)
                    {
                        best = Some((idx, joined, total));
                    }
                }
                let Some((idx, joined, total)) = best else {
                    break;
                };
                refilled[idx] = true;
                set.push(subset[idx]);
                (used, *tnrp) = (total, joined);
            }
        }
        let left = subset.into_iter().zip(refilled);
        subset = left.filter_map(|(t, went)| (!went).then_some(t)).collect();
    }

    // Pack the remaining subset into new instances with Algorithm 1.
    let packed = pack(&subset, types, eval);

    // S_P: the packed instances' savings, then each kept one's in order.
    let mut saving = packed.total_saving_dollars();
    let kept = kept.into_iter().map(|(inst, ty, set, tnrp)| {
        saving += tnrp - ty.hourly_cost.as_dollars();
        (inst.id, set.tasks().map(|t| t.id).collect())
    });
    PartialOutcome {
        kept: kept.collect(),
        packed,
        terminate,
        saving,
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
        ClusterView::of(&SchedulerContext::new(
            SimTime::ZERO,
            catalog,
            tasks,
            instances,
        ))
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
        InstanceSnapshot::new(InstanceId(id), catalog.by_name(name).unwrap().id)
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
        assert_eq!(out.packed.instances.len(), 1);
        assert_eq!(out.packed.instances[0].tasks, [TaskId::new(JobId(2), 0)]);
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
        assert_eq!(out.packed.instances[0].tasks, [TaskId::new(JobId(4), 0)]);
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
        assert_eq!(out.packed.assigned_count(), 2);
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
        let s = out.total_saving_dollars();
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
