//! Partial Reconfiguration (`eva_core::partial`) held to the refill loop
//! and the `S_P` it replaced, outcome for outcome and bit for bit.
//!
//! The reference rebuilds the kept instance's set for every candidate it
//! probes, reads the set's TNRP off `tnrp_set` before each pick, and prices
//! the kept instances afresh from the view; the product carries one set and
//! its TNRP per kept instance. Everything here goes through public API, so
//! the oracle lives outside the product; CI runs it on the release build
//! too.

use std::cmp::Reverse;
use std::collections::BTreeSet;

use eva_cloud::Catalog;
use eva_core::{
    full_reconfiguration, partial_reconfiguration, ClusterView, InstanceSnapshot, PackedConfig,
    ReservationPrices, SchedulerContext, TaskSnapshot, TnrpEvaluator, TputEstimator, UnitTput,
};
use eva_interference::ThroughputTable;
use eva_types::{
    DemandSpec, InstanceId, InstanceTypeId, JobId, ResourceVector, SimDuration, SimTime, TaskId,
    WorkloadKind,
};
use proptest::prelude::*;

/// Partial Reconfiguration as it was before the sets were carried, kept
/// verbatim as the differential reference (test code only): its outcome
/// and its `S_P`.
mod reference {
    use super::*;

    pub struct Outcome {
        pub kept: Vec<(InstanceId, Vec<TaskId>)>,
        pub packed: PackedConfig,
        pub terminate: Vec<InstanceId>,
        pub saving: f64,
    }

    pub fn partial_reconfiguration(
        view: &ClusterView<'_>,
        catalog: &Catalog,
        eval: &TnrpEvaluator<'_>,
        refill_existing: bool,
    ) -> Outcome {
        // Unassigned tasks, and tasks on an instance the context no longer
        // lists (e.g. being drained), are reconsidered.
        let mut subset: Vec<&TaskSnapshot> = view.unplaced.clone();

        // Instances that stopped being cost-efficient surrender their tasks.
        let mut kept = Vec::new();
        let mut terminate: Vec<InstanceId> = Vec::new();
        for inst in &view.instances {
            match inst.ty {
                Some(ty)
                    if !view.residents(inst).is_empty()
                        && eval.tnrp_set(view.residents(inst)) + 1e-9
                            >= ty.hourly_cost.as_dollars() =>
                {
                    kept.push((inst, ty, view.residents(inst).to_vec()));
                }
                // Empty, inefficient, or of an unknown type (treated as
                // inefficient so tasks escape).
                _ => {
                    subset.extend(view.residents(inst));
                    terminate.push(inst.id);
                }
            }
        }

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
        let subset: Vec<TaskSnapshot> = subset.into_iter().cloned().collect();
        let packed = full_reconfiguration(&subset, catalog, eval);

        let kept: Vec<(InstanceId, Vec<TaskId>)> = kept
            .into_iter()
            .map(|(inst, _, set)| (inst.id, set.iter().map(|t| t.id).collect()))
            .collect();
        let saving = total_saving_dollars(&packed, &kept, view, eval);
        Outcome {
            kept,
            packed,
            terminate,
            saving,
        }
    }

    /// Instantaneous provisioning saving `S_P` in dollars: kept instances'
    /// `TNRP − C` plus the packed instances' savings.
    fn total_saving_dollars(
        packed: &PackedConfig,
        kept: &[(InstanceId, Vec<TaskId>)],
        view: &ClusterView<'_>,
        eval: &TnrpEvaluator<'_>,
    ) -> f64 {
        let mut saving = packed.total_saving_dollars();
        for (id, task_ids) in kept {
            let Some(ty) = view.instance(*id).and_then(|i| i.ty) else {
                continue;
            };
            let set: Vec<&TaskSnapshot> = task_ids.iter().filter_map(|t| view.task(*t)).collect();
            saving += eval.tnrp_set(&set) - ty.hourly_cost.as_dollars();
        }
        saving
    }
}

/// A table holding exact group entries, pairwise entries (the groups
/// of one) and, for everything else, its default.
fn arb_table() -> impl Strategy<Value = ThroughputTable> {
    let group = (0u32..5, collection::vec(0u32..5, 1..5), -0.2f64..1.2);
    (0.5f64..1.0, collection::vec(group, 0..24)).prop_map(|(default_tput, groups)| {
        let mut table = ThroughputTable::new(default_tput);
        for (task, others, tput) in groups {
            let others: Vec<WorkloadKind> = others.into_iter().map(WorkloadKind).collect();
            table.record(WorkloadKind(task), &others, tput);
        }
        table
    })
}

/// Instances listed in a view: `(type pick, listed again)`; one pick in
/// `catalog.len() + 1` is a type the catalog does not know.
type Listing = (usize, bool);

/// Tasks: `(demand, workload, gang size, coupled, placement)`; a placement
/// below the instance count is a listed instance, the next one is none
/// (pending), anything above an instance the view does not list.
type Spec = (usize, u32, u32, bool, usize);

fn arb_view() -> impl Strategy<Value = (Vec<Listing>, Vec<Spec>)> {
    let listing = (0usize..64, 0u32..6).prop_map(|(ty, again)| (ty, again == 0));
    let spec = (0usize..5, 0u32..5, 1u32..5, 0u32..2, 0usize..9);
    let spec = spec.prop_map(|(d, w, g, c, at)| (d, w, g, c == 1, at));
    (collection::vec(listing, 0..6), collection::vec(spec, 0..24))
}

/// Table 3's four task shapes (reservation prices $12, $3, $0.8, $0.4 on
/// its catalog) and a small one.
const DEMANDS: [(u32, u32, u64); 5] = [(2, 8, 24), (1, 4, 10), (0, 6, 20), (0, 4, 12), (0, 1, 1)];

fn build(
    catalog: &Catalog,
    listings: &[Listing],
    specs: &[Spec],
) -> (Vec<InstanceSnapshot>, Vec<TaskSnapshot>) {
    let mut instances = Vec::new();
    for (id, &(pick, again)) in listings.iter().enumerate() {
        let ty = pick % (catalog.len() + 1);
        let type_id = InstanceTypeId(if ty < catalog.len() { ty as u32 } else { 999 });
        let listing = InstanceSnapshot {
            id: InstanceId(id as u64),
            type_id,
        };
        instances.push(listing);
        if again {
            instances.push(listing);
        }
    }
    let n = listings.len();
    let tasks = specs
        .iter()
        .enumerate()
        .map(|(job, &(demand, workload, gang_size, gang_coupled, at))| {
            let (gpu, cpu, ram_gb) = DEMANDS[demand];
            let assigned_to = match at.cmp(&n) {
                std::cmp::Ordering::Less => Some(InstanceId(at as u64)),
                std::cmp::Ordering::Equal => None,
                std::cmp::Ordering::Greater => Some(InstanceId(100 + at as u64)),
            };
            TaskSnapshot {
                id: TaskId::new(JobId(job as u64), 0),
                workload: WorkloadKind(workload),
                demand: DemandSpec::uniform(ResourceVector::with_ram_gb(gpu, cpu, ram_gb)),
                checkpoint_delay: SimDuration::from_secs(2),
                launch_delay: SimDuration::from_secs(10),
                gang_size,
                gang_coupled,
                assigned_to,
                remaining_hint: None,
            }
        })
        .collect();
    (instances, tasks)
}

/// Same outcome, same TNRPs and the same `S_P` to the bit.
fn assert_partial_is_the_reference(
    catalog: &Catalog,
    tasks: &[TaskSnapshot],
    instances: &[InstanceSnapshot],
    tput: &dyn TputEstimator,
    multi_task_aware: bool,
) -> Result<(), TestCaseError> {
    let ctx = SchedulerContext {
        now: SimTime::ZERO,
        catalog,
        tasks,
        instances,
    };
    let view = ClusterView::of(&ctx);
    let prices = ReservationPrices::compute(catalog, tasks.iter());
    let eval = TnrpEvaluator::new(tput, &prices, multi_task_aware);
    for refill_existing in [true, false] {
        let out = partial_reconfiguration(&view, catalog, &eval, refill_existing);
        let want = reference::partial_reconfiguration(&view, catalog, &eval, refill_existing);
        prop_assert_eq!(&out.kept, &want.kept);
        prop_assert_eq!(&out.packed, &want.packed);
        let bits = |c: &PackedConfig| -> Vec<u64> {
            c.instances
                .iter()
                .map(|i| i.tnrp_dollars.to_bits())
                .collect()
        };
        prop_assert_eq!(bits(&out.packed), bits(&want.packed));
        prop_assert_eq!(&out.terminate, &want.terminate);
        prop_assert_eq!(out.total_saving_dollars().to_bits(), want.saving.to_bits());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Kept, inefficient, empty, unknown-type and twice-listed instances;
    /// pending and orphaned tasks; gangs; a table with recorded groups and
    /// `UnitTput`; Table 3's catalog and the evaluation's.
    #[test]
    fn partial_reconfiguration_is_the_reference(
        (listings, specs) in arb_view(),
        table in arb_table(),
        multi_task_aware in 0u32..2,
    ) {
        for catalog in [Catalog::table3_example(), Catalog::aws_eval_2025()] {
            let (instances, tasks) = build(&catalog, &listings, &specs);
            for tput in [&table as &dyn TputEstimator, &UnitTput] {
                assert_partial_is_the_reference(
                    &catalog, &tasks, &instances, tput, multi_task_aware == 1,
                )?;
            }
        }
    }
}
