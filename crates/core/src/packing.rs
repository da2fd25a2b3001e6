//! Full Reconfiguration — Algorithm 1 (§4.2), generalized with TNRP (§4.3).
//!
//! The algorithm adapts the classic variable-sized bin packing heuristic
//! ("largest bin type, largest ball first") to multi-dimensional cloud
//! resources by ranking instance types by hourly cost and tasks by the
//! marginal throughput-normalized reservation price they add to the
//! instance under construction. An instance is committed only when the
//! TNRP of its task set covers its hourly cost, which guarantees every
//! provisioned instance is cost-efficient relative to no-packing.

use eva_cloud::{Catalog, InstanceType};
use eva_types::{InstanceTypeId, ResourceVector, TaskId};

use crate::plan::TaskSnapshot;
use crate::reservation::{Priced, TnrpEvaluator};

/// One packed instance: a type plus the task set assigned to it.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedInstance {
    /// Catalog type of the instance to provision.
    pub type_id: InstanceTypeId,
    /// Tasks assigned to it (order = assignment order).
    pub tasks: Vec<TaskId>,
    /// `TNRP(T)` of the set at packing time, in dollars.
    pub tnrp_dollars: f64,
    /// Hourly cost of the type, in dollars.
    pub cost_dollars: f64,
}

impl PackedInstance {
    /// Instantaneous saving versus hosting each task standalone
    /// (`TNRP(T) − C`, §4.5's per-instance term of `S`).
    pub fn saving_dollars(&self) -> f64 {
        self.tnrp_dollars - self.cost_dollars
    }
}

/// The output of Full Reconfiguration over a task set.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PackedConfig {
    /// The packed instances.
    pub instances: Vec<PackedInstance>,
    /// Tasks that could not be assigned (no instance type hosts them).
    pub unassigned: Vec<TaskId>,
}

impl PackedConfig {
    /// Total hourly provisioning cost of the configuration, in dollars.
    pub fn total_cost_dollars(&self) -> f64 {
        self.instances.iter().map(|i| i.cost_dollars).sum()
    }

    /// Instantaneous provisioning saving `S = Σ_i (TNRP(T_i) − C_i)`.
    pub fn total_saving_dollars(&self) -> f64 {
        self.instances.iter().map(|i| i.saving_dollars()).sum()
    }

    /// Total tasks assigned.
    pub fn assigned_count(&self) -> usize {
        self.instances.iter().map(|i| i.tasks.len()).sum()
    }
}

/// Runs Algorithm 1 over `tasks`.
///
/// Instance types are visited in descending cost; for each new instance
/// the unassigned task maximizing `TNRP(T ∪ {τ})` among those that still
/// fit is added until adding would *decrease* the set TNRP (possible under
/// severe interference, line 9) or nothing fits. The instance is kept only
/// if `TNRP(T) ≥ C_k`; otherwise the algorithm moves to the next cheaper
/// type.
///
/// Every task whose demand fits some catalog type is guaranteed to be
/// assigned: at its reservation-price type, the singleton set satisfies
/// `TNRP({τ}) = RP(τ) ≥ C_k` (a task alone has throughput 1).
///
/// # Examples
///
/// ```
/// use eva_cloud::Catalog;
/// use eva_core::{full_reconfiguration, ReservationPrices, TnrpEvaluator};
/// use eva_interference::ThroughputTable;
///
/// # use eva_core::TaskSnapshot;
/// # use eva_types::{DemandSpec, JobId, ResourceVector, SimDuration, TaskId, WorkloadKind};
/// # fn t(j: u64, g: u32, c: u32, r: u64) -> TaskSnapshot {
/// #     TaskSnapshot {
/// #         id: TaskId::new(JobId(j), 0), workload: WorkloadKind(j as u32),
/// #         demand: DemandSpec::uniform(ResourceVector::with_ram_gb(g, c, r)),
/// #         checkpoint_delay: SimDuration::ZERO, launch_delay: SimDuration::ZERO,
/// #         gang_size: 1, gang_coupled: false, assigned_to: None, remaining_hint: None,
/// #     }
/// # }
/// let catalog = Catalog::table3_example();
/// // The paper's §4.2 walkthrough: τ1..τ4 pack into one it1 and one it3,
/// // for $12.80/hr instead of $16.20/hr standalone.
/// let tasks = vec![
///     t(1, 2, 8, 24), t(2, 1, 4, 10), t(3, 0, 6, 20), t(4, 0, 4, 12),
/// ];
/// let prices = ReservationPrices::compute(&catalog, tasks.iter());
/// let table = ThroughputTable::new(1.0); // No interference.
/// let eval = TnrpEvaluator::new(&table, &prices, true);
/// let config = full_reconfiguration(&tasks, &catalog, &eval);
/// assert_eq!(config.instances.len(), 2);
/// assert!((config.total_cost_dollars() - 12.8).abs() < 1e-9);
/// ```
pub fn full_reconfiguration(
    tasks: &[TaskSnapshot],
    catalog: &Catalog,
    eval: &TnrpEvaluator<'_>,
) -> PackedConfig {
    let tasks: Vec<&TaskSnapshot> = tasks.iter().collect();
    pack(&tasks, &catalog.types_by_cost_desc(), eval)
}

/// An unassigned task with everything the scan of [`pack_one_instance`]
/// reads of it resolved up front.
struct Candidate<'a> {
    task: &'a TaskSnapshot,
    priced: Priced,
    /// Its demand on the instance type being packed.
    demand: ResourceVector,
}

/// [`full_reconfiguration`] over borrowed tasks; `types` is the catalog in
/// [`Catalog::types_by_cost_desc`] order.
pub(crate) fn pack(
    tasks: &[&TaskSnapshot],
    types: &[&InstanceType],
    eval: &TnrpEvaluator<'_>,
) -> PackedConfig {
    let mut config = PackedConfig::default();
    // Tasks no type can host are unassignable regardless of packing.
    let mut remaining: Vec<Candidate<'_>> = Vec::new();
    for &task in tasks {
        if types.iter().any(|ty| ty.can_host(&task.demand)) {
            remaining.push(Candidate {
                task,
                priced: eval.priced(task),
                demand: ResourceVector::ZERO,
            });
        } else {
            config.unassigned.push(task.id);
        }
    }

    for instance_type in types {
        if remaining.is_empty() {
            break;
        }
        if instance_type.hourly_cost.is_zero() {
            // Ghost or free types would host everything vacuously.
            continue;
        }
        for c in &mut remaining {
            c.demand = instance_type.demand_of(&c.task.demand);
        }
        loop {
            let (set_indices, tnrp) = pack_one_instance(&remaining, &instance_type.capacity, eval);
            if set_indices.is_empty() {
                break;
            }
            // Commit only when cost-efficient (Algorithm 1 line 14).
            if tnrp + 1e-9 >= instance_type.hourly_cost.as_dollars() {
                // Record ids in assignment order, then remove by descending
                // index so earlier indices stay valid.
                let task_ids = set_indices.iter().map(|i| remaining[*i].task.id).collect();
                let mut sorted = set_indices.clone();
                sorted.sort_unstable_by(|a, b| b.cmp(a));
                for idx in &sorted {
                    remaining.remove(*idx);
                }
                config.instances.push(PackedInstance {
                    type_id: instance_type.id,
                    tasks: task_ids,
                    tnrp_dollars: tnrp,
                    cost_dollars: instance_type.hourly_cost.as_dollars(),
                });
            } else {
                // Move on to the next cheaper type (line 17).
                break;
            }
        }
    }

    // Anything left is unassignable (should not happen for feasible tasks).
    let left = remaining.iter().map(|c| c.task.id);
    config.unassigned.extend(left);
    config
}

/// Greedily fills one instance of the given capacity from `remaining`
/// (Algorithm 1 lines 5–13). Returns the selected indices (in assignment
/// order) and the final set TNRP.
fn pack_one_instance(
    remaining: &[Candidate<'_>],
    capacity: &ResourceVector,
    eval: &TnrpEvaluator<'_>,
) -> (Vec<usize>, f64) {
    let mut selected: Vec<usize> = Vec::new();
    let mut set: Vec<&TaskSnapshot> = Vec::new();
    let mut used = ResourceVector::ZERO;
    let mut current_tnrp = 0.0;

    loop {
        // The set is joined once per workload, not once per candidate.
        let mut joins = Vec::new();
        let mut best: Option<(usize, f64)> = None;
        for (idx, c) in remaining.iter().enumerate() {
            if selected.contains(&idx) {
                continue;
            }
            let Some(total) = used.checked_add(&c.demand) else {
                continue;
            };
            if !total.fits_within(capacity) {
                continue;
            }
            let known = joins.iter().find(|(w, _)| *w == c.task.workload).copied();
            let (_, join) = known.unwrap_or_else(|| {
                joins.push((c.task.workload, eval.join(&set, c.task.workload)));
                joins[joins.len() - 1]
            });
            let tnrp = join(c.priced);
            debug_assert_eq!(
                tnrp.to_bits(),
                eval.tnrp_set(&[&set[..], &[c.task]].concat()).to_bits()
            );
            // Strict improvement comparison with stable id tie-break keeps
            // the algorithm deterministic; it depends on the scan order.
            let better = match best {
                None => true,
                Some((best_idx, best_tnrp)) => {
                    tnrp > best_tnrp + 1e-12
                        || ((tnrp - best_tnrp).abs() <= 1e-12
                            && c.task.id < remaining[best_idx].task.id)
                }
            };
            if better {
                best = Some((idx, tnrp));
            }
        }
        let Some((idx, tnrp)) = best else { break };
        // Line 9: stop when the marginal addition lowers the set TNRP.
        if tnrp < current_tnrp {
            break;
        }
        selected.push(idx);
        set.push(remaining[idx].task);
        used = used.checked_add(&remaining[idx].demand).unwrap_or(used);
        current_tnrp = tnrp;
    }

    (selected, current_tnrp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reservation::{ReservationPrices, UnitTput};
    use eva_interference::ThroughputTable;
    use eva_types::{DemandSpec, JobId, SimDuration, WorkloadKind};

    fn t(job: u64, gpu: u32, cpu: u32, ram_gb: u64, workload: u32) -> TaskSnapshot {
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

    fn table3_tasks() -> Vec<TaskSnapshot> {
        vec![
            t(1, 2, 8, 24, 0),
            t(2, 1, 4, 10, 1),
            t(3, 0, 6, 20, 2),
            t(4, 0, 4, 12, 3),
        ]
    }

    #[test]
    fn paper_walkthrough_packs_it1_and_it3() {
        // §4.2: τ1, τ2, τ4 → it1 ($15.4 RP vs $12); τ3 → it3 ($0.8 = $0.8).
        let catalog = Catalog::table3_example();
        let tasks = table3_tasks();
        let prices = ReservationPrices::compute(&catalog, tasks.iter());
        let eval = TnrpEvaluator::new(&UnitTput, &prices, true);
        let config = full_reconfiguration(&tasks, &catalog, &eval);

        assert_eq!(config.instances.len(), 2);
        let it1 = &config.instances[0];
        assert_eq!(catalog.get(it1.type_id).unwrap().name, "it1");
        assert_eq!(
            it1.tasks,
            vec![
                TaskId::new(JobId(1), 0),
                TaskId::new(JobId(2), 0),
                TaskId::new(JobId(4), 0)
            ]
        );
        assert!((it1.tnrp_dollars - 15.4).abs() < 1e-9);

        let it3 = &config.instances[1];
        assert_eq!(catalog.get(it3.type_id).unwrap().name, "it3");
        assert_eq!(it3.tasks, vec![TaskId::new(JobId(3), 0)]);

        assert!((config.total_cost_dollars() - 12.8).abs() < 1e-9);
        assert!(config.unassigned.is_empty());
    }

    #[test]
    fn every_feasible_task_is_assigned() {
        let catalog = Catalog::aws_eval_2025();
        let tasks: Vec<TaskSnapshot> = (0..40)
            .map(|i| match i % 4 {
                0 => t(i, 1, 4, 24, 0),
                1 => t(i, 0, 6, 8, 1),
                2 => t(i, 4, 4, 10, 2),
                _ => t(i, 0, 2, 16, 3),
            })
            .collect();
        let prices = ReservationPrices::compute(&catalog, tasks.iter());
        let table = ThroughputTable::new(0.95);
        let eval = TnrpEvaluator::new(&table, &prices, true);
        let config = full_reconfiguration(&tasks, &catalog, &eval);
        assert!(config.unassigned.is_empty());
        assert_eq!(config.assigned_count(), 40);
    }

    #[test]
    fn every_instance_is_cost_efficient() {
        let catalog = Catalog::aws_eval_2025();
        let tasks: Vec<TaskSnapshot> = (0..30)
            .map(|i| {
                t(
                    i,
                    (i % 3) as u32,
                    2 + (i % 8) as u32,
                    4 + (i % 40),
                    (i % 8) as u32,
                )
            })
            .collect();
        let prices = ReservationPrices::compute(&catalog, tasks.iter());
        let table = ThroughputTable::new(0.95);
        let eval = TnrpEvaluator::new(&table, &prices, true);
        let config = full_reconfiguration(&tasks, &catalog, &eval);
        for inst in &config.instances {
            assert!(
                inst.tnrp_dollars + 1e-9 >= inst.cost_dollars,
                "instance {:?} not cost-efficient",
                inst
            );
        }
    }

    #[test]
    fn capacity_never_exceeded() {
        let catalog = Catalog::aws_eval_2025();
        let tasks: Vec<TaskSnapshot> = (0..50).map(|i| t(i, 1, 8, 50, (i % 8) as u32)).collect();
        let prices = ReservationPrices::compute(&catalog, tasks.iter());
        let table = ThroughputTable::new(0.95);
        let eval = TnrpEvaluator::new(&table, &prices, true);
        let config = full_reconfiguration(&tasks, &catalog, &eval);
        for inst in &config.instances {
            let ty = catalog.get(inst.type_id).unwrap();
            let mut used = ResourceVector::ZERO;
            for tid in &inst.tasks {
                let task = tasks.iter().find(|t| t.id == *tid).unwrap();
                used += ty.demand_of(&task.demand);
            }
            assert!(used.fits_within(&ty.capacity), "{used} > {}", ty.capacity);
        }
    }

    #[test]
    fn infeasible_tasks_reported_unassigned() {
        let catalog = Catalog::table3_example();
        let tasks = vec![t(1, 8, 64, 999, 0), t(2, 1, 4, 10, 1)];
        let prices = ReservationPrices::compute(&catalog, tasks.iter());
        let eval = TnrpEvaluator::new(&UnitTput, &prices, true);
        let config = full_reconfiguration(&tasks, &catalog, &eval);
        assert_eq!(config.unassigned, vec![TaskId::new(JobId(1), 0)]);
        assert_eq!(config.assigned_count(), 1);
    }

    #[test]
    fn severe_interference_prevents_packing() {
        // With uniform pairwise throughput 0.5, packing two $3 tasks on one
        // instance yields TNRP = 3.0 < 3.0 cost? 2×3×0.5 = 3.0 — exactly
        // cost; use 0.4 to force a clear loss so Eva reduces to no-packing.
        let catalog = Catalog::table3_example();
        let tasks = vec![t(1, 1, 4, 10, 0), t(2, 1, 4, 10, 1)];
        let prices = ReservationPrices::compute(&catalog, tasks.iter());
        let mut table = ThroughputTable::new(0.4);
        // Make the pairwise estimates explicit.
        table.record(WorkloadKind(0), &[WorkloadKind(1)], 0.4);
        table.record(WorkloadKind(1), &[WorkloadKind(0)], 0.4);
        let eval = TnrpEvaluator::new(&table, &prices, true);
        let config = full_reconfiguration(&tasks, &catalog, &eval);
        // Each task gets its own reservation-price instance (it2 × 2).
        assert_eq!(config.instances.len(), 2);
        for inst in &config.instances {
            assert_eq!(inst.tasks.len(), 1);
            assert_eq!(catalog.get(inst.type_id).unwrap().name, "it2");
        }
    }

    #[test]
    fn line9_stops_adding_on_tnrp_decrease() {
        // Three tasks that fit a big instance, but the third interferes so
        // badly that adding it lowers the set TNRP.
        let catalog = Catalog::table3_example();
        let tasks = vec![t(1, 2, 8, 24, 0), t(2, 1, 4, 10, 1), t(3, 0, 4, 12, 2)];
        let prices = ReservationPrices::compute(&catalog, tasks.iter());
        let mut table = ThroughputTable::new(1.0);
        // τ3 wrecks τ1 (whose RP is 12): adding τ3 changes τ1's TNRP from
        // 12 to 12×0.3 = 3.6 while adding only 0.4 of its own RP.
        table.record(WorkloadKind(0), &[WorkloadKind(1), WorkloadKind(2)], 0.3);
        table.record(WorkloadKind(0), &[WorkloadKind(2)], 0.3);
        let eval = TnrpEvaluator::new(&table, &prices, true);
        let config = full_reconfiguration(&tasks, &catalog, &eval);
        let first = &config.instances[0];
        assert_eq!(catalog.get(first.type_id).unwrap().name, "it1");
        assert_eq!(
            first.tasks,
            vec![TaskId::new(JobId(1), 0), TaskId::new(JobId(2), 0)],
            "τ3 must be rejected by the line-9 check"
        );
        // τ3 still lands on its own cheap instance.
        assert_eq!(config.assigned_count(), 3);
    }

    #[test]
    fn empty_task_set_gives_empty_config() {
        let catalog = Catalog::aws_eval_2025();
        let prices = ReservationPrices::compute(&catalog, std::iter::empty());
        let eval = TnrpEvaluator::new(&UnitTput, &prices, true);
        let config = full_reconfiguration(&[], &catalog, &eval);
        assert!(config.instances.is_empty());
        assert!(config.unassigned.is_empty());
        assert_eq!(config.total_cost_dollars(), 0.0);
    }

    #[test]
    fn deterministic_output() {
        let catalog = Catalog::aws_eval_2025();
        let tasks: Vec<TaskSnapshot> = (0..25)
            .map(|i| t(i, (i % 2) as u32, 2 + (i % 6) as u32, 8, (i % 8) as u32))
            .collect();
        let prices = ReservationPrices::compute(&catalog, tasks.iter());
        let table = ThroughputTable::new(0.95);
        let eval = TnrpEvaluator::new(&table, &prices, true);
        let a = full_reconfiguration(&tasks, &catalog, &eval);
        let b = full_reconfiguration(&tasks, &catalog, &eval);
        assert_eq!(a, b);
    }

    #[test]
    fn packing_beats_no_packing_cost() {
        // AWS prices GPUs linearly, so savings come from CPU tasks riding
        // in GPU instances' spare CPU/RAM: pair each 1-GPU task with a
        // small CPU task on a p3.2xlarge.
        let catalog = Catalog::aws_eval_2025();
        let mut tasks: Vec<TaskSnapshot> =
            (0..10).map(|i| t(i, 1, 4, 24, (i % 8) as u32)).collect();
        tasks.extend((10..20).map(|i| t(i, 0, 4, 8, (i % 8) as u32)));
        let prices = ReservationPrices::compute(&catalog, tasks.iter());
        let table = ThroughputTable::new(0.95);
        let eval = TnrpEvaluator::new(&table, &prices, true);
        let config = full_reconfiguration(&tasks, &catalog, &eval);
        let no_packing: f64 = tasks.iter().map(|t| prices.rp_dollars(t.id)).sum();
        assert!(
            config.total_cost_dollars() <= no_packing + 1e-9,
            "packing ({}) must not exceed no-packing ({})",
            config.total_cost_dollars(),
            no_packing
        );
        // The CPU riders' standalone instances disappear entirely.
        assert!(config.total_cost_dollars() < no_packing * 0.99);
    }

    /// Algorithm 1 as it was before the join decomposition: every
    /// candidate evaluated by pushing it onto the set and recomputing
    /// `tnrp_set` from scratch. Kept verbatim as the differential
    /// reference (test code only).
    mod reference {
        use super::*;

        pub fn full_reconfiguration(
            tasks: &[TaskSnapshot],
            catalog: &Catalog,
            eval: &TnrpEvaluator<'_>,
        ) -> PackedConfig {
            let mut config = PackedConfig::default();
            // Tasks no type can host are unassignable regardless of packing.
            let mut remaining: Vec<&TaskSnapshot> = Vec::new();
            for t in tasks {
                if catalog.cheapest_fit(&t.demand).is_some() {
                    remaining.push(t);
                } else {
                    config.unassigned.push(t.id);
                }
            }

            for instance_type in catalog.types_by_cost_desc() {
                if remaining.is_empty() {
                    break;
                }
                if instance_type.hourly_cost.is_zero() {
                    // Ghost or free types would host everything vacuously.
                    continue;
                }
                loop {
                    let (set_indices, tnrp) = pack_one_instance(&remaining, instance_type, eval);
                    if set_indices.is_empty() {
                        break;
                    }
                    // Commit only when cost-efficient (Algorithm 1 line 14).
                    if tnrp + 1e-9 >= instance_type.hourly_cost.as_dollars() {
                        // Record ids in assignment order, then remove by descending
                        // index so earlier indices stay valid.
                        let task_ids: Vec<TaskId> =
                            set_indices.iter().map(|idx| remaining[*idx].id).collect();
                        let mut sorted = set_indices.clone();
                        sorted.sort_unstable_by(|a, b| b.cmp(a));
                        for idx in &sorted {
                            remaining.remove(*idx);
                        }
                        config.instances.push(PackedInstance {
                            type_id: instance_type.id,
                            tasks: task_ids,
                            tnrp_dollars: tnrp,
                            cost_dollars: instance_type.hourly_cost.as_dollars(),
                        });
                    } else {
                        // Move on to the next cheaper type (line 17).
                        break;
                    }
                }
            }

            // Anything left is unassignable (should not happen for feasible tasks).
            config.unassigned.extend(remaining.iter().map(|t| t.id));
            config
        }

        /// Greedily fills one instance of `instance_type` from `remaining`
        /// (Algorithm 1 lines 5–13). Returns the selected indices (in assignment
        /// order) and the final set TNRP.
        fn pack_one_instance(
            remaining: &[&TaskSnapshot],
            instance_type: &InstanceType,
            eval: &TnrpEvaluator<'_>,
        ) -> (Vec<usize>, f64) {
            let mut selected: Vec<usize> = Vec::new();
            let mut set: Vec<&TaskSnapshot> = Vec::new();
            let mut used = ResourceVector::ZERO;
            let mut current_tnrp = 0.0;

            loop {
                let mut best: Option<(usize, f64)> = None;
                for (idx, task) in remaining.iter().enumerate() {
                    if selected.contains(&idx) {
                        continue;
                    }
                    let demand = instance_type.demand_of(&task.demand);
                    let Some(total) = used.checked_add(&demand) else {
                        continue;
                    };
                    if !total.fits_within(&instance_type.capacity) {
                        continue;
                    }
                    set.push(task);
                    let tnrp = eval.tnrp_set(&set);
                    set.pop();
                    // Strict improvement comparison with stable id tie-break keeps
                    // the algorithm deterministic.
                    let better = match best {
                        None => true,
                        Some((best_idx, best_tnrp)) => {
                            tnrp > best_tnrp + 1e-12
                                || ((tnrp - best_tnrp).abs() <= 1e-12
                                    && remaining[idx].id < remaining[best_idx].id)
                        }
                    };
                    if better {
                        best = Some((idx, tnrp));
                    }
                }
                let Some((idx, tnrp)) = best else { break };
                // Line 9: stop when the marginal addition lowers the set TNRP.
                if tnrp < current_tnrp {
                    break;
                }
                selected.push(idx);
                set.push(remaining[idx]);
                used = used
                    .checked_add(&instance_type.demand_of(&remaining[idx].demand))
                    .unwrap_or(used);
                current_tnrp = tnrp;
            }

            (selected, current_tnrp)
        }
    }

    use crate::reservation::tests::arb_table;
    use crate::reservation::TputEstimator;
    use eva_workloads::SyntheticTraceConfig;
    use proptest::prelude::*;
    use std::cell::Cell;

    /// Same instances, same task order, same TNRP to the bit.
    fn assert_same(kernel: &PackedConfig, reference: &PackedConfig) {
        assert_eq!(kernel, reference);
        for (k, r) in kernel.instances.iter().zip(&reference.instances) {
            assert_eq!(k.tnrp_dollars.to_bits(), r.tnrp_dollars.to_bits());
        }
    }

    /// Up to `max` tasks of eight workloads, gang-coupled or not; one in
    /// four demands fewer CPUs on the CPU families, as Table 7's CPU
    /// workloads do; plus one task no type can host.
    fn arb_tasks(max: usize) -> impl Strategy<Value = Vec<TaskSnapshot>> {
        let spec = (0u32..=4, 1u32..=32, 1u64..=200, 0u32..8, 1u32..5, 0u32..4);
        collection::vec(spec, 1..=max).prop_map(|specs| {
            let task = |(job, (gpu, cpu, ram_gb, workload, gang_size, kind))| {
                let mut task = t(job as u64, gpu, cpu, ram_gb, workload);
                if kind == 0 {
                    let fast = ResourceVector::with_ram_gb(0, cpu.div_ceil(2), ram_gb);
                    task.demand = DemandSpec::uniform(ResourceVector::with_ram_gb(0, cpu, ram_gb))
                        .with_family_override("c7i", fast)
                        .with_family_override("r7i", fast);
                }
                task.gang_size = gang_size;
                task.gang_coupled = kind == 1;
                task
            };
            let mut tasks: Vec<TaskSnapshot> = specs.into_iter().enumerate().map(task).collect();
            tasks.insert(tasks.len() / 2, t(1 << 20, 64, 1, 1, 0));
            tasks
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn kernel_packs_what_the_reference_packs(
            tasks in arb_tasks(120),
            table in arb_table(),
            multi_task_aware in 0u32..2,
        ) {
            for catalog in [Catalog::aws_eval_2025(), Catalog::table3_example()] {
                let prices = ReservationPrices::compute(&catalog, tasks.iter());
                for tput in [&table as &dyn TputEstimator, &UnitTput] {
                    let eval = TnrpEvaluator::new(tput, &prices, multi_task_aware == 1);
                    let kernel = full_reconfiguration(&tasks, &catalog, &eval);
                    prop_assert!(kernel.unassigned.contains(&TaskId::new(JobId(1 << 20), 0)));
                    assert_same(&kernel, &reference::full_reconfiguration(&tasks, &catalog, &eval));
                }
            }
        }
    }

    /// Counts the questions Algorithm 1 asks of its throughput estimator.
    struct CountingTput<'a> {
        table: &'a ThroughputTable,
        calls: Cell<u64>,
    }

    impl TputEstimator for CountingTput<'_> {
        fn estimate(&self, task: WorkloadKind, others: &[WorkloadKind]) -> f64 {
            self.calls.set(self.calls.get() + 1);
            self.table.estimate(task, others)
        }
    }

    /// The machine-independent form of the speed-up: work counted, not
    /// timed. 384 tasks is the plateau of the `batch_eva` benchmark.
    #[test]
    fn kernel_asks_a_tenth_of_the_reference_estimates() {
        let catalog = Catalog::aws_eval_2025();
        let shape = SyntheticTraceConfig {
            num_jobs: 384,
            ..SyntheticTraceConfig::huge_100k()
        };
        let trace = shape.generate(7);
        let specs = trace.jobs().iter().flat_map(|job| {
            let shape = (job.num_tasks() as u32, job.gang_coupled);
            job.tasks.iter().map(move |task| (task, shape))
        });
        let tasks: Vec<TaskSnapshot> = specs
            .take(384)
            .map(|(spec, (gang_size, gang_coupled))| TaskSnapshot {
                id: spec.id,
                workload: spec.workload,
                demand: spec.demand.clone(),
                gang_size,
                gang_coupled,
                ..t(0, 0, 0, 0, 0)
            })
            .collect();
        let prices = ReservationPrices::compute(&catalog, tasks.iter());
        let mut table = ThroughputTable::new(0.95);
        for (i, task) in tasks.iter().enumerate().take(60) {
            let others: Vec<WorkloadKind> = tasks[i + 1..i + 1 + i % 4]
                .iter()
                .map(|t| t.workload)
                .collect();
            table.record(task.workload, &others, 0.5 + (i % 10) as f64 / 20.0);
        }

        let count = |pack: &dyn Fn(&TnrpEvaluator<'_>) -> PackedConfig| {
            let tput = CountingTput {
                table: &table,
                calls: Cell::new(0),
            };
            let config = pack(&TnrpEvaluator::new(&tput, &prices, true));
            (config, tput.calls.get())
        };
        let (reference, reference_calls) =
            count(&|eval| reference::full_reconfiguration(&tasks, &catalog, eval));
        let (kernel, kernel_calls) = count(&|eval| full_reconfiguration(&tasks, &catalog, eval));
        assert_same(&kernel, &reference);
        assert_eq!(kernel.assigned_count(), 384);
        // With debug assertions on, the kernel's oracle re-asks everything
        // the reference asks, candidate for candidate.
        let oracle_calls = if cfg!(debug_assertions) {
            reference_calls
        } else {
            0
        };
        let own_calls = kernel_calls - oracle_calls;
        assert!(
            own_calls * 10 <= reference_calls,
            "kernel asked {own_calls} estimates, reference {reference_calls}"
        );
    }
}
