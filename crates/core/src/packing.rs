//! Full Reconfiguration — Algorithm 1 (§4.2), generalized with TNRP (§4.3).
//!
//! The algorithm adapts the classic variable-sized bin packing heuristic
//! ("largest bin type, largest ball first") to multi-dimensional cloud
//! resources by ranking instance types by hourly cost and tasks by the
//! marginal throughput-normalized reservation price they add to the
//! instance under construction. An instance is committed only when the
//! TNRP of its task set covers its hourly cost, which guarantees every
//! provisioned instance is cost-efficient relative to no-packing.
//!
//! # The scan visits class heads, not tasks
//!
//! A candidate's fit and score depend on the task only through its
//! workload, its [`Priced`] scalars and its demand on the type being
//! packed. `pack` groups the tasks once into *classes* — equal workload,
//! bit-equal `Priced`, equal `DemandSpec` — and each growth step
//! fit-checks and scores only each class's first unassigned member, its
//! *head*, in input order: O(n · classes) for Algorithm 1, not O(n²).
//!
//! The plan is the same to the bit when the input is in strictly
//! ascending [`TaskId`] order, as the world hands it to Full
//! Reconfiguration. A candidate displaces the running best when it scores
//! more than `1e-12` above it, or within `1e-12` of it with a smaller id;
//! with ids ascending along the scan the second clause cannot fire, so the
//! best score never decreases. A member behind its head has the head's fit
//! verdict and score bit for bit, and the head came first: it either
//! became the best or failed `s > best + 1e-12` against a best that has
//! only grown since, so `s ≤ best + 1e-12` for the rest of the scan and the
//! member displaces nothing. The heads are a subsequence of the full scan,
//! so the others are still compared in the same order.
//!
//! On any other input (Partial Reconfiguration's subset is the unplaced
//! tasks, then residents in instance order) the tie-break does decide
//! among equals: every task is its own class and the same loop is the
//! plain scan over tasks.

use std::iter::successors;

use eva_cloud::{Catalog, InstanceType};
use eva_types::{InstanceTypeId, ResourceVector, TaskId};

use crate::plan::TaskSnapshot;
use crate::reservation::{Priced, TnrpEvaluator, TnrpSet};

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

/// A set of unassigned tasks Algorithm 1 cannot tell apart (module docs):
/// one fit check and one score stand for all of them.
struct Class<'a> {
    /// The first member; every member has its workload and demand spec.
    task: &'a TaskSnapshot,
    priced: Priced,
    /// The members' demand on the instance type being packed.
    demand: ResourceVector,
}

/// The tasks of one [`pack`], grouped into [`Class`]es.
struct Grouped<'a> {
    tasks: &'a [&'a TaskSnapshot],
    classes: Vec<Class<'a>>,
    /// `next[p]`: input position of the next member of `p`'s class.
    next: Vec<Option<usize>>,
}

/// (Input position of its first unassigned member, class) for every class
/// that still has one, ascending by position — the order of the scan.
type Heads = Vec<(usize, usize)>;

/// [`full_reconfiguration`] over borrowed tasks; `types` is the catalog in
/// [`Catalog::types_by_cost_desc`] order.
pub(crate) fn pack(
    tasks: &[&TaskSnapshot],
    types: &[&InstanceType],
    eval: &TnrpEvaluator<'_>,
) -> PackedConfig {
    let mut config = PackedConfig::default();
    // Members may stand behind their head only where ids ascend.
    let ascending = tasks.windows(2).all(|w| w[0].id < w[1].id);
    let mut grouped = Grouped {
        tasks,
        classes: Vec::new(),
        next: vec![None; tasks.len()],
    };
    let mut heads = Heads::new();
    let mut tails: Vec<usize> = Vec::new();
    for (pos, &task) in tasks.iter().enumerate() {
        let priced = eval.priced(task);
        let same = |c: &Class<'_>| {
            c.task.workload == task.workload
                && c.priced.bits() == priced.bits()
                && c.task.demand == task.demand
        };
        let class = ascending.then(|| grouped.classes.iter().position(same));
        if let Some(class) = class.flatten() {
            grouped.next[tails[class]] = Some(pos);
            tails[class] = pos;
        } else if types.iter().any(|ty| ty.can_host(&task.demand)) {
            heads.push((pos, grouped.classes.len()));
            tails.push(pos);
            grouped.classes.push(Class {
                task,
                priced,
                demand: ResourceVector::ZERO,
            });
        } else {
            // Tasks no type can host are unassignable regardless of packing.
            config.unassigned.push(task.id);
        }
    }

    let mut trial = Heads::new();
    for instance_type in types {
        if heads.is_empty() {
            break;
        }
        if instance_type.hourly_cost.is_zero() {
            // Ghost or free types would host everything vacuously.
            continue;
        }
        for c in &mut grouped.classes {
            c.demand = instance_type.demand_of(&c.task.demand);
        }
        loop {
            // Heads advance on a copy, which a commit makes the truth.
            trial.clone_from(&heads);
            let (set, tnrp) =
                pack_one_instance(&grouped, &mut trial, &instance_type.capacity, eval);
            // Commit only when cost-efficient (Algorithm 1 line 14), which
            // a NaN is not.
            let cost = instance_type.hourly_cost.as_dollars();
            let efficient = tnrp + 1e-9 >= cost;
            if set.tasks().len() == 0 || !efficient {
                // Move on to the next cheaper type (line 17).
                break;
            }
            std::mem::swap(&mut heads, &mut trial);
            config.instances.push(PackedInstance {
                type_id: instance_type.id,
                tasks: set.tasks().map(|t| t.id).collect(),
                tnrp_dollars: tnrp,
                cost_dollars: cost,
            });
        }
    }

    // Anything left is unassignable (should not happen for feasible tasks).
    let members = |&(head, _): &(usize, usize)| successors(Some(head), |&pos| grouped.next[pos]);
    let mut left: Vec<usize> = heads.iter().flat_map(members).collect();
    left.sort_unstable();
    let left = left.iter().map(|&pos| tasks[pos].id);
    config.unassigned.extend(left);
    config
}

/// Greedily fills one instance of the given capacity from `heads`,
/// advancing them (Algorithm 1 lines 5–13). Returns the selected tasks (in
/// assignment order) and the final set TNRP.
fn pack_one_instance<'e, 'a>(
    grouped: &Grouped<'a>,
    heads: &mut Heads,
    capacity: &ResourceVector,
    eval: &'e TnrpEvaluator<'_>,
) -> (TnrpSet<'e, 'a>, f64) {
    let mut set = eval.set(&[]);
    let mut used = ResourceVector::ZERO;
    let mut current_tnrp = 0.0;

    loop {
        // The set is joined once per workload, not once per candidate.
        let mut joins = Vec::new();
        let mut best: Option<(usize, f64)> = None;
        for (idx, &(pos, class)) in heads.iter().enumerate() {
            let (task, c) = (grouped.tasks[pos], &grouped.classes[class]);
            let total = used.checked_add(&c.demand);
            if !total.is_some_and(|total| total.fits_within(capacity)) {
                continue;
            }
            let known = joins.iter().find(|(w, _)| *w == c.task.workload).copied();
            let (_, join) = known.unwrap_or_else(|| {
                joins.push((c.task.workload, set.join(c.task.workload)));
                joins[joins.len() - 1]
            });
            let tnrp = join(c.priced);
            debug_assert_eq!(
                tnrp.to_bits(),
                eval.tnrp_set(&set.tasks().chain([task]).collect::<Vec<_>>())
                    .to_bits()
            );
            // Strict improvement comparison with stable id tie-break keeps
            // the algorithm deterministic; it depends on the scan order.
            let better = match best {
                None => true,
                Some((best_idx, best_tnrp)) => {
                    tnrp > best_tnrp + 1e-12
                        || ((tnrp - best_tnrp).abs() <= 1e-12
                            && task.id < grouped.tasks[heads[best_idx].0].id)
                }
            };
            if better {
                best = Some((idx, tnrp));
            }
        }
        let Some((idx, tnrp)) = best else { break };
        // Line 9: stop when the marginal addition lowers the set TNRP, as
        // a NaN is taken to.
        let grows = tnrp >= current_tnrp;
        if !grows {
            break;
        }
        let (pos, class) = heads.remove(idx);
        set.push(grouped.tasks[pos]);
        let demand = &grouped.classes[class].demand;
        used = used.checked_add(demand).unwrap_or(used);
        current_tnrp = tnrp;
        // The class's next member takes its place in the scan order.
        if let Some(next) = grouped.next[pos] {
            let at = heads.partition_point(|&(head, _)| head < next);
            heads.insert(at, (next, class));
        }
    }

    (set, current_tnrp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::test_task;
    use crate::reservation::{ReservationPrices, UnitTput};
    use eva_interference::ThroughputTable;
    use eva_types::{JobId, WorkloadKind};

    fn t(job: u64, gpu: u32, cpu: u32, ram_gb: u64, workload: u32) -> TaskSnapshot {
        test_task(job, ResourceVector::with_ram_gb(gpu, cpu, ram_gb), workload)
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
}
