//! Reservation price and throughput-normalized reservation price (§4.2–4.4).

use std::cell::RefCell;
use std::collections::HashMap;

use eva_cloud::Catalog;
use eva_interference::ThroughputTable;
use eva_types::{Cost, DemandSpec, InstanceTypeId, TaskId, WorkloadKind};

use crate::plan::TaskSnapshot;

/// Estimates the normalized throughput of a workload co-located with a
/// multiset of other workloads. Implemented by Eva's learned
/// [`ThroughputTable`], by oracles wrapping ground-truth interference (for
/// the Owl baseline), and by [`UnitTput`] for interference-oblivious
/// scheduling (Eva-RP).
pub trait TputEstimator {
    /// The recorded throughput of `task` beside exactly the group `others`
    /// (two or more), if the estimator holds one.
    fn recorded(&self, task: WorkloadKind, others: &[WorkloadKind]) -> Option<f64>;

    /// Normalized throughput of `task` beside one `other`.
    fn pairwise(&self, task: WorkloadKind, other: WorkloadKind) -> f64;

    /// `tput(τ, T)` — normalized throughput of `task` when co-located with
    /// `others` on the same instance (§4.3): 1.0 alone, the pairwise value
    /// beside one other, else the recorded group or the product of the
    /// pairwise values in `others`' order, clamped to `[0, 1]`.
    fn estimate(&self, task: WorkloadKind, others: &[WorkloadKind]) -> f64 {
        match others {
            [] => 1.0,
            [other] => self.pairwise(task, *other),
            _ => self.recorded(task, others).unwrap_or_else(|| {
                let pairs = others.iter().map(|o| self.pairwise(task, *o));
                pairs.product::<f64>().clamp(0.0, 1.0)
            }),
        }
    }
}

impl TputEstimator for ThroughputTable {
    fn recorded(&self, task: WorkloadKind, others: &[WorkloadKind]) -> Option<f64> {
        ThroughputTable::recorded(self, task, others)
    }
    fn pairwise(&self, task: WorkloadKind, other: WorkloadKind) -> f64 {
        self.pairwise_or_default(task, other)
    }
}

/// An estimator that ignores interference entirely (always 1.0). Turns
/// TNRP back into plain RP — the Eva-RP ablation of §6.4.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnitTput;

impl TputEstimator for UnitTput {
    fn recorded(&self, _task: WorkloadKind, _others: &[WorkloadKind]) -> Option<f64> {
        None
    }
    fn pairwise(&self, _task: WorkloadKind, _other: WorkloadKind) -> f64 {
        1.0
    }
}

/// The reservation price of a demand: the hourly cost of the cheapest
/// instance type that can host it standalone (§4.2). Returns the type too.
///
/// # Examples
///
/// ```
/// use eva_cloud::Catalog;
/// use eva_core::reservation_price;
/// use eva_types::{DemandSpec, ResourceVector};
///
/// let catalog = Catalog::table3_example();
/// // Table 3's τ1 demands [2, 8, 24 GB]; only it1 ($12/hr) fits.
/// let d = DemandSpec::uniform(ResourceVector::with_ram_gb(2, 8, 24));
/// let (ty, rp) = reservation_price(&catalog, &d).unwrap();
/// assert_eq!(catalog.get(ty).unwrap().name, "it1");
/// assert_eq!(rp.as_dollars(), 12.0);
/// ```
pub fn reservation_price(catalog: &Catalog, demand: &DemandSpec) -> Option<(InstanceTypeId, Cost)> {
    catalog.cheapest_fit(demand).map(|t| (t.id, t.hourly_cost))
}

/// Precomputed reservation prices for a task set.
#[derive(Debug, Clone, Default)]
pub struct ReservationPrices {
    prices: HashMap<TaskId, Cost>,
    unschedulable: Vec<TaskId>,
}

impl ReservationPrices {
    /// Computes the reservation price of every task; tasks no instance
    /// type can host are collected separately.
    pub fn compute<'a>(
        catalog: &Catalog,
        tasks: impl IntoIterator<Item = &'a TaskSnapshot>,
    ) -> Self {
        let mut prices = HashMap::new();
        let mut unschedulable = Vec::new();
        for t in tasks {
            match reservation_price(catalog, &t.demand) {
                Some((_, rp)) => {
                    prices.insert(t.id, rp);
                }
                None => unschedulable.push(t.id),
            }
        }
        ReservationPrices {
            prices,
            unschedulable,
        }
    }

    /// `RP(τ)` in dollars (0.0 for unknown tasks).
    pub fn rp_dollars(&self, task: TaskId) -> f64 {
        self.prices.get(&task).map_or(0.0, |c| c.as_dollars())
    }

    /// Tasks that no instance type can host.
    pub fn unschedulable(&self) -> &[TaskId] {
        &self.unschedulable
    }
}

/// The two scalars of a task's TNRP term, resolved once so that a scan
/// over candidate tasks touches no map.
#[derive(Debug, Clone, Copy)]
pub struct Priced {
    rp: f64,
    gang: f64,
}

impl Priced {
    /// `TNRP(τ, T)` in dollars at `tput(τ, T)`; may be negative (§4.4).
    pub fn tnrp(self, tput: f64) -> f64 {
        self.rp * (1.0 - self.gang * (1.0 - tput))
    }

    /// The scalars' bit patterns: equal bits give bit-equal [`Self::tnrp`].
    pub(crate) fn bits(self) -> [u64; 2] {
        [self.rp.to_bits(), self.gang.to_bits()]
    }
}

/// Evaluates throughput-normalized reservation prices for task sets.
///
/// For a single-task job: `TNRP(τ, T) = tput(τ, T) × RP(τ)` (§4.3).
///
/// For a task of a gang-coupled job `j` (when `multi_task_aware`):
/// `TNRP(τ, T) = RP(τ) − Σ_{τ'∈j} (1 − tput(τ, T)) × RP(τ')` (§4.4) — the
/// whole job's degradation is charged at the instance causing it. With the
/// paper's identical-sibling jobs this is
/// `RP(τ) × (1 − gang_size × (1 − tput))`, which can go negative and
/// thereby veto the assignment in Algorithm 1's line 9 check.
pub struct TnrpEvaluator<'a> {
    tput: &'a dyn TputEstimator,
    prices: &'a ReservationPrices,
    multi_task_aware: bool,
    /// Scratch for a task's co-located others.
    others: RefCell<Vec<WorkloadKind>>,
}

impl<'a> TnrpEvaluator<'a> {
    /// Builds an evaluator.
    pub fn new(
        tput: &'a dyn TputEstimator,
        prices: &'a ReservationPrices,
        multi_task_aware: bool,
    ) -> Self {
        TnrpEvaluator {
            tput,
            prices,
            multi_task_aware,
            others: RefCell::default(),
        }
    }

    /// `RP(τ)` and the number of tasks its slowdown is charged for.
    pub fn priced(&self, task: &TaskSnapshot) -> Priced {
        let coupled = self.multi_task_aware && task.gang_coupled;
        let gang = f64::from(if coupled { task.gang_size } else { 1 });
        let rp = self.prices.rp_dollars(task.id);
        Priced { rp, gang }
    }

    /// `TNRP(τ, T)` in dollars (negative values allowed, §4.4): the task's
    /// co-located others are every *other* member of `set`.
    pub fn tnrp_task(&self, task: &TaskSnapshot, set: &[&TaskSnapshot]) -> f64 {
        let mut others = self.others.borrow_mut();
        others.clear();
        others.extend(set.iter().filter(|t| t.id != task.id).map(|t| t.workload));
        let tput = self.tput.estimate(task.workload, &others);
        self.priced(task).tnrp(tput)
    }

    /// `TNRP(T) = Σ_{τ∈T} TNRP(τ, T)` in dollars.
    pub fn tnrp_set(&self, set: &[&TaskSnapshot]) -> f64 {
        set.iter().map(|t| self.tnrp_task(t, set)).sum()
    }

    /// A set under construction that holds `tasks`, pushed in order.
    pub fn set<'t>(&self, tasks: &[&'t TaskSnapshot]) -> TnrpSet<'_, 't> {
        let mut set = TnrpSet {
            eval: self,
            members: Vec::new(),
            others: Vec::new(),
        };
        tasks.iter().for_each(|t| set.push(t));
        set
    }

    /// Whether assigning `set` to an instance of hourly cost `cost` is
    /// cost-efficient: `TNRP(T) ≥ C` (with a small epsilon so exact-cover
    /// assignments like the paper's `it3` example pass).
    pub fn is_cost_efficient(&self, set: &[&TaskSnapshot], cost: Cost) -> bool {
        self.tnrp_set(set) + 1e-9 >= cost.as_dollars()
    }
}

/// A task set under construction (§4.3). It carries each member's pairwise
/// product from one growth step to the next, so that scoring a joiner costs
/// one lookup per member, not one per pair of members.
pub struct TnrpSet<'e, 't> {
    eval: &'e TnrpEvaluator<'e>,
    /// Each task, its [`Priced`], and the product from 1.0 of its pairwise
    /// throughputs beside every other member in set order.
    members: Vec<(&'t TaskSnapshot, Priced, f64)>,
    /// Scratch for the co-located others of one member during a join.
    others: Vec<WorkloadKind>,
}

impl<'t> TnrpSet<'_, 't> {
    /// The members, in the order they were pushed.
    pub fn tasks(&self) -> impl ExactSizeIterator<Item = &'t TaskSnapshot> + '_ {
        self.members.iter().map(|m| m.0)
    }

    /// Appends `task`, which must not be a member already.
    pub fn push(&mut self, task: &'t TaskSnapshot) {
        let (tput, kind) = (self.eval.tput, task.workload);
        let mut product = 1.0;
        for (m, _, beside) in &mut self.members {
            product *= tput.pairwise(kind, m.workload);
            *beside *= tput.pairwise(m.workload, kind);
        }
        self.members.push((task, self.eval.priced(task), product));
    }

    /// `TNRP(T ∪ {τ})` in dollars as a function of the [`Priced`] scalars of
    /// a joiner `τ` of workload `w` outside the set — all else it depends
    /// on. Bit-equal to [`TnrpEvaluator::tnrp_set`] over the members then
    /// `τ`: their terms are added in set order, the joiner's last, and the
    /// product [`TputEstimator::estimate`] folds is the carried one times
    /// the pairwise throughput beside `w`.
    pub fn join(&mut self, w: WorkloadKind) -> impl Fn(Priced) -> f64 + Copy {
        let (tput, members) = (self.eval.tput, &self.members);
        // Member `i`'s others: the members but `i` in set order, then `w`.
        let others = &mut self.others;
        others.clear();
        others.extend(members.iter().skip(1).map(|m| m.0.workload));
        others.push(w);
        let term = |(i, &(m, priced, product)): (usize, &(&TaskSnapshot, Priced, f64))| {
            let kind = m.workload;
            let folded = || (product * tput.pairwise(kind, w)).clamp(0.0, 1.0);
            let retained = match members.len() {
                1 => tput.pairwise(kind, w),
                _ => tput.recorded(kind, others).unwrap_or_else(folded),
            };
            others[i] = kind;
            priced.tnrp(retained)
        };
        let sum: f64 = members.iter().enumerate().map(term).sum();
        // Every member is back in its place: the joiner's others.
        others.truncate(members.len());
        let tput = tput.estimate(w, others);
        move |joiner| sum + joiner.tnrp(tput)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::test_task as task;
    use eva_types::ResourceVector;

    fn task_gang(
        job: u64,
        demand: ResourceVector,
        workload: u32,
        gang_size: u32,
        gang_coupled: bool,
    ) -> TaskSnapshot {
        TaskSnapshot {
            gang_size,
            gang_coupled,
            ..task(job, demand, workload)
        }
    }

    fn table3_tasks() -> Vec<TaskSnapshot> {
        vec![
            task(1, ResourceVector::with_ram_gb(2, 8, 24), 0),
            task(2, ResourceVector::with_ram_gb(1, 4, 10), 1),
            task(3, ResourceVector::with_ram_gb(0, 6, 20), 2),
            task(4, ResourceVector::with_ram_gb(0, 4, 12), 3),
        ]
    }

    #[test]
    fn table3_reservation_prices() {
        let catalog = Catalog::table3_example();
        let tasks = table3_tasks();
        let prices = ReservationPrices::compute(&catalog, tasks.iter());
        let expect = [12.0, 3.0, 0.8, 0.4];
        for (t, rp) in tasks.iter().zip(expect) {
            assert_eq!(prices.rp_dollars(t.id), rp);
        }
        assert!(prices.unschedulable().is_empty());
    }

    #[test]
    fn unschedulable_tasks_are_reported() {
        let catalog = Catalog::table3_example();
        let huge = task(9, ResourceVector::with_ram_gb(8, 64, 999), 0);
        let prices = ReservationPrices::compute(&catalog, std::iter::once(&huge));
        assert_eq!(prices.unschedulable(), &[huge.id]);
        assert_eq!(prices.rp_dollars(huge.id), 0.0);
    }

    #[test]
    fn paper_tnrp_example_cost_efficient_case() {
        // §4.3: co-locating τ1 (tput 0.8) and τ2 (tput 0.9) on it1:
        // 12×0.8 + 3×0.9 = 12.3 > 12 → cost-efficient.
        let catalog = Catalog::table3_example();
        let tasks = table3_tasks();
        let prices = ReservationPrices::compute(&catalog, tasks.iter());
        let mut table = ThroughputTable::new(0.95);
        table.record(WorkloadKind(0), &[WorkloadKind(1)], 0.8);
        table.record(WorkloadKind(1), &[WorkloadKind(0)], 0.9);
        let eval = TnrpEvaluator::new(&table, &prices, true);
        let set = [&tasks[0], &tasks[1]];
        assert!((eval.tnrp_set(&set) - 12.3).abs() < 1e-9);
        assert!(eval.is_cost_efficient(&set, Cost::from_dollars(12.0)));
    }

    #[test]
    fn paper_tnrp_example_inefficient_case() {
        // §4.3: tputs 0.7/0.8 give 12×0.7 + 3×0.8 = 10.8 < 12.
        let catalog = Catalog::table3_example();
        let tasks = table3_tasks();
        let prices = ReservationPrices::compute(&catalog, tasks.iter());
        let mut table = ThroughputTable::new(0.95);
        table.record(WorkloadKind(0), &[WorkloadKind(1)], 0.7);
        table.record(WorkloadKind(1), &[WorkloadKind(0)], 0.8);
        let eval = TnrpEvaluator::new(&table, &prices, true);
        let set = [&tasks[0], &tasks[1]];
        assert!((eval.tnrp_set(&set) - 10.8).abs() < 1e-9);
        assert!(!eval.is_cost_efficient(&set, Cost::from_dollars(12.0)));
    }

    #[test]
    fn exact_cover_passes_cost_efficiency() {
        // The paper's it3 walkthrough: RP equals the instance cost exactly.
        let catalog = Catalog::table3_example();
        let tasks = table3_tasks();
        let prices = ReservationPrices::compute(&catalog, tasks.iter());
        let table = ThroughputTable::new(0.95);
        let eval = TnrpEvaluator::new(&table, &prices, true);
        let set = [&tasks[2]];
        assert!(eval.is_cost_efficient(&set, Cost::from_dollars(0.8)));
    }

    #[test]
    fn gang_coupling_multiplies_penalty() {
        let catalog = Catalog::table3_example();
        let solo = task_gang(1, ResourceVector::with_ram_gb(1, 4, 10), 0, 1, false);
        let gang = task_gang(2, ResourceVector::with_ram_gb(1, 4, 10), 0, 4, true);
        let other = task(3, ResourceVector::with_ram_gb(1, 4, 10), 1);
        let all = [solo.clone(), gang.clone(), other.clone()];
        let prices = ReservationPrices::compute(&catalog, all.iter());
        let mut table = ThroughputTable::new(0.95);
        table.record(WorkloadKind(0), &[WorkloadKind(1)], 0.9);
        let eval = TnrpEvaluator::new(&table, &prices, true);
        // Independent task: 3 × 0.9 = 2.7.
        assert!((eval.tnrp_task(&solo, &[&solo, &other]) - 2.7).abs() < 1e-9);
        // Gang of 4: 3 × (1 − 4×0.1) = 1.8 — whole-job damage charged here.
        assert!((eval.tnrp_task(&gang, &[&gang, &other]) - 1.8).abs() < 1e-9);
    }

    #[test]
    fn gang_penalty_can_go_negative() {
        let catalog = Catalog::table3_example();
        let gang = task_gang(1, ResourceVector::with_ram_gb(1, 4, 10), 0, 4, true);
        let other = task(2, ResourceVector::with_ram_gb(1, 4, 10), 1);
        let all = [gang.clone(), other.clone()];
        let prices = ReservationPrices::compute(&catalog, all.iter());
        let mut table = ThroughputTable::new(0.95);
        table.record(WorkloadKind(0), &[WorkloadKind(1)], 0.6);
        let eval = TnrpEvaluator::new(&table, &prices, true);
        // 3 × (1 − 4×0.4) = −1.8.
        assert!(eval.tnrp_task(&gang, &[&gang, &other]) < 0.0);
    }

    #[test]
    fn eva_single_mode_ignores_gang_size() {
        let catalog = Catalog::table3_example();
        let gang = task_gang(1, ResourceVector::with_ram_gb(1, 4, 10), 0, 4, true);
        let other = task(2, ResourceVector::with_ram_gb(1, 4, 10), 1);
        let all = [gang.clone(), other.clone()];
        let prices = ReservationPrices::compute(&catalog, all.iter());
        let mut table = ThroughputTable::new(0.95);
        table.record(WorkloadKind(0), &[WorkloadKind(1)], 0.9);
        let eval = TnrpEvaluator::new(&table, &prices, false);
        assert!((eval.tnrp_task(&gang, &[&gang, &other]) - 2.7).abs() < 1e-9);
    }

    #[test]
    fn unit_tput_reduces_tnrp_to_rp() {
        let catalog = Catalog::table3_example();
        let tasks = table3_tasks();
        let prices = ReservationPrices::compute(&catalog, tasks.iter());
        let eval = TnrpEvaluator::new(&UnitTput, &prices, true);
        let set: Vec<&TaskSnapshot> = tasks.iter().collect();
        assert!((eval.tnrp_set(&set) - 16.2).abs() < 1e-9);
    }

    use proptest::prelude::*;

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

    /// Up to `max` tasks of five workloads and five reservation prices,
    /// gang-coupled or not; ids are distinct.
    fn arb_tasks(max: usize) -> impl Strategy<Value = Vec<TaskSnapshot>> {
        let spec = (0u32..5, 0usize..5, 1u32..5, 0u32..2);
        collection::vec(spec, 1..=max).prop_map(|specs| {
            let demands = [(2, 8, 24), (1, 4, 10), (0, 6, 20), (0, 4, 12), (0, 1, 1)];
            let task = |(job, (workload, demand, gang_size, coupled))| {
                let (gpu, cpu, ram_gb) = demands[demand];
                let demand = ResourceVector::with_ram_gb(gpu, cpu, ram_gb);
                task_gang(job as u64, demand, workload, gang_size, coupled == 1)
            };
            specs.into_iter().enumerate().map(task).collect()
        })
    }

    /// Answers for every group, whatever the pairs would multiply to.
    struct Recorded;

    impl TputEstimator for Recorded {
        fn recorded(&self, task: WorkloadKind, others: &[WorkloadKind]) -> Option<f64> {
            Some(0.9 - f64::from(task.0 + others[0].0) / 50.0)
        }
        fn pairwise(&self, task: WorkloadKind, other: WorkloadKind) -> f64 {
            1.1 - f64::from(task.0 * 5 + other.0) / 20.0
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The join is the definition, to the bit, at every growth step:
        /// `tnrp_set` over the tasks pushed so far with the joiner appended,
        /// whether the set carried its products there or was built there.
        #[test]
        fn join_is_bit_equal_to_tnrp_of_the_joined_set(
            table in arb_table(),
            tasks in arb_tasks(9),
            multi_task_aware in 0u32..2,
        ) {
            let catalog = Catalog::table3_example();
            let prices = ReservationPrices::compute(&catalog, tasks.iter());
            let all: Vec<&TaskSnapshot> = tasks.iter().collect();
            for tput in [&table as &dyn TputEstimator, &UnitTput, &Recorded] {
                let eval = TnrpEvaluator::new(tput, &prices, multi_task_aware == 1);
                let mut grown = eval.set(&[]);
                for (n, joiner) in tasks.iter().enumerate() {
                    let defined = eval.tnrp_set(&all[..=n]).to_bits();
                    for set in [&mut grown, &mut eval.set(&all[..n])] {
                        let join = set.join(joiner.workload)(eval.priced(joiner));
                        prop_assert_eq!(join.to_bits(), defined);
                    }
                    grown.push(joiner);
                }
            }
        }
    }
}
