//! Algorithm 1's kernel (`eva_core::packing`) held to the kernel it
//! replaced, plan for plan and bit for bit, and its work counted.
//!
//! Everything here goes through public API, so the oracle lives outside
//! the product. The debug build checks every head the kernel scores
//! against `tnrp_set` as well; CI also runs these on the release build,
//! which has no such `debug_assert!`.

use std::cell::Cell;

use eva_cloud::Catalog;
use eva_core::{
    full_reconfiguration, PackedConfig, ReservationPrices, TaskSnapshot, TnrpEvaluator,
    TputEstimator, UnitTput,
};
use eva_interference::ThroughputTable;
use eva_types::{DemandSpec, JobId, ResourceVector, SimDuration, TaskId, WorkloadKind};
use eva_workloads::SyntheticTraceConfig;
use proptest::prelude::*;

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

/// Algorithm 1 as it was before the join decomposition: every
/// candidate evaluated by pushing it onto the set and recomputing
/// `tnrp_set` from scratch. Kept verbatim as the differential
/// reference (test code only).
mod reference {
    use super::*;
    use eva_cloud::InstanceType;
    use eva_core::PackedInstance;

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

/// The jobs of the `i`-th packed instance, in assignment order.
fn jobs_of(config: &PackedConfig, i: usize) -> Vec<u64> {
    let tasks = &config.instances[i].tasks;
    tasks.iter().map(|id| id.job.0).collect()
}

/// Same instances, same task order, same TNRP to the bit.
fn assert_same(kernel: &PackedConfig, reference: &PackedConfig) {
    assert_eq!(kernel, reference);
    for (k, r) in kernel.instances.iter().zip(&reference.instances) {
        assert_eq!(k.tnrp_dollars.to_bits(), r.tnrp_dollars.to_bits());
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

/// GPUs no catalog type has.
const UNHOSTABLE_GPUS: u32 = 64;

/// Up to `max` tasks in ascending id order, each of one of up to 40 kinds
/// (some cases are all classes of many members, some all classes of one):
/// eight workloads, gang-coupled or not; one kind in four demands fewer
/// CPUs on the CPU families, as Table 7's CPU workloads do; plus, in the
/// middle, one task no type can host.
fn arb_tasks(max: usize) -> impl Strategy<Value = Vec<TaskSnapshot>> {
    let kind = (0u32..=4, 1u32..=32, 1u64..=200, 0u32..8, 1u32..5, 0u32..4);
    let kinds = collection::vec(kind, 1..=40);
    (kinds, collection::vec(0usize..40, 1..=max)).prop_map(|(kinds, picks)| {
        let mut specs: Vec<_> = picks.iter().map(|p| kinds[p % kinds.len()]).collect();
        specs.insert(specs.len() / 2, (UNHOSTABLE_GPUS, 1, 1, 0, 1, 3));
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
        specs.into_iter().enumerate().map(task).collect()
    })
}

/// Kernel against reference on both catalogs, with and without a table.
fn assert_packs_what_the_reference_packs(
    tasks: &[TaskSnapshot],
    table: &ThroughputTable,
    multi_task_aware: bool,
) {
    let unhostable = |t: &&TaskSnapshot| t.demand.default.gpu == UNHOSTABLE_GPUS;
    let unhostable = tasks.iter().find(unhostable).unwrap().id;
    for catalog in [Catalog::aws_eval_2025(), Catalog::table3_example()] {
        let prices = ReservationPrices::compute(&catalog, tasks.iter());
        for tput in [table as &dyn TputEstimator, &UnitTput] {
            let eval = TnrpEvaluator::new(tput, &prices, multi_task_aware);
            let kernel = full_reconfiguration(tasks, &catalog, &eval);
            assert!(kernel.unassigned.contains(&unhostable));
            assert_same(
                &kernel,
                &reference::full_reconfiguration(tasks, &catalog, &eval),
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Ascending ids, as the world hands them over: the members of a
    /// class stand behind its head.
    #[test]
    fn kernel_packs_what_the_reference_packs(
        tasks in arb_tasks(120),
        table in arb_table(),
        multi_task_aware in 0u32..2,
    ) {
        prop_assert!(tasks.windows(2).all(|w| w[0].id < w[1].id));
        assert_packs_what_the_reference_packs(&tasks, &table, multi_task_aware == 1);
    }

    /// Any other order, as Partial Reconfiguration's subsets come: every
    /// task is its own class and the id tie-break decides among equals.
    #[test]
    fn kernel_packs_what_the_reference_packs_in_any_order(
        tasks in arb_tasks(120),
        table in arb_table(),
        multi_task_aware in 0u32..2,
        rot in 0usize..120,
        rev in 0u32..2,
    ) {
        let mut tasks = tasks;
        let mid = rot % tasks.len();
        tasks.rotate_left(mid);
        if rev == 1 {
            tasks.reverse();
        }
        assert_packs_what_the_reference_packs(&tasks, &table, multi_task_aware == 1);
    }
}

/// Workload `w` keeps `1 − w · 2e-12` of its throughput in company:
/// equally priced candidates score `0.8e-12` apart per workload.
struct Graded;

impl TputEstimator for Graded {
    fn recorded(&self, task: WorkloadKind, _others: &[WorkloadKind]) -> Option<f64> {
        Some(self.pairwise(task, task))
    }
    fn pairwise(&self, task: WorkloadKind, _other: WorkloadKind) -> f64 {
        1.0 - f64::from(task.0) * 2e-12
    }
}

/// Within the `1e-12` tolerance "no better than" is not transitive, so the
/// winner depends on the order of the comparisons: a class whose head has
/// moved on is compared where its new head stands in the input, not where
/// its first member stood.
#[test]
fn heads_are_compared_in_input_order() {
    let catalog = Catalog::table3_example();
    // Job 0 is taken first (all alone score the same). Then job 1 scores
    // 0.8 − 1.6e-12, job 2 0.8 − 0.8e-12 and job 3, of job 0's class, 0.8:
    // job 2 does not beat job 1, job 3 does. Compared first, job 3 would
    // lose to job 2 on the id tie-break.
    let workloads = [0, 2, 1, 0].into_iter().zip(0..);
    let tasks: Vec<TaskSnapshot> = workloads.map(|(w, job)| t(job, 0, 4, 12, w)).collect();
    let prices = ReservationPrices::compute(&catalog, tasks.iter());
    let eval = TnrpEvaluator::new(&Graded, &prices, true);
    let kernel = full_reconfiguration(&tasks, &catalog, &eval);
    let packed = (jobs_of(&kernel, 0), jobs_of(&kernel, 1));
    assert_eq!(packed, (vec![0, 3], vec![1, 2]), "{kernel:?}");
    assert_same(
        &kernel,
        &reference::full_reconfiguration(&tasks, &catalog, &eval),
    );
}

/// The case the ascending guard exists for: among bit-equal candidates
/// the smallest id wins, wherever it stands in the input.
#[test]
fn equal_candidates_in_descending_id_order_still_pick_the_smallest_id() {
    let catalog = Catalog::table3_example();
    let tasks: Vec<TaskSnapshot> = (1..=5).rev().map(|job| t(job, 0, 4, 12, 3)).collect();
    let prices = ReservationPrices::compute(&catalog, tasks.iter());
    let eval = TnrpEvaluator::new(&UnitTput, &prices, true);
    let kernel = full_reconfiguration(&tasks, &catalog, &eval);
    assert_eq!(jobs_of(&kernel, 0)[..2], [1, 2], "{kernel:?}");
    assert_same(
        &kernel,
        &reference::full_reconfiguration(&tasks, &catalog, &eval),
    );
}

/// Counts the pairwise throughputs Algorithm 1 reads off its estimator:
/// the unit of §4.3's product, which a recorded group costs none of.
struct CountingTput<'a> {
    table: &'a ThroughputTable,
    reads: Cell<u64>,
}

impl TputEstimator for CountingTput<'_> {
    fn recorded(&self, task: WorkloadKind, others: &[WorkloadKind]) -> Option<f64> {
        self.table.recorded(task, others)
    }
    fn pairwise(&self, task: WorkloadKind, other: WorkloadKind) -> f64 {
        self.reads.set(self.reads.get() + 1);
        self.table.pairwise_or_default(task, other)
    }
}

/// The first `n` tasks of a `huge_100k`-shaped trace: the standing load
/// of the `batch_eva` benchmark, whose plateau is 384 tasks.
fn huge_tasks(n: usize) -> Vec<TaskSnapshot> {
    let shape = SyntheticTraceConfig {
        num_jobs: n,
        ..SyntheticTraceConfig::huge_100k()
    };
    let trace = shape.generate(7);
    let specs = trace.jobs().iter().flat_map(|job| {
        let shape = (job.num_tasks() as u32, job.gang_coupled);
        job.tasks.iter().map(move |task| (task, shape))
    });
    specs
        .take(n)
        .map(|(spec, (gang_size, gang_coupled))| TaskSnapshot {
            id: spec.id,
            workload: spec.workload,
            demand: spec.demand,
            gang_size,
            gang_coupled,
            ..t(0, 0, 0, 0, 0)
        })
        .collect()
}

/// What `pack` returns and the pairwise reads it took.
fn count(
    table: &ThroughputTable,
    prices: &ReservationPrices,
    pack: &dyn Fn(&TnrpEvaluator<'_>) -> PackedConfig,
) -> (PackedConfig, u64) {
    let tput = CountingTput {
        table,
        reads: Cell::new(0),
    };
    let config = pack(&TnrpEvaluator::new(&tput, prices, true));
    (config, tput.reads.get())
}

/// The machine-independent form of the speed-up: work counted, not timed.
#[test]
fn kernel_reads_a_seventieth_of_the_reference_pairs() {
    let catalog = Catalog::aws_eval_2025();
    let tasks = huge_tasks(384);
    let prices = ReservationPrices::compute(&catalog, tasks.iter());
    let mut table = ThroughputTable::new(0.95);
    for (i, task) in tasks.iter().enumerate().take(60) {
        let others: Vec<WorkloadKind> = tasks[i + 1..i + 1 + i % 4]
            .iter()
            .map(|t| t.workload)
            .collect();
        table.record(task.workload, &others, 0.5 + (i % 10) as f64 / 20.0);
    }

    let (reference, reference_reads) = count(&table, &prices, &|eval| {
        reference::full_reconfiguration(&tasks, &catalog, eval)
    });
    let (kernel, kernel_reads) = count(&table, &prices, &|eval| {
        full_reconfiguration(&tasks, &catalog, eval)
    });
    assert_same(&kernel, &reference);
    assert_eq!(kernel.assigned_count(), 384);
    let read = format!("kernel read {kernel_reads} pairs, reference {reference_reads}");
    if cfg!(debug_assertions) {
        // The oracle's reads are in the count: one `tnrp_set` per head scored.
        assert!(kernel_reads * 10 <= reference_reads, "{read}");
    } else {
        // Per (growth step, workload) one read per member and the joiner's
        // own; per task taken, two per member. The join that folded every
        // member's product afresh read 26 410.
        assert_eq!((kernel_reads, reference_reads), (8_598, 635_502), "{read}");
        assert!(kernel_reads * 70 <= reference_reads, "{read}");
    }
}

/// The scan visits class heads, not tasks: twice the tasks of a standing
/// load are twice the instances to fill, not twice the candidates to
/// score for each. Every head scored costs one oracle evaluation, whose
/// pairwise reads follow the candidates visited (when the scan visited
/// tasks, 3.3x in `estimate` calls: 130 317 and 431 228).
#[cfg(debug_assertions)]
#[test]
fn twice_the_tasks_are_not_twice_the_candidates_per_instance() {
    let catalog = Catalog::aws_eval_2025();
    let table = ThroughputTable::new(0.95);
    let reads = |n: usize| {
        let tasks = huge_tasks(n);
        let prices = ReservationPrices::compute(&catalog, tasks.iter());
        let (config, reads) = count(&table, &prices, &|eval| {
            full_reconfiguration(&tasks, &catalog, eval)
        });
        assert_eq!(config.assigned_count(), n);
        reads
    };
    let (small, large) = (reads(384), reads(768));
    assert!(
        (large as f64) < 2.5 * small as f64,
        "{small} pairs read at 384 tasks, {large} at 768"
    );
}
