//! Criterion benchmarks for the algorithm runtimes the paper reports.
//!
//! * `full_reconfiguration/200` reproduces the Table 4 runtime column
//!   (378 ms in the paper's Python; the Rust port is much faster).
//! * `full_reconfiguration/{1000,2000}` reproduces the Table 5 scaling
//!   column (quadratic in the paper; tasks × classes here, since
//!   Algorithm 1 scans class heads, not tasks).
//! * `solvers/*` compare the exact branch-and-bound against FFD.
//! * `throughput_table/*` measure the co-location table's hot paths.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use eva_cloud::Catalog;
use eva_core::{full_reconfiguration, ReservationPrices, TaskSnapshot, TnrpEvaluator, UnitTput};
use eva_interference::ThroughputTable;
use eva_solver::{branch_and_bound, first_fit_decreasing, BnbConfig, Item, PackingProblem};
use eva_types::{JobId, SimDuration, TaskId, WorkloadKind};
use eva_workloads::WorkloadCatalog;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn sample_tasks(n: usize, seed: u64) -> Vec<TaskSnapshot> {
    let workloads = WorkloadCatalog::table7();
    let pool: Vec<_> = workloads.iter().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let w = pool[rng.gen_range(0..pool.len())];
            TaskSnapshot {
                id: TaskId::new(JobId(i as u64), 0),
                workload: w.kind,
                demand: w.demand,
                checkpoint_delay: SimDuration::ZERO,
                launch_delay: SimDuration::ZERO,
                gang_size: 1,
                gang_coupled: false,
                assigned_to: None,
                remaining_hint: None,
            }
        })
        .collect()
}

fn bench_full_reconfiguration(c: &mut Criterion) {
    let catalog = Catalog::aws_eval_2025();
    let mut group = c.benchmark_group("full_reconfiguration");
    group.sample_size(10);
    for n in [200usize, 1000, 2000] {
        let tasks = sample_tasks(n, n as u64);
        let prices = ReservationPrices::compute(&catalog, tasks.iter());
        group.bench_with_input(BenchmarkId::from_parameter(n), &tasks, |b, tasks| {
            b.iter(|| {
                let eval = TnrpEvaluator::new(&UnitTput, &prices, true);
                full_reconfiguration(tasks, &catalog, &eval)
            })
        });
    }
    group.finish();
}

fn bench_solvers(c: &mut Criterion) {
    let catalog = Catalog::aws_eval_2025();
    let tasks = sample_tasks(40, 77);
    let items: Vec<Item> = tasks
        .iter()
        .enumerate()
        .map(|(i, t)| Item {
            id: i,
            demand: t.demand,
        })
        .collect();
    let problem = PackingProblem::new(items, catalog);
    let mut group = c.benchmark_group("solvers");
    group.sample_size(10);
    group.bench_function("ffd_40_tasks", |b| {
        b.iter(|| first_fit_decreasing(&problem))
    });
    group.bench_function("bnb_40_tasks_100ms", |b| {
        b.iter(|| {
            branch_and_bound(
                &problem,
                BnbConfig {
                    time_limit: std::time::Duration::from_millis(100),
                    ..Default::default()
                },
            )
        })
    });
    group.finish();
}

fn bench_throughput_table(c: &mut Criterion) {
    let mut table = ThroughputTable::new(0.95);
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..500 {
        let a = WorkloadKind(rng.gen_range(0..10));
        let others: Vec<WorkloadKind> = (0..rng.gen_range(1..5))
            .map(|_| WorkloadKind(rng.gen_range(0..10)))
            .collect();
        table.record(a, &others, rng.gen_range(0.5..1.0));
    }
    let mut group = c.benchmark_group("throughput_table");
    group.bench_function("estimate_group_of_4", |b| {
        b.iter(|| {
            table.estimate(
                WorkloadKind(3),
                &[
                    WorkloadKind(1),
                    WorkloadKind(4),
                    WorkloadKind(7),
                    WorkloadKind(2),
                ],
            )
        })
    });
    group.bench_function("record_pair", |b| {
        b.iter(|| table.record(WorkloadKind(0), &[WorkloadKind(1)], 0.9))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_full_reconfiguration,
    bench_solvers,
    bench_throughput_table
);
criterion_main!(benches);
