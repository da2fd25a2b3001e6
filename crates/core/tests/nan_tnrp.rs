//! A NaN TNRP loses both of Algorithm 1's comparisons: it neither grows a
//! set nor commits an instance. `f64::clamp` passes NaN through, so a
//! table built on a NaN default (or an `OracleProfile::set(_, _, NAN)`, or
//! any third-party estimator) scores every co-location NaN; written as
//! `tnrp < current` and `tnrp + 1e-9 < cost`, the two tests let it through
//! and six tasks worth $1.59/h standalone shared one $24.48/h `p3.16xlarge`.
//!
//! Growth is the test that decides: once it refuses a NaN, none reaches
//! the commit (a task alone scores its finite reservation price), whose
//! `>=` form is there for the day that stops being true. Letting NaN grow
//! and only refusing to commit it is not enough either — the 1-vCPU tasks
//! below fit twice into every type, so every trial would end NaN and all
//! six would go unassigned.

use eva_cloud::Catalog;
use eva_core::{full_reconfiguration, ReservationPrices, TaskSnapshot, TnrpEvaluator};
use eva_interference::ThroughputTable;
use eva_types::{DemandSpec, JobId, ResourceVector, SimDuration, TaskId, WorkloadKind};

#[test]
fn nan_throughputs_commit_no_instance_below_cost() {
    packs_standalone(ResourceVector::with_ram_gb(0, 4, 24));
    packs_standalone(ResourceVector::with_ram_gb(0, 1, 2));
}

/// Six tasks of distinct workloads and this demand, under a table whose
/// every co-location estimate is NaN, each get an instance of their own.
fn packs_standalone(demand: ResourceVector) {
    let catalog = Catalog::aws_eval_2025();
    let tasks: Vec<TaskSnapshot> = (0..6)
        .map(|i| TaskSnapshot {
            id: TaskId::new(JobId(i), 0),
            workload: WorkloadKind(i as u32),
            demand: DemandSpec::uniform(demand),
            checkpoint_delay: SimDuration::from_secs(2),
            launch_delay: SimDuration::from_secs(10),
            gang_size: 1,
            gang_coupled: false,
            assigned_to: None,
            remaining_hint: None,
        })
        .collect();
    let prices = ReservationPrices::compute(&catalog, tasks.iter());
    let standalone: f64 = tasks.iter().map(|t| prices.rp_dollars(t.id)).sum();
    let table = ThroughputTable::new(f64::NAN);
    assert!(table.estimate(WorkloadKind(0), &[WorkloadKind(1)]).is_nan());

    let eval = TnrpEvaluator::new(&table, &prices, true);
    let config = full_reconfiguration(&tasks, &catalog, &eval);
    assert_eq!(config.assigned_count(), 6, "{config:?}");
    for inst in &config.instances {
        assert!(
            inst.tnrp_dollars.is_finite() && inst.tnrp_dollars + 1e-9 >= inst.cost_dollars,
            "{inst:?}"
        );
    }
    assert!(
        config.total_cost_dollars() <= standalone + 1e-9,
        "${}/h packed, ${standalone}/h standalone: {config:?}",
        config.total_cost_dollars()
    );
}
