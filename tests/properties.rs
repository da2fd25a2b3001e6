//! Property-based tests over the core data structures and algorithms.

use proptest::prelude::*;

use eva::core::{full_reconfiguration, ReservationPrices, TaskSnapshot, TnrpEvaluator, UnitTput};
use eva::interference::{TaskContext, ThroughputMonitor, ThroughputTable};
use eva::prelude::*;
use eva::solver::{branch_and_bound, first_fit_decreasing, BnbConfig, Item, PackingProblem};

fn arb_demand() -> impl Strategy<Value = ResourceVector> {
    (0u32..=4, 1u32..=32, 1u64..=256)
        .prop_map(|(gpu, cpu, ram_gb)| ResourceVector::with_ram_gb(gpu, cpu, ram_gb))
}

fn arb_tasks(max: usize) -> impl Strategy<Value = Vec<TaskSnapshot>> {
    proptest::collection::vec((arb_demand(), 0u32..8), 1..max).prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (demand, workload))| TaskSnapshot {
                id: TaskId::new(JobId(i as u64), 0),
                workload: WorkloadKind(workload),
                demand: DemandSpec::uniform(demand),
                checkpoint_delay: SimDuration::from_secs(2),
                launch_delay: SimDuration::from_secs(10),
                gang_size: 1,
                gang_coupled: false,
                assigned_to: None,
                remaining_hint: None,
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn resource_vector_partial_order_is_consistent(
        a in arb_demand(),
        b in arb_demand(),
    ) {
        let sum = a + b;
        prop_assert!(a.fits_within(&sum));
        prop_assert!(b.fits_within(&sum));
        prop_assert_eq!(sum.saturating_sub(&a), b);
    }

    #[test]
    fn cost_arithmetic_is_exact(a in 0.0f64..1000.0, b in 0.0f64..1000.0) {
        let ca = Cost::from_dollars(a);
        let cb = Cost::from_dollars(b);
        prop_assert_eq!(ca + cb, Cost::from_micros(ca.as_micros() + cb.as_micros()));
        prop_assert!(ca.saturating_sub(cb).as_micros() <= ca.as_micros());
    }

    #[test]
    fn throughput_table_estimates_stay_in_unit_interval(
        entries in proptest::collection::vec(
            ((0u32..6, proptest::collection::vec(0u32..6, 1..4)), -0.5f64..1.5),
            0..30,
        ),
        query_task in 0u32..6,
        query_others in proptest::collection::vec(0u32..6, 0..4),
    ) {
        let mut table = ThroughputTable::new(0.95);
        for ((task, others), tput) in entries {
            let others: Vec<WorkloadKind> = others.into_iter().map(WorkloadKind).collect();
            table.record(WorkloadKind(task), &others, tput);
        }
        let others: Vec<WorkloadKind> = query_others.into_iter().map(WorkloadKind).collect();
        let est = table.estimate(WorkloadKind(query_task), &others);
        prop_assert!((0.0..=1.0).contains(&est), "estimate {est}");
        // The recorded group if there is one (for a pair, whichever map
        // answers), else the pairwise product in the order given.
        let task = WorkloadKind(query_task);
        let expect = table.recorded(task, &others).unwrap_or_else(|| {
            let pairs = others.iter().map(|o| table.pairwise_or_default(task, *o));
            pairs.product::<f64>().clamp(0.0, 1.0)
        });
        prop_assert_eq!(est.to_bits(), expect.to_bits());
        // Solo is always 1.0.
        prop_assert_eq!(table.estimate(WorkloadKind(query_task), &[]), 1.0);
    }

    #[test]
    fn full_reconfiguration_invariants(tasks in arb_tasks(24)) {
        let catalog = Catalog::aws_eval_2025();
        let prices = ReservationPrices::compute(&catalog, tasks.iter());
        let eval = TnrpEvaluator::new(&UnitTput, &prices, true);
        let config = full_reconfiguration(&tasks, &catalog, &eval);

        // 1. Every feasible task assigned exactly once.
        let mut seen = std::collections::BTreeSet::new();
        for inst in &config.instances {
            for t in &inst.tasks {
                prop_assert!(seen.insert(*t), "task {t} assigned twice");
            }
        }
        for t in &tasks {
            let feasible = catalog.cheapest_fit(&t.demand).is_some();
            prop_assert_eq!(
                seen.contains(&t.id),
                feasible,
                "task {} feasible={} assigned={}",
                t.id, feasible, seen.contains(&t.id)
            );
        }
        // 2. Capacity respected on every instance.
        for inst in &config.instances {
            let ty = catalog.get(inst.type_id).unwrap();
            let mut used = ResourceVector::ZERO;
            for tid in &inst.tasks {
                let task = tasks.iter().find(|t| t.id == *tid).unwrap();
                used += ty.demand_of(&task.demand);
            }
            prop_assert!(used.fits_within(&ty.capacity));
        }
        // 3. Every instance cost-efficient (RP(T) ≥ C with unit tput).
        for inst in &config.instances {
            prop_assert!(inst.tnrp_dollars + 1e-6 >= inst.cost_dollars);
        }
        // 4. Never worse than no-packing.
        let no_packing: f64 = tasks.iter().map(|t| prices.rp_dollars(t.id)).sum();
        prop_assert!(config.total_cost_dollars() <= no_packing + 1e-6);
    }

    #[test]
    fn solver_solutions_are_valid_and_ordered(tasks in arb_tasks(10)) {
        let catalog = Catalog::aws_eval_2025();
        let items: Vec<Item> = tasks
            .iter()
            .enumerate()
            .map(|(i, t)| Item { id: i, demand: t.demand })
            .collect();
        let problem = PackingProblem::new(items, catalog);
        let ffd = first_fit_decreasing(&problem);
        prop_assert!(ffd.validate(&problem).is_ok(), "{:?}", ffd.validate(&problem));
        let bnb = branch_and_bound(
            &problem,
            BnbConfig { time_limit: std::time::Duration::from_millis(500), ..Default::default() },
        );
        prop_assert!(bnb.validate(&problem).is_ok(), "{:?}", bnb.validate(&problem));
        // The exact solver never loses to the heuristic warm start.
        prop_assert!(bnb.cost_dollars <= ffd.cost_dollars + 1e-9);
        // And never beats the relaxation bound.
        prop_assert!(bnb.cost_dollars + 1e-6 >= problem.lower_bound());
    }

    #[test]
    fn duration_samplers_are_positive_and_finite(seed in 0u64..1000) {
        use eva::workloads::{AlibabaDurations, DurationSampler, GavelDurations};
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let a = AlibabaDurations::default().sample(&mut rng);
        let g = GavelDurations.sample(&mut rng);
        prop_assert!(a.as_hours_f64() > 0.0 && a.as_hours_f64() < 2000.0);
        prop_assert!(g.as_hours_f64() > 0.0 && g.as_hours_f64() < 200.0);
    }

    #[test]
    fn fault_plans_are_pure_functions_of_seed_regime_intensity(
        master_seed in 0u64..500,
        regime in prop_oneof![
            Just("preempt-storm"), Just("capacity-shock"), Just("price-step"),
            Just("ckpt-drop"), Just("straggler"), Just("worker-crash"),
        ],
        intensity in 0.25f64..4.0,
        horizon_hours in 1.0f64..200.0,
    ) {
        let spec = FaultSpec::parse(&format!("{regime}:{intensity}")).unwrap();
        let horizon = SimDuration::from_hours_f64(horizon_hours);
        let a = FaultPlan::compile(spec, master_seed, horizon);
        let b = FaultPlan::compile(spec, master_seed, horizon);
        prop_assert_eq!(&a.events, &b.events, "same inputs, same schedule");
        prop_assert!(!a.is_empty(), "a non-none regime always strikes");
        // Timestamped before the run, strictly inside the horizon.
        for w in a.events.windows(2) {
            prop_assert!(w[0].at < w[1].at, "event times must be strictly monotone");
        }
    }

    #[test]
    fn trace_modifiers_preserve_job_count_and_feasibility(
        seed in 0u64..50,
        gpu_prop in 0.0f64..1.0,
        task_prop in 0.0f64..1.0,
    ) {
        use eva::workloads::{MultiGpuMix, MultiTaskMix};
        let mut cfg = AlibabaTraceConfig::small(DurationModelChoice::Alibaba);
        cfg.num_jobs = 50;
        let base = cfg.generate(seed);
        let catalog = Catalog::aws_eval_2025();
        let modified = MultiTaskMix::new(task_prop)
            .apply(&MultiGpuMix::new(gpu_prop).apply(&base, seed), seed);
        prop_assert_eq!(modified.len(), base.len());
        for job in modified.jobs() {
            for task in &job.tasks {
                prop_assert!(catalog.cheapest_fit(&task.demand).is_some());
            }
        }
    }
}

proptest! {
    // Full faulted simulations across the whole paper set are costly; a
    // handful of cases still covers every regime over many seeds.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn faulted_simulation_reports_are_byte_identical(
        seed in 0u64..100,
        regime in prop_oneof![
            Just("preempt-storm"), Just("capacity-shock"), Just("price-step"),
            Just("ckpt-drop"), Just("straggler"), Just("worker-crash"),
        ],
        intensity in 0.5f64..3.0,
    ) {
        // The fault axis must not cost the simulator its determinism:
        // the same (seed, regime, intensity) yields byte-identical
        // reports for every scheduler in the paper set.
        let trace = AlibabaTraceConfig {
            num_jobs: 8,
            arrival_rate_per_hour: 6.0,
            durations: DurationModelChoice::Alibaba,
        }
        .generate(seed);
        let spec = FaultSpec::parse(&format!("{regime}:{intensity}")).unwrap();
        for kind in SchedulerKind::paper_set() {
            let label = kind.label();
            let mut cfg = SimConfig::new(trace.clone(), kind);
            cfg.seed = seed;
            cfg.faults = spec;
            let a = serde_json::to_string(&run_simulation(&cfg)).unwrap();
            let b = serde_json::to_string(&run_simulation(&cfg)).unwrap();
            prop_assert_eq!(a, b, "{} diverged under {}", label, spec.label());
        }
    }
}

#[test]
fn nan_observations_do_not_panic_gang_attribution() {
    // `record` stores a NaN unchanged (`clamp` passes it through). With
    // every context recorded and none below the observation, attribution
    // takes the minimum of the recorded values: it must order NaNs, not
    // unwrap a failed comparison.
    let (w0, w1, w2) = (WorkloadKind(0), WorkloadKind(1), WorkloadKind(2));
    let contexts = [
        TaskContext::new(TaskId::new(JobId(1), 0), w0, vec![w1]),
        TaskContext::new(TaskId::new(JobId(1), 1), w0, vec![w2]),
    ];
    let mut monitor = ThroughputMonitor::with_default_tput(0.95);
    for ctx in &contexts {
        monitor.observe_single_task(ctx.clone(), f64::NAN);
    }
    let updated = monitor.observe_multi_task(JobId(1), &contexts, 0.7);
    assert!(updated.is_some());
    assert_eq!(monitor.observation_count(), 3);
}
