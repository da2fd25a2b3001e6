//! Simulation-level invariants that must hold for any scheduler and trace:
//! accounting conservation, causality, and metric sanity.

use proptest::prelude::*;

use eva::prelude::*;

fn arb_trace() -> impl Strategy<Value = Trace> {
    (2usize..20, 1u64..500, 0u8..2).prop_map(|(jobs, seed, durations)| {
        let durations = if durations == 0 {
            DurationModelChoice::Alibaba
        } else {
            DurationModelChoice::Gavel
        };
        AlibabaTraceConfig {
            num_jobs: jobs,
            arrival_rate_per_hour: 6.0,
            durations,
        }
        .generate(seed)
    })
}

fn arb_scheduler() -> impl Strategy<Value = SchedulerKind> {
    prop_oneof![
        Just(SchedulerKind::NoPacking),
        Just(SchedulerKind::Stratus),
        Just(SchedulerKind::Synergy),
        Just(SchedulerKind::Owl),
        Just(SchedulerKind::Eva(EvaConfig::eva())),
        Just(SchedulerKind::Eva(EvaConfig::without_partial())),
        Just(SchedulerKind::Eva(EvaConfig::without_full())),
    ]
}

proptest! {
    // Full simulations are not cheap; a modest case count still explores
    // hundreds of scheduling rounds across schedulers and duration models.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn simulation_invariants((trace, kind) in (arb_trace(), arb_scheduler())) {
        let label = kind.label();
        let report = run_simulation(&SimConfig::new(trace.clone(), kind));

        // Everything completes — the simulator never strands a feasible job.
        prop_assert_eq!(report.jobs_completed, trace.len());

        // JCT can never undercut the trace's ideal duration.
        let mean_duration: f64 = trace
            .jobs()
            .iter()
            .map(|j| j.duration_at_full_tput.as_hours_f64())
            .sum::<f64>()
            / trace.len() as f64;
        prop_assert!(
            report.avg_jct_hours + 1e-6 >= mean_duration,
            "{label}: avg JCT {} < ideal mean duration {}",
            report.avg_jct_hours,
            mean_duration
        );

        // Cost is positive and at least the work actually executed on the
        // cheapest conceivable instance.
        prop_assert!(report.total_cost_dollars > 0.0, "{label}");

        // Allocation ratios and throughput are proper fractions.
        for (name, v) in [
            ("gpu", report.gpu_alloc),
            ("cpu", report.cpu_alloc),
            ("ram", report.ram_alloc),
            ("tput", report.avg_norm_tput),
        ] {
            prop_assert!((0.0..=1.0 + 1e-9).contains(&v), "{label}: {name} = {v}");
        }

        // The uptime CDF is monotone and normalized.
        for w in report.uptime_cdf.windows(2) {
            prop_assert!(w[1].value + 1e-12 >= w[0].value, "{label}");
            prop_assert!(w[1].density >= w[0].density, "{label}");
        }
        if let Some(last) = report.uptime_cdf.last() {
            prop_assert!((last.density - 1.0).abs() < 1e-9, "{label}");
        }

        // No-migration schedulers must report (almost) none.
        if label == "No-Packing" {
            prop_assert_eq!(report.migrations_per_task, 0.0);
        }
    }
}

/// `jobs` synthetic jobs arriving every `gap_mins` on average, under `kind`
/// and the fault regime `regime`.
fn faulted(jobs: usize, gap_mins: u64, kind: SchedulerKind, regime: &str, seed: u64) -> SimConfig {
    let trace = SyntheticTraceConfig {
        num_jobs: jobs,
        mean_interarrival: SimDuration::from_mins(gap_mins),
        duration: eva::workloads::UniformHours::new(0.4, 1.2),
        single_task_only: false,
    }
    .generate(seed);
    let mut cfg = SimConfig::new(trace, kind);
    cfg.faults = FaultSpec::parse(regime).unwrap();
    cfg
}

fn faulted_cfg(regime: &str, seed: u64) -> SimConfig {
    faulted(12, 8, SchedulerKind::Eva(EvaConfig::eva()), regime, seed)
}

#[test]
fn preempted_instances_do_no_work_after_their_preemption() {
    // Step the world model event by event under a storm: once an
    // instance is preempted it must hold zero tasks for the rest of the
    // run, and the provider must record its termination at exactly the
    // preemption timestamp — any later work would be phantom throughput
    // a real spot reclaim could never deliver.
    let mut sim = ClusterSim::new(&faulted_cfg("preempt-storm:3", 11));
    loop {
        for &(at, inst) in sim.preemption_log() {
            assert_eq!(
                sim.tasks_on(inst),
                0,
                "preempted {inst} still carries tasks at {:?}",
                sim.now()
            );
            let rec = sim
                .provider()
                .instance(inst)
                .expect("preempted instance must exist");
            assert_eq!(
                rec.terminated_at,
                Some(at),
                "{inst} outlived its preemption"
            );
        }
        if !sim.step() {
            break;
        }
    }
    assert!(
        !sim.preemption_log().is_empty(),
        "an intensity-3 storm must preempt at least one instance"
    );
}

#[test]
fn capacity_shocks_never_drive_free_capacity_negative() {
    // Under shocks the pool limit drops below the live count; free
    // capacity must saturate at zero (never wrap or go negative), and
    // clear back to unlimited when the shock window expires.
    let mut sim = ClusterSim::new(&faulted_cfg("capacity-shock:2", 13));
    let mut saw_limit = false;
    let mut saw_unlimited = false;
    loop {
        let now = sim.now();
        match sim.provider().pool_limit() {
            Some(limit) => {
                saw_limit = true;
                let free = sim.provider().free_capacity(now).unwrap();
                let live = sim.provider().live_count(now);
                assert_eq!(
                    free,
                    limit.saturating_sub(live),
                    "free capacity must saturate against the shock limit"
                );
            }
            None => {
                saw_unlimited = true;
                assert_eq!(sim.provider().free_capacity(now), None);
            }
        }
        if !sim.step() {
            break;
        }
    }
    assert!(saw_limit, "shocks must clamp the pool at least once");
    assert!(saw_unlimited, "shock windows must also expire");
}

#[test]
fn live_table_equals_the_provider_scan_through_churn() {
    // 400 Stratus jobs per world, batch and retiring, under a storm and
    // under capacity shocks: hundreds of provisions, future-dated
    // terminations, deadline pops and preemptions, with `audit_slots`
    // (live table == provider scan, rates == rescan) after every event.
    for regime in ["preempt-storm:3", "capacity-shock:2"] {
        for retire in [false, true] {
            let mut cfg = faulted(400, 2, SchedulerKind::Stratus, regime, 17);
            cfg.retire_completed = retire;
            let mut sim = ClusterSim::new(&cfg);
            let mut peak_live = 0;
            while sim.step() {
                if let Err(e) = sim.audit_slots() {
                    panic!("{regime}, retire={retire}, at {:?}: {e}", sim.now());
                }
                peak_live = peak_live.max(sim.provider().live_count(sim.now()));
            }
            // The table must have been a small part of what the provider
            // ever launched (and, in batch mode, still holds).
            let launched = sim.provider().launch_count();
            assert!(
                peak_live > 0 && launched >= 4 * peak_live,
                "{regime}, retire={retire}: {launched} launched, {peak_live} live at peak"
            );
            let held = sim.provider().instances().count() as u64;
            assert_eq!(held == launched, !retire, "{regime}: {held} records held");
            let stormy = regime.starts_with("preempt");
            assert_eq!(sim.preemption_log().is_empty(), !stormy, "{regime}");
        }
    }
}
