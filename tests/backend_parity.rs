//! Sim-vs-live backend parity: the live backend must execute exactly the
//! work the world model scheduled, and do so reproducibly.
//!
//! (a) Running one config through both backends yields matching job
//!     completion sets and makespans within tolerance.
//! (b) The live backend is deterministic: repeated runs with the same
//!     seed produce identical reports (and identical JSON), because every
//!     checkpoint lands on a planned iteration boundary rather than an
//!     arbitrary real-time instant.
//! (c) A backend-axis sweep carries both variants in one grid, with the
//!     sim cells unchanged by the live cells' presence.
//! (d) Under injected fault regimes the delta report keeps its shape —
//!     deltas are internally consistent, makespan drift equals the
//!     re-executed work — and the fault-free cells of a faulted grid
//!     stay exactly zero-delta.

use std::collections::BTreeSet;

use eva::prelude::*;
use eva_cloud::FidelityMode;

fn trace(jobs: usize, seed: u64) -> Trace {
    SyntheticTraceConfig {
        num_jobs: jobs,
        mean_interarrival: SimDuration::from_mins(10),
        duration: eva::workloads::UniformHours::new(0.3, 1.0),
        single_task_only: false,
    }
    .generate(seed)
}

fn cfg(scheduler: SchedulerKind) -> SimConfig {
    let mut cfg = SimConfig::new(trace(8, 5), scheduler);
    cfg.fidelity = FidelityMode::Nominal;
    cfg
}

#[test]
fn live_and_sim_agree_on_completions_and_makespan() {
    for scheduler in [
        SchedulerKind::NoPacking,
        SchedulerKind::Eva(EvaConfig::eva()),
    ] {
        let cfg = cfg(scheduler);
        let sim = run_simulation(&cfg);
        let outcome = LiveBackend.run_detailed(&cfg).unwrap();
        let label = &sim.scheduler;

        // Completion sets: every job the sim completed was confirmed
        // finished on the real runtime, and nothing extra.
        assert_eq!(
            outcome.completed_jobs, outcome.expected_jobs,
            "{label}: live completions diverge from the schedule"
        );
        let sim_script_jobs: BTreeSet<_> = run_recorded(&cfg).1.completed_jobs().collect();
        assert_eq!(outcome.expected_jobs, sim_script_jobs, "{label}");
        assert_eq!(outcome.report.jobs_completed, sim.jobs_completed, "{label}");

        // Makespan within tolerance (identical here: the live run
        // executes the very schedule the sim produced).
        let delta = (outcome.report.makespan_hours - sim.makespan_hours).abs();
        assert!(
            delta <= 1e-9 + 0.01 * sim.makespan_hours,
            "{label}: makespan drift {delta}h"
        );

        // Execution-level audit: no lost iterations, no corrupted state.
        assert_eq!(
            outcome.live_iterations, outcome.expected_iterations,
            "{label}"
        );
        assert_eq!(outcome.digest_mismatches, 0, "{label}");
    }
}

#[test]
fn live_backend_is_deterministic_across_runs() {
    let cfg = cfg(SchedulerKind::Eva(EvaConfig::eva()));
    let a = LiveBackend.run(&cfg);
    let b = LiveBackend.run(&cfg);
    assert_eq!(a, b, "same seed, same live report");
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap()
    );

    // And the detailed measurements agree too.
    let oa = LiveBackend.run_detailed(&cfg).unwrap();
    let ob = LiveBackend.run_detailed(&cfg).unwrap();
    assert_eq!(oa.live_iterations, ob.live_iterations);
    assert_eq!(oa.live_checkpoints, ob.live_checkpoints);
    assert_eq!(oa.completed_jobs, ob.completed_jobs);
}

#[test]
fn fault_regimes_keep_delta_reports_well_shaped() {
    for regime in ["preempt-storm:2", "ckpt-drop:2", "worker-crash:2"] {
        let mut c = cfg(SchedulerKind::Eva(EvaConfig::eva()));
        c.faults = FaultSpec::parse(regime).unwrap();
        let outcome = LiveBackend.run_detailed(&c).unwrap();

        // Shape: the published deltas are exactly their definitions.
        assert_eq!(
            outcome.delta_migrations(),
            outcome.live_checkpoints as i64 - outcome.expected_checkpoints as i64,
            "{regime}"
        );
        assert_eq!(
            outcome.delta_jobs(),
            outcome.completed_jobs.len() as i64 - outcome.expected_jobs.len() as i64,
            "{regime}"
        );
        // Makespan drift is precisely the re-executed work, charged at
        // the iteration↔hours exchange rate — nothing else moves it.
        let charged = outcome.re_executed() as f64 / eva::sim::LIVE_ITERS_PER_HOUR;
        assert!(
            (outcome.delta_makespan_hours() - charged).abs() < 1e-9,
            "{regime}: drift {} != charged {}",
            outcome.delta_makespan_hours(),
            charged
        );
        // Faults cost work and blobs, never correctness: every
        // scheduled job still converges with intact state.
        assert_eq!(outcome.completed_jobs, outcome.expected_jobs, "{regime}");
        assert_eq!(outcome.digest_mismatches, 0, "{regime}");
    }
}

#[test]
fn faulted_grids_keep_fault_free_cells_zero_delta() {
    // A grid carrying both a fault-free and a faulted axis value: the
    // faulted cells must not perturb the fault-free ones, whose sim and
    // live variants must agree exactly.
    let base = trace(6, 9);
    for regime in ["preempt-storm:2", "straggler:2", "capacity-shock:2"] {
        let grid = SweepGrid::new("parity-faults", base.clone())
            .schedulers_by_name(&["no-packing", "eva"])
            .unwrap()
            .backends(vec![BackendKind::Sim, BackendKind::Live])
            .faults(vec![FaultSpec::none(), FaultSpec::parse(regime).unwrap()]);
        let result = SweepRunner::new(2).run(&grid);
        assert_eq!(result.cells.len(), 8, "{regime}");

        let mut by_key = std::collections::BTreeMap::new();
        for cell in &result.cells {
            by_key.insert(
                (
                    cell.key.scheduler.clone(),
                    cell.key.faults.clone(),
                    cell.key.backend.clone(),
                ),
                &cell.report,
            );
        }
        for sched in ["no-packing", "eva"] {
            for faults in ["none", regime] {
                let sim = by_key[&(sched.into(), faults.into(), "sim".into())];
                let live = by_key[&(sched.into(), faults.into(), "live".into())];
                assert_eq!(
                    sim.jobs_completed, live.jobs_completed,
                    "{sched}/{faults}: live lost jobs"
                );
                if faults == "none" {
                    assert_eq!(
                        sim.makespan_hours, live.makespan_hours,
                        "{sched}: fault-free delta must be exactly zero"
                    );
                } else {
                    assert!(
                        live.makespan_hours >= sim.makespan_hours,
                        "{sched}/{faults}: re-execution can only lengthen the live run"
                    );
                }
            }
        }
    }
}

#[test]
fn backend_axis_sweeps_both_variants_in_one_grid() {
    let base = SweepGrid::new("parity", trace(6, 9))
        .schedulers_by_name(&["no-packing", "eva"])
        .unwrap();
    let sim_only = SweepRunner::new(2).run(&base.clone());
    let both = SweepRunner::new(2).run(&base.backends(vec![BackendKind::Sim, BackendKind::Live]));
    assert_eq!(both.cells.len(), 4);

    // The sim cells are untouched by the live axis.
    for (a, b) in sim_only.cells.iter().zip(&both.cells[..2]) {
        assert_eq!(a.report, b.report);
        assert_eq!(b.key.backend, "sim");
    }
    // Live cells execute the same schedules: schedule-level metrics match
    // their sim counterparts, and every scheduled job really completed.
    for (s, l) in both.cells[..2].iter().zip(&both.cells[2..]) {
        assert_eq!(l.key.backend, "live");
        assert_eq!(s.key.scheduler, l.key.scheduler);
        assert_eq!(s.report.jobs_completed, l.report.jobs_completed);
        assert_eq!(s.report.total_cost_dollars, l.report.total_cost_dollars);
        assert_eq!(s.report.makespan_hours, l.report.makespan_hours);
    }
}

#[test]
fn a_trace_that_repeats_a_job_id_is_refused_by_the_live_replay() {
    // The last job takes job 0's ids and arrives long after job 0 is done:
    // the world admits it, but a replay keyed by id would lose one of them.
    let mut jobs = trace(6, 5).into_jobs();
    let (last, id) = (jobs.len() - 1, jobs[0].id);
    jobs[last].id = id;
    for t in &mut jobs[last].tasks {
        t.id = TaskId::new(id, t.id.index);
    }
    jobs[last].arrival = SimTime::from_hours_f64(500.0);
    let mut cfg = SimConfig::new(Trace::new(jobs), SchedulerKind::NoPacking);
    cfg.fidelity = FidelityMode::Nominal;
    assert_eq!(run_simulation(&cfg).jobs_completed, 6);
    let err = LiveBackend
        .run_detailed(&cfg)
        .expect_err("a partial replay");
    assert!(err.contains(&id.to_string()), "{err}");
}
