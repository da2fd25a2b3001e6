//! The lazy world audits itself. `ClusterSim` settles a job's closed-form
//! progress only where its rate changes, caches each job's rate and queued
//! completion, and maintains the instance table's rates incrementally;
//! `ClusterSim::audit_slots` derives each of these afresh and compares bit
//! for bit: the dirty list is empty between events, each active job's
//! cached rate is its throughput now, its queued completion is its last
//! settle plus its ETA, and the maintained capacity/allocation/running
//! rates equal a scan of the provider's live set. A handler that forgets
//! to mark a job whose throughput it changes leaves a stale rate or
//! completion behind, and the audit after that event reports it.
//!
//! The per-step cases audit one world after every event: drawn small
//! worlds, and two fixed busy ones that reach the marks a small world
//! rarely does. The long case steps two copies of one world, auditing
//! both after every event: one reads `oracle_digest` after every event,
//! which settles every job, the other reads nothing until both are
//! exhausted. Their final digests and report bytes must be equal, so a
//! result that depends on the instants jobs are settled at fails it. Every loop carries a step budget, so a
//! world that never drains fails instead of hanging.

use eva::prelude::*;
use proptest::prelude::*;

/// Events after which a world is taken never to drain: the cases here
/// take at most ≈ 11 400.
const STEP_BUDGET: u64 = 200_000;

fn trace(jobs: usize, seed: u64, rate: f64) -> Trace {
    AlibabaTraceConfig {
        num_jobs: jobs,
        arrival_rate_per_hour: rate,
        durations: DurationModelChoice::Alibaba,
    }
    .generate(seed)
}

fn config(kind: SchedulerKind, jobs: usize, seed: u64, rate: f64, regime: &str) -> SimConfig {
    let mut cfg = SimConfig::new(trace(jobs, seed, rate), kind);
    cfg.seed = seed;
    cfg.faults = FaultSpec::parse(regime).expect("valid regime");
    cfg
}

fn world(kind: SchedulerKind, jobs: usize, seed: u64, regime: &str) -> ClusterSim {
    ClusterSim::new(&config(kind, jobs, seed, 8.0, regime))
}

/// Steps `sim` to exhaustion within the step budget, auditing it after
/// every event; with `settle`, reads its digest before each audit, which
/// settles every job.
fn drain(sim: &mut ClusterSim, settle: bool) -> Result<(), TestCaseError> {
    let mut steps = 0u64;
    loop {
        prop_assert!(steps < STEP_BUDGET, "the world never drained");
        let more = sim.step();
        if settle {
            sim.oracle_digest();
        }
        let audit = sim.audit_slots();
        audit.map_err(|e| TestCaseError::fail(format!("step {steps}: {e}")))?;
        if !more {
            return Ok(());
        }
        steps += 1;
    }
}

fn regime() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("none"),
        Just("preempt-storm:3"),
        Just("worker-crash:2"),
        Just("straggler:2"),
        Just("ckpt-drop"),
        Just("capacity-shock:2"),
        Just("price-step:2"),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn the_lazy_world_audits_clean_after_every_event(
        jobs in 2usize..14,
        seed in 0u64..500,
        regime in regime(),
    ) {
        drain(&mut world(SchedulerKind::Stratus, jobs, seed, regime), false)?;
    }
}

/// Stratus over 40 jobs arriving at 60 an hour, with a round every 10 s:
/// more often than the 21 s and 30 s checkpoints of OpenFOAM and GPT2, so
/// rounds land while tasks are in transit. Under capacity shocks a refused
/// launch leaves some of an evicted instance's residents in place while
/// the others move away; under checkpoint drops the surgery moves a job's
/// completion. Each seed is one where a world that skips the matching mark
/// fails the audit: `transfer_task` not touching the old host's jobs at
/// step 369, and the ckpt-drop surgery settling its victim instead of
/// marking it at step 93. No drawn case above caught either.
#[test]
fn busy_worlds_audit_clean_after_every_event() {
    for (seed, regime) in [(11, "capacity-shock:4"), (0, "ckpt-drop:4")] {
        let mut cfg = config(SchedulerKind::Stratus, 40, seed, 60.0, regime);
        cfg.round_period = SimDuration::from_secs(10);
        let audit = drain(&mut ClusterSim::new(&cfg), false);
        audit.unwrap_or_else(|e| panic!("{regime}, seed {seed}: {e}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    #[test]
    fn settling_every_job_at_every_event_changes_nothing(
        jobs in 60usize..=150,
        seed in 0u64..500,
        kind in 0..SchedulerKind::paper_set().len(),
        regime in regime(),
    ) {
        let kind = SchedulerKind::paper_set().swap_remove(kind);
        let mut settled = world(kind.clone(), jobs, seed, regime);
        let mut unread = world(kind, jobs, seed, regime);
        drain(&mut settled, true)?;
        drain(&mut unread, false)?;
        prop_assert_eq!(settled.now(), unread.now(), "clocks diverged");
        let (da, db) = (settled.oracle_digest(), unread.oracle_digest());
        prop_assert_eq!(da, db, "final digests diverged");
        let ra = serde_json::to_string(&settled.run()).expect("report serializes");
        let rb = serde_json::to_string(&unread.run()).expect("report serializes");
        prop_assert_eq!(ra, rb, "final reports diverged");
    }
}
