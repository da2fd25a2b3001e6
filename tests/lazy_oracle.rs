//! Oracle for the O(changed) hot loop: the lazy dirty-set path
//! (closed-form progress settled on demand, dirty-only completion
//! rescheduling, incremental allocation/capacity integrals) must be
//! *semantically invisible*. The same seeded simulation is stepped in
//! lockstep through the lazy path and the debug-only eager reference
//! (`ClusterSim::use_full_scan_reference`, which advances every job at
//! every event at its freshly derived throughput and re-derives every
//! completion), and every event boundary must agree on job progress,
//! cached rates, completion times, and integral accumulators — bit for
//! bit, with no tolerance and no exceptions (floats via shortest-roundtrip
//! formatting: distinct bits ⇒ distinct strings).
//!
//! Reading a digest settles every job, so in the lockstep the lazy world
//! settles at every event. The final-only case reads nothing until both
//! worlds are exhausted, so the lazy world settles only where rates change
//! and its integers must still equal the eager world's.

use eva::prelude::*;
use proptest::prelude::*;

fn trace(jobs: usize, seed: u64, rate: f64) -> Trace {
    AlibabaTraceConfig {
        num_jobs: jobs,
        arrival_rate_per_hour: rate,
        durations: DurationModelChoice::Alibaba,
    }
    .generate(seed)
}

fn sims(jobs: usize, seed: u64, regime: &str) -> (ClusterSim, ClusterSim) {
    sims_under(SchedulerKind::Stratus, jobs, seed, regime)
}

fn sims_under(
    kind: SchedulerKind,
    jobs: usize,
    seed: u64,
    regime: &str,
) -> (ClusterSim, ClusterSim) {
    let mut cfg = SimConfig::new(trace(jobs, seed, 8.0), kind);
    cfg.seed = seed;
    cfg.faults = FaultSpec::parse(regime).expect("valid regime");
    let mut reference = ClusterSim::new(&cfg);
    reference.use_full_scan_reference();
    (ClusterSim::new(&cfg), reference)
}

/// Steps both worlds to exhaustion, comparing digests at every event
/// boundary, then compares the final reports byte-for-byte.
fn assert_lockstep(mut lazy: ClusterSim, mut full: ClusterSim) -> Result<(), TestCaseError> {
    let mut steps = 0u64;
    loop {
        let (a, b) = (lazy.step(), full.step());
        prop_assert_eq!(a, b, "event streams diverged in length at step {}", steps);
        prop_assert_eq!(lazy.now(), full.now(), "clocks diverged at step {}", steps);
        let (da, db) = (lazy.oracle_digest(), full.oracle_digest());
        prop_assert_eq!(da, db, "world digests diverged at step {}", steps);
        lazy.audit_slots().map_err(TestCaseError::fail)?;
        if !a {
            break;
        }
        steps += 1;
    }
    let ra = serde_json::to_string(&lazy.run()).expect("report serializes");
    let rb = serde_json::to_string(&full.run()).expect("report serializes");
    prop_assert_eq!(ra, rb, "final reports diverged");
    Ok(())
}

/// Runs both worlds to exhaustion unread, then compares the digests and
/// the final reports byte-for-byte.
fn assert_final_only(mut lazy: ClusterSim, mut full: ClusterSim) -> Result<(), TestCaseError> {
    while lazy.step() {}
    while full.step() {}
    prop_assert_eq!(lazy.now(), full.now(), "clocks diverged");
    let (da, db) = (lazy.oracle_digest(), full.oracle_digest());
    prop_assert_eq!(da, db, "final digests diverged");
    lazy.audit_slots().map_err(TestCaseError::fail)?;
    let ra = serde_json::to_string(&lazy.run()).expect("report serializes");
    let rb = serde_json::to_string(&full.run()).expect("report serializes");
    prop_assert_eq!(ra, rb, "final reports diverged");
    Ok(())
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
    fn lazy_dirty_set_path_matches_full_scan_reference(
        jobs in 2usize..14,
        seed in 0u64..500,
        regime in regime(),
    ) {
        let (lazy, full) = sims(jobs, seed, regime);
        assert_lockstep(lazy, full)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    #[test]
    fn long_replays_match_full_scan_reference_at_the_end(
        jobs in 60usize..=150,
        seed in 0u64..500,
        kind in 0..SchedulerKind::paper_set().len(),
        regime in regime(),
    ) {
        let kind = SchedulerKind::paper_set().swap_remove(kind);
        let (lazy, full) = sims_under(kind, jobs, seed, regime);
        assert_final_only(lazy, full)?;
    }
}
