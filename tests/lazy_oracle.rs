//! Oracle for the O(changed) hot loop: the lazy dirty-set path
//! (segment-log progress, dirty-only completion rescheduling,
//! incremental allocation/capacity integrals) must be *semantically
//! invisible*. The same seeded simulation is stepped in lockstep
//! through the lazy path and the debug-only eager reference
//! (`ClusterSim::use_full_scan_reference`), and every event boundary must
//! agree on job progress, cached rates, completion times, and integral
//! accumulators — bit for bit, via shortest-roundtrip float formatting
//! (distinct bits ⇒ distinct strings).

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
    let mut cfg = SimConfig::new(trace(jobs, seed, 8.0), SchedulerKind::Stratus);
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
        prop_assert_eq!(
            lazy.now(),
            full.now(),
            "clocks diverged at step {}",
            steps
        );
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn lazy_dirty_set_path_matches_full_scan_reference(
        jobs in 2usize..14,
        seed in 0u64..500,
        regime in prop_oneof![
            Just("none"),
            Just("preempt-storm:3"),
            Just("worker-crash:2"),
            Just("straggler:2"),
            Just("ckpt-drop"),
            Just("capacity-shock:2"),
            Just("price-step:2"),
        ],
    ) {
        let (lazy, full) = sims(jobs, seed, regime);
        assert_lockstep(lazy, full)?;
    }
}
