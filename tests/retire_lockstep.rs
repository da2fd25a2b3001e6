//! Oracle for job retirement: releasing completed jobs' arena slots
//! (`SimConfig::retire_completed`) must be *semantically invisible*.
//! The same seeded simulation is stepped in lockstep with retirement on
//! and off, and every event boundary must agree on live-job progress,
//! completed-job report contributions, and the global integrals — bit
//! for bit, via shortest-roundtrip float formatting — across every
//! fault regime. Final reports must serialize identically.

use eva::prelude::*;
use proptest::prelude::*;

fn trace(jobs: usize, seed: u64) -> Trace {
    AlibabaTraceConfig {
        num_jobs: jobs,
        arrival_rate_per_hour: 8.0,
        durations: DurationModelChoice::Alibaba,
    }
    .generate(seed)
}

fn sims(jobs: usize, seed: u64, regime: &str) -> (ClusterSim, ClusterSim) {
    let mut cfg = SimConfig::new(trace(jobs, seed), SchedulerKind::Stratus);
    cfg.seed = seed;
    cfg.faults = FaultSpec::parse(regime).expect("valid regime");
    let mut retire = cfg.clone();
    retire.retire_completed = true;
    (ClusterSim::new(&retire), ClusterSim::new(&cfg))
}

/// Steps both worlds to exhaustion, comparing stream digests at every
/// event boundary, then compares the final reports byte-for-byte.
fn assert_lockstep(mut retire: ClusterSim, mut keep: ClusterSim) -> Result<(), TestCaseError> {
    let mut steps = 0u64;
    loop {
        let (a, b) = (retire.step(), keep.step());
        prop_assert_eq!(a, b, "event streams diverged in length at step {}", steps);
        prop_assert_eq!(
            retire.now(),
            keep.now(),
            "clocks diverged at step {}",
            steps
        );
        let (da, db) = (retire.stream_digest(), keep.stream_digest());
        prop_assert_eq!(da, db, "world digests diverged at step {}", steps);
        retire.audit_slots().map_err(TestCaseError::fail)?;
        keep.audit_slots().map_err(TestCaseError::fail)?;
        if !a {
            break;
        }
        steps += 1;
    }
    let ra = serde_json::to_string(&retire.run()).expect("report serializes");
    let rb = serde_json::to_string(&keep.run()).expect("report serializes");
    prop_assert_eq!(ra, rb, "final reports diverged");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn retirement_matches_keep_everything_reference(
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
        let (retire, keep) = sims(jobs, seed, regime);
        assert_lockstep(retire, keep)?;
    }
}

#[test]
fn retirement_frees_slots_in_batch_mode_too() {
    // Batch worlds intern everything up front, so retirement cannot
    // recycle rows — but it must still empty the live set and move
    // every contribution into the completed log without changing the
    // report.
    let mut cfg = SimConfig::new(trace(12, 3), SchedulerKind::Stratus);
    cfg.retire_completed = true;
    let mut sim = ClusterSim::new(&cfg);
    while sim.step() {}
    assert_eq!(sim.live_job_slots(), 0, "every completed job released");
    assert_eq!(sim.job_arena_rows(), 12, "batch rows are pre-interned");
    sim.audit_slots().expect("audit after full retirement");
}
