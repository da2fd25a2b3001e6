//! Golden regression for the arena-indexed world state.
//!
//! The world model stores job/task/instance state in dense slot-indexed
//! arenas. This suite pins the *observable* behaviour of that storage to
//! a committed golden file produced by the pre-arena (map-keyed) world:
//! sweep JSON across the paper scheduler set, both execution backends,
//! fault-free and fault-injected, must stay **byte-identical** — the
//! arena is a representation change, never a semantic one.
//!
//! Regenerate the golden only when the simulation semantics are *meant*
//! to change (and say so in the PR):
//!
//! ```text
//! EVA_BLESS=1 cargo test --test arena_parity
//! ```
//!
//! A proptest additionally churns worlds through random fault regimes
//! (instance preemptions retire arena slots; later provisions reuse
//! them) and audits that every live ID still round-trips through its
//! slot at mid-run and at drain.

use std::fmt::Write as _;
use std::path::PathBuf;

use eva::prelude::*;
use proptest::prelude::*;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("arena_parity.json")
}

fn trace(jobs: usize, seed: u64, rate: f64) -> Trace {
    AlibabaTraceConfig {
        num_jobs: jobs,
        arrival_rate_per_hour: rate,
        durations: DurationModelChoice::Alibaba,
    }
    .generate(seed)
}

/// The paper scheduler set over one moderate trace, sim backend — the
/// bread-and-butter sweep every experiment binary runs.
fn paper_grid() -> SweepGrid {
    SweepGrid::new("paper-sim", trace(20, 3, 6.0))
        .paper_schedulers()
        .seeds(vec![1, 2])
}

/// Sim vs live on one small trace: the live backend replays the recorded
/// schedule through the real master/worker runtime.
fn backend_grid() -> SweepGrid {
    SweepGrid::new("backends", trace(10, 5, 6.0))
        .paper_schedulers()
        .backends(vec![BackendKind::Sim, BackendKind::Live])
}

/// Fault-injected cells: preemption churn retires and reuses instance
/// slots, stragglers exercise the per-slot slowdown factor, checkpoint
/// drops rewind job progress.
fn faulted_grid() -> SweepGrid {
    let faults = ["preempt-storm", "straggler:2", "ckpt-drop"]
        .iter()
        .map(|s| FaultSpec::parse(s).expect("valid fault spec"))
        .collect::<Vec<_>>();
    SweepGrid::new("faulted", trace(16, 7, 6.0))
        .paper_schedulers()
        .faults(faults)
}

/// Runs every parity grid and concatenates the sweep JSON into one
/// deterministic document.
fn render_all() -> String {
    let mut doc = String::new();
    writeln!(doc, "{{").unwrap();
    let grids: Vec<(&str, SweepGrid)> = vec![
        ("paper", paper_grid()),
        ("backends", backend_grid()),
        ("faulted", faulted_grid()),
    ];
    let last = grids.len() - 1;
    for (i, (name, grid)) in grids.into_iter().enumerate() {
        let result = SweepRunner::new(2).run(&grid);
        let comma = if i == last { "" } else { "," };
        writeln!(doc, "\"{name}\": {}{comma}", result.to_json_pretty()).unwrap();
    }
    writeln!(doc, "}}").unwrap();
    doc
}

#[test]
fn sweep_json_is_byte_identical_to_golden() {
    let rendered = render_all();
    // The golden must itself be valid JSON (guards the renderer).
    serde_json::from_str::<serde_json::Value>(&rendered).expect("rendered doc parses");
    let path = golden_path();
    if std::env::var("EVA_BLESS")
        .map(|v| v == "1")
        .unwrap_or(false)
    {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); generate with EVA_BLESS=1 cargo test --test arena_parity",
            path.display()
        )
    });
    if rendered != golden {
        // Locate the first divergent line for a readable failure.
        for (i, (r, g)) in rendered.lines().zip(golden.lines()).enumerate() {
            assert_eq!(
                r,
                g,
                "sweep JSON diverged from the pre-arena golden at line {}",
                i + 1
            );
        }
        panic!(
            "sweep JSON diverged from golden in length: {} vs {} bytes",
            rendered.len(),
            golden.len()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Slot interning survives arrival/retire/churn: step a world through
    /// a fault regime that preempts instances (retiring their slots for
    /// reuse), audit mid-run and after drain that every live ID maps to a
    /// slot that maps back to the same ID.
    #[test]
    fn slot_interning_round_trips_under_churn(
        jobs in 2usize..14,
        seed in 0u64..500,
        regime in prop_oneof![
            Just("none"),
            Just("preempt-storm:3"),
            Just("worker-crash:2"),
            Just("straggler:2"),
            Just("ckpt-drop"),
        ],
        pause in 5usize..60,
    ) {
        let mut cfg = SimConfig::new(trace(jobs, seed, 8.0), SchedulerKind::Stratus);
        cfg.seed = seed;
        cfg.faults = FaultSpec::parse(regime).unwrap();
        let mut sim = ClusterSim::new(&cfg);
        let mut steps = 0usize;
        loop {
            let more = sim.step();
            steps += 1;
            if steps.is_multiple_of(pause) {
                sim.audit_slots().expect("mid-run slot audit");
            }
            if !more {
                break;
            }
        }
        sim.audit_slots().expect("drained slot audit");
        let report = sim.run();
        prop_assert_eq!(report.jobs_completed, jobs, "every job completes");
    }
}
