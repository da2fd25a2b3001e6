//! Table 12: control-plane robustness — sim vs live under adversarial
//! faults.
//!
//! The paper validates the simulator by running the same workload on a
//! physical cluster and comparing outcomes (within 5%). This rebuild
//! turns that fidelity check into a *robustness report*: the same
//! deterministic fault schedule — compiled from `(seed, regime,
//! intensity)` before the run — is injected into both backends, and the
//! table reports per-(scheduler, regime) deltas between what the
//! faulted schedule promised and what the faulted runtime executed:
//!
//! * **Δjobs** — jobs confirmed live minus jobs the schedule completed;
//! * **Δmakespan** — live makespan (which charges re-executed work lost
//!   to confiscated/dropped checkpoints) minus simulated makespan;
//! * **Δmig** — checkpoints the runtime banked minus boundaries the
//!   schedule carried (each fault kill confiscates its rescue blob, so
//!   kills show up as −1 each).
//!
//! The fault-free row of every scheduler must be **exactly zero** in
//! all three columns — that column is the control experiment proving
//! nonzero deltas under a regime measure injected adversity, not noise.
//!
//! Regimes default to the adversarial trio (preempt-storm, ckpt-drop,
//! worker-crash); `--faults REGIME[:INTENSITY]` narrows the run to the
//! fault-free baseline plus that one regime. The fidelity grid honors
//! the shared cache flags like every other experiment.

use eva_bench::{faults_setting, print_stats, runner, save_json};
use eva_sim::{
    BackendKind, FaultRegime, FaultSpec, LiveBackend, SchedulerKind, SimConfig, SweepGrid,
};
use eva_workloads::SyntheticTraceConfig;
use serde::{Deserialize, Serialize};

/// One robustness measurement (serialized into the artifact).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct RobustnessRow {
    scheduler: String,
    regime: String,
    delta_jobs: i64,
    delta_makespan_hours: f64,
    delta_migrations: i64,
    re_executed: u64,
    live_kills: u64,
    dropped_checkpoints: u64,
    digest_mismatches: u64,
}

impl RobustnessRow {
    fn is_zero(&self) -> bool {
        self.delta_jobs == 0
            && self.delta_makespan_hours == 0.0
            && self.delta_migrations == 0
            && self.re_executed == 0
    }
}

fn main() {
    eva_bench::parse_flags();
    println!("== Table 12: control-plane robustness (sim vs live under adversarial faults) ==");
    let trace = SyntheticTraceConfig::small_scale().generate(12);

    // The fault-free control column plus either the `--faults` override
    // or the default adversarial trio.
    let regimes: Vec<FaultSpec> = match faults_setting() {
        Some(spec) if !spec.is_none() => vec![FaultSpec::none(), spec],
        _ => vec![
            FaultSpec::none(),
            FaultSpec::new(FaultRegime::PreemptStorm),
            FaultSpec::new(FaultRegime::CkptDrop),
            FaultSpec::new(FaultRegime::WorkerCrash),
        ],
    };

    // Fidelity grid across both backends and every regime, run through
    // the shared harness so caching and fault-aware cell
    // fingerprints behave exactly as in any other experiment. (The
    // fault axis is set explicitly here — the regime list is this
    // experiment's subject, not a pass-through flag.)
    let grid = SweepGrid::new("synthetic", trace.clone())
        .paper_schedulers()
        .backends(vec![BackendKind::Sim, BackendKind::Live])
        .faults(regimes.clone());
    let (result, stats) = runner().run_with_stats(&grid);
    print_stats(&stats);

    // Robustness table: replay each (scheduler, regime) cell through the
    // live master/worker runtime and measure its deltas.
    println!(
        "\n{:<12} {:<16} {:>6} {:>11} {:>5} {:>8} {:>6} {:>6}",
        "Scheduler", "Regime", "Δjobs", "Δmakespan", "Δmig", "re-exec", "kills", "drops"
    );
    let mut rows: Vec<RobustnessRow> = Vec::new();
    for kind in SchedulerKind::paper_set() {
        for &spec in &regimes {
            let mut cfg = SimConfig::new(trace.clone(), kind.clone());
            cfg.faults = spec;
            let outcome = LiveBackend
                .run_detailed(&cfg)
                .expect("live replay executes the faulted schedule");
            let row = RobustnessRow {
                scheduler: kind.label().to_string(),
                regime: spec.label(),
                delta_jobs: outcome.delta_jobs(),
                delta_makespan_hours: outcome.delta_makespan_hours(),
                delta_migrations: outcome.delta_migrations(),
                re_executed: outcome.re_executed(),
                live_kills: outcome.live_kills,
                dropped_checkpoints: outcome.dropped_checkpoints,
                digest_mismatches: outcome.digest_mismatches,
            };
            println!(
                "{:<12} {:<16} {:>6} {:>10.3}h {:>5} {:>8} {:>6} {:>6}",
                row.scheduler,
                row.regime,
                row.delta_jobs,
                row.delta_makespan_hours,
                row.delta_migrations,
                row.re_executed,
                row.live_kills,
                row.dropped_checkpoints,
            );
            // The control column: a fault-free replay must match its
            // schedule *exactly* — any drift here is a control-plane
            // bug, and would poison every faulted delta.
            if spec.is_none() {
                assert!(
                    row.is_zero() && row.live_kills == 0 && row.dropped_checkpoints == 0,
                    "fault-free deltas must be exactly zero: {row:?}"
                );
            }
            assert_eq!(
                row.digest_mismatches, 0,
                "state lost across restore: {row:?}"
            );
            rows.push(row);
        }
    }
    let nonzero = rows.iter().filter(|r| !r.is_zero()).count();
    println!(
        "\nnonzero-deltas: {nonzero} of {} (scheduler, regime) cells",
        rows.len()
    );

    save_json("table12.json", &result);
    save_json("table12_robustness.json", &rows);
}
