//! High-fidelity discrete-event simulator (§5), layered four ways.
//!
//! * [`engine`] — **layer 1**: the generic discrete-event engine
//!   (monotone clock, time/priority/FIFO-ordered event queue,
//!   deterministic RNG streams), now its own `eva-engine` crate with no
//!   knowledge of schedulers or clouds, re-exported here so downstream
//!   code keeps compiling.
//! * [`world`] — **layer 2**: the [`ClusterSim`] world model. It owns the
//!   provider, instances, jobs, and task lifecycles, consumes engine
//!   events, applies ground-truth co-location interference (Figure 1) to
//!   task throughput, and feeds the scheduler only *observed* throughput
//!   — the scheduler never sees the ground-truth interference model.
//! * [`backend`] — **layer 2b**: how a cell's schedule executes. The
//!   [`SimBackend`] is the pure world model; the [`LiveBackend`] replays
//!   the same engine-ordered schedule through the real `eva-exec`
//!   master/worker runtime (Table 12's sim-vs-real axis).
//! * [`sweep`] — **layer 3**: declarative `(scheduler × trace × seed ×
//!   fidelity × interference × backend)` experiment grids ([`SweepGrid`])
//!   with a multi-threaded [`SweepRunner`] whose merged results are
//!   byte-identical for any thread count. Traces are shared by
//!   [`eva_workloads::TraceHandle`]; one long trace is [`serve()`]'s job,
//!   and a sweep fills its threads with cells.
//! * [`pool`] + [`cache`] — **layer 3 machinery**: the generic
//!   deduplicating, longest-first, parallel [`CellPool`] every sweep
//!   (simulation or solver-level) runs on, and the persistent
//!   content-keyed [`ReportCache`] under `results/cache/` that turns
//!   cross-experiment reruns into cache hits.
//!
//! Job progress integrates throughput over time exactly: throughput is
//! piecewise-constant between events, so completion times are computed in
//! closed form and re-derived whenever any co-location changes.
//!
//! [`SimConfig`] + [`run_simulation`] remain the single-cell experiment
//! entry point used by every table/figure binary in `eva-bench`; the
//! sweep layer is the batch entry point behind `eva sweep`.

pub use eva_engine as engine;

mod arena;
pub mod backend;
pub mod cache;
pub mod faults;
pub mod federate;
pub mod metrics;
mod observe;
pub mod pool;
pub mod report;
pub mod runner;
pub mod script;
pub mod serve;
pub mod state;
pub mod sweep;
pub mod world;

pub use backend::{
    BackendKind, ExecBackend, LiveBackend, LiveOutcome, SimBackend, LIVE_ITERS_PER_HOUR,
};
pub use cache::{
    CacheStats, ClaimAttempt, ClaimGuard, ClaimInfo, MergeReport, PruneReport, ReportCache,
    VerifyIssue, VerifyReport, SCHEMA_VERSION,
};
pub use eva_engine::{derive_seed, EventEngine, RngStreams, Scheduled, SimEvent};
pub use faults::{FaultAction, FaultEvent, FaultPlan, FaultRegime, FaultSpec};
pub use federate::{claim_stale_deadline, join_workers, worker_role, Federation};
pub use metrics::{CdfPoint, MetricsRegistry, MetricsSnapshot, SimReport};
pub use pool::{CellPool, ClaimTiming, PoolStats, RunPlan};
pub use runner::{run_recorded, run_simulation, InterferenceSpec, SchedulerKind, SimConfig};
pub use script::{ExecAction, ExecActionKind, ExecScript};
pub use serve::{serve, ServeConfig, ServeOutcome};
pub use state::TaskState;
pub use sweep::{
    fidelity_label, CellKey, CellOutcome, SweepCell, SweepGrid, SweepResult, SweepRunner,
};
pub use world::ClusterSim;
