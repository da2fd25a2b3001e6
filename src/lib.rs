//! Eva: cost-efficient cloud-based cluster scheduling — Rust reproduction.
//!
//! This facade crate re-exports the workspace so downstream users depend
//! on one crate. See the README for a tour and the paper-to-crate
//! mapping.
//!
//! # Quickstart
//!
//! ```
//! use eva::prelude::*;
//!
//! // Schedule the paper's Table 3 example: four tasks over four types.
//! let catalog = Catalog::table3_example();
//! let mut eva = EvaScheduler::new(EvaConfig::eva());
//! let ctx = SchedulerContext {
//!     now: SimTime::ZERO,
//!     catalog: &catalog,
//!     tasks: &[],
//!     instances: &[],
//! };
//! assert!(eva.plan(&ctx).assignments.is_empty());
//! ```

pub use eva_baselines as baselines;
pub use eva_cloud as cloud;
pub use eva_core as core;
pub use eva_exec as exec;
pub use eva_interference as interference;
pub use eva_sim as sim;
pub use eva_solver as solver;
pub use eva_types as types;
pub use eva_workloads as workloads;

/// Most-used items in one import.
pub mod prelude {
    pub use eva_baselines::{NoPackingScheduler, OwlScheduler, StratusScheduler, SynergyScheduler};
    pub use eva_cloud::{Catalog, CloudProvider, DelayModel, FidelityMode};
    pub use eva_core::{EvaConfig, EvaScheduler, Plan, Scheduler, SchedulerContext, TaskSnapshot};
    pub use eva_sim::{
        run_recorded, run_simulation, serve, BackendKind, ClusterSim, FaultPlan, FaultRegime,
        FaultSpec, LiveBackend, LiveOutcome, MetricsSnapshot, PoolStats, ReportCache,
        SchedulerKind, ServeConfig, ServeOutcome, SimConfig, SimReport, SweepGrid, SweepResult,
        SweepRunner, SCHEMA_VERSION,
    };
    pub use eva_types::{
        Cost, DemandSpec, InstanceId, JobId, JobSpec, ResourceVector, SimDuration, SimTime, TaskId,
        TaskSpec, WorkloadKind,
    };
    pub use eva_workloads::{
        AlibabaTraceConfig, BoundedSource, DurationModelChoice, InterferenceModel, JobSource,
        JsonLinesSource, SyntheticSource, SyntheticTraceConfig, Trace, TraceHandle, TraceSource,
        WorkloadCatalog,
    };
}
