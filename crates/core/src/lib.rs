//! The Eva scheduler — the paper's primary contribution (§4).
//!
//! Eva jointly optimizes task-to-instance assignment and instance
//! provisioning to minimize total cloud cost. The pieces:
//!
//! * **Reservation price** ([`reservation`]): the hourly cost of the
//!   cheapest instance type that can host a task standalone — the metric
//!   that generalizes the "largest ball first" VSBPP heuristic to
//!   multi-dimensional resources (§4.2).
//! * **Throughput-normalized reservation price** ([`reservation`]): the
//!   reservation price discounted by the throughput a task would retain
//!   under co-location interference, with the multi-task job extension of
//!   §4.4.
//! * **Full Reconfiguration** ([`packing`]): Algorithm 1 — pack all tasks
//!   into instances, iterating instance types by descending cost and tasks
//!   by descending marginal TNRP, committing an instance only when the
//!   assigned set's TNRP covers its cost.
//! * **Partial Reconfiguration** ([`partial_reconfiguration`]): repack only new tasks and
//!   tasks on no-longer-cost-efficient instances, leaving the rest of the
//!   cluster untouched (§4.5).
//! * **The reconfiguration decision** ([`decision`]): the quantitative
//!   criterion `S_F·D̂ − M_F > S_P·D̂ − M_P` with the Poisson/geometric
//!   estimate `D̂ = −1/(λ·ln(1−p))` of the time to the next Full
//!   Reconfiguration (§4.5).
//! * **The current configuration** ([`plan`]): [`ClusterView`] derives
//!   which tasks sit on which instance once per snapshot, for Eva, the
//!   baselines and the plan executor alike.
//! * **The scheduler** ([`scheduler`]): [`EvaScheduler`] combines all of
//!   the above behind the [`Scheduler`] trait that the simulator and the
//!   live runtime drive; the baseline schedulers implement the same trait.

pub mod config;
pub mod decision;
pub mod packing;
mod partial;
pub mod plan;
pub mod reservation;
pub mod scheduler;

pub use config::{EvaConfig, ReconfigMode};
pub use decision::{DecisionInputs, EventRateEstimator, ReconfigDecision};
pub use packing::{full_reconfiguration, PackedConfig, PackedInstance};
pub use partial::partial_reconfiguration;
pub use plan::{
    Assignment, ClusterView, InstanceSnapshot, InstanceView, JobObservation, Move, Plan,
    PlannedInstance, Scheduler, SchedulerContext, TaskSnapshot,
};
pub use reservation::{
    price_memo, reservation_price, Priced, ReservationPrices, TnrpEvaluator, TnrpSet,
    TputEstimator, UnitTput,
};
pub use scheduler::EvaScheduler;
