//! Exact and heuristic solvers for the provisioning ILP (§4.1).
//!
//! The paper formulates cluster provisioning as an integer linear program —
//! pick an instance type for each (potential) instance and an instance for
//! each task, minimizing total hourly cost subject to capacity — and solves
//! it with Gurobi under a 30-minute limit as the optimal reference point of
//! Table 4. This crate provides a from-scratch replacement:
//!
//! * [`branch_and_bound`] — an anytime exact solver with a resource-pricing
//!   lower bound, symmetry pruning, and a configurable time limit. Warm-
//!   started with a heuristic incumbent it reproduces both Gurobi's
//!   near-optimal incumbents and its timeout behaviour.
//! * [`first_fit_decreasing`] — the classic VSBPP heuristic, used as a
//!   warm start and a sanity baseline.
//!
//! The solvers operate on a plain [`PackingProblem`] so they are usable
//! outside the scheduler (and in property tests against each other).

pub mod bnb;
pub mod heuristics;
pub mod problem;

pub use bnb::{branch_and_bound, BnbConfig};
pub use heuristics::first_fit_decreasing;
pub use problem::{Item, PackingProblem, Solution};
