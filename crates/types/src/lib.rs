//! Core domain types shared by every crate in the Eva reproduction.
//!
//! This crate deliberately contains no scheduling logic: it defines the
//! vocabulary — resources, money, simulated time, identifiers, task and job
//! specifications — that the cloud model, the scheduler, the baselines, and
//! the simulator all agree on.
//!
//! # Examples
//!
//! ```
//! use eva_types::{Cost, ResourceVector};
//!
//! let demand = ResourceVector::new(1, 4, 24 * 1024);
//! let capacity = ResourceVector::new(4, 32, 244 * 1024);
//! assert!(demand.fits_within(&capacity));
//! assert_eq!(Cost::from_dollars_per_hour(3.06).to_string(), "$3.0600/hr");
//! ```

pub mod error;
pub mod hash;
pub mod ids;
pub mod job;
pub mod money;
pub mod resources;
pub mod time;

pub use error::EvaError;
pub use hash::fnv1a64;
pub use ids::{IdBuildHasher, IdHasher, InstanceId, InstanceTypeId, JobId, TaskId, WorkloadKind};
pub use job::{DemandSpec, FamilyKey, JobSpec, TaskSpec};
pub use money::Cost;
pub use resources::{ResourceKind, ResourceVector};
pub use time::{SimDuration, SimTime};

/// Result alias used across the workspace.
pub type Result<T> = std::result::Result<T, EvaError>;
