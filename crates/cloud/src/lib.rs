//! Cloud substrate for the Eva reproduction.
//!
//! This crate models everything the paper takes from AWS EC2:
//!
//! * the **instance-type catalog** — the 21 types across the P3 (GPU),
//!   C7i (compute-optimized), and R7i (memory-optimized) families used in
//!   §6.1, with their real capacities and on-demand prices;
//! * the **provisioning delay model** — instance acquisition and setup
//!   delays with the ranges and means measured in Table 1;
//! * a **simulated cloud provider** with the full instance lifecycle
//!   (acquiring → setting-up → running → terminated), per-second billing
//!   and an optional pool cap.
//!
//! The scheduler crates depend only on the catalog; the simulator drives
//! the provider.

pub mod catalog;
pub mod delays;
pub mod provider;

pub use catalog::{Catalog, InstanceFamily, InstanceType};
pub use delays::{DelayModel, DelaySample, FidelityMode};
pub use provider::{CloudProvider, Instance, InstanceState, ProvisionRequest};
