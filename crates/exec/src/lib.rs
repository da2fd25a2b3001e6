//! Live task runtime: the master–worker execution substrate (§5).
//!
//! The paper's implementation runs a master that manages cloud instances
//! and per-instance workers that launch tasks as Docker containers and
//! report throughput over gRPC. This crate reproduces that control plane
//! in-process so the scheduler can be exercised end-to-end on a laptop:
//!
//! * [`Master`] — registers workers, routes commands, collects progress
//!   reports, drives checkpoint/migrate cycles, and keeps the checkpoint
//!   blobs the paper keeps in a shared S3 bucket;
//! * [`Worker`] — one thread per simulated instance, executing tasks as
//!   [`Container`]s (threads standing in for Docker containers); and
//! * [`EvaIterator`] — the lightweight iterator wrapper user code loops
//!   over; it counts iterations and implements cooperative
//!   checkpoint/stop, mirroring the paper's `EvaIterator` API.
//!
//! Communication uses `std::sync::mpsc` channels in place of gRPC; the
//! message protocol (launch / checkpoint / report / finish) has the same
//! shape.
//! Every wait on the launch/checkpoint/migrate path is a blocking channel
//! receive (workers merge commands and container exits into one event
//! channel; the master waits with [`Master::wait_task_exit`]) — there is
//! no polling loop. Launches carry an optional `run_until` iteration
//! bound so an engine (`eva_sim::LiveBackend`) can segment a task's
//! execution at exact, deterministic positions.

pub mod container;
pub mod iterator;
pub mod master;
pub mod messages;
pub mod worker;

pub use container::{decode_checkpoint, encode_checkpoint, Container, ContainerExit, TaskProgram};
pub use iterator::{EvaIterator, IteratorControl};
pub use master::{Master, TaskExitInfo, TaskHandle, TaskStatus};
pub use messages::{MasterToWorker, TaskExit, WorkerToMaster};
pub use worker::Worker;
