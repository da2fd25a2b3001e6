//! Online interference learning (§4.3–§4.4).
//!
//! Eva never profiles co-location interference ahead of time — the cost of
//! doing so grows exponentially with the number of task types. Instead the
//! **ThroughputMonitor** observes task throughput at every scheduling round
//! and maintains the **co-location throughput table**, which the scheduler
//! consults to compute throughput-normalized reservation prices.
//!
//! The table is keyed by *workload kind* (not task id) and by the sorted
//! multiset of co-located kinds, so an observation made for one GPT-2 task
//! generalizes to every other GPT-2 task. Unseen groups are estimated as
//! the product of pairwise throughputs; unknown pairs default to the
//! tunable `t` (0.95 in all the paper's experiments).
//!
//! For multi-task (gang-coupled) jobs a throughput drop may come from local
//! co-location *or* from a straggler sibling, so the monitor applies the
//! paper's three attribution rules (§4.4) to decide which single table
//! entry each job-level observation updates.

pub mod monitor;
pub mod table;

pub use monitor::{TaskContext, ThroughputMonitor};
pub use table::ThroughputTable;
