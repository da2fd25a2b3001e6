//! Workloads and traces for the Eva reproduction.
//!
//! Provides:
//!
//! * the ten batch-processing workloads of **Table 7** (per-task resource
//!   demands with per-family CPU overrides, checkpoint and launch delays,
//!   task counts);
//! * the measured pairwise co-location throughput matrix of **Figure 1**
//!   and the ground-truth interference model built on it;
//! * the job-duration models of **Table 9** (Alibaba empirical quantiles
//!   and the Gavel exponential model);
//! * trace generators: the synthetic Poisson traces of the physical
//!   experiments (§6.2), the Alibaba-like production trace (§6.3, Table 8
//!   GPU mix), and the multi-GPU / multi-task trace modifiers used by the
//!   workload-composition studies (§6.6, §6.7); and
//! * serde-based trace I/O.

pub mod alibaba;
pub mod catalog;
pub mod colocation;
pub mod duration;
pub mod handle;
pub mod modifiers;
pub mod source;
pub mod synthetic;
pub mod trace;

pub use alibaba::{AlibabaTraceConfig, DurationModelChoice, TABLE8_GPU_MIX};
pub use catalog::{WorkloadCatalog, WorkloadInfo};
pub use colocation::{InterferenceModel, PairwiseMatrix};
pub use duration::{AlibabaDurations, DurationSampler, GavelDurations, UniformHours};
pub use handle::TraceHandle;
pub use modifiers::{MultiGpuMix, MultiTaskMix};
pub use source::{BoundedSource, JobSource, JsonLinesSource, SyntheticSource, TraceSource};
pub use synthetic::SyntheticTraceConfig;
pub use trace::{Trace, TraceStats};
