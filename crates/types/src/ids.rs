//! Identifiers for jobs, tasks, instances, instance types, and workloads.

use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

use serde::{Deserialize, Serialize};

/// Hasher for lookup maps keyed by the integer ids of this module: one
/// rotate, xor and multiply per integer written, where the standard
/// library's SipHash costs more than the probe it guards. It does not
/// resist keys chosen to collide, and its order means nothing: keep it to
/// maps that are probed, never iterated.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

/// `HashMap<InstanceId, _, IdBuildHasher>`.
pub type IdBuildHasher = BuildHasherDefault<IdHasher>;

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|b| self.write_u64(u64::from(*b)));
    }
    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    /// The product's high bits are its best; the table indexes by the low.
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// Identifies a submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// Identifies a task within a job (jobs consist of one or more tasks, §2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TaskId {
    /// The owning job.
    pub job: JobId,
    /// Index of this task within the job (0-based).
    pub index: u32,
}

impl TaskId {
    /// Builds a task id.
    pub const fn new(job: JobId, index: u32) -> Self {
        TaskId { job, index }
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/t{}", self.job, self.index)
    }
}

/// Identifies a provisioned cloud instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct InstanceId(pub u64);

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i-{:06}", self.0)
    }
}

/// Identifies an instance type in the catalog (e.g. `p3.2xlarge`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct InstanceTypeId(pub u32);

impl fmt::Display for InstanceTypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "it-{}", self.0)
    }
}

/// Identifies a workload kind (a row of Table 7, e.g. GPT-2 fine-tuning).
///
/// The co-location throughput table is keyed by workload kind rather than
/// task id so that observations made for one task generalize to every other
/// task running the same workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct WorkloadKind(pub u32);

impl fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wk-{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_ids_order_by_job_then_index() {
        let a = TaskId::new(JobId(1), 2);
        let b = TaskId::new(JobId(2), 0);
        let c = TaskId::new(JobId(1), 3);
        assert!(a < b);
        assert!(a < c);
        assert!(c < b);
    }

    #[test]
    fn display_forms() {
        assert_eq!(JobId(7).to_string(), "job-7");
        assert_eq!(TaskId::new(JobId(7), 1).to_string(), "job-7/t1");
        assert_eq!(InstanceId(12).to_string(), "i-000012");
        assert_eq!(InstanceTypeId(3).to_string(), "it-3");
        assert_eq!(WorkloadKind(5).to_string(), "wk-5");
    }

    #[test]
    fn ids_serialize_round_trip() {
        let t = TaskId::new(JobId(42), 3);
        let json = serde_json::to_string(&t).unwrap();
        let back: TaskId = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }
}
