//! Job and task specifications, as submitted by users (§5).
//!
//! A job consists of one or more tasks. Each task declares resource demands
//! — optionally different per instance family, mirroring the paper's
//! "multiple resource demand vectors" (e.g. fewer CPUs on C7i than on P3
//! because C7i cores are faster) — plus the migration delays (checkpoint and
//! launch) measured per workload in Table 7.
//!
//! A [`DemandSpec`] is plain `Copy` data: the default vector and two inline
//! override slots — two being what this repository's catalogs and traces
//! produce — each a family name zero-padded into an 8-byte tag (`p3`, `c7i`,
//! `r7i` or a short custom name) with its vector. Used slots come first, in
//! name order, and unused ones are all zero, so `==` is structural. The wire
//! form is the map it has always been, `{"default":…,"per_family":{name:
//! vector,…}}` with keys in name order. A third override, or a name that is
//! empty, over eight bytes or holds a NUL, is an error from `Deserialize`
//! and a panic in the builder: never a truncation.

use std::collections::BTreeMap;

use serde::{Deserialize, Error, Serialize, Value};

use crate::error::EvaError;
use crate::ids::{JobId, TaskId, WorkloadKind};
use crate::resources::ResourceVector;
use crate::time::{SimDuration, SimTime};

/// Family overrides one [`DemandSpec`] holds.
const MAX_OVERRIDES: usize = 2;
/// Bytes of a family tag.
const TAG_BYTES: usize = 8;

/// A family name, zero-padded; all zeroes marks an unused slot.
type FamilyTag = [u8; TAG_BYTES];
const UNUSED: FamilyTag = [0; TAG_BYTES];

/// The tag of `family`; `None` for a name no override can be held under.
fn family_tag(family: &str) -> Option<FamilyTag> {
    let bytes = family.as_bytes();
    let mut tag = UNUSED;
    tag.get_mut(..bytes.len())?.copy_from_slice(bytes);
    (!bytes.is_empty() && !bytes.contains(&0)).then_some(tag)
}

/// Per-family resource demands for one task.
///
/// `default` applies to any family without an explicit override; the paper's
/// example is a task demanding `[0, 8, 8]` on P3 but `[0, 4, 8]` on C7i.
///
/// # Examples
///
/// ```
/// use eva_types::{DemandSpec, ResourceVector};
///
/// let spec = DemandSpec::uniform(ResourceVector::new(0, 8, 8 * 1024))
///     .with_family_override("c7i", ResourceVector::new(0, 4, 8 * 1024));
/// assert_eq!(spec.for_family("p3").cpu, 8);
/// assert_eq!(spec.for_family("c7i").cpu, 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DemandSpec {
    /// Demand used for families without an override.
    pub default: ResourceVector,
    /// Family-specific overrides, by family name (e.g. `"c7i"`).
    per_family: FamilyOverrides,
}

impl DemandSpec {
    /// A demand identical across all instance families.
    pub fn uniform(demand: ResourceVector) -> Self {
        DemandSpec {
            default: demand,
            per_family: FamilyOverrides::NONE,
        }
    }

    /// Adds a family-specific override (builder style), replacing an
    /// earlier one for the same family. Panics on one the spec cannot hold
    /// (module docs).
    pub fn with_family_override(mut self, family: &str, demand: ResourceVector) -> Self {
        if let Err(e) = self.per_family.set(family, demand) {
            panic!("{e}");
        }
        self
    }

    /// The demand vector to use on an instance of the given family.
    pub fn for_family(&self, family: &str) -> ResourceVector {
        let slots = &self.per_family.0;
        // Used slots come first: a uniform spec never reads the name.
        if slots[0].0 == UNUSED {
            return self.default;
        }
        // A name without a tag has no override.
        let found = family_tag(family).and_then(|tag| slots.iter().find(|(t, _)| *t == tag));
        found.map_or(self.default, |(_, d)| *d)
    }

    /// The spec with `f` applied to the default and to every override.
    pub fn map(mut self, f: impl Fn(ResourceVector) -> ResourceVector) -> Self {
        self.default = f(self.default);
        let held = self.per_family.0.iter_mut().filter(|(t, _)| *t != UNUSED);
        held.for_each(|(_, d)| *d = f(*d));
        self
    }
}

/// The override slots of a [`DemandSpec`] (module docs). Trace files,
/// content fingerprints and cache keys are made of its wire form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FamilyOverrides([(FamilyTag, ResourceVector); MAX_OVERRIDES]);

impl FamilyOverrides {
    const NONE: Self = FamilyOverrides([(UNUSED, ResourceVector::ZERO); MAX_OVERRIDES]);

    fn set(&mut self, family: &str, demand: ResourceVector) -> Result<(), EvaError> {
        let reject = |why| {
            EvaError::InvalidInput(format!(
                "family override {family:?}: {why} (a demand holds {MAX_OVERRIDES} \
                 overrides, each named by 1 to {TAG_BYTES} bytes without NUL)"
            ))
        };
        let tag = family_tag(family).ok_or_else(|| reject("unusable name"))?;
        let mut slots = self.0.iter_mut();
        let slot = slots.find(|(t, _)| *t == tag || *t == UNUSED);
        *slot.ok_or_else(|| reject("no slot left"))? = (tag, demand);
        self.0.sort_by_key(|(t, _)| (*t == UNUSED, *t));
        Ok(())
    }
}

impl Serialize for FamilyOverrides {
    fn serialize(&self) -> Value {
        let held = self.0.iter().filter(|(t, _)| *t != UNUSED);
        let named = held.map(|(t, d)| (String::from_utf8_lossy(t).replace('\0', ""), *d));
        named.collect::<BTreeMap<_, _>>().serialize()
    }
}

impl Deserialize for FamilyOverrides {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        let mut held = FamilyOverrides::NONE;
        for (family, demand) in &BTreeMap::<String, ResourceVector>::deserialize(value)? {
            held.set(family, *demand).map_err(Error::custom)?;
        }
        Ok(held)
    }
}

/// Specification of a single task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskSpec {
    /// The task's identity.
    pub id: TaskId,
    /// The workload this task runs (indexes interference and delay data).
    pub workload: WorkloadKind,
    /// Resource demands, possibly per instance family.
    pub demand: DemandSpec,
    /// Delay to checkpoint the task before a migration (Table 7).
    pub checkpoint_delay: SimDuration,
    /// Delay to launch (or relaunch) the task on an instance (Table 7).
    pub launch_delay: SimDuration,
}

impl TaskSpec {
    /// Total migration delay: checkpoint on the source plus launch on the
    /// destination.
    pub fn migration_delay(&self) -> SimDuration {
        self.checkpoint_delay + self.launch_delay
    }
}

/// Specification of a submitted job.
///
/// `duration_at_full_tput` is the wall-clock time the job needs when every
/// task runs at normalized throughput 1.0. Under interference the job
/// progresses proportionally slower, so the realized JCT grows — this is
/// exactly the mechanism behind the paper's cost/JCT trade-off.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// The job's identity.
    pub id: JobId,
    /// Submission time.
    pub arrival: SimTime,
    /// The job's tasks (all tasks of a data-parallel job are identical in
    /// the paper's traces, but this is not assumed anywhere).
    pub tasks: Vec<TaskSpec>,
    /// Work expressed as time-at-full-throughput.
    pub duration_at_full_tput: SimDuration,
    /// Whether tasks are performance-interdependent (data-parallel pattern,
    /// §4.4): one straggler slows every sibling.
    pub gang_coupled: bool,
}

impl JobSpec {
    /// Number of tasks in the job.
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// True for single-task jobs.
    pub fn is_single_task(&self) -> bool {
        self.tasks.len() == 1
    }

    /// Looks up a task spec by id.
    pub fn task(&self, id: TaskId) -> Option<&TaskSpec> {
        self.tasks.iter().find(|t| t.id == id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_task(job: u64, index: u32) -> TaskSpec {
        TaskSpec {
            id: TaskId::new(JobId(job), index),
            workload: WorkloadKind(0),
            demand: DemandSpec::uniform(ResourceVector::new(1, 4, 24 * 1024)),
            checkpoint_delay: SimDuration::from_secs(2),
            launch_delay: SimDuration::from_secs(80),
        }
    }

    #[test]
    fn demand_spec_overrides_by_family() {
        let spec = DemandSpec::uniform(ResourceVector::new(0, 12, 40 * 1024))
            .with_family_override("c7i", ResourceVector::new(0, 6, 40 * 1024))
            .with_family_override("r7i", ResourceVector::new(0, 6, 40 * 1024));
        assert_eq!(spec.for_family("p3").cpu, 12);
        assert_eq!(spec.for_family("c7i").cpu, 6);
        assert_eq!(spec.for_family("unknown").cpu, 12);
    }

    #[test]
    fn migration_delay_sums_checkpoint_and_launch() {
        let t = demo_task(1, 0);
        assert_eq!(t.migration_delay(), SimDuration::from_secs(82));
    }

    #[test]
    fn job_lookup() {
        let job = JobSpec {
            id: JobId(1),
            arrival: SimTime::ZERO,
            tasks: vec![demo_task(1, 0), demo_task(1, 1)],
            duration_at_full_tput: SimDuration::from_hours(2),
            gang_coupled: true,
        };
        assert_eq!(job.num_tasks(), 2);
        assert!(!job.is_single_task());
        assert!(job.task(TaskId::new(JobId(1), 1)).is_some());
        assert!(job.task(TaskId::new(JobId(1), 2)).is_none());
    }

    #[test]
    fn job_spec_serde_round_trip() {
        let job = JobSpec {
            id: JobId(9),
            arrival: SimTime::from_secs(60),
            tasks: vec![demo_task(9, 0)],
            duration_at_full_tput: SimDuration::from_mins(30),
            gang_coupled: false,
        };
        let json = serde_json::to_string(&job).unwrap();
        let back: JobSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(job, back);
    }
}
