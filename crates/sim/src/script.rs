//! Execution scripts: the engine-ordered control-plane action stream a
//! world-model run emits.
//!
//! A [`ClusterSim`](crate::ClusterSim) run, with recording enabled, logs
//! every control-plane action it takes — task start/resume, checkpoint
//! for migration, fault kill, job completion — together with the
//! job-progress fraction at that instant. The [`crate::backend`] layer
//! replays such a script through the real `eva-exec` master/worker
//! runtime: fractions map to exact iteration positions, so every live
//! checkpoint lands on a deterministic boundary.

use eva_types::{InstanceId, JobId, SimTime, TaskId};

/// One recorded control-plane action.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecAction {
    /// Simulated instant the action was taken.
    pub at: SimTime,
    /// What happened.
    pub kind: ExecActionKind,
}

/// The control-plane action kinds a world run emits.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecActionKind {
    /// A task began (or resumed) running on an instance; `progress` is
    /// the fraction of its job's work already done at that instant.
    Start {
        /// The task.
        task: TaskId,
        /// Where it runs.
        instance: InstanceId,
        /// Job-progress fraction in `[0, 1]`.
        progress: f64,
    },
    /// A running task was checkpointed off its instance (the first half
    /// of a migration); `progress` is the fraction at the checkpoint.
    Stop {
        /// The task.
        task: TaskId,
        /// Job-progress fraction in `[0, 1]`.
        progress: f64,
    },
    /// A running task was killed by an injected fault (spot preemption or
    /// worker crash). The paper-style preemption warning lets the task
    /// rescue-checkpoint at the kill instant — `progress` is the fraction
    /// at that boundary — but the live runtime confiscates the blob after
    /// collecting the exit, so the next resume re-executes from scratch.
    Kill {
        /// The task.
        task: TaskId,
        /// Job-progress fraction in `[0, 1]` at the kill instant.
        progress: f64,
    },
    /// Every task of the job finished its work.
    JobDone {
        /// The job.
        job: JobId,
    },
}

/// The full action stream of one recorded run, in engine dispatch order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecScript {
    /// Actions in the order the engine dispatched them.
    pub actions: Vec<ExecAction>,
}

impl ExecScript {
    /// The jobs that completed during the run.
    pub fn completed_jobs(&self) -> impl Iterator<Item = JobId> + '_ {
        self.actions.iter().filter_map(|a| match a.kind {
            ExecActionKind::JobDone { job } => Some(job),
            _ => None,
        })
    }
}
