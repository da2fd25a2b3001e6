//! The master↔worker message protocol (`std::sync::mpsc` stand-in for
//! gRPC).

use eva_types::{InstanceId, TaskId};

/// Why a task's container exited.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskExit {
    /// All work completed.
    Finished,
    /// Checkpointed on request or at its iteration bound; the master
    /// stashes the payload.
    Checkpointed,
    /// Stopped on request without a checkpoint.
    Stopped,
}

/// Commands the master sends to a worker.
#[derive(Debug, Clone)]
pub enum MasterToWorker {
    /// Launch a task, optionally resuming from a checkpoint blob.
    LaunchTask {
        /// The task to launch.
        task: TaskId,
        /// Total iterations the task must complete.
        total_iterations: u64,
        /// Exit with a checkpoint upon reaching this iteration. Bounded
        /// launches are how engine-ordered execution segments a task: the
        /// container checkpoints at exactly the planned boundary instead
        /// of being interrupted at an arbitrary real-time instant.
        run_until: Option<u64>,
        /// Checkpoint to resume from, if any.
        checkpoint: Option<Vec<u8>>,
    },
    /// Checkpoint a running task at its next iteration boundary (it will
    /// exit with a checkpoint blob).
    CheckpointTask(TaskId),
    /// Report the progress of all running tasks.
    ReportThroughput,
    /// Shut the worker down.
    Shutdown,
}

/// Reports a worker sends to the master.
#[derive(Debug, Clone)]
pub enum WorkerToMaster {
    /// Progress of one running task, in reply to `ReportThroughput`.
    Throughput {
        /// The worker's instance.
        instance: InstanceId,
        /// The task.
        task: TaskId,
        /// Total completed iterations.
        completed: u64,
    },
    /// A task's container exited.
    TaskExited {
        /// The worker's instance.
        instance: InstanceId,
        /// The task.
        task: TaskId,
        /// Exit reason.
        exit: TaskExit,
        /// Position + program state: the resumable checkpoint for
        /// `TaskExit::Checkpointed`, the final-state snapshot for
        /// `TaskExit::Finished` (used to audit state continuity across
        /// migrations), `None` for `TaskExit::Stopped`.
        checkpoint: Option<Vec<u8>>,
        /// Completed iterations at exit.
        completed: u64,
    },
    /// The worker has shut down.
    WorkerStopped(InstanceId),
}

#[cfg(test)]
mod tests {
    use super::*;
    use eva_types::JobId;

    #[test]
    fn messages_are_cloneable_and_debuggable() {
        let m = MasterToWorker::LaunchTask {
            task: TaskId::new(JobId(1), 0),
            total_iterations: 100,
            run_until: Some(40),
            checkpoint: Some(b"ckpt".to_vec()),
        };
        let m2 = m.clone();
        assert!(format!("{m2:?}").contains("LaunchTask"));

        let r = WorkerToMaster::TaskExited {
            instance: InstanceId(1),
            task: TaskId::new(JobId(1), 0),
            exit: TaskExit::Checkpointed,
            checkpoint: None,
            completed: 42,
        };
        assert!(format!("{r:?}").contains("Checkpointed"));
    }
}
