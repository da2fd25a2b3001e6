//! The master: instance/worker registry, task routing, and migrations.
//!
//! The master mirrors the paper's centralized control plane: it launches a
//! worker per instance, routes task launches, polls progress on request,
//! and drives the checkpoint → store → relaunch cycle of a migration. Its
//! checkpoint store, a map from task to blob, stands in for the paper's
//! shared S3 bucket.
//!
//! All waiting happens as blocking channel receives with a deadline
//! ([`Master::wait_task_exit`], [`Master::recv_report`]) — the master never
//! spin-sleeps.

use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::{Duration, Instant};

use eva_types::{EvaError, InstanceId, Result, TaskId};

use crate::messages::{MasterToWorker, TaskExit, WorkerToMaster};
use crate::worker::{ProgramFactory, Worker};

/// Tracked status of a task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskStatus {
    /// Launched on the given instance.
    Running(InstanceId),
    /// Checkpointed and awaiting relaunch.
    Checkpointed,
    /// Finished all iterations.
    Finished,
}

/// Book-keeping entry for a submitted task.
#[derive(Debug, Clone)]
pub struct TaskHandle {
    /// Current status.
    pub status: TaskStatus,
    /// Total iterations the task runs.
    pub total_iterations: u64,
    /// Last reported completed iterations.
    pub completed: u64,
}

/// One task's exit, as observed by the master.
#[derive(Debug, Clone)]
pub struct TaskExitInfo {
    /// The task that exited.
    pub task: TaskId,
    /// The instance it exited on.
    pub instance: InstanceId,
    /// Why it exited.
    pub exit: TaskExit,
    /// Checkpoint / final-state blob, if the exit carried one.
    pub checkpoint: Option<Vec<u8>>,
    /// Completed iterations at exit.
    pub completed: u64,
}

/// The centralized master. One thread owns it: every method that touches
/// the task table, the checkpoint store or the report channel takes
/// `&mut self`.
pub struct Master {
    workers: HashMap<InstanceId, Worker>,
    reports_tx: Sender<WorkerToMaster>,
    reports_rx: Receiver<WorkerToMaster>,
    /// Checkpoint blobs by task (the shared S3 bucket of the paper).
    checkpoints: HashMap<TaskId, Vec<u8>>,
    tasks: HashMap<TaskId, TaskHandle>,
    /// Exits applied but not yet taken by [`Master::wait_task_exit`].
    exits: HashMap<TaskId, TaskExitInfo>,
}

impl Default for Master {
    fn default() -> Self {
        Master::new()
    }
}

impl Master {
    /// Creates an empty master.
    pub fn new() -> Self {
        let (reports_tx, reports_rx) = channel();
        Master {
            workers: HashMap::new(),
            reports_tx,
            reports_rx,
            checkpoints: HashMap::new(),
            tasks: HashMap::new(),
            exits: HashMap::new(),
        }
    }

    /// Registers an instance by spawning its worker.
    pub fn register_instance(&mut self, instance: InstanceId, factory: ProgramFactory) {
        let worker = Worker::spawn(instance, self.reports_tx.clone(), factory);
        self.workers.insert(instance, worker);
    }

    /// True when `instance` has a registered worker.
    pub fn has_instance(&self, instance: InstanceId) -> bool {
        self.workers.contains_key(&instance)
    }

    /// Number of registered workers.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Launches a task on an instance, running to completion.
    pub fn launch_task(
        &mut self,
        instance: InstanceId,
        task: TaskId,
        total_iterations: u64,
    ) -> Result<()> {
        self.launch_segment(instance, task, total_iterations, None, None)
    }

    /// Launches one execution segment of a task: start (or resume from
    /// `checkpoint`) on `instance` and run until `run_until` — the
    /// engine-planned segment boundary — or to completion when unbounded.
    pub fn launch_segment(
        &mut self,
        instance: InstanceId,
        task: TaskId,
        total_iterations: u64,
        run_until: Option<u64>,
        checkpoint: Option<Vec<u8>>,
    ) -> Result<()> {
        let worker = self
            .workers
            .get(&instance)
            .ok_or(EvaError::UnknownInstance(instance))?;
        let resumed_at = checkpoint
            .as_ref()
            .map(|b| crate::container::decode_checkpoint(b).0)
            .unwrap_or(0);
        // An exit nobody waited for belongs to an earlier segment.
        self.exits.remove(&task);
        self.tasks.insert(
            task,
            TaskHandle {
                status: TaskStatus::Running(instance),
                total_iterations,
                completed: resumed_at,
            },
        );
        worker.send(MasterToWorker::LaunchTask {
            task,
            total_iterations,
            run_until,
            checkpoint,
        });
        Ok(())
    }

    /// Current handle for a task.
    pub fn task_handle(&self, task: TaskId) -> Option<TaskHandle> {
        self.tasks.get(&task).cloned()
    }

    /// Asks every worker to report the progress of its running tasks.
    pub fn poll_throughput(&self) {
        for worker in self.workers.values() {
            worker.send(MasterToWorker::ReportThroughput);
        }
    }

    /// `task`'s exit: one an earlier receive applied and nobody took yet,
    /// or else the next to arrive, applying every other report that
    /// streams in meanwhile. Fails once `timeout` expires.
    pub fn wait_task_exit(&mut self, task: TaskId, timeout: Duration) -> Result<TaskExitInfo> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(info) = self.exits.remove(&task) {
                return Ok(info);
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            let report = self.reports_rx.recv_timeout(remaining).map_err(|_| {
                EvaError::InvalidInput(format!("timed out waiting for exit of {task}"))
            })?;
            self.apply_report(report);
        }
    }

    /// Stashes a task's checkpoint blob, replacing any earlier one.
    fn stash_checkpoint(&mut self, task: TaskId, blob: &[u8]) {
        self.checkpoints.insert(task, blob.to_vec());
    }

    /// True when a checkpoint blob is stored for `task`.
    pub fn has_checkpoint(&self, task: TaskId) -> bool {
        self.checkpoints.contains_key(&task)
    }

    /// Fetches a task's stored checkpoint blob.
    pub fn fetch_checkpoint(&mut self, task: TaskId) -> Option<Vec<u8>> {
        self.checkpoints.get(&task).cloned()
    }

    /// Deletes a task's stored checkpoint blob (fault injection: a
    /// dropped or confiscated checkpoint). The task's next launch then
    /// fetches nothing and re-executes from iteration zero. Returns true
    /// when a blob was actually removed.
    pub fn drop_checkpoint(&mut self, task: TaskId) -> bool {
        self.checkpoints.remove(&task).is_some()
    }

    /// Migrates a task: checkpoint on the source, stash the blob, relaunch
    /// on the destination from the checkpoint. Blocks until the relaunch
    /// is issued or `timeout` expires.
    pub fn migrate_task(&mut self, task: TaskId, to: InstanceId, timeout: Duration) -> Result<()> {
        let (from, total) = match self.tasks.get(&task) {
            Some(TaskHandle {
                status: TaskStatus::Running(i),
                total_iterations,
                ..
            }) => (*i, *total_iterations),
            _ => {
                return Err(EvaError::InvalidInput(format!(
                    "task {task} is not running"
                )))
            }
        };
        let source = self
            .workers
            .get(&from)
            .ok_or(EvaError::UnknownInstance(from))?;
        source.send(MasterToWorker::CheckpointTask(task));

        // apply_report stashes the checkpointed exit's blob before
        // wait_task_exit returns it.
        let info = self.wait_task_exit(task, timeout)?;
        if info.exit != TaskExit::Checkpointed {
            return Err(EvaError::InvalidInput(format!(
                "task {task} exited with {:?} instead of a checkpoint",
                info.exit
            )));
        }

        if !self.workers.contains_key(&to) {
            return Err(EvaError::UnknownInstance(to));
        }
        let stored = self
            .fetch_checkpoint(task)
            .ok_or_else(|| EvaError::InvalidInput(format!("no stored checkpoint for {task}")))?;
        self.launch_segment(to, task, total, None, Some(stored))?;
        Ok(())
    }

    /// Blocks for the next report with a deadline (a real channel wait,
    /// not a sleep loop); `None` once `timeout` expires.
    pub fn recv_report(&mut self, timeout: Duration) -> Option<WorkerToMaster> {
        let report = self.reports_rx.recv_timeout(timeout).ok()?;
        self.apply_report(report.clone());
        Some(report)
    }

    fn apply_report(&mut self, report: WorkerToMaster) {
        match report {
            WorkerToMaster::TaskExited {
                instance,
                task,
                exit,
                checkpoint,
                completed,
            } => {
                // Checkpoint blobs are stashed on whichever receive path
                // applies the exit first, so no consumer of the report
                // channel can strand one. The exit is owned here, so the
                // store's copy is the only one made.
                if exit == TaskExit::Checkpointed {
                    if let Some(blob) = &checkpoint {
                        self.stash_checkpoint(task, blob);
                    }
                }
                if let Some(h) = self.tasks.get_mut(&task) {
                    h.completed = completed;
                    h.status = match exit {
                        TaskExit::Finished => TaskStatus::Finished,
                        TaskExit::Checkpointed => TaskStatus::Checkpointed,
                        TaskExit::Stopped => TaskStatus::Checkpointed,
                    };
                }
                let info = TaskExitInfo {
                    task,
                    instance,
                    exit,
                    checkpoint,
                    completed,
                };
                self.exits.insert(task, info);
            }
            WorkerToMaster::Throughput {
                task, completed, ..
            } => {
                if let Some(h) = self.tasks.get_mut(&task) {
                    h.completed = completed;
                }
            }
            _ => {}
        }
    }

    /// Shuts every worker down (each shutdown is a blocking thread join
    /// behind a channel send — no polling).
    pub fn shutdown(mut self) {
        for (_, worker) in self.workers.drain() {
            worker.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::TaskProgram;
    use eva_types::JobId;

    struct Fast;
    impl TaskProgram for Fast {
        fn step(&mut self, _: u64) {}
    }

    struct Slow;
    impl TaskProgram for Slow {
        fn step(&mut self, _: u64) {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn launch_runs_to_finish() {
        let mut master = Master::new();
        master.register_instance(InstanceId(0), Box::new(|_| Box::new(Fast)));
        let task = TaskId::new(JobId(1), 0);
        master.launch_task(InstanceId(0), task, 100).unwrap();
        // Block on the exit report — no drain/sleep polling.
        let info = master.wait_task_exit(task, Duration::from_secs(5)).unwrap();
        assert_eq!(info.exit, TaskExit::Finished);
        assert_eq!(info.completed, 100);
        let h = master.task_handle(task).unwrap();
        assert_eq!(h.status, TaskStatus::Finished);
        assert_eq!(h.completed, 100);
        master.shutdown();
    }

    #[test]
    fn migration_checkpoints_and_resumes() {
        let mut master = Master::new();
        master.register_instance(InstanceId(0), Box::new(|_| Box::new(Slow)));
        master.register_instance(InstanceId(1), Box::new(|_| Box::new(Slow)));
        let task = TaskId::new(JobId(2), 0);
        master.launch_task(InstanceId(0), task, 1_000_000).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        master
            .migrate_task(task, InstanceId(1), Duration::from_secs(5))
            .unwrap();
        let h = master.task_handle(task).unwrap();
        assert_eq!(h.status, TaskStatus::Running(InstanceId(1)));
        assert!(h.completed > 0);
        assert!(master.fetch_checkpoint(task).is_some());
        master.shutdown();
    }

    #[test]
    fn bounded_segments_relay_deterministically() {
        // Segment a task into engine-planned [0,40) and [40,100) ranges:
        // the checkpointed position is exact, so so is the resumed run.
        let mut master = Master::new();
        master.register_instance(InstanceId(0), Box::new(|_| Box::new(Fast)));
        master.register_instance(InstanceId(1), Box::new(|_| Box::new(Fast)));
        let task = TaskId::new(JobId(3), 0);
        master
            .launch_segment(InstanceId(0), task, 100, Some(40), None)
            .unwrap();
        let info = master.wait_task_exit(task, Duration::from_secs(5)).unwrap();
        assert_eq!(info.exit, TaskExit::Checkpointed);
        assert_eq!(info.completed, 40);
        master.stash_checkpoint(task, info.checkpoint.as_ref().unwrap());
        let stored = master.fetch_checkpoint(task);
        master
            .launch_segment(InstanceId(1), task, 100, None, stored)
            .unwrap();
        let done = master.wait_task_exit(task, Duration::from_secs(5)).unwrap();
        assert_eq!(done.exit, TaskExit::Finished);
        assert_eq!(done.completed, 100);
        master.shutdown();
    }

    #[test]
    fn dropped_checkpoint_forces_rerun_from_zero() {
        let mut master = Master::new();
        master.register_instance(InstanceId(0), Box::new(|_| Box::new(Fast)));
        let task = TaskId::new(JobId(7), 0);
        master
            .launch_segment(InstanceId(0), task, 100, Some(60), None)
            .unwrap();
        let info = master.wait_task_exit(task, Duration::from_secs(5)).unwrap();
        assert_eq!(info.exit, TaskExit::Checkpointed);
        assert!(master.fetch_checkpoint(task).is_some());
        assert!(master.drop_checkpoint(task));
        assert!(!master.drop_checkpoint(task), "second drop finds nothing");
        assert!(master.fetch_checkpoint(task).is_none());
        // Resume without a blob: the container restarts from zero and
        // must re-execute everything.
        let stored = master.fetch_checkpoint(task);
        master
            .launch_segment(InstanceId(0), task, 100, None, stored)
            .unwrap();
        let done = master.wait_task_exit(task, Duration::from_secs(5)).unwrap();
        assert_eq!(done.exit, TaskExit::Finished);
        assert_eq!(done.completed, 100);
        master.shutdown();
    }

    #[test]
    fn exit_received_elsewhere_is_still_waited_for() {
        let mut master = Master::new();
        master.register_instance(InstanceId(0), Box::new(|_| Box::new(Fast)));
        let task = TaskId::new(JobId(8), 0);
        master.launch_task(InstanceId(0), task, 10).unwrap();
        // Take the exit report off the channel before anyone waits for it.
        loop {
            match master.recv_report(Duration::from_secs(5)) {
                Some(WorkerToMaster::TaskExited { .. }) => break,
                Some(_) => {}
                None => panic!("no exit report"),
            }
        }
        let info = master.wait_task_exit(task, Duration::ZERO).unwrap();
        assert_eq!((info.exit, info.completed), (TaskExit::Finished, 10));
        assert!(master.wait_task_exit(task, Duration::ZERO).is_err());
        master.shutdown();
    }

    #[test]
    fn checkpoint_store_replaces_and_drops() {
        let mut master = Master::new();
        let task = TaskId::new(JobId(9), 0);
        master.stash_checkpoint(task, &[1, 2, 3]);
        assert_eq!(master.fetch_checkpoint(task), Some(vec![1, 2, 3]));
        master.stash_checkpoint(task, &[4]);
        assert_eq!(master.fetch_checkpoint(task), Some(vec![4]));
        assert!(master.drop_checkpoint(task));
        assert!(!master.drop_checkpoint(task));
        assert_eq!(master.fetch_checkpoint(task), None);
    }

    #[test]
    fn launching_on_unknown_instance_fails() {
        let mut master = Master::new();
        let err = master
            .launch_task(InstanceId(9), TaskId::new(JobId(1), 0), 10)
            .unwrap_err();
        assert!(matches!(err, EvaError::UnknownInstance(_)));
    }

    #[test]
    fn migrating_idle_task_fails() {
        let mut master = Master::new();
        master.register_instance(InstanceId(0), Box::new(|_| Box::new(Fast)));
        let err = master
            .migrate_task(
                TaskId::new(JobId(5), 0),
                InstanceId(0),
                Duration::from_secs(1),
            )
            .unwrap_err();
        assert!(matches!(err, EvaError::InvalidInput(_)));
        master.shutdown();
    }
}
