//! Per-instance worker agents.
//!
//! One worker runs per cloud instance (the paper launches it during
//! instance setup). It receives commands from the master, manages the
//! instance's containers, and reports progress and exits back.
//!
//! The worker thread blocks on **one** merged event channel carrying both
//! master commands and container exits, so it parks on a genuine channel
//! wait between events — there is no polling loop anywhere on the
//! launch/checkpoint/migrate path.

use std::collections::HashMap;
use std::thread::JoinHandle;

use std::sync::mpsc::{channel, Receiver, Sender};

use eva_types::{InstanceId, TaskId};

use crate::container::{Container, ContainerExit, TaskProgram};
use crate::messages::{MasterToWorker, WorkerToMaster};

/// Factory producing the program a task runs (the stand-in for pulling
/// the task's Docker image).
pub type ProgramFactory = Box<dyn Fn(TaskId) -> Box<dyn TaskProgram> + Send>;

/// Everything a worker thread reacts to: a command from the master or an
/// exit record from one of its own containers, merged into one channel so
/// the worker blocks on a single `recv`.
enum WorkerEvent {
    Command(MasterToWorker),
    Exit(ContainerExit),
}

impl From<ContainerExit> for WorkerEvent {
    fn from(exit: ContainerExit) -> Self {
        WorkerEvent::Exit(exit)
    }
}

/// A worker agent bound to one instance.
pub struct Worker {
    events: Sender<WorkerEvent>,
    handle: Option<JoinHandle<()>>,
}

impl Worker {
    /// Spawns a worker thread for `instance`, reporting to `reports`.
    pub fn spawn(
        instance: InstanceId,
        reports: Sender<WorkerToMaster>,
        factory: ProgramFactory,
    ) -> Self {
        let (event_tx, event_rx) = channel::<WorkerEvent>();
        let exit_tx = event_tx.clone();
        let handle = std::thread::spawn(move || {
            worker_loop(instance, event_rx, exit_tx, reports, factory);
        });
        Worker {
            events: event_tx,
            handle: Some(handle),
        }
    }

    /// Sends a command to the worker.
    pub fn send(&self, cmd: MasterToWorker) {
        let _ = self.events.send(WorkerEvent::Command(cmd));
    }

    /// Requests shutdown and waits for the worker thread.
    pub fn shutdown(mut self) {
        let _ = self
            .events
            .send(WorkerEvent::Command(MasterToWorker::Shutdown));
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        let _ = self
            .events
            .send(WorkerEvent::Command(MasterToWorker::Shutdown));
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn worker_loop(
    instance: InstanceId,
    events: Receiver<WorkerEvent>,
    exit_tx: Sender<WorkerEvent>,
    reports: Sender<WorkerToMaster>,
    factory: ProgramFactory,
) {
    let mut containers: HashMap<TaskId, Container> = HashMap::new();
    loop {
        // The worker owns a sender clone (for container exits), so recv
        // only errors if the process is tearing the channel down.
        let Ok(event) = events.recv() else {
            return;
        };
        match event {
            WorkerEvent::Command(MasterToWorker::LaunchTask {
                task,
                total_iterations,
                run_until,
                checkpoint,
            }) => {
                let program = factory(task);
                let container = Container::launch(
                    task,
                    total_iterations,
                    run_until,
                    program,
                    checkpoint,
                    exit_tx.clone(),
                );
                containers.insert(task, container);
            }
            WorkerEvent::Command(MasterToWorker::CheckpointTask(task)) => {
                if let Some(c) = containers.get(&task) {
                    c.request_checkpoint();
                }
            }
            WorkerEvent::Command(MasterToWorker::ReportThroughput) => {
                for (task, c) in &containers {
                    let _ = reports.send(WorkerToMaster::Throughput {
                        instance,
                        task: *task,
                        completed: c.control().iterations(),
                    });
                }
            }
            WorkerEvent::Command(MasterToWorker::Shutdown) => {
                for (_, c) in containers.drain() {
                    c.request_stop();
                    c.join();
                }
                // Joined containers have already queued their exits;
                // forward them before announcing the stop.
                while let Ok(event) = events.try_recv() {
                    if let WorkerEvent::Exit(exit) = event {
                        let _ = reports.send(WorkerToMaster::TaskExited {
                            instance,
                            task: exit.task,
                            exit: exit.exit,
                            checkpoint: exit.checkpoint,
                            completed: exit.completed,
                        });
                    }
                }
                let _ = reports.send(WorkerToMaster::WorkerStopped(instance));
                return;
            }
            WorkerEvent::Exit(exit) => {
                if let Some(c) = containers.remove(&exit.task) {
                    c.join();
                }
                let _ = reports.send(WorkerToMaster::TaskExited {
                    instance,
                    task: exit.task,
                    exit: exit.exit,
                    checkpoint: exit.checkpoint,
                    completed: exit.completed,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::TaskExit;
    use eva_types::JobId;

    struct Noop;
    impl TaskProgram for Noop {
        fn step(&mut self, _: u64) {}
    }

    fn factory() -> ProgramFactory {
        Box::new(|_| Box::new(Noop))
    }

    #[test]
    fn worker_launches_and_reports_completion() {
        let (report_tx, report_rx) = channel();
        let worker = Worker::spawn(InstanceId(1), report_tx, factory());
        let task = TaskId::new(JobId(1), 0);
        worker.send(MasterToWorker::LaunchTask {
            task,
            total_iterations: 50,
            run_until: None,
            checkpoint: None,
        });
        let exited = report_rx.recv().unwrap();
        match exited {
            WorkerToMaster::TaskExited {
                exit, completed, ..
            } => {
                assert_eq!(exit, TaskExit::Finished);
                assert_eq!(completed, 50);
            }
            other => panic!("unexpected report {other:?}"),
        }
        worker.shutdown();
        let stopped = report_rx.recv().unwrap();
        assert!(matches!(
            stopped,
            WorkerToMaster::WorkerStopped(InstanceId(1))
        ));
    }

    #[test]
    fn worker_checkpoints_on_command() {
        struct Slow;
        impl TaskProgram for Slow {
            fn step(&mut self, _: u64) {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        let (report_tx, report_rx) = channel();
        let worker = Worker::spawn(InstanceId(2), report_tx, Box::new(|_| Box::new(Slow)));
        let task = TaskId::new(JobId(2), 0);
        worker.send(MasterToWorker::LaunchTask {
            task,
            total_iterations: 1_000_000,
            run_until: None,
            checkpoint: None,
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        worker.send(MasterToWorker::CheckpointTask(task));
        let exited = report_rx.recv().unwrap();
        match exited {
            WorkerToMaster::TaskExited {
                exit, checkpoint, ..
            } => {
                assert_eq!(exit, TaskExit::Checkpointed);
                assert!(checkpoint.is_some());
            }
            other => panic!("unexpected report {other:?}"),
        }
        worker.shutdown();
    }

    #[test]
    fn worker_runs_bounded_segment_to_its_boundary() {
        let (report_tx, report_rx) = channel();
        let worker = Worker::spawn(InstanceId(4), report_tx, factory());
        let task = TaskId::new(JobId(4), 0);
        worker.send(MasterToWorker::LaunchTask {
            task,
            total_iterations: 1_000_000,
            run_until: Some(33),
            checkpoint: None,
        });
        let exited = report_rx.recv().unwrap();
        match exited {
            WorkerToMaster::TaskExited {
                exit,
                completed,
                checkpoint,
                ..
            } => {
                assert_eq!(exit, TaskExit::Checkpointed);
                assert_eq!(completed, 33, "exact, deterministic boundary");
                assert!(checkpoint.is_some());
            }
            other => panic!("unexpected report {other:?}"),
        }
        worker.shutdown();
    }

    #[test]
    fn throughput_reports_cover_running_tasks() {
        struct Slow;
        impl TaskProgram for Slow {
            fn step(&mut self, _: u64) {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        let (report_tx, report_rx) = channel();
        let worker = Worker::spawn(InstanceId(3), report_tx, Box::new(|_| Box::new(Slow)));
        let task = TaskId::new(JobId(3), 0);
        worker.send(MasterToWorker::LaunchTask {
            task,
            total_iterations: 1_000_000,
            run_until: None,
            checkpoint: None,
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        worker.send(MasterToWorker::ReportThroughput);
        let report = report_rx.recv().unwrap();
        match report {
            WorkerToMaster::Throughput { completed, .. } => assert!(completed > 0),
            other => panic!("unexpected report {other:?}"),
        }
        worker.shutdown();
    }
}
