//! Simulated containers: tasks as threads.
//!
//! A [`Container`] stands in for the Docker container the paper launches
//! per task: it runs a user [`TaskProgram`] on its own thread, iterating
//! through an [`EvaIterator`] so the worker can read its progress and
//! request cooperative checkpoints or stops.

use std::sync::Arc;
use std::thread::JoinHandle;

use std::sync::mpsc::Sender;

use eva_types::TaskId;

use crate::iterator::{EvaIterator, IteratorControl};
use crate::messages::TaskExit;

/// User task logic: one `step` per iteration plus optional state
/// serialization for checkpoints.
pub trait TaskProgram: Send + 'static {
    /// Performs one iteration of work.
    fn step(&mut self, iteration: u64);

    /// Serializes program state (the runtime stores the iteration position
    /// separately).
    fn checkpoint(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Restores program state from a checkpoint blob.
    fn restore(&mut self, _blob: &[u8]) {}
}

/// Internal completion record delivered to the owning worker.
#[derive(Debug)]
pub struct ContainerExit {
    /// The task that exited.
    pub task: TaskId,
    /// Why it exited.
    pub exit: TaskExit,
    /// Position + program state: resumable checkpoint when checkpointed,
    /// final-state snapshot when finished.
    pub checkpoint: Option<Vec<u8>>,
    /// Iterations completed in total (including restored position).
    pub completed: u64,
}

/// A running container.
pub struct Container {
    control: Arc<IteratorControl>,
    handle: Option<JoinHandle<()>>,
}

/// Encodes a checkpoint: little-endian position followed by program bytes.
pub fn encode_checkpoint(position: u64, program: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(8 + program.len());
    buf.extend_from_slice(&position.to_le_bytes());
    buf.extend_from_slice(program);
    buf
}

/// Decodes a checkpoint into `(position, program bytes)`, borrowing the
/// program bytes from `blob`.
pub fn decode_checkpoint(blob: &[u8]) -> (u64, &[u8]) {
    match blob.split_first_chunk::<8>() {
        Some((position, program)) => (u64::from_le_bytes(*position), program),
        None => (0, &[]),
    }
}

impl Container {
    /// Launches a task program in a new thread.
    ///
    /// The program iterates `0..total_iterations`; if `checkpoint` is
    /// given, execution resumes from the stored position. A `run_until`
    /// bound schedules a deterministic checkpoint at that exact iteration
    /// (the engine-ordered segment boundary); without it the program runs
    /// until completion or a cooperative request.
    ///
    /// `exits` may be any channel whose element converts from
    /// [`ContainerExit`], so callers can merge exits into a wider event
    /// stream (the worker does) or receive them directly (tests do).
    pub fn launch<E: From<ContainerExit> + Send + 'static>(
        task: TaskId,
        total_iterations: u64,
        run_until: Option<u64>,
        mut program: Box<dyn TaskProgram>,
        checkpoint: Option<Vec<u8>>,
        exits: Sender<E>,
    ) -> Self {
        let control = IteratorControl::new();
        if let Some(bound) = run_until {
            if bound < total_iterations {
                control.request_checkpoint_at(bound);
            }
        }
        let thread_control = control.clone();
        let handle = std::thread::spawn(move || {
            let position = match &checkpoint {
                Some(blob) => {
                    let (pos, state) = decode_checkpoint(blob);
                    program.restore(state);
                    pos
                }
                None => 0,
            };
            let mut iter =
                EvaIterator::new(0..total_iterations, thread_control.clone()).resume_from(position);
            while let Some(i) = iter.next_item() {
                program.step(i);
            }
            let completed = thread_control.iterations();
            let (exit, blob) = if completed >= total_iterations {
                // The final-state snapshot lets callers audit state
                // continuity across checkpoint/restore cycles.
                (
                    TaskExit::Finished,
                    Some(encode_checkpoint(completed, &program.checkpoint())),
                )
            } else if iter.checkpoint_pending() {
                (
                    TaskExit::Checkpointed,
                    Some(encode_checkpoint(completed, &program.checkpoint())),
                )
            } else {
                (TaskExit::Stopped, None)
            };
            let _ = exits.send(E::from(ContainerExit {
                task,
                exit,
                checkpoint: blob,
                completed,
            }));
        });
        Container {
            control,
            handle: Some(handle),
        }
    }

    /// Shared control block (for progress and checkpoint requests).
    pub fn control(&self) -> &Arc<IteratorControl> {
        &self.control
    }

    /// Requests a checkpoint at the next iteration boundary.
    pub fn request_checkpoint(&self) {
        self.control.request_checkpoint();
    }

    /// Requests a cooperative stop.
    pub fn request_stop(&self) {
        self.control.request_stop();
    }

    /// Waits for the container thread to finish.
    pub fn join(mut self) {
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Container {
    fn drop(&mut self) {
        self.control.request_stop();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eva_types::JobId;
    use std::sync::mpsc::channel;

    struct Summer {
        total: u64,
    }

    impl TaskProgram for Summer {
        fn step(&mut self, iteration: u64) {
            self.total += iteration;
        }

        fn checkpoint(&self) -> Vec<u8> {
            self.total.to_le_bytes().to_vec()
        }

        fn restore(&mut self, blob: &[u8]) {
            if blob.len() == 8 {
                let mut b = [0u8; 8];
                b.copy_from_slice(blob);
                self.total = u64::from_le_bytes(b);
            }
        }
    }

    fn tid() -> TaskId {
        TaskId::new(JobId(1), 0)
    }

    #[test]
    fn container_runs_to_completion() {
        let (tx, rx) = channel::<ContainerExit>();
        let c = Container::launch(tid(), 100, None, Box::new(Summer { total: 0 }), None, tx);
        let exit = rx.recv().unwrap();
        c.join();
        assert_eq!(exit.exit, TaskExit::Finished);
        assert_eq!(exit.completed, 100);
        // Finished exits snapshot the final program state.
        let (pos, state) = decode_checkpoint(exit.checkpoint.as_deref().unwrap());
        assert_eq!(pos, 100);
        assert_eq!(state.len(), 8);
        let expected: u64 = (0..100).sum();
        assert_eq!(u64::from_le_bytes(state[..8].try_into().unwrap()), expected);
    }

    #[test]
    fn bounded_segment_checkpoints_at_exact_iteration() {
        let (tx, rx) = channel::<ContainerExit>();
        let c = Container::launch(
            tid(),
            1_000_000,
            Some(25),
            Box::new(Summer { total: 0 }),
            None,
            tx.clone(),
        );
        let exit = rx.recv().unwrap();
        c.join();
        assert_eq!(exit.exit, TaskExit::Checkpointed);
        assert_eq!(exit.completed, 25, "stops at the planned boundary");
        let blob = exit.checkpoint.unwrap();
        let (pos, state) = decode_checkpoint(&blob);
        assert_eq!(pos, 25);
        let expected: u64 = (0..25).sum();
        assert_eq!(u64::from_le_bytes(state[..8].try_into().unwrap()), expected);

        // Resume the next segment from the blob; a bound past the total
        // means run to completion.
        let c2 = Container::launch(
            tid(),
            100,
            Some(101),
            Box::new(Summer { total: 0 }),
            Some(blob),
            tx,
        );
        let exit2 = rx.recv().unwrap();
        c2.join();
        assert_eq!(exit2.exit, TaskExit::Finished);
        assert_eq!(exit2.completed, 100);
        let (_, state2) = decode_checkpoint(exit2.checkpoint.as_deref().unwrap());
        let full: u64 = (0..100).sum();
        assert_eq!(u64::from_le_bytes(state2[..8].try_into().unwrap()), full);
    }

    #[test]
    fn checkpoint_restore_round_trip() {
        let (tx, rx) = channel();
        // A program slow enough to interrupt mid-flight.
        struct Slow(Summer);
        impl TaskProgram for Slow {
            fn step(&mut self, i: u64) {
                std::thread::sleep(std::time::Duration::from_millis(1));
                self.0.step(i);
            }
            fn checkpoint(&self) -> Vec<u8> {
                self.0.checkpoint()
            }
            fn restore(&mut self, blob: &[u8]) {
                self.0.restore(blob);
            }
        }
        let c = Container::launch::<ContainerExit>(
            tid(),
            10_000,
            None,
            Box::new(Slow(Summer { total: 0 })),
            None,
            tx.clone(),
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
        c.request_checkpoint();
        let exit = rx.recv().unwrap();
        c.join();
        assert_eq!(exit.exit, TaskExit::Checkpointed);
        let blob = exit.checkpoint.unwrap();
        let (pos, _) = decode_checkpoint(&blob);
        assert_eq!(pos, exit.completed);
        assert!(pos > 0 && pos < 10_000);

        // Resume: the restored container finishes the remaining work and
        // the final sum matches an uninterrupted run.
        let (tx2, rx2) = channel::<ContainerExit>();
        let c2 = Container::launch(
            tid(),
            10_000,
            None,
            Box::new(Slow(Summer { total: 0 })),
            Some(blob),
            tx2,
        );
        c2.request_stop(); // Stop quickly; we only check the resume position.
        let exit2 = rx2.recv().unwrap();
        c2.join();
        assert!(exit2.completed >= pos);
    }

    #[test]
    fn stop_without_checkpoint() {
        let (tx, rx) = channel::<ContainerExit>();
        struct Slow;
        impl TaskProgram for Slow {
            fn step(&mut self, _: u64) {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        let c = Container::launch(tid(), 1_000_000, None, Box::new(Slow), None, tx);
        std::thread::sleep(std::time::Duration::from_millis(10));
        c.request_stop();
        let exit = rx.recv().unwrap();
        c.join();
        assert_eq!(exit.exit, TaskExit::Stopped);
        assert!(exit.checkpoint.is_none());
    }

    #[test]
    fn checkpoint_codec_round_trip() {
        let blob = encode_checkpoint(42, b"state");
        let (pos, state) = decode_checkpoint(&blob);
        assert_eq!(pos, 42);
        assert_eq!(state, b"state");
        // Truncated blobs decode safely.
        assert_eq!(decode_checkpoint(b"xx"), (0, &[][..]));
    }
}
