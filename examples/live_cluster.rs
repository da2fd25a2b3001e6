//! Live execution demo: the master–worker runtime with EvaIterator.
//!
//! Spins up three in-process "instances", launches a synthetic training
//! task as a container, polls its progress (the iteration count its
//! EvaIterator keeps), and performs a live checkpoint → stash → resume
//! migration — the §5 control plane without a cloud account.
//!
//! Run with: `cargo run --release --example live_cluster`

use std::time::Duration;

use eva::exec::{Master, TaskProgram, WorkerToMaster};
use eva::prelude::*;

/// A synthetic "training step": a little CPU work per iteration.
struct TrainingTask {
    loss: f64,
}

impl TaskProgram for TrainingTask {
    fn step(&mut self, iteration: u64) {
        // Simulate work.
        std::thread::sleep(Duration::from_micros(500));
        self.loss = 1.0 / (iteration + 1) as f64;
    }

    fn checkpoint(&self) -> Vec<u8> {
        self.loss.to_le_bytes().to_vec()
    }

    fn restore(&mut self, blob: &[u8]) {
        if let Ok(loss) = blob.try_into() {
            self.loss = f64::from_le_bytes(loss);
        }
    }
}

fn main() {
    let mut master = Master::new();
    for i in 0..3u64 {
        master.register_instance(
            InstanceId(i),
            Box::new(|_| Box::new(TrainingTask { loss: 1.0 })),
        );
    }
    println!("Cluster up: {} workers", master.worker_count());

    let job = JobId(1);
    let task = TaskId::new(job, 0);
    master.launch_task(InstanceId(0), task, 5_000).unwrap();
    println!("Launched {task} on i-000000 (5,000 iterations)");

    std::thread::sleep(Duration::from_millis(300));
    master.poll_throughput();
    // Block until the worker's progress report is in (only i-000000 runs
    // a task, so one report comes back).
    while let Some(report) = master.recv_report(Duration::from_secs(5)) {
        if matches!(report, WorkerToMaster::Throughput { .. }) {
            break;
        }
    }
    let before = master.task_handle(task).unwrap();
    println!("Progress before migration: {} iterations", before.completed);

    println!("Migrating {task} to i-000001 (checkpoint → S3 stand-in → resume)...");
    master
        .migrate_task(task, InstanceId(1), Duration::from_secs(10))
        .unwrap();

    // Block on the exit report — a channel wait with a deadline, not a
    // poll loop.
    match master.wait_task_exit(task, Duration::from_secs(60)) {
        Ok(info) => println!(
            "Task finished ({:?}) with {} iterations — no work lost across migration.",
            info.exit, info.completed
        ),
        Err(e) => println!("(timed out waiting — {e:?})"),
    }
    master.shutdown();
}
