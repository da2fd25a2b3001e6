//! Execution backends: *how* a cell's schedule executes.
//!
//! The paper validates its simulator against the real master/worker
//! runtime (Table 12). This module makes that comparison a first-class
//! axis: [`BackendKind::run`] turns a [`SimConfig`] into a [`SimReport`],
//! and the sweep layer treats the backend like any other grid dimension.
//!
//! * [`BackendKind::Sim`] — the pure world model ([`run_simulation`]).
//! * [`BackendKind::Live`] — the [`LiveBackend`] records the world model's
//!   engine-ordered schedule (an [`ExecScript`]) and replays it through
//!   the real `eva-exec` [`Master`]/worker runtime. Launch, checkpoint
//!   (migration), fault injection and completion all become scheduled
//!   events on a second [`EventEngine`]; task programs are seeded from
//!   deterministic per-purpose RNG streams, and every checkpoint lands on
//!   an exact iteration boundary — so live runs are reproducible bit for
//!   bit and any divergence between scheduled and executed work is a
//!   real control-plane bug, not noise.
//!
//! Simulated progress maps to container iterations at
//! [`LIVE_ITERS_PER_HOUR`] per full-throughput hour: a migration at 37 %
//! job progress checkpoints the container at exactly ⌊0.37·N⌉
//! iterations, and the checkpoint blob must carry the program state that
//! a pure function of (seed, position) predicts.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::time::Duration;

use eva_engine::{derive_seed, EventEngine, RngStreams, SimEvent};
use eva_exec::{decode_checkpoint, Master, TaskExit, TaskProgram};
use eva_types::{InstanceId, JobId, TaskId};

use crate::faults::{FaultAction, FaultPlan};
use crate::metrics::SimReport;
use crate::runner::{run_recorded, run_simulation, SimConfig};
use crate::script::{ExecActionKind, ExecScript};

/// Container iterations per simulated full-throughput hour.
pub const LIVE_ITERS_PER_HOUR: f64 = 60.0;

/// Iteration-count ceiling per task, so paper-scale jobs stay replayable.
const MAX_LIVE_ITERS: u64 = 100_000;

/// RNG stream feeding live task-program seeds (stream 0 is the world
/// model's delay stream).
const LIVE_PROGRAM_STREAM: u64 = 1;

/// How long the replay waits on any single container exit before
/// declaring the control plane wedged.
const LIVE_EXIT_TIMEOUT: Duration = Duration::from_secs(30);

/// The backend axis value of a sweep cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum BackendKind {
    /// Pure world-model simulation.
    Sim,
    /// Schedule replayed through the real master/worker runtime.
    Live,
}

impl BackendKind {
    /// Stable textual form used in cell keys and on the CLI.
    pub fn label(&self) -> &'static str {
        match self {
            BackendKind::Sim => "sim",
            BackendKind::Live => "live",
        }
    }

    /// Resolves a CLI-style backend name.
    pub fn from_name(name: &str) -> Result<BackendKind, String> {
        match name.to_ascii_lowercase().as_str() {
            "sim" => Ok(BackendKind::Sim),
            "live" => Ok(BackendKind::Live),
            other => Err(format!("unknown backend `{other}` (sim|live)")),
        }
    }

    /// Every name [`BackendKind::from_name`] accepts.
    pub fn names() -> &'static [&'static str] {
        &["sim", "live"]
    }

    /// Runs one cell end to end on this backend.
    pub fn run(&self, cfg: &SimConfig) -> SimReport {
        match self {
            BackendKind::Sim => run_simulation(cfg),
            BackendKind::Live => LiveBackend.run(cfg),
        }
    }
}

/// The live backend: schedule in the world model, execute on the real
/// runtime.
#[derive(Debug, Clone, Copy, Default)]
pub struct LiveBackend;

/// Everything a live run measured, alongside what the schedule expected.
#[derive(Debug, Clone)]
pub struct LiveOutcome {
    /// The live report: schedule-level fields (cost, JCT, makespan) come
    /// from the world model whose schedule was executed; execution-level
    /// fields (jobs completed, migrations per task) are overwritten with
    /// what the runtime actually did.
    pub report: SimReport,
    /// The same schedule's pure-simulation report, for delta reporting.
    pub sim_report: SimReport,
    /// Jobs the schedule expected to complete.
    pub expected_jobs: BTreeSet<JobId>,
    /// Jobs whose every task really exited `Finished` at full position.
    pub completed_jobs: BTreeSet<JobId>,
    /// Iterations the schedule expected across all confirmed tasks.
    pub expected_iterations: u64,
    /// Iterations the containers really completed.
    pub live_iterations: u64,
    /// Checkpoint exits the runtime really performed (live migrations).
    pub live_checkpoints: u64,
    /// Checkpoint boundaries the schedule expected (migration stops plus
    /// fault kills). Fault-free this equals [`Self::live_checkpoints`].
    pub expected_checkpoints: u64,
    /// Iterations the containers executed across *every* segment
    /// (collect and confirm exits alike), counted from each segment's
    /// actual resume position.
    pub live_executed: u64,
    /// Iterations the schedule expected across those same segments.
    /// `live_executed - expected_executed` is work re-executed because a
    /// checkpoint was confiscated or dropped.
    pub expected_executed: u64,
    /// Fault kills the runtime performed (rescue-checkpoint collected,
    /// then the blob confiscated).
    pub live_kills: u64,
    /// Stored checkpoint blobs deleted by the ckpt-drop fault regime.
    pub dropped_checkpoints: u64,
    /// Finished tasks whose final program state diverged from the pure
    /// `(seed, position)` prediction — any nonzero value means state was
    /// lost or corrupted across a checkpoint/restore cycle.
    pub digest_mismatches: u64,
}

impl LiveOutcome {
    /// Iterations the runtime re-executed beyond what the schedule
    /// planned — the direct cost of lost checkpoints. Exactly zero on a
    /// fault-free run.
    pub fn re_executed(&self) -> u64 {
        self.live_executed.saturating_sub(self.expected_executed)
    }

    /// Jobs really completed minus jobs the schedule expected.
    pub fn delta_jobs(&self) -> i64 {
        self.completed_jobs.len() as i64 - self.expected_jobs.len() as i64
    }

    /// Live makespan minus simulated makespan, in hours. The live
    /// makespan charges re-executed iterations at [`LIVE_ITERS_PER_HOUR`],
    /// so fault-free runs are exactly zero by construction.
    pub fn delta_makespan_hours(&self) -> f64 {
        self.report.makespan_hours - self.sim_report.makespan_hours
    }

    /// Checkpoints the runtime banked minus boundaries the schedule
    /// expected. Fault kills confiscate their rescue blobs, so each kill
    /// shows up here as -1.
    pub fn delta_migrations(&self) -> i64 {
        self.live_checkpoints as i64 - self.expected_checkpoints as i64
    }
}

/// Replay events. All share one priority: the authoritative order is the
/// *recorded* schedule, so events are enqueued in script order and the
/// engine's `(time, FIFO)` total order reproduces it exactly.
#[derive(Debug, Clone)]
enum LiveEvent {
    /// Wait for `task`'s checkpointed exit at its planned boundary and
    /// stash the blob (the first half of a migration). With `kill` set
    /// the boundary is an injected fault: the rescue blob is confiscated
    /// after collection, so the task's next segment restarts from zero.
    Collect { task: TaskId, kill: bool },
    /// Injected ckpt-drop fault: delete one stored checkpoint blob,
    /// chosen by `draw` over the tasks currently stopped with a blob.
    Drop { draw: u64 },
    /// Wait for every task of `job` to finish and audit their digests.
    Confirm { job: JobId },
    /// Start or resume one execution segment of a task.
    Launch {
        task: TaskId,
        instance: InstanceId,
        /// Checkpoint at exactly this iteration (`None` = run to
        /// completion).
        until: Option<u64>,
    },
}

impl SimEvent for LiveEvent {}

/// The deterministic stand-in task program: a SplitMix64 accumulator
/// whose state after `k` iterations is a pure function of `(seed, k)`,
/// so checkpoint/restore fidelity is auditable.
struct LiveProgram {
    state: u64,
}

fn advance_state(state: u64, iteration: u64) -> u64 {
    // `iteration + 1` keeps the mix index nonzero (index 0 is identity).
    derive_seed(state, iteration + 1)
}

impl TaskProgram for LiveProgram {
    fn step(&mut self, iteration: u64) {
        self.state = advance_state(self.state, iteration);
    }

    fn checkpoint(&self) -> Vec<u8> {
        self.state.to_le_bytes().to_vec()
    }

    fn restore(&mut self, blob: &[u8]) {
        if let Ok(state) = blob.try_into() {
            self.state = u64::from_le_bytes(state);
        }
    }
}

/// Seed of `task`'s live program under master seed `master`.
fn task_seed(master: u64, task: TaskId) -> u64 {
    let uid = task
        .job
        .0
        .wrapping_mul(1 << 20)
        .wrapping_add(task.index as u64 + 1);
    derive_seed(derive_seed(master, LIVE_PROGRAM_STREAM), uid)
}

/// Expected program state after running all `total` iterations.
fn expected_digest(seed: u64, total: u64) -> u64 {
    (0..total).fold(seed, advance_state)
}

/// Iterations representing one task of a job with the given work.
fn iterations_for(duration_hours: f64) -> u64 {
    ((duration_hours * LIVE_ITERS_PER_HOUR).round() as u64).clamp(1, MAX_LIVE_ITERS)
}

impl LiveBackend {
    /// Runs one cell on the live runtime and keeps only the report.
    pub fn run(&self, cfg: &SimConfig) -> SimReport {
        self.run_detailed(cfg)
            .expect("live replay must execute the scheduled script")
            .report
    }

    /// Runs one cell on the live runtime, returning the full measurement
    /// set.
    pub fn run_detailed(&self, cfg: &SimConfig) -> Result<LiveOutcome, String> {
        let (sim_report, script) = run_recorded(cfg);
        let plan = ReplayPlan::build(cfg, &script)?;
        plan.execute(cfg, sim_report)
    }
}

/// The event schedule derived from a recorded script.
struct ReplayPlan {
    engine: EventEngine<LiveEvent>,
    /// Total iterations per task appearing in the script.
    totals: BTreeMap<TaskId, u64>,
    /// Tasks of each job that completed in the script.
    job_tasks: BTreeMap<JobId, Vec<TaskId>>,
    /// Checkpoint boundaries the schedule carries (stops + kills).
    expected_checkpoints: u64,
    /// Iterations the schedule expects across every replayed segment.
    expected_executed: u64,
}

impl ReplayPlan {
    fn build(cfg: &SimConfig, script: &ExecScript) -> Result<ReplayPlan, String> {
        let mut totals: BTreeMap<TaskId, u64> = BTreeMap::new();
        let mut job_of: BTreeMap<JobId, &eva_types::JobSpec> = BTreeMap::new();
        for job in cfg.trace.jobs() {
            // Keyed by ID, a job that reuses one would replay as the other.
            if job_of.insert(job.id, job).is_some() {
                return Err(format!("job id {} repeats in the trace", job.id));
            }
            for t in &job.tasks {
                totals.insert(
                    t.id,
                    iterations_for(job.duration_at_full_tput.as_hours_f64()),
                );
            }
        }

        // Pass 1: derive each segment's checkpoint boundary. A task has at
        // most one open segment, so boundaries queue up in start order.
        let mut open: HashSet<TaskId> = HashSet::new();
        let mut pos: HashMap<TaskId, u64> = HashMap::new();
        let mut bounds: HashMap<TaskId, std::collections::VecDeque<Option<u64>>> = HashMap::new();
        let mut job_tasks: BTreeMap<JobId, Vec<TaskId>> = BTreeMap::new();
        let mut expected_checkpoints = 0u64;
        let mut expected_executed = 0u64;
        for action in &script.actions {
            match &action.kind {
                ExecActionKind::Start { task, .. } => {
                    if !open.insert(*task) {
                        return Err(format!("task {task} started twice without a stop"));
                    }
                }
                // A fault kill closes a segment exactly like a migration
                // stop: the paper-style preemption warning lets the task
                // rescue-checkpoint at the kill boundary. The blob's fate
                // differs only at replay time (confiscated, not resumed).
                ExecActionKind::Stop { task, progress }
                | ExecActionKind::Kill { task, progress } => {
                    if !open.remove(task) {
                        return Err(format!("task {task} stopped while not running"));
                    }
                    let total = *totals
                        .get(task)
                        .ok_or_else(|| format!("task {task} missing from trace"))?;
                    let from = pos.get(task).copied().unwrap_or(0);
                    // Stop boundaries stay strictly inside the task so the
                    // container exits Checkpointed, never Finished.
                    let until = ((progress * total as f64).round() as u64)
                        .clamp(from, total.saturating_sub(1));
                    bounds.entry(*task).or_default().push_back(Some(until));
                    pos.insert(*task, until);
                    expected_checkpoints += 1;
                    expected_executed += until - from;
                }
                ExecActionKind::JobDone { job } => {
                    let spec = job_of
                        .get(job)
                        .ok_or_else(|| format!("job {job} missing from trace"))?;
                    let mut tasks = Vec::new();
                    for t in &spec.tasks {
                        if !open.remove(&t.id) {
                            return Err(format!("{job} done but task {} not running", t.id));
                        }
                        bounds.entry(t.id).or_default().push_back(None);
                        let total = totals.get(&t.id).copied().unwrap_or(0);
                        expected_executed +=
                            total.saturating_sub(pos.get(&t.id).copied().unwrap_or(0));
                        tasks.push(t.id);
                    }
                    job_tasks.insert(*job, tasks);
                }
            }
        }
        // Jobs the schedule never completed leave dangling open segments;
        // their final starts get no bound entry and are not replayed.

        // Pass 2: enqueue replay events in script order. Script times are
        // non-decreasing and every event shares one priority, so the
        // engine's (time, FIFO) order replays the schedule verbatim.
        let mut engine: EventEngine<LiveEvent> = EventEngine::new();
        for action in &script.actions {
            match &action.kind {
                ExecActionKind::Start { task, instance, .. } => {
                    let Some(until) = bounds.get_mut(task).and_then(|q| q.pop_front()) else {
                        continue; // dangling final segment of an unfinished job
                    };
                    engine.schedule(
                        action.at,
                        LiveEvent::Launch {
                            task: *task,
                            instance: *instance,
                            until,
                        },
                    );
                }
                ExecActionKind::Stop { task, .. } => {
                    engine.schedule(
                        action.at,
                        LiveEvent::Collect {
                            task: *task,
                            kill: false,
                        },
                    );
                }
                ExecActionKind::Kill { task, .. } => {
                    engine.schedule(
                        action.at,
                        LiveEvent::Collect {
                            task: *task,
                            kill: true,
                        },
                    );
                }
                ExecActionKind::JobDone { job } => {
                    engine.schedule(action.at, LiveEvent::Confirm { job: *job });
                }
            }
        }

        // The ckpt-drop regime injects through the live command channel:
        // the same pre-compiled plan the simulator consumes (identical
        // trace handle, so identical horizon and schedule) deletes stored
        // blobs here. Other regimes act through the recorded schedule
        // itself (kills) or don't touch the control plane at all.
        let fault_plan = FaultPlan::for_trace(cfg.faults, cfg.seed, &cfg.trace);
        for ev in &fault_plan.events {
            if matches!(ev.action, FaultAction::CkptDrop) {
                engine.schedule(ev.at, LiveEvent::Drop { draw: ev.draw });
            }
        }

        Ok(ReplayPlan {
            engine,
            totals,
            job_tasks,
            expected_checkpoints,
            expected_executed,
        })
    }

    fn execute(mut self, cfg: &SimConfig, sim_report: SimReport) -> Result<LiveOutcome, String> {
        let master_seed = RngStreams::new(cfg.seed).master();
        // The replay blocks on the report channel, never on a sleep loop.
        let mut master = Master::new();

        let mut live_checkpoints = 0u64;
        let mut live_iterations = 0u64;
        let mut expected_iterations = 0u64;
        let mut digest_mismatches = 0u64;
        let mut live_kills = 0u64;
        let mut dropped_checkpoints = 0u64;
        let mut live_executed = 0u64;
        // Iteration each task's current segment actually resumed from
        // (position decoded from the fetched blob; 0 when none existed).
        let mut launch_pos: HashMap<TaskId, u64> = HashMap::new();
        // Tasks stopped at a boundary whose blob the master still holds —
        // the candidate pool for injected checkpoint drops.
        let mut stopped_with_blob: BTreeSet<TaskId> = BTreeSet::new();
        let mut completed_jobs: BTreeSet<JobId> = BTreeSet::new();
        let expected_jobs: BTreeSet<JobId> = self.job_tasks.keys().copied().collect();

        let wait_exit = |master: &mut Master, task: TaskId| {
            master
                .wait_task_exit(task, LIVE_EXIT_TIMEOUT)
                .map_err(|_| format!("live replay timed out waiting for {task}"))
        };

        while let Some(scheduled) = self.engine.pop() {
            self.engine.advance_to(scheduled.at);
            match scheduled.event {
                LiveEvent::Launch {
                    task,
                    instance,
                    until,
                } => {
                    if !master.has_instance(instance) {
                        master.register_instance(
                            instance,
                            Box::new(move |t| {
                                Box::new(LiveProgram {
                                    state: task_seed(master_seed, t),
                                })
                            }),
                        );
                    }
                    let total = *self
                        .totals
                        .get(&task)
                        .ok_or_else(|| format!("no iteration total for {task}"))?;
                    let checkpoint = master.fetch_checkpoint(task);
                    let resumed = checkpoint
                        .as_ref()
                        .map(|blob| decode_checkpoint(blob).0)
                        .unwrap_or(0);
                    launch_pos.insert(task, resumed);
                    stopped_with_blob.remove(&task);
                    master
                        .launch_segment(instance, task, total, until, checkpoint)
                        .map_err(|e| format!("launch {task}: {e:?}"))?;
                }
                LiveEvent::Collect { task, kill } => {
                    let info = wait_exit(&mut master, task)?;
                    if info.exit != TaskExit::Checkpointed {
                        return Err(format!(
                            "{task} exited {:?} at a planned checkpoint boundary",
                            info.exit
                        ));
                    }
                    // The master stashed the blob itself when it applied the
                    // exit report; the resume launch fetches it.
                    if info.checkpoint.is_none() || !master.has_checkpoint(task) {
                        return Err(format!("{task} checkpointed without a stored blob"));
                    }
                    live_executed += info
                        .completed
                        .saturating_sub(launch_pos.get(&task).copied().unwrap_or(0));
                    if kill {
                        // Injected fault: the rescue blob is confiscated,
                        // so the next segment re-executes from zero.
                        master.drop_checkpoint(task);
                        live_kills += 1;
                    } else {
                        live_checkpoints += 1;
                        stopped_with_blob.insert(task);
                    }
                }
                LiveEvent::Drop { draw } => {
                    let candidates: Vec<TaskId> = stopped_with_blob.iter().copied().collect();
                    if !candidates.is_empty() {
                        let victim = candidates[(draw % candidates.len() as u64) as usize];
                        if master.drop_checkpoint(victim) {
                            dropped_checkpoints += 1;
                        }
                        stopped_with_blob.remove(&victim);
                    }
                }
                LiveEvent::Confirm { job } => {
                    let tasks = self.job_tasks.get(&job).cloned().unwrap_or_default();
                    let mut all_finished = true;
                    for task in tasks {
                        let info = wait_exit(&mut master, task)?;
                        let total = self.totals.get(&task).copied().unwrap_or(0);
                        expected_iterations += total;
                        live_iterations += info.completed;
                        live_executed += info
                            .completed
                            .saturating_sub(launch_pos.get(&task).copied().unwrap_or(0));
                        if info.exit != TaskExit::Finished || info.completed != total {
                            all_finished = false;
                            continue;
                        }
                        // Audit state continuity across every
                        // checkpoint/restore the task went through.
                        let digest = info
                            .checkpoint
                            .as_ref()
                            .map(|b| decode_checkpoint(b).1)
                            .filter(|state| state.len() == 8)
                            .map(|state| u64::from_le_bytes(state[..8].try_into().unwrap()));
                        let expected = expected_digest(task_seed(master_seed, task), total);
                        if digest != Some(expected) {
                            digest_mismatches += 1;
                        }
                    }
                    if all_finished {
                        completed_jobs.insert(job);
                    }
                }
            }
        }
        master.shutdown();

        let task_count = self.totals.len().max(1) as f64;
        let mut report = sim_report.clone();
        report.jobs_completed = completed_jobs.len();
        report.migrations_per_task = live_checkpoints as f64 / task_count;
        // Charge re-executed work (segments restarted because their
        // checkpoint was confiscated or dropped) to the live makespan at
        // the same iteration↔hours exchange rate the mapping uses. A
        // fault-free replay re-executes nothing, so the adjustment — and
        // therefore the sim-vs-live makespan delta — is exactly zero.
        let re_executed = live_executed.saturating_sub(self.expected_executed);
        report.makespan_hours += re_executed as f64 / LIVE_ITERS_PER_HOUR;

        Ok(LiveOutcome {
            report,
            sim_report,
            expected_jobs,
            completed_jobs,
            expected_iterations,
            live_iterations,
            live_checkpoints,
            expected_checkpoints: self.expected_checkpoints,
            live_executed,
            expected_executed: self.expected_executed,
            live_kills,
            dropped_checkpoints,
            digest_mismatches,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eva_cloud::FidelityMode;
    use eva_types::SimDuration;
    use eva_workloads::SyntheticTraceConfig;

    use crate::runner::SchedulerKind;

    fn tiny_cfg(jobs: usize, scheduler: SchedulerKind) -> SimConfig {
        let trace = SyntheticTraceConfig {
            num_jobs: jobs,
            mean_interarrival: SimDuration::from_mins(15),
            duration: eva_workloads::UniformHours::new(0.3, 0.8),
            single_task_only: false,
        }
        .generate(17);
        let mut cfg = SimConfig::new(trace, scheduler);
        cfg.fidelity = FidelityMode::Nominal;
        cfg
    }

    #[test]
    fn backend_kinds_round_trip() {
        for name in BackendKind::names() {
            let kind = BackendKind::from_name(name).unwrap();
            assert_eq!(kind.label(), *name);
        }
        assert!(BackendKind::from_name("hardware").is_err());
    }

    #[test]
    fn sim_backend_matches_run_simulation() {
        let cfg = tiny_cfg(4, SchedulerKind::NoPacking);
        assert_eq!(BackendKind::Sim.run(&cfg), run_simulation(&cfg));
        assert_eq!(
            BackendKind::Live.run(&cfg),
            LiveBackend.run_detailed(&cfg).unwrap().report
        );
    }

    #[test]
    fn live_replay_confirms_every_scheduled_job() {
        let cfg = tiny_cfg(5, SchedulerKind::NoPacking);
        let outcome = LiveBackend.run_detailed(&cfg).unwrap();
        assert_eq!(outcome.completed_jobs, outcome.expected_jobs);
        assert_eq!(
            outcome.report.jobs_completed,
            outcome.sim_report.jobs_completed
        );
        assert_eq!(outcome.live_iterations, outcome.expected_iterations);
        assert_eq!(outcome.digest_mismatches, 0);
        // No-Packing never migrates, live or simulated.
        assert_eq!(outcome.live_checkpoints, 0);
        assert_eq!(outcome.report.migrations_per_task, 0.0);
    }

    #[test]
    fn live_replay_survives_migrations_under_eva() {
        // A dense trace under Eva exercises checkpoint → stash → resume
        // on the real runtime; every checkpoint must land on its planned
        // boundary and state must survive each hop.
        let trace = SyntheticTraceConfig {
            num_jobs: 12,
            mean_interarrival: SimDuration::from_mins(6),
            duration: eva_workloads::UniformHours::new(0.5, 1.5),
            single_task_only: true,
        }
        .generate(23);
        let mut cfg = SimConfig::new(trace, SchedulerKind::Eva(eva_core::EvaConfig::eva()));
        cfg.fidelity = FidelityMode::Nominal;
        let outcome = LiveBackend.run_detailed(&cfg).unwrap();
        assert_eq!(outcome.completed_jobs, outcome.expected_jobs);
        assert_eq!(outcome.digest_mismatches, 0);
        assert_eq!(outcome.live_iterations, outcome.expected_iterations);
    }

    #[test]
    fn fault_free_deltas_are_exactly_zero() {
        // The robustness report's fault-free column must be structurally
        // zero, not approximately zero: no kills, no drops, no
        // re-execution, and all three deltas identically zero.
        let trace = SyntheticTraceConfig {
            num_jobs: 10,
            mean_interarrival: SimDuration::from_mins(8),
            duration: eva_workloads::UniformHours::new(0.4, 1.2),
            single_task_only: true,
        }
        .generate(31);
        let mut cfg = SimConfig::new(trace, SchedulerKind::Eva(eva_core::EvaConfig::eva()));
        cfg.fidelity = FidelityMode::Nominal;
        let outcome = LiveBackend.run_detailed(&cfg).unwrap();
        assert_eq!(outcome.live_kills, 0);
        assert_eq!(outcome.dropped_checkpoints, 0);
        assert_eq!(outcome.re_executed(), 0);
        assert_eq!(outcome.delta_jobs(), 0);
        assert_eq!(outcome.delta_migrations(), 0);
        assert_eq!(outcome.delta_makespan_hours(), 0.0);
    }

    #[test]
    fn preempt_storm_kills_and_charges_re_execution() {
        // A storm over a dense trace must produce fault kills whose
        // rescue blobs are confiscated: each kill is a -1 migration
        // delta, and the re-executed work is charged to live makespan.
        let trace = SyntheticTraceConfig {
            num_jobs: 10,
            mean_interarrival: SimDuration::from_mins(8),
            duration: eva_workloads::UniformHours::new(0.4, 1.2),
            single_task_only: true,
        }
        .generate(31);
        let mut cfg = SimConfig::new(trace, SchedulerKind::Eva(eva_core::EvaConfig::eva()));
        cfg.fidelity = FidelityMode::Nominal;
        cfg.faults = crate::FaultSpec::parse("preempt-storm:3").unwrap();
        let outcome = LiveBackend.run_detailed(&cfg).unwrap();
        assert!(outcome.live_kills > 0, "storm produced no kills");
        assert_eq!(outcome.delta_migrations(), -(outcome.live_kills as i64));
        assert!(
            outcome.re_executed() > 0,
            "confiscated blobs must cost work"
        );
        let charged = outcome.re_executed() as f64 / LIVE_ITERS_PER_HOUR;
        assert!((outcome.delta_makespan_hours() - charged).abs() < 1e-9);
        // Re-execution still converges: every scheduled job completes.
        assert_eq!(outcome.completed_jobs, outcome.expected_jobs);
        assert_eq!(outcome.digest_mismatches, 0);
    }

    #[test]
    fn live_fault_replay_is_deterministic() {
        let run = || {
            let trace = SyntheticTraceConfig {
                num_jobs: 8,
                mean_interarrival: SimDuration::from_mins(10),
                duration: eva_workloads::UniformHours::new(0.3, 0.9),
                single_task_only: true,
            }
            .generate(41);
            let mut cfg = SimConfig::new(trace, SchedulerKind::Stratus);
            cfg.fidelity = FidelityMode::Nominal;
            cfg.faults = crate::FaultSpec::parse("worker-crash:2").unwrap();
            LiveBackend.run_detailed(&cfg).unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.report, b.report);
        assert_eq!(a.live_kills, b.live_kills);
        assert_eq!(a.live_executed, b.live_executed);
        assert_eq!(a.dropped_checkpoints, b.dropped_checkpoints);
    }

    #[test]
    fn expected_digest_is_segment_invariant() {
        // Running 0..n in one go equals running [0,k) then [k,n) — the
        // invariant the live checkpoint audit relies on.
        let seed = task_seed(99, TaskId::new(JobId(3), 1));
        let whole = expected_digest(seed, 50);
        let first = (0..20).fold(seed, advance_state);
        let second = (20..50).fold(first, advance_state);
        assert_eq!(whole, second);
    }

    #[test]
    fn iteration_mapping_is_clamped_and_monotone() {
        assert_eq!(iterations_for(0.0), 1);
        assert_eq!(iterations_for(1.0), 60);
        assert_eq!(iterations_for(1e9), MAX_LIVE_ITERS);
        assert!(iterations_for(2.0) > iterations_for(1.0));
    }
}
