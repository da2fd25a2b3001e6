//! Layer 2: the cluster world model.
//!
//! [`ClusterSim`] owns everything that exists in the simulated world —
//! provider, instances, jobs, task lifecycles, metric integrals — and
//! consumes events from the generic [`EventEngine`]. It drives the
//! scheduler through the round logic in the `observe` module but
//! contains no scheduling policy itself; report assembly lives in the
//! `report` module.
//!
//! World state lives in the slot-indexed SoA arenas of the private
//! `arena` module:
//! IDs intern to contiguous `u32` slots at construction, events carry
//! slots instead of IDs, and the per-event hot loops walk flat vectors.
//! Slot order is ID order, so every iteration (and therefore every float
//! accumulation) happens in exactly the sequence the former
//! `BTreeMap`-keyed world produced — reports are byte-identical.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

use rand::rngs::StdRng;

use eva_baselines::{
    NoPackingScheduler, OracleProfile, OwlScheduler, StratusScheduler, SynergyScheduler,
};
use eva_cloud::{Catalog, CloudProvider, DelayModel};
use eva_core::{EvaScheduler, Scheduler};
use eva_types::{
    InstanceId, InstanceTypeId, JobId, JobSpec, SimDuration, SimTime, TaskSpec, WorkloadKind,
};
use eva_workloads::{InterferenceModel, JobSource, Trace, TraceHandle, WorkloadCatalog};

use crate::arena::{WorldArena, NO_SLOT};
use crate::engine::{CancelToken, EventEngine, RngStreams, SimEvent, DELAY_STREAM};
use crate::faults::{FaultAction, FaultPlan};
use crate::metrics::{MetricsRegistry, MetricsSnapshot, SimReport};
use crate::runner::{InterferenceSpec, SchedulerKind, SimConfig};
use crate::script::{ExecAction, ExecActionKind, ExecScript};
use crate::state::TaskState;

/// Events the cluster world reacts to. Task/job events carry arena
/// slots, not IDs — dispatch is a direct index, never a lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Event {
    Arrival(usize),
    TaskReady { slot: u32, generation: u64 },
    JobDone { slot: u32, generation: u64 },
    Round,
    /// Injected fault striking (index into the compiled fault plan).
    Fault(usize),
    /// A windowed fault (capacity shock, straggler) lifting.
    FaultExpire(usize),
    /// The pending streamed job's arrival instant (streaming worlds
    /// pull one job ahead; the handler interns it and primes the next).
    Ingest,
}

impl SimEvent for Event {
    /// Same-timestamp dispatch priority: faults strike first (adversity
    /// never waits), then readiness and completions resolve before
    /// arrivals, arrivals before the round that schedules them.
    fn priority(&self) -> u8 {
        match self {
            Event::Fault(_) | Event::FaultExpire(_) => 0,
            Event::TaskReady { .. } => 0,
            Event::JobDone { .. } => 1,
            // An ingest *is* an arrival: same-time completions resolve
            // first, the round that schedules the newcomer fires after.
            Event::Arrival(_) | Event::Ingest => 2,
            Event::Round => 3,
        }
    }
}

/// Fraction of a job's completed work destroyed by one sim-side
/// checkpoint drop (the job's latest checkpoint is its recent work).
pub(crate) const CKPT_DROP_LOSS: f64 = 0.25;

/// A retired job's report contribution, folded out of the arena when
/// its slots are released (see [`SimConfig::retire_completed`]). Each
/// value is computed at the completion instant with the exact float
/// operations `report::finalize` would have applied to the frozen
/// lanes, so retirement never changes a report byte.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CompletedJob {
    pub id: JobId,
    pub jct_hours: f64,
    pub idle_hours: f64,
    pub mean_tput: f64,
}

/// The retired jobs' report contributions, folded incrementally.
///
/// `finalize` consumes completed jobs in ascending-id order (three
/// left-to-right float sums), so a naive log must hold every
/// [`CompletedJob`] until the end — the last O(total jobs) structure in
/// a streaming world. Instead the log folds its *closed prefix* as the
/// run progresses: once every id that can still complete is known to
/// exceed a pending entry's, that entry joins the running sums with the
/// identical addition `finalize` would have performed, and the entry is
/// dropped. Service-mode memory then tracks the in-flight window.
///
/// Folding is sound only while ids are strictly increasing in
/// ingestion order (otherwise a later, smaller id would have to fold
/// *before* already-folded entries). Batch worlds verify this over the
/// whole trace at construction; streaming worlds additionally require
/// the source's [`JobSource::ids_monotone`] promise, and a violation
/// (a lying source) stops further folding.
#[derive(Debug, Default)]
pub(crate) struct CompletedLog {
    /// Ids promised monotone and no violation observed.
    fold_ok: bool,
    /// Whether completed jobs' slots are being released (live-id
    /// tracking is only paid for when folding can actually happen).
    retire: bool,
    /// Largest id interned so far — the monotonicity detector.
    max_seen: Option<JobId>,
    /// Ids interned and not yet completed: the fold barrier.
    live: BTreeSet<JobId>,
    /// Completed entries awaiting a smaller live id to finish.
    pending: BTreeMap<JobId, CompletedJob>,
    /// Count and ascending-id left-fold sums of dropped entries.
    folded_count: usize,
    folded_jct: f64,
    folded_idle: f64,
    folded_tput: f64,
}

impl CompletedLog {
    pub(crate) fn new(retire: bool) -> Self {
        CompletedLog {
            fold_ok: true,
            retire,
            ..CompletedLog::default()
        }
    }

    /// Withdraws the folding permission (non-monotone batch trace, or
    /// a source that cannot promise monotone ids). Pending entries are
    /// then held until the end of the run.
    pub(crate) fn forbid_fold(&mut self) {
        self.fold_ok = false;
    }

    pub(crate) fn fold_ok(&self) -> bool {
        self.fold_ok
    }

    /// Notes a job entering the world. Detects id-order violations; in
    /// retire mode the id also joins the fold barrier.
    pub(crate) fn intern(&mut self, id: JobId) {
        if self.max_seen.is_some_and(|m| id <= m) {
            self.fold_ok = false;
        } else {
            self.max_seen = Some(id);
        }
        if self.retire {
            self.live.insert(id);
        }
    }

    /// Logs a retired job's frozen contribution, then folds every
    /// pending entry no live id can precede.
    pub(crate) fn complete(&mut self, c: CompletedJob) {
        self.live.remove(&c.id);
        self.pending.insert(c.id, c);
        if !self.fold_ok {
            return;
        }
        while let Some(entry) = self.pending.first_entry() {
            // A pending id never equals a live id (completion removed it).
            if self.live.first().is_some_and(|&min| *entry.key() > min) {
                break;
            }
            let c = entry.remove();
            self.folded_count += 1;
            self.folded_jct += c.jct_hours;
            self.folded_idle += c.idle_hours;
            self.folded_tput += c.mean_tput;
        }
    }

    /// The folded prefix: `(count, jct sum, idle sum, tput sum)`.
    pub(crate) fn folded(&self) -> (usize, f64, f64, f64) {
        (
            self.folded_count,
            self.folded_jct,
            self.folded_idle,
            self.folded_tput,
        )
    }

    /// Entries not yet folded, in ascending id order.
    pub(crate) fn pending_rows(&self) -> impl Iterator<Item = (JobId, f64, f64, f64)> + '_ {
        self.pending
            .values()
            .map(|c| (c.id, c.jct_hours, c.idle_hours, c.mean_tput))
    }
}

/// A streaming world's connection to its [`JobSource`]: one job pulled
/// ahead (`pending`), scheduled as an [`Event::Ingest`] at its arrival
/// instant. Pulling ahead keeps the event heap's time horizon honest —
/// the engine always knows when the next external arrival lands.
pub(crate) struct StreamState {
    source: Box<dyn JobSource>,
    pending: Option<JobSpec>,
}

/// One row of the world's live-instance table: the instance's catalog
/// type and its slice of the incremental integral rates. A row exists
/// exactly while the instance counts — from its provision until the
/// clock reaches its termination time, i.e. while the provider's
/// `Instance::state(now)` is not `Terminated`. All rate components are
/// integer-valued `f64`s, so adding and later subtracting them leaves
/// the running sums bit-identical to a from-scratch scan in any order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LiveInst {
    pub(crate) type_id: InstanceTypeId,
    cap: [f64; 3],
    alloc: [f64; 3],
    running: u32,
}

/// The simulated cluster: engine + world state + metric accumulators.
pub struct ClusterSim {
    pub(crate) cfg: SimConfig,
    pub(crate) catalog: Catalog,
    pub(crate) cloud: CloudProvider,
    pub(crate) rng: StdRng,
    pub(crate) interference: InterferenceModel,
    pub(crate) scheduler: Box<dyn Scheduler>,
    pub(crate) round_period: SimDuration,
    pub(crate) migration_delay_scale: f64,

    /// All job/task/instance state, slot-indexed (see [`crate::arena`]).
    pub(crate) world: WorldArena,
    pub(crate) draining: BTreeSet<InstanceId>,

    pub(crate) engine: EventEngine<Event>,
    pub(crate) round_pending: bool,
    pub(crate) arrivals_remaining: usize,
    pub(crate) recorder: Option<ExecScript>,

    // Streaming service state (batch worlds: `stream` is `None`, the
    // log stays empty unless retirement is on, and `first_arrival_seen`
    // stays `None` so reports keep reading the trace).
    pub(crate) stream: Option<StreamState>,
    pub(crate) retire_completed: bool,
    pub(crate) completed: CompletedLog,
    pub(crate) first_arrival_seen: Option<SimTime>,
    pub(crate) ingested_jobs: u64,
    dropped_jobs: u64,
    pub(crate) metrics: MetricsRegistry,

    // Adversarial fault state.
    pub(crate) fault_plan: FaultPlan,
    pub(crate) fault_tokens: Vec<CancelToken>,
    pub(crate) active_stragglers: BTreeMap<usize, InstanceId>,
    pub(crate) preemption_log: Vec<(SimTime, InstanceId)>,
    pub(crate) worker_crashes: u64,
    pub(crate) dropped_checkpoints: u64,

    // Metric accumulators (time integrals in hours).
    pub(crate) task_running_hours: f64,
    pub(crate) alloc_integral: [f64; 3],
    pub(crate) capacity_integral: [f64; 3],
    pub(crate) migration_count: u64,
    pub(crate) total_tasks: usize,
    pub(crate) rounds: u64,
    pub(crate) full_rounds: u64,

    // Incremental-integral state (see the dirty-set invariants in
    // `crate::arena`): the live instances in id order, each with its
    // accounting, plus the maintained capacity/allocation/running-task
    // rates `advance_to` integrates. Rounds and faults list the cluster
    // from `live`, never from the provider's record of every launch.
    pub(crate) live: BTreeMap<InstanceId, LiveInst>,
    cap_rate: [f64; 3],
    alloc_rate: [f64; 3],
    running_rate: usize,
    /// Future-dated terminations (deadline, instance) whose capacity is
    /// still counted; `advance_to` retires them once the clock passes.
    cap_pending: BTreeSet<(SimTime, InstanceId)>,
    /// Debug-only eager reference semantics (see
    /// [`ClusterSim::use_full_scan_reference`]).
    full_scan: bool,

    // Reusable hot-path scratch (per-event, allocation-free steady state).
    tput_buf: RefCell<Vec<WorkloadKind>>,
    term_scratch: Vec<InstanceId>,
    dirty_scratch: Vec<u32>,
}

/// True when some catalog type can host each of the job's tasks alone.
fn schedulable(catalog: &Catalog, job: &JobSpec) -> bool {
    job.tasks
        .iter()
        .all(|t| catalog.cheapest_fit(&t.demand).is_some())
}

impl ClusterSim {
    /// Builds the world for one experiment.
    ///
    /// Jobs whose tasks fit no catalog instance type are dropped up front
    /// with a warning (the paper likewise removes them from the trace,
    /// §6.1); otherwise they could never complete and the simulation would
    /// not terminate.
    pub fn new(cfg: &SimConfig) -> Self {
        // Compile the fault plan from the *caller's* trace handle, before
        // feasibility filtering — the live backend compiles from the same
        // handle, so both sides must hash the same horizon.
        let fault_plan = FaultPlan::for_trace(cfg.faults, cfg.seed, &cfg.trace);
        let catalog = Catalog::aws_eval_2025();
        let workloads = WorkloadCatalog::table7();
        // The common case drops nothing, so the world shares the caller's
        // trace by handle instead of cloning the job vector.
        let (jobs, fits) = (cfg.trace.jobs(), |job: &JobSpec| schedulable(&catalog, job));
        let trace = if jobs.iter().all(fits) {
            cfg.trace.clone()
        } else {
            let (feasible, dropped): (Vec<_>, Vec<_>) = jobs.iter().cloned().partition(fits);
            for job in &dropped {
                eprintln!("warning: dropping unschedulable {}", job.id);
            }
            TraceHandle::new(Trace::new(feasible))
        };
        let dropped_jobs = (cfg.trace.len() - trace.len()) as u64;
        let cfg = SimConfig {
            trace,
            ..cfg.clone()
        };
        let interference = match cfg.interference {
            InterferenceSpec::Measured => InterferenceModel::measured(&workloads),
            InterferenceSpec::Uniform(t) => InterferenceModel::uniform(&workloads, t),
        };
        let scheduler: Box<dyn Scheduler> = match &cfg.scheduler {
            SchedulerKind::NoPacking => Box::new(NoPackingScheduler::new()),
            SchedulerKind::Stratus => Box::new(StratusScheduler::new()),
            SchedulerKind::Synergy => Box::new(SynergyScheduler::new()),
            SchedulerKind::Owl => {
                // Owl receives the ground-truth pairwise profile exclusively.
                let kinds: Vec<WorkloadKind> = workloads.iter().map(|w| w.kind).collect();
                let model = interference.clone();
                let profile = OracleProfile::from_fn(&kinds, |a, b| model.pairwise(a, b));
                Box::new(OwlScheduler::new(profile))
            }
            SchedulerKind::Eva(eva_cfg) => Box::new(EvaScheduler::new(eva_cfg.clone())),
        };
        let delays = DelayModel::table1(cfg.fidelity);
        let cloud = CloudProvider::new(catalog.clone(), delays);
        let world = WorldArena::from_trace(cfg.trace.trace());

        let mut sim = ClusterSim {
            catalog,
            cloud,
            rng: RngStreams::new(cfg.seed).stream(DELAY_STREAM),
            interference,
            scheduler,
            round_period: cfg.round_period,
            migration_delay_scale: cfg.migration_delay_scale,
            world,
            draining: BTreeSet::new(),
            engine: EventEngine::new(),
            round_pending: false,
            arrivals_remaining: cfg.trace.len(),
            recorder: None,
            stream: None,
            retire_completed: cfg.retire_completed,
            completed: CompletedLog::new(cfg.retire_completed),
            first_arrival_seen: None,
            ingested_jobs: 0,
            dropped_jobs,
            metrics: MetricsRegistry::default(),
            fault_plan,
            fault_tokens: Vec::new(),
            active_stragglers: BTreeMap::new(),
            preemption_log: Vec::new(),
            worker_crashes: 0,
            dropped_checkpoints: 0,
            task_running_hours: 0.0,
            alloc_integral: [0.0; 3],
            capacity_integral: [0.0; 3],
            migration_count: 0,
            total_tasks: cfg.trace.jobs().iter().map(|j| j.num_tasks()).sum(),
            rounds: 0,
            full_rounds: 0,
            live: BTreeMap::new(),
            cap_rate: [0.0; 3],
            alloc_rate: [0.0; 3],
            running_rate: 0,
            cap_pending: BTreeSet::new(),
            full_scan: false,
            tput_buf: RefCell::new(Vec::new()),
            term_scratch: Vec::new(),
            dirty_scratch: Vec::new(),
            cfg,
        };
        // Batch worlds know every id up front, so one pass both decides
        // fold legality (monotone ids) and seeds the fold barrier.
        for job in sim.cfg.trace.jobs() {
            sim.completed.intern(job.id);
        }
        for (idx, job) in sim.cfg.trace.jobs().iter().enumerate() {
            sim.engine.schedule(job.arrival, Event::Arrival(idx));
        }
        // Inject the fault plan. Price steps compile straight into the
        // provider's billing schedule (they change no control-plane
        // behaviour); everything else enters the event heap as
        // tombstone-cancelable events so a drained workload can retire
        // leftover faults without dragging the clock forward.
        let price_steps: Vec<(SimTime, f64)> = sim
            .fault_plan
            .events
            .iter()
            .filter_map(|e| match e.action {
                FaultAction::PriceStep { factor } => Some((e.at, factor)),
                _ => None,
            })
            .collect();
        if !price_steps.is_empty() {
            sim.cloud.set_price_schedule(price_steps);
        }
        for i in 0..sim.fault_plan.events.len() {
            let ev = sim.fault_plan.events[i];
            match ev.action {
                FaultAction::PriceStep { .. } => {}
                FaultAction::CapacityShock { until } | FaultAction::Straggler { until, .. } => {
                    let strike = sim.engine.schedule_cancelable(ev.at, Event::Fault(i));
                    let lift = sim.engine.schedule_cancelable(until, Event::FaultExpire(i));
                    sim.fault_tokens.push(strike);
                    sim.fault_tokens.push(lift);
                }
                _ => {
                    let strike = sim.engine.schedule_cancelable(ev.at, Event::Fault(i));
                    sim.fault_tokens.push(strike);
                }
            }
        }
        sim
    }

    /// Builds a streaming world fed by `source` instead of a trace.
    ///
    /// Arrivals are pulled lazily, one ahead of the clock, through
    /// `Event::Ingest` — the world never holds more than the in-flight
    /// window (plus, with [`SimConfig::retire_completed`] off, retired
    /// lanes). `cfg.trace` is ignored; fault plans compile over the
    /// empty-trace horizon, so streaming fault coverage comes from the
    /// batch-mode lockstep tests.
    pub fn from_source(cfg: &SimConfig, source: Box<dyn JobSource>) -> Self {
        let empty = SimConfig {
            trace: TraceHandle::new(Trace::new(Vec::new())),
            ..cfg.clone()
        };
        let mut sim = ClusterSim::new(&empty);
        sim.world.enable_streaming();
        // Streamed ids are unknown ahead of time: folding needs the
        // source's explicit promise, not just observed monotonicity.
        if !source.ids_monotone() {
            sim.completed.forbid_fold();
        }
        sim.stream = Some(StreamState {
            source,
            pending: None,
        });
        sim.prime_ingest();
        sim
    }

    /// Pulls the next feasible job off the stream and schedules its
    /// ingest. Infeasible jobs are dropped with the same warning as the
    /// batch constructor's trace filter.
    fn prime_ingest(&mut self) {
        let Some(mut stream) = self.stream.take() else {
            return;
        };
        debug_assert!(stream.pending.is_none(), "priming over a pending job");
        while let Some(job) = stream.source.next_job() {
            if !schedulable(&self.catalog, &job) {
                eprintln!("warning: dropping unschedulable {}", job.id);
                self.dropped_jobs += 1;
                continue;
            }
            // A source that lags the clock still arrives causally.
            let at = job.arrival.max(self.now());
            stream.pending = Some(job);
            self.stream = Some(stream);
            self.push(at, Event::Ingest);
            return;
        }
        self.stream = Some(stream);
    }

    /// Interns the pending streamed job at its arrival instant, then
    /// pulls the next one.
    fn handle_ingest(&mut self) {
        let Some(job) = self.stream.as_mut().and_then(|s| s.pending.take()) else {
            return;
        };
        self.ingested_jobs += 1;
        self.total_tasks += job.num_tasks();
        if self.first_arrival_seen.is_none() {
            self.first_arrival_seen = Some(job.arrival);
        }
        self.metrics.record_arrival();
        self.completed.intern(job.id);
        let slot = self.world.intern_job(job);
        self.world.jobs.activate(slot);
        self.schedule_round(self.now());
        self.prime_ingest();
    }

    /// True when no streamed job is waiting to be ingested (batch
    /// worlds: always).
    pub(crate) fn stream_drained(&self) -> bool {
        self.stream.as_ref().is_none_or(|s| s.pending.is_none())
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// Scheduling rounds executed so far.
    pub fn rounds_executed(&self) -> u64 {
        self.rounds
    }

    /// Starts recording the control-plane action stream (see
    /// [`ExecScript`]); call before the first [`ClusterSim::step`].
    pub fn enable_recording(&mut self) {
        self.recorder = Some(ExecScript::default());
    }

    /// Switches this world to the debug-only reference semantics: advance
    /// every active job eagerly at each clock segment and accumulate
    /// allocation/capacity integrals by full scan, instead of the
    /// O(changed) dirty-set path. Completion rescheduling stays
    /// dirty-triggered in both modes — re-deriving a clean job's due time
    /// from a later anchor can flip by ±1 ms of rounding. Output is
    /// byte-identical either way (the lazy-oracle proptest holds the two
    /// in lockstep); this exists so that equivalence stays testable.
    /// Call before the first [`ClusterSim::step`].
    #[doc(hidden)]
    pub fn use_full_scan_reference(&mut self) {
        self.full_scan = true;
    }

    /// Takes the recorded script, ending recording.
    pub fn take_script(&mut self) -> ExecScript {
        self.recorder.take().unwrap_or_default()
    }

    pub(crate) fn record(&mut self, kind: ExecActionKind) {
        if let Some(script) = self.recorder.as_mut() {
            let at = self.engine.now();
            script.actions.push(ExecAction { at, kind });
        }
    }

    /// The spec of the job in `jslot`: slot-owned for streamed jobs,
    /// an index into the shared trace otherwise.
    pub(crate) fn job_spec(&self, jslot: u32) -> &JobSpec {
        let s = jslot as usize;
        if let Some(spec) = self.world.jobs.owned.get(s).and_then(|o| o.as_deref()) {
            return spec;
        }
        &self.cfg.trace.jobs()[self.world.jobs.spec_idx[s] as usize]
    }

    /// The spec of the task in `tslot`.
    pub(crate) fn task_spec(&self, tslot: u32) -> &TaskSpec {
        let jslot = self.world.tasks.job_slot[tslot as usize];
        &self.job_spec(jslot).tasks[self.world.tasks.spec_pos[tslot as usize] as usize]
    }

    /// Fraction of the job in `jslot`'s work already completed, in `[0, 1]`.
    pub(crate) fn job_progress_fraction_slot(&self, jslot: u32) -> f64 {
        let s = jslot as usize;
        if !self.world.jobs.arrived[s] {
            return 0.0;
        }
        let total = self.world.jobs.total_hours[s];
        if total <= 0.0 {
            1.0
        } else {
            (1.0 - self.world.jobs.remaining_hours[s] / total).clamp(0.0, 1.0)
        }
    }

    /// Processes the next event, integrating world state up to its due
    /// time first. Returns false once the event queue is exhausted.
    pub fn step(&mut self) -> bool {
        let Some(scheduled) = self.engine.pop() else {
            return false;
        };
        self.advance_to(scheduled.at);
        self.engine.advance_to(scheduled.at);
        self.handle(scheduled.event);
        true
    }

    /// Runs the world to completion and assembles the report.
    pub fn run(mut self) -> SimReport {
        while self.step() {}
        crate::report::finalize(self)
    }

    pub(crate) fn push(&mut self, at: SimTime, event: Event) {
        self.engine.schedule(at, event);
    }

    pub(crate) fn schedule_round(&mut self, at: SimTime) {
        if !self.round_pending {
            self.round_pending = true;
            self.push(at, Event::Round);
        }
    }

    fn handle(&mut self, event: Event) {
        match event {
            Event::Arrival(idx) => {
                self.arrivals_remaining -= 1;
                self.metrics.record_arrival();
                let slot = self.world.slot_of_spec[idx];
                self.world.jobs.activate(slot);
                self.schedule_round(self.now());
            }
            Event::Ingest => self.handle_ingest(),
            Event::TaskReady { slot, generation } => {
                let s = slot as usize;
                let matches = matches!(
                    self.world.tasks.state[s],
                    TaskState::InTransit { generation: g, .. } if g == generation
                );
                if matches {
                    let inst = self.world.tasks.assigned[s];
                    // A task starting changes its own job's gang state
                    // and every co-located job's interference set.
                    if inst != NO_SLOT {
                        self.touch_instance_jobs(inst);
                    } else {
                        self.world.jobs.mark_dirty(self.world.tasks.job_slot[s]);
                    }
                    self.world.tasks.state[s] = TaskState::Running;
                    if inst != NO_SLOT {
                        self.account_running(self.world.insts.ids[inst as usize], 1);
                    }
                    if self.recorder.is_some() && inst != NO_SLOT {
                        let task = self.world.tasks.ids[s];
                        let instance = self.world.insts.ids[inst as usize];
                        let progress =
                            self.job_progress_fraction_slot(self.world.tasks.job_slot[s]);
                        self.record(ExecActionKind::Start {
                            task,
                            instance,
                            progress,
                        });
                    }
                    self.recompute_completions();
                }
            }
            Event::JobDone { slot, generation } => self.handle_job_done(slot, generation),
            Event::Round => self.handle_round(),
            Event::Fault(idx) => self.apply_fault(idx),
            Event::FaultExpire(idx) => self.expire_fault(idx),
        }
    }

    /// Deterministic fault victim: the live instance selected by the
    /// plan's pre-drawn word over the id-ordered live set.
    fn fault_victim(&self, draw: u64) -> Option<InstanceId> {
        let pick = draw.checked_rem(self.live.len() as u64)?;
        self.live.keys().nth(pick as usize).copied()
    }

    /// Abruptly kills every unfinished task mapped to `victim`: running
    /// tasks rescue-checkpoint at the kill instant (recorded as
    /// [`ExecActionKind::Kill`]), in-transit tasks lose their transfer;
    /// all go back to pending for the next round to re-place.
    fn kill_instance_tasks(&mut self, victim: InstanceId) {
        let Some(islot) = self.world.insts.get(victim) else {
            return;
        };
        // Every job with a task here changes throughput (marking also
        // settles them, so the Kill progress reads below are current).
        self.touch_instance_jobs(islot);
        // Snapshot: slot order is TaskId order.
        let tslots = self.world.insts.tasks[islot as usize].clone();
        for tslot in tslots {
            let s = tslot as usize;
            let running = match self.world.tasks.state[s] {
                TaskState::Done => continue,
                st => st == TaskState::Running,
            };
            if running {
                let task = self.world.tasks.ids[s];
                let progress = self.job_progress_fraction_slot(self.world.tasks.job_slot[s]);
                self.record(ExecActionKind::Kill { task, progress });
                self.account_running(victim, -1);
            }
            self.world.tasks.state[s] = TaskState::Pending;
            self.world.tasks.assigned[s] = NO_SLOT;
            if self.world.insts.detach(islot, tslot) {
                self.account_mapping(victim, tslot, false);
            }
        }
    }

    /// Applies fault-plan event `idx` at its scheduled instant.
    pub(crate) fn apply_fault(&mut self, idx: usize) {
        let ev = self.fault_plan.events[idx];
        let now = self.now();
        match ev.action {
            FaultAction::Preempt => {
                let Some(victim) = self.fault_victim(ev.draw) else {
                    return;
                };
                self.kill_instance_tasks(victim);
                let _ = self.cloud.terminate(victim, now);
                self.note_termination(victim);
                self.draining.remove(&victim);
                self.world.insts.release(victim);
                self.preemption_log.push((now, victim));
                self.recompute_completions();
                self.schedule_round(now);
            }
            FaultAction::WorkerCrash => {
                let Some(victim) = self.fault_victim(ev.draw) else {
                    return;
                };
                // Unlike a preemption, the instance survives (and bills).
                self.kill_instance_tasks(victim);
                self.worker_crashes += 1;
                self.recompute_completions();
                self.schedule_round(now);
            }
            FaultAction::CapacityShock { .. } => {
                self.cloud.set_pool_limit(Some(self.live.len() as u64 / 2));
            }
            FaultAction::PriceStep { .. } => {
                // Applied as a billing schedule at construction.
            }
            FaultAction::CkptDrop => {
                // Candidate filtering reads every active job's
                // remaining work, so settle everyone (and truncate the
                // segment log while at it).
                self.world.jobs.settle_active_and_reset();
                // Active slots ascend in JobId order, matching the former
                // map iteration; jobs without progress (or done) never
                // qualify, so the candidate list is unchanged.
                let candidates: Vec<u32> = self
                    .world
                    .jobs
                    .active
                    .iter()
                    .copied()
                    .filter(|&slot| {
                        self.world.jobs.remaining_hours[slot as usize] + 1e-12
                            < self.world.jobs.total_hours[slot as usize]
                    })
                    .collect();
                if candidates.is_empty() {
                    return;
                }
                let victim = candidates[(ev.draw % candidates.len() as u64) as usize] as usize;
                // Surgery on remaining work moves the completion time
                // without changing the rate.
                self.world.jobs.mark_dirty(victim as u32);
                let total = self.world.jobs.total_hours[victim];
                let remaining = self.world.jobs.remaining_hours[victim];
                let done = (total - remaining).max(0.0);
                self.world.jobs.remaining_hours[victim] =
                    (remaining + CKPT_DROP_LOSS * done).min(total);
                self.dropped_checkpoints += 1;
                self.recompute_completions();
            }
            FaultAction::Straggler { factor, .. } => {
                let Some(victim) = self.fault_victim(ev.draw) else {
                    return;
                };
                if let Some(islot) = self.world.insts.get(victim) {
                    // Settle at the pre-straggle rate before it changes.
                    self.touch_instance_jobs(islot);
                    self.world.insts.straggle[islot as usize] = factor;
                }
                self.active_stragglers.insert(idx, victim);
                self.recompute_completions();
            }
        }
    }

    /// Lifts a windowed fault when its expiry event fires.
    pub(crate) fn expire_fault(&mut self, idx: usize) {
        match self.fault_plan.events[idx].action {
            FaultAction::CapacityShock { .. } => {
                self.cloud.set_pool_limit(None);
            }
            FaultAction::Straggler { .. } => {
                if let Some(victim) = self.active_stragglers.remove(&idx) {
                    // A later straggler may have re-slowed the same
                    // instance; only lift when no window still covers it.
                    // (A preempted victim lost its slot — and its factor —
                    // already; the slot may now belong to a new instance.)
                    if !self.active_stragglers.values().any(|v| *v == victim) {
                        if let Some(islot) = self.world.insts.get(victim) {
                            // Settle at the straggling rate before it lifts.
                            self.touch_instance_jobs(islot);
                            self.world.insts.straggle[islot as usize] = 1.0;
                        }
                    }
                    self.recompute_completions();
                }
            }
            _ => {}
        }
    }

    /// Timestamped log of spot preemptions injected so far.
    pub fn preemption_log(&self) -> &[(SimTime, InstanceId)] {
        &self.preemption_log
    }

    /// Worker crashes injected so far.
    pub fn worker_crashes(&self) -> u64 {
        self.worker_crashes
    }

    /// Sim-side checkpoint drops injected so far.
    pub fn dropped_checkpoints(&self) -> u64 {
        self.dropped_checkpoints
    }

    /// Tasks currently mapped to `instance` (running or in transit).
    pub fn tasks_on(&self, instance: InstanceId) -> usize {
        self.world
            .insts
            .get(instance)
            .map(|s| self.world.insts.tasks[s as usize].len())
            .unwrap_or(0)
    }

    /// The cloud provider (for invariant checks in tests).
    pub fn provider(&self) -> &CloudProvider {
        &self.cloud
    }

    /// The compiled fault plan this world injects.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.fault_plan
    }

    /// Audits the world's slot bookkeeping (for invariant checks in
    /// tests): every job, task, and live instance ID must round-trip
    /// through its arena slot back to the same ID, cross-references
    /// (task↔instance, task↔job, active set, dirty set) must agree,
    /// every draining instance must still hold a slot, and the
    /// incrementally maintained capacity/allocation/running-task rates
    /// must equal a from-scratch scan of the live instance set bit for
    /// bit (see the dirty-set invariants in the `arena` module docs), and
    /// the live-instance table must list exactly the `(id, type)` pairs
    /// the provider reports live at this instant, in the same order.
    pub fn audit_slots(&self) -> Result<(), String> {
        self.world.audit()?;
        for id in &self.draining {
            if self.world.insts.get(*id).is_none() {
                return Err(format!("draining instance {id} holds no slot"));
            }
        }
        let now = self.engine.now();
        let mut alloc = [0.0f64; 3];
        let mut cap = [0.0f64; 3];
        let mut running = 0usize;
        for inst in self.cloud.live_instances(now) {
            let Some(ty) = self.catalog.get(inst.type_id) else {
                continue;
            };
            cap[0] += f64::from(ty.capacity.gpu);
            cap[1] += f64::from(ty.capacity.cpu);
            cap[2] += ty.capacity.ram_mb as f64;
            if let Some(islot) = self.world.insts.get(inst.id) {
                for &tslot in &self.world.insts.tasks[islot as usize] {
                    let d = ty.demand_of(&self.task_spec(tslot).demand);
                    alloc[0] += f64::from(d.gpu);
                    alloc[1] += f64::from(d.cpu);
                    alloc[2] += d.ram_mb as f64;
                    if self.world.tasks.is_running(tslot) {
                        running += 1;
                    }
                }
            }
        }
        if cap != self.cap_rate || alloc != self.alloc_rate || running != self.running_rate {
            return Err(format!(
                "incremental rates diverged from live-set scan: \
                 cap {:?} vs {cap:?}, alloc {:?} vs {alloc:?}, running {} vs {running}",
                self.cap_rate, self.alloc_rate, self.running_rate
            ));
        }
        let scan = self.cloud.live_instances(now).map(|i| (i.id, i.type_id));
        if !scan.eq(self.live.iter().map(|(id, row)| (*id, row.type_id))) {
            return Err(format!(
                "live-instance table diverged from the provider's live set: {:?}",
                self.live.keys().collect::<Vec<_>>()
            ));
        }
        for &(term, id) in &self.cap_pending {
            if term <= now {
                return Err(format!("stale pending capacity retirement for {id}"));
            }
            if !self.live.contains_key(&id) {
                return Err(format!("pending retirement of uncounted instance {id}"));
            }
        }
        Ok(())
    }

    /// Total events ever scheduled on the engine (heap-churn yardstick
    /// for the perf snapshots).
    pub fn events_scheduled(&self) -> u64 {
        self.engine.scheduled_count()
    }

    /// High-water mark of the event queue (live + tombstoned entries).
    pub fn event_queue_peak(&self) -> usize {
        self.engine.peak_len()
    }

    /// Debug digest of every observable the lazy dirty-set path must
    /// keep identical to the eager reference
    /// ([`ClusterSim::use_full_scan_reference`]): settles all active jobs
    /// first so deferred progress is folded in, then formats each lane
    /// with shortest-roundtrip float formatting (distinct bits ⇒
    /// distinct strings). Test-only; not part of the stable API.
    #[doc(hidden)]
    pub fn oracle_digest(&mut self) -> String {
        use std::fmt::Write as _;
        for i in 0..self.world.jobs.active.len() {
            let slot = self.world.jobs.active[i];
            self.world.jobs.settle([slot]);
        }
        let mut out = String::new();
        let jobs = &self.world.jobs;
        for s in 0..jobs.ids.len() {
            let _ = writeln!(
                out,
                "job {}: rem={:?} exec={:?} idle={:?} tput_int={:?} rate={:?} done={:?} sched={:?}",
                jobs.ids[s],
                jobs.remaining_hours[s],
                jobs.executing_hours[s],
                jobs.idle_hours[s],
                jobs.tput_integral[s],
                jobs.rate[s],
                jobs.completed_at[s],
                jobs.scheduled_done_at[s],
            );
        }
        let _ = writeln!(
            out,
            "integrals alloc={:?} cap={:?} run_hours={:?} \
             rates alloc={:?} cap={:?} running={}",
            self.alloc_integral,
            self.capacity_integral,
            self.task_running_hours,
            self.alloc_rate,
            self.cap_rate,
            self.running_rate,
        );
        out
    }

    /// Jobs ingested from a stream so far (0 for batch worlds).
    pub fn jobs_ingested(&self) -> u64 {
        self.ingested_jobs
    }

    /// Jobs dropped so far because no catalog type can host a task of theirs.
    pub fn jobs_dropped(&self) -> u64 {
        self.dropped_jobs
    }

    /// Feed lines the job source skipped so far ([`JobSource::rejected`]).
    pub fn lines_rejected(&self) -> u64 {
        self.stream.as_ref().map_or(0, |s| s.source.rejected())
    }

    /// Arena job rows currently holding a live (unreleased) job — the
    /// bounded-memory observable: with retirement on this tracks the
    /// in-flight window, not total jobs ingested.
    pub fn live_job_slots(&self) -> usize {
        self.world.jobs.ids.len() - self.world.jobs.free.len()
    }

    /// Total job rows the arena has ever grown to (live + recycled).
    /// Bounded-memory streaming keeps this near the in-flight peak.
    pub fn job_arena_rows(&self) -> usize {
        self.world.jobs.ids.len()
    }

    /// The rolling service-mode metrics snapshot at the current instant.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            t_hours: self.now().as_hours_f64(),
            arrivals_total: self.metrics.arrivals_total,
            completions_total: self.metrics.completions_total,
            queue_depth: self.world.jobs.active.len(),
            running_tasks: self.running_rate,
            utilization_gpu: if self.cap_rate[0] > 0.0 {
                self.alloc_rate[0] / self.cap_rate[0]
            } else {
                0.0
            },
            p50_wait_hours: self.metrics.p50_wait_hours(),
            p99_wait_hours: self.metrics.p99_wait_hours(),
            event_queue_len: self.engine.len(),
            event_queue_peak: self.engine.peak_len(),
            live_job_slots: self.live_job_slots(),
            rounds: self.rounds,
        }
    }

    /// Debug digest of every observable job retirement must preserve:
    /// live jobs by ID with their settled progress lanes, completed
    /// jobs by ID with their report contributions (from the completed
    /// log or a slot scan — wherever retirement left them), and the
    /// global integrals. Retirement on and off must produce identical
    /// strings after every event. Test-only; not part of the stable API.
    #[doc(hidden)]
    pub fn stream_digest(&mut self) -> String {
        use std::fmt::Write as _;
        for i in 0..self.world.jobs.active.len() {
            let slot = self.world.jobs.active[i];
            self.world.jobs.settle([slot]);
        }
        let mut out = String::new();
        for i in 0..self.world.jobs.active.len() {
            let slot = self.world.jobs.active[i];
            let s = slot as usize;
            let jobs = &self.world.jobs;
            let _ = writeln!(
                out,
                "live {}: rem={:?} exec={:?} idle={:?} tput_int={:?} rate={:?} sched={:?}",
                jobs.ids[s],
                jobs.remaining_hours[s],
                jobs.executing_hours[s],
                jobs.idle_hours[s],
                jobs.tput_integral[s],
                jobs.rate[s],
                jobs.scheduled_done_at[s],
            );
        }
        let mut done: Vec<(JobId, f64, f64, f64)> = self.completed.pending_rows().collect();
        for slot in 0..self.world.jobs.ids.len() as u32 {
            let s = slot as usize;
            if self.world.jobs.released[s] || !self.world.jobs.is_done(slot) {
                continue;
            }
            let jct = self.world.jobs.completed_at[s]
                .unwrap()
                .duration_since(self.job_spec(slot).arrival)
                .as_hours_f64();
            done.push((
                self.world.jobs.ids[s],
                jct,
                self.world.jobs.idle_hours[s],
                self.world.jobs.mean_tput(slot),
            ));
        }
        done.sort_by_key(|e| e.0);
        // Entries below the fold watermark — the smallest id that can
        // still complete, recomputed from the arena so both retirement
        // modes derive it identically — render as one running
        // left-fold; retirement may have folded them out of existence.
        // Everything at or above it renders per job.
        let watermark: Option<JobId> = (0..self.world.jobs.ids.len() as u32)
            .filter(|&slot| {
                !self.world.jobs.released[slot as usize] && !self.world.jobs.is_done(slot)
            })
            .map(|slot| self.world.jobs.ids[slot as usize])
            .min();
        let (mut n, mut jct_sum, mut idle_sum, mut tput_sum) = self.completed.folded();
        let mut split = 0;
        if self.completed.fold_ok() {
            while split < done.len() && watermark.is_none_or(|w| done[split].0 < w) {
                n += 1;
                jct_sum += done[split].1;
                idle_sum += done[split].2;
                tput_sum += done[split].3;
                split += 1;
            }
        }
        let _ = writeln!(
            out,
            "done folded n={n} jct_sum={jct_sum:?} idle_sum={idle_sum:?} tput_sum={tput_sum:?}"
        );
        for &(id, jct, idle, tput) in &done[split..] {
            let _ = writeln!(out, "done {id}: jct={jct:?} idle={idle:?} tput={tput:?}");
        }
        let _ = writeln!(
            out,
            "integrals alloc={:?} cap={:?} run_hours={:?} \
             rates alloc={:?} cap={:?} running={} counters arr={} done={}",
            self.alloc_integral,
            self.capacity_integral,
            self.task_running_hours,
            self.alloc_rate,
            self.cap_rate,
            self.running_rate,
            self.metrics.arrivals_total,
            self.metrics.completions_total,
        );
        out
    }

    fn handle_job_done(&mut self, slot: u32, generation: u64) {
        let s = slot as usize;
        let valid = self.world.jobs.arrived[s]
            && !self.world.jobs.is_done(slot)
            && self.world.jobs.completion_gen[s] == generation;
        if !valid {
            return;
        }
        // Fold the deferred segments in before reading remaining work.
        self.world.jobs.settle([slot]);
        debug_assert!(
            self.world.jobs.remaining_hours[s] < 1e-6,
            "early completion event"
        );
        self.world.jobs.completed_at[s] = Some(self.engine.now());
        self.world.jobs.scheduled_done_at[s] = None;
        self.world.jobs.retire(slot);
        let job = self.world.jobs.ids[s];
        self.record(ExecActionKind::JobDone { job });
        for t in self.world.jobs.task_range(slot) {
            let was_running = self.world.tasks.state[t] == TaskState::Running;
            self.world.tasks.state[t] = TaskState::Done;
            let inst = self.world.tasks.assigned[t];
            if inst != NO_SLOT {
                // Surviving co-located jobs lose an interfering neighbour.
                self.touch_instance_jobs(inst);
                let id = self.world.insts.ids[inst as usize];
                self.world.tasks.assigned[t] = NO_SLOT;
                if self.world.insts.detach(inst, t as u32) {
                    self.account_mapping(id, t as u32, false);
                }
                if was_running {
                    self.account_running(id, -1);
                }
            }
        }
        self.metrics
            .record_completion(self.world.jobs.idle_hours[s]);
        if self.retire_completed {
            // Fold the frozen lanes into the completed-job log with the
            // identical float operations `finalize` would apply, then
            // hand the slots back. The job cannot be dirty here:
            // `completed_at` was set before the task loop and
            // `mark_dirty` skips done jobs, and no completion event can
            // outlive the generation that just validated.
            let now = self.engine.now();
            let jct_hours = now
                .duration_since(self.job_spec(slot).arrival)
                .as_hours_f64();
            self.completed.complete(CompletedJob {
                id: job,
                jct_hours,
                idle_hours: self.world.jobs.idle_hours[s],
                mean_tput: self.world.jobs.mean_tput(slot),
            });
            self.world.release_job(slot);
        }
        self.try_terminations();
        self.recompute_completions();
        // A round will clean up the freed instances.
        self.schedule_round(self.now() + self.round_period);
    }

    /// The ground-truth throughput of the running task in `tslot` given
    /// its co-located running neighbours.
    pub(crate) fn task_tput(&self, tslot: u32) -> f64 {
        let s = tslot as usize;
        let inst = self.world.tasks.assigned[s];
        if inst == NO_SLOT || !self.world.tasks.is_running(tslot) {
            return 0.0;
        }
        let mut others = self.tput_buf.borrow_mut();
        others.clear();
        for &t in &self.world.insts.tasks[inst as usize] {
            if t != tslot && self.world.tasks.is_running(t) {
                others.push(self.world.tasks.workload[t as usize]);
            }
        }
        let base = self
            .interference
            .throughput(self.world.tasks.workload[s], &others);
        // A straggler window slows every task on the afflicted instance.
        // The factor changes only at fault events (which recompute
        // completions), so throughput stays piecewise-constant and
        // progress integration stays exact. Unafflicted slots hold 1.0,
        // and `x * 1.0` is bitwise `x`.
        base * self.world.insts.straggle[inst as usize]
    }

    /// Effective job throughput: gang-coupled jobs run at the minimum of
    /// their tasks (0 unless all run); single tasks at their own rate.
    pub(crate) fn job_tput(&self, jslot: u32) -> f64 {
        let mut min_tput = f64::INFINITY;
        for t in self.world.jobs.task_range(jslot) {
            if !self.world.tasks.is_running(t as u32) {
                return 0.0;
            }
            min_tput = min_tput.min(self.task_tput(t as u32));
        }
        if min_tput.is_finite() {
            min_tput
        } else {
            0.0
        }
    }

    /// Advances all integrals and job progress to `t` (the engine clock
    /// itself advances in [`ClusterSim::step`]).
    ///
    /// O(1) in steady state: job progress is deferred by logging the
    /// segment (clean jobs replay it on settle at their cached rate —
    /// current by dirty-set invariant 2), and the allocation/capacity
    /// integrals accrue from the maintained rates instead of rescanning
    /// the live instance set.
    fn advance_to(&mut self, t: SimTime) {
        let now = self.engine.now();
        let dt_hours = t.duration_since(now).as_hours_f64();
        if dt_hours <= 0.0 {
            return;
        }
        debug_assert!(
            self.world.jobs.dirty_list.is_empty(),
            "dirty jobs crossed a segment boundary unsettled"
        );
        if self.full_scan {
            // Eager reference semantics, kept verbatim for the oracle:
            // throughputs are pure reads, so computing them all before
            // applying preserves the old interleaved map semantics.
            let mut tputs: Vec<(u32, f64)> = Vec::with_capacity(self.world.jobs.active.len());
            for &slot in &self.world.jobs.active {
                tputs.push((slot, self.job_tput(slot)));
            }
            for &(slot, tput) in &tputs {
                self.world.jobs.advance(slot, dt_hours, tput);
            }
            let mut alloc = [0.0f64; 3];
            let mut cap = [0.0f64; 3];
            let mut running_tasks = 0usize;
            for inst in self.cloud.live_instances(now) {
                let Some(ty) = self.catalog.get(inst.type_id) else {
                    continue;
                };
                cap[0] += f64::from(ty.capacity.gpu);
                cap[1] += f64::from(ty.capacity.cpu);
                cap[2] += ty.capacity.ram_mb as f64;
                if let Some(islot) = self.world.insts.get(inst.id) {
                    for &tslot in &self.world.insts.tasks[islot as usize] {
                        let spec = self.task_spec(tslot);
                        let d = ty.demand_of(&spec.demand);
                        alloc[0] += f64::from(d.gpu);
                        alloc[1] += f64::from(d.cpu);
                        alloc[2] += d.ram_mb as f64;
                        if self.world.tasks.is_running(tslot) {
                            running_tasks += 1;
                        }
                    }
                }
            }
            for r in 0..3 {
                self.alloc_integral[r] += alloc[r] * dt_hours;
                self.capacity_integral[r] += cap[r] * dt_hours;
            }
            self.task_running_hours += running_tasks as f64 * dt_hours;
        } else {
            self.world.jobs.push_segment(dt_hours);
            for r in 0..3 {
                self.alloc_integral[r] += self.alloc_rate[r] * dt_hours;
                self.capacity_integral[r] += self.cap_rate[r] * dt_hours;
            }
            self.task_running_hours += self.running_rate as f64 * dt_hours;
        }
        // Retire the capacity of instances whose termination deadline
        // fell inside the segment just integrated: they were live at
        // its start (so they counted, exactly like the eager scan at
        // `now`), and every later segment starts at or past `t`.
        while let Some(&(term, id)) = self.cap_pending.first() {
            if term > t {
                break;
            }
            self.cap_pending.pop_first();
            self.uncount_instance(id);
            // A service world also drops the provider record: its bill
            // and uptime froze at termination, and nothing reads a
            // past-terminated instance again.
            if self.retire_completed {
                self.cloud.retire_instance(id);
            }
        }
    }

    /// Re-derives the completion events of jobs marked dirty since the
    /// last drain. Refreshes each job's cached rate and skips the heap
    /// push when the due time is unchanged — the outstanding event is
    /// still valid, so steady-state heap churn tracks what *changed*.
    /// Rescheduling is dirty-triggered in the reference mode too: a
    /// completion time re-derived from a *later* anchor can flip by
    /// ±1 ms of rounding, so re-deriving clean jobs would push spurious
    /// replacement events rather than validate anything. Marking
    /// completeness is instead cross-checked by the eager reference
    /// advancing progress and integrals by full scan (`oracle_digest`
    /// equality) and by `audit_slots` recomputing every cached rate.
    pub(crate) fn recompute_completions(&mut self) {
        if self.world.jobs.dirty_list.is_empty() {
            return;
        }
        // Drain into reusable scratch (the `term_scratch` pattern) so
        // the steady-state drain allocates nothing; the arena's list
        // keeps its own capacity for the next marking burst.
        let mut dirty = std::mem::take(&mut self.dirty_scratch);
        dirty.clear();
        dirty.append(&mut self.world.jobs.dirty_list);
        // Ascending slot order: dirty jobs reschedule in the relative
        // order the eager full sweep pushed them.
        dirty.sort_unstable();
        let now = self.engine.now();
        for &slot in &dirty {
            let s = slot as usize;
            self.world.jobs.dirty[s] = false;
            if !self.world.jobs.arrived[s] || self.world.jobs.is_done(slot) {
                continue;
            }
            let tput = self.job_tput(slot);
            self.world.jobs.rate[s] = tput;
            let at = self
                .world
                .jobs
                .eta_hours(slot, tput)
                .map(|eta| now + SimDuration::from_hours_f64(eta));
            if at == self.world.jobs.scheduled_done_at[s] {
                continue;
            }
            self.world.jobs.completion_gen[s] += 1;
            let generation = self.world.jobs.completion_gen[s];
            self.world.jobs.scheduled_done_at[s] = at;
            if let Some(at) = at {
                self.push(at, Event::JobDone { slot, generation });
            }
        }
        dirty.clear();
        self.dirty_scratch = dirty;
    }

    /// Terminates drained instances whose departures have finished.
    pub(crate) fn try_terminations(&mut self) {
        if self.draining.is_empty() {
            return;
        }
        let mut candidates = std::mem::take(&mut self.term_scratch);
        candidates.clear();
        candidates.extend(self.draining.iter().copied());
        for &id in &candidates {
            let islot = self.world.insts.get(id);
            let empty = islot
                .map(|s| self.world.insts.tasks[s as usize].is_empty())
                .unwrap_or(true);
            if empty {
                let now = self.engine.now();
                let busy = islot
                    .map(|s| self.world.insts.busy_until[s as usize])
                    .unwrap_or(SimTime::ZERO);
                let _ = self.cloud.terminate(id, busy.max(now));
                self.note_termination(id);
                self.draining.remove(&id);
                self.world.insts.release(id);
            }
        }
        candidates.clear();
        self.term_scratch = candidates;
    }

    // ----- incremental integral accounting -------------------------------

    /// Enters a freshly provisioned instance into the live table and the
    /// capacity rate. The provider only provisions cataloged types, and
    /// the world's catalog is the provider's.
    pub(crate) fn count_provision(&mut self, id: InstanceId) {
        let Some(ty) = self.cloud.instance_type(id) else {
            return;
        };
        let cap = [
            f64::from(ty.capacity.gpu),
            f64::from(ty.capacity.cpu),
            ty.capacity.ram_mb as f64,
        ];
        let row = LiveInst {
            type_id: ty.id,
            cap,
            alloc: [0.0; 3],
            running: 0,
        };
        let previous = self.live.insert(id, row);
        debug_assert!(previous.is_none(), "instance {id} provisioned twice");
        for (rate, c) in self.cap_rate.iter_mut().zip(cap) {
            *rate += c;
        }
    }

    /// Folds one task's demand into (out of) its instance's allocation
    /// rate at attach (detach). Callers gate on the arena's
    /// `attach`/`detach` return value so the rate mirrors the mapping
    /// lists exactly.
    pub(crate) fn account_mapping(&mut self, id: InstanceId, tslot: u32, attached: bool) {
        let Some(ty) = self
            .live
            .get(&id)
            .and_then(|row| self.catalog.get(row.type_id))
        else {
            return;
        };
        let d = ty.demand_of(&self.task_spec(tslot).demand);
        let dv = [f64::from(d.gpu), f64::from(d.cpu), d.ram_mb as f64];
        let Some(row) = self.live.get_mut(&id) else {
            return;
        };
        if attached {
            for (r, d) in dv.into_iter().enumerate() {
                row.alloc[r] += d;
                self.alloc_rate[r] += d;
            }
        } else {
            for (r, d) in dv.into_iter().enumerate() {
                row.alloc[r] -= d;
                self.alloc_rate[r] -= d;
            }
        }
    }

    /// Adjusts the running-task rate when a task mapped to `id` starts
    /// (`+1`) or stops (`-1`) running.
    pub(crate) fn account_running(&mut self, id: InstanceId, delta: i32) {
        let Some(row) = self.live.get_mut(&id) else {
            return;
        };
        if delta > 0 {
            row.running += 1;
            self.running_rate += 1;
        } else {
            row.running -= 1;
            self.running_rate -= 1;
        }
    }

    /// Reconciles the rates with the provider after a `terminate` call.
    /// The provider keeps the first termination time an instance was
    /// given (clamped to its request time), so read back what actually
    /// stuck: a past deadline retires the instance's contribution now,
    /// a future one parks it on `cap_pending` for `advance_to`.
    pub(crate) fn note_termination(&mut self, id: InstanceId) {
        let Some(t) = self.cloud.instance(id).and_then(|i| i.terminated_at) else {
            return;
        };
        if !self.live.contains_key(&id) {
            return;
        }
        if t <= self.engine.now() {
            self.cap_pending.remove(&(t, id));
            self.uncount_instance(id);
            if self.retire_completed {
                self.cloud.retire_instance(id);
            }
        } else {
            self.cap_pending.insert((t, id));
        }
    }

    /// Drops a terminated instance from the live table and its full
    /// contribution from the rates. Tasks may still be mapped to it (a
    /// drained instance keeps its capacity until its deadline passes,
    /// exactly like the eager live-set scan); their later detach/stop
    /// transitions find no row and are ignored.
    fn uncount_instance(&mut self, id: InstanceId) {
        let Some(row) = self.live.remove(&id) else {
            return;
        };
        for r in 0..3 {
            self.cap_rate[r] -= row.cap[r];
            self.alloc_rate[r] -= row.alloc[r];
        }
        self.running_rate -= row.running as usize;
    }

    /// Marks every job with a task mapped to instance slot `islot`
    /// dirty — their effective throughput may change with the
    /// instance's state (placement, straggle factor, co-location set).
    pub(crate) fn touch_instance_jobs(&mut self, islot: u32) {
        let world = &mut self.world;
        for &t in &world.insts.tasks[islot as usize] {
            world.jobs.mark_dirty(world.tasks.job_slot[t as usize]);
        }
    }
}
