//! Layer 2: the cluster world model.
//!
//! [`ClusterSim`] owns everything that exists in the simulated world —
//! provider, instances, jobs, task lifecycles, metric integrals — and
//! consumes events from the generic [`EventEngine`]. It drives the
//! scheduler through the round logic in the `observe` module but
//! contains no scheduling policy itself; report assembly lives in the
//! `report` module.
//!
//! Jobs come from a feed, the shared trace or a [`JobSource`], one pulled
//! ahead of the clock with its tasks put in index order. Each passes one
//! door when it arrives: it is checked, interned into the slot-indexed
//! arenas of the private `arena` module (its tasks into a contiguous `u32`
//! slot range) and activated. Events carry slots instead of IDs, the
//! per-event hot loops walk flat vectors, and the active set is kept in ID
//! order, so every iteration happens in the sequence the former
//! `BTreeMap`-keyed world produced. Each instance is one row of the arena's
//! instance table, from its provision until the clock passes its
//! termination.
//!
//! The world is lazy: it settles a job's progress only where the job's
//! rate changes and keeps the rates it integrates incrementally.
//! [`ClusterSim::audit_slots`] holds what it caches to a fresh
//! derivation.

use std::cell::RefCell;
use std::collections::BTreeMap;

use rand::rngs::StdRng;

use eva_baselines::{
    NoPackingScheduler, OracleProfile, OwlScheduler, StratusScheduler, SynergyScheduler,
};
use eva_cloud::{Catalog, CloudProvider, DelayModel, ProvisionRequest};
use eva_core::{EvaScheduler, Scheduler};
use eva_types::{
    Cost, InstanceId, JobSpec, ResourceVector, SimDuration, SimTime, TaskSpec, WorkloadKind,
};
use eva_workloads::{InterferenceModel, JobSource, Trace, TraceHandle, WorkloadCatalog};

use crate::arena::{lanes, quantize, work_of, Life, Spec, WorldArena, NO_SLOT};
use crate::engine::{CancelToken, EventEngine, RngStreams, SimEvent, DELAY_STREAM};
use crate::faults::{FaultAction, FaultPlan};
use crate::metrics::{MetricsRegistry, MetricsSnapshot, SimReport};
use crate::observe::Snapshot;
use crate::runner::{InterferenceSpec, SchedulerKind, SimConfig};
use crate::script::{ExecAction, ExecActionKind, ExecScript};
use crate::state::TaskState;

/// Events the cluster world reacts to. Task/job events carry arena
/// slots, not IDs — dispatch is a direct index, never a search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Event {
    /// The transfer of the task in this slot landing: it starts running.
    TaskReady(u32),
    /// The job in this slot completing.
    JobDone(u32),
    Round,
    /// Injected fault striking (index into the compiled fault plan).
    Fault(usize),
    /// A windowed fault (capacity shock, straggler) lifting.
    FaultExpire(usize),
    /// The pending job's arrival instant (the world pulls one job ahead;
    /// the handler admits it and pulls the next).
    Ingest,
}

impl SimEvent for Event {
    /// Same-timestamp dispatch priority: faults strike first (adversity
    /// never waits), then readiness and completions resolve before
    /// arrivals, arrivals before the round that schedules them.
    fn priority(&self) -> u8 {
        match self {
            Event::Fault(_) | Event::FaultExpire(_) => 0,
            Event::TaskReady(_) => 0,
            Event::JobDone(_) => 1,
            Event::Ingest => 2,
            Event::Round => 3,
        }
    }
}

/// One sim-side checkpoint drop destroys `1 / CKPT_DROP_DIVISOR` of a
/// job's completed work (the job's latest checkpoint is its recent work).
pub(crate) const CKPT_DROP_DIVISOR: u64 = 4;

/// What the completed jobs contribute to the report, summed as integers
/// when each completes. Integer sums do not depend on the order jobs
/// complete in, so a batch world, a streamed one and one that releases
/// completed slots ([`SimConfig::retire_completed`]) report the same
/// bytes, and no completed job is held for the sake of its sum.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CompletedSums {
    /// Σ job completion time, ms.
    pub jct_ms: u128,
    /// Σ time present but not executing, ms.
    pub idle_ms: u128,
    /// Σ mean normalized throughput while executing, rate quanta.
    pub tput_q: u128,
}

/// Where a world's jobs come from. One is pulled ahead of the clock and
/// queued as an [`Event::Ingest`] at its arrival instant, so the engine
/// always knows when the next arrival lands.
enum Feed {
    /// The shared trace (`cfg.trace`), from this index on.
    Trace(usize),
    Source(Box<dyn JobSource>),
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

    pub(crate) engine: EventEngine<Event>,
    pub(crate) round_pending: bool,
    pub(crate) recorder: Option<ExecScript>,

    feed: Feed,
    /// The job pulled off the feed, waiting for its arrival (`None` once
    /// the feed is exhausted).
    pub(crate) pending: Option<Spec>,
    pub(crate) retire_completed: bool,
    pub(crate) completed: CompletedSums,
    pub(crate) first_arrival_seen: Option<SimTime>,
    dropped_jobs: u64,
    pub(crate) provisions_failed: u64,
    pub(crate) metrics: MetricsRegistry,

    // Adversarial fault state.
    pub(crate) fault_plan: FaultPlan,
    pub(crate) fault_tokens: Vec<CancelToken>,
    pub(crate) active_stragglers: BTreeMap<usize, InstanceId>,
    pub(crate) preemption_log: Vec<(SimTime, InstanceId)>,

    // Metric accumulators (time integrals in hours).
    pub(crate) task_running_hours: f64,
    pub(crate) alloc_integral: [f64; 3],
    pub(crate) capacity_integral: [f64; 3],
    pub(crate) migration_count: u64,
    pub(crate) total_tasks: usize,
    pub(crate) rounds: u64,
    pub(crate) full_rounds: u64,

    // Reusable hot-path scratch (per-event, allocation-free steady state).
    tput_buf: RefCell<Vec<WorkloadKind>>,
    pub(crate) snapshot_scratch: Snapshot,
}

/// True when some catalog type can host each of the job's tasks alone,
/// the job's work fits a progress lane, and its tasks carry the job's
/// ID under strictly ascending indices (the door sorts them first).
fn schedulable(catalog: &Catalog, job: &JobSpec) -> bool {
    let fits = |t: &TaskSpec| t.id.job == job.id && catalog.cheapest_fit(&t.demand).is_some();
    work_of(job.duration_at_full_tput).is_some()
        && job.tasks.iter().all(fits)
        && in_index_order(job)
}

/// True when the job's tasks are declared strictly ascending by index.
fn in_index_order(job: &JobSpec) -> bool {
    job.tasks.windows(2).all(|w| w[0].id.index < w[1].id.index)
}

/// `job` with its tasks in index order (every generator declares them in
/// order): a trace job becomes an owned, sorted copy, and the shared trace
/// is left as it is.
#[cold]
fn into_index_order(job: Spec, trace: &[JobSpec]) -> Spec {
    let mut spec = match job {
        Spec::Trace(i) => Box::new(trace[i as usize].clone()),
        Spec::Owned(spec) => spec,
    };
    spec.tasks.sort_by_key(|t| t.id.index);
    Spec::Owned(spec)
}

impl ClusterSim {
    /// Builds the world for one experiment, fed from `cfg.trace`.
    ///
    /// Each job is checked when it arrives, as a source's are
    /// ([`ClusterSim::from_source`]). Jobs whose tasks fit no catalog
    /// instance type are dropped with a warning (the paper likewise removes
    /// them from the trace, §6.1); otherwise they could never complete and
    /// the simulation would not terminate. So are jobs of 2³² ms (49.7
    /// days) of work or more, which a progress lane cannot hold, and each
    /// job whose ID an active job holds.
    pub fn new(cfg: &SimConfig) -> Self {
        Self::build(cfg.clone(), Feed::Trace(0))
    }

    /// Builds a streaming world fed by `source` instead of a trace.
    ///
    /// Arrivals are pulled lazily, one ahead of the clock, and pass the
    /// same door as a trace's — the world never holds more than the
    /// in-flight window (plus, with [`SimConfig::retire_completed`] off,
    /// retired lanes). `cfg.trace` is ignored; fault plans compile over the
    /// empty-trace horizon, so streaming fault coverage comes from the
    /// batch-mode lockstep tests.
    pub fn from_source(cfg: &SimConfig, source: Box<dyn JobSource>) -> Self {
        let cfg = SimConfig {
            trace: TraceHandle::new(Trace::new(Vec::new())),
            ..cfg.clone()
        };
        Self::build(cfg, Feed::Source(source))
    }

    fn build(cfg: SimConfig, feed: Feed) -> Self {
        // The live backend compiles its fault plan from the same trace, so
        // both sides hash the same horizon.
        let fault_plan = FaultPlan::for_trace(cfg.faults, cfg.seed, &cfg.trace);
        let catalog = Catalog::aws_eval_2025();
        let workloads = WorkloadCatalog::table7();
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

        let mut sim = ClusterSim {
            catalog,
            cloud,
            rng: RngStreams::new(cfg.seed).stream(DELAY_STREAM),
            interference,
            scheduler,
            round_period: cfg.round_period,
            migration_delay_scale: cfg.migration_delay_scale,
            world: WorldArena::default(),
            engine: EventEngine::new(),
            round_pending: false,
            recorder: None,
            feed,
            pending: None,
            retire_completed: cfg.retire_completed,
            completed: CompletedSums::default(),
            first_arrival_seen: None,
            dropped_jobs: 0,
            provisions_failed: 0,
            metrics: MetricsRegistry::default(),
            fault_plan,
            fault_tokens: Vec::new(),
            active_stragglers: BTreeMap::new(),
            preemption_log: Vec::new(),
            task_running_hours: 0.0,
            alloc_integral: [0.0; 3],
            capacity_integral: [0.0; 3],
            migration_count: 0,
            total_tasks: 0,
            rounds: 0,
            full_rounds: 0,
            tput_buf: RefCell::new(Vec::new()),
            snapshot_scratch: Snapshot::default(),
            cfg,
        };
        // A trace's lanes are sized once (a source's trace is empty).
        let jobs = sim.cfg.trace.jobs();
        let tasks = jobs.iter().map(JobSpec::num_tasks).sum();
        sim.world.reserve(jobs.len(), tasks);
        sim.pull();
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

    /// Pulls the next schedulable job off the feed, its tasks in index
    /// order, and queues its arrival. Unschedulable jobs are dropped with a
    /// warning.
    fn pull(&mut self) {
        debug_assert!(self.pending.is_none(), "pulling over a pending job");
        let (trace, now) = (self.cfg.trace.jobs(), self.engine.now());
        loop {
            let job = match &mut self.feed {
                Feed::Trace(next) if *next < trace.len() => {
                    *next += 1;
                    Spec::Trace(*next as u32 - 1)
                }
                Feed::Trace(_) => return,
                Feed::Source(source) => {
                    let Some(mut job) = source.next_job() else {
                        return;
                    };
                    // A source that lags the clock still arrives causally:
                    // the job arrives when the world can ingest it.
                    job.arrival = job.arrival.max(now);
                    Spec::Owned(Box::new(job))
                }
            };
            let job = if in_index_order(job.of(trace)) {
                job
            } else {
                into_index_order(job, trace)
            };
            let spec = job.of(trace);
            if schedulable(&self.catalog, spec) {
                self.engine.schedule(spec.arrival, Event::Ingest);
                self.pending = Some(job);
                return;
            }
            eprintln!("warning: dropping unschedulable {}", spec.id);
            self.dropped_jobs += 1;
        }
    }

    /// Admits the pending job at its arrival instant, then pulls the next
    /// one. A job whose ID an active job holds is dropped.
    fn handle_ingest(&mut self) {
        let job = self.pending.take().expect("an arrival with a job pending");
        let spec = job.of(self.cfg.trace.jobs());
        let (id, arrival, tasks) = (spec.id, spec.arrival, spec.num_tasks());
        let jobs = &self.world.jobs;
        let active = jobs
            .active
            .binary_search_by_key(&id, |&s| jobs.ids[s as usize]);
        if active.is_ok() {
            eprintln!("warning: dropping {id}, whose id an active job holds");
            self.dropped_jobs += 1;
        } else {
            self.total_tasks += tasks;
            self.first_arrival_seen.get_or_insert(arrival);
            self.metrics.record_arrival();
            let now = self.now();
            self.world.intern_job(self.cfg.trace.jobs(), job, now);
            self.schedule_round(now);
        }
        self.pull();
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

    /// The spec of the task in `tslot`: a job's `k`-th task in index
    /// order is both slot `task_start + k` and `spec.tasks[k]`.
    pub(crate) fn task_spec(&self, tslot: u32) -> &TaskSpec {
        let jslot = self.world.tasks.job_slot[tslot as usize];
        let k = tslot - self.world.jobs.task_start[jslot as usize];
        &self.job_spec(jslot).tasks[k as usize]
    }

    /// Fraction of the active job in `jslot`'s work already completed, in
    /// `[0, 1]`.
    pub(crate) fn job_progress_fraction_slot(&self, jslot: u32) -> f64 {
        let jobs = &self.world.jobs;
        let total = jobs.progress[jslot as usize].total;
        if total == 0 {
            1.0
        } else {
            let remaining = jobs.remaining_at(jslot, self.now());
            (1.0 - remaining as f64 / total as f64).clamp(0.0, 1.0)
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

    pub(crate) fn schedule_round(&mut self, at: SimTime) {
        if !self.round_pending {
            self.round_pending = true;
            self.engine.schedule(at, Event::Round);
        }
    }

    fn handle(&mut self, event: Event) {
        match event {
            Event::Ingest => self.handle_ingest(),
            Event::TaskReady(slot) => {
                let s = slot as usize;
                let token = self.world.tasks.transfer[s].take();
                let in_transit = self.world.tasks.state[s] == TaskState::InTransit;
                debug_assert!(token.is_some() && in_transit, "stale readiness");
                // A task in transit is mapped to its destination's row
                // (rows outlive their tasks). Its start changes its own
                // job's gang state and every co-located job's
                // interference set.
                let inst = self.world.tasks.assigned[s];
                debug_assert_ne!(inst, NO_SLOT, "a task in transit to nowhere");
                self.touch_instance_jobs(inst);
                self.world.tasks.state[s] = TaskState::Running;
                self.world.insts.count_running(true);
                if self.recorder.is_some() {
                    let task = self.world.tasks.ids[s];
                    let instance = self.world.insts.rows[inst as usize].id;
                    let progress = self.job_progress_fraction_slot(self.world.tasks.job_slot[s]);
                    self.record(ExecActionKind::Start {
                        task,
                        instance,
                        progress,
                    });
                }
                self.recompute_completions();
            }
            Event::JobDone(slot) => self.handle_job_done(slot),
            Event::Round => self.handle_round(),
            Event::Fault(idx) => self.apply_fault(idx),
            Event::FaultExpire(idx) => self.expire_fault(idx),
        }
    }

    /// Deterministic fault victim: the slot of the instance row selected
    /// by the plan's pre-drawn word over every row in ID order
    /// (terminating rows included).
    fn fault_victim(&self, draw: u64) -> Option<u32> {
        let pick = draw.checked_rem(self.world.insts.len() as u64)?;
        self.world.insts.slots().nth(pick as usize)
    }

    /// Abruptly kills every unfinished task mapped to instance slot
    /// `islot`: running tasks rescue-checkpoint at the kill instant
    /// (recorded as [`ExecActionKind::Kill`]), in-transit tasks lose
    /// their transfer (its readiness event is canceled); all go back to
    /// pending for the next round to re-place.
    fn kill_instance_tasks(&mut self, islot: u32) {
        // Every job with a task here changes throughput (marking also
        // settles them, so the Kill progress reads below are current).
        self.touch_instance_jobs(islot);
        // Snapshot: slot order is TaskId order.
        let tslots = self.world.insts.rows[islot as usize].tasks.clone();
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
                self.world.insts.count_running(false);
            }
            if let Some(token) = self.world.tasks.transfer[s].take() {
                self.engine.cancel(token);
            }
            self.world.tasks.state[s] = TaskState::Pending;
            self.world.tasks.assigned[s] = NO_SLOT;
            self.map_task(islot, tslot, false);
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
                let id = self.world.insts.rows[victim as usize].id;
                self.kill_instance_tasks(victim);
                self.terminate(victim, now);
                self.preemption_log.push((now, id));
                self.recompute_completions();
                self.schedule_round(now);
            }
            FaultAction::WorkerCrash => {
                let Some(victim) = self.fault_victim(ev.draw) else {
                    return;
                };
                // Unlike a preemption, the instance survives (and bills).
                self.kill_instance_tasks(victim);
                self.recompute_completions();
                self.schedule_round(now);
            }
            FaultAction::CapacityShock { .. } => {
                self.cloud
                    .set_pool_limit(Some(self.world.insts.len() as u64 / 2));
            }
            FaultAction::PriceStep { .. } => {
                // Applied as a billing schedule at construction.
            }
            FaultAction::CkptDrop => {
                // Candidates are the active jobs (in JobId order) that
                // have made progress by now.
                let jobs = &self.world.jobs;
                let progressed =
                    |&slot: &u32| jobs.remaining_at(slot, now) < jobs.progress[slot as usize].total;
                let candidates: Vec<u32> = jobs.active.iter().copied().filter(progressed).collect();
                if candidates.is_empty() {
                    return;
                }
                let victim = candidates[(ev.draw % candidates.len() as u64) as usize];
                // Surgery on remaining work moves the completion time
                // without changing the rate.
                self.world.jobs.mark_dirty(victim, now);
                let p = &mut self.world.jobs.progress[victim as usize];
                p.remaining += (p.total - p.remaining) / CKPT_DROP_DIVISOR;
                self.recompute_completions();
            }
            FaultAction::Straggler { factor, .. } => {
                let Some(victim) = self.fault_victim(ev.draw) else {
                    return;
                };
                // Settle at the pre-straggle rate before it changes.
                self.touch_instance_jobs(victim);
                let row = &mut self.world.insts.rows[victim as usize];
                row.straggle = factor;
                self.active_stragglers.insert(idx, row.id);
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
                    // (A victim whose row was dropped took its factor
                    // along; its slot may now belong to a new instance.)
                    if !self.active_stragglers.values().any(|v| *v == victim) {
                        if let Some(islot) = self.world.insts.get(victim) {
                            // Settle at the straggling rate before it lifts.
                            self.touch_instance_jobs(islot);
                            self.world.insts.rows[islot as usize].straggle = 1.0;
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

    /// Tasks currently mapped to `instance` (running or in transit).
    pub fn tasks_on(&self, instance: InstanceId) -> usize {
        let insts = &self.world.insts;
        insts
            .get(instance)
            .map_or(0, |s| insts.rows[s as usize].tasks.len())
    }

    /// The cloud provider (for invariant checks in tests).
    pub fn provider(&self) -> &CloudProvider {
        &self.cloud
    }

    /// Audits the world between events (for invariant checks in tests):
    /// every instance ID must round-trip through its row back to the same
    /// ID, the active set must hold no two jobs of one ID, cross-references
    /// (task↔instance, task↔job, active set, dirty set) must agree, and no
    /// terminating instance may hold a task (see the invariants in the
    /// `arena` module docs). What the lazy world keeps must equal what it
    /// would derive afresh: the dirty list is empty, each active job's
    /// cached rate is its throughput now and its queued completion is its
    /// last settle plus its ETA at that rate (exact at any settle
    /// instant), and the maintained capacity/allocation/running-task rates
    /// equal a from-scratch scan of the provider's live instances bit for
    /// bit, and each row's `used` and `reserved` a fresh sum over its mapped
    /// tasks, each priced afresh. The instance table must list exactly the
    /// `(id, type)` pairs the provider reports live at this instant, in the
    /// same order.
    pub fn audit_slots(&self) -> Result<(), String> {
        let now = self.engine.now();
        self.world.audit(now, |slot| self.job_spec(slot).arrival)?;
        let jobs = &self.world.jobs;
        for &slot in &jobs.active {
            let (s, rate) = (slot as usize, quantize(self.job_tput(slot)));
            let p = &jobs.progress[s];
            let due = jobs.eta(slot).map(|eta| p.last + eta);
            let queued = jobs.done_event[s].map(|(at, _)| at);
            if p.rate != rate || queued != due {
                return Err(format!(
                    "job {} holds rate {} and completion {queued:?}, \
                     derives {rate} and {due:?}",
                    jobs.ids[s], p.rate
                ));
            }
        }
        let (scan, rates) = (self.scan_rates(now)?, self.world.insts.rates());
        if scan != rates {
            return Err(format!(
                "incremental rates diverged from the live-set scan: \
                 (cap, alloc, running) {rates:?} vs {scan:?}"
            ));
        }
        let insts = &self.world.insts;
        let rows = insts.slots().map(|s| &insts.rows[s as usize]);
        let scan = self.cloud.live_instances(now).map(|i| (i.id, i.type_id));
        if !scan.eq(rows.map(|row| (row.id, row.type_id))) {
            return Err("instance table diverged from the provider's live set".into());
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

    /// Events scheduled before the clock so far: 0 in a sound world (see
    /// [`EventEngine::past_dated`]).
    pub fn past_dated_events(&self) -> u64 {
        self.engine.past_dated()
    }

    /// Jobs admitted so far, from a trace or a source.
    pub fn jobs_ingested(&self) -> u64 {
        self.metrics.arrivals_total
    }

    /// Jobs dropped so far: no catalog type can host a task of theirs,
    /// their work does not fit a progress lane, their tasks do not carry
    /// the job's ID under distinct indices (counted when the world pulls
    /// them off its feed, one arrival ahead), or an active job holds their
    /// ID (counted when they arrive).
    pub fn jobs_dropped(&self) -> u64 {
        self.dropped_jobs
    }

    /// New instances the provider refused so far (a pool at its limit).
    pub fn provisions_failed(&self) -> u64 {
        self.provisions_failed
    }

    /// Feed lines the job source skipped so far ([`JobSource::rejected`]).
    pub fn lines_rejected(&self) -> u64 {
        match &self.feed {
            Feed::Source(source) => source.rejected(),
            Feed::Trace(_) => 0,
        }
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
        let (cap, alloc, running) = self.world.insts.rates();
        MetricsSnapshot {
            t_hours: self.now().as_hours_f64(),
            arrivals_total: self.metrics.arrivals_total,
            completions_total: self.metrics.completions_total,
            queue_depth: self.world.jobs.active.len(),
            running_tasks: running,
            utilization_gpu: if cap[0] > 0.0 { alloc[0] / cap[0] } else { 0.0 },
            p50_wait_hours: self.metrics.p50_wait_hours(),
            p99_wait_hours: self.metrics.p99_wait_hours(),
            event_queue_len: self.engine.len(),
            event_queue_peak: self.engine.peak_len(),
            live_job_slots: self.live_job_slots(),
            rounds: self.rounds,
        }
    }

    /// Debug digest of every observable that neither the instants jobs
    /// are settled at nor job retirement may change: live jobs by ID with
    /// their lanes settled at the current instant (reading it settles
    /// every job), the completed jobs' report sums, and the global
    /// integrals (floats with shortest-roundtrip formatting: distinct bits
    /// ⇒ distinct strings). Test-only; not part of the stable API.
    #[doc(hidden)]
    pub fn oracle_digest(&mut self) -> String {
        use std::fmt::Write as _;
        let (now, mut out) = (self.now(), String::new());
        for i in 0..self.world.jobs.active.len() {
            let slot = self.world.jobs.active[i];
            self.world.jobs.settle(slot, now);
            let (s, jobs) = (slot as usize, &self.world.jobs);
            let (id, sched) = (jobs.ids[s], jobs.done_event[s].map(|(at, _)| at));
            let _ = writeln!(out, "live {id}: {:?} sched={sched:?}", jobs.progress[s]);
        }
        let _ = writeln!(out, "done {:?}", self.completed);
        let (cap, alloc, running) = self.world.insts.rates();
        let _ = writeln!(
            out,
            "integrals alloc={:?} cap={:?} run_hours={:?} \
             rates alloc={alloc:?} cap={cap:?} running={running} counters arr={} done={}",
            self.alloc_integral,
            self.capacity_integral,
            self.task_running_hours,
            self.metrics.arrivals_total,
            self.metrics.completions_total,
        );
        out
    }

    fn handle_job_done(&mut self, slot: u32) {
        let (s, now) = (slot as usize, self.engine.now());
        let due = self.world.jobs.done_event[s].take();
        debug_assert!(
            due.is_some_and(|(at, _)| at == now) && !self.world.jobs.is_done(slot),
            "stale completion"
        );
        // Bring the lanes to the completion instant, which is the nearest
        // millisecond to the exact one: at most half a millisecond's work
        // is left.
        self.world.jobs.settle(slot, now);
        let p = self.world.jobs.progress[s];
        debug_assert!(
            2 * u128::from(p.remaining) <= u128::from(p.rate),
            "early completion event"
        );
        self.world.jobs.completed_at[s] = Some(now);
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
                self.world.tasks.assigned[t] = NO_SLOT;
                self.map_task(inst, t as u32, false);
                if was_running {
                    self.world.insts.count_running(false);
                }
            }
        }
        self.metrics
            .record_completion(self.world.jobs.idle_hours(slot));
        // Fold the frozen lanes into the report sums. With retirement on
        // the slots go back too: the job cannot be dirty here
        // (`completed_at` was set before the task loop and `mark_dirty`
        // skips done jobs), and its completion event, the one dispatching
        // now, took its token along.
        let jct = now.duration_since(self.job_spec(slot).arrival);
        let done = &mut self.completed;
        done.jct_ms += u128::from(jct.as_millis());
        done.idle_ms += u128::from(p.idle_ms);
        done.tput_q += u128::from(self.world.jobs.mean_tput(slot));
        if self.retire_completed {
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
        let row = &self.world.insts.rows[inst as usize];
        for &t in &row.tasks {
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
        base * row.straggle
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

    /// Advances all integrals to `t` (the engine clock itself advances in
    /// [`ClusterSim::step`]).
    ///
    /// O(1) in steady state: job progress is in closed form (clean jobs
    /// hold their cached rate, current by invariant 2 in the `arena`
    /// module docs, and readers ask for it at `now`), and the
    /// allocation/capacity integrals accrue from the maintained rates
    /// instead of rescanning the live instance set.
    fn advance_to(&mut self, t: SimTime) {
        let now = self.engine.now();
        if t <= now {
            return;
        }
        debug_assert!(
            self.world.jobs.dirty_list.is_empty(),
            "dirty jobs crossed a segment boundary unsettled"
        );
        self.integrate_to(now, t);
    }

    /// Accrues the metric integrals from `from` to `t`, a piece at a time:
    /// each row whose termination deadline falls in the span counts up to
    /// that deadline and is dropped there.
    fn integrate_to(&mut self, mut from: SimTime, t: SimTime) {
        loop {
            let due = self.world.insts.first_due(t);
            let until = due.map_or(t, |(at, _)| at);
            let (cap, alloc, running) = self.world.insts.rates();
            let dt_hours = until.duration_since(from).as_hours_f64();
            for r in 0..3 {
                self.alloc_integral[r] += alloc[r] * dt_hours;
                self.capacity_integral[r] += cap[r] * dt_hours;
            }
            self.task_running_hours += running as f64 * dt_hours;
            let Some((_, islot)) = due else {
                return;
            };
            self.drop_row(islot);
            from = until;
        }
    }

    /// Ends an exhausted run at the last instance termination (the clock,
    /// if that is later or nothing ever terminated), which it returns, and
    /// carries the integrals there. The final round terminated every
    /// instance.
    pub(crate) fn finish(&mut self) -> SimTime {
        let (now, insts) = (self.now(), &self.world.insts);
        let terminating = |s: u32| matches!(insts.rows[s as usize].life(), Life::Terminating(_));
        debug_assert!(
            insts.slots().all(terminating),
            "an instance outlived the run"
        );
        let end = self.cloud.max_terminated_at().map_or(now, |t| t.max(now));
        self.integrate_to(now, end);
        end
    }

    /// The capacity, allocation and running-task rates of the provider's
    /// live set at `now`, from scratch: what the maintained rates must
    /// equal. Each row's `used` and `reserved` must equal a fresh sum over
    /// its mapped tasks, each priced afresh.
    fn scan_rates(&self, now: SimTime) -> Result<([f64; 3], [f64; 3], usize), String> {
        let (mut cap, mut alloc, mut running) = (ResourceVector::ZERO, ResourceVector::ZERO, 0);
        for inst in self.cloud.live_instances(now) {
            let Some(ty) = self.catalog.get(inst.type_id) else {
                continue;
            };
            cap += ty.capacity;
            let Some(islot) = self.world.insts.get(inst.id) else {
                continue;
            };
            let row = &self.world.insts.rows[islot as usize];
            let (mut used, mut reserved) = (ResourceVector::ZERO, Cost::ZERO);
            for &tslot in &row.tasks {
                let demand = &self.task_spec(tslot).demand;
                let price = self.catalog.cheapest_fit(demand).map(|ty| ty.hourly_cost);
                used += ty.demand_of(demand);
                reserved += price.unwrap_or_default();
                running += usize::from(self.world.tasks.is_running(tslot));
            }
            if (row.used, row.reserved) != (used, reserved) {
                return Err(format!("instance {} holds sums its tasks do not", inst.id));
            }
            alloc += used;
        }
        Ok((lanes(cap), lanes(alloc), running))
    }

    /// Re-derives the completion events of jobs marked dirty since the
    /// last drain. Refreshes each job's cached rate and skips the heap
    /// push when the due time is unchanged — the outstanding event is
    /// still valid, so steady-state heap churn tracks what *changed*;
    /// otherwise the outstanding event is canceled in the engine.
    /// `audit_slots` holds every clean job to the same derivation.
    pub(crate) fn recompute_completions(&mut self) {
        if self.world.jobs.dirty_list.is_empty() {
            return;
        }
        // The list goes back empty with its capacity, so the steady-state
        // drain allocates nothing.
        let mut dirty = std::mem::take(&mut self.world.jobs.dirty_list);
        // Ascending slot order: jobs reschedule in an order that does not
        // depend on the order they were marked in.
        dirty.sort_unstable();
        let now = self.engine.now();
        for &slot in &dirty {
            let s = slot as usize;
            self.world.jobs.dirty[s] = false;
            if self.world.jobs.is_done(slot) {
                continue;
            }
            // At the old rate up to now, at the new one from now on.
            self.world.jobs.settle(slot, now);
            self.world.jobs.progress[s].rate = quantize(self.job_tput(slot));
            let at = self.world.jobs.eta(slot).map(|eta| now + eta);
            let due = &mut self.world.jobs.done_event[s];
            if at == due.map(|(at, _)| at) {
                continue;
            }
            // The superseded event is withdrawn, never dispatched.
            if let Some((_, token)) = due.take() {
                self.engine.cancel(token);
            }
            if let Some(at) = at {
                let token = self.engine.schedule_cancelable(at, Event::JobDone(slot));
                *due = Some((at, token));
            }
        }
        dirty.clear();
        self.world.jobs.dirty_list = dirty;
    }

    /// Terminates drained instances whose departures have finished, in
    /// ID order.
    pub(crate) fn try_terminations(&mut self) {
        let insts = &self.world.insts;
        let empty = |&s: &u32| insts.rows[s as usize].tasks.is_empty();
        let candidates: Vec<u32> = insts.draining().filter(empty).collect();
        for islot in candidates {
            let busy = self.world.insts.rows[islot as usize].busy_until;
            self.terminate(islot, busy.max(self.now()));
        }
    }

    /// Terminates the instance in `islot` at `at`, and commits its row to
    /// the time the provider keeps (the first it was given, clamped to its
    /// request time): a time already reached drops the row now, a future
    /// one leaves it terminating until `advance_to` passes it.
    fn terminate(&mut self, islot: u32, at: SimTime) {
        let id = self.world.insts.rows[islot as usize].id;
        let _ = self.cloud.terminate(id, at);
        match self.cloud.instance(id).and_then(|i| i.terminated_at) {
            Some(t) if t <= self.now() => self.drop_row(islot),
            Some(t) => self.world.insts.set_life(islot, Life::Terminating(t)),
            None => {}
        }
    }

    // ----- incremental integral accounting -------------------------------

    /// Provisions an instance of `type_id` (a cataloged type, as the world's
    /// catalog is the provider's) and returns its new row, or [`NO_SLOT`].
    pub(crate) fn launch(&mut self, type_id: eva_types::InstanceTypeId) -> u32 {
        let at = self.now();
        let Ok(id) = self
            .cloud
            .provision(ProvisionRequest { type_id, at }, &mut self.rng)
        else {
            self.provisions_failed += 1;
            return NO_SLOT;
        };
        let inst = self.cloud.instance(id).expect("a provisioned instance");
        let ty = self.catalog.get(inst.type_id).expect("a cataloged type");
        self.world
            .insts
            .insert(id, ty.id, inst.ready_at, ty.capacity)
    }

    /// Maps (unmaps) the task in `tslot` onto (from) instance slot
    /// `islot`, with the demand it places on that instance's type and its
    /// reservation price (§4.2).
    pub(crate) fn map_task(&mut self, islot: u32, tslot: u32, mapped: bool) {
        let type_id = self.world.insts.rows[islot as usize].type_id;
        let ty = self.catalog.get(type_id).expect("rows hold catalog types");
        let spec = &self.task_spec(tslot).demand;
        let price = self.catalog.cheapest_fit(spec).map(|ty| ty.hourly_cost);
        let (demand, price) = (ty.demand_of(spec), price.unwrap_or_default());
        self.world.insts.map(islot, tslot, demand, price, mapped);
    }

    /// Drops the row in `islot` and its capacity from the rate (it holds
    /// no task). A service world also drops the provider record: its bill
    /// and uptime froze at termination, and nothing reads a
    /// past-terminated instance again.
    fn drop_row(&mut self, islot: u32) {
        let id = self.world.insts.rows[islot as usize].id;
        self.world.insts.remove(islot);
        if self.retire_completed {
            self.cloud.retire_instance(id);
        }
    }

    /// Marks every job with a task mapped to instance slot `islot`
    /// dirty — their effective throughput may change with the
    /// instance's state (placement, straggle factor, co-location set).
    pub(crate) fn touch_instance_jobs(&mut self, islot: u32) {
        let now = self.engine.now();
        let world = &mut self.world;
        for &t in &world.insts.rows[islot as usize].tasks {
            world.jobs.mark_dirty(world.tasks.job_slot[t as usize], now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultSpec;
    use eva_workloads::SyntheticTraceConfig;

    #[test]
    fn capacity_integral_counts_each_instance_from_request_to_termination() {
        // A row counts its capacity up to its termination deadline: not to
        // whichever event follows it, nor past the end of the run.
        for regime in ["none", "preempt-storm:3", "straggler:2"] {
            let trace = SyntheticTraceConfig::small_scale().generate(5);
            let mut cfg = SimConfig::new(trace, SchedulerKind::Stratus);
            cfg.faults = FaultSpec::parse(regime).unwrap();
            let mut sim = ClusterSim::new(&cfg);
            while sim.step() {}
            sim.finish();
            let mut expected = [0.0; 3];
            for inst in sim.cloud.instances() {
                let ty = sim.catalog.get(inst.type_id).unwrap();
                let end = inst.terminated_at.expect("every instance terminated");
                let hours = end.duration_since(inst.requested_at).as_hours_f64();
                let cap = lanes(ty.capacity);
                expected = [0, 1, 2].map(|r| expected[r] + hours * cap[r]);
            }
            for (r, (got, want)) in sim.capacity_integral.iter().zip(expected).enumerate() {
                assert!(
                    want > 0.0 && (got - want).abs() <= 1e-9 * want,
                    "{regime}, lane {r}: {got} against {want}"
                );
            }
        }
    }
}
