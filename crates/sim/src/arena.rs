//! Dense arena-indexed, structure-of-arrays world state.
//!
//! The world model used to key every per-event touch of job/task/instance
//! state through `BTreeMap` lookups — O(log n) pointer-chasing on the
//! hottest path in the repo. IDs are newtyped integers, so instead the
//! world interns them into contiguous `u32` slots at construction:
//!
//! * **job slots** are assigned in ascending [`JobId`] order, so walking
//!   `0..len` visits jobs exactly as the old `BTreeMap<JobId, _>`
//!   iteration did — float accumulation order (and therefore report
//!   bytes) is preserved;
//! * **task slots** are job-major and ascending by [`TaskId`] within a
//!   job, so each job's tasks form one contiguous slot range and a
//!   sorted task-slot list is sorted by `TaskId`;
//! * **instance slots** are allocated when the provider provisions and
//!   recycled through a free list when instances retire — per-instance
//!   state (mapped tasks, busy-until, straggle factor) lives in parallel
//!   `Vec`s indexed by slot, with a dense `InstanceId → slot` table on
//!   the side (provider IDs are sequential);
//! * **job slots recycle too** when retirement is enabled: a completed
//!   job folds its report contribution into the host's completed-job
//!   log, releases its task range, and returns its slot through
//!   [`JobArena::release`] — the same free-list discipline as
//!   instances — so a long-lived streaming world holds state for the
//!   in-flight window only, not for every job ever ingested. Streaming
//!   worlds intern jobs out of ID order as they arrive
//!   ([`WorldArena::intern_job`]), so they carry side `BTreeMap`
//!   lookups in place of the sorted-lane binary search, and the active
//!   set orders by *ID* (identical to slot order whenever slots were
//!   interned in ID order, which keeps batch bytes unchanged).
//!
//! Dynamic state is stored as structure-of-arrays `Vec`s: the per-event
//! integration loop touches `remaining_hours`/`tput_integral`/… as flat
//! `f64` lanes instead of chasing map nodes. Job and task *specs* are
//! never cloned — slots carry indices into the shared trace, so a
//! million-job world costs a few flat vectors, not a second copy of the
//! trace.
//!
//! A task's lifecycle states are specified by [`crate::state`], whose
//! unit tests also pin a single job's advance arithmetic on a one-job
//! arena. `tests/arena_parity.rs` pins the end-to-end equivalence
//! byte-for-byte against a pre-arena golden.
//!
//! # Dirty-set invariants (the O(changed) hot loop)
//!
//! Jobs advance *lazily*: every clock segment the simulation crosses is
//! appended to a global log ([`JobArena::push_segment`]), and a job's
//! progress lanes are only brought current ([`JobArena::settle`]) when
//! something actually reads or perturbs them. Settling replays the
//! logged segments one at a time through [`JobArena::advance`] at the
//! job's cached `rate`, so the float-operation sequence — and therefore
//! every report byte — is identical to the old advance-everyone-every-
//! event loop. The machinery is sound iff the host (`ClusterSim`)
//! upholds, and `audit()` checks, these invariants:
//!
//! 1. **Dirty before different.** Any event that can change a job's
//!    effective throughput (task placement/readiness, straggler factor,
//!    co-location set, fault surgery on `remaining_hours`) marks the
//!    job dirty *within that event*, before the next segment is pushed.
//!    [`JobArena::mark_dirty`] settles the job first, so all logged
//!    segments are replayed at the rate that actually prevailed.
//! 2. **Recompute drains.** Every event that marks jobs dirty ends by
//!    draining the dirty list (`recompute_completions`), refreshing
//!    each dirty job's cached `rate` and completion event. Hence at
//!    every segment boundary the dirty list is empty and every cached
//!    rate is current — `advance_to` never needs to settle anything.
//! 3. **Cursor bounds.** `settled[j] <= seg_log.len()` for every active
//!    job; done jobs may hold stale cursors (their lanes are frozen —
//!    `advance` ignores them), and not-yet-arrived jobs get their
//!    cursor pinned to the log head at activation.
//! 4. **Flags mirror the list.** `dirty[j]` ⇔ `j ∈ dirty_list`, and
//!    only arrived, not-done jobs are ever flagged.
//!
//! `ClusterSim::audit_slots` extends this with the incremental-integral
//! invariant: the maintained capacity/allocation/running-task *rates*
//! must equal a from-scratch scan of the live instance set, bit for bit
//! (all components are integer-valued, so summation order cannot
//! introduce drift).

use std::collections::BTreeMap;

use eva_types::{InstanceId, JobId, JobSpec, SimTime, TaskId, WorkloadKind};
use eva_workloads::Trace;

use crate::state::TaskState;

/// Sentinel for "no slot" in `u32` slot references.
pub(crate) const NO_SLOT: u32 = u32::MAX;

/// Job state, slot-indexed in ascending [`JobId`] order.
#[derive(Debug)]
pub(crate) struct JobArena {
    /// Slot → job ID (ascending when interned from a trace; streaming
    /// worlds recycle slots and rely on [`Self::lookup`] instead).
    pub ids: Vec<JobId>,
    /// Slot → index of the job's spec in the trace's job vector
    /// ([`NO_SLOT`] for streamed jobs, whose specs live in
    /// [`Self::owned`]).
    pub spec_idx: Vec<u32>,
    /// Slot → first task slot of the job's contiguous task range.
    pub task_start: Vec<u32>,
    /// Slot → length of the job's task range.
    pub task_count: Vec<u32>,
    /// Owned specs for jobs interned from a stream (batch worlds leave
    /// this empty and index the shared trace through `spec_idx`).
    /// Boxed so releasing a slot actually reclaims the spec's memory.
    pub owned: Vec<Option<Box<JobSpec>>>,
    /// Total work in full-throughput hours (the spec duration, cached).
    pub total_hours: Vec<f64>,
    /// Remaining work in full-throughput hours.
    pub remaining_hours: Vec<f64>,
    /// Accumulated wall-clock hours executing.
    pub executing_hours: Vec<f64>,
    /// Accumulated wall-clock hours present but not executing.
    pub idle_hours: Vec<f64>,
    /// Integral of throughput over executing time.
    pub tput_integral: Vec<f64>,
    /// Completion time, once done.
    pub completed_at: Vec<Option<SimTime>>,
    /// Stamp invalidating stale completion events.
    pub completion_gen: Vec<u64>,
    /// Whether the job's arrival event has fired.
    pub arrived: Vec<bool>,
    /// Arrived-and-not-done job slots, kept sorted (ascending slot ==
    /// ascending `JobId`): the iteration set of every per-event loop,
    /// so done and not-yet-arrived jobs cost nothing per event.
    pub active: Vec<u32>,
    /// Cached effective throughput, refreshed whenever the job is
    /// recomputed (dirty-set invariant 2 in the module docs).
    pub rate: Vec<f64>,
    /// Per-job cursor into [`Self::seg_log`]: segments below it are
    /// already folded into the job's progress lanes.
    pub settled: Vec<u32>,
    /// Dirty flag, mirroring membership in [`Self::dirty_list`].
    pub dirty: Vec<bool>,
    /// Jobs marked dirty since the last recompute drain.
    pub dirty_list: Vec<u32>,
    /// Due time of the job's outstanding completion event (`None` when
    /// none is scheduled), letting recompute skip re-pushing an event
    /// that would land at the same instant.
    pub scheduled_done_at: Vec<Option<SimTime>>,
    /// Global log of clock segments (dt in hours) since the last
    /// [`Self::settle_active_and_reset`] point.
    pub seg_log: Vec<f64>,
    /// Slots returned through [`Self::release`]: their lanes are reset
    /// and their stale IDs are excluded from audits until reuse.
    pub released: Vec<bool>,
    /// Recycled job slots awaiting reuse (mirrors the instance arena's
    /// free list).
    pub free: Vec<u32>,
    /// `JobId → slot` map, maintained only for streaming worlds where
    /// slot recycling breaks the sorted-lane binary search.
    pub lookup: Option<BTreeMap<JobId, u32>>,
}

impl JobArena {
    /// Slot of `id`, if the world currently holds it.
    pub fn slot_of(&self, id: JobId) -> Option<u32> {
        match &self.lookup {
            Some(map) => map.get(&id).copied(),
            None => self.ids.binary_search(&id).ok().map(|s| s as u32),
        }
    }

    /// True once the job has no work left.
    pub fn is_done(&self, slot: u32) -> bool {
        self.completed_at[slot as usize].is_some()
    }

    /// The job's contiguous task-slot range.
    pub fn task_range(&self, slot: u32) -> std::ops::Range<usize> {
        let start = self.task_start[slot as usize] as usize;
        start..start + self.task_count[slot as usize] as usize
    }

    /// Position of `slot` in the ID-ordered active set (`Ok` when
    /// listed). Ordering by ID keeps iteration — and therefore float
    /// accumulation — in `JobId` order even when recycled slots are
    /// interned out of order; with trace interning, slot order *is* ID
    /// order and this degenerates to the old slot-ordered search.
    fn active_pos(&self, slot: u32) -> Result<usize, usize> {
        let key = self.ids[slot as usize];
        let ids = &self.ids;
        self.active
            .binary_search_by(|&x| ids[x as usize].cmp(&key).then(x.cmp(&slot)))
    }

    /// Marks the job arrived and inserts it into the active set. The
    /// settle cursor pins to the log head: segments before arrival
    /// never touch this job.
    pub fn activate(&mut self, slot: u32) {
        self.arrived[slot as usize] = true;
        self.settled[slot as usize] = self.seg_log.len() as u32;
        if let Err(pos) = self.active_pos(slot) {
            self.active.insert(pos, slot);
        }
    }

    /// Removes a completed job from the active set.
    pub fn retire(&mut self, slot: u32) {
        if let Ok(pos) = self.active_pos(slot) {
            self.active.remove(pos);
        }
    }

    /// Returns a completed, already-retired job's slot to the free
    /// list, resetting every dynamic lane so it recycles clean. The
    /// caller must have folded the job's report contribution first —
    /// after release the lanes carry nothing. `completion_gen` stays
    /// monotone across recycling so stale completion events can never
    /// validate against a reused slot.
    pub fn release(&mut self, slot: u32) {
        let s = slot as usize;
        debug_assert!(self.completed_at[s].is_some(), "releasing an unfinished job");
        debug_assert!(!self.dirty[s], "releasing a dirty job");
        debug_assert!(self.active_pos(slot).is_err(), "releasing an active job");
        if let Some(map) = self.lookup.as_mut() {
            map.remove(&self.ids[s]);
        }
        self.arrived[s] = false;
        self.completed_at[s] = None;
        self.scheduled_done_at[s] = None;
        self.total_hours[s] = 0.0;
        self.remaining_hours[s] = 0.0;
        self.executing_hours[s] = 0.0;
        self.idle_hours[s] = 0.0;
        self.tput_integral[s] = 0.0;
        self.rate[s] = 0.0;
        self.settled[s] = 0;
        if let Some(spec) = self.owned.get_mut(s) {
            *spec = None;
        }
        self.released[s] = true;
        self.free.push(slot);
    }

    /// Advances the job by `dt_hours` at effective throughput `tput`
    /// (0 when not executing).
    pub fn advance(&mut self, slot: u32, dt_hours: f64, tput: f64) {
        let s = slot as usize;
        if self.completed_at[s].is_some() || dt_hours <= 0.0 {
            return;
        }
        if tput > 0.0 {
            self.remaining_hours[s] = (self.remaining_hours[s] - dt_hours * tput).max(0.0);
            self.executing_hours[s] += dt_hours;
            self.tput_integral[s] += dt_hours * tput;
        } else {
            self.idle_hours[s] += dt_hours;
        }
    }

    /// Hours until completion at throughput `tput`, if it is positive.
    pub fn eta_hours(&self, slot: u32, tput: f64) -> Option<f64> {
        let s = slot as usize;
        if self.completed_at[s].is_some() || tput <= 0.0 {
            None
        } else {
            Some(self.remaining_hours[s] / tput)
        }
    }

    /// Average normalized throughput while executing (1.0 for a job that
    /// never experienced interference).
    pub fn mean_tput(&self, slot: u32) -> f64 {
        let s = slot as usize;
        if self.executing_hours[s] <= 0.0 {
            1.0
        } else {
            self.tput_integral[s] / self.executing_hours[s]
        }
    }

    /// Appends a clock segment to the global log (jobs fold it in
    /// lazily when settled).
    pub fn push_segment(&mut self, dt_hours: f64) {
        self.seg_log.push(dt_hours);
    }

    /// Replays every unseen logged segment into the job's progress
    /// lanes at its cached rate — segment by segment, so the float
    /// operations match the eager per-event advance exactly.
    pub fn settle(&mut self, slot: u32) {
        let s = slot as usize;
        let from = self.settled[s] as usize;
        let rate = self.rate[s];
        for k in from..self.seg_log.len() {
            let dt = self.seg_log[k];
            self.advance(slot, dt, rate);
        }
        self.settled[s] = self.seg_log.len() as u32;
    }

    /// Settles every active job and truncates the segment log (their
    /// cursors reset with it). Called at points that read all progress
    /// anyway (scheduler rounds, finalize), bounding replay length.
    pub fn settle_active_and_reset(&mut self) {
        for i in 0..self.active.len() {
            let slot = self.active[i];
            self.settle(slot);
            self.settled[slot as usize] = 0;
        }
        self.seg_log.clear();
    }

    /// Flags an active job whose effective throughput may have changed,
    /// settling its lanes first so the pending segments replay at the
    /// rate that actually prevailed (dirty-set invariant 1).
    pub fn mark_dirty(&mut self, slot: u32) {
        let s = slot as usize;
        if !self.arrived[s] || self.completed_at[s].is_some() || self.dirty[s] {
            return;
        }
        self.settle(slot);
        self.dirty[s] = true;
        self.dirty_list.push(slot);
    }
}

/// Task state, slot-indexed job-major in ascending [`TaskId`] order.
#[derive(Debug)]
pub(crate) struct TaskArena {
    /// Slot → task ID (ascending; slot order is ID order).
    pub ids: Vec<TaskId>,
    /// Slot → owning job's slot.
    pub job_slot: Vec<u32>,
    /// Slot → the task's position in its job spec's task vector.
    pub spec_pos: Vec<u32>,
    /// Slot → workload kind (cached from the spec for the tput loop).
    pub workload: Vec<WorkloadKind>,
    /// Lifecycle state.
    pub state: Vec<TaskState>,
    /// Target instance slot ([`NO_SLOT`] when unplaced).
    pub assigned: Vec<u32>,
    /// Migrations performed so far.
    pub migrations: Vec<u32>,
    /// Monotonic transfer generation (invalidates superseded readiness).
    pub gen: Vec<u64>,
    /// Spec-order lookup: the slot of job `j`'s `pos`-th spec task is
    /// `slot_by_pos[task_start[j] + pos]` (identity whenever spec tasks
    /// are declared in index order, which every generator does).
    pub slot_by_pos: Vec<u32>,
    /// `TaskId → slot` map, maintained only for streaming worlds (see
    /// [`JobArena::lookup`]).
    pub lookup: Option<BTreeMap<TaskId, u32>>,
    /// Released task ranges awaiting exact-fit reuse: range length →
    /// start slots. Jobs release their whole contiguous range at once,
    /// so recycling preserves the job-major contiguity invariant.
    pub free_ranges: BTreeMap<u32, Vec<u32>>,
}

impl TaskArena {
    /// Slot of `id`, if the world currently holds it.
    pub fn slot_of(&self, id: TaskId) -> Option<u32> {
        match &self.lookup {
            Some(map) => map.get(&id).copied(),
            None => self.ids.binary_search(&id).ok().map(|s| s as u32),
        }
    }

    /// True when the task currently computes (and therefore interferes).
    pub fn is_running(&self, slot: u32) -> bool {
        self.state[slot as usize] == TaskState::Running
    }
}

/// Instance state, slot-indexed with a free list: slots recycle as the
/// provider churns through spot instances.
#[derive(Debug, Default)]
pub(crate) struct InstArena {
    /// Dense `InstanceId → slot` table (provider IDs are sequential);
    /// [`NO_SLOT`] when the instance holds no slot (never provisioned,
    /// or already released).
    slot_by_id: Vec<u32>,
    /// Slot → instance ID (meaningful only while the slot is live).
    pub ids: Vec<InstanceId>,
    /// Slot → mapped task slots, kept sorted (ascending task slot ==
    /// ascending `TaskId`, preserving co-location iteration order).
    pub tasks: Vec<Vec<u32>>,
    /// Slot → departure-checkpoint barrier ([`SimTime::ZERO`] = unset).
    pub busy_until: Vec<SimTime>,
    /// Slot → straggler slowdown factor (1.0 = unafflicted).
    pub straggle: Vec<f64>,
    /// Recycled slots awaiting reuse.
    free: Vec<u32>,
}

impl InstArena {
    /// Live slot of `id`, if it holds one.
    pub fn get(&self, id: InstanceId) -> Option<u32> {
        match self.slot_by_id.get(id.0 as usize) {
            Some(&s) if s != NO_SLOT => Some(s),
            _ => None,
        }
    }

    /// Returns `id`'s slot, allocating (or recycling) one if needed.
    pub fn ensure(&mut self, id: InstanceId) -> u32 {
        if let Some(s) = self.get(id) {
            return s;
        }
        let idx = id.0 as usize;
        if idx >= self.slot_by_id.len() {
            self.slot_by_id.resize(idx + 1, NO_SLOT);
        }
        let slot = match self.free.pop() {
            Some(s) => {
                self.ids[s as usize] = id;
                debug_assert!(self.tasks[s as usize].is_empty());
                debug_assert_eq!(self.busy_until[s as usize], SimTime::ZERO);
                debug_assert_eq!(self.straggle[s as usize], 1.0);
                s
            }
            None => {
                let s = self.ids.len() as u32;
                self.ids.push(id);
                self.tasks.push(Vec::new());
                self.busy_until.push(SimTime::ZERO);
                self.straggle.push(1.0);
                s
            }
        };
        self.slot_by_id[idx] = slot;
        slot
    }

    /// Releases `id`'s slot back to the free list, resetting its state.
    pub fn release(&mut self, id: InstanceId) {
        let Some(slot) = self.get(id) else {
            return;
        };
        self.slot_by_id[id.0 as usize] = NO_SLOT;
        self.tasks[slot as usize].clear();
        self.busy_until[slot as usize] = SimTime::ZERO;
        self.straggle[slot as usize] = 1.0;
        self.free.push(slot);
    }

    /// Maps a task slot onto an instance slot (sorted insert); returns
    /// whether the mapping was actually added, so callers can keep the
    /// incremental allocation rates in lockstep.
    pub fn attach(&mut self, slot: u32, task: u32) -> bool {
        let list = &mut self.tasks[slot as usize];
        match list.binary_search(&task) {
            Err(pos) => {
                list.insert(pos, task);
                true
            }
            Ok(_) => false,
        }
    }

    /// Unmaps a task slot from an instance slot; returns whether the
    /// mapping was actually removed.
    pub fn detach(&mut self, slot: u32, task: u32) -> bool {
        let list = &mut self.tasks[slot as usize];
        match list.binary_search(&task) {
            Ok(pos) => {
                list.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// Slots currently live (mapped from an ID).
    pub fn live_slots(&self) -> impl Iterator<Item = u32> + '_ {
        self.slot_by_id.iter().copied().filter(|&s| s != NO_SLOT)
    }
}

/// The complete interned world state: jobs + tasks + instances.
#[derive(Debug)]
pub(crate) struct WorldArena {
    pub jobs: JobArena,
    pub tasks: TaskArena,
    pub insts: InstArena,
    /// Trace job index → job slot (arrival events carry trace indices).
    pub slot_of_spec: Vec<u32>,
}

impl WorldArena {
    /// Interns every job and task ID of `trace` into slots. All dynamic
    /// state starts at its pre-arrival default; instances intern lazily
    /// as the provider provisions them.
    pub fn from_trace(trace: &Trace) -> Self {
        let specs = trace.jobs();
        let n = specs.len();
        let total_tasks: usize = specs.iter().map(|j| j.tasks.len()).sum();

        // Job slots in ascending JobId order (the trace is arrival-
        // ordered, which usually — but not necessarily — coincides).
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by_key(|&i| specs[i as usize].id);

        let mut jobs = JobArena {
            ids: Vec::with_capacity(n),
            spec_idx: Vec::with_capacity(n),
            task_start: Vec::with_capacity(n),
            task_count: Vec::with_capacity(n),
            owned: Vec::new(),
            total_hours: Vec::with_capacity(n),
            remaining_hours: Vec::with_capacity(n),
            executing_hours: vec![0.0; n],
            idle_hours: vec![0.0; n],
            tput_integral: vec![0.0; n],
            completed_at: vec![None; n],
            completion_gen: vec![0; n],
            arrived: vec![false; n],
            active: Vec::new(),
            rate: vec![0.0; n],
            settled: vec![0; n],
            dirty: vec![false; n],
            dirty_list: Vec::new(),
            scheduled_done_at: vec![None; n],
            seg_log: Vec::new(),
            released: vec![false; n],
            free: Vec::new(),
            lookup: None,
        };
        let mut tasks = TaskArena {
            ids: Vec::with_capacity(total_tasks),
            job_slot: Vec::with_capacity(total_tasks),
            spec_pos: Vec::with_capacity(total_tasks),
            workload: Vec::with_capacity(total_tasks),
            state: vec![TaskState::Pending; total_tasks],
            assigned: vec![NO_SLOT; total_tasks],
            migrations: vec![0; total_tasks],
            gen: vec![0; total_tasks],
            slot_by_pos: vec![0; total_tasks],
            lookup: None,
            free_ranges: BTreeMap::new(),
        };
        let mut slot_of_spec = vec![0u32; n];

        for (slot, &si) in order.iter().enumerate() {
            let spec = &specs[si as usize];
            debug_assert!(
                jobs.ids.last().is_none_or(|last| *last < spec.id),
                "duplicate job id {} in trace",
                spec.id
            );
            slot_of_spec[si as usize] = slot as u32;
            jobs.ids.push(spec.id);
            jobs.spec_idx.push(si);
            jobs.task_start.push(tasks.ids.len() as u32);
            jobs.task_count.push(spec.tasks.len() as u32);
            let total = spec.duration_at_full_tput.as_hours_f64();
            jobs.total_hours.push(total);
            jobs.remaining_hours.push(total);

            // Task slots ascending by TaskId within the job (generators
            // declare tasks in index order, but don't assume it).
            let base = tasks.ids.len() as u32;
            let mut positions: Vec<u32> = (0..spec.tasks.len() as u32).collect();
            positions.sort_by_key(|&p| spec.tasks[p as usize].id);
            for (k, &pos) in positions.iter().enumerate() {
                let t = &spec.tasks[pos as usize];
                debug_assert_eq!(t.id.job, spec.id, "task under foreign job");
                let tslot = base + k as u32;
                tasks.ids.push(t.id);
                tasks.job_slot.push(slot as u32);
                tasks.spec_pos.push(pos);
                tasks.workload.push(t.workload);
                tasks.slot_by_pos[(base + pos) as usize] = tslot;
            }
        }
        debug_assert!(tasks.ids.windows(2).all(|w| w[0] < w[1]));

        WorldArena {
            jobs,
            tasks,
            insts: InstArena::default(),
            slot_of_spec,
        }
    }

    /// Switches the world to streaming mode: job and task ID lookups go
    /// through side maps (slot recycling breaks the sorted-lane binary
    /// search) and [`Self::intern_job`] becomes legal. Call before any
    /// streamed intern; existing slots seed the maps.
    pub fn enable_streaming(&mut self) {
        self.jobs.lookup = Some(
            self.jobs
                .ids
                .iter()
                .enumerate()
                .map(|(s, &id)| (id, s as u32))
                .collect(),
        );
        self.tasks.lookup = Some(
            self.tasks
                .ids
                .iter()
                .enumerate()
                .map(|(s, &id)| (id, s as u32))
                .collect(),
        );
    }

    /// Interns one streamed job, recycling a released job slot and an
    /// exact-fit released task range when available, appending fresh
    /// lanes otherwise. The spec is owned by the slot (released with
    /// it); all dynamic state starts at its pre-arrival default.
    /// Requires [`Self::enable_streaming`].
    pub fn intern_job(&mut self, spec: JobSpec) -> u32 {
        debug_assert!(self.jobs.lookup.is_some(), "streaming intern without lookup maps");
        let n_tasks = spec.tasks.len() as u32;
        let jobs = &mut self.jobs;
        let jslot = match jobs.free.pop() {
            Some(s) => {
                debug_assert!(jobs.released[s as usize]);
                jobs.released[s as usize] = false;
                s
            }
            None => {
                let s = jobs.ids.len() as u32;
                jobs.ids.push(spec.id);
                jobs.spec_idx.push(NO_SLOT);
                jobs.task_start.push(0);
                jobs.task_count.push(0);
                jobs.total_hours.push(0.0);
                jobs.remaining_hours.push(0.0);
                jobs.executing_hours.push(0.0);
                jobs.idle_hours.push(0.0);
                jobs.tput_integral.push(0.0);
                jobs.completed_at.push(None);
                jobs.completion_gen.push(0);
                jobs.arrived.push(false);
                jobs.rate.push(0.0);
                jobs.settled.push(0);
                jobs.dirty.push(false);
                jobs.scheduled_done_at.push(None);
                jobs.released.push(false);
                s
            }
        };
        while jobs.owned.len() <= jslot as usize {
            jobs.owned.push(None);
        }
        let base = match self
            .tasks
            .free_ranges
            .get_mut(&n_tasks)
            .and_then(|starts| starts.pop())
        {
            Some(b) => b,
            None => {
                let b = self.tasks.ids.len() as u32;
                for _ in 0..n_tasks {
                    self.tasks.ids.push(TaskId::new(spec.id, 0));
                    self.tasks.job_slot.push(jslot);
                    self.tasks.spec_pos.push(0);
                    self.tasks.workload.push(WorkloadKind(0));
                    self.tasks.state.push(TaskState::Pending);
                    self.tasks.assigned.push(NO_SLOT);
                    self.tasks.migrations.push(0);
                    self.tasks.gen.push(0);
                    self.tasks.slot_by_pos.push(0);
                }
                b
            }
        };

        let js = jslot as usize;
        jobs.ids[js] = spec.id;
        jobs.spec_idx[js] = NO_SLOT;
        jobs.task_start[js] = base;
        jobs.task_count[js] = n_tasks;
        let total = spec.duration_at_full_tput.as_hours_f64();
        jobs.total_hours[js] = total;
        jobs.remaining_hours[js] = total;
        if let Some(map) = jobs.lookup.as_mut() {
            let prev = map.insert(spec.id, jslot);
            debug_assert!(prev.is_none(), "duplicate streamed job id {}", spec.id);
        }

        // Task slots ascending by TaskId within the job, as in
        // `from_trace`.
        let mut positions: Vec<u32> = (0..n_tasks).collect();
        positions.sort_by_key(|&p| spec.tasks[p as usize].id);
        for (k, &pos) in positions.iter().enumerate() {
            let t = &spec.tasks[pos as usize];
            debug_assert_eq!(t.id.job, spec.id, "task under foreign job");
            let tslot = base + k as u32;
            let ts = tslot as usize;
            self.tasks.ids[ts] = t.id;
            self.tasks.job_slot[ts] = jslot;
            self.tasks.spec_pos[ts] = pos;
            self.tasks.workload[ts] = t.workload;
            self.tasks.state[ts] = TaskState::Pending;
            self.tasks.assigned[ts] = NO_SLOT;
            self.tasks.migrations[ts] = 0;
            self.tasks.slot_by_pos[(base + pos) as usize] = tslot;
            if let Some(map) = self.tasks.lookup.as_mut() {
                map.insert(t.id, tslot);
            }
        }
        jobs.owned[js] = Some(Box::new(spec));
        jslot
    }

    /// Releases a completed job's task range and job slot back to their
    /// free lists. The caller must have recorded the job's report
    /// contribution and detached every task already (completion does
    /// both).
    pub fn release_job(&mut self, jslot: u32) {
        let range = self.jobs.task_range(jslot);
        let (base, len) = (range.start as u32, range.len() as u32);
        for t in range {
            debug_assert_eq!(self.tasks.assigned[t], NO_SLOT, "releasing a mapped task");
            self.tasks.state[t] = TaskState::Pending;
            self.tasks.migrations[t] = 0;
            // `gen` stays monotone so stale readiness events can never
            // validate against a recycled task slot.
            if let Some(map) = self.tasks.lookup.as_mut() {
                map.remove(&self.tasks.ids[t]);
            }
        }
        if len > 0 {
            self.tasks.free_ranges.entry(len).or_default().push(base);
        }
        self.jobs.release(jslot);
    }

    /// Verifies every slot↔ID round trip and cross-reference; returns a
    /// description of the first violation. Backs the public
    /// `ClusterSim::audit_slots` test hook.
    pub fn audit(&self) -> Result<(), String> {
        for (slot, &id) in self.jobs.ids.iter().enumerate() {
            if self.jobs.released[slot] {
                // Released slots hold stale IDs; they must read as inert
                // until reuse.
                if self.jobs.arrived[slot]
                    || self.jobs.completed_at[slot].is_some()
                    || self.jobs.dirty[slot]
                {
                    return Err(format!("released job slot {slot} is not inert"));
                }
                continue;
            }
            if self.jobs.slot_of(id) != Some(slot as u32) {
                return Err(format!("job {id} does not round-trip slot {slot}"));
            }
        }
        for slot in 0..self.jobs.ids.len() as u32 {
            let should = self.jobs.arrived[slot as usize] && !self.jobs.is_done(slot);
            let listed = self.jobs.active_pos(slot).is_ok();
            if should != listed {
                return Err(format!(
                    "job {} active-set membership {listed} (expected {should})",
                    self.jobs.ids[slot as usize]
                ));
            }
        }
        // Dirty-set invariants 3 and 4 (module docs): flags mirror the
        // list, only active jobs are flagged, and no active cursor runs
        // past the segment log.
        let mut flagged = 0usize;
        for slot in 0..self.jobs.ids.len() as u32 {
            if self.jobs.dirty[slot as usize] {
                flagged += 1;
                if !self.jobs.arrived[slot as usize] || self.jobs.is_done(slot) {
                    return Err(format!(
                        "inactive job {} is flagged dirty",
                        self.jobs.ids[slot as usize]
                    ));
                }
            }
        }
        for &slot in &self.jobs.dirty_list {
            if !self.jobs.dirty[slot as usize] {
                return Err(format!(
                    "dirty list holds unflagged job {}",
                    self.jobs.ids[slot as usize]
                ));
            }
        }
        if self.jobs.dirty_list.len() != flagged {
            return Err(format!(
                "dirty list length {} != {} flagged jobs",
                self.jobs.dirty_list.len(),
                flagged
            ));
        }
        if !self
            .jobs
            .active
            .windows(2)
            .all(|w| self.jobs.ids[w[0] as usize] < self.jobs.ids[w[1] as usize])
        {
            return Err("active set out of JobId order".to_string());
        }
        for &slot in &self.jobs.active {
            if self.jobs.settled[slot as usize] as usize > self.jobs.seg_log.len() {
                return Err(format!(
                    "job {} settle cursor past the segment log",
                    self.jobs.ids[slot as usize]
                ));
            }
        }
        // Free task ranges hold stale IDs and back-references; skip them
        // (audits run in tests, so the scan cost is fine).
        let mut task_free = vec![false; self.tasks.ids.len()];
        for (&len, starts) in &self.tasks.free_ranges {
            for &base in starts {
                for t in base..base + len {
                    task_free[t as usize] = true;
                }
            }
        }
        for (slot, &id) in self.tasks.ids.iter().enumerate() {
            if task_free[slot] {
                continue;
            }
            if self.tasks.slot_of(id) != Some(slot as u32) {
                return Err(format!("task {id} does not round-trip slot {slot}"));
            }
            let jslot = self.tasks.job_slot[slot];
            if self.jobs.ids[jslot as usize] != id.job {
                return Err(format!("task {id} points at job slot {jslot}"));
            }
            if !self.jobs.task_range(jslot).contains(&slot) {
                return Err(format!("task {id} outside its job's slot range"));
            }
            let inst = self.tasks.assigned[slot];
            if inst != NO_SLOT {
                let mapped = self.insts.tasks[inst as usize].binary_search(&(slot as u32));
                let done = self.tasks.state[slot] == TaskState::Done;
                if mapped.is_err() && !done {
                    return Err(format!("task {id} assigned to slot {inst} but unmapped"));
                }
            }
        }
        for slot in self.insts.live_slots() {
            let id = self.insts.ids[slot as usize];
            if self.insts.get(id) != Some(slot) {
                return Err(format!("instance {id} does not round-trip slot {slot}"));
            }
            let list = &self.insts.tasks[slot as usize];
            if !list.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("instance {id} task list unsorted"));
            }
            for &t in list {
                if self.tasks.assigned[t as usize] != slot {
                    return Err(format!(
                        "instance {id} maps task slot {t} assigned elsewhere"
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eva_workloads::SyntheticTraceConfig;

    #[test]
    fn interning_orders_slots_by_id() {
        let trace = SyntheticTraceConfig::small_scale().generate(42);
        let world = WorldArena::from_trace(&trace);
        assert_eq!(world.jobs.ids.len(), trace.len());
        assert!(world.jobs.ids.windows(2).all(|w| w[0] < w[1]));
        assert!(world.tasks.ids.windows(2).all(|w| w[0] < w[1]));
        // Every trace index round-trips through its slot.
        for (idx, spec) in trace.jobs().iter().enumerate() {
            let slot = world.slot_of_spec[idx];
            assert_eq!(world.jobs.ids[slot as usize], spec.id);
            assert_eq!(world.jobs.spec_idx[slot as usize] as usize, idx);
            assert_eq!(world.jobs.task_range(slot).len(), spec.tasks.len());
        }
        world.audit().unwrap();
    }

    #[test]
    fn instance_slots_recycle_through_free_list() {
        let trace = SyntheticTraceConfig::small_scale().generate(1);
        let mut world = WorldArena::from_trace(&trace);
        let a = world.insts.ensure(InstanceId(0));
        let b = world.insts.ensure(InstanceId(1));
        assert_ne!(a, b);
        assert_eq!(world.insts.ensure(InstanceId(0)), a, "idempotent");
        world.insts.straggle[a as usize] = 0.5;
        world.insts.busy_until[a as usize] = SimTime::from_secs(30);
        world.insts.release(InstanceId(0));
        assert_eq!(world.insts.get(InstanceId(0)), None);
        // The recycled slot comes back clean for the next instance.
        let c = world.insts.ensure(InstanceId(7));
        assert_eq!(c, a);
        assert_eq!(world.insts.straggle[c as usize], 1.0);
        assert_eq!(world.insts.busy_until[c as usize], SimTime::ZERO);
        assert_eq!(world.insts.ids[c as usize], InstanceId(7));
        world.audit().unwrap();
    }

    #[test]
    fn active_set_tracks_arrival_and_retirement_in_id_order() {
        let trace = SyntheticTraceConfig::small_scale().generate(3);
        let mut world = WorldArena::from_trace(&trace);
        world.jobs.activate(5);
        world.jobs.activate(1);
        world.jobs.activate(3);
        assert_eq!(world.jobs.active, vec![1, 3, 5]);
        world.jobs.retire(3);
        assert_eq!(world.jobs.active, vec![1, 5]);
        world.jobs.activate(1); // double-activation is idempotent
        assert_eq!(world.jobs.active, vec![1, 5]);
    }

    #[test]
    fn arena_advance_matches_reference_job_progress() {
        let trace = SyntheticTraceConfig::small_scale().generate(9);
        let mut world = WorldArena::from_trace(&trace);
        let slot = world.slot_of_spec[0];
        // The reference: one job's four accumulators as plain scalars.
        let mut remaining = trace.jobs()[0].duration_at_full_tput.as_hours_f64();
        let (mut executing, mut idle, mut integral) = (0.0f64, 0.0f64, 0.0f64);
        for (dt, tput) in [(0.25, 1.0), (0.5, 0.0), (1.0, 0.8), (4.0, 1.0)] {
            if tput > 0.0 {
                remaining = (remaining - dt * tput).max(0.0);
                executing += dt;
                integral += dt * tput;
            } else {
                idle += dt;
            }
            world.jobs.advance(slot, dt, tput);
        }
        let s = slot as usize;
        assert_eq!(world.jobs.remaining_hours[s], remaining);
        assert_eq!(world.jobs.executing_hours[s], executing);
        assert_eq!(world.jobs.idle_hours[s], idle);
        assert_eq!(world.jobs.tput_integral[s], integral);
        assert_eq!(world.jobs.mean_tput(slot), integral / executing);
    }

    #[test]
    fn lazy_settle_replays_segments_bit_identically_to_eager_advance() {
        let trace = SyntheticTraceConfig::small_scale().generate(9);
        let mut lazy = WorldArena::from_trace(&trace);
        let mut eager = WorldArena::from_trace(&trace);
        let (a, b) = (lazy.slot_of_spec[0], lazy.slot_of_spec[1]);
        for slot in [a, b] {
            lazy.jobs.activate(slot);
            eager.jobs.activate(slot);
        }
        // Job a runs at 0.8 throughout; job b flips from idle to 1.0
        // after two segments (marking dirty settles it at the old rate).
        lazy.jobs.rate[a as usize] = 0.8;
        for dt in [0.25, 0.125] {
            lazy.jobs.push_segment(dt);
            eager.jobs.advance(a, dt, 0.8);
            eager.jobs.advance(b, dt, 0.0);
        }
        lazy.jobs.mark_dirty(b);
        assert_eq!(lazy.jobs.dirty_list, vec![b]);
        lazy.jobs.dirty[b as usize] = false;
        lazy.jobs.dirty_list.clear();
        lazy.jobs.rate[b as usize] = 1.0;
        for dt in [0.5, 0.0625] {
            lazy.jobs.push_segment(dt);
            eager.jobs.advance(a, dt, 0.8);
            eager.jobs.advance(b, dt, 1.0);
        }
        lazy.jobs.settle_active_and_reset();
        for slot in [a, b] {
            let s = slot as usize;
            assert_eq!(lazy.jobs.remaining_hours[s], eager.jobs.remaining_hours[s]);
            assert_eq!(lazy.jobs.executing_hours[s], eager.jobs.executing_hours[s]);
            assert_eq!(lazy.jobs.idle_hours[s], eager.jobs.idle_hours[s]);
            assert_eq!(lazy.jobs.tput_integral[s], eager.jobs.tput_integral[s]);
            assert_eq!(lazy.jobs.settled[s], 0);
        }
        assert!(lazy.jobs.seg_log.is_empty());
        lazy.audit().unwrap();
    }

    #[test]
    fn streamed_jobs_recycle_slots_and_exact_fit_task_ranges() {
        use eva_types::JobSpec;
        fn reid(mut spec: JobSpec, id: JobId) -> JobSpec {
            spec.id = id;
            for (i, t) in spec.tasks.iter_mut().enumerate() {
                t.id = TaskId::new(id, i as u32);
            }
            spec
        }
        let jobs = SyntheticTraceConfig::small_scale().generate(8).into_jobs();
        let mut world = WorldArena::from_trace(&Trace::new(vec![]));
        world.enable_streaming();
        let a = world.intern_job(jobs[0].clone());
        let b = world.intern_job(reid(jobs[1].clone(), JobId(1_000)));
        assert_ne!(a, b);
        assert_eq!(world.jobs.slot_of(jobs[0].id), Some(a));
        let a_range = world.jobs.task_range(a);
        world.jobs.activate(a);
        world.audit().unwrap();

        // Complete and release the first job: its slot, task range, and
        // owned spec all come back.
        world.jobs.retire(a);
        world.jobs.completed_at[a as usize] = Some(SimTime::from_secs(60));
        world.release_job(a);
        assert!(world.jobs.released[a as usize]);
        assert!(world.jobs.owned[a as usize].is_none(), "spec memory reclaimed");
        assert_eq!(world.jobs.slot_of(jobs[0].id), None);
        world.audit().unwrap();

        // A same-shape job recycles both the job slot and the exact-fit
        // task range; lookups land on the recycled slot.
        let c = world.intern_job(reid(jobs[0].clone(), JobId(2_000)));
        assert_eq!(c, a, "job slot recycled");
        assert_eq!(world.jobs.task_range(c), a_range, "task range recycled");
        assert_eq!(world.jobs.slot_of(JobId(2_000)), Some(c));
        let t0 = world.jobs.task_range(c).start as u32;
        assert_eq!(world.tasks.slot_of(TaskId::new(JobId(2_000), 0)), Some(t0));
        assert!(world.jobs.owned[c as usize].is_some());
        world.audit().unwrap();
    }

    #[test]
    fn attach_and_detach_report_whether_the_mapping_changed() {
        let trace = SyntheticTraceConfig::small_scale().generate(1);
        let mut world = WorldArena::from_trace(&trace);
        let slot = world.insts.ensure(InstanceId(0));
        assert!(world.insts.attach(slot, 4));
        assert!(!world.insts.attach(slot, 4), "double attach is a no-op");
        assert!(world.insts.detach(slot, 4));
        assert!(!world.insts.detach(slot, 4), "double detach is a no-op");
    }
}
