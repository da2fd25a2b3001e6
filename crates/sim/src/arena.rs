//! Dense arena-indexed, structure-of-arrays world state.
//!
//! The world model used to key every per-event touch of job/task/instance
//! state through `BTreeMap` searches — O(log n) pointer-chasing on the
//! hottest path in the repo. IDs are newtyped integers, so instead the
//! world interns each job into contiguous `u32` slots when it arrives
//! ([`WorldArena::intern_job`]), whether it came from a trace or a
//! source:
//!
//! * **job slots** follow arrival order. The active set is kept in
//!   [`JobId`] order, so walking it visits jobs exactly as the old
//!   `BTreeMap<JobId, _>` iteration did (every generator numbers jobs in
//!   arrival order, so without recycling slot order is ID order too);
//! * **task slots** are job-major and ascending by [`TaskId`] within a
//!   job, so each job's tasks form one contiguous slot range and a
//!   sorted task-slot list is sorted by `TaskId`. The host puts a job's
//!   tasks in index order before they pass its door, so a job's `k`-th
//!   task is both slot `task_start + k` and `spec.tasks[k]`;
//! * **instance slots** are allocated when the provider provisions and
//!   recycled through a free list once the clock passes the instance's
//!   termination. Each instance is one [`InstRow`] of the [`InstTable`]
//!   (lifecycle, mapped tasks, checkpoint barrier, straggle factor,
//!   capacity), indexed by ID and, while draining or terminating, by life;
//! * **job slots recycle too** when retirement is enabled: a completed
//!   job, already folded into the host's report sums, releases its task
//!   range and returns its slot through
//!   [`JobArena::release`] — the same free-list discipline as
//!   instance rows — so a long-lived world holds state for the
//!   in-flight window only, not for every job ever ingested.
//!
//! IDs are admitted once: the host turns away a job whose tasks do not
//! carry its own ID under distinct indices, and a job whose ID an active
//! job holds. A job is interned and activated in one step, so every slot
//! not released holds an active or a completed job. Past the door the world names a task by its
//! slot and never maps an ID back to one: events carry slots, and a
//! round's snapshot records the slot of each task row it lists.
//!
//! Dynamic state is stored as structure-of-arrays `Vec`s indexed by slot
//! instead of map nodes, except a job's progress: settling reads and
//! writes all of it for one job at a time, so it is one [`Progress`]
//! record per slot. Trace specs are never cloned — a trace job's slot
//! carries its index into the shared trace, so a million-job world costs
//! a few flat vectors, not a second copy of the trace.
//!
//! A task's lifecycle states are specified by [`crate::state`], whose
//! unit tests also pin a single job's advance arithmetic on a one-job
//! arena. `tests/arena_parity.rs` pins the end-to-end behaviour against a
//! committed golden.
//!
//! # Progress in closed form
//!
//! Time is integer milliseconds ([`SimTime`]). A job's throughput is
//! quantised once, when the world recomputes it, to `rate` quanta of
//! 2⁻³² unit throughput ([`quantize`]); work is held in ms·quantum
//! ([`work_of`]). Each job's lanes — `remaining`, `executing_ms`,
//! `idle_ms`, `tput_integral` — hold its state at its own `last` instant.
//! Between two settles its rate is constant (invariant 1 below), so its
//! state at any `now ≥ last` is one multiply away
//! ([`JobArena::remaining_at`]), and settling ([`JobArena::settle`]) is
//! that multiply written back. Products widen to `u128` and saturate, and
//! saturating sums of non-negative terms associate, so settling at any
//! set of instants leaves the same integers as settling once. Nothing
//! settles every job; readers ask for progress at `now`. The machinery is
//! sound iff the host (`ClusterSim`) upholds invariants 1–4, which
//! `ClusterSim::audit_slots` checks after every event of the
//! `lazy_oracle` tests:
//!
//! 1. **Dirty before different.** Any event that can change a job's
//!    effective throughput (task placement/readiness, straggler factor,
//!    co-location set, fault surgery on `remaining`) marks the job dirty
//!    *within that event*. [`JobArena::mark_dirty`] settles the job
//!    first, so its lanes hold the progress made at the rate that
//!    actually prevailed.
//! 2. **Recompute drains.** Every event that marks jobs dirty ends by
//!    draining the dirty list (`recompute_completions`), refreshing each
//!    dirty job's cached `rate` and completion event. Hence between events
//!    the dirty list is empty, every cached rate is the job's throughput
//!    derived afresh, and every queued completion is `last + eta()`: a
//!    settle keeps that sum, since `div_nearest(r − rate·dt, rate) =
//!    div_nearest(r, rate) − dt`.
//! 3. **Flags mirror the list.** `dirty[j]` ⇔ `j ∈ dirty_list`, and
//!    only active jobs are ever flagged.
//! 4. **Conservation.** For every active job, `executing_ms + idle_ms`
//!    is exactly `last − arrival`, `remaining ≤ total`, and `last ≤ now`.
//!
//! `audit()` checks that no job is dirty between events and invariant 4;
//! `ClusterSim::audit_slots` checks the rest of 2, which covers 1 (a job
//! left unmarked keeps a stale rate), and the incremental-integral
//! invariant: the maintained
//! capacity/allocation/running-task *rates* must equal a from-scratch
//! scan of the provider's live instances, bit for bit (all components are
//! integer-valued, so summation order cannot introduce drift).
//!
//! A job slot holds its queued completion's due time and cancel token
//! ([`JobArena::done_event`]), a task slot its queued readiness's token
//! ([`TaskArena::transfer`]). A superseded event is canceled in the
//! engine, so every completion and readiness that dispatches is live.

use std::collections::BTreeMap;

use eva_types::{
    Cost, InstanceId, InstanceTypeId, JobId, JobSpec, ResourceVector, SimDuration, SimTime, TaskId,
    WorkloadKind,
};

use crate::engine::CancelToken;
use crate::state::TaskState;

/// Sentinel for "no slot" in `u32` slot references.
pub(crate) const NO_SLOT: u32 = u32::MAX;

/// Unit throughput in rate quanta: a rate is held in 2⁻³² steps.
pub(crate) const RATE_ONE: u64 = 1 << 32;

/// `tput` in rate quanta, to the nearest (NaN and negatives are 0).
pub(crate) fn quantize(tput: f64) -> u64 {
    (tput * RATE_ONE as f64).round() as u64
}

/// `r` as the rate lanes (GPU, CPU, RAM MB) the instance table sums.
pub(crate) fn lanes(r: ResourceVector) -> [f64; 3] {
    [f64::from(r.gpu), f64::from(r.cpu), r.ram_mb as f64]
}

/// The work of `duration` at unit throughput, in ms·quantum; `None` when
/// it does not fit a lane (a job of 2³² ms, 49.7 days, or longer).
pub(crate) fn work_of(duration: SimDuration) -> Option<u64> {
    duration.as_millis().checked_mul(RATE_ONE)
}

/// `work` ms·quantum as a span at unit throughput, to the nearest ms.
pub(crate) fn work_span(work: u64) -> SimDuration {
    SimDuration::from_millis(div_nearest(work, RATE_ONE))
}

/// `n / d` to the nearest integer, halves up (as `f64::round` rounds a
/// positive quotient); `d` must be positive.
fn div_nearest(n: u64, d: u64) -> u64 {
    ((2 * u128::from(n) + u128::from(d)) / (2 * u128::from(d))) as u64
}

/// The work `rate` does in `dt_ms`, saturating at the lane's top.
fn work_in(rate: u64, dt_ms: u64) -> u64 {
    u64::try_from(u128::from(rate) * u128::from(dt_ms)).unwrap_or(u64::MAX)
}

/// One job's progress (module docs), held together: a settle reads and
/// writes all of it for one job at a time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Progress {
    /// Total work in ms·quantum (the spec duration, cached).
    pub total: u64,
    /// Remaining work at `last`, in ms·quantum.
    pub remaining: u64,
    /// Milliseconds spent executing up to `last`.
    pub executing_ms: u64,
    /// Milliseconds spent present but not executing up to `last`.
    pub idle_ms: u64,
    /// Work done up to `last` (the integral of rate over time), in
    /// ms·quantum.
    pub tput_integral: u64,
    /// The instant the four lanes above hold (the job's last settle).
    pub last: SimTime,
    /// Cached effective throughput in rate quanta, refreshed whenever the
    /// job is recomputed (invariant 2 in the module docs).
    pub rate: u64,
}

impl Progress {
    /// A job of `total` work that has not started.
    fn new(total: u64) -> Self {
        Progress {
            total,
            remaining: total,
            ..Progress::default()
        }
    }
}

/// Job state, slot-indexed in arrival order.
#[derive(Debug, Default)]
pub(crate) struct JobArena {
    /// Slot → job ID (arrival order; recycled slots fall out of ID
    /// order).
    pub ids: Vec<JobId>,
    /// Slot → index of the job's spec in the trace's job vector
    /// ([`NO_SLOT`] for a source's jobs, whose specs live in
    /// [`Self::owned`]).
    pub spec_idx: Vec<u32>,
    /// Slot → first task slot of the job's contiguous task range.
    pub task_start: Vec<u32>,
    /// Slot → length of the job's task range.
    pub task_count: Vec<u32>,
    /// Owned specs for jobs interned from a source (a trace's jobs leave
    /// this empty and index the shared trace through `spec_idx`).
    /// Boxed so releasing a slot actually reclaims the spec's memory.
    pub owned: Vec<Option<Box<JobSpec>>>,
    /// Progress lanes and cached rate.
    pub progress: Vec<Progress>,
    /// Completion time, once done.
    pub completed_at: Vec<Option<SimTime>>,
    /// Due time and cancel token of the job's outstanding completion
    /// event (`None` when none is queued), letting recompute skip
    /// re-pushing an event that would land at the same instant.
    pub done_event: Vec<Option<(SimTime, CancelToken)>>,
    /// Active (interned, not done) job slots, kept in ascending `JobId` order:
    /// the iteration set of every per-event loop, so done jobs cost
    /// nothing per event.
    pub active: Vec<u32>,
    /// Dirty flag, mirroring membership in [`Self::dirty_list`].
    pub dirty: Vec<bool>,
    /// Jobs marked dirty since the last recompute drain.
    pub dirty_list: Vec<u32>,
    /// Slots returned through [`Self::release`]: their lanes are reset
    /// and their stale IDs are excluded from audits until reuse.
    pub released: Vec<bool>,
    /// Recycled job slots awaiting reuse (mirrors the instance table's
    /// free list).
    pub free: Vec<u32>,
}

impl JobArena {
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
    /// interned out of order.
    fn active_pos(&self, slot: u32) -> Result<usize, usize> {
        let key = self.ids[slot as usize];
        let ids = &self.ids;
        self.active
            .binary_search_by(|&x| ids[x as usize].cmp(&key).then(x.cmp(&slot)))
    }

    /// Starts the job's lanes at `now` and inserts it into the active set.
    fn activate(&mut self, slot: u32, now: SimTime) {
        self.progress[slot as usize].last = now;
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
    /// after release the lanes carry nothing.
    pub fn release(&mut self, slot: u32) {
        let s = slot as usize;
        debug_assert!(
            self.completed_at[s].is_some(),
            "releasing an unfinished job"
        );
        debug_assert!(self.done_event[s].is_none(), "releasing a queued job");
        debug_assert!(!self.dirty[s], "releasing a dirty job");
        debug_assert!(self.active_pos(slot).is_err(), "releasing an active job");
        self.completed_at[s] = None;
        self.progress[s] = Progress::default();
        if let Some(spec) = self.owned.get_mut(s) {
            *spec = None;
        }
        self.released[s] = true;
        self.free.push(slot);
    }

    /// Advances the job's lanes from `last` to `to` at `rate` quanta
    /// (0 when not executing). Done jobs keep the lanes they completed
    /// with.
    pub fn advance(&mut self, slot: u32, to: SimTime, rate: u64) {
        let s = slot as usize;
        let p = &mut self.progress[s];
        let dt = to.duration_since(p.last).as_millis();
        if self.completed_at[s].is_some() || dt == 0 {
            return;
        }
        if rate > 0 {
            let work = work_in(rate, dt);
            p.remaining = p.remaining.saturating_sub(work);
            p.executing_ms += dt;
            p.tput_integral = p.tput_integral.saturating_add(work);
        } else {
            p.idle_ms += dt;
        }
        p.last = to;
    }

    /// Brings the job's lanes to `now` at its cached rate.
    pub fn settle(&mut self, slot: u32, now: SimTime) {
        self.advance(slot, now, self.progress[slot as usize].rate);
    }

    /// The job's remaining work at `now`, without settling it.
    pub fn remaining_at(&self, slot: u32, now: SimTime) -> u64 {
        let (s, p) = (slot as usize, &self.progress[slot as usize]);
        if self.completed_at[s].is_some() {
            return p.remaining;
        }
        let dt = now.duration_since(p.last).as_millis();
        p.remaining.saturating_sub(work_in(p.rate, dt))
    }

    /// Time until completion at the cached rate from the settled lanes,
    /// rounded to the nearest millisecond (halves up, as
    /// [`SimDuration::from_hours_f64`] rounds), if the rate is positive.
    pub fn eta(&self, slot: u32) -> Option<SimDuration> {
        let (s, p) = (slot as usize, &self.progress[slot as usize]);
        if self.completed_at[s].is_some() || p.rate == 0 {
            return None;
        }
        Some(SimDuration::from_millis(div_nearest(p.remaining, p.rate)))
    }

    /// Average normalized throughput while executing, in rate quanta to
    /// the nearest (unit throughput for a job that never executed).
    pub fn mean_tput(&self, slot: u32) -> u64 {
        let p = &self.progress[slot as usize];
        if p.executing_ms == 0 {
            RATE_ONE
        } else {
            div_nearest(p.tput_integral, p.executing_ms)
        }
    }

    /// Hours spent present but not executing, up to `last`.
    pub fn idle_hours(&self, slot: u32) -> f64 {
        SimDuration::from_millis(self.progress[slot as usize].idle_ms).as_hours_f64()
    }

    /// Flags an active job whose effective throughput may have changed,
    /// settling its lanes at `now` first so they hold the progress made at
    /// the rate that actually prevailed (invariant 1).
    pub fn mark_dirty(&mut self, slot: u32, now: SimTime) {
        let s = slot as usize;
        if self.completed_at[s].is_some() || self.dirty[s] {
            return;
        }
        self.settle(slot, now);
        self.dirty[s] = true;
        self.dirty_list.push(slot);
    }
}

/// Task state, slot-indexed job-major, ascending by [`TaskId`] within a
/// job.
#[derive(Debug, Default)]
pub(crate) struct TaskArena {
    /// Slot → task ID (ascending within each job's range).
    pub ids: Vec<TaskId>,
    /// Slot → owning job's slot.
    pub job_slot: Vec<u32>,
    /// Slot → workload kind (cached from the spec for the tput loop).
    pub workload: Vec<WorkloadKind>,
    /// Lifecycle state.
    pub state: Vec<TaskState>,
    /// Target instance slot ([`NO_SLOT`] when unplaced).
    pub assigned: Vec<u32>,
    /// Migrations performed so far.
    pub migrations: Vec<u32>,
    /// Cancel token of the readiness event of the transfer in flight.
    pub transfer: Vec<Option<CancelToken>>,
    /// Released task ranges awaiting exact-fit reuse: range length →
    /// start slots. Jobs release their whole contiguous range at once,
    /// so recycling preserves the job-major contiguity invariant.
    pub free_ranges: BTreeMap<u32, Vec<u32>>,
}

impl TaskArena {
    /// True when the task currently computes (and therefore interferes).
    pub fn is_running(&self, slot: u32) -> bool {
        self.state[slot as usize] == TaskState::Running
    }

    /// Writes `spec`'s tasks, in their initial state and in the order the
    /// spec lists them (index order, as the host admits them), into the
    /// range at `base` owned by job slot `jslot`.
    fn fill(&mut self, base: u32, jslot: u32, spec: &JobSpec) {
        for (k, t) in spec.tasks.iter().enumerate() {
            debug_assert_eq!(t.id.job, spec.id, "task under foreign job");
            let ts = base as usize + k;
            self.ids[ts] = t.id;
            self.job_slot[ts] = jslot;
            self.workload[ts] = t.workload;
            self.state[ts] = TaskState::Pending;
            self.assigned[ts] = NO_SLOT;
            self.migrations[ts] = 0;
        }
    }
}

/// Where an instance is in its life, as the world sees it: what a round
/// may do with it. The provider's record says when it bills.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Life {
    /// Provisioned and offered to every round (while acquiring and
    /// setting up too).
    Ready,
    /// Released by a plan: terminates once its last task has left.
    Draining,
    /// Termination committed for this instant. The row holds no task and
    /// counts its capacity until the clock passes the instant.
    Terminating(SimTime),
}

/// One instance's row: everything the world keeps about it. Its
/// lifecycle changes only through the [`InstTable`], which keeps its
/// draining and deadline indexes in step.
#[derive(Debug)]
pub(crate) struct InstRow {
    pub id: InstanceId,
    pub type_id: InstanceTypeId,
    life: Life,
    /// Mapped task slots, kept sorted (ascending task slot == ascending
    /// `TaskId`, preserving co-location iteration order).
    pub tasks: Vec<u32>,
    /// The mapped tasks' summed demand on this row's type and summed
    /// reservation prices: integer sums, which [`InstTable::map`] keeps.
    pub used: ResourceVector,
    pub reserved: Cost,
    /// When it is set up: a task placed on it starts no earlier.
    pub ready_at: SimTime,
    /// Departure-checkpoint barrier: the earliest instant it may
    /// terminate ([`SimTime::ZERO`] = unset).
    pub busy_until: SimTime,
    /// Straggler slowdown factor (1.0 = unafflicted).
    pub straggle: f64,
    /// The instance type's capacity, which the row adds to the capacity
    /// rate while it lives.
    cap: ResourceVector,
}

impl InstRow {
    pub fn life(&self) -> Life {
        self.life
    }
}

/// The instance table: one slot-indexed row per instance that counts,
/// from its provision until the clock passes its termination, i.e.
/// while the provider's `Instance::state(now)` is not `Terminated`.
/// Slots recycle through a free list as the provider churns through
/// spot instances.
#[derive(Debug, Default)]
pub(crate) struct InstTable {
    /// Slot → row (stale while the slot waits on `free`).
    pub rows: Vec<InstRow>,
    /// Instance ID → slot of every row, in ID order.
    by_id: BTreeMap<InstanceId, u32>,
    /// Recycled slots awaiting reuse.
    free: Vec<u32>,
    /// The slots of the draining rows by ID, and of the terminating rows
    /// by deadline (ID breaks ties): indexes over the rows' `life`, so
    /// finding work to terminate or drop walks only those rows.
    draining: BTreeMap<InstanceId, u32>,
    terminating: BTreeMap<(SimTime, InstanceId), u32>,
    /// The capacity, allocation and running-task rates the world
    /// integrates: the rows' capacities, their mapped tasks' demands and
    /// how many of those run: integer sums, equal to a fresh scan in any
    /// order. A row is dropped only once its tasks are gone, so it
    /// takes only its capacity along.
    cap_rate: ResourceVector,
    alloc_rate: ResourceVector,
    running_rate: usize,
}

impl InstTable {
    /// Slot of `id`'s row, if it has one.
    pub fn get(&self, id: InstanceId) -> Option<u32> {
        self.by_id.get(&id).copied()
    }

    /// Rows (counted instances) held.
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// The capacity, allocation and running-task rates.
    pub fn rates(&self) -> ([f64; 3], [f64; 3], usize) {
        let (cap, alloc) = (lanes(self.cap_rate), lanes(self.alloc_rate));
        (cap, alloc, self.running_rate)
    }

    /// Slots of every row, in instance ID order.
    pub fn slots(&self) -> impl Iterator<Item = u32> + '_ {
        self.by_id.values().copied()
    }

    /// Slots of the draining rows, in instance ID order.
    pub fn draining(&self) -> impl Iterator<Item = u32> + '_ {
        self.draining.values().copied()
    }

    /// The earliest deadline of a terminating row and that row's slot
    /// (lowest ID first), if that deadline is at or before `t`.
    pub fn first_due(&self, t: SimTime) -> Option<(SimTime, u32)> {
        let (&(at, _), &slot) = self.terminating.first_key_value()?;
        (at <= t).then_some((at, slot))
    }

    /// Adds a freshly provisioned instance, set up at `at`, as a ready row
    /// with capacity `cap`, recycling a free slot when there is one.
    pub fn insert(
        &mut self,
        id: InstanceId,
        ty: InstanceTypeId,
        at: SimTime,
        cap: ResourceVector,
    ) -> u32 {
        let row = InstRow {
            id,
            type_id: ty,
            life: Life::Ready,
            tasks: Vec::new(),
            used: ResourceVector::ZERO,
            reserved: Cost::ZERO,
            ready_at: at,
            busy_until: SimTime::ZERO,
            straggle: 1.0,
            cap,
        };
        let slot = match self.free.pop() {
            Some(s) => {
                self.rows[s as usize] = row;
                s
            }
            None => {
                self.rows.push(row);
                self.rows.len() as u32 - 1
            }
        };
        let previous = self.by_id.insert(id, slot);
        debug_assert!(previous.is_none(), "instance {id} provisioned twice");
        self.cap_rate += cap;
        slot
    }

    /// Drops the row in `slot`, returning the slot to the free list.
    pub fn remove(&mut self, slot: u32) {
        self.set_life(slot, Life::Ready); // out of its lifecycle index
        let row = &self.rows[slot as usize];
        debug_assert!(row.tasks.is_empty(), "dropping a row that holds tasks");
        self.cap_rate -= row.cap;
        self.by_id.remove(&row.id);
        self.free.push(slot);
    }

    /// Maps (unmaps) task slot `task` onto (from) the row in `slot`,
    /// keeping its task list sorted, and folds the task's `demand` and
    /// `price` into (out of) the row's sums and its demand into (out of) the
    /// allocation rate when the mapping changed, so both mirror the mapping
    /// lists exactly.
    pub fn map(&mut self, slot: u32, task: u32, demand: ResourceVector, price: Cost, mapped: bool) {
        let row = &mut self.rows[slot as usize];
        match (row.tasks.binary_search(&task), mapped) {
            (Err(pos), true) => {
                row.tasks.insert(pos, task);
                (row.used, row.reserved) = (row.used + demand, row.reserved + price);
                self.alloc_rate += demand;
            }
            (Ok(pos), false) => {
                row.tasks.remove(pos);
                (row.used, row.reserved) = (row.used - demand, row.reserved - price);
                self.alloc_rate -= demand;
            }
            _ => {}
        }
    }

    /// Counts a mapped task starting (stopping) running.
    pub fn count_running(&mut self, started: bool) {
        if started {
            self.running_rate += 1;
        } else {
            self.running_rate -= 1;
        }
    }

    /// Marks every ready row draining.
    pub fn drain_all(&mut self) {
        let ready = self
            .slots()
            .filter(|&s| self.rows[s as usize].life == Life::Ready);
        for slot in ready.collect::<Vec<_>>() {
            self.set_life(slot, Life::Draining);
        }
    }

    /// Moves the row in `slot` to `life`, out of the index of its old
    /// life and into that of the new one.
    pub fn set_life(&mut self, slot: u32, life: Life) {
        let row = &mut self.rows[slot as usize];
        match row.life {
            Life::Ready => None,
            Life::Draining => self.draining.remove(&row.id),
            Life::Terminating(at) => self.terminating.remove(&(at, row.id)),
        };
        match life {
            Life::Ready => None,
            Life::Draining => self.draining.insert(row.id, slot),
            Life::Terminating(at) => self.terminating.insert((at, row.id), slot),
        };
        row.life = life;
    }
}

/// A job's total work lane. The world admits only jobs whose work fits
/// one ([`work_of`]); anything else saturates rather than wraps.
fn lane_work(spec: &JobSpec) -> u64 {
    let work = work_of(spec.duration_at_full_tput);
    debug_assert!(work.is_some(), "job {} does not fit a work lane", spec.id);
    work.unwrap_or(u64::MAX)
}

/// Where a job's spec lives: at an index of the shared trace, or in a box
/// the job's slot owns (a job from a source).
pub(crate) enum Spec {
    Trace(u32),
    Owned(Box<JobSpec>),
}

impl Spec {
    /// The spec itself, a trace index read in `trace`.
    pub fn of<'a>(&'a self, trace: &'a [JobSpec]) -> &'a JobSpec {
        match self {
            Spec::Trace(i) => &trace[*i as usize],
            Spec::Owned(spec) => spec,
        }
    }
}

/// The complete interned world state: jobs + tasks + instances.
#[derive(Debug, Default)]
pub(crate) struct WorldArena {
    pub jobs: JobArena,
    pub tasks: TaskArena,
    pub insts: InstTable,
}

impl WorldArena {
    /// Sizes the lanes for `jobs` jobs of `tasks` tasks in all (a trace's),
    /// so interning them never regrows a lane.
    pub fn reserve(&mut self, jobs: usize, tasks: usize) {
        let (j, t) = (&mut self.jobs, &mut self.tasks);
        j.ids.reserve_exact(jobs);
        j.spec_idx.reserve_exact(jobs);
        j.task_start.reserve_exact(jobs);
        j.task_count.reserve_exact(jobs);
        j.progress.reserve_exact(jobs);
        j.completed_at.reserve_exact(jobs);
        j.done_event.reserve_exact(jobs);
        j.dirty.reserve_exact(jobs);
        j.released.reserve_exact(jobs);
        t.ids.reserve_exact(tasks);
        t.job_slot.reserve_exact(tasks);
        t.workload.reserve_exact(tasks);
        t.state.reserve_exact(tasks);
        t.assigned.reserve_exact(tasks);
        t.migrations.reserve_exact(tasks);
        t.transfer.reserve_exact(tasks);
    }

    /// Interns a job arriving at `now` (a trace index is read in `trace`)
    /// and activates it, recycling a released job slot and an exact-fit
    /// released task range when available, appending fresh lanes
    /// otherwise. An owned spec is kept by the slot (released with it);
    /// all other dynamic state starts at its default.
    pub fn intern_job(&mut self, trace: &[JobSpec], job: Spec, now: SimTime) -> u32 {
        let spec = job.of(trace);
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
                jobs.progress.push(Progress::default());
                jobs.completed_at.push(None);
                jobs.done_event.push(None);
                jobs.dirty.push(false);
                jobs.released.push(false);
                s
            }
        };
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
                    self.tasks.workload.push(WorkloadKind(0));
                    self.tasks.state.push(TaskState::Pending);
                    self.tasks.assigned.push(NO_SLOT);
                    self.tasks.migrations.push(0);
                    self.tasks.transfer.push(None);
                }
                b
            }
        };

        let js = jslot as usize;
        jobs.ids[js] = spec.id;
        jobs.task_start[js] = base;
        jobs.task_count[js] = n_tasks;
        jobs.progress[js] = Progress::new(lane_work(spec));
        self.tasks.fill(base, jslot, spec);
        jobs.spec_idx[js] = match job {
            Spec::Trace(i) => i,
            Spec::Owned(spec) => {
                jobs.owned
                    .resize_with(jobs.owned.len().max(js + 1), || None);
                jobs.owned[js] = Some(spec);
                NO_SLOT
            }
        };
        jobs.activate(jslot, now);
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
        }
        if len > 0 {
            self.tasks.free_ranges.entry(len).or_default().push(base);
        }
        self.jobs.release(jslot);
    }

    /// Verifies every cross-reference, and the conservation laws of every
    /// active job at `now` given its arrival instant; returns a
    /// description of the first violation. Backs the public
    /// `ClusterSim::audit_slots` test hook.
    pub fn audit(&self, now: SimTime, arrival: impl Fn(u32) -> SimTime) -> Result<(), String> {
        // Between events no job is dirty (invariants 2 and 3), and the
        // active set lists exactly the slots holding an unfinished job.
        let jobs = &self.jobs;
        if !jobs.dirty_list.is_empty() {
            let n = jobs.dirty_list.len();
            return Err(format!("{n} dirty jobs outlived an event"));
        }
        for slot in 0..jobs.ids.len() as u32 {
            let (s, done) = (slot as usize, jobs.is_done(slot));
            if jobs.dirty[s] {
                return Err(format!("job {} is flagged dirty", jobs.ids[s]));
            }
            // Released slots hold stale IDs; they must read as inert until
            // reuse.
            if jobs.released[s] && done {
                return Err(format!("released job slot {slot} is not inert"));
            }
            let should = !jobs.released[s] && !done;
            let listed = jobs.active_pos(slot).is_ok();
            let queued = jobs.done_event[s].is_some();
            if should != listed || (queued && !should) {
                return Err(format!(
                    "job {} active-set membership {listed}, completion queued {queued} \
                     (expected {should})",
                    jobs.ids[s]
                ));
            }
        }
        // Strictly ascending: no two active jobs share an ID.
        let ascending = |w: &[u32]| jobs.ids[w[0] as usize] < jobs.ids[w[1] as usize];
        if !jobs.active.windows(2).all(ascending) {
            return Err("active set out of JobId order".to_string());
        }
        // Invariant 4: exact conservation, lane by lane.
        for &slot in &jobs.active {
            let (s, p) = (slot as usize, &jobs.progress[slot as usize]);
            let present = p.last.duration_since(arrival(slot)).as_millis();
            if p.last > now
                || p.last < arrival(slot)
                || p.executing_ms + p.idle_ms != present
                || p.remaining > p.total
            {
                return Err(format!(
                    "job {} breaks conservation: last {} (now {}, arrival {}), \
                     executing {} + idle {} ms, remaining {} of {}",
                    jobs.ids[s],
                    p.last,
                    now,
                    arrival(slot),
                    p.executing_ms,
                    p.idle_ms,
                    p.remaining,
                    p.total
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
            let jslot = self.tasks.job_slot[slot];
            if self.jobs.ids[jslot as usize] != id.job {
                return Err(format!("task {id} points at job slot {jslot}"));
            }
            if !self.jobs.task_range(jslot).contains(&slot) {
                return Err(format!("task {id} outside its job's slot range"));
            }
            let in_transit = self.tasks.state[slot] == TaskState::InTransit;
            if self.tasks.transfer[slot].is_some() != in_transit {
                return Err(format!(
                    "task {id}'s queued readiness disagrees with its state"
                ));
            }
            let inst = self.tasks.assigned[slot];
            if inst != NO_SLOT {
                let mapped = self.insts.rows[inst as usize]
                    .tasks
                    .binary_search(&(slot as u32));
                let done = self.tasks.state[slot] == TaskState::Done;
                if mapped.is_err() && !done {
                    return Err(format!("task {id} assigned to slot {inst} but unmapped"));
                }
            }
        }
        for slot in self.insts.slots() {
            let row = &self.insts.rows[slot as usize];
            let (id, list) = (row.id, &row.tasks);
            if self.insts.get(id) != Some(slot) {
                return Err(format!("instance {id} does not round-trip slot {slot}"));
            }
            if matches!(row.life, Life::Terminating(_)) && !list.is_empty() {
                return Err(format!("terminating instance {id} holds tasks"));
            }
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
    use eva_workloads::{SyntheticTraceConfig, Trace};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// The slot audit of a world whose jobs all arrived at time zero.
    fn audit(world: &WorldArena) -> Result<(), String> {
        world.audit(SimTime::ZERO, |_| SimTime::ZERO)
    }

    /// A world holding every job of `trace`, interned in arrival order at
    /// time zero.
    fn interned(trace: &Trace) -> WorldArena {
        let mut world = WorldArena::default();
        for i in 0..trace.len() as u32 {
            world.intern_job(trace.jobs(), Spec::Trace(i), SimTime::ZERO);
        }
        world
    }

    #[test]
    fn interning_orders_slots_by_id() {
        let trace = SyntheticTraceConfig::small_scale().generate(42);
        let world = interned(&trace);
        assert_eq!(world.jobs.ids.len(), trace.len());
        assert!(world.jobs.ids.windows(2).all(|w| w[0] < w[1]));
        assert!(world.tasks.ids.windows(2).all(|w| w[0] < w[1]));
        // Every trace index round-trips through its slot.
        for (idx, spec) in trace.jobs().iter().enumerate() {
            let slot = idx as u32;
            assert_eq!(world.jobs.ids[slot as usize], spec.id);
            assert_eq!(world.jobs.spec_idx[slot as usize] as usize, idx);
            assert_eq!(world.jobs.task_range(slot).len(), spec.tasks.len());
        }
        audit(&world).unwrap();
    }

    #[test]
    fn instance_rows_recycle_through_free_list() {
        let trace = SyntheticTraceConfig::small_scale().generate(1);
        let mut world = interned(&trace);
        let insts = &mut world.insts;
        let (ty, cap) = (InstanceTypeId(0), ResourceVector::new(1, 4, 1024));
        let a = insts.insert(InstanceId(0), ty, SimTime::ZERO, cap);
        let b = insts.insert(InstanceId(1), ty, SimTime::ZERO, cap);
        assert_ne!(a, b);
        let life = |insts: &InstTable, s: u32| insts.rows[s as usize].life();
        assert_eq!(
            (insts.get(InstanceId(0)), life(insts, a)),
            (Some(a), Life::Ready)
        );
        insts.rows[a as usize].straggle = 0.5;
        insts.set_life(a, Life::Draining);
        insts.set_life(b, Life::Draining);
        assert_eq!(insts.draining().collect::<Vec<_>>(), vec![a, b]);
        insts.set_life(a, Life::Terminating(SimTime::from_secs(30)));
        assert_eq!(insts.draining().collect::<Vec<_>>(), vec![b]);
        assert_ne!(life(insts, a), Life::Ready, "terminating is not ready");
        assert_eq!(insts.first_due(SimTime::from_secs(29)), None);
        assert_eq!(
            insts.first_due(SimTime::from_secs(30)),
            Some((SimTime::from_secs(30), a))
        );
        insts.remove(a);
        assert_eq!(insts.get(InstanceId(0)), None);
        assert_eq!(insts.first_due(SimTime::from_secs(30)), None);
        // The recycled slot comes back clean for the next instance.
        let c = insts.insert(InstanceId(7), ty, SimTime::ZERO, cap);
        assert_eq!(c, a);
        let row = &insts.rows[c as usize];
        assert_eq!((row.id, row.straggle), (InstanceId(7), 1.0));
        assert_eq!(row.life, Life::Ready);
        assert_eq!(insts.slots().collect::<Vec<_>>(), vec![b, c], "ID order");
        audit(&world).unwrap();
    }

    #[test]
    fn active_set_tracks_arrival_and_retirement_in_id_order() {
        let trace = SyntheticTraceConfig::small_scale().generate(3);
        let mut world = interned(&trace);
        let all = world.jobs.active.clone();
        assert_eq!(all, (0..trace.len() as u32).collect::<Vec<_>>());
        for slot in [1, 3, 5] {
            world.jobs.retire(slot);
        }
        world.jobs.activate(5, SimTime::ZERO);
        world.jobs.activate(1, SimTime::ZERO);
        assert_eq!(world.jobs.active[..5], [0, 1, 2, 4, 5]);
        world.jobs.activate(3, SimTime::ZERO);
        world.jobs.activate(1, SimTime::ZERO); // double-activation is idempotent
        assert_eq!(world.jobs.active, all);
    }

    /// One job's lanes after `pieces` of (milliseconds, rate), computed
    /// piece by piece in `u128`: `(remaining, executing, idle, integral)`.
    fn reference(total: u64, pieces: &[(u64, u64)]) -> (u64, u64, u64, u64) {
        let (mut rem, mut exec, mut idle, mut int) = (u128::from(total), 0, 0, 0u128);
        for &(dt, rate) in pieces {
            let work = u128::from(dt) * u128::from(rate);
            if rate > 0 {
                rem = rem.saturating_sub(work);
                exec += dt;
                int += work;
            } else {
                idle += dt;
            }
        }
        (rem as u64, exec, idle, int.min(u128::from(u64::MAX)) as u64)
    }

    fn lanes(jobs: &JobArena, slot: u32) -> (u64, u64, u64, u64) {
        let p = &jobs.progress[slot as usize];
        (p.remaining, p.executing_ms, p.idle_ms, p.tput_integral)
    }

    #[test]
    fn eta_rounds_to_the_nearest_millisecond() {
        let trace = SyntheticTraceConfig::small_scale().generate(9);
        let mut jobs = interned(&trace).jobs;
        let rate = quantize(0.5);
        jobs.progress[0].rate = rate;
        for (remaining, ms) in [(0, 0), (rate / 2 - 1, 0), (rate / 2, 1), (3 * rate - 1, 3)] {
            jobs.progress[0].remaining = remaining;
            let eta = jobs.eta(0).map(|d| d.as_millis());
            assert_eq!(eta, Some(ms), "{remaining}");
        }
        jobs.progress[0].rate = 0;
        assert_eq!(jobs.eta(0), None);
        assert_eq!(work_span(RATE_ONE / 2), SimDuration::from_millis(1));
        assert_eq!(work_span(RATE_ONE / 2 - 1), SimDuration::ZERO);
        assert_eq!(work_of(SimDuration::from_millis(1 << 32)), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Maps and unmaps over two rows, in any order and repeated, count a
        /// task's demand and price only when its mapping changes: each row
        /// lists the tasks a model set holds, and its sums and the allocation
        /// rate equal a scratch sum over the model; a row emptied to be
        /// dropped holds zero.
        #[test]
        fn map_and_unmap_count_a_demand_only_when_the_mapping_changed(
            ops in collection::vec((0u32..12, 0usize..2, 0u8..2), 1..80),
        ) {
            let demand = |t: u32| ResourceVector::new(t % 3, 2 * t + 1, 512 * u64::from(t));
            let price = |t: u32| Cost::from_micros(89_250 * u64::from(t + 1));
            let sum = |m: &BTreeSet<u32>| -> (ResourceVector, Cost) {
                (m.iter().map(|&t| demand(t)).sum(), m.iter().map(|&t| price(t)).sum())
            };
            let mut insts = InstTable::default();
            let (ty, cap) = (InstanceTypeId(0), ResourceVector::new(8, 8, 8));
            let rows = [0, 1].map(|i| insts.insert(InstanceId(i), ty, SimTime::ZERO, cap));
            let mut model = [BTreeSet::new(), BTreeSet::new()];
            for (task, r, mapped) in ops {
                insts.map(rows[r], task, demand(task), price(task), mapped == 1);
                _ = if mapped == 1 { model[r].insert(task) } else { model[r].remove(&task) };
                for (&s, m) in rows.iter().zip(&model) {
                    let row = &insts.rows[s as usize];
                    prop_assert_eq!(&row.tasks, &m.iter().copied().collect::<Vec<_>>());
                    prop_assert_eq!((row.used, row.reserved), sum(m));
                }
                prop_assert_eq!(insts.rates().1, super::lanes(sum(&model[0]).0 + sum(&model[1]).0));
            }
            for &t in &model[0] {
                insts.map(rows[0], t, demand(t), price(t), false);
            }
            let row = &insts.rows[rows[0] as usize];
            prop_assert_eq!((row.used, row.reserved), (ResourceVector::ZERO, Cost::ZERO));
            insts.remove(rows[0]);
        }

        /// Rates that change at random milliseconds, with the job settled
        /// at a random subset of other instants as well, leave the same
        /// integers as settling each constant-rate piece once; a job
        /// settled only where its rate changes reads the same remaining
        /// work at the end without settling.
        #[test]
        fn settling_at_any_instants_gives_the_same_integers(
            total_ms in 1u64..40_000_000,
            pieces in collection::vec((1u64..9_000_000, 0u64..3 * RATE_ONE), 1..12),
            extra in collection::vec(0u64..1_000, 0..24),
        ) {
            // A third of the drawn rates are idle.
            let pieces: Vec<(u64, u64)> = pieces
                .into_iter()
                .map(|(dt, rate)| (dt, rate.saturating_sub(RATE_ONE)))
                .collect();
            let trace = SyntheticTraceConfig::small_scale().generate(9);
            let mut often = interned(&trace).jobs;
            let mut seldom = interned(&trace).jobs;
            let total = work_of(SimDuration::from_millis(total_ms)).unwrap();
            let start = SimTime::from_secs(5);
            for jobs in [&mut often, &mut seldom] {
                jobs.progress[0] = Progress::new(total);
                jobs.activate(0, start);
            }
            let span: u64 = pieces.iter().map(|p| p.0).sum();
            let mut extra: Vec<u64> = extra.iter().map(|&k| k * span / 1_000).collect();
            extra.sort_unstable();
            let mut extra = extra.into_iter().peekable();
            let mut at = 0;
            for &(dt, rate) in &pieces {
                // The rate changes at `at`: both settle first (invariant 1).
                let now = start + SimDuration::from_millis(at);
                often.settle(0, now);
                seldom.settle(0, now);
                often.progress[0].rate = rate;
                seldom.progress[0].rate = rate;
                at += dt;
                while let Some(k) = extra.next_if(|&k| k < at) {
                    often.settle(0, start + SimDuration::from_millis(k));
                }
            }
            let end = start + SimDuration::from_millis(at);
            let unsettled = seldom.remaining_at(0, end);
            often.settle(0, end);
            seldom.settle(0, end);
            let expected = reference(total, &pieces);
            prop_assert_eq!(lanes(&often, 0), expected);
            prop_assert_eq!(lanes(&seldom, 0), expected);
            prop_assert_eq!(unsettled, expected.0);
        }
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
        let mut world = WorldArena::default();
        let own = |spec: JobSpec| Spec::Owned(Box::new(spec));
        let a = world.intern_job(&[], own(jobs[0].clone()), SimTime::ZERO);
        let b = reid(jobs[1].clone(), JobId(1_000));
        let b = world.intern_job(&[], own(b), SimTime::ZERO);
        assert_ne!(a, b);
        assert_eq!(world.jobs.ids[a as usize], jobs[0].id);
        let a_range = world.jobs.task_range(a);
        audit(&world).unwrap();

        // Complete and release the first job: its slot, task range, and
        // owned spec all come back.
        world.jobs.retire(a);
        world.jobs.completed_at[a as usize] = Some(SimTime::from_secs(60));
        world.release_job(a);
        assert!(world.jobs.released[a as usize]);
        assert!(
            world.jobs.owned[a as usize].is_none(),
            "spec memory reclaimed"
        );
        audit(&world).unwrap();

        // A same-shape job recycles both the job slot and the exact-fit
        // task range, which now carry its IDs.
        let c = reid(jobs[0].clone(), JobId(2_000));
        let c = world.intern_job(&[], own(c), SimTime::ZERO);
        assert_eq!(c, a, "job slot recycled");
        assert_eq!(world.jobs.task_range(c), a_range, "task range recycled");
        assert_eq!(world.jobs.ids[c as usize], JobId(2_000));
        let t0 = world.jobs.task_range(c).start;
        assert_eq!(world.tasks.ids[t0], TaskId::new(JobId(2_000), 0));
        assert!(world.jobs.owned[c as usize].is_some());
        audit(&world).unwrap();
    }
}
