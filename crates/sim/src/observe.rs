//! Scheduler-facing side of the world model: observation/snapshot
//! building, plan execution, and the periodic scheduling round.
//!
//! The scheduler never sees the ground-truth interference model — only
//! the *observed* throughput of its own jobs and the co-location contexts
//! they ran in, exactly as in the paper's evaluation (§5).

use eva_baselines::NoPackingScheduler;
use eva_core::{
    ClusterView, InstanceSnapshot, JobObservation, Plan, PlannedInstance, SchedulerContext,
    TaskSnapshot,
};
use eva_interference::TaskContext;
use eva_types::{Cost, ResourceVector, TaskId, WorkloadKind};

use crate::arena::{work_span, Life, NO_SLOT};
use crate::script::ExecActionKind;
use crate::state::TaskState;
use crate::world::{ClusterSim, Event};

/// A round's snapshot and moves, kept to reuse their buffers: the task
/// rows with each one's slot and host (its instance's listing, [`NO_SLOT`]
/// for none), the ready rows in ID order with each one's slot and sums,
/// each slot's listing, and the moves (task, its slot, assignment, row).
#[derive(Debug, Default)]
pub(crate) struct Snapshot {
    tasks: Vec<TaskSnapshot>,
    slots: Vec<u32>,
    hosts: Vec<u32>,
    instances: Vec<InstanceSnapshot>,
    rows: Vec<u32>,
    sums: Vec<(ResourceVector, Cost)>,
    listing: Vec<u32>,
    moves: Vec<(TaskId, u32, usize, u32)>,
}

impl ClusterSim {
    /// Moves (or first-places) the task in `tslot`, of an active job,
    /// onto the ready instance row `dslot`.
    pub(crate) fn transfer_task(&mut self, tslot: u32, dslot: u32) {
        let s = tslot as usize;
        let jslot = self.world.tasks.job_slot[s];
        let active = !self.world.jobs.released[jslot as usize] && !self.world.jobs.is_done(jslot);
        debug_assert!(active, "moving a task of an inactive job");
        let (checkpoint, launch) = {
            let spec = self.task_spec(tslot);
            (
                spec.checkpoint_delay.scale(self.migration_delay_scale),
                spec.launch_delay.scale(self.migration_delay_scale),
            )
        };

        let was_running = self.world.tasks.is_running(tslot);
        let old = self.world.tasks.assigned[s];
        let had_instance = old != NO_SLOT;

        if old == dslot {
            return;
        }
        // The moved task's own job changes state (running → in transit),
        // and leaving an instance changes every co-located job's
        // interference set.
        self.world.jobs.mark_dirty(jslot, self.now());
        if had_instance {
            self.touch_instance_jobs(old);
            self.map_task(old, tslot, false);
            if was_running {
                self.world.insts.count_running(false);
                let busy = self.now() + checkpoint;
                let slot_busy = &mut self.world.insts.rows[old as usize].busy_until;
                *slot_busy = (*slot_busy).max(busy);
                if self.recorder.is_some() {
                    let progress = self.job_progress_fraction_slot(jslot);
                    let task = self.world.tasks.ids[s];
                    self.record(ExecActionKind::Stop { task, progress });
                }
            }
        }

        // A transfer in flight is superseded: its readiness is withdrawn.
        if let Some(token) = self.world.tasks.transfer[s].take() {
            self.engine.cancel(token);
        }
        let depart = if was_running {
            self.now() + checkpoint
        } else {
            self.now()
        };
        let ready = depart.max(self.world.insts.rows[dslot as usize].ready_at) + launch;

        self.world.tasks.state[s] = TaskState::InTransit;
        if had_instance {
            self.world.tasks.migrations[s] += 1;
            self.migration_count += 1;
        }
        self.world.tasks.assigned[s] = dslot;
        self.map_task(dslot, tslot, true);
        let token = self
            .engine
            .schedule_cancelable(ready, Event::TaskReady(tslot));
        self.world.tasks.transfer[s] = Some(token);
    }
    /// The scheduler-facing observations for the current instant, one per
    /// active job with a running task, in id order. Each is built when the
    /// scheduler pulls it: one that ignores observations costs nothing.
    pub(crate) fn observations(&self) -> impl Iterator<Item = JobObservation> + '_ {
        let active = self.world.jobs.active.iter();
        active.filter_map(|&jslot| self.observation_of(jslot))
    }

    fn observation_of(&self, jslot: u32) -> Option<JobObservation> {
        let spec = self.job_spec(jslot);
        let base = self.world.jobs.task_start[jslot as usize];
        let mut contexts = Vec::new();
        for (tslot, tspec) in (base..).zip(&spec.tasks) {
            if !self.world.tasks.is_running(tslot) {
                continue;
            }
            let inst = self.world.tasks.assigned[tslot as usize];
            let others: Vec<WorkloadKind> = if inst == NO_SLOT {
                Vec::new()
            } else {
                self.world.insts.rows[inst as usize]
                    .tasks
                    .iter()
                    .filter(|&&t| t != tslot && self.world.tasks.is_running(t))
                    .map(|&t| self.world.tasks.workload[t as usize])
                    .collect()
            };
            contexts.push(TaskContext::new(tspec.id, tspec.workload, others));
        }
        if contexts.is_empty() {
            return None;
        }
        let observed = if spec.gang_coupled {
            self.job_tput(jslot)
        } else {
            // Single-task jobs report the task's own throughput.
            self.task_tput(base)
        };
        Some(JobObservation {
            job: spec.id,
            gang_coupled: spec.gang_coupled,
            observed_tput: observed,
            contexts,
        })
    }

    /// Builds the scheduler context snapshot in the last round's buffers:
    /// the ready rows first, so that each task row names its host's
    /// listing.
    pub(crate) fn build_snapshot(&mut self) -> Snapshot {
        let mut snap = std::mem::take(&mut self.snapshot_scratch);
        let insts = &self.world.insts;
        snap.instances.clear();
        snap.rows.clear();
        snap.sums.clear();
        snap.listing.clear();
        snap.listing.resize(insts.rows.len(), NO_SLOT);
        for s in insts.slots() {
            let row = &insts.rows[s as usize];
            if row.life() == Life::Ready {
                snap.listing[s as usize] = snap.instances.len() as u32;
                snap.rows.push(s);
                snap.sums.push((row.used, row.reserved));
                let (id, type_id) = (row.id, row.type_id);
                snap.instances.push(InstanceSnapshot { id, type_id });
            }
        }
        snap.tasks.clear();
        snap.slots.clear();
        snap.hosts.clear();
        let now = self.now();
        for &jslot in &self.world.jobs.active {
            let spec = self.job_spec(jslot);
            let base = self.world.jobs.task_start[jslot as usize];
            let remaining = work_span(self.world.jobs.remaining_at(jslot, now));
            for (tslot, tspec) in (base..).zip(&spec.tasks) {
                let assigned = self.world.tasks.assigned[tslot as usize];
                snap.slots.push(tslot);
                let host = snap.listing.get(assigned as usize);
                snap.hosts.push(host.copied().unwrap_or(NO_SLOT));
                snap.tasks.push(TaskSnapshot {
                    id: tspec.id,
                    workload: tspec.workload,
                    demand: tspec.demand,
                    checkpoint_delay: tspec.checkpoint_delay.scale(self.migration_delay_scale),
                    launch_delay: tspec.launch_delay.scale(self.migration_delay_scale),
                    gang_size: spec.num_tasks() as u32,
                    gang_coupled: spec.gang_coupled,
                    assigned_to: (assigned != NO_SLOT)
                        .then(|| self.world.insts.rows[assigned as usize].id),
                    remaining_hint: Some(remaining),
                });
            }
        }
        snap
    }

    /// Executes a plan: launches its new instances and transfers the tasks
    /// of `moves` as [`ClusterSim::handle_round`] found them. A refused
    /// launch is counted, and its tasks stay where they are.
    pub(crate) fn execute_plan(&mut self, plan: &Plan, moves: &[(TaskId, u32, usize, u32)]) {
        let mut launched = Vec::new(); // (assignment, its row)
        for (k, a) in plan.assignments.iter().enumerate() {
            if let PlannedInstance::New(type_id) = a.instance {
                let row = self.launch(type_id);
                launched.push((k, row));
            }
        }
        for &(_, tslot, k, row) in moves {
            let new = launched.iter().find(|l| l.0 == k);
            debug_assert!(
                new.is_some() || row != NO_SLOT,
                "a task sent to an unlisted instance"
            );
            match new.map_or(row, |l| l.1) {
                NO_SLOT => {}
                row => self.transfer_task(tslot, row),
            }
        }
        self.try_terminations();
    }

    /// Calls `f` with the context and view a round would plan on now: a
    /// test hook that holds the view to [`ClusterView::of`] of the context.
    #[doc(hidden)]
    pub fn round_view<R>(&mut self, f: impl FnOnce(&SchedulerContext, &ClusterView) -> R) -> R {
        let snap = self.build_snapshot();
        let ctx = SchedulerContext::new(self.now(), &self.catalog, &snap.tasks, &snap.instances);
        let view = ClusterView::with_hosts(&ctx, &snap.hosts, &snap.sums);
        let out = f(&ctx, &view);
        self.snapshot_scratch = snap;
        out
    }

    /// One scheduling round: observe, plan, execute, and re-arm the next
    /// round while work remains.
    pub(crate) fn handle_round(&mut self) {
        self.round_pending = false;
        // The observations borrow the world, so the scheduler steps out of
        // it while it pulls them (the stand-in is zero-sized: no allocation).
        let mut scheduler = std::mem::replace(&mut self.scheduler, Box::new(NoPackingScheduler));
        scheduler.observe(&mut self.observations());
        self.scheduler = scheduler;
        let mut snap = self.build_snapshot();
        let ctx = SchedulerContext::new(self.now(), &self.catalog, &snap.tasks, &snap.instances);
        let view = ClusterView::with_hosts(&ctx, &snap.hosts, &snap.sums);
        let plan = self.scheduler.plan_in(&ctx, &view);
        // Diffed against the view the scheduler saw, each listed instance
        // resolved to its row there. In task order, a task listed twice
        // going where its last listing says (the stable sort keeps the
        // reversed order).
        let row = |id| view.slot(id).map_or(NO_SLOT, |i| snap.rows[i]);
        snap.moves.clear();
        for m in plan.moves(&view) {
            let to = match plan.assignments[m.slot].instance {
                PlannedInstance::Existing(id) => row(id),
                PlannedInstance::New(_) => NO_SLOT,
            };
            snap.moves.push((m.task.id, snap.slots[m.pos], m.slot, to));
        }
        snap.moves.reverse();
        snap.moves.sort_by_key(|m| m.0);
        snap.moves.dedup_by_key(|m| m.0);
        // Drain what the plan terminates, never an instance it assigns to.
        let kept = |id| PlannedInstance::Existing(id);
        let kept = |id| plan.assignments.iter().any(|a| a.instance == kept(id));
        for &id in plan.terminate.iter().filter(|&&id| !kept(id)) {
            if let Some(i) = view.slot(id) {
                self.world.insts.set_life(snap.rows[i], Life::Draining);
            }
        }
        drop(view);
        self.rounds += 1;
        self.full_rounds += plan.full_reconfiguration as u64;
        self.execute_plan(&plan, &snap.moves);
        self.snapshot_scratch = snap;
        self.recompute_completions();

        if !self.world.jobs.active.is_empty() {
            self.schedule_round(self.now() + self.round_period);
        } else if self.pending.is_none() {
            // Final cleanup: drain everything still ready, and tombstone
            // leftover fault events — a fault outliving the workload has
            // nothing to disturb, and letting it dispatch would drag the
            // clock (and therefore the makespan) forward for nothing.
            self.world.insts.drain_all();
            self.try_terminations();
            for token in self.fault_tokens.drain(..) {
                self.engine.cancel(token);
            }
        }
    }
}
