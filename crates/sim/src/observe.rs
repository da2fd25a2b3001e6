//! Scheduler-facing side of the world model: observation/snapshot
//! building, plan execution, and the periodic scheduling round.
//!
//! The scheduler never sees the ground-truth interference model — only
//! the *observed* throughput of its own jobs and the co-location contexts
//! they ran in, exactly as in the paper's evaluation (§5).

use std::collections::BTreeMap;

use eva_baselines::NoPackingScheduler;
use eva_cloud::ProvisionRequest;
use eva_core::{
    ClusterView, InstanceSnapshot, JobObservation, Plan, PlannedInstance, SchedulerContext,
    TaskSnapshot,
};
use eva_interference::TaskContext;
use eva_types::{InstanceId, TaskId, WorkloadKind};

use crate::arena::{work_span, Life, NO_SLOT};
use crate::script::ExecActionKind;
use crate::state::TaskState;
use crate::world::{ClusterSim, Event};

/// A round's scheduler snapshot: its task rows, the task slot of each
/// row, and its instance rows.
pub(crate) type Snapshot = (Vec<TaskSnapshot>, Vec<u32>, Vec<InstanceSnapshot>);

impl ClusterSim {
    /// Moves (or first-places) the task in `tslot`, of an active job,
    /// onto the ready instance row `dslot`.
    pub(crate) fn transfer_task(&mut self, tslot: u32, dslot: u32) {
        let s = tslot as usize;
        let jslot = self.world.tasks.job_slot[s];
        let active = self.world.jobs.arrived[jslot as usize] && !self.world.jobs.is_done(jslot);
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
        let dest = self.world.insts.rows[dslot as usize].id;
        let ready_at = self.cloud.instance(dest).map_or(self.now(), |i| i.ready_at);
        let ready = depart.max(ready_at) + launch;

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
        let base = self.world.jobs.task_range(jslot).start;
        let mut contexts = Vec::new();
        for (pos, tspec) in spec.tasks.iter().enumerate() {
            let tslot = self.world.tasks.slot_by_pos[base + pos];
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
            self.task_tput(self.world.tasks.slot_by_pos[base])
        };
        Some(JobObservation {
            job: spec.id,
            gang_coupled: spec.gang_coupled,
            observed_tput: observed,
            contexts,
        })
    }

    /// Builds the scheduler context snapshot in the last round's rows,
    /// with the task slot of each task row.
    pub(crate) fn build_snapshot(&mut self) -> Snapshot {
        let (mut tasks, mut slots, mut instances) = std::mem::take(&mut self.snapshot_scratch);
        tasks.clear();
        slots.clear();
        let now = self.now();
        for &jslot in &self.world.jobs.active {
            let spec = self.job_spec(jslot);
            let base = self.world.jobs.task_range(jslot).start;
            let remaining = work_span(self.world.jobs.remaining_at(jslot, now));
            for (pos, tspec) in spec.tasks.iter().enumerate() {
                let tslot = self.world.tasks.slot_by_pos[base + pos];
                let assigned = self.world.tasks.assigned[tslot as usize];
                slots.push(tslot);
                tasks.push(TaskSnapshot {
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
        instances.clear();
        let insts = &self.world.insts;
        let rows = insts.slots().map(|s| &insts.rows[s as usize]);
        instances.extend(rows.filter(|row| row.life() == Life::Ready).map(|row| {
            InstanceSnapshot {
                id: row.id,
                type_id: row.type_id,
            }
        }));
        (tasks, slots, instances)
    }

    /// Executes a plan: provisions new instances, transfers the tasks in
    /// `moves` (task → its slot and the index of its destination in
    /// `plan.assignments`, as [`Plan::moves`] found them), marks
    /// terminations. A refused provision is counted, and its tasks stay
    /// where they are.
    pub(crate) fn execute_plan(&mut self, plan: &Plan, moves: BTreeMap<TaskId, (u32, usize)>) {
        let dest: Vec<Option<InstanceId>> = plan
            .assignments
            .iter()
            .map(|a| match a.instance {
                PlannedInstance::Existing(id) => Some(id),
                PlannedInstance::New(ty) => {
                    let request = ProvisionRequest {
                        type_id: ty,
                        at: self.now(),
                    };
                    let Ok(id) = self.cloud.provision(request, &mut self.rng) else {
                        self.provisions_failed += 1;
                        return None;
                    };
                    self.count_provision(id);
                    Some(id)
                }
            })
            .collect();
        // A destination's row, resolved when a task first moves there (a
        // plan lists every instance it keeps, most of them receiving none).
        let mut rows: Vec<Option<Option<u32>>> = vec![None; dest.len()];
        for (tslot, slot) in moves.into_values() {
            let Some(id) = dest[slot] else {
                continue;
            };
            let row = *rows[slot].get_or_insert_with(|| self.world.insts.ready(id));
            debug_assert!(row.is_some(), "a task sent to {id}, which is not ready");
            if let Some(row) = row {
                self.transfer_task(tslot, row);
            }
        }
        // Defensive: never drain an instance the plan also assigns to.
        for &id in plan
            .terminate
            .iter()
            .filter(|&&id| !dest.contains(&Some(id)))
        {
            if let Some(islot) = self.world.insts.ready(id) {
                self.world.insts.set_life(islot, Life::Draining);
            }
        }
        self.try_terminations();
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
        let (tasks, slots, instances) = self.build_snapshot();
        let ctx = SchedulerContext {
            now: self.now(),
            catalog: &self.catalog,
            tasks: &tasks,
            instances: &instances,
        };
        let view = ClusterView::of(&ctx);
        let plan = self.scheduler.plan_in(&ctx, &view);
        // Diffed against the view the scheduler saw; in task order, a
        // task listed twice going where its last listing says.
        let moves = plan.moves(&view);
        let moves = moves.map(|m| (m.task.id, (slots[m.pos], m.slot))).collect();
        self.rounds += 1;
        if plan.full_reconfiguration {
            self.full_rounds += 1;
        }
        self.execute_plan(&plan, moves);
        self.snapshot_scratch = (tasks, slots, instances);
        self.recompute_completions();

        if !self.world.jobs.active.is_empty() {
            self.schedule_round(self.now() + self.round_period);
        } else if self.arrivals_remaining == 0 && self.stream_drained() {
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
