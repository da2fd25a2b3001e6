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
use eva_types::{InstanceId, SimDuration, TaskId, WorkloadKind};

use eva_types::SimTime;

use crate::arena::NO_SLOT;
use crate::script::ExecActionKind;
use crate::state::TaskState;
use crate::world::{ClusterSim, Event};

impl ClusterSim {
    pub(crate) fn instance_ready_at(&self, id: InstanceId) -> SimTime {
        self.cloud
            .instance(id)
            .map(|i| i.ready_at)
            .unwrap_or(self.now())
    }

    /// Moves (or first-places) a task onto `dest`.
    pub(crate) fn transfer_task(&mut self, tid: TaskId, dest: InstanceId) {
        let Some(tslot) = self.world.tasks.slot_of(tid) else {
            return;
        };
        let s = tslot as usize;
        let jslot = self.world.tasks.job_slot[s];
        if !self.world.jobs.arrived[jslot as usize] {
            return;
        }
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

        if had_instance && self.world.insts.ids[old as usize] == dest {
            return;
        }
        // The moved task's own job changes state (running → in transit),
        // and leaving an instance changes every co-located job's
        // interference set. Marking settles them, so the Stop progress
        // read below is current.
        self.world.jobs.mark_dirty(jslot);
        if had_instance {
            let old_id = self.world.insts.ids[old as usize];
            self.touch_instance_jobs(old);
            if self.world.insts.detach(old, tslot) {
                self.account_mapping(old_id, tslot, false);
            }
            if was_running {
                self.account_running(old_id, -1);
                let busy = self.now() + checkpoint;
                let slot_busy = &mut self.world.insts.busy_until[old as usize];
                *slot_busy = (*slot_busy).max(busy);
                if self.recorder.is_some() {
                    let progress = self.job_progress_fraction_slot(jslot);
                    self.record(ExecActionKind::Stop {
                        task: tid,
                        progress,
                    });
                }
            }
        }

        self.world.tasks.gen[s] += 1;
        let gen = self.world.tasks.gen[s];
        let depart = if was_running {
            self.now() + checkpoint
        } else {
            self.now()
        };
        let ready = depart.max(self.instance_ready_at(dest)) + launch;

        self.world.tasks.state[s] = TaskState::InTransit {
            generation: gen,
            ready_at: ready,
        };
        if had_instance {
            self.world.tasks.migrations[s] += 1;
            self.migration_count += 1;
        }
        let dslot = self.world.insts.ensure(dest);
        self.world.tasks.assigned[s] = dslot;
        if self.world.insts.attach(dslot, tslot) {
            self.account_mapping(dest, tslot, true);
        }
        self.push(
            ready,
            Event::TaskReady {
                slot: tslot,
                generation: gen,
            },
        );
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
                self.world.insts.tasks[inst as usize]
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

    /// Builds the scheduler context snapshot.
    pub(crate) fn build_snapshot(&self) -> (Vec<TaskSnapshot>, Vec<InstanceSnapshot>) {
        let mut tasks = Vec::new();
        for &jslot in &self.world.jobs.active {
            let spec = self.job_spec(jslot);
            let base = self.world.jobs.task_range(jslot).start;
            let remaining =
                SimDuration::from_hours_f64(self.world.jobs.remaining_hours[jslot as usize]);
            for (pos, tspec) in spec.tasks.iter().enumerate() {
                let tslot = self.world.tasks.slot_by_pos[base + pos];
                let assigned = self.world.tasks.assigned[tslot as usize];
                tasks.push(TaskSnapshot {
                    id: tspec.id,
                    workload: tspec.workload,
                    demand: tspec.demand,
                    checkpoint_delay: tspec.checkpoint_delay.scale(self.migration_delay_scale),
                    launch_delay: tspec.launch_delay.scale(self.migration_delay_scale),
                    gang_size: spec.num_tasks() as u32,
                    gang_coupled: spec.gang_coupled,
                    assigned_to: (assigned != NO_SLOT)
                        .then(|| self.world.insts.ids[assigned as usize]),
                    remaining_hint: Some(remaining),
                });
            }
        }
        let instances: Vec<InstanceSnapshot> = self
            .live
            .iter()
            .filter(|(id, _)| !self.draining.contains(id))
            .map(|(&id, row)| InstanceSnapshot {
                id,
                type_id: row.type_id,
            })
            .collect();
        (tasks, instances)
    }

    /// Executes a plan: provisions new instances, transfers the tasks in
    /// `moves` (task → index of its destination in `plan.assignments`, as
    /// [`Plan::moves`] found them), marks terminations.
    pub(crate) fn execute_plan(&mut self, plan: &Plan, moves: BTreeMap<TaskId, usize>) {
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
                    let id = self.cloud.provision(request, &mut self.rng).ok()?;
                    self.world.insts.ensure(id);
                    self.count_provision(id);
                    Some(id)
                }
            })
            .collect();
        for (tid, slot) in moves {
            if let Some(inst) = dest[slot] {
                self.transfer_task(tid, inst);
            }
        }
        // Defensive: never drain an instance the plan also assigns to.
        let claimed = plan.claimed();
        let released = plan.terminate.iter().filter(|id| !claimed.contains(id));
        self.draining.extend(released);
        self.try_terminations();
    }

    /// One scheduling round: observe, plan, execute, and re-arm the next
    /// round while work remains.
    pub(crate) fn handle_round(&mut self) {
        self.round_pending = false;
        self.record(ExecActionKind::Round);
        // Rounds read every active job's progress (snapshot remaining
        // hints), so this is the natural settle point: fold the segment
        // log into all active jobs and truncate it, bounding how far
        // any later settle has to replay.
        self.world.jobs.settle_active_and_reset();
        // The observations borrow the world, so the scheduler steps out of
        // it while it pulls them (the stand-in is zero-sized: no allocation).
        let mut scheduler = std::mem::replace(&mut self.scheduler, Box::new(NoPackingScheduler));
        scheduler.observe(&mut self.observations());
        self.scheduler = scheduler;
        let (tasks, instances) = self.build_snapshot();
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
        let moves = plan.moves(&view).map(|m| (m.task.id, m.slot)).collect();
        self.rounds += 1;
        if plan.full_reconfiguration {
            self.full_rounds += 1;
        }
        self.execute_plan(&plan, moves);
        self.recompute_completions();

        if !self.world.jobs.active.is_empty() {
            self.schedule_round(self.now() + self.round_period);
        } else if self.arrivals_remaining == 0 && self.stream_drained() {
            // Final cleanup: drain everything still alive, and tombstone
            // leftover fault events — a fault outliving the workload has
            // nothing to disturb, and letting it dispatch would drag the
            // clock (and therefore the makespan) forward for nothing.
            self.draining.extend(self.live.keys());
            self.try_terminations();
            for token in self.fault_tokens.drain(..) {
                self.engine.cancel(token);
            }
        }
    }
}
