//! Scheduler inputs (cluster snapshots) and outputs (plans).
//!
//! The simulator and the live runtime describe the cluster to a scheduler
//! through [`SchedulerContext`] and receive back a [`Plan`]: the target
//! cluster configuration (which instances to keep or launch and which
//! tasks go where) plus the instances to terminate. Diffing the plan
//! against the current assignment yields the migrations.
//!
//! How a snapshot becomes the *current configuration* — which tasks sit
//! on which instance of which type — is decided once, in
//! [`ClusterView::of`]; every scheduler and the plan executor read it
//! from there.

use std::collections::{BTreeSet, HashMap};

use eva_interference::TaskContext;
use eva_types::{
    DemandSpec, IdBuildHasher, InstanceId, InstanceTypeId, JobId, ResourceVector, SimDuration,
    SimTime, TaskId, WorkloadKind,
};

use eva_cloud::{Catalog, InstanceType};

/// A scheduler-visible view of one active task.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSnapshot {
    /// The task.
    pub id: TaskId,
    /// Its workload kind (indexes the co-location table).
    pub workload: WorkloadKind,
    /// Its resource demands.
    pub demand: DemandSpec,
    /// Checkpoint delay if migrated.
    pub checkpoint_delay: SimDuration,
    /// Launch delay on a (new) instance.
    pub launch_delay: SimDuration,
    /// Number of sibling tasks in its job (1 for single-task jobs).
    pub gang_size: u32,
    /// Whether the job's tasks are performance-interdependent (§4.4).
    pub gang_coupled: bool,
    /// Where the task currently runs, if anywhere.
    pub assigned_to: Option<InstanceId>,
    /// Estimated remaining runtime, when the workload supplies one. Eva
    /// ignores this; the Stratus baseline receives perfect estimates here
    /// (its best case, §6.1).
    pub remaining_hint: Option<SimDuration>,
}

impl TaskSnapshot {
    /// Total migration delay (checkpoint + launch).
    pub fn migration_delay(&self) -> SimDuration {
        self.checkpoint_delay + self.launch_delay
    }
}

/// Task 0 of a one-task job, as this crate's unit tests build them.
#[cfg(test)]
pub(crate) fn test_task(job: u64, demand: ResourceVector, workload: u32) -> TaskSnapshot {
    TaskSnapshot {
        id: TaskId::new(JobId(job), 0),
        workload: WorkloadKind(workload),
        demand: DemandSpec::uniform(demand),
        checkpoint_delay: SimDuration::from_secs(2),
        launch_delay: SimDuration::from_secs(10),
        gang_size: 1,
        gang_coupled: false,
        assigned_to: None,
        remaining_hint: None,
    }
}

/// A scheduler-visible view of one live instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstanceSnapshot {
    /// The instance.
    pub id: InstanceId,
    /// Its catalog type.
    pub type_id: InstanceTypeId,
}

/// Everything a scheduler sees at one scheduling round.
#[derive(Debug, Clone)]
pub struct SchedulerContext<'a> {
    /// Current simulated time.
    pub now: SimTime,
    /// The instance-type catalog.
    pub catalog: &'a Catalog,
    /// All tasks currently in the system (running or pending).
    pub tasks: &'a [TaskSnapshot],
    /// All live instances.
    pub instances: &'a [InstanceSnapshot],
}

/// The instance slot an assignment targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlannedInstance {
    /// An instance that already exists.
    Existing(InstanceId),
    /// A new instance of the given type to launch.
    New(InstanceTypeId),
}

/// One instance in the target configuration with its task set.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// Which instance hosts the tasks.
    pub instance: PlannedInstance,
    /// The tasks assigned to it.
    pub tasks: Vec<TaskId>,
}

/// A target cluster configuration.
///
/// Any live instance that appears neither in `assignments` nor is kept
/// implicitly must be listed in `terminate`; the executor drains and
/// terminates it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Plan {
    /// Target assignments (existing and new instances).
    pub assignments: Vec<Assignment>,
    /// Instances to terminate once drained.
    pub terminate: Vec<InstanceId>,
    /// Whether this plan came from a Full Reconfiguration (telemetry for
    /// the Figure 5a proportion metric).
    pub full_reconfiguration: bool,
}

impl Plan {
    /// The no-op plan.
    pub fn empty() -> Self {
        Plan::default()
    }

    /// Every task of `view` the plan places somewhere other than where it
    /// sits now, in plan order. Tasks the view does not know are skipped.
    pub fn moves<'a>(&'a self, view: &'a ClusterView<'a>) -> impl Iterator<Item = Move<'a>> {
        self.assignments
            .iter()
            .enumerate()
            .flat_map(move |(slot, a)| {
                a.tasks.iter().filter_map(move |tid| {
                    let task = view.task(*tid)?;
                    let stays = matches!(
                        (a.instance, task.assigned_to),
                        (PlannedInstance::Existing(target), Some(current)) if target == current
                    );
                    (!stays).then_some(Move { task, slot })
                })
            })
    }

    /// Tasks that change instance relative to `tasks`' current assignment
    /// (includes first-time placements onto new instances only when
    /// `count_initial` is set).
    pub fn migrations(&self, tasks: &[TaskSnapshot], count_initial: bool) -> Vec<TaskId> {
        let view = ClusterView::build(tasks, &[], None);
        self.moves(&view)
            .filter(|m| count_initial || !m.is_initial())
            .map(|m| m.task.id)
            .collect()
    }

    /// The existing instances the plan assigns tasks to.
    pub fn claimed(&self) -> BTreeSet<InstanceId> {
        self.assignments
            .iter()
            .filter_map(|a| match a.instance {
                PlannedInstance::Existing(id) => Some(id),
                PlannedInstance::New(_) => None,
            })
            .collect()
    }

    /// Number of new instances the plan launches.
    pub fn new_instance_count(&self) -> usize {
        self.assignments
            .iter()
            .filter(|a| matches!(a.instance, PlannedInstance::New(_)))
            .count()
    }
}

/// One placement of [`Plan::moves`].
#[derive(Debug, Clone, Copy)]
pub struct Move<'a> {
    /// The task that moves.
    pub task: &'a TaskSnapshot,
    /// Index into `Plan::assignments` of its destination.
    pub slot: usize,
}

impl Move<'_> {
    /// A first placement (the task ran nowhere) rather than a migration.
    pub fn is_initial(&self) -> bool {
        self.task.assigned_to.is_none()
    }
}

/// One listed instance of the current configuration.
#[derive(Debug, Clone)]
pub struct InstanceView<'a> {
    /// The instance.
    pub id: InstanceId,
    /// Its catalog type id.
    pub type_id: InstanceTypeId,
    /// Its catalog type (`None` when the catalog does not know it).
    pub ty: Option<&'a InstanceType>,
    /// The tasks assigned to it, in `ctx.tasks` order.
    pub residents: Vec<&'a TaskSnapshot>,
    /// Their summed demand on `ty` (zero when the type is unknown).
    pub used: ResourceVector,
}

impl InstanceView<'_> {
    /// The residents' ids.
    pub fn task_ids(&self) -> Vec<TaskId> {
        self.residents.iter().map(|t| t.id).collect()
    }
}

/// The current configuration, derived from a [`SchedulerContext`] in one
/// pass.
#[derive(Debug, Clone)]
pub struct ClusterView<'a> {
    /// The listed instances, in `ctx.instances` order.
    pub instances: Vec<InstanceView<'a>>,
    /// Tasks resident on no listed instance, in `ctx.tasks` order: the
    /// unassigned ones ([`ClusterView::pending`]) and those whose
    /// `assigned_to` names an instance the context does not list (one being
    /// drained). Eva's Partial Reconfiguration re-places all of them.
    pub unplaced: Vec<&'a TaskSnapshot>,
    index: HashMap<InstanceId, usize, IdBuildHasher>,
    tasks: HashMap<TaskId, &'a TaskSnapshot, IdBuildHasher>,
}

impl<'a> ClusterView<'a> {
    /// Derives the current configuration of `ctx`.
    pub fn of(ctx: &SchedulerContext<'a>) -> Self {
        Self::build(ctx.tasks, ctx.instances, Some(ctx.catalog))
    }

    fn build(
        tasks: &'a [TaskSnapshot],
        listed: &[InstanceSnapshot],
        catalog: Option<&'a Catalog>,
    ) -> Self {
        let mut instances: Vec<InstanceView<'a>> = Vec::with_capacity(listed.len());
        let mut index = HashMap::with_capacity_and_hasher(listed.len(), IdBuildHasher::default());
        for inst in listed {
            index.entry(inst.id).or_insert(instances.len());
            instances.push(InstanceView {
                id: inst.id,
                type_id: inst.type_id,
                ty: catalog.and_then(|c| c.get(inst.type_id)),
                residents: Vec::new(),
                used: ResourceVector::ZERO,
            });
        }
        let mut unplaced = Vec::new();
        let mut by_id = HashMap::with_capacity_and_hasher(tasks.len(), IdBuildHasher::default());
        for t in tasks {
            by_id.entry(t.id).or_insert(t);
            match t.assigned_to.and_then(|id| index.get(&id)) {
                Some(&i) => {
                    let inst = &mut instances[i];
                    if let Some(ty) = inst.ty {
                        inst.used += ty.demand_of(&t.demand);
                    }
                    inst.residents.push(t);
                }
                None => unplaced.push(t),
            }
        }
        ClusterView {
            instances,
            unplaced,
            index,
            tasks: by_id,
        }
    }

    /// The listed instance `id`.
    pub fn instance(&self, id: InstanceId) -> Option<&InstanceView<'a>> {
        self.index.get(&id).map(|&i| &self.instances[i])
    }

    /// The task `id`.
    pub fn task(&self, id: TaskId) -> Option<&'a TaskSnapshot> {
        self.tasks.get(&id).copied()
    }

    /// Tasks not assigned anywhere yet, in `ctx.tasks` order.
    pub fn pending(&self) -> impl Iterator<Item = &'a TaskSnapshot> + '_ {
        self.unplaced
            .iter()
            .copied()
            .filter(|t| t.assigned_to.is_none())
    }

    /// The plan with these assignments that terminates every listed
    /// instance none of them targets.
    pub fn plan(&self, assignments: Vec<Assignment>) -> Plan {
        let mut plan = Plan {
            assignments,
            ..Plan::empty()
        };
        let claimed = plan.claimed();
        plan.terminate = self
            .instances
            .iter()
            .map(|i| i.id)
            .filter(|id| !claimed.contains(id))
            .collect();
        plan
    }
}

/// A job-level throughput observation delivered to schedulers each round.
#[derive(Debug, Clone, PartialEq)]
pub struct JobObservation {
    /// The observed job.
    pub job: JobId,
    /// Whether its tasks are gang-coupled.
    pub gang_coupled: bool,
    /// Observed normalized throughput over the last window.
    pub observed_tput: f64,
    /// Per-task co-location contexts.
    pub contexts: Vec<TaskContext>,
}

/// The scheduling interface shared by Eva and every baseline.
pub trait Scheduler {
    /// Human-readable name used in experiment tables.
    fn name(&self) -> &'static str;

    /// Produces the target configuration for this round. `view` is
    /// [`ClusterView::of`]`(ctx)`: the caller derives it once and reads the
    /// plan's [`Plan::moves`] against the same one.
    fn plan_in(&mut self, ctx: &SchedulerContext<'_>, view: &ClusterView<'_>) -> Plan;

    /// [`Scheduler::plan_in`] for a caller that holds only the snapshot.
    fn plan(&mut self, ctx: &SchedulerContext<'_>) -> Plan {
        self.plan_in(ctx, &ClusterView::of(ctx))
    }

    /// Offers this round's throughput observations, one per job with a
    /// running task. Each is built when it is pulled, so a scheduler that
    /// does not learn leaves the iterator alone and pays nothing.
    fn observe(&mut self, _observations: &mut dyn Iterator<Item = JobObservation>) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(job: u64, idx: u32, assigned: Option<u64>) -> TaskSnapshot {
        TaskSnapshot {
            id: TaskId::new(JobId(job), idx),
            assigned_to: assigned.map(InstanceId),
            ..test_task(job, ResourceVector::new(1, 4, 1024), 0)
        }
    }

    #[test]
    fn migrations_detect_moves_only() {
        let tasks = vec![snap(1, 0, Some(1)), snap(2, 0, Some(2)), snap(3, 0, None)];
        let plan = Plan {
            assignments: vec![
                Assignment {
                    instance: PlannedInstance::Existing(InstanceId(1)),
                    tasks: vec![TaskId::new(JobId(1), 0)], // Stays put.
                },
                Assignment {
                    instance: PlannedInstance::Existing(InstanceId(1)),
                    tasks: vec![TaskId::new(JobId(2), 0)], // Moves 2 → 1.
                },
                Assignment {
                    instance: PlannedInstance::New(InstanceTypeId(0)),
                    tasks: vec![TaskId::new(JobId(3), 0)], // Initial placement.
                },
            ],
            terminate: vec![InstanceId(2)],
            full_reconfiguration: false,
        };
        let moved = plan.migrations(&tasks, false);
        assert_eq!(moved, vec![TaskId::new(JobId(2), 0)]);
        let with_initial = plan.migrations(&tasks, true);
        assert_eq!(with_initial.len(), 2);
        assert_eq!(plan.new_instance_count(), 1);
    }

    #[test]
    fn moving_to_new_instance_counts_as_migration() {
        let tasks = vec![snap(1, 0, Some(5))];
        let plan = Plan {
            assignments: vec![Assignment {
                instance: PlannedInstance::New(InstanceTypeId(2)),
                tasks: vec![TaskId::new(JobId(1), 0)],
            }],
            ..Plan::empty()
        };
        assert_eq!(plan.migrations(&tasks, false).len(), 1);
    }

    #[test]
    fn view_groups_tasks_and_keeps_orphans_apart_from_pending() {
        // Instance 9 is not listed: its task is unplaced but not pending.
        let tasks = vec![
            snap(1, 0, Some(1)),
            snap(2, 0, Some(9)),
            snap(3, 0, None),
            snap(4, 0, Some(1)),
        ];
        let instances = vec![
            InstanceSnapshot {
                id: InstanceId(1),
                type_id: InstanceTypeId(0),
            },
            InstanceSnapshot {
                id: InstanceId(2),
                type_id: InstanceTypeId(0),
            },
        ];
        let catalog = Catalog::table3_example();
        let ctx = SchedulerContext {
            now: SimTime::ZERO,
            catalog: &catalog,
            tasks: &tasks,
            instances: &instances,
        };
        let view = ClusterView::of(&ctx);
        let ids = |set: &[&TaskSnapshot]| set.iter().map(|t| t.id.job.0).collect::<Vec<_>>();
        assert_eq!(ids(&view.instances[0].residents), vec![1, 4]);
        assert_eq!(view.instances[0].used, ResourceVector::new(2, 8, 2048));
        assert!(view.instances[1].residents.is_empty());
        assert_eq!(ids(&view.unplaced), vec![2, 3]);
        assert_eq!(ids(&view.pending().collect::<Vec<_>>()), vec![3]);
        assert!(view.instance(InstanceId(9)).is_none());

        // Task 4 moves to instance 2, the orphan and the pending task are
        // placed on a new instance; instance 1 keeps task 1.
        let plan = view.plan(vec![
            Assignment {
                instance: PlannedInstance::Existing(InstanceId(1)),
                tasks: vec![tasks[0].id],
            },
            Assignment {
                instance: PlannedInstance::Existing(InstanceId(2)),
                tasks: vec![tasks[3].id],
            },
            Assignment {
                instance: PlannedInstance::New(InstanceTypeId(0)),
                tasks: vec![tasks[1].id, tasks[2].id],
            },
        ]);
        assert!(plan.terminate.is_empty());
        let moves: Vec<(u64, usize, bool)> = plan
            .moves(&view)
            .map(|m| (m.task.id.job.0, m.slot, m.is_initial()))
            .collect();
        assert_eq!(moves, vec![(4, 1, false), (2, 2, false), (3, 2, true)]);
        assert_eq!(
            view.plan(Vec::new()).terminate,
            vec![InstanceId(1), InstanceId(2)]
        );
    }
}
