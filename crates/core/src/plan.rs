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
//! [`ClusterView`]; every scheduler and the plan executor read it from
//! there.

use std::collections::HashMap;
use std::hash::Hash;
use std::ops::Range;

use eva_interference::TaskContext;
use eva_types::{
    Cost, DemandSpec, IdBuildHasher, InstanceId, InstanceTypeId, JobId, ResourceVector,
    SimDuration, SimTime, TaskId, WorkloadKind,
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
    /// Task `id` of a one-task job, unplaced, with no migration delay and
    /// no runtime hint.
    pub fn new(id: TaskId, workload: WorkloadKind, demand: DemandSpec) -> Self {
        TaskSnapshot {
            id,
            workload,
            demand,
            checkpoint_delay: SimDuration::ZERO,
            launch_delay: SimDuration::ZERO,
            gang_size: 1,
            gang_coupled: false,
            assigned_to: None,
            remaining_hint: None,
        }
    }

    /// Total migration delay (checkpoint + launch).
    pub fn migration_delay(&self) -> SimDuration {
        self.checkpoint_delay + self.launch_delay
    }
}

/// Task 0 of a one-task job, as this crate's unit tests build them.
#[cfg(test)]
pub(crate) fn test_task(job: u64, demand: ResourceVector, workload: u32) -> TaskSnapshot {
    let (id, demand) = (TaskId::new(JobId(job), 0), DemandSpec::uniform(demand));
    TaskSnapshot {
        checkpoint_delay: SimDuration::from_secs(2),
        launch_delay: SimDuration::from_secs(10),
        ..TaskSnapshot::new(id, WorkloadKind(workload), demand)
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

impl InstanceSnapshot {
    /// Instance `id`, of catalog type `type_id`.
    pub fn new(id: InstanceId, type_id: InstanceTypeId) -> Self {
        InstanceSnapshot { id, type_id }
    }
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

impl<'a> SchedulerContext<'a> {
    /// The context at `now` of `tasks` on `instances`.
    pub fn new(
        now: SimTime,
        catalog: &'a Catalog,
        tasks: &'a [TaskSnapshot],
        instances: &'a [InstanceSnapshot],
    ) -> Self {
        SchedulerContext {
            now,
            catalog,
            tasks,
            instances,
        }
    }
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

impl Assignment {
    /// `tasks` on `instance`.
    pub fn new(instance: PlannedInstance, tasks: Vec<TaskId>) -> Self {
        Assignment { instance, tasks }
    }
}

/// A target cluster configuration, as the change it makes to the current
/// one: the instances it launches, the tasks it moves and the instances it
/// releases.
///
/// A listed instance that no assignment targets and `terminate` does not
/// list is kept implicitly, with its residents where they are, and so a
/// plan names only what it changes. An assignment to an existing instance
/// lists every task there after the round: its residents that stay and
/// the tasks it receives. The executor drains and terminates the instances
/// in `terminate` that no assignment targets.
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
    /// sits now, in plan order. Tasks the view does not know are skipped,
    /// and so is an assignment that lists exactly the residents of the
    /// listed instance it targets, in order, while `ctx.tasks` lists no id
    /// twice: none of its tasks moves.
    pub fn moves<'a>(&'a self, view: &'a ClusterView<'a>) -> impl Iterator<Item = Move<'a>> {
        let mut hint = 0;
        let changed = self.assignments.iter().enumerate();
        let changed = changed.filter(move |(_, a)| !view.keeps(a, &mut hint));
        changed.flat_map(move |(slot, a)| {
            a.tasks.iter().filter_map(move |tid| {
                let pos = view.position(*tid)?;
                let task = &view.tasks[pos];
                let stays = matches!(
                    (a.instance, task.assigned_to),
                    (PlannedInstance::Existing(target), Some(current)) if target == current
                );
                (!stays).then_some(Move { task, pos, slot })
            })
        })
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
    /// Its position in `ctx.tasks`.
    pub pos: usize,
    /// Index into `Plan::assignments` of its destination.
    pub slot: usize,
}

impl Move<'_> {
    /// A first placement (the task ran nowhere) rather than a migration.
    pub fn is_initial(&self) -> bool {
        self.task.assigned_to.is_none()
    }
}

/// One listed instance of the current configuration. Its residents are a
/// range of the view's flat list: [`ClusterView::residents`].
#[derive(Debug, Clone)]
pub struct InstanceView<'a> {
    /// The instance.
    pub id: InstanceId,
    /// Its catalog type id.
    pub type_id: InstanceTypeId,
    /// Its catalog type (`None` when the catalog does not know it).
    pub ty: Option<&'a InstanceType>,
    /// Its residents' summed demand on `ty` (zero when the type is unknown).
    pub used: ResourceVector,
    /// Its residents' summed reservation prices (§4.2) in the catalog.
    pub reserved: Cost,
    residents: Range<usize>,
}

/// Where each id of a listing is first listed: `None` when the ids ascend
/// strictly, so that a binary search of the listing finds them.
type Index<K> = Option<HashMap<K, usize, IdBuildHasher>>;

fn index_by<T, K: Copy + Ord + Hash>(list: &[T], key: impl Fn(&T) -> K) -> Index<K> {
    let ascends = list.windows(2).all(|w| key(&w[0]) < key(&w[1]));
    let firsts = || list.iter().enumerate().rev().map(|(i, x)| (key(x), i));
    (!ascends).then(|| firsts().collect())
}

/// The current configuration of a [`SchedulerContext`].
///
/// Residents sit in one flat list, grouped by instance in listing order,
/// each group in `ctx.tasks` order: [`ClusterView::residents`]. Both
/// constructors fill it in one pass over the tasks and build equal views.
/// [`ClusterView::of`] finds each task's instance by its `assigned_to` id
/// and sums `used` and `reserved`. [`ClusterView::with_hosts`] is handed
/// each task's instance as a listing index, so looks up no id, and each
/// listing's sums: the world lists each ready row of its instance table
/// once, with the sums the row keeps, and hands each task its row's
/// listing.
///
/// A lookup by id finds the id's first listing. The world lists instances
/// and tasks in strictly ascending id order, and a lookup there is a binary
/// search. Other listings get a map: a job may declare its tasks out of
/// index order, so even the world's `ctx.tasks` is not always sorted.
#[derive(Debug, Clone)]
pub struct ClusterView<'a> {
    /// The listed instances, in `ctx.instances` order.
    pub instances: Vec<InstanceView<'a>>,
    /// Tasks resident on no listed instance, in `ctx.tasks` order: the
    /// unassigned ones ([`ClusterView::pending`]) and those whose
    /// `assigned_to` names an instance the context does not list (one being
    /// drained). Eva's Partial Reconfiguration re-places all of them.
    pub unplaced: Vec<&'a TaskSnapshot>,
    residents: Vec<&'a TaskSnapshot>,
    index: Index<InstanceId>,
    /// `ctx.tasks`, with its id index.
    tasks: &'a [TaskSnapshot],
    positions: Index<TaskId>,
}

impl<'a> ClusterView<'a> {
    /// Derives the current configuration of `ctx`.
    pub fn of(ctx: &SchedulerContext<'a>) -> Self {
        let index = index_by(ctx.instances, |i| i.id);
        let first = |id| match &index {
            Some(map) => map.get(&id).copied(),
            None => ctx.instances.binary_search_by_key(&id, |i| i.id).ok(),
        };
        let host = |t: &TaskSnapshot| t.assigned_to.and_then(first).map_or(u32::MAX, |i| i as u32);
        let hosts: Vec<u32> = ctx.tasks.iter().map(host).collect();
        let mut sums = vec![(ResourceVector::ZERO, Cost::ZERO); ctx.instances.len()];
        let mut price = crate::price_memo(ctx.catalog);
        for (t, &h) in ctx.tasks.iter().zip(&hosts) {
            if let Some((used, reserved)) = sums.get_mut(h as usize) {
                let ty = ctx.catalog.get(ctx.instances[h as usize].type_id);
                *used += ty.map_or(ResourceVector::ZERO, |ty| ty.demand_of(&t.demand));
                *reserved += price(&t.demand).unwrap_or_default();
            }
        }
        Self::with_hosts(ctx, &hosts, &sums)
    }

    /// The configuration of `ctx` with `ctx.tasks[pos]` on listing
    /// `hosts[pos]` (none past the listing) and listing `i`'s `used` and
    /// `reserved` in `sums[i]`: [`ClusterView::of`] when that is the first
    /// listing of each task's `assigned_to`, and those are its residents'.
    pub fn with_hosts(
        ctx: &SchedulerContext<'a>,
        hosts: &[u32],
        sums: &[(ResourceVector, Cost)],
    ) -> Self {
        debug_assert_eq!(hosts.len(), ctx.tasks.len(), "one host per task");
        debug_assert_eq!(sums.len(), ctx.instances.len(), "one sum per listing");
        let view = |(inst, &(used, reserved)): (&InstanceSnapshot, _)| InstanceView {
            id: inst.id,
            type_id: inst.type_id,
            ty: ctx.catalog.get(inst.type_id),
            used,
            reserved,
            residents: 0..0,
        };
        let mut instances: Vec<InstanceView<'a>> =
            ctx.instances.iter().zip(sums).map(view).collect();
        // Count each instance's residents, lay the ranges out in listing
        // order, then fill them in task order.
        let listed = instances.len();
        for &h in hosts.iter().filter(|&&h| (h as usize) < listed) {
            instances[h as usize].residents.end += 1;
        }
        let mut start = 0;
        for inst in &mut instances {
            let n = inst.residents.end;
            inst.residents = start..start;
            start += n;
        }
        let mut residents = ctx.tasks.first().map_or_else(Vec::new, |t| vec![t; start]);
        let mut unplaced = Vec::new();
        for (t, &h) in ctx.tasks.iter().zip(hosts) {
            let Some(inst) = instances.get_mut(h as usize) else {
                unplaced.push(t);
                continue;
            };
            residents[inst.residents.end] = t;
            inst.residents.end += 1;
        }
        ClusterView {
            instances,
            unplaced,
            residents,
            index: index_by(ctx.instances, |i| i.id),
            tasks: ctx.tasks,
            positions: index_by(ctx.tasks, |t| t.id),
        }
    }

    /// The residents of `inst`, one of this view's instances.
    pub fn residents(&self, inst: &InstanceView<'a>) -> &[&'a TaskSnapshot] {
        &self.residents[inst.residents.clone()]
    }

    /// The ids of `inst`'s residents.
    pub fn task_ids(&self, inst: &InstanceView<'a>) -> Vec<TaskId> {
        self.residents(inst).iter().map(|t| t.id).collect()
    }

    /// The listed instance `id`.
    pub fn instance(&self, id: InstanceId) -> Option<&InstanceView<'a>> {
        self.slot(id).map(|i| &self.instances[i])
    }

    /// The index into `instances` of `id`'s first listing.
    pub fn slot(&self, id: InstanceId) -> Option<usize> {
        match &self.index {
            Some(map) => map.get(&id).copied(),
            None => self.instances.binary_search_by_key(&id, |i| i.id).ok(),
        }
    }

    /// The task `id`.
    pub fn task(&self, id: TaskId) -> Option<&'a TaskSnapshot> {
        self.position(id).map(|pos| &self.tasks[pos])
    }

    /// The position of `id`'s first listing in `ctx.tasks`.
    fn position(&self, id: TaskId) -> Option<usize> {
        match &self.positions {
            Some(map) => map.get(&id).copied(),
            None => self.tasks.binary_search_by_key(&id, |t| t.id).ok(),
        }
    }

    /// [`ClusterView::slot`], trying listing `hint` first and leaving it
    /// after the one found: a plan that lists each instance it keeps lists
    /// them in listing order.
    fn slot_after(&self, id: InstanceId, hint: &mut usize) -> Option<usize> {
        let at_hint = self
            .instances
            .get(*hint)
            .filter(|i| i.id == id && self.index.is_none());
        let slot = at_hint.map(|_| *hint).or_else(|| self.slot(id));
        *hint = slot.map_or(*hint, |s| s + 1);
        slot
    }

    /// Whether `a` keeps the listed instance it targets as it is (see
    /// [`Plan::moves`]).
    fn keeps(&self, a: &Assignment, hint: &mut usize) -> bool {
        let PlannedInstance::Existing(id) = a.instance else {
            return false;
        };
        let once = self
            .positions
            .as_ref()
            .is_none_or(|m| m.len() == self.tasks.len());
        let ids = |i: usize| self.residents(&self.instances[i]).iter().map(|t| t.id);
        let same = |i| ids(i).eq(a.tasks.iter().copied());
        self.slot_after(id, hint).is_some_and(|i| once && same(i))
    }

    /// Tasks not assigned anywhere yet, in `ctx.tasks` order.
    pub fn pending(&self) -> impl Iterator<Item = &'a TaskSnapshot> + '_ {
        self.unplaced
            .iter()
            .copied()
            .filter(|t| t.assigned_to.is_none())
    }

    /// The plan with these assignments that terminates, in listing order,
    /// each listing whose id's first listing is among `candidates` (listing
    /// indices, ascending) and no assignment targets, and keeps the rest.
    pub fn plan(
        &self,
        assignments: Vec<Assignment>,
        candidates: impl IntoIterator<Item = usize>,
    ) -> Plan {
        // `claimed[slot]`: an assignment targets the instance listed there.
        let (n, mut hint) = (self.instances.len(), 0);
        let mut claimed = vec![false; n];
        let targets = assignments.iter().filter_map(|a| match a.instance {
            PlannedInstance::Existing(id) => self.slot_after(id, &mut hint),
            PlannedInstance::New(_) => None,
        });
        targets.for_each(|slot| claimed[slot] = true);
        let mut gone: Vec<usize> = candidates.into_iter().filter(|&i| !claimed[i]).collect();
        debug_assert!(gone.windows(2).all(|w| w[0] < w[1]), "candidates ascend");
        // Unless an id is listed twice, each listing is its id's first.
        let id = |i: usize| self.instances[i].id;
        if let Some(first) = &self.index {
            gone = (0..n).filter(|&i| gone.contains(&first[&id(i)])).collect();
        }
        Plan {
            assignments,
            terminate: gone.into_iter().map(id).collect(),
            ..Plan::empty()
        }
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

    /// Produces the target configuration for this round. `view` is the
    /// current configuration of `ctx`, [`ClusterView::of`]`(ctx)` or the
    /// world's equal [`ClusterView::with_hosts`]: the caller derives it once
    /// and reads the plan's [`Plan::moves`] against the same one.
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

    /// `f` of the view of `tasks` on the listed `instances` (all of type 0).
    fn with_view<R>(tasks: &[TaskSnapshot], ids: &[u64], f: impl FnOnce(&ClusterView) -> R) -> R {
        let catalog = Catalog::table3_example();
        let listed = ids
            .iter()
            .map(|&id| InstanceSnapshot::new(InstanceId(id), InstanceTypeId(0)));
        let instances = &listed.collect::<Vec<_>>();
        f(&ClusterView::of(&SchedulerContext::new(
            SimTime::ZERO,
            &catalog,
            tasks,
            instances,
        )))
    }

    /// The moves of a plan of `assignments` as `(job, pos, slot, is_initial)`.
    fn moves_in(
        view: &ClusterView,
        assignments: Vec<Assignment>,
    ) -> Vec<(u64, usize, usize, bool)> {
        let mut plan = Plan::empty();
        plan.assignments = assignments;
        let pin = |m: Move<'_>| (m.task.id.job.0, m.pos, m.slot, m.is_initial());
        plan.moves(view).map(pin).collect()
    }

    /// An assignment of task 0 of each of `jobs` to `instance`.
    fn to(instance: PlannedInstance, jobs: &[u64]) -> Assignment {
        let tasks = jobs.iter().map(|&j| TaskId::new(JobId(j), 0)).collect();
        Assignment { instance, tasks }
    }
    const ONE: PlannedInstance = PlannedInstance::Existing(InstanceId(1));
    const NEW: PlannedInstance = PlannedInstance::New(InstanceTypeId(0));

    #[test]
    fn migrations_detect_moves_only() {
        // Job 1 stays put, job 2 moves from instance 2 to 1, job 3 is placed.
        let tasks = vec![snap(1, 0, Some(1)), snap(2, 0, Some(2)), snap(3, 0, None)];
        let mut plan = Plan::empty();
        plan.assignments = vec![to(ONE, &[1]), to(ONE, &[2]), to(NEW, &[3])];
        assert_eq!(plan.new_instance_count(), 1);
        let moves = with_view(&tasks, &[], |view| moves_in(view, plan.assignments));
        assert_eq!(moves, vec![(2, 1, 1, false), (3, 2, 2, true)]);
    }

    #[test]
    fn moving_to_new_instance_counts_as_migration() {
        let moves = with_view(&[snap(1, 0, Some(5))], &[], |view| {
            moves_in(view, vec![to(NEW, &[1])])
        });
        assert_eq!(moves, vec![(1, 0, 0, false)]);
    }

    #[test]
    fn view_groups_tasks_and_keeps_orphans_apart_from_pending() {
        // Instance 9 is not listed: its task is unplaced but not pending.
        let tasks = [(1, Some(1)), (2, Some(9)), (3, None), (4, Some(1))];
        let tasks: Vec<_> = tasks
            .into_iter()
            .map(|(job, on)| snap(job, 0, on))
            .collect();
        with_view(&tasks, &[1, 2], |view| {
            let ids = |set: &[&TaskSnapshot]| set.iter().map(|t| t.id.job.0).collect::<Vec<_>>();
            assert_eq!(ids(view.residents(&view.instances[0])), vec![1, 4]);
            assert_eq!(view.instances[0].used, ResourceVector::new(2, 8, 2048));
            assert!(view.residents(&view.instances[1]).is_empty());
            assert_eq!(ids(&view.unplaced), vec![2, 3]);
            assert_eq!(ids(&view.pending().collect::<Vec<_>>()), vec![3]);
            assert!(view.instance(InstanceId(9)).is_none());
            // Task 4 moves to instance 2, the orphan and the pending task
            // are placed on a new instance; instance 1 keeps task 1.
            let two = PlannedInstance::Existing(InstanceId(2));
            let assignments = vec![to(ONE, &[1]), to(two, &[4]), to(NEW, &[2, 3])];
            assert!(view.plan(assignments.clone(), 0..2).terminate.is_empty());
            let want = vec![(4, 3, 1, false), (2, 1, 2, false), (3, 2, 2, true)];
            assert_eq!(moves_in(view, assignments), want);
            let all = vec![InstanceId(1), InstanceId(2)];
            assert_eq!(view.plan(Vec::new(), 0..2).terminate, all);
            // Only instance 2 is a candidate: instance 1 is kept implicitly.
            let kept = view.plan(Vec::new(), [1]);
            assert_eq!(kept.terminate, vec![InstanceId(2)]);
        });
    }

    #[test]
    fn moves_of_reordered_partial_repeated_and_unknown_listings() {
        // Instance 1 holds jobs 1 and 2, job 3 is pending, instance 2 is empty.
        let tasks = vec![snap(1, 0, Some(1)), snap(2, 0, Some(1)), snap(3, 0, None)];
        with_view(&tasks, &[1, 2], |view| {
            // Its residents in another order, or some of them: nothing moves.
            assert_eq!(moves_in(view, vec![to(ONE, &[2, 1])]), vec![]);
            assert_eq!(moves_in(view, vec![to(ONE, &[2])]), vec![]);
            // More than its residents: the pending task is placed, and job
            // 9, which the view does not know, is skipped.
            let more = vec![to(ONE, &[1, 2, 3, 9])];
            assert_eq!(moves_in(view, more), vec![(3, 2, 0, true)]);
            // A task the plan lists twice moves once per listing.
            let twice = vec![to(NEW, &[1]), to(ONE, &[1, 2]), to(NEW, &[1])];
            assert_eq!(
                moves_in(view, twice),
                vec![(1, 0, 0, false), (1, 0, 2, false)]
            );
        });
    }

    #[test]
    fn a_task_listed_twice_is_read_at_its_first_listing() {
        // Job 1's task is listed on instance 1, then again on instance 2.
        let tasks = vec![snap(1, 0, Some(1)), snap(1, 0, Some(2))];
        with_view(&tasks, &[1, 2], |view| {
            assert_eq!(view.task(tasks[0].id), Some(&tasks[0]));
            assert_eq!(view.residents(&view.instances[1]), [&tasks[1]]);
            // Instance 2's residents are exactly what the plan keeps there,
            // but the task read is the first listing, on instance 1.
            let two = PlannedInstance::Existing(InstanceId(2));
            assert_eq!(moves_in(view, vec![to(two, &[1])]), vec![(1, 0, 0, false)]);
            assert_eq!(moves_in(view, vec![to(ONE, &[1])]), vec![]);
        });
    }
}
