//! The Eva scheduler: ensemble of Full and Partial Reconfiguration.
//!
//! Each round the scheduler (1) updates its interference table from the
//! round's throughput observations, (2) computes both candidate
//! configurations, (3) *concretizes* them against the live cluster —
//! mapping abstract packed instances onto existing instances of the same
//! type with maximal task overlap so that unchanged assignments migrate
//! nothing — and (4) picks one via the Equation 1 criterion.

use std::cmp::Reverse;
use std::collections::BTreeSet;

use eva_cloud::Catalog;
use eva_interference::ThroughputMonitor;
use eva_types::{InstanceId, JobId, TaskId};

use crate::config::{EvaConfig, ReconfigMode};
use crate::decision::{DecisionInputs, EventRateEstimator, ReconfigDecision};
use crate::packing::{pack, PackedConfig};
use crate::partial::partial_over;
use crate::plan::{
    Assignment, ClusterView, JobObservation, Plan, PlannedInstance, Scheduler, SchedulerContext,
};
use crate::reservation::{ReservationPrices, TnrpEvaluator, TputEstimator, UnitTput};

/// The Eva scheduler (§4).
///
/// # Examples
///
/// ```
/// use eva_cloud::Catalog;
/// use eva_core::{EvaConfig, EvaScheduler, Scheduler, SchedulerContext};
/// use eva_types::SimTime;
///
/// let mut eva = EvaScheduler::new(EvaConfig::eva());
/// let catalog = Catalog::aws_eval_2025();
/// let ctx = SchedulerContext { now: SimTime::ZERO, catalog: &catalog, tasks: &[], instances: &[] };
/// let plan = eva.plan(&ctx);
/// assert!(plan.assignments.is_empty());
/// ```
pub struct EvaScheduler {
    cfg: EvaConfig,
    monitor: ThroughputMonitor,
    estimator: EventRateEstimator,
    prev_jobs: BTreeSet<JobId>,
}

impl EvaScheduler {
    /// Builds an Eva scheduler.
    pub fn new(cfg: EvaConfig) -> Self {
        let monitor = ThroughputMonitor::with_default_tput(cfg.default_tput);
        let estimator = EventRateEstimator::new(cfg.initial_lambda, cfg.initial_p);
        EvaScheduler {
            cfg,
            monitor,
            estimator,
            prev_jobs: BTreeSet::new(),
        }
    }

    /// The learned co-location table (read access, e.g. for inspection).
    pub fn monitor(&self) -> &ThroughputMonitor {
        &self.monitor
    }

    /// Turns an abstract packed configuration into a concrete plan by
    /// reusing existing instances: each packed instance grabs the unused
    /// live instance of its type that hosts most of its tasks, if any does.
    fn concretize(
        packed: &PackedConfig,
        kept: Vec<(InstanceId, Vec<TaskId>)>,
        view: &ClusterView<'_>,
        reusable: impl IntoIterator<Item = InstanceId>,
    ) -> Plan {
        let mut available: BTreeSet<InstanceId> = reusable.into_iter().collect();
        let mut assignments: Vec<Assignment> = kept
            .into_iter()
            .map(|(id, tasks)| Assignment {
                instance: PlannedInstance::Existing(id),
                tasks,
            })
            .collect();

        for inst in &packed.instances {
            // Only the current hosts of these tasks can overlap them.
            let hosts = inst.tasks.iter().filter_map(|t| view.task(*t)?.assigned_to);
            let reusable = |id: &InstanceId| {
                let type_id = view.instance(*id).map(|live| live.type_id);
                available.contains(id) && type_id == Some(inst.type_id)
            };
            let hosts: Vec<InstanceId> = hosts.filter(reusable).collect();
            let overlap = |id: &InstanceId| hosts.iter().filter(|host| *host == id).count();
            let best = hosts.iter().map(|id| (overlap(id), Reverse(*id))).max();
            let target = match best {
                Some((_, Reverse(id))) => {
                    available.remove(&id);
                    PlannedInstance::Existing(id)
                }
                None => PlannedInstance::New(inst.type_id),
            };
            assignments.push(Assignment {
                instance: target,
                tasks: inst.tasks.clone(),
            });
        }

        // Anything live and unclaimed is terminated once drained.
        view.plan(assignments)
    }

    /// Migration cost `M` of adopting `plan` (dollars): each moved task's
    /// checkpoint+launch delay billed at the destination's hourly rate
    /// (the paper computes `M` from "task migration delays and the cost of
    /// the involved instances"). First placements cost the same under both
    /// candidate plans and are excluded.
    fn migration_cost_dollars(plan: &Plan, view: &ClusterView<'_>, catalog: &Catalog) -> f64 {
        let mut cost = 0.0;
        for m in plan.moves(view).filter(|m| !m.is_initial()) {
            let dest = match plan.assignments[m.slot].instance {
                PlannedInstance::Existing(id) => view.instance(id).and_then(|i| i.ty),
                PlannedInstance::New(ty) => catalog.get(ty),
            };
            let dest_cost = dest.map_or(0.0, |t| t.hourly_cost.as_dollars());
            cost += m.task.migration_delay().as_hours_f64() * dest_cost;
        }
        cost
    }
}

impl Scheduler for EvaScheduler {
    fn name(&self) -> &'static str {
        match (self.cfg.use_tnrp, self.cfg.multi_task_aware, self.cfg.mode) {
            (false, _, _) => "Eva-RP",
            (true, false, _) => "Eva-Single",
            (true, true, ReconfigMode::FullOnly) => "Eva-FullOnly",
            (true, true, ReconfigMode::PartialOnly) => "Eva-PartialOnly",
            (true, true, ReconfigMode::Ensemble) => "Eva",
        }
    }

    fn plan_in(&mut self, ctx: &SchedulerContext<'_>, view: &ClusterView<'_>) -> Plan {
        // Count job arrival/completion events since the last round.
        let jobs_now: BTreeSet<JobId> = ctx.tasks.iter().map(|t| t.id.job).collect();
        let arrivals = jobs_now.difference(&self.prev_jobs).count() as u64;
        let completions = self.prev_jobs.difference(&jobs_now).count() as u64;
        let events = arrivals + completions;
        self.prev_jobs = jobs_now;

        let prices = ReservationPrices::compute(ctx.catalog, ctx.tasks.iter());
        let tput: &dyn TputEstimator = match self.cfg.use_tnrp {
            true => self.monitor.table(),
            false => &UnitTput,
        };
        let eval = TnrpEvaluator::new(tput, &prices, self.cfg.multi_task_aware);

        // Candidate 1: Full Reconfiguration over every task.
        let types = ctx.catalog.types_by_cost_desc();
        let full_packed = pack(&ctx.tasks.iter().collect::<Vec<_>>(), &types, &eval);
        let all_ids = view.instances.iter().map(|i| i.id);
        let mut full_plan = Self::concretize(&full_packed, Vec::new(), view, all_ids);
        full_plan.full_reconfiguration = true;

        // Candidate 2: Partial Reconfiguration.
        let partial_out = partial_over(view, &types, &eval, self.cfg.refill_existing);
        let partial_plan = Self::concretize(
            &partial_out.packed,
            partial_out.kept.clone(),
            view,
            partial_out.terminate.iter().copied(),
        );

        // Savings and migration costs.
        let s_f = full_packed.total_saving_dollars();
        let s_p = partial_out.total_saving_dollars(view, &eval);
        let m_f = Self::migration_cost_dollars(&full_plan, view, ctx.catalog);
        let m_p = Self::migration_cost_dollars(&partial_plan, view, ctx.catalog);

        let decision = match self.cfg.mode {
            ReconfigMode::FullOnly => ReconfigDecision::Full,
            ReconfigMode::PartialOnly => ReconfigDecision::Partial,
            ReconfigMode::Ensemble => DecisionInputs {
                full_saving: s_f,
                full_migration_cost: m_f,
                partial_saving: s_p,
                partial_migration_cost: m_p,
                estimated_duration_hours: self.estimator.estimated_duration_hours(),
            }
            .decide(),
        };

        // A Full adoption that actually changes something counts as a
        // "triggered" event for the p estimator.
        let full_changes = full_plan.moves(view).any(|m| !m.is_initial())
            || full_plan.new_instance_count() > 0
            || !full_plan.terminate.is_empty();
        let triggered = decision == ReconfigDecision::Full && full_changes;
        self.estimator.record_events(events, triggered, ctx.now);

        match decision {
            ReconfigDecision::Full => full_plan,
            ReconfigDecision::Partial => partial_plan,
        }
    }

    fn observe(&mut self, observations: &mut dyn Iterator<Item = JobObservation>) {
        for obs in observations {
            self.monitor
                .observe_job(obs.job, obs.gang_coupled, obs.observed_tput, obs.contexts);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packing::PackedInstance;
    use crate::plan::{test_task, InstanceSnapshot, TaskSnapshot};
    use eva_cloud::Catalog;
    use eva_interference::TaskContext;
    use eva_types::{InstanceTypeId, ResourceVector, SimTime, WorkloadKind};
    use proptest::prelude::*;

    fn task(job: u64, gpu: u32, cpu: u32, ram_gb: u64, assigned: Option<u64>) -> TaskSnapshot {
        let demand = ResourceVector::with_ram_gb(gpu, cpu, ram_gb);
        TaskSnapshot {
            assigned_to: assigned.map(InstanceId),
            ..test_task(job, demand, (job % 8) as u32)
        }
    }

    fn ctx_with<'a>(
        catalog: &'a Catalog,
        tasks: &'a [TaskSnapshot],
        instances: &'a [InstanceSnapshot],
        now_hours: f64,
    ) -> SchedulerContext<'a> {
        SchedulerContext {
            now: SimTime::from_hours_f64(now_hours),
            catalog,
            tasks,
            instances,
        }
    }

    #[test]
    fn empty_cluster_produces_empty_plan() {
        let catalog = Catalog::aws_eval_2025();
        let mut eva = EvaScheduler::new(EvaConfig::eva());
        let plan = eva.plan(&ctx_with(&catalog, &[], &[], 0.0));
        assert!(plan.assignments.is_empty());
        assert!(plan.terminate.is_empty());
    }

    #[test]
    fn first_round_places_all_tasks() {
        let catalog = Catalog::table3_example();
        let tasks = vec![
            task(1, 2, 8, 24, None),
            task(2, 1, 4, 10, None),
            task(3, 0, 6, 20, None),
            task(4, 0, 4, 12, None),
        ];
        let mut eva = EvaScheduler::new(EvaConfig::eva());
        let plan = eva.plan(&ctx_with(&catalog, &tasks, &[], 0.0));
        let placed: usize = plan.assignments.iter().map(|a| a.tasks.len()).sum();
        assert_eq!(placed, 4);
        // All on new instances (no live cluster to reuse).
        assert_eq!(plan.new_instance_count(), plan.assignments.len());
    }

    #[test]
    fn stable_cluster_keeps_assignments() {
        // Once the cluster matches the packed shape, replanning the same
        // tasks should migrate nothing.
        let catalog = Catalog::table3_example();
        let tasks_round1 = vec![task(1, 2, 8, 24, None), task(2, 1, 4, 10, None)];
        let mut eva = EvaScheduler::new(EvaConfig::eva());
        let plan1 = eva.plan(&ctx_with(&catalog, &tasks_round1, &[], 0.0));
        assert_eq!(plan1.new_instance_count(), plan1.assignments.len());

        // Materialize the plan: both tasks ended up somewhere; mirror it.
        let mut tasks_round2 = tasks_round1.clone();
        let mut instances = Vec::new();
        for (idx, a) in plan1.assignments.iter().enumerate() {
            let id = InstanceId(idx as u64);
            let PlannedInstance::New(ty) = a.instance else {
                panic!()
            };
            instances.push(InstanceSnapshot { id, type_id: ty });
            for tid in &a.tasks {
                tasks_round2
                    .iter_mut()
                    .find(|t| t.id == *tid)
                    .unwrap()
                    .assigned_to = Some(id);
            }
        }
        let plan2 = eva.plan(&ctx_with(&catalog, &tasks_round2, &instances, 0.1));
        assert!(plan2.migrations(&tasks_round2, false).is_empty());
        assert!(plan2.terminate.is_empty());
        assert_eq!(plan2.new_instance_count(), 0);
    }

    #[test]
    fn job_completion_triggers_cleanup() {
        let catalog = Catalog::table3_example();
        // τ4 alone on an expensive it1 after its co-residents completed.
        let tasks = vec![task(4, 0, 4, 12, Some(0))];
        let instances = vec![InstanceSnapshot {
            id: InstanceId(0),
            type_id: catalog.by_name("it1").unwrap().id,
        }];
        let mut eva = EvaScheduler::new(EvaConfig::eva());
        let plan = eva.plan(&ctx_with(&catalog, &tasks, &instances, 1.0));
        // Whatever branch wins, τ4 must not stay alone on it1.
        let tau4 = TaskId::new(JobId(4), 0);
        let target = plan.assignments.iter().find(|a| a.tasks.contains(&tau4));
        match target.unwrap().instance {
            PlannedInstance::New(ty) => {
                assert_eq!(catalog.get(ty).unwrap().name, "it4");
            }
            PlannedInstance::Existing(id) => panic!("should not stay on {id}"),
        }
        assert_eq!(plan.terminate, vec![InstanceId(0)]);
    }

    #[test]
    fn full_only_mode_always_full() {
        let catalog = Catalog::table3_example();
        let tasks = vec![task(1, 1, 4, 10, None)];
        let mut eva = EvaScheduler::new(EvaConfig::without_partial());
        let plan = eva.plan(&ctx_with(&catalog, &tasks, &[], 0.0));
        assert!(plan.full_reconfiguration);
    }

    #[test]
    fn partial_only_mode_never_full() {
        let catalog = Catalog::table3_example();
        let tasks = vec![task(1, 1, 4, 10, None)];
        let mut eva = EvaScheduler::new(EvaConfig::without_full());
        let plan = eva.plan(&ctx_with(&catalog, &tasks, &[], 0.0));
        assert!(!plan.full_reconfiguration);
    }

    #[test]
    fn observations_feed_the_table() {
        let mut eva = EvaScheduler::new(EvaConfig::eva());
        let obs = JobObservation {
            job: JobId(1),
            gang_coupled: false,
            observed_tput: 0.8,
            contexts: vec![TaskContext::new(
                TaskId::new(JobId(1), 0),
                WorkloadKind(0),
                vec![WorkloadKind(1)],
            )],
        };
        eva.observe(&mut [obs].into_iter());
        assert_eq!(
            eva.monitor()
                .table()
                .recorded(WorkloadKind(0), &[WorkloadKind(1)]),
            Some(0.8)
        );
    }

    #[test]
    fn gang_observations_use_attribution() {
        let mut eva = EvaScheduler::new(EvaConfig::eva());
        let obs = JobObservation {
            job: JobId(1),
            gang_coupled: true,
            observed_tput: 0.7,
            contexts: vec![
                TaskContext::new(TaskId::new(JobId(1), 0), WorkloadKind(0), vec![]),
                TaskContext::new(
                    TaskId::new(JobId(1), 1),
                    WorkloadKind(0),
                    vec![WorkloadKind(2)],
                ),
            ],
        };
        eva.observe(&mut [obs].into_iter());
        // Attributed to the co-located task only.
        assert_eq!(
            eva.monitor()
                .table()
                .recorded(WorkloadKind(0), &[WorkloadKind(2)]),
            Some(0.7)
        );
    }

    #[test]
    fn severe_learned_interference_reverts_to_no_packing() {
        // §6.4: in extreme cases Eva refrains from co-locating entirely.
        let catalog = Catalog::table3_example();
        let mut eva = EvaScheduler::new(EvaConfig::eva());
        // Teach the table that everything destroys everything (tput 0.1).
        for a in 0..8u32 {
            for b in 0..8u32 {
                eva.monitor.observe_single_task(
                    TaskContext::new(
                        TaskId::new(JobId(99), a),
                        WorkloadKind(a),
                        vec![WorkloadKind(b)],
                    ),
                    0.1,
                );
            }
        }
        let tasks = vec![task(1, 1, 4, 10, None), task(2, 1, 4, 10, None)];
        let plan = eva.plan(&ctx_with(&catalog, &tasks, &[], 0.0));
        // Two singleton instances.
        assert_eq!(plan.assignments.len(), 2);
        for a in &plan.assignments {
            assert_eq!(a.tasks.len(), 1);
        }
    }

    #[test]
    fn eva_rp_ignores_learned_interference() {
        let catalog = Catalog::table3_example();
        let mut eva = EvaScheduler::new(EvaConfig::eva_rp());
        for a in 0..8u32 {
            for b in 0..8u32 {
                eva.monitor.observe_single_task(
                    TaskContext::new(
                        TaskId::new(JobId(99), a),
                        WorkloadKind(a),
                        vec![WorkloadKind(b)],
                    ),
                    0.1,
                );
            }
        }
        let tasks = vec![task(1, 2, 8, 24, None), task(2, 1, 4, 10, None)];
        let plan = eva.plan(&ctx_with(&catalog, &tasks, &[], 0.0));
        // RP-only packing still co-locates them on one it1.
        assert_eq!(plan.assignments.len(), 1);
        assert_eq!(plan.assignments[0].tasks.len(), 2);
        assert_eq!(eva.name(), "Eva-RP");
    }

    /// `concretize` as it was: every available instance of the type is
    /// scanned for its overlap with the packed instance's tasks.
    fn concretize_by_scan(
        packed: &PackedConfig,
        view: &ClusterView<'_>,
        reusable: impl IntoIterator<Item = InstanceId>,
    ) -> Plan {
        let mut available: BTreeSet<InstanceId> = reusable.into_iter().collect();
        let mut assignments: Vec<Assignment> = Vec::new();
        for inst in &packed.instances {
            let want: BTreeSet<TaskId> = inst.tasks.iter().copied().collect();
            let best = available
                .iter()
                .filter_map(|id| view.instance(*id))
                .filter(|live| live.type_id == inst.type_id)
                .map(|live| {
                    let overlap = live.residents.iter().filter(|t| want.contains(&t.id));
                    (live.id, overlap.count())
                })
                .max_by_key(|(id, overlap)| (*overlap, std::cmp::Reverse(*id)));
            let target = match best {
                Some((id, overlap)) if overlap > 0 => {
                    available.remove(&id);
                    PlannedInstance::Existing(id)
                }
                _ => PlannedInstance::New(inst.type_id),
            };
            assignments.push(Assignment {
                instance: target,
                tasks: inst.tasks.clone(),
            });
        }
        view.plan(assignments)
    }

    fn packed(type_id: InstanceTypeId, jobs: &[u64]) -> PackedInstance {
        PackedInstance {
            type_id,
            tasks: jobs.iter().map(|job| TaskId::new(JobId(*job), 0)).collect(),
            tnrp_dollars: 0.0,
            cost_dollars: 0.0,
        }
    }

    #[test]
    fn concretize_breaks_overlap_ties_by_lowest_id_and_skips_unlisted_hosts() {
        let catalog = Catalog::table3_example();
        let it1 = catalog.by_name("it1").unwrap().id;
        // Tasks 1 and 2 sit on two it1s, task 3 on an instance the
        // context does not list, task 4 nowhere.
        let tasks = vec![
            task(1, 0, 1, 1, Some(7)),
            task(2, 0, 1, 1, Some(5)),
            task(3, 0, 1, 1, Some(100)),
            task(4, 0, 1, 1, None),
        ];
        let instances: Vec<InstanceSnapshot> = [5, 7]
            .into_iter()
            .map(|id| InstanceSnapshot {
                id: InstanceId(id),
                type_id: it1,
            })
            .collect();
        let ctx = ctx_with(&catalog, &tasks, &instances, 0.0);
        let view = ClusterView::of(&ctx);
        let config = PackedConfig {
            instances: vec![packed(it1, &[1, 2, 3]), packed(it1, &[4])],
            unassigned: Vec::new(),
        };
        let all = || view.instances.iter().map(|i| i.id);
        let plan = EvaScheduler::concretize(&config, Vec::new(), &view, all());
        assert_eq!(plan, concretize_by_scan(&config, &view, all()));
        let targets: Vec<PlannedInstance> = plan.assignments.iter().map(|a| a.instance).collect();
        let expect = [
            PlannedInstance::Existing(InstanceId(5)),
            PlannedInstance::New(it1),
        ];
        assert_eq!(targets, expect);
        assert_eq!(plan.terminate, vec![InstanceId(7)]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Looking only at the hosts of a packed instance's own tasks
        /// picks what scanning every available instance picked.
        #[test]
        fn concretize_picks_what_the_scan_of_all_instances_picks(
            instance_types in collection::vec(0u32..2, 0..6),
            hosts in collection::vec(0u64..8, 1..14),
            packing in collection::vec((0u32..2, 0usize..5), 14),
            reusable in collection::vec(0u32..4, 6),
        ) {
            let catalog = Catalog::table3_example();
            let instances: Vec<InstanceSnapshot> = instance_types
                .iter()
                .enumerate()
                .map(|(id, ty)| InstanceSnapshot {
                    id: InstanceId(id as u64),
                    type_id: InstanceTypeId(*ty),
                })
                .collect();
            // Host ids 0..6 may be listed; 6 stands for "unassigned" and 7
            // for an instance the context does not list.
            let tasks: Vec<TaskSnapshot> = hosts
                .iter()
                .enumerate()
                .map(|(job, host)| task(job as u64, 0, 1, 1, (*host != 6).then_some(*host)))
                .collect();
            let ctx = ctx_with(&catalog, &tasks, &instances, 0.0);
            let view = ClusterView::of(&ctx);
            // Task `i` goes to packed instance `packing[i].1`, whose type
            // is the first one drawn for it.
            let mut config = PackedConfig::default();
            for slot in 0..5 {
                let members: Vec<u64> = (0..tasks.len() as u64)
                    .filter(|job| packing[*job as usize].1 == slot)
                    .collect();
                if let Some(first) = members.first() {
                    let type_id = InstanceTypeId(packing[*first as usize].0);
                    config.instances.push(packed(type_id, &members));
                }
            }
            // Three in four listed instances may be reused.
            let reusable = || {
                let listed = view.instances.iter().map(|i| i.id);
                listed.filter(|id| reusable[id.0 as usize] != 0)
            };
            let plan = EvaScheduler::concretize(&config, Vec::new(), &view, reusable());
            prop_assert_eq!(plan, concretize_by_scan(&config, &view, reusable()));
        }
    }
}
