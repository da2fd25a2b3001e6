//! The No-Packing scheduler: one instance per task.
//!
//! Every task runs alone on the cheapest instance type that hosts it (its
//! reservation-price type). No co-location means no interference and no
//! migration — but maximal instance count. This is the strategy most
//! existing cloud cluster managers use and the baseline all of the paper's
//! cost numbers are normalized against.

use eva_core::{
    reservation_price, Assignment, ClusterView, Plan, PlannedInstance, Scheduler, SchedulerContext,
};

/// See the module docs.
#[derive(Debug, Default)]
pub struct NoPackingScheduler;

impl NoPackingScheduler {
    /// Builds the scheduler.
    pub fn new() -> Self {
        NoPackingScheduler
    }
}

impl Scheduler for NoPackingScheduler {
    fn name(&self) -> &'static str {
        "No-Packing"
    }

    fn plan_in(&mut self, ctx: &SchedulerContext<'_>, view: &ClusterView<'_>) -> Plan {
        // New instances for pending tasks.
        let mut assignments = Vec::new();
        for task in view.pending() {
            if let Some((ty, _)) = reservation_price(ctx.catalog, &task.demand) {
                assignments.push(Assignment::new(PlannedInstance::New(ty), vec![task.id]));
            }
        }
        // Every running task stays where it is; empty instances go.
        let empty = |&i: &usize| view.residents(&view.instances[i]).is_empty();
        view.plan(assignments, (0..view.instances.len()).filter(empty))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eva_cloud::Catalog;
    use eva_core::{InstanceSnapshot, TaskSnapshot};
    use eva_types::{DemandSpec, InstanceId, JobId, ResourceVector, SimTime, TaskId, WorkloadKind};

    fn task(job: u64, gpu: u32, cpu: u32, ram_gb: u64, assigned: Option<u64>) -> TaskSnapshot {
        let demand = DemandSpec::uniform(ResourceVector::with_ram_gb(gpu, cpu, ram_gb));
        let mut task = TaskSnapshot::new(TaskId::new(JobId(job), 0), WorkloadKind(0), demand);
        task.assigned_to = assigned.map(InstanceId);
        task
    }

    #[test]
    fn each_pending_task_gets_its_rp_instance() {
        let catalog = Catalog::aws_eval_2025();
        let tasks = vec![task(1, 1, 4, 24, None), task(2, 0, 4, 8, None)];
        let ctx = SchedulerContext::new(SimTime::ZERO, &catalog, &tasks, &[]);
        let plan = NoPackingScheduler::new().plan(&ctx);
        assert_eq!(plan.assignments.len(), 2);
        let names: Vec<&str> = plan
            .assignments
            .iter()
            .map(|a| match a.instance {
                PlannedInstance::New(ty) => catalog.get(ty).unwrap().name.as_str(),
                _ => panic!("expected new instances"),
            })
            .collect();
        assert_eq!(names, vec!["p3.2xlarge", "c7i.xlarge"]);
        for a in &plan.assignments {
            assert_eq!(a.tasks.len(), 1);
        }
    }

    #[test]
    fn running_tasks_never_move() {
        let catalog = Catalog::aws_eval_2025();
        let ty = catalog.by_name("p3.2xlarge").unwrap().id;
        let tasks = vec![task(1, 1, 4, 24, Some(0))];
        let instances = vec![InstanceSnapshot::new(InstanceId(0), ty)];
        let ctx = SchedulerContext::new(SimTime::ZERO, &catalog, &tasks, &instances);
        let plan = NoPackingScheduler::new().plan(&ctx);
        let view = ClusterView::of(&ctx);
        assert!(plan.moves(&view).all(|m| m.is_initial()));
        assert!(plan.terminate.is_empty());
    }

    #[test]
    fn empty_instances_terminate() {
        let catalog = Catalog::aws_eval_2025();
        let ty = catalog.by_name("c7i.large").unwrap().id;
        let instances = vec![InstanceSnapshot::new(InstanceId(7), ty)];
        let ctx = SchedulerContext::new(SimTime::ZERO, &catalog, &[], &instances);
        let plan = NoPackingScheduler::new().plan(&ctx);
        assert_eq!(plan.terminate, vec![InstanceId(7)]);
    }

    #[test]
    fn infeasible_tasks_are_skipped() {
        let catalog = Catalog::aws_eval_2025();
        let tasks = vec![task(1, 99, 4, 24, None)];
        let ctx = SchedulerContext::new(SimTime::ZERO, &catalog, &tasks, &[]);
        let plan = NoPackingScheduler::new().plan(&ctx);
        assert!(plan.assignments.is_empty());
    }
}
