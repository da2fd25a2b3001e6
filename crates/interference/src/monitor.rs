//! The ThroughputMonitor (§3, §4.4).
//!
//! At every scheduling round the simulator (or the live task runtime)
//! reports, per job, the observed normalized throughput plus each task's
//! co-location context. Single-task observations update the table
//! directly; multi-task observations go through the straggler-attribution
//! rules so that a slowdown caused by one straggling sibling is not charged
//! to every instance the job touches.

use eva_types::{JobId, TaskId, WorkloadKind};

use crate::table::ThroughputTable;

/// The co-location context of one task at observation time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskContext {
    /// The task.
    pub task: TaskId,
    /// Its workload kind.
    pub workload: WorkloadKind,
    /// Workload kinds of the tasks sharing its instance.
    pub colocated: Vec<WorkloadKind>,
}

impl TaskContext {
    /// Builds a context.
    pub fn new(task: TaskId, workload: WorkloadKind, colocated: Vec<WorkloadKind>) -> Self {
        TaskContext {
            task,
            workload,
            colocated,
        }
    }
}

/// Tracks observed throughput and updates the co-location table.
///
/// # Examples
///
/// ```
/// use eva_interference::{TaskContext, ThroughputMonitor};
/// use eva_types::{JobId, TaskId, WorkloadKind};
///
/// let mut monitor = ThroughputMonitor::with_default_tput(0.95);
/// let (w0, w1) = (WorkloadKind(0), WorkloadKind(1));
/// let t0 = TaskId::new(JobId(1), 0);
/// monitor.observe_single_task(TaskContext::new(t0, w0, vec![w1]), 0.88);
/// assert!((monitor.table().estimate(w0, &[w1]) - 0.88).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct ThroughputMonitor {
    table: ThroughputTable,
    observations: u64,
}

impl ThroughputMonitor {
    /// Builds a monitor with the given default pairwise throughput `t`.
    pub fn with_default_tput(t: f64) -> Self {
        ThroughputMonitor {
            table: ThroughputTable::new(t),
            observations: 0,
        }
    }

    /// Read access to the co-location table.
    pub fn table(&self) -> &ThroughputTable {
        &self.table
    }

    /// Total observations processed.
    pub fn observation_count(&self) -> u64 {
        self.observations
    }

    /// Records an observation for a task of a single-task job: any
    /// throughput loss is unambiguously caused by its own co-location.
    pub fn observe_single_task(&mut self, ctx: TaskContext, tput: f64) {
        self.observations += 1;
        self.table.record(ctx.workload, &ctx.colocated, tput);
    }

    /// Records one job-level observation: a gang-coupled job seen in more
    /// than one context goes through the attribution rules of
    /// [`ThroughputMonitor::observe_multi_task`]; otherwise every context
    /// is a single-task observation of its own.
    pub fn observe_job(
        &mut self,
        job: JobId,
        gang_coupled: bool,
        observed_tput: f64,
        contexts: Vec<TaskContext>,
    ) {
        if gang_coupled && contexts.len() > 1 {
            self.observe_multi_task(job, &contexts, observed_tput);
        } else {
            for ctx in contexts {
                self.observe_single_task(ctx, observed_tput);
            }
        }
    }

    /// Records a job-level observation for a multi-task (gang-coupled) job
    /// and attributes it to exactly one table entry using the paper's three
    /// rules (§4.4):
    ///
    /// 1. **No previous observations** for any task's context → update the
    ///    entry of the task co-located with the *most* tasks.
    /// 2. **Some recorded context has lower throughput** than observed →
    ///    that recorded straggler explains the slowdown; raise the entry
    ///    with the lowest recorded throughput toward the observation.
    /// 3. **All recorded contexts show higher throughput** → the slowdown
    ///    must come from an *unrecorded* context; update the unrecorded
    ///    task co-located with the most tasks (falling back to the lowest
    ///    recorded entry if every context is recorded).
    ///
    /// Tasks running alone are skipped: they cannot be the interference
    /// source. Returns the updated `(workload, colocated)` entry, if any.
    pub fn observe_multi_task(
        &mut self,
        _job: JobId,
        contexts: &[TaskContext],
        observed_tput: f64,
    ) -> Option<(WorkloadKind, Vec<WorkloadKind>)> {
        self.observations += 1;
        let colocated: Vec<&TaskContext> = contexts
            .iter()
            .filter(|c| !c.colocated.is_empty())
            .collect();
        if colocated.is_empty() {
            // Every task runs alone — nothing to attribute.
            return None;
        }
        let recorded: Vec<Option<f64>> = colocated
            .iter()
            .map(|c| self.table.recorded(c.workload, &c.colocated))
            .collect();

        let most_colocated = |candidates: &[&TaskContext]| -> usize {
            let best = candidates
                .iter()
                .enumerate()
                .max_by_key(|(_, c)| c.colocated.len())
                .map(|(i, _)| i)
                .unwrap_or(0);
            best
        };

        let target = if recorded.iter().all(Option::is_none) {
            // Rule 1.
            most_colocated(&colocated)
        } else if let Some((idx, _)) = recorded
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.map(|v| (i, v)))
            .filter(|(_, v)| *v < observed_tput)
            .min_by(|a, b| a.1.total_cmp(&b.1))
        {
            // Rule 2: a recorded context already explains at least this much
            // slowdown; adjust the lowest one upward.
            idx
        } else {
            // Rule 3: prefer the unrecorded context with the most
            // co-located tasks.
            let unrecorded: Vec<usize> = recorded
                .iter()
                .enumerate()
                .filter(|(_, r)| r.is_none())
                .map(|(i, _)| i)
                .collect();
            if unrecorded.is_empty() {
                // Every context recorded and all are above the observation:
                // conservatively lower the minimum entry.
                recorded
                    .iter()
                    .enumerate()
                    .filter_map(|(i, r)| r.map(|v| (i, v)))
                    .min_by(|a, b| a.1.total_cmp(&b.1))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            } else {
                let candidates: Vec<&TaskContext> =
                    unrecorded.iter().map(|i| colocated[*i]).collect();
                let local = most_colocated(&candidates);
                unrecorded[local]
            }
        };

        let ctx = colocated[target];
        self.table
            .record(ctx.workload, &ctx.colocated, observed_tput);
        Some((ctx.workload, ctx.colocated.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const W0: WorkloadKind = WorkloadKind(0);
    const W1: WorkloadKind = WorkloadKind(1);
    const W2: WorkloadKind = WorkloadKind(2);
    const W3: WorkloadKind = WorkloadKind(3);

    fn tid(job: u64, idx: u32) -> TaskId {
        TaskId::new(JobId(job), idx)
    }

    #[test]
    fn single_task_observation_updates_exact_entry() {
        let mut m = ThroughputMonitor::with_default_tput(0.95);
        m.observe_single_task(TaskContext::new(tid(1, 0), W0, vec![W1, W2]), 0.8);
        assert_eq!(m.table().recorded(W0, &[W1, W2]), Some(0.8));
        assert_eq!(m.observation_count(), 1);
    }

    #[test]
    fn rule1_targets_most_colocated_task() {
        let mut m = ThroughputMonitor::with_default_tput(0.95);
        let contexts = vec![
            TaskContext::new(tid(1, 0), W0, vec![]),   // solo — skipped
            TaskContext::new(tid(1, 1), W0, vec![W1]), // 1 co-located
            TaskContext::new(tid(1, 2), W0, vec![W1, W2]), // 2 co-located
        ];
        let updated = m.observe_multi_task(JobId(1), &contexts, 0.7).unwrap();
        assert_eq!(updated, (W0, vec![W1, W2]));
        assert_eq!(m.table().recorded(W0, &[W1, W2]), Some(0.7));
        // The other context was not touched.
        assert_eq!(m.table().recorded(W0, &[W1]), None);
    }

    #[test]
    fn rule2_raises_lowest_recorded_entry() {
        let mut m = ThroughputMonitor::with_default_tput(0.95);
        // Pre-record: context A is known to be slow (0.6).
        m.observe_single_task(TaskContext::new(tid(9, 0), W0, vec![W1]), 0.6);
        m.observe_single_task(TaskContext::new(tid(9, 1), W0, vec![W2]), 0.9);
        let contexts = vec![
            TaskContext::new(tid(1, 0), W0, vec![W1]),
            TaskContext::new(tid(1, 1), W0, vec![W2]),
        ];
        // Observed 0.8 > recorded 0.6: the 0.6 entry was too pessimistic;
        // raise it.
        let updated = m.observe_multi_task(JobId(1), &contexts, 0.8).unwrap();
        assert_eq!(updated, (W0, vec![W1]));
        assert_eq!(m.table().recorded(W0, &[W1]), Some(0.8));
        assert_eq!(m.table().recorded(W0, &[W2]), Some(0.9));
    }

    #[test]
    fn rule3_targets_unrecorded_with_most_colocated() {
        let mut m = ThroughputMonitor::with_default_tput(0.95);
        // One context recorded at high throughput.
        m.observe_single_task(TaskContext::new(tid(9, 0), W0, vec![W1]), 0.98);
        let contexts = vec![
            TaskContext::new(tid(1, 0), W0, vec![W1]), // recorded, 0.98
            TaskContext::new(tid(1, 1), W0, vec![W2]), // unrecorded
            TaskContext::new(tid(1, 2), W0, vec![W2, W3]), // unrecorded, bigger
        ];
        // Observed 0.75 < every recorded value → blame an unrecorded one.
        let updated = m.observe_multi_task(JobId(1), &contexts, 0.75).unwrap();
        assert_eq!(updated, (W0, vec![W2, W3]));
        assert_eq!(m.table().recorded(W0, &[W1]), Some(0.98));
    }

    #[test]
    fn rule3_fallback_lowers_minimum_when_all_recorded() {
        let mut m = ThroughputMonitor::with_default_tput(0.95);
        m.observe_single_task(TaskContext::new(tid(9, 0), W0, vec![W1]), 0.9);
        m.observe_single_task(TaskContext::new(tid(9, 1), W0, vec![W2]), 0.85);
        let contexts = vec![
            TaskContext::new(tid(1, 0), W0, vec![W1]),
            TaskContext::new(tid(1, 1), W0, vec![W2]),
        ];
        let updated = m.observe_multi_task(JobId(1), &contexts, 0.7).unwrap();
        // The lowest recorded entry (W2 at 0.85) absorbs the correction.
        assert_eq!(updated, (W0, vec![W2]));
        assert_eq!(m.table().recorded(W0, &[W2]), Some(0.7));
    }

    #[test]
    fn all_solo_tasks_attribute_nothing() {
        let mut m = ThroughputMonitor::with_default_tput(0.95);
        let contexts = vec![
            TaskContext::new(tid(1, 0), W0, vec![]),
            TaskContext::new(tid(1, 1), W0, vec![]),
        ];
        assert!(m.observe_multi_task(JobId(1), &contexts, 0.9).is_none());
        assert!(m.table().is_empty());
    }

    #[test]
    fn repeated_observations_converge_upward() {
        // The paper guarantees recorded values are lower bounds that adjust
        // upward with more observations. Simulate: true local interference
        // is 0.9 for context (W0|W1) but the first observation was polluted
        // by a straggler to 0.7.
        let mut m = ThroughputMonitor::with_default_tput(0.95);
        let contexts = vec![TaskContext::new(tid(1, 0), W0, vec![W1])];
        m.observe_multi_task(JobId(1), &contexts, 0.7);
        assert_eq!(m.table().recorded(W0, &[W1]), Some(0.7));
        // Later the straggler is gone and the job observes 0.9: rule 2
        // lifts the entry.
        m.observe_multi_task(JobId(1), &contexts, 0.9);
        assert_eq!(m.table().recorded(W0, &[W1]), Some(0.9));
    }
}
