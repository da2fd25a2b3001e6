//! Traces: ordered job streams with statistics and serde I/O.

use serde::{Deserialize, Serialize};

use eva_types::{EvaError, JobSpec, Result, SimDuration};

/// A workload trace: jobs ordered by arrival time.
///
/// # Examples
///
/// ```
/// use eva_workloads::{SyntheticTraceConfig, Trace};
///
/// let trace = SyntheticTraceConfig::small_scale().generate(42);
/// assert_eq!(trace.len(), 32);
/// let stats = trace.stats();
/// assert!(stats.mean_duration_hours >= 0.5);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    jobs: Vec<JobSpec>,
}

impl Trace {
    /// Builds a trace, sorting jobs by arrival (stable on job id).
    pub fn new(mut jobs: Vec<JobSpec>) -> Self {
        jobs.sort_by(|a, b| a.arrival.cmp(&b.arrival).then(a.id.cmp(&b.id)));
        Trace { jobs }
    }

    /// The jobs in arrival order.
    pub fn jobs(&self) -> &[JobSpec] {
        &self.jobs
    }

    /// Consumes the trace, returning its jobs.
    pub fn into_jobs(self) -> Vec<JobSpec> {
        self.jobs
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True when the trace has no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// A trace containing only the first `n` jobs (the paper's artifact
    /// runs the "first 200 jobs of the Alibaba trace").
    pub fn take(&self, n: usize) -> Trace {
        Trace {
            jobs: self.jobs.iter().take(n).cloned().collect(),
        }
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string_pretty(self)
            .map_err(|e| EvaError::InvalidInput(format!("trace serialization failed: {e}")))
    }

    /// Parses a trace from JSON.
    pub fn from_json(json: &str) -> Result<Trace> {
        let trace: Trace = serde_json::from_str(json)
            .map_err(|e| EvaError::InvalidInput(format!("trace parse failed: {e}")))?;
        Ok(Trace::new(trace.jobs))
    }

    /// Summary statistics (Table 8/9-style reporting).
    pub fn stats(&self) -> TraceStats {
        let n = self.jobs.len();
        let mut durations: Vec<f64> = self
            .jobs
            .iter()
            .map(|j| j.duration_at_full_tput.as_hours_f64())
            .collect();
        durations.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let quantile = |q: f64| {
            if durations.is_empty() {
                0.0
            } else {
                durations[((durations.len() as f64 - 1.0) * q).round() as usize]
            }
        };
        let mut gpu_histogram = std::collections::BTreeMap::new();
        let mut total_tasks = 0usize;
        let mut multi_task_jobs = 0usize;
        for job in &self.jobs {
            total_tasks += job.num_tasks();
            if job.num_tasks() > 1 {
                multi_task_jobs += 1;
            }
            let gpus = job.tasks.first().map(|t| t.demand.default.gpu).unwrap_or(0);
            *gpu_histogram.entry(gpus).or_insert(0usize) += 1;
        }
        let span = self
            .jobs
            .last()
            .map(|j| j.arrival.duration_since(self.jobs[0].arrival))
            .unwrap_or(SimDuration::ZERO);
        TraceStats {
            num_jobs: n,
            num_tasks: total_tasks,
            multi_task_jobs,
            mean_duration_hours: if n == 0 {
                0.0
            } else {
                durations.iter().sum::<f64>() / n as f64
            },
            median_duration_hours: quantile(0.5),
            p80_duration_hours: quantile(0.8),
            p95_duration_hours: quantile(0.95),
            arrival_span_hours: span.as_hours_f64(),
            gpu_demand_histogram: gpu_histogram.into_iter().collect(),
        }
    }
}

/// Summary statistics of a trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceStats {
    /// Number of jobs.
    pub num_jobs: usize,
    /// Total tasks across jobs.
    pub num_tasks: usize,
    /// Jobs with more than one task.
    pub multi_task_jobs: usize,
    /// Mean full-throughput duration (hours).
    pub mean_duration_hours: f64,
    /// Median duration (hours).
    pub median_duration_hours: f64,
    /// 80th-percentile duration (hours).
    pub p80_duration_hours: f64,
    /// 95th-percentile duration (hours).
    pub p95_duration_hours: f64,
    /// Hours between first and last arrival.
    pub arrival_span_hours: f64,
    /// `(gpu_per_task, job_count)` pairs — the Table 8 composition.
    pub gpu_demand_histogram: Vec<(u32, usize)>,
}

impl TraceStats {
    /// Fraction of jobs whose per-task GPU demand equals `gpus`.
    pub fn gpu_fraction(&self, gpus: u32) -> f64 {
        if self.num_jobs == 0 {
            return 0.0;
        }
        let count = self
            .gpu_demand_histogram
            .iter()
            .find(|(g, _)| *g == gpus)
            .map(|(_, c)| *c)
            .unwrap_or(0);
        count as f64 / self.num_jobs as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eva_types::{DemandSpec, JobId, ResourceVector, SimTime, TaskId, TaskSpec, WorkloadKind};

    fn job(id: u64, arrival_secs: u64, hours: f64, gpus: u32, tasks: u32) -> JobSpec {
        JobSpec {
            id: JobId(id),
            arrival: SimTime::from_secs(arrival_secs),
            tasks: (0..tasks)
                .map(|i| TaskSpec {
                    id: TaskId::new(JobId(id), i),
                    workload: WorkloadKind(0),
                    demand: DemandSpec::uniform(ResourceVector::new(gpus, 4, 1024)),
                    checkpoint_delay: SimDuration::from_secs(2),
                    launch_delay: SimDuration::from_secs(10),
                })
                .collect(),
            duration_at_full_tput: SimDuration::from_hours_f64(hours),
            gang_coupled: tasks > 1,
        }
    }

    #[test]
    fn new_sorts_by_arrival() {
        let t = Trace::new(vec![job(2, 100, 1.0, 0, 1), job(1, 50, 1.0, 1, 1)]);
        assert_eq!(t.jobs()[0].id, JobId(1));
        assert_eq!(t.jobs()[1].id, JobId(2));
    }

    #[test]
    fn stats_compute_composition() {
        let t = Trace::new(vec![
            job(1, 0, 1.0, 0, 1),
            job(2, 10, 2.0, 1, 1),
            job(3, 20, 3.0, 1, 4),
            job(4, 30, 4.0, 8, 1),
        ]);
        let s = t.stats();
        assert_eq!(s.num_jobs, 4);
        assert_eq!(s.num_tasks, 7);
        assert_eq!(s.multi_task_jobs, 1);
        assert_eq!(s.gpu_fraction(1), 0.5);
        assert_eq!(s.gpu_fraction(0), 0.25);
        assert_eq!(s.gpu_fraction(4), 0.0);
        assert!((s.mean_duration_hours - 2.5).abs() < 1e-9);
    }

    #[test]
    fn take_truncates() {
        let t = Trace::new((0..10).map(|i| job(i, i * 10, 1.0, 0, 1)).collect());
        assert_eq!(t.take(3).len(), 3);
        assert_eq!(t.take(100).len(), 10);
    }

    #[test]
    fn json_round_trip() {
        let t = Trace::new(vec![job(1, 0, 1.5, 1, 2)]);
        let json = t.to_json().unwrap();
        let back = Trace::from_json(&json).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn bad_json_is_invalid_input() {
        let err = Trace::from_json("not json").unwrap_err();
        assert!(matches!(err, EvaError::InvalidInput(_)));
    }

    #[test]
    fn empty_trace_stats() {
        let s = Trace::new(vec![]).stats();
        assert_eq!(s.num_jobs, 0);
        assert_eq!(s.mean_duration_hours, 0.0);
        assert_eq!(s.gpu_fraction(1), 0.0);
    }
}
