//! Experiment metrics (§6.1's reporting set).

use serde::{Deserialize, Serialize};

/// One point of an empirical CDF.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CdfPoint {
    /// The value (e.g. instance uptime in hours).
    pub value: f64,
    /// Cumulative density at the value.
    pub density: f64,
}

/// The full per-run report used by every experiment binary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Scheduler name.
    pub scheduler: String,
    /// Number of jobs completed.
    pub jobs_completed: usize,
    /// Total provisioning cost in dollars.
    pub total_cost_dollars: f64,
    /// Instances launched over the run.
    pub instances_launched: u64,
    /// Task migrations per task (initial placement excluded).
    pub migrations_per_task: f64,
    /// Average job completion time (hours).
    pub avg_jct_hours: f64,
    /// Average job idle time (hours) — time present but not executing.
    pub avg_idle_hours: f64,
    /// Average normalized job throughput while executing.
    pub avg_norm_tput: f64,
    /// Time-weighted average tasks per live instance
    /// (task-running-hours / instance-billed-hours).
    pub tasks_per_instance: f64,
    /// Time-weighted average GPU allocation across live instances.
    pub gpu_alloc: f64,
    /// Time-weighted average CPU allocation across live instances.
    pub cpu_alloc: f64,
    /// Time-weighted average RAM allocation across live instances.
    pub ram_alloc: f64,
    /// Instance uptime CDF (Figure 3).
    pub uptime_cdf: Vec<CdfPoint>,
    /// Fraction of scheduling rounds adopting Full Reconfiguration
    /// (Eva only; 0 otherwise).
    pub full_reconfig_rate: f64,
    /// Simulated makespan (hours from first arrival to last termination).
    pub makespan_hours: f64,
    /// Total instance-billed hours (the denominator behind
    /// `tasks_per_instance`).
    pub billed_hours: f64,
}

impl SimReport {
    /// Cost normalized against a baseline report (the paper normalizes
    /// against No-Packing).
    fn normalized_cost(&self, baseline: &SimReport) -> f64 {
        if baseline.total_cost_dollars <= 0.0 {
            return 1.0;
        }
        self.total_cost_dollars / baseline.total_cost_dollars
    }

    /// Renders the Table 13/14-style row.
    pub fn table_row(&self, baseline: Option<&SimReport>) -> String {
        let norm = baseline
            .map(|b| format!("{:>5.1}%", 100.0 * self.normalized_cost(b)))
            .unwrap_or_else(|| "  100%".to_string());
        format!(
            "{:<12} ${:>10.2} ({}) | tasks/inst {:>4.2} | tput {:>4.2} | JCT {:>6.2}h | idle {:>5.2}h | mig/task {:>4.2} | alloc G {:>3.0}% C {:>3.0}% R {:>3.0}%",
            self.scheduler,
            self.total_cost_dollars,
            norm,
            self.tasks_per_instance,
            self.avg_norm_tput,
            self.avg_jct_hours,
            self.avg_idle_hours,
            self.migrations_per_task,
            100.0 * self.gpu_alloc,
            100.0 * self.cpu_alloc,
            100.0 * self.ram_alloc,
        )
    }
}

/// Number of buckets in the service-mode wait histogram.
const WAIT_BUCKETS: usize = 80;

/// Fixed log-scale histogram of job wait (idle) hours. Buckets cover
/// `2^((i - 40) / 4)` hours, spanning ~0.001 h to ~1000 h in quarter-
/// octave steps — coarse, allocation-free, and deterministic (bucket
/// counts are integers, so snapshots never depend on summation order).
#[derive(Debug, Clone, PartialEq)]
struct WaitHistogram {
    counts: [u64; WAIT_BUCKETS],
    total: u64,
}

impl Default for WaitHistogram {
    fn default() -> Self {
        WaitHistogram {
            counts: [0; WAIT_BUCKETS],
            total: 0,
        }
    }
}

impl WaitHistogram {
    fn bucket(hours: f64) -> usize {
        if hours <= 0.0 {
            return 0;
        }
        (((hours.log2() * 4.0).floor() as i64) + 40).clamp(0, WAIT_BUCKETS as i64 - 1) as usize
    }

    fn record(&mut self, hours: f64) {
        self.counts[Self::bucket(hours)] += 1;
        self.total += 1;
    }

    /// Lower bound of the bucket holding quantile `q` (0 when empty).
    /// Bucket 0 also holds exact-zero waits, reported as 0.
    fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                if i == 0 {
                    return 0.0;
                }
                return ((i as f64 - 40.0) / 4.0).exp2();
            }
        }
        0.0
    }
}

/// Rolling service-mode counters and histograms, maintained by
/// `ClusterSim` as events fire and snapshotted per scheduler round (or
/// on `eva serve`'s metrics interval).
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct MetricsRegistry {
    /// Jobs ingested/arrived so far.
    pub arrivals_total: u64,
    /// Jobs completed so far.
    pub completions_total: u64,
    wait_hist: WaitHistogram,
}

impl MetricsRegistry {
    /// Counts one job arrival.
    pub fn record_arrival(&mut self) {
        self.arrivals_total += 1;
    }

    /// Counts one job completion with its accumulated wait (idle) hours.
    pub fn record_completion(&mut self, wait_hours: f64) {
        self.completions_total += 1;
        self.wait_hist.record(wait_hours);
    }

    /// Median completed-job wait (bucket lower bound, hours).
    pub fn p50_wait_hours(&self) -> f64 {
        self.wait_hist.quantile(0.50)
    }

    /// 99th-percentile completed-job wait (bucket lower bound, hours).
    pub fn p99_wait_hours(&self) -> f64 {
        self.wait_hist.quantile(0.99)
    }
}

/// One rolling metrics snapshot: the JSON line `eva serve` emits every
/// `--metrics-every` interval of simulated time. Deterministic for a
/// fixed seed and source — two identical runs emit identical lines.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Simulated time of the snapshot (hours).
    pub t_hours: f64,
    /// Jobs ingested so far.
    pub arrivals_total: u64,
    /// Jobs completed so far.
    pub completions_total: u64,
    /// Jobs currently in the system (arrived, not done).
    pub queue_depth: usize,
    /// Tasks currently in the Running state on counted instances.
    pub running_tasks: usize,
    /// Instantaneous GPU allocation fraction across live capacity.
    pub utilization_gpu: f64,
    /// Median completed-job wait (idle) hours.
    pub p50_wait_hours: f64,
    /// 99th-percentile completed-job wait (idle) hours.
    pub p99_wait_hours: f64,
    /// Event-queue entries currently held (live + tombstoned).
    pub event_queue_len: usize,
    /// High-water mark of the event queue.
    pub event_queue_peak: usize,
    /// Arena job rows currently holding a live (unreleased) job — the
    /// bounded-memory observable: with retirement on this tracks the
    /// in-flight window, not total jobs ingested.
    pub live_job_slots: usize,
    /// Scheduler rounds executed so far.
    pub rounds: u64,
}

/// Builds an empirical CDF (at most `max_points` evenly indexed points).
pub fn empirical_cdf(mut values: Vec<f64>, max_points: usize) -> Vec<CdfPoint> {
    if values.is_empty() {
        return Vec::new();
    }
    values.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = values.len();
    let step = (n / max_points.max(1)).max(1);
    let mut points: Vec<CdfPoint> = values
        .iter()
        .enumerate()
        .filter(|(i, _)| i % step == 0 || *i == n - 1)
        .map(|(i, v)| CdfPoint {
            value: *v,
            density: (i + 1) as f64 / n as f64,
        })
        .collect();
    if let Some(last) = points.last_mut() {
        last.density = 1.0;
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(cost: f64) -> SimReport {
        SimReport {
            scheduler: "test".into(),
            jobs_completed: 1,
            total_cost_dollars: cost,
            instances_launched: 1,
            migrations_per_task: 0.0,
            avg_jct_hours: 1.0,
            avg_idle_hours: 0.0,
            avg_norm_tput: 1.0,
            tasks_per_instance: 1.0,
            gpu_alloc: 0.5,
            cpu_alloc: 0.5,
            ram_alloc: 0.5,
            uptime_cdf: Vec::new(),
            full_reconfig_rate: 0.0,
            makespan_hours: 1.0,
            billed_hours: 1.0,
        }
    }

    #[test]
    fn normalized_cost_against_baseline() {
        let eva = report(60.0);
        let base = report(100.0);
        assert!((eva.normalized_cost(&base) - 0.6).abs() < 1e-12);
        assert_eq!(report(5.0).normalized_cost(&report(0.0)), 1.0);
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let cdf = empirical_cdf(vec![3.0, 1.0, 2.0, 5.0, 4.0], 10);
        assert_eq!(cdf.first().unwrap().value, 1.0);
        assert_eq!(cdf.last().unwrap().value, 5.0);
        assert_eq!(cdf.last().unwrap().density, 1.0);
        for w in cdf.windows(2) {
            assert!(w[1].value >= w[0].value);
            assert!(w[1].density >= w[0].density);
        }
    }

    #[test]
    fn cdf_respects_max_points() {
        let values: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let cdf = empirical_cdf(values, 50);
        assert!(cdf.len() <= 52);
    }

    #[test]
    fn empty_cdf() {
        assert!(empirical_cdf(Vec::new(), 10).is_empty());
    }

    #[test]
    fn table_row_contains_key_fields() {
        let row = report(42.0).table_row(Some(&report(84.0)));
        assert!(row.contains("test"));
        assert!(row.contains("42.00"));
        assert!(row.contains("50.0%"));
    }

    #[test]
    fn wait_histogram_quantiles_are_monotone() {
        let mut reg = MetricsRegistry::default();
        for i in 0..100 {
            reg.record_completion(i as f64 * 0.1);
        }
        assert_eq!(reg.completions_total, 100);
        let (p50, p99) = (reg.p50_wait_hours(), reg.p99_wait_hours());
        assert!(p50 > 0.0 && p50 <= 5.0, "p50 {p50}");
        assert!(p99 >= p50 && p99 <= 16.0, "p99 {p99}");
        // Zero waits land in the zero bucket; empty registries read 0.
        let mut z = MetricsRegistry::default();
        z.record_completion(0.0);
        assert_eq!(z.p50_wait_hours(), 0.0);
        assert_eq!(MetricsRegistry::default().p99_wait_hours(), 0.0);
    }

    #[test]
    fn metrics_snapshot_serde_round_trip() {
        let snap = MetricsSnapshot {
            t_hours: 1.5,
            arrivals_total: 10,
            completions_total: 7,
            queue_depth: 3,
            running_tasks: 4,
            utilization_gpu: 0.75,
            p50_wait_hours: 0.25,
            p99_wait_hours: 2.0,
            event_queue_len: 12,
            event_queue_peak: 40,
            live_job_slots: 3,
            rounds: 9,
        };
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn report_serde_round_trip() {
        let r = report(10.0);
        let json = serde_json::to_string(&r).unwrap();
        let back: SimReport = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }
}
