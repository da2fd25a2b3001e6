//! Trace modifiers for the workload-composition studies.
//!
//! * [`MultiGpuMix`] converts a fraction of single-GPU jobs into 2-, 4-,
//!   and 8-GPU jobs in a 5:4:1 ratio (§6.6 / Figure 6).
//! * [`MultiTaskMix`] duplicates tasks of a fraction of jobs into 2- or
//!   4-task gang-coupled jobs in a 1:1 ratio (§6.7 / Figure 7).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use eva_types::{ResourceVector, TaskId};

use crate::trace::Trace;

/// Converts single-GPU jobs to multi-GPU jobs (Figure 6's x-axis).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiGpuMix {
    /// Fraction of *GPU* jobs to convert to multi-GPU (0.0–1.0).
    pub proportion: f64,
}

impl MultiGpuMix {
    /// Builds the modifier; the proportion is clamped to `[0, 1]`.
    pub fn new(proportion: f64) -> Self {
        MultiGpuMix {
            proportion: proportion.clamp(0.0, 1.0),
        }
    }

    /// Applies the modifier. GPU counts are drawn 2/4/8 with weights
    /// 5:4:1; CPU and RAM scale with the GPU count, capped to keep every
    /// task hostable on the P3 family (≤8 vCPU and ≤61 GB per GPU, max 8
    /// GPUs on p3.16xlarge).
    pub fn apply(&self, trace: &Trace, seed: u64) -> Trace {
        let mut rng = StdRng::seed_from_u64(seed);
        let jobs = trace
            .jobs()
            .iter()
            .map(|job| {
                let mut job = job.clone();
                let is_single_gpu = job.tasks.iter().all(|t| t.demand.default.gpu == 1);
                if is_single_gpu && rng.gen::<f64>() < self.proportion {
                    let gpus = sample_multi_gpu_count(&mut rng);
                    for task in &mut job.tasks {
                        // Family overrides scale the same way.
                        task.demand = task.demand.map(|d| {
                            ResourceVector::new(
                                gpus,
                                (d.cpu * gpus).min(8 * gpus),
                                (d.ram_mb * u64::from(gpus)).min(61 * 1024 * u64::from(gpus)),
                            )
                        });
                    }
                }
                job
            })
            .collect();
        Trace::new(jobs)
    }
}

/// Draws 2, 4, or 8 GPUs with the paper's 5:4:1 weights.
pub fn sample_multi_gpu_count<R: Rng + ?Sized>(rng: &mut R) -> u32 {
    match rng.gen_range(0..10) {
        0..=4 => 2,
        5..=8 => 4,
        _ => 8,
    }
}

/// Converts single-task jobs into gang-coupled multi-task jobs
/// (Figure 7's x-axis).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiTaskMix {
    /// Fraction of jobs to convert (0.0–1.0).
    pub proportion: f64,
}

impl MultiTaskMix {
    /// Builds the modifier; the proportion is clamped to `[0, 1]`.
    pub fn new(proportion: f64) -> Self {
        MultiTaskMix {
            proportion: proportion.clamp(0.0, 1.0),
        }
    }

    /// Applies the modifier: selected single-task jobs get their task
    /// duplicated into 2 or 4 identical tasks (1:1 ratio) and become
    /// gang-coupled, each task keeping the original resource demands.
    pub fn apply(&self, trace: &Trace, seed: u64) -> Trace {
        let mut rng = StdRng::seed_from_u64(seed);
        let jobs = trace
            .jobs()
            .iter()
            .map(|job| {
                let mut job = job.clone();
                if job.is_single_task() && rng.gen::<f64>() < self.proportion {
                    let copies = if rng.gen::<bool>() { 2 } else { 4 };
                    let template = job.tasks[0].clone();
                    job.tasks = (0..copies)
                        .map(|i| {
                            let mut t = template.clone();
                            t.id = TaskId::new(job.id, i);
                            t
                        })
                        .collect();
                    job.gang_coupled = true;
                }
                job
            })
            .collect();
        Trace::new(jobs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alibaba::{AlibabaTraceConfig, DurationModelChoice};
    use eva_cloud::Catalog;

    fn base_trace() -> Trace {
        AlibabaTraceConfig {
            num_jobs: 2_000,
            ..AlibabaTraceConfig::small(DurationModelChoice::Alibaba)
        }
        .generate(30)
    }

    #[test]
    fn zero_proportion_is_identity() {
        let t = base_trace();
        assert_eq!(MultiGpuMix::new(0.0).apply(&t, 1), t);
        assert_eq!(MultiTaskMix::new(0.0).apply(&t, 1), t);
    }

    #[test]
    fn multi_gpu_ratio_is_5_4_1() {
        let t = base_trace();
        let out = MultiGpuMix::new(1.0).apply(&t, 2);
        let s = out.stats();
        let two = s.gpu_fraction(2);
        let four = s.gpu_fraction(4);
        let eight = s.gpu_fraction(8);
        assert!(two > four && four > eight, "{two} {four} {eight}");
        assert!(
            (two / four - 1.25).abs() < 0.3,
            "2:4 ratio {:.2}",
            two / four
        );
        // Non-GPU jobs untouched.
        assert!((s.gpu_fraction(0) - t.stats().gpu_fraction(0)).abs() < 1e-9);
    }

    #[test]
    fn multi_gpu_jobs_remain_schedulable() {
        let catalog = Catalog::aws_eval_2025();
        let out = MultiGpuMix::new(1.0).apply(&base_trace(), 3);
        for job in out.jobs() {
            for task in &job.tasks {
                assert!(catalog.cheapest_fit(&task.demand).is_some());
            }
        }
    }

    #[test]
    fn proportion_controls_conversion_count() {
        let t = base_trace();
        let gpu_jobs = |tr: &Trace| {
            tr.jobs()
                .iter()
                .filter(|j| j.tasks[0].demand.default.gpu > 1)
                .count()
        };
        let multi_before = gpu_jobs(&t) as f64;
        let out = MultiGpuMix::new(0.3).apply(&t, 4);
        let total_single_gpu = t
            .jobs()
            .iter()
            .filter(|j| j.tasks[0].demand.default.gpu == 1)
            .count() as f64;
        let converted = gpu_jobs(&out) as f64 - multi_before;
        let rate = converted / total_single_gpu;
        assert!((rate - 0.3).abs() < 0.05, "conversion rate {rate:.3}");
    }

    #[test]
    fn multi_task_mix_duplicates_tasks() {
        let t = base_trace();
        let out = MultiTaskMix::new(1.0).apply(&t, 5);
        let mut twos = 0;
        let mut fours = 0;
        for job in out.jobs() {
            assert!(job.gang_coupled);
            match job.num_tasks() {
                2 => twos += 1,
                4 => fours += 1,
                n => panic!("unexpected task count {n}"),
            }
            // Tasks are identical except for ids.
            let d0 = &job.tasks[0].demand;
            for (i, task) in job.tasks.iter().enumerate() {
                assert_eq!(&task.demand, d0);
                assert_eq!(task.id, TaskId::new(job.id, i as u32));
            }
        }
        let ratio = twos as f64 / fours as f64;
        assert!((ratio - 1.0).abs() < 0.2, "2-task:4-task ratio {ratio:.2}");
    }

    #[test]
    fn multi_task_mix_partial_proportion() {
        let t = base_trace();
        let out = MultiTaskMix::new(0.4).apply(&t, 6);
        let s = out.stats();
        let frac = s.multi_task_jobs as f64 / s.num_jobs as f64;
        assert!((frac - 0.4).abs() < 0.05, "multi-task fraction {frac:.3}");
    }
}
