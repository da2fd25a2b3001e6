//! Simulation state: task lifecycle and job progress.

use eva_types::{JobSpec, SimDuration, SimTime};

/// Lifecycle of one task inside the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskState {
    /// Not yet placed anywhere.
    Pending,
    /// Placed; waiting for instance readiness / checkpoint / launch delay.
    /// Carries the generation stamp of the transfer in flight.
    InTransit {
        /// Monotonic stamp that invalidates superseded transfer events.
        generation: u64,
        /// When the task becomes runnable.
        ready_at: SimTime,
    },
    /// Executing on its instance.
    Running,
    /// Its job completed.
    Done,
}

/// One job's dynamic bookkeeping.
///
/// Work is measured in hours-at-full-throughput. Between simulator events
/// throughput is constant, so progress integrates exactly.
#[derive(Debug, Clone)]
pub struct JobProgress {
    /// The job's static spec.
    pub spec: JobSpec,
    /// Remaining work in full-throughput hours.
    pub remaining_hours: f64,
    /// Accumulated wall-clock hours in which the job was executing.
    pub executing_hours: f64,
    /// Accumulated wall-clock hours present but not executing (delays).
    pub idle_hours: f64,
    /// Integral of throughput over executing time (for normalized tput).
    pub tput_integral: f64,
    /// Completion time, once done.
    pub completed_at: Option<SimTime>,
    /// Stamp invalidating stale completion events.
    pub completion_generation: u64,
}

impl JobProgress {
    /// Builds progress state from a spec.
    pub fn new(spec: JobSpec) -> Self {
        let remaining = spec.duration_at_full_tput.as_hours_f64();
        JobProgress {
            spec,
            remaining_hours: remaining,
            executing_hours: 0.0,
            idle_hours: 0.0,
            tput_integral: 0.0,
            completed_at: None,
            completion_generation: 0,
        }
    }

    /// True once the job has no work left.
    pub fn is_done(&self) -> bool {
        self.completed_at.is_some()
    }

    /// Advances the job by `dt_hours` at effective throughput `tput`
    /// (0 when not executing).
    pub fn advance(&mut self, dt_hours: f64, tput: f64) {
        if self.is_done() || dt_hours <= 0.0 {
            return;
        }
        if tput > 0.0 {
            self.remaining_hours = (self.remaining_hours - dt_hours * tput).max(0.0);
            self.executing_hours += dt_hours;
            self.tput_integral += dt_hours * tput;
        } else {
            self.idle_hours += dt_hours;
        }
    }

    /// Hours until completion at throughput `tput`, if it is positive.
    pub fn eta_hours(&self, tput: f64) -> Option<f64> {
        if self.is_done() || tput <= 0.0 {
            None
        } else {
            Some(self.remaining_hours / tput)
        }
    }

    /// Average normalized throughput while executing (1.0 for a job that
    /// never experienced interference).
    pub fn mean_tput(&self) -> f64 {
        if self.executing_hours <= 0.0 {
            1.0
        } else {
            self.tput_integral / self.executing_hours
        }
    }

    /// Job completion time metric (hours), once done.
    pub fn jct_hours(&self) -> Option<f64> {
        self.completed_at
            .map(|t| t.duration_since(self.spec.arrival).as_hours_f64())
    }

    /// Estimated remaining wall-clock time at full throughput — the perfect
    /// duration estimate granted to Stratus (§6.1).
    pub fn remaining_hint(&self) -> SimDuration {
        SimDuration::from_hours_f64(self.remaining_hours)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eva_types::{DemandSpec, JobId, ResourceVector, TaskId, TaskSpec, WorkloadKind};

    fn spec(hours: f64) -> JobSpec {
        let id = JobId(1);
        JobSpec {
            id,
            arrival: SimTime::from_secs(3600),
            tasks: vec![TaskSpec {
                id: TaskId::new(id, 0),
                workload: WorkloadKind(0),
                demand: DemandSpec::uniform(ResourceVector::new(1, 4, 1024)),
                checkpoint_delay: SimDuration::from_secs(2),
                launch_delay: SimDuration::from_secs(10),
            }],
            duration_at_full_tput: SimDuration::from_hours_f64(hours),
            gang_coupled: false,
        }
    }

    #[test]
    fn progress_integrates_throughput() {
        let mut p = JobProgress::new(spec(2.0));
        p.advance(1.0, 1.0);
        assert!((p.remaining_hours - 1.0).abs() < 1e-12);
        p.advance(1.0, 0.5);
        assert!((p.remaining_hours - 0.5).abs() < 1e-12);
        assert!((p.mean_tput() - 0.75).abs() < 1e-12);
        assert_eq!(p.eta_hours(0.5), Some(1.0));
    }

    #[test]
    fn zero_throughput_accumulates_idle() {
        let mut p = JobProgress::new(spec(1.0));
        p.advance(0.25, 0.0);
        assert!((p.idle_hours - 0.25).abs() < 1e-12);
        assert!((p.remaining_hours - 1.0).abs() < 1e-12);
        assert!(p.eta_hours(0.0).is_none());
    }

    #[test]
    fn jct_measured_from_arrival() {
        let mut p = JobProgress::new(spec(1.0));
        p.advance(1.0, 1.0);
        assert!((p.remaining_hours - 0.0).abs() < 1e-12);
        p.completed_at = Some(SimTime::from_secs(3600) + SimDuration::from_hours_f64(1.5));
        assert!((p.jct_hours().unwrap() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn done_jobs_do_not_advance() {
        let mut p = JobProgress::new(spec(1.0));
        p.completed_at = Some(SimTime::ZERO);
        p.advance(5.0, 1.0);
        assert!((p.remaining_hours - 1.0).abs() < 1e-12);
    }

    #[test]
    fn remaining_hint_tracks_progress() {
        let mut p = JobProgress::new(spec(2.0));
        p.advance(0.5, 1.0);
        assert_eq!(p.remaining_hint(), SimDuration::from_hours_f64(1.5));
    }
}
