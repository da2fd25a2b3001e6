//! Simulation state: the task lifecycle. One job's progress arithmetic
//! lives in the arena (`JobArena::{advance, eta_hours, mean_tput}`) and
//! is unit-tested here on a one-job arena.

use eva_types::SimTime;

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

#[cfg(test)]
mod tests {
    use crate::arena::JobArena;
    use eva_types::{
        DemandSpec, JobId, JobSpec, ResourceVector, SimDuration, SimTime, TaskId, TaskSpec,
        WorkloadKind,
    };
    use eva_workloads::Trace;

    /// The job arena of a world holding one single-task job of `hours`
    /// full-throughput work, in slot 0. Work is measured in
    /// hours-at-full-throughput; between simulator events throughput is
    /// constant, so progress integrates exactly.
    fn one_job(hours: f64) -> JobArena {
        let id = JobId(1);
        let spec = JobSpec {
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
        };
        crate::arena::WorldArena::from_trace(&Trace::new(vec![spec])).jobs
    }

    #[test]
    fn progress_integrates_throughput() {
        let mut p = one_job(2.0);
        p.advance(0, 1.0, 1.0);
        assert!((p.remaining_hours[0] - 1.0).abs() < 1e-12);
        p.advance(0, 1.0, 0.5);
        assert!((p.remaining_hours[0] - 0.5).abs() < 1e-12);
        assert!((p.mean_tput(0) - 0.75).abs() < 1e-12);
        assert_eq!(p.eta_hours(0, 0.5), Some(1.0));
    }

    #[test]
    fn zero_throughput_accumulates_idle() {
        let mut p = one_job(1.0);
        p.advance(0, 0.25, 0.0);
        assert!((p.idle_hours[0] - 0.25).abs() < 1e-12);
        assert!((p.remaining_hours[0] - 1.0).abs() < 1e-12);
        assert!(p.eta_hours(0, 0.0).is_none());
        assert_eq!(p.mean_tput(0), 1.0, "never executed ⇒ no interference seen");
    }

    #[test]
    fn work_runs_out_exactly_and_clamps_at_zero() {
        let mut p = one_job(1.0);
        p.advance(0, 1.0, 1.0);
        assert!((p.remaining_hours[0] - 0.0).abs() < 1e-12);
        assert_eq!(p.eta_hours(0, 1.0), Some(0.0));
        p.advance(0, 0.5, 1.0);
        assert_eq!(p.remaining_hours[0], 0.0);
        assert!((p.executing_hours[0] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn done_jobs_do_not_advance() {
        let mut p = one_job(1.0);
        p.completed_at[0] = Some(SimTime::ZERO);
        p.advance(0, 5.0, 1.0);
        assert!((p.remaining_hours[0] - 1.0).abs() < 1e-12);
        assert!(p.eta_hours(0, 1.0).is_none());
    }

    #[test]
    fn remaining_hint_tracks_progress() {
        // The perfect duration estimate granted to Stratus (§6.1) is the
        // remaining work read straight off the lane.
        let mut p = one_job(2.0);
        p.advance(0, 0.5, 1.0);
        assert_eq!(
            SimDuration::from_hours_f64(p.remaining_hours[0]),
            SimDuration::from_hours_f64(1.5)
        );
    }
}
