//! Simulation state: the task lifecycle. One job's progress arithmetic
//! lives in the arena (`JobArena::{advance, eta, mean_tput}`) and is
//! unit-tested here on a one-job arena.

/// Lifecycle of one task inside the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskState {
    /// Not yet placed anywhere.
    Pending,
    /// Placed; waiting for instance readiness / checkpoint / launch delay.
    InTransit,
    /// Executing on its instance.
    Running,
    /// Its job completed.
    Done,
}

#[cfg(test)]
mod tests {
    use crate::arena::{quantize, work_of, work_span, JobArena, Spec, WorldArena, RATE_ONE};
    use eva_types::{
        DemandSpec, JobId, JobSpec, ResourceVector, SimDuration, SimTime, TaskId, TaskSpec,
        WorkloadKind,
    };

    /// The job arena of a world holding one single-task job of `hours`
    /// full-throughput work, in slot 0, arrived at time zero. Work is
    /// measured in ms·quantum at full throughput; between simulator
    /// events throughput is constant, so progress integrates exactly.
    fn one_job(hours: f64) -> JobArena {
        let id = JobId(1);
        let spec = JobSpec {
            id,
            arrival: SimTime::ZERO,
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
        let mut world = WorldArena::default();
        world.intern_job(&[spec], Spec::Trace(0), SimTime::ZERO);
        world.jobs
    }

    fn hours(h: f64) -> SimTime {
        SimTime::from_hours_f64(h)
    }

    fn work(h: f64) -> u64 {
        work_of(SimDuration::from_hours_f64(h)).unwrap()
    }

    #[test]
    fn progress_integrates_throughput() {
        let mut p = one_job(2.0);
        p.advance(0, hours(1.0), RATE_ONE);
        assert_eq!(p.progress[0].remaining, work(1.0));
        p.advance(0, hours(2.0), quantize(0.5));
        assert_eq!(p.progress[0].remaining, work(0.5));
        assert_eq!(p.mean_tput(0), quantize(0.75));
        p.progress[0].rate = quantize(0.5);
        assert_eq!(p.eta(0), Some(SimDuration::from_hours_f64(1.0)));
    }

    #[test]
    fn zero_throughput_accumulates_idle() {
        let mut p = one_job(1.0);
        p.advance(0, hours(0.25), 0);
        assert_eq!(p.idle_hours(0), 0.25);
        assert_eq!(p.progress[0].remaining, work(1.0));
        assert!(p.eta(0).is_none());
        assert_eq!(
            p.mean_tput(0),
            RATE_ONE,
            "never executed ⇒ no interference seen"
        );
    }

    #[test]
    fn work_runs_out_exactly_and_clamps_at_zero() {
        let mut p = one_job(1.0);
        p.advance(0, hours(1.0), RATE_ONE);
        assert_eq!(p.progress[0].remaining, 0);
        p.progress[0].rate = RATE_ONE;
        assert_eq!(p.eta(0), Some(SimDuration::ZERO));
        p.advance(0, hours(1.5), RATE_ONE);
        assert_eq!(p.progress[0].remaining, 0);
        assert_eq!(
            p.progress[0].executing_ms,
            SimDuration::from_hours_f64(1.5).as_millis()
        );
    }

    #[test]
    fn done_jobs_do_not_advance() {
        let mut p = one_job(1.0);
        p.completed_at[0] = Some(SimTime::ZERO);
        p.advance(0, hours(5.0), RATE_ONE);
        assert_eq!(p.progress[0].remaining, work(1.0));
        p.progress[0].rate = RATE_ONE;
        assert!(p.eta(0).is_none());
    }

    #[test]
    fn remaining_hint_tracks_progress() {
        // The perfect duration estimate granted to Stratus (§6.1) is the
        // remaining work read at the current instant, settled or not.
        let mut p = one_job(2.0);
        p.progress[0].rate = RATE_ONE;
        assert_eq!(
            work_span(p.remaining_at(0, hours(0.5))),
            SimDuration::from_hours_f64(1.5)
        );
        p.settle(0, hours(0.5));
        assert_eq!(
            work_span(p.progress[0].remaining),
            SimDuration::from_hours_f64(1.5)
        );
    }
}
