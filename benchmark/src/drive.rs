//! Drives a [`ClusterSim`] through its public `step()`, and in a traced
//! run times every step from outside.
//!
//! A step is a *round* step when `rounds_executed()` advanced across it
//! (settle, `build_observations`, `build_snapshot`, `Scheduler::plan`,
//! `execute_plan`) and an *event* step otherwise (heap pop,
//! `advance_to`, one handler, `recompute_completions`).

use std::cell::RefCell;
use std::rc::Rc;

use eva_sim::ClusterSim;

use crate::source::SourceStats;
use crate::spans::{Interval, Tracer};

/// What the traced loop measured about one simulation.
#[derive(Debug, Default)]
pub struct StepStats {
    /// Length of every round step, in ns.
    pub round_ns: Vec<u64>,
    /// Length of every event step, in ns.
    pub event_ns: Vec<u64>,
    /// `metrics_snapshot().running_tasks` summed over the round steps.
    pub running_at_rounds: u64,
    /// High-water mark of `job_arena_rows()`.
    pub job_rows_peak: usize,
}

/// Steps `sim` to exhaustion with nothing in the way.
pub fn drive(sim: &mut ClusterSim) {
    while sim.step() {}
}

/// Steps `sim` to exhaustion, timing each step into `stats` and into
/// spans under the open one: a `world.round` span per round step, and
/// one folded `world.events` span for the event steps between two
/// rounds. Pulls a [`crate::source::TimedSource`] saw become
/// `workloads.source` children of the step they ran in. `after_step`
/// runs between steps, as `serve()`'s emission does.
pub fn drive_traced(
    sim: &mut ClusterSim,
    tr: &mut Tracer,
    stats: &mut StepStats,
    source: Option<&Rc<RefCell<SourceStats>>>,
    mut after_step: impl FnMut(&ClusterSim, &mut Tracer),
) {
    let mut events = Interval::default();
    let mut events_pulls = Interval::default();
    let close_events = |tr: &mut Tracer, events: &mut Interval, pulls: &mut Interval| {
        if let Some(fold) = events.take() {
            let id = tr.leaf("world.events", fold);
            if let Some(pulls) = pulls.take() {
                tr.leaf_under(id, "workloads.source", pulls);
            }
        }
    };
    stats.job_rows_peak = stats.job_rows_peak.max(sim.job_arena_rows());
    loop {
        let rounds_before = sim.rounds_executed();
        let start_ns = tr.now_ns();
        let more = sim.step();
        let end_ns = tr.now_ns();
        if !more {
            break;
        }
        let pulls = source.and_then(|s| s.borrow_mut().window.take());
        if sim.rounds_executed() > rounds_before {
            close_events(tr, &mut events, &mut events_pulls);
            let id = tr.leaf("world.round", Interval::call(start_ns, end_ns));
            if let Some(pulls) = pulls {
                tr.leaf_under(id, "workloads.source", pulls);
            }
            stats.round_ns.push(end_ns - start_ns);
            stats.running_at_rounds += sim.metrics_snapshot().running_tasks as u64;
        } else {
            events.add(start_ns, end_ns);
            if let Some(pulls) = pulls {
                events_pulls.absorb(pulls);
            }
            stats.event_ns.push(end_ns - start_ns);
        }
        stats.job_rows_peak = stats.job_rows_peak.max(sim.job_arena_rows());
        after_step(sim, tr);
    }
    close_events(tr, &mut events, &mut events_pulls);
}

#[cfg(test)]
mod tests {
    use super::*;
    use eva_sim::{SchedulerKind, SimConfig};
    use eva_workloads::SyntheticTraceConfig;

    #[test]
    fn classifier_counts_the_rounds_the_sim_executed() {
        let cfg = SimConfig::new(
            SyntheticTraceConfig::small_scale().generate(5),
            SchedulerKind::Stratus,
        );
        let mut plain = ClusterSim::new(&cfg);
        drive(&mut plain);

        let mut sim = ClusterSim::new(&cfg);
        let mut tr = Tracer::new();
        let mut stats = StepStats::default();
        let mut steps_seen = 0u64;
        drive_traced(&mut sim, &mut tr, &mut stats, None, |_, _| steps_seen += 1);

        assert!(sim.rounds_executed() > 0);
        assert_eq!(stats.round_ns.len() as u64, sim.rounds_executed());
        assert_eq!(sim.rounds_executed(), plain.rounds_executed());
        assert_eq!(
            (stats.round_ns.len() + stats.event_ns.len()) as u64,
            steps_seen
        );
        assert_eq!(stats.job_rows_peak, 32);

        let rounds = tr
            .spans()
            .iter()
            .filter(|s| s.name == "world.round")
            .count();
        let folded: u64 = tr
            .spans()
            .iter()
            .filter(|s| s.name == "world.events")
            .map(|s| s.count)
            .sum();
        assert_eq!(rounds, stats.round_ns.len());
        assert_eq!(folded as usize, stats.event_ns.len());
        assert_eq!(sim.run(), plain.run(), "timing a run must not change it");
    }
}
