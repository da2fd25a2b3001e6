//! The `world` layer (eva-sim `world`/`arena`/`observe`) as seen from
//! outside a [`ClusterSim`]: what the step-driven workloads share.

use eva_sim::{ClusterSim, SimReport};

use crate::drive::StepStats;
use crate::metrics::MetricSet;
use crate::probe::{Lap, Probe};
use crate::stats;

/// Everything a traced execution measured about the world layer, summed
/// over the simulations it ran.
#[derive(Debug, Default)]
pub struct WorldStats {
    pub steps: StepStats,
    pub events_scheduled: u64,
    pub event_queue_peak: usize,
    pub audit_failed: bool,
}

/// What follows a sim's last step: the slot audit (a check of the
/// benchmark's, so outside the timed section) and `run()`, which only
/// has the report left to assemble. Returns the report and how long
/// `run()` took.
pub fn finish(sim: ClusterSim, probe: &mut Probe, world: &mut WorldStats) -> (SimReport, Lap) {
    let audit = probe.scope("harness.audit", |_| sim.audit_slots());
    if let Err(why) = audit {
        world.audit_failed = true;
        probe
            .failures
            .push(format!("audit_slots after the last step: {why}"));
    }
    world.events_scheduled += sim.events_scheduled();
    world.event_queue_peak = world.event_queue_peak.max(sim.event_queue_peak());
    Lap::of(|| probe.scope("world.finalize", |_| sim.run()))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Fills in the `world.*` metrics of a traced execution. The `_p99`
/// metrics hold the highest percentile with ten samples beyond it, which
/// is the 99th from 1 000 samples up.
pub fn report(world: &WorldStats, probe: &mut Probe) {
    let tracer = probe
        .tracer
        .as_ref()
        .expect("world metrics come from a traced run");
    let (build_s, finalize_s) = (
        tracer.busy_s("world.build"),
        tracer.busy_s("world.finalize"),
    );
    let layers = &mut probe.layers;
    let steps = &world.steps;
    let rounds = steps.round_ns.len();
    layers.set("world.rounds", rounds as f64);
    layers.set("world.steps", (rounds + steps.event_ns.len()) as f64);
    layers.set("world.events_scheduled", world.events_scheduled as f64);
    layers.set("world.event_queue_peak", world.event_queue_peak as f64);
    layers.set("world.job_rows_peak", steps.job_rows_peak as f64);

    let round_s = steps.round_ns.iter().sum::<u64>() as f64 / 1e9;
    let round_ms: Vec<f64> = steps.round_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    let round = stats::tail(&round_ms);
    layers.set("world.round_s", round_s);
    layers.set("world.round_ms_p50", round.p50);
    layers.set("world.round_ms_p99", round.tail);
    layers.set("world.round_ms_max", round.max);
    let running = steps.running_at_rounds as f64;
    layers.set("world.tasks_running_mean", ratio(running, rounds as f64));
    layers.set("world.round_us_per_task", ratio(round_s * 1e6, running));

    let event_us: Vec<f64> = steps.event_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    let event = stats::tail(&event_us);
    layers.set(
        "world.event_s",
        steps.event_ns.iter().sum::<u64>() as f64 / 1e9,
    );
    layers.set("world.event_us_p50", event.p50);
    layers.set("world.event_us_p99", event.tail);

    layers.set("world.build_s", build_s);
    layers.set("world.finalize_s", finalize_s);
    layers.set_flag("world.audit_ok", !world.audit_failed);
}

/// Share of the measured round time that the Stratus `plan` fixture
/// accounts for: its steady-state call time × rounds ÷ `world.round_s`.
/// Needs the fixtures measured first.
pub fn report_stratus_round_share(layers: &mut MetricSet) {
    let get = |name: &str| layers.get(name).unwrap_or(0.0);
    let plan_s = get("baselines.stratus.steady_ms.n384") / 1e3 * get("world.rounds");
    let share = ratio(plan_s, get("world.round_s"));
    layers.set("baselines.stratus.round_share", share);
}
