//! Adversarial fault axes: deterministic fault plans for both backends.
//!
//! A [`FaultSpec`] names a *regime* and an *intensity*; compiling it with
//! a master seed yields a [`FaultPlan`] — a timestamped event schedule
//! fixed **before** the run, as a pure function of
//! `(master_seed, regime, intensity, horizon)`. Both backends consume the
//! same plan: [`crate::ClusterSim`] injects provider- and exec-side
//! events through its event heap (tombstone-cancelable once the workload
//! drains), and the live replay injects the exec-side consequences
//! through the real master's command channel. Because the schedule is
//! identical on both sides, any sim-vs-live delta under faults measures
//! control-plane robustness — not injection noise.
//!
//! Provider-side regimes: [`FaultRegime::PreemptStorm`] (spot kills),
//! [`FaultRegime::CapacityShock`] (pool caps), [`FaultRegime::PriceStep`]
//! (dynamic price multipliers). Exec-side regimes:
//! [`FaultRegime::CkptDrop`] (destroyed checkpoints),
//! [`FaultRegime::Straggler`] (slowed containers),
//! [`FaultRegime::WorkerCrash`] (killed worker agents).

use rand::Rng;

use eva_engine::RngStreams;
use eva_types::{SimDuration, SimTime};
use eva_workloads::TraceHandle;

/// RNG stream feeding fault-plan compilation (0 = world-model delays,
/// 1 = live task-program seeds).
const FAULT_STREAM: u64 = 2;

/// Ceiling on compiled events per plan, so extreme intensities on long
/// traces stay bounded.
const MAX_FAULT_EVENTS: usize = 512;

/// How long past the last arrival faults keep striking. Long-tailed jobs
/// may outlive this window; the plan deliberately concentrates adversity
/// where the cluster is busiest.
const FAULT_TAIL: SimDuration = SimDuration::from_mins(24 * 60);

/// A named class of injected adversity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultRegime {
    /// No injection: the exact historical fault-free trajectory.
    None,
    /// Spot-preemption storm: live instances are killed outright. The
    /// world model grants the paper-style preemption warning — running
    /// tasks checkpoint at the kill instant — but the blob never survives
    /// to storage on the live runtime, which must re-execute the lost
    /// segment.
    PreemptStorm,
    /// Capacity shock: the provider pool is capped at half the live
    /// count for a window; provisions fail until capacity frees up.
    CapacityShock,
    /// Dynamic price steps: every hourly rate is multiplied by a drawn
    /// factor from each step instant onward.
    PriceStep,
    /// Dropped checkpoints: a running job loses a fraction of its
    /// completed work (sim) / a stored checkpoint blob is deleted (live).
    CkptDrop,
    /// Straggler containers: one instance's tasks run at a reduced
    /// throughput factor for a window.
    Straggler,
    /// Worker crashes: all tasks on one instance are killed; unlike a
    /// preemption the instance itself survives (and keeps billing).
    WorkerCrash,
}

impl FaultRegime {
    /// Stable textual form used in cell keys, fingerprints, and the CLI.
    pub fn label(&self) -> &'static str {
        match self {
            FaultRegime::None => "none",
            FaultRegime::PreemptStorm => "preempt-storm",
            FaultRegime::CapacityShock => "capacity-shock",
            FaultRegime::PriceStep => "price-step",
            FaultRegime::CkptDrop => "ckpt-drop",
            FaultRegime::Straggler => "straggler",
            FaultRegime::WorkerCrash => "worker-crash",
        }
    }

    /// Resolves a CLI-style regime name.
    pub fn from_name(name: &str) -> Result<FaultRegime, String> {
        Ok(match name.to_ascii_lowercase().as_str() {
            "none" => FaultRegime::None,
            "preempt-storm" => FaultRegime::PreemptStorm,
            "capacity-shock" => FaultRegime::CapacityShock,
            "price-step" => FaultRegime::PriceStep,
            "ckpt-drop" => FaultRegime::CkptDrop,
            "straggler" => FaultRegime::Straggler,
            "worker-crash" => FaultRegime::WorkerCrash,
            other => {
                return Err(format!(
                    "unknown fault regime `{other}` ({})",
                    FaultRegime::names().join("|")
                ))
            }
        })
    }

    /// Every name [`FaultRegime::from_name`] accepts.
    pub fn names() -> &'static [&'static str] {
        &[
            "none",
            "preempt-storm",
            "capacity-shock",
            "price-step",
            "ckpt-drop",
            "straggler",
            "worker-crash",
        ]
    }

    /// Mean injected events per simulated hour at intensity 1.
    fn base_rate_per_hour(&self) -> f64 {
        match self {
            FaultRegime::None => 0.0,
            FaultRegime::PreemptStorm => 4.0,
            FaultRegime::CapacityShock => 1.0,
            FaultRegime::PriceStep => 1.0,
            FaultRegime::CkptDrop => 2.0,
            FaultRegime::Straggler => 1.0,
            FaultRegime::WorkerCrash => 2.0,
        }
    }

    /// Window length for regimes whose effect spans an interval.
    fn window(&self) -> SimDuration {
        match self {
            FaultRegime::CapacityShock => SimDuration::from_mins(30),
            FaultRegime::Straggler => SimDuration::from_mins(45),
            _ => SimDuration::ZERO,
        }
    }
}

/// A fault axis value: regime plus intensity (an event-rate multiplier,
/// 1.0 = the regime's nominal storm).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// The regime to inject.
    pub regime: FaultRegime,
    /// Event-rate multiplier (> 0; ignored for [`FaultRegime::None`]).
    pub intensity: f64,
}

impl FaultSpec {
    /// The fault-free axis value.
    pub fn none() -> FaultSpec {
        FaultSpec {
            regime: FaultRegime::None,
            intensity: 0.0,
        }
    }

    /// A regime at nominal intensity 1.
    pub fn new(regime: FaultRegime) -> FaultSpec {
        FaultSpec {
            regime,
            intensity: if regime == FaultRegime::None {
                0.0
            } else {
                1.0
            },
        }
    }

    /// True for the fault-free spec.
    pub fn is_none(&self) -> bool {
        self.regime == FaultRegime::None
    }

    /// Parses the CLI form `REGIME[:INTENSITY]` (e.g. `preempt-storm`,
    /// `ckpt-drop:2.5`).
    pub fn parse(s: &str) -> Result<FaultSpec, String> {
        let (name, intensity) = match s.split_once(':') {
            None => (s, None),
            Some((name, raw)) => {
                let v: f64 = raw
                    .parse()
                    .map_err(|_| format!("bad fault intensity `{raw}`"))?;
                if !v.is_finite() || v <= 0.0 {
                    return Err(format!("fault intensity must be positive, got `{raw}`"));
                }
                (name, Some(v))
            }
        };
        let regime = FaultRegime::from_name(name)?;
        if regime == FaultRegime::None && intensity.is_some() {
            return Err("regime `none` takes no intensity".to_string());
        }
        let mut spec = FaultSpec::new(regime);
        if let Some(v) = intensity {
            spec.intensity = v;
        }
        Ok(spec)
    }

    /// Stable textual form folded into cell keys and cache fingerprints
    /// (`none`, `preempt-storm:1`, `ckpt-drop:2.5`, …).
    pub fn label(&self) -> String {
        if self.is_none() {
            "none".to_string()
        } else {
            format!("{}:{}", self.regime.label(), self.intensity)
        }
    }
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec::none()
    }
}

/// What one compiled fault event does when it fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// Kill one live instance (victim chosen at fire time by `draw`).
    Preempt,
    /// Cap the provider pool at half the live count until `until`.
    CapacityShock {
        /// When the shock lifts.
        until: SimTime,
    },
    /// Multiply every hourly rate by `factor` from this instant on.
    PriceStep {
        /// The drawn multiplier, in `[0.5, 2.0)`.
        factor: f64,
    },
    /// Destroy the latest checkpoint of one running job.
    CkptDrop,
    /// Slow one instance's tasks to `factor` × throughput until `until`.
    Straggler {
        /// When the straggler recovers.
        until: SimTime,
        /// Throughput multiplier in `(0, 1)`.
        factor: f64,
    },
    /// Kill every task on one instance; the instance itself survives.
    WorkerCrash,
}

/// One pre-compiled fault event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// When the fault strikes.
    pub at: SimTime,
    /// What it does.
    pub action: FaultAction,
    /// Pre-drawn randomness for fire-time victim selection (`draw % n`
    /// over the deterministically ordered candidate set).
    pub draw: u64,
}

/// The full timestamped fault schedule of one run, compiled before the
/// run starts.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// The compiled events in strictly increasing time order.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Compiles the plan for a run over `trace` — the shared entry point,
    /// so the world model and the live replay derive *identical*
    /// schedules from one `(seed, spec, trace)` triple.
    pub fn for_trace(spec: FaultSpec, master_seed: u64, trace: &TraceHandle) -> FaultPlan {
        FaultPlan::compile(spec, master_seed, fault_horizon(trace))
    }

    /// Compiles `(master_seed, regime, intensity)` into a timestamped
    /// schedule over `[0, horizon)`: one event per expected-rate slot,
    /// jittered within its slot (strictly monotone), every event carrying
    /// a pre-drawn victim-selection word.
    pub fn compile(spec: FaultSpec, master_seed: u64, horizon: SimDuration) -> FaultPlan {
        let rate = spec.regime.base_rate_per_hour() * spec.intensity;
        let horizon_hours = horizon.as_hours_f64();
        if rate <= 0.0 || horizon_hours <= 0.0 {
            return FaultPlan::default();
        }
        let n = ((rate * horizon_hours).ceil() as usize).clamp(1, MAX_FAULT_EVENTS);
        let slot_hours = horizon_hours / n as f64;
        let window = spec.regime.window();
        let mut rng = RngStreams::new(master_seed).stream(FAULT_STREAM);
        let mut events = Vec::with_capacity(n);
        for k in 0..n {
            let jitter: f64 = rng.gen();
            let at = SimTime::ZERO + SimDuration::from_hours_f64((k as f64 + jitter) * slot_hours);
            let draw: u64 = rng.gen();
            let action = match spec.regime {
                FaultRegime::None => unreachable!("rate is zero for None"),
                FaultRegime::PreemptStorm => FaultAction::Preempt,
                FaultRegime::CapacityShock => FaultAction::CapacityShock { until: at + window },
                FaultRegime::PriceStep => {
                    let u: f64 = rng.gen();
                    FaultAction::PriceStep {
                        factor: 0.5 + 1.5 * u,
                    }
                }
                FaultRegime::CkptDrop => FaultAction::CkptDrop,
                FaultRegime::Straggler => FaultAction::Straggler {
                    until: at + window,
                    factor: (1.0 / (1.0 + spec.intensity)).max(0.05),
                },
                FaultRegime::WorkerCrash => FaultAction::WorkerCrash,
            };
            events.push(FaultEvent { at, action, draw });
        }
        FaultPlan { events }
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of compiled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }
}

/// The window faults strike in: the trace's arrival span plus a fixed
/// tail. A pure function of the trace, so both backends agree on it.
fn fault_horizon(trace: &TraceHandle) -> SimDuration {
    let last_arrival = trace
        .jobs()
        .iter()
        .map(|j| j.arrival)
        .max()
        .unwrap_or(SimTime::ZERO);
    last_arrival.duration_since(SimTime::ZERO) + FAULT_TAIL
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parse_round_trips_and_validates() {
        for name in FaultRegime::names() {
            let spec = FaultSpec::parse(name).unwrap();
            assert_eq!(spec.regime.label(), *name);
            assert_eq!(FaultSpec::parse(&spec.label()).unwrap(), spec);
        }
        let spec = FaultSpec::parse("ckpt-drop:2.5").unwrap();
        assert_eq!(spec.regime, FaultRegime::CkptDrop);
        assert_eq!(spec.intensity, 2.5);
        assert_eq!(spec.label(), "ckpt-drop:2.5");
        assert!(FaultSpec::parse("meteor-strike").is_err());
        assert!(FaultSpec::parse("straggler:-1").is_err());
        assert!(FaultSpec::parse("straggler:zero").is_err());
        assert!(FaultSpec::parse("none:2").is_err());
        assert_eq!(FaultSpec::none().label(), "none");
    }

    #[test]
    fn compiled_plans_are_deterministic_and_monotone() {
        let spec = FaultSpec::parse("preempt-storm:1.5").unwrap();
        let horizon = SimDuration::from_hours_f64(6.0);
        let a = FaultPlan::compile(spec, 42, horizon);
        let b = FaultPlan::compile(spec, 42, horizon);
        assert_eq!(a, b, "same inputs, same schedule");
        assert!(!a.is_empty());
        for w in a.events.windows(2) {
            assert!(w[0].at < w[1].at, "strictly increasing timestamps");
        }
        let other = FaultPlan::compile(spec, 43, horizon);
        assert_ne!(a, other, "different seeds diverge");
    }

    #[test]
    fn none_compiles_to_an_empty_plan() {
        let plan = FaultPlan::compile(FaultSpec::none(), 7, SimDuration::from_hours_f64(100.0));
        assert!(plan.is_empty());
        assert_eq!(plan.len(), 0);
    }

    #[test]
    fn intensity_scales_event_count() {
        let horizon = SimDuration::from_hours_f64(10.0);
        let mild = FaultPlan::compile(FaultSpec::parse("worker-crash:0.5").unwrap(), 1, horizon);
        let harsh = FaultPlan::compile(FaultSpec::parse("worker-crash:4").unwrap(), 1, horizon);
        assert!(harsh.len() > mild.len());
        let extreme = FaultPlan::compile(FaultSpec::parse("worker-crash:1e9").unwrap(), 1, horizon);
        assert_eq!(extreme.len(), MAX_FAULT_EVENTS, "event count is capped");
    }

    #[test]
    fn windowed_regimes_carry_their_windows() {
        let plan = FaultPlan::compile(
            FaultSpec::parse("straggler").unwrap(),
            9,
            SimDuration::from_hours_f64(4.0),
        );
        for ev in &plan.events {
            match ev.action {
                FaultAction::Straggler { until, factor } => {
                    assert!(until > ev.at);
                    assert!(factor > 0.0 && factor < 1.0);
                }
                other => panic!("unexpected action {other:?}"),
            }
        }
    }
}
