//! Experiment configuration and the one-shot simulation entry point.
//!
//! The heavy lifting lives in the layered modules: [`crate::engine`]
//! (clock + event queue + RNG streams), [`crate::world`] (the
//! [`crate::ClusterSim`] cluster model), and [`crate::sweep`] (parallel
//! experiment grids). [`run_simulation`] remains the stable single-cell
//! entry point used throughout the repo.

use eva_cloud::FidelityMode;
use eva_core::EvaConfig;
use eva_types::SimDuration;
use eva_workloads::TraceHandle;

use crate::metrics::SimReport;
use crate::world::ClusterSim;

/// Which scheduler drives the run.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedulerKind {
    /// One reservation-price instance per task.
    NoPacking,
    /// Runtime-binned packing with perfect duration estimates.
    Stratus,
    /// Interference-aware best-fit packing.
    Synergy,
    /// Pair-profile scheduling (receives the ground-truth profile).
    Owl,
    /// Eva with the given configuration.
    Eva(EvaConfig),
}

impl SchedulerKind {
    /// Display name used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            SchedulerKind::NoPacking => "No-Packing",
            SchedulerKind::Stratus => "Stratus",
            SchedulerKind::Synergy => "Synergy",
            SchedulerKind::Owl => "Owl",
            SchedulerKind::Eva(_) => "Eva",
        }
    }

    /// Resolves a CLI-style scheduler name (the `eva` CLI's parser).
    pub fn from_name(name: &str) -> Result<SchedulerKind, String> {
        Ok(match name.to_ascii_lowercase().as_str() {
            "eva" => SchedulerKind::Eva(EvaConfig::eva()),
            "eva-rp" => SchedulerKind::Eva(EvaConfig::eva_rp()),
            "eva-single" => SchedulerKind::Eva(EvaConfig::eva_single()),
            "eva-full-only" => SchedulerKind::Eva(EvaConfig::without_partial()),
            "eva-partial-only" => SchedulerKind::Eva(EvaConfig::without_full()),
            "no-packing" | "nopacking" => SchedulerKind::NoPacking,
            "stratus" => SchedulerKind::Stratus,
            "synergy" => SchedulerKind::Synergy,
            "owl" => SchedulerKind::Owl,
            other => return Err(format!("unknown scheduler `{other}`")),
        })
    }

    /// Every name [`SchedulerKind::from_name`] accepts (canonical spellings
    /// only), for help text and validation.
    pub fn names() -> &'static [&'static str] {
        &[
            "eva",
            "eva-rp",
            "eva-single",
            "eva-full-only",
            "eva-partial-only",
            "no-packing",
            "stratus",
            "synergy",
            "owl",
        ]
    }

    /// The five schedulers of §6.1 in the paper's reporting order
    /// (No-Packing first: it is the normalization baseline).
    pub fn paper_set() -> Vec<SchedulerKind> {
        vec![
            SchedulerKind::NoPacking,
            SchedulerKind::Stratus,
            SchedulerKind::Synergy,
            SchedulerKind::Owl,
            SchedulerKind::Eva(EvaConfig::eva()),
        ]
    }
}

/// Ground-truth interference specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InterferenceSpec {
    /// The measured Figure 1 matrix.
    Measured,
    /// Uniform pairwise throughput (the §6.4 sweep).
    Uniform(f64),
}

impl InterferenceSpec {
    /// Stable textual form used in sweep-cell keys.
    pub fn label(&self) -> String {
        match self {
            InterferenceSpec::Measured => "measured".to_string(),
            InterferenceSpec::Uniform(t) => format!("uniform({t})"),
        }
    }
}

/// One simulation experiment.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The job trace, shared by handle — cloning a `SimConfig` is a
    /// reference-count bump, never a job-vector copy.
    pub trace: TraceHandle,
    /// The scheduler under test.
    pub scheduler: SchedulerKind,
    /// RNG seed (delays).
    pub seed: u64,
    /// Scheduling period (the paper uses 5 minutes).
    pub round_period: SimDuration,
    /// Delay-model fidelity (Table 12 contrasts these).
    pub fidelity: FidelityMode,
    /// Ground-truth interference.
    pub interference: InterferenceSpec,
    /// Multiplier on per-task checkpoint/launch delays (Figure 5).
    pub migration_delay_scale: f64,
    /// Adversarial fault axis: which regime (if any) to compile into a
    /// pre-run [`crate::FaultPlan`] and inject on both backends.
    pub faults: crate::FaultSpec,
    /// Release each completed job's arena slots back to a free list
    /// once its report contribution is summed, for the next arriving job
    /// to reuse, so live state tracks the in-flight window instead of
    /// every job ever admitted, in a batch world as in a streamed one
    /// (`eva serve` turns it on). Reports are byte-identical either way —
    /// the retirement lockstep test holds the two in lockstep per event.
    /// Not a sweep axis — cache fingerprints ignore it.
    pub retire_completed: bool,
}

impl SimConfig {
    /// Defaults matching the paper's main experiments. Accepts an owned
    /// [`eva_workloads::Trace`] or an existing [`TraceHandle`].
    pub fn new(trace: impl Into<TraceHandle>, scheduler: SchedulerKind) -> Self {
        SimConfig {
            trace: trace.into(),
            scheduler,
            seed: 42,
            round_period: SimDuration::from_mins(5),
            fidelity: FidelityMode::Stochastic,
            interference: InterferenceSpec::Measured,
            migration_delay_scale: 1.0,
            faults: crate::FaultSpec::none(),
            retire_completed: false,
        }
    }
}

/// Runs one simulation experiment end to end.
///
/// Thin wrapper over [`ClusterSim`]: builds the world for `cfg` and steps
/// it to completion. Kept as the stable entry point every experiment
/// binary and the sweep layer call.
pub fn run_simulation(cfg: &SimConfig) -> SimReport {
    ClusterSim::new(cfg).run()
}

/// Runs one experiment while recording the control-plane action stream
/// (see [`crate::script::ExecScript`]) — the schedule the live backend
/// replays through the real master/worker runtime.
pub fn run_recorded(cfg: &SimConfig) -> (SimReport, crate::script::ExecScript) {
    let mut sim = ClusterSim::new(cfg);
    sim.enable_recording();
    while sim.step() {}
    let script = sim.take_script();
    (crate::report::finalize(sim), script)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eva_workloads::{SyntheticTraceConfig, Trace};

    fn tiny_trace(jobs: usize) -> Trace {
        let cfg = SyntheticTraceConfig {
            num_jobs: jobs,
            mean_interarrival: SimDuration::from_mins(10),
            duration: eva_workloads::UniformHours::new(0.2, 0.6),
            single_task_only: false,
        };
        cfg.generate(99)
    }

    fn run(kind: SchedulerKind, jobs: usize) -> SimReport {
        let mut cfg = SimConfig::new(tiny_trace(jobs), kind);
        cfg.fidelity = FidelityMode::Nominal;
        run_simulation(&cfg)
    }

    #[test]
    fn all_jobs_complete_under_every_scheduler() {
        for kind in SchedulerKind::paper_set() {
            let label = kind.label();
            let report = run(kind, 10);
            assert_eq!(report.jobs_completed, 10, "{label}");
            assert!(report.total_cost_dollars > 0.0, "{label}");
            assert!(report.avg_jct_hours > 0.0, "{label}");
        }
    }

    #[test]
    fn no_packing_has_no_migrations_or_colocation() {
        let report = run(SchedulerKind::NoPacking, 8);
        assert_eq!(report.migrations_per_task, 0.0);
        // Setup time means the ratio dips below 1 task per billed hour.
        assert!(report.tasks_per_instance <= 1.0 + 1e-9);
        assert!(report.avg_norm_tput > 0.999, "no co-location, no slowdown");
    }

    #[test]
    fn packing_schedulers_cut_cost_versus_no_packing() {
        // A dense trace with enough concurrency for packing to matter.
        let cfg = SyntheticTraceConfig {
            num_jobs: 40,
            mean_interarrival: SimDuration::from_mins(4),
            duration: eva_workloads::UniformHours::new(1.0, 2.0),
            single_task_only: false,
        };
        let trace = cfg.generate(123);
        let mut base_cfg = SimConfig::new(trace.clone(), SchedulerKind::NoPacking);
        base_cfg.fidelity = FidelityMode::Nominal;
        let mut eva_cfg = SimConfig::new(trace, SchedulerKind::Eva(EvaConfig::eva()));
        eva_cfg.fidelity = FidelityMode::Nominal;
        let base = run_simulation(&base_cfg);
        let eva = run_simulation(&eva_cfg);
        assert!(
            eva.total_cost_dollars < base.total_cost_dollars,
            "Eva {} vs No-Packing {}",
            eva.total_cost_dollars,
            base.total_cost_dollars
        );
        assert!(eva.tasks_per_instance > base.tasks_per_instance);
    }

    #[test]
    fn jct_reflects_interference_for_packers() {
        let base = run(SchedulerKind::NoPacking, 12);
        let eva = run(SchedulerKind::Eva(EvaConfig::eva()), 12);
        // Packing can only slow jobs down (never below ground truth).
        assert!(eva.avg_jct_hours + 1e-9 >= base.avg_jct_hours * 0.99);
        assert!(eva.avg_norm_tput <= 1.0 + 1e-9);
    }

    #[test]
    fn uptime_cdf_is_well_formed() {
        let report = run(SchedulerKind::Stratus, 10);
        assert!(!report.uptime_cdf.is_empty());
        assert!(report.uptime_cdf.last().unwrap().density == 1.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = SimConfig::new(tiny_trace(8), SchedulerKind::Eva(EvaConfig::eva()));
        let a = run_simulation(&cfg);
        let b = run_simulation(&cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn uniform_interference_sweep_slows_packers() {
        let trace = tiny_trace(12);
        let mut mild = SimConfig::new(trace.clone(), SchedulerKind::Eva(EvaConfig::eva_rp()));
        mild.interference = InterferenceSpec::Uniform(1.0);
        mild.fidelity = FidelityMode::Nominal;
        let mut harsh = mild.clone();
        harsh.interference = InterferenceSpec::Uniform(0.8);
        let mild_r = run_simulation(&mild);
        let harsh_r = run_simulation(&harsh);
        // Eva-RP ignores interference, so harsher ground truth raises JCT.
        assert!(harsh_r.avg_jct_hours >= mild_r.avg_jct_hours - 1e-9);
        assert!(harsh_r.avg_norm_tput <= mild_r.avg_norm_tput + 1e-9);
    }

    #[test]
    fn migration_scale_reduces_eva_migrations() {
        // Needs enough jobs for the rate difference to rise above noise.
        let cfg = SyntheticTraceConfig {
            num_jobs: 60,
            mean_interarrival: SimDuration::from_mins(5),
            duration: eva_workloads::UniformHours::new(0.5, 2.0),
            single_task_only: true,
        };
        let trace = cfg.generate(321);
        let mut cheap = SimConfig::new(trace.clone(), SchedulerKind::Eva(EvaConfig::eva()));
        cheap.fidelity = FidelityMode::Nominal;
        let mut dear = cheap.clone();
        dear.migration_delay_scale = 32.0;
        let cheap_r = run_simulation(&cheap);
        let dear_r = run_simulation(&dear);
        assert!(
            dear_r.migrations_per_task <= cheap_r.migrations_per_task + 0.05,
            "dearer migration must not increase migration rate: {} vs {}",
            dear_r.migrations_per_task,
            cheap_r.migrations_per_task
        );
    }

    #[test]
    fn scheduler_names_round_trip() {
        for name in SchedulerKind::names() {
            let kind = SchedulerKind::from_name(name).unwrap();
            assert!(
                name.starts_with(&kind.label().to_ascii_lowercase()[..3]) || kind.label() == "Eva",
                "{name} resolves to {}",
                kind.label()
            );
        }
        assert_eq!(
            SchedulerKind::from_name("NoPacking").unwrap(),
            SchedulerKind::NoPacking,
            "case-insensitive alias"
        );
        assert!(SchedulerKind::from_name("slurm").is_err());
    }

    #[test]
    fn interference_labels_are_stable() {
        assert_eq!(InterferenceSpec::Measured.label(), "measured");
        assert_eq!(InterferenceSpec::Uniform(0.9).label(), "uniform(0.9)");
    }
}

#[cfg(test)]
mod robustness_tests {
    use super::*;
    use eva_types::{DemandSpec, JobId, JobSpec, ResourceVector, SimTime, TaskId, TaskSpec};
    use eva_workloads::Trace;

    #[test]
    fn unschedulable_jobs_are_dropped_not_hung() {
        // A job demanding 99 GPUs fits nothing; the sim must drop it and
        // still complete the feasible one.
        let mk = |id: u64, gpus: u32| JobSpec {
            id: JobId(id),
            arrival: SimTime::ZERO,
            tasks: vec![TaskSpec {
                id: TaskId::new(JobId(id), 0),
                workload: eva_types::WorkloadKind(0),
                demand: DemandSpec::uniform(ResourceVector::with_ram_gb(gpus, 4, 8)),
                checkpoint_delay: SimDuration::from_secs(2),
                launch_delay: SimDuration::from_secs(5),
            }],
            duration_at_full_tput: SimDuration::from_mins(30),
            gang_coupled: false,
        };
        let trace = Trace::new(vec![mk(1, 99), mk(2, 1)]);
        let report = run_simulation(&SimConfig::new(trace, SchedulerKind::NoPacking));
        assert_eq!(report.jobs_completed, 1);
    }

    #[test]
    fn empty_trace_yields_empty_report() {
        let report = run_simulation(&SimConfig::new(
            Trace::new(vec![]),
            SchedulerKind::NoPacking,
        ));
        assert_eq!(report.jobs_completed, 0);
        assert_eq!(report.total_cost_dollars, 0.0);
        assert_eq!(report.instances_launched, 0);
    }
}
