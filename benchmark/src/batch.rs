//! `batch_stratus` and `batch_eva`: a synthetic trace interned up front
//! by `ClusterSim::new`, stepped to exhaustion, then `run()`.

use eva_core::EvaConfig;
use eva_engine::derive_seed;
use eva_sim::{ClusterSim, SchedulerKind, SimConfig, SimReport};
use eva_workloads::SyntheticTraceConfig;

use crate::drive::{drive, drive_traced};
use crate::probe::{digest_json, Executed, Lap, Probe, Scenario};
use crate::world::{self, WorldStats};

/// The batch path under one scheduler.
pub struct Batch {
    pub scheduler: SchedulerKind,
    /// Jobs per trace; arrivals and durations are `huge_100k`'s.
    pub jobs: usize,
    /// Independent traces per execution, each simulated in a fresh
    /// world, one after the other.
    pub traces: usize,
}

impl Batch {
    pub fn stratus(jobs: usize) -> Self {
        Batch {
            scheduler: SchedulerKind::Stratus,
            jobs,
            traces: 1,
        }
    }

    /// Eva's `plan` time at one standing load differs by a factor of two
    /// from trace to trace (about one seed in eight settles into a slow
    /// regime for the rest of its run), so one 1 500-job trace would tie
    /// the metric to the seed. Several traces, with the median of their
    /// rates reported, do not.
    pub fn eva(jobs: usize, traces: usize) -> Self {
        Batch {
            scheduler: SchedulerKind::Eva(EvaConfig::eva()),
            jobs,
            traces,
        }
    }
}

impl Scenario for Batch {
    type Ready = Vec<ClusterSim>;

    fn prepare(&self, seed: u64, probe: &mut Probe) -> Vec<ClusterSim> {
        let shape = SyntheticTraceConfig {
            num_jobs: self.jobs,
            ..SyntheticTraceConfig::huge_100k()
        };
        (0..self.traces as u64)
            .map(|k| {
                // The first trace is `generate(seed)` itself, so that
                // `serve_stratus` streams the very jobs `batch_stratus` interns.
                let trace = probe.scope("workloads.generate", |_| {
                    shape.generate(derive_seed(seed, k))
                });
                let cfg = SimConfig::new(trace, self.scheduler.clone());
                probe.scope("world.build", |_| ClusterSim::new(&cfg))
            })
            .collect()
    }

    fn execute(&self, sims: Vec<ClusterSim>, probe: &mut Probe) -> Executed {
        let mut world = WorldStats::default();
        let mut timed = Lap::default();
        let mut rates = Vec::new();
        let mut reports: Vec<SimReport> = Vec::new();
        probe.scope("timed", |probe| {
            for mut sim in sims {
                let ((), mut lap) = Lap::of(|| match probe.tracer.as_mut() {
                    Some(tr) => drive_traced(&mut sim, tr, &mut world.steps, None, |_, _| {}),
                    None => drive(&mut sim),
                });
                let (report, finalize) = world::finish(sim, probe, &mut world);
                lap.add(finalize);
                rates.push(report.jobs_completed as f64 / lap.wall_s);
                timed.add(lap);
                reports.push(report);
            }
        });
        if probe.tracer.is_some() {
            world::report(&world, probe);
            let full_rate =
                reports.iter().map(|r| r.full_reconfig_rate).sum::<f64>() / reports.len() as f64;
            probe.layers.set("core.eva.full_rate", full_rate);
            if self.scheduler == SchedulerKind::Stratus {
                world::report_stratus_round_share(&mut probe.layers);
            }
        }
        Executed {
            timed,
            rates,
            offered: (self.jobs * self.traces) as u64,
            completed: reports.iter().map(|r| r.jobs_completed as u64).sum(),
            cost_usd: reports.iter().map(|r| r.total_cost_dollars).sum(),
            jct_mean_h: reports.iter().map(|r| r.avg_jct_hours).sum::<f64>() / reports.len() as f64,
            digest: reports.iter().fold(0, digest_json),
        }
    }
}
