//! `sweep_paper`: the paper's small and large traces × its five
//! schedulers × simulation seeds, through `SweepRunner` with a cold
//! `ReportCache`, as the `exp_*` binaries and `eva sweep` run.

use std::path::{Path, PathBuf};

use eva_engine::derive_seed;
use eva_sim::{run_simulation, ReportCache, SchedulerKind, SweepGrid, SweepResult, SweepRunner};
use eva_workloads::SyntheticTraceConfig;

use crate::host;
use crate::probe::{digest_json, Executed, Lap, Probe, Scenario};
use crate::spans::Interval;
use crate::stats;

pub struct Sweep {
    /// Pairs of one `small_scale` (32 jobs) and one `large_scale` (120
    /// jobs) trace. One pair would make every simulated metric the
    /// property of two small samples (their summed cost moved by 15 %
    /// from seed to seed); forty make it a property of the schedulers.
    pub trace_pairs: usize,
    /// Simulation seeds `1..=sim_seeds` per trace and scheduler.
    pub sim_seeds: u64,
    /// Worker threads of the pool.
    pub threads: usize,
}

/// The cache directory of one execution; removed when dropped.
pub struct CacheDir(PathBuf);

impl Drop for CacheDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub struct SweepReady {
    grid: SweepGrid,
    runner: SweepRunner,
    offered: u64,
    cache_dir: CacheDir,
}

fn dir_mib(dir: &Path) -> f64 {
    let bytes: u64 = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    bytes as f64 / (1024.0 * 1024.0)
}

impl Scenario for Sweep {
    type Ready = SweepReady;

    fn prepare(&self, seed: u64, probe: &mut Probe) -> SweepReady {
        let traces = probe.scope("workloads.generate", |_| {
            let mut traces = Vec::new();
            for k in 0..self.trace_pairs as u64 {
                let seed = derive_seed(seed, k);
                traces.push((
                    format!("small-{k}"),
                    SyntheticTraceConfig::small_scale().generate(seed),
                ));
                traces.push((
                    format!("large-{k}"),
                    SyntheticTraceConfig::large_scale().generate(seed),
                ));
            }
            traces
        });
        let jobs_per_block: usize = traces.iter().map(|(_, trace)| trace.len()).sum();
        let mut traces = traces.into_iter();
        let (label, trace) = traces.next().expect("at least one trace pair");
        let grid = traces
            .fold(SweepGrid::new(label, trace), |grid, (label, trace)| {
                grid.trace(label, trace)
            })
            .paper_schedulers()
            .seeds((1..=self.sim_seeds).collect::<Vec<_>>());
        let cache_dir = CacheDir(host::scratch_path("sweep-cache"));
        SweepReady {
            offered: (jobs_per_block * grid.schedulers_per_block()) as u64 * self.sim_seeds,
            runner: SweepRunner::new(self.threads).with_cache(ReportCache::new(&cache_dir.0)),
            grid,
            cache_dir,
        }
    }

    fn execute(&self, ready: SweepReady, probe: &mut Probe) -> Executed {
        let SweepReady {
            grid,
            runner,
            offered,
            cache_dir,
        } = &ready;
        let ((cold, pool), timed) =
            Lap::of(|| probe.scope("timed", |_| runner.run_with_stats(grid)));
        probe.check(cold.cells.len() == grid.cell_count(), || {
            format!(
                "{} of {} cells returned",
                cold.cells.len(),
                grid.cell_count()
            )
        });
        probe.check(pool.executed == pool.total && pool.cache_hits == 0, || {
            format!(
                "the cold pass did not simulate every cell: {}",
                pool.summary()
            )
        });
        if probe.tracer.is_some() {
            probe.layers.set("sweep.cells", pool.total as f64);
            probe.layers.set("sweep.executed", pool.executed as f64);
            probe.layers.set("sweep.cache_mb", dir_mib(&cache_dir.0));
            self.other_passes(grid, runner, &cold, timed.wall_s, probe);
        }
        let cells = cold.cells.len().max(1) as f64;
        let completed: u64 = cold.reports().map(|r| r.jobs_completed as u64).sum();
        Executed {
            timed,
            rates: vec![completed as f64 / timed.wall_s],
            offered: *offered,
            completed,
            cost_usd: cold.reports().map(|r| r.total_cost_dollars).sum(),
            jct_mean_h: cold.reports().map(|r| r.avg_jct_hours).sum::<f64>() / cells,
            digest: cold.cells.iter().fold(0, digest_json),
        }
    }
}

impl Sweep {
    /// Separates the sweep machinery from outside by running the same
    /// grid four more ways: warm from the cache, without a cache, on one
    /// thread, and cell by cell with no pool at all.
    fn other_passes(
        &self,
        grid: &SweepGrid,
        cached: &SweepRunner,
        cold: &SweepResult,
        cold_s: f64,
        probe: &mut Probe,
    ) {
        let cells = cold.cells.len() as f64;
        let pass = |name: &'static str, probe: &mut Probe, runner: &SweepRunner| {
            let ((result, pool), lap) =
                Lap::of(|| probe.scope(name, |_| runner.run_with_stats(grid)));
            let same = result == *cold;
            probe.check(same, || {
                format!("the {name} pass differs from the cold pass")
            });
            (same, pool, lap.wall_s)
        };
        let (warm_same, warm_pool, warm_s) = pass("sweep.warm", probe, cached);
        probe.check(warm_pool.cache_hits == warm_pool.total, || {
            format!("the warm pass missed the cache: {}", warm_pool.summary())
        });
        let (_, _, nocache_s) = pass("sweep.nocache", probe, &SweepRunner::new(self.threads));
        let (_, _, serial_s) = pass("sweep.serial", probe, &SweepRunner::new(1));

        let layers = &mut probe.layers;
        layers.set("sweep.cache_hits", warm_pool.cache_hits as f64);
        layers.set_flag("sweep.warm_matches_cold", warm_same);
        layers.set("sweep.cold_cells_per_s", cells / cold_s);
        layers.set("sweep.warm_cells_per_s", cells / warm_s);
        layers.set("sweep.nocache_cells_per_s", cells / nocache_s);
        layers.set("sweep.serial_cells_per_s", cells / serial_s);
        layers.set("sweep.pool_speedup", serial_s / nocache_s);
        layers.set(
            "sweep.store_ms_per_cell",
            (cold_s - nocache_s) * 1e3 / cells,
        );

        // Each cell on its own, as `run_simulation` runs it.
        #[derive(Default)]
        struct Sum {
            wall_ms: f64,
            cost: f64,
            jct: f64,
            full_rate: f64,
            cells: f64,
        }
        let (mut eva, mut no_packing) = (Sum::default(), Sum::default());
        let mut cell_ms = Vec::new();
        let tr = probe
            .tracer
            .as_mut()
            .expect("the extra passes belong to the traced run");
        tr.open("sweep.direct");
        for (cell, outcome) in grid.cells().iter().zip(&cold.cells) {
            let cfg = grid.cell_config(cell);
            let start_ns = tr.now_ns();
            let report = run_simulation(&cfg);
            let end_ns = tr.now_ns();
            tr.leaf("sweep.cell", Interval::call(start_ns, end_ns));
            let wall_ms = (end_ns - start_ns) as f64 / 1e6;
            cell_ms.push(wall_ms);
            if report != outcome.report {
                probe.failures.push(format!(
                    "cell {} run directly differs from the sweep's",
                    cell.index
                ));
            }
            let sum = match cell.scheduler {
                SchedulerKind::Eva(_) => &mut eva,
                SchedulerKind::NoPacking => &mut no_packing,
                _ => continue,
            };
            sum.wall_ms += wall_ms;
            sum.cost += report.total_cost_dollars;
            sum.jct += report.avg_jct_hours;
            sum.full_rate += report.full_reconfig_rate;
            sum.cells += 1.0;
        }
        tr.close();
        let cell = stats::tail(&cell_ms);
        let layers = &mut probe.layers;
        layers.set("sweep.cell_ms_p50", cell.p50);
        layers.set("sweep.cell_ms_p99", cell.tail);
        layers.set(
            "sweep.eva_cell_share",
            eva.wall_ms / cell_ms.iter().sum::<f64>(),
        );
        // Simulated, exact. PAPER.md holds no reference tables, so the
        // model is unvalidated against the paper and no error is given.
        layers.set("sweep.eva_norm_cost", eva.cost / no_packing.cost);
        layers.set("sweep.eva_norm_jct", eva.jct / no_packing.jct);
        layers.set("core.eva.full_rate", eva.full_rate / eva.cells);
    }
}
