//! `eva repro`: the paper's tables and figures, one function each.
//!
//! Every function prints the rows the paper reports and writes its
//! machine-readable artifact to `results/`. Simulated tables declare
//! their `(scheduler × trace × …)` cells as one [`SweepGrid`] and run
//! them on the CLI's [`SweepRunner`] (`--threads`, and the report cache
//! only under `--cache`/`--cache-dir`), so their output is byte-identical
//! for any worker count. `--faults REGIME[:INTENSITY]` becomes the fault
//! axis of every grid, and fault-plan fingerprints are part of every
//! cache key. Scales default to laptop-friendly sizes; `--full` runs the
//! paper-sized configurations (e.g. the full 6,274-job trace).
//!
//! Tables 4 and 5 time the algorithms themselves (Full Reconfiguration,
//! branch-and-bound) on synthetic task sets: they run their trials in a
//! plain serial loop, never through the cache, so every runtime they
//! print was measured by this run.

use std::path::Path;
use std::time::{Duration, Instant};

use eva::core::{full_reconfiguration, ReservationPrices, TnrpEvaluator, UnitTput};
use eva::prelude::*;
use eva::sim::InterferenceSpec;
use eva::solver::{branch_and_bound, BnbConfig, Item, PackingProblem};
use eva::workloads::{
    AlibabaDurations, DurationSampler, GavelDurations, MultiGpuMix, MultiTaskMix, UniformHours,
    TABLE8_GPU_MIX,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// What every table reads from the command line.
pub(crate) struct Repro {
    /// Runs the simulated tables' grids.
    pub(crate) runner: SweepRunner,
    /// The injected fault regime; `none` is fault-free, the default.
    pub(crate) faults: FaultSpec,
    /// Paper-scale configurations instead of the laptop-sized defaults.
    pub(crate) full: bool,
}

type Table = fn(&Repro) -> Result<(), String>;

/// Every table and figure `eva repro` reproduces, in paper order.
const TABLES: [(&str, Table); 19] = [
    ("fig1", fig1),
    ("table1", table1),
    ("table4", table4),
    ("table5", table5),
    ("table6", table6),
    ("table7", table7),
    ("table8", table8),
    ("table9", table9),
    ("table10", table10),
    ("table11", table11),
    ("table12", table12),
    ("table13", table13),
    ("table14", table14),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("ablations", ablations),
];

/// Checks that `name` is a table `eva repro` knows, or `all`.
pub(crate) fn check(name: &str) -> Result<(), String> {
    if name == "all" || TABLES.iter().any(|(n, _)| *n == name) {
        return Ok(());
    }
    let names = TABLES.map(|(n, _)| n).join(", ");
    match name {
        "" => Err(format!("repro needs a table: one of {names}, all")),
        _ => Err(format!("unknown table `{name}` (one of: {names}, all)")),
    }
}

/// Reproduces `name`, or every table in paper order for `all`.
pub(crate) fn run(name: &str, repro: &Repro) -> Result<(), String> {
    for (table_name, table) in TABLES {
        if name == "all" || name == table_name {
            table(repro)?;
        }
    }
    Ok(())
}

impl Repro {
    /// `full` under `--full`, `small` otherwise.
    fn scale<T>(&self, full: T, small: T) -> T {
        if self.full {
            full
        } else {
            small
        }
    }

    /// Runs `grid` under `--faults` (announcing an injected regime) and
    /// prints the cells line.
    fn run_grid(&self, grid: SweepGrid) -> SweepResult {
        let grid = if self.faults.is_none() {
            grid
        } else {
            println!("   [faults: {}]", self.faults.label());
            grid.faults(vec![self.faults])
        };
        let (result, stats) = self.runner.run_with_stats(&grid);
        println!("   [cells: {}]", stats.summary());
        result
    }

    /// Runs one trace under several schedulers, printing paper-style rows
    /// in declaration order (the first scheduler is the normalization
    /// baseline), and returns the reports.
    fn run_and_print(
        &self,
        trace: &Trace,
        kinds: Vec<SchedulerKind>,
        header: &str,
    ) -> Vec<SimReport> {
        println!("== {header} ==");
        println!(
            "   trace: {} jobs, arrival span {:.1}h",
            trace.len(),
            trace.stats().arrival_span_hours
        );
        let grid = add_schedulers(SweepGrid::new("trace", trace.clone()), kinds);
        let reports: Vec<SimReport> = self
            .run_grid(grid)
            .cells
            .into_iter()
            .map(|c| c.report)
            .collect();
        for (i, report) in reports.iter().enumerate() {
            let baseline = (i > 0).then(|| &reports[0]);
            println!("{}", report.table_row(baseline));
        }
        reports
    }
}

/// Declares `kinds` on `grid` with unique names (duplicate report labels —
/// e.g. several Eva variants — get a positional suffix).
fn add_schedulers(mut grid: SweepGrid, kinds: Vec<SchedulerKind>) -> SweepGrid {
    let mut seen: Vec<String> = Vec::new();
    for kind in kinds {
        let base = kind.label().to_string();
        let name = if seen.contains(&base) {
            format!("{base}#{}", seen.iter().filter(|s| **s == base).count() + 1)
        } else {
            base.clone()
        };
        seen.push(base);
        grid = grid.scheduler(name, kind);
    }
    grid
}

/// Writes a JSON artifact to `results/<name>` under the working directory.
fn save_json<T: Serialize>(name: &str, value: &T) -> Result<(), String> {
    let path = Path::new("results").join(name);
    let json = serde_json::to_string_pretty(value).map_err(|e| format!("{name}: {e}"))?;
    std::fs::create_dir_all("results")
        .and_then(|()| std::fs::write(&path, json))
        .map_err(|e| format!("could not write {}: {e}", path.display()))?;
    println!("   [saved {}]", path.display());
    Ok(())
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

fn std_dev(v: &[f64]) -> f64 {
    let m = mean(v);
    (v.iter().map(|x| (x - m).powi(2)).sum::<f64>() / v.len() as f64).sqrt()
}

/// The Alibaba trace of Figures 4–8 and the ablations: `jobs` jobs at the
/// paper's arrival rate, or the full 6,274 under `--full`.
fn alibaba(repro: &Repro, jobs: usize, seed: u64) -> Trace {
    let mut tc = AlibabaTraceConfig::full(DurationModelChoice::Alibaba);
    tc.num_jobs = repro.scale(6_274, jobs);
    tc.generate(seed)
}

/// Prints one row per block of `result`: its label, then each later
/// scheduler's total cost as a share of the block's first (No-Packing)
/// cell. `head` names the columns and `widths` sizes them, the label's
/// first.
fn print_cost_vs_np(head: &[&str], widths: &[usize], labels: &[String], result: &SweepResult) {
    let mut line = format!("{:<w$}", head[0], w = widths[0]);
    for (name, w) in head[1..].iter().zip(&widths[1..]) {
        line += &format!(" {name:>w$}");
    }
    println!("{line}");
    for (label, block) in labels.iter().zip(result.blocks()) {
        let np = block[0].report.total_cost_dollars;
        let mut line = format!("{label:<w$}", w = widths[0]);
        for (cell, w) in block[1..].iter().zip(&widths[1..]) {
            let share = 100.0 * cell.report.total_cost_dollars / np;
            line += &format!(" {share:>w$.1}%", w = w - 1);
        }
        println!("{line}");
    }
}

/// Figure 1: the measured 8×8 pairwise co-location throughput matrix the
/// simulator uses as ground truth.
fn fig1(_: &Repro) -> Result<(), String> {
    println!("== Figure 1: co-location throughput matrix ==");
    let catalog = WorkloadCatalog::table7();
    let model = InterferenceModel::measured(&catalog);
    // The catalog entry behind each row; ResNet18 is its 2-task job.
    let reps = [
        "ResNet18-2",
        "GraphSAGE",
        "CycleGAN",
        "GPT2",
        "GCN",
        "OpenFOAM",
        "Diamond",
        "A3C",
    ];
    let names = reps.map(|rep| rep.trim_end_matches("-2"));
    print!("{:<10}", "");
    for n in names {
        print!("{n:>10}");
    }
    println!();
    let kind = |rep: &str| catalog.by_name(rep).expect("a Table 7 workload").kind;
    for (i, rep1) in reps.iter().enumerate() {
        print!("{:<10}", names[i]);
        for rep2 in reps {
            print!("{:>10.2}", model.pairwise(kind(rep1), kind(rep2)));
        }
        println!();
    }
    println!("\nSpot checks (paper values): GPT2|ResNet18 = 0.79, GCN|A3C = 0.65, CycleGAN|GraphSAGE = 1.00");
    Ok(())
}

/// Table 1: range and mean of each reconfiguration delay, from 126
/// instance provisionings of the Table 1 delay model and 120 job
/// migrations of the Table 7 workloads.
fn table1(_: &Repro) -> Result<(), String> {
    fn stats(label: &str, secs: &[f64]) {
        let min = secs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = secs.iter().cloned().fold(0.0f64, f64::max);
        println!(
            "{label:<22} {min:>5.0} – {max:<5.0}  avg {:>5.0} s",
            mean(secs)
        );
    }
    println!("== Table 1: reconfiguration delays ==");
    let model = DelayModel::table1(FidelityMode::Stochastic);
    let mut rng = StdRng::seed_from_u64(1);
    let mut acq = Vec::new();
    let mut setup = Vec::new();
    for _ in 0..126 {
        let s = model.sample(&mut rng);
        acq.push(s.acquisition.as_secs_f64());
        setup.push(s.setup.as_secs_f64());
    }
    stats("Instance Acquisition", &acq);
    stats("Instance Setup", &setup);

    let catalog = WorkloadCatalog::table7();
    let workloads: Vec<_> = catalog.iter().collect();
    let mut ckpt = Vec::new();
    let mut launch = Vec::new();
    for _ in 0..120 {
        let w = workloads[rng.gen_range(0..workloads.len())];
        ckpt.push(w.checkpoint_delay.as_secs_f64());
        launch.push(w.launch_delay.as_secs_f64());
    }
    stats("Job Checkpointing", &ckpt);
    stats("Job Launching", &launch);
    Ok(())
}

/// `n` single-task snapshots sampled uniformly from the Table 7 workload
/// pool under a fixed seed: the task population of Tables 4 and 5.
fn random_tasks(seed: u64, n: usize) -> Vec<TaskSnapshot> {
    let workloads = WorkloadCatalog::table7();
    let pool: Vec<_> = workloads.iter().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let w = pool[rng.gen_range(0..pool.len())];
            TaskSnapshot::new(TaskId::new(JobId(i as u64), 0), w.kind, w.demand)
        })
        .collect()
}

/// One Table 4 trial's measurements.
#[derive(Serialize)]
struct Table4Trial {
    trial: usize,
    np_ratio: f64,
    fr_ratio: f64,
    fr_runtime_ms: f64,
    solver_timed_out: bool,
}

/// Table 4: No-Packing and Full Reconfiguration against the exact
/// branch-and-bound solver (the Gurobi stand-in) under a time limit, on
/// trials of 200 tasks sampled from Table 7. Costs are normalized to the
/// solver's best solution per trial, as in the paper.
fn table4(repro: &Repro) -> Result<(), String> {
    let trials = repro.scale(30, 10);
    let tasks_per_trial = 200;
    let time_limit = repro.scale(Duration::from_secs(1800), Duration::from_secs(10));
    println!("== Table 4: cost minimization micro-benchmark ({trials} trials × {tasks_per_trial} tasks, solver limit {time_limit:?}) ==");
    let catalog = Catalog::aws_eval_2025();
    let results: Vec<Table4Trial> = (0..trials)
        .map(|trial| {
            let tasks = random_tasks(1000 + trial as u64, tasks_per_trial);
            let prices = ReservationPrices::compute(&catalog, tasks.iter());
            let no_packing: f64 = tasks.iter().map(|t| prices.rp_dollars(t.id)).sum();
            let eval = TnrpEvaluator::new(&UnitTput, &prices, true);
            let t0 = Instant::now();
            let fr = full_reconfiguration(&tasks, &catalog, &eval);
            let fr_runtime_ms = t0.elapsed().as_secs_f64() * 1e3;
            let items: Vec<Item> = tasks
                .iter()
                .enumerate()
                .map(|(i, t)| Item {
                    id: i,
                    demand: t.demand,
                })
                .collect();
            let problem = PackingProblem::new(items, catalog.clone());
            let solution = branch_and_bound(
                &problem,
                BnbConfig {
                    time_limit,
                    ..Default::default()
                },
            );
            Table4Trial {
                trial,
                np_ratio: no_packing / solution.cost_dollars,
                fr_ratio: fr.total_cost_dollars() / solution.cost_dollars,
                fr_runtime_ms,
                solver_timed_out: !solution.proven_optimal,
            }
        })
        .collect();
    save_json("table4.json", &results)?;

    let np_ratio: Vec<f64> = results.iter().map(|r| r.np_ratio).collect();
    let fr_ratio: Vec<f64> = results.iter().map(|r| r.fr_ratio).collect();
    let fr_runtime_ms: Vec<f64> = results.iter().map(|r| r.fr_runtime_ms).collect();
    let solver_timeouts = results.iter().filter(|r| r.solver_timed_out).count();
    println!(
        "{:<16} {:>18} {:>12}",
        "Scheduler", "Provisioning Cost", "Runtime"
    );
    println!(
        "{:<16} {:>10.2} ± {:.2}x {:>10}",
        "No-Packing",
        mean(&np_ratio),
        std_dev(&np_ratio),
        "—"
    );
    println!(
        "{:<16} {:>10.2} ± {:.2}x {:>9.0}ms",
        "Full Reconfig.",
        mean(&fr_ratio),
        std_dev(&fr_ratio),
        mean(&fr_runtime_ms)
    );
    println!(
        "{:<16} {:>10}x {:>12} (timed out in {solver_timeouts}/{trials} trials)",
        "ILP (B&B)",
        "1.00",
        format!("≤{time_limit:?}")
    );
    Ok(())
}

/// One Table 5 scaling point.
#[derive(Serialize)]
struct Table5Row {
    num_tasks: usize,
    runtime_s: f64,
    instances: usize,
}

/// Table 5: Full Reconfiguration's runtime over 1,000–8,000 tasks sampled
/// from Table 7. The paper reports 0.4 s / 1.5 s / 5.5 s / 22 s in
/// Python, a quadratic shape; this port scans class heads instead of
/// tasks, so its times grow with tasks × classes (read `runtime_s` in the
/// artifact: the printed table rounds to a millisecond).
fn table5(repro: &Repro) -> Result<(), String> {
    println!("== Table 5: Full Reconfiguration runtime ==");
    let sizes = repro.scale(&[1000, 2000, 4000, 8000][..], &[1000, 2000, 4000][..]);
    let catalog = Catalog::aws_eval_2025();
    let results: Vec<Table5Row> = sizes
        .iter()
        .map(|&n| {
            let tasks = random_tasks(n as u64, n);
            let prices = ReservationPrices::compute(&catalog, tasks.iter());
            let eval = TnrpEvaluator::new(&UnitTput, &prices, true);
            let t0 = Instant::now();
            let config = full_reconfiguration(&tasks, &catalog, &eval);
            Table5Row {
                num_tasks: n,
                runtime_s: t0.elapsed().as_secs_f64(),
                instances: config.instances.len(),
            }
        })
        .collect();
    save_json("table5.json", &results)?;
    println!("{:<12} {:>12}", "Num. Tasks", "Runtime (s)");
    for row in &results {
        println!(
            "{:<12} {:>12.3}   ({} instances)",
            row.num_tasks, row.runtime_s, row.instances
        );
    }
    Ok(())
}

/// A trace of `num_jobs` gang-coupled 4-task jobs of single-task Table 7
/// workloads, durations uniform over 0.5–16 h.
fn gang_trace(seed: u64, num_jobs: usize) -> Trace {
    let catalog = WorkloadCatalog::table7();
    let pool: Vec<_> = catalog.iter().filter(|w| w.num_tasks == 1).collect();
    let durations = UniformHours::new(0.5, 16.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut now = SimTime::ZERO;
    let jobs = (0..num_jobs)
        .map(|i| {
            now += SimDuration::from_hours_f64(-0.33 * (1.0f64 - rng.gen::<f64>()).ln());
            let w = pool[rng.gen_range(0..pool.len())];
            let mut job = w.job_spec(JobId(i as u64), now, durations.sample(&mut rng));
            let template = job.tasks[0].clone();
            job.tasks = (0..4)
                .map(|k| {
                    let mut t = template.clone();
                    t.id = TaskId::new(job.id, k);
                    t
                })
                .collect();
            job.gang_coupled = true;
            job
        })
        .collect();
    Trace::new(jobs)
}

/// Table 6: gang-coupled 4-task jobs under No-Packing, Eva-Single (tasks
/// treated independently) and Eva-Multi (the §4.4 extension), one trace
/// per trial. Eva-Multi should cost less *and* finish sooner than
/// Eva-Single.
fn table6(repro: &Repro) -> Result<(), String> {
    let trials = repro.scale(10, 4);
    let jobs = repro.scale(100, 60);
    println!("== Table 6: multi-task job scheduling ({trials} trials × {jobs} 4-task jobs) ==");
    let mut grid = SweepGrid::new("trial0", gang_trace(7000, jobs))
        .scheduler("No-Packing", SchedulerKind::NoPacking)
        .scheduler("Eva-Single", SchedulerKind::Eva(EvaConfig::eva_single()))
        .scheduler("Eva-Multi", SchedulerKind::Eva(EvaConfig::eva()));
    for trial in 1..trials {
        grid = grid.trace(
            format!("trial{trial}"),
            gang_trace(7000 + trial as u64, jobs),
        );
    }
    let result = repro.run_grid(grid);
    save_json("table6.json", &result)?;

    // One comparison block per trial; the first entry is the baseline.
    let mut rows: Vec<(&str, Vec<f64>, Vec<f64>)> = vec![
        ("No-Packing", Vec::new(), Vec::new()),
        ("Eva-Single", Vec::new(), Vec::new()),
        ("Eva-Multi", Vec::new(), Vec::new()),
    ];
    for block in result.blocks() {
        let base = block[0].report.total_cost_dollars;
        for (row, cell) in rows.iter_mut().zip(block) {
            row.1.push(cell.report.total_cost_dollars / base);
            row.2.push(cell.report.avg_jct_hours);
        }
    }
    println!(
        "{:<12} {:>20} {:>16}",
        "Scheduler", "Norm. Total Cost", "JCT (hours)"
    );
    for (name, costs, jcts) in rows {
        println!(
            "{name:<12} {:>11.1}% ± {:>4.1}% {:>8.2} ± {:.2}",
            100.0 * mean(&costs),
            100.0 * std_dev(&costs),
            mean(&jcts),
            std_dev(&jcts)
        );
    }
    Ok(())
}

/// Table 7: the evaluated workloads.
fn table7(_: &Repro) -> Result<(), String> {
    println!("== Table 7: evaluated workloads ==");
    println!(
        "{:<12} {:<28} {:>4} {:>9} {:>8} {:>6} {:>7} {:>6}",
        "Workload", "Domain", "GPU", "CPU(P3)", "CPU(c7i)", "RAM", "Ckpt", "Launch"
    );
    for w in WorkloadCatalog::table7().iter() {
        let d = &w.demand;
        println!(
            "{:<12} {:<28} {:>4} {:>9} {:>8} {:>4}GB {:>6.0}s {:>5.0}s   ({} task{}{})",
            w.name,
            w.domain,
            d.default.gpu,
            d.default.cpu,
            d.for_family("c7i").cpu,
            d.default.ram_mb / 1024,
            w.checkpoint_delay.as_secs_f64(),
            w.launch_delay.as_secs_f64(),
            w.num_tasks,
            if w.num_tasks > 1 { "s" } else { "" },
            if w.gang_coupled { ", gang-coupled" } else { "" },
        );
    }
    Ok(())
}

/// Table 8: the Alibaba trace's composition by GPU demand.
fn table8(_: &Repro) -> Result<(), String> {
    println!("== Table 8: job composition by GPU demand ==");
    let mut cfg = AlibabaTraceConfig::full(DurationModelChoice::Alibaba);
    cfg.num_jobs = 50_000; // Large sample for tight percentages.
    let stats = cfg.generate(8).stats();
    println!("{:<12} {:>12} {:>12}", "GPU Demand", "Paper", "Generated");
    for (gpus, p) in TABLE8_GPU_MIX {
        println!(
            "{gpus:<12} {:>11.2}% {:>11.2}%",
            100.0 * p,
            100.0 * stats.gpu_fraction(gpus)
        );
    }
    Ok(())
}

/// Table 9: quantiles of the two job-duration models.
fn table9(_: &Repro) -> Result<(), String> {
    fn row(name: &str, hours: &mut [f64], paper: [f64; 4]) {
        hours.sort_by(f64::total_cmp);
        let q = |p: f64| hours[((hours.len() - 1) as f64 * p).round() as usize];
        println!(
            "{name:<10} mean {:>6.1}h (paper {:>5.1})  median {:>5.1} ({:>4.1})  P80 {:>5.1} ({:>4.1})  P95 {:>5.1} ({:>5.1})",
            mean(hours),
            paper[0],
            q(0.5),
            paper[1],
            q(0.8),
            paper[2],
            q(0.95),
            paper[3]
        );
    }
    println!("== Table 9: job duration models ==");
    let n = 200_000;
    let mut rng = StdRng::seed_from_u64(9);
    let alibaba = AlibabaDurations::default();
    let mut a: Vec<f64> = (0..n)
        .map(|_| alibaba.sample(&mut rng).as_hours_f64())
        .collect();
    row("Alibaba", &mut a, [9.1, 0.2, 1.0, 5.2]);
    let mut g: Vec<f64> = (0..n)
        .map(|_| GavelDurations.sample(&mut rng).as_hours_f64())
        .collect();
    row("Gavel", &mut g, [16.7, 4.5, 16.4, 96.6]);
    Ok(())
}

/// Table 10 and Figure 3: the 120-job end-to-end experiment. The paper
/// ran it on AWS EC2; here the same trace runs through the simulator
/// (Table 12 justifies the substitution).
fn table10(repro: &Repro) -> Result<(), String> {
    let trace = SyntheticTraceConfig::large_scale().generate(10);
    let kinds = vec![
        SchedulerKind::NoPacking,
        SchedulerKind::Stratus,
        SchedulerKind::Eva(EvaConfig::eva()),
    ];
    let reports = repro.run_and_print(&trace, kinds, "Table 10: 120-job end-to-end");
    println!(
        "\n{:<12} {:>10} {:>10}",
        "Scheduler", "Launched", "Mig/Task"
    );
    for r in &reports {
        println!(
            "{:<12} {:>10} {:>10.2}",
            r.scheduler, r.instances_launched, r.migrations_per_task
        );
    }
    println!("\n== Figure 3: instance uptime CDF (hours at density deciles) ==");
    print!("{:<12}", "density");
    for d in 1..=9 {
        print!("{:>7.0}%", d as f64 * 10.0);
    }
    println!();
    for r in &reports {
        print!("{:<12}", r.scheduler);
        for d in 1..=9 {
            let target = d as f64 / 10.0;
            let v = r
                .uptime_cdf
                .iter()
                .find(|p| p.density >= target)
                .map(|p| p.value)
                .unwrap_or(0.0);
            print!("{v:>8.2}");
        }
        println!();
    }
    save_json("table10_fig3.json", &reports)?;
    Ok(())
}

/// Table 11: the 32-job end-to-end experiment with all five schedulers.
fn table11(repro: &Repro) -> Result<(), String> {
    let trace = SyntheticTraceConfig::small_scale().generate(11);
    let reports = repro.run_and_print(
        &trace,
        SchedulerKind::paper_set(),
        "Table 11: 32-job end-to-end",
    );
    save_json("table11.json", &reports)?;
    Ok(())
}

/// One Table 12 robustness measurement.
#[derive(Debug, Serialize)]
struct RobustnessRow {
    scheduler: String,
    regime: String,
    delta_jobs: i64,
    delta_makespan_hours: f64,
    delta_migrations: i64,
    re_executed: u64,
    live_kills: u64,
    dropped_checkpoints: u64,
    digest_mismatches: u64,
}

impl RobustnessRow {
    fn is_zero(&self) -> bool {
        self.delta_jobs == 0
            && self.delta_makespan_hours == 0.0
            && self.delta_migrations == 0
            && self.re_executed == 0
    }
}

/// Table 12: control-plane robustness, sim vs live under adversarial
/// faults.
///
/// The paper validates the simulator by running the same workload on a
/// physical cluster (within 5%). Here the same deterministic fault
/// schedule, compiled from `(seed, regime, intensity)` before the run, is
/// injected into both backends, and each (scheduler, regime) row reports
/// what the faulted runtime executed minus what the faulted schedule
/// promised: Δjobs (jobs confirmed live minus jobs completed), Δmakespan
/// (the live makespan charges re-executed work lost to confiscated or
/// dropped checkpoints) and Δmig (checkpoints banked minus boundaries
/// carried; each fault kill confiscates its rescue blob, so kills show
/// up as −1 each).
///
/// The fault-free row of every scheduler must be exactly zero in all
/// three columns: it is the control experiment proving that nonzero
/// deltas under a regime measure injected adversity, not noise. The run
/// fails if it is not, or if any restore lost state. The regimes are the
/// adversarial trio (preempt-storm, ckpt-drop, worker-crash) unless
/// `--faults` narrows the run to the fault-free baseline plus one regime.
fn table12(repro: &Repro) -> Result<(), String> {
    println!("== Table 12: control-plane robustness (sim vs live under adversarial faults) ==");
    let trace = SyntheticTraceConfig::small_scale().generate(12);
    let regimes: Vec<FaultSpec> = if repro.faults.is_none() {
        vec![
            FaultSpec::none(),
            FaultSpec::new(FaultRegime::PreemptStorm),
            FaultSpec::new(FaultRegime::CkptDrop),
            FaultSpec::new(FaultRegime::WorkerCrash),
        ]
    } else {
        vec![FaultSpec::none(), repro.faults]
    };

    // The fidelity grid across both backends and every regime: the regime
    // list is this table's subject, so it is the fault axis as it stands.
    let grid = SweepGrid::new("synthetic", trace.clone())
        .paper_schedulers()
        .backends(vec![BackendKind::Sim, BackendKind::Live])
        .faults(regimes.clone());
    let (result, stats) = repro.runner.run_with_stats(&grid);
    println!("   [cells: {}]", stats.summary());

    // Replay each (scheduler, regime) cell through the live master/worker
    // runtime and measure its deltas.
    println!(
        "\n{:<12} {:<16} {:>6} {:>11} {:>5} {:>8} {:>6} {:>6}",
        "Scheduler", "Regime", "Δjobs", "Δmakespan", "Δmig", "re-exec", "kills", "drops"
    );
    let mut rows: Vec<RobustnessRow> = Vec::new();
    for kind in SchedulerKind::paper_set() {
        for &spec in &regimes {
            let mut cfg = SimConfig::new(trace.clone(), kind.clone());
            cfg.faults = spec;
            let outcome = LiveBackend
                .run_detailed(&cfg)
                .map_err(|e| format!("live replay of the faulted schedule: {e}"))?;
            let row = RobustnessRow {
                scheduler: kind.label().to_string(),
                regime: spec.label(),
                delta_jobs: outcome.delta_jobs(),
                delta_makespan_hours: outcome.delta_makespan_hours(),
                delta_migrations: outcome.delta_migrations(),
                re_executed: outcome.re_executed(),
                live_kills: outcome.live_kills,
                dropped_checkpoints: outcome.dropped_checkpoints,
                digest_mismatches: outcome.digest_mismatches,
            };
            println!(
                "{:<12} {:<16} {:>6} {:>10.3}h {:>5} {:>8} {:>6} {:>6}",
                row.scheduler,
                row.regime,
                row.delta_jobs,
                row.delta_makespan_hours,
                row.delta_migrations,
                row.re_executed,
                row.live_kills,
                row.dropped_checkpoints,
            );
            // Any drift in the control column is a control-plane bug and
            // would poison every faulted delta.
            if spec.is_none()
                && !(row.is_zero() && row.live_kills == 0 && row.dropped_checkpoints == 0)
            {
                return Err(format!("fault-free deltas must be exactly zero: {row:?}"));
            }
            if row.digest_mismatches != 0 {
                return Err(format!("state lost across restore: {row:?}"));
            }
            rows.push(row);
        }
    }
    let nonzero = rows.iter().filter(|r| !r.is_zero()).count();
    println!(
        "\nnonzero-deltas: {nonzero} of {} (scheduler, regime) cells",
        rows.len()
    );
    save_json("table12.json", &result)?;
    save_json("table12_robustness.json", &rows)?;
    Ok(())
}

/// Table 13: the Alibaba trace with Alibaba durations.
fn table13(repro: &Repro) -> Result<(), String> {
    let mut cfg = AlibabaTraceConfig::full(DurationModelChoice::Alibaba);
    cfg.num_jobs = repro.scale(cfg.num_jobs, 2000);
    let reports = repro.run_and_print(
        &cfg.generate(13),
        SchedulerKind::paper_set(),
        "Table 13: Alibaba trace, Alibaba durations",
    );
    save_json("table13.json", &reports)?;
    Ok(())
}

/// Table 14: the Alibaba trace with Gavel durations.
fn table14(repro: &Repro) -> Result<(), String> {
    let mut cfg = AlibabaTraceConfig::full(DurationModelChoice::Gavel);
    cfg.num_jobs = repro.scale(cfg.num_jobs, 1200);
    let reports = repro.run_and_print(
        &cfg.generate(14),
        SchedulerKind::paper_set(),
        "Table 14: Alibaba trace, Gavel durations",
    );
    save_json("table14.json", &reports)?;
    Ok(())
}

/// Figure 4: uniform pairwise co-location throughput over {1.0 … 0.8} ×
/// {No-Packing, Owl, Eva-RP, Eva-TNRP}. Eva-RP's cost should blow up as
/// interference grows while Eva-TNRP stays below No-Packing.
fn fig4(repro: &Repro) -> Result<(), String> {
    println!("== Figure 4: interference sweep ==");
    let tputs = [1.0, 0.95, 0.9, 0.85, 0.8];
    let grid = SweepGrid::new("alibaba", alibaba(repro, 1000, 4))
        .scheduler("No-Packing", SchedulerKind::NoPacking)
        .scheduler("Owl", SchedulerKind::Owl)
        .scheduler("Eva-RP", SchedulerKind::Eva(EvaConfig::eva_rp()))
        .scheduler("Eva-TNRP", SchedulerKind::Eva(EvaConfig::eva()))
        .interferences(
            tputs
                .iter()
                .map(|&t| InterferenceSpec::Uniform(t))
                .collect::<Vec<_>>(),
        );
    let result = repro.run_grid(grid);
    println!(
        "{:<8} {:<12} {:>12} {:>12} {:>10}",
        "tput", "scheduler", "norm cost", "norm tput", "JCT (h)"
    );
    for (tput, block) in tputs.iter().zip(result.blocks()) {
        let baseline_cost = block[0].report.total_cost_dollars;
        for cell in block {
            let r = &cell.report;
            println!(
                "{tput:<8} {:<12} {:>11.1}% {:>12.2} {:>10.2}",
                cell.key.scheduler,
                100.0 * r.total_cost_dollars / baseline_cost,
                r.avg_norm_tput,
                r.avg_jct_hours
            );
        }
    }
    save_json("fig4.json", &result)?;
    Ok(())
}

/// Figure 5: the per-task migration-delay multiplier × {Eva, Eva w/o
/// Partial, Stratus}: (a) Eva's Full Reconfiguration adoption and
/// migrations per job, (b) total cost against a No-Packing cell.
fn fig5(repro: &Repro) -> Result<(), String> {
    println!("== Figure 5: migration-delay sweep ==");
    let trace = alibaba(repro, 1000, 5);
    // No-Packing never migrates, so its baseline is a single unscaled cell.
    let base = run_simulation(&SimConfig::new(trace.clone(), SchedulerKind::NoPacking));
    let scales = [1.0, 2.0, 4.0, 8.0];
    let grid = SweepGrid::new("alibaba", trace)
        .scheduler("Eva", SchedulerKind::Eva(EvaConfig::eva()))
        .scheduler(
            "Eva w/o Partial",
            SchedulerKind::Eva(EvaConfig::without_partial()),
        )
        .scheduler("Stratus", SchedulerKind::Stratus)
        .migration_scales(scales.to_vec());
    let result = repro.run_grid(grid);
    println!("(a) Eva under scaled migration delays; (b) cost vs baselines");
    println!(
        "{:<7} {:>11} {:>10} | {:>10} {:>12} {:>10}",
        "scale", "full prop.", "mig/job", "Eva", "Eva w/o P.", "Stratus"
    );
    for (scale, block) in scales.iter().zip(result.blocks()) {
        let [eva, full_only, stratus] = [&block[0].report, &block[1].report, &block[2].report];
        println!(
            "{scale:<7} {:>10.1}% {:>10.2} | {:>9.1}% {:>11.1}% {:>9.1}%",
            100.0 * eva.full_reconfig_rate,
            eva.migrations_per_task,
            100.0 * eva.total_cost_dollars / base.total_cost_dollars,
            100.0 * full_only.total_cost_dollars / base.total_cost_dollars,
            100.0 * stratus.total_cost_dollars / base.total_cost_dollars,
        );
    }
    save_json("fig5.json", &(base, result))?;
    Ok(())
}

/// Figure 6: a growing share of single-GPU jobs becomes 2/4/8-GPU jobs
/// (5:4:1), one trace per mix, under No-Packing, Stratus, Synergy, Eva
/// w/o Full Reconfiguration and Eva.
fn fig6(repro: &Repro) -> Result<(), String> {
    println!("== Figure 6: multi-GPU job proportion sweep ==");
    let base_trace = alibaba(repro, 1000, 6);
    let pcts = [0.0, 0.15, 0.3, 0.45, 0.6];
    let mut grid = SweepGrid::new(
        format!("multi-gpu {:.0}%", 100.0 * pcts[0]),
        MultiGpuMix::new(pcts[0]).apply(&base_trace, 60),
    );
    for &pct in &pcts[1..] {
        grid = grid.trace(
            format!("multi-gpu {:.0}%", 100.0 * pct),
            MultiGpuMix::new(pct).apply(&base_trace, 60 + (pct * 100.0) as u64),
        );
    }
    let grid = grid
        .scheduler("No-Packing", SchedulerKind::NoPacking)
        .scheduler("Stratus", SchedulerKind::Stratus)
        .scheduler("Synergy", SchedulerKind::Synergy)
        .scheduler(
            "Eva w/o Full",
            SchedulerKind::Eva(EvaConfig::without_full()),
        )
        .scheduler("Eva", SchedulerKind::Eva(EvaConfig::eva()));
    let result = repro.run_grid(grid);
    let labels: Vec<String> = pcts.iter().map(|p| format!("{:.0}", 100.0 * p)).collect();
    print_cost_vs_np(
        &[
            "multi%",
            "Stratus",
            "Synergy",
            "Eva w/o Full",
            "Eva",
            "(vs NP)",
        ],
        &[8, 10, 10, 12, 14, 8],
        &labels,
        &result,
    );
    save_json("fig6.json", &result)?;
    Ok(())
}

/// Figure 7: a growing share of jobs becomes 2-/4-task gang-coupled jobs
/// (1:1), one trace per mix, under the schedulers plus Eva-Single (no
/// §4.4 extension).
fn fig7(repro: &Repro) -> Result<(), String> {
    println!("== Figure 7: multi-task job proportion sweep ==");
    let base_trace = alibaba(repro, 800, 7);
    let pcts = [0.0, 0.2, 0.4, 0.6];
    let mut grid = SweepGrid::new(
        format!("multi-task {:.0}%", 100.0 * pcts[0]),
        MultiTaskMix::new(pcts[0]).apply(&base_trace, 70),
    );
    for &pct in &pcts[1..] {
        grid = grid.trace(
            format!("multi-task {:.0}%", 100.0 * pct),
            MultiTaskMix::new(pct).apply(&base_trace, 70 + (pct * 100.0) as u64),
        );
    }
    let grid = grid
        .scheduler("No-Packing", SchedulerKind::NoPacking)
        .scheduler("Stratus", SchedulerKind::Stratus)
        .scheduler("Synergy", SchedulerKind::Synergy)
        .scheduler("Eva-Single", SchedulerKind::Eva(EvaConfig::eva_single()))
        .scheduler("Eva", SchedulerKind::Eva(EvaConfig::eva()));
    let result = repro.run_grid(grid);
    let labels: Vec<String> = pcts.iter().map(|p| format!("{:.0}", 100.0 * p)).collect();
    print_cost_vs_np(
        &["multi%", "Stratus", "Synergy", "Eva-Single", "Eva"],
        &[8, 10, 10, 12, 10],
        &labels,
        &result,
    );
    save_json("fig7.json", &result)?;
    Ok(())
}

/// Figure 8: the Poisson arrival rate over 0.5–3 jobs/hr, one trace per
/// rate, under the five §6.1 schedulers. Lower rates mean fewer
/// co-resident jobs and smaller packing benefits, but Eva should stay the
/// cheapest packer throughout.
fn fig8(repro: &Repro) -> Result<(), String> {
    println!("== Figure 8: arrival-rate sweep ==");
    let rates = [0.5, 1.0, 2.0, 3.0];
    let trace_for = |rate: f64| {
        let mut tc = AlibabaTraceConfig::full(DurationModelChoice::Alibaba);
        tc.arrival_rate_per_hour = rate;
        tc.num_jobs = repro.scale(6_274, 700);
        tc.generate(80 + (rate * 10.0) as u64)
    };
    let mut grid = SweepGrid::new(format!("{} jobs/hr", rates[0]), trace_for(rates[0]));
    for &rate in &rates[1..] {
        grid = grid.trace(format!("{rate} jobs/hr"), trace_for(rate));
    }
    let result = repro.run_grid(grid.paper_schedulers());
    let labels: Vec<String> = rates.iter().map(|r| r.to_string()).collect();
    print_cost_vs_np(
        &["jobs/hr", "Stratus", "Synergy", "Owl", "Eva"],
        &[10, 10, 10, 10, 10],
        &labels,
        &result,
    );
    save_json("fig8.json", &result)?;
    Ok(())
}

/// Design choices beyond the paper's figures, against a No-Packing
/// baseline: Partial Reconfiguration refilling kept instances (this
/// repository's reading of §4.5) or packing only new ones; the default
/// pairwise throughput `t` (the paper fixes 0.95; smaller values pack
/// more conservatively, §4.3); and online λ/p estimation against fixed
/// pessimistic and optimistic priors.
fn ablations(repro: &Repro) -> Result<(), String> {
    println!("== Ablations ==");
    let (refill, new_only) = (
        "Eva (refill kept instances)",
        "Eva (new instances only, §4.5 text)",
    );
    let tputs = [0.99, 0.95, 0.9, 0.8];
    let priors = [("long", 0.01), ("short", 0.9)];
    let mut grid = SweepGrid::new("alibaba", alibaba(repro, 1200, 99))
        .scheduler("No-Packing", SchedulerKind::NoPacking)
        .scheduler(refill, SchedulerKind::Eva(EvaConfig::eva()));
    let mut cfg = EvaConfig::eva();
    cfg.refill_existing = false;
    grid = grid.scheduler(new_only, SchedulerKind::Eva(cfg));
    for t in tputs {
        let mut cfg = EvaConfig::eva();
        cfg.default_tput = t;
        grid = grid.scheduler(format!("Eva (t = {t})"), SchedulerKind::Eva(cfg));
    }
    for (horizon, p) in priors {
        let mut cfg = EvaConfig::eva();
        cfg.initial_p = p;
        grid = grid.scheduler(
            format!("Eva ({horizon}-horizon prior p = {p})"),
            SchedulerKind::Eva(cfg),
        );
    }
    let result = repro.run_grid(grid);
    let base = result.cells[0].report.total_cost_dollars;

    // `shown` lets one cell appear under several section labels (the
    // defaults row is the same config as the refill row, run once).
    let print_row_as = |label: &str, shown: &str| {
        let r = &result.first_for(label).expect("declared scheduler").report;
        println!(
            "{shown:<34} cost {:>6.1}%  t/i {:>4.2}  mig/task {:>4.2}  full {:>4.1}%",
            100.0 * r.total_cost_dollars / base,
            r.tasks_per_instance,
            r.migrations_per_task,
            100.0 * r.full_reconfig_rate
        );
    };
    let print_row = |label: &str| print_row_as(label, label);

    println!("-- Partial Reconfiguration refill --");
    print_row(refill);
    print_row(new_only);
    println!("-- Default pairwise throughput t --");
    for t in tputs {
        print_row(&format!("Eva (t = {t})"));
    }
    println!("-- Decision estimator priors --");
    print_row_as(refill, "Eva (online λ/p, defaults)");
    for (horizon, p) in priors {
        print_row(&format!("Eva ({horizon}-horizon prior p = {p})"));
    }
    save_json("ablations.json", &result)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_scheduler_labels_get_unique_names() {
        let grid = add_schedulers(
            SweepGrid::new("t", Trace::new(vec![])),
            vec![
                SchedulerKind::Eva(EvaConfig::eva()),
                SchedulerKind::Eva(EvaConfig::eva_rp()),
                SchedulerKind::NoPacking,
            ],
        );
        let names: Vec<String> = grid
            .cells()
            .iter()
            .map(|c| c.key.scheduler.clone())
            .collect();
        assert_eq!(names, vec!["Eva", "Eva#2", "No-Packing"]);
    }
}
