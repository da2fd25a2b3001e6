//! Experiment harness shared by every table/figure binary.
//!
//! Each `exp_*` binary in `src/bin/` regenerates one table or figure of
//! the paper (see the README's experiment index). Binaries declare their
//! `(scheduler × trace × seed × …)` cells as an [`eva_sim::SweepGrid`]
//! and run them through the multi-threaded [`eva_sim::SweepRunner`] —
//! results are deterministic and byte-identical for any worker count.
//! Binaries print the same rows/series the paper reports and write
//! machine-readable JSON to `results/`. Scales default to laptop-friendly
//! sizes; set `EVA_FULL=1` to run the paper-sized configurations (e.g.
//! the full 6,274-job trace), and `EVA_THREADS=N` to pin the sweep worker
//! count (default: all available cores).
//!
//! Every binary also shares the **persistent report cache** (see
//! [`eva_sim::ReportCache`]): finished cells land in `results/cache/`
//! keyed by content fingerprint, so rerunning an experiment — or another
//! experiment declaring overlapping cells — simulates only what is new.
//! Cache flags, accepted by all `exp_*` binaries:
//!
//! * `--no-cache` — simulate everything, touch no cache;
//! * `--cache` — explicit form of the default;
//! * `--cache-dir DIR` — use `DIR` instead of `results/cache`
//!   (`EVA_CACHE_DIR` is the env equivalent).
//!
//! Sweeps also **federate across processes**: `--procs N` (env
//! `EVA_PROCS`) makes any `exp_*` binary spawn `N - 1` worker copies of
//! itself that claim cells from the shared cache dir via atomic
//! `<fnv>.claim` files and publish results back — see
//! [`eva_sim::Federation`]. The coordinator merges in logical cell
//! order, so output stays byte-identical to `--procs 1`. Federation
//! requires the cache (it *is* the coordination substrate), so
//! combining `--procs N` with `--no-cache` is a flag error. Every
//! `exp_*` main ends with [`finish`], which joins spawned workers.
//!
//! The adversarial fault axis is likewise shared: every `exp_*` binary
//! accepts `--faults REGIME[:INTENSITY]` (env `EVA_FAULTS`) and runs its
//! whole grid under that injected regime — no per-experiment code, the
//! harness sets the grid's fault axis. Fault-plan fingerprints are part
//! of every cache key, so faulted and fault-free cells never alias.
//!
//! Solver-level micro-benchmarks (tables 4–6) share the same cell
//! machinery through [`solver::SolverSweep`].

use std::path::PathBuf;

use eva_sim::{
    join_workers, worker_role, FaultSpec, Federation, PoolStats, ReportCache, SchedulerKind,
    SimReport, SweepGrid, SweepResult, SweepRunner,
};
use eva_workloads::Trace;

pub mod solver;

/// True when `EVA_FULL=1` requests paper-scale experiments.
pub fn is_full_scale() -> bool {
    std::env::var("EVA_FULL").map(|v| v == "1").unwrap_or(false)
}

/// Sweep worker count: `EVA_THREADS=N` if set, otherwise 0 (which
/// [`SweepRunner::new`] resolves to all available cores).
pub fn default_threads() -> usize {
    std::env::var("EVA_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// The default persistent cache location, `results/cache/`.
pub fn default_cache_dir() -> PathBuf {
    results_dir().join("cache")
}

/// Resolves the shared cache flags (`--cache`, `--no-cache`,
/// `--cache-dir DIR`, env `EVA_CACHE_DIR`) from this process's argument
/// list. Caching defaults to **on** under [`default_cache_dir`]; `None`
/// means `--no-cache` was passed.
pub fn cache_setting() -> Option<ReportCache> {
    cache_setting_from(std::env::args().skip(1))
}

/// [`cache_setting`] over an explicit argument list (testable form).
/// Unrecognized arguments are ignored — binaries with their own flags
/// keep working.
pub fn cache_setting_from(args: impl IntoIterator<Item = String>) -> Option<ReportCache> {
    let mut enabled = true;
    let mut dir: Option<PathBuf> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--no-cache" => enabled = false,
            "--cache" => enabled = true,
            "--cache-dir" => {
                dir = it.next().map(PathBuf::from);
                enabled = true;
            }
            _ => {}
        }
    }
    if dir.is_none() {
        if let Ok(env_dir) = std::env::var("EVA_CACHE_DIR") {
            dir = Some(PathBuf::from(env_dir));
        }
    }
    enabled.then(|| ReportCache::new(dir.unwrap_or_else(default_cache_dir)))
}

/// Resolves the shared `--procs N` flag (env equivalent `EVA_PROCS`)
/// from this process's argument list: the total process count of a
/// federated sweep, coordinator included. Defaults to 1 — an ordinary
/// single-process run. Invalid counts abort the binary with a
/// flag-style error.
pub fn procs_setting() -> usize {
    match procs_setting_from(std::env::args().skip(1)) {
        Ok(procs) => procs,
        Err(e) => {
            eprintln!("error: --procs: {e}");
            std::process::exit(2);
        }
    }
}

/// [`procs_setting`] over an explicit argument list (testable form).
/// Unrecognized arguments are ignored, like [`cache_setting_from`].
pub fn procs_setting_from(args: impl IntoIterator<Item = String>) -> Result<usize, String> {
    let mut value: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        if arg == "--procs" {
            value = Some(it.next().ok_or("the flag needs a value")?);
        }
    }
    if value.is_none() {
        if let Ok(env) = std::env::var("EVA_PROCS") {
            value = Some(env);
        }
    }
    match value {
        None => Ok(1),
        Some(v) => match v.parse::<usize>() {
            Ok(0) => Err("a federation needs at least one process".to_string()),
            Ok(n) => Ok(n),
            Err(_) => Err(format!("invalid process count '{v}'")),
        },
    }
}

/// The sweep runner every experiment binary shares: `EVA_THREADS`
/// workers plus the persistent report cache (unless `--no-cache`),
/// federated across `--procs`/`EVA_PROCS` processes when more than one
/// was requested (or when this process *is* a spawned worker).
pub fn runner() -> SweepRunner {
    let runner = SweepRunner::new(default_threads());
    let procs = procs_setting();
    let federated = procs > 1 || worker_role();
    match cache_setting() {
        Some(cache) if federated => runner.with_federation(Federation::new(procs), cache),
        Some(cache) => runner.with_cache(cache),
        None if federated => {
            eprintln!(
                "error: --procs: federated sweeps coordinate through the cache dir; drop --no-cache"
            );
            std::process::exit(2);
        }
        None => runner,
    }
}

/// Resolves the shared `--faults REGIME[:INTENSITY]` flag (env
/// equivalent `EVA_FAULTS`) from this process's argument list. `None`
/// means fault-free — the default. Invalid regimes or intensities abort
/// the binary with a flag-style error.
pub fn faults_setting() -> Option<FaultSpec> {
    match faults_setting_from(std::env::args().skip(1)) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("error: --faults: {e}");
            std::process::exit(2);
        }
    }
}

/// [`faults_setting`] over an explicit argument list (testable form).
/// Unrecognized arguments are ignored, like [`cache_setting_from`].
pub fn faults_setting_from(
    args: impl IntoIterator<Item = String>,
) -> Result<Option<FaultSpec>, String> {
    let mut value: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        if arg == "--faults" {
            value = Some(it.next().ok_or("the flag needs a value")?);
        }
    }
    if value.is_none() {
        if let Ok(env) = std::env::var("EVA_FAULTS") {
            value = Some(env);
        }
    }
    value.map(|v| FaultSpec::parse(&v)).transpose()
}

/// Applies the process's `--faults` setting to `grid` as the fault axis,
/// printing the injected regime whenever one was requested. A no-op
/// without `--faults` — the grid keeps its fault-free default axis.
pub fn apply_faults(grid: SweepGrid) -> SweepGrid {
    let Some(spec) = faults_setting() else {
        return grid;
    };
    if !spec.is_none() {
        println!("   [faults: {}]", spec.label());
    }
    grid.faults(vec![spec])
}

/// Runs a grid the standard experiment way, inheriting every shared
/// process flag: applies `--faults`, runs on the shared [`runner`]
/// (`EVA_THREADS` + cache flags) and prints the stats line.
pub fn run_grid(grid: SweepGrid) -> SweepResult {
    let grid = apply_faults(grid);
    let (result, stats) = runner().run_with_stats(&grid);
    print_stats(&stats);
    result
}

/// Prints the standard one-line cache/dedup summary after a sweep.
pub fn print_stats(stats: &PoolStats) {
    println!("   [cells: {}]", stats.summary());
}

/// The five schedulers of §6.1 in the paper's reporting order.
pub fn scheduler_set() -> Vec<SchedulerKind> {
    SchedulerKind::paper_set()
}

/// Declares `kinds` on `grid` with unique names (duplicate report labels —
/// e.g. several Eva variants — get a positional suffix).
pub fn add_schedulers(mut grid: SweepGrid, kinds: Vec<SchedulerKind>) -> SweepGrid {
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

/// Runs one trace under several schedulers — fanned out across sweep
/// workers — printing paper-style rows in declaration order (first
/// scheduler is the normalization baseline) and returning reports.
pub fn run_and_print(trace: &Trace, kinds: Vec<SchedulerKind>, header: &str) -> Vec<SimReport> {
    println!("== {header} ==");
    println!(
        "   trace: {} jobs, arrival span {:.1}h",
        trace.len(),
        trace.stats().arrival_span_hours
    );
    let result = run_grid(add_schedulers(
        SweepGrid::new("trace", trace.clone()),
        kinds,
    ));
    let reports: Vec<SimReport> = result.cells.into_iter().map(|c| c.report).collect();
    for (i, report) in reports.iter().enumerate() {
        let baseline = (i > 0).then(|| &reports[0]);
        println!("{}", report.table_row(baseline));
    }
    reports
}

/// The directory experiment outputs are written to.
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results");
    std::fs::create_dir_all(&dir).ok();
    dir
}

/// Experiment epilogue: waits for any federation workers this process
/// spawned (`--procs`/`EVA_PROCS`). Every `exp_*` main ends with this
/// so the binary never exits with children still holding claims; it is
/// a no-op in unfederated runs and inside workers.
pub fn finish() {
    join_workers();
}

/// Writes a JSON artifact into `results/`. Federation workers skip the
/// write — only the coordinator owns `results/` artifacts.
pub fn save_json<T: serde::Serialize>(name: &str, value: &T) {
    if worker_role() {
        return;
    }
    let path = results_dir().join(name);
    match serde_json::to_string_pretty(value) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("warning: could not write {}: {e}", path.display());
            } else {
                println!("   [saved {}]", path.display());
            }
        }
        Err(e) => eprintln!("warning: serialization failed for {name}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduler_set_matches_paper_order() {
        let kinds = scheduler_set();
        assert_eq!(kinds.len(), 5);
        assert_eq!(kinds[0].label(), "No-Packing");
        assert_eq!(kinds[4].label(), "Eva");
    }

    #[test]
    fn duplicate_scheduler_labels_get_unique_names() {
        use eva_core::EvaConfig;
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

    #[test]
    fn results_dir_is_creatable() {
        let dir = results_dir();
        assert!(dir.exists());
    }

    #[test]
    fn fault_flags_resolve() {
        use eva_sim::FaultRegime;
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<String>>();
        let storm = faults_setting_from(args(&["--faults", "preempt-storm:2"]))
            .unwrap()
            .unwrap();
        assert_eq!(storm.regime, FaultRegime::PreemptStorm);
        assert_eq!(storm.intensity, 2.0);
        assert_eq!(
            faults_setting_from(args(&["--faults", "none"])).unwrap(),
            Some(FaultSpec::none())
        );
        // Bad regimes and a missing value are flag errors.
        assert!(faults_setting_from(args(&["--faults", "meteor"])).is_err());
        assert!(faults_setting_from(args(&["--faults"])).is_err());
        if std::env::var("EVA_FAULTS").is_err() {
            assert_eq!(faults_setting_from(args(&["--jobs", "5"])).unwrap(), None);
        }
    }

    #[test]
    fn procs_flags_resolve() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<String>>();
        assert_eq!(procs_setting_from(args(&["--procs", "4"])).unwrap(), 4);
        assert_eq!(procs_setting_from(args(&["--procs", "1"])).unwrap(), 1);
        // Zero processes, junk counts, and a missing value are flag
        // errors, not silent single-process runs.
        assert!(procs_setting_from(args(&["--procs", "0"])).is_err());
        assert!(procs_setting_from(args(&["--procs", "two"])).is_err());
        assert!(procs_setting_from(args(&["--procs"])).is_err());
        if std::env::var("EVA_PROCS").is_err() {
            assert_eq!(procs_setting_from(args(&["--jobs", "5"])).unwrap(), 1);
        }
    }

    #[test]
    fn cache_flags_resolve() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<String>>();
        assert!(cache_setting_from(args(&["--no-cache"])).is_none());
        let explicit = cache_setting_from(args(&["--cache-dir", "/tmp/eva-x"])).unwrap();
        assert_eq!(explicit.dir(), std::path::Path::new("/tmp/eva-x"));
        // --cache-dir re-enables caching even after --no-cache.
        assert!(cache_setting_from(args(&["--no-cache", "--cache-dir", "/tmp/y"])).is_some());
        if std::env::var("EVA_CACHE_DIR").is_err() {
            let default = cache_setting_from(args(&["--jobs", "5"])).unwrap();
            assert!(default.dir().ends_with("cache"), "{:?}", default.dir());
        }
    }
}
