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
//! The adversarial fault axis is likewise shared: every `exp_*` binary
//! accepts `--faults REGIME[:INTENSITY]` (env `EVA_FAULTS`) and runs its
//! whole grid under that injected regime — no per-experiment code, the
//! harness sets the grid's fault axis. Fault-plan fingerprints are part
//! of every cache key, so faulted and fault-free cells never alias.
//! Both are parsed once, by [`parse_flags`], which every binary calls
//! first: a flag without its value or an unknown regime exits 2 before
//! anything is printed.
//!
//! Solver-level micro-benchmarks (tables 4–6) share the same cell
//! machinery through [`solver::SolverSweep`].

use std::path::PathBuf;
use std::sync::OnceLock;

use eva_sim::{
    FaultSpec, PoolStats, ReportCache, SchedulerKind, SimReport, SweepGrid, SweepResult,
    SweepRunner,
};
use eva_workloads::Trace;

pub mod solver;

/// True when `EVA_FULL=1` requests paper-scale experiments.
pub fn is_full_scale() -> bool {
    std::env::var("EVA_FULL").map(|v| v == "1").unwrap_or(false)
}

/// Sweep worker count: `EVA_THREADS=N` if set, otherwise 0 (which
/// [`SweepRunner::new`] resolves to all available cores).
fn default_threads() -> usize {
    std::env::var("EVA_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// The default persistent cache location, `results/cache/`.
fn default_cache_dir() -> PathBuf {
    results_dir().join("cache")
}

/// The flags every `exp_*` binary shares, parsed once by [`parse_flags`].
#[derive(Debug)]
struct SharedFlags {
    /// The report cache's directory; `None` under `--no-cache`.
    cache_dir: Option<PathBuf>,
    /// The injected fault regime; `None` is fault-free, the default.
    faults: Option<FaultSpec>,
}

impl SharedFlags {
    /// Reads the shared flags from `args`, falling back on `EVA_CACHE_DIR`
    /// and `EVA_FAULTS`. Caching defaults to **on** under
    /// [`default_cache_dir`]; `--cache-dir` re-enables it after
    /// `--no-cache`. Unrecognized arguments are ignored.
    fn parse(args: impl IntoIterator<Item = String>) -> Result<SharedFlags, String> {
        let (mut enabled, mut dir, mut faults) = (true, None, None);
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let mut value = || it.next().ok_or(format!("{arg}: the flag needs a value"));
            match arg.as_str() {
                "--no-cache" => enabled = false,
                "--cache" => enabled = true,
                "--cache-dir" => {
                    dir = Some(PathBuf::from(value()?));
                    enabled = true;
                }
                "--faults" => faults = Some(value()?),
                _ => {}
            }
        }
        let dir = dir.or_else(|| std::env::var("EVA_CACHE_DIR").ok().map(PathBuf::from));
        let faults = faults.or_else(|| std::env::var("EVA_FAULTS").ok());
        Ok(SharedFlags {
            faults: faults
                .map(|v| FaultSpec::parse(&v).map_err(|e| format!("--faults: {e}")))
                .transpose()?,
            cache_dir: enabled.then(|| dir.unwrap_or_else(default_cache_dir)),
        })
    }
}

static FLAGS: OnceLock<SharedFlags> = OnceLock::new();

fn flags() -> &'static SharedFlags {
    FLAGS.get_or_init(|| {
        SharedFlags::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    })
}

/// Parses this process's shared flags: `--cache`, `--no-cache`,
/// `--cache-dir DIR` (env `EVA_CACHE_DIR`) and `--faults
/// REGIME[:INTENSITY]` (env `EVA_FAULTS`). Every `exp_*` binary calls it
/// first, so a flag without its value or an unknown regime exits 2
/// before anything is printed; everything else reads the same parse.
pub fn parse_flags() {
    flags();
}

/// The persistent report cache the shared flags select; `None` under
/// `--no-cache`.
pub fn cache_setting() -> Option<ReportCache> {
    flags().cache_dir.clone().map(ReportCache::new)
}

/// The sweep runner every experiment binary shares: `EVA_THREADS`
/// workers plus the persistent report cache (unless `--no-cache`).
pub fn runner() -> SweepRunner {
    let runner = SweepRunner::new(default_threads());
    match cache_setting() {
        Some(cache) => runner.with_cache(cache),
        None => runner,
    }
}

/// The shared `--faults` setting; `None` means fault-free, the default.
pub fn faults_setting() -> Option<FaultSpec> {
    flags().faults
}

/// Applies the process's `--faults` setting to `grid` as the fault axis,
/// printing the injected regime whenever one was requested. A no-op
/// without `--faults` — the grid keeps its fault-free default axis.
fn apply_faults(grid: SweepGrid) -> SweepGrid {
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
fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results");
    std::fs::create_dir_all(&dir).ok();
    dir
}

/// Writes a JSON artifact into `results/`.
pub fn save_json<T: serde::Serialize>(name: &str, value: &T) {
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

    fn parse(v: &[&str]) -> Result<SharedFlags, String> {
        SharedFlags::parse(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn fault_flags_resolve() {
        use eva_sim::FaultRegime;
        let storm = parse(&["--faults", "preempt-storm:2"])
            .unwrap()
            .faults
            .unwrap();
        assert_eq!(storm.regime, FaultRegime::PreemptStorm);
        assert_eq!(storm.intensity, 2.0);
        assert_eq!(
            parse(&["--faults", "none"]).unwrap().faults,
            Some(FaultSpec::none())
        );
        // Bad regimes and a missing value are flag errors.
        assert!(parse(&["--faults", "meteor"]).is_err());
        assert!(parse(&["--faults"]).is_err());
        if std::env::var("EVA_FAULTS").is_err() {
            assert_eq!(parse(&["--jobs", "5"]).unwrap().faults, None);
        }
    }

    #[test]
    fn cache_flags_resolve() {
        assert!(parse(&["--no-cache"]).unwrap().cache_dir.is_none());
        let explicit = parse(&["--cache-dir", "/tmp/eva-x"]).unwrap().cache_dir;
        assert_eq!(explicit.unwrap(), std::path::Path::new("/tmp/eva-x"));
        // --cache-dir re-enables caching even after --no-cache.
        let reenabled = parse(&["--no-cache", "--cache-dir", "/tmp/y"]).unwrap();
        assert!(reenabled.cache_dir.is_some());
        // A trailing --cache-dir is a flag error, not the default dir.
        let err = parse(&["--jobs", "5", "--cache-dir"]).unwrap_err();
        assert_eq!(err, "--cache-dir: the flag needs a value");
        if std::env::var("EVA_CACHE_DIR").is_err() {
            let default = parse(&["--jobs", "5"]).unwrap().cache_dir.unwrap();
            assert!(default.ends_with("cache"), "{default:?}");
        }
    }
}
