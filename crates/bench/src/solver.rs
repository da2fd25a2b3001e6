//! Solver-level micro-benchmark sweeps (tables 4–6's inner loops).
//!
//! The paper's table 4/5 micro-benchmarks time *solver* calls (Full
//! Reconfiguration, branch-and-bound) on synthetic task sets — there is
//! no simulated cluster, so they cannot be `SweepGrid` cells. A
//! [`SolverSweep`] gives them the same machinery anyway: cells are
//! declared once with a content key, run through the shared
//! [`CellPool`] (deduplication + stable merge order), consult the same
//! persistent [`ReportCache`] under the same `--cache`/`--no-cache`/
//! `--cache-dir` flags, and save through the same `results/*.json`
//! conventions.
//!
//! Cells run **serially by default**: these benchmarks report wall-clock
//! runtimes, and uncontended timing beats parallel speed here. Note that
//! a cache hit replays the *stored* result — including measured runtimes
//! and anything computed under a time limit — so [`SolverSweep::timing`]
//! sweeps print a staleness note on hits; pass `--no-cache` to
//! re-measure on the current build and machine.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use eva_core::TaskSnapshot;
use eva_sim::{CellPool, PoolStats, ReportCache};
use eva_types::{JobId, SimDuration, TaskId};
use eva_workloads::WorkloadCatalog;

use crate::{cache_setting, print_stats, save_json};

/// `n` single-task snapshots sampled uniformly from the Table 7
/// workload pool under a fixed seed — the shared task population of the
/// table 4/5 micro-benchmarks.
pub fn random_tasks(seed: u64, n: usize) -> Vec<TaskSnapshot> {
    let workloads = WorkloadCatalog::table7();
    let pool: Vec<_> = workloads.iter().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let w = pool[rng.gen_range(0..pool.len())];
            TaskSnapshot {
                id: TaskId::new(JobId(i as u64), 0),
                workload: w.kind,
                demand: w.demand,
                checkpoint_delay: SimDuration::ZERO,
                launch_delay: SimDuration::ZERO,
                gang_size: 1,
                gang_coupled: false,
                assigned_to: None,
                remaining_hint: None,
            }
        })
        .collect()
}

/// One micro-benchmark cell: a content key plus the closure computing it.
pub struct SolverCell<R> {
    key: String,
    run: Box<dyn Fn() -> R + Send + Sync>,
}

/// A declarative sweep of solver-level cells sharing the experiment
/// harness conventions (pool, cache, JSON artifacts).
pub struct SolverSweep<R> {
    name: String,
    threads: usize,
    reports_timings: bool,
    cells: Vec<SolverCell<R>>,
}

impl<R> SolverSweep<R>
where
    R: Clone + Send + Serialize + Deserialize,
{
    /// An empty sweep filed under `name` (the cache namespace and the
    /// `results/<name>.json` artifact stem).
    pub fn new(name: impl Into<String>) -> Self {
        SolverSweep {
            name: name.into(),
            threads: 1,
            reports_timings: false,
            cells: Vec::new(),
        }
    }

    /// Marks the sweep's results as wall-clock-dependent — measured
    /// runtimes, or anything computed under a time limit (table 4's
    /// branch-and-bound ratios depend on how far the solver got before
    /// its deadline). Cache hits then print a visible staleness note,
    /// because stored results describe the build and machine that
    /// produced them, not this run.
    pub fn timing(mut self) -> Self {
        self.reports_timings = true;
        self
    }

    /// Overrides the serial default (only sensible for cells that do not
    /// report wall-clock timings).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Declares one cell. `key` must identify the cell's *content*
    /// (sizes, seeds, limits): it is the dedup fingerprint and the
    /// persistent cache key, so equal keys must mean equal results.
    pub fn cell(mut self, key: impl Into<String>, run: impl Fn() -> R + Send + Sync + 'static) -> Self {
        self.cells.push(SolverCell {
            key: key.into(),
            run: Box::new(run),
        });
        self
    }

    /// Number of declared cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when no cells are declared.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Runs every cell with the cache resolved from the process's shared
    /// cache flags, printing the standard stats line.
    pub fn run(&self) -> Vec<R> {
        self.run_flagged().into_iter().map(|(r, _)| r).collect()
    }

    /// [`SolverSweep::run`], additionally reporting **per cell** whether
    /// its result was replayed from the persistent cache. Binaries whose
    /// rows carry wall-clock measurements stamp this flag into their
    /// JSON artifacts (`from_cache`), so downstream plots can tell a
    /// stored timing from one measured on this build and machine.
    pub fn run_flagged(&self) -> Vec<(R, bool)> {
        let (results, stats) = self.run_with_flags(cache_setting().as_ref());
        print_stats(&stats);
        if self.reports_timings && stats.cache_hits > 0 {
            println!(
                "   [note: {} cell(s) replayed *stored* wall-clock-dependent results \
                 (timings, time-limited solver outcomes) from the cache; rows are \
                 stamped `from_cache`; pass --no-cache to re-measure on this build \
                 and machine]",
                stats.cache_hits
            );
        }
        results
    }

    /// Runs with an explicit cache binding (testable form).
    pub fn run_with(&self, cache: Option<&ReportCache>) -> (Vec<R>, PoolStats) {
        let (results, stats) = self.run_with_flags(cache);
        (results.into_iter().map(|(r, _)| r).collect(), stats)
    }

    /// [`SolverSweep::run_with`] with per-cell cache-replay flags.
    pub fn run_with_flags(&self, cache: Option<&ReportCache>) -> (Vec<(R, bool)>, PoolStats) {
        let (results, flags, stats) = CellPool::new(self.threads).run_flagged(
            self.cells.len(),
            &|i| format!("solver|{}|{}", self.name, self.cells[i].key),
            &|i| (self.cells.len() - i) as u64, // declaration order
            cache,
            &|i| (self.cells[i].run)(),
        );
        (results.into_iter().zip(flags).collect(), stats)
    }

    /// Writes the sweep's results to `results/<name>.json`.
    pub fn save(&self, results: &[R]) {
        save_json(&format!("{}.json", self.name), &results.to_vec());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn sweep(counter: &'static AtomicUsize) -> SolverSweep<u64> {
        SolverSweep::new("unit-test")
            .cell("n:1", move || {
                counter.fetch_add(1, Ordering::Relaxed);
                10
            })
            .cell("n:2", move || {
                counter.fetch_add(1, Ordering::Relaxed);
                20
            })
    }

    #[test]
    fn cells_run_in_declaration_order() {
        static RUNS: AtomicUsize = AtomicUsize::new(0);
        let s = sweep(&RUNS);
        assert_eq!(s.len(), 2);
        let (results, stats) = s.run_with(None);
        assert_eq!(results, vec![10, 20]);
        assert_eq!(stats.executed, 2);
        assert_eq!(RUNS.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn cache_round_trip_skips_execution_and_flags_replays() {
        static RUNS: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!("eva-solver-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ReportCache::new(&dir);
        let s = sweep(&RUNS);
        let (first, s1) = s.run_with_flags(Some(&cache));
        let (second, s2) = s.run_with_flags(Some(&cache));
        assert_eq!(first.iter().map(|(r, _)| *r).collect::<Vec<_>>(), vec![10, 20]);
        assert_eq!(first.iter().map(|(r, _)| *r).collect::<Vec<_>>(),
                   second.iter().map(|(r, _)| *r).collect::<Vec<_>>());
        // Fresh rows are unflagged; the warm rerun replays stored rows.
        assert!(first.iter().all(|(_, cached)| !cached));
        assert!(second.iter().all(|(_, cached)| *cached));
        assert_eq!(s1.executed, 2);
        assert!(s2.all_cached());
        assert_eq!(RUNS.load(Ordering::Relaxed), 2, "second run hit the cache");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn equal_keys_deduplicate() {
        let s = SolverSweep::<u64>::new("dedup")
            .cell("same", || 7)
            .cell("same", || unreachable!("duplicate key must not run"));
        let (results, stats) = s.run_with(None);
        assert_eq!(results, vec![7, 7]);
        assert_eq!(stats.unique, 1);
    }
}
