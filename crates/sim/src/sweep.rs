//! Layer 3: declarative experiment grids and the parallel sweep runner.
//!
//! Every result in the paper is a grid of `(scheduler × trace × seed ×
//! fidelity × interference × backend)` cells. [`SweepGrid`] declares such
//! a grid once; [`SweepRunner`] fans the cells out across scoped worker
//! threads (via the generic cell pool of [`crate::pool`]) and merges the
//! per-cell [`SimReport`]s back **in stable cell order**, so the
//! aggregated result — including its JSON serialization — is
//! byte-identical for any thread count. Determinism holds because each
//! cell's randomness comes solely from its own declared seed.
//!
//! Three schedule optimizations run before the fan-out, none of which
//! can change the merged bytes:
//!
//! * **deduplication** — cells whose content fingerprint is identical
//!   (e.g. No-Packing repeated across an interference axis it cannot
//!   observe) run once, and the shared report fans out to every
//!   duplicate;
//! * **persistent caching** — with [`SweepRunner::with_cache`], finished
//!   reports are stored under their content fingerprint in a
//!   [`ReportCache`] shared by every experiment binary, so reruns (and
//!   other experiments declaring the same cells) skip simulation;
//! * **cost-aware ordering** — unique cells are claimed longest-first
//!   (estimated from trace size, fidelity, and backend weight), so the
//!   pool never tail-blocks on a big cell claimed last.

use serde::{Deserialize, Serialize};

use eva_cloud::FidelityMode;
use eva_types::SimDuration;
use eva_workloads::TraceHandle;

use crate::backend::BackendKind;
use crate::cache::ReportCache;
use crate::faults::FaultSpec;
use crate::metrics::SimReport;
use crate::pool::{CellPool, PoolStats};
use crate::runner::{InterferenceSpec, SchedulerKind, SimConfig};

/// One value of the trace axis: a shared trace under the label reports
/// are filed under.
#[derive(Debug, Clone)]
struct TraceEntry {
    label: String,
    handle: TraceHandle,
    /// Relative simulation cost of the trace (`jobs + tasks`), computed
    /// once when the axis entry is built, so longest-first planning never
    /// rescans a job vector per cell.
    weight: u64,
}

impl TraceEntry {
    fn new(label: String, handle: TraceHandle) -> Self {
        let weight = handle.jobs().iter().map(|j| 1 + j.num_tasks() as u64).sum();
        TraceEntry {
            label,
            handle,
            weight,
        }
    }
}

/// A declarative grid of simulation cells.
///
/// Axes default to single paper-standard values; every `Vec`-valued axis
/// multiplies the cell count. Cells expand in a fixed nested order
/// (trace ▸ backend ▸ interference ▸ migration scale ▸ fidelity ▸
/// seed ▸ scheduler), with schedulers innermost so each block of
/// `schedulers.len()` cells forms one comparison row whose first entry is
/// the baseline.
///
/// Traces are held by [`TraceHandle`] — adding the same trace to several
/// grids, or expanding it into thousands of cells, never clones the job
/// vector.
#[derive(Debug, Clone)]
pub struct SweepGrid {
    traces: Vec<TraceEntry>,
    schedulers: Vec<(String, SchedulerKind)>,
    seeds: Vec<u64>,
    fidelities: Vec<FidelityMode>,
    interferences: Vec<InterferenceSpec>,
    migration_scales: Vec<f64>,
    backends: Vec<BackendKind>,
    faults: Vec<FaultSpec>,
    round_period: SimDuration,
}

impl SweepGrid {
    /// A grid over one trace with paper-default axes and no schedulers
    /// yet (add them with [`SweepGrid::scheduler`] or
    /// [`SweepGrid::paper_schedulers`]).
    pub fn new(trace_label: impl Into<String>, trace: impl Into<TraceHandle>) -> Self {
        SweepGrid {
            traces: vec![TraceEntry::new(trace_label.into(), trace.into())],
            schedulers: Vec::new(),
            seeds: vec![42],
            fidelities: vec![FidelityMode::Stochastic],
            interferences: vec![InterferenceSpec::Measured],
            migration_scales: vec![1.0],
            backends: vec![BackendKind::Sim],
            faults: vec![FaultSpec::none()],
            round_period: SimDuration::from_mins(5),
        }
    }

    /// Adds another trace axis value.
    pub fn trace(mut self, label: impl Into<String>, trace: impl Into<TraceHandle>) -> Self {
        self.traces
            .push(TraceEntry::new(label.into(), trace.into()));
        self
    }

    /// Adds one named scheduler (names distinguish Eva variants that
    /// share the `Eva` report label).
    pub fn scheduler(mut self, name: impl Into<String>, kind: SchedulerKind) -> Self {
        self.schedulers.push((name.into(), kind));
        self
    }

    /// Adds schedulers by their canonical CLI names.
    pub fn schedulers_by_name(mut self, names: &[&str]) -> Result<Self, String> {
        for name in names {
            let kind = SchedulerKind::from_name(name)?;
            self.schedulers.push((name.to_string(), kind));
        }
        Ok(self)
    }

    /// Adds the five §6.1 schedulers in the paper's reporting order.
    pub fn paper_schedulers(mut self) -> Self {
        for kind in SchedulerKind::paper_set() {
            self.schedulers.push((kind.label().to_string(), kind));
        }
        self
    }

    /// Replaces the seed axis.
    pub fn seeds(mut self, seeds: impl Into<Vec<u64>>) -> Self {
        self.seeds = seeds.into();
        self
    }

    /// Replaces the fidelity axis.
    pub fn fidelities(mut self, fidelities: impl Into<Vec<FidelityMode>>) -> Self {
        self.fidelities = fidelities.into();
        self
    }

    /// Replaces the interference axis.
    pub fn interferences(mut self, specs: impl Into<Vec<InterferenceSpec>>) -> Self {
        self.interferences = specs.into();
        self
    }

    /// Replaces the migration-delay-scale axis.
    pub fn migration_scales(mut self, scales: impl Into<Vec<f64>>) -> Self {
        self.migration_scales = scales.into();
        self
    }

    /// Replaces the execution-backend axis (default: sim only).
    pub fn backends(mut self, backends: impl Into<Vec<BackendKind>>) -> Self {
        self.backends = backends.into();
        self
    }

    /// Replaces the fault axis (default: fault-free only). Each value
    /// compiles into its own deterministic [`crate::FaultPlan`] per cell,
    /// turning any existing grid into a robustness experiment.
    pub fn faults(mut self, faults: impl Into<Vec<FaultSpec>>) -> Self {
        self.faults = faults.into();
        self
    }

    /// Sets the scheduling round period for every cell.
    pub fn round_period(mut self, period: SimDuration) -> Self {
        self.round_period = period;
        self
    }

    /// Number of schedulers per comparison block.
    pub fn schedulers_per_block(&self) -> usize {
        self.schedulers.len()
    }

    /// Total number of cells the grid expands to.
    pub fn cell_count(&self) -> usize {
        self.traces.len()
            * self.backends.len()
            * self.faults.len()
            * self.interferences.len()
            * self.migration_scales.len()
            * self.fidelities.len()
            * self.seeds.len()
            * self.schedulers.len()
    }

    /// Expands the grid into its cells in stable order.
    pub fn cells(&self) -> Vec<SweepCell> {
        let mut cells = Vec::with_capacity(self.cell_count());
        for (trace_idx, entry) in self.traces.iter().enumerate() {
            for &backend in &self.backends {
                for &faults in &self.faults {
                    for &interference in &self.interferences {
                        for &scale in &self.migration_scales {
                            for &fidelity in &self.fidelities {
                                for &seed in &self.seeds {
                                    for (name, kind) in &self.schedulers {
                                        cells.push(SweepCell {
                                            index: cells.len(),
                                            trace_index: trace_idx,
                                            key: CellKey {
                                                trace: entry.label.clone(),
                                                scheduler: name.clone(),
                                                seed,
                                                fidelity: fidelity_label(fidelity).to_string(),
                                                interference: interference.label(),
                                                migration_delay_scale: scale,
                                                backend: backend.label().to_string(),
                                                faults: faults.label(),
                                            },
                                            scheduler: kind.clone(),
                                            seed,
                                            fidelity,
                                            interference,
                                            migration_delay_scale: scale,
                                            backend,
                                            faults,
                                            round_period: self.round_period,
                                        });
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        cells
    }

    /// Builds the [`SimConfig`] for one cell. The trace is shared by
    /// handle — this is a reference-count bump, not a job-vector clone,
    /// even for deduplicated cells.
    pub fn cell_config(&self, cell: &SweepCell) -> SimConfig {
        SimConfig {
            trace: self.traces[cell.trace_index].handle.clone(),
            scheduler: cell.scheduler.clone(),
            seed: cell.seed,
            round_period: cell.round_period,
            fidelity: cell.fidelity,
            interference: cell.interference,
            migration_delay_scale: cell.migration_delay_scale,
            faults: cell.faults,
            retire_completed: false,
        }
    }

    /// Content identity of the *work* a cell performs: the trace's
    /// content hash plus every semantic knob. Two cells with equal
    /// fingerprints produce byte-identical reports — within a grid the
    /// runner executes one and fans the report out, and across
    /// experiments the fingerprint is the persistent cache key (the
    /// [`ReportCache`] adds the code schema version).
    ///
    /// Interference is normalized away under No-Packing: it never
    /// co-locates tasks, so the ground-truth interference model is
    /// unobservable — fig4-style grids then run one No-Packing cell per
    /// `(trace, seed, fidelity, scale)` instead of one per interference
    /// level.
    pub(crate) fn fingerprint(&self, cell: &SweepCell) -> String {
        let interference = match cell.scheduler {
            SchedulerKind::NoPacking => "-".to_string(),
            _ => cell.interference.label(),
        };
        format!(
            "trace:{}|sched:{:?}|seed:{}|fid:{}|int:{}|scale:{}|period:{}ms|backend:{}|fault:{}",
            self.traces[cell.trace_index].handle.fingerprint_hex(),
            cell.scheduler,
            cell.seed,
            fidelity_label(cell.fidelity),
            interference,
            cell.migration_delay_scale,
            self.round_period.as_millis(),
            cell.backend.label(),
            cell.faults.label(),
        )
    }

    /// Rough relative runtime of a cell, for longest-first scheduling:
    /// the trace's cached `jobs + tasks` weight scaled by fidelity
    /// (stochastic samples delays) and backend weight (live = simulate +
    /// replay on real threads). The weight is computed once per trace
    /// axis entry, so planning a million-job grid never rescans a job
    /// vector.
    pub(crate) fn cost_estimate(&self, cell: &SweepCell) -> u64 {
        let weight = self.traces[cell.trace_index].weight.max(1);
        let fidelity = match cell.fidelity {
            FidelityMode::Stochastic => 3,
            FidelityMode::Nominal => 2,
        };
        let backend = match cell.backend {
            BackendKind::Sim => 1,
            BackendKind::Live => 3,
        };
        weight * fidelity * backend
    }
}

/// Stable textual form of a fidelity mode.
pub fn fidelity_label(mode: FidelityMode) -> &'static str {
    match mode {
        FidelityMode::Nominal => "nominal",
        FidelityMode::Stochastic => "stochastic",
    }
}

/// One expanded grid cell, ready to run.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Position in the grid's stable expansion order.
    pub index: usize,
    /// Index into the grid's trace axis.
    pub trace_index: usize,
    /// The serializable identity of the cell.
    pub key: CellKey,
    /// The scheduler under test.
    pub scheduler: SchedulerKind,
    /// RNG seed for the cell.
    pub seed: u64,
    /// Delay-model fidelity.
    pub fidelity: FidelityMode,
    /// Ground-truth interference.
    pub interference: InterferenceSpec,
    /// Migration-delay multiplier.
    pub migration_delay_scale: f64,
    /// Execution backend the cell runs on.
    pub backend: BackendKind,
    /// Fault-axis value the cell injects.
    pub faults: FaultSpec,
    /// Scheduling round period.
    pub round_period: SimDuration,
}

/// Serializable identity of a cell inside sweep results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellKey {
    /// Trace-axis label.
    pub trace: String,
    /// Scheduler name as declared on the grid.
    pub scheduler: String,
    /// RNG seed.
    pub seed: u64,
    /// Fidelity label (`nominal`/`stochastic`).
    pub fidelity: String,
    /// Interference label (`measured`/`uniform(t)`).
    pub interference: String,
    /// Migration-delay multiplier.
    pub migration_delay_scale: f64,
    /// Execution backend label (`sim`/`live`).
    pub backend: String,
    /// Fault-axis label (`none`, `preempt-storm:1`, …).
    pub faults: String,
}

/// One finished cell: its identity plus its report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellOutcome {
    /// Which cell this is.
    pub key: CellKey,
    /// The cell's simulation report.
    pub report: SimReport,
}

/// All cell outcomes of a sweep, in stable grid order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepResult {
    /// Outcomes in the grid's expansion order.
    pub cells: Vec<CellOutcome>,
    /// Schedulers per comparison block (the innermost axis length).
    pub schedulers_per_block: usize,
}

impl SweepResult {
    /// The reports in cell order.
    pub fn reports(&self) -> impl Iterator<Item = &SimReport> {
        self.cells.iter().map(|c| &c.report)
    }

    /// Comparison blocks: consecutive runs over the same axes that differ
    /// only in scheduler (the first entry is the declared baseline).
    pub fn blocks(&self) -> impl Iterator<Item = &[CellOutcome]> {
        self.cells.chunks(self.schedulers_per_block.max(1))
    }

    /// First outcome for a scheduler name, if any.
    pub fn first_for(&self, scheduler: &str) -> Option<&CellOutcome> {
        self.cells.iter().find(|c| c.key.scheduler == scheduler)
    }

    /// Deterministic pretty JSON of the whole sweep (byte-identical across
    /// thread counts because cell order is stable).
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("SweepResult serializes")
    }
}

/// Multi-threaded executor for [`SweepGrid`]s.
///
/// Workers claim deduplicated cells — longest first — from a shared
/// atomic cursor, run each on its cell's backend (serving it from the
/// optional persistent [`ReportCache`] when warm), and write the outcome
/// into the cell's own slot, so the merged result is independent of
/// scheduling order, thread count, and cache state.
#[derive(Debug, Clone)]
pub struct SweepRunner {
    threads: usize,
    cache: Option<ReportCache>,
}

impl SweepRunner {
    /// A runner over `threads` workers; 0 selects the machine's available
    /// parallelism.
    pub fn new(threads: usize) -> Self {
        SweepRunner {
            threads: CellPool::new(threads).threads(),
            cache: None,
        }
    }

    /// Attaches a persistent report cache: representatives found in the
    /// cache skip simulation, and fresh reports are stored for the next
    /// run (or the next experiment sharing the cell).
    pub fn with_cache(mut self, cache: ReportCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The attached cache, if any.
    pub fn cache(&self) -> Option<&ReportCache> {
        self.cache.as_ref()
    }

    /// The worker count this runner was resolved to.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every cell of `grid` and merges outcomes in stable cell order.
    pub fn run(&self, grid: &SweepGrid) -> SweepResult {
        self.run_with_stats(grid).0
    }

    /// Runs the grid and also reports what executed vs what the
    /// deduplicator and cache absorbed.
    ///
    /// Identical cells run once (their report fans out to every
    /// duplicate), cached cells don't run at all, and unique cells are
    /// claimed longest-first; none of these optimizations can change the
    /// merged bytes, because duplicate cells would have produced
    /// byte-identical reports anyway and every report lands in its cell's
    /// own slot.
    pub fn run_with_stats(&self, grid: &SweepGrid) -> (SweepResult, PoolStats) {
        let cells = grid.cells();
        let pool = CellPool::new(self.threads);
        let fingerprint = |i: usize| grid.fingerprint(&cells[i]);
        let cost = |i: usize| grid.cost_estimate(&cells[i]);
        let run = |i: usize| {
            let cell = &cells[i];
            let cfg = grid.cell_config(cell);
            cell.backend.run(&cfg)
        };
        let (reports, stats) = pool.run(cells.len(), &fingerprint, &cost, self.cache(), &run);
        let result = SweepResult {
            cells: cells
                .iter()
                .zip(reports)
                .map(|(cell, report)| CellOutcome {
                    key: cell.key.clone(),
                    report,
                })
                .collect(),
            schedulers_per_block: grid.schedulers_per_block(),
        };
        (result, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::RunPlan;
    use eva_workloads::{SyntheticTraceConfig, Trace};

    fn tiny_trace(jobs: usize) -> Trace {
        SyntheticTraceConfig {
            num_jobs: jobs,
            mean_interarrival: SimDuration::from_mins(12),
            duration: eva_workloads::UniformHours::new(0.2, 0.5),
            single_task_only: true,
        }
        .generate(7)
    }

    fn tiny_grid() -> SweepGrid {
        SweepGrid::new("tiny", tiny_trace(5))
            .schedulers_by_name(&["no-packing", "stratus"])
            .unwrap()
            .seeds(vec![1, 2])
            .fidelities(vec![FidelityMode::Nominal])
    }

    #[test]
    fn cells_expand_in_stable_scheduler_innermost_order() {
        let cells = tiny_grid().cells();
        assert_eq!(cells.len(), 4);
        let keys: Vec<(u64, &str)> = cells
            .iter()
            .map(|c| (c.key.seed, c.key.scheduler.as_str()))
            .collect();
        assert_eq!(
            keys,
            vec![
                (1, "no-packing"),
                (1, "stratus"),
                (2, "no-packing"),
                (2, "stratus"),
            ]
        );
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
        }
    }

    #[test]
    fn parallel_run_matches_serial_run_exactly() {
        let grid = tiny_grid();
        let serial = SweepRunner::new(1).run(&grid);
        let parallel = SweepRunner::new(4).run(&grid);
        assert_eq!(serial, parallel);
        assert_eq!(serial.to_json_pretty(), parallel.to_json_pretty());
    }

    #[test]
    fn more_threads_than_cells_is_fine() {
        let grid = SweepGrid::new("one", tiny_trace(3))
            .scheduler("No-Packing", SchedulerKind::NoPacking)
            .fidelities(vec![FidelityMode::Nominal]);
        let result = SweepRunner::new(64).run(&grid);
        assert_eq!(result.cells.len(), 1);
        assert_eq!(result.cells[0].report.jobs_completed, 3);
    }

    #[test]
    fn blocks_group_by_scheduler_axis() {
        let result = SweepRunner::new(2).run(&tiny_grid());
        let blocks: Vec<_> = result.blocks().collect();
        assert_eq!(blocks.len(), 2, "one block per seed");
        for block in blocks {
            assert_eq!(block.len(), 2);
            assert_eq!(block[0].key.scheduler, "no-packing");
        }
        assert!(result.first_for("stratus").is_some());
        assert!(result.first_for("owl").is_none());
    }

    #[test]
    fn runner_zero_resolves_to_available_parallelism() {
        assert!(SweepRunner::new(0).threads() >= 1);
        assert_eq!(SweepRunner::new(3).threads(), 3);
    }

    #[test]
    fn no_packing_cells_dedup_across_interference_axis() {
        // fig4's shape: an interference axis No-Packing cannot observe.
        let grid = SweepGrid::new("fig4", tiny_trace(4))
            .schedulers_by_name(&["no-packing", "owl"])
            .unwrap()
            .interferences(vec![
                InterferenceSpec::Uniform(1.0),
                InterferenceSpec::Uniform(0.9),
                InterferenceSpec::Uniform(0.8),
            ])
            .fidelities(vec![FidelityMode::Nominal]);
        assert_eq!(grid.cell_count(), 6);
        // One No-Packing run + three Owl runs.
        let (result, stats) = SweepRunner::new(2).run_with_stats(&grid);
        assert_eq!(stats.unique, 4);
        // Dedup must not change results: every No-Packing report equals
        // the representative's, and each cell keeps its own key.
        assert_eq!(result.cells.len(), 6);
        let np: Vec<_> = result
            .cells
            .iter()
            .filter(|c| c.key.scheduler == "no-packing")
            .collect();
        assert_eq!(np.len(), 3);
        assert!(np.iter().all(|c| c.report == np[0].report));
        assert_eq!(np[1].key.interference, "uniform(0.9)");
    }

    #[test]
    fn dedup_fans_out_reports_identical_to_direct_per_cell_runs() {
        // The guard for the dedup premise: every fanned-out report must
        // equal what running the cell's own config directly produces —
        // in particular No-Packing under each interference level it was
        // deduplicated across. If No-Packing ever becomes
        // interference-sensitive, this fails.
        let grid = SweepGrid::new("guard", tiny_trace(4))
            .schedulers_by_name(&["no-packing", "eva"])
            .unwrap()
            .interferences(vec![
                InterferenceSpec::Measured,
                InterferenceSpec::Uniform(0.85),
            ])
            .fidelities(vec![FidelityMode::Nominal]);
        let (result, stats) = SweepRunner::new(2).run_with_stats(&grid);
        assert!(stats.unique < grid.cell_count());
        for (cell, outcome) in grid.cells().iter().zip(&result.cells) {
            let direct = crate::runner::run_simulation(&grid.cell_config(cell));
            assert_eq!(
                outcome.report, direct,
                "deduped report diverges from a direct run of {:?}",
                cell.key
            );
        }
    }

    #[test]
    fn literal_duplicate_cells_dedup_too() {
        let grid = SweepGrid::new("dup", tiny_trace(3))
            .scheduler("stratus-a", SchedulerKind::Stratus)
            .scheduler("stratus-b", SchedulerKind::Stratus)
            .fidelities(vec![FidelityMode::Nominal]);
        assert_eq!(grid.cell_count(), 2);
        let (result, stats) = SweepRunner::new(2).run_with_stats(&grid);
        assert_eq!(stats.unique, 1);
        assert_eq!(result.cells[0].report, result.cells[1].report);
        assert_eq!(result.cells[0].key.scheduler, "stratus-a");
        assert_eq!(result.cells[1].key.scheduler, "stratus-b");
    }

    #[test]
    fn identical_trace_content_dedups_across_axis_entries() {
        // The fingerprint is content-based, so two trace axis values with
        // equal jobs — however constructed — share representatives.
        let grid = SweepGrid::new("a", tiny_trace(3))
            .trace("b", tiny_trace(3))
            .scheduler("No-Packing", SchedulerKind::NoPacking)
            .fidelities(vec![FidelityMode::Nominal]);
        let cells = grid.cells();
        assert_eq!(cells.len(), 2);
        assert_eq!(grid.fingerprint(&cells[0]), grid.fingerprint(&cells[1]));
    }

    #[test]
    fn execution_order_is_longest_first_and_deterministic() {
        let big = tiny_trace(9);
        let grid = SweepGrid::new("small", tiny_trace(2))
            .trace("big", big)
            .scheduler("No-Packing", SchedulerKind::NoPacking)
            .fidelities(vec![FidelityMode::Nominal, FidelityMode::Stochastic]);
        let cells = grid.cells();
        let build = || {
            RunPlan::build(cells.len(), &|i| grid.fingerprint(&cells[i]), &|i| {
                grid.cost_estimate(&cells[i])
            })
        };
        let plan = build();
        assert_eq!(plan.unique_count(), 4);
        // Big-trace stochastic first, ties broken by cell index.
        let costs: Vec<u64> = plan
            .order
            .iter()
            .map(|&i| grid.cost_estimate(&cells[i]))
            .collect();
        assert!(costs.windows(2).all(|w| w[0] >= w[1]), "{costs:?}");
        assert_eq!(plan.order, build().order);
    }

    #[test]
    fn backend_axis_doubles_cells_and_labels_keys() {
        let grid = tiny_grid().backends(vec![BackendKind::Sim, BackendKind::Live]);
        assert_eq!(grid.cell_count(), 8);
        let cells = grid.cells();
        assert!(cells[..4].iter().all(|c| c.key.backend == "sim"));
        assert!(cells[4..].iter().all(|c| c.key.backend == "live"));
        // Sim and live cells never share a fingerprint.
        let prints: std::collections::BTreeSet<String> =
            cells.iter().map(|c| grid.fingerprint(c)).collect();
        assert_eq!(prints.len(), 8);
    }

    #[test]
    fn fingerprint_literal_is_pinned() {
        // The persistent cache key of one tiny cell, trace hash included.
        // Changing this string strands every warm cache: bump
        // `SCHEMA_VERSION` in the same change.
        let grid = tiny_grid();
        assert_eq!(
            grid.fingerprint(&grid.cells()[1]),
            "trace:2d5abd2164432f67|sched:Stratus|seed:1|fid:nominal|int:measured|scale:1|\
             period:300000ms|backend:sim|fault:none"
        );
    }

    #[test]
    fn cell_keys_round_trip() {
        let cells = tiny_grid().cells();
        let json = serde_json::to_string(&cells[0].key).unwrap();
        let back: CellKey = serde_json::from_str(&json).unwrap();
        assert_eq!(cells[0].key, back);
    }

    #[test]
    fn cached_rerun_is_byte_identical_and_simulates_nothing() {
        let dir = std::env::temp_dir().join(format!("eva-sweep-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let grid = tiny_grid();
        let runner = SweepRunner::new(2).with_cache(ReportCache::new(&dir));
        let (first, s1) = runner.run_with_stats(&grid);
        assert_eq!(s1.executed, s1.unique);
        assert_eq!(s1.cache_hits, 0);
        let (second, s2) = runner.run_with_stats(&grid);
        assert!(s2.all_cached(), "{}", s2.summary());
        assert_eq!(first.to_json_pretty(), second.to_json_pretty());
        // An uncached run agrees byte-for-byte with the cached one.
        let cold = SweepRunner::new(2).run(&grid);
        assert_eq!(cold.to_json_pretty(), second.to_json_pretty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
