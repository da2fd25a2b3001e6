//! `eva` — command-line front end for the simulator and catalogs.
//!
//! ```text
//! eva simulate [--jobs N] [--rate JOBS_PER_HR] [--scheduler NAME]
//!              [--durations alibaba|gavel] [--seed N] [--period MINS]
//!              [--faults REGIME[:INTENSITY]] [--json FILE]
//! eva compare  [--jobs N] [--rate JOBS_PER_HR] [--durations ...] [--seed N]
//!              [--period MINS] [--faults REGIME[:INTENSITY]] [--threads N]
//! eva sweep    [--jobs N] [--rate JOBS_PER_HR] [--durations ...]
//!              [--schedulers A,B,..] [--seeds S1,S2,..]
//!              [--backend sim|live|sim,live] [--threads N] [--procs N]
//!              [--faults REGIME[:INTENSITY]]
//!              [--cache] [--no-cache] [--cache-dir DIR]
//!              [--period MINS] [--json FILE]
//! eva serve    --source synthetic:RATE|trace:PATH|stdin
//!              [--scheduler NAME] [--seed N] [--period MINS]
//!              [--duration HOURS] [--metrics-every SECS] [--max-jobs N]
//! eva cache    stats|verify [--cache-dir DIR]
//! eva cache    prune [--max-age DAYS] [--keep-retired] [--cache-dir DIR]
//! eva cache    import|merge SRC [--cache-dir DIR]
//! eva cache    export DEST [--cache-dir DIR]
//! eva workloads        # print the Table 7 workload catalog
//! eva catalog          # print the 21-type AWS instance catalog
//! ```
//!
//! `--procs N` federates the sweep over N processes claiming cells from
//! the shared cache dir; merged output stays byte-identical to
//! `--procs 1`.

use std::process::ExitCode;

use eva::prelude::*;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    command: Command,
}

#[derive(Debug, Clone, PartialEq)]
enum Command {
    Simulate(SimArgs),
    Compare(SimArgs),
    Sweep(SweepArgs),
    Serve(ServeArgs),
    Cache(CacheArgs),
    Workloads,
    Catalog,
    Help,
}

#[derive(Debug, Clone, PartialEq)]
struct SimArgs {
    jobs: usize,
    rate: f64,
    scheduler: String,
    durations: String,
    seed: u64,
    period_mins: f64,
    threads: usize,
    /// Adversarial fault regime injected into the run (`none` default).
    faults: FaultSpec,
    json: Option<String>,
}

impl Default for SimArgs {
    fn default() -> Self {
        SimArgs {
            jobs: 500,
            rate: 3.0,
            scheduler: "eva".into(),
            durations: "alibaba".into(),
            seed: 42,
            period_mins: 5.0,
            threads: 0,
            faults: FaultSpec::none(),
            json: None,
        }
    }
}

/// Arguments of the `sweep` subcommand: the shared simulation knobs plus
/// the scheduler, seed, and backend axes of the grid and the persistent
/// report cache.
#[derive(Debug, Clone, PartialEq)]
struct SweepArgs {
    sim: SimArgs,
    schedulers: Vec<String>,
    seeds: Vec<u64>,
    backends: Vec<String>,
    /// Whether the persistent report cache is consulted (CLI default:
    /// off; `--cache`, `--cache-dir`, or `--procs > 1` turns it on).
    cache: bool,
    /// Cache directory (`results/cache` when unset).
    cache_dir: Option<String>,
    /// Total processes the sweep federates over (1 = in-process only).
    /// `> 1` spawns `procs - 1` workers that claim cells from the shared
    /// cache dir; the merged output is byte-identical either way.
    procs: usize,
}

impl Default for SweepArgs {
    fn default() -> Self {
        SweepArgs {
            sim: SimArgs::default(),
            schedulers: vec![
                "no-packing".into(),
                "stratus".into(),
                "synergy".into(),
                "owl".into(),
                "eva".into(),
            ],
            seeds: vec![42],
            backends: vec!["sim".into()],
            cache: false,
            cache_dir: None,
            procs: 1,
        }
    }
}

/// Where `eva serve` pulls its job stream from.
#[derive(Debug, Clone, PartialEq)]
enum ServeSource {
    /// Seeded open-loop Poisson generator at a mean arrival rate.
    Synthetic { rate_per_hour: f64 },
    /// Replay a serialized trace file in arrival order.
    Trace { path: String },
    /// Line-delimited `JobSpec` JSON from standard input (a pipe or
    /// socket-forwarded feed).
    Stdin,
}

impl ServeSource {
    fn parse(spec: &str) -> Result<Self, String> {
        if spec == "stdin" {
            return Ok(ServeSource::Stdin);
        }
        if let Some(rate) = spec.strip_prefix("synthetic:") {
            let rate_per_hour: f64 = rate
                .parse()
                .map_err(|e| format!("--source synthetic: {e}"))?;
            if !(rate_per_hour.is_finite() && rate_per_hour > 0.0) {
                return Err("--source synthetic: rate must be a positive jobs/hour".into());
            }
            return Ok(ServeSource::Synthetic { rate_per_hour });
        }
        if let Some(path) = spec.strip_prefix("trace:") {
            if path.is_empty() {
                return Err("--source trace: needs a file path".into());
            }
            return Ok(ServeSource::Trace {
                path: path.to_string(),
            });
        }
        Err(format!(
            "unknown source `{spec}` (synthetic:RATE, trace:PATH, or stdin)"
        ))
    }
}

/// Arguments of the `serve` subcommand: a job source plus the service
/// loop's horizon and metrics cadence (both in *simulated* time).
#[derive(Debug, Clone, PartialEq)]
struct ServeArgs {
    source: ServeSource,
    scheduler: String,
    seed: u64,
    period_mins: f64,
    /// Stop ingesting jobs arriving past this horizon; in-flight jobs
    /// still drain. `None` runs until the source is exhausted.
    duration_hours: Option<f64>,
    /// Rolling metrics emission interval (simulated seconds).
    metrics_every_secs: f64,
    /// Safety cap on synthetic-source pulls.
    max_jobs: usize,
}

impl Default for ServeArgs {
    fn default() -> Self {
        ServeArgs {
            source: ServeSource::Synthetic { rate_per_hour: 3.0 },
            scheduler: "eva".into(),
            seed: 42,
            period_mins: 5.0,
            duration_hours: None,
            metrics_every_secs: 3600.0,
            max_jobs: 1_000_000,
        }
    }
}

/// Arguments of the `cache` subcommand: a lifecycle action over a cache
/// directory.
#[derive(Debug, Clone, PartialEq)]
struct CacheArgs {
    action: CacheAction,
    /// Cache directory the action applies to (`results/cache` default).
    dir: String,
}

#[derive(Debug, Clone, PartialEq)]
enum CacheAction {
    /// Entry/schema/producer breakdown.
    Stats,
    /// Re-hash entries against stored keys; report orphaned temps and
    /// leftover claims. Exits non-zero unless the cache is clean.
    Verify,
    /// Remove retired-schema entries (unless `keep_retired`), entries
    /// older than `max_age_days`, corrupt entries, and stale litter.
    Prune {
        max_age_days: Option<f64>,
        keep_retired: bool,
    },
    /// Union a foreign cache dir into this one (`merge` is an alias).
    Import { src: String },
    /// Union this cache into a foreign dir.
    Export { dest: String },
}

/// Parses arguments (exposed for testing).
pub fn parse(args: &[String]) -> Result<Cli, String> {
    let mut it = args.iter();
    let command = match it.next().map(String::as_str) {
        Some("simulate") => Command::Simulate(parse_sim_args(it, false)?.sim),
        Some("compare") => Command::Compare(parse_sim_args(it, false)?.sim),
        Some("sweep") => Command::Sweep(parse_sim_args(it, true)?),
        Some("serve") => Command::Serve(parse_serve_args(it)?),
        Some("cache") => Command::Cache(parse_cache_args(it)?),
        Some("workloads") => Command::Workloads,
        Some("catalog") => Command::Catalog,
        Some("help") | Some("--help") | Some("-h") | None => Command::Help,
        Some(other) => return Err(format!("unknown command `{other}` (try `eva help`)")),
    };
    Ok(Cli { command })
}

fn parse_sim_args<'a>(
    mut it: impl Iterator<Item = &'a String>,
    sweep: bool,
) -> Result<SweepArgs, String> {
    let mut args = SweepArgs::default();
    let mut no_cache = false;
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match flag.as_str() {
            "--jobs" => args.sim.jobs = value()?.parse().map_err(|e| format!("--jobs: {e}"))?,
            "--rate" => {
                args.sim.rate = value()?.parse().map_err(|e| format!("--rate: {e}"))?;
                if !(args.sim.rate.is_finite() && args.sim.rate > 0.0) {
                    return Err("--rate: must be a positive number of jobs per hour".into());
                }
            }
            "--scheduler" if !sweep => args.sim.scheduler = value()?,
            "--durations" => args.sim.durations = value()?,
            "--seed" => args.sim.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--period" => {
                args.sim.period_mins = value()?.parse().map_err(|e| format!("--period: {e}"))?;
                if !(args.sim.period_mins.is_finite() && args.sim.period_mins > 0.0) {
                    return Err("--period: must be a positive number of minutes".into());
                }
            }
            "--threads" => {
                args.sim.threads = value()?.parse().map_err(|e| format!("--threads: {e}"))?
            }
            "--faults" => {
                args.sim.faults =
                    FaultSpec::parse(&value()?).map_err(|e| format!("--faults: {e}"))?
            }
            "--schedulers" if sweep => {
                args.schedulers = value()?.split(',').map(str::to_string).collect();
                for name in &args.schedulers {
                    SchedulerKind::from_name(name)?;
                }
            }
            "--seeds" if sweep => {
                args.seeds = value()?
                    .split(',')
                    .map(|s| s.parse().map_err(|e| format!("--seeds: {e}")))
                    .collect::<Result<Vec<u64>, String>>()?;
            }
            "--backend" if sweep => {
                args.backends = value()?.split(',').map(str::to_string).collect();
                for name in &args.backends {
                    BackendKind::from_name(name).map_err(|e| format!("--backend: {e}"))?;
                }
            }
            "--cache" if sweep => args.cache = true,
            "--no-cache" if sweep => {
                args.cache = false;
                args.cache_dir = None;
                no_cache = true;
            }
            "--cache-dir" if sweep => {
                args.cache_dir = Some(value()?);
                args.cache = true;
            }
            "--procs" if sweep => {
                args.procs = value()?.parse().map_err(|e| format!("--procs: {e}"))?;
                if args.procs == 0 {
                    return Err("--procs: must be at least 1".into());
                }
            }
            "--json" => args.sim.json = Some(value()?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.procs > 1 {
        if no_cache {
            return Err(
                "--procs: federated sweeps coordinate through the cache dir; drop --no-cache"
                    .into(),
            );
        }
        // Federation needs the cache as its coordination substrate.
        args.cache = true;
    }
    Ok(args)
}

fn parse_serve_args<'a>(mut it: impl Iterator<Item = &'a String>) -> Result<ServeArgs, String> {
    let mut args = ServeArgs::default();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match flag.as_str() {
            "--source" => args.source = ServeSource::parse(&value()?)?,
            "--scheduler" => args.scheduler = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--period" => {
                args.period_mins = value()?.parse().map_err(|e| format!("--period: {e}"))?;
                if !(args.period_mins.is_finite() && args.period_mins > 0.0) {
                    return Err("--period: must be a positive number of minutes".into());
                }
            }
            "--duration" => {
                let hours: f64 = value()?.parse().map_err(|e| format!("--duration: {e}"))?;
                if !(hours.is_finite() && hours > 0.0) {
                    return Err("--duration: must be a positive number of hours".into());
                }
                args.duration_hours = Some(hours);
            }
            "--metrics-every" => {
                args.metrics_every_secs = value()?
                    .parse()
                    .map_err(|e| format!("--metrics-every: {e}"))?;
                if !(args.metrics_every_secs.is_finite() && args.metrics_every_secs > 0.0) {
                    return Err("--metrics-every: must be a positive number of seconds".into());
                }
            }
            "--max-jobs" => {
                args.max_jobs = value()?.parse().map_err(|e| format!("--max-jobs: {e}"))?;
                if args.max_jobs == 0 {
                    return Err("--max-jobs: must be at least 1".into());
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    SchedulerKind::from_name(&args.scheduler)?;
    Ok(args)
}

fn parse_cache_args<'a>(mut it: impl Iterator<Item = &'a String>) -> Result<CacheArgs, String> {
    let action = it
        .next()
        .ok_or("cache needs an action: stats, verify, prune, import, merge, export")?;
    let mut dir: Option<String> = None;
    let mut operand: Option<String> = None;
    let mut max_age_days: Option<f64> = None;
    let mut keep_retired = false;
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match flag.as_str() {
            "--cache-dir" => dir = Some(value()?),
            "--max-age" if action == "prune" => {
                let days: f64 = value()?.parse().map_err(|e| format!("--max-age: {e}"))?;
                if !(days.is_finite() && days > 0.0) {
                    return Err("--max-age: must be a positive number of days".into());
                }
                max_age_days = Some(days);
            }
            "--keep-retired" if action == "prune" => keep_retired = true,
            other if !other.starts_with('-') && operand.is_none() => {
                operand = Some(other.to_string());
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let need_operand = |what: &str| {
        operand
            .clone()
            .ok_or_else(|| format!("cache {action} needs a {what} directory"))
    };
    let action = match action.as_str() {
        "stats" | "verify" | "prune" if operand.is_some() => {
            return Err(format!(
                "cache {action} takes no positional argument (got `{}`)",
                operand.unwrap_or_default()
            ))
        }
        "stats" => CacheAction::Stats,
        "verify" => CacheAction::Verify,
        "prune" => CacheAction::Prune {
            max_age_days,
            keep_retired,
        },
        "import" | "merge" => CacheAction::Import {
            src: need_operand("source")?,
        },
        "export" => CacheAction::Export {
            dest: need_operand("destination")?,
        },
        other => {
            return Err(format!(
                "unknown cache action `{other}` (stats, verify, prune, import, merge, export)"
            ))
        }
    };
    Ok(CacheArgs {
        action,
        dir: dir.unwrap_or_else(|| "results/cache".to_string()),
    })
}

fn build_trace(args: &SimArgs) -> Result<Trace, String> {
    let durations = match args.durations.to_ascii_lowercase().as_str() {
        "alibaba" => DurationModelChoice::Alibaba,
        "gavel" => DurationModelChoice::Gavel,
        other => return Err(format!("unknown duration model `{other}`")),
    };
    let cfg = AlibabaTraceConfig {
        num_jobs: args.jobs,
        arrival_rate_per_hour: args.rate,
        durations,
    };
    Ok(cfg.generate(args.seed))
}

fn round_period(args: &SimArgs) -> SimDuration {
    SimDuration::from_hours_f64(args.period_mins / 60.0)
}

fn run(cli: Cli) -> Result<(), String> {
    match cli.command {
        Command::Help => {
            println!(
                "eva — cost-efficient cloud-based cluster scheduling (EuroSys '25 reproduction)\n\n\
                 USAGE:\n  eva simulate [--jobs N] [--rate J/HR] [--scheduler NAME] [--durations alibaba|gavel] [--seed N] [--period MINS] [--faults REGIME[:INT]] [--threads N] [--json FILE]\n  \
                 eva compare  [--jobs N] [--rate J/HR] [--durations ...] [--seed N] [--period MINS] [--faults REGIME[:INT]] [--threads N]\n  \
                 eva sweep    [--jobs N] [--rate J/HR] [--durations ...] [--schedulers A,B,..] [--seeds S1,S2,..] [--backend sim|live|sim,live] [--faults REGIME[:INT]] [--threads N] [--procs N] [--cache] [--no-cache] [--cache-dir DIR] [--period MINS] [--json FILE]\n  \
                 eva serve    --source synthetic:RATE|trace:PATH|stdin [--scheduler NAME] [--seed N] [--period MINS] [--duration HOURS] [--metrics-every SECS] [--max-jobs N]\n  \
                 eva cache    stats|verify|prune [--max-age DAYS] [--keep-retired] [--cache-dir DIR]\n  \
                 eva cache    import|merge SRC | export DEST [--cache-dir DIR]\n  \
                 eva workloads\n  eva catalog\n\n\
                 SCHEDULERS: {}\n  BACKENDS: {} (`--backend sim,live` adds a grid axis: live cells\n\
                 replay the schedule through the real master/worker runtime)\n  \
                 FAULT REGIMES: {} — `--faults preempt-storm:2`\n\
                 compiles a deterministic fault schedule from (seed, regime,\n\
                 intensity) and injects it on whichever backend runs, so\n\
                 sim-vs-live deltas under faults measure control-plane\n\
                 robustness, not noise.\n\n\
                 `--threads 0` (the default) uses every available core; sweep results\n\
                 are byte-identical for any thread count, identical cells run once,\n\
                 and the longest cells are claimed first. A single `simulate` run is\n\
                 one cell, so `--threads` is accepted there but has no effect.\n\n\
                 `--cache` / `--cache-dir DIR` memoize cell reports on disk (default\n\
                 DIR results/cache, shared with the exp_* binaries, keyed by trace\n\
                 content + all knobs + code schema version); a warm rerun simulates\n\
                 zero cells. `--no-cache` is the CLI default.\n\n\
                 `--procs N` federates the sweep over N processes: the coordinator\n\
                 spawns N-1 workers that claim unclaimed cells longest-first via\n\
                 atomic claim files in the cache dir, publish into the cache, and\n\
                 exit; the coordinator merges in cell order, so results and --json\n\
                 bytes are identical to --procs 1. Claims are stealable after\n\
                 EVA_CLAIM_STALE_SECS (600) — a killed worker never wedges a run.\n\
                 Implies --cache. `eva cache` manages the dir: stats/verify audit\n\
                 entries (re-hash against stored keys, report orphaned temps and\n\
                 claims), prune removes retired-schema/over-age/corrupt entries,\n\
                 import/merge/export union cache dirs (e.g. rsync'd from another\n\
                 host). Entries carry a `producer` stamp naming the binary that\n\
                 first computed each cell.",
                SchedulerKind::names().join(", "),
                BackendKind::names().join(", "),
                FaultRegime::names().join(", ")
            );
        }
        Command::Workloads => {
            for w in WorkloadCatalog::table7().iter() {
                println!(
                    "{:<12} {:<28} {} ×{}",
                    w.name, w.domain, w.demand.default, w.num_tasks
                );
            }
        }
        Command::Catalog => {
            for t in eva::cloud::Catalog::aws_eval_2025().types() {
                println!("{t}");
            }
        }
        Command::Simulate(args) => {
            let trace = build_trace(&args)?;
            let kind = SchedulerKind::from_name(&args.scheduler)?;
            println!(
                "simulating {} jobs at {}/hr under {} (seed {})...",
                args.jobs,
                args.rate,
                kind.label(),
                args.seed
            );
            if !args.faults.is_none() {
                println!("injecting faults: {}", args.faults.label());
            }
            let mut cfg = SimConfig::new(trace, kind);
            cfg.seed = args.seed;
            cfg.round_period = round_period(&args);
            cfg.faults = args.faults;
            let report = run_simulation(&cfg);
            println!("{}", report.table_row(None));
            if let Some(path) = args.json {
                let json =
                    serde_json::to_string_pretty(&report).map_err(|e| format!("serialize: {e}"))?;
                std::fs::write(&path, json).map_err(|e| format!("write {path}: {e}"))?;
                println!("saved {path}");
            }
        }
        Command::Compare(args) => {
            let trace = build_trace(&args)?;
            let grid = SweepGrid::new("cli", trace)
                .paper_schedulers()
                .seeds(vec![args.seed])
                .faults(vec![args.faults])
                .round_period(round_period(&args));
            let result = SweepRunner::new(args.threads).run(&grid);
            let mut baseline: Option<&SimReport> = None;
            for cell in &result.cells {
                println!("{}", cell.report.table_row(baseline));
                baseline = baseline.or(Some(&cell.report));
            }
        }
        Command::Sweep(args) => {
            let trace = build_trace(&args.sim)?;
            let names: Vec<&str> = args.schedulers.iter().map(String::as_str).collect();
            let backends = args
                .backends
                .iter()
                .map(|name| BackendKind::from_name(name))
                .collect::<Result<Vec<_>, String>>()?;
            let grid = SweepGrid::new("cli", trace)
                .schedulers_by_name(&names)?
                .seeds(args.seeds.clone())
                .backends(backends)
                .faults(vec![args.sim.faults])
                .round_period(round_period(&args.sim));
            let mut runner = SweepRunner::new(args.sim.threads);
            if args.cache {
                let dir = args
                    .cache_dir
                    .clone()
                    .unwrap_or_else(|| "results/cache".to_string());
                let cache = ReportCache::new(dir);
                runner = if args.procs > 1 || worker_role() {
                    runner.with_federation(Federation::new(args.procs), cache)
                } else {
                    runner.with_cache(cache)
                };
            }
            println!(
                "sweeping {} cells ({} schedulers × {} seeds × {} backends, {} jobs) on {} threads{}...",
                grid.cell_count(),
                args.schedulers.len(),
                args.seeds.len(),
                args.backends.len(),
                args.sim.jobs,
                runner.threads(),
                if args.procs > 1 {
                    format!(" × {} federated procs", args.procs)
                } else {
                    String::new()
                }
            );
            let (result, stats) = runner.run_with_stats(&grid);
            println!("cells: {}", stats.summary());
            println!("{:<16} {:>6} {:>6}  report", "scheduler", "seed", "exec");
            for cell in &result.cells {
                println!(
                    "{:<16} {:>6} {:>6}  {}",
                    cell.key.scheduler,
                    cell.key.seed,
                    cell.key.backend,
                    cell.report.table_row(None)
                );
            }
            if let Some(path) = args.sim.json {
                // Federation workers inherit the coordinator's argv; the
                // coordinator alone owns the artifact file.
                if !worker_role() {
                    std::fs::write(&path, result.to_json_pretty())
                        .map_err(|e| format!("write {path}: {e}"))?;
                    println!("saved {path}");
                }
            }
            join_workers();
        }
        Command::Serve(args) => run_serve(args)?,
        Command::Cache(args) => run_cache(args)?,
    }
    Ok(())
}

/// The `eva serve` service loop: builds the requested job source, runs a
/// streaming world with job retirement on, and emits rolling
/// [`MetricsSnapshot`] JSON lines on stdout (human commentary goes to
/// stderr so the stdout stream stays machine-parseable).
fn run_serve(args: ServeArgs) -> Result<(), String> {
    let kind = SchedulerKind::from_name(&args.scheduler)?;
    let kind_label = kind.label();
    let mut cfg = SimConfig::new(TraceHandle::new(Trace::new(Vec::new())), kind);
    cfg.seed = args.seed;
    cfg.round_period = SimDuration::from_hours_f64(args.period_mins / 60.0);
    // Service mode is long-lived by design: completed jobs retire their
    // arena slots so memory tracks the in-flight window.
    cfg.retire_completed = true;
    let (source, label): (Box<dyn JobSource>, String) = match &args.source {
        ServeSource::Synthetic { rate_per_hour } => (
            Box::new(SyntheticSource::open_loop(
                *rate_per_hour,
                args.max_jobs,
                args.seed,
            )),
            format!("synthetic open-loop at {rate_per_hour} jobs/h"),
        ),
        ServeSource::Trace { path } => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
            let trace = Trace::from_json(&text).map_err(|e| format!("parse {path}: {e}"))?;
            let label = format!("trace {path} ({} jobs)", trace.len());
            (
                Box::new(TraceSource::new(TraceHandle::new(trace))),
                label,
            )
        }
        ServeSource::Stdin => (
            Box::new(JsonLinesSource::new(std::io::BufReader::new(
                std::io::stdin(),
            ))),
            "line-delimited JSON on stdin".to_string(),
        ),
    };
    let opts = ServeConfig {
        metrics_every: SimDuration::from_hours_f64(args.metrics_every_secs / 3600.0),
        duration: args.duration_hours.map(SimDuration::from_hours_f64),
    };
    eprintln!(
        "serving {} under {} (seed {}, metrics every {}s{})",
        label,
        kind_label,
        args.seed,
        args.metrics_every_secs,
        match args.duration_hours {
            Some(h) => format!(", ingest horizon {h}h"),
            None => ", until the source drains".to_string(),
        }
    );
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let outcome = serve(&cfg, source, &opts, &mut out).map_err(|e| format!("serve: {e}"))?;
    eprintln!(
        "drained: {} jobs ingested, {} rolling metrics line(s), peak {} arena job rows",
        outcome.jobs_ingested, outcome.metrics_lines, outcome.peak_job_rows
    );
    eprintln!("{}", outcome.report.table_row(None));
    Ok(())
}

/// The `eva cache` lifecycle actions. Opens the dir without the
/// usual on-open temp sweep ([`ReportCache::with_schema`]) so `stats` and
/// `verify` report orphaned litter instead of silently removing it.
fn run_cache(args: CacheArgs) -> Result<(), String> {
    let cache = ReportCache::with_schema(&args.dir, SCHEMA_VERSION);
    let stale = claim_stale_deadline();
    match args.action {
        CacheAction::Stats => {
            let stats = cache.stats();
            println!(
                "cache {}: {} entries ({} current {}), {:.1} KiB",
                args.dir,
                stats.entries,
                stats.current_schema,
                SCHEMA_VERSION,
                stats.bytes as f64 / 1024.0
            );
            for (schema, n) in &stats.schemas {
                println!("  schema   {schema:<24} {n}");
            }
            for (producer, n) in &stats.producers {
                println!("  producer {producer:<24} {n}");
            }
            if stats.temps > 0 || stats.claims > 0 {
                println!("  litter: {} temp(s), {} claim(s)", stats.temps, stats.claims);
            }
        }
        CacheAction::Verify => {
            let report = cache.verify(stale);
            println!(
                "verified {} entries: {} valid ({} retired-schema), {} issue(s)",
                report.entries,
                report.valid,
                report.retired,
                report.issues.len()
            );
            for issue in &report.issues {
                println!("  issue {}: {}", issue.file, issue.problem);
            }
            for temp in &report.temps {
                println!("  orphaned temp {temp}");
            }
            for claim in &report.claims {
                println!("  claim {claim}");
            }
            if !report.clean() {
                return Err("cache verify: not clean".into());
            }
            println!("cache verify: clean");
        }
        CacheAction::Prune {
            max_age_days,
            keep_retired,
        } => {
            let max_age = max_age_days
                .map(|days| std::time::Duration::from_secs_f64(days * 86_400.0));
            let report = cache.prune(max_age, !keep_retired, stale);
            println!(
                "pruned: {} retired, {} over-age, {} corrupt, {} temp(s), {} claim(s); {} kept",
                report.removed_retired,
                report.removed_old,
                report.removed_corrupt,
                report.removed_temps,
                report.removed_claims,
                report.kept
            );
        }
        CacheAction::Import { src } => {
            let report = cache.merge_from(std::path::Path::new(&src));
            print_merge(&format!("imported {src} into {}", args.dir), &report);
        }
        CacheAction::Export { dest } => {
            let report = cache.export_to(std::path::Path::new(&dest));
            print_merge(&format!("exported {} into {dest}", args.dir), &report);
        }
    }
    Ok(())
}

fn print_merge(what: &str, report: &MergeReport) {
    println!(
        "{what}: {} imported, {} identical, {} equivalent, {} conflicting, {} invalid",
        report.imported,
        report.skipped_identical,
        report.skipped_equivalent,
        report.conflicting,
        report.invalid
    );
    if report.conflicting > 0 {
        eprintln!(
            "warning: {} entr{} disagree about the same content key — kept the local copies",
            report.conflicting,
            if report.conflicting == 1 { "y" } else { "ies" }
        );
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args).and_then(run) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_simulate_flags() {
        let cli = parse(&argv(
            "simulate --jobs 100 --rate 2.5 --scheduler stratus --seed 7 --period 10 --threads 2",
        ))
        .unwrap();
        let Command::Simulate(args) = cli.command else {
            panic!()
        };
        assert_eq!(args.jobs, 100);
        assert_eq!(args.rate, 2.5);
        assert_eq!(args.scheduler, "stratus");
        assert_eq!(args.seed, 7);
        assert_eq!(args.period_mins, 10.0);
        assert_eq!(args.threads, 2);
    }

    #[test]
    fn parses_sweep_flags() {
        let cli = parse(&argv(
            "sweep --jobs 50 --schedulers eva,owl --seeds 1,2,3 --threads 4",
        ))
        .unwrap();
        let Command::Sweep(args) = cli.command else {
            panic!()
        };
        assert_eq!(args.schedulers, vec!["eva", "owl"]);
        assert_eq!(args.seeds, vec![1, 2, 3]);
        assert_eq!(args.sim.threads, 4);
        assert_eq!(args.sim.jobs, 50);
    }

    #[test]
    fn parses_serve_flags() {
        let cli = parse(&argv(
            "serve --source synthetic:6.5 --scheduler stratus --seed 3 --period 10 \
             --duration 48 --metrics-every 120 --max-jobs 500",
        ))
        .unwrap();
        let Command::Serve(args) = cli.command else {
            panic!()
        };
        assert_eq!(
            args.source,
            ServeSource::Synthetic { rate_per_hour: 6.5 }
        );
        assert_eq!(args.scheduler, "stratus");
        assert_eq!(args.seed, 3);
        assert_eq!(args.period_mins, 10.0);
        assert_eq!(args.duration_hours, Some(48.0));
        assert_eq!(args.metrics_every_secs, 120.0);
        assert_eq!(args.max_jobs, 500);
    }

    #[test]
    fn parses_serve_source_kinds() {
        let cli = parse(&argv("serve --source trace:/tmp/t.json")).unwrap();
        let Command::Serve(args) = cli.command else {
            panic!()
        };
        assert_eq!(
            args.source,
            ServeSource::Trace {
                path: "/tmp/t.json".to_string()
            }
        );
        let cli = parse(&argv("serve --source stdin")).unwrap();
        let Command::Serve(args) = cli.command else {
            panic!()
        };
        assert_eq!(args.source, ServeSource::Stdin);
        // Defaults: synthetic open loop, eva scheduler, no horizon.
        let cli = parse(&argv("serve")).unwrap();
        let Command::Serve(args) = cli.command else {
            panic!()
        };
        assert_eq!(
            args.source,
            ServeSource::Synthetic { rate_per_hour: 3.0 }
        );
        assert_eq!(args.duration_hours, None);
    }

    #[test]
    fn rejects_bad_serve_specs() {
        for bad in [
            "serve --source synthetic:0",
            "serve --source synthetic:-2",
            "serve --source synthetic:abc",
            "serve --source trace:",
            "serve --source carrier-pigeon",
            "serve --metrics-every 0",
            "serve --duration -1",
            "serve --max-jobs 0",
        ] {
            assert!(parse(&argv(bad)).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn rejects_unknown_command_and_flags() {
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("simulate --bogus 1")).is_err());
        assert!(parse(&argv("simulate --jobs")).is_err());
        assert!(parse(&argv("simulate --jobs abc")).is_err());
        // Axis flags are sweep-only.
        assert!(parse(&argv("simulate --schedulers eva,owl")).is_err());
        assert!(parse(&argv("sweep --scheduler eva")).is_err());
    }

    #[test]
    fn rejects_bad_period_and_threads() {
        for bad in [
            "simulate --period abc",
            "simulate --period 0",
            "simulate --period -5",
            "compare --threads abc",
            "sweep --threads",
            "simulate --rate 0",
            "compare --rate -1",
            "sweep --rate nan",
        ] {
            let err = parse(&argv(bad)).unwrap_err();
            let flag = bad.split(' ').nth(1).expect("every row names a flag");
            assert!(err.contains(flag), "{bad} → {err}");
        }
    }

    #[test]
    fn rejects_bad_sweep_axes() {
        assert!(parse(&argv("sweep --schedulers eva,slurm")).is_err());
        assert!(parse(&argv("sweep --seeds 1,x")).is_err());
        assert!(parse(&argv("sweep --backend hardware")).is_err());
        assert!(parse(&argv("simulate --backend live")).is_err(), "sweep-only");
    }

    #[test]
    fn parses_cache_flags() {
        let cli = parse(&argv("sweep --cache-dir /tmp/c")).unwrap();
        let Command::Sweep(args) = cli.command else {
            panic!()
        };
        assert!(args.cache);
        assert_eq!(args.cache_dir.as_deref(), Some("/tmp/c"));

        let Command::Sweep(defaults) = parse(&argv("sweep")).unwrap().command else {
            panic!()
        };
        assert!(!defaults.cache, "CLI caching is opt-in");

        let Command::Sweep(cached) = parse(&argv("sweep --cache")).unwrap().command else {
            panic!()
        };
        assert!(cached.cache);
        assert!(cached.cache_dir.is_none());

        let Command::Sweep(off) =
            parse(&argv("sweep --cache-dir /tmp/c --no-cache")).unwrap().command
        else {
            panic!()
        };
        assert!(!off.cache);

        // Sweep-only flags are rejected elsewhere; bad values error.
        assert!(parse(&argv("simulate --cache")).is_err());
        assert!(parse(&argv("sweep --cache-dir")).is_err());
    }

    #[test]
    fn parses_procs_flag() {
        let Command::Sweep(args) = parse(&argv("sweep --procs 3")).unwrap().command else {
            panic!()
        };
        assert_eq!(args.procs, 3);
        assert!(args.cache, "--procs > 1 implies the cache");
        let Command::Sweep(one) = parse(&argv("sweep --procs 1")).unwrap().command else {
            panic!()
        };
        assert_eq!(one.procs, 1);
        assert!(!one.cache, "--procs 1 leaves caching opt-in");
        let Command::Sweep(plain) = parse(&argv("sweep")).unwrap().command else {
            panic!()
        };
        assert_eq!(plain.procs, 1);
        assert!(parse(&argv("sweep --procs 0")).is_err());
        assert!(parse(&argv("sweep --procs abc")).is_err());
        assert!(parse(&argv("simulate --procs 2")).is_err(), "sweep-only");
        // Federation coordinates through the cache dir.
        assert!(parse(&argv("sweep --procs 2 --no-cache")).is_err());
        assert!(parse(&argv("sweep --no-cache --procs 2")).is_err());
    }

    #[test]
    fn parses_cache_subcommand() {
        let Command::Cache(stats) = parse(&argv("cache stats")).unwrap().command else {
            panic!()
        };
        assert_eq!(stats.action, CacheAction::Stats);
        assert_eq!(stats.dir, "results/cache");

        let Command::Cache(verify) =
            parse(&argv("cache verify --cache-dir /tmp/c")).unwrap().command
        else {
            panic!()
        };
        assert_eq!(verify.action, CacheAction::Verify);
        assert_eq!(verify.dir, "/tmp/c");

        let Command::Cache(prune) =
            parse(&argv("cache prune --max-age 30 --keep-retired")).unwrap().command
        else {
            panic!()
        };
        assert_eq!(
            prune.action,
            CacheAction::Prune {
                max_age_days: Some(30.0),
                keep_retired: true
            }
        );

        let Command::Cache(import) = parse(&argv("cache import /tmp/other")).unwrap().command
        else {
            panic!()
        };
        assert_eq!(
            import.action,
            CacheAction::Import {
                src: "/tmp/other".into()
            }
        );
        let Command::Cache(merge) = parse(&argv("cache merge /tmp/other")).unwrap().command
        else {
            panic!()
        };
        assert_eq!(merge.action, import.action, "merge is an alias of import");
        let Command::Cache(export) = parse(&argv("cache export /tmp/dest")).unwrap().command
        else {
            panic!()
        };
        assert_eq!(
            export.action,
            CacheAction::Export {
                dest: "/tmp/dest".into()
            }
        );

        assert!(parse(&argv("cache")).is_err());
        assert!(parse(&argv("cache shred")).is_err());
        assert!(parse(&argv("cache import")).is_err(), "import needs a dir");
        assert!(parse(&argv("cache stats extra")).is_err());
        assert!(parse(&argv("cache prune --max-age 0")).is_err());
        assert!(parse(&argv("cache stats --max-age 3")).is_err(), "prune-only");
    }

    #[test]
    fn parses_fault_flags() {
        // --faults is shared by all three simulation commands.
        let Command::Simulate(args) = parse(&argv("simulate --faults preempt-storm:2"))
            .unwrap()
            .command
        else {
            panic!()
        };
        assert_eq!(args.faults.regime, FaultRegime::PreemptStorm);
        assert_eq!(args.faults.intensity, 2.0);
        let Command::Compare(args) = parse(&argv("compare --faults ckpt-drop")).unwrap().command
        else {
            panic!()
        };
        assert_eq!(args.faults.regime, FaultRegime::CkptDrop);
        let Command::Sweep(args) = parse(&argv("sweep --faults worker-crash:0.5"))
            .unwrap()
            .command
        else {
            panic!()
        };
        assert_eq!(args.sim.faults.regime, FaultRegime::WorkerCrash);
        assert_eq!(args.sim.faults.intensity, 0.5);
        // Default is fault-free; bad regimes/intensities are flag errors.
        let Command::Simulate(plain) = parse(&argv("simulate")).unwrap().command else {
            panic!()
        };
        assert!(plain.faults.is_none());
        for bad in [
            "simulate --faults meteor",
            "simulate --faults preempt-storm:-1",
            "sweep --faults none:2",
            "sweep --faults",
        ] {
            let err = parse(&argv(bad)).unwrap_err();
            assert!(err.contains("--faults") || err.contains("faults"), "{bad} → {err}");
        }
    }

    #[test]
    fn parses_backend_axis() {
        let cli = parse(&argv("sweep --backend sim,live")).unwrap();
        let Command::Sweep(args) = cli.command else {
            panic!()
        };
        assert_eq!(args.backends, vec!["sim", "live"]);
        let Command::Sweep(default_args) = parse(&argv("sweep")).unwrap().command else {
            panic!()
        };
        assert_eq!(default_args.backends, vec!["sim"]);
    }

    #[test]
    fn default_command_is_help() {
        assert_eq!(parse(&[]).unwrap().command, Command::Help);
    }

    #[test]
    fn scheduler_names_resolve() {
        for name in SchedulerKind::names() {
            assert!(SchedulerKind::from_name(name).is_ok(), "{name}");
        }
        assert!(SchedulerKind::from_name("slurm").is_err());
    }

    #[test]
    fn duration_models_resolve() {
        let mut args = SimArgs {
            jobs: 5,
            ..SimArgs::default()
        };
        assert!(build_trace(&args).is_ok());
        args.durations = "gavel".into();
        assert!(build_trace(&args).is_ok());
        args.durations = "weibull".into();
        assert!(build_trace(&args).is_err());
    }
}
