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
//!              [--backend sim|live|sim,live] [--threads N]
//!              [--faults REGIME[:INTENSITY]]
//!              [--cache] [--no-cache] [--cache-dir DIR]
//!              [--period MINS] [--json FILE]
//! eva serve    --source synthetic:RATE|trace:PATH|stdin
//!              [--scheduler NAME] [--seed N] [--period MINS]
//!              [--duration HOURS] [--metrics-every SECS] [--max-jobs N]
//! eva repro    <table>|all [--full] [--threads N]
//!              [--faults REGIME[:INTENSITY]]
//!              [--cache] [--no-cache] [--cache-dir DIR]
//! eva workloads        # print the Table 7 workload catalog
//! eva catalog          # print the 21-type AWS instance catalog
//! ```
//!
//! A flag error exits 2 before anything is printed; a failed run exits 1.

use std::process::ExitCode;

use eva::prelude::*;

mod repro;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Cli {
    command: Command,
}

#[derive(Debug, Clone, PartialEq)]
enum Command {
    Simulate(SimArgs),
    Compare(SimArgs),
    Sweep(SweepArgs),
    Serve(ServeArgs),
    /// `eva repro <table>|all`: a table name checked by [`repro::check`].
    Repro {
        table: String,
        args: SweepArgs,
    },
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
    /// off; `--cache` or `--cache-dir` turns it on).
    cache: bool,
    /// Cache directory (`results/cache` when unset).
    cache_dir: Option<String>,
    /// `repro` only: the paper-scale configurations.
    full: bool,
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
            full: false,
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

/// Parses arguments (exposed for testing).
fn parse(args: &[String]) -> Result<Cli, String> {
    let mut it = args.iter();
    let command = match it.next().map(String::as_str) {
        Some("simulate") => Command::Simulate(parse_sim_args(it, Flags::Run)?.sim),
        Some("compare") => Command::Compare(parse_sim_args(it, Flags::Run)?.sim),
        Some("sweep") => Command::Sweep(parse_sim_args(it, Flags::Sweep)?),
        Some("serve") => Command::Serve(parse_serve_args(it)?),
        Some("repro") => {
            let table = it.next().map_or("", String::as_str);
            repro::check(table)?;
            Command::Repro {
                table: table.to_string(),
                args: parse_sim_args(it, Flags::Repro)?,
            }
        }
        Some("workloads") => Command::Workloads,
        Some("catalog") => Command::Catalog,
        Some("help") | Some("--help") | Some("-h") | None => Command::Help,
        Some(other) => return Err(format!("unknown command `{other}` (try `eva help`)")),
    };
    Ok(Cli { command })
}

/// Which subcommand's flags [`parse_sim_args`] accepts.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Flags {
    /// `simulate` and `compare`: one trace under one scheduler.
    Run,
    /// `sweep`: the trace flags, the grid's axes and the report cache.
    Sweep,
    /// `repro`: [`REPRO_FLAGS`] only, since every table fixes its trace.
    Repro,
}

/// The flags `eva repro` takes.
const REPRO_FLAGS: [&str; 6] = [
    "--threads",
    "--faults",
    "--cache",
    "--no-cache",
    "--cache-dir",
    "--full",
];

fn parse_sim_args<'a>(
    mut it: impl Iterator<Item = &'a String>,
    mode: Flags,
) -> Result<SweepArgs, String> {
    let sweep = mode == Flags::Sweep;
    let mut args = SweepArgs::default();
    while let Some(flag) = it.next() {
        if mode == Flags::Repro && !REPRO_FLAGS.contains(&flag.as_str()) {
            return Err(format!("unknown flag `{flag}`"));
        }
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag}: the flag needs a value"))
        };
        match flag.as_str() {
            "--jobs" => args.sim.jobs = value()?.parse().map_err(|e| format!("--jobs: {e}"))?,
            "--rate" => {
                args.sim.rate = value()?.parse().map_err(|e| format!("--rate: {e}"))?;
                if !(args.sim.rate.is_finite() && args.sim.rate > 0.0) {
                    return Err("--rate: must be a positive number of jobs per hour".into());
                }
            }
            "--scheduler" if mode == Flags::Run => {
                args.sim.scheduler = value()?;
                SchedulerKind::from_name(&args.sim.scheduler)?;
            }
            "--durations" => {
                args.sim.durations = value()?;
                duration_model(&args.sim.durations)?;
            }
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
            "--cache" if mode != Flags::Run => args.cache = true,
            "--no-cache" if mode != Flags::Run => {
                args.cache = false;
                args.cache_dir = None;
            }
            "--cache-dir" if mode != Flags::Run => {
                args.cache_dir = Some(value()?);
                args.cache = true;
            }
            "--full" if mode == Flags::Repro => args.full = true,
            "--json" => args.sim.json = Some(value()?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

fn parse_serve_args<'a>(mut it: impl Iterator<Item = &'a String>) -> Result<ServeArgs, String> {
    let mut args = ServeArgs::default();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag}: the flag needs a value"))
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

fn duration_model(name: &str) -> Result<DurationModelChoice, String> {
    match name.to_ascii_lowercase().as_str() {
        "alibaba" => Ok(DurationModelChoice::Alibaba),
        "gavel" => Ok(DurationModelChoice::Gavel),
        other => Err(format!("unknown duration model `{other}`")),
    }
}

fn build_trace(args: &SimArgs) -> Result<Trace, String> {
    let cfg = AlibabaTraceConfig {
        num_jobs: args.jobs,
        arrival_rate_per_hour: args.rate,
        durations: duration_model(&args.durations)?,
    };
    Ok(cfg.generate(args.seed))
}

/// The sweep runner `args` select: `--threads` workers, plus the report
/// cache under `--cache` or `--cache-dir` (default `results/cache`).
fn runner(args: &SweepArgs) -> SweepRunner {
    let runner = SweepRunner::new(args.sim.threads);
    if !args.cache {
        return runner;
    }
    let dir = args.cache_dir.as_deref().unwrap_or("results/cache");
    runner.with_cache(ReportCache::new(dir))
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
                 eva sweep    [--jobs N] [--rate J/HR] [--durations ...] [--schedulers A,B,..] [--seeds S1,S2,..] [--backend sim|live|sim,live] [--faults REGIME[:INT]] [--threads N] [--cache] [--no-cache] [--cache-dir DIR] [--period MINS] [--json FILE]\n  \
                 eva serve    --source synthetic:RATE|trace:PATH|stdin [--scheduler NAME] [--seed N] [--period MINS] [--duration HOURS] [--metrics-every SECS] [--max-jobs N]\n  \
                 eva repro    <table>|all [--full] [--threads N] [--faults REGIME[:INT]] [--cache] [--no-cache] [--cache-dir DIR]\n  \
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
                 DIR results/cache, shared by sweep and repro, keyed by trace\n\
                 content + all knobs + code schema version); a warm rerun simulates\n\
                 zero cells. `--no-cache` is the default.\n\n\
                 `eva repro` prints one of the paper's tables or figures and writes\n\
                 its results/*.json (`eva repro` alone lists the names); `all` runs\n\
                 every one in paper order, and `--full` the paper-scale configurations.",
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
            let runner = runner(&args);
            println!(
                "sweeping {} cells ({} schedulers × {} seeds × {} backends, {} jobs) on {} threads...",
                grid.cell_count(),
                args.schedulers.len(),
                args.seeds.len(),
                args.backends.len(),
                args.sim.jobs,
                runner.threads(),
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
                std::fs::write(&path, result.to_json_pretty())
                    .map_err(|e| format!("write {path}: {e}"))?;
                println!("saved {path}");
            }
        }
        Command::Serve(args) => run_serve(args)?,
        Command::Repro { table, args } => repro::run(
            &table,
            &repro::Repro {
                runner: runner(&args),
                faults: args.sim.faults,
                full: args.full,
            },
        )?,
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
            let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
            let trace = Trace::from_json(&text).map_err(|e| format!("parse {path}: {e}"))?;
            let label = format!("trace {path} ({} jobs)", trace.len());
            (Box::new(TraceSource::new(TraceHandle::new(trace))), label)
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
        "drained: {} jobs ingested, {} dropped, {} lines rejected, \
         {} rolling metrics line(s), peak {} arena job rows",
        outcome.jobs_ingested,
        outcome.jobs_dropped,
        outcome.lines_rejected,
        outcome.metrics_lines,
        outcome.peak_job_rows
    );
    eprintln!("{}", outcome.report.table_row(None));
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (result, failure) = match parse(&args) {
        Ok(cli) => (run(cli), ExitCode::FAILURE),
        Err(msg) => (Err(msg), ExitCode::from(2)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            failure
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
        assert_eq!(args.source, ServeSource::Synthetic { rate_per_hour: 6.5 });
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
        assert_eq!(args.source, ServeSource::Synthetic { rate_per_hour: 3.0 });
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
        // There is no `--procs` flag and no `cache` command: both fail
        // with a message rather than being ignored.
        assert!(parse(&argv("sweep --procs 2")).is_err());
        assert!(parse(&argv("cache stats")).is_err());
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
        assert!(
            parse(&argv("simulate --backend live")).is_err(),
            "sweep-only"
        );
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

        let Command::Sweep(off) = parse(&argv("sweep --cache-dir /tmp/c --no-cache"))
            .unwrap()
            .command
        else {
            panic!()
        };
        assert!(!off.cache);

        // Sweep-only flags are rejected elsewhere; bad values error.
        assert!(parse(&argv("simulate --cache")).is_err());
        assert!(parse(&argv("sweep --cache-dir")).is_err());
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
            assert!(
                err.contains("--faults") || err.contains("faults"),
                "{bad} → {err}"
            );
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
    fn parses_repro_flags() {
        let Command::Repro { table, args } = parse(&argv(
            "repro fig4 --full --threads 2 --faults straggler:2 --cache",
        ))
        .unwrap()
        .command
        else {
            panic!()
        };
        assert_eq!(table, "fig4");
        assert!(args.full && args.cache);
        assert_eq!(args.sim.threads, 2);
        assert_eq!(args.sim.faults.regime, FaultRegime::Straggler);
        let Command::Repro { args, .. } = parse(&argv("repro all")).unwrap().command else {
            panic!()
        };
        assert!(!args.full && !args.cache, "cold and small by default");
        // Every table fixes its own trace; `--full` is repro-only.
        for bad in [
            "repro",
            "repro nosuch",
            "repro table1 --jobs 5",
            "repro table11 --seed 3",
            "repro fig4 --json out.json",
            "sweep --full",
        ] {
            assert!(parse(&argv(bad)).is_err(), "should reject: {bad}");
        }
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
