//! `evabench`: the benchmark `BENCHMARK.json` declares.
//!
//! ```text
//! evabench run --workload W [--seed N] [--seconds N] [--trace 0|1] [--smoke]
//! evabench all    [--seed N] [--seconds N] [--smoke] [--commit SHA]
//! evabench verify [--runs N] [--seed N] [--seconds N] [--smoke]
//! ```
//!
//! `run` executes one workload in this process and prints, as the last
//! line of its standard output, one JSON object with every end-to-end
//! metric (`--trace 0`) or every per-layer metric (`--trace 1`). See
//! `README.md` beside `Cargo.toml` for what is measured and why.

mod batch;
mod drive;
mod fixtures;
mod host;
mod metrics;
mod probe;
mod serve;
mod source;
mod spans;
mod stats;
mod suite;
mod sweep;
mod world;

use std::process::ExitCode;
use std::time::Instant;

use batch::Batch;
use metrics::{MetricSet, END_TO_END};
use probe::{rep, Probe, Rep, Scenario};
use serve::Serve;
use sweep::Sweep;

/// The workloads, in the order `all` and `verify` run them.
pub const WORKLOADS: [&str; 4] = ["batch_stratus", "batch_eva", "serve_stratus", "sweep_paper"];

/// After each execution of an untraced run come set-ups alone: at least
/// one, then more until they have taken `SETUP_BURST_S` or there are
/// `SETUP_BURST_MAX`. `setup_s` is the median over them and the
/// executions' own. A millisecond set-up needs more samples than a
/// quarter-second one for its median to hold still, and samples spread
/// over the run see more of the machine's moods than a block at its end.
const SETUP_BURST_S: f64 = 0.1;
const SETUP_BURST_MAX: usize = 40;

/// The flags shared by the subcommands.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    /// Drives every generated input.
    pub seed: u64,
    /// How long an untraced run keeps starting fresh executions.
    pub seconds: f64,
    pub traced: bool,
    /// Every workload scaled to about a second, executed once.
    pub smoke: bool,
    pub runs: usize,
    pub commit: String,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut opts = Opts {
            workload: String::new(),
            seed: 42,
            seconds: 20.0,
            traced: false,
            smoke: false,
            runs: 10,
            commit: "unknown".to_string(),
        };
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            if flag == "--smoke" {
                opts.smoke = true;
                continue;
            }
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag} takes {what}, not `{value}`");
            match flag.as_str() {
                "--workload" => opts.workload = value.clone(),
                "--seed" => opts.seed = value.parse().map_err(|_| bad("a whole number"))?,
                "--seconds" => {
                    opts.seconds = value.parse().map_err(|_| bad("a number of seconds"))?
                }
                "--runs" => opts.runs = value.parse().map_err(|_| bad("a whole number"))?,
                "--commit" => opts.commit = value.clone(),
                "--trace" => {
                    opts.traced = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    }
                }
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        Ok(opts)
    }
}

/// Input sizes. The full ones are the benchmark; the smoke ones only
/// show that every workload and check still runs.
struct Sizes {
    /// `batch_stratus` and `serve_stratus` run the same jobs.
    stratus_jobs: usize,
    eva_jobs: usize,
    eva_traces: usize,
    sweep_trace_pairs: usize,
    sweep_sim_seeds: u64,
    /// Calls per `plan` fixture, and operations per hold fixture.
    fixture_calls: usize,
    hold_ops: usize,
}

impl Sizes {
    fn full() -> Self {
        Sizes {
            stratus_jobs: 100_000,
            eva_jobs: 1_500,
            eva_traces: 6,
            // 80 traces × 5 schedulers × 5 seeds = 2 000 cells.
            sweep_trace_pairs: 40,
            sweep_sim_seeds: 5,
            fixture_calls: 11,
            hold_ops: 200_000,
        }
    }

    fn smoke() -> Self {
        Sizes {
            stratus_jobs: 2_000,
            eva_jobs: 100,
            eva_traces: 2,
            // 4 traces × 5 schedulers × 2 seeds = 40 cells.
            sweep_trace_pairs: 2,
            sweep_sim_seeds: 2,
            fixture_calls: 3,
            hold_ops: 20_000,
        }
    }
}

/// What one `run` reports.
struct Outcome {
    metrics: MetricSet,
    attempted: u64,
    failed: u64,
    /// Output checks that did not hold.
    failures: Vec<String>,
}

/// Whether two executions of one seed returned the same thing.
fn same_outputs(a: &Rep, b: &Rep) -> bool {
    let (a, b) = (&a.run, &b.run);
    a.digest == b.digest
        && a.completed == b.completed
        && a.cost_usd.to_bits() == b.cost_usd.to_bits()
        && a.jct_mean_h.to_bits() == b.jct_mean_h.to_bits()
}

fn jobs_per_s(reps: &[&Rep]) -> f64 {
    let rates: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.run.rates.iter().copied())
        .collect();
    stats::median(&rates)
}

fn count_jobs(reps: &[&Rep], probe: &mut Probe) -> (u64, u64) {
    let attempted: u64 = reps.iter().map(|r| r.run.offered).sum();
    let completed: u64 = reps.iter().map(|r| r.run.completed).sum();
    probe.check(completed == attempted, || {
        format!("{completed} of {attempted} offered jobs completed")
    });
    (attempted, attempted.saturating_sub(completed))
}

/// Fresh executions until `--seconds` of timed sections have been
/// measured, then the end-to-end metrics: medians for host time, the
/// simulated results of the first execution once all are shown equal.
fn untraced<S: Scenario>(scenario: &S, opts: &Opts) -> Outcome {
    let mut probe = Probe::new(false);
    let mut reps: Vec<Rep> = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    loop {
        let execution = rep(scenario, opts.seed, &mut probe);
        setups.push(execution.setup_s);
        reps.push(execution);
        if opts.smoke {
            break;
        }
        let burst = Instant::now();
        for taken in 0..SETUP_BURST_MAX {
            if taken > 0 && burst.elapsed().as_secs_f64() >= SETUP_BURST_S {
                break;
            }
            let start = Instant::now();
            let ready = scenario.prepare(opts.seed, &mut probe);
            setups.push(start.elapsed().as_secs_f64());
            drop(ready);
        }
        let measured: f64 = reps.iter().map(|r| r.run.timed.wall_s).sum();
        if measured >= opts.seconds {
            break;
        }
    }
    for (i, later) in reps.iter().enumerate().skip(1) {
        probe.check(same_outputs(&reps[0], later), || {
            format!("execution {i} returned something other than execution 0 of the same seed")
        });
    }
    let all: Vec<&Rep> = reps.iter().collect();
    let (attempted, failed) = count_jobs(&all, &mut probe);
    let first = &reps[0].run;
    let mut metrics = MetricSet::new(END_TO_END);
    metrics.set("setup_s", stats::median(&setups));
    metrics.set("jobs_per_s", jobs_per_s(&all));
    metrics.set("peak_rss_mb", host::vm_hwm_mib());
    metrics.set("cost_usd", first.cost_usd);
    metrics.set("jct_mean_h", first.jct_mean_h);
    metrics.set(
        "completed_share",
        first.completed as f64 / first.offered as f64,
    );
    let timed: Vec<String> = reps
        .iter()
        .map(|r| format!("{:.3}", r.run.timed.wall_s))
        .collect();
    eprintln!(
        "{} seed {}: {} set-ups, timed sections of {} s",
        opts.workload,
        opts.seed,
        setups.len(),
        timed.join(", "),
    );
    Outcome {
        metrics,
        attempted,
        failed,
        failures: probe.failures,
    }
}

/// One untraced execution for reference, the fixtures, then one traced
/// execution of the same seed; the per-layer metrics and the span file.
fn traced<S: Scenario>(scenario: &S, opts: &Opts, sizes: &Sizes) -> Outcome {
    let mut plain = Probe::new(false);
    let reference = rep(scenario, opts.seed, &mut plain);
    let mut probe = Probe::new(true);
    probe.failures.append(&mut plain.failures);
    fixtures::measure(
        &mut probe.layers,
        opts.seed,
        sizes.fixture_calls,
        sizes.hold_ops,
    );
    let traced = rep(scenario, opts.seed, &mut probe);

    let same = same_outputs(&reference, &traced);
    probe.check(same, || {
        "the traced execution returned something other than the untraced one".to_string()
    });
    if let Some(flag) = S::REPLICA_FLAG {
        probe.layers.set_flag(flag, same);
    }
    let both = [&reference, &traced];
    let (attempted, failed) = count_jobs(&both, &mut probe);
    let rates = both.map(|r| jobs_per_s(&[r]));
    let tracer = probe.tracer.as_ref().expect("a traced probe has a tracer");
    let layers = &mut probe.layers;
    layers.set("workloads.generate_s", tracer.busy_s("workloads.generate"));
    layers.set(
        "harness.trace_overhead",
        traced.run.timed.wall_s / reference.run.timed.wall_s - 1.0,
    );
    layers.set(
        "harness.cpu_share",
        traced.run.timed.cpu_s / traced.run.timed.wall_s,
    );
    layers.set(
        "harness.rep_spread",
        (rates[0] - rates[1]).abs() / stats::median(&rates),
    );
    let path = host::out_dir().join(format!("{}.trace.json", opts.workload));
    tracer
        .write(&path)
        .expect("write the span file under benchmark/out");
    eprintln!(
        "{}: {} spans in {}",
        opts.workload,
        tracer.spans().len(),
        path.display()
    );
    Outcome {
        metrics: probe.layers,
        attempted,
        failed,
        failures: probe.failures,
    }
}

fn measure<S: Scenario>(scenario: &S, opts: &Opts, sizes: &Sizes) -> Outcome {
    if opts.traced {
        traced(scenario, opts, sizes)
    } else {
        untraced(scenario, opts)
    }
}

fn run(opts: &Opts) -> Result<ExitCode, String> {
    let sizes = if opts.smoke {
        Sizes::smoke()
    } else {
        Sizes::full()
    };
    let outcome = match opts.workload.as_str() {
        "batch_stratus" => measure(&Batch::stratus(sizes.stratus_jobs), opts, &sizes),
        "batch_eva" => measure(&Batch::eva(sizes.eva_jobs, sizes.eva_traces), opts, &sizes),
        "serve_stratus" => measure(&Serve::new(sizes.stratus_jobs), opts, &sizes),
        "sweep_paper" => {
            let sweep = Sweep {
                trace_pairs: sizes.sweep_trace_pairs,
                sim_seeds: sizes.sweep_sim_seeds,
                // More threads than cores would measure the host's scheduler.
                threads: host::nproc().min(2),
            };
            measure(&sweep, opts, &sizes)
        }
        other => return Err(format!("--workload is one of {WORKLOADS:?}, not `{other}`")),
    };
    for failure in &outcome.failures {
        eprintln!("check failed: {failure}");
    }
    let correct = outcome.failures.is_empty();
    println!(
        "{}",
        metrics::result_line(correct, outcome.attempted, outcome.failed, &outcome.metrics)
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, flags) = match args.split_first() {
        Some((command, flags)) => (command.as_str(), flags),
        None => ("", &args[..]),
    };
    let result = Opts::parse(flags).and_then(|opts| match command {
        "run" => run(&opts),
        "all" => suite::all(&opts),
        "verify" => suite::verify(&opts),
        _ => Err("usage: evabench run|all|verify [flags]; see README.md".to_string()),
    });
    result.unwrap_or_else(|why| {
        eprintln!("error: {why}");
        ExitCode::from(2)
    })
}
