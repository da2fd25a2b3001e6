//! `serve_stratus`: the jobs of `batch_stratus` as JSON lines in a file,
//! streamed through `serve()` with completed jobs retired.

use std::cell::Cell;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

use eva_sim::{serve, ClusterSim, SchedulerKind, ServeConfig, SimConfig, SimReport};
use eva_types::{fnv1a64, SimDuration, SimTime};
use eva_workloads::{JobSource, JsonLinesSource, SyntheticSource, SyntheticTraceConfig, Trace};

use crate::drive::drive_traced;
use crate::host;
use crate::probe::{digest_json, Executed, Lap, Probe, Scenario};
use crate::source::TimedSource;
use crate::spans::Interval;
use crate::stats;
use crate::world::{self, WorldStats};

/// Set-up must stream the lines out one job at a time; holding the trace
/// would cost about 41 MiB and hide the plateau `peak_rss_mb` is there
/// to show.
const SETUP_HWM_LIMIT_MIB: f64 = 16.0;

pub struct Serve {
    pub jobs: usize,
    /// Whether the memory high-water mark after set-up was checked; only
    /// the first set-up of a process can show it.
    hwm_checked: Cell<bool>,
}

impl Serve {
    pub fn new(jobs: usize) -> Self {
        Serve {
            jobs,
            hwm_checked: Cell::new(false),
        }
    }

    fn options() -> ServeConfig {
        ServeConfig {
            metrics_every: SimDuration::from_hours(1),
            duration: None,
        }
    }
}

/// The rendered job file; removed when dropped.
pub struct JobFile(PathBuf);

impl Drop for JobFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

pub struct ServeReady {
    cfg: SimConfig,
    source: JsonLinesSource<BufReader<File>>,
    lines: u64,
    _file: JobFile,
}

/// Writes the seeded stream to `path`, one `JobSpec` per line, without
/// ever holding more than one job.
fn render(shape: &SyntheticTraceConfig, seed: u64, path: &Path) -> std::io::Result<u64> {
    let mut out = BufWriter::new(File::create(path)?);
    let mut source = SyntheticSource::new(shape, seed);
    let mut lines = 0;
    while let Some(job) = source.next_job() {
        let json = serde_json::to_string(&job).expect("job serializes");
        writeln!(out, "{json}")?;
        lines += 1;
    }
    out.flush()?;
    Ok(lines)
}

impl Scenario for Serve {
    type Ready = ServeReady;
    const REPLICA_FLAG: Option<&'static str> = Some("serve.replica_matches");

    fn prepare(&self, seed: u64, probe: &mut Probe) -> ServeReady {
        let shape = SyntheticTraceConfig {
            num_jobs: self.jobs,
            ..SyntheticTraceConfig::huge_100k()
        };
        let file = JobFile(host::scratch_path("serve-jobs.jsonl"));
        let lines = probe
            .scope("workloads.generate", |_| render(&shape, seed, &file.0))
            .expect("write the job file under benchmark/out");
        if !self.hwm_checked.replace(true) {
            let hwm = host::vm_hwm_mib();
            probe.check(hwm < SETUP_HWM_LIMIT_MIB, || {
                format!("VmHWM after serve set-up is {hwm:.1} MiB, not below {SETUP_HWM_LIMIT_MIB}")
            });
        }
        let reader = BufReader::new(File::open(&file.0).expect("reopen the job file"));
        let mut cfg = SimConfig::new(Trace::new(Vec::new()), SchedulerKind::Stratus);
        cfg.retire_completed = true;
        ServeReady {
            cfg,
            source: JsonLinesSource::new(reader),
            lines,
            _file: file,
        }
    }

    fn execute(&self, ready: ServeReady, probe: &mut Probe) -> Executed {
        if probe.tracer.is_some() {
            return replica(ready, probe);
        }
        let mut out = Vec::new();
        let (outcome, lap) = Lap::of(|| {
            serve(
                &ready.cfg,
                Box::new(ready.source),
                &Self::options(),
                &mut out,
            )
        });
        let outcome = outcome.expect("writing to memory cannot fail");
        executed(ready.lines, &outcome.report, &out, lap)
    }
}

fn executed(lines: u64, report: &SimReport, out: &[u8], timed: Lap) -> Executed {
    Executed {
        timed,
        rates: vec![report.jobs_completed as f64 / timed.wall_s],
        offered: lines,
        completed: report.jobs_completed as u64,
        cost_usd: report.total_cost_dollars,
        jct_mean_h: report.avg_jct_hours,
        digest: digest_json(fnv1a64(out), report),
    }
}

/// What `serve()` does, done here through the sim's public surface so
/// that the source pulls, the steps and the metrics emission can each be
/// timed. The digest over report and output bytes shows whether it still
/// is what `serve()` does.
fn replica(ready: ServeReady, probe: &mut Probe) -> Executed {
    let mut world = WorldStats::default();
    let opts = Serve::options();
    let mut out: Vec<u8> = Vec::new();
    let mut rolling_lines = 0u64;
    let tr = probe
        .tracer
        .as_mut()
        .expect("the replica is the traced path");
    let (source, pulls) = TimedSource::new(ready.source, tr.origin());
    let emit = |sim: &ClusterSim, out: &mut Vec<u8>| {
        let snap = sim.metrics_snapshot();
        let json = serde_json::to_string(&snap).expect("snapshot serializes");
        writeln!(out, "{json}").expect("writing to memory cannot fail");
    };

    tr.open("timed");
    let (mut sim, mut timed) = Lap::of(|| {
        tr.scope("world.build", |tr| {
            let sim = ClusterSim::from_source(&ready.cfg, Box::new(source));
            if let Some(first) = pulls.borrow_mut().window.take() {
                tr.leaf("workloads.source", first);
            }
            sim
        })
    });
    let ((), steps) = Lap::of(|| {
        let every = opts.metrics_every.max(SimDuration::from_secs(1));
        let mut next_emit = SimTime::ZERO + every;
        drive_traced(&mut sim, tr, &mut world.steps, Some(&pulls), |sim, tr| {
            if sim.now() >= next_emit {
                let start_ns = tr.now_ns();
                emit(sim, &mut out);
                rolling_lines += 1;
                while next_emit <= sim.now() {
                    next_emit += every;
                }
                tr.leaf("serve.emit", Interval::call(start_ns, tr.now_ns()));
            }
        });
        tr.scope("serve.emit", |_| emit(&sim, &mut out));
    });
    timed.add(steps);
    let ingested = sim.jobs_ingested();
    let (report, finalize) = world::finish(sim, probe, &mut world);
    timed.add(finalize);
    let tr = probe.tracer.as_mut().expect("still tracing");
    tr.close();

    let emit_s = tr.busy_s("serve.emit");
    world::report(&world, probe);
    let pull_us: Vec<f64> = pulls
        .borrow()
        .pull_ns
        .iter()
        .map(|&ns| ns as f64 / 1e3)
        .collect();
    let layers = &mut probe.layers;
    layers.set("workloads.source_s", pull_us.iter().sum::<f64>() / 1e6);
    layers.set("workloads.source_us_p50", stats::tail(&pull_us).p50);
    layers.set(
        "workloads.lines_rejected",
        ready.lines.saturating_sub(ingested) as f64,
    );
    layers.set("serve.emit_s", emit_s);
    layers.set("serve.metrics_lines", rolling_lines as f64);
    layers.set("serve.out_bytes", out.len() as f64);
    world::report_stratus_round_share(layers);
    executed(ready.lines, &report, &out, timed)
}
