//! Long-lived service mode: drive a streaming [`ClusterSim`] from a
//! [`JobSource`] and emit rolling metrics as JSON lines.
//!
//! `eva serve` is the CLI face of this module; the streaming tests call
//! [`serve`] directly. The loop is pure simulation — the metrics
//! interval is *simulated* time, so a fixed seed and source produce
//! byte-identical output lines on every run.

use std::io::Write;

use eva_types::{SimDuration, SimTime};
use eva_workloads::{BoundedSource, JobSource};

use crate::metrics::{MetricsSnapshot, SimReport};
use crate::runner::SimConfig;
use crate::world::ClusterSim;

/// Service-loop options, on top of the usual [`SimConfig`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Emit a rolling [`MetricsSnapshot`] line every this much
    /// *simulated* time.
    pub metrics_every: SimDuration,
    /// Stop ingesting jobs arriving past this horizon (in-flight jobs
    /// still drain). `None` runs until the source is exhausted.
    pub duration: Option<SimDuration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            metrics_every: SimDuration::from_hours(1),
            duration: None,
        }
    }
}

/// What a finished service loop hands back.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// The usual end-of-run report over every ingested job.
    pub report: SimReport,
    /// The state at the final event (also emitted as the last line).
    pub final_snapshot: MetricsSnapshot,
    /// Rolling metrics lines written (excluding the final snapshot).
    pub metrics_lines: usize,
    /// Jobs ingested from the source.
    pub jobs_ingested: u64,
    /// High-water mark of concurrently live arena job rows.
    pub peak_job_rows: usize,
}

/// Runs a streaming world fed by `source` to completion, writing one
/// [`MetricsSnapshot`] JSON line to `out` per elapsed metrics interval
/// and a final snapshot line after the last event.
///
/// Retirement ([`SimConfig::retire_completed`]) is the caller's choice;
/// `eva serve` turns it on so memory tracks the in-flight window.
pub fn serve<W: Write>(
    cfg: &SimConfig,
    source: Box<dyn JobSource>,
    opts: &ServeConfig,
    out: &mut W,
) -> std::io::Result<ServeOutcome> {
    let source: Box<dyn JobSource> = match opts.duration {
        Some(d) => Box::new(BoundedSource::new(source, SimTime::ZERO + d)),
        None => source,
    };
    let mut sim = ClusterSim::from_source(cfg, source);
    let every = opts.metrics_every.max(SimDuration::from_secs(1));
    let mut next_emit = SimTime::ZERO + every;
    let mut metrics_lines = 0usize;
    let mut peak_job_rows = sim.job_arena_rows();
    while sim.step() {
        peak_job_rows = peak_job_rows.max(sim.job_arena_rows());
        // Events jump the clock; one snapshot covers a whole batch of
        // crossed interval boundaries (the state between them never
        // materialized), stamped at the time it describes.
        if sim.now() >= next_emit {
            let snap = sim.metrics_snapshot();
            writeln!(out, "{}", serde_json::to_string(&snap).expect("snapshot serializes"))?;
            metrics_lines += 1;
            while next_emit <= sim.now() {
                next_emit += every;
            }
        }
    }
    let final_snapshot = sim.metrics_snapshot();
    writeln!(
        out,
        "{}",
        serde_json::to_string(&final_snapshot).expect("snapshot serializes")
    )?;
    let jobs_ingested = sim.jobs_ingested();
    let report = sim.run();
    Ok(ServeOutcome {
        report,
        final_snapshot,
        metrics_lines,
        jobs_ingested,
        peak_job_rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::SchedulerKind;
    use eva_workloads::{SyntheticSource, Trace, TraceHandle};

    fn serve_cfg() -> SimConfig {
        let mut cfg = SimConfig::new(
            TraceHandle::new(Trace::new(Vec::new())),
            SchedulerKind::Stratus,
        );
        cfg.retire_completed = true;
        cfg
    }

    #[test]
    fn serve_emits_rolling_lines_and_is_deterministic() {
        let run = || {
            let source = Box::new(SyntheticSource::open_loop(4.0, 40, 11));
            let mut buf = Vec::new();
            let outcome = serve(
                &serve_cfg(),
                source,
                &ServeConfig {
                    metrics_every: SimDuration::from_hours(1),
                    duration: None,
                },
                &mut buf,
            )
            .unwrap();
            (outcome, buf)
        };
        let (a, bytes_a) = run();
        let (b, bytes_b) = run();
        assert_eq!(bytes_a, bytes_b, "rolling metrics must be deterministic");
        assert_eq!(a.report, b.report);
        assert!(a.metrics_lines >= 1, "at least one rolling line");
        assert_eq!(a.jobs_ingested, 40);
        assert_eq!(a.final_snapshot.arrivals_total, 40);
        assert_eq!(a.final_snapshot.completions_total, 40);
        assert_eq!(a.report.jobs_completed, 40);
        // Every line parses back into a snapshot, times ascending.
        let text = String::from_utf8(bytes_a).unwrap();
        let snaps: Vec<MetricsSnapshot> = text
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(snaps.len(), a.metrics_lines + 1);
        for w in snaps.windows(2) {
            assert!(w[1].t_hours >= w[0].t_hours);
            assert!(w[1].arrivals_total >= w[0].arrivals_total);
        }
    }

    #[test]
    fn serve_duration_bounds_ingestion() {
        let source = Box::new(SyntheticSource::open_loop(2.0, 10_000, 7));
        let mut buf = Vec::new();
        let outcome = serve(
            &serve_cfg(),
            source,
            &ServeConfig {
                metrics_every: SimDuration::from_hours(2),
                duration: Some(SimDuration::from_hours(10)),
            },
            &mut buf,
        )
        .unwrap();
        assert!(
            outcome.jobs_ingested < 100,
            "horizon cut ingestion ({} jobs)",
            outcome.jobs_ingested
        );
        assert!(outcome.jobs_ingested > 0);
        assert_eq!(
            outcome.report.jobs_completed as u64, outcome.jobs_ingested,
            "in-flight jobs drain after the horizon"
        );
    }
}
