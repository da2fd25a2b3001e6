//! End-to-end service mode: `serve` must run a long open-loop stream in
//! bounded memory (arena rows track the in-flight window, not the total
//! job count), emit deterministic rolling metrics, and drain cleanly.

use eva::prelude::*;
use std::io::Write as _;

fn serve_cfg() -> SimConfig {
    let mut cfg = SimConfig::new(
        TraceHandle::new(Trace::new(Vec::new())),
        SchedulerKind::Stratus,
    );
    cfg.retire_completed = true;
    cfg.seed = 1;
    cfg
}

/// Serves the first `n` jobs of one open-loop stream (~30/h, seed 5) to
/// completion.
fn serve_open_loop(n: usize) -> ServeOutcome {
    let source = Box::new(SyntheticSource::open_loop(30.0, n, 5));
    let mut out = Vec::new();
    serve(
        &serve_cfg(),
        source,
        &ServeConfig {
            metrics_every: SimDuration::from_hours(4),
            duration: None,
        },
        &mut out,
    )
    .unwrap()
}

#[test]
fn long_stream_runs_in_bounded_arena_memory() {
    // 1500 jobs at ~30/h with 0.5–3 h durations keeps a few dozen jobs
    // in flight; without retirement the arena would grow one row per
    // job ingested.
    let outcome = serve_open_loop(1500);
    assert_eq!(outcome.jobs_ingested, 1500);
    assert_eq!(outcome.report.jobs_completed, 1500);
    assert!(
        outcome.peak_job_rows < 300,
        "arena rows must track the in-flight window, not total jobs \
         ({} rows for 1500 jobs)",
        outcome.peak_job_rows
    );
    assert_eq!(outcome.final_snapshot.live_job_slots, 0, "drained clean");
    assert!(outcome.metrics_lines >= 1);
}

#[test]
fn arena_rows_follow_the_in_flight_window_not_the_stream_length() {
    // What the retired million-job tier stood for, without the wall
    // clock: four times the stream at the same arrival rate must not
    // grow the arena.
    let (short, long) = (serve_open_loop(1500), serve_open_loop(6000));
    assert_eq!(long.report.jobs_completed, 6000);
    for outcome in [&short, &long] {
        assert_eq!(outcome.final_snapshot.live_job_slots, 0, "drained clean");
    }
    let (short, long) = (short.peak_job_rows as f64, long.peak_job_rows as f64);
    assert!(
        (long - short).abs() <= 0.25 * short,
        "peak arena rows {long} for 6000 jobs against {short} for 1500"
    );
}

#[test]
fn rolling_metrics_lines_are_identical_across_runs() {
    let run = || {
        let source = Box::new(SyntheticSource::open_loop(12.0, 200, 21));
        let mut out = Vec::new();
        serve(
            &serve_cfg(),
            source,
            &ServeConfig {
                metrics_every: SimDuration::from_hours(2),
                duration: None,
            },
            &mut out,
        )
        .unwrap();
        out
    };
    let (a, b) = (run(), run());
    assert!(!a.is_empty());
    assert_eq!(a, b, "fixed seed + source must emit identical JSON lines");
}

#[test]
fn stdin_style_json_lines_feed_the_service_loop() {
    // Build a line-delimited job stream in memory, exactly what
    // `eva serve --source stdin` reads from a pipe.
    let jobs = SyntheticTraceConfig::small_scale().generate(4).into_jobs();
    let mut feed = Vec::new();
    for job in &jobs {
        writeln!(feed, "{}", serde_json::to_string(job).unwrap()).unwrap();
    }
    let n = jobs.len() as u64;
    let source = Box::new(JsonLinesSource::new(std::io::BufReader::new(
        std::io::Cursor::new(feed),
    )));
    let mut out = Vec::new();
    let outcome = serve(&serve_cfg(), source, &ServeConfig::default(), &mut out).unwrap();
    assert_eq!(outcome.jobs_ingested, n);
    assert_eq!(outcome.report.jobs_completed as u64, n);
}

#[test]
fn duration_horizon_stops_ingestion_but_drains_in_flight() {
    let source = Box::new(SyntheticSource::open_loop(10.0, 100_000, 3));
    let mut out = Vec::new();
    let outcome = serve(
        &serve_cfg(),
        source,
        &ServeConfig {
            metrics_every: SimDuration::from_hours(1),
            duration: Some(SimDuration::from_hours(24)),
        },
        &mut out,
    )
    .unwrap();
    assert!(outcome.jobs_ingested > 100, "a day of ~10/h arrivals");
    assert!(outcome.jobs_ingested < 1000, "horizon bounded ingestion");
    assert_eq!(
        outcome.report.jobs_completed as u64, outcome.jobs_ingested,
        "everything ingested before the horizon completes"
    );
    assert_eq!(outcome.final_snapshot.queue_depth, 0);
}
