//! Safety rail for streaming ingestion: a batch trace replayed through a
//! [`JobSource`] (`ClusterSim::from_source`, which owns each job it pulls)
//! must produce a report byte-identical to the same trace fed by index
//! (`ClusterSim::new`, which shares the trace) — with retirement off *and*
//! on, under every paper scheduler. Both feeds pass one arrival door;
//! serialized-JSON equality makes every float bit observable.

use eva::prelude::*;

fn batch_cfg(trace: Trace, scheduler: SchedulerKind) -> SimConfig {
    let mut cfg = SimConfig::new(trace, SchedulerKind::Stratus);
    cfg.scheduler = scheduler;
    cfg.seed = 7;
    cfg
}

fn report_json(report: &SimReport) -> String {
    serde_json::to_string(report).expect("report serializes")
}

fn assert_stream_matches_batch(trace: Trace, scheduler: SchedulerKind) {
    let name = format!("{scheduler:?}");
    let cfg = batch_cfg(trace, scheduler);
    let batch = report_json(&ClusterSim::new(&cfg).run());

    let source = Box::new(TraceSource::new(cfg.trace.clone()));
    let streamed = report_json(&ClusterSim::from_source(&cfg, source).run());
    assert_eq!(
        batch, streamed,
        "{name}: streamed trace diverged from batch"
    );

    let mut retire = cfg.clone();
    retire.retire_completed = true;
    let source = Box::new(TraceSource::new(retire.trace.clone()));
    let streamed_retired = report_json(&ClusterSim::from_source(&retire, source).run());
    assert_eq!(
        batch, streamed_retired,
        "{name}: streamed trace with retirement diverged from batch"
    );
}

#[test]
fn streamed_synthetic_trace_matches_batch_bytes() {
    let trace = SyntheticTraceConfig::small_scale().generate(42);
    assert_stream_matches_batch(trace, SchedulerKind::Stratus);
}

#[test]
fn streamed_alibaba_trace_matches_batch_bytes() {
    let trace = AlibabaTraceConfig {
        num_jobs: 24,
        arrival_rate_per_hour: 6.0,
        durations: DurationModelChoice::Alibaba,
    }
    .generate(3);
    assert_stream_matches_batch(trace, SchedulerKind::NoPacking);
}

#[test]
fn every_paper_scheduler_streams_the_batch_bytes() {
    // Eva, Synergy and Owl learn from the observations each round pulls,
    // so they hold the two feeds to the same observations as well.
    let trace = SyntheticTraceConfig::small_scale().generate(11);
    for scheduler in SchedulerKind::paper_set() {
        assert_stream_matches_batch(trace.clone(), scheduler);
    }
}

#[test]
fn synthetic_source_stream_matches_pregenerated_trace_run() {
    // The open-loop generator replays `generate(seed)` job for job, so
    // streaming straight from the generator must equal simulating the
    // materialized trace.
    let cfg_src = SyntheticTraceConfig::small_scale();
    let trace = cfg_src.generate(9);
    let cfg = batch_cfg(trace, SchedulerKind::Stratus);
    let batch = report_json(&ClusterSim::new(&cfg).run());
    let source = Box::new(SyntheticSource::new(&cfg_src, 9));
    let streamed = report_json(&ClusterSim::from_source(&cfg, source).run());
    assert_eq!(batch, streamed);
}

#[test]
fn streaming_world_audits_clean_while_recycling() {
    let mut cfg = batch_cfg(
        SyntheticTraceConfig::small_scale().generate(5),
        SchedulerKind::Stratus,
    );
    cfg.retire_completed = true;
    let source = Box::new(SyntheticSource::open_loop(6.0, 60, 13));
    let mut sim = ClusterSim::from_source(&cfg, source);
    let mut steps = 0u64;
    while sim.step() {
        steps += 1;
        if steps.is_multiple_of(64) {
            sim.audit_slots().expect("streaming audit");
        }
    }
    sim.audit_slots().expect("final streaming audit");
    assert_eq!(sim.jobs_ingested(), 60);
    assert!(
        sim.live_job_slots() == 0,
        "all retired at drain: {} live rows",
        sim.live_job_slots()
    );
    assert!(
        sim.job_arena_rows() < 60,
        "slot recycling kept rows below jobs ingested ({} rows)",
        sim.job_arena_rows()
    );
}
