//! Job lines whose `DemandSpec` cannot be held inline — more family
//! overrides than there are slots, or a family name that is empty, over
//! eight bytes or carries a NUL — are malformed lines: `JsonLinesSource`
//! skips them, `serve` completes every other job, and nothing panics
//! (CI runs this in release as well). A job that parses but that no
//! catalog type can host, or whose work a progress lane cannot hold, is
//! dropped, and counted as dropped.

use eva::prelude::*;
use std::io::{BufReader, Cursor};

fn serve_lines(lines: &[String]) -> ServeOutcome {
    let mut cfg = SimConfig::new(
        TraceHandle::new(Trace::new(Vec::new())),
        SchedulerKind::Stratus,
    );
    cfg.retire_completed = true;
    cfg.seed = 1;
    let feed = lines.join("\n").into_bytes();
    let source = Box::new(JsonLinesSource::new(BufReader::new(Cursor::new(feed))));
    serve(&cfg, source, &ServeConfig::default(), &mut Vec::new()).unwrap()
}

#[test]
fn unholdable_demand_specs_are_skipped_lines() {
    let jobs = SyntheticTraceConfig::small_scale().generate(4).into_jobs();
    let good: Vec<String> = jobs
        .iter()
        .map(|j| serde_json::to_string(j).unwrap())
        .collect();

    // The same lines again, each with a hostile override map spliced in.
    let v = r#"{"gpu":0,"cpu":1,"ram_mb":1024}"#;
    let hostile_maps = [
        format!(r#""per_family":{{"c7i":{v},"p3":{v},"r7i":{v}}}"#),
        format!(r#""per_family":{{"a":{v},"b":{v},"c":{v},"d":{v},"e":{v}}}"#),
        format!(r#""per_family":{{"":{v}}}"#),
        format!(r#""per_family":{{"123456789":{v}}}"#),
        format!(r#""per_family":{{"p\u00003":{v}}}"#),
    ];
    let mut feed = Vec::new();
    for (i, line) in good.iter().enumerate() {
        // Replace the first task's map: from its key to its closing brace.
        let at = line
            .find(r#""per_family":{"#)
            .expect("every task has a map");
        let mut depth = 0;
        let closes = |c: char| {
            depth += i32::from(c == '{') - i32::from(c == '}');
            c == '}' && depth == 0
        };
        let end = at + line[at..].find(closes).expect("the map closes") + 1;
        let map = &hostile_maps[i % hostile_maps.len()];
        let hostile = format!("{}{map}{}", &line[..at], &line[end..]);
        let err = serde_json::from_str::<JobSpec>(&hostile).expect_err("hostile line parsed");
        assert!(err.to_string().contains("family override"), "{err}");
        feed.push(hostile);
        feed.push(line.clone());
    }

    let n = jobs.len() as u64;
    let outcome = serve_lines(&feed);
    assert_eq!(outcome.jobs_ingested, n, "hostile lines never become jobs");
    assert_eq!(outcome.lines_rejected, n, "each hostile line is counted");
    assert_eq!(outcome.report.jobs_completed as u64, n);

    // Skipped means skipped: the run is the run without those lines.
    let clean = serve_lines(&good);
    assert_eq!(outcome.report, clean.report);
}

/// A job whose first task wants nine GPUs, one more than any catalog type has.
fn unschedulable(mut job: JobSpec) -> JobSpec {
    job.tasks[0].demand = DemandSpec::uniform(ResourceVector::with_ram_gb(9, 4, 24));
    job
}

#[test]
fn unschedulable_jobs_are_counted_as_dropped() {
    let mut jobs = SyntheticTraceConfig::small_scale().generate(5).into_jobs();
    let n = jobs.len() as u64;
    jobs[3] = unschedulable(jobs[3].clone());
    let lines: Vec<String> = jobs
        .iter()
        .map(|j| serde_json::to_string(j).unwrap())
        .collect();
    let outcome = serve_lines(&lines);
    assert_eq!(outcome.jobs_ingested, n - 1);
    assert_eq!(outcome.jobs_dropped, 1);
    assert_eq!(
        outcome.lines_rejected, 0,
        "a dropped job is not a rejected line"
    );
    assert_eq!(outcome.report.jobs_completed as u64, n - 1);

    let mut cfg = SimConfig::new(Trace::new(jobs), SchedulerKind::Stratus);
    cfg.seed = 1;
    let mut sim = ClusterSim::new(&cfg);
    while sim.step() {}
    assert_eq!(sim.jobs_dropped(), 1);
    assert_eq!(sim.run().jobs_completed as u64, n - 1);
}

#[test]
fn skipped_lines_are_counted_by_reason() {
    let rejected = |feed: &[u8]| {
        let mut source = JsonLinesSource::new(BufReader::new(Cursor::new(feed.to_vec())));
        while source.next_job().is_some() {}
        source.rejected()
    };
    let jobs = SyntheticTraceConfig::small_scale().generate(6).into_jobs();
    let line = |i: usize| serde_json::to_string(&jobs[i]).unwrap() + "\n";
    assert!(jobs[0].arrival < jobs[1].arrival);
    assert_eq!(
        rejected(b"{\"id\": \xff}\n\n  \n"),
        1,
        "not UTF-8; blank lines are no rejection"
    );
    assert_eq!(rejected(b"not json\n{}\n"), 2, "not a JobSpec");
    assert_eq!(rejected((line(1) + &line(0)).as_bytes()), 1, "out of order");
    // `serve` reports what its source rejected.
    assert_eq!(
        serve_lines(&["{\"id\": 1".to_string(), line(0)]).lines_rejected,
        1
    );
}

#[test]
fn jobs_whose_work_no_lane_can_hold_are_counted_as_dropped() {
    // A progress lane holds work in ms·2⁻³² quanta in 64 bits: 2³² ms
    // (49.7 days) at full throughput is one millisecond too many.
    let mut jobs = SyntheticTraceConfig::small_scale().generate(6).into_jobs();
    let n = jobs.len() as u64;
    jobs[2].duration_at_full_tput = SimDuration::from_millis(1 << 32);
    jobs[4].duration_at_full_tput = SimDuration::from_millis(u64::MAX);
    let lines: Vec<String> = jobs
        .iter()
        .map(|j| serde_json::to_string(j).unwrap())
        .collect();
    let outcome = serve_lines(&lines);
    assert_eq!(outcome.jobs_ingested, n - 2);
    assert_eq!(outcome.jobs_dropped, 2);
    assert_eq!(outcome.lines_rejected, 0);
    assert_eq!(outcome.report.jobs_completed as u64, n - 2);

    // One millisecond less fits, and a batch world drops the same.
    jobs[2].duration_at_full_tput = SimDuration::from_millis((1 << 32) - 1);
    let mut cfg = SimConfig::new(Trace::new(jobs), SchedulerKind::Stratus);
    cfg.seed = 1;
    let mut sim = ClusterSim::new(&cfg);
    while sim.step() {}
    assert_eq!(sim.jobs_dropped(), 1);
}

#[test]
fn jobs_whose_ids_collide_are_counted_as_dropped() {
    // Three collisions, all arriving with the first job: the first job's
    // line again, a job that repeats a task index, and a job whose task
    // carries the first job's id. Each is dropped at the door; the world
    // names tasks by slot, so nothing else may be disturbed.
    let mut jobs = SyntheticTraceConfig::small_scale().generate(7).into_jobs();
    let n = jobs.len() as u64;
    let first = jobs[0].clone();
    let repeated = jobs[1].tasks[0].clone();
    jobs[1].tasks.push(repeated);
    jobs[2].tasks[0].id = first.tasks[0].id;
    for job in &mut jobs[1..3] {
        job.arrival = first.arrival;
    }
    jobs.insert(1, first);
    let lines: Vec<String> = jobs
        .iter()
        .map(|j| serde_json::to_string(j).unwrap())
        .collect();

    let mut cfg = SimConfig::new(
        TraceHandle::new(Trace::new(Vec::new())),
        SchedulerKind::Stratus,
    );
    cfg.retire_completed = true;
    cfg.seed = 1;
    let feed = lines.join("\n").into_bytes();
    let source = Box::new(JsonLinesSource::new(BufReader::new(Cursor::new(feed))));
    // `serve` would loop forever on a world that never drains: step it
    // with a budget instead.
    let mut sim = ClusterSim::from_source(&cfg, source);
    let mut steps = 0u64;
    while sim.step() {
        steps += 1;
        assert!(steps < 200_000, "the world never drained");
    }
    assert_eq!(sim.jobs_dropped(), 3);
    assert_eq!(sim.jobs_ingested(), n - 2);
    assert_eq!(sim.lines_rejected(), 0);
    assert_eq!(sim.run().jobs_completed as u64, n - 2);
}

/// `job` under `id`, its tasks too.
fn reid(job: &mut JobSpec, id: JobId) {
    job.id = id;
    job.tasks
        .iter_mut()
        .for_each(|t| t.id = TaskId::new(id, t.id.index));
}

/// Steps a batch world over `jobs` to exhaustion, auditing every step.
fn audited_batch(jobs: Vec<JobSpec>, retire: bool) -> ClusterSim {
    let mut cfg = SimConfig::new(TraceHandle::new(Trace::new(jobs)), SchedulerKind::Stratus);
    cfg.seed = 1;
    cfg.retire_completed = retire;
    let mut sim = ClusterSim::new(&cfg);
    let mut steps = 0u64;
    while sim.step() {
        steps += 1;
        sim.audit_slots()
            .unwrap_or_else(|e| panic!("step {steps}: {e}"));
        assert!(steps < 200_000, "the world never drained");
    }
    sim
}

#[test]
fn a_batch_job_whose_id_an_earlier_one_holds_is_dropped() {
    // Job 1 takes job 0's id (its tasks too) and arrival: it is dropped
    // when it arrives, as the streamed door drops it.
    let mut jobs = SyntheticTraceConfig::small_scale().generate(7).into_jobs();
    let n = jobs.len() as u64;
    let (id, arrival) = (jobs[0].id, jobs[0].arrival);
    reid(&mut jobs[1], id);
    jobs[1].arrival = arrival;
    let sim = audited_batch(jobs, false);
    assert_eq!(sim.jobs_dropped(), 1);
    assert_eq!(sim.run().jobs_completed as u64, n - 1);
}

#[test]
fn a_batch_job_reusing_a_completed_jobs_ids_is_admitted() {
    // The last job takes job 0's id (its tasks too) and arrives long after
    // every other job completed: no active job holds the id, so it is
    // admitted, as a stream admits it.
    let mut jobs = SyntheticTraceConfig::small_scale().generate(7).into_jobs();
    let n = jobs.len() as u64;
    let (last, id) = (jobs.len() - 1, jobs[0].id);
    reid(&mut jobs[last], id);
    jobs[last].arrival = SimTime::from_hours_f64(10_000.0);
    for retire in [false, true] {
        let sim = audited_batch(jobs.clone(), retire);
        assert_eq!((sim.jobs_dropped(), sim.jobs_ingested()), (0, n));
        assert_eq!(sim.run().jobs_completed as u64, n, "retire {retire}");
    }
}

/// `jobs` with every job's tasks declared in reverse.
fn reversed(jobs: &[JobSpec]) -> Vec<JobSpec> {
    let mut jobs = jobs.to_vec();
    jobs.iter_mut().for_each(|job| job.tasks.reverse());
    jobs
}

/// Steps `sim` to exhaustion within a budget.
fn drained(mut sim: ClusterSim) -> ClusterSim {
    let mut steps = 0u64;
    while sim.step() {
        steps += 1;
        assert!(steps < 200_000, "the world never drained");
    }
    sim
}

/// A world of Eva over `jobs` at seed 1, stepped to exhaustion.
fn batch(jobs: Vec<JobSpec>) -> ClusterSim {
    drained(ClusterSim::new(&eva_config(jobs)))
}

/// The same, with `jobs` streamed as JSON lines.
fn streamed(jobs: &[JobSpec]) -> ClusterSim {
    let lines: Vec<String> = jobs
        .iter()
        .map(|j| serde_json::to_string(j).unwrap())
        .collect();
    let feed = lines.join("\n").into_bytes();
    let source = Box::new(JsonLinesSource::new(BufReader::new(Cursor::new(feed))));
    drained(ClusterSim::from_source(&eva_config(Vec::new()), source))
}

fn eva_config(jobs: Vec<JobSpec>) -> SimConfig {
    let mut cfg = SimConfig::new(Trace::new(jobs), SchedulerKind::Eva(EvaConfig::eva()));
    cfg.seed = 1;
    cfg
}

fn report_bytes(sim: ClusterSim) -> String {
    serde_json::to_string(&sim.run()).unwrap()
}

#[test]
fn tasks_declared_in_reverse_run_as_if_declared_in_order() {
    // The door puts a job's tasks in index order, so the order a trace or
    // a feed declares them in cannot reach the scheduler.
    let jobs = SyntheticTraceConfig::small_scale().generate(11).into_jobs();
    let reversed = reversed(&jobs);
    assert!(
        reversed.iter().zip(&jobs).any(|(r, j)| r.tasks != j.tasks),
        "no gang job"
    );
    let in_order = report_bytes(batch(jobs));
    assert_eq!(report_bytes(batch(reversed.clone())), in_order, "batch");
    assert_eq!(report_bytes(streamed(&reversed)), in_order, "streamed");
}

#[test]
fn a_job_repeating_a_task_index_is_dropped_in_any_order() {
    // Job 1 repeats its first task's index; in reverse the repeat comes
    // first. Either way the job is dropped and counted, batch and streamed.
    let mut jobs = SyntheticTraceConfig::small_scale().generate(12).into_jobs();
    let n = jobs.len() as u64;
    let repeated = jobs[1].tasks[0].clone();
    jobs[1].tasks.push(repeated);
    for jobs in [jobs.clone(), reversed(&jobs)] {
        for sim in [batch(jobs.clone()), streamed(&jobs)] {
            assert_eq!((sim.jobs_dropped(), sim.jobs_ingested()), (1, n - 1));
            assert_eq!(sim.run().jobs_completed as u64, n - 1);
        }
    }
}
