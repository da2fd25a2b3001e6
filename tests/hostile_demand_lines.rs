//! Job lines whose `DemandSpec` cannot be held inline — more family
//! overrides than there are slots, or a family name that is empty, over
//! eight bytes or carries a NUL — are malformed lines: `JsonLinesSource`
//! skips them, `serve` completes every other job, and nothing panics
//! (CI runs this in release as well).

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
    assert_eq!(outcome.report.jobs_completed as u64, n);

    // Skipped means skipped: the run is the run without those lines.
    let clean = serve_lines(&good);
    assert_eq!(outcome.report, clean.report);
}
