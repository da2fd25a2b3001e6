//! Persistent report-cache correctness.
//!
//! (a) A second run of the same grid against a warm cache is 100 % hits
//!     and produces byte-identical JSON.
//! (b) A *different* experiment declaring overlapping cells (same trace
//!     content, schedulers, seeds) also hits — the cache is keyed by
//!     content, not by grid or binary.
//! (c) Bumping the code schema version, or mutating the trace, makes
//!     every entry miss; re-blessing the simulation golden without a
//!     bump fails.
//! (d) The fault axis is part of every fingerprint: a cached clean-run
//!     cell can never be replayed for a faulted cell, and intensity is
//!     part of the key, not just the regime.
//! (e) Segments: a torn last line costs only its own entry, and storing
//!     that key again mends it; handles writing one directory from
//!     several threads never interleave lines; and a line in the format
//!     earlier builds wrote, `producer` stamp included, reads warm.

use std::path::PathBuf;

use eva::prelude::*;
use eva_cloud::FidelityMode;
use eva_sim::cache::SCHEMA_VERSION;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eva-report-cache-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn trace(seed: u64) -> Trace {
    AlibabaTraceConfig {
        num_jobs: 12,
        arrival_rate_per_hour: 6.0,
        durations: DurationModelChoice::Alibaba,
    }
    .generate(seed)
}

fn grid(trace: &Trace) -> SweepGrid {
    SweepGrid::new("cache-test", trace.clone())
        .schedulers_by_name(&["no-packing", "stratus"])
        .unwrap()
        .seeds(vec![1, 2])
        .fidelities(vec![FidelityMode::Nominal])
}

#[test]
fn warm_rerun_is_all_hits_and_byte_identical() {
    let dir = tmp_dir("warm");
    let trace = trace(5);
    let runner = SweepRunner::new(2).with_cache(ReportCache::new(&dir));

    let (first, s1) = runner.run_with_stats(&grid(&trace));
    assert_eq!(s1.executed, s1.unique, "cold cache simulates everything");
    assert_eq!(s1.cache_hits, 0);

    let (second, s2) = runner.run_with_stats(&grid(&trace));
    assert_eq!(s2.executed, 0, "warm cache simulates zero cells");
    assert_eq!(s2.cache_hits, s2.unique);
    assert!(s2.all_cached());
    assert_eq!(
        first.to_json_pretty(),
        second.to_json_pretty(),
        "cached reports must round-trip byte-identically"
    );

    // Thread count still cannot matter.
    let (third, _) = SweepRunner::new(8)
        .with_cache(ReportCache::new(&dir))
        .run_with_stats(&grid(&trace));
    assert_eq!(first.to_json_pretty(), third.to_json_pretty());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overlapping_experiments_share_cells_across_grids() {
    let dir = tmp_dir("cross");
    let trace = trace(6);
    let runner = SweepRunner::new(2).with_cache(ReportCache::new(&dir));

    let (_, s1) = runner.run_with_stats(&grid(&trace));
    assert_eq!(s1.cache_hits, 0);

    // A different experiment: single seed, one extra scheduler, new grid
    // label — the (trace × no-packing/stratus × seed 1) cells recur.
    let other = SweepGrid::new("another-experiment", trace.clone())
        .schedulers_by_name(&["no-packing", "stratus", "owl"])
        .unwrap()
        .seeds(vec![1])
        .fidelities(vec![FidelityMode::Nominal]);
    let (result, s2) = runner.run_with_stats(&other);
    assert_eq!(s2.cache_hits, 2, "no-packing + stratus cells recur");
    assert_eq!(s2.executed, 1, "only owl is new work");

    // Cached fan-out must equal a direct cold run of the same grid.
    let cold = SweepRunner::new(2).run(&other);
    assert_eq!(result.to_json_pretty(), cold.to_json_pretty());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fault_axis_is_part_of_every_cell_key() {
    let dir = tmp_dir("faults");
    let trace = trace(9);
    let runner = SweepRunner::new(2).with_cache(ReportCache::new(&dir));

    // Warm the cache with the fault-free grid.
    let (clean, s1) = runner.run_with_stats(&grid(&trace));
    assert_eq!(s1.cache_hits, 0);

    // The identical grid under an injected regime must miss on every
    // cell: replaying a cached clean run for a faulted cell would
    // silently report adversity-free numbers as robustness results.
    let storm = grid(&trace).faults(vec![FaultSpec::parse("preempt-storm:2").unwrap()]);
    let (faulted, s2) = runner.run_with_stats(&storm);
    assert_eq!(
        s2.cache_hits, 0,
        "clean cells must never serve faulted cells"
    );
    assert_eq!(s2.executed, s2.unique);

    // Intensity is in the fingerprint too, not just the regime name.
    let harder = grid(&trace).faults(vec![FaultSpec::parse("preempt-storm:3").unwrap()]);
    let (_, s3) = runner.run_with_stats(&harder);
    assert_eq!(s3.cache_hits, 0, "intensity must be part of the key");

    // A warm rerun of the faulted grid hits and round-trips exactly.
    let (warm, s4) = runner.run_with_stats(&storm);
    assert!(s4.all_cached());
    assert_eq!(faulted.to_json_pretty(), warm.to_json_pretty());
    assert_ne!(clean.to_json_pretty(), faulted.to_json_pretty());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn schema_bump_invalidates_every_entry() {
    let dir = tmp_dir("schema");
    let trace = trace(7);

    let current = SweepRunner::new(2).with_cache(ReportCache::new(&dir));
    let (_, s1) = current.run_with_stats(&grid(&trace));
    assert_eq!(s1.cache_hits, 0);
    let (_, warm) = current.run_with_stats(&grid(&trace));
    assert!(warm.all_cached());

    let bumped = SweepRunner::new(2).with_cache(ReportCache::with_schema(
        &dir,
        format!("{SCHEMA_VERSION}-bumped"),
    ));
    let (_, s2) = bumped.run_with_stats(&grid(&trace));
    assert_eq!(s2.cache_hits, 0, "new schema must not read old entries");
    assert_eq!(s2.executed, s2.unique);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn golden_reblessed_only_with_a_schema_bump() {
    // A re-blessed golden means simulated reports changed, so entries of
    // the older semantics must stop reading warm: re-pin this pair only
    // together with a new `SCHEMA_VERSION`.
    let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("arena_parity.json");
    let bytes = std::fs::read(&golden).unwrap();
    let hash = eva_types::fnv1a64(&bytes);
    assert_eq!((SCHEMA_VERSION, hash), ("eva-v5", 0xc6ce_12d4_442a_1481));
}

#[test]
fn trace_mutation_invalidates_entries() {
    let dir = tmp_dir("mutate");
    let base = trace(8);
    let runner = SweepRunner::new(2).with_cache(ReportCache::new(&dir));
    let (_, s1) = runner.run_with_stats(&grid(&base));
    assert_eq!(s1.cache_hits, 0);

    // One job runs a minute longer: every cell key changes.
    let mut jobs = base.into_jobs();
    jobs[0].duration_at_full_tput += SimDuration::from_mins(1);
    let mutated = Trace::new(jobs);
    let (_, s2) = runner.run_with_stats(&grid(&mutated));
    assert_eq!(s2.cache_hits, 0, "mutated trace content must miss");
    assert_eq!(s2.executed, s2.unique);

    let _ = std::fs::remove_dir_all(&dir);
}

/// The segments (`*.log`) in `dir`, in name order.
fn segments(dir: &std::path::Path) -> Vec<PathBuf> {
    let mut logs: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "log"))
        .collect();
    logs.sort();
    logs
}

#[test]
fn torn_tail_misses_alone_and_storing_it_again_reads_warm() {
    let dir = tmp_dir("torn");
    let writer = ReportCache::new(&dir);
    for k in 0..5u64 {
        writer.store(&format!("k{k}"), &vec![k; 40]);
    }
    drop(writer);
    let [log] = &segments(&dir)[..] else {
        panic!("one writer, one segment")
    };
    // A writer killed mid-append: the last line stops halfway.
    let len = std::fs::metadata(log).unwrap().len();
    let file = std::fs::OpenOptions::new().write(true).open(log).unwrap();
    file.set_len(len - 60).unwrap();

    let cache = ReportCache::new(&dir);
    for k in 0..4u64 {
        assert_eq!(
            cache.lookup::<Vec<u64>>(&format!("k{k}")),
            Some(vec![k; 40])
        );
    }
    assert_eq!(
        cache.lookup::<Vec<u64>>("k4"),
        None,
        "the torn entry misses"
    );

    // Re-storing the key appends it whole to the new handle's own
    // segment, so a later handle reads every entry warm.
    cache.store("k4", &vec![4u64; 40]);
    assert_eq!(segments(&dir).len(), 2);
    let fresh = ReportCache::new(&dir);
    for k in 0..5u64 {
        assert_eq!(
            fresh.lookup::<Vec<u64>>(&format!("k{k}")),
            Some(vec![k; 40])
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_writers_never_interleave_lines() {
    let dir = tmp_dir("concurrent");
    let handles = [ReportCache::new(&dir), ReportCache::new(&dir)];
    // Entries of ~40 KB each, four threads appending at once.
    let value = |h: usize, t: usize, i: usize| vec![(h * 1_000 + t * 100 + i) as u64; 5_000];
    let start = std::sync::Barrier::new(4);
    std::thread::scope(|scope| {
        for (h, cache) in handles.iter().enumerate() {
            for t in 0..2 {
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    for i in 0..25 {
                        cache.store(&format!("h{h}-t{t}-{i}"), &value(h, t, i));
                    }
                });
            }
        }
    });
    let fresh = ReportCache::new(&dir);
    for (h, t, i) in (0..2).flat_map(|h| (0..2).flat_map(move |t| (0..25).map(move |i| (h, t, i))))
    {
        let key = format!("h{h}-t{t}-{i}");
        assert_eq!(
            fresh.lookup::<Vec<u64>>(&key),
            Some(value(h, t, i)),
            "{key}"
        );
    }
    // One segment per handle, and every line in them a whole entry.
    let logs = segments(&dir);
    assert_eq!(logs.len(), 2);
    let mut lines = 0;
    for log in &logs {
        for line in std::fs::read_to_string(log).unwrap().lines() {
            let entry: serde_json::Value = serde_json::from_str(line).expect("a whole entry");
            assert!(entry.get_field("value").is_some());
            lines += 1;
        }
    }
    assert_eq!(lines, 100);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn segment_lines_with_a_producer_stamp_read_warm() {
    // A line as earlier builds wrote it: a `producer` member between
    // `key` and `value`. Readers skip the stamp, so such caches stay warm.
    let dir = tmp_dir("producer");
    std::fs::create_dir_all(&dir).unwrap();
    let line = format!(
        r#"{{"schema":"{SCHEMA_VERSION}","key":"cell","producer":"exp_fig4","value":[3,1,4]}}"#
    );
    std::fs::write(dir.join("4242-0.log"), format!("{line}\n")).unwrap();
    let cache = ReportCache::new(&dir);
    assert_eq!(cache.lookup::<Vec<u64>>("cell"), Some(vec![3, 1, 4]));
    assert_eq!(cache.lookup::<Vec<u64>>("other"), None);
    // The stamp is skipped, not trusted: the schema still decides.
    let bumped = ReportCache::with_schema(&dir, format!("{SCHEMA_VERSION}-bumped"));
    assert_eq!(bumped.lookup::<Vec<u64>>("cell"), None);
    let _ = std::fs::remove_dir_all(&dir);
}
