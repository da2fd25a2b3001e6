//! Multi-process federated sweeps, driven through the real `eva` binary:
//! coordinators spawn genuine worker processes that claim cells from a
//! shared cache dir, so these tests cover the cross-process claim
//! protocol the in-crate unit tests cannot (they must never spawn, or
//! they would re-execute the test harness).

use std::path::{Path, PathBuf};
use std::process::Command;

fn eva() -> Command {
    Command::new(env!("CARGO_BIN_EXE_eva"))
}

fn temp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eva-fedtest-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The small grid every test here sweeps: 2 schedulers × 2 seeds.
fn sweep_args(procs: &str, cache_dir: &Path, json: &Path) -> Vec<String> {
    [
        "sweep",
        "--jobs",
        "10",
        "--seeds",
        "1,2",
        "--schedulers",
        "eva,stratus",
        "--threads",
        "2",
        "--procs",
        procs,
        "--cache-dir",
    ]
    .iter()
    .map(|s| s.to_string())
    .chain([
        cache_dir.display().to_string(),
        "--json".to_string(),
        json.display().to_string(),
    ])
    .collect()
}

fn claim_files(dir: &Path) -> Vec<PathBuf> {
    std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "claim"))
        .collect()
}

fn assert_verify_clean(dir: &Path) {
    let out = eva()
        .args(["cache", "verify", "--cache-dir"])
        .arg(dir)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "cache verify not clean:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn two_process_sweep_is_byte_identical_to_single_process() {
    let root = temp("bytes");
    let (dir1, dir2) = (root.join("cache1"), root.join("cache2"));
    let (json1, json2) = (root.join("one.json"), root.join("two.json"));

    let out = eva().args(sweep_args("1", &dir1, &json1)).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let out = eva().args(sweep_args("2", &dir2, &json2)).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let single = std::fs::read(&json1).unwrap();
    let federated = std::fs::read(&json2).unwrap();
    assert!(!single.is_empty());
    assert_eq!(
        single, federated,
        "federated artifact diverged from single-process bytes"
    );

    assert_eq!(claim_files(&dir2), Vec::<PathBuf>::new());
    assert_verify_clean(&dir2);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn racing_coordinators_share_one_cache_dir() {
    let root = temp("race");
    let shared = root.join("cache");
    let (json_a, json_b) = (root.join("a.json"), root.join("b.json"));

    // Two federated coordinators launched together: four processes
    // total publishing into one dir, every cell claimed exactly once.
    let mut a = eva().args(sweep_args("2", &shared, &json_a)).spawn().unwrap();
    let mut b = eva().args(sweep_args("2", &shared, &json_b)).spawn().unwrap();
    assert!(a.wait().unwrap().success());
    assert!(b.wait().unwrap().success());

    let bytes_a = std::fs::read(&json_a).unwrap();
    let bytes_b = std::fs::read(&json_b).unwrap();
    assert_eq!(bytes_a, bytes_b, "racing coordinators disagreed");

    assert_eq!(claim_files(&shared), Vec::<PathBuf>::new());
    assert_verify_clean(&shared);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn dead_workers_claim_is_stolen_and_rerun_is_clean() {
    let root = temp("steal");
    let dir = root.join("cache");
    let (json1, json2) = (root.join("ref.json"), root.join("rerun.json"));

    // Warm run to learn real entry names.
    let out = eva().args(sweep_args("1", &dir, &json1)).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let entry = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "json"))
        .expect("warm run populated the cache");

    // Simulate a worker killed mid-cell: its result is gone, its claim
    // file is left behind. Pid 4294967295 exceeds any real pid_max and
    // ts_ms=1 is ancient, so the claim is stealable on both axes.
    std::fs::remove_file(&entry).unwrap();
    let claim = entry.with_extension("claim");
    std::fs::write(
        &claim,
        r#"{"pid":4294967295,"host":"elsewhere","ts_ms":1,"key":"?"}"#,
    )
    .unwrap();

    let out = eva().args(sweep_args("2", &dir, &json2)).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(
        std::fs::read(&json1).unwrap(),
        std::fs::read(&json2).unwrap(),
        "rerun after a killed worker diverged"
    );
    assert!(!claim.exists(), "stale claim survived the rerun");
    assert_verify_clean(&dir);
    let _ = std::fs::remove_dir_all(&root);
}
