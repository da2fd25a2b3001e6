//! Smoke tests for the `eva` CLI: the catalog-style subcommands must exit
//! zero and print real content, so the README quickstart keeps working.

use std::process::Command;

fn run_eva(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_eva"))
        .args(args)
        .output()
        .expect("failed to spawn the eva binary")
}

#[test]
fn workloads_subcommand_prints_table7() {
    let out = run_eva(&["workloads"]);
    assert!(out.status.success(), "exit: {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(!stdout.trim().is_empty());
    // The Table 7 catalog spans ML training and scientific computing.
    assert!(stdout.contains("GPT2"), "missing GPT2 in:\n{stdout}");
    assert!(stdout.contains("OpenFOAM"), "missing OpenFOAM in:\n{stdout}");
}

#[test]
fn catalog_subcommand_prints_aws_types() {
    let out = run_eva(&["catalog"]);
    assert!(out.status.success(), "exit: {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(!stdout.trim().is_empty());
    // The 21-type AWS evaluation catalog covers GPU and CPU families.
    assert!(stdout.contains("p3."), "missing p3 family in:\n{stdout}");
    assert!(stdout.contains("c7i."), "missing c7i family in:\n{stdout}");
    assert!(stdout.contains("/hr"), "missing hourly prices in:\n{stdout}");
}

#[test]
fn help_lists_every_subcommand() {
    let out = run_eva(&["help"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    for cmd in ["simulate", "compare", "sweep", "workloads", "catalog", "cache"] {
        assert!(stdout.contains(cmd), "help does not mention `{cmd}`");
    }
    for flag in [
        "--period",
        "--threads",
        "--schedulers",
        "--seeds",
        "--cache",
        "--no-cache",
        "--cache-dir",
        "--procs",
    ] {
        assert!(stdout.contains(flag), "help does not mention `{flag}`");
    }
}

#[test]
fn unknown_command_fails_with_message() {
    let out = run_eva(&["frobnicate"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("frobnicate"), "stderr: {stderr}");
}

#[test]
fn simulate_small_trace_reports_cost() {
    let out = run_eva(&["simulate", "--jobs", "10", "--seed", "7"]);
    assert!(out.status.success(), "exit: {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains('$'), "no cost column in:\n{stdout}");
}

#[test]
fn simulate_accepts_period_and_threads() {
    let out = run_eva(&[
        "simulate", "--jobs", "6", "--period", "10", "--threads", "2",
    ]);
    assert!(out.status.success(), "exit: {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains('$'), "no cost column in:\n{stdout}");
}

#[test]
fn bad_period_and_threads_fail_in_flag_style() {
    // Error messages follow the existing `--jobs`/`--seed` style:
    // `error: --<flag>: <cause>`.
    for (args, flag) in [
        (vec!["simulate", "--period", "abc"], "--period"),
        (vec!["simulate", "--period", "0"], "--period"),
        (vec!["compare", "--threads", "abc"], "--threads"),
        (vec!["sweep", "--threads"], "--threads"),
    ] {
        let out = run_eva(&args);
        assert!(!out.status.success(), "{args:?} should fail");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.contains("error:") && stderr.contains(flag),
            "{args:?} → {stderr}"
        );
    }
}

#[test]
fn sweep_runs_grid_and_writes_stable_json() {
    // Per-process filenames so concurrent test runs never collide.
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let path_a = dir.join(format!("eva_cli_sweep_{pid}_a.json"));
    let path_b = dir.join(format!("eva_cli_sweep_{pid}_b.json"));
    let base = [
        "sweep",
        "--jobs",
        "6",
        "--schedulers",
        "no-packing,stratus",
        "--seeds",
        "1,2",
    ];
    let mut args_a: Vec<&str> = base.to_vec();
    let a_path = path_a.to_str().unwrap();
    args_a.extend(["--threads", "1", "--json", a_path]);
    let mut args_b: Vec<&str> = base.to_vec();
    let b_path = path_b.to_str().unwrap();
    args_b.extend(["--threads", "4", "--json", b_path]);

    let out_a = run_eva(&args_a);
    assert!(out_a.status.success(), "exit: {:?}", out_a.status);
    let stdout = String::from_utf8(out_a.stdout).unwrap();
    assert!(stdout.contains("4 cells"), "cell count missing:\n{stdout}");
    assert!(stdout.contains("stratus"), "per-cell rows missing:\n{stdout}");

    let out_b = run_eva(&args_b);
    assert!(out_b.status.success(), "exit: {:?}", out_b.status);
    let json_a = std::fs::read(&path_a).unwrap();
    let json_b = std::fs::read(&path_b).unwrap();
    assert!(!json_a.is_empty());
    assert_eq!(
        json_a, json_b,
        "sweep JSON must be byte-identical for any --threads value"
    );
    let _ = std::fs::remove_file(&path_a);
    let _ = std::fs::remove_file(&path_b);
}

#[test]
fn sweep_rejects_removed_window_flag_as_unknown() {
    // No shim, no deprecation path: the flag is simply not in the parser.
    let out = run_eva(&["sweep", "--jobs", "6", "--shard", "8"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("error: unknown flag `--shard`"),
        "stderr: {stderr}"
    );
}

#[test]
fn sweep_rejects_unknown_scheduler() {
    let out = run_eva(&["sweep", "--schedulers", "no-packing,slurm"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("slurm"), "stderr: {stderr}");
}
