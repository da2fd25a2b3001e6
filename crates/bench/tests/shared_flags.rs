//! The shared flags of the `exp_*` binaries are parsed before any work: a
//! flag without its value or an unknown fault regime exits 2 with the
//! error on stderr and nothing on stdout, whichever binary receives it.

use std::process::Command;

fn assert_flag_error(bin: &str, args: &[&str], expected: &str) {
    let out = Command::new(bin)
        .args(args)
        .env_remove("EVA_CACHE_DIR")
        .env_remove("EVA_FAULTS")
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains(expected), "{bin} {args:?}: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "{bin} {args:?} printed before failing: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn cache_dir_without_a_value_fails_a_binary_that_runs_no_sweep() {
    assert_flag_error(
        env!("CARGO_BIN_EXE_exp_table1"),
        &["--cache-dir"],
        "error: --cache-dir: the flag needs a value",
    );
}

#[test]
fn cache_dir_without_a_value_fails_before_the_header() {
    assert_flag_error(
        env!("CARGO_BIN_EXE_exp_fig4"),
        &["--cache-dir"],
        "error: --cache-dir: the flag needs a value",
    );
}

#[test]
fn unknown_fault_regime_fails_before_the_header() {
    assert_flag_error(
        env!("CARGO_BIN_EXE_exp_fig4"),
        &["--faults", "meteor"],
        "error: --faults: ",
    );
}
