//! `all` and `verify`: every workload, each run in a child process so
//! that `peak_rss_mb` is the workload's own.

use std::process::{Command, ExitCode, Stdio};

use serde::{Serialize, Value};

use crate::{host, stats, Opts, WORKLOADS};

/// The simulated end-to-end metrics: equal, to the bit, whenever the
/// seed is.
const SIMULATED: [&str; 3] = ["cost_usd", "jct_mean_h", "completed_share"];

/// The result line of one child `run`.
struct RunResult {
    correct: bool,
    doc: Value,
}

impl RunResult {
    fn metric(&self, name: &str) -> f64 {
        self.doc
            .get_field("metrics")
            .and_then(|m| m.get_field(name))
            .and_then(|m| m.get_field("value"))
            .and_then(|v| match v {
                Value::Number(n) => Some(n.as_f64()),
                _ => None,
            })
            .unwrap_or_else(|| panic!("the result line has no metric `{name}`"))
    }
}

/// Runs one workload in a child process and parses its last line.
fn spawn_run(workload: &str, seed: u64, traced: bool, opts: &Opts) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["run", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if opts.smoke {
        command.arg("--smoke");
    }
    let output = command.output().map_err(|e| format!("spawn run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or("");
    let doc = serde_json::from_str_value(line)
        .map_err(|e| format!("{workload}: no result line ({e})"))?;
    let correct = output.status.success() && doc.get_field("correct") == Some(&Value::Bool(true));
    Ok(RunResult { correct, doc })
}

fn field(doc: &Value, name: &str) -> Value {
    doc.get_field(name).cloned().unwrap_or(Value::Null)
}

/// What `all` keeps of one workload, and `baseline/` holds.
#[derive(Serialize)]
struct Saved {
    workload: String,
    seed: u64,
    seconds: f64,
    smoke: bool,
    commit: String,
    nproc: usize,
    cpu_model: String,
    correct: bool,
    attempted: Value,
    failed: Value,
    end_to_end: Value,
    per_layer: Value,
}

/// Every workload untraced then traced; one `out/<workload>.json` each.
pub fn all(opts: &Opts) -> Result<ExitCode, String> {
    let mut ok = true;
    let mut stratus: Vec<(f64, f64)> = Vec::new();
    println!(
        "{:<14} {:>9} {:>11} {:>11} {:>14} {:>10}  checks",
        "workload", "setup_s", "jobs_per_s", "peak_rss_mb", "cost_usd", "jct_mean_h"
    );
    for workload in WORKLOADS {
        let plain = spawn_run(workload, opts.seed, false, opts)?;
        let traced = spawn_run(workload, opts.seed, true, opts)?;
        let correct = plain.correct && traced.correct;
        ok &= correct;
        if workload.ends_with("_stratus") {
            stratus.push((plain.metric("cost_usd"), plain.metric("jct_mean_h")));
        }
        println!(
            "{:<14} {:>9.4} {:>11.1} {:>11.2} {:>14.2} {:>10.5}  {}",
            workload,
            plain.metric("setup_s"),
            plain.metric("jobs_per_s"),
            plain.metric("peak_rss_mb"),
            plain.metric("cost_usd"),
            plain.metric("jct_mean_h"),
            if correct { "ok" } else { "FAILED" },
        );
        let doc = Saved {
            workload: workload.to_string(),
            seed: opts.seed,
            seconds: opts.seconds,
            smoke: opts.smoke,
            commit: opts.commit.clone(),
            nproc: host::nproc(),
            cpu_model: host::cpu_model(),
            correct,
            attempted: field(&plain.doc, "attempted"),
            failed: field(&plain.doc, "failed"),
            end_to_end: field(&plain.doc, "metrics"),
            per_layer: field(&traced.doc, "metrics"),
        };
        let json = serde_json::to_string_pretty(&doc).expect("result serializes");
        let path = host::out_dir().join(format!("{workload}.json"));
        std::fs::write(&path, json + "\n").map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    // Same jobs, same scheduler, two paths through the world layer.
    if stratus[0] != stratus[1] {
        eprintln!("check failed: batch_stratus and serve_stratus disagree on cost_usd or jct_mean_h: {stratus:?}");
        ok = false;
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// One end-to-end metric as `BENCHMARK.json` declares it.
struct Declared {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

fn declared() -> Result<Vec<Declared>, String> {
    let path = host::package_dir().join("../BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let doc =
        serde_json::from_str_value(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
    let list = doc
        .get_field("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json lists no end_to_end")?;
    list.iter()
        .map(|m| {
            let text = |key: &str| {
                m.get_field(key)
                    .and_then(Value::as_str)
                    .ok_or(format!("end_to_end entry without `{key}`"))
            };
            let bound = match m.get_field("bound") {
                Some(Value::Number(n)) => n.as_f64(),
                _ => return Err("end_to_end entry without `bound`".to_string()),
            };
            Ok(Declared {
                name: text("name")?.to_string(),
                higher_is_better: text("better")? == "higher",
                bound,
            })
        })
        .collect()
}

/// Two sets of `--runs` untraced runs per workload, seeds `--seed`
/// upwards, judged as the benchmark's contract judges them: within a
/// set, the quartile spread of every metric but `setup_s` stays within
/// its bound; between the sets, no median worsens by more than the
/// bound; and whatever is simulated is equal to the bit, seed by seed.
pub fn verify(opts: &Opts) -> Result<ExitCode, String> {
    if opts.runs < 2 {
        return Err("--runs must be at least 2: a spread needs two values".to_string());
    }
    let declared = declared()?;
    let seeds: Vec<u64> = (0..opts.runs as u64).map(|i| opts.seed + i).collect();
    let mut ok = true;
    // sets[set][workload][run]
    let mut sets: Vec<Vec<Vec<RunResult>>> = Vec::new();
    for set in 0..2 {
        let mut by_workload: Vec<Vec<RunResult>> = WORKLOADS.iter().map(|_| Vec::new()).collect();
        for &seed in &seeds {
            for (w, workload) in WORKLOADS.iter().enumerate() {
                let result = spawn_run(workload, seed, false, opts)?;
                let values: Vec<String> = declared
                    .iter()
                    .map(|m| format!("{} {}", m.name, result.metric(&m.name)))
                    .collect();
                eprintln!(
                    "verify: set {} seed {seed} {workload}: {}",
                    set + 1,
                    values.join(", ")
                );
                ok &= result.correct;
                by_workload[w].push(result);
            }
        }
        sets.push(by_workload);
    }

    println!(
        "{:<14} {:<16} {:>14} {:>14} {:>8} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "median 1", "median 2", "worse", "spread 1", "spread 2", "bound"
    );
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for metric in &declared {
            let values = |set: usize| -> Vec<f64> {
                sets[set][w]
                    .iter()
                    .map(|r| r.metric(&metric.name))
                    .collect()
            };
            let (first, second) = (values(0), values(1));
            let (m1, m2) = (stats::median(&first), stats::median(&second));
            let worse = if metric.higher_is_better {
                (m1 - m2) / m1
            } else {
                (m2 - m1) / m1
            };
            let (s1, s2) = (stats::spread(&first), stats::spread(&second));
            let mut verdict = Vec::new();
            if metric.name != "setup_s" && s1.max(s2) > metric.bound {
                verdict.push("spread over bound");
            }
            if worse > metric.bound {
                verdict.push("second median worse than bound");
            }
            if SIMULATED.contains(&metric.name.as_str())
                && first
                    .iter()
                    .zip(&second)
                    .any(|(a, b)| a.to_bits() != b.to_bits())
            {
                verdict.push("simulated value differs between sets");
            }
            ok &= verdict.is_empty();
            println!(
                "{:<14} {:<16} {:>14.4} {:>14.4} {:>7.2}% {:>7.2}% {:>7.2}% {:>6.1}%  {}",
                workload,
                metric.name,
                m1,
                m2,
                worse * 100.0,
                s1 * 100.0,
                s2 * 100.0,
                metric.bound * 100.0,
                if verdict.is_empty() {
                    "ok".to_string()
                } else {
                    verdict.join("; ")
                },
            );
        }
    }
    for run in 0..seeds.len() {
        let at = |w: usize| sets[0][w][run].metric("cost_usd").to_bits();
        if at(0) != at(2) {
            eprintln!(
                "check failed: seed {}: batch_stratus and serve_stratus disagree on cost_usd",
                seeds[run]
            );
            ok = false;
        }
    }
    println!("{}", if ok { "verify: ok" } else { "verify: FAILED" });
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
