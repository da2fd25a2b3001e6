//! What the benchmark reads from the host: its own memory high-water
//! mark and CPU time, the machine it ran on, and where it may write.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;

/// `VmHWM` of this process in MiB; 0 where `/proc` is missing.
pub fn vm_hwm_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds of this process, all threads, from
/// `/proc/self/stat`; 0 where `/proc` is missing. Linux reports these
/// fields in `USER_HZ` ticks, which is 100 on every supported
/// architecture.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may hold spaces; fields are counted
    // from the parenthesis that closes it. utime and stime are fields
    // 14 and 15, so the 12th and 13th after it.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let ticks: f64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / 100.0
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The first `model name` of `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The benchmark's package directory. Everything the benchmark writes
/// goes under its `out/`, so a run never leaves its checkout.
pub fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// `out/`, created on demand.
pub fn out_dir() -> PathBuf {
    let dir = package_dir().join("out");
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    dir
}

/// A path under `out/tmp/` no other call or process was handed. The
/// caller creates and removes whatever it puts there.
pub fn scratch_path(tag: &str) -> PathBuf {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    // Made once: set-ups ask for a path each, and are timed.
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    let dir = DIR.get_or_init(|| {
        let dir = out_dir().join("tmp");
        std::fs::create_dir_all(&dir).expect("create benchmark/out/tmp");
        dir
    });
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    dir.join(format!("{tag}-{}-{n}", std::process::id()))
}
