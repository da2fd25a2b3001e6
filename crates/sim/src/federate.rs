//! Federated sweep orchestration: one grid, several processes.
//!
//! The [`crate::ReportCache`] keys cells by content, so any process that
//! can see the cache dir can compute any cell — the only coordination a
//! multi-process (or, with a shared/synced dir, multi-host) sweep needs
//! is *who does what*. A [`Federation`] answers that with work-claiming
//! over the cache dir itself:
//!
//! 1. The **coordinator** (the process the user started) computes the
//!    [`crate::RunPlan`] and spawns `procs - 1` **workers** — re-executions
//!    of its own binary with the same arguments plus `EVA_FED_ROLE=worker`
//!    in the environment.
//! 2. Every process (coordinator included) walks the longest-first order,
//!    claiming unclaimed representatives via atomic `<fnv>.claim` files
//!    ([`crate::ReportCache::try_claim`]), executing them, and publishing
//!    into the cache.
//! 3. The coordinator tails the cache for cells a peer claimed
//!    ([`crate::CellPool::run_federated`] phase 2) and merges in logical
//!    cell order — so merged JSON is **byte-identical** to a
//!    single-process run for any process count, thread count, and cache
//!    state.
//!
//! Claims carry pid + host + timestamp and are *stealable* once their
//! holder is dead or the staleness deadline (`EVA_CLAIM_STALE_SECS`,
//! default 600 s) passes, so a killed worker leaves at worst a claim file
//! the next run removes — it never wedges a federated run.
//!
//! Workers inherit the coordinator's full command line, which makes them
//! plan the *same* grid; their role suppresses artifact writes and
//! further spawning (a worker never forks grandchildren). For multi-host
//! federation there is no spawning at all: run the same command on each
//! host against an rsync'd cache dir and merge afterwards (`eva cache
//! merge`).

use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::Duration;

/// Environment variable carrying the process role (`worker` in spawned
/// federation workers; unset/anything else = coordinator).
pub const ROLE_ENV: &str = "EVA_FED_ROLE";

/// Default claim staleness deadline (env override `EVA_CLAIM_STALE_SECS`).
const CLAIM_STALE_SECS_DEFAULT: u64 = 600;

/// How often a waiting process re-polls the cache for a peer's result.
const POLL_DEFAULT: Duration = Duration::from_millis(10);

/// Children this coordinator spawned, joined by [`join_workers`].
static WORKERS: Mutex<Vec<Child>> = Mutex::new(Vec::new());

/// True when this process is a spawned federation worker (it must not
/// write artifacts or spawn further workers).
pub fn worker_role() -> bool {
    std::env::var(ROLE_ENV).is_ok_and(|v| v == "worker")
}

/// The claim staleness deadline: `EVA_CLAIM_STALE_SECS` or 600 s.
pub fn claim_stale_deadline() -> Duration {
    let secs = std::env::var("EVA_CLAIM_STALE_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(CLAIM_STALE_SECS_DEFAULT);
    Duration::from_secs(secs)
}

/// Configuration of a federated run: total process count plus the claim
/// timing knobs.
#[derive(Debug, Clone)]
pub struct Federation {
    procs: usize,
    stale: Duration,
    poll: Duration,
}

impl Federation {
    /// A federation of `procs` total processes (coordinator included);
    /// claim staleness from the environment, default polling.
    pub fn new(procs: usize) -> Self {
        Federation {
            procs: procs.max(1),
            stale: claim_stale_deadline(),
            poll: POLL_DEFAULT,
        }
    }

    /// Overrides the claim staleness deadline (tests use short ones).
    pub fn stale(mut self, stale: Duration) -> Self {
        self.stale = stale;
        self
    }

    /// Total processes in the federation.
    pub fn procs(&self) -> usize {
        self.procs
    }

    /// The claim staleness deadline in force.
    pub fn stale_deadline(&self) -> Duration {
        self.stale
    }

    /// Both timing knobs bundled for [`crate::CellPool::run_federated`].
    pub fn claim_timing(&self) -> crate::pool::ClaimTiming {
        crate::pool::ClaimTiming {
            stale: self.stale,
            poll: self.poll,
        }
    }

    /// Spawns the `procs - 1` worker processes, once. Workers re-execute
    /// this binary with the same argv and `EVA_FED_ROLE=worker`; their
    /// stdout is discarded — the coordinator prints the merged result.
    /// Inside a worker this is a no-op, so shared run paths can call it
    /// unconditionally. Spawn failures warn and degrade: the coordinator
    /// alone still completes the grid.
    pub fn ensure_workers(&self) {
        if self.procs <= 1 || worker_role() {
            return;
        }
        let mut workers = WORKERS.lock().unwrap();
        if !workers.is_empty() {
            return;
        }
        let exe = match std::env::current_exe() {
            Ok(exe) => exe,
            Err(e) => {
                eprintln!("warning: cannot resolve own binary for federation workers: {e}");
                return;
            }
        };
        let args: Vec<String> = std::env::args().skip(1).collect();
        for n in 1..self.procs {
            match Command::new(&exe)
                .args(&args)
                .env(ROLE_ENV, "worker")
                .stdout(Stdio::null())
                .spawn()
            {
                Ok(child) => workers.push(child),
                Err(e) => eprintln!("warning: federation worker {n} failed to spawn: {e}"),
            }
        }
    }
}

/// Waits for every spawned federation worker to exit. The coordinator
/// calls this after its merge: results never depend on workers (phase 2
/// steals anything a dead peer left), but exiting before children would
/// orphan them mid-cell. A no-op when nothing was spawned.
pub fn join_workers() {
    let mut workers = WORKERS.lock().unwrap();
    for mut child in workers.drain(..) {
        match child.wait() {
            Ok(status) if !status.success() => {
                eprintln!("warning: federation worker exited with {status}");
            }
            Ok(_) => {}
            Err(e) => eprintln!("warning: federation worker not joinable: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn role_defaults_to_coordinator() {
        // The test runner never sets the role variable.
        assert!(!worker_role());
    }

    #[test]
    fn single_proc_federation_spawns_nothing() {
        let fed = Federation::new(1);
        fed.ensure_workers();
        assert!(WORKERS.lock().unwrap().is_empty());
        join_workers();
    }

    #[test]
    fn procs_clamp_to_at_least_one() {
        assert_eq!(Federation::new(0).procs(), 1);
        assert_eq!(Federation::new(3).procs(), 3);
    }

    #[test]
    fn stale_deadline_zero_means_immediate_steal() {
        // Operators drain a wedged federation with
        // `EVA_CLAIM_STALE_SECS=0`: every peer claim is immediately
        // stale, so any process may steal and re-run the cell.
        std::env::set_var("EVA_CLAIM_STALE_SECS", "0");
        let deadline = claim_stale_deadline();
        let fed = Federation::new(2);
        std::env::remove_var("EVA_CLAIM_STALE_SECS");
        assert_eq!(deadline, Duration::ZERO);
        assert_eq!(fed.stale_deadline(), Duration::ZERO);
        assert_eq!(fed.claim_timing().stale, Duration::ZERO);
        // Unset (or garbage) falls back to the 600 s default.
        assert_eq!(
            claim_stale_deadline(),
            Duration::from_secs(CLAIM_STALE_SECS_DEFAULT)
        );
    }
}
