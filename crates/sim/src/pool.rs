//! The generic parallel cell executor behind every sweep.
//!
//! [`CellPool`] is the machinery [`crate::SweepRunner`] and the
//! solver-level micro-benchmark sweeps in `eva-bench` share: given `n`
//! logical cells described by closures, it
//!
//! 1. **deduplicates** cells whose fingerprint matches (the first
//!    occurrence becomes the representative; its result fans out),
//! 2. consults the optional persistent [`ReportCache`] per
//!    representative — hits skip execution entirely,
//! 3. claims the remaining representatives **longest-first** from a
//!    shared atomic cursor across scoped worker threads, and
//! 4. merges results back **in logical cell order**, so the output — and
//!    any JSON derived from it — is byte-identical for any thread count
//!    and any cache state.
//!
//! Determinism requires the usual sweep contract: a cell's result must be
//! a pure function of its fingerprint (all randomness seeded from the
//! cell's own configuration).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::cache::{ClaimAttempt, ReportCache};

/// The two timing knobs of a federated run: when a peer's claim counts
/// as stale (stealable), and how often to re-poll the cache while
/// waiting on a live peer.
#[derive(Debug, Clone, Copy)]
pub struct ClaimTiming {
    pub stale: Duration,
    pub poll: Duration,
}

/// What a pool run did: logical cells, unique representatives, and how
/// many representatives were actually executed vs served from the cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PoolStats {
    /// Logical cells requested.
    pub total: usize,
    /// Representatives after deduplication.
    pub unique: usize,
    /// Representatives actually computed this run.
    pub executed: usize,
    /// Representatives served from the persistent cache.
    pub cache_hits: usize,
    /// Representatives published by a peer process during a federated
    /// run (they were missing when this process planned, and appeared in
    /// the cache while it executed). Always 0 outside federation.
    pub peer: usize,
}

impl PoolStats {
    /// True when every representative came from the cache (a fully warm
    /// rerun — the CI cache check asserts this).
    pub fn all_cached(&self) -> bool {
        self.unique > 0 && self.executed == 0
    }

    /// One-line human summary, e.g. `5 unique of 8 cells: 2 simulated, 3 cached`
    /// (federated runs append `, N from peers`).
    pub fn summary(&self) -> String {
        let mut line = format!(
            "{} unique of {} cells: {} simulated, {} cached",
            self.unique, self.total, self.executed, self.cache_hits
        );
        if self.peer > 0 {
            line.push_str(&format!(", {} from peers", self.peer));
        }
        line
    }
}

/// The deduplicated execution schedule of a cell set: which index
/// represents each cell, and the representative execution order
/// (longest first, index-tiebroken — fully deterministic).
#[derive(Debug, Clone)]
pub struct RunPlan {
    /// For every cell index, the index of its representative.
    pub rep_of: Vec<usize>,
    /// Representative indices in execution order.
    pub order: Vec<usize>,
    /// Memoized fingerprint of every cell. The fingerprint closure runs
    /// exactly once per cell — dedup and every later cache lookup reuse
    /// these strings instead of re-deriving them.
    pub keys: Vec<String>,
}

impl RunPlan {
    /// Builds the plan from per-cell fingerprint and cost functions.
    /// `fingerprint` is invoked once per cell; the strings are kept on
    /// the plan ([`RunPlan::keys`]) for cache keying.
    pub fn build(
        count: usize,
        fingerprint: &(dyn Fn(usize) -> String + Sync),
        cost: &(dyn Fn(usize) -> u64 + Sync),
    ) -> RunPlan {
        let keys: Vec<String> = (0..count).map(fingerprint).collect();
        let mut first: BTreeMap<&str, usize> = BTreeMap::new();
        let mut rep_of = Vec::with_capacity(count);
        for (i, key) in keys.iter().enumerate() {
            rep_of.push(*first.entry(key.as_str()).or_insert(i));
        }
        let mut order: Vec<usize> = first.into_values().collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(cost(i)), i));
        RunPlan { rep_of, order, keys }
    }

    /// Cells that actually execute after deduplication.
    pub fn unique_count(&self) -> usize {
        self.order.len()
    }
}

/// Multi-threaded, deduplicating, cache-backed executor for generic
/// cells.
#[derive(Debug, Clone, Copy)]
pub struct CellPool {
    threads: usize,
}

impl CellPool {
    /// A pool over `threads` workers; 0 selects the machine's available
    /// parallelism.
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            threads
        };
        CellPool { threads }
    }

    /// The worker count this pool resolved to.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `count` cells and returns their results in cell order plus
    /// execution stats.
    ///
    /// * `fingerprint(i)` — the cell's work identity: equal fingerprints
    ///   mean byte-identical results, so only the first runs.
    /// * `cost(i)` — relative runtime estimate for longest-first claiming.
    /// * `cache` — optional persistent store consulted (and fed) per
    ///   representative, keyed by the fingerprint. The fingerprint must
    ///   therefore be **content-based** (stable across processes and
    ///   experiments), not positional.
    /// * `run(i)` — computes the cell; must be a pure function of the
    ///   fingerprint.
    pub fn run<R>(
        &self,
        count: usize,
        fingerprint: &(dyn Fn(usize) -> String + Sync),
        cost: &(dyn Fn(usize) -> u64 + Sync),
        cache: Option<&ReportCache>,
        run: &(dyn Fn(usize) -> R + Sync),
    ) -> (Vec<R>, PoolStats)
    where
        R: Clone + Send + Serialize + Deserialize,
    {
        let (results, _, stats) = self.run_flagged(count, fingerprint, cost, cache, run);
        (results, stats)
    }

    /// [`CellPool::run`], additionally reporting **per logical cell**
    /// whether its value was replayed from the persistent cache rather
    /// than computed this run (duplicates inherit their representative's
    /// flag). Timing-sensitive sweeps use this to stamp replayed rows in
    /// their artifacts, so downstream consumers can tell a stored
    /// measurement from a fresh one.
    pub fn run_flagged<R>(
        &self,
        count: usize,
        fingerprint: &(dyn Fn(usize) -> String + Sync),
        cost: &(dyn Fn(usize) -> u64 + Sync),
        cache: Option<&ReportCache>,
        run: &(dyn Fn(usize) -> R + Sync),
    ) -> (Vec<R>, Vec<bool>, PoolStats)
    where
        R: Clone + Send + Serialize + Deserialize,
    {
        self.sweep(count, fingerprint, cost, cache, None, run)
    }

    /// [`CellPool::run_flagged`] for a **federated** run: several
    /// processes share one cache dir and divide the representatives
    /// between them by claiming (see [`ReportCache::try_claim`]).
    ///
    /// Phase 1 sweeps the longest-first order on this pool's threads:
    /// cached representatives hit as usual, unclaimed ones are claimed,
    /// executed, published, and released; representatives claimed by a
    /// peer are left pending. Phase 2 settles the pending ones — each is
    /// either published by its peer (a `peer` hit) or its claim goes
    /// stale/dead and this process steals and runs it, so a killed
    /// worker never wedges the run.
    ///
    /// The merged output is **byte-identical** to [`CellPool::run_flagged`]
    /// with the same cache for any process count: results come from the
    /// cache's deterministic serialization either way, and merging in
    /// logical cell order erases scheduling entirely. Per-cell flags
    /// report `true` for everything this process did not compute
    /// (cache + peer).
    pub fn run_federated<R>(
        &self,
        count: usize,
        fingerprint: &(dyn Fn(usize) -> String + Sync),
        cost: &(dyn Fn(usize) -> u64 + Sync),
        cache: &ReportCache,
        timing: ClaimTiming,
        run: &(dyn Fn(usize) -> R + Sync),
    ) -> (Vec<R>, Vec<bool>, PoolStats)
    where
        R: Clone + Send + Serialize + Deserialize,
    {
        self.sweep(count, fingerprint, cost, Some(cache), Some(timing), run)
    }

    /// The one pool loop behind every entry point; `claims` is `Some`
    /// when peers share the cache dir.
    fn sweep<R>(
        &self,
        count: usize,
        fingerprint: &(dyn Fn(usize) -> String + Sync),
        cost: &(dyn Fn(usize) -> u64 + Sync),
        cache: Option<&ReportCache>,
        claims: Option<ClaimTiming>,
        run: &(dyn Fn(usize) -> R + Sync),
    ) -> (Vec<R>, Vec<bool>, PoolStats)
    where
        R: Clone + Send + Serialize + Deserialize,
    {
        let plan = RunPlan::build(count, fingerprint, cost);
        let executed = AtomicUsize::new(0);
        let cache_hits = AtomicUsize::new(0);
        let peer = AtomicUsize::new(0);

        // One attempt at representative `i`, as `(result, replayed)`;
        // `None` when a live peer holds its claim. A first-lookup hit
        // counts into `hits`.
        let settle = |i: usize, hits: &AtomicUsize| -> Option<(R, bool)> {
            let key = &plan.keys[i];
            let compute = || {
                executed.fetch_add(1, Ordering::Relaxed);
                let fresh = run(i);
                if let Some(cache) = cache {
                    cache.store(key, &fresh);
                }
                (fresh, false)
            };
            let Some(cache) = cache else {
                return Some(compute());
            };
            if let Some(hit) = cache.lookup::<R>(key) {
                hits.fetch_add(1, Ordering::Relaxed);
                return Some((hit, true));
            }
            let Some(timing) = claims else {
                return Some(compute());
            };
            match cache.try_claim(key, timing.stale) {
                ClaimAttempt::Acquired(guard) => {
                    // A peer may have published between the miss and
                    // the claim; don't redo its work.
                    cache.refresh();
                    let result = match cache.lookup::<R>(key) {
                        Some(hit) => {
                            peer.fetch_add(1, Ordering::Relaxed);
                            (hit, true)
                        }
                        None => compute(),
                    };
                    guard.release();
                    Some(result)
                }
                ClaimAttempt::Held(_) => None,
            }
        };

        // Phase 1: every representative once, longest first, on the
        // pool's threads.
        let slots: Vec<Mutex<Option<(R, bool)>>> = (0..count).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let workers = self.threads.min(plan.order.len()).max(1);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&i) = plan.order.get(k) else {
                        break;
                    };
                    if let Some(result) = settle(i, &cache_hits) {
                        *slots[i].lock().unwrap() = Some(result);
                    }
                });
            }
        });
        let mut representatives: Vec<Option<(R, bool)>> = slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("no worker panicked holding a slot lock")
            })
            .collect();

        // Phase 2: wait out (or steal) the representatives peers held.
        if let Some(timing) = claims {
            for &i in &plan.order {
                while representatives[i].is_none() {
                    match settle(i, &peer) {
                        None => std::thread::sleep(timing.poll),
                        settled => representatives[i] = settled,
                    }
                }
            }
        }

        let (results, from_cache): (Vec<R>, Vec<bool>) = plan
            .rep_of
            .iter()
            .map(|&rep| {
                let (result, cached) = representatives[rep]
                    .as_ref()
                    .expect("every representative cell was claimed and completed");
                (result.clone(), *cached)
            })
            .unzip();
        let stats = PoolStats {
            total: count,
            unique: plan.unique_count(),
            executed: executed.into_inner(),
            cache_hits: cache_hits.into_inner(),
            peer: peer.into_inner(),
        };
        (results, from_cache, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ident(i: usize) -> String {
        format!("cell-{i}")
    }

    #[test]
    fn results_land_in_cell_order_for_any_thread_count() {
        for threads in [1, 4, 32] {
            let (results, stats) = CellPool::new(threads).run(
                10,
                &ident,
                &|i| i as u64,
                None,
                &|i| i * i,
            );
            assert_eq!(results, (0..10).map(|i| i * i).collect::<Vec<_>>());
            assert_eq!(stats.total, 10);
            assert_eq!(stats.unique, 10);
            assert_eq!(stats.executed, 10);
            assert_eq!(stats.cache_hits, 0);
        }
    }

    #[test]
    fn duplicate_fingerprints_run_once_and_fan_out() {
        let runs = AtomicUsize::new(0);
        let (results, stats) = CellPool::new(4).run(
            6,
            &|i| format!("group-{}", i % 2),
            &|_| 1,
            None,
            &|i| {
                runs.fetch_add(1, Ordering::Relaxed);
                i % 2
            },
        );
        assert_eq!(results, vec![0, 1, 0, 1, 0, 1]);
        assert_eq!(stats.unique, 2);
        assert_eq!(stats.executed, 2);
        assert_eq!(runs.into_inner(), 2);
    }

    #[test]
    fn cache_serves_second_run_without_executing() {
        let dir = std::env::temp_dir().join(format!("eva-pool-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ReportCache::new(&dir);
        let run = |i: usize| (i as u64) * 10;
        let (first, s1) = CellPool::new(2).run(4, &ident, &|_| 1, Some(&cache), &run);
        assert_eq!(s1.executed, 4);
        assert_eq!(s1.cache_hits, 0);
        assert!(!s1.all_cached());
        let (second, s2) = CellPool::new(2).run(4, &ident, &|_| 1, Some(&cache), &run);
        assert_eq!(first, second);
        assert_eq!(s2.executed, 0);
        assert_eq!(s2.cache_hits, 4);
        assert!(s2.all_cached());
        assert!(s2.summary().contains("0 simulated"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flags_mark_cached_cells_and_fan_out_to_duplicates() {
        let dir = std::env::temp_dir().join(format!("eva-pool-flag-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ReportCache::new(&dir);
        // Two logical cells share one fingerprint: 4 cells, 2 unique.
        let fp = |i: usize| format!("group-{}", i % 2);
        let run = |i: usize| (i % 2) as u64;
        let pool = CellPool::new(2);
        let (_, flags, _) = pool.run_flagged(4, &fp, &|_| 1, Some(&cache), &run);
        assert_eq!(flags, vec![false; 4], "cold run computes everything");
        let (_, flags, stats) = pool.run_flagged(4, &fp, &|_| 1, Some(&cache), &run);
        assert_eq!(flags, vec![true; 4], "warm duplicates inherit the hit");
        assert!(stats.all_cached());
        // Without a cache nothing can be a replay.
        let (_, flags, _) = pool.run_flagged(4, &fp, &|_| 1, None, &run);
        assert_eq!(flags, vec![false; 4]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn plan_orders_longest_first_with_index_ties() {
        let plan = RunPlan::build(4, &ident, &|i| [5, 9, 5, 1][i]);
        assert_eq!(plan.order, vec![1, 0, 2, 3]);
        assert_eq!(plan.unique_count(), 4);
    }

    #[test]
    fn zero_cells_is_fine() {
        let (results, stats) = CellPool::new(4).run(0, &ident, &|_| 1, None, &|i| i);
        assert!(results.is_empty());
        assert_eq!(stats.total, 0);
        assert!(!stats.all_cached(), "no cells ≠ fully cached");
    }

    #[test]
    fn plan_memoizes_one_fingerprint_per_cell() {
        let calls = AtomicUsize::new(0);
        let plan = RunPlan::build(
            6,
            &|i| {
                calls.fetch_add(1, Ordering::Relaxed);
                format!("group-{}", i % 2)
            },
            &|_| 1,
        );
        assert_eq!(calls.into_inner(), 6, "fingerprint runs exactly once per cell");
        assert_eq!(plan.keys.len(), 6);
        assert_eq!(plan.keys[0], "group-0");
        assert_eq!(plan.keys[plan.rep_of[2]], plan.keys[2]);
    }

    const STALE: Duration = Duration::from_secs(600);
    const TIMING: ClaimTiming = ClaimTiming {
        stale: STALE,
        poll: Duration::from_millis(5),
    };

    fn fed_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("eva-pool-fed-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn federated_alone_matches_plain_run_and_leaves_no_claims() {
        // The claiming and the non-claiming entry point run one routine:
        // alone on a cache dir they must agree on everything, cold and
        // warm, with duplicates (7 cells, 5 unique), on 1 and 4 threads.
        let fp = |i: usize| format!("cell-{}", i % 5);
        let run = |i: usize| (i % 5) as u64 * 7;
        let counters = |s: PoolStats| (s.total, s.unique, s.executed, s.cache_hits);
        for threads in [1, 4] {
            let pool = CellPool::new(threads);
            let claim_dir = fed_dir(&format!("alone-claim-{threads}"));
            let plain_dir = fed_dir(&format!("alone-plain-{threads}"));
            let (fed_cache, plain_cache) =
                (ReportCache::new(&claim_dir), ReportCache::new(&plain_dir));
            for (pass, replayed, executed) in [("cold", false, 5), ("warm", true, 0)] {
                let (fed, fed_flags, fed_stats) =
                    pool.run_federated(7, &fp, &|_| 1, &fed_cache, TIMING, &run);
                let (plain, plain_flags, plain_stats) =
                    pool.run_flagged(7, &fp, &|_| 1, Some(&plain_cache), &run);
                let at = format!("{pass} on {threads} thread(s)");
                assert_eq!((&fed, &fed_flags), (&plain, &plain_flags), "{at}");
                assert_eq!(counters(fed_stats), counters(plain_stats), "{at}");
                assert_eq!(fed, (0..7).map(run).collect::<Vec<_>>());
                assert_eq!(fed_flags, vec![replayed; 7]);
                assert_eq!(counters(fed_stats), (7, 5, executed, 5 - executed));
                assert_eq!(fed_stats.peer, 0);
                assert!(!fed_stats.summary().contains("from peers"));
                assert_eq!(fed_stats.all_cached(), replayed);
                // No claim files survive a completed run.
                let claims = std::fs::read_dir(&claim_dir)
                    .unwrap()
                    .filter_map(|e| e.ok())
                    .filter(|e| e.path().extension().is_some_and(|x| x == "claim"))
                    .count();
                assert_eq!(claims, 0);
            }
            let _ = std::fs::remove_dir_all(&claim_dir);
            let _ = std::fs::remove_dir_all(&plain_dir);
        }
    }

    #[test]
    fn federated_steals_dead_holders_claim() {
        let dir = fed_dir("steal");
        let cache = ReportCache::new(&dir);
        // A claim from a pid that cannot exist wedges nothing: the run
        // steals it and computes the cell itself.
        std::fs::create_dir_all(&dir).unwrap();
        let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "?".to_string());
        std::fs::write(
            cache.claim_path("cell-1"),
            format!("{{\"pid\":4294967295,\"host\":\"{host}\",\"ts_ms\":1,\"key\":\"cell-1\"}}"),
        )
        .unwrap();
        let (results, _, stats) =
            CellPool::new(2).run_federated(3, &ident, &|_| 1, &cache, TIMING, &|i| (i as u64) * 3);
        assert_eq!(results, vec![0, 3, 6]);
        assert_eq!(stats.executed, 3);
        assert!(cache.read_claim("cell-1").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn federated_waits_for_a_live_peer_to_publish() {
        let dir = fed_dir("peer");
        let cache = ReportCache::new(&dir);
        // A live claim (our own pid, held by the test) makes the run
        // wait; "the peer" publishes from another thread and releases.
        let guard = match cache.try_claim("cell-0", STALE) {
            crate::cache::ClaimAttempt::Acquired(g) => g,
            crate::cache::ClaimAttempt::Held(_) => panic!("fresh claim held"),
        };
        let publisher = {
            let cache = cache.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(40));
                cache.store("cell-0", &123u64);
                guard.release();
            })
        };
        let (results, flags, stats) =
            CellPool::new(2).run_federated(1, &ident, &|_| 1, &cache, TIMING, &|_| -> u64 {
                unreachable!("the peer owns this cell")
            });
        publisher.join().unwrap();
        assert_eq!(results, vec![123u64]);
        assert_eq!(flags, vec![true]);
        assert_eq!(stats.peer, 1);
        assert_eq!(stats.executed, 0);
        assert!(stats.summary().ends_with("1 from peers"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
