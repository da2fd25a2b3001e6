//! The generic parallel cell executor behind every sweep.
//!
//! `CellPool` is the machinery under [`crate::SweepRunner`]: given `n`
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

use serde::{Deserialize, Serialize};

use crate::cache::ReportCache;

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
}

impl PoolStats {
    /// True when every representative came from the cache (a fully warm
    /// rerun — the CI cache check asserts this).
    pub fn all_cached(&self) -> bool {
        self.unique > 0 && self.executed == 0
    }

    /// One-line human summary, e.g. `5 unique of 8 cells: 2 simulated, 3 cached`.
    pub fn summary(&self) -> String {
        format!(
            "{} unique of {} cells: {} simulated, {} cached",
            self.unique, self.total, self.executed, self.cache_hits
        )
    }
}

/// The deduplicated execution schedule of a cell set: which index
/// represents each cell, and the representative execution order
/// (longest first, index-tiebroken — fully deterministic).
#[derive(Debug, Clone)]
pub(crate) struct RunPlan {
    /// For every cell index, the index of its representative.
    pub(crate) rep_of: Vec<usize>,
    /// Representative indices in execution order.
    pub(crate) order: Vec<usize>,
    /// Memoized fingerprint of every cell. The fingerprint closure runs
    /// exactly once per cell — dedup and every later cache lookup reuse
    /// these strings instead of re-deriving them.
    pub(crate) keys: Vec<String>,
}

impl RunPlan {
    /// Builds the plan from per-cell fingerprint and cost functions.
    /// `fingerprint` is invoked once per cell; the strings are kept on
    /// the plan ([`RunPlan::keys`]) for cache keying.
    pub(crate) fn build(
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
        RunPlan {
            rep_of,
            order,
            keys,
        }
    }

    /// Cells that actually execute after deduplication.
    pub(crate) fn unique_count(&self) -> usize {
        self.order.len()
    }
}

/// Multi-threaded, deduplicating, cache-backed executor for generic
/// cells.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CellPool {
    threads: usize,
}

impl CellPool {
    /// A pool over `threads` workers; 0 selects the machine's available
    /// parallelism.
    pub(crate) fn new(threads: usize) -> Self {
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
    pub(crate) fn threads(&self) -> usize {
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
    pub(crate) fn run<R>(
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
        let plan = RunPlan::build(count, fingerprint, cost);
        let executed = AtomicUsize::new(0);
        let cache_hits = AtomicUsize::new(0);

        // Representative `i`: from the cache when it holds `i`, otherwise
        // computed (and stored).
        let settle = |i: usize| -> R {
            let key = &plan.keys[i];
            if let Some(hit) = cache.and_then(|cache| cache.lookup::<R>(key)) {
                cache_hits.fetch_add(1, Ordering::Relaxed);
                return hit;
            }
            executed.fetch_add(1, Ordering::Relaxed);
            let fresh = run(i);
            if let Some(cache) = cache {
                cache.store(key, &fresh);
            }
            fresh
        };

        // Every representative once, longest first, on the pool's threads.
        let slots: Vec<Mutex<Option<R>>> = (0..count).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let workers = self.threads.min(plan.order.len()).max(1);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&i) = plan.order.get(k) else {
                        break;
                    };
                    *slots[i].lock().unwrap() = Some(settle(i));
                });
            }
        });
        let representatives: Vec<Option<R>> = slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("no worker panicked holding a slot lock")
            })
            .collect();

        let results: Vec<R> = plan
            .rep_of
            .iter()
            .map(|&rep| {
                representatives[rep]
                    .clone()
                    .expect("every representative cell was claimed and completed")
            })
            .collect();
        let stats = PoolStats {
            total: count,
            unique: plan.unique_count(),
            executed: executed.into_inner(),
            cache_hits: cache_hits.into_inner(),
        };
        (results, stats)
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
            let (results, stats) =
                CellPool::new(threads).run(10, &ident, &|i| i as u64, None, &|i| i * i);
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
        let (results, stats) =
            CellPool::new(4).run(6, &|i| format!("group-{}", i % 2), &|_| 1, None, &|i| {
                runs.fetch_add(1, Ordering::Relaxed);
                i % 2
            });
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
    fn warm_duplicates_fan_out_from_one_cache_hit() {
        let dir = std::env::temp_dir().join(format!("eva-pool-flag-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ReportCache::new(&dir);
        // Two logical cells share one fingerprint: 4 cells, 2 unique.
        let fp = |i: usize| format!("group-{}", i % 2);
        let run = |i: usize| (i % 2) as u64;
        let pool = CellPool::new(2);
        let (_, cold) = pool.run(4, &fp, &|_| 1, Some(&cache), &run);
        assert_eq!((cold.unique, cold.executed, cold.cache_hits), (2, 2, 0));
        let (warm_results, warm) = pool.run(4, &fp, &|_| 1, Some(&cache), &run);
        assert_eq!(
            warm_results,
            vec![0, 1, 0, 1],
            "warm duplicates inherit the hit"
        );
        assert_eq!((warm.unique, warm.executed, warm.cache_hits), (2, 0, 2));
        assert!(warm.all_cached());
        // Without a cache nothing can be a replay.
        let (_, uncached) = pool.run(4, &fp, &|_| 1, None, &run);
        assert_eq!(uncached.cache_hits, 0);
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
        assert_eq!(
            calls.into_inner(),
            6,
            "fingerprint runs exactly once per cell"
        );
        assert_eq!(plan.keys.len(), 6);
        assert_eq!(plan.keys[0], "group-0");
        assert_eq!(plan.keys[plan.rep_of[2]], plan.keys[2]);
    }
}
