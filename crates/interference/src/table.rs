//! The co-location throughput table (§4.3).
//!
//! Both maps hash with [`IdBuildHasher`], which does not resist workload
//! kinds chosen to collide — the trade `ClusterView` made in PR 22.

use std::cell::RefCell;
use std::collections::HashMap;

use eva_types::{IdBuildHasher, WorkloadKind};

thread_local! {
    /// Scratch for the key of a lookup.
    static LOOKUP_KEY: RefCell<Vec<WorkloadKind>> = const { RefCell::new(Vec::new()) };
}

/// Writes the key of the group entry for `task` among `others` into `key`:
/// the task, then the others sorted, since their order is irrelevant.
fn fill_key(key: &mut Vec<WorkloadKind>, task: WorkloadKind, others: &[WorkloadKind]) {
    key.clear();
    key.push(task);
    key.extend_from_slice(others);
    key[1..].sort_unstable();
}

/// The co-location throughput table.
///
/// Lookups fall back from exact recorded groups, to products of recorded
/// pairwise entries, to the default `t` for never-seen pairs. Recording an
/// observation stores the exact group entry and, for pairs, the pairwise
/// entry used by the product estimator.
///
/// # Examples
///
/// ```
/// use eva_interference::ThroughputTable;
/// use eva_types::WorkloadKind;
///
/// let (a, b, c) = (WorkloadKind(0), WorkloadKind(1), WorkloadKind(2));
/// let mut table = ThroughputTable::new(0.95);
/// // Nothing recorded: pairwise default applies multiplicatively.
/// assert!((table.estimate(a, &[b, c]) - 0.95 * 0.95).abs() < 1e-12);
/// table.record(a, &[b], 0.9);
/// assert!((table.estimate(a, &[b, c]) - 0.9 * 0.95).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct ThroughputTable {
    default_tput: f64,
    /// By [`fill_key`]'s keys, which a lookup can borrow from scratch.
    /// Probed, never iterated, like `pairwise`.
    exact: HashMap<Vec<WorkloadKind>, f64, IdBuildHasher>,
    pairwise: HashMap<(WorkloadKind, WorkloadKind), f64, IdBuildHasher>,
    /// Bit `others.len().min(63)` is set when `exact` holds such a group.
    sizes: u64,
}

impl ThroughputTable {
    /// Builds an empty table with the given default pairwise throughput
    /// (`t` in the paper; 0.95 in all experiments).
    pub fn new(default_tput: f64) -> Self {
        ThroughputTable {
            default_tput: default_tput.clamp(0.0, 1.0),
            exact: HashMap::default(),
            pairwise: HashMap::default(),
            sizes: 0,
        }
    }

    /// Number of recorded exact group entries.
    pub fn len(&self) -> usize {
        self.exact.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.exact.is_empty()
    }

    /// Exact recorded throughput for a group, if the group was observed.
    pub fn recorded(&self, task: WorkloadKind, others: &[WorkloadKind]) -> Option<f64> {
        if others.is_empty() {
            return Some(1.0);
        }
        if self.sizes & (1 << others.len().min(63)) == 0 {
            return None;
        }
        LOOKUP_KEY.with_borrow_mut(|key| {
            fill_key(key, task, others);
            self.exact.get(key.as_slice()).copied()
        })
    }

    /// Recorded pairwise throughput, if observed.
    pub fn recorded_pairwise(&self, task: WorkloadKind, other: WorkloadKind) -> Option<f64> {
        self.pairwise.get(&(task, other)).copied()
    }

    /// Pairwise throughput with the default fallback.
    pub fn pairwise_or_default(&self, task: WorkloadKind, other: WorkloadKind) -> f64 {
        self.recorded_pairwise(task, other)
            .unwrap_or(self.default_tput)
    }

    /// The scheduler-facing estimate `tput(τ, T)`:
    ///
    /// 1. a task running alone has throughput 1.0;
    /// 2. a previously observed group returns its recorded value;
    /// 3. otherwise the product of pairwise throughputs, defaulting unknown
    ///    pairs to `t`.
    pub fn estimate(&self, task: WorkloadKind, others: &[WorkloadKind]) -> f64 {
        match others {
            [] => 1.0,
            // `record` and `clear` keep `pairwise` equal to `exact` on pairs.
            [other] => self.pairwise_or_default(task, *other),
            _ => self.recorded(task, others).unwrap_or_else(|| {
                let pairs = others.iter().map(|o| self.pairwise_or_default(task, *o));
                pairs.product::<f64>().clamp(0.0, 1.0)
            }),
        }
    }

    /// Records an observed throughput for a group. Pair observations also
    /// update the pairwise estimator. Values are clamped to `[0, 1]`.
    pub fn record(&mut self, task: WorkloadKind, others: &[WorkloadKind], tput: f64) {
        if others.is_empty() || !tput.is_finite() {
            // Solo throughput is 1.0 by definition of normalization, and a
            // NaN would pass through `clamp` into every estimate over the
            // group: nothing to learn from either.
            return;
        }
        let tput = tput.clamp(0.0, 1.0);
        if let [other] = others {
            self.pairwise.insert((task, *other), tput);
        }
        let mut key = Vec::new();
        fill_key(&mut key, task, others);
        self.exact.insert(key, tput);
        self.sizes |= 1 << others.len().min(63);
    }

    /// Removes every recorded entry (used by tests and ablations).
    pub fn clear(&mut self) {
        self.exact.clear();
        self.pairwise.clear();
        self.sizes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: WorkloadKind = WorkloadKind(0);
    const B: WorkloadKind = WorkloadKind(1);
    const C: WorkloadKind = WorkloadKind(2);

    #[test]
    fn solo_tasks_have_unit_throughput() {
        let table = ThroughputTable::new(0.95);
        assert_eq!(table.estimate(A, &[]), 1.0);
        assert_eq!(table.recorded(A, &[]), Some(1.0));
    }

    #[test]
    fn unknown_pairs_use_default() {
        let table = ThroughputTable::new(0.9);
        assert_eq!(table.estimate(A, &[B]), 0.9);
        assert!((table.estimate(A, &[B, C]) - 0.81).abs() < 1e-12);
    }

    #[test]
    fn exact_entries_win_over_products() {
        let mut table = ThroughputTable::new(0.95);
        table.record(A, &[B], 0.8);
        table.record(A, &[C], 0.9);
        // Exact group entry beats 0.8 × 0.9.
        table.record(A, &[B, C], 0.85);
        assert_eq!(table.estimate(A, &[B, C]), 0.85);
        assert_eq!(table.estimate(A, &[C, B]), 0.85);
    }

    #[test]
    fn pairwise_products_compose() {
        let mut table = ThroughputTable::new(0.95);
        table.record(A, &[B], 0.8);
        // A with {B, C}: recorded pair 0.8 × default 0.95.
        assert!((table.estimate(A, &[B, C]) - 0.76).abs() < 1e-12);
    }

    #[test]
    fn records_are_directional() {
        let mut table = ThroughputTable::new(0.95);
        table.record(A, &[B], 0.7);
        assert_eq!(table.recorded_pairwise(A, B), Some(0.7));
        assert_eq!(table.recorded_pairwise(B, A), None);
        assert_eq!(table.estimate(B, &[A]), 0.95);
    }

    #[test]
    fn key_is_order_insensitive_multiset() {
        let mut table = ThroughputTable::new(0.95);
        table.record(A, &[C, B, B], 0.5);
        assert_eq!(table.recorded(A, &[B, C, B]), Some(0.5));
        assert_eq!(table.recorded(A, &[B, C]), None); // Multiplicity matters.
        assert_eq!(table.recorded(B, &[A, B, C]), None); // So does whose entry it is.
    }

    #[test]
    fn values_clamp_to_unit_interval() {
        let mut table = ThroughputTable::new(0.95);
        table.record(A, &[B], 1.7);
        assert_eq!(table.estimate(A, &[B]), 1.0);
        table.record(A, &[B], -0.5);
        assert_eq!(table.estimate(A, &[B]), 0.0);
    }

    #[test]
    fn solo_observations_are_ignored() {
        let mut table = ThroughputTable::new(0.95);
        table.record(A, &[], 0.5);
        assert!(table.is_empty());
        assert_eq!(table.estimate(A, &[]), 1.0);
    }

    #[test]
    fn clear_resets() {
        let mut table = ThroughputTable::new(0.95);
        table.record(A, &[B], 0.8);
        assert_eq!(table.len(), 1);
        table.clear();
        assert!(table.is_empty());
        assert_eq!(table.estimate(A, &[B]), 0.95);
    }
}
