//! `EvaIterator`: the progress-counting iteration wrapper (§5).
//!
//! User tasks loop over an `EvaIterator`, which counts iterations into a
//! shared control block the worker reads, and carries the cooperative
//! control signals the worker uses to checkpoint or stop a task without
//! killing it mid-iteration. This mirrors the paper's "lightweight
//! iterator API to monitor job throughput, requiring minimal code changes
//! on the user side".

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Shared control block between a running task and its worker.
#[derive(Debug)]
pub struct IteratorControl {
    stop: AtomicBool,
    checkpoint: AtomicBool,
    /// Iteration at which the task checkpoints itself (`u64::MAX` = never).
    checkpoint_at: AtomicU64,
    iterations: AtomicU64,
}

impl Default for IteratorControl {
    fn default() -> Self {
        IteratorControl {
            stop: AtomicBool::new(false),
            checkpoint: AtomicBool::new(false),
            checkpoint_at: AtomicU64::new(u64::MAX),
            iterations: AtomicU64::new(0),
        }
    }
}

impl IteratorControl {
    /// Creates a control block.
    pub fn new() -> Arc<Self> {
        Arc::new(IteratorControl::default())
    }

    /// Requests a cooperative stop (the iterator's `next` returns `None`).
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Requests a checkpoint at the next iteration boundary.
    pub fn request_checkpoint(&self) {
        self.checkpoint.store(true, Ordering::SeqCst);
    }

    /// Schedules a checkpoint at an exact iteration position: the task
    /// checkpoints itself upon reaching `iteration` instead of being
    /// interrupted at an arbitrary real-time instant, which makes the
    /// checkpointed position — and hence the blob — deterministic.
    pub fn request_checkpoint_at(&self, iteration: u64) {
        self.checkpoint_at.store(iteration, Ordering::SeqCst);
    }

    /// True when a checkpoint is due: either requested cooperatively or
    /// the scheduled position has been reached.
    fn checkpoint_due(&self) -> bool {
        self.checkpoint.load(Ordering::SeqCst)
            || self.iterations.load(Ordering::SeqCst) >= self.checkpoint_at.load(Ordering::SeqCst)
    }

    /// Total iterations completed so far.
    pub fn iterations(&self) -> u64 {
        self.iterations.load(Ordering::SeqCst)
    }
}

/// Iteration counting plus cooperative control.
///
/// # Examples
///
/// ```
/// use eva_exec::{EvaIterator, IteratorControl};
///
/// let control = IteratorControl::new();
/// let mut it = EvaIterator::new(0..100u32, control.clone());
/// let mut sum = 0;
/// while let Some(x) = it.next_item() {
///     sum += x;
/// }
/// assert_eq!(sum, 4950);
/// assert_eq!(control.iterations(), 100);
/// ```
pub struct EvaIterator<I> {
    inner: I,
    control: Arc<IteratorControl>,
}

impl<I: Iterator> EvaIterator<I> {
    /// Wraps an iterator.
    pub fn new(inner: I, control: Arc<IteratorControl>) -> Self {
        EvaIterator { inner, control }
    }

    /// Restores the iterator to a checkpointed position by skipping
    /// already-processed items.
    pub fn resume_from(mut self, position: u64) -> Self {
        for _ in 0..position {
            if self.inner.next().is_none() {
                break;
            }
        }
        self.control.iterations.store(position, Ordering::SeqCst);
        self
    }

    /// The next work item, or `None` on exhaustion, stop request, or a
    /// due checkpoint (requested cooperatively or scheduled by position).
    pub fn next_item(&mut self) -> Option<I::Item> {
        if self.control.stop.load(Ordering::SeqCst) || self.control.checkpoint_due() {
            return None;
        }
        let item = self.inner.next()?;
        self.control.iterations.fetch_add(1, Ordering::SeqCst);
        Some(item)
    }

    /// Whether a checkpoint is due (and `next_item` stopped).
    pub fn checkpoint_pending(&self) -> bool {
        self.control.checkpoint_due()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iterates_and_counts() {
        let control = IteratorControl::new();
        let mut it = EvaIterator::new(0..10u32, control.clone());
        let mut n = 0;
        while it.next_item().is_some() {
            n += 1;
        }
        assert_eq!(n, 10);
        assert_eq!(control.iterations(), 10);
    }

    #[test]
    fn stop_request_halts_iteration() {
        let control = IteratorControl::new();
        let mut it = EvaIterator::new(0..1000u32, control.clone());
        for _ in 0..5 {
            it.next_item();
        }
        control.request_stop();
        assert!(it.next_item().is_none());
        assert_eq!(control.iterations(), 5);
    }

    #[test]
    fn checkpoint_request_pauses_at_boundary() {
        let control = IteratorControl::new();
        let mut it = EvaIterator::new(0..1000u32, control.clone());
        for _ in 0..7 {
            it.next_item();
        }
        control.request_checkpoint();
        assert!(it.next_item().is_none());
        assert!(it.checkpoint_pending());
        assert_eq!(control.iterations(), 7);
    }

    #[test]
    fn scheduled_checkpoint_stops_at_exact_position() {
        let control = IteratorControl::new();
        control.request_checkpoint_at(13);
        let mut it = EvaIterator::new(0..1000u32, control.clone());
        let mut n = 0;
        while it.next_item().is_some() {
            n += 1;
        }
        assert_eq!(n, 13, "runs to the bound, never past it");
        assert!(it.checkpoint_pending());
        assert_eq!(control.iterations(), 13);
    }

    #[test]
    fn resume_skips_processed_items() {
        let control = IteratorControl::new();
        let mut it = EvaIterator::new(0..10u32, control.clone()).resume_from(6);
        assert_eq!(it.next_item(), Some(6));
        let mut rest = 1;
        while it.next_item().is_some() {
            rest += 1;
        }
        assert_eq!(rest, 4);
        assert_eq!(control.iterations(), 10);
    }

    #[test]
    fn resume_past_end_is_safe() {
        let control = IteratorControl::new();
        let mut it = EvaIterator::new(0..3u32, control).resume_from(100);
        assert!(it.next_item().is_none());
    }
}
