//! `EvaIterator`: the throughput-metering iteration wrapper (§5).
//!
//! User tasks loop over an `EvaIterator`, which counts iterations, exposes
//! the throughput achieved over the most recent window, and carries the
//! cooperative control signals the worker uses to checkpoint or stop a
//! task without killing it mid-iteration. This mirrors the paper's
//! "lightweight iterator API to monitor job throughput, requiring minimal
//! code changes on the user side".

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

    /// The scheduled checkpoint position, if any.
    pub fn checkpoint_bound(&self) -> Option<u64> {
        match self.checkpoint_at.load(Ordering::SeqCst) {
            u64::MAX => None,
            at => Some(at),
        }
    }

    /// True when a checkpoint is due: either requested cooperatively or
    /// the scheduled position has been reached.
    pub fn checkpoint_due(&self) -> bool {
        self.checkpoint.load(Ordering::SeqCst)
            || self.iterations.load(Ordering::SeqCst) >= self.checkpoint_at.load(Ordering::SeqCst)
    }

    /// Total iterations completed so far.
    pub fn iterations(&self) -> u64 {
        self.iterations.load(Ordering::SeqCst)
    }
}

/// Windowed iteration metering plus cooperative control.
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
    /// Instants of the items inside the metering window, oldest first.
    window: VecDeque<Instant>,
    window_len: Duration,
    start_position: u64,
}

impl<I: Iterator> EvaIterator<I> {
    /// Wraps an iterator with a 10-second metering window.
    pub fn new(inner: I, control: Arc<IteratorControl>) -> Self {
        EvaIterator::with_window(inner, control, Duration::from_secs(10))
    }

    /// Wraps an iterator with an explicit metering window.
    pub fn with_window(inner: I, control: Arc<IteratorControl>, window_len: Duration) -> Self {
        EvaIterator {
            inner,
            control,
            window: VecDeque::new(),
            window_len,
            start_position: 0,
        }
    }

    /// Restores the iterator to a checkpointed position by skipping
    /// already-processed items.
    pub fn resume_from(mut self, position: u64) -> Self {
        for _ in 0..position {
            if self.inner.next().is_none() {
                break;
            }
        }
        self.start_position = position;
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
        let now = Instant::now();
        self.window.push_back(now);
        // Instants arrive in order, so the expired ones are a prefix.
        let cutoff = now.checked_sub(self.window_len).unwrap_or(now);
        while self.window.front().is_some_and(|t| *t < cutoff) {
            self.window.pop_front();
        }
        Some(item)
    }

    /// Whether a checkpoint is due (and `next_item` stopped).
    pub fn checkpoint_pending(&self) -> bool {
        self.control.checkpoint_due()
    }

    /// Iterations completed in the current run (excluding restored ones).
    pub fn completed_this_run(&self) -> u64 {
        self.control
            .iterations()
            .saturating_sub(self.start_position)
    }

    /// Iterations per second over the most recent window.
    pub fn windowed_throughput(&self) -> f64 {
        let (Some(first), Some(last)) = (self.window.front(), self.window.back()) else {
            return 0.0;
        };
        let span = last.duration_since(*first).as_secs_f64();
        if span <= 0.0 {
            return 0.0;
        }
        (self.window.len() - 1) as f64 / span
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
        assert_eq!(control.checkpoint_bound(), Some(13));
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
        assert_eq!(it.completed_this_run(), 4);
    }

    #[test]
    fn resume_past_end_is_safe() {
        let control = IteratorControl::new();
        let mut it = EvaIterator::new(0..3u32, control).resume_from(100);
        assert!(it.next_item().is_none());
    }

    #[test]
    fn windowed_throughput_reflects_rate() {
        let control = IteratorControl::new();
        let mut it = EvaIterator::with_window(0..200u32, control, Duration::from_secs(5));
        for _ in 0..100 {
            it.next_item();
        }
        // 100 iterations in well under 5 s: throughput should be high.
        assert!(it.windowed_throughput() > 100.0);
    }
}
