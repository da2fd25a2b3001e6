//! The generic discrete-event engine every Eva subsystem runs on.
//!
//! The engine knows nothing about schedulers, clouds, or jobs — it owns a
//! monotone simulated clock, a time-ordered event queue, and deterministic
//! per-purpose RNG streams. `eva-sim`'s `ClusterSim` world model consumes
//! it to simulate a cluster; `eva-sim`'s `LiveBackend` consumes a second
//! engine to drive the real `eva-exec` master/worker runtime from the
//! same ordered event stream; experiment sweeps run many engines in
//! parallel, which stays deterministic because every source of randomness
//! is derived from the engine's master seed.
//!
//! Ordering is a total order over `(time, priority, insertion seq)`:
//! events at the same instant dispatch by ascending [`SimEvent::priority`],
//! ties broken FIFO. That makes every run a pure function of its inputs.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

use rand::rngs::StdRng;
use rand::SeedableRng;

use eva_types::{IdBuildHasher, SimTime};

/// An event type usable with [`EventEngine`].
pub trait SimEvent {
    /// Same-timestamp dispatch priority — lower values dispatch first.
    fn priority(&self) -> u8 {
        0
    }
}

/// Handle to a cancelable scheduled event (see
/// [`EventEngine::schedule_cancelable`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CancelToken(u64);

/// An event popped from the queue together with its due time.
#[derive(Debug, Clone)]
pub struct Scheduled<E> {
    /// When the event is due.
    pub at: SimTime,
    /// The event itself.
    pub event: E,
}

#[derive(Debug, Clone)]
struct Entry<E> {
    at: SimTime,
    prio: u8,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    fn key(&self) -> (SimTime, u8, u64) {
        (self.at, self.prio, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<E> Eq for Entry<E> {}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Monotone clock plus time-ordered event queue.
///
/// The clock only moves through [`EventEngine::advance_to`], which the
/// consumer calls after integrating world state up to the popped event's
/// due time ([`EventEngine::pop`] deliberately does *not* advance it, so
/// the consumer can still observe the pre-event instant).
#[derive(Debug)]
pub struct EventEngine<E> {
    events: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
    now: SimTime,
    /// Tombstones: sequence numbers of canceled entries. A `BinaryHeap`
    /// supports no random removal, so canceled events stay queued and are
    /// skipped (and forgotten) when their turn comes — the dslab idiom.
    /// The set is only probed, so it hashes with the id hasher.
    canceled: HashSet<u64, IdBuildHasher>,
    /// High-water mark of `events.len()` over the engine's lifetime.
    peak_len: usize,
    /// Events scheduled before the clock and dispatched at it instead.
    past_dated: u64,
}

impl<E: SimEvent> EventEngine<E> {
    /// An empty engine with the clock at time zero.
    pub fn new() -> Self {
        EventEngine {
            events: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
            canceled: HashSet::default(),
            peak_len: 0,
            past_dated: 0,
        }
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Enqueues `event` for dispatch at `at`, which must not precede the
    /// clock. A debug build panics on a past-dated event; a release build
    /// dispatches it at the clock, in order, and counts it
    /// ([`EventEngine::past_dated`]).
    pub fn schedule(&mut self, at: SimTime, event: E) {
        debug_assert!(at >= self.now, "event scheduled in the past");
        let at = if at < self.now {
            self.past_dated += 1;
            self.now
        } else {
            at
        };
        self.seq += 1;
        self.events.push(Reverse(Entry {
            at,
            prio: event.priority(),
            seq: self.seq,
            event,
        }));
        if self.events.len() > self.peak_len {
            self.peak_len = self.events.len();
        }
    }

    /// Like [`EventEngine::schedule`], but returns a token that can later
    /// tombstone the event via [`EventEngine::cancel`] — e.g. injected
    /// fault events outliving the workload they were meant to disturb, or
    /// a completion superseded by a new due time.
    pub fn schedule_cancelable(&mut self, at: SimTime, event: E) -> CancelToken {
        self.schedule(at, event);
        CancelToken(self.seq)
    }

    /// Tombstones a cancelable event: if still queued it will be skipped
    /// (never dispatched, never advancing the clock). Canceling an
    /// already-dispatched or already-canceled event is a no-op.
    ///
    /// When tombstones outnumber live entries the queue compacts in
    /// place, so fault-heavy million-event runs never carry more dead
    /// weight than live events.
    pub fn cancel(&mut self, token: CancelToken) {
        self.canceled.insert(token.0);
        self.maybe_compact();
    }

    /// Rebuilds the heap without tombstoned entries once they exceed
    /// half the queue. Heap order is a total order over unique
    /// `(time, priority, seq)` keys, so a rebuilt heap pops in exactly
    /// the sequence the un-compacted one would have. Clearing the
    /// tombstone set also drops stale tokens of already-dispatched
    /// events, which `pop` alone would retain forever.
    fn maybe_compact(&mut self) {
        if self.canceled.len() * 2 <= self.events.len() {
            return;
        }
        let mut entries = std::mem::take(&mut self.events).into_vec();
        entries.retain(|Reverse(e)| !self.canceled.contains(&e.seq));
        self.events = BinaryHeap::from(entries);
        self.canceled.clear();
    }

    /// Removes and returns the next live event without advancing the
    /// clock, discarding tombstoned entries along the way.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        while let Some(Reverse(e)) = self.events.pop() {
            // Skip the hash probe while nothing is tombstoned (a run that
            // cancels nothing, or one whose tombstones are all spent).
            if !self.canceled.is_empty() && self.canceled.remove(&e.seq) {
                continue;
            }
            return Some(Scheduled {
                at: e.at,
                event: e.event,
            });
        }
        None
    }

    /// Advances the clock monotonically to `t` (no-op when `t` is in the
    /// past — completion events re-derived at the same instant may carry
    /// an identical due time).
    pub fn advance_to(&mut self, t: SimTime) {
        if t > self.now {
            self.now = t;
        }
    }

    /// Number of events currently queued (tombstoned entries count until
    /// compaction or their due time passes them through
    /// [`EventEngine::pop`]).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events remain (live or tombstoned).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total events scheduled over the engine's lifetime.
    pub fn scheduled_count(&self) -> u64 {
        self.seq
    }

    /// High-water mark of the queued entry count (live + tombstoned)
    /// over the engine's lifetime — the heap-churn yardstick the perf
    /// snapshots track alongside [`EventEngine::scheduled_count`].
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Events scheduled before the clock so far (release builds dispatch
    /// them at the clock; debug builds panic instead).
    pub fn past_dated(&self) -> u64 {
        self.past_dated
    }
}

impl<E: SimEvent> Default for EventEngine<E> {
    fn default() -> Self {
        Self::new()
    }
}

/// Deterministic per-purpose RNG streams derived from one master seed.
///
/// Stream 0 is seeded with the master seed itself (so single-stream
/// consumers keep their historical trajectories); stream `i > 0` mixes the
/// index through SplitMix64 so distinct purposes never share a sequence.
#[derive(Debug, Clone, Copy)]
pub struct RngStreams {
    master: u64,
}

/// The stream feeding cloud-delay sampling in the world model.
pub const DELAY_STREAM: u64 = 0;

impl RngStreams {
    /// Streams derived from `master`.
    pub fn new(master: u64) -> Self {
        RngStreams { master }
    }

    /// The master seed.
    pub fn master(&self) -> u64 {
        self.master
    }

    /// A fresh RNG for stream `index`.
    pub fn stream(&self, index: u64) -> StdRng {
        StdRng::seed_from_u64(derive_seed(self.master, index))
    }
}

/// Seed for stream `index` under `master`: identity at index 0,
/// SplitMix64-mixed otherwise. Sweep cells do NOT pass through this —
/// their declared grid seeds feed `SimConfig::seed` verbatim.
pub fn derive_seed(master: u64, index: u64) -> u64 {
    if index == 0 {
        return master;
    }
    // SplitMix64 finalizer over the (master, index) pair.
    let mut z = master
        .wrapping_add(index.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Ev {
        Fast(u32),
        Slow(u32),
    }

    impl SimEvent for Ev {
        fn priority(&self) -> u8 {
            match self {
                Ev::Fast(_) => 0,
                Ev::Slow(_) => 1,
            }
        }
    }

    #[test]
    fn dispatch_order_is_time_then_priority_then_fifo() {
        let mut engine: EventEngine<Ev> = EventEngine::new();
        engine.schedule(SimTime::from_secs(10), Ev::Slow(1));
        engine.schedule(SimTime::from_secs(10), Ev::Fast(2));
        engine.schedule(SimTime::from_secs(5), Ev::Slow(3));
        engine.schedule(SimTime::from_secs(10), Ev::Fast(4));
        let order: Vec<Ev> = std::iter::from_fn(|| engine.pop().map(|s| s.event)).collect();
        assert_eq!(
            order,
            vec![Ev::Slow(3), Ev::Fast(2), Ev::Fast(4), Ev::Slow(1)]
        );
    }

    #[test]
    fn clock_is_monotone() {
        let mut engine: EventEngine<Ev> = EventEngine::new();
        engine.advance_to(SimTime::from_secs(30));
        assert_eq!(engine.now(), SimTime::from_secs(30));
        engine.advance_to(SimTime::from_secs(10));
        assert_eq!(engine.now(), SimTime::from_secs(30), "never rewinds");
    }

    #[test]
    fn pop_does_not_advance_clock() {
        let mut engine: EventEngine<Ev> = EventEngine::new();
        engine.schedule(SimTime::from_secs(7), Ev::Fast(0));
        let s = engine.pop().unwrap();
        assert_eq!(s.at, SimTime::from_secs(7));
        assert_eq!(engine.now(), SimTime::ZERO);
        assert!(engine.is_empty());
        assert_eq!(engine.scheduled_count(), 1);
    }

    #[test]
    fn canceled_events_are_skipped_without_advancing_time() {
        let mut engine: EventEngine<Ev> = EventEngine::new();
        engine.schedule(SimTime::from_secs(5), Ev::Fast(1));
        let doomed = engine.schedule_cancelable(SimTime::from_secs(60), Ev::Fast(2));
        engine.schedule(SimTime::from_secs(10), Ev::Fast(3));
        engine.cancel(doomed);
        let order: Vec<Ev> = std::iter::from_fn(|| {
            engine.pop().map(|s| {
                engine.advance_to(s.at);
                s.event
            })
        })
        .collect();
        assert_eq!(order, vec![Ev::Fast(1), Ev::Fast(3)]);
        // The tombstoned far-future event never moved the clock.
        assert_eq!(engine.now(), SimTime::from_secs(10));
    }

    #[test]
    fn cancel_is_idempotent_and_tolerates_dispatched_tokens() {
        let mut engine: EventEngine<Ev> = EventEngine::new();
        let t1 = engine.schedule_cancelable(SimTime::from_secs(1), Ev::Fast(1));
        let t2 = engine.schedule_cancelable(SimTime::from_secs(2), Ev::Fast(2));
        assert_eq!(engine.pop().unwrap().event, Ev::Fast(1));
        engine.cancel(t1); // already dispatched: no-op
        engine.cancel(t2);
        engine.cancel(t2); // double-cancel: no-op
        assert!(engine.pop().is_none());
    }

    #[test]
    fn tombstones_stay_queued_until_compaction() {
        let mut engine: EventEngine<Ev> = EventEngine::new();
        let mut tokens = Vec::new();
        for i in 0..8 {
            tokens.push(engine.schedule_cancelable(SimTime::from_secs(i), Ev::Fast(i as u32)));
        }
        // Cancel a minority: tombstones stay queued.
        engine.cancel(tokens[0]);
        engine.cancel(tokens[1]);
        assert_eq!(engine.len(), 8);
        // Crossing the half-dead threshold compacts the heap in place.
        engine.cancel(tokens[2]);
        engine.cancel(tokens[3]);
        engine.cancel(tokens[4]);
        assert_eq!(engine.len(), 3, "tombstones physically removed");
        let order: Vec<Ev> = std::iter::from_fn(|| engine.pop().map(|s| s.event)).collect();
        assert_eq!(order, vec![Ev::Fast(5), Ev::Fast(6), Ev::Fast(7)]);
    }

    #[test]
    fn compaction_preserves_dispatch_order() {
        // Two engines with the same schedule; one compacts mid-stream.
        let mut plain: EventEngine<Ev> = EventEngine::new();
        let mut compacted: EventEngine<Ev> = EventEngine::new();
        let mut doomed = Vec::new();
        for i in 0..64u32 {
            let at = SimTime::from_secs((i % 7) as u64 * 10);
            let ev = if i % 2 == 0 { Ev::Fast(i) } else { Ev::Slow(i) };
            let ta = plain.schedule_cancelable(at, ev);
            let tb = compacted.schedule_cancelable(at, ev);
            if i % 3 == 0 {
                doomed.push((ta, tb));
            }
        }
        // Cancel in plain *after* popping half (tombstones ride along);
        // cancel in compacted up front (triggers in-place compaction).
        for (_, tb) in &doomed {
            compacted.cancel(*tb);
        }
        for (ta, _) in &doomed {
            plain.cancel(*ta);
        }
        let a: Vec<Ev> = std::iter::from_fn(|| plain.pop().map(|s| s.event)).collect();
        let b: Vec<Ev> = std::iter::from_fn(|| compacted.pop().map(|s| s.event)).collect();
        assert_eq!(a, b, "compaction must never change pop order");
    }

    #[test]
    fn compaction_drops_stale_dispatched_tokens() {
        let mut engine: EventEngine<Ev> = EventEngine::new();
        let t1 = engine.schedule_cancelable(SimTime::from_secs(1), Ev::Fast(1));
        assert_eq!(engine.pop().unwrap().event, Ev::Fast(1));
        // A stale cancel with an empty queue compacts immediately instead
        // of leaking the tombstone until a matching pop that never comes.
        engine.cancel(t1);
        assert_eq!(engine.len(), 0);
        assert!(engine.canceled.is_empty());
        engine.schedule(SimTime::from_secs(2), Ev::Fast(2));
        assert_eq!(engine.pop().unwrap().event, Ev::Fast(2));
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        should_panic(expected = "event scheduled in the past")
    )]
    fn past_dated_events_dispatch_at_the_clock_and_are_counted() {
        let mut engine: EventEngine<Ev> = EventEngine::new();
        engine.advance_to(SimTime::from_secs(10));
        engine.schedule(SimTime::from_secs(10), Ev::Slow(1));
        engine.schedule(SimTime::from_secs(3), Ev::Fast(2));
        engine.schedule(SimTime::from_secs(4), Ev::Slow(3));
        assert_eq!(engine.past_dated(), 2);
        let popped: Vec<(SimTime, Ev)> =
            std::iter::from_fn(|| engine.pop().map(|s| (s.at, s.event))).collect();
        let t = SimTime::from_secs(10);
        assert_eq!(
            popped,
            vec![(t, Ev::Fast(2)), (t, Ev::Slow(1)), (t, Ev::Slow(3))],
            "clamped to the clock, then by priority and FIFO"
        );
        assert_eq!(engine.now(), t, "the clock never rewinds");
    }

    #[test]
    fn pops_skip_the_tombstone_probe_once_every_tombstone_is_spent() {
        let mut engine: EventEngine<Ev> = EventEngine::new();
        assert!(engine.canceled.is_empty(), "nothing canceled: no probe");
        for i in 0..4 {
            engine.schedule(SimTime::from_secs(i), Ev::Fast(i as u32));
        }
        let doomed = engine.schedule_cancelable(SimTime::from_secs(1), Ev::Slow(9));
        engine.cancel(doomed);
        assert_eq!(engine.canceled.len(), 1, "one tombstone, below compaction");
        let order: Vec<Ev> = std::iter::from_fn(|| engine.pop().map(|s| s.event)).collect();
        assert_eq!(
            order,
            vec![Ev::Fast(0), Ev::Fast(1), Ev::Fast(2), Ev::Fast(3)]
        );
        assert!(
            engine.canceled.is_empty(),
            "the spent tombstone is forgotten"
        );
        // With the set empty again, later pops take the probe-free path.
        engine.schedule(SimTime::from_secs(5), Ev::Slow(5));
        assert_eq!(engine.pop().map(|s| s.event), Some(Ev::Slow(5)));
    }

    #[test]
    fn rng_streams_are_deterministic_and_distinct() {
        let streams = RngStreams::new(42);
        let a: f64 = streams.stream(1).gen();
        let b: f64 = streams.stream(1).gen();
        let c: f64 = streams.stream(2).gen();
        assert_eq!(a, b, "same stream, same sequence");
        assert_ne!(a, c, "different streams diverge");
    }

    #[test]
    fn stream_zero_is_the_master_seed() {
        // Single-stream consumers keep their historical trajectories.
        let x: f64 = RngStreams::new(7).stream(DELAY_STREAM).gen();
        let y: f64 = StdRng::seed_from_u64(7).gen();
        assert_eq!(x, y);
    }

    #[test]
    fn derived_seeds_spread() {
        let mut seen = std::collections::BTreeSet::new();
        for master in [0u64, 1, 42] {
            for idx in 0..16 {
                seen.insert(derive_seed(master, idx));
            }
        }
        assert_eq!(seen.len(), 48, "no collisions across small grids");
    }
}
