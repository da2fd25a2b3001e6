//! A pass-through [`JobSource`] that times every pull.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use eva_types::JobSpec;
use eva_workloads::JobSource;

use crate::spans::Interval;

/// What the decorator saw, shared with the loop that owns the sim (the
/// source itself moves into the sim as a `Box<dyn JobSource>`).
#[derive(Debug, Default)]
pub struct SourceStats {
    /// Length of every pull, in ns.
    pub pull_ns: Vec<u64>,
    /// The pulls since the driving loop last asked, folded.
    pub window: Interval,
}

/// Forwards to `inner` and records how long each `next_job` took.
///
/// `len_hint` and `ids_monotone` must be forwarded too: the defaults
/// would silently tell the sim that ids are not monotone, which
/// disables prefix folding of completed jobs and changes what the run
/// holds in memory.
pub struct TimedSource<S> {
    inner: S,
    origin: Instant,
    stats: Rc<RefCell<SourceStats>>,
}

impl<S: JobSource> TimedSource<S> {
    /// Times pulls against `origin`, the tracer's clock.
    pub fn new(inner: S, origin: Instant) -> (Self, Rc<RefCell<SourceStats>>) {
        let stats = Rc::new(RefCell::new(SourceStats::default()));
        let source = TimedSource {
            inner,
            origin,
            stats: Rc::clone(&stats),
        };
        (source, stats)
    }
}

impl<S: JobSource> JobSource for TimedSource<S> {
    fn next_job(&mut self) -> Option<JobSpec> {
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let job = self.inner.next_job();
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        let mut stats = self.stats.borrow_mut();
        stats.pull_ns.push(end_ns - start_ns);
        stats.window.add(start_ns, end_ns);
        job
    }

    fn len_hint(&self) -> Option<usize> {
        self.inner.len_hint()
    }

    fn ids_monotone(&self) -> bool {
        self.inner.ids_monotone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eva_workloads::{JsonLinesSource, SyntheticSource, SyntheticTraceConfig};

    #[test]
    fn forwards_hints_and_jobs_and_counts_pulls() {
        let cfg = SyntheticTraceConfig::small_scale();
        let plain = SyntheticSource::new(&cfg, 3);
        assert_eq!((plain.len_hint(), plain.ids_monotone()), (Some(32), true));
        let (mut timed, stats) = TimedSource::new(SyntheticSource::new(&cfg, 3), Instant::now());
        assert_eq!((timed.len_hint(), timed.ids_monotone()), (Some(32), true));

        let expect = cfg.generate(3).into_jobs();
        let got: Vec<_> = std::iter::from_fn(|| timed.next_job()).collect();
        assert_eq!(got, expect);
        // 32 jobs and the pull that found the source empty.
        assert_eq!(stats.borrow().pull_ns.len(), 33);
        assert_eq!(stats.borrow_mut().window.take().map(|w| w.count), Some(33));

        // A source that promises nothing stays that way.
        let (lines, _) = TimedSource::new(JsonLinesSource::new(&b""[..]), Instant::now());
        assert_eq!((lines.len_hint(), lines.ids_monotone()), (None, false));
    }
}
