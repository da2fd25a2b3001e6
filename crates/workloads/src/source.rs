//! Incremental job sources for streaming ingestion.
//!
//! A [`JobSource`] yields jobs one at a time in arrival order, letting the
//! simulator ingest lazily instead of interning a whole trace at
//! construction. Three adapters cover the service-mode story:
//!
//! * [`TraceSource`] — batch replay of an in-memory [`TraceHandle`]; the
//!   existing load-then-run path expressed as a source.
//! * [`SyntheticSource`] — a seeded open-loop Poisson generator that
//!   replays [`SyntheticTraceConfig::generate`]'s exact RNG walk one job
//!   at a time, so a streamed run sees the same jobs as a batch run
//!   without ever materialising the trace.
//! * [`JsonLinesSource`] — line-delimited JSON [`JobSpec`]s from any
//!   [`BufRead`] (stdin, a file, eventually a socket) for external feeds.
//!
//! [`BoundedSource`] caps any source at an arrival-time horizon, which is
//! how `eva serve --duration` bounds an otherwise endless stream.

use std::io::BufRead;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use eva_types::{JobId, JobSpec, SimDuration, SimTime};

use crate::catalog::{WorkloadCatalog, WorkloadInfo};
use crate::duration::DurationSampler;
use crate::handle::TraceHandle;
use crate::synthetic::SyntheticTraceConfig;

/// A pull-based stream of jobs in non-decreasing arrival order.
///
/// Implementations must yield arrivals monotonically: the simulator
/// schedules its next ingest at the pulled job's arrival time and a
/// regression there would violate the event engine's monotone clock.
pub trait JobSource {
    /// Pulls the next job, or `None` once the stream is exhausted.
    fn next_job(&mut self) -> Option<JobSpec>;

    /// Total jobs this source will ever yield, when known up front
    /// (batch traces and fixed-count synthetic streams).
    fn len_hint(&self) -> Option<usize> {
        None
    }

    /// Whether job ids come back strictly increasing.
    ///
    /// Arrival order is a hard contract; id order is not. When a source
    /// can promise strictly increasing ids, the simulator may fold a
    /// retired job's report contribution as soon as no smaller live id
    /// remains, keeping memory bounded on endless streams. Sources that
    /// cannot promise it (external feeds with caller-chosen ids) return
    /// `false` and the simulator holds every contribution until the end.
    fn ids_monotone(&self) -> bool {
        false
    }
}

/// Batch adapter: replays a [`TraceHandle`] in stored order.
#[derive(Debug, Clone)]
pub struct TraceSource {
    handle: TraceHandle,
    cursor: usize,
}

impl TraceSource {
    /// Wraps a trace handle; jobs come back in the trace's arrival order.
    pub fn new(handle: TraceHandle) -> Self {
        TraceSource { handle, cursor: 0 }
    }
}

impl JobSource for TraceSource {
    fn next_job(&mut self) -> Option<JobSpec> {
        let job = self.handle.trace().jobs().get(self.cursor)?.clone();
        self.cursor += 1;
        Some(job)
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.handle.trace().len())
    }

    fn ids_monotone(&self) -> bool {
        self.handle
            .trace()
            .jobs()
            .windows(2)
            .all(|w| w[0].id < w[1].id)
    }
}

/// Open-loop synthetic generator: the [`SyntheticTraceConfig::generate`]
/// recipe (Table 7 pool, exponential gaps, uniform durations) replayed
/// incrementally with the same RNG stream.
///
/// Pulling `cfg.num_jobs` jobs from `SyntheticSource::new(cfg, seed)`
/// yields exactly `cfg.generate(seed).into_jobs()` — a property the unit
/// tests pin down — so streamed and batch runs of the huge tiers agree.
pub struct SyntheticSource {
    remaining: usize,
    mean_interarrival: SimDuration,
    duration: crate::duration::UniformHours,
    pool: Vec<WorkloadInfo>,
    rng: StdRng,
    now: SimTime,
    next_id: u64,
    total: usize,
}

impl SyntheticSource {
    /// Streams the given synthetic config with a fixed seed.
    pub fn new(cfg: &SyntheticTraceConfig, seed: u64) -> Self {
        let catalog = WorkloadCatalog::table7();
        let rng = StdRng::seed_from_u64(seed);
        let pool: Vec<WorkloadInfo> = if cfg.single_task_only {
            catalog
                .single_task_workloads()
                .into_iter()
                .cloned()
                .collect()
        } else {
            catalog.iter().cloned().collect()
        };
        SyntheticSource {
            remaining: cfg.num_jobs,
            mean_interarrival: cfg.mean_interarrival,
            duration: cfg.duration,
            pool,
            rng,
            now: SimTime::ZERO,
            next_id: 0,
            total: cfg.num_jobs,
        }
    }

    /// Open-loop stream at `rate_per_hour` mean arrivals, capped at
    /// `num_jobs` pulls (pass a large cap and wrap in [`BoundedSource`]
    /// to bound by time instead). Durations follow the paper's 0.5–3 h
    /// uniform recipe.
    pub fn open_loop(rate_per_hour: f64, num_jobs: usize, seed: u64) -> Self {
        let cfg = SyntheticTraceConfig {
            num_jobs,
            mean_interarrival: SimDuration::from_hours_f64(1.0 / rate_per_hour.max(1e-9)),
            ..SyntheticTraceConfig::small_scale()
        };
        SyntheticSource::new(&cfg, seed)
    }
}

impl JobSource for SyntheticSource {
    fn next_job(&mut self) -> Option<JobSpec> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        // Exponential inter-arrival gaps give a Poisson process. The RNG
        // call order (gap, workload, duration) must match
        // `SyntheticTraceConfig::generate` exactly.
        let gap_hours = -self.mean_interarrival.as_hours_f64() * (1.0 - self.rng.gen::<f64>()).ln();
        self.now += SimDuration::from_hours_f64(gap_hours);
        let w = &self.pool[self.rng.gen_range(0..self.pool.len())];
        let duration = self.duration.sample(&mut self.rng);
        let id = JobId(self.next_id);
        self.next_id += 1;
        Some(w.job_spec(id, self.now, duration))
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.total)
    }

    fn ids_monotone(&self) -> bool {
        // Ids are `next_id` post-increments: strictly increasing.
        true
    }
}

/// External feed: one JSON-encoded [`JobSpec`] per line.
///
/// Blank lines are skipped. Malformed lines and out-of-order arrivals
/// (which would break the engine's monotone clock) are skipped with a
/// warning on stderr rather than poisoning the stream. Ids are trusted:
/// `ClusterView` hashes them with `eva_types::IdHasher`, which does not
/// resist a feed crafted to collide (slower rounds, same results).
pub struct JsonLinesSource<R: BufRead> {
    reader: R,
    last_arrival: SimTime,
    line_no: usize,
}

impl<R: BufRead> JsonLinesSource<R> {
    /// Streams jobs from a buffered reader (e.g. locked stdin).
    pub fn new(reader: R) -> Self {
        JsonLinesSource {
            reader,
            last_arrival: SimTime::ZERO,
            line_no: 0,
        }
    }
}

impl<R: BufRead> JobSource for JsonLinesSource<R> {
    fn next_job(&mut self) -> Option<JobSpec> {
        let mut line = String::new();
        loop {
            line.clear();
            self.line_no += 1;
            match self.reader.read_line(&mut line) {
                Ok(0) => return None,
                Ok(_) => {}
                Err(e) => {
                    eprintln!("warning: job feed read error at line {}: {e}", self.line_no);
                    return None;
                }
            }
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            match serde_json::from_str::<JobSpec>(trimmed) {
                Ok(job) if job.arrival >= self.last_arrival => {
                    self.last_arrival = job.arrival;
                    return Some(job);
                }
                Ok(job) => {
                    eprintln!(
                        "warning: dropping out-of-order job {:?} at line {} (arrival went backwards)",
                        job.id, self.line_no
                    );
                }
                Err(e) => {
                    eprintln!("warning: skipping malformed job line {}: {e}", self.line_no);
                }
            }
        }
    }
}

/// Caps an inner source at an arrival-time horizon: jobs arriving after
/// `deadline` are dropped and the stream ends.
pub struct BoundedSource<S: JobSource> {
    inner: S,
    deadline: SimTime,
    done: bool,
}

impl<S: JobSource> BoundedSource<S> {
    /// Passes through jobs arriving at or before `deadline`.
    pub fn new(inner: S, deadline: SimTime) -> Self {
        BoundedSource {
            inner,
            deadline,
            done: false,
        }
    }
}

impl<S: JobSource> JobSource for BoundedSource<S> {
    fn next_job(&mut self) -> Option<JobSpec> {
        if self.done {
            return None;
        }
        match self.inner.next_job() {
            Some(job) if job.arrival <= self.deadline => Some(job),
            _ => {
                self.done = true;
                None
            }
        }
    }

    fn ids_monotone(&self) -> bool {
        self.inner.ids_monotone()
    }
}

impl JobSource for Box<dyn JobSource> {
    fn next_job(&mut self) -> Option<JobSpec> {
        (**self).next_job()
    }

    fn len_hint(&self) -> Option<usize> {
        (**self).len_hint()
    }

    fn ids_monotone(&self) -> bool {
        (**self).ids_monotone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Trace;

    fn drain(mut s: impl JobSource) -> Vec<JobSpec> {
        let mut out = Vec::new();
        while let Some(j) = s.next_job() {
            out.push(j);
        }
        out
    }

    #[test]
    fn trace_source_replays_in_stored_order() {
        let trace = SyntheticTraceConfig::small_scale().generate(42);
        let expect = trace.jobs().to_vec();
        let src = TraceSource::new(TraceHandle::new(trace));
        assert_eq!(src.len_hint(), Some(32));
        assert_eq!(drain(src), expect);
    }

    #[test]
    fn synthetic_source_matches_batch_generation_exactly() {
        let cfg = SyntheticTraceConfig {
            num_jobs: 500,
            ..SyntheticTraceConfig::small_scale()
        };
        let batch = cfg.generate(9).into_jobs();
        let streamed = drain(SyntheticSource::new(&cfg, 9));
        assert_eq!(streamed, batch);
    }

    #[test]
    fn open_loop_rate_sets_mean_interarrival() {
        // 60 jobs/hour => 1-minute mean gap; check the sample mean.
        let jobs = drain(SyntheticSource::open_loop(60.0, 2_000, 11));
        let span = jobs
            .last()
            .unwrap()
            .arrival
            .duration_since(jobs[0].arrival)
            .as_hours_f64();
        let mean_gap_mins = span / (jobs.len() - 1) as f64 * 60.0;
        assert!((mean_gap_mins - 1.0).abs() < 0.1, "mean gap {mean_gap_mins}min");
        assert!(jobs.windows(2).all(|w| w[1].arrival >= w[0].arrival));
    }

    #[test]
    fn json_lines_source_parses_skips_and_orders() {
        let trace = SyntheticTraceConfig::small_scale().generate(3);
        let mut feed = String::new();
        for job in trace.jobs() {
            feed.push_str(&serde_json::to_string(job).unwrap());
            feed.push('\n');
        }
        feed.push_str("\n   \nnot json\n");
        // An out-of-order replay of the first job must be dropped.
        feed.push_str(&serde_json::to_string(&trace.jobs()[0]).unwrap());
        feed.push('\n');
        let got = drain(JsonLinesSource::new(feed.as_bytes()));
        assert_eq!(got, trace.jobs());
    }

    #[test]
    fn bounded_source_cuts_at_the_deadline() {
        let cfg = SyntheticTraceConfig {
            num_jobs: 1_000,
            ..SyntheticTraceConfig::small_scale()
        };
        let all = cfg.generate(5).into_jobs();
        let deadline = all[99].arrival;
        let got = drain(BoundedSource::new(SyntheticSource::new(&cfg, 5), deadline));
        assert!(!got.is_empty());
        assert!(got.len() < all.len());
        assert!(got.iter().all(|j| j.arrival <= deadline));
        assert_eq!(got[..], all[..got.len()]);
    }

    #[test]
    fn batch_trace_round_trips_through_a_source() {
        // A trace rebuilt from a source equals the original trace —
        // the batch path really is a special case of streaming.
        let trace = SyntheticTraceConfig::small_scale().generate(21);
        let src = TraceSource::new(TraceHandle::new(trace.clone()));
        assert_eq!(Trace::new(drain(src)), trace);
    }
}
