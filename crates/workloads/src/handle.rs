//! Shared trace handles.
//!
//! Experiment grids multiply a trace across many cells; cloning a
//! 6,000-job [`Trace`] per cell dominated sweep memory. A [`TraceHandle`]
//! wraps the trace in an [`Arc`] so every cell shares one immutable copy
//! (cloning a handle is a reference-count bump), and lazily computes a
//! stable **content fingerprint** — the identity the persistent report
//! cache and cross-experiment deduplication key on.

use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use crate::trace::Trace;

/// An immutable, reference-counted trace with a stable content
/// fingerprint.
///
/// Cloning a handle never clones the jobs. The fingerprint is computed on
/// first use (FNV-1a over the trace's canonical JSON serialization), so
/// handles that are only simulated — never cached or deduplicated — pay
/// nothing.
///
/// # Examples
///
/// ```
/// use eva_workloads::{SyntheticTraceConfig, TraceHandle};
///
/// let handle = TraceHandle::new(SyntheticTraceConfig::small_scale().generate(42));
/// let alias = handle.clone(); // Arc bump, not a job-vector clone
/// assert_eq!(handle.fingerprint(), alias.fingerprint());
/// assert_eq!(handle.len(), 32); // Deref to the underlying Trace
/// ```
#[derive(Debug, Clone)]
pub struct TraceHandle {
    inner: Arc<HandleInner>,
}

#[derive(Debug)]
struct HandleInner {
    trace: Trace,
    fingerprint: OnceLock<u64>,
}

impl TraceHandle {
    /// Wraps a trace in a shared handle.
    pub fn new(trace: Trace) -> Self {
        TraceHandle {
            inner: Arc::new(HandleInner {
                trace,
                fingerprint: OnceLock::new(),
            }),
        }
    }

    /// The underlying trace.
    pub fn trace(&self) -> &Trace {
        &self.inner.trace
    }

    /// Stable 64-bit content hash of the trace (FNV-1a over its canonical
    /// JSON form), computed once per handle. Two handles over traces with
    /// identical job content — regardless of how they were constructed —
    /// fingerprint identically.
    pub fn fingerprint(&self) -> u64 {
        *self.inner.fingerprint.get_or_init(|| {
            let json = serde_json::to_string(&self.inner.trace)
                .expect("traces always serialize");
            eva_types::fnv1a64(json.as_bytes())
        })
    }

    /// The fingerprint as fixed-width hex, for keys and file names.
    pub fn fingerprint_hex(&self) -> String {
        format!("{:016x}", self.fingerprint())
    }
}

impl Deref for TraceHandle {
    type Target = Trace;

    fn deref(&self) -> &Trace {
        self.trace()
    }
}

impl From<Trace> for TraceHandle {
    fn from(trace: Trace) -> Self {
        TraceHandle::new(trace)
    }
}

impl From<&Trace> for TraceHandle {
    fn from(trace: &Trace) -> Self {
        TraceHandle::new(trace.clone())
    }
}

impl PartialEq for TraceHandle {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner) || self.trace() == other.trace()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eva_types::{
        DemandSpec, JobId, JobSpec, ResourceVector, SimDuration, SimTime, TaskId, TaskSpec,
        WorkloadKind,
    };

    fn job(id: u64, arrival_mins: u64) -> JobSpec {
        JobSpec {
            id: JobId(id),
            arrival: SimTime::from_secs(arrival_mins * 60),
            tasks: vec![TaskSpec {
                id: TaskId::new(JobId(id), 0),
                workload: WorkloadKind(0),
                demand: DemandSpec::uniform(ResourceVector::new(1, 4, 1024)),
                checkpoint_delay: SimDuration::from_secs(2),
                launch_delay: SimDuration::from_secs(10),
            }],
            duration_at_full_tput: SimDuration::from_mins(30),
            gang_coupled: false,
        }
    }

    fn spread_trace() -> Trace {
        // Three arrival clusters: 0–10 min, 100–110 min, 200–210 min.
        let mut jobs = Vec::new();
        for k in 0..3u64 {
            for i in 0..4u64 {
                jobs.push(job(k * 10 + i, k * 100 + i * 3));
            }
        }
        Trace::new(jobs)
    }

    #[test]
    fn handle_clone_shares_storage_and_fingerprint() {
        let h = TraceHandle::new(spread_trace());
        let alias = h.clone();
        assert!(Arc::ptr_eq(&h.inner, &alias.inner));
        assert_eq!(h.fingerprint(), alias.fingerprint());
        assert_eq!(h.fingerprint_hex().len(), 16);
    }

    #[test]
    fn fingerprint_depends_on_content_not_construction() {
        let a = TraceHandle::new(spread_trace());
        let b = TraceHandle::new(spread_trace());
        assert_eq!(a.fingerprint(), b.fingerprint(), "same content, same hash");

        let mut jobs = spread_trace().into_jobs();
        jobs[0].duration_at_full_tput = SimDuration::from_mins(31);
        let mutated = TraceHandle::new(Trace::new(jobs));
        assert_ne!(a.fingerprint(), mutated.fingerprint());
    }
}
