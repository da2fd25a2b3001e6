//! What a workload is handed while it runs: an optional tracer, the
//! per-layer metrics it fills in a traced run, and the list of output
//! checks that failed.

use std::time::Instant;

use eva_types::fnv1a64;
use serde::Serialize;

use crate::host;
use crate::metrics::{MetricSet, PER_LAYER};
use crate::spans::Tracer;

/// Wall and CPU time of a stretch of work.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Lap {
    pub wall_s: f64,
    /// User + system time of the whole process over the same stretch.
    pub cpu_s: f64,
}

impl Lap {
    pub fn of<R>(f: impl FnOnce() -> R) -> (R, Lap) {
        let cpu = host::cpu_seconds();
        let wall = Instant::now();
        let out = f();
        let lap = Lap {
            wall_s: wall.elapsed().as_secs_f64(),
            cpu_s: host::cpu_seconds() - cpu,
        };
        (out, lap)
    }

    pub fn add(&mut self, other: Lap) {
        self.wall_s += other.wall_s;
        self.cpu_s += other.cpu_s;
    }
}

/// The measuring side of one process. Untraced, `scope` costs a branch
/// and `layers` stays empty.
pub struct Probe {
    pub tracer: Option<Tracer>,
    pub layers: MetricSet,
    /// Output checks that did not hold; any entry fails the run.
    pub failures: Vec<String>,
}

impl Probe {
    pub fn new(traced: bool) -> Self {
        Probe {
            tracer: traced.then(Tracer::new),
            layers: MetricSet::new(PER_LAYER),
            failures: Vec::new(),
        }
    }

    /// Runs `f` inside a span called `name` when tracing.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Probe) -> R) -> R {
        if let Some(tr) = self.tracer.as_mut() {
            tr.open(name);
        }
        let out = f(self);
        if let Some(tr) = self.tracer.as_mut() {
            tr.close();
        }
        out
    }

    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Folds one more value the program returned into a running digest:
/// FNV-1a 64 over the digest so far and the value's JSON. One value at a
/// time, because the JSON of a whole sweep result is several times the
/// size of everything else the process holds and would show up in
/// `peak_rss_mb`.
pub fn digest_json<T: Serialize>(digest: u64, value: &T) -> u64 {
    let mut bytes = digest.to_le_bytes().to_vec();
    bytes.extend_from_slice(
        serde_json::to_string(value)
            .expect("results serialize")
            .as_bytes(),
    );
    fnv1a64(&bytes)
}

/// What the timed section of one execution produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Executed {
    /// Wall and CPU time of the timed section alone.
    pub timed: Lap,
    /// Jobs per second of each simulation in the timed section (one,
    /// except where a workload runs several traces back to back).
    pub rates: Vec<f64>,
    /// Jobs the generator offered and jobs that completed.
    pub offered: u64,
    pub completed: u64,
    pub cost_usd: f64,
    pub jct_mean_h: f64,
    /// [`digest_json`] over everything the program returned.
    pub digest: u64,
}

/// One fresh execution: set-up, then the timed section.
#[derive(Debug, Clone, PartialEq)]
pub struct Rep {
    pub setup_s: f64,
    pub run: Executed,
}

/// A workload: how its inputs are made and what is timed.
pub trait Scenario {
    /// Inputs and a program ready to run on them.
    type Ready;

    /// The per-layer flag, if the workload has one, that says whether
    /// the traced execution returned what the untraced one did.
    const REPLICA_FLAG: Option<&'static str> = None;

    /// Set-up: makes the inputs from `seed` and builds the world, grid
    /// or file, up to but not including the first timed call.
    fn prepare(&self, seed: u64, probe: &mut Probe) -> Self::Ready;

    /// The timed section, inside a `timed` span; then, when tracing,
    /// whatever else the workload's layers need measured.
    fn execute(&self, ready: Self::Ready, probe: &mut Probe) -> Executed;
}

/// Runs one fresh execution of `scenario` under a `run` span.
pub fn rep<S: Scenario>(scenario: &S, seed: u64, probe: &mut Probe) -> Rep {
    probe.scope("run", |probe| {
        let start = Instant::now();
        let ready = probe.scope("setup", |probe| scenario.prepare(seed, probe));
        let setup_s = start.elapsed().as_secs_f64();
        let run = scenario.execute(ready, probe);
        Rep { setup_s, run }
    })
}
