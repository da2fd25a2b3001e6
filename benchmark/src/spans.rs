//! In-memory spans of a traced run, recorded from the benchmark's side
//! of each call into a layer and written out after the timed section.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use serde::Serialize;

/// One interval spent in a layer.
///
/// A plain span is one call: `count` is 1 and `busy_ns` is its length.
/// A folded span stands for `count` calls between `start_ns` and
/// `end_ns` whose lengths sum to `busy_ns` (the non-round steps between
/// two scheduling rounds, or the source pulls inside them), so that a
/// run of 650 000 events writes 20 000 spans.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub busy_ns: u64,
    pub count: u64,
    /// Index of the span that caused this one; `None` for the root.
    pub parent: Option<usize>,
}

/// A measured stretch of time: one call, or several folded together.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Interval {
    pub start_ns: u64,
    pub end_ns: u64,
    pub busy_ns: u64,
    pub count: u64,
}

impl Interval {
    pub fn call(start_ns: u64, end_ns: u64) -> Self {
        Interval {
            start_ns,
            end_ns,
            busy_ns: end_ns - start_ns,
            count: 1,
        }
    }

    /// Folds a later call into this interval.
    pub fn add(&mut self, start_ns: u64, end_ns: u64) {
        self.absorb(Interval::call(start_ns, end_ns));
    }

    /// Folds a whole later interval into this one.
    pub fn absorb(&mut self, later: Interval) {
        if self.count == 0 {
            self.start_ns = later.start_ns;
        }
        self.end_ns = later.end_ns;
        self.busy_ns += later.busy_ns;
        self.count += later.count;
    }

    /// Empties the interval and returns what it held, if anything.
    pub fn take(&mut self) -> Option<Interval> {
        let held = std::mem::take(self);
        (held.count > 0).then_some(held)
    }
}

/// Records spans against one clock origin and keeps the stack of open
/// ones, so a new span's parent is whatever is open when it starts.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The clock every span is stamped from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a span that is a child of the open one and becomes the
    /// open one until [`Tracer::close`].
    pub fn open(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        let id = self.push(
            self.open.last().copied(),
            name,
            Interval::call(start_ns, start_ns),
        );
        self.open.push(id);
    }

    /// Ends the open span.
    pub fn close(&mut self) {
        let id = self.open.pop().expect("close without open");
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        self.spans[id].busy_ns = end_ns - self.spans[id].start_ns;
    }

    /// Runs `f` inside a new span.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.open(name);
        let out = f(self);
        self.close();
        out
    }

    /// Busy seconds summed over the spans called `name`.
    pub fn busy_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.busy_ns)
            .sum();
        ns as f64 / 1e9
    }

    /// Adds an already-measured child of the open span and returns its
    /// index.
    pub fn leaf(&mut self, name: &'static str, at: Interval) -> usize {
        let parent = self.open.last().copied();
        self.push(parent, name, at)
    }

    /// Adds an already-measured child of span `parent`: work that ran
    /// inside a call whose own span was only recorded once it returned.
    pub fn leaf_under(&mut self, parent: usize, name: &'static str, at: Interval) {
        self.push(Some(parent), name, at);
    }

    fn push(&mut self, parent: Option<usize>, name: &'static str, at: Interval) -> usize {
        self.spans.push(Span {
            name,
            start_ns: at.start_ns,
            end_ns: at.end_ns,
            busy_ns: at.busy_ns,
            count: at.count,
            parent,
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes `{"spans": [...], "self_ns": {...}}` to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let doc = serde::Value::Object(vec![
            ("spans".to_string(), self.spans.serialize()),
            (
                "self_ns".to_string(),
                self_ns_by_name(&self.spans).serialize(),
            ),
        ]);
        let json = serde_json::to_string(&doc).expect("spans serialize");
        std::fs::write(path, json + "\n")
    }
}

/// Self time per span name: each span's busy time minus its children's,
/// summed over the spans of that name. `timed`'s self time is what the
/// driving loop and the timers cost.
pub fn self_ns_by_name(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut child_busy = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_busy[parent] += span.busy_ns;
        }
    }
    let mut by_name = BTreeMap::new();
    for (span, children) in spans.iter().zip(child_busy) {
        *by_name.entry(span.name.to_string()).or_insert(0) += span.busy_ns.saturating_sub(children);
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            busy_ns: end_ns - start_ns,
            count: 1,
            parent,
        }
    }

    #[test]
    fn self_time_is_busy_time_minus_children() {
        let mut spans = vec![
            span("run", 0, 100, None),
            span("timed", 10, 90, Some(0)),
            span("world.round", 20, 50, Some(1)),
            span("world.round", 60, 70, Some(1)),
        ];
        // A folded span: 3 calls summing to 12 ns inside a 15 ns window,
        // one of which spent 4 ns in a child.
        spans.push(Span {
            busy_ns: 12,
            count: 3,
            ..span("world.events", 70, 85, Some(1))
        });
        spans.push(span("workloads.source", 72, 76, Some(4)));
        let own = self_ns_by_name(&spans);
        assert_eq!(own["run"], 20);
        assert_eq!(own["timed"], 80 - 30 - 10 - 12);
        assert_eq!(own["world.round"], 40);
        assert_eq!(own["world.events"], 8);
        assert_eq!(own["workloads.source"], 4);
    }

    #[test]
    fn spans_take_the_open_span_as_parent() {
        let mut tr = Tracer::new();
        tr.scope("run", |tr| {
            tr.scope("timed", |tr| {
                let mut fold = Interval::default();
                fold.add(0, 1);
                fold.add(2, 3);
                assert_eq!(fold.take().map(|f| (f.busy_ns, f.count)), Some((2, 2)));
                assert_eq!(fold.take(), None);
                let events = tr.leaf("world.events", Interval::call(0, 3));
                tr.leaf_under(events, "workloads.source", Interval::call(1, 2));
                tr.leaf("world.round", Interval::call(3, 4));
            });
        });
        let parents: Vec<_> = tr.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            parents,
            vec![
                ("run", None),
                ("timed", Some(0)),
                ("world.events", Some(1)),
                ("workloads.source", Some(2)),
                ("world.round", Some(1)),
            ]
        );
        assert!(tr.spans()[0].busy_ns >= tr.spans()[1].busy_ns);
    }
}
