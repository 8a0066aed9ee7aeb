//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a parent and a start and end time. Spans are kept in
//! memory and written out as JSON lines when the run ends. Some child
//! spans are *shadows*: the benchmark re-runs one layer's share of a call
//! beside the real call (for example the in-memory `ingest_parallel` of
//! the batch a `SegmentStore::append` just persisted) because the layer
//! boundary is inside the program. A shadow's duration is subtracted from
//! its parent exactly like a nested child's, so a parent's self time is its
//! own duration minus the durations of all its children.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// The span recorder. When off, [`Tracer::time`] only runs the closure.
pub struct Tracer {
    on: bool,
    t0: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// Parent id of a root span.
pub const ROOT: u64 = 0;

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// A fresh span id, for a span whose children are recorded before it
    /// ends (pass it to [`Tracer::record`] when it does).
    pub fn id(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span under a pre-allocated id.
    pub fn record(&self, id: u64, parent: u64, name: &'static str, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let ns = |t: Instant| t.duration_since(self.t0).as_nanos() as u64;
        self.spans.lock().expect("span log lock").push(Span {
            id,
            parent,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn time<T>(&self, parent: u64, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let id = self.id();
        let start = Instant::now();
        let out = f();
        self.record(id, parent, name, start, Instant::now());
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log lock").clone()
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::fmt::Write as _;
        let mut out = String::new();
        for s in self.spans.lock().expect("span log lock").iter() {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

/// Mean self time per root operation, by span name, over every root span
/// called `root` and all of its descendants. The root's own self time is
/// reported under `root_self`.
pub struct SelfTimes {
    pub roots: usize,
    /// Mean traced duration of one root operation (s).
    pub root_mean: f64,
    /// `(name, mean self seconds per root)`, in first-seen order.
    pub rows: Vec<(&'static str, f64)>,
}

pub fn self_times(spans: &[Span], root: &'static str, root_self: &'static str) -> SelfTimes {
    let mut children: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        children.entry(s.parent).or_default().push(i);
    }
    let mut totals: Vec<(&'static str, f64)> = Vec::new();
    let mut add = |name: &'static str, secs: f64| match totals.iter_mut().find(|(n, _)| *n == name)
    {
        Some((_, t)) => *t += secs,
        None => totals.push((name, secs)),
    };
    let mut roots = 0usize;
    let mut root_total = 0.0;
    for s in spans.iter().filter(|s| s.name == root) {
        roots += 1;
        root_total += s.secs();
        let mut stack = vec![(s, root_self)];
        while let Some((span, label)) = stack.pop() {
            let kids = children.get(&span.id).map(Vec::as_slice).unwrap_or(&[]);
            let covered: f64 = kids.iter().map(|&k| spans[k].secs()).sum();
            add(label, span.secs() - covered);
            stack.extend(kids.iter().map(|&k| (&spans[k], spans[k].name)));
        }
    }
    let n = roots.max(1) as f64;
    SelfTimes {
        roots,
        root_mean: root_total / n,
        rows: totals.into_iter().map(|(name, t)| (name, t / n)).collect(),
    }
}
