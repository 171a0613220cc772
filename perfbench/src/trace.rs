//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions. Nothing inside the program is instrumented:
//! a span is the wall time of one call as the caller sees it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `fgfft.bitrev`.
    pub name: &'static str,
    /// The op (mix pass, request, simulator cycle) the call belongs to.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub start: Instant,
    pub end: Instant,
}

/// Spans of one run, kept in memory and written out when the run ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    /// Record a finished span; returns its index for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name,
            op,
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Open a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, op, parent, now, now)
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end = Instant::now();
    }

    /// Time `f` as a leaf span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let out = f();
        self.record(name, op, parent, start, Instant::now());
        out
    }

    /// Per op, the summed duration in µs of every span named `name`, in
    /// op order (ops without such a span are absent).
    pub fn per_op_us(&self, name: &str) -> Vec<f64> {
        let mut sums: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *sums.entry(s.op).or_default() += crate::stats::us(s.end - s.start);
        }
        sums.into_values().collect()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write every span as a JSON array of
    /// `{"name", "op", "parent", "start_ns", "end_ns"}` objects, times
    /// relative to the run's origin.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos();
        let mut out = String::with_capacity(self.spans.len() * 96 + 4);
        out.push_str("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"op\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}{sep}",
                s.name,
                s.op,
                parent,
                ns(s.start),
                ns(s.end)
            );
        }
        out.push_str("]\n");
        std::fs::write(path, out)
    }
}
