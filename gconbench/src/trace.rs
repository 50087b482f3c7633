//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into each
//! layer's public functions (name, start, end, parent, request id), kept in
//! memory, and written out as JSON lines when the run ends. A disabled
//! tracer records nothing and costs one branch per call.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span (unique within one tracer).
pub type SpanId = u32;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub name: &'static str,
    /// Request (or training, or edit) the span belongs to.
    pub req: u64,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            next: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id to
    /// pass as the parent of nested spans (`None` when tracing is off).
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        if !self.enabled {
            return f(None);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(Some(id));
        self.push(Span {
            id,
            parent,
            name,
            req,
            start_ns: self.ns(start),
            end_ns: self.ns(Instant::now()),
        });
        out
    }

    /// Records a span from timestamps taken elsewhere (the load generator
    /// stamps every request anyway); returns its id for children.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.push(Span { id, parent, name, req, start_ns: self.ns(start), end_ns: self.ns(end) });
        Some(id)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("tracer lock poisoned").push(span);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("tracer lock poisoned").clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, s.req, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per-name totals: calls, summed duration and summed self time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerTime {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children count once). Returned in
/// the order of `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else { return s.dur_ns() };
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// [`self_times`] summed per span name.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += self_ns;
    }
    out
}

/// Durations in nanoseconds of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, name: &'static str, a: u64, b: u64) -> Span {
        Span { id, parent, name, req: 0, start_ns: a, end_ns: b }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, "root", 0, 100),
            span(2, Some(1), "a", 10, 30),
            span(3, Some(1), "b", 20, 50), // overlaps `a`: 10..50 covered once
            span(4, Some(1), "a", 60, 70),
            span(5, Some(2), "leaf", 12, 15),
            span(6, Some(1), "late", 95, 120), // clipped to the parent's end
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10 - 5, 17, 30, 10, 3, 25]);
        let layers = layer_times(&spans);
        assert_eq!(layers["a"], LayerTime { calls: 2, total_ns: 30, self_ns: 27 });
        assert_eq!(layers["root"].self_ns, 45);
        // Self times of a tree add up to the root's duration, plus whatever
        // overlapping siblings share (`a` and `b` overlap by 10 ns).
        let tree: u64 = self_times(&spans[..5]).iter().sum();
        assert_eq!(tree, 100 + 10);
    }

    #[test]
    fn nested_tracer_spans_link_to_their_parent() {
        let tr = Tracer::new(true);
        let v = tr.span("outer", None, 7, |outer| {
            tr.span("inner", outer, 7, |_| std::thread::sleep(std::time::Duration::from_millis(2)));
            42
        });
        assert_eq!(v, 42);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        let (inner, outer) = (&spans[0], &spans[1]);
        assert_eq!((inner.name, outer.name), ("inner", "outer"));
        assert_eq!(inner.parent, Some(outer.id));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        let selfs = self_times(&spans);
        assert_eq!(selfs[1], outer.dur_ns() - inner.dur_ns());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::new(false);
        tr.span("x", None, 0, |parent| assert_eq!(parent, None));
        assert!(tr.record("y", None, 0, Instant::now(), Instant::now()).is_none());
        assert!(tr.spans().is_empty());
    }
}
