//! The benchmark's own span recorder.
//!
//! Spans are recorded by the benchmark around its calls into the
//! library, never inside the library: a span names the layer it enters
//! (`<layer>.<stage>`), its start and end on the run's clock, the span
//! that caused it and the request it belongs to. Spans stay in memory
//! and are written out once, when the run ends. A disabled tracer
//! records nothing, which is how the end-to-end timings are taken.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<stage>`, or `request.<kind>` for a request's root.
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Index of the causing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one request.
    pub request: u64,
    /// Counts measured at this boundary, keyed by layer metric name.
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span; `NONE` when tracing is off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

impl SpanId {
    const NONE: SpanId = SpanId(usize::MAX);
}

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    /// A recorder whose clock starts at `epoch`; `on == false` records
    /// nothing.
    pub fn new(on: bool, epoch: Instant) -> Self {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens the root span of a new request with id `request`.
    pub fn request(&mut self, name: &'static str, request: u64) -> SpanId {
        self.request = request;
        self.enter(name)
    }

    /// Opens a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId::NONE;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request: self.request,
            counts: Vec::new(),
        });
        self.open.push(self.spans.len() - 1);
        SpanId(self.spans.len() - 1)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        if id == SpanId::NONE {
            return;
        }
        assert_eq!(self.open.pop(), Some(id.0), "spans close innermost-first");
        self.spans[id.0].end_ns = self.now_ns();
    }

    /// Records an already-finished child of the innermost open span,
    /// for intervals whose end points are observed outside the tracer.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) -> SpanId {
        if !self.on {
            return SpanId::NONE;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: self.open.last().copied(),
            request: self.request,
            counts: Vec::new(),
        });
        SpanId(self.spans.len() - 1)
    }

    /// Adds `n` to the count `key` of span `id`.
    pub fn count(&mut self, id: SpanId, key: &'static str, n: f64) {
        if id != SpanId::NONE {
            self.spans[id.0].counts.push((key, n));
        }
    }

    /// Runs `f` inside a span named `name` that has no children.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// The clock origin of this tracer's spans.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Appends spans recorded by other tracers on the same epoch (e.g.
    /// client threads), rebasing their parent indices.
    pub fn adopt(&mut self, parts: Vec<Vec<Span>>) {
        let own = std::mem::take(&mut self.spans);
        let mut all = vec![own];
        all.extend(parts);
        self.spans = merge(all);
    }

    /// The recorded spans, consuming the tracer.
    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "every span was closed");
        self.spans
    }
}

/// Appends the spans of several tracers into one list, rebasing parent
/// indices.
pub fn merge(parts: Vec<Vec<Span>>) -> Vec<Span> {
    let mut all = Vec::new();
    for part in parts {
        let base = all.len();
        all.extend(part.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    all
}

/// Per-layer figures derived from a span list.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct LayerFigures {
    /// Self time in seconds per span name: the span's duration minus
    /// the part its child spans cover.
    pub self_s: BTreeMap<&'static str, f64>,
    /// Summed counts per metric name.
    pub counts: BTreeMap<&'static str, f64>,
    /// Share of request wall time covered by spans of library layers.
    pub coverage: f64,
}

/// Derives self times, counts and coverage. Spans of one thread never
/// overlap their siblings, so a span's children cover exactly the sum
/// of their durations.
pub fn derive(spans: &[Span]) -> LayerFigures {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut fig = LayerFigures::default();
    let (mut root_ns, mut covered_ns) = (0u64, 0u64);
    for (i, s) in spans.iter().enumerate() {
        let self_ns = s.dur_ns().saturating_sub(child_ns[i]);
        *fig.self_s.entry(s.name).or_default() += self_ns as f64 * 1e-9;
        for &(k, n) in &s.counts {
            *fig.counts.entry(k).or_default() += n;
        }
        if s.parent.is_none() {
            root_ns += s.dur_ns();
            covered_ns += child_ns[i];
        }
    }
    fig.coverage = if root_ns == 0 {
        0.0
    } else {
        covered_ns as f64 / root_ns as f64
    };
    fig
}

/// Writes one JSON object per span.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let counts: Vec<String> = s
            .counts
            .iter()
            .map(|(k, n)| format!("\"{k}\":{n}"))
            .collect();
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{},\"counts\":{{{}}}}}",
            s.name,
            s.start_ns,
            s.end_ns,
            s.request,
            counts.join(",")
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_coverage_counts_direct_children() {
        let spans = vec![
            Span {
                name: "request.x",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                request: 1,
                counts: vec![],
            },
            Span {
                name: "store.memoize",
                start_ns: 10,
                end_ns: 70,
                parent: Some(0),
                request: 1,
                counts: vec![("store.hits", 1.0)],
            },
            Span {
                name: "faultsim.campaign",
                start_ns: 20,
                end_ns: 60,
                parent: Some(1),
                request: 1,
                counts: vec![("faultsim.runs", 8.0)],
            },
        ];
        let fig = derive(&spans);
        assert!((fig.self_s["request.x"] - 40e-9).abs() < 1e-15);
        assert!((fig.self_s["store.memoize"] - 20e-9).abs() < 1e-15);
        assert!((fig.self_s["faultsim.campaign"] - 40e-9).abs() < 1e-15);
        assert_eq!(fig.counts["faultsim.runs"], 8.0);
        assert!((fig.coverage - 0.6).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let id = t.request("request.x", 1);
        t.count(id, "faultsim.runs", 1.0);
        t.leaf("lang.compile", || ());
        t.exit(id);
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn merge_rebases_parents() {
        let mut a = Tracer::new(true, Instant::now());
        let r = a.request("request.a", 1);
        a.leaf("lang.compile", || ());
        a.exit(r);
        let mut b = Tracer::new(true, Instant::now());
        let r = b.request("request.b", 2);
        b.leaf("lang.compile", || ());
        b.exit(r);
        let all = merge(vec![a.into_spans(), b.into_spans()]);
        assert_eq!(all[3].parent, Some(2));
        assert_eq!(all[1].parent, Some(0));
    }
}
