//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each
//! crate's public functions (the program itself carries no spans). Each
//! span has a name, a start and an end on one shared clock, the index of
//! the span that caused it, and an id shared by every span of one
//! serving request. Nothing is written until the run ends.
//!
//! A layer's self time is its span's duration minus the part of that
//! interval its child spans cover (the union of the child intervals, so
//! overlapping pipelined requests are not double counted). Spans named
//! `bench.*` wrap the benchmark's own phases and count toward no layer.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Request id for serving spans, 0 elsewhere.
    pub id: u64,
}

/// Name prefixes of spans around calls into the crates under test; any
/// other span is the benchmark's own (a root or a `bench.*` wrapper).
pub const LAYER_PREFIXES: [&str; 6] = ["serve.", "ssnn.", "snn.", "sim.", "core.", "arch."];

fn is_layer(name: &str) -> bool {
    LAYER_PREFIXES.iter().any(|p| name.starts_with(p))
}

/// Per-name totals over all spans of that name.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// A span recorder; when off, [`Tracer::span`] just runs its closure.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant) -> Self {
        Self {
            on,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// The clock zero every span is measured from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`; spans opened inside `f` become
    /// its children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            id: 0,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.ns(Instant::now());
        out
    }

    /// Records an already-measured interval under the innermost open span
    /// (or under `parent` when given); returns its index, `None` when off.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        id: u64,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: parent.or_else(|| self.open.last().copied()),
            id,
        };
        self.spans.push(span);
        Some(self.spans.len() - 1)
    }

    /// Adopts the spans another recorder (same origin) made on another
    /// thread; its root spans become children of the innermost open span.
    pub fn adopt(&mut self, other: Tracer) {
        let base = self.spans.len();
        let under = self.open.last().copied();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(under);
            s
        }));
    }

    /// Self and total time per span name.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let covered = union_ns(children[i].iter().map(|&c| {
                let c = &self.spans[c];
                (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
            }));
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(covered);
        }
        out
    }

    /// The layer self time summed over the end-to-end wall time: the share
    /// of the named root span's duration during which some layer span
    /// runs. A layer span is one named after a crate ([`LAYER_PREFIXES`]);
    /// the benchmark's own phase wrappers (`bench.*`) and the gaps between
    /// calls count as uncovered. Concurrent layer spans (pipelined requests,
    /// two connections) count once, so the share stays within 0..=1.
    pub fn coverage(&self, root: &'static str) -> f64 {
        let Some(r) = self
            .spans
            .iter()
            .find(|s| s.name == root && s.parent.is_none())
        else {
            return 0.0;
        };
        let covered = union_ns(
            self.spans
                .iter()
                .filter(|s| is_layer(s.name))
                .map(|c| (c.start_ns.max(r.start_ns), c.end_ns.min(r.end_ns))),
        );
        let dur = r.end_ns.saturating_sub(r.start_ns);
        if dur == 0 {
            0.0
        } else {
            covered as f64 / dur as f64
        }
    }

    /// The spans and the per-layer self-time table as one JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"layers\": {");
        for (i, (name, t)) in self.layer_times().iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                t.count, t.total_ns, t.self_ns
            );
        }
        s.push_str("}, \"spans\": [");
        for (i, sp) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let parent = sp.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                s,
                "{sep}[\"{}\", {}, {}, {parent}, {}]",
                sp.name, sp.start_ns, sp.end_ns, sp.id
            );
        }
        s.push_str("]}\n");
        s
    }
}

/// Length of the union of half-open intervals.
fn union_ns(intervals: impl Iterator<Item = (u64, u64)>) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals.filter(|(a, b)| b > a).collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in v {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_ns([(0, 10), (5, 15), (20, 25)].into_iter()), 20);
        assert_eq!(union_ns(std::iter::empty()), 0);
    }

    #[test]
    fn coverage_counts_layer_spans_once_and_skips_wrappers() {
        let origin = Instant::now();
        let at = |ns: u64| origin + std::time::Duration::from_nanos(ns);
        let mut t = Tracer::new(true, origin);
        t.spans.push(Span {
            name: "root",
            start_ns: 0,
            end_ns: 100,
            parent: None,
            id: 0,
        });
        t.open.push(0);
        let wrapper = t.record("bench.phase", at(0), at(100), None, 0);
        t.record("serve.rtt", at(10), at(40), wrapper, 1);
        t.record("serve.rtt", at(20), at(50), wrapper, 2);
        t.record("ssnn.predict_packed", at(60), at(70), wrapper, 1);
        assert!((t.coverage("root") - 0.5).abs() < 1e-12);
    }
}
