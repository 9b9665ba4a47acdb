//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The program is not instrumented for this: every span opens and closes
//! in the benchmark's own code, around a public call. Spans stay in memory
//! and are written out once, when the traced pass ends.
//!
//! A layer's *self time* is its span's duration minus the part of that
//! interval covered by its child spans. The self times of a span tree sum
//! to the root's duration exactly, which is what lets the per-layer table
//! account for the whole wall time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub id: usize,
    pub parent: Option<usize>,
    /// Operation the span belongs to: spans of one op share it.
    pub op: usize,
    /// Recording thread (the serve workload traces two clients).
    pub thread: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread.
pub struct Tracer {
    epoch: Instant,
    thread: usize,
    op: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant, thread: usize) -> Tracer {
        Tracer {
            epoch,
            thread,
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested under the innermost
    /// open span. A span opened with no parent starts a new op.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        if parent.is_none() {
            self.op += 1;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent,
            op: self.op,
            thread: self.thread,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "tracer dropped with open spans");
        self.spans
    }
}

/// Merge spans from several tracers into one list with globally unique ids.
pub fn merge(parts: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out = Vec::new();
    for part in parts {
        let base = out.len();
        out.extend(part.into_iter().map(|mut s| {
            s.id += base;
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cur): (u64, Option<(u64, u64)>) = (0, None);
    for (s, e) in intervals {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of every span, indexed by span id.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.duration_ns() - covered(kids, s.start_ns, s.end_ns))
        .collect()
}

/// Per-name totals: call count and summed self time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotal {
    pub calls: u64,
    pub self_ns: u64,
}

/// Sum self times by span name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, LayerTotal> {
    let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.self_ns += self_ns;
    }
    out
}

/// Chrome trace-event JSON (`ph: "X"` complete events), loadable in
/// Perfetto or `chrome://tracing`. `extra` is spliced in as additional
/// top-level members (already rendered JSON, without braces).
pub fn to_chrome_json(spans: &[Span], extra: &str) -> String {
    let mut out = String::from("{");
    if !extra.is_empty() {
        out.push_str(extra);
        out.push(',');
    }
    out.push_str("\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"op\":{},\"id\":{},\"parent\":{}}}}}",
            s.name,
            s.thread,
            s.start_ns as f64 / 1e3,
            s.duration_ns() as f64 / 1e3,
            s.op,
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: usize, parent: Option<usize>, s: u64, e: u64) -> Span {
        Span {
            name,
            id,
            parent,
            op: 1,
            thread: 0,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        // root [0,100) with children [10,30) and [50,90); the second child
        // has a grandchild [60,70).
        let spans = vec![
            span("root", 0, None, 0, 100),
            span("a", 1, Some(0), 10, 30),
            span("b", 2, Some(0), 50, 90),
            span("c", 3, Some(2), 60, 70),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 30, 10]);
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, spans[0].duration_ns(), "self times tile the root");
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two children from parallel work overlap on [20,30): the covered
        // part of the parent is their union, 25 ns.
        let spans = vec![
            span("root", 0, None, 0, 50),
            span("x", 1, Some(0), 10, 30),
            span("y", 2, Some(0), 20, 35),
        ];
        assert_eq!(self_times(&spans)[0], 25);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![
            span("root", 0, None, 10, 20),
            span("late", 1, Some(0), 15, 40),
        ];
        assert_eq!(self_times(&spans)[0], 5);
    }

    #[test]
    fn tracer_nests_and_groups_ops() {
        let mut t = Tracer::new(Instant::now(), 0);
        t.span("op", |t| {
            t.span("inner", |_| ());
            t.span("inner", |_| ());
        });
        t.span("op", |_| ());
        let spans = t.into_spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].op, 2);
        let totals = by_name(&spans);
        assert_eq!(totals["inner"].calls, 2);
        assert_eq!(totals["op"].calls, 2);
        let merged = merge(vec![spans.clone(), spans]);
        assert_eq!(merged[5].parent, Some(4));
    }
}
