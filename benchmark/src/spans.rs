//! An in-memory span recorder for the traced run: the benchmark wraps
//! each call into a layer in a span, keeps the spans until the run
//! ends, and derives per-layer self times from them.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::json::Value;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one benchmark op share an identifier.
    pub op_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op_id: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), op_id: 0 }
    }

    /// Spans recorded from now on belong to the next op.
    pub fn next_op(&mut self) {
        self.op_id += 1;
    }

    /// Run `f` inside a span named `name`, a child of the span open at
    /// the call.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            op_id: self.op_id,
        });
        self.open.push(index);
        self.spans[index].start_ns = self.origin.elapsed().as_nanos() as u64;
        let result = f(self);
        self.spans[index].end_ns = self.origin.elapsed().as_nanos() as u64;
        self.open.pop();
        result
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per line; a span's `id` is its line number
    /// (from 0), which `parent` refers to.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let line = Value::obj([
                ("id", Value::Num(id as f64)),
                ("name", Value::str(span.name)),
                ("start_ns", Value::Num(span.start_ns as f64)),
                ("end_ns", Value::Num(span.end_ns as f64)),
                ("parent", span.parent.map_or(Value::Null, |p| Value::Num(p as f64))),
                ("op_id", Value::Num(span.op_id as f64)),
                ("workload", Value::str(workload)),
            ]);
            writeln!(out, "{}", line.to_line())?;
        }
        out.flush()
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its child spans cover (children are clipped to the parent and
/// overlapping children are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let (lo, hi) = (span.start_ns.max(spans[p].start_ns), span.end_ns.min(spans[p].end_ns));
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(span, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, span.start_ns);
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Per span name: every recorded duration and every self time, in ns.
#[derive(Default)]
pub struct LayerTimes {
    pub total_ns: Vec<f64>,
    pub self_ns: Vec<f64>,
}

pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, LayerTimes> {
    let selfs = self_times_ns(spans);
    let mut out: BTreeMap<&'static str, LayerTimes> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(selfs) {
        let entry = out.entry(span.name).or_default();
        entry.total_ns.push(span.duration_ns() as f64);
        entry.self_ns.push(self_ns as f64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, op_id: 1 }
    }

    #[test]
    fn self_time_is_duration_minus_covered_children() {
        let spans = [
            span("op", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 50, 90, Some(0)),
            span("b.inner", 60, 70, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 30, 30, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once_and_clipped() {
        let spans = [
            span("op", 100, 200, None),
            span("a", 110, 150, Some(0)),
            span("b", 140, 160, Some(0)), // overlaps a by 10
            span("c", 190, 250, Some(0)), // overhangs the parent by 50
            span("d", 120, 130, Some(0)), // inside a
        ];
        // covered: [110,160) = 50 and [190,200) = 10.
        assert_eq!(self_times_ns(&spans)[0], 40);
    }

    #[test]
    fn tracer_nests_spans_and_groups_them_by_name() {
        let mut t = Tracer::new();
        for _ in 0..3 {
            t.next_op();
            t.span("op", |t| {
                t.span("step", |_| std::hint::black_box((0..1000u64).sum::<u64>()));
            });
        }
        assert_eq!(t.spans().len(), 6);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[5].op_id, 3);
        let layers = by_name(t.spans());
        assert_eq!(layers["op"].total_ns.len(), 3);
        for (total, own) in layers["op"].total_ns.iter().zip(&layers["op"].self_ns) {
            assert!(own <= total);
        }
    }
}
