//! The benchmark's own spans: one per call it makes into a layer's public
//! functions. Spans stay in memory and are written as JSONL when the run
//! ends. Recording is off in end-to-end runs; a disabled tracer hands out
//! guards that do nothing.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One finished (or still open, `end_ns == 0`) span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within the run, starting at 1.
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// Shared by every span of one cycle, query or probe.
    pub trace: u64,
    /// The layer call this span covers.
    pub name: &'static str,
    /// Start, in ns since the tracer was made.
    pub start_ns: u64,
    /// End, in ns since the tracer was made.
    pub end_ns: u64,
}

/// A single-threaded span recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    next_trace: Cell<u64>,
}

/// Closes its span when dropped.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    index: Option<usize>,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(i) = self.index {
            let end = self.tracer.now_ns();
            self.tracer.spans.borrow_mut()[i].end_ns = end;
            self.tracer.stack.borrow_mut().pop();
        }
    }
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            next_trace: Cell::new(0),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one. A span opened with no
    /// span open starts a new trace id.
    pub fn span(&self, name: &'static str) -> Guard<'_> {
        if !self.enabled {
            return Guard {
                tracer: self,
                index: None,
            };
        }
        let mut spans = self.spans.borrow_mut();
        let mut stack = self.stack.borrow_mut();
        let (parent, trace) = match stack.last() {
            Some(&p) => (Some(spans[p].id), spans[p].trace),
            None => {
                let t = self.next_trace.get() + 1;
                self.next_trace.set(t);
                (None, t)
            }
        };
        let index = spans.len();
        spans.push(Span {
            id: index as u64 + 1,
            parent,
            trace,
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        stack.push(index);
        Guard {
            tracer: self,
            index: Some(index),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let _g = self.span(name);
        f()
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Writes spans as JSON lines.
pub fn write_jsonl(spans: &[Span], out: &mut impl Write) -> std::io::Result<()> {
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"trace\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, parent, s.trace, s.name, s.start_ns, s.end_ns
        )?;
    }
    Ok(())
}

/// Per-span-name totals: calls, summed duration and summed self time (the
/// duration minus the part of it the span's children cover).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Finished spans with this name.
    pub calls: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
}

/// Self time of every span, aggregated by name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans
        .iter()
        .filter(|s| s.end_ns >= s.start_ns && s.end_ns > 0)
    {
        let dur = s.end_ns - s.start_ns;
        let covered = children
            .get(&s.id)
            .map_or(0, |c| union_len(c, s.start_ns, s.end_ns));
        let e = out.entry(s.name).or_default();
        e.calls += 1;
        e.total_ns += dur;
        e.self_ns += dur.saturating_sub(covered);
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_len(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut iv: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| b > a)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            trace: 1,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, "cycle", 0, 100),
            span(2, Some(1), "collect", 10, 40),
            span(3, Some(1), "estimate", 30, 50), // overlaps collect
            span(4, Some(2), "inner", 12, 20),
        ];
        let t = self_times(&spans);
        assert_eq!(t["cycle"].self_ns, 60);
        assert_eq!(t["collect"].self_ns, 22);
        assert_eq!(t["estimate"].self_ns, 20);
        assert_eq!(t["inner"].total_ns, 8);
    }

    #[test]
    fn nested_guards_share_a_trace_and_root_spans_start_new_ones() {
        let tr = Tracer::new(true);
        {
            let _a = tr.span("a");
            let _b = tr.span("b");
        }
        tr.time("c", || ());
        let s = tr.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(s[0].id));
        assert_eq!(s[1].trace, s[0].trace);
        assert_eq!(s[2].parent, None);
        assert_ne!(s[2].trace, s[0].trace);
        assert!(s.iter().all(|x| x.end_ns >= x.start_ns));
        let off = Tracer::new(false);
        off.time("x", || ());
        assert!(off.spans().is_empty());
    }
}
