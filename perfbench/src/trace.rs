//! In-memory span recording around the calls into each layer.
//!
//! Spans are taken by the benchmark's own files, from outside the
//! program: a span opens before a call into a layer's public function
//! and closes after it returns. Everything runs on the driver thread,
//! so the open-span stack gives each span its parent. Spans of one
//! cycle iteration, batch or request share an operation id.
//!
//! With the tracer disabled, [`Tracer::span`] is one branch and the
//! call; end-to-end numbers are measured that way.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `store.save_batch`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Shared by all spans of one iteration / batch / request.
    pub op: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// What one span name added up to over a range of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Summed span time.
    pub busy_ns: u64,
    /// Summed span time minus the time of direct children.
    pub self_ns: u64,
    /// Number of spans.
    pub count: u64,
    /// Longest single span.
    pub max_ns: u64,
}

/// The span recorder. One per process, shared by `Rc`.
pub struct Tracer {
    enabled: Cell<bool>,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<u32>>,
    op: Cell<u64>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// A disabled tracer.
    pub fn new() -> Tracer {
        Tracer {
            enabled: Cell::new(false),
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            op: Cell::new(0),
        }
    }

    /// Turn recording on or off (between rounds, never inside a span).
    pub fn set_enabled(&self, on: bool) {
        debug_assert!(self.stack.borrow().is_empty());
        self.enabled.set(on);
    }

    /// Start a new operation: spans recorded from here on carry a fresh
    /// operation id.
    pub fn next_op(&self) {
        self.op.set(self.op.get() + 1);
    }

    /// Run `f` under a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled.get() {
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            let index = spans.len() as u32;
            spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent: self.stack.borrow().last().copied(),
                op: self.op.get(),
            });
            index
        };
        self.stack.borrow_mut().push(index);
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.stack.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[index as usize].start_ns = start;
        spans[index as usize].end_ns = end;
        out
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Nothing recorded yet?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Totals per span name over the spans recorded from index `from`
    /// on. A parent outside the range still has its children's time
    /// subtracted only if it is inside, which is what a per-round
    /// summary wants: rounds never share spans.
    pub fn totals_since(&self, from: usize) -> BTreeMap<&'static str, NameTotals> {
        let spans = self.spans.borrow();
        let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
        for span in &spans[from..] {
            if let Some(parent) = span.parent {
                *child_ns.entry(parent).or_default() += span.dur_ns();
            }
        }
        let mut totals: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (offset, span) in spans[from..].iter().enumerate() {
            let index = (from + offset) as u32;
            let dur = span.dur_ns();
            let t = totals.entry(span.name).or_default();
            t.busy_ns += dur;
            t.self_ns += dur.saturating_sub(child_ns.get(&index).copied().unwrap_or(0));
            t.count += 1;
            t.max_ns = t.max_ns.max(dur);
        }
        totals
    }

    /// Summed duration of the spans recorded from `from` on that have
    /// no parent: the part of a round's wall time the layers account
    /// for.
    pub fn root_ns_since(&self, from: usize) -> u64 {
        self.spans.borrow()[from..]
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::dur_ns)
            .sum()
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// A copy of the spans (tests and the trace file).
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// The trace as JSON: `{"workload":..,"spans":[{name,start_ns,end_ns,parent,op},..]}`.
    pub fn to_json(&self, workload: &str) -> String {
        let spans = self.spans.borrow();
        let mut out = String::with_capacity(64 + spans.len() * 96);
        let _ = write!(out, "{{\"workload\":\"{workload}\",\"spans\":[");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                s.op
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new();
        assert_eq!(t.span("a", || 7), 7);
        assert!(t.is_empty());
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let t = Tracer::new();
        t.set_enabled(true);
        t.next_op();
        t.span("outer", || {
            t.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("inner", || ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 1));
        let totals = t.totals_since(0);
        let outer = totals["outer"];
        let inner = totals["inner"];
        assert_eq!(inner.count, 2);
        assert_eq!(outer.self_ns, outer.busy_ns - inner.busy_ns);
        assert_eq!(t.root_ns_since(0), outer.busy_ns);
        assert!(iokc_util::json::parse(&t.to_json("w")).is_ok());
    }
}
