//! Wall-time spans around the benchmark's calls into each layer.
//!
//! Every call the workloads make into a layer goes through
//! [`Probe::span`]. With tracing off the call runs bare, so the end-to-end
//! numbers carry no instrumentation. With tracing on each call is timed,
//! nested calls are subtracted from their parent's self time (the tuner's
//! callbacks from `gen.tune`), and every span is kept in memory for the
//! Chrome-trace export at the end of the run. Counts are kept in both modes:
//! they are cheap, and the runner checks that they repeat from pass to pass.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One finished wall-time interval, relative to the probe's origin.
#[derive(Debug, Clone)]
pub struct WallSpan {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
}

/// Per-pass totals of one layer span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Inclusive time of every call.
    pub total: Duration,
    /// `total` less the time of nested calls.
    pub self_time: Duration,
}

/// What one pass recorded.
#[derive(Debug, Clone, Default)]
pub struct PassRecord {
    pub layers: BTreeMap<&'static str, LayerTime>,
    /// Time inside outermost layer calls (what the layers account for).
    pub covered: Duration,
    pub counts: BTreeMap<&'static str, u64>,
}

#[derive(Debug)]
struct Inner {
    traced: bool,
    origin: Instant,
    /// Child time accumulated by each open span.
    stack: Vec<Duration>,
    pass: PassRecord,
    spans: Vec<WallSpan>,
}

/// The benchmark's own tracer; see the module docs.
#[derive(Debug)]
pub struct Probe {
    inner: RefCell<Inner>,
}

impl Probe {
    pub fn new() -> Self {
        Probe {
            inner: RefCell::new(Inner {
                traced: false,
                origin: Instant::now(),
                stack: Vec::new(),
                pass: PassRecord::default(),
                spans: Vec::new(),
            }),
        }
    }

    /// Turns layer timing on or off for the calls that follow.
    pub fn set_traced(&self, traced: bool) {
        self.inner.borrow_mut().traced = traced;
    }

    /// Runs `f`, one call into layer `name`, timing it when traced.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = {
            let mut inner = self.inner.borrow_mut();
            if !inner.traced {
                drop(inner);
                return f();
            }
            inner.stack.push(Duration::ZERO);
            Instant::now()
        };
        let result = f();
        let end = Instant::now();
        let mut inner = self.inner.borrow_mut();
        let children = inner.stack.pop().expect("span stack underflow");
        let took = end - start;
        match inner.stack.last_mut() {
            Some(parent) => *parent += took,
            None => inner.pass.covered += took,
        }
        let layer = inner.pass.layers.entry(name).or_default();
        layer.total += took;
        layer.self_time += took.saturating_sub(children);
        drop(inner);
        self.mark(name, start, end);
        result
    }

    /// Adds `n` to count `name`.
    pub fn count(&self, name: &'static str, n: u64) {
        *self.inner.borrow_mut().pass.counts.entry(name).or_default() += n;
    }

    /// Records an interval timed by the caller (units and passes, which
    /// are measured in both modes) as a span for the trace export.
    pub fn mark(&self, name: &'static str, start: Instant, end: Instant) {
        let mut inner = self.inner.borrow_mut();
        if inner.traced {
            let origin = inner.origin;
            inner.spans.push(WallSpan {
                name,
                start: start - origin,
                end: end - origin,
            });
        }
    }

    /// Drops any spans a panicking call left open.
    pub fn unwind_to(&self, depth: usize) {
        self.inner.borrow_mut().stack.truncate(depth);
    }

    pub fn depth(&self) -> usize {
        self.inner.borrow().stack.len()
    }

    /// Returns and resets what the current pass recorded.
    pub fn take_pass(&self) -> PassRecord {
        std::mem::take(&mut self.inner.borrow_mut().pass)
    }

    /// Every span recorded so far, in completion order.
    pub fn take_spans(&self) -> Vec<WallSpan> {
        std::mem::take(&mut self.inner.borrow_mut().spans)
    }
}
