//! The span model: closed intervals of virtual time on a named lane.
//!
//! Everything the observability layer exports — Chrome traces, attribution
//! buckets, serve request lifecycles — is first rendered into [`Span`]s: a
//! `(lane, kind, name, start, end)` tuple in integer-picosecond virtual
//! time. Spans are *derived* from finished artifacts (an engine
//! [`TraceEvent`](cusync_sim::TraceEvent) buffer, a `ServeReport`), never
//! recorded inline by the engines, which is what keeps observation
//! provably passive: the engines' timelines are bit-identical with
//! tracing on or off (see `tests/engine_equivalence.rs`).

use cusync_sim::SimTime;

/// What a span's interval measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// A kernel's lifetime: first block issue to last block completion.
    Kernel,
    /// One thread block's SM residency.
    Block,
    /// A sem-wait spin: the block occupied its slot but made no progress
    /// (park to wake, wake including the observing poll).
    Spin,
    /// A launch-gate hold: the kernel was at its stream head but gated
    /// (PDL `AfterLaunchOf` or stream-serial `AfterCompletionOf`).
    GateHold,
    /// A `LinkSend` occupying the inter-device link.
    Link,
    /// A serve-layer request lifecycle phase (queue, batch, dispatch, …).
    Phase,
}

impl SpanKind {
    /// Stable lower-case label, used as the Chrome-trace `cat` field.
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Kernel => "kernel",
            SpanKind::Block => "block",
            SpanKind::Spin => "spin",
            SpanKind::GateHold => "gate",
            SpanKind::Link => "link",
            SpanKind::Phase => "phase",
        }
    }
}

/// The horizontal track a span renders on. One lane maps to one (or more,
/// if spans overlap) `chrome://tracing` thread rows.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Lane {
    /// Device-wide events: kernel lifetimes, gate holds.
    Device {
        /// Device index within the cluster.
        device: u32,
    },
    /// One SM of one device: block residency and spins.
    Sm {
        /// Device index within the cluster.
        device: u32,
        /// Global SM index (unique across the cluster).
        sm: u32,
    },
    /// The outbound inter-device link of one device.
    Link {
        /// Sending device index.
        device: u32,
    },
    /// A serve-layer tenant's request timeline.
    Tenant {
        /// Tenant name.
        tenant: String,
    },
}

/// One closed interval of virtual time on a lane.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Human-readable label (kernel name, `k0 (1,0,0)`, request id, …).
    pub name: String,
    /// What the interval measures.
    pub kind: SpanKind,
    /// Track the span renders on.
    pub lane: Lane,
    /// Interval start.
    pub start: SimTime,
    /// Interval end (`end >= start`; zero-width spans are legal).
    pub end: SimTime,
}

impl Span {
    /// Interval width.
    pub fn duration(&self) -> SimTime {
        self.end.saturating_sub(self.start)
    }
}
