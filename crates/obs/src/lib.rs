//! `cusync-obs` — passive, deterministic observability for the cuSync
//! simulator and serving stack.
//!
//! The layer is strictly *derived*: it consumes finished artifacts — an
//! engine's canonical [`TraceEvent`](cusync_sim::TraceEvent) buffer, a
//! [`RunReport`](cusync_sim::RunReport), a serve report — and never feeds
//! anything back into the machinery that produced them. That is what makes
//! the passivity guarantee testable: `tests/engine_equivalence.rs` asserts
//! the simulated timeline is bit-identical with tracing on or off, in both
//! the reference and the optimized engine.
//!
//! Three consumers are built on one span model ([`span`]):
//!
//! - [`timeline`] renders a trace into [`Span`]s (kernel lifetimes, block
//!   residency, sem-wait spins, gate holds, link transfers);
//! - [`chrome`] exports spans as catapult JSON for `chrome://tracing` /
//!   Perfetto, and re-validates exported documents;
//! - [`attr`] buckets every slot-picosecond of every device into
//!   {compute, sync-wait, link, idle} (plus a gate-hold overlay), per
//!   kernel and per dependence edge, and extracts the critical path —
//!   the analysis behind the paper's claim that fine-grained
//!   synchronization shrinks the sync-wait share of the schedule
//!   relative to stream serialization.

#![warn(missing_docs)]

pub mod attr;
pub mod chrome;
#[cfg(test)]
mod chrome_spec;
pub mod span;
pub mod timeline;

pub use attr::{
    Attribution, CriticalHop, CriticalPath, DeviceAttribution, EdgeAttribution, HopVia,
    KernelAttribution,
};
pub use chrome::{chrome_trace_json, validate_chrome_trace, ChromeTraceStats};
pub use span::{Lane, Span, SpanKind};
pub use timeline::collect_spans;
