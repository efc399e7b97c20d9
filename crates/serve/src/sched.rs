//! Pluggable request-level scheduling and the dynamic-batching policy.
//!
//! These order **requests onto devices** — a different axis from the
//! block-issue [`SchedPolicy`](cusync_sim::SchedPolicy) inside the
//! simulator, which orders thread blocks onto SMs *within* one pipeline
//! run. A serving cell picks one of each.

use cusync_sim::SimTime;
use std::fmt;

/// Which tenant's queue a freed device serves next.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestSched {
    /// Oldest head-of-queue request first (global arrival order).
    Fifo,
    /// Earliest deadline first: the head request closest to violating its
    /// SLO wins — the canonical latency-SLO scheduler.
    Edf,
    /// Per-tenant weighted fair queueing: the tenant with the least
    /// weight-normalized service consumed so far wins, so a heavy tenant
    /// cannot starve a light one.
    WeightedFair,
}

impl RequestSched {
    /// All built-in schedulers, the sweep axis of the `BENCH_PR5.json` and
    /// `BENCH_PR6.json` documents.
    pub const ALL: [RequestSched; 3] = [
        RequestSched::Fifo,
        RequestSched::Edf,
        RequestSched::WeightedFair,
    ];

    /// Stable lowercase name (JSON key).
    pub fn name(&self) -> &'static str {
        match self {
            RequestSched::Fifo => "fifo",
            RequestSched::Edf => "edf",
            RequestSched::WeightedFair => "wfq",
        }
    }
}

impl fmt::Display for RequestSched {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Dynamic batching: coalesce up to `max_batch` queued requests of one
/// tenant into a single pre-compiled wide pipeline execution.
///
/// A partial batch dispatches once its oldest member has waited `window`;
/// a full batch dispatches immediately. `BatchPolicy::off()` (width 1,
/// zero window) is the no-batching baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Maximum coalesced requests per dispatch (also the largest compiled
    /// batch width the pool warms).
    pub max_batch: u32,
    /// How long a partial batch may hold a free device slot waiting for
    /// more arrivals.
    pub window: SimTime,
}

impl BatchPolicy {
    /// No batching: every request dispatches alone, immediately.
    pub fn off() -> Self {
        BatchPolicy {
            max_batch: 1,
            window: SimTime::ZERO,
        }
    }

    /// Batch up to `max_batch` requests, waiting at most `window` to fill
    /// a partial batch.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero.
    pub fn new(max_batch: u32, window: SimTime) -> Self {
        assert!(max_batch > 0, "max_batch must be positive");
        BatchPolicy { max_batch, window }
    }

    /// Whether this policy ever coalesces.
    pub fn enabled(&self) -> bool {
        self.max_batch > 1
    }
}

impl fmt::Display for BatchPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.enabled() {
            write!(f, "batch{}w{}", self.max_batch, self.window)
        } else {
            f.write_str("nobatch")
        }
    }
}

/// How decode-capable tenants ([`ModelKind::DecodeLlm`](crate::ModelKind))
/// execute their token-generation phase.
///
/// With `continuous` off, a decode batch is dispatched like any other
/// batch: its width is fixed at admission and the device is held for the
/// *longest* member's full prefill + decode — the padded static-width
/// baseline, whose worst-case KV footprint is preallocated up front (the
/// block pool is bypassed). With `continuous` on, the dispatcher re-forms
/// the running batch at every decode-step boundary (vLLM-style continuous
/// batching): finished sequences leave and release their KV pages, queued
/// requests join mid-run, and each sequence grows its paged KV allocation
/// from the device's block pool — a step that cannot get blocks evicts
/// retained pages, then preempts the youngest co-resident sequence for
/// later recompute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodePolicy {
    /// Re-form the batch at every decode-step boundary instead of riding
    /// admission-time batches.
    pub continuous: bool,
    /// Tokens per KV-cache block (page): a sequence at context length `c`
    /// holds `⌈c / block_tokens⌉` blocks.
    pub block_tokens: u32,
    /// Share of each device's DRAM given to the KV block pool, in
    /// permille (exact integer sizing; 500 = half the DRAM).
    pub kv_permille: u32,
}

impl DecodePolicy {
    /// The static-width baseline: admission-time batches, padded to the
    /// longest member, worst-case KV preallocated.
    pub fn static_width() -> Self {
        DecodePolicy {
            continuous: false,
            block_tokens: 16,
            kv_permille: 500,
        }
    }

    /// Continuous batching over 16-token KV blocks from half of each
    /// device's DRAM.
    pub fn continuous_batching() -> Self {
        DecodePolicy {
            continuous: true,
            ..DecodePolicy::static_width()
        }
    }

    /// A fully explicit policy.
    ///
    /// # Panics
    ///
    /// Panics if `block_tokens` is zero or `kv_permille` exceeds 1000.
    pub fn new(continuous: bool, block_tokens: u32, kv_permille: u32) -> Self {
        assert!(block_tokens > 0, "block_tokens must be positive");
        assert!(kv_permille <= 1000, "kv_permille must be at most 1000");
        DecodePolicy {
            continuous,
            block_tokens,
            kv_permille,
        }
    }
}

impl fmt::Display for DecodePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}b{}kv{}",
            if self.continuous { "cont" } else { "static" },
            self.block_tokens,
            self.kv_permille
        )
    }
}

/// Cross-tenant preemption: when configured and no device is free, a
/// ready [`Latency`](crate::TenantClass::Latency) tenant checkpoints the
/// running [`Throughput`](crate::TenantClass::Throughput) batch with the
/// most service remaining at its **next kernel boundary** (the simulator
/// reports the boundary via `Session::run_until`), takes the device, and
/// the victim's remainder is requeued as a resumable residue.
///
/// Resuming a residue pays `overhead` of extra device time (checkpoint
/// restore: re-loading activations and semaphore state), accounted in
/// [`TenantMetrics::preempt_overhead`](crate::TenantMetrics). While
/// preemption is on, ready latency-class tenants also take absolute
/// priority over throughput-class tenants at dispatch, whatever the
/// [`RequestSched`] — preemption would be self-defeating otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PreemptPolicy {
    /// Extra device time paid each time a checkpointed residue resumes.
    pub overhead: SimTime,
}

impl PreemptPolicy {
    /// Preemption with the given resume overhead.
    pub fn new(overhead: SimTime) -> Self {
        PreemptPolicy { overhead }
    }
}

impl fmt::Display for PreemptPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "preempt+{}", self.overhead)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(RequestSched::Fifo.name(), "fifo");
        assert_eq!(RequestSched::Edf.to_string(), "edf");
        assert_eq!(RequestSched::WeightedFair.name(), "wfq");
        assert_eq!(RequestSched::ALL.len(), 3);
    }

    #[test]
    fn off_policy_is_width_one() {
        assert!(!BatchPolicy::off().enabled());
        assert!(BatchPolicy::new(8, SimTime::from_micros(100.0)).enabled());
    }

    #[test]
    #[should_panic(expected = "max_batch")]
    fn zero_width_rejected() {
        BatchPolicy::new(0, SimTime::ZERO);
    }

    #[test]
    fn decode_policy_constructors_and_names() {
        assert!(!DecodePolicy::static_width().continuous);
        assert!(DecodePolicy::continuous_batching().continuous);
        assert_eq!(
            DecodePolicy::new(true, 8, 250),
            DecodePolicy {
                continuous: true,
                block_tokens: 8,
                kv_permille: 250
            }
        );
        assert_eq!(DecodePolicy::new(true, 8, 250).to_string(), "contb8kv250");
        assert_eq!(DecodePolicy::static_width().to_string(), "staticb16kv500");
    }

    #[test]
    #[should_panic(expected = "block_tokens")]
    fn zero_block_tokens_rejected() {
        DecodePolicy::new(true, 0, 500);
    }

    #[test]
    #[should_panic(expected = "kv_permille")]
    fn overfull_kv_share_rejected() {
        DecodePolicy::new(true, 16, 1001);
    }
}
