//! Pluggable block-issue scheduling policies.
//!
//! The simulated block scheduler has always issued thread blocks in kernel
//! launch order (ties broken by stream priority) — the behaviour the paper
//! observes on Volta/Ampere GPUs (Section III-B) and the assumption the
//! wait-kernel protocol is built on. But that is one *point* in the space
//! of schedules real hardware may produce: Sorensen et al. ("Specifying
//! and Testing GPU Workgroup Progress Models") show inter-workgroup
//! blocking is only correct relative to a progress model, and Zhang et al.
//! observe far more aggressive reordering on real devices than any single
//! fixed order.
//!
//! This module lets one run replace that order. A [`SchedPolicy`] orders
//! the set of *issuable* kernels (ready, with unissued blocks) each
//! placement round; everything else — stream FIFO order, SM placement
//! (least-loaded first), occupancy accounting — is unchanged hardware
//! behaviour. There is one knob:
//! [`Session::set_sched`](crate::Session::set_sched). A session without
//! an override issues in the hardware launch order.
//!
//! The non-[`Fifo`] policies are schedule-space probes: each still
//! produces a deterministic timeline, identical across both
//! [`EngineMode`](crate::EngineMode)s, but different from the hardware
//! order's. See `crates/sim/src/explore.rs` for the exploration driver
//! built on top.
//!
//! # Determinism contract for implementations
//!
//! [`SchedPolicy::order`] must produce the same output for the same
//! *set* of candidates regardless of their incoming order (the two engine
//! modes enumerate candidates differently), and must depend only on the
//! [`SchedContext`] — never on interior mutability or ambient state. The
//! simplest way to satisfy this is a total-order sort with a full
//! tie-break, which is how every built-in policy is written.

use std::fmt;
use std::sync::Arc;

use crate::engine::{KernelRun, PipelineDesc};

/// Read-only view of the scheduling state a policy may consult: static
/// kernel metadata plus the per-kernel progress counters of the current
/// run.
pub struct SchedContext<'a> {
    pub(crate) desc: &'a PipelineDesc,
    pub(crate) runs: &'a [KernelRun],
}

impl fmt::Debug for SchedContext<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SchedContext")
            .field("kernels", &self.runs.len())
            .finish_non_exhaustive()
    }
}

impl SchedContext<'_> {
    /// Name of kernel `k`.
    pub fn name(&self, k: usize) -> &str {
        &self.desc.kernels[k].name
    }

    /// Stream priority of kernel `k` (higher issues first under the
    /// hardware order).
    pub fn priority(&self, k: usize) -> i32 {
        self.desc.kernels[k].priority
    }

    /// Device kernel `k`'s blocks occupy SMs on.
    pub fn device(&self, k: usize) -> u32 {
        self.desc.kernels[k].device
    }

    /// Total thread blocks of kernel `k`.
    pub fn total_blocks(&self, k: usize) -> u64 {
        self.desc.kernels[k].total
    }

    /// Blocks of kernel `k` currently parked busy-waiting on an unmet
    /// semaphore. This is the signal [`SemStarver`] keys on: a kernel
    /// whose resident blocks spin is likely to spin with its next blocks
    /// too.
    pub fn parked_blocks(&self, k: usize) -> u64 {
        self.runs[k].parked()
    }
}

/// A block-issue ordering policy: given the issuable kernels of one
/// placement round, decides the order in which they compete for SM slots.
///
/// Determinism contract: [`SchedPolicy::order`] must order the same *set*
/// of candidates identically whatever their incoming order, and depend
/// only on the [`SchedContext`]. Only [`Fifo`] preserves the bit-identity
/// contract with the original engine's timelines.
pub trait SchedPolicy: fmt::Debug + Send + Sync {
    /// Display name, used in exploration summaries and reports.
    fn name(&self) -> String;

    /// Reorders `candidates` (indexes of ready kernels with unissued
    /// blocks) into the order they should be offered SM capacity.
    fn order(&self, ctx: &SchedContext<'_>, candidates: &mut [usize]);
}

/// Shared handle to a scheduling policy.
pub type SchedPolicyRef = Arc<dyn SchedPolicy>;

/// SplitMix64: the one deterministic mixer the simulator derives
/// pseudo-randomness from — block duration jitter
/// ([`GpuConfig::block_jitter`](crate::GpuConfig)), seeded schedule
/// permutations ([`SeededShuffle`]), and seed-derived workload generators
/// all call this single definition, so "same seed, same outcome" holds
/// across every layer.
pub fn splitmix64(key: u64) -> u64 {
    let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a byte slice: the one stable structural digest the
/// simulator's consumers share (the benchmark harnesses' tuning-cache
/// shape keys and report and span digests).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The hardware launch order as a policy: higher stream priority first,
/// then kernel launch order. A session without an override already
/// issues in this order; setting `Fifo` explicitly sorts each round's
/// candidates through [`SchedPolicy::order`] by the same key, so the
/// timeline is the same.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fifo;

impl SchedPolicy for Fifo {
    fn name(&self) -> String {
        "Fifo".to_owned()
    }

    fn order(&self, ctx: &SchedContext<'_>, candidates: &mut [usize]) {
        candidates.sort_by_key(|&k| (std::cmp::Reverse(ctx.priority(k)), k));
    }
}

/// Reverse launch order within each priority class: the latest-launched
/// ready kernel issues first. Adversarial for the wait-kernel protocol,
/// which assumes producers (launched earlier) reach the SMs before their
/// consumers.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lifo;

impl SchedPolicy for Lifo {
    fn name(&self) -> String {
        "Lifo".to_owned()
    }

    fn order(&self, ctx: &SchedContext<'_>, candidates: &mut [usize]) {
        candidates.sort_by_key(|&k| (std::cmp::Reverse(ctx.priority(k)), std::cmp::Reverse(k)));
    }
}

/// A seeded pseudo-random permutation of the issuable kernels: kernel `k`
/// sorts by [`SeededShuffle::key`], a pure function of `(seed, kernel
/// id)`, so a given seed names one reproducible schedule — stream
/// priorities are deliberately ignored, as nothing in the CUDA
/// programming model promises cross-stream issue order.
#[derive(Debug, Clone, Copy)]
pub struct SeededShuffle(pub u64);

impl SeededShuffle {
    /// The sort key of kernel `k` under this seed:
    /// `splitmix64(seed ^ (k · 0x9E37_79B9))` (the multiply spreads
    /// adjacent kernel ids across the key space before mixing).
    pub fn key(&self, k: usize) -> u64 {
        splitmix64(self.0 ^ (k as u64).wrapping_mul(0x9E37_79B9))
    }
}

impl SchedPolicy for SeededShuffle {
    fn name(&self) -> String {
        format!("SeededShuffle({})", self.0)
    }

    fn order(&self, _ctx: &SchedContext<'_>, candidates: &mut [usize]) {
        candidates.sort_by_key(|&k| (self.key(k), k));
    }
}

/// The adversary: preferentially issues blocks of kernels whose resident
/// blocks are already busy-waiting, flooding SM slots with spinners. This
/// is the scheduler most likely to manifest the Section III-B occupancy
/// deadlock, so it is the sharpest probe for missing wait-kernels or
/// under-provisioned graphs.
#[derive(Debug, Clone, Copy, Default)]
pub struct SemStarver;

impl SchedPolicy for SemStarver {
    fn name(&self) -> String {
        "SemStarver".to_owned()
    }

    fn order(&self, ctx: &SchedContext<'_>, candidates: &mut [usize]) {
        candidates.sort_by_key(|&k| {
            (
                std::cmp::Reverse(ctx.parked_blocks(k)),
                std::cmp::Reverse(ctx.priority(k)),
                k,
            )
        });
    }
}

/// A nameable, comparable, copyable description of a built-in scheduling
/// policy — what exploration schedules name and summaries report. Custom
/// [`SchedPolicy`] implementations are plugged in directly via
/// [`Session::set_sched`](crate::Session::set_sched).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum SchedPolicyKind {
    /// [`Fifo`]: the hardware launch order (default).
    #[default]
    Fifo,
    /// [`Lifo`]: reverse launch order within each priority class.
    Lifo,
    /// [`SeededShuffle`]: the seeded pseudo-random permutation.
    SeededShuffle(u64),
    /// [`SemStarver`]: spinning kernels issue first.
    SemStarver,
}

impl SchedPolicyKind {
    /// Builds the policy object this kind describes.
    pub fn instantiate(&self) -> SchedPolicyRef {
        match *self {
            SchedPolicyKind::Fifo => Arc::new(Fifo),
            SchedPolicyKind::Lifo => Arc::new(Lifo),
            SchedPolicyKind::SeededShuffle(seed) => Arc::new(SeededShuffle(seed)),
            SchedPolicyKind::SemStarver => Arc::new(SemStarver),
        }
    }
}

impl fmt::Display for SchedPolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedPolicyKind::Fifo => write!(f, "Fifo"),
            SchedPolicyKind::Lifo => write!(f, "Lifo"),
            SchedPolicyKind::SeededShuffle(seed) => write!(f, "SeededShuffle({seed})"),
            SchedPolicyKind::SemStarver => write!(f, "SemStarver"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_instantiate_matching_policies() {
        for kind in [
            SchedPolicyKind::Fifo,
            SchedPolicyKind::Lifo,
            SchedPolicyKind::SeededShuffle(7),
            SchedPolicyKind::SemStarver,
        ] {
            let policy = kind.instantiate();
            assert_eq!(policy.name(), kind.to_string());
        }
    }

    #[test]
    fn default_kind_is_fifo() {
        assert_eq!(SchedPolicyKind::default(), SchedPolicyKind::Fifo);
    }

    #[test]
    fn shuffle_key_is_seed_and_kernel_sensitive() {
        // The real sort key: different seeds must produce different key
        // vectors (seeds name schedules), and within one seed adjacent
        // kernel ids must not collide (the permutation is non-degenerate).
        let keys =
            |seed: u64| -> Vec<u64> { (0..8usize).map(|k| SeededShuffle(seed).key(k)).collect() };
        assert_ne!(keys(1), keys(2));
        let one = keys(1);
        let mut dedup = one.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), one.len(), "kernel keys collide: {one:?}");
    }
}
