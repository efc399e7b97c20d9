//! Block-issue orders: the hardware launch order and three schedule-space
//! probes.
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
//! A [`SchedPolicy`] orders the set of *issuable* kernels (ready, with
//! unissued blocks) each placement round; everything else — stream FIFO
//! order, SM placement (least-loaded first), occupancy accounting — is
//! unchanged hardware behaviour. There is one knob:
//! [`Session::set_sched`](crate::Session::set_sched). A session issues in
//! the hardware launch order, [`SchedPolicy::Fifo`], until it is set.
//!
//! The other policies are schedule-space probes: each still produces a
//! deterministic timeline, identical across both
//! [`EngineMode`](crate::EngineMode)s, but different from the hardware
//! order's. See `crates/sim/src/explore.rs` for the exploration driver
//! built on top.
//!
//! Every policy sorts by a total key with a full tie-break, so it orders
//! the same *set* of candidates identically whatever their incoming order
//! (the two engine modes enumerate candidates differently), and reads
//! only the pipeline and the per-kernel progress counters.

use std::cmp::Reverse;
use std::fmt;

use crate::engine::{KernelRun, PipelineDesc};

/// A block-issue order: given the issuable kernels of one placement
/// round, decides the order in which they compete for SM slots. Only
/// [`SchedPolicy::Fifo`] preserves the seed engine's absolute timelines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum SchedPolicy {
    /// The hardware launch order (default): higher stream priority first,
    /// then kernel launch order.
    #[default]
    Fifo,
    /// Reverse launch order within each priority class: the
    /// latest-launched ready kernel issues first. Adversarial for the
    /// wait-kernel protocol, which assumes producers (launched earlier)
    /// reach the SMs before their consumers.
    Lifo,
    /// A seeded pseudo-random permutation of the issuable kernels: kernel
    /// `k` sorts by a pure function of `(seed, k)`, so a given seed names
    /// one reproducible schedule. Stream priorities are deliberately
    /// ignored, as nothing in the CUDA programming model promises
    /// cross-stream issue order.
    SeededShuffle(u64),
    /// The adversary: preferentially issues blocks of kernels whose
    /// resident blocks are already busy-waiting, flooding SM slots with
    /// spinners. This is the order most likely to manifest the Section
    /// III-B occupancy deadlock, so it is the sharpest probe for missing
    /// wait-kernels or under-provisioned graphs.
    SemStarver,
}

impl SchedPolicy {
    /// Reorders `candidates` (indexes of ready kernels with unissued
    /// blocks) into the order they are offered SM capacity, reading the
    /// pipeline's stream priorities and the run's parked-block counts.
    pub(crate) fn order(self, desc: &PipelineDesc, runs: &[KernelRun], candidates: &mut [usize]) {
        let priority = |k: usize| Reverse(desc.kernels[k].priority);
        match self {
            SchedPolicy::Fifo => candidates.sort_by_key(|&k| (priority(k), k)),
            SchedPolicy::Lifo => candidates.sort_by_key(|&k| (priority(k), Reverse(k))),
            SchedPolicy::SeededShuffle(seed) => {
                candidates.sort_by_key(|&k| (shuffle_key(seed, k), k))
            }
            SchedPolicy::SemStarver => {
                candidates.sort_by_key(|&k| (Reverse(runs[k].parked), priority(k), k))
            }
        }
    }
}

/// Explore summaries print these names.
impl fmt::Display for SchedPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedPolicy::Fifo => write!(f, "Fifo"),
            SchedPolicy::Lifo => write!(f, "Lifo"),
            SchedPolicy::SeededShuffle(seed) => write!(f, "SeededShuffle({seed})"),
            SchedPolicy::SemStarver => write!(f, "SemStarver"),
        }
    }
}

/// The [`SchedPolicy::SeededShuffle`] sort key of kernel `k`:
/// `splitmix64(seed ^ (k · 0x9E37_79B9))` (the multiply spreads adjacent
/// kernel ids across the key space before mixing).
fn shuffle_key(seed: u64, k: usize) -> u64 {
    splitmix64(seed ^ (k as u64).wrapping_mul(0x9E37_79B9))
}

/// SplitMix64: the one deterministic mixer the simulator derives
/// pseudo-randomness from — block duration jitter
/// ([`GpuConfig::block_jitter`](crate::GpuConfig)), seeded schedule
/// permutations ([`SchedPolicy::SeededShuffle`]), and seed-derived
/// workload generators all call this single definition, so "same seed,
/// same outcome" holds across every layer.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_kind_is_fifo() {
        assert_eq!(SchedPolicy::default(), SchedPolicy::Fifo);
    }

    #[test]
    fn names_match_explore_summaries() {
        assert_eq!(SchedPolicy::Fifo.to_string(), "Fifo");
        assert_eq!(SchedPolicy::Lifo.to_string(), "Lifo");
        assert_eq!(
            SchedPolicy::SeededShuffle(7).to_string(),
            "SeededShuffle(7)"
        );
        assert_eq!(SchedPolicy::SemStarver.to_string(), "SemStarver");
    }

    #[test]
    fn shuffle_key_is_seed_and_kernel_sensitive() {
        // The real sort key: different seeds must produce different key
        // vectors (seeds name schedules), and within one seed adjacent
        // kernel ids must not collide (the permutation is non-degenerate).
        let keys = |seed: u64| -> Vec<u64> { (0..8usize).map(|k| shuffle_key(seed, k)).collect() };
        assert_ne!(keys(1), keys(2));
        let one = keys(1);
        let mut dedup = one.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), one.len(), "kernel keys collide: {one:?}");
    }
}
