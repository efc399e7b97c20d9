//! Paged KV-cache block pool: the per-device memory-pressure hook.
//!
//! Autoregressive decode grows a per-sequence KV cache by one token per
//! step; vLLM-style serving carves each device's DRAM into fixed-size
//! *blocks* (pages) and allocates them to sequences on demand. This module
//! models exactly the allocator side of that design — block accounting, a
//! deterministic eviction cache, and conservation-law checking — without
//! touching the timing engine. The serving layer (`cusync-serve`) consults
//! a [`KvPool`] at every decode-step boundary: a sequence that cannot grow
//! triggers eviction of retained blocks, then preemption-and-recompute of
//! a victim sequence.
//!
//! Everything here is integer arithmetic over explicit state, so a pool
//! drive sequence is bit-reproducible — the same determinism contract the
//! rest of the simulator keeps.
//!
//! # Examples
//!
//! ```
//! use cusync_sim::KvPool;
//!
//! let mut pool = KvPool::new(4);
//! assert!(pool.try_grow(1, 3)); // sequence 1 takes 3 blocks
//! assert!(!pool.try_grow(2, 2)); // no room: 1 free, nothing to evict
//! pool.release(1); // sequence 1 finished; blocks go to the retained cache
//! assert!(pool.try_grow(2, 4)); // evicts the retained blocks to satisfy
//! pool.discard(2);
//! pool.stats().check().unwrap();
//! ```

use std::collections::VecDeque;
use std::fmt;

use crate::config::GpuConfig;

/// Counters of everything a [`KvPool`] has done, with conservation laws
/// checked by [`KvStats::check`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KvStats {
    /// Pool capacity in blocks.
    pub total: u64,
    /// Blocks ever handed out by [`KvPool::try_grow`] (cumulative).
    pub allocated: u64,
    /// Blocks moved to the retained cache by [`KvPool::release`]
    /// (cumulative) — a completed sequence's pages, kept warm until space
    /// pressure evicts them.
    pub released: u64,
    /// Blocks returned straight to the free list by [`KvPool::discard`]
    /// (cumulative) — a preempted or evacuated sequence's pages, whose
    /// contents will be recomputed.
    pub discarded: u64,
    /// Retained blocks reclaimed under pressure (cumulative, FIFO order).
    pub evicted: u64,
    /// High-water mark of live (sequence-held) blocks.
    pub peak_active: u64,
    /// `try_grow` calls that failed even after eviction.
    pub alloc_failures: u64,
    /// Blocks currently held by live sequences.
    pub active_now: u64,
    /// Blocks currently in the retained cache.
    pub retained_now: u64,
}

impl KvStats {
    /// Verifies the pool's conservation laws; returns the first violated
    /// law on failure. Holds at every instant, not just at quiescence:
    ///
    /// - every allocated block was released, discarded, or is still active;
    /// - the retained cache holds exactly the released-minus-evicted blocks;
    /// - active + retained never exceed capacity;
    /// - the peak is at least the current active count.
    pub fn check(&self) -> Result<(), String> {
        if self.allocated != self.released + self.discarded + self.active_now {
            return Err(format!(
                "kv blocks leak: allocated {} != released {} + discarded {} + active {}",
                self.allocated, self.released, self.discarded, self.active_now
            ));
        }
        if self.retained_now != self.released - self.evicted.min(self.released) {
            return Err(format!(
                "kv retained cache off: retained {} != released {} - evicted {}",
                self.retained_now, self.released, self.evicted
            ));
        }
        if self.evicted > self.released {
            return Err(format!(
                "kv evicted {} > released {}",
                self.evicted, self.released
            ));
        }
        if self.active_now + self.retained_now > self.total {
            return Err(format!(
                "kv overcommit: active {} + retained {} > total {}",
                self.active_now, self.retained_now, self.total
            ));
        }
        if self.peak_active < self.active_now {
            return Err(format!(
                "kv peak {} < active {}",
                self.peak_active, self.active_now
            ));
        }
        Ok(())
    }
}

impl fmt::Display for KvStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "kv[{}/{} active, {} retained, {} evicted, {} failures]",
            self.active_now, self.total, self.retained_now, self.evicted, self.alloc_failures
        )
    }
}

/// A paged KV-cache allocator over one device's block budget.
///
/// Blocks are abstract units (the serving layer decides how many tokens a
/// block holds and how many bytes a block costs). Owners are opaque `u64`
/// sequence ids chosen by the caller; each owner's holding only ever grows
/// ([`KvPool::try_grow`]) until it ends — either [`KvPool::release`]
/// (finished: pages parked in a retained cache, reclaimable FIFO) or
/// [`KvPool::discard`] (preempted: pages freed immediately, contents lost).
///
/// The retained cache models vLLM's freed-but-warm pages: releasing is not
/// the same as freeing, so eviction is an observable, counted event with a
/// deterministic (release-order) victim sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct KvPool {
    /// Blocks not held by anyone.
    free: u64,
    /// Live allocations as `(owner id, blocks)`, in no particular order.
    /// A decode run holds at most its batch width of residents, so a
    /// linear scan beats hashing the owner id; any number of owners still
    /// fits.
    active: Vec<(u64, u64)>,
    /// Released-but-not-evicted block counts, oldest release first.
    retained: VecDeque<u64>,
    stats: KvStats,
}

impl KvPool {
    /// A pool of `total_blocks` blocks, all free.
    pub fn new(total_blocks: u64) -> Self {
        KvPool {
            free: total_blocks,
            active: Vec::new(),
            retained: VecDeque::new(),
            stats: KvStats {
                total: total_blocks,
                ..KvStats::default()
            },
        }
    }

    /// Sizes a pool from a device's DRAM: `share_permille`/1000 of
    /// [`GpuConfig::dram_capacity_bytes`] divided into `block_bytes` blocks.
    /// Permille (not a float fraction) keeps the sizing exact and
    /// platform-independent.
    ///
    /// # Panics
    ///
    /// Panics if `block_bytes` is zero or `share_permille` exceeds 1000.
    pub fn for_device(gpu: &GpuConfig, block_bytes: u64, share_permille: u32) -> Self {
        assert!(block_bytes > 0, "KV block size must be positive");
        assert!(
            share_permille <= 1000,
            "KV share {share_permille} exceeds 1000 permille"
        );
        let budget = (gpu.dram_capacity_bytes as u128 * share_permille as u128 / 1000) as u64;
        KvPool::new(budget / block_bytes)
    }

    /// Pool capacity in blocks.
    pub fn total_blocks(&self) -> u64 {
        self.stats.total
    }

    /// Blocks currently unheld (excludes the retained cache).
    pub fn free_blocks(&self) -> u64 {
        self.free
    }

    /// Blocks currently held by live owner `owner` (0 if none).
    pub fn held_by(&self, owner: u64) -> u64 {
        self.active
            .iter()
            .find(|&&(o, _)| o == owner)
            .map_or(0, |&(_, blocks)| blocks)
    }

    /// Grows `owner`'s allocation by `blocks`, evicting retained blocks
    /// (oldest release first) if the free list alone cannot satisfy it.
    /// Returns `false` — and changes nothing except the failure counter —
    /// if even full eviction would not suffice. Growing by zero blocks
    /// succeeds without creating an allocation.
    pub fn try_grow(&mut self, owner: u64, blocks: u64) -> bool {
        if blocks == 0 {
            return true;
        }
        if self.free + self.retained_blocks() < blocks {
            self.stats.alloc_failures += 1;
            return false;
        }
        while self.free < blocks {
            let oldest = self
                .retained
                .pop_front()
                .expect("retained cache covers the shortfall");
            self.free += oldest;
            self.stats.evicted += oldest;
            self.stats.retained_now -= oldest;
        }
        self.free -= blocks;
        match self.active.iter_mut().find(|(o, _)| *o == owner) {
            Some((_, held)) => *held += blocks,
            None => self.active.push((owner, blocks)),
        }
        self.stats.allocated += blocks;
        self.stats.active_now += blocks;
        self.stats.peak_active = self.stats.peak_active.max(self.stats.active_now);
        true
    }

    /// Ends `owner`'s allocation normally: its blocks move to the retained
    /// cache (newest entry), to be evicted FIFO under future pressure.
    /// Releasing an unknown owner is a no-op (a zero-block sequence).
    pub fn release(&mut self, owner: u64) {
        if let Some(blocks) = self.end(owner) {
            self.retained.push_back(blocks);
            self.stats.active_now -= blocks;
            self.stats.released += blocks;
            self.stats.retained_now += blocks;
        }
    }

    /// Ends `owner`'s allocation by preemption: its blocks go straight back
    /// to the free list and their contents are gone (the caller recomputes).
    /// Discarding an unknown owner is a no-op.
    pub fn discard(&mut self, owner: u64) {
        if let Some(blocks) = self.end(owner) {
            self.free += blocks;
            self.stats.active_now -= blocks;
            self.stats.discarded += blocks;
        }
    }

    /// Current counters (see [`KvStats::check`] for the laws they obey).
    pub fn stats(&self) -> KvStats {
        self.stats
    }

    /// Number of live owners.
    pub fn active_owners(&self) -> usize {
        self.active.len()
    }

    /// Removes `owner`'s live allocation, returning its block count.
    fn end(&mut self, owner: u64) -> Option<u64> {
        let at = self.active.iter().position(|&(o, _)| o == owner)?;
        Some(self.active.swap_remove(at).1)
    }

    fn retained_blocks(&self) -> u64 {
        self.stats.retained_now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grow_release_evict_cycle() {
        let mut pool = KvPool::new(10);
        assert!(pool.try_grow(1, 4));
        assert!(pool.try_grow(2, 6));
        assert_eq!(pool.free_blocks(), 0);
        assert!(!pool.try_grow(3, 1), "full pool with no retained blocks");
        pool.release(1);
        // Release parks blocks; they are not free until evicted.
        assert_eq!(pool.free_blocks(), 0);
        assert!(pool.try_grow(3, 3), "eviction reclaims the retained pages");
        assert_eq!(pool.stats().evicted, 4);
        assert_eq!(pool.free_blocks(), 1);
        pool.discard(2);
        pool.discard(3);
        let s = pool.stats();
        s.check().unwrap();
        assert_eq!(s.allocated, 13);
        assert_eq!(s.discarded, 9);
        assert_eq!(s.peak_active, 10);
        assert_eq!(s.active_now, 0);
    }

    #[test]
    fn failed_grow_changes_nothing_but_the_counter() {
        let mut pool = KvPool::new(4);
        assert!(pool.try_grow(7, 3));
        let before = pool.clone();
        assert!(!pool.try_grow(8, 5));
        assert_eq!(pool.stats().alloc_failures, 1);
        assert_eq!(pool.free_blocks(), before.free_blocks());
        assert_eq!(pool.held_by(7), 3);
        assert_eq!(pool.held_by(8), 0);
        pool.stats().check().unwrap();
    }

    #[test]
    fn eviction_is_fifo_by_release_order() {
        let mut pool = KvPool::new(6);
        assert!(pool.try_grow(1, 2));
        assert!(pool.try_grow(2, 3));
        pool.release(2); // released first: evicted first
        pool.release(1);
        // Need 4 free, have 1: evicts owner 2's 3 blocks (the oldest
        // retained entry) and stops — owner 1's pages stay warm.
        assert!(pool.try_grow(3, 4));
        assert_eq!(pool.stats().evicted, 3);
        assert_eq!(pool.stats().retained_now, 2);
        assert_eq!(pool.free_blocks(), 0);
        pool.stats().check().unwrap();
    }

    #[test]
    fn partial_eviction_stops_at_enough() {
        let mut pool = KvPool::new(6);
        assert!(pool.try_grow(1, 2));
        assert!(pool.try_grow(2, 2));
        pool.release(1);
        pool.release(2);
        // 2 free + 4 retained; growing by 3 must evict only the oldest entry.
        assert!(pool.try_grow(3, 3));
        assert_eq!(pool.stats().evicted, 2);
        assert_eq!(pool.stats().retained_now, 2);
        pool.stats().check().unwrap();
    }

    #[test]
    fn zero_growth_and_unknown_owners_are_noops() {
        let mut pool = KvPool::new(3);
        assert!(pool.try_grow(1, 0));
        assert_eq!(pool.active_owners(), 0);
        pool.release(99);
        pool.discard(99);
        assert_eq!(
            pool.stats(),
            KvStats {
                total: 3,
                ..KvStats::default()
            }
        );
    }

    #[test]
    fn device_sizing_uses_permille_of_dram() {
        let gpu = GpuConfig::tesla_v100(); // 32 GiB
        let pool = KvPool::for_device(&gpu, 1 << 20, 500); // 1 MiB blocks, 50%
        assert_eq!(pool.total_blocks(), 16 << 10);
    }

    #[test]
    #[should_panic(expected = "block size")]
    fn zero_block_size_rejected() {
        KvPool::for_device(&GpuConfig::tesla_v100(), 0, 100);
    }

    #[test]
    #[should_panic(expected = "permille")]
    fn overfull_share_rejected() {
        KvPool::for_device(&GpuConfig::tesla_v100(), 1 << 20, 1001);
    }
}
