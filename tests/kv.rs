//! Property coverage for the paged KV-cache allocator
//! (`cusync_sim::KvPool`, re-exported by `cusync-serve`): for *any*
//! seed-derived sequence of grow/release/discard operations,
//!
//! 1. the conservation laws of [`cusync_serve::KvStats::check`] hold at
//!    every step, and `free + active + retained == total` exactly;
//! 2. a shadow model of per-owner holdings agrees with the pool — ending
//!    an owner twice (release and/or discard in any combination) returns
//!    its blocks exactly once, never twice;
//! 3. the pool is fully deterministic: a second pool driven by the same
//!    operation sequence stays bit-identical after every step, eviction
//!    order included.

use std::collections::HashMap;

use cusync_serve::KvPool;
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
enum Op {
    Grow { owner: u64, blocks: u64 },
    Release { owner: u64 },
    Discard { owner: u64 },
}

/// A seed-derived operation tape. Owners come from a small range so
/// release/discard frequently hit live allocations (and, just as
/// deliberately, absent ones).
fn op_tape(seed: u64, len: usize) -> Vec<Op> {
    let mut x = seed;
    let mut draw = |range: u64| {
        x = cusync_sim::splitmix64(x.wrapping_add(0x9E37_79B9_7F4A_7C15));
        x % range
    };
    (0..len)
        .map(|_| match draw(5) {
            0..=2 => Op::Grow {
                owner: draw(8),
                blocks: draw(6),
            },
            3 => Op::Release { owner: draw(8) },
            _ => Op::Discard { owner: draw(8) },
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn any_op_sequence_conserves_blocks_and_replays_identically(
        seed in 0u64..u64::MAX,
        total in 0u64..24,
        len in 0u64..64,
    ) {
        let ops = op_tape(seed, len as usize);
        let mut pool = KvPool::new(total);
        let mut replay = KvPool::new(total);
        let mut held: HashMap<u64, u64> = HashMap::new();
        for &op in &ops {
            match op {
                Op::Grow { owner, blocks } => {
                    let grew = pool.try_grow(owner, blocks);
                    prop_assert_eq!(replay.try_grow(owner, blocks), grew);
                    prop_assert!(grew || blocks > 0, "zero growth must succeed");
                    if grew && blocks > 0 {
                        *held.entry(owner).or_insert(0) += blocks;
                    }
                }
                Op::Release { owner } => {
                    pool.release(owner);
                    replay.release(owner);
                    held.remove(&owner);
                }
                Op::Discard { owner } => {
                    pool.discard(owner);
                    replay.discard(owner);
                    held.remove(&owner);
                }
            }
            let stats = pool.stats();
            if let Err(e) = stats.check() {
                panic!("seed {seed} after {op:?}: {e}");
            }
            // The pool agrees with the shadow model, owner by owner.
            prop_assert_eq!(stats.active_now, held.values().sum::<u64>());
            prop_assert_eq!(pool.active_owners() as u64, held.len() as u64);
            for (&owner, &blocks) in &held {
                prop_assert_eq!(pool.held_by(owner), blocks);
            }
            // Every block is in exactly one place.
            prop_assert_eq!(
                pool.free_blocks() + stats.active_now + stats.retained_now,
                total
            );
            // Determinism, eviction order included: the twin pool driven
            // by the same operations is bit-identical.
            prop_assert!(pool == replay, "seed {} diverged after {:?}", seed, op);
        }
        // No double-free: ending every owner redundantly returns each
        // block exactly once, and the quiescent pool balances.
        for owner in 0..8 {
            pool.release(owner);
            pool.release(owner);
            pool.discard(owner);
        }
        let stats = pool.stats();
        if let Err(e) = stats.check() {
            panic!("seed {seed} quiescent pool: {e}");
        }
        prop_assert_eq!(stats.active_now, 0);
        prop_assert_eq!(stats.allocated, stats.released + stats.discarded);
        prop_assert_eq!(pool.free_blocks() + stats.retained_now, total);
    }
}

/// The owner table is sized by use, not by the serving layer's batch
/// width: far more concurrent owners than any `max_batch` keep exact
/// per-owner holdings through interleaved growth and out-of-order ends,
/// and a twin pool driven identically stays equal.
#[test]
fn many_more_owners_than_a_batch_stay_exact() {
    const OWNERS: u64 = 200;
    let mut pool = KvPool::new(OWNERS * (OWNERS + 1));
    let mut twin = KvPool::new(OWNERS * (OWNERS + 1));
    // Two interleaved rounds: owner o ends up holding 1 + o blocks.
    for round in 0..2 {
        for owner in 0..OWNERS {
            let blocks = if round == 0 { 1 } else { owner };
            assert!(pool.try_grow(owner, blocks));
            assert!(twin.try_grow(owner, blocks));
        }
    }
    assert_eq!(pool.active_owners() as u64, OWNERS);
    assert!((0..OWNERS).all(|o| pool.held_by(o) == 1 + o));
    // End every third owner (released or discarded alternately), in
    // reverse order, then check the survivors are untouched.
    for owner in (0..OWNERS).rev().filter(|o| o % 3 == 0) {
        for p in [&mut pool, &mut twin] {
            if owner % 2 == 0 {
                p.release(owner);
            } else {
                p.discard(owner);
            }
        }
    }
    for owner in 0..OWNERS {
        let want = if owner % 3 == 0 { 0 } else { 1 + owner };
        assert_eq!(pool.held_by(owner), want, "owner {owner}");
    }
    assert_eq!(pool.active_owners() as u64, OWNERS - OWNERS.div_ceil(3));
    assert!(pool == twin);
    pool.stats().check().unwrap();
}

/// Eviction reclaims retained entries strictly in release order (FIFO),
/// regardless of which owner released when — the deterministic victim
/// sequence the dispatcher's recompute accounting relies on.
#[test]
fn eviction_order_is_release_order() {
    let mut pool = KvPool::new(9);
    for (owner, blocks) in [(10, 2), (11, 3), (12, 4)] {
        assert!(pool.try_grow(owner, blocks));
    }
    // Release out of owner order: 11 (3 blocks), then 12 (4), then 10 (2).
    pool.release(11);
    pool.release(12);
    pool.release(10);
    // Growing by 5 must evict 11's entry, then 12's, and stop.
    assert!(pool.try_grow(13, 5));
    let stats = pool.stats();
    assert_eq!(stats.evicted, 7, "oldest two retained entries evicted");
    assert_eq!(stats.retained_now, 2, "10's pages stay warm");
    stats.check().unwrap();
}
