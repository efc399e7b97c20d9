//! The optimized engine's [`EventQueue`] and [`SmIndex`]: each orders
//! exactly as the reference structure it replaced, which the tests below
//! check on seeded random traffic.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use super::EventKind;
use crate::time::SimTime;

/// Payload-word tag of an inline `BlockResume` in an [`EventQueue`] key
/// (the high bit). Untagged payloads index the queue's event slab, so
/// both block ids and slab indexes must stay below it.
const RESUME_TAG: u32 = 1 << 31;

/// Exclusive bound on an [`EventQueue`] sequence number: it owns 32 bits
/// of the key.
pub(super) const SEQ_LIMIT: u64 = 1 << 32;

/// The optimized engine's event queue: one 16-byte `u128` per pending
/// event, `time:64 | seq:32 | payload:32`. Sequence numbers are unique,
/// so a single integer compare orders events by `(time, seq)` — the same
/// order as the reference engine's [`Event`](super::reference::Event)
/// heap — and the payload never takes part. A `BlockResume` (nearly every
/// event) carries its block id inline in the payload, tagged with
/// [`RESUME_TAG`]; other kinds store their [`EventKind`] in a slab
/// recycled through a freelist.
pub(crate) struct EventQueue {
    heap: BinaryHeap<Reverse<u128>>,
    slab: Vec<EventKind>,
    free: Vec<u32>,
    next_seq: u64,
    /// [`SEQ_LIMIT`], lowered by tests to reach the re-sequencing path.
    pub(super) seq_limit: u64,
}

impl EventQueue {
    pub(super) fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            seq_limit: SEQ_LIMIT,
        }
    }

    /// Empties the queue, keeping its allocations.
    pub(super) fn clear(&mut self) {
        self.heap.clear();
        self.slab.clear();
        self.free.clear();
        self.next_seq = 0;
    }

    /// Queues `kind` at `time`, after every event already queued at
    /// `time`.
    ///
    /// # Panics
    ///
    /// Panics if a block id or the slab index reaches 2³¹ (billions of
    /// blocks or pending events): the payload word must never truncate
    /// one silently.
    #[inline]
    pub(super) fn push(&mut self, time: SimTime, kind: EventKind) {
        if self.next_seq == self.seq_limit {
            self.resequence();
        }
        let payload = match kind {
            EventKind::BlockResume(b) => {
                assert!(
                    b < RESUME_TAG as usize,
                    "block id {b} overflows the event payload"
                );
                RESUME_TAG | b as u32
            }
            _ => match self.free.pop() {
                Some(i) => {
                    self.slab[i as usize] = kind;
                    i
                }
                None => {
                    let i = self.slab.len();
                    assert!(
                        i < RESUME_TAG as usize,
                        "event slab index {i} overflows the payload"
                    );
                    self.slab.push(kind);
                    i as u32
                }
            },
        };
        let key =
            ((time.as_picos() as u128) << 64) | ((self.next_seq as u128) << 32) | payload as u128;
        self.next_seq += 1;
        self.heap.push(Reverse(key));
    }

    /// Number of queued events.
    #[inline]
    pub(super) fn len(&self) -> usize {
        self.heap.len()
    }

    /// Time in picoseconds of the earliest queued event.
    #[inline]
    pub(super) fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|&Reverse(key)| (key >> 64) as u64)
    }

    /// Removes the earliest queued event.
    #[inline]
    pub(super) fn pop(&mut self) -> Option<(SimTime, EventKind)> {
        let Reverse(key) = self.heap.pop()?;
        let payload = key as u32;
        let kind = if payload & RESUME_TAG != 0 {
            EventKind::BlockResume((payload & !RESUME_TAG) as usize)
        } else {
            self.free.push(payload);
            self.slab[payload as usize]
        };
        Some((SimTime::from_picos((key >> 64) as u64), kind))
    }

    /// Renumbers the pending events `0..len` in their current order, so
    /// sequence numbering can continue from `len` without overflowing its
    /// 32 bits. Every pending key keeps its rank, and every later push
    /// still sorts after all pending events of its instant.
    #[cold]
    fn resequence(&mut self) {
        let mut keys = std::mem::take(&mut self.heap).into_vec();
        keys.sort_unstable_by_key(|&Reverse(key)| key);
        let len = keys.len() as u64;
        assert!(
            len < self.seq_limit,
            "{len} pending events exhaust the sequence space"
        );
        const SEQ_BITS: u128 = (u32::MAX as u128) << 32;
        for (seq, Reverse(key)) in keys.iter_mut().enumerate() {
            *key = (*key & !SEQ_BITS) | ((seq as u128) << 32);
        }
        self.heap = BinaryHeap::from(keys);
        self.next_seq = len;
    }
}

/// The optimized engine's free-capacity index over one device's SMs: a
/// max segment tree of keys `free << 32 | (u32::MAX - sm)` (`sm` global),
/// so the root is the SM with the most free units, ties going to the
/// lowest SM — exactly the reference scan's `max_by_key((f, Reverse(i)))`.
/// Padding leaves hold 0, below every real key.
#[derive(Default)]
pub(super) struct SmIndex {
    /// Global index of the device's first SM.
    base: usize,
    /// Leaf count: the device's SM count rounded up to a power of two.
    /// Node `i` has children `2i` and `2i + 1`; the root is node 1 and
    /// the leaves are `[leaves, 2 * leaves)`.
    leaves: usize,
    tree: Vec<u64>,
}

impl SmIndex {
    #[inline]
    fn key(sm: usize, free: u32) -> u64 {
        (u64::from(free) << 32) | u64::from(u32::MAX - sm as u32)
    }

    /// Rebuilds the index over the SMs `base..base + free.len()`.
    pub(super) fn rebuild(&mut self, base: usize, free: &[u32]) {
        self.base = base;
        self.leaves = free.len().next_power_of_two();
        self.tree.clear();
        self.tree.resize(2 * self.leaves, 0);
        for (i, &f) in free.iter().enumerate() {
            self.tree[self.leaves + i] = Self::key(base + i, f);
        }
        for i in (1..self.leaves).rev() {
            self.tree[i] = self.tree[2 * i].max(self.tree[2 * i + 1]);
        }
    }

    /// Records that global SM `sm` now has `free` units.
    #[inline]
    pub(super) fn set(&mut self, sm: usize, free: u32) {
        let mut i = self.leaves + (sm - self.base);
        self.tree[i] = Self::key(sm, free);
        while i > 1 {
            self.tree[i / 2] = self.tree[i].max(self.tree[i ^ 1]);
            i /= 2;
        }
    }

    /// `(free units, global SM)` of the SM with the most free units, the
    /// lowest such SM on ties. A device without SMs reports 0 free units.
    #[inline]
    pub(super) fn best(&self) -> (u32, usize) {
        let root = self.tree[1];
        ((root >> 32) as u32, (u32::MAX - root as u32) as usize)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::config::SM_CAPACITY_UNITS;
    use crate::sem::SemArrayId;

    /// A seeded SplitMix64 stream for the differential tests below.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = crate::splitmix64(self.0);
            self.0 % n
        }
    }

    /// Drives an [`EventQueue`] (with sequence limit `seq_limit`) and the
    /// encoding it replaced — a `BinaryHeap` of `(time << 64 | seq,
    /// payload)` entries — through one seeded, monotone push/peek/pop
    /// sequence with at most `max_pending` pending events and many
    /// equal-time ties, asserting both yield the same events in the same
    /// order.
    fn check_queue_against_old_heap(seed: u64, seq_limit: u64, max_pending: usize) {
        let mut rng = Rng(seed);
        let mut queue = EventQueue::new();
        queue.seq_limit = seq_limit;
        let mut old: BinaryHeap<Reverse<(u128, u32)>> = BinaryHeap::new();
        let mut kinds: Vec<EventKind> = Vec::new();
        let mut now = 0u64;
        for _ in 0..20_000 {
            if old.len() < max_pending && rng.below(2) == 0 {
                let time = now + rng.below(3);
                let kind = match rng.below(4) {
                    0 => EventKind::KernelReady(rng.below(8) as usize),
                    1 => EventKind::PostApply {
                        block: rng.below(64) as usize,
                        table: SemArrayId(rng.below(4) as usize),
                        index: rng.below(16) as u32,
                        inc: 1,
                    },
                    _ => EventKind::BlockResume(rng.below(RESUME_TAG as u64) as usize),
                };
                let seq = kinds.len() as u128;
                old.push(Reverse((((time as u128) << 64) | seq, seq as u32)));
                kinds.push(kind);
                queue.push(SimTime::from_picos(time), kind);
            } else {
                let want_time = old.peek().map(|&Reverse((key, _))| (key >> 64) as u64);
                assert_eq!(queue.peek_time(), want_time);
                let want = old.pop().map(|Reverse((key, i))| {
                    (SimTime::from_picos((key >> 64) as u64), kinds[i as usize])
                });
                let got = queue.pop();
                assert_eq!(got, want);
                if let Some((time, _)) = got {
                    now = time.as_picos();
                }
            }
        }
        while let Some(Reverse((key, i))) = old.pop() {
            let want = (SimTime::from_picos((key >> 64) as u64), kinds[i as usize]);
            assert_eq!(queue.pop(), Some(want));
        }
        assert_eq!(queue.pop(), None);
    }

    #[test]
    fn event_queue_matches_old_heap() {
        for seed in 1..=4 {
            check_queue_against_old_heap(seed, SEQ_LIMIT, 200);
        }
    }

    #[test]
    fn event_queue_resequences_without_reordering() {
        // 20k operations through a 40-value sequence space: the queue
        // renumbers its pending keys hundreds of times.
        for seed in 1..=4 {
            check_queue_against_old_heap(seed, 40, 32);
        }
    }

    #[test]
    #[should_panic(expected = "overflows the event payload")]
    fn event_queue_rejects_block_ids_past_the_payload() {
        EventQueue::new().push(SimTime::ZERO, EventKind::BlockResume(RESUME_TAG as usize));
    }

    /// [`SmIndex`] against the ordered-set index it replaced, on seeded
    /// random updates over devices of 1, 3, 80 and 108 SMs at zero and
    /// nonzero global offsets. Free values come from a small set, so ties
    /// are common and must go to the lowest SM.
    #[test]
    fn sm_index_matches_old_ordered_set() {
        let values = [0, 1, SM_CAPACITY_UNITS / 2, SM_CAPACITY_UNITS];
        // One index rebuilt across every shape, as a pooled run state is.
        let mut index = SmIndex::default();
        for (sms, base) in [
            (108, 0),
            (1, 0),
            (3, 7),
            (80, 0),
            (80, 3),
            (108, 108),
            (1, 9),
        ] {
            let mut rng = Rng(sms as u64 * 1000 + base as u64);
            let mut free = vec![SM_CAPACITY_UNITS; sms];
            let mut old: BTreeSet<(u32, Reverse<usize>)> =
                (0..sms).map(|i| (free[i], Reverse(base + i))).collect();
            index.rebuild(base, &free);
            assert_eq!(index.best(), (SM_CAPACITY_UNITS, base));
            for _ in 0..4_000 {
                let i = rng.below(sms as u64) as usize;
                let f = values[rng.below(values.len() as u64) as usize];
                old.remove(&(free[i], Reverse(base + i)));
                old.insert((f, Reverse(base + i)));
                free[i] = f;
                index.set(base + i, f);
                let &(want_free, Reverse(want_sm)) = old.last().expect("nonempty");
                assert_eq!(index.best(), (want_free, want_sm), "{sms} SMs at {base}");
            }
            for f in values {
                for i in 0..sms {
                    index.set(base + i, f);
                }
                assert_eq!(
                    index.best(),
                    (f, base),
                    "all-equal {f} on {sms} SMs at {base}"
                );
            }
        }
    }
}
