//! The [`EngineMode::Optimized`](super::EngineMode) event loop: its
//! placement, program replay and op-coalescing rule.

use std::cmp::Reverse;

use super::{EngineMode, EventKind, Exec};
use crate::ops::Op;
use crate::sched::SchedPolicy;
use crate::time::SimTime;

impl Exec<'_> {
    /// The optimized event loop: identical batch semantics, but block
    /// placement only runs after transitions that can actually enable it
    /// (`issue_dirty`), over the incrementally maintained ready-queue and
    /// SM index.
    pub(super) fn run_optimized_loop(&mut self) {
        while let Some((time, kind)) = self.st.fast_events.pop() {
            self.note_queue_len(self.st.fast_events.len() + 1);
            debug_assert!(time >= self.st.now, "time went backwards");
            self.st.now = time;
            self.handle(kind);
            while self.st.fast_events.peek_time() == Some(time.as_picos()) {
                let (_, kind) = self.st.fast_events.pop().expect("peeked event");
                self.handle(kind);
            }
            if self.st.issue_dirty {
                self.try_issue_optimized();
                self.st.issue_dirty = false;
            }
        }
    }

    /// Optimized block placement. The ready-queue's `(Reverse(priority),
    /// k)` ordering is exactly [`SchedPolicy::Fifo`]'s sort key, so a
    /// `Fifo` run issues in queue order without sorting; and `sm_index`'s
    /// maximum is exactly the reference scan's `max_by_key((f,
    /// Reverse(i)))`, so the sequence of `issue_block` calls is identical.
    /// Under any other policy the ready-queue supplies the candidate *set*
    /// and the policy re-orders it — producing, again, the same sequence
    /// the reference engine's policy-ordered scan issues.
    fn try_issue_optimized(&mut self) {
        if self.st.ready_queue.is_empty() {
            return;
        }
        self.st.counters.issue_rounds += 1;
        let mut order = std::mem::take(&mut self.st.issue_scratch);
        order.clear();
        order.extend(self.st.ready_queue.iter().map(|&(_, k)| k));
        if self.sched != SchedPolicy::Fifo {
            self.sched.order(self.desc, &self.st.kernels, &mut order);
        }
        for &k in &order {
            let device = self.desc.kernels[k].device as usize;
            loop {
                if self.st.kernels[k].issued >= self.desc.kernels[k].total {
                    self.st
                        .ready_queue
                        .remove(&(Reverse(self.desc.kernels[k].priority), k));
                    break;
                }
                let units = self.desc.kernels[k].units;
                let (free, sm) = self.st.sm_index[device].best();
                if free < units {
                    break;
                }
                self.issue_block(k, sm as u32);
            }
        }
        self.st.issue_scratch = order;
    }

    /// Drives a pre-driven (side-effect-free) block through its op
    /// program. Because re-reading an op is free, this path defers
    /// without the `pending` machinery, and because semaphore values are
    /// monotone non-decreasing, a wait observed satisfied *now* is
    /// satisfied at any later instant — so satisfied waits coalesce into
    /// their successor unconditionally. Pure-op durations still require
    /// state stability until the op's start ([`Exec::can_extend_run`]),
    /// exactly like the coroutine path.
    pub(super) fn step_program(&mut self, bid: usize) {
        let mut acc = SimTime::ZERO;
        loop {
            let slot = &self.st.blocks[bid];
            if slot.prog_pc >= slot.prog_len {
                if acc == SimTime::ZERO {
                    self.finish_block(bid);
                } else {
                    self.push_event(self.st.now + acc, EventKind::BlockResume(bid));
                }
                return;
            }
            let op = self.progs.op(slot.prog_start + slot.prog_pc);
            match op {
                Op::SemWait {
                    table,
                    index,
                    value,
                } => {
                    if self.st.sems.value(table, index) >= value {
                        // Monotone semaphores: satisfied stays satisfied.
                        acc += self.poll_cost(self.block_device(bid), table);
                        self.st.blocks[bid].prog_pc += 1;
                    } else if acc == SimTime::ZERO {
                        // Apply the park at its exact start time; the wake
                        // resumes *after* the wait op.
                        self.st.blocks[bid].prog_pc += 1;
                        self.apply_sync_op(bid, op);
                        return;
                    } else {
                        // Re-check at the wait's true start time.
                        self.push_event(self.st.now + acc, EventKind::BlockResume(bid));
                        return;
                    }
                }
                Op::SemPost { .. } | Op::AtomicAdd { .. } => {
                    if acc == SimTime::ZERO {
                        self.st.blocks[bid].prog_pc += 1;
                        self.apply_sync_op(bid, op);
                    } else {
                        self.push_event(self.st.now + acc, EventKind::BlockResume(bid));
                    }
                    return;
                }
                _ => {
                    // Pure delay: needs simulator state as of its start.
                    if acc == SimTime::ZERO || self.can_extend_run(self.st.now + acc) {
                        let d = self
                            .pure_op_delay(bid, &op)
                            .expect("non-sync op has a delay");
                        if let Op::LinkSend { bytes } = op {
                            self.record_link_sent(bid, bytes, self.st.now + acc, d);
                        }
                        acc += d;
                        self.st.blocks[bid].prog_pc += 1;
                        if !self.can_extend_run(self.st.now + acc) {
                            self.push_event(self.st.now + acc, EventKind::BlockResume(bid));
                            return;
                        }
                    } else {
                        self.push_event(self.st.now + acc, EventKind::BlockResume(bid));
                        return;
                    }
                }
            }
        }
    }

    /// Whether the block body being stepped may continue past `until`
    /// without a heap round-trip.
    ///
    /// Sound because every simulator state change is caused either by an
    /// event already in the heap (all at `time >= peek`), by an event one
    /// of those handlers pushes (at `time >= its own now >= peek`), or by
    /// `try_issue` at the *current* instant — which is exactly the
    /// `issue_dirty` flag. If the earliest of those is strictly after
    /// `until`, the durations computed for ops completing at or before
    /// `until` read the same `active_units`/`sm_active` state the
    /// reference engine would see, and no other block can observe this
    /// block's functional effects out of order.
    ///
    /// In [`EngineMode::Reference`] this is constantly `false`, which
    /// makes [`Exec::step_block`] collapse to the original
    /// one-op-per-event behaviour.
    #[inline]
    pub(super) fn can_extend_run(&self, until: SimTime) -> bool {
        self.mode == EngineMode::Optimized
            && !self.st.issue_dirty
            && match self.st.fast_events.peek_time() {
                Some(t) => t > until.as_picos(),
                None => true,
            }
    }
}
