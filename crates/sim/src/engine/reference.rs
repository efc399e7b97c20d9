//! The [`EngineMode::Reference`](super::EngineMode) event loop: the
//! original engine, kept as the executable specification.

use std::cmp::Reverse;

use super::{EventKind, Exec};
use crate::time::SimTime;

/// A pending event of the reference heap, ordered by `(time, seq)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) struct Event {
    pub(super) time: SimTime,
    pub(super) seq: u64,
    pub(super) kind: EventKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Exec<'_> {
    /// The original event loop: rescan-and-sort `try_issue` after every
    /// batch. Kept verbatim as the executable specification.
    pub(super) fn run_reference_loop(&mut self) {
        while let Some(Reverse(event)) = self.st.events.pop() {
            self.note_queue_len(self.st.events.len() + 1);
            debug_assert!(event.time >= self.st.now, "time went backwards");
            self.st.now = event.time;
            self.handle(event.kind);
            // Drain every event at this timestamp before issuing blocks, so
            // that kernels becoming ready at the same instant compete for SM
            // slots by priority rather than by event arrival order.
            while let Some(Reverse(next)) = self.st.events.peek() {
                if next.time != self.st.now {
                    break;
                }
                let Reverse(event) = self.st.events.pop().expect("peeked event");
                self.handle(event.kind);
            }
            // A kernel boundary at or past the abort horizon checkpoints
            // the run: the timestamp batch is drained (same-instant
            // completions retire) but no further block issues.
            if self.abort_flag {
                break;
            }
            self.try_issue_reference();
        }
    }

    /// Reference block placement: filter + sort every kernel, then scan
    /// every SM per placed block. O(kernels log kernels + blocks × SMs)
    /// after **every** event batch.
    fn try_issue_reference(&mut self) {
        let mut order: Vec<usize> = (0..self.desc.kernels.len())
            .filter(|&k| {
                self.st.kernels[k].ready && self.st.kernels[k].issued < self.desc.kernels[k].total
            })
            .collect();
        if order.is_empty() {
            return;
        }
        self.st.counters.issue_rounds += 1;
        // Every policy orders a candidate set the same whatever its
        // incoming order, which keeps both engines' issue sequences
        // identical (they enumerate candidates differently).
        self.sched.order(self.desc, &self.st.kernels, &mut order);
        for k in order {
            let device = self.desc.kernels[k].device as usize;
            let base = self.desc.sm_base[device] as usize;
            let sms = self.desc.cluster.devices[device].num_sms as usize;
            loop {
                if self.st.kernels[k].issued >= self.desc.kernels[k].total {
                    break;
                }
                let units = self.desc.kernels[k].units;
                // Least-loaded SM first — within the kernel's own device:
                // the hardware work distributor spreads blocks across SMs,
                // so sparse grids get whole SMs to themselves (and run
                // faster; see `residency_scale`).
                let Some((sm, &free)) = self.st.sm_free[base..base + sms]
                    .iter()
                    .enumerate()
                    .filter(|&(_, &f)| f >= units)
                    .max_by_key(|&(i, &f)| (f, Reverse(i)))
                else {
                    break;
                };
                let _ = free;
                self.issue_block(k, (base + sm) as u32);
            }
        }
    }
}
