//! The per-thread-block instruction set of the simulator.

use crate::sem::SemArrayId;

/// One timed operation issued by a thread block.
///
/// A [`BlockBody`](crate::BlockBody) yields a sequence of `Op`s; the engine
/// charges each with a latency from the [`GpuConfig`](crate::GpuConfig) cost
/// model and resumes the body when the operation completes. Functional
/// side-effects (actual reads and writes of buffer values) are performed by
/// the body itself between operations; see the contract on
/// [`BlockBody::resume`](crate::BlockBody::resume).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Pure computation taking `cycles` SM cycles.
    Compute {
        /// SM cycles consumed.
        cycles: u64,
    },
    /// One software-pipelined mainloop step: `bytes` of global-memory
    /// traffic overlap `cycles` of math (double buffering), so the step
    /// costs `max(memory time, compute time)`. The engine computes the
    /// memory time from the GPU-wide population of active blocks: DRAM is
    /// a shared resource that a fraction of the SMs can saturate, so a
    /// sparse grid's blocks see more bandwidth each, but the aggregate
    /// never exceeds the DRAM peak.
    MainStep {
        /// Bytes transferred during the step.
        bytes: u64,
        /// SM cycles of overlapped computation.
        cycles: u64,
    },
    /// Read `bytes` from global memory (charged latency + bandwidth share).
    GlobalRead {
        /// Bytes transferred.
        bytes: u64,
    },
    /// Write `bytes` to global memory (charged latency + bandwidth share).
    GlobalWrite {
        /// Bytes transferred.
        bytes: u64,
    },
    /// Busy-wait until semaphore `index` of `table` is at least `value`
    /// (Fig. 4b `wait`). The block keeps occupying its SM slot while
    /// waiting — this is what makes consumer-before-producer scheduling
    /// hazardous (Section III-B) and the simulator reproduces the deadlock.
    SemWait {
        /// Semaphore array.
        table: SemArrayId,
        /// Index within the array.
        index: u32,
        /// Minimum value to proceed.
        value: u32,
    },
    /// Atomically add `inc` to semaphore `index` of `table` (Fig. 4b
    /// `post`). The increment becomes visible to waiters when the atomic
    /// completes.
    SemPost {
        /// Semaphore array.
        table: SemArrayId,
        /// Index within the array.
        index: u32,
        /// Amount added.
        inc: u32,
    },
    /// Atomic fetch-add whose *previous* value is delivered to the block via
    /// [`BlockCtx::atomic_result`](crate::BlockCtx::atomic_result); used for
    /// the tile-order counters of Section III-C.
    AtomicAdd {
        /// Counter array.
        table: SemArrayId,
        /// Index within the array.
        index: u32,
        /// Amount added.
        inc: u32,
    },
    /// Block-wide barrier (`__syncthreads`).
    Syncthreads,
    /// System-wide memory fence (`__threadfence_system`).
    Fence,
    /// Push `bytes` over this device's inter-device (NVLink-class) link:
    /// the per-hop send of a simulated collective. Charged pure wire time
    /// at [`ClusterConfig::link_bytes_per_sec`](crate::ClusterConfig) —
    /// unscaled by SM residency or block jitter, since link bandwidth is
    /// not an SM resource. Propagation latency is *not* charged here; it
    /// is paid by the cross-device semaphore post that signals delivery,
    /// so a send + remote post models one hop without double counting.
    LinkSend {
        /// Bytes pushed over the link.
        bytes: u64,
    },
}

impl Op {
    /// Convenience constructor for [`Op::Compute`].
    pub const fn compute(cycles: u64) -> Op {
        Op::Compute { cycles }
    }

    /// Convenience constructor for [`Op::MainStep`].
    pub const fn main_step(bytes: u64, cycles: u64) -> Op {
        Op::MainStep { bytes, cycles }
    }

    /// Convenience constructor for [`Op::GlobalRead`].
    pub const fn read(bytes: u64) -> Op {
        Op::GlobalRead { bytes }
    }

    /// Convenience constructor for [`Op::GlobalWrite`].
    pub const fn write(bytes: u64) -> Op {
        Op::GlobalWrite { bytes }
    }

    /// Convenience constructor for [`Op::SemWait`].
    pub const fn wait(table: SemArrayId, index: u32, value: u32) -> Op {
        Op::SemWait {
            table,
            index,
            value,
        }
    }

    /// Convenience constructor for [`Op::SemPost`] with increment 1.
    pub const fn post(table: SemArrayId, index: u32) -> Op {
        Op::SemPost {
            table,
            index,
            inc: 1,
        }
    }

    /// Convenience constructor for [`Op::LinkSend`].
    pub const fn link_send(bytes: u64) -> Op {
        Op::LinkSend { bytes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_build_expected_variants() {
        assert_eq!(Op::compute(10), Op::Compute { cycles: 10 });
        assert_eq!(Op::read(64), Op::GlobalRead { bytes: 64 });
        assert_eq!(Op::write(64), Op::GlobalWrite { bytes: 64 });
        let t = SemArrayId(0);
        assert_eq!(
            Op::wait(t, 3, 2),
            Op::SemWait {
                table: t,
                index: 3,
                value: 2
            }
        );
        assert_eq!(
            Op::post(t, 3),
            Op::SemPost {
                table: t,
                index: 3,
                inc: 1
            }
        );
    }
}
