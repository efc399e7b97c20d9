//! Execution trace for debugging and for tests that assert scheduling
//! behaviour (issue order, wave boundaries, wait/wake times).

use std::fmt;

use crate::dim::Dim3;
use crate::sem::SemArrayId;
use crate::time::SimTime;

/// Identifier of a launched kernel within one [`Gpu`](crate::Gpu).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KernelId(pub(crate) usize);

impl KernelId {
    /// The kernel's launch index within its pipeline — the `n` of the
    /// `k{n}` display form. Stable across runs of the same pipeline, so
    /// observability layers can use it as an array index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for KernelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k{}", self.0)
    }
}

/// One entry of the execution trace.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A kernel became eligible to issue thread blocks.
    KernelReady {
        /// Kernel that became ready.
        kernel: KernelId,
        /// Time it became ready.
        time: SimTime,
    },
    /// A thread block was placed on an SM.
    BlockIssued {
        /// Owning kernel.
        kernel: KernelId,
        /// Block index within the grid.
        block: Dim3,
        /// SM the block was placed on.
        sm: u32,
        /// SM capacity units the block occupies while resident
        /// (`SM_CAPACITY_UNITS / occupancy`).
        units: u32,
        /// Issue time.
        time: SimTime,
    },
    /// A thread block finished and released its SM slot.
    BlockFinished {
        /// Owning kernel.
        kernel: KernelId,
        /// Block index within the grid.
        block: Dim3,
        /// Completion time.
        time: SimTime,
    },
    /// A block started waiting on a semaphore that was not yet at the
    /// target value.
    BlockBlocked {
        /// Owning kernel.
        kernel: KernelId,
        /// Block index within the grid.
        block: Dim3,
        /// Semaphore array waited on.
        table: SemArrayId,
        /// Semaphore index waited on.
        index: u32,
        /// Target value.
        value: u32,
        /// Time the wait began.
        time: SimTime,
    },
    /// A block's pending semaphore wait was satisfied; the block resumes
    /// spinning down at `time` (the wake includes the poll-observation
    /// cost, so `time` is when the block re-occupies its slot usefully).
    BlockWoken {
        /// Owning kernel.
        kernel: KernelId,
        /// Block index within the grid.
        block: Dim3,
        /// Semaphore array that was waited on.
        table: SemArrayId,
        /// Semaphore index that was waited on.
        index: u32,
        /// Resume time.
        time: SimTime,
    },
    /// A semaphore post became visible.
    SemPosted {
        /// Semaphore array posted to.
        table: SemArrayId,
        /// Semaphore index posted to.
        index: u32,
        /// Value after the post.
        new_value: u32,
        /// Kernel whose block (or completion) performed the post, when
        /// known. `None` for host-side posts.
        poster: Option<KernelId>,
        /// Visibility time.
        time: SimTime,
    },
    /// A kernel reached the head of its stream but is held by an
    /// unsatisfied launch gate (PDL / stream-serialization dependence).
    GateHeld {
        /// The held kernel.
        kernel: KernelId,
        /// Time the kernel reached its stream head and began waiting.
        time: SimTime,
    },
    /// A kernel's final outstanding launch-gate prerequisite fell.
    GateOpened {
        /// The kernel whose gates are now all open.
        kernel: KernelId,
        /// The producer kernel whose progress dropped the final gate.
        by: KernelId,
        /// Time the gate opened.
        time: SimTime,
    },
    /// An [`Op::LinkSend`](crate::Op::LinkSend) occupied the inter-device
    /// link.
    LinkSent {
        /// Kernel performing the send.
        kernel: KernelId,
        /// Block performing the send.
        block: Dim3,
        /// Payload size in bytes.
        bytes: u64,
        /// Wire time the transfer occupied the link.
        wire: SimTime,
        /// Time the transfer started.
        time: SimTime,
    },
    /// All blocks of a kernel completed.
    KernelFinished {
        /// Kernel that finished.
        kernel: KernelId,
        /// Completion time.
        time: SimTime,
    },
}

impl TraceEvent {
    /// The simulated time of this event.
    pub fn time(&self) -> SimTime {
        match *self {
            TraceEvent::KernelReady { time, .. }
            | TraceEvent::BlockIssued { time, .. }
            | TraceEvent::BlockFinished { time, .. }
            | TraceEvent::BlockBlocked { time, .. }
            | TraceEvent::BlockWoken { time, .. }
            | TraceEvent::SemPosted { time, .. }
            | TraceEvent::GateHeld { time, .. }
            | TraceEvent::GateOpened { time, .. }
            | TraceEvent::LinkSent { time, .. }
            | TraceEvent::KernelFinished { time, .. } => time,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::waves;
    use crate::{Dim3, FixedKernel, Gpu, GpuConfig, Op, RunReport, SchedPolicy, Session};
    use std::collections::BTreeMap;
    use std::sync::Arc;

    #[test]
    fn trace_event_reports_time() {
        let e = TraceEvent::KernelReady {
            kernel: KernelId(0),
            time: SimTime::from_nanos(5),
        };
        assert_eq!(e.time(), SimTime::from_nanos(5));
    }

    const ALL_POLICIES: [SchedPolicy; 5] = [
        SchedPolicy::Fifo,
        SchedPolicy::Lifo,
        SchedPolicy::SeededShuffle(5),
        SchedPolicy::SeededShuffle(99),
        SchedPolicy::SemStarver,
    ];

    fn quiet_config(sms: u32) -> GpuConfig {
        GpuConfig {
            host_launch_gap: SimTime::ZERO,
            kernel_dispatch_latency: SimTime::ZERO,
            block_jitter: 0.0,
            ..GpuConfig::toy(sms)
        }
    }

    /// Compiles what `build` launches and runs it traced on a session
    /// issuing blocks under `policy`, returning the report and trace.
    fn run_under(
        policy: SchedPolicy,
        sms: u32,
        build: impl FnOnce(&mut Gpu),
    ) -> (RunReport, Vec<TraceEvent>) {
        let mut gpu = Gpu::new(quiet_config(sms));
        build(&mut gpu);
        let pipeline = gpu.compile().unwrap();
        let mut session = Session::new();
        session.set_sched(policy);
        session.enable_trace();
        let report = session
            .run(&pipeline)
            .expect("capacity-safe workload terminates");
        (report, session.trace().to_vec())
    }

    /// A producer/consumer workload with partial waves and semaphores,
    /// traced under `policy`.
    fn traced_run(policy: SchedPolicy) -> Vec<TraceEvent> {
        run_under(policy, 4, |gpu| {
            let sem = gpu.alloc_sems("tiles", 4, 0);
            let s1 = gpu.create_stream(0);
            let s2 = gpu.create_stream(0);
            gpu.launch(
                s1,
                Arc::new(FixedKernel::new(
                    "producer",
                    Dim3::linear(6),
                    2,
                    vec![Op::compute(40_000), Op::Fence, Op::post(sem, 0)],
                )),
            );
            gpu.launch(
                s2,
                Arc::new(FixedKernel::new(
                    "consumer",
                    Dim3::linear(6),
                    2,
                    vec![Op::wait(sem, 0, 3), Op::compute(5_000)],
                )),
            );
        })
        .1
    }

    /// Issue order is a permutation of each kernel's grid: every block
    /// issued exactly once, and the issued set equals the grid — under
    /// every scheduling policy.
    #[test]
    fn issue_order_is_a_permutation_of_blocks_under_every_policy() {
        for policy in ALL_POLICIES {
            let trace = traced_run(policy);
            let mut issued: BTreeMap<KernelId, Vec<Dim3>> = BTreeMap::new();
            for event in &trace {
                if let TraceEvent::BlockIssued { kernel, block, .. } = *event {
                    issued.entry(kernel).or_default().push(block);
                }
            }
            assert_eq!(issued.len(), 2, "{policy}: both kernels issue");
            for (kernel, blocks) in issued {
                let mut sorted = blocks.clone();
                sorted.sort();
                sorted.dedup();
                assert_eq!(
                    sorted.len(),
                    blocks.len(),
                    "{policy}: {kernel} issued a block twice"
                );
                let grid = Dim3::linear(6);
                let expected: Vec<Dim3> = grid.iter().collect();
                let mut expected = expected;
                expected.sort();
                assert_eq!(sorted, expected, "{policy}: {kernel} issue set != grid");
            }
        }
    }

    /// Per block: issue ≤ every block/blocked event ≤ finish, and each
    /// block's wait (blocked) and wake-adjacent timestamps never decrease.
    #[test]
    fn wait_and_wake_times_are_non_decreasing_per_block() {
        for policy in ALL_POLICIES {
            let trace = traced_run(policy);
            let mut last_time: BTreeMap<(KernelId, Dim3), SimTime> = BTreeMap::new();
            let mut finished: BTreeMap<(KernelId, Dim3), SimTime> = BTreeMap::new();
            for event in &trace {
                match *event {
                    TraceEvent::BlockIssued {
                        kernel,
                        block,
                        time,
                        ..
                    } => {
                        assert!(
                            last_time.insert((kernel, block), time).is_none(),
                            "{policy}: re-issue of {kernel} {block}"
                        );
                    }
                    TraceEvent::BlockBlocked {
                        kernel,
                        block,
                        time,
                        ..
                    } => {
                        let prev = last_time
                            .insert((kernel, block), time)
                            .unwrap_or_else(|| panic!("{policy}: blocked before issue"));
                        assert!(time >= prev, "{policy}: wait time went backwards");
                    }
                    TraceEvent::BlockFinished {
                        kernel,
                        block,
                        time,
                    } => {
                        let prev = last_time
                            .get(&(kernel, block))
                            .copied()
                            .unwrap_or_else(|| panic!("{policy}: finish before issue"));
                        assert!(time >= prev, "{policy}: finish precedes last progress");
                        finished.insert((kernel, block), time);
                    }
                    _ => {}
                }
            }
            assert_eq!(finished.len(), 12, "{policy}: all 12 blocks finish");
        }
    }

    /// For a lone kernel the distinct block-issue instants are exactly its
    /// wave boundaries: `ceil(waves(blocks, occupancy, sms))` of them,
    /// under every scheduling policy (with a single kernel the policy
    /// cannot change placement, only re-derive it).
    #[test]
    fn wave_boundaries_match_static_wave_arithmetic_under_every_policy() {
        for policy in ALL_POLICIES {
            let (blocks, occupancy, sms) = (6u64, 1u32, 4u32);
            let (report, trace) = run_under(policy, sms, |gpu| {
                let s = gpu.create_stream(0);
                gpu.launch(
                    s,
                    Arc::new(FixedKernel::new(
                        "solo",
                        Dim3::linear(blocks as u32),
                        occupancy,
                        vec![Op::compute(10_000)],
                    )),
                );
            });
            let mut issue_times: Vec<SimTime> = trace
                .iter()
                .filter_map(|e| match e {
                    TraceEvent::BlockIssued { time, .. } => Some(*time),
                    _ => None,
                })
                .collect();
            issue_times.sort();
            issue_times.dedup();
            let static_waves = waves(blocks, occupancy, sms);
            assert_eq!(report.kernels[0].static_waves, static_waves);
            assert_eq!(
                issue_times.len() as u64,
                static_waves.ceil() as u64,
                "{policy}: wave boundaries"
            );
        }
    }
}
