//! The compile → session lifecycle.
//!
//! Synchronization structure — kernel registrations, semaphore layouts,
//! launch gates, launch order — is a *compile-time* artifact: it never
//! changes between invocations of the same workload. This module splits
//! it from execution so it is built **once** and reused:
//!
//! - [`CompiledPipeline`] — the immutable, `Arc`-shareable artifact frozen
//!   by [`Gpu::compile`]: the pipeline description plus pristine copies of
//!   initial memory and semaphores, and its pre-driven op
//!   [`Programs`], built once on the first optimized run.
//! - [`Session`] — a reusable execution engine and the only way to run
//!   anything. [`Session::run`] executes any compiled pipeline against a
//!   pooled run state whose arenas (event heaps, slabs, block slots,
//!   wait-lists) are *reset*, not reallocated, between runs — so repeated
//!   runs of one pipeline are allocation-free after warmup.
//!
//! [`Gpu`] only builds and a `Session` only runs: `compile(self)`
//! consumes the builder, so no workload is frozen twice. Determinism is
//! preserved end to end: a reused `Session`'s run of a pipeline is
//! bit-identical to a fresh compile run on a fresh session, in both
//! [`EngineMode`]s (`tests/session_reuse.rs`).

use std::fmt;
use std::sync::OnceLock;

use crate::engine::{execute_with, EngineMode, Gpu, LinkScale, PipelineDesc, RunState, SimError};
use crate::mem::GlobalMemory;
use crate::programs::Programs;
use crate::sched::SchedPolicy;
use crate::sem::SemTable;
use crate::stats::RunReport;
use crate::trace::TraceEvent;
use crate::GpuConfig;

/// An immutable, shareable, repeatedly-executable workload: the frozen
/// pipeline description plus pristine initial memory and semaphore state.
///
/// Produced by [`Gpu::compile`]; executed by [`Session::run`]. A
/// `CompiledPipeline` is `Send + Sync`, so one `Arc<CompiledPipeline>`
/// can serve sessions on any number of threads.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use cusync_sim::{Dim3, FixedKernel, Gpu, GpuConfig, Op, Session};
///
/// let mut gpu = Gpu::new(GpuConfig::toy(4));
/// let s = gpu.create_stream(0);
/// gpu.launch(s, Arc::new(FixedKernel::new(
///     "k", Dim3::linear(6), 1, vec![Op::compute(1000)],
/// )));
/// let pipeline = gpu.compile()?;
///
/// let mut session = Session::new();
/// let first = session.run(&pipeline)?;
/// let again = session.run(&pipeline)?; // no rebuild, arenas reused
/// assert_eq!(first.total, again.total);
/// # Ok::<(), cusync_sim::SimError>(())
/// ```
pub struct CompiledPipeline {
    desc: PipelineDesc,
    mem: GlobalMemory,
    sems: SemTable,
    /// Statically emitted op programs
    /// ([`KernelSource::static_programs`](crate::KernelSource)), built on
    /// the first optimized-engine run (then immutable and shared).
    /// Reference-engine consumers never trigger — or pay for — collection.
    programs: OnceLock<Programs>,
}

impl fmt::Debug for CompiledPipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledPipeline")
            .field("config", &self.desc.primary_config().name)
            .field("devices", &self.desc.cluster.devices.len())
            .field("streams", &self.desc.streams.len())
            .field("kernels", &self.desc.kernels.len())
            .finish_non_exhaustive()
    }
}

impl CompiledPipeline {
    /// The hardware model the pipeline was compiled for (device 0's for a
    /// multi-device pipeline; see [`CompiledPipeline::cluster`]).
    pub fn config(&self) -> &GpuConfig {
        self.desc.primary_config()
    }

    /// The full cluster model the pipeline was compiled for. Sessions are
    /// device-count-agnostic: a compiled multi-device pipeline runs
    /// through exactly the same [`Session::run`] path as a single-GPU one.
    pub fn cluster(&self) -> &crate::ClusterConfig {
        &self.desc.cluster
    }

    /// Grid of each registered kernel (wait-kernels included), in launch
    /// order. The exploration driver uses this to check that a completed
    /// schedule issued each kernel's grid exactly.
    pub fn kernel_grids(&self) -> impl Iterator<Item = crate::Dim3> + '_ {
        self.desc.kernels.iter().map(|k| k.grid)
    }

    /// The pristine initial memory every run starts from.
    pub fn initial_mem(&self) -> &GlobalMemory {
        &self.mem
    }

    /// The pristine initial semaphore table every run starts from.
    pub fn initial_sems(&self) -> &SemTable {
        &self.sems
    }

    /// The pre-driven op programs, collected on first call against the
    /// pristine initial memory (emitters only read it) — once per
    /// pipeline, then shared by every session. An optimized-engine run
    /// calls this; a reference-engine run never does.
    pub fn programs(&self) -> &Programs {
        self.programs
            .get_or_init(|| self.desc.collect_programs(&self.mem))
    }
}

impl Gpu {
    /// Consumes this builder into an immutable [`CompiledPipeline`]:
    /// kernel registrations, semaphore layout, initial memory contents and
    /// resolved launch gates. Run it with a [`Session`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] if the hardware model is out of range
    /// ([`ClusterConfig::validate`](crate::ClusterConfig::validate)).
    pub fn compile(mut self) -> Result<CompiledPipeline, SimError> {
        self.desc.cluster.validate()?;
        self.desc.finalize_gates();
        Ok(CompiledPipeline {
            desc: self.desc,
            mem: self.mem,
            sems: self.sems,
            programs: OnceLock::new(),
        })
    }
}

/// A reusable execution engine: one pooled run state that any
/// [`CompiledPipeline`] can run on, any number of times.
///
/// Between runs every per-run arena (event heap and slab, block slots,
/// wait-lists, traces) is rewound in place and memory/semaphores are
/// restored from the pipeline's pristine copies — re-running the *same*
/// pipeline allocates nothing after warmup, and running a *different*
/// pipeline just re-primes the storage. The pre-driven op programs are
/// not per-run state: each pipeline builds its own once
/// ([`CompiledPipeline::programs`]).
///
/// A session owns every run setting: the engine mode, the trace flag, the
/// block-issue order and the link scale. Every run goes through it: a
/// [`Gpu`] only builds.
pub struct Session {
    mode: EngineMode,
    pub(crate) st: RunState,
    trace_enabled: bool,
    /// Block-issue order, [`SchedPolicy::Fifo`] (the hardware launch
    /// order) until set. This is what lets one compiled pipeline be
    /// explored under many schedules without recompiling (see
    /// [`crate::explore`]).
    sched: SchedPolicy,
    /// Per-session link degradation: while set, every run scales its
    /// [`Op::LinkSend`](crate::Op) wire time by this factor — the fault
    /// injection hook for a degraded interconnect, applied without
    /// recompiling the pipeline.
    link_scale: Option<LinkScale>,
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("mode", &self.mode)
            .field("trace_enabled", &self.trace_enabled)
            .field("sched", &self.sched)
            .finish_non_exhaustive()
    }
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

impl Session {
    /// Creates a session on the [`EngineMode::Optimized`] engine.
    pub fn new() -> Self {
        Session::with_mode(EngineMode::Optimized)
    }

    /// Creates a session pinned to a specific engine implementation.
    pub fn with_mode(mode: EngineMode) -> Self {
        Session {
            mode,
            st: RunState::new(),
            trace_enabled: false,
            sched: SchedPolicy::Fifo,
            link_scale: None,
        }
    }

    /// Sets this session's block-issue order: every later
    /// [`Session::run`] offers SM capacity in the order `sched` gives. A
    /// new session issues in the hardware launch order
    /// ([`SchedPolicy::Fifo`]: stream priority, then launch order). This
    /// is the only way to choose an issue order, and the hook
    /// schedule-space exploration ([`crate::explore`]) runs through.
    pub fn set_sched(&mut self, sched: SchedPolicy) {
        self.sched = sched;
    }

    /// Sets (or with `None`, clears) this session's link degradation
    /// scale. While set, every run prices [`Op::LinkSend`](crate::Op)
    /// wire time at `scale × healthy` — the interconnect half of the
    /// fault-injection story (`crates/serve`). Identical in both engine
    /// modes; no recompilation.
    pub fn set_link_scale(&mut self, scale: Option<LinkScale>) {
        self.link_scale = scale;
    }

    /// Records scheduling events for inspection by [`Session::trace`].
    pub fn enable_trace(&mut self) {
        self.trace_enabled = true;
    }

    /// The trace of the most recent run (empty unless
    /// [`Session::enable_trace`] was called).
    pub fn trace(&self) -> &[TraceEvent] {
        self.st.trace()
    }

    /// Final global-memory state of the most recent run (functional
    /// outputs, race log).
    pub fn mem(&self) -> &GlobalMemory {
        &self.st.mem
    }

    /// Final semaphore state of the most recent run.
    pub fn sems(&self) -> &SemTable {
        &self.st.sems
    }

    /// Executes `pipeline` to completion, resetting all per-run state
    /// first. May be called any number of times, with the same or
    /// different pipelines; every run starts from the pipeline's pristine
    /// initial conditions and produces a timeline bit-identical to a fresh
    /// session's run of the same workload.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] if execution stalls with incomplete
    /// kernels (the session remains usable afterwards).
    pub fn run(&mut self, pipeline: &CompiledPipeline) -> Result<RunReport, SimError> {
        self.st.reset_storage(&pipeline.mem, &pipeline.sems);
        // The reference engine never replays programs; don't trigger
        // their (lazy, once-per-pipeline) collection for it.
        static EMPTY_PROGRAMS: OnceLock<Programs> = OnceLock::new();
        let programs = match self.mode {
            EngineMode::Optimized => pipeline.programs(),
            EngineMode::Reference => EMPTY_PROGRAMS.get_or_init(Programs::default),
        };
        self.st.reset(&pipeline.desc);
        self.st.trace_enabled = self.trace_enabled;
        let report = execute_with(
            &pipeline.desc,
            programs,
            self.mode,
            self.sched,
            &mut self.st,
            self.link_scale,
        )?;
        debug_assert_eq!(report.check(), Ok(()), "a completed run broke a report law");
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dim3, FixedKernel, Op, SimTime};
    use std::sync::Arc;

    fn quiet_config() -> GpuConfig {
        GpuConfig {
            host_launch_gap: SimTime::ZERO,
            kernel_dispatch_latency: SimTime::ZERO,
            block_jitter: 0.0,
            ..GpuConfig::toy(4)
        }
    }

    fn two_kernel_pipeline() -> CompiledPipeline {
        let mut gpu = Gpu::new(quiet_config());
        let sem = gpu.alloc_sems("sem", 1, 0);
        let s1 = gpu.create_stream(0);
        let s2 = gpu.create_stream(0);
        gpu.launch(
            s1,
            Arc::new(FixedKernel::new(
                "producer",
                Dim3::linear(2),
                1,
                vec![Op::compute(10_000), Op::post(sem, 0)],
            )),
        );
        gpu.launch(
            s2,
            Arc::new(FixedKernel::new(
                "consumer",
                Dim3::linear(2),
                1,
                vec![Op::wait(sem, 0, 1), Op::compute(100)],
            )),
        );
        gpu.compile().unwrap()
    }

    #[test]
    fn session_reruns_are_identical_and_reset_semaphores() {
        let pipeline = two_kernel_pipeline();
        let mut session = Session::new();
        let first = session.run(&pipeline).unwrap();
        assert_eq!(first.sem_posts, 2);
        for _ in 0..3 {
            let again = session.run(&pipeline).unwrap();
            assert_eq!(first, again, "repeated runs must be bit-identical");
        }
        // The pristine pipeline state is untouched by running it.
        assert_eq!(
            pipeline
                .initial_sems()
                .value(pipeline.initial_sems().ids().next().unwrap(), 0),
            0
        );
    }

    #[test]
    fn session_can_switch_pipelines() {
        let a = two_kernel_pipeline();
        let mut gpu = Gpu::new(quiet_config());
        let s = gpu.create_stream(0);
        gpu.launch(
            s,
            Arc::new(FixedKernel::new(
                "solo",
                Dim3::linear(3),
                1,
                vec![Op::compute(500)],
            )),
        );
        let b = gpu.compile().unwrap();
        let mut session = Session::new();
        let ra1 = session.run(&a).unwrap();
        let rb = session.run(&b).unwrap();
        let ra2 = session.run(&a).unwrap();
        assert_eq!(ra1, ra2, "interleaving pipelines must not leak state");
        assert_eq!(rb.kernels.len(), 1);
    }

    #[test]
    fn new_constructors_build_the_optimized_engine() {
        // Only the Optimized engine prices through its memos, so every
        // session constructor without a mode must report lookups.
        let lookups = |report: RunReport| {
            let c = report.counters;
            c.cycles_memo.hits + c.cycles_memo.misses + c.mem_memo.hits + c.mem_memo.misses
        };
        let pipeline = two_kernel_pipeline();
        assert!(lookups(Session::new().run(&pipeline).unwrap()) > 0);
        assert!(lookups(Session::default().run(&pipeline).unwrap()) > 0);
        let reference = Session::with_mode(EngineMode::Reference).run(&pipeline);
        assert_eq!(lookups(reference.unwrap()), 0);
    }

    #[test]
    fn link_scale_degrades_wire_time_identically_in_both_modes() {
        use crate::{ClusterConfig, LinkScale};
        // Device 0 ships 1 MiB to device 1's consumer across the ring.
        let build = || {
            let mut gpu = Gpu::new_cluster(ClusterConfig::homogeneous(
                2,
                quiet_config(),
                SimTime::from_nanos(500),
                ClusterConfig::NVLINK_BYTES_PER_SEC,
            ));
            let ready = gpu.alloc_sems_on(1, "ready", 1, 0);
            let s0 = gpu.create_stream_on(0, 0);
            let s1 = gpu.create_stream_on(1, 0);
            gpu.launch(
                s0,
                Arc::new(FixedKernel::new(
                    "producer",
                    Dim3::linear(1),
                    1,
                    vec![
                        Op::compute(10_000),
                        Op::LinkSend { bytes: 1 << 20 },
                        Op::Fence,
                        Op::post(ready, 0),
                    ],
                )),
            );
            gpu.launch(
                s1,
                Arc::new(FixedKernel::new(
                    "consumer",
                    Dim3::linear(1),
                    1,
                    vec![Op::wait(ready, 0, 1), Op::compute(10_000)],
                )),
            );
            gpu.compile().unwrap()
        };
        let pipeline = build();
        let total_at = |mode: EngineMode, scale: Option<LinkScale>| {
            let mut session = Session::with_mode(mode);
            session.set_link_scale(scale);
            session.run(&pipeline).unwrap().total
        };
        let healthy = total_at(EngineMode::Reference, None);
        let degraded = total_at(EngineMode::Reference, Some(LinkScale::times(8)));
        assert!(
            degraded > healthy,
            "8x wire time must lengthen the timeline ({healthy} -> {degraded})"
        );
        // Identity scale is a no-op; both engine modes agree at any scale.
        assert_eq!(
            total_at(EngineMode::Reference, Some(LinkScale::IDENTITY)),
            healthy
        );
        assert_eq!(total_at(EngineMode::Optimized, None), healthy);
        assert_eq!(
            total_at(EngineMode::Optimized, Some(LinkScale::times(8))),
            degraded
        );
        // The exact 7x surcharge on the wire term: scaled = wire * 8.
        let wire = pipeline.cluster().link_wire_time(1 << 20);
        assert_eq!(degraded - healthy, SimTime::from_picos(wire.as_picos() * 7));
        // Clearing the scale restores the healthy timeline.
        let mut session = Session::new();
        session.set_link_scale(Some(LinkScale::times(8)));
        session.set_link_scale(None);
        assert_eq!(session.run(&pipeline).unwrap().total, healthy);
    }
}
