//! The compile → session lifecycle.
//!
//! Synchronization structure — kernel registrations, semaphore layouts,
//! launch gates, launch order — is a *compile-time* artifact: it never
//! changes between invocations of the same workload. This module splits
//! it from execution so it is built **once** and reused:
//!
//! - [`CompiledPipeline`] — the immutable, `Arc`-shareable artifact frozen
//!   by [`Gpu::compile`]: the pipeline description plus pristine copies of
//!   initial memory and semaphores.
//! - [`Session`] — a reusable execution engine. [`Session::run`] executes
//!   any compiled pipeline against a pooled run state whose arenas
//!   (event heaps, slabs, block programs, wait-lists) are *reset*, not
//!   reallocated, between runs — so repeated runs of one pipeline are
//!   allocation-free after warmup, and `AlreadyRan` disappears from the
//!   happy path. [`run_compiled`] runs on a per-thread session.
//!
//! Determinism is preserved end to end: a `Session` re-run of a pipeline
//! is bit-identical to a fresh [`Gpu`] run of the same workload, in both
//! [`EngineMode`]s (`tests/session_reuse.rs`).

use std::cell::RefCell;
use std::fmt;
use std::sync::OnceLock;

use crate::engine::{
    execute_with, EngineMode, Gpu, LinkScale, PipelineDesc, Programs, RunOptions, RunOutcome,
    RunState, SimError,
};
use crate::mem::GlobalMemory;
use crate::sched::SchedPolicyRef;
use crate::sem::SemTable;
use crate::stats::RunReport;
use crate::trace::TraceEvent;
use crate::GpuConfig;

/// An immutable, shareable, repeatedly-executable workload: the frozen
/// pipeline description plus pristine initial memory and semaphore state.
///
/// Produced by [`Gpu::compile`] (or the higher-level
/// `cusync::Pipeline::compile`); executed by [`Session::run`] or
/// [`run_compiled`]. A `CompiledPipeline` is `Send + Sync`, so one
/// `Arc<CompiledPipeline>` can serve sessions on any number of threads.
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
    /// Scheduling override installed via [`Gpu::set_sched`] before
    /// compilation; `None` follows the config's
    /// [`GpuConfig::sched`](crate::GpuConfig) kind. A
    /// [`Session::set_sched`] override still wins per run.
    sched: Option<SchedPolicyRef>,
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

    /// Number of registered kernels (wait-kernels included).
    pub fn num_kernels(&self) -> usize {
        self.desc.kernels.len()
    }

    /// Number of streams.
    pub fn num_streams(&self) -> usize {
        self.desc.streams.len()
    }

    /// Names of the registered kernels, in launch order.
    pub fn kernel_names(&self) -> impl Iterator<Item = &str> {
        self.desc.kernels.iter().map(|k| k.name.as_str())
    }

    /// Grid of each registered kernel, in launch order (index-aligned with
    /// [`CompiledPipeline::kernel_names`]). The exploration driver uses
    /// this to check that a completed schedule issued each kernel's grid
    /// exactly.
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

    /// A deterministic 64-bit digest of everything that identifies this
    /// pipeline as a *workload*: the cluster shape, stream layout, kernel
    /// registrations (name, grid, occupancy, device, stream, and each
    /// source's [`cost_signature`](crate::KernelSource::cost_signature) —
    /// so identical grids of differently-priced work do not collide),
    /// semaphore layout, and the initial-memory fingerprint. Two
    /// pipelines built the same way fingerprint equal; any change to the
    /// graph, tiling, kernel cost model, sync policy layout or hardware
    /// model changes the digest.
    ///
    /// This is the cache key of the serving layer's service-time memo
    /// (`crates/serve`) and of the autotuner's persistent tuning cache
    /// (`cusyncgen::TuneCache`).
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = FNV_OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                hash ^= b as u64;
                hash = hash.wrapping_mul(FNV_PRIME);
            }
        };
        let cluster = &self.desc.cluster;
        eat(&cluster.num_devices().to_le_bytes());
        eat(&cluster.link_latency.as_picos().to_le_bytes());
        for device in &cluster.devices {
            eat(device.name.as_bytes());
            eat(&device.num_sms.to_le_bytes());
            eat(&device.host_launch_gap.as_picos().to_le_bytes());
            eat(&device.kernel_dispatch_latency.as_picos().to_le_bytes());
        }
        eat(&(self.desc.streams.len() as u64).to_le_bytes());
        for kernel in &self.desc.kernels {
            eat(kernel.name.as_bytes());
            eat(&kernel.grid.x.to_le_bytes());
            eat(&kernel.grid.y.to_le_bytes());
            eat(&kernel.grid.z.to_le_bytes());
            eat(&kernel.occupancy.to_le_bytes());
            eat(&kernel.device.to_le_bytes());
            eat(&(kernel.stream as u64).to_le_bytes());
            // Same geometry, differently-priced work must not collide
            // (see `KernelSource::cost_signature`).
            eat(&kernel.source.cost_signature().to_le_bytes());
            // Launch gates and completion posts change the schedule
            // without changing any block body — a StreamSerial edge would
            // otherwise fingerprint identically to no edge at all.
            for gate in &kernel.gates {
                let (tag, target) = match *gate {
                    crate::LaunchGate::AfterLaunchOf(t) => (1u8, t),
                    crate::LaunchGate::AfterCompletionOf(t) => (2u8, t),
                };
                eat(&[tag]);
                eat(&(target.0 as u64).to_le_bytes());
            }
            for &(table, index) in &kernel.completion_posts {
                eat(&[3u8]);
                eat(&(table.0 as u64).to_le_bytes());
                eat(&index.to_le_bytes());
            }
        }
        for id in self.sems.ids() {
            eat(self.sems.name(id).as_bytes());
            eat(&(self.sems.len(id) as u64).to_le_bytes());
        }
        // Initial functional contents (timing-only buffers contribute
        // layout; see `GlobalMemory::fingerprint`).
        eat(&self.mem.fingerprint().to_le_bytes());
        hash
    }

    /// The pre-driven op programs, collected on first use against the
    /// pristine initial memory (emitters only read it) — once per
    /// pipeline, then shared by every session.
    fn programs(&self) -> &Programs {
        self.programs
            .get_or_init(|| self.desc.collect_programs(&self.mem))
    }
}

impl Gpu {
    /// Freezes this built (but not yet run) GPU into an immutable
    /// [`CompiledPipeline`]: kernel registrations, semaphore layout,
    /// initial memory contents and resolved launch gates.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::AlreadyRan`] if the GPU has already executed —
    /// its memory and semaphores would no longer be the pipeline's initial
    /// state.
    pub fn compile(mut self) -> Result<CompiledPipeline, SimError> {
        if self.ran {
            return Err(SimError::AlreadyRan);
        }
        self.desc.finalize_gates();
        let RunState { mem, sems, .. } = self.st;
        Ok(CompiledPipeline {
            desc: self.desc,
            mem,
            sems,
            sched: self.sched,
            programs: OnceLock::new(),
        })
    }
}

/// A reusable execution engine: one pooled run state that any
/// [`CompiledPipeline`] can run on, any number of times.
///
/// Between runs every per-run arena (event heap and slab, block slots,
/// pre-driven op programs, wait-lists, traces) is rewound in place and
/// memory/semaphores are restored from the pipeline's pristine copies —
/// re-running the *same* pipeline allocates nothing after warmup, and
/// running a *different* pipeline just re-primes the storage.
pub struct Session {
    mode: EngineMode,
    st: RunState,
    trace_enabled: bool,
    /// Per-session scheduling override; `None` follows each pipeline's
    /// compiled-in config policy. This is what lets one compiled pipeline
    /// be explored under many schedules without recompiling (see
    /// [`crate::explore`]).
    sched: Option<SchedPolicyRef>,
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
            .field("sched_override", &self.sched.as_ref().map(|s| s.name()))
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
            sched: None,
            link_scale: None,
        }
    }

    /// The engine implementation this session runs on.
    pub fn mode(&self) -> EngineMode {
        self.mode
    }

    /// Sets (or with `None`, clears) this session's block-issue ordering
    /// override. While set, every [`Session::run`] uses it instead of the
    /// pipeline's compiled-in [`GpuConfig::sched`](crate::GpuConfig)
    /// policy — the hook schedule-space exploration runs through.
    pub fn set_sched(&mut self, sched: Option<SchedPolicyRef>) {
        self.sched = sched;
    }

    /// The current scheduling override, if any.
    pub fn sched(&self) -> Option<&SchedPolicyRef> {
        self.sched.as_ref()
    }

    /// Sets (or with `None`, clears) this session's link degradation
    /// scale. While set, every run prices [`Op::LinkSend`](crate::Op)
    /// wire time at `scale × healthy` — the interconnect half of the
    /// fault-injection story (`crates/serve`). Identical in both engine
    /// modes; no recompilation.
    pub fn set_link_scale(&mut self, scale: Option<LinkScale>) {
        self.link_scale = scale;
    }

    /// The current link degradation scale, if any.
    pub fn link_scale(&self) -> Option<LinkScale> {
        self.link_scale
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
    /// [`Gpu`] run of the same workload.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] if execution stalls with incomplete
    /// kernels (the session remains usable afterwards).
    pub fn run(&mut self, pipeline: &CompiledPipeline) -> Result<RunReport, SimError> {
        match self.run_with(pipeline, None)? {
            RunOutcome::Complete(report) => Ok(report),
            RunOutcome::Aborted(_) => unreachable!("unbounded run cannot abort"),
        }
    }

    /// Executes `pipeline` with an **abort horizon**: the engine runs
    /// normally until the first *kernel boundary* (a kernel's final block
    /// retiring) at or after `horizon`, then checkpoints — same-instant
    /// completions drain, nothing further issues — and returns
    /// [`RunOutcome::Aborted`] describing the residue. A pipeline that
    /// drains entirely first returns [`RunOutcome::Complete`] with a
    /// report bit-identical to a plain [`Session::run`].
    ///
    /// This is the preemption hook of the serving layer: a dispatcher
    /// evicting a running batch stops it at the next kernel boundary and
    /// requeues the remainder (`crates/serve`). Checkpoints land on the
    /// identical boundary in both [`EngineMode`]s, and the session stays
    /// fully usable afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] if execution stalls before any
    /// boundary at or past the horizon is reached.
    pub fn run_until(
        &mut self,
        pipeline: &CompiledPipeline,
        horizon: crate::SimTime,
    ) -> Result<RunOutcome, SimError> {
        self.run_with(pipeline, Some(horizon))
    }

    fn run_with(
        &mut self,
        pipeline: &CompiledPipeline,
        abort_at: Option<crate::SimTime>,
    ) -> Result<RunOutcome, SimError> {
        self.st.reset(&pipeline.desc);
        self.st.reset_storage(&pipeline.mem, &pipeline.sems);
        self.st.trace_enabled = self.trace_enabled;
        // The reference engine never replays programs; don't trigger
        // their (lazy, once-per-pipeline) collection for it.
        static EMPTY_PROGRAMS: OnceLock<Programs> = OnceLock::new();
        let programs = match self.mode {
            EngineMode::Optimized => pipeline.programs(),
            EngineMode::Reference => EMPTY_PROGRAMS.get_or_init(Programs::empty),
        };
        // Override precedence: session > pipeline (a `Gpu::set_sched`
        // carried through compile) > config kind.
        let sched = self
            .sched
            .clone()
            .or_else(|| pipeline.sched.clone())
            .unwrap_or_else(|| pipeline.desc.cluster.effective_sched().instantiate());
        let opts = RunOptions {
            abort_at,
            link_scale: self.link_scale,
        };
        execute_with(
            &pipeline.desc,
            programs,
            self.mode,
            sched.as_ref(),
            &mut self.st,
            opts,
        )
    }
}

thread_local! {
    static THREAD_SESSION: RefCell<Session> = RefCell::new(Session::new());
}

/// Runs `pipeline` on this thread's pooled [`EngineMode::Optimized`]
/// [`Session`], creating it on first use.
///
/// This is the convenience the one-shot model/bench helpers run on: every
/// call after the first on a given thread reuses the warmed engine arenas.
pub fn run_compiled(pipeline: &CompiledPipeline) -> Result<RunReport, SimError> {
    THREAD_SESSION.with(|cell| cell.borrow_mut().run(pipeline))
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
    fn gpu_sched_override_survives_compilation() {
        use crate::trace::TraceEvent;
        let build = |lifo: bool| {
            let mut gpu = Gpu::new(quiet_config());
            if lifo {
                gpu.set_sched(Arc::new(crate::Lifo));
            }
            let s1 = gpu.create_stream(0);
            let s2 = gpu.create_stream(0);
            for (name, s) in [("first", s1), ("second", s2)] {
                gpu.launch(
                    s,
                    Arc::new(FixedKernel::new(
                        name,
                        Dim3::linear(2),
                        1,
                        vec![Op::compute(1000)],
                    )),
                );
            }
            gpu.compile().unwrap()
        };
        let first_issued = |pipeline: &CompiledPipeline| {
            let mut session = Session::new();
            session.enable_trace();
            session.run(pipeline).unwrap();
            session
                .trace()
                .iter()
                .find_map(|e| match e {
                    TraceEvent::BlockIssued { kernel, .. } => Some(*kernel),
                    _ => None,
                })
                .unwrap()
        };
        // Config default (Fifo): launch order; with the Gpu-level Lifo
        // override carried through compile, the later launch issues first.
        assert_eq!(first_issued(&build(false)), crate::KernelId(0));
        assert_eq!(first_issued(&build(true)), crate::KernelId(1));
        // A session-level override still wins over the compiled-in one.
        let pipeline = build(true);
        let mut session = Session::new();
        session.enable_trace();
        session.set_sched(Some(Arc::new(crate::Fifo)));
        session.run(&pipeline).unwrap();
        let first = session
            .trace()
            .iter()
            .find_map(|e| match e {
                TraceEvent::BlockIssued { kernel, .. } => Some(*kernel),
                _ => None,
            })
            .unwrap();
        assert_eq!(first, crate::KernelId(0));
    }

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        let a = two_kernel_pipeline();
        let b = two_kernel_pipeline();
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "identical builds must fingerprint equal"
        );
        // Running a pipeline never perturbs its (pristine) fingerprint.
        let before = a.fingerprint();
        Session::new().run(&a).unwrap();
        assert_eq!(a.fingerprint(), before);
        // A different grid is a different workload.
        let mut gpu = Gpu::new(quiet_config());
        let s = gpu.create_stream(0);
        gpu.launch(
            s,
            Arc::new(FixedKernel::new(
                "producer",
                Dim3::linear(3),
                1,
                vec![Op::compute(10_000)],
            )),
        );
        let c = gpu.compile().unwrap();
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn fingerprint_distinguishes_cost_at_identical_geometry() {
        // Same kernel names, grids, occupancies, streams and semaphore
        // layout — only the op cycle counts differ. The service-time
        // memo and tuning cache key on the fingerprint, so these MUST
        // not collide.
        let build = |cycles: u64| {
            let mut gpu = Gpu::new(quiet_config());
            let s = gpu.create_stream(0);
            gpu.launch(
                s,
                Arc::new(FixedKernel::new(
                    "k",
                    Dim3::linear(4),
                    1,
                    vec![Op::compute(cycles)],
                )),
            );
            gpu.compile().unwrap()
        };
        assert_ne!(build(100_000).fingerprint(), build(900_000).fingerprint());
        assert_eq!(build(100_000).fingerprint(), build(100_000).fingerprint());
    }

    #[test]
    fn compile_after_run_is_rejected() {
        let mut gpu = Gpu::new(quiet_config());
        let s = gpu.create_stream(0);
        gpu.launch(
            s,
            Arc::new(FixedKernel::new("k", Dim3::linear(1), 1, vec![])),
        );
        gpu.run().unwrap();
        assert_eq!(gpu.compile().unwrap_err(), SimError::AlreadyRan);
    }

    #[test]
    fn run_compiled_matches_dedicated_session() {
        let pipeline = two_kernel_pipeline();
        let pooled = run_compiled(&pipeline).unwrap();
        let dedicated = Session::new().run(&pipeline).unwrap();
        assert_eq!(pooled, dedicated);
        let reference = Session::with_mode(EngineMode::Reference)
            .run(&pipeline)
            .unwrap();
        assert_eq!(reference.kernels, pooled.kernels);
    }

    #[test]
    fn new_constructors_build_the_optimized_engine() {
        let optimized = EngineMode::Optimized;
        assert_eq!(Gpu::new(quiet_config()).engine_mode(), optimized);
        let cluster = crate::ClusterConfig::dgx_v100(2);
        assert_eq!(Gpu::new_cluster(cluster).engine_mode(), optimized);
        assert_eq!(Session::new().mode(), optimized);
        // Only the Optimized engine prices through its memos, so the
        // pooled thread session must report lookups.
        let counters = run_compiled(&two_kernel_pipeline()).unwrap().counters;
        let lookups = |m: crate::MemoCount| m.hits + m.misses;
        assert!(
            lookups(counters.cycles_memo) + lookups(counters.mem_memo) > 0,
            "{counters:?}"
        );
    }

    #[test]
    fn run_until_past_completion_matches_plain_run() {
        let pipeline = two_kernel_pipeline();
        let mut session = Session::new();
        let plain = session.run(&pipeline).unwrap();
        // A horizon beyond the last kernel boundary never checkpoints.
        match session
            .run_until(&pipeline, plain.total + SimTime::from_nanos(1))
            .unwrap()
        {
            RunOutcome::Complete(report) => assert_eq!(report, plain),
            RunOutcome::Aborted(res) => panic!("unreachable horizon aborted at {}", res.aborted_at),
        }
        // A horizon *at* the final boundary also completes: nothing is
        // left to checkpoint once every kernel retired.
        match session.run_until(&pipeline, plain.total).unwrap() {
            RunOutcome::Complete(report) => assert_eq!(report, plain),
            RunOutcome::Aborted(res) => {
                panic!("final-boundary horizon aborted at {}", res.aborted_at)
            }
        }
    }

    #[test]
    fn run_until_checkpoints_at_kernel_boundary_in_both_modes() {
        let pipeline = two_kernel_pipeline();
        let mut probe = Session::new();
        let full = probe.run(&pipeline).unwrap();
        let producer_end = full.kernel("producer").end;
        assert!(producer_end < full.total);
        // Aborting anywhere in (0, producer_end] must checkpoint exactly
        // at the producer's boundary, identically in both engine modes.
        let residue_in = |mode: EngineMode| {
            let mut session = Session::with_mode(mode);
            match session
                .run_until(&pipeline, SimTime::from_picos(1))
                .unwrap()
            {
                RunOutcome::Aborted(res) => {
                    // The session survives a checkpointed run intact: it
                    // replays a fresh session's run in its mode exactly
                    // (engine counters included), and matches the probe's
                    // report in everything but the per-engine counters.
                    let rerun = session.run(&pipeline).unwrap();
                    assert_eq!(rerun, Session::with_mode(mode).run(&pipeline).unwrap());
                    assert_eq!(
                        RunReport {
                            counters: full.counters,
                            ..rerun
                        },
                        full
                    );
                    res
                }
                RunOutcome::Complete(_) => panic!("tiny horizon must checkpoint"),
            }
        };
        let reference = residue_in(EngineMode::Reference);
        let optimized = residue_in(EngineMode::Optimized);
        assert_eq!(reference, optimized, "checkpoints must be bit-identical");
        assert_eq!(reference.aborted_at, producer_end);
        assert_eq!(reference.kernels_done, 1);
        assert_eq!(reference.kernels_total, 2);
        assert!(reference.blocks_done < reference.blocks_total);
        assert_eq!(reference.remaining(full.total), full.total - producer_end);
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
