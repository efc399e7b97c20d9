//! The discrete-event execution engine.
//!
//! Since the compile/execute split the engine is factored into three
//! pieces (see `crates/sim/README.md` for the lifecycle):
//!
//! - [`PipelineDesc`] — the *immutable* description of a workload: the
//!   hardware model, streams, and kernel registrations (sources, grids,
//!   occupancies, launch order, launch gates). This is what
//!   [`CompiledPipeline`](crate::CompiledPipeline) freezes.
//! - [`RunState`] — *all* per-run state: event heaps and slabs, block
//!   slots, semaphore values, functional memory, SM capacity indexes,
//!   stats and traces. [`RunState::reset`] rewinds it to the pipeline's
//!   initial conditions while keeping every arena allocation, so repeated
//!   runs are allocation-free after warmup. The pre-driven op
//!   [`Programs`] are not run state: they are built once per compiled
//!   pipeline, held in a `OnceLock` on the
//!   [`CompiledPipeline`](crate::CompiledPipeline), and only read here.
//! - [`execute_with`] — the event loop itself, generic over both pieces.
//!   Both [`EngineMode`]s run through it and produce bit-identical
//!   timelines (`tests/engine_equivalence.rs`, `tests/session_reuse.rs`).
//!
//! [`Session`] is the one driver of `execute_with`: it owns the run state
//! and every run setting (engine mode, trace flag, issue-order override,
//! link scale). [`Gpu`] is only the builder: it owns one `PipelineDesc`
//! under construction plus the memory and semaphores kernels are built
//! against, and [`Gpu::compile`] freezes them for a `Session` to run.
//!
//! The simulated semantics are unchanged from the original engine:
//! thread blocks issue onto SM slots in kernel launch order — the
//! scheduling behaviour the paper observes on Volta/Ampere GPUs
//! (Section III-B). Busy-waiting blocks keep occupying their SM slot, so
//! an under-provisioned schedule can deadlock; the engine detects this
//! and reports which semaphores were being waited on.
//!
//! Two interchangeable event loops implement the same semantics (see
//! [`EngineMode`] and `crates/sim/README.md`):
//!
//! - [`EngineMode::Reference`] — the original engine: after every event
//!   batch it rescans all kernels and all SMs, and every block micro-op is
//!   a separate heap event. Kept as the executable specification and the
//!   perf baseline for `BENCH_*.json`.
//! - [`EngineMode::Optimized`] — the O(1)-amortized hot paths: an
//!   incrementally maintained ready-queue of issuable kernels, a per-SM
//!   free-capacity index, coalesced runs of non-synchronizing ops, and
//!   dense per-semaphore wait-lists.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::fmt;
use std::sync::Arc;

use crate::config::{ClusterConfig, ConfigError, GpuConfig, SM_CAPACITY_UNITS};
use crate::dim::Dim3;
use crate::kernel::{BlockCtx, KernelSource, Step};
use crate::mem::{BufferId, DType, GlobalMemory};
use crate::ops::Op;
use crate::programs::Programs;
use crate::sched::{SchedContext, SchedPolicy};
use crate::sem::{SemArrayId, SemTable, WaitLists};
use crate::stats::{waves, EngineCounters, KernelReport, MemoCount, RunReport};
use crate::time::SimTime;
use crate::trace::{KernelId, TraceEvent};

/// Identifier of a CUDA stream created on a [`Gpu`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(usize);

impl fmt::Display for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stream{}", self.0)
    }
}

/// Which event-loop implementation a run uses.
///
/// Both modes produce **identical** simulated timelines ([`RunReport`]
/// kernel start/end times, traces, deadlock reports); they differ only in
/// wall-clock cost. [`Session::new`](crate::Session::new) runs
/// [`EngineMode::Optimized`]; a Reference run names its mode through
/// [`Session::with_mode`](crate::Session::with_mode), the only place a
/// mode is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineMode {
    /// The original O(kernels × SMs)-per-event engine, kept as the
    /// executable specification and perf baseline.
    Reference,
    /// Incremental ready-queue, SM capacity index, op coalescing, dense
    /// wait-lists.
    #[default]
    Optimized,
}

impl fmt::Display for EngineMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineMode::Reference => write!(f, "reference"),
            EngineMode::Optimized => write!(f, "optimized"),
        }
    }
}

/// Payload-word tag of an inline `BlockResume` in an [`EventQueue`] key
/// (the high bit). Untagged payloads index the queue's event slab, so
/// both block ids and slab indexes must stay below it.
const RESUME_TAG: u32 = 1 << 31;

/// Exclusive bound on an [`EventQueue`] sequence number: it owns 32 bits
/// of the key.
const SEQ_LIMIT: u64 = 1 << 32;

/// The optimized engine's event queue: one 16-byte `u128` per pending
/// event, `time:64 | seq:32 | payload:32`. Sequence numbers are unique,
/// so a single integer compare orders events by `(time, seq)` — the same
/// order as the reference engine's [`Event`] heap — and the payload never
/// takes part. A `BlockResume` (nearly every event) carries its block id
/// inline in the payload, tagged with [`RESUME_TAG`]; other kinds store
/// their [`EventKind`] in a slab recycled through a freelist.
pub(crate) struct EventQueue {
    heap: BinaryHeap<Reverse<u128>>,
    slab: Vec<EventKind>,
    free: Vec<u32>,
    next_seq: u64,
    /// [`SEQ_LIMIT`], lowered by tests to reach the re-sequencing path.
    seq_limit: u64,
}

impl EventQueue {
    fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            seq_limit: SEQ_LIMIT,
        }
    }

    /// Empties the queue, keeping its allocations.
    fn clear(&mut self) {
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
    fn push(&mut self, time: SimTime, kind: EventKind) {
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
    fn len(&self) -> usize {
        self.heap.len()
    }

    /// Time in picoseconds of the earliest queued event.
    #[inline]
    fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|&Reverse(key)| (key >> 64) as u64)
    }

    /// Removes the earliest queued event.
    #[inline]
    fn pop(&mut self) -> Option<(SimTime, EventKind)> {
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
struct SmIndex {
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
    fn rebuild(&mut self, base: usize, free: &[u32]) {
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
    fn set(&mut self, sm: usize, free: u32) {
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
    fn best(&self) -> (u32, usize) {
        let root = self.tree[1];
        ((root >> 32) as u32, (u32::MAX - root as u32) as usize)
    }
}

/// What kind of input a kernel or pipeline builder rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BuildErrorKind {
    /// A required input (operand buffer, stage) was never provided.
    MissingInput,
    /// A provided shape is degenerate: a zero-sized problem dimension or
    /// thread-block tile, which would launch an empty or undefined grid.
    InvalidShape,
}

/// Error from a kernel or pipeline builder: a required input was never
/// provided — or a provided shape was degenerate — before `build()` was
/// called.
///
/// Builders used to `panic!` on missing operands (and aborted deep in
/// `Gpu::launch` on empty grids); they now return this typed error so
/// library callers (model assemblers, autotuners) can surface the problem
/// instead of aborting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildError {
    /// Which builder rejected the build (e.g. `"GemmBuilder(gemm1)"`).
    pub builder: String,
    /// The offending input: the required input that was not set (e.g.
    /// `"A operand"`), or a description of the degenerate shape.
    pub missing: String,
    /// How the input was rejected.
    pub kind: BuildErrorKind,
}

impl BuildError {
    /// A "required input not set" error.
    pub fn missing(builder: impl Into<String>, missing: impl Into<String>) -> Self {
        BuildError {
            builder: builder.into(),
            missing: missing.into(),
            kind: BuildErrorKind::MissingInput,
        }
    }

    /// A "degenerate shape" error.
    pub fn invalid(builder: impl Into<String>, what: impl Into<String>) -> Self {
        BuildError {
            builder: builder.into(),
            missing: what.into(),
            kind: BuildErrorKind::InvalidShape,
        }
    }
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            BuildErrorKind::MissingInput => write!(
                f,
                "{}: required input not set: {}",
                self.builder, self.missing
            ),
            BuildErrorKind::InvalidShape => {
                write!(f, "{}: invalid shape: {}", self.builder, self.missing)
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// One thread block stalled on an unmet semaphore at deadlock time: a
/// node of the wait cycle a [`DeadlockReport`] describes.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockedBlock {
    /// Kernel the block belongs to.
    pub kernel: KernelId,
    /// Name of that kernel.
    pub kernel_name: String,
    /// Block index within the kernel grid.
    pub block: Dim3,
    /// SM whose slot the spinning block occupies.
    pub sm: u32,
    /// Device that SM belongs to.
    pub device: u32,
    /// Semaphore array being polled.
    pub sem: SemArrayId,
    /// Name of that array.
    pub sem_name: String,
    /// Index polled within the array.
    pub index: u32,
    /// Value the block is waiting for the semaphore to reach.
    pub target: u32,
    /// Value the semaphore actually held when progress stopped.
    pub current: u32,
}

impl fmt::Display for BlockedBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} block {} waits {}[{}] >= {} (currently {})",
            self.kernel_name, self.block, self.sem_name, self.index, self.target, self.current,
        )
    }
}

/// An unfinished kernel at deadlock time, with its launch progress — the
/// *resident vs. unlaunched* split that closes the wait cycle (unlaunched
/// blocks are the ones that would have posted the spun-on semaphores).
#[derive(Debug, Clone, PartialEq)]
pub struct PendingKernel {
    /// The kernel.
    pub kernel: KernelId,
    /// Its name.
    pub name: String,
    /// Device its blocks occupy SMs on.
    pub device: u32,
    /// Total thread blocks of the grid.
    pub total: u64,
    /// Blocks that were issued onto an SM.
    pub issued: u64,
    /// Blocks that ran to completion.
    pub completed: u64,
}

impl PendingKernel {
    /// Blocks that never reached an SM — the starved half of the cycle.
    pub fn unissued(&self) -> u64 {
        self.total - self.issued
    }
}

impl fmt::Display for PendingKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}/{} blocks issued ({} unlaunched, {} completed) on device {}",
            self.name,
            self.issued,
            self.total,
            self.unissued(),
            self.completed,
            self.device,
        )
    }
}

/// Occupancy of one SM at deadlock time. At a true occupancy deadlock
/// every resident unit is a spinner: `active_units` (units still making
/// progress) is zero while `spinning_units` holds the busy-waiters that
/// keep the slot hostage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmOccupancy {
    /// Global SM index.
    pub sm: u32,
    /// Owning device.
    pub device: u32,
    /// Capacity units still free (out of [`SM_CAPACITY_UNITS`]).
    pub free_units: u32,
    /// Units of resident blocks that were actively executing.
    pub active_units: u32,
    /// Units of resident blocks parked busy-waiting on semaphores.
    pub spinning_units: u32,
}

/// Structured description of a detected deadlock: the wait cycle of
/// Section III-B, as data.
///
/// The cycle reads: the [`blocked`](DeadlockReport::blocked) blocks
/// occupy SM slots spinning on semaphores; the semaphores can only be
/// posted by the [`unissued`](PendingKernel::unissued) blocks of the
/// [`pending`](DeadlockReport::pending) kernels; those blocks cannot
/// launch because the [`sms`](DeadlockReport::sms) have no free capacity
/// — which the spinning blocks are holding. [`DeadlockReport::wait_cycle`]
/// renders exactly that sentence from the data; `Display` prints the full
/// diagnostic.
#[derive(Debug, Clone, PartialEq)]
pub struct DeadlockReport {
    /// Simulated time at which progress stopped.
    pub time: SimTime,
    /// Every resident block parked on an unmet semaphore.
    pub blocked: Vec<BlockedBlock>,
    /// Every unfinished kernel with its issue/completion progress.
    pub pending: Vec<PendingKernel>,
    /// Occupancy of every SM holding at least one resident block.
    pub sms: Vec<SmOccupancy>,
}

impl DeadlockReport {
    /// Names of the unfinished kernels, in launch order.
    pub fn pending_names(&self) -> Vec<String> {
        self.pending.iter().map(|p| p.name.clone()).collect()
    }

    /// The pending kernels with unlaunched blocks — the kernels starved of
    /// SM capacity by the spinners.
    pub fn starved(&self) -> impl Iterator<Item = &PendingKernel> {
        self.pending.iter().filter(|p| p.unissued() > 0)
    }

    /// Distinct `array[index]` semaphore names the blocked blocks poll.
    pub fn polled_sems(&self) -> Vec<String> {
        let mut sems: Vec<String> = self
            .blocked
            .iter()
            .map(|b| format!("{}[{}]", b.sem_name, b.index))
            .collect();
        sems.sort();
        sems.dedup();
        sems
    }

    /// Renders the wait cycle as one sentence, or `None` when the stall is
    /// not an occupancy cycle (e.g. a semaphore that simply has no poster:
    /// blocked blocks but no starved kernel).
    pub fn wait_cycle(&self) -> Option<String> {
        if self.blocked.is_empty() {
            return None;
        }
        let spinners: Vec<&str> = {
            let mut names: Vec<&str> = self
                .blocked
                .iter()
                .map(|b| b.kernel_name.as_str())
                .collect();
            names.sort();
            names.dedup();
            names
        };
        let starved: Vec<String> = self.starved().map(|p| p.name.clone()).collect();
        if starved.is_empty() {
            return None;
        }
        Some(format!(
            "[{}] occupy SM slots spinning on [{}] -> [{}] cannot launch their remaining \
             blocks (no free SM capacity) -> the polled semaphores never reach their targets",
            spinners.join(", "),
            self.polled_sems().join(", "),
            starved.join(", "),
        ))
    }
}

impl fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "deadlock at {}: {} blocked thread block(s), pending kernels [{}]",
            self.time,
            self.blocked.len(),
            self.pending_names().join(", "),
        )?;
        for b in &self.blocked {
            write!(f, "\n  blocked: {b} (sm {}, device {})", b.sm, b.device)?;
        }
        for p in &self.pending {
            write!(f, "\n  pending: {p}")?;
        }
        for s in &self.sms {
            write!(
                f,
                "\n  occupancy: sm{} d{}: {} free, {} active, {} spinning (of {})",
                s.sm, s.device, s.free_units, s.active_units, s.spinning_units, SM_CAPACITY_UNITS,
            )?;
        }
        if let Some(cycle) = self.wait_cycle() {
            write!(f, "\n  wait cycle: {cycle}")?;
        }
        Ok(())
    }
}

impl std::error::Error for DeadlockReport {}

/// Error raised by [`Gpu::compile`] and [`Session::run`](crate::Session::run).
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// No event can make progress but kernels remain incomplete: every
    /// resident block is busy-waiting on a semaphore and no SM slot is free
    /// for the blocks that would post — the hazard of omitting the
    /// wait-kernel (Section III-B). The report names the wait cycle; see
    /// [`DeadlockReport`].
    Deadlock(Box<DeadlockReport>),
    /// A kernel builder rejected its inputs (surfaced here so pipeline
    /// assembly code can use one error type end to end).
    Build(BuildError),
    /// A hardware-model field is out of range ([`GpuConfig::validate`]);
    /// [`Gpu::compile`] rejects it before any event is simulated.
    Config(ConfigError),
}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Config(e)
    }
}

impl From<BuildError> for SimError {
    fn from(e: BuildError) -> Self {
        SimError::Build(e)
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock(report) => write!(f, "{report}"),
            SimError::Build(e) => write!(f, "{e}"),
            SimError::Config(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Build(e) => Some(e),
            SimError::Config(e) => Some(e),
            SimError::Deadlock(report) => Some(report.as_ref()),
        }
    }
}

/// A rational scale factor on simulated link wire time — the knob fault
/// injection turns to model a degraded interconnect (flapping NVLink lane,
/// congested PCIe switch). Applied to the [`Op::LinkSend`] wire-time term
/// only: link latency (the post→observe edge) and every SM-side cost are
/// untouched, so a degraded link slows collectives without perturbing the
/// compute timeline. Exact integer arithmetic keeps scaled runs
/// bit-identical across engine modes. Built only by [`LinkScale::times`]
/// and [`LinkScale::ratio`], so the denominator is never zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkScale {
    num: u32,
    den: u32,
}

impl LinkScale {
    /// The no-op scale (wire time unchanged).
    pub const IDENTITY: LinkScale = LinkScale { num: 1, den: 1 };

    /// An integer slowdown: `times(4)` makes every `LinkSend` pay 4× its
    /// healthy wire time.
    pub fn times(factor: u32) -> Self {
        LinkScale {
            num: factor,
            den: 1,
        }
    }

    /// An arbitrary rational scale `num/den`.
    ///
    /// # Panics
    ///
    /// Panics if `den` is zero.
    pub fn ratio(num: u32, den: u32) -> Self {
        assert!(den != 0, "LinkScale denominator must be non-zero");
        LinkScale { num, den }
    }

    /// Whether this scale leaves wire time unchanged.
    pub fn is_identity(self) -> bool {
        self.num == self.den
    }

    /// `t * num / den` in exact integer picoseconds.
    pub fn apply(self, t: SimTime) -> SimTime {
        SimTime::from_picos((t.as_picos() as u128 * self.num as u128 / self.den as u128) as u64)
    }
}

/// Per-run execution knobs threaded from [`Session`](crate::Session) into
/// the engine: the abort horizon of a checkpointed run and the link
/// degradation scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RunOptions {
    /// Abort at the first kernel-completion boundary at or after this
    /// virtual instant (see [`RunOutcome::Aborted`]).
    pub(crate) abort_at: Option<SimTime>,
    /// Scale every [`Op::LinkSend`] wire time by this factor.
    pub(crate) link_scale: Option<LinkScale>,
}

/// Outcome of a horizon-bounded run
/// ([`Session::run_until`](crate::Session::run_until)).
#[derive(Debug, Clone, PartialEq)]
pub enum RunOutcome {
    /// Every kernel finished before a kernel boundary at or past the
    /// horizon was reached; the run is indistinguishable from an
    /// unbounded [`Session::run`](crate::Session::run).
    Complete(RunReport),
    /// The run was checkpointed: execution stopped at the first *kernel
    /// boundary* (a kernel's last block completing) at or after the
    /// horizon, leaving later kernels unfinished. The residue describes
    /// the checkpoint so a dispatcher can requeue the remaining work.
    Aborted(RunResidue),
}

/// A resumable checkpoint descriptor for a horizon-aborted run: where the
/// engine stopped and how much of the pipeline had retired. The serving
/// layer prices the requeued remainder as `full_duration - aborted_at`
/// plus its preemption overhead (see `crates/serve`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunResidue {
    /// The kernel boundary the run was checkpointed at (the first kernel
    /// completion at or after the requested horizon). Identical in both
    /// engine modes.
    pub aborted_at: SimTime,
    /// Kernels fully retired at the checkpoint.
    pub kernels_done: usize,
    /// Total kernels in the pipeline.
    pub kernels_total: usize,
    /// Thread blocks fully retired at the checkpoint.
    pub blocks_done: u64,
    /// Total thread blocks in the pipeline.
    pub blocks_total: u64,
}

impl RunResidue {
    /// Virtual time still owed by the checkpointed work, given the
    /// pipeline's unbounded-run duration `total`.
    pub fn remaining(&self, total: SimTime) -> SimTime {
        total.saturating_sub(self.aborted_at)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    KernelReady(usize),
    BlockResume(usize),
    PostApply {
        block: usize,
        table: SemArrayId,
        index: u32,
        inc: u32,
    },
    AtomicApply {
        block: usize,
        table: SemArrayId,
        index: u32,
        inc: u32,
    },
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Event {
    time: SimTime,
    seq: u64,
    kind: EventKind,
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

/// One stream of the pipeline description: its device, priority and the
/// launch queue of kernel indexes (immutable after compile; the per-run
/// cursor lives in [`RunState::stream_next`]).
pub(crate) struct StreamDesc {
    pub(crate) device: u32,
    pub(crate) priority: i32,
    pub(crate) queue: Vec<usize>,
}

/// A launch prerequisite tying one kernel's dispatch to another kernel's
/// progress — the simulator's model of CUDA's Programmatic Dependent
/// Launch (PDL) family of grid-level ordering primitives.
///
/// A kernel with gates becomes dispatchable only once its stream reaches
/// it **and** every gate is satisfied. Until then it consumes no SM
/// capacity at all (unlike a busy-waiting block). Register gates with
/// [`Gpu::gate_launch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaunchGate {
    /// Satisfied when the target kernel's **final thread block becomes
    /// resident** on an SM — the hardware PDL trigger
    /// (`cudaTriggerProgrammaticLaunchCompletion`): the dependent grid
    /// launches while the producer's last wave is still executing, so its
    /// preamble overlaps the producer tail.
    AfterLaunchOf(KernelId),
    /// Satisfied when the target kernel has **fully completed** — stream
    /// serialization expressed across streams (the `StreamSerial` sync
    /// mechanism).
    AfterCompletionOf(KernelId),
}

impl LaunchGate {
    /// The kernel this gate observes.
    pub fn target(&self) -> KernelId {
        match *self {
            LaunchGate::AfterLaunchOf(k) | LaunchGate::AfterCompletionOf(k) => k,
        }
    }
}

/// The immutable, per-kernel half of what used to be `KernelState`:
/// everything fixed at launch/compile time.
pub(crate) struct KernelDesc {
    pub(crate) source: Arc<dyn KernelSource>,
    pub(crate) name: String,
    pub(crate) stream: usize,
    /// Device the owning stream lives on: this kernel's blocks only
    /// occupy that device's SMs.
    pub(crate) device: u32,
    pub(crate) priority: i32,
    pub(crate) host_ready: SimTime,
    pub(crate) grid: Dim3,
    pub(crate) total: u64,
    pub(crate) occupancy: u32,
    pub(crate) units: u32,
    /// Launch prerequisites beyond stream order (see [`LaunchGate`]).
    pub(crate) gates: Vec<LaunchGate>,
    /// Semaphore posts fired the instant this kernel's final block
    /// finishes (the producer half of a PDL edge; consumers park on the
    /// posted semaphore from their main body).
    pub(crate) completion_posts: Vec<(SemArrayId, u32)>,
}

/// The frozen description of a workload: hardware model, fixed op costs,
/// streams, and kernel registrations in launch order. Immutable after
/// compilation; every per-run mutable cell lives in [`RunState`], and the
/// pre-driven op programs live in a (lazily built, then immutable)
/// [`Programs`] at the compiled-pipeline layer.
pub(crate) struct PipelineDesc {
    pub(crate) cluster: ClusterConfig,
    /// Fixed op costs per device, index-aligned with `cluster.devices`.
    pub(crate) costs: Vec<FixedCosts>,
    /// Global index of each device's first SM (devices own contiguous SM
    /// ranges of the flat per-SM arrays in [`RunState`]).
    pub(crate) sm_base: Vec<u32>,
    /// Owning device of each global SM index.
    pub(crate) device_of_sm: Vec<u32>,
    pub(crate) streams: Vec<StreamDesc>,
    pub(crate) kernels: Vec<KernelDesc>,
    /// Host-side launch cursor per device, only advanced while building.
    /// Each device's kernels are launched by its own host thread (the
    /// tensor-parallel ranks of a multi-GPU job), so launches to
    /// different devices do not serialize on one host queue.
    host_time: Vec<SimTime>,
    /// Reverse gate index: kernels gated [`LaunchGate::AfterLaunchOf`]
    /// each kernel, resolved once by [`PipelineDesc::finalize_gates`].
    pub(crate) launch_dependents: Vec<Vec<usize>>,
    /// Reverse gate index for [`LaunchGate::AfterCompletionOf`].
    pub(crate) completion_dependents: Vec<Vec<usize>>,
    finalized: bool,
}

impl PipelineDesc {
    pub(crate) fn new(cluster: ClusterConfig) -> Self {
        let costs = cluster.devices.iter().map(FixedCosts::of).collect();
        let mut sm_base = Vec::with_capacity(cluster.devices.len());
        let mut device_of_sm = Vec::new();
        let mut base = 0u32;
        // Compile and run reject an out-of-range model before reading the
        // SM map, so such a model gets none: a hostile `num_sms` must not
        // size an allocation.
        if cluster.validate().is_ok() {
            for (d, gpu) in cluster.devices.iter().enumerate() {
                sm_base.push(base);
                device_of_sm.extend(std::iter::repeat_n(d as u32, gpu.num_sms as usize));
                base += gpu.num_sms;
            }
        }
        let host_time = vec![SimTime::ZERO; cluster.devices.len()];
        PipelineDesc {
            cluster,
            costs,
            sm_base,
            device_of_sm,
            streams: Vec::new(),
            kernels: Vec::new(),
            host_time,
            launch_dependents: Vec::new(),
            completion_dependents: Vec::new(),
            finalized: false,
        }
    }

    /// Device 0's hardware model — what the single-GPU accessors
    /// ([`Gpu::config`], `CompiledPipeline::config`) report.
    pub(crate) fn primary_config(&self) -> &GpuConfig {
        &self.cluster.devices[0]
    }

    /// Hardware model of device `d`.
    pub(crate) fn device_config(&self, d: u32) -> &GpuConfig {
        self.cluster.device(d)
    }

    /// Resolves the reverse launch-gate indexes. Part of compilation;
    /// idempotent.
    pub(crate) fn finalize_gates(&mut self) {
        if self.finalized {
            return;
        }
        self.finalized = true;
        let mut launch_dependents = vec![Vec::new(); self.kernels.len()];
        let mut completion_dependents = vec![Vec::new(); self.kernels.len()];
        for (k, kd) in self.kernels.iter().enumerate() {
            for gate in &kd.gates {
                match *gate {
                    LaunchGate::AfterLaunchOf(p) => launch_dependents[p.0].push(k),
                    LaunchGate::AfterCompletionOf(p) => completion_dependents[p.0].push(k),
                }
            }
        }
        self.launch_dependents = launch_dependents;
        self.completion_dependents = completion_dependents;
    }

    /// Collects the op program of every block of every kernel that emits
    /// them statically under `mem` (see [`Programs::collect`]).
    pub(crate) fn collect_programs(&self, mem: &GlobalMemory) -> Programs {
        Programs::collect(self.kernels.iter().map(|kd| &*kd.source), mem)
    }
}

/// The per-kernel mutable half: progress counters and timestamps, reset
/// between runs.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct KernelRun {
    issued: u64,
    completed: u64,
    ready: bool,
    ready_at: SimTime,
    start: Option<SimTime>,
    end: Option<SimTime>,
    concurrent: u64,
    max_concurrent: u64,
    /// Blocks currently parked busy-waiting on an unmet semaphore —
    /// identical in both engine modes at every try-issue instant, so
    /// dynamic [`SchedPolicy`]s may key on it.
    parked: u64,
    /// Optimized mode: the last DRAM time priced for one of this kernel's
    /// blocks, keyed by `(active_units[device], bytes)` — with the
    /// kernel's device and units, everything [`Exec::dyn_mem_time`] reads.
    mem_price: LastPrice<(u64, u64)>,
    /// Optimized mode: the last cycle count converted at this kernel's
    /// device clock ([`GpuConfig::cycles`]).
    cycles_price: LastPrice<u64>,
}

/// A one-entry exact memo: the last key priced and what the formula
/// returned for it. The value is a pure function of the key and the
/// immutable pipeline, so a hit is bit-identical to re-running the
/// formula. Its hit/miss count sits beside it, on the cache line every
/// lookup already touches.
#[derive(Debug, Clone, Copy, Default)]
struct LastPrice<K> {
    key: Option<K>,
    value: SimTime,
    count: MemoCount,
}

impl<K: Copy + PartialEq> LastPrice<K> {
    /// The memoized value if `key` is the last key stored (counted as a
    /// hit).
    #[inline(always)]
    fn hit(&mut self, key: K) -> Option<SimTime> {
        if self.key == Some(key) {
            self.count.hits += 1;
            return Some(self.value);
        }
        None
    }

    /// Records the formula's `value` for `key` (counted as a miss).
    #[inline(always)]
    fn store(&mut self, key: K, value: SimTime) {
        self.count.misses += 1;
        self.key = Some(key);
        self.value = value;
    }
}

impl KernelRun {
    /// Blocks currently parked on unmet semaphores (read by
    /// [`SchedContext`]).
    pub(crate) fn parked(&self) -> u64 {
        self.parked
    }
}

/// A step the block already yielded whose application was deferred to the
/// end of a coalesced run of non-synchronizing ops.
#[derive(Debug, Clone, Copy)]
enum PendingStep {
    Op(Op),
    Done,
}

/// One resident block. Slots are pooled per run: [`Exec::finish_block`]
/// returns a finished block's slot to [`RunState::free_slots`] and
/// [`Exec::issue_block`] takes from there before growing `blocks`, so a
/// run holds at most as many slots as blocks were ever resident at once
/// ([`EngineCounters::peak_block_slots`]).
struct BlockSlot {
    kernel: usize,
    idx: Dim3,
    /// The block's place in the run's issue order (its
    /// [`EngineCounters::placements`] ordinal), or [`FREED_SLOT`] once it
    /// finished. Reports that list blocks sort by it, since slot order is
    /// not issue order once slots are reused.
    issue_seq: u64,
    sm: u32,
    units: u32,
    body: Option<Box<dyn crate::kernel::BlockBody>>,
    atomic_result: Option<u32>,
    waiting: Option<(SemArrayId, u32, u32)>,
    pending: Option<PendingStep>,
    /// The block's deterministic duration-variance factor, computed once
    /// at issue. The reference engine ignores this and recomputes the
    /// hash per op, as the original engine did.
    jitter: f64,
    /// Pre-driven op program: `[prog_start, prog_start + prog_len)` of
    /// the *pipeline's* compile-time [`Programs`], or
    /// `prog_start == u32::MAX` for coroutine-driven blocks. Program
    /// blocks have no side effects, so the cursor path may re-read an op
    /// after deferral.
    prog_start: u32,
    prog_len: u32,
    prog_pc: u32,
}

/// [`BlockSlot::issue_seq`] of a slot whose block finished.
const FREED_SLOT: u64 = u64::MAX;

impl BlockSlot {
    #[inline]
    fn has_program(&self) -> bool {
        self.prog_start != u32::MAX
    }
}

/// Fixed-latency op costs converted to [`SimTime`] once at construction,
/// so the per-event hot path never re-runs the cycles→picoseconds float
/// conversion for constants.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FixedCosts {
    global_latency: SimTime,
    atomic: SimTime,
    poll: SimTime,
    fence: SimTime,
    syncthreads: SimTime,
    /// [`GpuConfig::dram_bytes_per_sec`], for the dynamic DRAM-share model.
    dram_bytes_per_sec: f64,
    /// The least competing-unit count the DRAM-share model divides by:
    /// the bus saturates at `dram_saturation_fraction` of the device's
    /// capacity units, and never below one unit.
    dram_competing_floor: f64,
}

impl FixedCosts {
    fn of(config: &GpuConfig) -> Self {
        let capacity = config.num_sms as f64 * SM_CAPACITY_UNITS as f64;
        let saturation = config.dram_saturation_fraction * capacity;
        FixedCosts {
            dram_bytes_per_sec: config.dram_bytes_per_sec,
            dram_competing_floor: saturation.max(1.0),
            global_latency: config.cycles(config.global_latency_cycles),
            atomic: config.cycles(config.atomic_latency_cycles),
            poll: config.cycles(config.poll_latency_cycles),
            fence: config.cycles(config.fence_cycles),
            syncthreads: config.cycles(config.syncthreads_cycles),
        }
    }
}

/// Every mutable cell a run touches, pooled so repeated runs reuse the
/// arenas instead of reallocating them.
///
/// # Reset invariants (see `crates/sim/README.md`)
///
/// [`RunState::reset`] must leave the state indistinguishable (to the
/// event loop) from a freshly constructed one, while keeping allocations:
///
/// - heaps/slabs/vectors are cleared, not dropped (capacity survives);
/// - `sm_free` is refilled to [`SM_CAPACITY_UNITS`] per SM of the target
///   pipeline's config, `sm_active` to zero, `sm_scale` to each SM's idle
///   [`residency_factor`];
/// - kernel progress ([`KernelRun`], price memos included) and stream
///   cursors return to zero;
/// - stats integrals, event counters, [`EngineCounters`] and traces
///   return to zero/empty;
/// - memory and semaphores are restored separately
///   ([`GlobalMemory::reset_from`], [`SemTable::reset_from`]): the
///   [`Session`](crate::Session) restores them from the compiled
///   pipeline's pristine copies.
pub(crate) struct RunState {
    pub(crate) mem: GlobalMemory,
    pub(crate) sems: SemTable,
    kernels: Vec<KernelRun>,
    stream_next: Vec<usize>,
    /// Outstanding launch prerequisites per kernel: one for stream-head
    /// arrival plus one per [`LaunchGate`]. The kernel's `KernelReady`
    /// event is pushed when the counter reaches zero — i.e. at the time
    /// the *last* prerequisite is satisfied.
    prereqs: Vec<u32>,
    now: SimTime,
    events: BinaryHeap<Reverse<Event>>,
    /// Reference-mode event sequence counter.
    event_seq: u64,
    /// Optimized-mode event queue: heap sifts move 16-byte keys instead
    /// of full [`Event`] structs.
    fast_events: EventQueue,
    sm_free: Vec<u32>,
    /// Units of *actively executing* (not semaphore-waiting) blocks per
    /// SM; busy-wait spinners occupy their slot but consume negligible
    /// execution throughput.
    sm_active: Vec<u32>,
    /// Per-device sum of that device's `sm_active` entries, for the
    /// dynamic DRAM-share model (each device owns its own DRAM).
    active_units: Vec<u64>,
    /// Optimized mode: per SM, [`residency_factor`] of its `sm_active`
    /// units — the residency scale of every block being stepped there,
    /// refreshed by [`Exec::set_sm_active`] at each `sm_active` write.
    sm_scale: Vec<f64>,
    blocks: Vec<BlockSlot>,
    /// Slots of finished blocks, reused by the next placements (last
    /// freed, first reused).
    free_slots: Vec<usize>,
    /// Reference-mode waiter registry (the original representation).
    waiters: BTreeMap<(usize, u32), Vec<usize>>,
    /// Optimized-mode waiter registry: dense per-array wait-lists.
    wait_lists: WaitLists,
    /// Optimized mode: kernels that are ready and still have unissued
    /// blocks, ordered exactly like the reference scan's sort key.
    ready_queue: BTreeSet<(Reverse<i32>, usize)>,
    /// Optimized mode: per device, the free-capacity index of that
    /// device's SMs, so the least-loaded-first placement within a kernel's
    /// device reads one tree root.
    sm_index: Vec<SmIndex>,
    /// Optimized mode: set when SM capacity was freed or a kernel became
    /// ready — the only transitions after which `try_issue` can place a
    /// block.
    issue_dirty: bool,
    issue_scratch: Vec<usize>,
    wake_scratch: Vec<usize>,
    /// Canonical trace of the most recent run: `trace_raw` finalized by a
    /// stable sort on `(time, device)` (see [`RunState::finalize_trace`]).
    trace: Vec<TraceEvent>,
    /// Device-tagged events in recording order. Tagged with the device
    /// that *owns* the event (see [`Exec::record`]), so the canonical
    /// order groups same-instant events by device.
    trace_raw: Vec<(u32, TraceEvent)>,
    pub(crate) trace_enabled: bool,
    busy_units: u64,
    util_integral: u128,
    last_util_update: SimTime,
    first_issue: Option<SimTime>,
    last_finish: SimTime,
    /// The [`EngineCounters`] counted as they happen; the report adds the
    /// per-kernel memo counts (see [`Exec::counters`]).
    counters: EngineCounters,
    /// Debug builds: events pushed this run. Counted apart from
    /// `counters`, so the end-of-run check in [`Exec::run_all`] catches an
    /// event that `handle` counts twice or not at all.
    #[cfg(debug_assertions)]
    pushes: u64,
}

impl RunState {
    pub(crate) fn new() -> Self {
        RunState {
            mem: GlobalMemory::new(),
            sems: SemTable::new(),
            kernels: Vec::new(),
            stream_next: Vec::new(),
            prereqs: Vec::new(),
            now: SimTime::ZERO,
            events: BinaryHeap::new(),
            event_seq: 0,
            fast_events: EventQueue::new(),
            sm_free: Vec::new(),
            sm_active: Vec::new(),
            active_units: Vec::new(),
            sm_scale: Vec::new(),
            blocks: Vec::new(),
            free_slots: Vec::new(),
            waiters: BTreeMap::new(),
            wait_lists: WaitLists::new(),
            ready_queue: BTreeSet::new(),
            sm_index: Vec::new(),
            issue_dirty: false,
            issue_scratch: Vec::new(),
            wake_scratch: Vec::new(),
            trace: Vec::new(),
            trace_raw: Vec::new(),
            trace_enabled: false,
            busy_units: 0,
            util_integral: 0,
            last_util_update: SimTime::ZERO,
            first_issue: None,
            last_finish: SimTime::ZERO,
            counters: EngineCounters::default(),
            #[cfg(debug_assertions)]
            pushes: 0,
        }
    }

    /// Rewinds all per-run scheduling state for a run of `desc`, reusing
    /// every arena allocation. Memory and semaphores are *not* touched
    /// here; see the type-level invariants.
    pub(crate) fn reset(&mut self, desc: &PipelineDesc) {
        let sms = desc.cluster.total_sms() as usize;
        let devices = desc.cluster.devices.len();
        self.kernels.clear();
        self.kernels
            .resize(desc.kernels.len(), KernelRun::default());
        self.stream_next.clear();
        self.stream_next.resize(desc.streams.len(), 0);
        self.prereqs.clear();
        self.prereqs
            .extend(desc.kernels.iter().map(|kd| 1 + kd.gates.len() as u32));
        self.now = SimTime::ZERO;
        self.events.clear();
        self.event_seq = 0;
        self.fast_events.clear();
        self.sm_free.clear();
        self.sm_free.resize(sms, SM_CAPACITY_UNITS);
        self.sm_active.clear();
        self.sm_active.resize(sms, 0);
        self.active_units.clear();
        self.active_units.resize(devices, 0);
        self.sm_scale.clear();
        self.sm_scale.extend(
            desc.device_of_sm
                .iter()
                .map(|&d| residency_factor(0, desc.device_config(d).residency_boost)),
        );
        self.blocks.clear();
        self.free_slots.clear();
        self.waiters.clear();
        self.wait_lists.clear_all();
        self.ready_queue.clear();
        self.sm_index.resize_with(devices, SmIndex::default);
        for (d, index) in self.sm_index.iter_mut().enumerate() {
            let base = desc.sm_base[d] as usize;
            let sms = desc.cluster.devices[d].num_sms as usize;
            index.rebuild(base, &self.sm_free[base..base + sms]);
        }
        self.issue_dirty = false;
        self.issue_scratch.clear();
        self.wake_scratch.clear();
        self.trace.clear();
        self.trace_raw.clear();
        self.busy_units = 0;
        self.util_integral = 0;
        self.last_util_update = SimTime::ZERO;
        self.first_issue = None;
        self.last_finish = SimTime::ZERO;
        self.counters = EngineCounters::default();
        #[cfg(debug_assertions)]
        {
            self.pushes = 0;
        }
    }

    /// Restores memory and semaphores to the compiled pipeline's pristine
    /// initial state, reusing allocations where the layouts match.
    pub(crate) fn reset_storage(&mut self, mem: &GlobalMemory, sems: &SemTable) {
        self.mem.reset_from(mem);
        self.sems.reset_from(sems);
    }

    /// The most recent run's trace.
    pub(crate) fn trace(&self) -> &[TraceEvent] {
        &self.trace
    }

    /// Canonicalizes the raw device-tagged event buffer into `trace`: a
    /// stable sort by `(time, device)`, ties kept in recording order.
    /// Recording order within one device is deterministic in both engines,
    /// so the canonical trace is a pure function of the run.
    pub(crate) fn finalize_trace(&mut self) {
        self.trace.clear();
        if self.trace_raw.is_empty() {
            return;
        }
        self.trace.reserve(self.trace_raw.len());
        let mut order: Vec<u32> = (0..self.trace_raw.len() as u32).collect();
        order.sort_by_key(|&i| {
            let (device, ref event) = self.trace_raw[i as usize];
            (event.time(), device, i)
        });
        self.trace
            .extend(order.iter().map(|&i| self.trace_raw[i as usize].1.clone()));
    }
}

/// Runs `desc` to completion on `st` (which the caller has prepared with
/// [`RunState::reset`] and initial memory/semaphores), in `mode`, with the
/// per-run [`RunOptions`]. `progs` must hold the pipeline's pre-driven
/// programs for an [`EngineMode::Optimized`] run; the reference engine
/// ignores it (pass an empty [`Programs`]). `sched` overrides the
/// block-issue order; `None` issues in the hardware launch order. The
/// [`Session`](crate::Session) is the only caller.
pub(crate) fn execute_with(
    desc: &PipelineDesc,
    progs: &Programs,
    mode: EngineMode,
    sched: Option<&dyn SchedPolicy>,
    st: &mut RunState,
    opts: RunOptions,
) -> Result<RunOutcome, SimError> {
    let mut ex = Exec {
        desc,
        progs,
        mode,
        sched,
        abort_at: opts.abort_at,
        link_scale: opts.link_scale.filter(|s| !s.is_identity()),
        abort_flag: false,
        st,
    };
    ex.run_all()
}

/// The residency scale of a block on an SM with `active` executing units
/// on a device with `boost` (see [`Exec::residency_scale`]).
fn residency_factor(active: u32, boost: f64) -> f64 {
    let fraction = (active as f64 / SM_CAPACITY_UNITS as f64).clamp(0.0, 1.0);
    1.0 - boost * (1.0 - fraction)
}

/// The event loop: an immutable pipeline description plus one mutable run
/// state. All scheduling methods live here; [`Session`](crate::Session)
/// is the thin driver around [`execute_with`].
struct Exec<'a> {
    desc: &'a PipelineDesc,
    progs: &'a Programs,
    mode: EngineMode,
    /// Block-issue ordering override for this run; `None` keeps the
    /// hardware launch order, the engines' original hot paths byte for
    /// byte.
    sched: Option<&'a dyn SchedPolicy>,
    /// Abort horizon: checkpoint at the first kernel boundary at or past
    /// this instant (see [`RunOutcome::Aborted`]). `None` runs unbounded.
    abort_at: Option<SimTime>,
    /// Non-identity link degradation scale applied to `LinkSend` wire
    /// time, or `None` for a healthy link.
    link_scale: Option<LinkScale>,
    /// Set by [`Exec::finish_block`] when a kernel boundary at or past
    /// `abort_at` retires; both event loops stop at the end of that
    /// timestamp batch.
    abort_flag: bool,
    st: &'a mut RunState,
}

impl Exec<'_> {
    fn run_all(&mut self) -> Result<RunOutcome, SimError> {
        for s in 0..self.desc.streams.len() {
            self.schedule_stream_head(s);
        }
        match self.mode {
            EngineMode::Reference => self.run_reference_loop(),
            EngineMode::Optimized => self.run_optimized_loop(),
        }
        #[cfg(debug_assertions)]
        {
            // Completed, aborted and deadlocked runs alike: every pushed
            // event was either handled exactly once or is still queued.
            let queued = match self.mode {
                EngineMode::Reference => self.st.events.len(),
                EngineMode::Optimized => self.st.fast_events.len(),
            };
            assert_eq!(
                self.st.pushes - queued as u64,
                self.events_handled(),
                "handled events do not match pushes minus still-queued events"
            );
        }
        if self.st.trace_enabled {
            // Canonicalize in every exit path so the trace is readable
            // even after an abort or deadlock.
            self.st.finalize_trace();
        }
        let incomplete: Vec<usize> = (0..self.desc.kernels.len())
            .filter(|&k| self.st.kernels[k].completed < self.desc.kernels[k].total)
            .collect();
        if incomplete.is_empty() {
            // Even a horizon-bounded run that drained everything is a
            // completion: the boundary that tripped the flag was the last
            // kernel's, and there is nothing left to checkpoint.
            return Ok(RunOutcome::Complete(self.report()));
        }
        if self.abort_flag {
            return Ok(RunOutcome::Aborted(self.residue()));
        }
        Err(self.deadlock_error(&incomplete))
    }

    /// The checkpoint descriptor of an aborted run (see [`RunResidue`]).
    fn residue(&self) -> RunResidue {
        let kernels_done = self
            .st
            .kernels
            .iter()
            .zip(self.desc.kernels.iter())
            .filter(|(kr, kd)| kr.completed == kd.total)
            .count();
        RunResidue {
            aborted_at: self.st.now,
            kernels_done,
            kernels_total: self.desc.kernels.len(),
            blocks_done: self.st.kernels.iter().map(|kr| kr.completed).sum(),
            blocks_total: self.desc.kernels.iter().map(|kd| kd.total).sum(),
        }
    }

    fn push_event(&mut self, time: SimTime, kind: EventKind) {
        #[cfg(debug_assertions)]
        {
            self.st.pushes += 1;
        }
        match self.mode {
            EngineMode::Reference => {
                let seq = self.st.event_seq;
                self.st.event_seq += 1;
                self.st.events.push(Reverse(Event { time, seq, kind }));
            }
            EngineMode::Optimized => self.st.fast_events.push(time, kind),
        }
    }

    /// Appends to the trace, tagged with the *owning* device (the kernel's
    /// device for kernel/block events, the semaphore's home device for
    /// posts, the waiter's device for wakes). The flag check is inlined at
    /// every call site so a disabled trace costs one predictable branch —
    /// never a `Vec` touch or an event construction that the optimizer
    /// can't sink.
    #[inline(always)]
    fn record(&mut self, device: u32, event: TraceEvent) {
        if self.st.trace_enabled {
            self.st.trace_raw.push((device, event));
        }
    }

    /// Records an [`Op::LinkSend`] occupying the link from `start` for
    /// `wire`. Called from both block-stepping paths exactly when the op
    /// is consumed (its pc/coroutine advances), so a deferred re-check of
    /// the same op never double-records.
    #[inline]
    fn record_link_sent(&mut self, bid: usize, bytes: u64, start: SimTime, wire: SimTime) {
        if !self.st.trace_enabled {
            return;
        }
        let kernel = self.st.blocks[bid].kernel;
        let block = self.st.blocks[bid].idx;
        self.record(
            self.block_device(bid),
            TraceEvent::LinkSent {
                kernel: KernelId(kernel),
                block,
                bytes,
                wire,
                time: start,
            },
        );
    }

    /// Raises [`EngineCounters::peak_queue_len`] to `len`, the queue's
    /// length (the just-popped event included) at the start of a
    /// timestamp batch.
    #[inline]
    fn note_queue_len(&mut self, len: usize) {
        let peak = &mut self.st.counters.peak_queue_len;
        *peak = (*peak).max(len as u64);
    }

    /// The original event loop: rescan-and-sort `try_issue` after every
    /// batch. Kept verbatim as the executable specification.
    fn run_reference_loop(&mut self) {
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

    /// The optimized event loop: identical batch semantics, but block
    /// placement only runs after transitions that can actually enable it
    /// (`issue_dirty`), over the incrementally maintained ready-queue and
    /// SM index.
    fn run_optimized_loop(&mut self) {
        while let Some((time, kind)) = self.st.fast_events.pop() {
            self.note_queue_len(self.st.fast_events.len() + 1);
            debug_assert!(time >= self.st.now, "time went backwards");
            self.st.now = time;
            self.handle(kind);
            while self.st.fast_events.peek_time() == Some(time.as_picos()) {
                let (_, kind) = self.st.fast_events.pop().expect("peeked event");
                self.handle(kind);
            }
            // Same checkpoint semantics as the reference loop: both modes
            // stop at the identical kernel boundary.
            if self.abort_flag {
                break;
            }
            if self.st.issue_dirty {
                self.try_issue_optimized();
                self.st.issue_dirty = false;
            }
        }
    }

    fn handle(&mut self, kind: EventKind) {
        match kind {
            EventKind::KernelReady(k) => {
                self.st.counters.kernel_ready_events += 1;
                let now = self.st.now;
                self.st.kernels[k].ready = true;
                self.st.kernels[k].ready_at = now;
                if self.mode == EngineMode::Optimized {
                    self.st.issue_dirty = true;
                    if self.st.kernels[k].issued < self.desc.kernels[k].total {
                        self.st
                            .ready_queue
                            .insert((Reverse(self.desc.kernels[k].priority), k));
                    }
                }
                self.record(
                    self.desc.kernels[k].device,
                    TraceEvent::KernelReady {
                        kernel: KernelId(k),
                        time: now,
                    },
                );
            }
            EventKind::BlockResume(b) => {
                self.st.counters.block_resume_events += 1;
                self.debug_assert_resident(b);
                match self.st.blocks[b].pending.take() {
                    None => self.step_block(b),
                    Some(PendingStep::Op(op)) => self.apply_sync_op(b, op),
                    Some(PendingStep::Done) => self.finish_block(b),
                }
            }
            EventKind::PostApply {
                block,
                table,
                index,
                inc,
            } => {
                self.st.counters.post_apply_events += 1;
                self.debug_assert_resident(block);
                self.apply_post(block, table, index, inc);
            }
            EventKind::AtomicApply {
                block,
                table,
                index,
                inc,
            } => {
                self.st.counters.atomic_apply_events += 1;
                self.debug_assert_resident(block);
                let prev = self.st.sems.add(table, index, inc);
                self.st.blocks[block].atomic_result = Some(prev);
                self.push_event(self.st.now, EventKind::BlockResume(block));
            }
        }
    }

    /// Debug builds: every event naming a block is pending only while the
    /// block is resident, so it never names a freed (or reused) slot.
    #[inline(always)]
    fn debug_assert_resident(&self, bid: usize) {
        debug_assert!(
            self.st.blocks[bid].issue_seq != FREED_SLOT,
            "an event names the freed block slot {bid}"
        );
    }

    fn deadlock_error(&self, incomplete: &[usize]) -> SimError {
        // Slots are reused, so slot order is not issue order: list the
        // parked blocks by issue sequence.
        let mut parked: Vec<_> = self
            .st
            .blocks
            .iter()
            .filter_map(|slot| Some((slot, slot.waiting?)))
            .collect();
        parked.sort_unstable_by_key(|(slot, _)| slot.issue_seq);
        let blocked: Vec<BlockedBlock> = parked
            .into_iter()
            .map(|(slot, (table, index, value))| BlockedBlock {
                kernel: KernelId(slot.kernel),
                kernel_name: self.desc.kernels[slot.kernel].name.clone(),
                block: slot.idx,
                sm: slot.sm,
                device: self.desc.kernels[slot.kernel].device,
                sem: table,
                sem_name: self.st.sems.name(table).to_owned(),
                index,
                target: value,
                current: self.st.sems.value(table, index),
            })
            .collect();
        let pending = incomplete
            .iter()
            .map(|&k| PendingKernel {
                kernel: KernelId(k),
                name: self.desc.kernels[k].name.clone(),
                device: self.desc.kernels[k].device,
                total: self.desc.kernels[k].total,
                issued: self.st.kernels[k].issued,
                completed: self.st.kernels[k].completed,
            })
            .collect();
        let sms = (0..self.st.sm_free.len())
            .filter(|&sm| self.st.sm_free[sm] < SM_CAPACITY_UNITS)
            .map(|sm| {
                let occupied = SM_CAPACITY_UNITS - self.st.sm_free[sm];
                let active = self.st.sm_active[sm];
                SmOccupancy {
                    sm: sm as u32,
                    device: self.desc.device_of_sm[sm],
                    free_units: self.st.sm_free[sm],
                    active_units: active,
                    spinning_units: occupied - active,
                }
            })
            .collect();
        SimError::Deadlock(Box::new(DeadlockReport {
            time: self.st.now,
            blocked,
            pending,
            sms,
        }))
    }

    /// Hardware model of the device `kernel` runs on.
    fn kernel_cfg(&self, kernel: usize) -> &GpuConfig {
        self.desc.device_config(self.desc.kernels[kernel].device)
    }

    /// Device of the kernel owning block `bid`.
    fn block_device(&self, bid: usize) -> u32 {
        self.desc.kernels[self.st.blocks[bid].kernel].device
    }

    /// Cost of one semaphore poll issued from `device` against `table`:
    /// the local poll latency, plus one link traversal when the array is
    /// homed on another device.
    fn poll_cost(&self, device: u32, table: SemArrayId) -> SimTime {
        let local = self.desc.costs[device as usize].poll;
        if self.st.sems.device(table) == device {
            local
        } else {
            local + self.desc.cluster.link_latency
        }
    }

    /// Cost for an atomic issued from `device` to become visible in
    /// `table`'s home memory: the local atomic latency, plus one link
    /// traversal when the array is homed on another device.
    fn atomic_cost(&self, device: u32, table: SemArrayId) -> SimTime {
        let local = self.desc.costs[device as usize].atomic;
        if self.st.sems.device(table) == device {
            local
        } else {
            local + self.desc.cluster.link_latency
        }
    }

    fn schedule_stream_head(&mut self, stream: usize) {
        let s = &self.desc.streams[stream];
        if let Some(&k) = s.queue.get(self.st.stream_next[stream]) {
            self.prereq_done(k);
            // Still-outstanding prerequisites after the stream-head
            // arrival are launch gates: the kernel is *held* from here
            // until its final gate opens.
            if self.st.prereqs[k] > 0 {
                self.record(
                    self.desc.kernels[k].device,
                    TraceEvent::GateHeld {
                        kernel: KernelId(k),
                        time: self.st.now,
                    },
                );
            }
        }
    }

    /// One launch prerequisite of kernel `k` resolved (stream-head arrival
    /// or a satisfied [`LaunchGate`]). When the last prerequisite falls —
    /// at whichever instant that happens — the kernel's dispatch is
    /// scheduled, paying the host-ready floor and dispatch latency exactly
    /// as an ungated kernel would. Shared by both engine modes, so gated
    /// timelines stay bit-identical by construction.
    fn prereq_done(&mut self, k: usize) {
        let remaining = &mut self.st.prereqs[k];
        debug_assert!(*remaining > 0, "launch prerequisite underflow");
        *remaining -= 1;
        if *remaining == 0 {
            let ready = self.st.now.max(self.desc.kernels[k].host_ready)
                + self.kernel_cfg(k).kernel_dispatch_latency;
            self.push_event(ready, EventKind::KernelReady(k));
        }
    }

    /// Orders one placement round's candidates with the run's
    /// [`SchedPolicy`]. Policies are required to produce the same output
    /// for the same candidate *set* regardless of incoming order, which is
    /// what keeps the two engines' issue sequences identical under every
    /// policy (they enumerate candidates differently).
    fn order_candidates(&self, policy: &dyn SchedPolicy, candidates: &mut [usize]) {
        let ctx = SchedContext {
            desc: self.desc,
            runs: &self.st.kernels,
        };
        policy.order(&ctx, candidates);
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
        match self.sched {
            // The original engine's sort key, kept verbatim as the
            // bit-identity baseline (== what `Fifo::order` computes).
            None => order.sort_by_key(|&k| (Reverse(self.desc.kernels[k].priority), k)),
            Some(policy) => self.order_candidates(policy, &mut order),
        }
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
                    .max_by_key(|&(i, &f)| (f, std::cmp::Reverse(i)))
                else {
                    break;
                };
                let _ = free;
                self.issue_block(k, (base + sm) as u32);
            }
        }
    }

    /// Optimized block placement. Without an override the
    /// ready-queue's `(Reverse(priority), k)` ordering is exactly the
    /// reference scan's sort key, and `sm_index`'s maximum is exactly the
    /// reference scan's `max_by_key((f, Reverse(i)))`, so the sequence of
    /// `issue_block` calls is identical. Under an override the
    /// ready-queue supplies the candidate *set* and the policy re-orders
    /// it — producing, again, the same sequence the reference engine's
    /// policy-ordered scan issues.
    fn try_issue_optimized(&mut self) {
        if self.st.ready_queue.is_empty() {
            return;
        }
        self.st.counters.issue_rounds += 1;
        let mut order = std::mem::take(&mut self.st.issue_scratch);
        order.clear();
        order.extend(self.st.ready_queue.iter().map(|&(_, k)| k));
        if let Some(policy) = self.sched {
            self.order_candidates(policy, &mut order);
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

    fn update_util(&mut self) {
        let dt = (self.st.now - self.st.last_util_update).as_picos() as u128;
        self.st.util_integral += dt * self.st.busy_units as u128;
        self.st.last_util_update = self.st.now;
    }

    fn set_sm_free(&mut self, sm: usize, free: u32) {
        if self.mode == EngineMode::Optimized {
            let device = self.desc.device_of_sm[sm] as usize;
            self.st.sm_index[device].set(sm, free);
        }
        self.st.sm_free[sm] = free;
    }

    /// Writes `sm_active[sm]`, refreshing the optimized engine's
    /// `sm_scale[sm]` from the same value.
    fn set_sm_active(&mut self, sm: usize, active: u32) {
        if self.mode == EngineMode::Optimized {
            let device = self.desc.device_of_sm[sm];
            let boost = self.desc.device_config(device).residency_boost;
            self.st.sm_scale[sm] = residency_factor(active, boost);
        }
        self.st.sm_active[sm] = active;
    }

    fn issue_block(&mut self, k: usize, sm: u32) {
        let issue_seq = self.st.counters.placements;
        self.st.counters.placements += 1;
        self.update_util();
        let now = self.st.now;
        let kd = &self.desc.kernels[k];
        let kr = &mut self.st.kernels[k];
        let linear = kr.issued;
        let idx = kd.grid.delinear(linear);
        kr.issued += 1;
        kr.concurrent += 1;
        kr.max_concurrent = kr.max_concurrent.max(kr.concurrent);
        if kr.start.is_none() {
            kr.start = Some(now);
        }
        let units = kd.units;
        let device = kd.device;
        let span = match self.mode {
            EngineMode::Optimized => self.progs.span(k, linear),
            EngineMode::Reference => None,
        };
        let (prog_start, prog_len, body) = match span {
            // The kernel emitted its block programs once per compiled
            // pipeline (see `PipelineDesc::collect_programs`): replay this
            // one through a cursor as events fire, constructing no body at
            // all. Timing is unchanged — ops are still priced at their own
            // start times (see `KernelSource::static_programs`).
            Some((start, len)) => (start, len, None),
            None => (u32::MAX, 0, Some(kd.source.block(idx))),
        };
        self.set_sm_free(sm as usize, self.st.sm_free[sm as usize] - units);
        self.set_sm_active(sm as usize, self.st.sm_active[sm as usize] + units);
        self.st.active_units[device as usize] += units as u64;
        self.st.busy_units += units as u64;
        if self.st.first_issue.is_none() {
            self.st.first_issue = Some(now);
        }
        let jitter = self.jitter_value(k, idx);
        let slot = BlockSlot {
            kernel: k,
            idx,
            issue_seq,
            sm,
            units,
            body,
            atomic_result: None,
            waiting: None,
            pending: None,
            jitter,
            prog_start,
            prog_len,
            prog_pc: 0,
        };
        let bid = match self.st.free_slots.pop() {
            Some(bid) => {
                self.st.blocks[bid] = slot;
                bid
            }
            None => {
                self.st.blocks.push(slot);
                self.st.counters.peak_block_slots = self.st.blocks.len() as u64;
                self.st.blocks.len() - 1
            }
        };
        self.record(
            device,
            TraceEvent::BlockIssued {
                kernel: KernelId(k),
                block: idx,
                sm,
                units,
                time: now,
            },
        );
        self.push_event(now, EventKind::BlockResume(bid));
        // The PDL trigger: this kernel's final block just became resident,
        // so every kernel gated `AfterLaunchOf` it may now dispatch.
        if linear + 1 == self.desc.kernels[k].total {
            let desc = self.desc;
            for &dep in &desc.launch_dependents[k] {
                if self.st.prereqs[dep] == 1 {
                    self.record(
                        desc.kernels[dep].device,
                        TraceEvent::GateOpened {
                            kernel: KernelId(dep),
                            by: KernelId(k),
                            time: now,
                        },
                    );
                }
                self.prereq_done(dep);
            }
        }
    }

    fn step_block(&mut self, bid: usize) {
        if self.st.blocks[bid].has_program() {
            self.st.counters.program_steps += 1;
            self.step_program(bid);
        } else {
            self.st.counters.coroutine_steps += 1;
            self.step_coroutine(bid);
        }
    }

    /// Drives a pre-driven (side-effect-free) block through its op
    /// program. Because re-reading an op is free, this path defers
    /// without the `pending` machinery, and because semaphore values are
    /// monotone non-decreasing, a wait observed satisfied *now* is
    /// satisfied at any later instant — so satisfied waits coalesce into
    /// their successor unconditionally. Pure-op durations still require
    /// state stability until the op's start ([`Exec::can_extend_run`]),
    /// exactly like the coroutine path.
    fn step_program(&mut self, bid: usize) {
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

    /// Drives a block's coroutine body, coalescing consecutive
    /// non-synchronizing ops into a single future `BlockResume` when that
    /// is provably equivalent to the reference engine (see
    /// [`Exec::can_extend_run`]). Bodies may perform functional memory
    /// effects inside `resume`, so the body is only advanced when no
    /// other event can observe state in between.
    fn step_coroutine(&mut self, bid: usize) {
        // Accumulated delay of coalesced ops beyond `now`.
        let mut acc = SimTime::ZERO;
        loop {
            let mut body = self.st.blocks[bid].body.take().expect("block body missing");
            let block_idx = self.st.blocks[bid].idx;
            let atomic_result = self.st.blocks[bid].atomic_result;
            let step = {
                let mut ctx = BlockCtx {
                    block: block_idx,
                    now: self.st.now + acc,
                    mem: &mut self.st.mem,
                    sems: &self.st.sems,
                    atomic_result,
                };
                body.resume(&mut ctx)
            };
            match step {
                Step::Done => {
                    drop(body);
                    if acc == SimTime::ZERO {
                        self.finish_block(bid);
                    } else {
                        self.st.blocks[bid].pending = Some(PendingStep::Done);
                        self.push_event(self.st.now + acc, EventKind::BlockResume(bid));
                    }
                    return;
                }
                Step::Op(op) => {
                    self.st.blocks[bid].body = Some(body);
                    if let Some(d) = self.pure_op_delay(bid, &op) {
                        if let Op::LinkSend { bytes } = op {
                            self.record_link_sent(bid, bytes, self.st.now + acc, d);
                        }
                        acc += d;
                        if !self.can_extend_run(self.st.now + acc) {
                            self.push_event(self.st.now + acc, EventKind::BlockResume(bid));
                            return;
                        }
                        // Safe to keep running this block's body in place.
                    } else {
                        // Synchronizing op: apply now, or defer to the end
                        // of the coalesced run it terminates.
                        if acc == SimTime::ZERO {
                            self.apply_sync_op(bid, op);
                        } else {
                            self.st.blocks[bid].pending = Some(PendingStep::Op(op));
                            self.push_event(self.st.now + acc, EventKind::BlockResume(bid));
                        }
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
    fn can_extend_run(&self, until: SimTime) -> bool {
        self.mode == EngineMode::Optimized
            && !self.st.issue_dirty
            && match self.st.fast_events.peek_time() {
                Some(t) => t > until.as_picos(),
                None => true,
            }
    }

    /// How much faster this block runs than its cost model assumes.
    ///
    /// Kernel cost models charge each block `1/occupancy` of an SM's
    /// throughput — the fully-packed steady state. When the block's SM is
    /// only partially occupied (sparse grids, draining waves), the block's
    /// fair share grows proportionally, so durations shrink by
    /// `used_units / SM_CAPACITY_UNITS`. This is also what staggers the
    /// completion times of a partial wave: doubled-up blocks finish later
    /// than blocks holding an SM alone.
    #[inline(always)]
    fn residency_scale(&self, bid: usize) -> f64 {
        let sm = self.st.blocks[bid].sm as usize;
        let units = self.st.blocks[bid].units;
        if self.mode == EngineMode::Optimized {
            // A stepped block is active, so its own units are part of
            // `sm_active[sm]` and the reference's `.max(units)` is a no-op.
            debug_assert!(self.st.sm_active[sm] >= units, "stepped block is parked");
            return self.st.sm_scale[sm];
        }
        let boost = self
            .desc
            .device_config(self.block_device(bid))
            .residency_boost;
        residency_factor(self.st.sm_active[sm].max(units), boost)
    }

    /// Deterministic per-block duration factor in
    /// `[1 - jitter, 1 + jitter]`, derived from a SplitMix64 hash of the
    /// block's kernel and grid index (identical inputs always produce the
    /// identical timeline).
    #[inline(always)]
    fn jitter_factor(&self, bid: usize) -> f64 {
        if self.mode == EngineMode::Optimized {
            // Computed once at issue; a pure function of (kernel, index),
            // so the cache is exact.
            return self.st.blocks[bid].jitter;
        }
        let slot = &self.st.blocks[bid];
        self.jitter_value(slot.kernel, slot.idx)
    }

    /// The hash behind [`Exec::jitter_factor`], shared by both modes so the
    /// cached and recomputed values are the same `f64` bit for bit.
    fn jitter_value(&self, kernel: usize, idx: Dim3) -> f64 {
        let j = self.kernel_cfg(kernel).block_jitter;
        if j == 0.0 {
            return 1.0;
        }
        let key = (kernel as u64) << 48 ^ self.desc.kernels[kernel].grid.linear_of(idx);
        let z = crate::sched::splitmix64(key);
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        1.0 + j * (2.0 * unit - 1.0)
    }

    #[inline(always)]
    fn scaled(&self, bid: usize, t: SimTime) -> SimTime {
        let factor = self.residency_scale(bid) * self.jitter_factor(bid);
        SimTime::from_picos_rounded(t.as_picos() as f64 * factor)
    }

    /// Time for this block to move `bytes` through DRAM under the dynamic
    /// share model: bandwidth divides over all currently active blocks,
    /// but a `dram_saturation_fraction` of the GPU already saturates the
    /// bus, so sparse populations gain bandwidth per block only down to
    /// that floor (and the aggregate never exceeds the DRAM peak).
    fn dyn_mem_time(&self, bid: usize, bytes: u64) -> SimTime {
        let device = self.block_device(bid) as usize;
        let costs = &self.desc.costs[device];
        let competing = (self.st.active_units[device] as f64).max(costs.dram_competing_floor);
        let units = self.st.blocks[bid].units as f64;
        let share = costs.dram_bytes_per_sec * units / competing;
        SimTime::from_picos_rounded(bytes as f64 / share * 1e12)
    }

    /// [`Exec::dyn_mem_time`]; the optimized engine answers a repeat of
    /// the kernel's last `(active_units, bytes)` from its memo.
    #[inline(always)]
    fn mem_time(&mut self, bid: usize, bytes: u64) -> SimTime {
        if self.mode == EngineMode::Reference {
            return self.dyn_mem_time(bid, bytes);
        }
        let k = self.st.blocks[bid].kernel;
        let key = (
            self.st.active_units[self.desc.kernels[k].device as usize],
            bytes,
        );
        if let Some(value) = self.st.kernels[k].mem_price.hit(key) {
            return value;
        }
        let value = self.dyn_mem_time(bid, bytes);
        self.st.kernels[k].mem_price.store(key, value);
        value
    }

    /// [`GpuConfig::cycles`] at the block's device; the optimized engine
    /// answers a repeat of the kernel's last cycle count from its memo.
    #[inline(always)]
    fn cycles_time(&mut self, bid: usize, cycles: u64) -> SimTime {
        let k = self.st.blocks[bid].kernel;
        if self.mode == EngineMode::Reference {
            return self.kernel_cfg(k).cycles(cycles);
        }
        if let Some(value) = self.st.kernels[k].cycles_price.hit(cycles) {
            return value;
        }
        let value = self.kernel_cfg(k).cycles(cycles);
        self.st.kernels[k].cycles_price.store(cycles, value);
        value
    }

    /// Start-to-completion delay of a non-synchronizing op, or `None` for
    /// the ops that interact with semaphores (and so terminate a coalesced
    /// run). The arithmetic (including every intermediate rounding) is
    /// shared by both engine modes: the reference engine runs every
    /// formula per op, the optimized one reads the residency scale from
    /// `sm_scale` and DRAM and cycle times from exact per-kernel memos
    /// whose misses run the same formulas (see `crates/sim/README.md`,
    /// "Pricing memos").
    fn pure_op_delay(&mut self, bid: usize, op: &Op) -> Option<SimTime> {
        let costs = &self.desc.costs[self.block_device(bid) as usize];
        match *op {
            Op::Compute { cycles } => {
                let compute = self.cycles_time(bid, cycles);
                Some(self.scaled(bid, compute))
            }
            Op::GlobalRead { bytes } | Op::GlobalWrite { bytes } => {
                let mem = self.mem_time(bid, bytes);
                let jitter = self.jitter_factor(bid);
                let d = SimTime::from_picos_rounded(mem.as_picos() as f64 * jitter);
                Some(costs.global_latency + d)
            }
            Op::MainStep { bytes, cycles } => {
                // Loads overlap math: the step costs the slower of the two.
                let mem = self.mem_time(bid, bytes);
                let compute = self.cycles_time(bid, cycles);
                let compute = self.scaled(bid, compute);
                let jitter = self.jitter_factor(bid);
                let mem = SimTime::from_picos_rounded(mem.as_picos() as f64 * jitter);
                Some(costs.global_latency + mem.max(compute))
            }
            Op::Syncthreads => Some(costs.syncthreads),
            Op::Fence => Some(costs.fence),
            // Link bandwidth is not an SM resource: pure wire time,
            // unscaled by residency or jitter (see `ClusterConfig`), but
            // subject to the run's link-degradation scale.
            Op::LinkSend { bytes } => {
                let wire = self.desc.cluster.link_wire_time(bytes);
                Some(match self.link_scale {
                    Some(scale) => scale.apply(wire),
                    None => wire,
                })
            }
            Op::SemWait { .. } | Op::SemPost { .. } | Op::AtomicAdd { .. } => None,
        }
    }

    /// Applies a synchronizing op at the current instant (the op's start
    /// time — exactly where the reference engine's `apply_op` ran it).
    fn apply_sync_op(&mut self, bid: usize, op: Op) {
        match op {
            Op::SemWait {
                table,
                index,
                value,
            } => {
                if self.st.sems.value(table, index) >= value {
                    let t = self.st.now + self.poll_cost(self.block_device(bid), table);
                    self.push_event(t, EventKind::BlockResume(bid));
                } else {
                    self.st.blocks[bid].waiting = Some((table, index, value));
                    match self.mode {
                        EngineMode::Reference => {
                            self.st
                                .waiters
                                .entry((table.0, index))
                                .or_default()
                                .push(bid);
                        }
                        EngineMode::Optimized => {
                            self.st.wait_lists.park(table, index, bid);
                        }
                    }
                    // Parked: stops competing for execution throughput.
                    self.st.counters.parks += 1;
                    let device = self.block_device(bid) as usize;
                    let sm = self.st.blocks[bid].sm as usize;
                    let units = self.st.blocks[bid].units;
                    self.set_sm_active(sm, self.st.sm_active[sm] - units);
                    self.st.active_units[device] -= units as u64;
                    let kernel = self.st.blocks[bid].kernel;
                    let idx = self.st.blocks[bid].idx;
                    self.st.kernels[kernel].parked += 1;
                    self.record(
                        self.desc.kernels[kernel].device,
                        TraceEvent::BlockBlocked {
                            kernel: KernelId(kernel),
                            block: idx,
                            table,
                            index,
                            value,
                            time: self.st.now,
                        },
                    );
                }
            }
            Op::SemPost { table, index, inc } => {
                // A post to a remote device's array becomes visible one
                // link traversal later than a local one.
                let t = self.st.now + self.atomic_cost(self.block_device(bid), table);
                self.push_event(
                    t,
                    EventKind::PostApply {
                        block: bid,
                        table,
                        index,
                        inc,
                    },
                );
            }
            Op::AtomicAdd { table, index, inc } => {
                let t = self.st.now + self.atomic_cost(self.block_device(bid), table);
                self.push_event(
                    t,
                    EventKind::AtomicApply {
                        block: bid,
                        table,
                        index,
                        inc,
                    },
                );
            }
            _ => unreachable!("apply_sync_op called with a pure op"),
        }
    }

    fn apply_post(&mut self, poster: usize, table: SemArrayId, index: u32, inc: u32) {
        let poster_kernel = KernelId(self.st.blocks[poster].kernel);
        self.apply_post_inner(table, index, inc, Some(poster_kernel));
        self.push_event(self.st.now, EventKind::BlockResume(poster));
    }

    /// The poster-independent half of [`Exec::apply_post`]: bump the
    /// semaphore and wake satisfied waiters. Also the whole of a kernel's
    /// completion post, which has no poster block to resume.
    fn apply_post_inner(
        &mut self,
        table: SemArrayId,
        index: u32,
        inc: u32,
        poster: Option<KernelId>,
    ) {
        self.st.sems.add(table, index, inc);
        let new_value = self.st.sems.value(table, index);
        self.record(
            self.st.sems.device(table),
            TraceEvent::SemPosted {
                table,
                index,
                new_value,
                poster,
                time: self.st.now,
            },
        );
        match self.mode {
            EngineMode::Reference => {
                if let Some(list) = self.st.waiters.get_mut(&(table.0, index)) {
                    let mut still = Vec::new();
                    let mut woken = Vec::new();
                    for &wbid in list.iter() {
                        let (_, _, target) =
                            self.st.blocks[wbid].waiting.expect("waiter without target");
                        if new_value >= target {
                            woken.push(wbid);
                        } else {
                            still.push(wbid);
                        }
                    }
                    *list = still;
                    for wbid in woken {
                        self.wake_block(wbid, table);
                    }
                }
            }
            EngineMode::Optimized => {
                // Partition in place through reusable scratch storage: a
                // post to a semaphore nobody waits on touches no
                // allocator and no tree.
                let mut list = self.st.wait_lists.take(table, index);
                if !list.is_empty() {
                    let mut woken = std::mem::take(&mut self.st.wake_scratch);
                    woken.clear();
                    {
                        let blocks = &self.st.blocks;
                        list.retain(|&wbid| {
                            let (_, _, target) =
                                blocks[wbid].waiting.expect("waiter without target");
                            if new_value >= target {
                                woken.push(wbid);
                                false
                            } else {
                                true
                            }
                        });
                    }
                    for &wbid in &woken {
                        self.wake_block(wbid, table);
                    }
                    self.st.wake_scratch = woken;
                }
                self.st.wait_lists.put(table, index, list);
            }
        }
    }

    /// Wakes a block parked on `table`: it observes the posted value one
    /// poll later — a *remote* poll (array homed on another device) also
    /// traverses the link.
    fn wake_block(&mut self, wbid: usize, table: SemArrayId) {
        let wake_at = self.st.now + self.poll_cost(self.block_device(wbid), table);
        let device = self.block_device(wbid) as usize;
        if self.st.trace_enabled {
            // Stamped with the *resume* instant (recorded before it, at
            // post time); the canonical (time, device) sort in
            // `finalize_trace` files it in timestamp order.
            let (wtable, windex, _) = self.st.blocks[wbid].waiting.expect("woken non-waiter");
            let kernel = self.st.blocks[wbid].kernel;
            let block = self.st.blocks[wbid].idx;
            self.record(
                device as u32,
                TraceEvent::BlockWoken {
                    kernel: KernelId(kernel),
                    block,
                    table: wtable,
                    index: windex,
                    time: wake_at,
                },
            );
        }
        self.st.counters.wakes += 1;
        self.st.blocks[wbid].waiting = None;
        let sm = self.st.blocks[wbid].sm as usize;
        let units = self.st.blocks[wbid].units;
        self.set_sm_active(sm, self.st.sm_active[sm] + units);
        self.st.active_units[device] += units as u64;
        self.st.kernels[self.st.blocks[wbid].kernel].parked -= 1;
        self.push_event(wake_at, EventKind::BlockResume(wbid));
    }

    fn finish_block(&mut self, bid: usize) {
        self.update_util();
        let (k, sm, units, idx) = {
            let slot = &mut self.st.blocks[bid];
            slot.issue_seq = FREED_SLOT;
            (slot.kernel, slot.sm, slot.units, slot.idx)
        };
        self.st.free_slots.push(bid);
        self.set_sm_free(sm as usize, self.st.sm_free[sm as usize] + units);
        self.set_sm_active(sm as usize, self.st.sm_active[sm as usize] - units);
        self.st.active_units[self.desc.kernels[k].device as usize] -= units as u64;
        self.st.busy_units -= units as u64;
        self.st.last_finish = self.st.now;
        self.st.issue_dirty = true;
        self.record(
            self.desc.kernels[k].device,
            TraceEvent::BlockFinished {
                kernel: KernelId(k),
                block: idx,
                time: self.st.now,
            },
        );
        let kr = &mut self.st.kernels[k];
        kr.completed += 1;
        kr.concurrent -= 1;
        if kr.completed == self.desc.kernels[k].total {
            kr.end = Some(self.st.now);
            if self.abort_at.is_some_and(|h| self.st.now >= h) {
                self.abort_flag = true;
            }
            let stream = self.desc.kernels[k].stream;
            self.record(
                self.desc.kernels[k].device,
                TraceEvent::KernelFinished {
                    kernel: KernelId(k),
                    time: self.st.now,
                },
            );
            self.st.stream_next[stream] += 1;
            self.schedule_stream_head(stream);
            // Grid-completion signals: semaphore posts registered via
            // `Gpu::post_on_completion` wake PDL consumers parked on the
            // grid semaphore, and `AfterCompletionOf` gates release
            // stream-serialized dependents.
            let desc = self.desc;
            for &(table, index) in &desc.kernels[k].completion_posts {
                self.apply_post_inner(table, index, 1, Some(KernelId(k)));
            }
            for &dep in &desc.completion_dependents[k] {
                if self.st.prereqs[dep] == 1 {
                    self.record(
                        desc.kernels[dep].device,
                        TraceEvent::GateOpened {
                            kernel: KernelId(dep),
                            by: KernelId(k),
                            time: self.st.now,
                        },
                    );
                }
                self.prereq_done(dep);
            }
        }
    }

    /// The run's [`EngineCounters`]: the ones counted as they happen,
    /// plus the memo counts summed over the per-kernel memos.
    fn counters(&self) -> EngineCounters {
        let mut c = self.st.counters;
        for kr in &self.st.kernels {
            c.mem_memo.hits += kr.mem_price.count.hits;
            c.mem_memo.misses += kr.mem_price.count.misses;
            c.cycles_memo.hits += kr.cycles_price.count.hits;
            c.cycles_memo.misses += kr.cycles_price.count.misses;
        }
        c
    }

    /// Events handled this run: `handle` counts every event under exactly
    /// one kind.
    fn events_handled(&self) -> u64 {
        let c = &self.st.counters;
        c.kernel_ready_events + c.block_resume_events + c.post_apply_events + c.atomic_apply_events
    }

    fn report(&self) -> RunReport {
        let kernels: Vec<KernelReport> = self
            .desc
            .kernels
            .iter()
            .zip(self.st.kernels.iter())
            .map(|(kd, kr)| {
                let start = kr.start.unwrap_or(kr.ready_at);
                let end = kr.end.unwrap_or(start);
                let sms = self.desc.device_config(kd.device).num_sms;
                KernelReport {
                    name: kd.name.clone(),
                    grid: kd.grid,
                    device: kd.device,
                    occupancy: kd.occupancy,
                    blocks: kd.total,
                    static_waves: waves(kd.total, kd.occupancy, sms),
                    ready: kr.ready_at,
                    start,
                    end,
                    duration: end.saturating_sub(start),
                    max_concurrent: kr.max_concurrent,
                }
            })
            .collect();
        let total = kernels.iter().map(|k| k.end).max().unwrap_or(SimTime::ZERO);
        let span = match self.st.first_issue {
            Some(first) => self.st.last_finish.saturating_sub(first),
            None => SimTime::ZERO,
        };
        let capacity = self.desc.cluster.total_sms() as u128 * SM_CAPACITY_UNITS as u128;
        let sm_utilization = if span > SimTime::ZERO {
            self.st.util_integral as f64 / (capacity as f64 * span.as_picos() as f64)
        } else {
            0.0
        };
        let sem_posts = self.st.sems.ids().map(|id| self.st.sems.posts(id)).sum();
        RunReport {
            total,
            kernels,
            races: self.st.mem.races_total(),
            sm_utilization,
            sem_posts,
            sim_events: self.events_handled(),
            counters: self.counters(),
        }
    }
}

/// The simulated GPU under construction: hardware model, streams, kernel
/// registrations, and the memory and semaphores kernels are built
/// against. `Gpu` only builds; it never runs. [`Gpu::compile`] consumes
/// it into an immutable [`CompiledPipeline`](crate::CompiledPipeline),
/// and a [`Session`](crate::Session) runs that any number of times, so
/// a built workload is compiled exactly once by construction.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use cusync_sim::{Dim3, FixedKernel, Gpu, GpuConfig, Op, Session};
///
/// let mut gpu = Gpu::new(GpuConfig::toy(4));
/// let stream = gpu.create_stream(0);
/// gpu.launch(stream, Arc::new(FixedKernel::new(
///     "copy", Dim3::linear(6), 1, vec![Op::read(4096), Op::write(4096)],
/// )));
/// let report = Session::new().run(&gpu.compile()?)?;
/// assert_eq!(report.kernels[0].blocks, 6);
/// // 6 blocks on 4 SMs at occupancy 1 is 1.5 waves.
/// assert!((report.kernels[0].static_waves - 1.5).abs() < 1e-9);
/// # Ok::<(), cusync_sim::SimError>(())
/// ```
pub struct Gpu {
    pub(crate) desc: PipelineDesc,
    pub(crate) mem: GlobalMemory,
    pub(crate) sems: SemTable,
}

impl fmt::Debug for Gpu {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Gpu")
            .field("config", &self.desc.primary_config().name)
            .field("devices", &self.desc.cluster.devices.len())
            .field("kernels", &self.desc.kernels.len())
            .finish_non_exhaustive()
    }
}

impl Gpu {
    /// Creates a single-GPU builder with the given hardware model.
    pub fn new(config: GpuConfig) -> Self {
        Gpu::new_cluster(ClusterConfig::single(config))
    }

    /// Creates a multi-device node from a [`ClusterConfig`]. Streams and
    /// semaphore arrays are placed on devices with
    /// [`Gpu::create_stream_on`] / [`Gpu::alloc_sems_on`]; the single-GPU
    /// methods target device 0.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::sync::Arc;
    /// use cusync_sim::{ClusterConfig, Dim3, FixedKernel, Gpu, Op, Session};
    ///
    /// let mut node = Gpu::new_cluster(ClusterConfig::dgx_v100(2));
    /// let ready = node.alloc_sems_on(1, "ready", 1, 0);
    /// let s0 = node.create_stream_on(0, 0);
    /// let s1 = node.create_stream_on(1, 0);
    /// // Device 0 signals device 1 across the link.
    /// node.launch(s0, Arc::new(FixedKernel::new(
    ///     "producer", Dim3::linear(1), 1,
    ///     vec![Op::compute(10_000), Op::Fence, Op::post(ready, 0)],
    /// )));
    /// node.launch(s1, Arc::new(FixedKernel::new(
    ///     "consumer", Dim3::linear(1), 1,
    ///     vec![Op::wait(ready, 0, 1), Op::compute(10_000)],
    /// )));
    /// let report = Session::new().run(&node.compile()?)?;
    /// assert!(report.kernel("consumer").end > report.kernel("producer").end);
    /// # Ok::<(), cusync_sim::SimError>(())
    /// ```
    pub fn new_cluster(cluster: ClusterConfig) -> Self {
        Gpu {
            desc: PipelineDesc::new(cluster),
            mem: GlobalMemory::new(),
            sems: SemTable::new(),
        }
    }

    /// The hardware model in use (device 0's for a multi-device node; see
    /// [`Gpu::cluster`] for the full model).
    pub fn config(&self) -> &GpuConfig {
        self.desc.primary_config()
    }

    /// The full cluster model, including the interconnect.
    pub fn cluster(&self) -> &ClusterConfig {
        &self.desc.cluster
    }

    /// Number of devices in this node.
    pub fn num_devices(&self) -> u32 {
        self.desc.cluster.num_devices()
    }

    /// Read access to global memory.
    pub fn mem(&self) -> &GlobalMemory {
        &self.mem
    }

    /// Mutable access to global memory (allocation, verification).
    pub fn mem_mut(&mut self) -> &mut GlobalMemory {
        &mut self.mem
    }

    /// Read access to the semaphore table.
    pub fn sems(&self) -> &SemTable {
        &self.sems
    }

    /// Mutable access to the semaphore table (allocation, re-init).
    pub fn sems_mut(&mut self) -> &mut SemTable {
        &mut self.sems
    }

    /// Allocates a timing-only buffer (convenience for [`GlobalMemory::alloc`]).
    pub fn alloc(&mut self, name: &str, len: usize, dtype: DType) -> BufferId {
        self.mem_mut().alloc(name, len, dtype)
    }

    /// Allocates a semaphore array in device 0's memory (convenience for
    /// [`SemTable::alloc`]).
    pub fn alloc_sems(&mut self, name: &str, len: usize, init: u32) -> SemArrayId {
        self.sems_mut().alloc(name, len, init)
    }

    /// Allocates a semaphore array homed in `device`'s global memory.
    /// Posts and polls from other devices pay the cluster's link latency
    /// on the post→observe edge.
    ///
    /// # Panics
    ///
    /// Panics if `device` is not a device of this node.
    pub fn alloc_sems_on(&mut self, device: u32, name: &str, len: usize, init: u32) -> SemArrayId {
        assert!(
            device < self.num_devices(),
            "device {device} outside 0..{}",
            self.num_devices()
        );
        self.sems_mut().alloc_on(name, len, init, device)
    }

    /// Creates a stream on device 0. Streams with numerically higher
    /// `priority` issue their thread blocks first when competing for SM
    /// slots.
    pub fn create_stream(&mut self, priority: i32) -> StreamId {
        self.create_stream_on(0, priority)
    }

    /// Creates a stream on `device`: kernels launched on it occupy that
    /// device's SMs only.
    ///
    /// # Panics
    ///
    /// Panics if `device` is not a device of this node.
    pub fn create_stream_on(&mut self, device: u32, priority: i32) -> StreamId {
        assert!(
            device < self.num_devices(),
            "device {device} outside 0..{}",
            self.num_devices()
        );
        let id = StreamId(self.desc.streams.len());
        self.desc.streams.push(StreamDesc {
            device,
            priority,
            queue: Vec::new(),
        });
        id
    }

    /// Enqueues `kernel` on `stream`. Kernels on one stream execute in
    /// order; kernels on different streams may overlap. Each host launch is
    /// separated by [`GpuConfig::host_launch_gap`].
    ///
    /// # Panics
    ///
    /// Panics if the grid is empty or the stream id is foreign.
    pub fn launch(&mut self, stream: StreamId, kernel: Arc<dyn KernelSource>) -> KernelId {
        let grid = kernel.grid();
        assert!(
            grid.count() > 0,
            "kernel {} has an empty grid",
            kernel.name()
        );
        assert!(stream.0 < self.desc.streams.len(), "unknown {stream}");
        let device = self.desc.streams[stream.0].device;
        let device_cfg = self.desc.device_config(device);
        let occupancy = kernel.occupancy();
        let units = device_cfg.units_per_block(occupancy);
        let launch_gap = device_cfg.host_launch_gap;
        let id = self.desc.kernels.len();
        self.desc.kernels.push(KernelDesc {
            name: kernel.name().to_owned(),
            source: kernel,
            stream: stream.0,
            device,
            priority: self.desc.streams[stream.0].priority,
            host_ready: self.desc.host_time[device as usize],
            grid,
            total: grid.count(),
            occupancy,
            units,
            gates: Vec::new(),
            completion_posts: Vec::new(),
        });
        // Each device's host rank owns its own launch queue; launches to
        // different devices do not serialize against each other.
        let host = &mut self.desc.host_time[device as usize];
        *host = host.saturating_add(launch_gap);
        self.desc.streams[stream.0].queue.push(id);
        KernelId(id)
    }

    /// Gates `kernel`'s dispatch on another kernel's progress — the
    /// simulator's Programmatic Dependent Launch primitive. The kernel
    /// becomes dispatchable only once its stream reaches it **and** every
    /// registered gate is satisfied; see [`LaunchGate`] for the two
    /// trigger points. Gates may be registered any time before
    /// [`Gpu::compile`], in either launch order.
    ///
    /// # Panics
    ///
    /// Panics if either kernel id is unknown or the kernel gates on
    /// itself.
    pub fn gate_launch(&mut self, kernel: KernelId, gate: LaunchGate) {
        let n = self.desc.kernels.len();
        let target = gate.target();
        assert!(kernel.0 < n, "unknown kernel k{}", kernel.0);
        assert!(target.0 < n, "unknown gate target k{}", target.0);
        assert!(
            target != kernel,
            "kernel k{} cannot gate on itself",
            kernel.0
        );
        self.desc.kernels[kernel.0].gates.push(gate);
    }

    /// Registers a semaphore post fired the instant `kernel`'s final
    /// thread block finishes — the producer half of a PDL edge: consumers
    /// issue a plain semaphore wait (their "grid dependency sync") after
    /// their preamble and park until this post lands. Idempotent per
    /// `(kernel, table, index)` so shared producers register once.
    ///
    /// # Panics
    ///
    /// Panics if the kernel id or semaphore array is unknown.
    pub fn post_on_completion(&mut self, kernel: KernelId, table: SemArrayId, index: u32) {
        assert!(
            kernel.0 < self.desc.kernels.len(),
            "unknown kernel k{}",
            kernel.0
        );
        assert!(
            (index as usize) < self.sems().len(table),
            "semaphore index {index} outside {table}"
        );
        let posts = &mut self.desc.kernels[kernel.0].completion_posts;
        if !posts.contains(&(table, index)) {
            posts.push((table, index));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::FixedKernel;
    use crate::Session;

    fn quiet_config() -> GpuConfig {
        GpuConfig {
            host_launch_gap: SimTime::ZERO,
            kernel_dispatch_latency: SimTime::ZERO,
            block_jitter: 0.0,
            ..GpuConfig::toy(4)
        }
    }

    /// Compiles `gpu` and runs it on `session`.
    fn run_on(session: &mut Session, gpu: Gpu) -> Result<RunReport, SimError> {
        session.run(&gpu.compile()?)
    }

    /// Compiles `gpu` and runs it on a fresh session in `mode`.
    fn run_in(gpu: Gpu, mode: EngineMode) -> Result<RunReport, SimError> {
        run_on(&mut Session::with_mode(mode), gpu)
    }

    /// Compiles `gpu` and runs it on a fresh optimized session.
    fn run_once(gpu: Gpu) -> Result<RunReport, SimError> {
        run_in(gpu, EngineMode::Optimized)
    }

    /// [`run_in`] on a tracing session: the report and the run's trace.
    fn traced_in(gpu: Gpu, mode: EngineMode) -> (RunReport, Vec<TraceEvent>) {
        let mut session = Session::with_mode(mode);
        session.enable_trace();
        let report = run_on(&mut session, gpu).unwrap();
        (report, session.trace().to_vec())
    }

    #[test]
    fn single_kernel_runs_in_waves() {
        let mut gpu = Gpu::new(quiet_config());
        let s = gpu.create_stream(0);
        // 6 blocks, occupancy 1, 4 SMs: two waves (4 then 2), like Fig. 1b.
        gpu.launch(
            s,
            Arc::new(FixedKernel::new(
                "k",
                Dim3::linear(6),
                1,
                vec![Op::compute(1000)],
            )),
        );
        let report = run_once(gpu).unwrap();
        let k = &report.kernels[0];
        assert_eq!(k.blocks, 6);
        assert!((k.static_waves - 1.5).abs() < 1e-9);
        assert_eq!(k.max_concurrent, 4);
        // Two sequential waves of compute(1000 cycles).
        let one_wave = GpuConfig::toy(4).cycles(1000);
        assert_eq!(k.duration, one_wave + one_wave);
    }

    /// A slot is touched on every event of its block: keep it within two
    /// cache lines.
    #[test]
    fn block_slot_fits_in_128_bytes() {
        let size = std::mem::size_of::<BlockSlot>();
        assert!(size <= 128, "BlockSlot is {size} bytes");
    }

    /// The second wave reuses the first wave's slots on both engines.
    #[test]
    fn finished_block_slots_are_reused() {
        for mode in [EngineMode::Reference, EngineMode::Optimized] {
            let mut gpu = Gpu::new(quiet_config());
            let s = gpu.create_stream(0);
            gpu.launch(
                s,
                Arc::new(FixedKernel::new(
                    "k",
                    Dim3::linear(6),
                    1,
                    vec![Op::compute(1000)],
                )),
            );
            let report = run_in(gpu, mode).unwrap();
            assert_eq!(report.counters.placements, 6, "{mode:?}");
            assert_eq!(report.counters.peak_block_slots, 4, "{mode:?}");
        }
    }

    #[test]
    fn same_stream_kernels_serialize() {
        let mut gpu = Gpu::new(quiet_config());
        let s = gpu.create_stream(0);
        gpu.launch(
            s,
            Arc::new(FixedKernel::new(
                "a",
                Dim3::linear(2),
                1,
                vec![Op::compute(500)],
            )),
        );
        gpu.launch(
            s,
            Arc::new(FixedKernel::new(
                "b",
                Dim3::linear(2),
                1,
                vec![Op::compute(500)],
            )),
        );
        let report = run_once(gpu).unwrap();
        assert!(report.kernel("b").start >= report.kernel("a").end);
    }

    #[test]
    fn different_streams_overlap() {
        let mut gpu = Gpu::new(quiet_config());
        let s1 = gpu.create_stream(0);
        let s2 = gpu.create_stream(0);
        gpu.launch(
            s1,
            Arc::new(FixedKernel::new(
                "a",
                Dim3::linear(2),
                1,
                vec![Op::compute(10_000)],
            )),
        );
        gpu.launch(
            s2,
            Arc::new(FixedKernel::new(
                "b",
                Dim3::linear(2),
                1,
                vec![Op::compute(10_000)],
            )),
        );
        let report = run_once(gpu).unwrap();
        // 4 SMs fit both 2-block kernels at once.
        assert!(report.kernel("b").start < report.kernel("a").end);
    }

    #[test]
    fn semaphore_wait_blocks_until_post() {
        let mut gpu = Gpu::new(quiet_config());
        let sem = gpu.alloc_sems("sem", 1, 0);
        let s1 = gpu.create_stream(0);
        let s2 = gpu.create_stream(0);
        gpu.launch(
            s1,
            Arc::new(FixedKernel::new(
                "producer",
                Dim3::linear(1),
                1,
                vec![Op::compute(100_000), Op::post(sem, 0)],
            )),
        );
        gpu.launch(
            s2,
            Arc::new(FixedKernel::new(
                "consumer",
                Dim3::linear(1),
                1,
                vec![Op::wait(sem, 0, 1), Op::compute(10)],
            )),
        );
        let report = run_once(gpu).unwrap();
        let producer_end = report.kernel("producer").end;
        let consumer_end = report.kernel("consumer").end;
        assert!(consumer_end > producer_end);
        assert_eq!(report.sem_posts, 1);
    }

    #[test]
    fn deadlock_is_detected_and_described() {
        let mut gpu = Gpu::new(quiet_config());
        let sem = gpu.alloc_sems("never", 1, 0);
        let s = gpu.create_stream(0);
        gpu.launch(
            s,
            Arc::new(FixedKernel::new(
                "stuck",
                Dim3::linear(1),
                1,
                vec![Op::wait(sem, 0, 1)],
            )),
        );
        let err = run_once(gpu).unwrap_err();
        match err {
            SimError::Deadlock(report) => {
                assert_eq!(report.pending_names(), vec!["stuck".to_string()]);
                assert_eq!(report.blocked.len(), 1);
                let line = report.blocked[0].to_string();
                assert!(line.contains("never[0] >= 1"), "{line}");
                assert_eq!(report.blocked[0].current, 0);
                // One resident spinner, nothing executing: the report's
                // occupancy view shows the slot held by a busy-wait.
                assert_eq!(report.sms.len(), 1);
                assert_eq!(report.sms[0].active_units, 0);
                assert!(report.sms[0].spinning_units > 0);
            }
            other => panic!("expected deadlock, got {other}"),
        }
    }

    #[test]
    fn busy_wait_occupies_sm_slots_causing_deadlock() {
        // Consumer fills all 4 SMs busy-waiting; producer (launched later)
        // can never run: the Section III-B hazard.
        let mut gpu = Gpu::new(quiet_config());
        let sem = gpu.alloc_sems("tile", 1, 0);
        let s1 = gpu.create_stream(0);
        let s2 = gpu.create_stream(1); // higher priority: consumer issues first
        gpu.launch(
            s1,
            Arc::new(FixedKernel::new(
                "producer",
                Dim3::linear(4),
                1,
                vec![Op::compute(100), Op::post(sem, 0)],
            )),
        );
        gpu.launch(
            s2,
            Arc::new(FixedKernel::new(
                "consumer",
                Dim3::linear(4),
                1,
                vec![Op::wait(sem, 0, 4), Op::compute(10)],
            )),
        );
        let err = run_once(gpu).unwrap_err();
        let SimError::Deadlock(report) = err else {
            panic!("expected deadlock, got {err}");
        };
        // The wait cycle names the spinner, the polled semaphore and the
        // starved producer.
        let cycle = report.wait_cycle().expect("occupancy cycle");
        assert!(cycle.contains("consumer"), "{cycle}");
        assert!(cycle.contains("tile[0]"), "{cycle}");
        assert!(cycle.contains("producer"), "{cycle}");
        let starved: Vec<_> = report.starved().collect();
        assert_eq!(starved.len(), 1);
        assert_eq!(starved[0].name, "producer");
        assert_eq!(starved[0].unissued(), 4);
    }

    #[test]
    fn priority_orders_block_issue() {
        let mut gpu = Gpu::new(quiet_config());
        let lo = gpu.create_stream(0);
        let hi = gpu.create_stream(5);
        gpu.launch(
            lo,
            Arc::new(FixedKernel::new(
                "lo",
                Dim3::linear(4),
                1,
                vec![Op::compute(100)],
            )),
        );
        gpu.launch(
            hi,
            Arc::new(FixedKernel::new(
                "hi",
                Dim3::linear(4),
                1,
                vec![Op::compute(100)],
            )),
        );
        let (_, trace) = traced_in(gpu, EngineMode::Optimized);
        let first_issue = trace
            .iter()
            .find_map(|e| match e {
                TraceEvent::BlockIssued { kernel, .. } => Some(*kernel),
                _ => None,
            })
            .unwrap();
        // Both kernels become ready at t=0 (zero latencies); the
        // higher-priority stream's kernel issues first.
        assert_eq!(first_issue, KernelId(1));
    }

    #[test]
    fn atomic_add_returns_previous_value_in_order() {
        // Three blocks each fetch-add the counter; results must be 0,1,2 in
        // issue order (deterministic engine).
        use crate::kernel::{BlockBody, FnKernel};
        struct CounterBody {
            counter: SemArrayId,
            state: u8,
            seen: Option<u32>,
        }
        impl BlockBody for CounterBody {
            fn resume(&mut self, ctx: &mut BlockCtx<'_>) -> Step {
                match self.state {
                    0 => {
                        self.state = 1;
                        Step::Op(Op::AtomicAdd {
                            table: self.counter,
                            index: 0,
                            inc: 1,
                        })
                    }
                    1 => {
                        self.seen = ctx.atomic_result;
                        self.state = 2;
                        // Write our observation so the test can assert it.
                        Step::Op(Op::compute(10))
                    }
                    _ => Step::Done,
                }
            }
        }
        let mut gpu = Gpu::new(quiet_config());
        let counter = gpu.alloc_sems("ctr", 1, 0);
        let s = gpu.create_stream(0);
        gpu.launch(
            s,
            Arc::new(FnKernel::new("count", Dim3::linear(3), 1, move |_| {
                Box::new(CounterBody {
                    counter,
                    state: 0,
                    seen: None,
                })
            })),
        );
        let mut session = Session::new();
        run_on(&mut session, gpu).unwrap();
        assert_eq!(session.sems().value(counter, 0), 3);
    }

    #[test]
    fn utilization_reflects_partial_waves() {
        let mut gpu = Gpu::new(quiet_config());
        let s = gpu.create_stream(0);
        // 2 blocks on 4 SMs: utilization 50% for the whole run.
        gpu.launch(
            s,
            Arc::new(FixedKernel::new(
                "k",
                Dim3::linear(2),
                1,
                vec![Op::compute(1000)],
            )),
        );
        let report = run_once(gpu).unwrap();
        assert!(
            (report.sm_utilization - 0.5).abs() < 1e-6,
            "{}",
            report.sm_utilization
        );
    }

    /// Builds one moderately adversarial workload: three streams with
    /// mixed priorities, a producer/consumer semaphore chain, atomics,
    /// fences, jitter and partial waves — every engine feature at once.
    fn mixed_workload(gpu: &mut Gpu) {
        let sem = gpu.alloc_sems("tiles", 8, 0);
        let ctr = gpu.alloc_sems("order", 1, 0);
        let s0 = gpu.create_stream(0);
        let s1 = gpu.create_stream(2);
        let s2 = gpu.create_stream(-1);
        gpu.launch(
            s0,
            Arc::new(FixedKernel::new(
                "producer",
                Dim3::linear(8),
                2,
                vec![
                    Op::read(64 * 1024),
                    Op::main_step(32 * 1024, 40_000),
                    Op::Syncthreads,
                    Op::Fence,
                    Op::post(sem, 0),
                    Op::write(16 * 1024),
                ],
            )),
        );
        gpu.launch(
            s1,
            Arc::new(FixedKernel::new(
                "consumer",
                Dim3::linear(8),
                2,
                vec![
                    Op::wait(sem, 0, 4),
                    Op::AtomicAdd {
                        table: ctr,
                        index: 0,
                        inc: 1,
                    },
                    Op::main_step(8 * 1024, 90_000),
                    Op::write(8 * 1024),
                ],
            )),
        );
        gpu.launch(
            s2,
            Arc::new(FixedKernel::new(
                "background",
                Dim3::linear(5),
                1,
                vec![Op::compute(250_000), Op::read(128 * 1024)],
            )),
        );
    }

    #[test]
    fn optimized_engine_matches_reference_exactly() {
        let run = |mode: EngineMode| {
            let mut gpu = Gpu::new(GpuConfig::toy(4));
            mixed_workload(&mut gpu);
            traced_in(gpu, mode)
        };
        let (ref_report, ref_trace) = run(EngineMode::Reference);
        let (opt_report, opt_trace) = run(EngineMode::Optimized);
        assert_eq!(ref_report.kernels, opt_report.kernels);
        assert_eq!(ref_report.total, opt_report.total);
        assert_eq!(ref_report.sem_posts, opt_report.sem_posts);
        assert_eq!(ref_report.sm_utilization, opt_report.sm_utilization);
        assert_eq!(ref_trace, opt_trace, "scheduling traces must be identical");
        // The whole point: the optimized engine must do the same work with
        // fewer heap events (ops coalesced between sync points).
        assert!(
            opt_report.sim_events <= ref_report.sim_events,
            "optimized {} vs reference {}",
            opt_report.sim_events,
            ref_report.sim_events
        );
    }

    #[test]
    fn optimized_engine_matches_reference_on_deadlocks() {
        let run = |mode: EngineMode| {
            let mut gpu = Gpu::new(GpuConfig {
                host_launch_gap: SimTime::ZERO,
                kernel_dispatch_latency: SimTime::ZERO,
                ..GpuConfig::toy(4)
            });
            let sem = gpu.alloc_sems("tile", 2, 0);
            let s1 = gpu.create_stream(0);
            let s2 = gpu.create_stream(1);
            gpu.launch(
                s1,
                Arc::new(FixedKernel::new(
                    "producer",
                    Dim3::linear(4),
                    1,
                    vec![Op::compute(100), Op::post(sem, 0)],
                )),
            );
            gpu.launch(
                s2,
                Arc::new(FixedKernel::new(
                    "consumer",
                    Dim3::linear(4),
                    1,
                    vec![Op::wait(sem, 0, 4), Op::compute(10)],
                )),
            );
            run_in(gpu, mode).unwrap_err()
        };
        let reference = run(EngineMode::Reference);
        let optimized = run(EngineMode::Optimized);
        assert_eq!(reference, optimized, "blocked/pending sets must match");
    }

    #[test]
    fn coalescing_respects_cross_block_memory_state() {
        // Jittered blocks finish a wave at staggered times, so a block's
        // later ops see different `active_units` than its first op did;
        // coalescing across those boundaries would drift the timeline.
        let run = |mode: EngineMode| {
            let mut gpu = Gpu::new(GpuConfig::toy(3));
            let s = gpu.create_stream(0);
            gpu.launch(
                s,
                Arc::new(FixedKernel::new(
                    "mem",
                    Dim3::linear(7),
                    1,
                    vec![
                        Op::read(256 * 1024),
                        Op::main_step(64 * 1024, 10_000),
                        Op::main_step(64 * 1024, 10_000),
                        Op::write(256 * 1024),
                    ],
                )),
            );
            run_in(gpu, mode).unwrap()
        };
        let reference = run(EngineMode::Reference);
        let optimized = run(EngineMode::Optimized);
        assert_eq!(reference.kernels, optimized.kernels);
        assert_eq!(reference.sm_utilization, optimized.sm_utilization);
    }

    #[test]
    fn lone_block_coalesces_to_a_handful_of_events() {
        // One block, no competitors: every op between launch and finish
        // coalesces, so the heap sees O(1) events instead of O(ops).
        let ops: Vec<Op> = (0..1000).map(|_| Op::compute(100)).collect();
        let mut gpu = Gpu::new(quiet_config());
        let s = gpu.create_stream(0);
        gpu.launch(
            s,
            Arc::new(FixedKernel::new("solo", Dim3::linear(1), 1, ops)),
        );
        let report = run_once(gpu).unwrap();
        assert!(
            report.sim_events < 20,
            "expected a coalesced run, saw {} events",
            report.sim_events
        );
    }

    fn quiet_cluster(devices: u32, sms: u32) -> ClusterConfig {
        ClusterConfig {
            devices: vec![quiet_config(); devices as usize]
                .into_iter()
                .map(|mut g| {
                    g.num_sms = sms;
                    g
                })
                .collect(),
            link_latency: SimTime::from_nanos(3_000),
            link_bytes_per_sec: 100e9,
        }
    }

    #[test]
    fn devices_have_independent_sm_pools() {
        // Two kernels that each fill a whole device overlap completely on
        // a 2-device node — they would serialize on one device.
        let mut node = Gpu::new_cluster(quiet_cluster(2, 4));
        let s0 = node.create_stream_on(0, 0);
        let s1 = node.create_stream_on(1, 0);
        for (name, s) in [("a", s0), ("b", s1)] {
            node.launch(
                s,
                Arc::new(FixedKernel::new(
                    name,
                    Dim3::linear(4),
                    1,
                    vec![Op::compute(100_000)],
                )),
            );
        }
        let report = run_once(node).unwrap();
        assert_eq!(report.kernel("a").start, report.kernel("b").start);
        assert_eq!(report.kernel("a").end, report.kernel("b").end);
        assert_eq!(report.kernel("a").device, 0);
        assert_eq!(report.kernel("b").device, 1);
    }

    #[test]
    fn cross_device_post_pays_the_link_latency() {
        let run = |consumer_device: u32| {
            let mut node = Gpu::new_cluster(quiet_cluster(2, 4));
            let sem = node.alloc_sems_on(consumer_device, "ready", 1, 0);
            let s0 = node.create_stream_on(0, 0);
            let sc = node.create_stream_on(consumer_device, 0);
            node.launch(
                s0,
                Arc::new(FixedKernel::new(
                    "producer",
                    Dim3::linear(1),
                    1,
                    vec![Op::compute(100_000), Op::post(sem, 0)],
                )),
            );
            node.launch(
                sc,
                Arc::new(FixedKernel::new(
                    "consumer",
                    Dim3::linear(1),
                    1,
                    vec![Op::wait(sem, 0, 1), Op::compute(10)],
                )),
            );
            run_once(node).unwrap().kernel("consumer").end
        };
        let local = run(0);
        let remote = run(1);
        // The remote consumer's wake arrives exactly one link traversal
        // later (sem homed with the consumer: the *post* crosses).
        let expected = quiet_cluster(2, 4).link_latency;
        assert_eq!(remote.saturating_sub(local), expected);
    }

    #[test]
    fn remote_poll_pays_the_link_latency() {
        // Consumer waits on an array homed with the *producer*: the post
        // is local, the consumer's observing poll crosses the link.
        let run = |sem_device: u32| {
            let mut node = Gpu::new_cluster(quiet_cluster(2, 4));
            let sem = node.alloc_sems_on(sem_device, "ready", 1, 0);
            let s0 = node.create_stream_on(0, 0);
            let s1 = node.create_stream_on(1, 0);
            node.launch(
                s0,
                Arc::new(FixedKernel::new(
                    "producer",
                    Dim3::linear(1),
                    1,
                    vec![Op::compute(100_000), Op::post(sem, 0)],
                )),
            );
            node.launch(
                s1,
                Arc::new(FixedKernel::new(
                    "consumer",
                    Dim3::linear(1),
                    1,
                    vec![Op::wait(sem, 0, 1), Op::compute(10)],
                )),
            );
            run_once(node).unwrap().kernel("consumer").end
        };
        // Homed on 0 (remote poll) vs homed on 1 (remote post): both pay
        // exactly one traversal, so the end times coincide.
        assert_eq!(run(0), run(1));
    }

    #[test]
    fn link_send_charges_wire_time_only() {
        let cluster = quiet_cluster(2, 4);
        let mut node = Gpu::new_cluster(cluster.clone());
        let s = node.create_stream_on(0, 0);
        node.launch(
            s,
            Arc::new(FixedKernel::new(
                "send",
                Dim3::linear(1),
                1,
                vec![Op::link_send(100_000_000)],
            )),
        );
        let report = run_once(node).unwrap();
        // 100 MB at 100 GB/s = 1 ms, unscaled by residency or jitter.
        assert_eq!(
            report.kernel("send").duration,
            cluster.link_wire_time(100_000_000)
        );
        assert_eq!(report.kernel("send").duration, SimTime::from_micros(1000.0));
    }

    #[test]
    #[should_panic(expected = "LinkScale denominator must be non-zero")]
    fn zero_denominator_link_scale_is_refused() {
        LinkScale::ratio(1, 0);
    }

    #[test]
    fn cluster_engines_match_on_cross_device_pipelines() {
        let run = |mode: EngineMode| {
            let mut node = Gpu::new_cluster(quiet_cluster(3, 4));
            let sems: Vec<_> = (0..3)
                .map(|d| node.alloc_sems_on(d, &format!("ring{d}"), 4, 0))
                .collect();
            for d in 0..3u32 {
                let s = node.create_stream_on(d, d as i32 % 2);
                let next = sems[((d + 1) % 3) as usize];
                let own = sems[d as usize];
                let mut ops = vec![
                    Op::read(64 * 1024),
                    Op::compute(50_000),
                    Op::link_send(256 * 1024),
                    Op::Fence,
                    Op::post(next, 0),
                ];
                if d > 0 {
                    ops.insert(0, Op::wait(own, 0, 1));
                }
                node.launch(
                    s,
                    Arc::new(FixedKernel::new(&format!("k{d}"), Dim3::linear(5), 2, ops)),
                );
            }
            traced_in(node, mode)
        };
        let (ref_report, ref_trace) = run(EngineMode::Reference);
        let (opt_report, opt_trace) = run(EngineMode::Optimized);
        assert_eq!(ref_report.kernels, opt_report.kernels);
        assert_eq!(ref_report.total, opt_report.total);
        assert_eq!(ref_report.sm_utilization, opt_report.sm_utilization);
        assert_eq!(ref_trace, opt_trace);
    }

    #[test]
    #[should_panic(expected = "device 2 outside 0..2")]
    fn foreign_device_stream_rejected() {
        let mut node = Gpu::new_cluster(quiet_cluster(2, 4));
        node.create_stream_on(2, 0);
    }

    #[test]
    fn build_error_displays_builder_and_input() {
        let e = BuildError::missing("GemmBuilder(g1)", "A operand");
        let s = e.to_string();
        assert!(
            s.contains("GemmBuilder(g1)") && s.contains("A operand"),
            "{s}"
        );
        let sim: SimError = e.into();
        assert!(matches!(sim, SimError::Build(_)));
    }

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

    /// Re-sequencing mid-run, forced through a tiny sequence limit,
    /// changes nothing observable: same report, same trace.
    #[test]
    fn event_resequencing_is_invisible_to_a_run() {
        let run = |seq_limit: u64| {
            let mut gpu = Gpu::new(quiet_config());
            let sem = gpu.alloc_sems("s", 4, 0);
            // The producer outranks the consumer, so spinners never
            // starve it of SM slots.
            let hi = gpu.create_stream(1);
            let lo = gpu.create_stream(0);
            let producer = vec![Op::read(4096), Op::compute(3_000), Op::post(sem, 0)];
            let consumer = vec![Op::wait(sem, 0, 3), Op::main_step(2048, 2_000)];
            gpu.launch(
                hi,
                Arc::new(FixedKernel::new("p", Dim3::linear(12), 2, producer)),
            );
            gpu.launch(
                lo,
                Arc::new(FixedKernel::new("c", Dim3::linear(12), 2, consumer)),
            );
            let mut session = Session::new();
            session.enable_trace();
            session.st.fast_events.seq_limit = seq_limit;
            let report = run_on(&mut session, gpu).unwrap();
            (report, session.trace().to_vec())
        };
        let (plain, plain_trace) = run(SEQ_LIMIT);
        let (reseq, reseq_trace) = run(24);
        assert!(plain.sim_events > 48, "{} events", plain.sim_events);
        assert_eq!(plain, reseq);
        assert_eq!(plain_trace, reseq_trace);
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
