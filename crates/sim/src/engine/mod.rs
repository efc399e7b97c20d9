//! The discrete-event execution engine.
//!
//! Since the compile/execute split the engine is factored into three
//! pieces (see `crates/sim/README.md` for the lifecycle):
//!
//! - [`PipelineDesc`] (`gpu.rs`) — the *immutable* description of a
//!   workload: the hardware model, streams, and kernel registrations
//!   (sources, grids, occupancies, launch order, launch gates). This is
//!   what [`CompiledPipeline`](crate::CompiledPipeline) freezes.
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
//!   The handlers both loops share live in this file; the errors a run
//!   returns in `outcome.rs`; whole-run tests in `tests.rs`.
//!
//! [`Session`](crate::Session) is the one driver of `execute_with`: it
//! owns the run state and every run setting (engine mode, trace flag,
//! block-issue order, link scale). [`Gpu`] (`gpu.rs`) only builds: it owns
//! one `PipelineDesc` under construction plus the memory and semaphores
//! kernels are built against, and [`Gpu::compile`] freezes them for a
//! `Session` to run.
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
//! - [`EngineMode::Reference`] (`reference.rs`) — the original engine:
//!   after every event batch it rescans all kernels and all SMs, and every
//!   block micro-op is a separate heap event. Kept as the executable
//!   specification and the perf baseline for `BENCH_*.json`.
//! - [`EngineMode::Optimized`] (`optimized.rs`) — the O(1)-amortized hot
//!   paths: an incrementally maintained ready-queue of issuable kernels, a
//!   per-SM free-capacity index and an event queue of packed keys
//!   (`queue.rs`), coalesced runs of non-synchronizing ops, and dense
//!   per-semaphore wait-lists.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::fmt;

use crate::config::{GpuConfig, SM_CAPACITY_UNITS};
use crate::dim::Dim3;
use crate::kernel::{BlockCtx, Step};
use crate::mem::GlobalMemory;
use crate::ops::Op;
use crate::programs::Programs;
use crate::sched::SchedPolicy;
use crate::sem::{SemArrayId, SemTable, WaitLists};
use crate::stats::{waves, EngineCounters, KernelReport, MemoCount, RunReport};
use crate::time::SimTime;
use crate::trace::{KernelId, TraceEvent};

mod gpu;
mod optimized;
mod outcome;
mod queue;
mod reference;

pub(crate) use gpu::PipelineDesc;
pub use gpu::{Gpu, LaunchGate, StreamId};
pub use outcome::{
    BlockedBlock, BuildError, BuildErrorKind, DeadlockReport, LinkScale, PendingKernel, SimError,
    SmOccupancy,
};
use queue::{EventQueue, SmIndex};
use reference::Event;

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
    /// [`SchedPolicy::SemStarver`] may key on it.
    pub(crate) parked: u64,
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
/// [`RunState::reset`] and initial memory/semaphores), in `mode`, with
/// every [`Op::LinkSend`] wire time scaled by `link_scale`. `progs` must
/// hold the pipeline's pre-driven programs for an [`EngineMode::Optimized`]
/// run; the reference engine ignores it (pass an empty [`Programs`]).
/// `sched` is the block-issue order. The [`Session`](crate::Session) is
/// the only caller.
pub(crate) fn execute_with(
    desc: &PipelineDesc,
    progs: &Programs,
    mode: EngineMode,
    sched: SchedPolicy,
    st: &mut RunState,
    link_scale: Option<LinkScale>,
) -> Result<RunReport, SimError> {
    let mut ex = Exec {
        desc,
        progs,
        mode,
        sched,
        link_scale: link_scale.filter(|s| !s.is_identity()),
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
    /// Block-issue order of this run.
    sched: SchedPolicy,
    /// Non-identity link degradation scale applied to `LinkSend` wire
    /// time, or `None` for a healthy link.
    link_scale: Option<LinkScale>,
    st: &'a mut RunState,
}

impl Exec<'_> {
    fn run_all(&mut self) -> Result<RunReport, SimError> {
        for s in 0..self.desc.streams.len() {
            self.schedule_stream_head(s);
        }
        match self.mode {
            EngineMode::Reference => self.run_reference_loop(),
            EngineMode::Optimized => self.run_optimized_loop(),
        }
        #[cfg(debug_assertions)]
        {
            // Completed and deadlocked runs alike: every pushed
            // event was either handled exactly once or is still queued.
            let queued = match self.mode {
                EngineMode::Reference => self.st.events.len(),
                EngineMode::Optimized => self.st.fast_events.len(),
            };
            assert_eq!(
                self.st.pushes - queued as u64,
                self.st.counters.events(),
                "handled events do not match pushes minus still-queued events"
            );
        }
        if self.st.trace_enabled {
            // Canonicalize in every exit path so the trace is readable
            // even after a deadlock.
            self.st.finalize_trace();
        }
        let incomplete: Vec<usize> = (0..self.desc.kernels.len())
            .filter(|&k| self.st.kernels[k].completed < self.desc.kernels[k].total)
            .collect();
        if incomplete.is_empty() {
            return Ok(self.report());
        }
        Err(self.deadlock_error(&incomplete))
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
            sim_events: self.st.counters.events(),
            counters: self.counters(),
        }
    }
}

#[cfg(test)]
mod tests;
