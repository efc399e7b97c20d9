//! Device-sharded conservative parallel execution of the optimized event
//! loop (the [`ExecMode::Parallel`](super::ExecMode) engine).
//!
//! # Scheme
//!
//! Each device runs its own [`Exec`] over its own [`RunState`] shard: its
//! event heap, SM index, kernel progress and a full copy of the semaphore
//! table. Shards advance in lockstep *windows*: every window, the earliest
//! pending event time `m` across all shards is found, and each shard
//! drains its heap up to the exclusive horizon `m + lookahead`, where the
//! lookahead is the cluster's link latency. Cross-device semaphore effects
//! (posts and atomics against an array homed on another device) are not
//! applied locally; they are diverted into the shard's outbox
//! ([`Exec::divert_remote`]) and delivered at the window barrier, sorted
//! by `(apply time, source device, source ordinal)` for a deterministic
//! heap order at the destination.
//!
//! # Why bit-identity holds
//!
//! - **Deliveries cannot land in the past.** A remote effect produced at
//!   local time `u < horizon = m + link_latency` applies at
//!   `u + atomic + link_latency >= horizon`, so every delivery is at or
//!   past every shard's window end — the conservative-lookahead invariant.
//! - **Device-local state is device-private.** Eligible pipelines
//!   ([`shardable`]) are fully pre-driven, so blocks are effect-free op
//!   programs: no global-memory traffic, no dynamic bodies. The only
//!   cross-device edges are semaphore posts/atomics, which cross the
//!   window barrier as messages. Everything a shard prices (its
//!   `sm_active`, `active_units`, jitter hashes) is a function of its own
//!   event sequence.
//! - **Waits are home-local.** [`shardable`] requires every `SemWait` to
//!   target an array homed on the waiting kernel's own device, so a post's
//!   waiter wake-ups never leave the shard that applies it.
//! - **Per-batch ambiguity is detected, not guessed.** Within one shard
//!   timestamp batch, a delivered message's sequence number differs from
//!   the serial engine's; if a batch mixes deliveries with local events
//!   (or applies two same-instant remote posts, whose wake ordering the
//!   serial sequence would fix), the shard flags the run ambiguous and
//!   [`execute_sharded`] abandons the attempt — the caller re-runs
//!   serially, which is always correct. Pure same-instant remote atomics
//!   commute (monotone adds, no wakes), so they proceed.
//! - **Coalescing is horizon-capped.** [`Exec::can_extend_run`] refuses
//!   to price a coalesced op run past the window end, where a delivery
//!   could change occupancy state mid-run. Breaking a run early only
//!   converges toward the reference one-op-per-event behaviour.
//!
//! Event *times* are therefore reproduced exactly; only the private event
//! counter (`RunReport::sim_events`) may differ, because shards coalesce
//! and count independently.

use super::{
    execute_with, EngineMode, EventKind, Exec, PipelineDesc, Programs, RunOptions, RunOutcome,
    RunState,
};
use crate::ops::Op;
use crate::sched::SchedPolicy;
use crate::sem::{SemArrayId, SemTable};
use crate::stats::RunReport;
use crate::time::SimTime;

/// Per-device shard bookkeeping threaded through [`Exec::shard`].
pub(crate) struct ShardCtx {
    /// The device this shard simulates.
    pub(crate) device: u32,
    /// Cross-device effects produced this window, drained at the barrier.
    pub(crate) outbox: Vec<OutMsg>,
    /// Set when a timestamp batch mixed delivered and local events (or
    /// same-instant remote posts): the serial event sequence would have
    /// fixed an order this shard cannot reconstruct, so the whole parallel
    /// attempt is abandoned.
    pub(crate) ambiguous: bool,
    /// Per-shard counter ordering this shard's messages within one apply
    /// instant (the serial engine's push order, restricted to this shard).
    pub(crate) sent_ordinal: u64,
}

/// One cross-device semaphore effect in flight between windows.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OutMsg {
    /// Apply instant (already includes atomic + link latency).
    pub(crate) time: SimTime,
    pub(crate) table: SemArrayId,
    pub(crate) index: u32,
    pub(crate) inc: u32,
    /// `true` for a waking `SemPost`, `false` for a plain `AtomicAdd`.
    pub(crate) post: bool,
    /// Kernel that produced the effect, for the destination shard's trace
    /// (`None` never occurs today — posts come from blocks — but the
    /// option mirrors [`TraceEvent::SemPosted`]).
    pub(crate) poster: Option<usize>,
    /// Producing device, part of the deterministic delivery order.
    pub(crate) src: u32,
    /// Producer-local ordinal, the delivery-order tiebreaker.
    pub(crate) ordinal: u64,
}

/// Whether a pipeline is provably safe to shard by device:
///
/// - at least two devices joined by a non-zero-latency link (the
///   lookahead the windows are built from);
/// - every kernel pre-driven to a flat op program (effect-free blocks, no
///   global-memory or dynamic-body cross-talk);
/// - every `SemWait` in those programs targets a semaphore array homed on
///   the waiting kernel's own device (posts may cross the link; waits and
///   their wake-ups never do);
/// - no kernel carries launch gates or completion posts (PDL-style grid
///   coupling is cross-stream and instant-precise, outside the window
///   model — gated pipelines fall back to the serial engines).
///
/// The scan is linear in the total op count; callers cache the answer per
/// compiled pipeline.
pub(crate) fn shardable(desc: &PipelineDesc, progs: &Programs, sems: &SemTable) -> bool {
    if desc.cluster.devices.len() < 2 || desc.cluster.link_latency == SimTime::ZERO {
        return false;
    }
    for (k, kd) in desc.kernels.iter().enumerate() {
        if !kd.predrive {
            return false;
        }
        // Launch gates and completion posts couple kernels across streams
        // (and potentially devices) outside the windowed link-latency
        // lookahead; gated pipelines run on the serial engines.
        if !kd.gates.is_empty() || !kd.completion_posts.is_empty() {
            return false;
        }
        let base = progs.prog_base[k];
        if base == u32::MAX {
            return false;
        }
        for linear in 0..kd.total {
            let (start, len) = progs.prog_spans[(base as u64 + linear) as usize];
            let ops = &progs.block_ops[start as usize..(start + len) as usize];
            for op in ops {
                if let Op::SemWait { table, .. } = op {
                    if sems.device(*table) != kd.device {
                        return false;
                    }
                }
            }
        }
    }
    true
}

impl Exec<'_> {
    /// Seeds one device's shard with the ready events of the streams
    /// living on it — the per-device restriction of what [`Exec::run_all`]
    /// seeds globally.
    fn seed_shard(&mut self, device: u32) {
        for s in 0..self.desc.streams.len() {
            if self.desc.streams[s].device == device {
                self.schedule_stream_head(s);
            }
        }
    }

    /// Drains this shard's heap up to (exclusive) `self.window_end_ps`:
    /// the optimized loop's batch semantics, plus per-batch classification
    /// of delivered vs local events for the ambiguity flag. The batch is
    /// always finished before the flag is acted on — applying a whole
    /// batch is safe, only its *internal* order was in question, and the
    /// caller discards the run anyway.
    fn run_shard_window(&mut self) {
        while let Some(time_ps) = self.st.fast_events.peek_time() {
            if time_ps >= self.window_end_ps {
                break;
            }
            self.st.now = SimTime::from_picos(time_ps);
            let mut delivered = 0u32;
            let mut delivered_post = false;
            let mut local = 0u32;
            while self.st.fast_events.peek_time() == Some(time_ps) {
                let (_, kind) = self.st.fast_events.pop().expect("peeked event");
                match kind {
                    EventKind::RemotePost { .. } => {
                        delivered += 1;
                        delivered_post = true;
                    }
                    EventKind::RemoteAtomic { .. } => delivered += 1,
                    _ => local += 1,
                }
                self.st.events_handled += 1;
                self.handle(kind);
            }
            if delivered > 0 && (local > 0 || (delivered >= 2 && delivered_post)) {
                if let Some(shard) = self.shard.as_deref_mut() {
                    shard.ambiguous = true;
                }
            }
            if self.st.issue_dirty {
                self.try_issue_optimized();
                self.st.issue_dirty = false;
            }
        }
    }
}

/// Builds the per-window `Exec` of one shard and runs it to the horizon.
fn run_window(
    desc: &PipelineDesc,
    progs: &Programs,
    sched: &dyn SchedPolicy,
    opts: RunOptions,
    sst: &mut RunState,
    shard: &mut ShardCtx,
    horizon_ps: u64,
) {
    let mut ex = Exec {
        desc,
        progs,
        mode: EngineMode::Optimized,
        sched,
        launch_order: sched.is_launch_order(),
        abort_at: None,
        link_scale: opts.link_scale.filter(|s| !s.is_identity()),
        abort_flag: false,
        shard: Some(shard),
        window_end_ps: horizon_ps,
        st: sst,
    };
    ex.run_shard_window();
}

/// Pushes one delivered cross-device effect into the destination shard's
/// heap (the optimized `push_event`, minus an `Exec` to borrow).
fn deliver(sst: &mut RunState, msg: &OutMsg) {
    let kind = if msg.post {
        EventKind::RemotePost {
            table: msg.table,
            index: msg.index,
            inc: msg.inc,
            poster: msg.poster,
        }
    } else {
        EventKind::RemoteAtomic {
            table: msg.table,
            index: msg.index,
            inc: msg.inc,
        }
    };
    sst.fast_events.push(msg.time, kind);
}

/// Runs `desc` sharded by device, with up to `threads` shards advancing
/// concurrently per window (1 runs the shards sequentially — same result,
/// used when the host has no parallelism to offer).
///
/// `st` must be prepared exactly as for [`execute_with`]: reset, with
/// pristine memory and semaphores. On success the merged result state is
/// written back into `st` and the report returned. Returns `None` —
/// with `st` still pristine, so the caller can fall straight through to
/// the serial engine — when a timestamp-batch ambiguity was detected or
/// the pipeline stalled (the serial rerun then produces the canonical
/// deadlock report). `pool` holds the per-device shard states and is
/// reused across calls.
pub(crate) fn execute_sharded(
    desc: &PipelineDesc,
    progs: &Programs,
    sched: &dyn SchedPolicy,
    st: &mut RunState,
    opts: RunOptions,
    threads: usize,
    pool: &mut Vec<RunState>,
) -> Option<RunReport> {
    debug_assert!(opts.abort_at.is_none(), "abort horizons run serially");
    let ndev = desc.cluster.devices.len();
    let lookahead = desc.cluster.link_latency.as_picos();
    pool.resize_with(ndev, RunState::new);
    let mut shards: Vec<ShardCtx> = (0..ndev)
        .map(|d| ShardCtx {
            device: d as u32,
            outbox: Vec::new(),
            ambiguous: false,
            sent_ordinal: 0,
        })
        .collect();
    for (d, (sst, shard)) in pool.iter_mut().zip(shards.iter_mut()).enumerate() {
        sst.reset(desc);
        sst.sems.reset_from(&st.sems);
        // Shards record into their own device-tagged buffers; the
        // writeback below hands them to `st` for the canonical
        // `(time, device)` merge — same order a serial traced run builds.
        sst.trace_enabled = st.trace_enabled;
        let mut ex = Exec {
            desc,
            progs,
            mode: EngineMode::Optimized,
            sched,
            launch_order: sched.is_launch_order(),
            abort_at: None,
            link_scale: opts.link_scale.filter(|s| !s.is_identity()),
            abort_flag: false,
            shard: Some(shard),
            window_end_ps: u64::MAX,
            st: sst,
        };
        ex.seed_shard(d as u32);
    }
    let mut msgs: Vec<OutMsg> = Vec::new();
    loop {
        let mut min_next: Option<u64> = None;
        for sst in pool.iter() {
            if let Some(t) = sst.fast_events.peek_time() {
                min_next = Some(min_next.map_or(t, |m| m.min(t)));
            }
        }
        let Some(m) = min_next else {
            break;
        };
        let horizon = m.saturating_add(lookahead);
        let runnable = |sst: &RunState| sst.fast_events.peek_time().is_some_and(|t| t < horizon);
        if threads > 1 {
            std::thread::scope(|scope| {
                for (sst, shard) in pool.iter_mut().zip(shards.iter_mut()) {
                    if !runnable(sst) {
                        continue;
                    }
                    scope.spawn(move || run_window(desc, progs, sched, opts, sst, shard, horizon));
                }
            });
        } else {
            for (sst, shard) in pool.iter_mut().zip(shards.iter_mut()) {
                if runnable(sst) {
                    run_window(desc, progs, sched, opts, sst, shard, horizon);
                }
            }
        }
        if shards.iter().any(|s| s.ambiguous) {
            return None;
        }
        msgs.clear();
        for shard in shards.iter_mut() {
            msgs.append(&mut shard.outbox);
        }
        msgs.sort_by_key(|msg| (msg.time, msg.src, msg.ordinal));
        for msg in &msgs {
            let home = st.sems.device(msg.table) as usize;
            deliver(&mut pool[home], msg);
        }
    }
    let complete = desc
        .kernels
        .iter()
        .enumerate()
        .all(|(k, kd)| pool[kd.device as usize].kernels[k].completed == kd.total);
    if !complete {
        // Stalled (a genuine pipeline deadlock): let the serial engine
        // re-run and produce the canonical, ordering-stable report.
        return None;
    }
    for (k, kd) in desc.kernels.iter().enumerate() {
        st.kernels[k] = pool[kd.device as usize].kernels[k];
    }
    for (s, sd) in desc.streams.iter().enumerate() {
        st.stream_next[s] = pool[sd.device as usize].stream_next[s];
    }
    st.events_handled = pool.iter().map(|p| p.events_handled).sum();
    st.util_integral = pool.iter().map(|p| p.util_integral).sum();
    st.first_issue = pool.iter().filter_map(|p| p.first_issue).min();
    st.last_finish = pool
        .iter()
        .map(|p| p.last_finish)
        .max()
        .unwrap_or(SimTime::ZERO);
    st.now = pool.iter().map(|p| p.now).max().unwrap_or(SimTime::ZERO);
    for (d, sst) in pool.iter().enumerate() {
        st.sems.adopt_device_arrays(&sst.sems, d as u32);
    }
    if st.trace_enabled {
        // Each event was recorded by the shard owning it, so concatenating
        // the per-shard raw buffers (in device order) and canonicalizing
        // reproduces the serial traced run's finalized order exactly.
        for sst in pool.iter_mut() {
            st.trace_raw.append(&mut sst.trace_raw);
        }
        st.finalize_trace();
    }
    let ex = Exec {
        desc,
        progs,
        mode: EngineMode::Optimized,
        sched,
        launch_order: sched.is_launch_order(),
        abort_at: None,
        link_scale: opts.link_scale.filter(|s| !s.is_identity()),
        abort_flag: false,
        shard: None,
        window_end_ps: u64::MAX,
        st,
    };
    Some(ex.report())
}

/// Serial-or-parallel front door: tries [`execute_sharded`] when the
/// runtime gates allow it, falling back to [`execute_with`] otherwise (or
/// when the parallel attempt bailed out). The eligibility *scan*
/// ([`shardable`]) is the caller's job — it is cacheable per pipeline,
/// while the gates checked here are per-run.
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute_auto(
    desc: &PipelineDesc,
    progs: &Programs,
    mode: EngineMode,
    sched: &dyn SchedPolicy,
    st: &mut RunState,
    opts: RunOptions,
    pipeline_shardable: bool,
    threads: usize,
    pool: &mut Vec<RunState>,
) -> Result<RunOutcome, super::SimError> {
    // `threads > 1`: a one-thread budget (the default on a single-core
    // host) would run the window loop with no actual parallelism, paying
    // the horizon/merge overhead for nothing — fall through to the serial
    // engine instead, which is bit-identical by contract. Callers that
    // must exercise the sharded path regardless of the host (tests, CI)
    // request an explicit budget via `Session::set_threads`.
    let eligible = pipeline_shardable
        && mode == EngineMode::Optimized
        && opts.abort_at.is_none()
        && sched.shard_stable()
        && threads > 1;
    if eligible {
        if let Some(report) = execute_sharded(desc, progs, sched, st, opts, threads, pool) {
            return Ok(RunOutcome::Complete(report));
        }
    }
    execute_with(desc, progs, mode, sched, st, opts)
}

/// The thread budget a parallel run should use for `ndev` device shards:
/// one thread per device, capped by the host's available parallelism.
/// `override_threads` (a session's explicit setting) wins when non-zero.
pub(crate) fn thread_budget(ndev: usize, override_threads: usize) -> usize {
    let hw = if override_threads > 0 {
        override_threads
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    };
    hw.min(ndev).max(1)
}
