//! Stage declarations ([`CuStage`]) and their bound runtime form
//! ([`StageRuntime`]) used by instrumented kernels.

use std::fmt;
use std::sync::Arc;

use cusync_sim::{BufferId, Dim3, Op, SemArrayId};

use crate::mechanism::SyncMechanism;
use crate::opt::OptFlags;
use crate::order::{OrderRef, RowMajor, TileSchedule};
use crate::policy::{PolicyRef, SyncPolicy, TileSync};

/// Identifier of a stage within a [`SyncGraph`](crate::SyncGraph).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StageId(pub(crate) usize);

impl fmt::Display for StageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stage{}", self.0)
    }
}

/// Declaration of one synchronized kernel: its tile grid, synchronization
/// policy, tile processing order and optimization flags — the
/// `CuStage<Order, Policy>` of Fig. 4a.
///
/// # Examples
///
/// ```
/// use cusync::{CuStage, OptFlags, RowSync};
/// use cusync_sim::Dim3;
///
/// let stage = CuStage::new("gemm1", Dim3::new(24, 2, 1))
///     .policy(RowSync)
///     .opts(OptFlags::WRT);
/// assert_eq!(stage.name(), "gemm1");
/// ```
#[derive(Debug, Clone)]
pub struct CuStage {
    name: String,
    grid: Dim3,
    policy: PolicyRef,
    order: OrderRef,
    opts: OptFlags,
    device: u32,
}

impl CuStage {
    /// Creates a stage with the default [`TileSync`] policy, [`RowMajor`]
    /// order, no optimizations, placed on device 0.
    pub fn new(name: &str, grid: Dim3) -> Self {
        CuStage {
            name: name.to_owned(),
            grid,
            policy: Arc::new(TileSync),
            order: Arc::new(RowMajor),
            opts: OptFlags::NONE,
            device: 0,
        }
    }

    /// Places the stage on `device` of a multi-GPU node:
    /// [`SyncGraph::bind`](crate::SyncGraph::bind) creates its stream on
    /// that device and homes its semaphores (tile, start, order counter)
    /// in that device's memory, so dependencies whose producer and
    /// consumer live on different devices synchronize across the
    /// interconnect (the consumer's polls pay the link latency).
    pub fn on_device(mut self, device: u32) -> Self {
        self.device = device;
        self
    }

    /// Sets the synchronization policy.
    pub fn policy(mut self, policy: impl crate::SyncPolicy + 'static) -> Self {
        self.policy = Arc::new(policy);
        self
    }

    /// Sets the synchronization policy from a shared handle.
    pub fn policy_ref(mut self, policy: PolicyRef) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the tile processing order.
    pub fn order(mut self, order: impl crate::TileOrder + 'static) -> Self {
        self.order = Arc::new(order);
        self
    }

    /// Sets the optimization flags.
    pub fn opts(mut self, opts: OptFlags) -> Self {
        self.opts = opts;
        self
    }

    /// Stage name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Tile grid (equals the kernel grid: one tile per thread block).
    pub fn grid(&self) -> Dim3 {
        self.grid
    }

    /// The configured policy.
    pub fn policy_handle(&self) -> &PolicyRef {
        &self.policy
    }

    /// The configured order.
    pub fn order_handle(&self) -> &OrderRef {
        &self.order
    }

    /// The configured optimization flags.
    pub fn opt_flags(&self) -> OptFlags {
        self.opts
    }

    /// The device this stage is placed on (0 unless
    /// [`CuStage::on_device`] was called).
    pub fn placed_device(&self) -> u32 {
        self.device
    }
}

/// A stage bound to a GPU: semaphores allocated, tile schedule built,
/// producer links resolved. Instrumented kernels hold an
/// `Arc<StageRuntime>` and call these methods to obtain the synchronization
/// [`Op`]s to issue — the `stage.start() / stage.tile() / stage.wait() /
/// stage.post()` calls of Fig. 4a.
pub struct StageRuntime {
    pub(crate) name: String,
    pub(crate) grid: Dim3,
    /// Device the stage's stream and semaphores live on.
    pub(crate) device: u32,
    pub(crate) policy: PolicyRef,
    pub(crate) opts: OptFlags,
    /// Tile-status semaphores; `None` when the policy needs none.
    pub(crate) sems: Option<SemArrayId>,
    /// One-element semaphore posted by the first thread block
    /// (Section III-B wait-kernel handshake).
    pub(crate) start_sem: SemArrayId,
    /// Atomic counter for the custom tile order; `None` when the order is
    /// the identity or the `T` optimization disabled it.
    pub(crate) counter: Option<SemArrayId>,
    /// One-element grid semaphore, allocated when this stage has at least
    /// one outgoing PDL edge; posted when the stage's final block
    /// completes (registered by [`BoundGraph`](crate::BoundGraph) at
    /// launch).
    pub(crate) grid_sem: Option<SemArrayId>,
    pub(crate) schedule: Option<TileSchedule>,
    /// Buffer-level dependencies: reading `BufferId` requires waiting on
    /// the linked producer stage, via the edge's mechanism (`None` =
    /// whatever the producer's policy dictates).
    pub(crate) producers: Vec<(BufferId, Arc<StageRuntime>, Option<SyncMechanism>)>,
}

impl fmt::Debug for StageRuntime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StageRuntime")
            .field("name", &self.name)
            .field("grid", &self.grid)
            .field("policy", &self.policy.name())
            .field("opts", &self.opts)
            .field("custom_order", &self.counter.is_some())
            .field("producers", &self.producers.len())
            .finish()
    }
}

impl StageRuntime {
    /// Stage name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Tile grid of this stage.
    pub fn grid(&self) -> Dim3 {
        self.grid
    }

    /// Device the stage's stream and semaphores live on.
    pub fn device(&self) -> u32 {
        self.device
    }

    /// Optimization flags in effect.
    pub fn opts(&self) -> OptFlags {
        self.opts
    }

    /// Policy name, for reports.
    pub fn policy_name(&self) -> String {
        self.policy.name()
    }

    /// `stage.start()`: the op posted by the *first* thread block to
    /// release any consumer wait-kernels, or `None` for other blocks.
    pub fn start_op(&self, block: Dim3) -> Option<Op> {
        (block == Dim3::new(0, 0, 0)).then_some(Op::SemPost {
            table: self.start_sem,
            index: 0,
            inc: 1,
        })
    }

    /// `stage.tile()` part 1: if a custom tile order is active, the atomic
    /// counter to fetch-add (the kernel then passes the previous value to
    /// [`StageRuntime::tile_at`]); `None` means the block computes its own
    /// grid index (hardware order).
    pub fn tile_counter(&self) -> Option<SemArrayId> {
        self.counter
    }

    /// `stage.tile()` part 2: the tile at processing position `position`.
    ///
    /// # Panics
    ///
    /// Panics if no custom order is active or `position` is out of range.
    pub fn tile_at(&self, position: u32) -> Dim3 {
        self.schedule
            .as_ref()
            .expect("tile_at requires a custom tile order")
            .tile_at(position as u64)
    }

    /// `stage.wait(buffer, ...)`: the semaphore wait required before
    /// reading `requested` of `buffer`, or `None` when the buffer is not a
    /// declared dependency (the wait is a no-op, Fig. 4a) **or** the edge
    /// uses a coarse mechanism (PDL / stream-serial edges pay no per-tile
    /// waits; see [`StageRuntime::grid_wait_ops`]).
    pub fn wait_op(&self, buffer: BufferId, requested: Dim3) -> Option<Op> {
        self.wait_target(buffer).map(|target| target.op(requested))
    }

    /// `stage.wait(buffer, ..)` resolved once per buffer: the producer
    /// semaphores and policy every per-tile wait on `buffer` consults, or
    /// `None` exactly when [`StageRuntime::wait_op`] would be `None` for
    /// every requested tile. Kernels emitting many waits on one buffer
    /// resolve it once instead of searching the producer list per tile.
    pub fn wait_target(&self, buffer: BufferId) -> Option<WaitTarget<'_>> {
        let (_, producer, mechanism) = self.producers.iter().find(|(b, _, _)| *b == buffer)?;
        if mechanism.is_some_and(|m| !m.is_fine()) {
            return None;
        }
        Some(WaitTarget {
            table: producer.sems?,
            policy: producer.policy.as_ref(),
            grid: producer.grid,
        })
    }

    /// The grid-dependency barrier ending this stage's preamble — the
    /// simulator's `cudaGridDependencySynchronize()`: one wait on each
    /// distinct PDL producer's grid semaphore. Instrumented kernels issue
    /// these once per block, after launch-setup work (start post, tile
    /// acquisition, independent-operand prefetch) and before the first
    /// read of any PDL-synchronized buffer. Empty for stages without PDL
    /// producers.
    pub fn grid_wait_ops(&self) -> Vec<Op> {
        let mut out: Vec<Op> = Vec::new();
        let mut seen: Vec<*const StageRuntime> = Vec::new();
        for (_, producer, mechanism) in &self.producers {
            if *mechanism != Some(SyncMechanism::Pdl) {
                continue;
            }
            let ptr = Arc::as_ptr(producer);
            if seen.contains(&ptr) {
                continue;
            }
            seen.push(ptr);
            let table = producer
                .grid_sem
                .expect("PDL producer bound without grid semaphore");
            out.push(Op::SemWait {
                table,
                index: 0,
                value: 1,
            });
        }
        out
    }

    /// `stage.post(tile)`: the fence + post op pair signalling `tile`
    /// complete, or `None` when the policy allocates no semaphores.
    pub fn post_ops(&self, tile: Dim3) -> Option<[Op; 2]> {
        let table = self.sems?;
        let index = self.policy.post_sem(tile, self.grid);
        Some([
            Op::Fence,
            Op::SemPost {
                table,
                index,
                inc: 1,
            },
        ])
    }

    /// Whether the kernel should reorder independent tile loads before
    /// dependent ones (the `R` optimization).
    pub fn reorder_loads(&self) -> bool {
        self.opts.reorder_loads
    }

    /// Distinct producer stages reached over *fine-grained* edges (the
    /// edges a wait-kernel must guard; coarse PDL / stream-serial edges
    /// are enforced by launch gates instead).
    pub fn fine_producer_stages(&self) -> Vec<Arc<StageRuntime>> {
        let mut out: Vec<Arc<StageRuntime>> = Vec::new();
        for (_, p, m) in &self.producers {
            if m.is_some_and(|m| !m.is_fine()) {
                continue;
            }
            if !out.iter().any(|q| Arc::ptr_eq(q, p)) {
                out.push(Arc::clone(p));
            }
        }
        out
    }

    /// True when this stage has at least one declared producer.
    pub fn has_producers(&self) -> bool {
        !self.producers.is_empty()
    }

    /// True when at least one producer edge is fine-grained (and thus
    /// needs the Section III-B wait-kernel handshake).
    pub fn has_fine_producers(&self) -> bool {
        self.producers
            .iter()
            .any(|(_, _, m)| !m.is_some_and(|m| !m.is_fine()))
    }

    /// The one-element grid semaphore posted when this stage's final block
    /// completes; `Some` only for stages with outgoing PDL edges.
    pub fn grid_sem(&self) -> Option<SemArrayId> {
        self.grid_sem
    }

    /// The start semaphore other stages' wait-kernels poll.
    pub fn start_sem(&self) -> SemArrayId {
        self.start_sem
    }

    /// The tile-status semaphore array, if any.
    pub fn sem_array(&self) -> Option<SemArrayId> {
        self.sems
    }
}

/// A resolved per-buffer wait (see [`StageRuntime::wait_target`]).
#[derive(Debug, Clone, Copy)]
pub struct WaitTarget<'a> {
    table: SemArrayId,
    policy: &'a dyn SyncPolicy,
    grid: Dim3,
}

impl WaitTarget<'_> {
    /// The semaphore wait required before reading the producer tile
    /// `requested`.
    #[inline]
    pub fn op(&self, requested: Dim3) -> Op {
        let (index, value) = self.policy.wait_on(requested, self.grid);
        Op::SemWait {
            table: self.table,
            index,
            value,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{NoSync, RowSync};

    fn runtime(grid: Dim3, policy: PolicyRef) -> StageRuntime {
        StageRuntime {
            name: "test".into(),
            grid,
            device: 0,
            policy,
            opts: OptFlags::NONE,
            sems: None,
            start_sem: dummy_sem(),
            counter: None,
            grid_sem: None,
            schedule: None,
            producers: Vec::new(),
        }
    }

    fn dummy_sem() -> SemArrayId {
        // Allocate through a real table so the id is well-formed.
        let mut t = cusync_sim::SemTable::new();
        t.alloc("d", 1, 0)
    }

    #[test]
    fn start_op_only_for_first_block() {
        let rt = runtime(Dim3::new(4, 4, 1), Arc::new(RowSync));
        assert!(rt.start_op(Dim3::new(0, 0, 0)).is_some());
        assert!(rt.start_op(Dim3::new(1, 0, 0)).is_none());
        assert!(rt.start_op(Dim3::new(0, 1, 0)).is_none());
    }

    #[test]
    fn wait_is_noop_for_undeclared_buffers() {
        let rt = runtime(Dim3::new(4, 4, 1), Arc::new(RowSync));
        let mut mem = cusync_sim::GlobalMemory::new();
        let buf = mem.alloc("w", 16, cusync_sim::DType::F16);
        assert!(rt.wait_op(buf, Dim3::new(0, 0, 0)).is_none());
        assert!(rt.wait_target(buf).is_none());
    }

    #[test]
    fn post_is_noop_without_semaphores() {
        let rt = runtime(Dim3::new(4, 4, 1), Arc::new(NoSync));
        assert!(rt.post_ops(Dim3::new(0, 0, 0)).is_none());
    }

    #[test]
    fn stage_builder_configures_fields() {
        let s = CuStage::new("s", Dim3::new(2, 2, 1))
            .policy(RowSync)
            .order(crate::order::ColumnMajor)
            .opts(OptFlags::WR);
        assert_eq!(s.grid(), Dim3::new(2, 2, 1));
        assert_eq!(s.policy_handle().name(), "RowSync");
        assert_eq!(s.order_handle().name(), "ColumnMajor");
        assert_eq!(s.opt_flags(), OptFlags::WR);
    }
}
