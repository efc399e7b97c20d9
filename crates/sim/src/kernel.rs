//! The kernel interface: how computations describe their thread blocks to
//! the engine.

use std::fmt;

use crate::dim::Dim3;
use crate::mem::GlobalMemory;
use crate::ops::Op;
use crate::sem::SemTable;
use crate::time::SimTime;

/// What a thread block does next.
#[derive(Debug)]
pub enum Step {
    /// Execute `Op`, then resume the body when it completes.
    Op(Op),
    /// The block has finished; its SM slot is released.
    Done,
}

/// Execution context handed to a [`BlockBody`] on every resume.
///
/// Provides the block's identity, the current simulated time, functional
/// access to global memory, read access to semaphores, and the result of the
/// most recent [`Op::AtomicAdd`].
pub struct BlockCtx<'a> {
    /// This block's index within the kernel grid.
    pub block: Dim3,
    /// Current simulated time (completion time of the previous op).
    pub now: SimTime,
    /// Functional view of global memory. Reads of poisoned elements are
    /// logged as races; see [`GlobalMemory`].
    pub mem: &'a mut GlobalMemory,
    /// Read-only view of semaphore values (the engine applies posts).
    pub sems: &'a SemTable,
    /// Previous value returned by the latest [`Op::AtomicAdd`] issued by
    /// this block, or `None` before the first one completes.
    pub atomic_result: Option<u32>,
}

impl fmt::Debug for BlockCtx<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BlockCtx")
            .field("block", &self.block)
            .field("now", &self.now)
            .field("atomic_result", &self.atomic_result)
            .finish_non_exhaustive()
    }
}

/// A resumable thread-block program.
///
/// The engine drives the body as a coroutine: each call to [`resume`] runs
/// the block "until its next timed operation" and returns that operation (or
/// [`Step::Done`]). Functional effects performed inside `resume` — reads and
/// writes through [`BlockCtx::mem`] — take place at `ctx.now`, i.e. after
/// the previously returned op completed.
///
/// **Effect-ordering contract:** a body must perform the functional write of
/// a tile in the `resume` call *after* it returned the corresponding
/// [`Op::GlobalWrite`], and must issue any [`Op::SemPost`] for that tile
/// later still. This guarantees that a correctly synchronized consumer can
/// never observe the gap between timing and effect.
///
/// [`resume`]: BlockBody::resume
pub trait BlockBody: Send {
    /// Advances the block to its next timed operation.
    fn resume(&mut self, ctx: &mut BlockCtx<'_>) -> Step;
}

/// A kernel that can be launched on the simulated GPU.
///
/// Implementations describe their launch geometry and construct a
/// [`BlockBody`] for each thread block on demand (blocks are materialized
/// lazily, when the scheduler issues them onto an SM). Kernels whose
/// blocks ignore their context may also emit every block's op program up
/// front ([`KernelSource::static_programs`]).
pub trait KernelSource: Send + Sync {
    /// Kernel name, for traces and reports.
    fn name(&self) -> &str;

    /// Grid dimensions (number of thread blocks per dimension).
    fn grid(&self) -> Dim3;

    /// Occupancy: resident thread blocks per SM. Determined on real
    /// hardware by register/shared-memory usage (Section II-A); here it is
    /// part of the kernel's cost-model contract.
    fn occupancy(&self) -> u32;

    /// Creates the program of thread block `block`.
    fn block(&self, block: Dim3) -> Box<dyn BlockBody>;

    /// Writes the op program of **every** block of the grid, in one call,
    /// when this kernel's blocks are context-independent under `mem`: no
    /// resume would read [`BlockCtx::now`] or [`BlockCtx::atomic_result`],
    /// perform a functional memory access, or otherwise vary its ops with
    /// the context it is handed.
    ///
    /// The contract:
    ///
    /// - If any block is context-dependent (typically a functional output
    ///   buffer, or an atomic tile-order counter), return `false` without
    ///   calling `sink`.
    /// - Otherwise call `sink(ops, same)` exactly `grid().count()` times,
    ///   in linear block order ([`Dim3::delinear`]), each time with that
    ///   block's full op stream `ops` — exactly what driving
    ///   [`KernelSource::block`] to [`Step::Done`] yields — and return
    ///   `true`. `same` is a count of leading ops of `ops` known equal to
    ///   those of the previous call's stream (at most its length); `0`
    ///   always holds, and the first call must pass it.
    ///
    /// The optimized engine stores the emitted streams once per compiled
    /// pipeline ([`Programs`](crate::Programs)) and replays each block
    /// through a cursor as its events fire, constructing no [`BlockBody`]
    /// at all; the reference engine never calls this. Timing is
    /// identical: each op is still priced at its own start time. Emitters
    /// see the whole grid, so they can hoist work every block shares
    /// (pricing, wait lists) out of the per-block loop; `same` passes that
    /// sharing on, so the engine copies those ops' ids instead of looking
    /// each op up again.
    ///
    /// The default returns `false`: blocks are resumed lazily, the
    /// reference behaviour. Returning `true` for a context-dependent
    /// kernel changes simulated results.
    fn static_programs(&self, mem: &GlobalMemory, sink: &mut dyn FnMut(&[Op], usize)) -> bool {
        let _ = (mem, sink);
        false
    }
}

/// A trivial kernel whose blocks each execute a fixed list of ops, useful
/// for tests and microbenchmarks.
///
/// # Examples
///
/// ```
/// use cusync_sim::{FixedKernel, KernelSource, Dim3, Op};
///
/// let k = FixedKernel::new("noop", Dim3::linear(4), 1, vec![Op::compute(100)]);
/// assert_eq!(k.grid().count(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct FixedKernel {
    name: String,
    grid: Dim3,
    occupancy: u32,
    ops: Vec<Op>,
}

impl FixedKernel {
    /// Creates a kernel whose every block runs `ops` in order.
    pub fn new(name: &str, grid: Dim3, occupancy: u32, ops: Vec<Op>) -> Self {
        FixedKernel {
            name: name.to_owned(),
            grid,
            occupancy,
            ops,
        }
    }
}

impl KernelSource for FixedKernel {
    fn name(&self) -> &str {
        &self.name
    }

    fn grid(&self) -> Dim3 {
        self.grid
    }

    fn occupancy(&self) -> u32 {
        self.occupancy
    }

    fn block(&self, _block: Dim3) -> Box<dyn BlockBody> {
        Box::new(FixedBody {
            ops: self.ops.clone(),
            next: 0,
        })
    }

    fn static_programs(&self, _mem: &GlobalMemory, sink: &mut dyn FnMut(&[Op], usize)) -> bool {
        // `FixedBody` never touches its context, and every block repeats
        // the first one's ops.
        for linear in 0..self.grid.count() {
            sink(&self.ops, if linear == 0 { 0 } else { self.ops.len() });
        }
        true
    }
}

#[derive(Debug)]
struct FixedBody {
    ops: Vec<Op>,
    next: usize,
}

impl BlockBody for FixedBody {
    fn resume(&mut self, _ctx: &mut BlockCtx<'_>) -> Step {
        match self.ops.get(self.next) {
            Some(&op) => {
                self.next += 1;
                Step::Op(op)
            }
            None => Step::Done,
        }
    }
}

/// A kernel whose every block runs its *own* fixed op list, materialized
/// once at construction from a closure over the block index.
///
/// This is the per-block generalization of [`FixedKernel`]: because the op
/// lists are fixed data (no body ever reads its [`BlockCtx`]), the kernel
/// emits them as [`KernelSource::static_programs`] and the optimized engine
/// never drives a body for it. Used for workloads where blocks differ only in *which* tiles or
/// semaphores they touch — e.g. a tensor-parallel GEMM whose tile (x, y)
/// waits on the allreduce chunk covering its rows.
///
/// # Examples
///
/// ```
/// use cusync_sim::{Dim3, IndexedKernel, KernelSource, Op};
///
/// let k = IndexedKernel::new("ramp", Dim3::linear(3), 1, |idx| {
///     vec![Op::compute(1000 * (idx.x as u64 + 1))]
/// });
/// assert_eq!(k.grid().count(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct IndexedKernel {
    name: String,
    grid: Dim3,
    occupancy: u32,
    /// Per-block op lists in the grid's row-major linear order.
    ops: Vec<Vec<Op>>,
}

impl IndexedKernel {
    /// Creates a kernel whose block `idx` runs `ops_of(idx)`, evaluated
    /// eagerly for every block of `grid`.
    pub fn new(
        name: &str,
        grid: Dim3,
        occupancy: u32,
        mut ops_of: impl FnMut(Dim3) -> Vec<Op>,
    ) -> Self {
        let ops = (0..grid.count())
            .map(|linear| ops_of(grid.delinear(linear)))
            .collect();
        IndexedKernel {
            name: name.to_owned(),
            grid,
            occupancy,
            ops,
        }
    }
}

impl KernelSource for IndexedKernel {
    fn name(&self) -> &str {
        &self.name
    }

    fn grid(&self) -> Dim3 {
        self.grid
    }

    fn occupancy(&self) -> u32 {
        self.occupancy
    }

    fn block(&self, block: Dim3) -> Box<dyn BlockBody> {
        let linear = self.grid.linear_of(block) as usize;
        Box::new(FixedBody {
            ops: self.ops[linear].clone(),
            next: 0,
        })
    }

    fn static_programs(&self, _mem: &GlobalMemory, sink: &mut dyn FnMut(&[Op], usize)) -> bool {
        // Op lists are fixed data; bodies never read their context.
        for ops in &self.ops {
            sink(ops, 0);
        }
        true
    }
}

/// A kernel built from a closure, for ad-hoc kernels in tests.
pub struct FnKernel<F> {
    name: String,
    grid: Dim3,
    occupancy: u32,
    make: F,
}

impl<F> FnKernel<F>
where
    F: Fn(Dim3) -> Box<dyn BlockBody> + Send + Sync,
{
    /// Creates a kernel whose block bodies are produced by `make`.
    pub fn new(name: &str, grid: Dim3, occupancy: u32, make: F) -> Self {
        FnKernel {
            name: name.to_owned(),
            grid,
            occupancy,
            make,
        }
    }
}

impl<F> fmt::Debug for FnKernel<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FnKernel")
            .field("name", &self.name)
            .field("grid", &self.grid)
            .field("occupancy", &self.occupancy)
            .finish_non_exhaustive()
    }
}

impl<F> KernelSource for FnKernel<F>
where
    F: Fn(Dim3) -> Box<dyn BlockBody> + Send + Sync,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn grid(&self) -> Dim3 {
        self.grid
    }

    fn occupancy(&self) -> u32 {
        self.occupancy
    }

    fn block(&self, block: Dim3) -> Box<dyn BlockBody> {
        (self.make)(block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_kernel_replays_ops_then_finishes() {
        let k = FixedKernel::new("k", Dim3::linear(1), 2, vec![Op::compute(5), Op::read(64)]);
        let mut body = k.block(Dim3::default());
        let mut mem = GlobalMemory::new();
        let sems = SemTable::new();
        let mut ctx = BlockCtx {
            block: Dim3::default(),
            now: SimTime::ZERO,
            mem: &mut mem,
            sems: &sems,
            atomic_result: None,
        };
        assert!(matches!(
            body.resume(&mut ctx),
            Step::Op(Op::Compute { cycles: 5 })
        ));
        assert!(matches!(
            body.resume(&mut ctx),
            Step::Op(Op::GlobalRead { bytes: 64 })
        ));
        assert!(matches!(body.resume(&mut ctx), Step::Done));
    }

    #[test]
    fn fn_kernel_builds_per_block_bodies() {
        let k = FnKernel::new("f", Dim3::linear(2), 1, |block| {
            Box::new(FixedBody {
                ops: vec![Op::compute(block.x as u64 + 1)],
                next: 0,
            }) as Box<dyn BlockBody>
        });
        let mut mem = GlobalMemory::new();
        let sems = SemTable::new();
        let mut ctx = BlockCtx {
            block: Dim3::new(1, 0, 0),
            now: SimTime::ZERO,
            mem: &mut mem,
            sems: &sems,
            atomic_result: None,
        };
        let mut body = k.block(Dim3::new(1, 0, 0));
        assert!(matches!(
            body.resume(&mut ctx),
            Step::Op(Op::Compute { cycles: 2 })
        ));
    }
}
