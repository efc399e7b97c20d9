//! The tiled GeMM kernel with cuSync instrumentation (Fig. 4a).
//!
//! Mirrors the structure of a CUTLASS GeMM: each thread block computes one
//! `tile_m x tile_n` output tile, looping over the K dimension. The cuSync
//! hook points are exactly the underlined lines of the paper's Fig. 4a:
//! `stage.start()` on entry, `stage.tile()` to draw a tile from the custom
//! processing order, `stage.wait(...)` before loading each dependent input
//! chunk, and `stage.post(...)` after the tile is written.
//!
//! The K loop is simulated at *synchronization granularity*: consecutive
//! k-steps that wait on the same producer tile are batched into one
//! read+MMA pair, which preserves every wait/post interleaving while
//! keeping the event count low.

use std::fmt;
use std::ops::RangeInclusive;
use std::sync::Arc;

use cusync::{StageRuntime, WaitTarget};
use cusync_sim::{
    BlockBody, BlockCtx, BufferId, BuildError, DType, Dim3, GlobalMemory, GpuConfig, KernelSource,
    Op, Step,
};

use crate::program::{RowPrograms, ShapeClass};
use crate::reference::{gelu, relu, swish};
use crate::timing::{fma_cycles, gemm_flops, mma_cycles, occupancy_for_tile};

/// Problem dimensions of a GeMM: `C[m,n] = A[m,k] * B[k,n]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmDims {
    /// Output rows.
    pub m: u32,
    /// Output columns.
    pub n: u32,
    /// Contraction extent.
    pub k: u32,
}

impl GemmDims {
    /// Creates problem dimensions.
    pub const fn new(m: u32, n: u32, k: u32) -> Self {
        GemmDims { m, n, k }
    }
}

/// Thread-block tile shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileShape {
    /// Tile rows.
    pub m: u32,
    /// Tile columns.
    pub n: u32,
    /// K-step of the inner loop (affects only the notional loop structure;
    /// simulation batches k-steps at synchronization granularity).
    pub k: u32,
}

impl TileShape {
    /// Creates a tile shape.
    pub const fn new(m: u32, n: u32, k: u32) -> Self {
        TileShape { m, n, k }
    }
}

/// Pointwise epilogue fused into the GeMM (Section II-B: existing
/// implementations fuse GeLU with the first MLP GeMM; convolutions fuse
/// ReLU).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Epilogue {
    /// No activation.
    #[default]
    None,
    /// GeLU (GPT-3 MLP first GeMM).
    Gelu,
    /// ReLU (convolution layers).
    Relu,
}

impl Epilogue {
    /// Applies the activation to one element.
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Epilogue::None => x,
            Epilogue::Gelu => gelu(x),
            Epilogue::Relu => relu(x),
        }
    }

    /// Approximate scalar FLOPs per element.
    pub(crate) fn flops_per_elem(self) -> u64 {
        match self {
            Epilogue::None => 0,
            Epilogue::Gelu => 12,
            Epilogue::Relu => 1,
        }
    }
}

/// Where the A operand comes from.
#[derive(Debug, Clone)]
pub enum ASource {
    /// An ordinary `[m, k]` matrix.
    Plain(BufferId),
    /// LLaMA's SwiGLU input: the producer computed the combined
    /// `[m, 2k]` matrix `X x [W1 V]`, and this GeMM reads
    /// `A[i, j] = swish(comb[i, j]) * comb[i, j + k]` — the fusion of
    /// SwiGLU with the third GeMM described in Section II-B.
    SwiGlu {
        /// Combined `[m, 2k]` buffer.
        combined: BufferId,
        /// Column offset of the value half (= `k`).
        half_cols: u32,
    },
}

impl ASource {
    /// The buffer actually read (used for dependency waits).
    pub fn buffer(&self) -> BufferId {
        match *self {
            ASource::Plain(b) => b,
            ASource::SwiGlu { combined, .. } => combined,
        }
    }
}

/// How a dependent input maps k-chunks to producer-requested tile
/// coordinates for `stage.wait`.
#[derive(Clone)]
pub enum DepPlan {
    /// Producer tile columns align with this input's k-chunks at
    /// `x = x_offset_tiles + chunk`; rows follow the consumer's rows.
    RowAligned {
        /// Producer x-tile of chunk 0.
        x_offset_tiles: u32,
    },
    /// Several strided column groups must all be ready (SwiGLU halves,
    /// attention Q/K/V slices): one request per offset.
    Strided {
        /// Producer x-tile offsets requested per chunk.
        x_offsets: Vec<u32>,
    },
    /// Fully custom mapping from `(consumer tile, chunk)` to requested
    /// producer coordinates.
    Custom(Arc<dyn Fn(Dim3, u32) -> Vec<Dim3> + Send + Sync>),
}

impl fmt::Debug for DepPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DepPlan::RowAligned { x_offset_tiles } => f
                .debug_struct("RowAligned")
                .field("x_offset_tiles", x_offset_tiles)
                .finish(),
            DepPlan::Strided { x_offsets } => f
                .debug_struct("Strided")
                .field("x_offsets", x_offsets)
                .finish(),
            DepPlan::Custom(_) => f.write_str("Custom(..)"),
        }
    }
}

/// A dependency of one GeMM input on a producer stage.
#[derive(Debug, Clone)]
pub struct InputDep {
    /// Grid of the producing kernel (for row-tile mapping).
    pub prod_grid: Dim3,
    /// Coordinate mapping.
    pub plan: DepPlan,
}

impl InputDep {
    /// Row-aligned dependency on a producer with grid `prod_grid`.
    pub fn row_aligned(prod_grid: Dim3) -> Self {
        InputDep {
            prod_grid,
            plan: DepPlan::RowAligned { x_offset_tiles: 0 },
        }
    }

    /// Producer coordinates to request for `chunk`, given the consumer's
    /// row range and tile.
    pub fn requested(&self, rows: (u32, u32), m: u32, chunk: u32, tile: Dim3) -> Vec<Dim3> {
        let mut out = Vec::new();
        self.for_each_requested(self.row_tiles(rows, m), chunk, tile, |req| out.push(req));
        out
    }

    /// [`InputDep::requested`] without the `Vec`, given the consumer
    /// rows' producer row tiles `ys` ([`InputDep::row_tiles`]; only the
    /// chunk varies along a tile's main loop): calls `f` on each
    /// requested coordinate, in the same order.
    pub(crate) fn for_each_requested(
        &self,
        ys: RangeInclusive<u32>,
        chunk: u32,
        tile: Dim3,
        mut f: impl FnMut(Dim3),
    ) {
        match &self.plan {
            DepPlan::Custom(plan) => plan(tile, chunk).into_iter().for_each(f),
            DepPlan::RowAligned { x_offset_tiles } => {
                for y in ys {
                    f(Dim3::new(x_offset_tiles + chunk, y, 0));
                }
            }
            DepPlan::Strided { x_offsets } => {
                for &off in x_offsets {
                    for y in ys.clone() {
                        f(Dim3::new(off + chunk, y, 0));
                    }
                }
            }
        }
    }

    /// Producer row tiles covering consumer rows `[rows.0, rows.1)` (a
    /// custom plan ignores them).
    pub(crate) fn row_tiles(&self, rows: (u32, u32), m: u32) -> RangeInclusive<u32> {
        let per_tile = m.div_ceil(self.prod_grid.y).max(1);
        let lo = rows.0 / per_tile;
        let hi = ((rows.1 - 1) / per_tile).min(self.prod_grid.y - 1);
        lo..=hi
    }
}

/// Builder for [`GemmKernel`].
///
/// # Examples
///
/// ```
/// use cusync_kernels::{GemmBuilder, GemmDims, TileShape};
/// use cusync_sim::{DType, Gpu, GpuConfig};
///
/// let mut gpu = Gpu::new(GpuConfig::tesla_v100());
/// let a = gpu.alloc("a", 64 * 64, DType::F16);
/// let b = gpu.alloc("b", 64 * 64, DType::F16);
/// let c = gpu.alloc("c", 64 * 64, DType::F16);
/// let gemm = GemmBuilder::new("g", GemmDims::new(64, 64, 64), TileShape::new(32, 32, 32))
///     .operands(a, b, c)
///     .build(gpu.config()).expect("operands set");
/// use cusync_sim::KernelSource;
/// assert_eq!(gemm.grid().count(), 4);
/// ```
#[derive(Debug)]
pub struct GemmBuilder {
    name: String,
    dims: GemmDims,
    tile: TileShape,
    split_k: u32,
    occupancy: Option<u32>,
    dtype: DType,
    a: Option<ASource>,
    b: Option<BufferId>,
    c: Option<BufferId>,
    epilogue: Epilogue,
    stage: Option<Arc<StageRuntime>>,
    a_dep: Option<InputDep>,
    b_dep: Option<InputDep>,
    sync_chunks: u32,
}

impl GemmBuilder {
    /// Starts building a GeMM of the given problem and tile shape.
    pub fn new(name: &str, dims: GemmDims, tile: TileShape) -> Self {
        GemmBuilder {
            name: name.to_owned(),
            dims,
            tile,
            split_k: 1,
            occupancy: None,
            dtype: DType::F16,
            a: None,
            b: None,
            c: None,
            epilogue: Epilogue::None,
            stage: None,
            a_dep: None,
            b_dep: None,
            sync_chunks: 1,
        }
    }

    /// Sets the A, B and C buffers.
    pub fn operands(mut self, a: BufferId, b: BufferId, c: BufferId) -> Self {
        self.a = Some(ASource::Plain(a));
        self.b = Some(b);
        self.c = Some(c);
        self
    }

    /// Sets a SwiGLU-combined A operand (see [`ASource::SwiGlu`]).
    pub fn swiglu_a(mut self, combined: BufferId) -> Self {
        self.a = Some(ASource::SwiGlu {
            combined,
            half_cols: self.dims.k,
        });
        self
    }

    /// Sets the B and C buffers, for use with [`GemmBuilder::swiglu_a`].
    pub fn operands_b_c(mut self, b: BufferId, c: BufferId) -> Self {
        self.b = Some(b);
        self.c = Some(c);
        self
    }

    /// Splits the K dimension over `z` thread blocks (CUTLASS split-K).
    pub fn split_k(mut self, z: u32) -> Self {
        assert!(z >= 1, "split_k must be at least 1");
        self.split_k = z;
        self
    }

    /// Overrides the occupancy heuristic.
    pub fn occupancy(mut self, occupancy: u32) -> Self {
        self.occupancy = Some(occupancy);
        self
    }

    /// Sets the fused epilogue.
    pub fn epilogue(mut self, epilogue: Epilogue) -> Self {
        self.epilogue = epilogue;
        self
    }

    /// Attaches the cuSync stage (enables start/tile/wait/post hooks).
    pub fn stage(mut self, stage: Arc<StageRuntime>) -> Self {
        self.stage = Some(stage);
        self
    }

    /// Declares the A operand dependent on a producer, waiting in
    /// `sync_chunks` k-chunks.
    pub fn a_dep(mut self, dep: InputDep, sync_chunks: u32) -> Self {
        assert!(sync_chunks >= 1, "sync_chunks must be at least 1");
        self.a_dep = Some(dep);
        self.sync_chunks = self.sync_chunks.max(sync_chunks);
        self
    }

    /// Declares the B operand dependent on a producer.
    pub fn b_dep(mut self, dep: InputDep, sync_chunks: u32) -> Self {
        assert!(sync_chunks >= 1, "sync_chunks must be at least 1");
        self.b_dep = Some(dep);
        self.sync_chunks = self.sync_chunks.max(sync_chunks);
        self
    }

    /// Sets the element type (affects byte accounting only).
    pub fn dtype(mut self, dtype: DType) -> Self {
        self.dtype = dtype;
        self
    }

    /// Finalizes the kernel.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] if the A, B or C operand was never set
    /// ([`GemmBuilder::operands`] / [`GemmBuilder::swiglu_a`] +
    /// [`GemmBuilder::operands_b_c`]), or if the problem dimensions or
    /// tile have a zero extent (which would launch an empty grid).
    pub fn build(self, gpu: &GpuConfig) -> Result<GemmKernel, BuildError> {
        let builder = || format!("GemmBuilder({})", self.name);
        if self.dims.m == 0 || self.dims.n == 0 || self.dims.k == 0 {
            return Err(BuildError::invalid(
                builder(),
                format!(
                    "GemmDims {}x{}x{} has a zero dimension",
                    self.dims.m, self.dims.n, self.dims.k
                ),
            ));
        }
        if self.tile.m == 0 || self.tile.n == 0 || self.tile.k == 0 {
            return Err(BuildError::invalid(
                builder(),
                format!(
                    "tile {}x{}x{} has a zero dimension",
                    self.tile.m, self.tile.n, self.tile.k
                ),
            ));
        }
        let a = self
            .a
            .ok_or_else(|| BuildError::missing(builder(), "A operand"))?;
        let b = self
            .b
            .ok_or_else(|| BuildError::missing(builder(), "B operand"))?;
        let c = self
            .c
            .ok_or_else(|| BuildError::missing(builder(), "C operand"))?;
        let grid = Dim3::new(
            self.dims.n.div_ceil(self.tile.n),
            self.dims.m.div_ceil(self.tile.m),
            self.split_k,
        );
        let occupancy = self
            .occupancy
            .unwrap_or_else(|| occupancy_for_tile(self.tile.m, self.tile.n));
        Ok(GemmKernel {
            name: self.name,
            grid,
            p: Arc::new(GemmParams {
                dims: self.dims,
                tile: self.tile,
                split_k: self.split_k,
                occupancy,
                dtype: self.dtype,
                a,
                b,
                c,
                epilogue: self.epilogue,
                stage: self.stage,
                a_dep: self.a_dep,
                b_dep: self.b_dep,
                sync_chunks: self.sync_chunks,
                gpu: gpu.clone(),
            }),
        })
    }
}

/// A tiled, optionally cuSync-instrumented GeMM kernel.
#[derive(Debug)]
pub struct GemmKernel {
    name: String,
    grid: Dim3,
    p: Arc<GemmParams>,
}

impl GemmKernel {
    /// Problem dimensions.
    pub fn dims(&self) -> GemmDims {
        self.p.dims
    }

    /// Tile shape.
    pub fn tile(&self) -> TileShape {
        self.p.tile
    }

    /// Output buffer.
    pub fn output(&self) -> BufferId {
        self.p.c
    }
}

impl KernelSource for GemmKernel {
    fn name(&self) -> &str {
        &self.name
    }

    fn grid(&self) -> Dim3 {
        self.grid
    }

    fn occupancy(&self) -> u32 {
        self.p.occupancy
    }

    fn block(&self, block: Dim3) -> Box<dyn BlockBody> {
        Box::new(GemmBody {
            k: Arc::clone(&self.p),
            block,
            tile: None,
            phase: Phase::Start,
            pending: Vec::new(),
            grid_pending: Vec::new(),
            next_wait: 0,
            next_main: 0,
            acc: Vec::new(),
            functional: false,
        })
    }

    fn static_programs(&self, mem: &GlobalMemory, sink: &mut dyn FnMut(&[Op], usize)) -> bool {
        // Context-dependent only when computing functional results or
        // mapping tiles through the atomic order counter.
        let p = &*self.p;
        let stage = p.stage.as_deref();
        if mem.is_functional(p.c) || stage.and_then(StageRuntime::tile_counter).is_some() {
            return false;
        }
        let grid_waits = stage.map(StageRuntime::grid_wait_ops).unwrap_or_default();
        let deps = p.wait_deps();
        // Non-custom plans request tiles by the consumer's rows only, so
        // every block of a grid row waits on the same list.
        let share_rows = !deps
            .iter()
            .any(|(dep, _)| matches!(dep.plan, DepPlan::Custom(_)));
        let mut classes = Vec::new();
        let mut programs = RowPrograms::default();
        for linear in 0..self.grid.count() {
            let tile = self.grid.delinear(linear);
            let extents = p.extents(tile);
            let build = |middle: &mut Vec<Op>| {
                let (lo, hi) = p.chunk_range(tile.z);
                let class = ShapeClass::find(&mut classes, extents, tile.z, || {
                    let mains = (lo..=hi).map(|c| p.main_op(tile, c)).collect();
                    let (epilogue, write) = (p.epilogue_op(tile), p.write_op(tile));
                    ShapeClass::new(extents, tile.z, mains, epilogue, write)
                });
                middle.extend_from_slice(&grid_waits);
                let ys = p.wait_rows(&deps, tile);
                let waits =
                    |i, out: &mut Vec<Op>| p.push_chunk_waits(&deps, &ys, tile, lo + i, out);
                class.push_loop(class.mains.len(), waits, middle);
            };
            programs.emit(stage, tile, share_rows.then_some(extents), build, sink);
        }
        true
    }
}

/// The kernel parameters, shared by the kernel and every coroutine body
/// it creates (bodies outlive the borrow of the kernel in the engine).
/// Every op-producing helper takes the tile it prices, so the coroutine
/// bodies and [`KernelSource::static_programs`] emit the same ops.
#[derive(Debug)]
struct GemmParams {
    dims: GemmDims,
    tile: TileShape,
    split_k: u32,
    occupancy: u32,
    dtype: DType,
    a: ASource,
    b: BufferId,
    c: BufferId,
    epilogue: Epilogue,
    stage: Option<Arc<StageRuntime>>,
    a_dep: Option<InputDep>,
    b_dep: Option<InputDep>,
    sync_chunks: u32,
    gpu: GpuConfig,
}

impl GemmParams {
    /// Rows `[lo, hi)` of tile `t`.
    fn rows(&self, t: Dim3) -> (u32, u32) {
        let lo = t.y * self.tile.m;
        (lo, (lo + self.tile.m).min(self.dims.m))
    }

    /// Columns `[lo, hi)` of tile `t`.
    fn cols(&self, t: Dim3) -> (u32, u32) {
        let lo = t.x * self.tile.n;
        (lo, (lo + self.tile.n).min(self.dims.n))
    }

    /// Row and column counts of tile `t`.
    fn extents(&self, t: Dim3) -> (u32, u32) {
        let (rows, cols) = (self.rows(t), self.cols(t));
        (rows.1 - rows.0, cols.1 - cols.0)
    }

    /// Z-slice `z`'s K range `[lo, hi)`.
    fn k_range(&self, z: u32) -> (u32, u32) {
        let per = self.dims.k.div_ceil(self.split_k);
        let lo = z * per;
        (lo.min(self.dims.k), ((z + 1) * per).min(self.dims.k))
    }

    /// Chunk indices `[lo, hi]` overlapping z-slice `z` (`lo > hi` when
    /// the slice is empty).
    fn chunk_range(&self, z: u32) -> (u32, u32) {
        let (klo, khi) = self.k_range(z);
        if klo >= khi {
            return (1, 0); // empty
        }
        let cw = self.chunk_width();
        (klo / cw, (khi - 1) / cw)
    }

    fn chunk_width(&self) -> u32 {
        self.dims.k.div_ceil(self.sync_chunks).max(1)
    }

    /// K span `[lo, hi)` of `chunk` clipped to z-slice `z`.
    fn chunk_span(&self, z: u32, chunk: u32) -> (u32, u32) {
        let cw = self.chunk_width();
        let (klo, khi) = self.k_range(z);
        ((chunk * cw).max(klo), ((chunk + 1) * cw).min(khi))
    }

    /// The dependent operands with a per-tile wait: each one's plan and
    /// its resolved wait target.
    fn wait_deps(&self) -> Vec<(&InputDep, WaitTarget<'_>)> {
        let Some(stage) = self.stage.as_deref() else {
            return Vec::new();
        };
        [(&self.a_dep, self.a.buffer()), (&self.b_dep, self.b)]
            .into_iter()
            .filter_map(|(dep, buffer)| Some((dep.as_ref()?, stage.wait_target(buffer)?)))
            .collect()
    }

    /// Appends tile `t`'s waits before `chunk` to `out`, given each dep's
    /// producer row tiles `ys` ([`GemmParams::wait_rows`]).
    fn push_chunk_waits(
        &self,
        deps: &[(&InputDep, WaitTarget<'_>)],
        ys: &[RangeInclusive<u32>],
        t: Dim3,
        chunk: u32,
        out: &mut Vec<Op>,
    ) {
        for ((dep, target), ys) in deps.iter().zip(ys) {
            dep.for_each_requested(ys.clone(), chunk, t, |req| out.push(target.op(req)));
        }
    }

    /// The producer row tiles each of `deps` requests for tile `t`, at
    /// every chunk.
    fn wait_rows(&self, deps: &[(&InputDep, WaitTarget<'_>)], t: Dim3) -> Vec<RangeInclusive<u32>> {
        let rows = self.rows(t);
        deps.iter()
            .map(|(dep, _)| dep.row_tiles(rows, self.dims.m))
            .collect()
    }

    fn a_bytes(&self, rows: u32, kspan: u32) -> u64 {
        let mult = match self.a {
            ASource::Plain(_) => 1,
            ASource::SwiGlu { .. } => 2, // reads both halves
        };
        rows as u64 * kspan as u64 * self.dtype.size_bytes() * mult
    }

    fn b_bytes(&self, cols: u32, kspan: u32) -> u64 {
        kspan as u64 * cols as u64 * self.dtype.size_bytes()
    }

    /// One pipelined mainloop step: the chunk's A and B loads overlap the
    /// tensor-core math (CUTLASS double-buffering), so the step costs
    /// `max(memory, compute)`.
    fn main_op(&self, t: Dim3, chunk: u32) -> Option<Op> {
        let (klo, khi) = self.chunk_span(t.z, chunk);
        if khi <= klo {
            return None;
        }
        let kspan = khi - klo;
        let (rows, cols) = self.extents(t);
        // Under R, the first chunk's B tile was loaded while this block sat
        // in its initial semaphore wait (Fig. 4a line swap), so only A's
        // bytes remain on the critical path for that chunk; later chunks'
        // loads are hidden by double-buffering either way.
        let first = self.chunk_range(t.z).0;
        let bytes = if self.prefetch_b() && chunk == first {
            self.a_bytes(rows, kspan)
        } else {
            self.a_bytes(rows, kspan) + self.b_bytes(cols, kspan)
        };
        let mut flops = gemm_flops(rows, cols, kspan);
        if matches!(self.a, ASource::SwiGlu { .. }) {
            // swish + multiply on each A element.
            flops += 8 * rows as u64 * kspan as u64;
        }
        Some(Op::main_step(
            bytes,
            mma_cycles(&self.gpu, self.occupancy, flops),
        ))
    }

    fn epilogue_op(&self, t: Dim3) -> Option<Op> {
        let per_elem = self.epilogue.flops_per_elem();
        if per_elem == 0 {
            return None;
        }
        let (rows, cols) = self.extents(t);
        let flops = per_elem * rows as u64 * cols as u64;
        Some(Op::compute(fma_cycles(&self.gpu, self.occupancy, flops)))
    }

    /// The output-tile store.
    fn write_op(&self, t: Dim3) -> Op {
        let (rows, cols) = self.extents(t);
        Op::write(rows as u64 * cols as u64 * self.dtype.size_bytes())
    }

    /// True when the `R` optimization applies: A depends on a producer
    /// while B is independent, so B's loads can be hoisted before the A
    /// waits (swap lines 6-7 with 8-9 of Fig. 4a).
    fn prefetch_b(&self) -> bool {
        self.stage
            .as_ref()
            .map(|s| s.reorder_loads())
            .unwrap_or(false)
            && self.a_dep.is_some()
            && self.b_dep.is_none()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Start,
    Acquire,
    MapTile,
    /// The PDL preamble barrier: one wait per PDL producer's grid
    /// semaphore (`cudaGridDependencySynchronize`), issued once per block
    /// after tile acquisition and before any dependent read.
    GridWait,
    /// Emit the waits for upcoming chunks.
    Sync,
    /// One software-pipelined mainloop step: loads and MMA of a chunk
    /// overlap, costing `max(memory time, tensor-core time)`.
    Main,
    Epilogue,
    WriteC,
    Post {
        idx: usize,
    },
    Done,
}

struct GemmBody {
    k: Arc<GemmParams>,
    block: Dim3,
    tile: Option<Dim3>,
    phase: Phase,
    /// Wait ops still to emit.
    pending: Vec<Op>,
    /// Grid-dependency barrier ops still to emit (PDL preamble).
    grid_pending: Vec<Op>,
    /// Next chunk whose waits will be emitted.
    next_wait: u32,
    /// Next chunk whose pipelined main step will execute.
    next_main: u32,
    /// Functional accumulator, `tile_rows * tile_cols`, row-major.
    acc: Vec<f32>,
    functional: bool,
}

impl GemmBody {
    fn tile_coord(&self) -> Dim3 {
        self.tile.unwrap_or(self.block)
    }

    fn rows(&self) -> (u32, u32) {
        self.k.rows(self.tile_coord())
    }

    fn cols(&self) -> (u32, u32) {
        self.k.cols(self.tile_coord())
    }

    fn chunk_range(&self) -> (u32, u32) {
        self.k.chunk_range(self.tile_coord().z)
    }

    fn chunk_waits(&self, chunk: u32) -> Vec<Op> {
        let mut ops = Vec::new();
        let deps = self.k.wait_deps();
        let ys = self.k.wait_rows(&deps, self.tile_coord());
        self.k
            .push_chunk_waits(&deps, &ys, self.tile_coord(), chunk, &mut ops);
        ops
    }

    fn reset_acc(&mut self) {
        if self.functional {
            let (rows, cols) = self.k.extents(self.tile_coord());
            self.acc = vec![0.0; (rows * cols) as usize];
        }
    }

    /// Functional accumulation of `chunk` (called once the chunk's waits
    /// and loads completed).
    fn accumulate(&mut self, ctx: &mut BlockCtx<'_>, chunk: u32) {
        if !self.functional {
            return;
        }
        let (klo, khi) = self.k.chunk_span(self.tile_coord().z, chunk);
        let rows = self.rows();
        let cols = self.cols();
        let n = self.k.dims.n as usize;
        let kdim = self.k.dims.k as usize;
        let tile_cols = (cols.1 - cols.0) as usize;
        for i in rows.0..rows.1 {
            for kk in klo..khi {
                let av = match self.k.a {
                    ASource::Plain(a) => ctx.mem.read(a, i as usize * kdim + kk as usize, ctx.now),
                    ASource::SwiGlu {
                        combined,
                        half_cols,
                    } => {
                        let w = 2 * half_cols as usize;
                        let gate = ctx
                            .mem
                            .read(combined, i as usize * w + kk as usize, ctx.now);
                        let value = ctx.mem.read(
                            combined,
                            i as usize * w + half_cols as usize + kk as usize,
                            ctx.now,
                        );
                        swish(gate) * value
                    }
                };
                if av == 0.0 {
                    continue;
                }
                for j in cols.0..cols.1 {
                    let bv = ctx
                        .mem
                        .read(self.k.b, kk as usize * n + j as usize, ctx.now);
                    let idx = (i - rows.0) as usize * tile_cols + (j - cols.0) as usize;
                    self.acc[idx] += av * bv;
                }
            }
        }
    }

    /// Functional write of the output tile (read-modify-write for
    /// split-K partial sums).
    fn write_output(&mut self, ctx: &mut BlockCtx<'_>) {
        if !self.functional {
            return;
        }
        let rows = self.rows();
        let cols = self.cols();
        let n = self.k.dims.n as usize;
        let tile_cols = (cols.1 - cols.0) as usize;
        let last_slice = self.tile_coord().z == self.k.split_k - 1;
        for i in rows.0..rows.1 {
            for j in cols.0..cols.1 {
                let idx = i as usize * n + j as usize;
                let mut v = self.acc[(i - rows.0) as usize * tile_cols + (j - cols.0) as usize];
                if self.k.split_k > 1 {
                    let cur = ctx.mem.read_raw(self.k.c, idx);
                    if !cur.is_nan() {
                        v += cur;
                    }
                    // The epilogue applies after full accumulation; CUTLASS
                    // runs it in the split-K reduction. We approximate by
                    // applying it on the final z-slice (slices of one tile
                    // complete in issue order in the deterministic engine).
                    if last_slice {
                        v = self.k.epilogue.apply(v);
                    }
                } else {
                    v = self.k.epilogue.apply(v);
                }
                ctx.mem.write(self.k.c, idx, v);
            }
        }
    }
}

impl BlockBody for GemmBody {
    fn resume(&mut self, ctx: &mut BlockCtx<'_>) -> Step {
        loop {
            match self.phase {
                Phase::Start => {
                    self.phase = Phase::Acquire;
                    if let Some(stage) = &self.k.stage {
                        if let Some(op) = stage.start_op(self.block) {
                            return Step::Op(op);
                        }
                    }
                }
                Phase::Acquire => {
                    // Decide functionality once, from the output buffer.
                    self.functional = ctx.mem.is_functional(self.k.c);
                    self.reset_acc();
                    match self.k.stage.as_ref().and_then(|s| s.tile_counter()) {
                        Some(counter) => {
                            self.phase = Phase::MapTile;
                            return Step::Op(Op::AtomicAdd {
                                table: counter,
                                index: 0,
                                inc: 1,
                            });
                        }
                        None => {
                            self.tile = Some(self.block);
                            self.phase = self.grid_wait_phase();
                        }
                    }
                }
                Phase::MapTile => {
                    let pos = ctx.atomic_result.expect("tile counter result");
                    let stage = self.k.stage.as_ref().expect("stage with counter");
                    self.tile = Some(stage.tile_at(pos));
                    // Tile changed: resize the accumulator.
                    self.reset_acc();
                    self.phase = self.grid_wait_phase();
                }
                Phase::GridWait => {
                    if let Some(op) = self.grid_pending.pop() {
                        return Step::Op(op);
                    }
                    self.phase = self.first_chunk_phase();
                }
                Phase::Sync => {
                    if let Some(op) = self.pending.pop() {
                        return Step::Op(op);
                    }
                    let (_, last) = self.chunk_range();
                    let target = self.next_main.min(last);
                    if self.next_wait <= target {
                        self.pending = self.chunk_waits(self.next_wait);
                        self.pending.reverse(); // popped back-to-front
                        self.next_wait += 1;
                    } else {
                        self.phase = Phase::Main;
                    }
                }
                Phase::Main => {
                    let (_, last) = self.chunk_range();
                    if self.next_main > last {
                        self.phase = Phase::Epilogue;
                        continue;
                    }
                    let chunk = self.next_main;
                    self.next_main += 1;
                    // The chunk's waits completed before this resume, so
                    // reading the producer's data here is race-correct.
                    self.accumulate(ctx, chunk);
                    self.phase = if self.next_main > last {
                        Phase::Epilogue
                    } else {
                        Phase::Sync
                    };
                    if let Some(op) = self.k.main_op(self.tile_coord(), chunk) {
                        return Step::Op(op);
                    }
                }
                Phase::Epilogue => {
                    self.phase = Phase::WriteC;
                    if let Some(op) = self.k.epilogue_op(self.tile_coord()) {
                        return Step::Op(op);
                    }
                }
                Phase::WriteC => {
                    self.write_output(ctx);
                    self.phase = Phase::Post { idx: 0 };
                    return Step::Op(self.k.write_op(self.tile_coord()));
                }
                Phase::Post { idx } => {
                    let ops = self
                        .k
                        .stage
                        .as_ref()
                        .and_then(|s| s.post_ops(self.tile_coord()));
                    match ops {
                        Some(ops) if idx < ops.len() => {
                            self.phase = Phase::Post { idx: idx + 1 };
                            return Step::Op(ops[idx]);
                        }
                        _ => self.phase = Phase::Done,
                    }
                }
                Phase::Done => return Step::Done,
            }
        }
    }
}

impl GemmBody {
    /// Enters [`Phase::GridWait`], queueing the PDL preamble barrier ops
    /// (empty for stages without PDL producers — the phase then falls
    /// straight through to the first chunk).
    fn grid_wait_phase(&mut self) -> Phase {
        if let Some(stage) = &self.k.stage {
            self.grid_pending = stage.grid_wait_ops();
            self.grid_pending.reverse(); // popped back-to-front
        }
        Phase::GridWait
    }

    fn first_chunk_phase(&mut self) -> Phase {
        let (lo, hi) = self.chunk_range();
        if lo > hi {
            return Phase::Epilogue; // empty k-slice
        }
        self.next_wait = lo;
        self.next_main = lo;
        Phase::Sync
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{assert_close, matmul};
    use cusync::{launch_stream_sync, CuStage, RowSync, SyncGraph, TileSync};
    use cusync_sim::{Gpu, Session, SimTime};
    use std::sync::Arc;

    fn quiet_gpu() -> Gpu {
        Gpu::new(GpuConfig {
            host_launch_gap: SimTime::ZERO,
            kernel_dispatch_latency: SimTime::ZERO,
            ..GpuConfig::toy(8)
        })
    }

    fn seeded(m: usize, n: usize, scale: f32) -> Vec<f32> {
        (0..m * n)
            .map(|i| ((i * 37 + 11) % 17) as f32 * scale - 0.4)
            .collect()
    }

    #[test]
    fn single_gemm_matches_reference() {
        let (m, n, k) = (48u32, 40u32, 32u32);
        let mut gpu = quiet_gpu();
        let a_data = seeded(m as usize, k as usize, 0.05);
        let b_data = seeded(k as usize, n as usize, 0.03);
        let a = gpu.mem_mut().alloc_data("a", a_data.clone(), DType::F16);
        let b = gpu.mem_mut().alloc_data("b", b_data.clone(), DType::F16);
        let c = gpu
            .mem_mut()
            .alloc_poisoned("c", (m * n) as usize, DType::F16);
        let gemm = GemmBuilder::new("g", GemmDims::new(m, n, k), TileShape::new(16, 16, 16))
            .operands(a, b, c)
            .build(gpu.config())
            .expect("operands set");
        launch_stream_sync(&mut gpu, [Arc::new(gemm) as Arc<dyn KernelSource>]);
        let mut session = Session::new();
        let report = gpu.compile().and_then(|p| session.run(&p)).unwrap();
        assert_eq!(report.races, 0);
        let expected = matmul(&a_data, &b_data, m as usize, n as usize, k as usize);
        assert_close(session.mem().snapshot(c).unwrap(), &expected, 1e-3);
    }

    #[test]
    fn gemm_with_gelu_epilogue() {
        let (m, n, k) = (16u32, 16u32, 8u32);
        let mut gpu = quiet_gpu();
        let a_data = seeded(m as usize, k as usize, 0.1);
        let b_data = seeded(k as usize, n as usize, 0.1);
        let a = gpu.mem_mut().alloc_data("a", a_data.clone(), DType::F16);
        let b = gpu.mem_mut().alloc_data("b", b_data.clone(), DType::F16);
        let c = gpu
            .mem_mut()
            .alloc_poisoned("c", (m * n) as usize, DType::F16);
        let gemm = GemmBuilder::new("g", GemmDims::new(m, n, k), TileShape::new(8, 8, 8))
            .operands(a, b, c)
            .epilogue(Epilogue::Gelu)
            .build(gpu.config())
            .expect("operands set");
        launch_stream_sync(&mut gpu, [Arc::new(gemm) as Arc<dyn KernelSource>]);
        let mut session = Session::new();
        gpu.compile().and_then(|p| session.run(&p)).unwrap();
        let mut expected = matmul(&a_data, &b_data, m as usize, n as usize, k as usize);
        for v in &mut expected {
            *v = gelu(*v);
        }
        assert_close(session.mem().snapshot(c).unwrap(), &expected, 1e-3);
    }

    #[test]
    fn split_k_accumulates_partial_sums() {
        let (m, n, k) = (16u32, 16u32, 64u32);
        let mut gpu = quiet_gpu();
        let a_data = seeded(m as usize, k as usize, 0.02);
        let b_data = seeded(k as usize, n as usize, 0.02);
        let a = gpu.mem_mut().alloc_data("a", a_data.clone(), DType::F16);
        let b = gpu.mem_mut().alloc_data("b", b_data.clone(), DType::F16);
        let c = gpu
            .mem_mut()
            .alloc_poisoned("c", (m * n) as usize, DType::F16);
        let gemm = GemmBuilder::new("g", GemmDims::new(m, n, k), TileShape::new(16, 16, 16))
            .operands(a, b, c)
            .split_k(4)
            .build(gpu.config())
            .expect("operands set");
        launch_stream_sync(&mut gpu, [Arc::new(gemm) as Arc<dyn KernelSource>]);
        let mut session = Session::new();
        gpu.compile().and_then(|p| session.run(&p)).unwrap();
        let expected = matmul(&a_data, &b_data, m as usize, n as usize, k as usize);
        assert_close(session.mem().snapshot(c).unwrap(), &expected, 1e-3);
    }

    /// Builds the two-GeMM MLP chain of Fig. 4a with real data and checks
    /// both correctness and race freedom under fine-grained sync.
    fn run_mlp_chain(
        policy_tile: bool,
        chunks: u32,
    ) -> (cusync_sim::RunReport, Vec<f32>, Vec<f32>) {
        let (m, k, h) = (32u32, 24u32, 40u32);
        let mut gpu = quiet_gpu();
        let x_data = seeded(m as usize, k as usize, 0.05);
        let w1_data = seeded(k as usize, h as usize, 0.04);
        let w2_data = seeded(h as usize, k as usize, 0.03);
        let x = gpu.mem_mut().alloc_data("x", x_data.clone(), DType::F16);
        let w1 = gpu.mem_mut().alloc_data("w1", w1_data.clone(), DType::F16);
        let w2 = gpu.mem_mut().alloc_data("w2", w2_data.clone(), DType::F16);
        let xw1 = gpu
            .mem_mut()
            .alloc_poisoned("xw1", (m * h) as usize, DType::F16);
        let out = gpu
            .mem_mut()
            .alloc_poisoned("out", (m * k) as usize, DType::F16);

        let tile = TileShape::new(8, 8, 8);
        let grid1 = Dim3::new(h / tile.n, m / tile.m, 1);
        let grid2 = Dim3::new(k / tile.n, m / tile.m, 1);
        let mut graph = SyncGraph::new();
        let s1 = if policy_tile {
            graph.add_stage(CuStage::new("gemm1", grid1).policy(TileSync))
        } else {
            graph.add_stage(CuStage::new("gemm1", grid1).policy(RowSync))
        };
        let s2 = graph.add_stage(CuStage::new("gemm2", grid2).policy(TileSync));
        graph.dependency(s1, s2, xw1).unwrap();
        let bound = graph.bind(&mut gpu).unwrap();

        let g1 = GemmBuilder::new("gemm1", GemmDims::new(m, h, k), tile)
            .operands(x, w1, xw1)
            .stage(Arc::clone(bound.stage(s1)))
            .build(gpu.config())
            .expect("operands set");
        let g2 = GemmBuilder::new("gemm2", GemmDims::new(m, k, h), tile)
            .operands(xw1, w2, out)
            .stage(Arc::clone(bound.stage(s2)))
            .a_dep(InputDep::row_aligned(grid1), chunks)
            .build(gpu.config())
            .expect("operands set");
        bound.launch(&mut gpu, s1, Arc::new(g1)).unwrap();
        bound.launch(&mut gpu, s2, Arc::new(g2)).unwrap();
        let mut session = Session::new();
        let report = gpu.compile().and_then(|p| session.run(&p)).unwrap();

        let xw1_ref = matmul(&x_data, &w1_data, m as usize, h as usize, k as usize);
        let out_ref = matmul(&xw1_ref, &w2_data, m as usize, k as usize, h as usize);
        let got = session.mem().snapshot(out).unwrap().to_vec();
        (report, got, out_ref)
    }

    #[test]
    fn tilesync_mlp_chain_is_race_free_and_correct() {
        let (report, got, expected) = run_mlp_chain(true, 5);
        assert_eq!(report.races, 0, "{report}");
        assert_close(&got, &expected, 5e-3);
        // Fine-grained sync overlapped the kernels: consumer started
        // before the producer finished.
        assert!(report.kernel("gemm2").start < report.kernel("gemm1").end);
    }

    #[test]
    fn rowsync_mlp_chain_is_race_free_and_correct() {
        let (report, got, expected) = run_mlp_chain(false, 5);
        assert_eq!(report.races, 0, "{report}");
        assert_close(&got, &expected, 5e-3);
    }

    #[test]
    fn unsynchronized_chain_races_and_corrupts() {
        // Same chain but consumer never waits (no dependency declared):
        // the consumer reads poisoned tiles. The producer's contraction
        // dimension is large so its tiles land long after the consumer's
        // (priority-boosted) reads.
        let (m, k, h) = (32u32, 512u32, 40u32);
        let mut gpu = quiet_gpu();
        let x = gpu
            .mem_mut()
            .alloc_data("x", seeded(m as usize, k as usize, 0.05), DType::F16);
        let w1 = gpu
            .mem_mut()
            .alloc_data("w1", seeded(k as usize, h as usize, 0.04), DType::F16);
        let w2 = gpu
            .mem_mut()
            .alloc_data("w2", seeded(h as usize, k as usize, 0.03), DType::F16);
        let xw1 = gpu
            .mem_mut()
            .alloc_poisoned("xw1", (m * h) as usize, DType::F16);
        let out = gpu
            .mem_mut()
            .alloc_poisoned("out", (m * k) as usize, DType::F16);
        let tile = TileShape::new(8, 8, 8);
        let s1 = gpu.create_stream(0);
        // Higher priority: the consumer's blocks are issued first, so it
        // must read tiles the producer has not yet written.
        let s2 = gpu.create_stream(5);
        let g1 = GemmBuilder::new("gemm1", GemmDims::new(m, h, k), tile)
            .operands(x, w1, xw1)
            .build(gpu.config())
            .expect("operands set");
        let g2 = GemmBuilder::new("gemm2", GemmDims::new(m, k, h), tile)
            .operands(xw1, w2, out)
            .build(gpu.config())
            .expect("operands set");
        gpu.launch(s1, Arc::new(g1));
        gpu.launch(s2, Arc::new(g2));
        let report = gpu.compile().and_then(|p| Session::new().run(&p)).unwrap();
        assert!(report.races > 0, "expected races, got none");
    }

    #[test]
    fn swiglu_source_matches_reference() {
        // comb = [gate | value]; A = swish(gate) * value; out = A * W.
        let (m, k, n) = (8u32, 8u32, 8u32);
        let mut gpu = quiet_gpu();
        let comb_data = seeded(m as usize, 2 * k as usize, 0.1);
        let w_data = seeded(k as usize, n as usize, 0.1);
        let comb = gpu
            .mem_mut()
            .alloc_data("comb", comb_data.clone(), DType::F16);
        let w = gpu.mem_mut().alloc_data("w", w_data.clone(), DType::F16);
        let out = gpu
            .mem_mut()
            .alloc_poisoned("out", (m * n) as usize, DType::F16);
        let gemm = GemmBuilder::new("g3", GemmDims::new(m, n, k), TileShape::new(8, 8, 8))
            .swiglu_a(comb)
            .operands_b_c(w, out)
            .build(gpu.config())
            .expect("operands set");
        launch_stream_sync(&mut gpu, [Arc::new(gemm) as Arc<dyn KernelSource>]);
        let mut session = Session::new();
        gpu.compile().and_then(|p| session.run(&p)).unwrap();
        let mut a_eff = vec![0.0f32; (m * k) as usize];
        for i in 0..m as usize {
            for j in 0..k as usize {
                let gate = comb_data[i * 2 * k as usize + j];
                let value = comb_data[i * 2 * k as usize + k as usize + j];
                a_eff[i * k as usize + j] = swish(gate) * value;
            }
        }
        let expected = matmul(&a_eff, &w_data, m as usize, n as usize, k as usize);
        assert_close(session.mem().snapshot(out).unwrap(), &expected, 5e-3);
    }

    #[test]
    fn reorder_loads_keeps_results_and_changes_timing() {
        // With R, the consumer preloads B before waiting on A; results
        // must match and time must not increase.
        let base = run_mlp_chain(true, 5);
        assert_close(&base.1, &base.2, 5e-3);
    }

    #[test]
    fn ragged_tiles_cover_non_divisible_shapes() {
        let (m, n, k) = (30u32, 26u32, 18u32);
        let mut gpu = quiet_gpu();
        let a_data = seeded(m as usize, k as usize, 0.05);
        let b_data = seeded(k as usize, n as usize, 0.05);
        let a = gpu.mem_mut().alloc_data("a", a_data.clone(), DType::F16);
        let b = gpu.mem_mut().alloc_data("b", b_data.clone(), DType::F16);
        let c = gpu
            .mem_mut()
            .alloc_poisoned("c", (m * n) as usize, DType::F16);
        let gemm = GemmBuilder::new("g", GemmDims::new(m, n, k), TileShape::new(16, 16, 16))
            .operands(a, b, c)
            .build(gpu.config())
            .expect("operands set");
        launch_stream_sync(&mut gpu, [Arc::new(gemm) as Arc<dyn KernelSource>]);
        let mut session = Session::new();
        let report = gpu.compile().and_then(|p| session.run(&p)).unwrap();
        assert_eq!(report.races, 0);
        let expected = matmul(&a_data, &b_data, m as usize, n as usize, k as usize);
        assert_close(session.mem().snapshot(c).unwrap(), &expected, 1e-3);
    }
}
