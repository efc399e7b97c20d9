//! # cusync-streamk: the Stream-K baseline
//!
//! Stream-K (Osama et al., PPoPP 2023) is the state-of-the-art
//! *single-kernel-scope* remedy for partial-wave underutilization that the
//! paper compares against (Section V-H). As the paper describes it,
//! Stream-K "divides the GeMM workload into two kernel calls. The first
//! kernel computes GeMM using the traditional tiled approach for full
//! waves while the second kernel partitions workload of the final wave
//! among all SMs. This design requires multiple memory accesses" — the
//! split tiles accumulate partial sums through global memory with a fixup
//! step, whereas cuSync posts a single atomic per tile.
//!
//! This crate reproduces that structure on the simulator:
//!
//! - [`StreamKGemm::launch`] issues the *full-wave kernel* (classic tiled
//!   GeMM over `floor(tiles / blocks_per_wave) * blocks_per_wave` tiles)
//!   and the *partial-wave kernel* (one full wave of blocks splitting the
//!   remaining tiles' K loops evenly), on one stream;
//! - split tiles pay the extra traffic: contributors write `f32` partial
//!   tiles and post a fixup semaphore; the tile owner waits, reads the
//!   partials back, reduces, applies the epilogue and writes the final
//!   tile;
//! - mirroring CUTLASS, only GeMM is supported — there is deliberately no
//!   Stream-K Conv2D, which is why Fig. 7 has no Stream-K series.

#![warn(missing_docs)]

use std::sync::Arc;

/// Maximum thread blocks cooperating on one output tile. CUTLASS's
/// Stream-K scheduler bounds the split count so each participant keeps
/// enough mainloop iterations to stay efficient and the fixup tree stays
/// shallow.
const MAX_SPLITS_PER_TILE: u64 = 4;

/// Throughput penalty of the work-centric mainloop relative to the classic
/// tiled kernel (extra iteration-space bookkeeping, worse software
/// pipelining at split boundaries): ~15% on V100 per the CUTLASS Stream-K
/// occupancy studies.
const STREAMK_MAINLOOP_PENALTY: f64 = 1.15;

use cusync_kernels::timing::{gemm_flops, mma_cycles};
use cusync_kernels::{Epilogue, GemmBuilder, GemmDims, TileShape};
use cusync_sim::{
    BlockBody, BlockCtx, BufferId, BuildError, DType, Dim3, Gpu, GpuConfig, KernelSource, Op,
    SemArrayId, Step, StreamId,
};

/// Builder for [`StreamKGemm`].
#[derive(Debug)]
pub struct StreamKBuilder {
    name: String,
    dims: GemmDims,
    tile: TileShape,
    occupancy: u32,
    dtype: DType,
    epilogue: Epilogue,
    a: Option<BufferId>,
    b: Option<BufferId>,
    c: Option<BufferId>,
}

impl StreamKBuilder {
    /// Starts building a Stream-K GeMM.
    pub fn new(name: &str, dims: GemmDims, tile: TileShape) -> Self {
        StreamKBuilder {
            name: name.to_owned(),
            dims,
            tile,
            occupancy: cusync_kernels::timing::occupancy_for_tile(tile.m, tile.n),
            dtype: DType::F16,
            epilogue: Epilogue::None,
            a: None,
            b: None,
            c: None,
        }
    }

    /// Sets the A, B and C buffers.
    pub fn operands(mut self, a: BufferId, b: BufferId, c: BufferId) -> Self {
        self.a = Some(a);
        self.b = Some(b);
        self.c = Some(c);
        self
    }

    /// Overrides the occupancy heuristic.
    pub fn occupancy(mut self, occupancy: u32) -> Self {
        self.occupancy = occupancy;
        self
    }

    /// Sets the fused epilogue.
    pub fn epilogue(mut self, epilogue: Epilogue) -> Self {
        self.epilogue = epilogue;
        self
    }

    /// Finalizes the Stream-K GeMM description.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] if [`StreamKBuilder::operands`] was never
    /// called, or if the problem dimensions or tile have a zero extent
    /// (which would launch an empty grid).
    pub fn build(self) -> Result<StreamKGemm, BuildError> {
        let builder = || format!("StreamKBuilder({})", self.name);
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
        Ok(StreamKGemm {
            name: self.name,
            dims: self.dims,
            tile: self.tile,
            occupancy: self.occupancy,
            dtype: self.dtype,
            epilogue: self.epilogue,
            a,
            b,
            c,
        })
    }
}

/// A GeMM decomposed Stream-K style: full waves classically tiled, the
/// final partial wave work-partitioned across all SMs.
#[derive(Debug, Clone)]
pub struct StreamKGemm {
    name: String,
    dims: GemmDims,
    tile: TileShape,
    occupancy: u32,
    dtype: DType,
    epilogue: Epilogue,
    a: BufferId,
    b: BufferId,
    c: BufferId,
}

impl StreamKGemm {
    /// Total output tiles of this GeMM.
    pub fn total_tiles(&self) -> u64 {
        (self.dims.n.div_ceil(self.tile.n) as u64) * (self.dims.m.div_ceil(self.tile.m) as u64)
    }

    /// Tiles handled by the classic full-wave kernel.
    pub fn full_wave_tiles(&self, gpu: &GpuConfig) -> u64 {
        let per_wave = gpu.blocks_per_wave(self.occupancy);
        (self.total_tiles() / per_wave) * per_wave
    }

    /// Launches the (up to) two kernels on `stream`. Returns the number of
    /// kernels launched (1 when the grid divides evenly into waves, 2
    /// otherwise).
    pub fn launch(&self, gpu: &mut Gpu, stream: StreamId) -> usize {
        let full = self.full_wave_tiles(gpu.config());
        let total = self.total_tiles();
        let rem = total - full;
        let mut launched = 0;
        if full > 0 {
            let nx = self.dims.n.div_ceil(self.tile.n);
            let kernel = GemmBuilder::new(&format!("{}.full", self.name), self.dims, self.tile)
                .operands(self.a, self.b, self.c)
                .epilogue(self.epilogue)
                .occupancy(self.occupancy)
                .build(gpu.config())
                .expect("operands set");
            if rem == 0 {
                gpu.launch(stream, Arc::new(kernel));
            } else {
                // Run the classic kernel only over the full-wave prefix of
                // tiles; the remainder goes to the partial-wave kernel.
                gpu.launch(
                    stream,
                    Arc::new(TilePrefixKernel {
                        inner: Arc::new(kernel),
                        prefix: full,
                        nx,
                    }),
                );
            }
            launched += 1;
        }
        if rem > 0 {
            let sems = gpu.alloc_sems(&format!("{}.fixup", self.name), rem as usize, 0);
            let per_wave = gpu.config().blocks_per_wave(self.occupancy);
            let blocks = per_wave
                .min(rem * self.k_chunks() as u64)
                .min(rem * MAX_SPLITS_PER_TILE);
            gpu.launch(
                stream,
                Arc::new(PartialWaveKernel {
                    gemm: self.clone(),
                    first_tile: full,
                    blocks,
                    sems,
                    gpu: gpu.config().clone(),
                }),
            );
            launched += 1;
        }
        launched
    }

    fn k_chunks(&self) -> u32 {
        self.dims.k.div_ceil(self.tile.k).max(1)
    }

    fn tile_xy(&self, linear: u64) -> Dim3 {
        let nx = self.dims.n.div_ceil(self.tile.n) as u64;
        Dim3::new((linear % nx) as u32, (linear / nx) as u32, 0)
    }

    fn tile_rows(&self, tile: Dim3) -> (u32, u32) {
        let lo = tile.y * self.tile.m;
        (lo, (lo + self.tile.m).min(self.dims.m))
    }

    fn tile_cols(&self, tile: Dim3) -> (u32, u32) {
        let lo = tile.x * self.tile.n;
        (lo, (lo + self.tile.n).min(self.dims.n))
    }
}

/// Wraps a classic GeMM kernel but only executes the first `prefix` tiles
/// (full waves); remainder tiles are left to the partial-wave kernel.
struct TilePrefixKernel {
    inner: Arc<dyn KernelSource>,
    prefix: u64,
    nx: u32,
}

impl std::fmt::Debug for TilePrefixKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TilePrefixKernel")
            .field("prefix", &self.prefix)
            .finish_non_exhaustive()
    }
}

impl KernelSource for TilePrefixKernel {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn grid(&self) -> Dim3 {
        Dim3::linear(self.prefix as u32)
    }

    fn occupancy(&self) -> u32 {
        self.inner.occupancy()
    }

    fn block(&self, block: Dim3) -> Box<dyn BlockBody> {
        // Map the 1-D prefix index back onto the inner kernel's 2-D grid.
        let linear = block.x as u64;
        let tile = Dim3::new(
            (linear % self.nx as u64) as u32,
            (linear / self.nx as u64) as u32,
            0,
        );
        self.inner.block(tile)
    }
}

/// The work-centric partial-wave kernel: `blocks` blocks split the
/// `rem_tiles x k_chunks` iteration space evenly.
struct PartialWaveKernel {
    gemm: StreamKGemm,
    first_tile: u64,
    blocks: u64,
    sems: SemArrayId,
    gpu: GpuConfig,
}

impl std::fmt::Debug for PartialWaveKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PartialWaveKernel")
            .field("blocks", &self.blocks)
            .finish_non_exhaustive()
    }
}

impl PartialWaveKernel {
    fn iters(&self) -> u64 {
        (self.gemm.total_tiles() - self.first_tile) * self.gemm.k_chunks() as u64
    }

    /// Iteration range `[lo, hi)` of block `b`.
    fn range(&self, b: u64) -> (u64, u64) {
        let iters = self.iters();
        let per = iters.div_ceil(self.blocks);
        ((b * per).min(iters), ((b + 1) * per).min(iters))
    }
}

impl KernelSource for PartialWaveKernel {
    fn name(&self) -> &str {
        &self.gemm.name
    }

    fn grid(&self) -> Dim3 {
        Dim3::linear(self.blocks as u32)
    }

    fn occupancy(&self) -> u32 {
        self.gemm.occupancy
    }

    fn block(&self, block: Dim3) -> Box<dyn BlockBody> {
        let (lo, hi) = self.range(block.x as u64);
        Box::new(PartialBody {
            gemm: self.gemm.clone(),
            first_tile: self.first_tile,
            blocks: self.blocks,
            sems: self.sems,
            gpu: self.gpu.clone(),
            hi,
            cursor: lo,
            phase: PartialPhase::NextSpan,
            acc: Vec::new(),
            functional: None,
            span: None,
        })
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PartialPhase {
    NextSpan,
    Mma,
    Finish,
    FixupReduce,
    Done,
}

/// One contiguous run of k-chunks of a single tile handled by this block.
#[derive(Debug, Clone, Copy)]
struct Span {
    tile_linear: u64,
    chunk_lo: u32,
    chunk_hi: u32,
    contributors: u32,
}

impl Span {
    fn owns_first(&self) -> bool {
        self.chunk_lo == 0
    }

    fn covers_all(&self, k_chunks: u32) -> bool {
        self.chunk_lo == 0 && self.chunk_hi == k_chunks
    }
}

struct PartialBody {
    gemm: StreamKGemm,
    first_tile: u64,
    blocks: u64,
    sems: SemArrayId,
    gpu: GpuConfig,
    hi: u64,
    cursor: u64,
    phase: PartialPhase,
    acc: Vec<f32>,
    functional: Option<bool>,
    span: Option<Span>,
}

impl PartialBody {
    fn k_chunks(&self) -> u64 {
        self.gemm.k_chunks() as u64
    }

    /// Builds the next span starting at `self.cursor`.
    fn next_span(&self) -> Option<Span> {
        if self.cursor >= self.hi {
            return None;
        }
        let kc = self.k_chunks();
        let tile_linear = self.cursor / kc;
        let chunk_lo = (self.cursor % kc) as u32;
        let tile_end = (tile_linear + 1) * kc;
        let end = self.hi.min(tile_end);
        let chunk_hi = ((end - 1) % kc) as u32 + 1;
        Some(Span {
            tile_linear,
            chunk_lo,
            chunk_hi,
            contributors: self.contributors(tile_linear),
        })
    }

    /// Number of blocks contributing to `tile_linear`, derived from the
    /// static even partition (for the fixup wait).
    fn contributors(&self, tile_linear: u64) -> u32 {
        let kc = self.k_chunks();
        let tile_lo = tile_linear * kc;
        let tile_hi = tile_lo + kc;
        let total_iters = (self.gemm.total_tiles() - self.first_tile) * kc;
        let per = total_iters.div_ceil(self.blocks);
        let first_block = tile_lo / per;
        let last_block = (tile_hi - 1) / per;
        (last_block - first_block + 1) as u32
    }

    fn penalized(cycles: u64) -> u64 {
        (cycles as f64 * STREAMK_MAINLOOP_PENALTY).round() as u64
    }

    fn tile_of(&self, span: &Span) -> Dim3 {
        self.gemm.tile_xy(self.first_tile + span.tile_linear)
    }

    fn accumulate(&mut self, ctx: &mut BlockCtx<'_>, span: &Span) {
        if self.functional != Some(true) {
            return;
        }
        let tile = self.tile_of(span);
        let rows = self.gemm.tile_rows(tile);
        let cols = self.gemm.tile_cols(tile);
        let kdim = self.gemm.dims.k as usize;
        let n = self.gemm.dims.n as usize;
        let klo = span.chunk_lo * self.gemm.tile.k;
        let khi = (span.chunk_hi * self.gemm.tile.k).min(self.gemm.dims.k);
        let tile_cols = (cols.1 - cols.0) as usize;
        for i in rows.0..rows.1 {
            for kk in klo..khi {
                let av = ctx
                    .mem
                    .read(self.gemm.a, i as usize * kdim + kk as usize, ctx.now);
                if av == 0.0 {
                    continue;
                }
                for j in cols.0..cols.1 {
                    let bv = ctx
                        .mem
                        .read(self.gemm.b, kk as usize * n + j as usize, ctx.now);
                    self.acc[(i - rows.0) as usize * tile_cols + (j - cols.0) as usize] += av * bv;
                }
            }
        }
    }

    /// Adds this block's partial into C (read-modify-write).
    fn flush_partial(&mut self, ctx: &mut BlockCtx<'_>, span: &Span, apply_epilogue: bool) {
        if self.functional != Some(true) {
            return;
        }
        let tile = self.tile_of(span);
        let rows = self.gemm.tile_rows(tile);
        let cols = self.gemm.tile_cols(tile);
        let n = self.gemm.dims.n as usize;
        let tile_cols = (cols.1 - cols.0) as usize;
        for i in rows.0..rows.1 {
            for j in cols.0..cols.1 {
                let idx = i as usize * n + j as usize;
                let mut v = self.acc[(i - rows.0) as usize * tile_cols + (j - cols.0) as usize];
                let cur = ctx.mem.read_raw(self.gemm.c, idx);
                if !cur.is_nan() {
                    v += cur;
                }
                if apply_epilogue {
                    v = self.gemm.epilogue.apply(v);
                }
                ctx.mem.write(self.gemm.c, idx, v);
            }
        }
    }

    fn apply_epilogue_in_place(&self, ctx: &mut BlockCtx<'_>, span: &Span) {
        if self.functional != Some(true) {
            return;
        }
        let tile = self.tile_of(span);
        let rows = self.gemm.tile_rows(tile);
        let cols = self.gemm.tile_cols(tile);
        let n = self.gemm.dims.n as usize;
        for i in rows.0..rows.1 {
            for j in cols.0..cols.1 {
                let idx = i as usize * n + j as usize;
                let v = ctx.mem.read_raw(self.gemm.c, idx);
                ctx.mem.write(self.gemm.c, idx, self.gemm.epilogue.apply(v));
            }
        }
    }

    fn tile_bytes_f32(&self, span: &Span) -> u64 {
        let tile = self.tile_of(span);
        let rows = self.gemm.tile_rows(tile);
        let cols = self.gemm.tile_cols(tile);
        (rows.1 - rows.0) as u64 * (cols.1 - cols.0) as u64 * 4
    }

    fn advance_past(&mut self, span: &Span) {
        self.cursor = span.tile_linear * self.k_chunks() + span.chunk_hi as u64;
    }
}

impl BlockBody for PartialBody {
    fn resume(&mut self, ctx: &mut BlockCtx<'_>) -> Step {
        loop {
            match self.phase {
                PartialPhase::NextSpan => {
                    if self.functional.is_none() {
                        self.functional = Some(ctx.mem.is_functional(self.gemm.c));
                    }
                    match self.next_span() {
                        None => self.phase = PartialPhase::Done,
                        Some(span) => {
                            if self.functional == Some(true) {
                                let tile = self.tile_of(&span);
                                let rows = self.gemm.tile_rows(tile);
                                let cols = self.gemm.tile_cols(tile);
                                self.acc =
                                    vec![0.0; ((rows.1 - rows.0) * (cols.1 - cols.0)) as usize];
                            }
                            self.span = Some(span);
                            self.phase = PartialPhase::Mma;
                        }
                    }
                }
                PartialPhase::Mma => {
                    // Pipelined mainloop: loads overlap the math.
                    let span = self.span.expect("span set");
                    self.accumulate(ctx, &span);
                    let tile = self.tile_of(&span);
                    let rows = self.gemm.tile_rows(tile);
                    let cols = self.gemm.tile_cols(tile);
                    let kspan =
                        ((span.chunk_hi - span.chunk_lo) * self.gemm.tile.k).min(self.gemm.dims.k);
                    let bytes = ((rows.1 - rows.0) as u64 + (cols.1 - cols.0) as u64)
                        * kspan as u64
                        * self.gemm.dtype.size_bytes();
                    let mma = Self::penalized(mma_cycles(
                        &self.gpu,
                        self.gemm.occupancy,
                        gemm_flops(rows.1 - rows.0, cols.1 - cols.0, kspan),
                    ));
                    self.phase = PartialPhase::Finish;
                    return Step::Op(Op::main_step(bytes, mma));
                }
                PartialPhase::Finish => {
                    let span = self.span.expect("span set");
                    if span.covers_all(self.gemm.k_chunks()) {
                        // Sole owner: write the final f16 tile directly.
                        self.flush_partial(ctx, &span, true);
                        self.advance_past(&span);
                        self.phase = PartialPhase::NextSpan;
                        return Step::Op(Op::write(self.tile_bytes_f32(&span) / 2));
                    }
                    // Split tile: write an f32 partial to global memory.
                    self.flush_partial(ctx, &span, false);
                    if span.owns_first() {
                        // Owner waits for the other contributors (fixup).
                        self.phase = PartialPhase::FixupReduce;
                        return Step::Op(Op::SemWait {
                            table: self.sems,
                            index: span.tile_linear as u32,
                            value: span.contributors - 1,
                        });
                    }
                    // Contributor: post the fixup semaphore and move on.
                    self.advance_past(&span);
                    self.phase = PartialPhase::NextSpan;
                    return Step::Op(Op::SemPost {
                        table: self.sems,
                        index: span.tile_linear as u32,
                        inc: 1,
                    });
                }
                PartialPhase::FixupReduce => {
                    let span = self.span.expect("span set");
                    // Read back every contributor's partial and reduce —
                    // the extra global traffic Stream-K pays and cuSync
                    // does not (Section V-H).
                    let bytes = self.tile_bytes_f32(&span) * span.contributors as u64;
                    self.apply_epilogue_in_place(ctx, &span);
                    self.advance_past(&span);
                    self.phase = PartialPhase::NextSpan;
                    return Step::Op(Op::read(bytes));
                }
                PartialPhase::Done => return Step::Done,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cusync_kernels::reference::{assert_close, matmul};
    use cusync_sim::{Session, SimTime};

    fn quiet_gpu(sms: u32) -> Gpu {
        Gpu::new(GpuConfig {
            host_launch_gap: SimTime::ZERO,
            kernel_dispatch_latency: SimTime::ZERO,
            ..GpuConfig::toy(sms)
        })
    }

    fn seeded(len: usize, scale: f32) -> Vec<f32> {
        (0..len)
            .map(|i| ((i * 31 + 5) % 11) as f32 * scale - 0.2)
            .collect()
    }

    fn run_streamk(m: u32, n: u32, k: u32, tile: TileShape, sms: u32) -> (Vec<f32>, Vec<f32>, u64) {
        let mut gpu = quiet_gpu(sms);
        let a_data = seeded((m * k) as usize, 0.05);
        let b_data = seeded((k * n) as usize, 0.04);
        let a = gpu.mem_mut().alloc_data("a", a_data.clone(), DType::F16);
        let b = gpu.mem_mut().alloc_data("b", b_data.clone(), DType::F16);
        let c = gpu
            .mem_mut()
            .alloc_poisoned("c", (m * n) as usize, DType::F16);
        let sk = StreamKBuilder::new("sk", GemmDims::new(m, n, k), tile)
            .operands(a, b, c)
            .occupancy(1)
            .build()
            .expect("operands set");
        let stream = gpu.create_stream(0);
        sk.launch(&mut gpu, stream);
        let mut session = Session::new();
        let report = gpu.compile().and_then(|p| session.run(&p)).unwrap();
        let expected = matmul(&a_data, &b_data, m as usize, n as usize, k as usize);
        (
            session.mem().snapshot(c).unwrap().to_vec(),
            expected,
            report.races,
        )
    }

    #[test]
    fn full_wave_only_when_divisible() {
        // 4 SMs occ 1; 2x2 = 4 tiles: exactly one wave, single kernel.
        let mut gpu = quiet_gpu(4);
        let a = gpu.alloc("a", 32 * 32, DType::F16);
        let b = gpu.alloc("b", 32 * 32, DType::F16);
        let c = gpu.alloc("c", 32 * 32, DType::F16);
        let sk = StreamKBuilder::new("sk", GemmDims::new(32, 32, 32), TileShape::new(16, 16, 16))
            .operands(a, b, c)
            .occupancy(1)
            .build()
            .expect("operands set");
        let stream = gpu.create_stream(0);
        assert_eq!(sk.launch(&mut gpu, stream), 1);
        gpu.compile().and_then(|p| Session::new().run(&p)).unwrap();
    }

    #[test]
    fn partial_wave_splits_remainder_tiles() {
        // 4 SMs occ 1; 6 tiles: 4 full-wave + 2 remainder -> two kernels.
        let mut gpu = quiet_gpu(4);
        let a = gpu.alloc("a", 48 * 32, DType::F16);
        let b = gpu.alloc("b", 32 * 32, DType::F16);
        let c = gpu.alloc("c", 48 * 32, DType::F16);
        let sk = StreamKBuilder::new("sk", GemmDims::new(48, 32, 32), TileShape::new(16, 16, 16))
            .operands(a, b, c)
            .occupancy(1)
            .build()
            .expect("operands set");
        assert_eq!(sk.total_tiles(), 6);
        assert_eq!(sk.full_wave_tiles(gpu.config()), 4);
        let stream = gpu.create_stream(0);
        assert_eq!(sk.launch(&mut gpu, stream), 2);
        gpu.compile().and_then(|p| Session::new().run(&p)).unwrap();
    }

    #[test]
    fn streamk_matches_reference_with_remainder() {
        let (got, expected, races) = run_streamk(48, 32, 64, TileShape::new(16, 16, 16), 4);
        assert_eq!(races, 0);
        assert_close(&got, &expected, 5e-3);
    }

    #[test]
    fn streamk_matches_reference_small_grid() {
        // Fewer tiles than a wave: only the partial-wave kernel runs and
        // tiles are split across blocks with fixup.
        let (got, expected, races) = run_streamk(16, 16, 96, TileShape::new(16, 16, 16), 4);
        assert_eq!(races, 0);
        assert_close(&got, &expected, 5e-3);
    }

    #[test]
    fn streamk_matches_reference_ragged() {
        let (got, expected, races) = run_streamk(40, 24, 72, TileShape::new(16, 16, 16), 4);
        assert_eq!(races, 0);
        assert_close(&got, &expected, 5e-3);
    }

    #[test]
    fn streamk_beats_classic_on_partial_waves() {
        // 5 tiles on 4 SMs: classic takes 2 waves (1.25 -> 2), Stream-K
        // runs 1 wave + a work-split wave of quarter-size blocks. K is
        // large so splitting the remainder tile outweighs the fixup cost.
        let tile = TileShape::new(16, 16, 64);
        let dims = GemmDims::new(80, 16, 4096);
        let classic_time = {
            let mut gpu = quiet_gpu(4);
            let a = gpu.alloc("a", (dims.m * dims.k) as usize, DType::F16);
            let b = gpu.alloc("b", (dims.k * dims.n) as usize, DType::F16);
            let c = gpu.alloc("c", (dims.m * dims.n) as usize, DType::F16);
            let g = GemmBuilder::new("classic", dims, tile)
                .operands(a, b, c)
                .occupancy(1)
                .build(gpu.config())
                .expect("operands set");
            let stream = gpu.create_stream(0);
            gpu.launch(stream, Arc::new(g));
            gpu.compile()
                .and_then(|p| Session::new().run(&p))
                .unwrap()
                .total
        };
        let streamk_time = {
            let mut gpu = quiet_gpu(4);
            let a = gpu.alloc("a", (dims.m * dims.k) as usize, DType::F16);
            let b = gpu.alloc("b", (dims.k * dims.n) as usize, DType::F16);
            let c = gpu.alloc("c", (dims.m * dims.n) as usize, DType::F16);
            let sk = StreamKBuilder::new("sk", dims, tile)
                .operands(a, b, c)
                .occupancy(1)
                .build()
                .expect("operands set");
            let stream = gpu.create_stream(0);
            sk.launch(&mut gpu, stream);
            gpu.compile()
                .and_then(|p| Session::new().run(&p))
                .unwrap()
                .total
        };
        assert!(
            streamk_time < classic_time,
            "stream-k {streamk_time} should beat classic {classic_time}"
        );
    }
}
