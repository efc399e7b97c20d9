//! Implicit-GeMM 2-D convolution with cuSync instrumentation (Section
//! IV-B, Fig. 5c).
//!
//! A convolution of `batch` NHWC images `[p, q, c]` with an `r x s` kernel
//! producing `k` channels (SAME padding, stride 1) is computed as the
//! implicit GeMM `[batch*p*q, c*r*s] x [c*r*s, k]`. Each thread block
//! computes one `tile_m x tile_n` output tile; the K loop walks channel
//! blocks (outer) and kernel positions (inner), so the consumer's
//! requested coordinate for `stage.wait` is `x = cb * (r*s) + rs` and the
//! producing tile is `cb = x / (r*s)` — exactly the `Tile(x/(R*S), y)`
//! dependence of Fig. 5c, folded by [`Conv2DTileSync`](cusync::Conv2DTileSync).
//!
//! Unlike the paper's specification, waits cover the *halo*: a pixel-row
//! tile also needs the producer tiles holding its neighboring pixels
//! (±((r-1)/2·q + (s-1)/2) flattened rows). The paper's single-tile wait
//! under-synchronizes at tile boundaries; with halo-aware waits the
//! functional checker proves the chain race-free.

use std::ops::RangeInclusive;
use std::sync::Arc;

use cusync::{StageRuntime, WaitTarget};
use cusync_sim::{
    BlockBody, BlockCtx, BufferId, BuildError, DType, Dim3, GlobalMemory, GpuConfig, KernelSource,
    Op, Step,
};

use crate::gemm::{DepPlan, Epilogue, InputDep, TileShape};
use crate::program::{RowPrograms, ShapeClass};
use crate::timing::{fma_cycles, gemm_flops, mma_cycles, occupancy_for_tile};

/// Shape of a SAME-padded, stride-1 2-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2DShape {
    /// Batch size.
    pub batch: u32,
    /// Image height.
    pub p: u32,
    /// Image width.
    pub q: u32,
    /// Input channels.
    pub c: u32,
    /// Output channels.
    pub k: u32,
    /// Kernel height.
    pub r: u32,
    /// Kernel width.
    pub s: u32,
}

impl Conv2DShape {
    /// A square `3x3` convolution, the shape used by every ResNet-38 and
    /// VGG-19 layer in Table II.
    pub const fn square3x3(batch: u32, pq: u32, c: u32, k: u32) -> Self {
        Conv2DShape {
            batch,
            p: pq,
            q: pq,
            c,
            k,
            r: 3,
            s: 3,
        }
    }

    /// Implicit-GeMM M dimension: `batch * p * q` output pixels.
    pub fn gemm_m(&self) -> u32 {
        self.batch * self.p * self.q
    }

    /// Implicit-GeMM K dimension: `c * r * s`.
    pub fn gemm_k(&self) -> u32 {
        self.c * self.r * self.s
    }

    /// Kernel positions `r * s`.
    pub fn rs(&self) -> u32 {
        self.r * self.s
    }

    /// Flattened-row halo: how far (in `[b*p*q]` row units) a pixel's
    /// receptive field reaches into neighboring rows.
    pub fn halo_rows(&self) -> u32 {
        ((self.r - 1) / 2) * self.q + (self.s - 1) / 2
    }
}

/// Builder for [`Conv2DKernel`].
#[derive(Debug)]
pub struct Conv2DBuilder {
    name: String,
    shape: Conv2DShape,
    tile: TileShape,
    occupancy: Option<u32>,
    dtype: DType,
    input: Option<BufferId>,
    weights: Option<BufferId>,
    output: Option<BufferId>,
    epilogue: Epilogue,
    stage: Option<Arc<StageRuntime>>,
    input_dep: Option<InputDep>,
    halo_safe: bool,
}

impl Conv2DBuilder {
    /// Starts building a convolution. `tile.k` is the channel-block width
    /// of the inner loop.
    pub fn new(name: &str, shape: Conv2DShape, tile: TileShape) -> Self {
        Conv2DBuilder {
            name: name.to_owned(),
            shape,
            tile,
            occupancy: None,
            dtype: DType::F16,
            input: None,
            weights: None,
            output: None,
            epilogue: Epilogue::Relu,
            stage: None,
            input_dep: None,
            halo_safe: true,
        }
    }

    /// Sets input `[batch*p*q, c]`, weights `[r*s*c, k]` and output
    /// `[batch*p*q, k]` buffers.
    pub fn operands(mut self, input: BufferId, weights: BufferId, output: BufferId) -> Self {
        self.input = Some(input);
        self.weights = Some(weights);
        self.output = Some(output);
        self
    }

    /// Sets the fused epilogue (default ReLU).
    pub fn epilogue(mut self, epilogue: Epilogue) -> Self {
        self.epilogue = epilogue;
        self
    }

    /// Overrides the occupancy heuristic.
    pub fn occupancy(mut self, occupancy: u32) -> Self {
        self.occupancy = Some(occupancy);
        self
    }

    /// Attaches the cuSync stage.
    pub fn stage(mut self, stage: Arc<StageRuntime>) -> Self {
        self.stage = Some(stage);
        self
    }

    /// Declares the input dependent on a producing convolution with the
    /// given grid.
    pub fn input_dep(mut self, dep: InputDep) -> Self {
        self.input_dep = Some(dep);
        self
    }

    /// Disables halo-aware waits, reproducing the paper's literal
    /// single-tile dependence (under-synchronized at tile boundaries; only
    /// for experiments).
    pub fn paper_literal_waits(mut self) -> Self {
        self.halo_safe = false;
        self
    }

    /// Finalizes the kernel.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] if [`Conv2DBuilder::operands`] was never
    /// called, or if the convolution shape or tile has a zero extent
    /// (which would launch an empty grid).
    pub fn build(self, gpu: &GpuConfig) -> Result<Conv2DKernel, BuildError> {
        let builder = || format!("Conv2DBuilder({})", self.name);
        let s = &self.shape;
        if s.batch == 0 || s.p == 0 || s.q == 0 || s.c == 0 || s.k == 0 || s.r == 0 || s.s == 0 {
            return Err(BuildError::invalid(
                builder(),
                format!(
                    "Conv2DShape batch={} p={} q={} c={} k={} r={} s={} has a zero extent",
                    s.batch, s.p, s.q, s.c, s.k, s.r, s.s
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
        let grid = Dim3::new(
            self.shape.k.div_ceil(self.tile.n),
            self.shape.gemm_m().div_ceil(self.tile.m),
            1,
        );
        let occupancy = self
            .occupancy
            .unwrap_or_else(|| occupancy_for_tile(self.tile.m, self.tile.n));
        let input = self
            .input
            .ok_or_else(|| BuildError::missing(builder(), "input"))?;
        let weights = self
            .weights
            .ok_or_else(|| BuildError::missing(builder(), "weights"))?;
        let output = self
            .output
            .ok_or_else(|| BuildError::missing(builder(), "output"))?;
        // Channel blocks: aligned to the producer's column tiles when a
        // dependency exists, else the tile's k width.
        let cb_count = match &self.input_dep {
            Some(dep) => dep.prod_grid.x,
            None => self.shape.c.div_ceil(self.tile.k),
        };
        Ok(Conv2DKernel {
            name: self.name,
            grid,
            p: Arc::new(ConvParams {
                shape: self.shape,
                tile: self.tile,
                occupancy,
                dtype: self.dtype,
                input,
                weights,
                output,
                epilogue: self.epilogue,
                stage: self.stage,
                input_dep: self.input_dep,
                halo_safe: self.halo_safe,
                gpu: gpu.clone(),
                cb_count,
            }),
        })
    }
}

/// A tiled implicit-GeMM Conv2D kernel.
#[derive(Debug)]
pub struct Conv2DKernel {
    name: String,
    grid: Dim3,
    p: Arc<ConvParams>,
}

impl Conv2DKernel {
    /// Convolution shape.
    pub fn shape(&self) -> Conv2DShape {
        self.p.shape
    }

    /// Output buffer.
    pub fn output(&self) -> BufferId {
        self.p.output
    }
}

impl KernelSource for Conv2DKernel {
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
        Box::new(Conv2DBody {
            k: Arc::clone(&self.p),
            block,
            tile_coord: None,
            phase: ConvPhase::Start,
            pending: Vec::new(),
            grid_pending: Vec::new(),
            next_wait: 0,
            next_main: 0,
            acc: Vec::new(),
            functional: false,
        })
    }

    fn static_programs(&self, mem: &GlobalMemory, sink: &mut dyn FnMut(&[Op], usize)) -> bool {
        let p = &*self.p;
        let stage = p.stage.as_deref();
        if mem.is_functional(p.output) || stage.and_then(StageRuntime::tile_counter).is_some() {
            return false;
        }
        let grid_waits = stage.map(StageRuntime::grid_wait_ops).unwrap_or_default();
        let target = p.wait_target();
        // Non-custom plans request tiles by the consumer's rows only, so
        // every block of a grid row waits on the same list.
        let share_rows = !matches!(
            p.input_dep.as_ref().map(|d| &d.plan),
            Some(DepPlan::Custom(_))
        );
        let mut classes = Vec::new();
        let mut programs = RowPrograms::default();
        for linear in 0..self.grid.count() {
            let tile = self.grid.delinear(linear);
            let extents = p.extents(tile);
            let build = |middle: &mut Vec<Op>| {
                let class = ShapeClass::find(&mut classes, extents, 0, || {
                    let mains = (0..p.steps()).map(|step| p.main_op(tile, step)).collect();
                    let (epilogue, write) = (p.epilogue_op(tile), p.write_op(tile));
                    ShapeClass::new(extents, 0, mains, epilogue, write)
                });
                middle.extend_from_slice(&grid_waits);
                // Even a (degenerate) zero-step loop waits before step 0.
                let steps = p.steps().max(1) as usize;
                let ys = p.wait_rows(tile);
                let waits = |step, out: &mut Vec<Op>| {
                    p.push_step_waits(target, ys.clone(), tile, step, out)
                };
                class.push_loop(steps, waits, middle);
            };
            programs.emit(stage, tile, share_rows.then_some(extents), build, sink);
        }
        true
    }
}

/// The kernel parameters, shared by the kernel and every coroutine body
/// it creates. Every op-producing helper takes the tile it prices, so the
/// coroutine bodies and [`KernelSource::static_programs`] emit the same
/// ops.
#[derive(Debug)]
struct ConvParams {
    shape: Conv2DShape,
    tile: TileShape,
    occupancy: u32,
    dtype: DType,
    input: BufferId,
    weights: BufferId,
    output: BufferId,
    epilogue: Epilogue,
    stage: Option<Arc<StageRuntime>>,
    input_dep: Option<InputDep>,
    halo_safe: bool,
    gpu: GpuConfig,
    cb_count: u32,
}

impl ConvParams {
    fn rows(&self, t: Dim3) -> (u32, u32) {
        let lo = t.y * self.tile.m;
        (lo, (lo + self.tile.m).min(self.shape.gemm_m()))
    }

    fn cols(&self, t: Dim3) -> (u32, u32) {
        let lo = t.x * self.tile.n;
        (lo, (lo + self.tile.n).min(self.shape.k))
    }

    /// Row and column counts of tile `t`.
    fn extents(&self, t: Dim3) -> (u32, u32) {
        let (rows, cols) = (self.rows(t), self.cols(t));
        (rows.1 - rows.0, cols.1 - cols.0)
    }

    /// Total K-loop steps: channel blocks x kernel positions.
    fn steps(&self) -> u32 {
        self.cb_count * self.shape.rs()
    }

    fn channel_block_width(&self) -> u32 {
        self.shape.c.div_ceil(self.cb_count)
    }

    /// Channels `[lo, hi)` of step `step`.
    fn step_channels(&self, step: u32) -> (u32, u32) {
        let cb = step / self.shape.rs();
        let w = self.channel_block_width();
        ((cb * w).min(self.shape.c), ((cb + 1) * w).min(self.shape.c))
    }

    /// The input's resolved wait target, when it has a per-tile wait.
    fn wait_target(&self) -> Option<WaitTarget<'_>> {
        self.input_dep.as_ref()?;
        self.stage.as_deref()?.wait_target(self.input)
    }

    /// The producer row tiles tile `t` requests at every step: those of
    /// its rows, widened by the halo when halo-safe (`None` without an
    /// input dependency).
    fn wait_rows(&self, t: Dim3) -> Option<RangeInclusive<u32>> {
        let dep = self.input_dep.as_ref()?;
        let (mut lo, mut hi) = self.rows(t);
        if self.halo_safe {
            let halo = self.shape.halo_rows();
            lo = lo.saturating_sub(halo);
            hi = (hi + halo).min(self.shape.gemm_m());
        }
        Some(dep.row_tiles((lo, hi), self.shape.gemm_m()))
    }

    /// Appends tile `t`'s waits before `step` to `out`, given its
    /// [`ConvParams::wait_rows`] `ys`, dropping consecutive duplicates
    /// (policies that fold several requested tiles onto one semaphore
    /// produce them).
    fn push_step_waits(
        &self,
        target: Option<WaitTarget<'_>>,
        ys: Option<RangeInclusive<u32>>,
        t: Dim3,
        step: u32,
        out: &mut Vec<Op>,
    ) {
        let (Some(target), Some(dep), Some(ys)) = (target, &self.input_dep, ys) else {
            return;
        };
        // Requested x = cb * rs + rs_idx = step (channel blocks outer).
        let mut last = None;
        dep.for_each_requested(ys, step, t, |req| {
            let op = target.op(req);
            if last != Some(op) {
                last = Some(op);
                out.push(op);
            }
        });
    }

    /// One pipelined step: input and weight loads overlap the MMA.
    fn main_op(&self, t: Dim3, step: u32) -> Option<Op> {
        let (clo, chi) = self.step_channels(step);
        if chi <= clo {
            return None;
        }
        let (rows, cols) = self.extents(t);
        // Under R, the first step's weight tile was loaded during the
        // initial input wait; later steps hide loads via double-buffering.
        let weight_rows = if self.prefetch_weights() && step == 0 {
            0
        } else {
            cols as u64
        };
        let bytes = (rows as u64 + weight_rows) * (chi - clo) as u64 * self.dtype.size_bytes();
        let flops = gemm_flops(rows, cols, chi - clo);
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

    /// The `R` optimization: prefetch weights before the input waits.
    fn prefetch_weights(&self) -> bool {
        self.stage
            .as_ref()
            .map(|s| s.reorder_loads())
            .unwrap_or(false)
            && self.input_dep.is_some()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConvPhase {
    Start,
    Acquire,
    MapTile,
    /// The PDL preamble barrier: one wait per PDL producer's grid
    /// semaphore, issued once per block before any dependent read.
    GridWait,
    /// Emit waits for upcoming steps.
    Sync,
    /// One pipelined step: input/weight loads overlap the MMA,
    /// costing `max(memory, compute)`.
    Main,
    Epilogue,
    Write,
    Post {
        idx: usize,
    },
    Done,
}

struct Conv2DBody {
    k: Arc<ConvParams>,
    block: Dim3,
    tile_coord: Option<Dim3>,
    phase: ConvPhase,
    pending: Vec<Op>,
    grid_pending: Vec<Op>,
    next_wait: u32,
    next_main: u32,
    acc: Vec<f32>,
    functional: bool,
}

impl Conv2DBody {
    fn tile_coord(&self) -> Dim3 {
        self.tile_coord.unwrap_or(self.block)
    }

    fn step_waits(&self, step: u32) -> Vec<Op> {
        let mut ops = Vec::new();
        let t = self.tile_coord();
        self.k
            .push_step_waits(self.k.wait_target(), self.k.wait_rows(t), t, step, &mut ops);
        ops
    }

    /// Decodes flattened pixel row `m` and kernel position `rs` into the
    /// input row index, or `None` when the receptive field falls in the
    /// zero padding.
    fn input_row(&self, m: u32, rs: u32) -> Option<u32> {
        let shape = &self.k.shape;
        let (p, q) = (shape.p, shape.q);
        let (bi, rem) = (m / (p * q), m % (p * q));
        let (pi, qi) = (rem / q, rem % q);
        let dp = (rs / shape.s) as i64 - ((shape.r - 1) / 2) as i64;
        let dq = (rs % shape.s) as i64 - ((shape.s - 1) / 2) as i64;
        let ih = pi as i64 + dp;
        let iw = qi as i64 + dq;
        if ih < 0 || iw < 0 || ih >= p as i64 || iw >= q as i64 {
            return None;
        }
        Some((bi * p + ih as u32) * q + iw as u32)
    }

    fn accumulate(&mut self, ctx: &mut BlockCtx<'_>, step: u32) {
        if !self.functional {
            return;
        }
        let k = &*self.k;
        let rs = step % k.shape.rs();
        let (clo, chi) = k.step_channels(step);
        let tile = self.tile_coord();
        let rows = k.rows(tile);
        let cols = k.cols(tile);
        let c = k.shape.c as usize;
        let kk = k.shape.k as usize;
        let tile_cols = (cols.1 - cols.0) as usize;
        for m in rows.0..rows.1 {
            let Some(in_row) = self.input_row(m, rs) else {
                continue; // zero padding contributes nothing
            };
            for ci in clo..chi {
                let iv = ctx
                    .mem
                    .read(k.input, in_row as usize * c + ci as usize, ctx.now);
                if iv == 0.0 {
                    continue;
                }
                for ko in cols.0..cols.1 {
                    let wv = ctx.mem.read(
                        k.weights,
                        (rs as usize * c + ci as usize) * kk + ko as usize,
                        ctx.now,
                    );
                    let idx = (m - rows.0) as usize * tile_cols + (ko - cols.0) as usize;
                    self.acc[idx] += iv * wv;
                }
            }
        }
    }

    fn write_output(&mut self, ctx: &mut BlockCtx<'_>) {
        if !self.functional {
            return;
        }
        let tile = self.tile_coord();
        let rows = self.k.rows(tile);
        let cols = self.k.cols(tile);
        let k = self.k.shape.k as usize;
        let tile_cols = (cols.1 - cols.0) as usize;
        for m in rows.0..rows.1 {
            for ko in cols.0..cols.1 {
                let v = self.acc[(m - rows.0) as usize * tile_cols + (ko - cols.0) as usize];
                ctx.mem.write(
                    self.k.output,
                    m as usize * k + ko as usize,
                    self.k.epilogue.apply(v),
                );
            }
        }
    }
}

impl BlockBody for Conv2DBody {
    fn resume(&mut self, ctx: &mut BlockCtx<'_>) -> Step {
        loop {
            match self.phase {
                ConvPhase::Start => {
                    self.phase = ConvPhase::Acquire;
                    if let Some(stage) = &self.k.stage {
                        if let Some(op) = stage.start_op(self.block) {
                            return Step::Op(op);
                        }
                    }
                }
                ConvPhase::Acquire => {
                    self.functional = ctx.mem.is_functional(self.k.output);
                    match self.k.stage.as_ref().and_then(|s| s.tile_counter()) {
                        Some(counter) => {
                            self.phase = ConvPhase::MapTile;
                            return Step::Op(Op::AtomicAdd {
                                table: counter,
                                index: 0,
                                inc: 1,
                            });
                        }
                        None => {
                            self.tile_coord = Some(self.block);
                            self.init_acc();
                            self.phase = self.grid_wait_phase();
                        }
                    }
                }
                ConvPhase::MapTile => {
                    let pos = ctx.atomic_result.expect("tile counter result");
                    let stage = self.k.stage.as_ref().expect("stage with counter");
                    self.tile_coord = Some(stage.tile_at(pos));
                    self.init_acc();
                    self.phase = self.grid_wait_phase();
                }
                ConvPhase::GridWait => {
                    if let Some(op) = self.grid_pending.pop() {
                        return Step::Op(op);
                    }
                    self.phase = ConvPhase::Sync;
                }
                ConvPhase::Sync => {
                    if let Some(op) = self.pending.pop() {
                        return Step::Op(op);
                    }
                    let last = self.k.steps().saturating_sub(1);
                    let target = self.next_main.min(last);
                    if self.next_wait <= target {
                        self.pending = self.step_waits(self.next_wait);
                        self.pending.reverse();
                        self.next_wait += 1;
                    } else {
                        self.phase = ConvPhase::Main;
                    }
                }
                ConvPhase::Main => {
                    if self.next_main >= self.k.steps() {
                        self.phase = ConvPhase::Epilogue;
                        continue;
                    }
                    let step = self.next_main;
                    self.next_main += 1;
                    self.accumulate(ctx, step);
                    self.phase = if self.next_main >= self.k.steps() {
                        ConvPhase::Epilogue
                    } else {
                        ConvPhase::Sync
                    };
                    if let Some(op) = self.k.main_op(self.tile_coord(), step) {
                        return Step::Op(op);
                    }
                }
                ConvPhase::Epilogue => {
                    self.phase = ConvPhase::Write;
                    if let Some(op) = self.k.epilogue_op(self.tile_coord()) {
                        return Step::Op(op);
                    }
                }
                ConvPhase::Write => {
                    self.write_output(ctx);
                    self.phase = ConvPhase::Post { idx: 0 };
                    return Step::Op(self.k.write_op(self.tile_coord()));
                }
                ConvPhase::Post { idx } => {
                    let ops = self
                        .k
                        .stage
                        .as_ref()
                        .and_then(|s| s.post_ops(self.tile_coord()));
                    match ops {
                        Some(ops) if idx < ops.len() => {
                            self.phase = ConvPhase::Post { idx: idx + 1 };
                            return Step::Op(ops[idx]);
                        }
                        _ => self.phase = ConvPhase::Done,
                    }
                }
                ConvPhase::Done => return Step::Done,
            }
        }
    }
}

impl Conv2DBody {
    /// Enters [`ConvPhase::GridWait`], queueing the PDL preamble barrier
    /// ops (empty without PDL producers — falls through to the first
    /// step).
    fn grid_wait_phase(&mut self) -> ConvPhase {
        if let Some(stage) = &self.k.stage {
            self.grid_pending = stage.grid_wait_ops();
            self.grid_pending.reverse(); // popped back-to-front
        }
        ConvPhase::GridWait
    }

    fn init_acc(&mut self) {
        if self.functional {
            let (rows, cols) = self.k.extents(self.tile_coord());
            self.acc = vec![0.0; (rows * cols) as usize];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::DepPlan;
    use crate::reference::{assert_close, conv2d, relu};
    use cusync::{launch_stream_sync, Conv2DTileSync, CuStage, RowSync, SyncGraph, TileSync};
    use cusync_sim::{Gpu, Session, SimTime};

    fn quiet_gpu() -> Gpu {
        Gpu::new(GpuConfig {
            host_launch_gap: SimTime::ZERO,
            kernel_dispatch_latency: SimTime::ZERO,
            ..GpuConfig::toy(8)
        })
    }

    fn seeded(len: usize, scale: f32) -> Vec<f32> {
        (0..len)
            .map(|i| ((i * 29 + 7) % 13) as f32 * scale - 0.3)
            .collect()
    }

    #[test]
    fn single_conv_matches_reference() {
        let shape = Conv2DShape::square3x3(1, 6, 4, 8);
        let mut gpu = quiet_gpu();
        let in_data = seeded((shape.gemm_m() * shape.c) as usize, 0.1);
        let w_data = seeded((shape.rs() * shape.c * shape.k) as usize, 0.05);
        let input = gpu.mem_mut().alloc_data("in", in_data.clone(), DType::F16);
        let weights = gpu.mem_mut().alloc_data("w", w_data.clone(), DType::F16);
        let output =
            gpu.mem_mut()
                .alloc_poisoned("out", (shape.gemm_m() * shape.k) as usize, DType::F16);
        let conv = Conv2DBuilder::new("conv", shape, TileShape::new(12, 8, 4))
            .operands(input, weights, output)
            .epilogue(Epilogue::None)
            .build(gpu.config())
            .expect("operands set");
        launch_stream_sync(&mut gpu, [Arc::new(conv) as Arc<dyn KernelSource>]);
        let mut session = Session::new();
        let report = gpu.compile().and_then(|p| session.run(&p)).unwrap();
        assert_eq!(report.races, 0);
        let expected = conv2d(
            &in_data,
            &w_data,
            1,
            6,
            6,
            shape.c as usize,
            3,
            3,
            shape.k as usize,
        );
        assert_close(session.mem().snapshot(output).unwrap(), &expected, 1e-2);
    }

    #[test]
    fn conv_chain_with_conv2dtilesync_is_race_free_and_correct() {
        // Two chained 3x3 convolutions, the Fig. 5c scenario.
        let shape1 = Conv2DShape::square3x3(1, 6, 4, 8);
        let shape2 = Conv2DShape::square3x3(1, 6, 8, 8);
        let tile = TileShape::new(12, 4, 4);
        let mut gpu = quiet_gpu();
        let in_data = seeded((shape1.gemm_m() * shape1.c) as usize, 0.1);
        let w1_data = seeded((shape1.rs() * shape1.c * shape1.k) as usize, 0.04);
        let w2_data = seeded((shape2.rs() * shape2.c * shape2.k) as usize, 0.04);
        let input = gpu.mem_mut().alloc_data("in", in_data.clone(), DType::F16);
        let w1 = gpu.mem_mut().alloc_data("w1", w1_data.clone(), DType::F16);
        let w2 = gpu.mem_mut().alloc_data("w2", w2_data.clone(), DType::F16);
        let mid =
            gpu.mem_mut()
                .alloc_poisoned("mid", (shape1.gemm_m() * shape1.k) as usize, DType::F16);
        let out =
            gpu.mem_mut()
                .alloc_poisoned("out", (shape2.gemm_m() * shape2.k) as usize, DType::F16);

        let grid1 = Dim3::new(shape1.k / tile.n, shape1.gemm_m().div_ceil(tile.m), 1);
        let mut graph = SyncGraph::new();
        let s1 =
            graph.add_stage(CuStage::new("conv1", grid1).policy(Conv2DTileSync::new(shape2.rs())));
        let s2 = graph.add_stage(
            CuStage::new(
                "conv2",
                Dim3::new(shape2.k / tile.n, shape2.gemm_m().div_ceil(tile.m), 1),
            )
            .policy(TileSync),
        );
        graph.dependency(s1, s2, mid).unwrap();
        let bound = graph.bind(&mut gpu).unwrap();

        let conv1 = Conv2DBuilder::new("conv1", shape1, tile)
            .operands(input, w1, mid)
            .epilogue(Epilogue::Relu)
            .stage(Arc::clone(bound.stage(s1)))
            .build(gpu.config())
            .expect("operands set");
        let conv2 = Conv2DBuilder::new("conv2", shape2, tile)
            .operands(mid, w2, out)
            .epilogue(Epilogue::None)
            .stage(Arc::clone(bound.stage(s2)))
            .input_dep(InputDep {
                prod_grid: grid1,
                plan: DepPlan::RowAligned { x_offset_tiles: 0 },
            })
            .build(gpu.config())
            .expect("operands set");
        bound.launch(&mut gpu, s1, Arc::new(conv1)).unwrap();
        bound.launch(&mut gpu, s2, Arc::new(conv2)).unwrap();
        let mut session = Session::new();
        let report = gpu.compile().and_then(|p| session.run(&p)).unwrap();
        assert_eq!(report.races, 0, "{report}");

        let mid_ref: Vec<f32> = conv2d(
            &in_data,
            &w1_data,
            1,
            6,
            6,
            shape1.c as usize,
            3,
            3,
            shape1.k as usize,
        )
        .into_iter()
        .map(relu)
        .collect();
        let out_ref = conv2d(
            &mid_ref,
            &w2_data,
            1,
            6,
            6,
            shape2.c as usize,
            3,
            3,
            shape2.k as usize,
        );
        assert_close(session.mem().snapshot(out).unwrap(), &out_ref, 5e-2);
        // The chain overlapped.
        assert!(report.kernel("conv2").start < report.kernel("conv1").end);
    }

    #[test]
    fn conv_chain_with_rowsync_is_race_free_and_correct() {
        let shape1 = Conv2DShape::square3x3(1, 4, 4, 4);
        let shape2 = Conv2DShape::square3x3(1, 4, 4, 4);
        let tile = TileShape::new(8, 4, 4);
        let mut gpu = quiet_gpu();
        let in_data = seeded((shape1.gemm_m() * shape1.c) as usize, 0.1);
        let w1_data = seeded((shape1.rs() * shape1.c * shape1.k) as usize, 0.05);
        let w2_data = seeded((shape2.rs() * shape2.c * shape2.k) as usize, 0.05);
        let input = gpu.mem_mut().alloc_data("in", in_data.clone(), DType::F16);
        let w1 = gpu.mem_mut().alloc_data("w1", w1_data.clone(), DType::F16);
        let w2 = gpu.mem_mut().alloc_data("w2", w2_data.clone(), DType::F16);
        let mid =
            gpu.mem_mut()
                .alloc_poisoned("mid", (shape1.gemm_m() * shape1.k) as usize, DType::F16);
        let out =
            gpu.mem_mut()
                .alloc_poisoned("out", (shape2.gemm_m() * shape2.k) as usize, DType::F16);
        let grid1 = Dim3::new(shape1.k / tile.n, shape1.gemm_m().div_ceil(tile.m), 1);
        let mut graph = SyncGraph::new();
        let s1 = graph.add_stage(CuStage::new("conv1", grid1).policy(RowSync));
        let s2 = graph.add_stage(CuStage::new(
            "conv2",
            Dim3::new(shape2.k / tile.n, shape2.gemm_m().div_ceil(tile.m), 1),
        ));
        graph.dependency(s1, s2, mid).unwrap();
        let bound = graph.bind(&mut gpu).unwrap();
        let conv1 = Conv2DBuilder::new("conv1", shape1, tile)
            .operands(input, w1, mid)
            .epilogue(Epilogue::None)
            .stage(Arc::clone(bound.stage(s1)))
            .build(gpu.config())
            .expect("operands set");
        let conv2 = Conv2DBuilder::new("conv2", shape2, tile)
            .operands(mid, w2, out)
            .epilogue(Epilogue::None)
            .stage(Arc::clone(bound.stage(s2)))
            .input_dep(InputDep {
                prod_grid: grid1,
                plan: DepPlan::RowAligned { x_offset_tiles: 0 },
            })
            .build(gpu.config())
            .expect("operands set");
        bound.launch(&mut gpu, s1, Arc::new(conv1)).unwrap();
        bound.launch(&mut gpu, s2, Arc::new(conv2)).unwrap();
        let mut session = Session::new();
        let report = gpu.compile().and_then(|p| session.run(&p)).unwrap();
        assert_eq!(report.races, 0, "{report}");
        let mid_ref = conv2d(
            &in_data,
            &w1_data,
            1,
            4,
            4,
            shape1.c as usize,
            3,
            3,
            shape1.k as usize,
        );
        let out_ref = conv2d(
            &mid_ref,
            &w2_data,
            1,
            4,
            4,
            shape2.c as usize,
            3,
            3,
            shape2.k as usize,
        );
        assert_close(session.mem().snapshot(out).unwrap(), &out_ref, 5e-2);
    }

    #[test]
    fn halo_rows_formula() {
        let shape = Conv2DShape::square3x3(1, 56, 64, 64);
        assert_eq!(shape.halo_rows(), 56 + 1);
        assert_eq!(shape.gemm_m(), 56 * 56);
        assert_eq!(shape.gemm_k(), 64 * 9);
    }

    #[test]
    fn padding_rows_are_skipped() {
        // A body positioned at the image corner: kernel position (0,0)
        // (top-left) falls in the padding for pixel (0,0).
        let shape = Conv2DShape::square3x3(1, 4, 1, 1);
        let mut gpu = quiet_gpu();
        let input = gpu.mem_mut().alloc_data("in", vec![1.0; 16], DType::F16);
        let weights = gpu.mem_mut().alloc_data("w", vec![1.0; 9], DType::F16);
        let output = gpu.mem_mut().alloc_poisoned("out", 16, DType::F16);
        let conv = Conv2DBuilder::new("conv", shape, TileShape::new(16, 1, 1))
            .operands(input, weights, output)
            .epilogue(Epilogue::None)
            .build(gpu.config())
            .expect("operands set");
        launch_stream_sync(&mut gpu, [Arc::new(conv) as Arc<dyn KernelSource>]);
        let mut session = Session::new();
        gpu.compile().and_then(|p| session.run(&p)).unwrap();
        let out = session.mem().snapshot(output).unwrap();
        assert_eq!(out[0], 4.0); // corner: 2x2 valid neighborhood
        assert_eq!(out[5], 9.0); // interior: full 3x3
    }
}
