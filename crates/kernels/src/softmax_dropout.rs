//! The fused Softmax-Dropout kernel of the Attention block (Section V-A:
//! "we developed a fused kernel of Softmax and Dropout").
//!
//! Computes `R = Dropout(Softmax(P))` row-wise. Each thread block produces
//! one `tile_m x tile_n` output tile but must read its *entire* rows of `P`
//! to normalize, so the block waits on every producer column tile of its
//! rows — which is why `RowSync` on the producer collapses all of those
//! waits onto one semaphore.

use std::sync::Arc;

use cusync::StageRuntime;
use cusync_sim::{
    BlockBody, BlockCtx, BufferId, BuildError, DType, Dim3, GlobalMemory, GpuConfig, KernelSource,
    Op, Step,
};

use crate::gemm::{DepPlan, InputDep, TileShape};
use crate::program::RowPrograms;
use crate::reference::dropout_keep;
use crate::timing::{fma_cycles, occupancy_for_tile};

/// Approximate scalar FLOPs per input element of a softmax (max, exp,
/// sum, divide).
const SOFTMAX_FLOPS_PER_ELEM: u64 = 28;

/// Builder for [`SoftmaxDropoutKernel`].
#[derive(Debug)]
pub struct SoftmaxDropoutBuilder {
    name: String,
    rows: u32,
    cols: u32,
    tile: TileShape,
    occupancy: Option<u32>,
    dtype: DType,
    input: Option<BufferId>,
    output: Option<BufferId>,
    keep_prob: f32,
    seed: u64,
    stage: Option<Arc<StageRuntime>>,
    input_dep: Option<InputDep>,
}

impl SoftmaxDropoutBuilder {
    /// Starts building a fused softmax-dropout over a `rows x cols`
    /// matrix.
    pub fn new(name: &str, rows: u32, cols: u32, tile: TileShape) -> Self {
        SoftmaxDropoutBuilder {
            name: name.to_owned(),
            rows,
            cols,
            tile,
            occupancy: None,
            dtype: DType::F16,
            input: None,
            output: None,
            keep_prob: 0.9,
            seed: 0x5EED,
            stage: None,
            input_dep: None,
        }
    }

    /// Sets input and output buffers (`rows x cols` each).
    pub fn operands(mut self, input: BufferId, output: BufferId) -> Self {
        self.input = Some(input);
        self.output = Some(output);
        self
    }

    /// Sets the dropout keep probability and mask seed.
    pub fn dropout(mut self, keep_prob: f32, seed: u64) -> Self {
        assert!(
            keep_prob > 0.0 && keep_prob <= 1.0,
            "keep_prob must be in (0, 1]"
        );
        self.keep_prob = keep_prob;
        self.seed = seed;
        self
    }

    /// Attaches the cuSync stage.
    pub fn stage(mut self, stage: Arc<StageRuntime>) -> Self {
        self.stage = Some(stage);
        self
    }

    /// Declares the input dependent on a producing GeMM.
    pub fn input_dep(mut self, dep: InputDep) -> Self {
        self.input_dep = Some(dep);
        self
    }

    /// Overrides the occupancy heuristic.
    pub fn occupancy(mut self, occupancy: u32) -> Self {
        self.occupancy = Some(occupancy);
        self
    }

    /// Finalizes the kernel.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] if [`SoftmaxDropoutBuilder::operands`]
    /// was never called, or if the matrix or tile has a zero extent
    /// (which would launch an empty grid).
    pub fn build(self, gpu: &GpuConfig) -> Result<SoftmaxDropoutKernel, BuildError> {
        let builder = || format!("SoftmaxDropoutBuilder({})", self.name);
        if self.rows == 0 || self.cols == 0 {
            return Err(BuildError::invalid(
                builder(),
                format!("{}x{} matrix has a zero extent", self.rows, self.cols),
            ));
        }
        if self.tile.m == 0 || self.tile.n == 0 {
            return Err(BuildError::invalid(
                builder(),
                format!("tile {}x{} has a zero dimension", self.tile.m, self.tile.n),
            ));
        }
        let grid = Dim3::new(
            self.cols.div_ceil(self.tile.n),
            self.rows.div_ceil(self.tile.m),
            1,
        );
        let input = self
            .input
            .ok_or_else(|| BuildError::missing(builder(), "input"))?;
        let output = self
            .output
            .ok_or_else(|| BuildError::missing(builder(), "output"))?;
        Ok(SoftmaxDropoutKernel {
            name: self.name,
            grid,
            p: Arc::new(SoftmaxParams {
                rows: self.rows,
                cols: self.cols,
                tile: self.tile,
                occupancy: self
                    .occupancy
                    .unwrap_or_else(|| occupancy_for_tile(self.tile.m, self.tile.n).max(4)),
                dtype: self.dtype,
                input,
                output,
                keep_prob: self.keep_prob,
                seed: self.seed,
                stage: self.stage,
                input_dep: self.input_dep,
                gpu: gpu.clone(),
            }),
        })
    }
}

/// Fused row-wise Softmax + Dropout.
#[derive(Debug)]
pub struct SoftmaxDropoutKernel {
    name: String,
    grid: Dim3,
    p: Arc<SoftmaxParams>,
}

impl KernelSource for SoftmaxDropoutKernel {
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
        Box::new(SoftmaxBody {
            k: Arc::clone(&self.p),
            block,
            tile_coord: None,
            phase: SmPhase::Start,
            pending: Vec::new(),
        })
    }

    fn static_programs(&self, mem: &GlobalMemory, sink: &mut dyn FnMut(&[Op], usize)) -> bool {
        let p = &*self.p;
        let stage = p.stage.as_deref();
        if mem.is_functional(p.output) || stage.and_then(StageRuntime::tile_counter).is_some() {
            return false;
        }
        // Non-custom plans request tiles by the consumer's rows only, so
        // every block of a grid row waits on the same list.
        let share_rows = !matches!(
            p.input_dep.as_ref().map(|d| &d.plan),
            Some(DepPlan::Custom(_))
        );
        let mut programs = RowPrograms::default();
        for linear in 0..self.grid.count() {
            let tile = self.grid.delinear(linear);
            let build = |middle: &mut Vec<Op>| {
                middle.extend(p.waits(tile));
                middle.push(p.compute_op(tile));
                middle.push(p.write_op(tile));
            };
            let share = share_rows.then(|| p.extents(tile));
            programs.emit(stage, tile, share, build, sink);
        }
        true
    }
}

/// The kernel parameters, shared by the kernel and every coroutine body
/// it creates; the op helpers serve both the bodies and
/// [`KernelSource::static_programs`].
#[derive(Debug)]
struct SoftmaxParams {
    rows: u32,
    cols: u32,
    tile: TileShape,
    occupancy: u32,
    dtype: DType,
    input: BufferId,
    output: BufferId,
    keep_prob: f32,
    seed: u64,
    stage: Option<Arc<StageRuntime>>,
    input_dep: Option<InputDep>,
    gpu: GpuConfig,
}

impl SoftmaxParams {
    fn row_range(&self, t: Dim3) -> (u32, u32) {
        let lo = t.y * self.tile.m;
        (lo, (lo + self.tile.m).min(self.rows))
    }

    fn col_range(&self, t: Dim3) -> (u32, u32) {
        let lo = t.x * self.tile.n;
        (lo, (lo + self.tile.n).min(self.cols))
    }

    /// Row and column counts of tile `t`.
    fn extents(&self, t: Dim3) -> (u32, u32) {
        let (rows, cols) = (self.row_range(t), self.col_range(t));
        (rows.1 - rows.0, cols.1 - cols.0)
    }

    fn waits(&self, t: Dim3) -> Vec<Op> {
        let Some(stage) = &self.stage else {
            return Vec::new();
        };
        // The PDL preamble barrier comes first: one wait per PDL
        // producer's grid semaphore, before any dependent read.
        let mut ops: Vec<Op> = stage.grid_wait_ops();
        let (Some(dep), Some(target)) = (&self.input_dep, stage.wait_target(self.input)) else {
            return ops;
        };
        let ys = dep.row_tiles(self.row_range(t), self.rows);
        // The whole row is needed: wait on every producer column tile.
        for chunk in 0..dep.prod_grid.x {
            dep.for_each_requested(ys.clone(), chunk, t, |req| ops.push(target.op(req)));
        }
        ops.dedup();
        ops
    }

    /// Row loads overlap the exp/sum math (pipelined).
    fn compute_op(&self, t: Dim3) -> Op {
        let (rlo, rhi) = self.row_range(t);
        let bytes = (rhi - rlo) as u64 * self.cols as u64 * self.dtype.size_bytes();
        let flops = SOFTMAX_FLOPS_PER_ELEM * (rhi - rlo) as u64 * self.cols as u64;
        Op::main_step(bytes, fma_cycles(&self.gpu, self.occupancy, flops))
    }

    /// The output-tile store.
    fn write_op(&self, t: Dim3) -> Op {
        let (rlo, rhi) = self.row_range(t);
        let (clo, chi) = self.col_range(t);
        Op::write((rhi - rlo) as u64 * (chi - clo) as u64 * self.dtype.size_bytes())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SmPhase {
    Start,
    Acquire,
    MapTile,
    Waits,
    Compute,
    Write,
    Post { idx: usize },
    Done,
}

struct SoftmaxBody {
    k: Arc<SoftmaxParams>,
    block: Dim3,
    tile_coord: Option<Dim3>,
    phase: SmPhase,
    pending: Vec<Op>,
}

impl SoftmaxBody {
    fn tile_coord(&self) -> Dim3 {
        self.tile_coord.unwrap_or(self.block)
    }

    fn compute_functional(&self, ctx: &mut BlockCtx<'_>) {
        let k = &*self.k;
        if !ctx.mem.is_functional(k.output) {
            return;
        }
        let (rlo, rhi) = k.row_range(self.tile_coord());
        let (clo, chi) = k.col_range(self.tile_coord());
        let cols = k.cols as usize;
        for r in rlo..rhi {
            // Numerically stable row softmax over the full row.
            let mut max = f32::NEG_INFINITY;
            for j in 0..cols {
                max = max.max(ctx.mem.read(k.input, r as usize * cols + j, ctx.now));
            }
            let mut sum = 0.0f32;
            for j in 0..cols {
                sum += (ctx.mem.read(k.input, r as usize * cols + j, ctx.now) - max).exp();
            }
            for j in clo..chi {
                let idx = r as usize * cols + j as usize;
                let e = (ctx.mem.read(k.input, idx, ctx.now) - max).exp() / sum;
                let v = if dropout_keep(k.seed, idx as u64, k.keep_prob) {
                    e / k.keep_prob
                } else {
                    0.0
                };
                ctx.mem.write(k.output, idx, v);
            }
        }
    }
}

impl BlockBody for SoftmaxBody {
    fn resume(&mut self, ctx: &mut BlockCtx<'_>) -> Step {
        loop {
            match self.phase {
                SmPhase::Start => {
                    self.phase = SmPhase::Acquire;
                    if let Some(stage) = &self.k.stage {
                        if let Some(op) = stage.start_op(self.block) {
                            return Step::Op(op);
                        }
                    }
                }
                SmPhase::Acquire => match self.k.stage.as_ref().and_then(|s| s.tile_counter()) {
                    Some(counter) => {
                        self.phase = SmPhase::MapTile;
                        return Step::Op(Op::AtomicAdd {
                            table: counter,
                            index: 0,
                            inc: 1,
                        });
                    }
                    None => {
                        self.tile_coord = Some(self.block);
                        self.phase = SmPhase::Waits;
                        self.pending = self.k.waits(self.tile_coord());
                        self.pending.reverse();
                    }
                },
                SmPhase::MapTile => {
                    let pos = ctx.atomic_result.expect("tile counter result");
                    let stage = self.k.stage.as_ref().expect("stage with counter");
                    self.tile_coord = Some(stage.tile_at(pos));
                    self.phase = SmPhase::Waits;
                    self.pending = self.k.waits(self.tile_coord());
                    self.pending.reverse();
                }
                SmPhase::Waits => match self.pending.pop() {
                    Some(op) => return Step::Op(op),
                    None => self.phase = SmPhase::Compute,
                },
                SmPhase::Compute => {
                    self.phase = SmPhase::Write;
                    return Step::Op(self.k.compute_op(self.tile_coord()));
                }
                SmPhase::Write => {
                    self.compute_functional(ctx);
                    self.phase = SmPhase::Post { idx: 0 };
                    return Step::Op(self.k.write_op(self.tile_coord()));
                }
                SmPhase::Post { idx } => {
                    let ops = self
                        .k
                        .stage
                        .as_ref()
                        .and_then(|s| s.post_ops(self.tile_coord()));
                    match ops {
                        Some(ops) if idx < ops.len() => {
                            self.phase = SmPhase::Post { idx: idx + 1 };
                            return Step::Op(ops[idx]);
                        }
                        _ => self.phase = SmPhase::Done,
                    }
                }
                SmPhase::Done => return Step::Done,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::DepPlan;
    use crate::reference::{assert_close, dropout, softmax_rows};
    use cusync::{launch_stream_sync, CuStage, RowSync, SyncGraph};
    use cusync_sim::{Gpu, GpuConfig, Session, SimTime};

    fn quiet_gpu() -> Gpu {
        Gpu::new(GpuConfig {
            host_launch_gap: SimTime::ZERO,
            kernel_dispatch_latency: SimTime::ZERO,
            ..GpuConfig::toy(8)
        })
    }

    #[test]
    fn softmax_dropout_matches_reference() {
        let (rows, cols) = (8u32, 12u32);
        let mut gpu = quiet_gpu();
        let data: Vec<f32> = (0..rows * cols).map(|i| (i % 7) as f32 * 0.3).collect();
        let input = gpu.mem_mut().alloc_data("p", data.clone(), DType::F16);
        let output = gpu
            .mem_mut()
            .alloc_poisoned("r", (rows * cols) as usize, DType::F16);
        let kernel = SoftmaxDropoutBuilder::new("sm", rows, cols, TileShape::new(4, 4, 1))
            .operands(input, output)
            .dropout(0.8, 99)
            .build(gpu.config())
            .expect("operands set");
        launch_stream_sync(&mut gpu, [Arc::new(kernel) as Arc<dyn KernelSource>]);
        let mut session = Session::new();
        let report = gpu.compile().and_then(|p| session.run(&p)).unwrap();
        assert_eq!(report.races, 0);
        let expected = dropout(&softmax_rows(&data, rows as usize, cols as usize), 99, 0.8);
        assert_close(session.mem().snapshot(output).unwrap(), &expected, 1e-3);
    }

    #[test]
    fn no_dropout_keeps_probabilities() {
        let (rows, cols) = (4u32, 8u32);
        let mut gpu = quiet_gpu();
        let data: Vec<f32> = (0..rows * cols).map(|i| (i % 5) as f32).collect();
        let input = gpu.mem_mut().alloc_data("p", data.clone(), DType::F16);
        let output = gpu
            .mem_mut()
            .alloc_poisoned("r", (rows * cols) as usize, DType::F16);
        let kernel = SoftmaxDropoutBuilder::new("sm", rows, cols, TileShape::new(4, 8, 1))
            .operands(input, output)
            .dropout(1.0, 0)
            .build(gpu.config())
            .expect("operands set");
        launch_stream_sync(&mut gpu, [Arc::new(kernel) as Arc<dyn KernelSource>]);
        let mut session = Session::new();
        gpu.compile().and_then(|p| session.run(&p)).unwrap();
        let expected = softmax_rows(&data, rows as usize, cols as usize);
        assert_close(session.mem().snapshot(output).unwrap(), &expected, 1e-4);
    }

    #[test]
    fn waits_on_all_column_tiles_of_its_rows() {
        // Producer on RowSync: all column-tile waits dedupe to one op.
        let (rows, cols) = (8u32, 16u32);
        let mut gpu = quiet_gpu();
        let p = gpu
            .mem_mut()
            .alloc_poisoned("p", (rows * cols) as usize, DType::F16);
        let mut graph = SyncGraph::new();
        let prod_grid = Dim3::new(4, 2, 1);
        let s1 = graph.add_stage(CuStage::new("gemm", prod_grid).policy(RowSync));
        let s2 = graph.add_stage(CuStage::new("sm", Dim3::new(4, 2, 1)));
        graph.dependency(s1, s2, p).unwrap();
        let bound = graph.bind(&mut gpu).unwrap();
        let out = gpu
            .mem_mut()
            .alloc_poisoned("r", (rows * cols) as usize, DType::F16);
        let kernel = SoftmaxDropoutBuilder::new("sm", rows, cols, TileShape::new(4, 4, 1))
            .operands(p, out)
            .stage(Arc::clone(bound.stage(s2)))
            .input_dep(InputDep {
                prod_grid,
                plan: DepPlan::RowAligned { x_offset_tiles: 0 },
            })
            .build(gpu.config())
            .expect("operands set");
        // Inspect block (0, 0)'s wait list.
        let body_waits = kernel.p.waits(Dim3::new(0, 0, 0));
        // RowSync: 4 producer column tiles of row 0 share one semaphore,
        // deduplicated to a single wait.
        assert_eq!(body_waits.len(), 1, "{body_waits:?}");
    }
}
