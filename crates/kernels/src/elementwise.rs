//! Minimum-compute elementwise copy kernels for the synchronization
//! overhead bound of Section V-D.
//!
//! The paper bounds cuSync's overhead with a pair of kernels that do the
//! least possible work per tile: the producer copies an input array to an
//! intermediate array, the consumer copies the intermediate to an output,
//! and each consumer block depends on the *same* block of the producer.
//! Both kernels launch exactly one full wave at maximum occupancy
//! (80 SMs x 16 = 1280 blocks on the V100), so every synchronization sits
//! on the critical path and nothing amortizes it.

use std::sync::Arc;

use cusync::StageRuntime;
use cusync_sim::{
    BlockBody, BlockCtx, BufferId, DType, Dim3, GlobalMemory, KernelSource, Op, Step, MAX_OCCUPANCY,
};

use crate::program::RowPrograms;

/// A 1-D block-per-tile copy kernel: block `i` copies elements
/// `[i*block_elems, (i+1)*block_elems)` from `src` to `dst`.
#[derive(Debug)]
pub struct CopyKernel {
    name: String,
    len: u32,
    block_elems: u32,
    occupancy: u32,
    dtype: DType,
    src: BufferId,
    dst: BufferId,
    stage: Option<Arc<StageRuntime>>,
    depends_on_src: bool,
    grid: Dim3,
}

impl CopyKernel {
    /// Creates a copy of `len` elements with `block_elems` per block.
    pub fn new(name: &str, len: u32, block_elems: u32, src: BufferId, dst: BufferId) -> Self {
        assert!(block_elems > 0, "block_elems must be positive");
        CopyKernel {
            name: name.to_owned(),
            len,
            block_elems,
            occupancy: MAX_OCCUPANCY,
            dtype: DType::F16,
            src,
            dst,
            stage: None,
            depends_on_src: false,
            grid: Dim3::linear(len.div_ceil(block_elems)),
        }
    }

    /// Attaches the cuSync stage; if `depends_on_src`, each block waits on
    /// the same-index tile of the producer of `src`.
    pub fn with_stage(mut self, stage: Arc<StageRuntime>, depends_on_src: bool) -> Self {
        self.stage = Some(stage);
        self.depends_on_src = depends_on_src;
        self
    }
}

impl KernelSource for CopyKernel {
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
        Box::new(CopyBody {
            len: self.len,
            block_elems: self.block_elems,
            dtype: self.dtype,
            src: self.src,
            dst: self.dst,
            stage: self.stage.clone(),
            depends_on_src: self.depends_on_src,
            block,
            tile: None,
            phase: CopyPhase::Start,
        })
    }
    fn static_programs(&self, mem: &GlobalMemory, sink: &mut dyn FnMut(&[Op], usize)) -> bool {
        let stage = self.stage.as_deref();
        if mem.is_functional(self.dst) || stage.and_then(StageRuntime::tile_counter).is_some() {
            return false;
        }
        let grid_waits = stage.map(StageRuntime::grid_wait_ops).unwrap_or_default();
        let target = stage
            .filter(|_| self.depends_on_src)
            .and_then(|s| s.wait_target(self.src));
        let mut programs = RowPrograms::default();
        for linear in 0..self.grid.count() {
            let tile = self.grid.delinear(linear);
            let bytes = tile_bytes(self.len, self.block_elems, self.dtype, tile);
            let build = |middle: &mut Vec<Op>| {
                middle.extend_from_slice(&grid_waits);
                middle.extend(target.map(|t| t.op(tile)));
                middle.extend([Op::read(bytes), Op::write(bytes)]);
            };
            // Every block waits on its own tile: nothing is shared.
            programs.emit(stage, tile, None, build, sink);
        }
        true
    }
}

/// Elements `[lo, hi)` copied by tile `tile`.
fn tile_range(len: u32, block_elems: u32, tile: Dim3) -> (u32, u32) {
    let lo = tile.x * block_elems;
    (lo.min(len), (lo + block_elems).min(len))
}

/// Bytes read (and written) by tile `tile`.
fn tile_bytes(len: u32, block_elems: u32, dtype: DType, tile: Dim3) -> u64 {
    let (lo, hi) = tile_range(len, block_elems, tile);
    (hi - lo) as u64 * dtype.size_bytes()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CopyPhase {
    Start,
    Acquire,
    MapTile,
    /// The PDL preamble barrier (one wait per PDL producer's grid
    /// semaphore), before the per-tile wait.
    GridWait {
        idx: usize,
    },
    Wait,
    Read,
    Write,
    Post {
        idx: usize,
    },
    Done,
}

struct CopyBody {
    len: u32,
    block_elems: u32,
    dtype: DType,
    src: BufferId,
    dst: BufferId,
    stage: Option<Arc<StageRuntime>>,
    depends_on_src: bool,
    block: Dim3,
    tile: Option<Dim3>,
    phase: CopyPhase,
}

impl CopyBody {
    fn tile_coord(&self) -> Dim3 {
        self.tile.unwrap_or(self.block)
    }

    fn range(&self) -> (u32, u32) {
        tile_range(self.len, self.block_elems, self.tile_coord())
    }

    fn bytes(&self) -> u64 {
        tile_bytes(self.len, self.block_elems, self.dtype, self.tile_coord())
    }
}

impl BlockBody for CopyBody {
    fn resume(&mut self, ctx: &mut BlockCtx<'_>) -> Step {
        loop {
            match self.phase {
                CopyPhase::Start => {
                    self.phase = CopyPhase::Acquire;
                    if let Some(stage) = &self.stage {
                        if let Some(op) = stage.start_op(self.block) {
                            return Step::Op(op);
                        }
                    }
                }
                CopyPhase::Acquire => match self.stage.as_ref().and_then(|s| s.tile_counter()) {
                    Some(counter) => {
                        self.phase = CopyPhase::MapTile;
                        return Step::Op(Op::AtomicAdd {
                            table: counter,
                            index: 0,
                            inc: 1,
                        });
                    }
                    None => {
                        self.tile = Some(self.block);
                        self.phase = CopyPhase::GridWait { idx: 0 };
                    }
                },
                CopyPhase::MapTile => {
                    let pos = ctx.atomic_result.expect("tile counter result");
                    let stage = self.stage.as_ref().expect("stage with counter");
                    self.tile = Some(stage.tile_at(pos));
                    self.phase = CopyPhase::GridWait { idx: 0 };
                }
                CopyPhase::GridWait { idx } => {
                    let ops = self
                        .stage
                        .as_ref()
                        .map(|s| s.grid_wait_ops())
                        .unwrap_or_default();
                    match ops.get(idx) {
                        Some(&op) => {
                            self.phase = CopyPhase::GridWait { idx: idx + 1 };
                            return Step::Op(op);
                        }
                        None => self.phase = CopyPhase::Wait,
                    }
                }
                CopyPhase::Wait => {
                    self.phase = CopyPhase::Read;
                    if self.depends_on_src {
                        if let Some(stage) = &self.stage {
                            if let Some(op) = stage.wait_op(self.src, self.tile_coord()) {
                                return Step::Op(op);
                            }
                        }
                    }
                }
                CopyPhase::Read => {
                    self.phase = CopyPhase::Write;
                    return Step::Op(Op::read(self.bytes()));
                }
                CopyPhase::Write => {
                    // Functional copy happens at write time.
                    let (lo, hi) = self.range();
                    if ctx.mem.is_functional(self.dst) {
                        for i in lo..hi {
                            let v = ctx.mem.read(self.src, i as usize, ctx.now);
                            ctx.mem.write(self.dst, i as usize, v);
                        }
                    }
                    self.phase = CopyPhase::Post { idx: 0 };
                    return Step::Op(Op::write(self.bytes()));
                }
                CopyPhase::Post { idx } => {
                    let ops = self
                        .stage
                        .as_ref()
                        .and_then(|s| s.post_ops(self.tile_coord()));
                    match ops {
                        Some(ops) if idx < ops.len() => {
                            self.phase = CopyPhase::Post { idx: idx + 1 };
                            return Step::Op(ops[idx]);
                        }
                        _ => self.phase = CopyPhase::Done,
                    }
                }
                CopyPhase::Done => return Step::Done,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::assert_close;
    use cusync::{CuStage, SyncGraph, TileSync};
    use cusync_sim::{Gpu, GpuConfig, Session, SimTime};

    fn quiet_gpu() -> Gpu {
        Gpu::new(GpuConfig {
            host_launch_gap: SimTime::ZERO,
            kernel_dispatch_latency: SimTime::ZERO,
            ..GpuConfig::toy(4)
        })
    }

    #[test]
    fn copy_chain_with_tilesync_is_race_free_and_correct() {
        let len = 64u32;
        let mut gpu = quiet_gpu();
        let data: Vec<f32> = (0..len).map(|i| i as f32).collect();
        let input = gpu.mem_mut().alloc_data("in", data.clone(), DType::F16);
        let mid = gpu
            .mem_mut()
            .alloc_poisoned("mid", len as usize, DType::F16);
        let out = gpu
            .mem_mut()
            .alloc_poisoned("out", len as usize, DType::F16);
        let grid = Dim3::linear(8);
        let mut graph = SyncGraph::new();
        let s1 = graph.add_stage(CuStage::new("copy1", grid).policy(TileSync));
        let s2 = graph.add_stage(CuStage::new("copy2", grid).policy(TileSync));
        graph.dependency(s1, s2, mid).unwrap();
        let bound = graph.bind(&mut gpu).unwrap();
        let c1 = CopyKernel::new("copy1", len, 8, input, mid)
            .with_stage(Arc::clone(bound.stage(s1)), false);
        let c2 = CopyKernel::new("copy2", len, 8, mid, out)
            .with_stage(Arc::clone(bound.stage(s2)), true);
        bound.launch(&mut gpu, s1, Arc::new(c1)).unwrap();
        bound.launch(&mut gpu, s2, Arc::new(c2)).unwrap();
        let mut session = Session::new();
        let report = gpu.compile().and_then(|p| session.run(&p)).unwrap();
        assert_eq!(report.races, 0, "{report}");
        assert_close(session.mem().snapshot(out).unwrap(), &data, 0.0);
    }

    #[test]
    fn ragged_final_block_copies_partial_tile() {
        let len = 60u32; // not a multiple of block_elems
        let mut gpu = quiet_gpu();
        let data: Vec<f32> = (0..len).map(|i| i as f32 * 0.5).collect();
        let input = gpu.mem_mut().alloc_data("in", data.clone(), DType::F16);
        let out = gpu
            .mem_mut()
            .alloc_poisoned("out", len as usize, DType::F16);
        let kernel = CopyKernel::new("copy", len, 8, input, out);
        cusync::launch_stream_sync(&mut gpu, [Arc::new(kernel) as Arc<dyn KernelSource>]);
        let mut session = Session::new();
        let report = gpu.compile().and_then(|p| session.run(&p)).unwrap();
        assert_eq!(report.races, 0);
        assert_close(session.mem().snapshot(out).unwrap(), &data, 0.0);
    }
}
