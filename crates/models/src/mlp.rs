//! The MLP blocks of GPT-3 (Fig. 2a) and LLaMA (Fig. 3), with model
//! parallelism over 8 GPUs — the workload of Table IV and Fig. 6(a,c).

use std::sync::Arc;

use cusync::{
    launch_stream_sync, CuStage, NoSync, OptFlags, PolicyRef, RowSync, StridedSync, SyncGraph,
    SyncMechanism, TileSync,
};
use cusync_kernels::{DepPlan, Epilogue, GemmBuilder, GemmDims, InputDep};
use cusync_sim::{
    run_compiled, CompiledPipeline, DType, Dim3, Gpu, GpuConfig, KernelSource, RunReport,
};
use cusync_streamk::StreamKBuilder;

use crate::mech::{fine_labels, label_policy};
use crate::modes::{PolicyKind, SyncMode};
use crate::tiling::{auto_tiling, gpt3_mlp_tiling, GemmTiling, MlpTiling};

/// Number of dependence edges in the MLP graph (gemm1 → gemm2 over
/// `xw1`) — the length of the assignment [`build_mlp_mechanisms`]
/// expects.
pub const MLP_EDGES: usize = 1;

/// Which transformer MLP architecture to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MlpModel {
    /// GPT-3 145B: H = 12288, two GeMMs, GeLU fused into the first
    /// (Fig. 2a). With mp = 8 the intermediate width is 4H/8 = 6144.
    Gpt3,
    /// LLaMA 65B: H = 8192, first two GeMMs combined into one producing
    /// `[gate | value]`, SwiGLU fused into the third (Fig. 3). The per-GPU
    /// intermediate width 22016/8 = 2752 is padded to 2816 so the gate and
    /// value halves align to 256-wide tiles (see DESIGN.md).
    Llama,
}

impl MlpModel {
    /// Hidden dimension H.
    pub fn hidden(self) -> u32 {
        match self {
            MlpModel::Gpt3 => 12288,
            MlpModel::Llama => 8192,
        }
    }

    /// Per-GPU intermediate width (the `k` of the final GeMM).
    pub fn intermediate(self) -> u32 {
        match self {
            MlpModel::Gpt3 => 6144,
            MlpModel::Llama => 2816,
        }
    }

    /// Columns of the first GeMM's output (`2x` intermediate for LLaMA's
    /// combined gate/value).
    pub fn first_gemm_n(self) -> u32 {
        match self {
            MlpModel::Gpt3 => self.intermediate(),
            MlpModel::Llama => 2 * self.intermediate(),
        }
    }

    fn tiling(self, gpu: &GpuConfig, bs: u32) -> MlpTiling {
        match self {
            MlpModel::Gpt3 => gpt3_mlp_tiling(bs),
            MlpModel::Llama => MlpTiling {
                gemm1: auto_tiling(gpu, bs, self.first_gemm_n()),
                gemm2: auto_tiling(gpu, bs, self.hidden()),
            },
        }
    }
}

/// The policy objects for the producer GeMM under `kind`.
fn producer_policy(kind: PolicyKind, model: MlpModel, grid1: Dim3) -> PolicyRef {
    match (kind, model) {
        (PolicyKind::Row, _) => Arc::new(RowSync),
        // LLaMA's consumer needs both the gate and value halves: the
        // generated StridedSync groups tiles `half_tiles` apart.
        (PolicyKind::Strided, MlpModel::Llama) => Arc::new(StridedSync::new(grid1.x / 2, 2)),
        _ => Arc::new(TileSync),
    }
}

/// Grid of a GeMM given its shape and tiling.
fn grid_of(m: u32, n: u32, t: &GemmTiling) -> Dim3 {
    Dim3::new(n.div_ceil(t.tile.n), m.div_ceil(t.tile.m), t.split_k)
}

/// Builds one MLP block (two dependent GeMMs) at `bs` total tokens under
/// `mode` into a caller-provided [`Gpu`]: allocates buffers, binds the
/// sync graph and launches all kernels, without running anything.
///
/// Buffers are timing-only (benchmark fidelity); functional correctness of
/// the same kernel compositions is covered by the kernels-crate tests.
pub fn build_mlp(gpu: &mut Gpu, model: MlpModel, bs: u32, mode: SyncMode) {
    build_mlp_inner(gpu, model, bs, MlpLaunch::Mode(mode)).expect("mode launches are always valid");
}

/// Builds the MLP block with an explicit per-edge [`SyncMechanism`]
/// assignment (edge order: `gemm1 → gemm2` over `xw1`; see
/// [`MLP_EDGES`]). Fine mechanisms select the producer policy; coarse
/// mechanisms gate the consumer launch instead of synchronizing tiles.
///
/// Returns `None` when the assignment is structurally invalid for this
/// graph (the MLP's single edge never is — the `Option` matches the
/// multi-edge builders so the mechanism auto-tuner can drive them all).
///
/// # Panics
///
/// Panics if `mechanisms.len() != MLP_EDGES`.
pub fn build_mlp_mechanisms(
    gpu: &mut Gpu,
    model: MlpModel,
    bs: u32,
    opts: OptFlags,
    mechanisms: &[SyncMechanism],
) -> Option<()> {
    build_mlp_inner(gpu, model, bs, MlpLaunch::Mechanisms(opts, mechanisms))
}

/// How [`build_mlp_inner`] should synchronize the two GeMMs.
enum MlpLaunch<'a> {
    /// One of the paper's evaluation modes.
    Mode(SyncMode),
    /// An explicit per-edge mechanism assignment (cuSync graph launch).
    Mechanisms(OptFlags, &'a [SyncMechanism]),
}

fn build_mlp_inner(gpu: &mut Gpu, model: MlpModel, bs: u32, launch: MlpLaunch<'_>) -> Option<()> {
    // Validate the mechanism assignment before allocating anything.
    let mech_label = match &launch {
        MlpLaunch::Mechanisms(_, ms) => {
            assert_eq!(ms.len(), MLP_EDGES, "one mechanism per MLP edge");
            Some(fine_labels(2, &[(0, ms[0])])?[0])
        }
        MlpLaunch::Mode(_) => None,
    };
    let gpu_cfg = &gpu.config().clone();
    let h = model.hidden();
    let n1 = model.first_gemm_n();
    let inter = model.intermediate();
    let t = model.tiling(gpu_cfg, bs);

    let x = gpu.alloc("x", (bs as usize) * h as usize, DType::F16);
    let w1 = gpu.alloc("w1", h as usize * n1 as usize, DType::F16);
    let w2 = gpu.alloc("w2", inter as usize * h as usize, DType::F16);
    let xw1 = gpu.alloc("xw1", bs as usize * n1 as usize, DType::F16);
    let out = gpu.alloc("out", bs as usize * h as usize, DType::F16);

    let dims1 = GemmDims::new(bs, n1, h);
    let dims2 = GemmDims::new(bs, h, inter);
    let epilogue1 = match model {
        MlpModel::Gpt3 => Epilogue::Gelu,
        MlpModel::Llama => Epilogue::None, // swish applied by the consumer
    };
    let grid1 = grid_of(bs, n1, &t.gemm1);

    let gemm1 = |stage| {
        let mut b = GemmBuilder::new("gemm1", dims1, t.gemm1.tile)
            .operands(x, w1, xw1)
            .epilogue(epilogue1)
            .split_k(t.gemm1.split_k)
            .occupancy(t.gemm1.occupancy);
        if let Some(stage) = stage {
            b = b.stage(stage);
        }
        b.build(gpu_cfg).expect("MLP gemm operands set")
    };
    let gemm2 = |stage: Option<_>| {
        let mut b = GemmBuilder::new("gemm2", dims2, t.gemm2.tile)
            .split_k(t.gemm2.split_k)
            .occupancy(t.gemm2.occupancy);
        b = match model {
            MlpModel::Gpt3 => b.operands(xw1, w2, out),
            MlpModel::Llama => b.swiglu_a(xw1).operands_b_c(w2, out),
        };
        if let Some(stage) = stage {
            b = b.stage(stage);
            // Consumer waits per producer column tile. For LLaMA the gate
            // half spans the first grid1.x/2 tiles and the value half is
            // requested `half` tiles further.
            let (chunks, plan) = match model {
                MlpModel::Gpt3 => (grid1.x, DepPlan::RowAligned { x_offset_tiles: 0 }),
                MlpModel::Llama => (
                    grid1.x / 2,
                    DepPlan::Strided {
                        x_offsets: vec![0, grid1.x / 2],
                    },
                ),
            };
            b = b.a_dep(
                InputDep {
                    prod_grid: grid1,
                    plan,
                },
                chunks,
            );
        }
        b.build(gpu_cfg).expect("MLP gemm operands set")
    };

    // The cuSync graph launch, shared by policy modes (classic fine sync
    // on the edge) and explicit mechanism assignments.
    let cusync_graph =
        |gpu: &mut Gpu, s1_policy: PolicyRef, edge: Option<SyncMechanism>, opts: OptFlags| {
            let mut graph = SyncGraph::new();
            let grid2 = grid_of(bs, h, &t.gemm2);
            let s1 = graph.add_stage(
                CuStage::new("gemm1", grid1)
                    .policy_ref(s1_policy)
                    .opts(opts),
            );
            // The final stage has no consumers; NoSync avoids pure-overhead
            // posts (the paper instruments both kernels identically, but
            // its consumer-side posts target unallocated semaphores —
            // equivalent to skipping them).
            let s2 = graph.add_stage(CuStage::new("gemm2", grid2).policy(NoSync).opts(opts));
            match edge {
                Some(m) => graph.dependency_via(s1, s2, xw1, m),
                None => graph.dependency(s1, s2, xw1),
            }
            .expect("valid MLP graph");
            let bound = graph.bind(gpu).expect("bindable MLP graph");
            bound
                .launch(gpu, s1, Arc::new(gemm1(Some(Arc::clone(bound.stage(s1))))))
                .expect("launch gemm1");
            bound
                .launch(gpu, s2, Arc::new(gemm2(Some(Arc::clone(bound.stage(s2))))))
                .expect("launch gemm2");
        };

    match launch {
        MlpLaunch::Mode(SyncMode::StreamSync) => {
            launch_stream_sync(
                gpu,
                [
                    Arc::new(gemm1(None)) as Arc<dyn KernelSource>,
                    Arc::new(gemm2(None)) as Arc<dyn KernelSource>,
                ],
            );
        }
        MlpLaunch::Mode(SyncMode::StreamK) => {
            let stream = gpu.create_stream(0);
            StreamKBuilder::new("gemm1", dims1, t.gemm1.tile)
                .operands(x, w1, xw1)
                .epilogue(epilogue1)
                .occupancy(t.gemm1.occupancy)
                .build()
                .expect("MLP stream-k gemm1 operands set")
                .launch(gpu, stream);
            StreamKBuilder::new("gemm2", dims2, t.gemm2.tile)
                .operands(xw1, w2, out)
                .occupancy(t.gemm2.occupancy)
                .build()
                .expect("MLP stream-k gemm2 operands set")
                .launch(gpu, stream);
        }
        MlpLaunch::Mode(SyncMode::CuSync(kind, opts)) => {
            cusync_graph(gpu, producer_policy(kind, model, grid1), None, opts);
        }
        MlpLaunch::Mechanisms(opts, ms) => {
            cusync_graph(gpu, label_policy(mech_label.unwrap()), Some(ms[0]), opts);
        }
    }
    Some(())
}

/// Compiles one MLP block into an immutable, reusable
/// [`CompiledPipeline`]: build once, run any number of times through a
/// [`Session`](cusync_sim::Session).
pub fn compile_mlp(
    gpu_cfg: &GpuConfig,
    model: MlpModel,
    bs: u32,
    mode: SyncMode,
) -> CompiledPipeline {
    let mut gpu = Gpu::new(gpu_cfg.clone());
    build_mlp(&mut gpu, model, bs, mode);
    gpu.compile().expect("freshly built MLP pipeline")
}

/// Compiles one MLP block under an explicit per-edge mechanism
/// assignment (see [`build_mlp_mechanisms`]). Returns `None` when the
/// assignment is invalid for this graph.
pub fn compile_mlp_mechanisms(
    gpu_cfg: &GpuConfig,
    model: MlpModel,
    bs: u32,
    opts: OptFlags,
    mechanisms: &[SyncMechanism],
) -> Option<CompiledPipeline> {
    let mut gpu = Gpu::new(gpu_cfg.clone());
    build_mlp_mechanisms(&mut gpu, model, bs, opts, mechanisms)?;
    Some(gpu.compile().expect("freshly built MLP pipeline"))
}

/// Builds and runs one MLP block, returning the full run report.
///
/// Compiles the pipeline and executes it on the calling thread's pooled
/// session ([`run_compiled`]); results are bit-identical to a fresh
/// one-shot [`Gpu::run`] of the same workload.
///
/// # Panics
///
/// Panics if the simulated run deadlocks (it cannot, for these launch
/// orders).
pub fn run_mlp(gpu_cfg: &GpuConfig, model: MlpModel, bs: u32, mode: SyncMode) -> RunReport {
    run_compiled(&compile_mlp(gpu_cfg, model, bs, mode)).expect("MLP run deadlocked")
}

/// Convenience: total simulated time of one MLP block.
pub fn mlp_time(
    gpu_cfg: &GpuConfig,
    model: MlpModel,
    bs: u32,
    mode: SyncMode,
) -> cusync_sim::SimTime {
    run_mlp(gpu_cfg, model, bs, mode).total
}

/// Percentage improvement of `mode` over StreamSync, as plotted in
/// Fig. 6(a,c).
pub fn mlp_improvement(gpu_cfg: &GpuConfig, model: MlpModel, bs: u32, mode: SyncMode) -> f64 {
    let base = mlp_time(gpu_cfg, model, bs, SyncMode::StreamSync);
    let t = mlp_time(gpu_cfg, model, bs, mode);
    100.0 * (1.0 - t.as_picos() as f64 / base.as_picos() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cusync::OptFlags;

    fn v100() -> GpuConfig {
        GpuConfig::tesla_v100()
    }

    #[test]
    fn stream_sync_serializes_the_two_gemms() {
        let report = run_mlp(&v100(), MlpModel::Gpt3, 256, SyncMode::StreamSync);
        assert!(report.kernel("gemm2").start >= report.kernel("gemm1").end);
    }

    #[test]
    fn cusync_overlaps_the_two_gemms() {
        let report = run_mlp(
            &v100(),
            MlpModel::Gpt3,
            256,
            SyncMode::CuSync(PolicyKind::Tile, OptFlags::WRT),
        );
        assert!(report.kernel("gemm2").start < report.kernel("gemm1").end);
    }

    #[test]
    fn cusync_beats_stream_sync_at_batch_256() {
        // Table IV row 256: cuSync reduces runtime by 16%.
        let base = mlp_time(&v100(), MlpModel::Gpt3, 256, SyncMode::StreamSync);
        let tile = mlp_time(
            &v100(),
            MlpModel::Gpt3,
            256,
            SyncMode::CuSync(PolicyKind::Tile, OptFlags::WRT),
        );
        assert!(tile < base, "TileSync+WRT {tile} vs StreamSync {base}");
    }

    #[test]
    fn llama_mlp_runs_all_modes() {
        for mode in [
            SyncMode::StreamSync,
            SyncMode::StreamK,
            SyncMode::CuSync(PolicyKind::Strided, OptFlags::WRT),
            SyncMode::CuSync(PolicyKind::Row, OptFlags::WRT),
        ] {
            let report = run_mlp(&v100(), MlpModel::Llama, 512, mode);
            assert!(report.total > cusync_sim::SimTime::ZERO, "{mode}");
        }
    }

    #[test]
    fn pdl_edge_overlaps_and_stream_serial_serializes() {
        let run = |ms: &[SyncMechanism]| {
            run_compiled(
                &compile_mlp_mechanisms(&v100(), MlpModel::Gpt3, 256, OptFlags::WRT, ms)
                    .expect("single-edge assignments are always valid"),
            )
            .expect("mechanism run deadlocked")
        };
        // PDL: gemm2's launch waits only for gemm1's last block to become
        // resident, then its body blocks on the grid semaphore — it may
        // start before gemm1 ends but must finish after.
        let pdl = run(&[SyncMechanism::Pdl]);
        assert!(pdl.kernel("gemm2").end > pdl.kernel("gemm1").end);
        // Stream-serial: the consumer cannot even start until the
        // producer fully completes.
        let serial = run(&[SyncMechanism::StreamSerial]);
        assert!(serial.kernel("gemm2").start >= serial.kernel("gemm1").end);
        // Fine tile sync through the mechanism API matches the classic
        // launch path bit-for-bit.
        let fine = run(&[SyncMechanism::TileSync]);
        let classic = run_mlp(
            &v100(),
            MlpModel::Gpt3,
            256,
            SyncMode::CuSync(PolicyKind::Tile, OptFlags::WRT),
        );
        assert_eq!(fine.total, classic.total);
    }

    #[test]
    fn wait_kernel_present_without_w_flag() {
        let with_wait = run_mlp(
            &v100(),
            MlpModel::Gpt3,
            256,
            SyncMode::CuSync(PolicyKind::Tile, OptFlags::NONE),
        );
        // gemm1, gemm2.wait, gemm2.
        assert_eq!(with_wait.kernels.len(), 3);
        let without = run_mlp(
            &v100(),
            MlpModel::Gpt3,
            256,
            SyncMode::CuSync(PolicyKind::Tile, OptFlags::WRT),
        );
        assert_eq!(without.kernels.len(), 2);
    }
}
