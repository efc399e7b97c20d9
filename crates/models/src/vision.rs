//! ResNet-38 and VGG-19 convolution stacks (Table II) for Fig. 7/8b.

use std::sync::Arc;

use cusync::{
    launch_stream_sync, Conv2DTileSync, CuStage, NoSync, OptFlags, PolicyRef, RowSync, SyncGraph,
    SyncMechanism, TileSync,
};
use cusync_kernels::{Conv2DBuilder, Conv2DShape, DepPlan, Epilogue, InputDep};
use cusync_sim::{CompiledPipeline, DType, Dim3, Gpu, GpuConfig, KernelSource};

use crate::mech::{fine_labels, label_policy};
use crate::modes::{PolicyKind, SyncMode};
use crate::tiling::conv_tiling;

/// Number of dependence edges in a `convs`-deep chain (edge `i` is
/// `conv{i} → conv{i+1}` over `act{i+1}`) — the assignment length
/// [`build_conv_layer_mechanisms`] expects.
pub fn conv_chain_edges(convs: u32) -> usize {
    convs.saturating_sub(1) as usize
}

/// One row of Table II: a group of identical layers, each running
/// `convs_per_layer` chained 3x3 convolutions at the given spatial size
/// and channel count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvStage {
    /// Spatial size P = Q.
    pub pq: u32,
    /// Channels (C = K for every layer in Table II).
    pub channels: u32,
    /// Dependent Conv2Ds per layer.
    pub convs_per_layer: u32,
    /// Number of such layers in the model.
    pub layers: u32,
}

/// The four convolution groups of ResNet-38 (Table II).
pub fn resnet38() -> Vec<ConvStage> {
    vec![
        ConvStage {
            pq: 56,
            channels: 64,
            convs_per_layer: 2,
            layers: 3,
        },
        ConvStage {
            pq: 28,
            channels: 128,
            convs_per_layer: 2,
            layers: 4,
        },
        ConvStage {
            pq: 14,
            channels: 256,
            convs_per_layer: 2,
            layers: 6,
        },
        ConvStage {
            pq: 7,
            channels: 512,
            convs_per_layer: 2,
            layers: 3,
        },
    ]
}

/// The four convolution groups of VGG-19 (Table II).
pub fn vgg19() -> Vec<ConvStage> {
    vec![
        ConvStage {
            pq: 56,
            channels: 64,
            convs_per_layer: 2,
            layers: 1,
        },
        ConvStage {
            pq: 28,
            channels: 128,
            convs_per_layer: 2,
            layers: 1,
        },
        ConvStage {
            pq: 14,
            channels: 256,
            convs_per_layer: 4,
            layers: 1,
        },
        ConvStage {
            pq: 7,
            channels: 512,
            convs_per_layer: 4,
            layers: 1,
        },
    ]
}

fn conv_policy(kind: PolicyKind, rs: u32) -> PolicyRef {
    match kind {
        PolicyKind::Row => Arc::new(RowSync),
        PolicyKind::Conv2DTile => Arc::new(Conv2DTileSync::new(rs)),
        _ => Arc::new(TileSync),
    }
}

/// Builds one layer — `convs` chained 3x3 convolutions of `channels`
/// channels on `batch` images of `pq x pq` pixels — into a
/// caller-provided [`Gpu`], without running anything.
///
/// # Panics
///
/// Panics if `mode` is [`SyncMode::StreamK`] (Stream-K supports only
/// GeMM; Fig. 7 has no Stream-K series).
pub fn build_conv_layer(
    gpu: &mut Gpu,
    batch: u32,
    pq: u32,
    channels: u32,
    convs: u32,
    mode: SyncMode,
) {
    assert!(
        mode != SyncMode::StreamK,
        "Stream-K does not support Conv2D (Section V-H)"
    );
    build_conv_inner(gpu, batch, pq, channels, convs, ConvLaunch::Mode(mode))
        .expect("mode launches are always valid");
}

/// Builds one conv chain with an explicit per-edge [`SyncMechanism`]
/// assignment (edge `i` is `conv{i} → conv{i+1}`; see
/// [`conv_chain_edges`]). Fine mechanisms select each producer's policy;
/// coarse mechanisms gate the consumer launch instead.
///
/// Returns `None` when the assignment is structurally invalid (each conv
/// has at most one consumer, so a chain assignment never is — the
/// `Option` matches the multi-consumer builders).
///
/// # Panics
///
/// Panics if `mechanisms.len() != conv_chain_edges(convs)`.
pub fn build_conv_layer_mechanisms(
    gpu: &mut Gpu,
    batch: u32,
    pq: u32,
    channels: u32,
    convs: u32,
    opts: OptFlags,
    mechanisms: &[SyncMechanism],
) -> Option<()> {
    build_conv_inner(
        gpu,
        batch,
        pq,
        channels,
        convs,
        ConvLaunch::Mechanisms(opts, mechanisms),
    )
}

/// How [`build_conv_inner`] should synchronize the chain.
enum ConvLaunch<'a> {
    /// One of the paper's evaluation modes.
    Mode(SyncMode),
    /// An explicit per-edge mechanism assignment (cuSync graph launch).
    Mechanisms(OptFlags, &'a [SyncMechanism]),
}

fn build_conv_inner(
    gpu: &mut Gpu,
    batch: u32,
    pq: u32,
    channels: u32,
    convs: u32,
    launch: ConvLaunch<'_>,
) -> Option<()> {
    // Validate the mechanism assignment before allocating anything.
    let mech_labels = match &launch {
        ConvLaunch::Mechanisms(_, ms) => {
            assert_eq!(
                ms.len(),
                conv_chain_edges(convs),
                "one mechanism per chain edge"
            );
            let edges: Vec<(usize, SyncMechanism)> = ms.iter().copied().enumerate().collect();
            Some(fine_labels(convs as usize, &edges)?)
        }
        ConvLaunch::Mode(_) => None,
    };
    let gpu_cfg = &gpu.config().clone();
    let shape = Conv2DShape::square3x3(batch, pq, channels, channels);
    let t = conv_tiling(channels);
    let grid = Dim3::new(
        channels.div_ceil(t.tile.n),
        shape.gemm_m().div_ceil(t.tile.m),
        1,
    );

    // One activation buffer per hop, plus shared weights per conv.
    let mut acts = Vec::with_capacity(convs as usize + 1);
    for i in 0..=convs {
        acts.push(gpu.alloc(
            &format!("act{i}"),
            (shape.gemm_m() * channels) as usize,
            DType::F16,
        ));
    }
    let weights: Vec<_> = (0..convs)
        .map(|i| {
            gpu.alloc(
                &format!("w{i}"),
                (shape.rs() * channels * channels) as usize,
                DType::F16,
            )
        })
        .collect();

    let build = |i: usize, stage: Option<_>, with_dep: bool| {
        let mut b = Conv2DBuilder::new(&format!("conv{i}"), shape, t.tile)
            .operands(acts[i], weights[i], acts[i + 1])
            .epilogue(Epilogue::Relu)
            .occupancy(t.occupancy);
        if let Some(stage) = stage {
            b = b.stage(stage);
            if with_dep {
                b = b.input_dep(InputDep {
                    prod_grid: grid,
                    plan: DepPlan::RowAligned { x_offset_tiles: 0 },
                });
            }
        }
        b.build(gpu_cfg).expect("conv operands set")
    };

    // The cuSync graph launch, shared by policy modes and explicit
    // per-edge mechanism assignments. `policy_of(i)` gives conv{i}'s
    // policy; `mechs` labels the chain edges.
    let cusync_graph = |gpu: &mut Gpu,
                        policy_of: &dyn Fn(usize) -> PolicyRef,
                        mechs: Option<&[SyncMechanism]>,
                        opts: OptFlags| {
        let mut graph = SyncGraph::new();
        let stages: Vec<_> = (0..convs as usize)
            .map(|i| {
                let stage = CuStage::new(&format!("conv{i}"), grid)
                    .policy_ref(policy_of(i))
                    .opts(opts);
                graph.add_stage(stage)
            })
            .collect();
        for i in 1..convs as usize {
            match mechs {
                Some(ms) => graph.dependency_via(stages[i - 1], stages[i], acts[i], ms[i - 1]),
                None => graph.dependency(stages[i - 1], stages[i], acts[i]),
            }
            .expect("valid conv chain");
        }
        let bound = graph.bind(gpu).expect("bindable conv chain");
        for (i, &stage) in stages.iter().enumerate().take(convs as usize) {
            let kernel = build(i, Some(Arc::clone(bound.stage(stage))), i > 0);
            bound
                .launch(gpu, stage, Arc::new(kernel))
                .expect("launch conv");
        }
    };

    match launch {
        ConvLaunch::Mode(SyncMode::StreamSync) | ConvLaunch::Mode(SyncMode::StreamK) => {
            let kernels: Vec<Arc<dyn KernelSource>> = (0..convs as usize)
                .map(|i| Arc::new(build(i, None, false)) as Arc<dyn KernelSource>)
                .collect();
            launch_stream_sync(gpu, kernels);
        }
        ConvLaunch::Mode(SyncMode::CuSync(kind, opts)) => {
            let policy_of = |i: usize| -> PolicyRef {
                if i + 1 == convs as usize {
                    Arc::new(NoSync)
                } else {
                    conv_policy(kind, shape.rs())
                }
            };
            cusync_graph(gpu, &policy_of, None, opts);
        }
        ConvLaunch::Mechanisms(opts, ms) => {
            let labels = mech_labels.unwrap();
            // A conv consumer requests `x = cb·rs + rs_idx` coordinates,
            // so the tile-class label binds to the Conv2D fold of tile
            // sync rather than the flat GeMM policy.
            let policy_of = |i: usize| -> PolicyRef {
                match labels[i] {
                    Some(SyncMechanism::TileSync) => Arc::new(Conv2DTileSync::new(shape.rs())),
                    label => label_policy(label),
                }
            };
            cusync_graph(gpu, &policy_of, Some(ms), opts);
        }
    }
    Some(())
}

/// Compiles one conv layer into an immutable, reusable
/// [`CompiledPipeline`]: build once, run any number of times through a
/// [`Session`](cusync_sim::Session).
pub fn compile_conv_layer(
    gpu_cfg: &GpuConfig,
    batch: u32,
    pq: u32,
    channels: u32,
    convs: u32,
    mode: SyncMode,
) -> CompiledPipeline {
    let mut gpu = Gpu::new(gpu_cfg.clone());
    build_conv_layer(&mut gpu, batch, pq, channels, convs, mode);
    gpu.compile().expect("freshly built conv pipeline")
}

/// Compiles one conv chain under an explicit per-edge mechanism
/// assignment (see [`build_conv_layer_mechanisms`]). Returns `None` when
/// the assignment is invalid for this chain.
#[allow(clippy::too_many_arguments)]
pub fn compile_conv_layer_mechanisms(
    gpu_cfg: &GpuConfig,
    batch: u32,
    pq: u32,
    channels: u32,
    convs: u32,
    opts: OptFlags,
    mechanisms: &[SyncMechanism],
) -> Option<CompiledPipeline> {
    let mut gpu = Gpu::new(gpu_cfg.clone());
    build_conv_layer_mechanisms(&mut gpu, batch, pq, channels, convs, opts, mechanisms)?;
    Some(gpu.compile().expect("freshly built conv pipeline"))
}

/// Spatial size used in Fig. 7 for a channel count (Table II pairs them).
pub fn pq_for_channels(channels: u32) -> u32 {
    match channels {
        64 => 56,
        128 => 28,
        256 => 14,
        _ => 7,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cusync::OptFlags;
    use cusync_sim::Session;

    fn v100() -> GpuConfig {
        GpuConfig::tesla_v100()
    }

    #[test]
    fn table2_stages_match_the_paper() {
        let resnet = resnet38();
        // 2 convs x (3+4+6+3) layers = 32 convolutions (plus stem etc. in
        // the real network).
        let convs: u32 = resnet.iter().map(|s| s.convs_per_layer * s.layers).sum();
        assert_eq!(convs, 32);
        let vgg = vgg19();
        let convs: u32 = vgg.iter().map(|s| s.convs_per_layer * s.layers).sum();
        assert_eq!(convs, 12);
    }

    #[test]
    fn conv_layer_runs_all_modes() {
        let mut session = Session::new();
        for mode in [
            SyncMode::StreamSync,
            SyncMode::CuSync(PolicyKind::Conv2DTile, OptFlags::WRT),
            SyncMode::CuSync(PolicyKind::Row, OptFlags::WRT),
        ] {
            let pipeline = compile_conv_layer(&v100(), 4, 28, 128, 2, mode);
            let report = session.run(&pipeline).unwrap();
            assert!(report.kernels.len() >= 2, "{mode}");
        }
    }

    #[test]
    fn cusync_overlaps_chained_convs() {
        let mode = SyncMode::CuSync(PolicyKind::Conv2DTile, OptFlags::WRT);
        let pipeline = compile_conv_layer(&v100(), 4, 28, 128, 2, mode);
        let report = Session::new().run(&pipeline).unwrap();
        assert!(report.kernel("conv1").start < report.kernel("conv0").end);
    }

    #[test]
    #[should_panic(expected = "Stream-K does not support Conv2D")]
    fn streamk_conv_is_rejected() {
        compile_conv_layer(&v100(), 1, 56, 64, 2, SyncMode::StreamK);
    }

    #[test]
    fn vgg_quad_layers_chain_four_convs() {
        let pipeline = compile_conv_layer(&v100(), 1, 14, 256, 4, SyncMode::StreamSync);
        let report = Session::new().run(&pipeline).unwrap();
        assert_eq!(report.kernels.len(), 4);
    }
}
