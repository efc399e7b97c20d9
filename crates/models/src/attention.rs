//! The Attention block (Fig. 2b / Fig. 5b): a five-kernel chain with
//! strided and row dependencies, KV caching, and both inference phases.
//!
//! Kernels (per-GPU shard, mp = 8, d = H/8):
//!
//! 1. `g1`: `XQKV = X x WQKV` — one fused GeMM producing `[tokens, 3d]`
//!    with the Q, K and V slices at column offsets `0`, `d`, `2d`;
//! 2. `gP`: `P = XQ x Concat(CachedK, XK)^T` — `[tokens, keys]`;
//! 3. `gR`: `R = Dropout(Softmax(P))`;
//! 4. `gT`: `T = R x Concat(CachedV, XV)` — `[tokens, d]`;
//! 5. `g2`: `XW2 = T x W2` — `[tokens, H]`.
//!
//! During prompt processing `S' = 0` and every key/value is produced by
//! `g1` in this launch; during token generation `S = 1` and only the
//! single new key/value column depends on `g1`. The `StridedSync` policy
//! groups each (Q, K, V) column-tile triple of `g1` on one semaphore —
//! the paper's `StridedTileSync` configuration.
//!
//! Attention runs timing-only: its constituent kernels are functionally
//! verified in `cusync-kernels`, and the KV-cache concatenation makes the
//! flattened buffer views non-functional by construction.

use std::sync::Arc;

use cusync::{
    launch_stream_sync, CuStage, NoSync, OptFlags, PolicyRef, RowSync, StridedSync, SyncGraph,
    SyncMechanism, TileSync,
};
use cusync_kernels::{DepPlan, GemmBuilder, GemmDims, InputDep, SoftmaxDropoutBuilder, TileShape};
use cusync_sim::{CompiledPipeline, DType, Dim3, Gpu, GpuConfig, KernelSource};
use cusync_streamk::StreamKBuilder;

use crate::mech::{fine_labels, label_policy};
use crate::modes::{PolicyKind, SyncMode};

/// Number of dependence edges in the attention graph, in the fixed order
/// `g1→gP` (xqkv), `g1→gP` (kcache), `gP→gR` (p), `gR→gT` (r), `g1→gT`
/// (vcache), `gT→g2` (t) — the length of the assignment
/// [`build_attention_mechanisms`] expects.
pub const ATTENTION_EDGES: usize = 6;

/// Producer stage index (g1 = 0, gP = 1, gR = 2, gT = 3) of each edge in
/// the [`ATTENTION_EDGES`] order.
const EDGE_PRODUCERS: [usize; ATTENTION_EDGES] = [0, 0, 1, 2, 0, 3];

/// Shape of one attention invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AttentionConfig {
    /// Hidden dimension H of the model (12288 for GPT-3, 8192 for LLaMA).
    pub hidden: u32,
    /// Tokens processed this step: `B x S` in prompt processing, `B` in
    /// token generation (S = 1).
    pub tokens: u32,
    /// Previously cached tokens S' (0 in prompt processing).
    pub cached: u32,
}

impl AttentionConfig {
    /// Prompt-processing configuration (`S' = 0`).
    pub fn prompt(hidden: u32, tokens: u32) -> Self {
        AttentionConfig {
            hidden,
            tokens,
            cached: 0,
        }
    }

    /// Token-generation configuration (`S = 1`, `B = batch`).
    pub fn generation(hidden: u32, batch: u32, cached: u32) -> Self {
        AttentionConfig {
            hidden,
            tokens: batch,
            cached,
        }
    }

    /// Per-GPU slice width d = H/8.
    pub fn d(&self) -> u32 {
        self.hidden / 8
    }

    /// Total keys visible this step: `S' + S` (token generation batches B
    /// single-token requests, so the flattened key extent is `S' + B`).
    pub fn keys(&self) -> u32 {
        self.cached + self.tokens
    }
}

const TILE_N: u32 = 256;

fn tile_for(m: u32, n: u32) -> TileShape {
    let tm = if m >= 256 {
        256
    } else {
        m.next_power_of_two().max(16)
    };
    TileShape::new(tm, TILE_N.min(n.next_power_of_two().max(64)), 32)
}

fn grid_of(m: u32, n: u32, tile: TileShape, split_k: u32) -> Dim3 {
    Dim3::new(n.div_ceil(tile.n), m.div_ceil(tile.m), split_k)
}

/// The CUTLASS-autotuner-style split-K choice: split the contraction so
/// the grid fills at least half a wave (same heuristic as
/// `cusync_models::auto_tiling`).
fn auto_z(gpu: &GpuConfig, m: u32, n: u32, tile: TileShape, occupancy: u32) -> u32 {
    let blocks = (m.div_ceil(tile.m) as u64) * (n.div_ceil(tile.n) as u64);
    if blocks == 0 {
        return 1;
    }
    ((gpu.blocks_per_wave(occupancy) / 2) / blocks).clamp(1, 4) as u32
}

/// Builds the five-kernel attention chain under `mode` into a
/// caller-provided [`Gpu`]: allocates buffers, binds the sync graph and
/// launches all kernels, without running anything.
pub fn build_attention(gpu: &mut Gpu, cfg: AttentionConfig, mode: SyncMode) {
    build_attention_inner(gpu, cfg, AttnLaunch::Mode(mode))
        .expect("mode launches are always valid");
}

/// Builds the attention chain with an explicit per-edge
/// [`SyncMechanism`] assignment (edge order documented on
/// [`ATTENTION_EDGES`]). Fine mechanisms select the producer policies;
/// coarse mechanisms gate consumer launches instead of synchronizing
/// tiles.
///
/// Returns `None` when the assignment is structurally invalid: `g1`
/// produces three of the edges (xqkv, kcache, vcache), so giving any two
/// of them *different fine* mechanisms demands two policies of one stage.
///
/// # Panics
///
/// Panics if `mechanisms.len() != ATTENTION_EDGES`.
pub fn build_attention_mechanisms(
    gpu: &mut Gpu,
    cfg: AttentionConfig,
    opts: OptFlags,
    mechanisms: &[SyncMechanism],
) -> Option<()> {
    build_attention_inner(gpu, cfg, AttnLaunch::Mechanisms(opts, mechanisms))
}

/// How [`build_attention_inner`] should synchronize the chain.
enum AttnLaunch<'a> {
    /// One of the paper's evaluation modes.
    Mode(SyncMode),
    /// An explicit per-edge mechanism assignment (cuSync graph launch).
    Mechanisms(OptFlags, &'a [SyncMechanism]),
}

fn build_attention_inner(
    gpu: &mut Gpu,
    cfg: AttentionConfig,
    launch: AttnLaunch<'_>,
) -> Option<()> {
    // Validate the mechanism assignment before allocating anything.
    let mech_labels = match &launch {
        AttnLaunch::Mechanisms(_, ms) => {
            assert_eq!(
                ms.len(),
                ATTENTION_EDGES,
                "one mechanism per attention edge"
            );
            let edges: Vec<(usize, SyncMechanism)> = EDGE_PRODUCERS
                .iter()
                .copied()
                .zip(ms.iter().copied())
                .collect();
            Some(fine_labels(5, &edges)?)
        }
        AttnLaunch::Mode(_) => None,
    };
    let gpu_cfg = &gpu.config().clone();
    let d = cfg.d();
    let h = cfg.hidden;
    let m = cfg.tokens;
    let keys = cfg.keys();

    // Buffers (timing-only).
    let x = gpu.alloc("x", (m * h) as usize, DType::F16);
    let wqkv = gpu.alloc("wqkv", (h * 3 * d) as usize, DType::F16);
    let xqkv = gpu.alloc("xqkv", (m * 3 * d) as usize, DType::F16);
    let kcache = gpu.alloc("kcache", (d * keys) as usize, DType::F16);
    let p = gpu.alloc("p", (m * keys) as usize, DType::F16);
    let r = gpu.alloc("r", (m * keys) as usize, DType::F16);
    let vcache = gpu.alloc("vcache", (keys * d) as usize, DType::F16);
    let t_buf = gpu.alloc("t", (m * d) as usize, DType::F16);
    let w2 = gpu.alloc("w2", (d * h) as usize, DType::F16);
    let out = gpu.alloc("out", (m * h) as usize, DType::F16);

    // Shapes and tilings. Split-K factors follow the same autotuner
    // heuristic as the MLP tilings, so the StreamSync baseline is as
    // strong as CUTLASS would make it.
    let dims1 = GemmDims::new(m, 3 * d, h);
    let tile1 = TileShape::new(tile_for(m, 3 * d).m, TILE_N, 32);
    let grid1 = grid_of(m, 3 * d, tile1, auto_z(gpu_cfg, m, 3 * d, tile1, 2));
    let d_tiles = d / TILE_N; // 6 for GPT-3, 4 for LLaMA

    let dims_p = GemmDims::new(m, keys, d);
    let tile_p = tile_for(m, keys);
    let grid_p = grid_of(m, keys, tile_p, auto_z(gpu_cfg, m, keys, tile_p, 2));

    let tile_r = TileShape::new(tile_p.m.min(64), 256.min(keys.next_power_of_two()), 1);
    let grid_r = Dim3::new(keys.div_ceil(tile_r.n), m.div_ceil(tile_r.m), 1);

    let dims_t = GemmDims::new(m, d, keys);
    let tile_t = tile_for(m, d);
    let grid_t = grid_of(m, d, tile_t, auto_z(gpu_cfg, m, d, tile_t, 2));

    let dims2 = GemmDims::new(m, h, d);
    let tile2 = tile_for(m, h);
    let grid2 = grid_of(m, h, tile2, auto_z(gpu_cfg, m, h, tile2, 2));

    // Dependency plans.
    // gP's A (the XQ slice): chunk c over d -> g1 column tile c.
    let a_dep_p = InputDep {
        prod_grid: grid1,
        plan: DepPlan::RowAligned { x_offset_tiles: 0 },
    };
    // gP's B (keys): consumer tile (x = key tile, y) needs the K-slice
    // column tiles (offset d_tiles) of the g1 rows holding the *new* keys.
    let cached = cfg.cached;
    let prod_tile_m = m.div_ceil(grid1.y);
    let b_dep_p = InputDep {
        prod_grid: grid1,
        plan: DepPlan::Custom(Arc::new(move |tile: Dim3, chunk: u32| {
            let key_lo = tile.x * tile_p.n;
            let key_hi = (key_lo + tile_p.n).min(keys);
            if key_hi <= cached {
                return Vec::new(); // fully cached, no dependence
            }
            let row_lo = key_lo.max(cached) - cached;
            let row_hi = key_hi - cached;
            let y_lo = row_lo / prod_tile_m;
            let y_hi = (row_hi - 1) / prod_tile_m;
            (y_lo..=y_hi)
                .map(|y| Dim3::new(d_tiles + chunk, y, 0))
                .collect()
        })),
    };
    // gR depends on whole rows of P.
    let dep_r = InputDep {
        prod_grid: grid_p,
        plan: DepPlan::RowAligned { x_offset_tiles: 0 },
    };
    // gT's A: rows of R; chunk c over keys -> gR column tile c.
    let a_dep_t = InputDep {
        prod_grid: grid_r,
        plan: DepPlan::RowAligned { x_offset_tiles: 0 },
    };
    // gT's B (values): chunk c over keys (aligned with gR's column tiles);
    // new-value rows need the V-slice column tiles (offset 2*d_tiles) of g1.
    let key_chunk = keys.div_ceil(grid_r.x.max(1)).max(1);
    let b_dep_t = InputDep {
        prod_grid: grid1,
        plan: DepPlan::Custom(Arc::new(move |_tile: Dim3, chunk: u32| {
            let key_lo = chunk * key_chunk;
            let key_hi = (key_lo + key_chunk).min(keys);
            if key_hi <= cached || key_lo >= keys {
                return Vec::new();
            }
            let row_lo = key_lo.max(cached) - cached;
            let row_hi = key_hi - cached;
            let y_lo = row_lo / prod_tile_m;
            let y_hi = (row_hi - 1) / prod_tile_m;
            (y_lo..=y_hi)
                .flat_map(|y| (0..d_tiles).map(move |t| Dim3::new(2 * d_tiles + t, y, 0)))
                .collect()
        })),
    };
    // g2's A: rows of T; chunk c over d -> gT column tile c.
    let a_dep_2 = InputDep {
        prod_grid: grid_t,
        plan: DepPlan::RowAligned { x_offset_tiles: 0 },
    };

    let g1 = |stage| {
        let mut b = GemmBuilder::new("g1", dims1, tile1)
            .operands(x, wqkv, xqkv)
            .split_k(grid1.z)
            .occupancy(2);
        if let Some(stage) = stage {
            b = b.stage(stage);
        }
        b.build(gpu_cfg).expect("attention kernel operands set")
    };
    let g_p = |stage: Option<_>| {
        let mut b = GemmBuilder::new("gP", dims_p, tile_p)
            .operands(xqkv, kcache, p)
            .split_k(grid_p.z)
            .occupancy(2);
        if let Some(stage) = stage {
            b = b
                .stage(stage)
                .a_dep(a_dep_p.clone(), d_tiles)
                .b_dep(b_dep_p.clone(), d_tiles);
        }
        b.build(gpu_cfg).expect("attention kernel operands set")
    };
    let g_r = |stage: Option<_>| {
        let mut b = SoftmaxDropoutBuilder::new("gR", m, keys, tile_r)
            .operands(p, r)
            .dropout(0.9, 0xA77E);
        if let Some(stage) = stage {
            b = b.stage(stage).input_dep(dep_r.clone());
        }
        b.build(gpu_cfg).expect("attention kernel operands set")
    };
    let g_t = |stage: Option<_>| {
        let mut b = GemmBuilder::new("gT", dims_t, tile_t)
            .operands(r, vcache, t_buf)
            .split_k(grid_t.z)
            .occupancy(2);
        if let Some(stage) = stage {
            b = b
                .stage(stage)
                .a_dep(a_dep_t.clone(), grid_r.x)
                .b_dep(b_dep_t.clone(), grid_r.x);
        }
        b.build(gpu_cfg).expect("attention kernel operands set")
    };
    let g2 = |stage: Option<_>| {
        let mut b = GemmBuilder::new("g2", dims2, tile2)
            .operands(t_buf, w2, out)
            .split_k(grid2.z)
            .occupancy(2);
        if let Some(stage) = stage {
            b = b.stage(stage).a_dep(a_dep_2.clone(), grid_t.x);
        }
        b.build(gpu_cfg).expect("attention kernel operands set")
    };

    // The cuSync graph launch, shared by policy modes (classic fine sync
    // on every edge) and explicit per-edge mechanism assignments.
    let cusync_graph = |gpu: &mut Gpu,
                        policies: [PolicyRef; 4],
                        mechs: Option<&[SyncMechanism]>,
                        opts: OptFlags| {
        let [p1, pp, pr, pt] = policies;
        let mut graph = SyncGraph::new();
        let s1 = graph.add_stage(CuStage::new("g1", grid1).policy_ref(p1).opts(opts));
        let sp = graph.add_stage(CuStage::new("gP", grid_p).policy_ref(pp).opts(opts));
        let sr = graph.add_stage(CuStage::new("gR", grid_r).policy_ref(pr).opts(opts));
        let st = graph.add_stage(CuStage::new("gT", grid_t).policy_ref(pt).opts(opts));
        let s2 = graph.add_stage(CuStage::new("g2", grid2).policy(NoSync).opts(opts));
        let edges = [
            (s1, sp, xqkv, "xqkv dep"),
            (s1, sp, kcache, "kcache dep"),
            (sp, sr, p, "p dep"),
            (sr, st, r, "r dep"),
            (s1, st, vcache, "vcache dep"),
            (st, s2, t_buf, "t dep"),
        ];
        for (i, (prod, cons, buffer, what)) in edges.into_iter().enumerate() {
            match mechs {
                Some(ms) => graph.dependency_via(prod, cons, buffer, ms[i]),
                None => graph.dependency(prod, cons, buffer),
            }
            .expect(what);
        }
        let bound = graph.bind(gpu).expect("bindable attention graph");
        bound
            .launch(gpu, s1, Arc::new(g1(Some(Arc::clone(bound.stage(s1))))))
            .expect("launch g1");
        bound
            .launch(gpu, sp, Arc::new(g_p(Some(Arc::clone(bound.stage(sp))))))
            .expect("launch gP");
        bound
            .launch(gpu, sr, Arc::new(g_r(Some(Arc::clone(bound.stage(sr))))))
            .expect("launch gR");
        bound
            .launch(gpu, st, Arc::new(g_t(Some(Arc::clone(bound.stage(st))))))
            .expect("launch gT");
        bound
            .launch(gpu, s2, Arc::new(g2(Some(Arc::clone(bound.stage(s2))))))
            .expect("launch g2");
    };

    match launch {
        AttnLaunch::Mode(SyncMode::StreamSync) => {
            launch_stream_sync(
                gpu,
                [
                    Arc::new(g1(None)) as Arc<dyn KernelSource>,
                    Arc::new(g_p(None)),
                    Arc::new(g_r(None)),
                    Arc::new(g_t(None)),
                    Arc::new(g2(None)),
                ],
            );
        }
        AttnLaunch::Mode(SyncMode::StreamK) => {
            // Stream-K applies to the GeMMs; the softmax stays classic.
            let stream = gpu.create_stream(0);
            StreamKBuilder::new("g1", dims1, tile1)
                .operands(x, wqkv, xqkv)
                .occupancy(2)
                .build()
                .expect("attention stream-k operands set")
                .launch(gpu, stream);
            StreamKBuilder::new("gP", dims_p, tile_p)
                .operands(xqkv, kcache, p)
                .occupancy(2)
                .build()
                .expect("attention stream-k operands set")
                .launch(gpu, stream);
            gpu.launch(stream, Arc::new(g_r(None)));
            StreamKBuilder::new("gT", dims_t, tile_t)
                .operands(r, vcache, t_buf)
                .occupancy(2)
                .build()
                .expect("attention stream-k operands set")
                .launch(gpu, stream);
            StreamKBuilder::new("g2", dims2, tile2)
                .operands(t_buf, w2, out)
                .occupancy(2)
                .build()
                .expect("attention stream-k operands set")
                .launch(gpu, stream);
        }
        AttnLaunch::Mode(SyncMode::CuSync(kind, opts)) => {
            // "StridedTileSync+WRT synchronizes the first GeMM using
            // StridedSync, and all other kernels using TileSync."
            let g1_policy: PolicyRef = match kind {
                PolicyKind::Row => Arc::new(RowSync),
                PolicyKind::Strided => Arc::new(StridedSync::new(d_tiles, 3)),
                _ => Arc::new(TileSync),
            };
            let mid_policy = || -> PolicyRef {
                match kind {
                    PolicyKind::Row => Arc::new(RowSync),
                    _ => Arc::new(TileSync),
                }
            };
            cusync_graph(
                gpu,
                [g1_policy, mid_policy(), mid_policy(), mid_policy()],
                None,
                opts,
            );
        }
        AttnLaunch::Mechanisms(opts, ms) => {
            let labels = mech_labels.unwrap();
            cusync_graph(
                gpu,
                [
                    label_policy(labels[0]),
                    label_policy(labels[1]),
                    label_policy(labels[2]),
                    label_policy(labels[3]),
                ],
                Some(ms),
                opts,
            );
        }
    }
    Some(())
}

/// Compiles one attention chain into an immutable, reusable
/// [`CompiledPipeline`]: build once, run any number of times through a
/// [`Session`](cusync_sim::Session).
pub fn compile_attention(
    gpu_cfg: &GpuConfig,
    cfg: AttentionConfig,
    mode: SyncMode,
) -> CompiledPipeline {
    let mut gpu = Gpu::new(gpu_cfg.clone());
    build_attention(&mut gpu, cfg, mode);
    gpu.compile().expect("freshly built attention pipeline")
}

/// Compiles one attention chain under an explicit per-edge mechanism
/// assignment (see [`build_attention_mechanisms`]). Returns `None` when
/// the assignment is invalid for this graph.
pub fn compile_attention_mechanisms(
    gpu_cfg: &GpuConfig,
    cfg: AttentionConfig,
    opts: OptFlags,
    mechanisms: &[SyncMechanism],
) -> Option<CompiledPipeline> {
    let mut gpu = Gpu::new(gpu_cfg.clone());
    build_attention_mechanisms(&mut gpu, cfg, opts, mechanisms)?;
    Some(gpu.compile().expect("freshly built attention pipeline"))
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
    fn prompt_phase_runs_all_modes() {
        let cfg = AttentionConfig::prompt(12288, 512);
        let mut session = Session::new();
        for mode in [
            SyncMode::StreamSync,
            SyncMode::StreamK,
            SyncMode::CuSync(PolicyKind::Strided, OptFlags::WRT),
            SyncMode::CuSync(PolicyKind::Tile, OptFlags::WRT),
            SyncMode::CuSync(PolicyKind::Row, OptFlags::WRT),
        ] {
            let report = session.run(&compile_attention(&v100(), cfg, mode)).unwrap();
            assert!(report.total > cusync_sim::SimTime::ZERO, "{mode}");
        }
    }

    #[test]
    fn generation_phase_runs_with_kv_cache() {
        let cfg = AttentionConfig::generation(12288, 4, 1024);
        assert_eq!(cfg.keys(), 1028);
        let tile = SyncMode::CuSync(PolicyKind::Tile, OptFlags::WRT);
        let report = Session::new()
            .run(&compile_attention(&v100(), cfg, tile))
            .unwrap();
        assert!(report.total > cusync_sim::SimTime::ZERO);
    }

    #[test]
    fn stream_sync_serializes_the_chain() {
        let cfg = AttentionConfig::prompt(12288, 512);
        let report = Session::new()
            .run(&compile_attention(&v100(), cfg, SyncMode::StreamSync))
            .unwrap();
        assert!(report.kernel("gP").start >= report.kernel("g1").end);
        assert!(report.kernel("gR").start >= report.kernel("gP").end);
        assert!(report.kernel("g2").start >= report.kernel("gT").end);
    }

    #[test]
    fn conflicting_fine_labels_on_g1_are_invalid() {
        let cfg = AttentionConfig::prompt(12288, 512);
        // g1 produces xqkv (edge 0) and kcache (edge 1); demanding
        // TileSync for one and RowSync for the other asks g1 for two
        // policies at once.
        let mut ms = [SyncMechanism::TileSync; ATTENTION_EDGES];
        ms[1] = SyncMechanism::RowSync;
        assert!(compile_attention_mechanisms(&v100(), cfg, OptFlags::WRT, &ms).is_none());
        // Making the kcache edge coarse resolves the conflict.
        ms[1] = SyncMechanism::Pdl;
        assert!(compile_attention_mechanisms(&v100(), cfg, OptFlags::WRT, &ms).is_some());
    }

    #[test]
    fn uniform_mechanism_assignments_run() {
        let cfg = AttentionConfig::prompt(12288, 512);
        let mut session = Session::new();
        for m in SyncMechanism::ALL {
            let ms = [m; ATTENTION_EDGES];
            let pipeline = compile_attention_mechanisms(&v100(), cfg, OptFlags::WRT, &ms)
                .expect("uniform assignments are valid");
            let report = session
                .run(&pipeline)
                .expect("attention mechanism run deadlocked");
            assert!(report.total > cusync_sim::SimTime::ZERO, "{m}");
        }
    }

    #[test]
    fn cusync_overlaps_the_chain_and_wins() {
        let cfg = AttentionConfig::prompt(12288, 1024);
        let mut session = Session::new();
        let mut time = |mode| {
            let pipeline = compile_attention(&v100(), cfg, mode);
            session.run(&pipeline).unwrap().total
        };
        let base = time(SyncMode::StreamSync);
        let strided = time(SyncMode::CuSync(PolicyKind::Strided, OptFlags::WRT));
        assert!(strided < base, "Strided {strided} vs StreamSync {base}");
    }
}
