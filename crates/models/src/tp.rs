//! Tensor-parallel transformer sublayers on the multi-device simulator.
//!
//! With mp-degree tensor parallelism (Megatron-style), every device holds
//! a `1/mp` shard of each sublayer's weights: the sublayer runs its two
//! shard GEMMs locally, then an allreduce combines the partial outputs
//! before the *next* sublayer's first GEMM can consume them. Under coarse
//! stream synchronization that allreduce fully serializes the layer
//! boundary — the dilution behind the paper's Fig. 6 → Fig. 8 gap.
//!
//! This module builds the boundary both ways on an N-device cluster:
//!
//! - [`TpSchedule::Serialized`] — shard GEMMs, the simulated ring
//!   allreduce ([`crate::launch_ring_allreduce`]) and the next layer's
//!   first GEMM all stream-ordered on each device: the classic baseline.
//! - [`TpSchedule::Overlap`] — the next layer's GEMM is launched on a
//!   second stream behind a cuSync-style **wait-kernel** (Section III-B of
//!   the paper) gated on the first allreduce chunk, and each of its tiles
//!   waits only for the chunk-final semaphores covering its input rows.
//!   Chunks become final in ring order across the all-gather phase, so the
//!   first tiles compute under the tail of the collective.
//!
//! Both schedules price the next-layer GEMM with the identical op stream
//! (modulo the waits), so their difference measures synchronization
//! granularity alone. `tests/bench_golden.rs` sweeps the two across
//! (workload, tokens, devices) and checks the result against the committed
//! `BENCH_PR3.json`.

use std::sync::Arc;

use cusync_kernels::timing::{gemm_flops, mma_cycles};
use cusync_kernels::{GemmBuilder, GemmDims};
use cusync_sim::{
    ClusterConfig, CompiledPipeline, DType, Dim3, FixedKernel, Gpu, IndexedKernel, Op, StreamId,
    MAX_OCCUPANCY,
};

use crate::allreduce::launch_ring_allreduce;
use crate::tiling::auto_tiling;

/// Which transformer sublayer a tensor-parallel layer models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TpKind {
    /// MLP block: `X·W1` (column shard, width `4H/mp`) then `·W2` (row
    /// shard) producing partial sums of shape `tokens × H`.
    Mlp,
    /// Attention block: fused QKV projection (column shard, width
    /// `3H/mp`), the per-device attention core, and the output projection
    /// (row shard) producing partial sums of shape `tokens × H`.
    Attention,
}

/// How the layer-boundary allreduce synchronizes with its neighbours.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TpSchedule {
    /// Allreduce and next-layer GEMM fully stream-ordered (the baseline).
    Serialized,
    /// Next-layer GEMM tiles wait per allreduce chunk behind a
    /// wait-kernel: fine-grained cross-device synchronization.
    Overlap,
}

/// Shape of one tensor-parallel sublayer plus the first GEMM of its
/// successor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TpLayerConfig {
    /// Which sublayer.
    pub kind: TpKind,
    /// Hidden dimension H.
    pub hidden: u32,
    /// Total tokens (`B × S` prompt or `B` generation).
    pub tokens: u32,
}

/// A GPT-3-145B-class tensor-parallel MLP boundary.
pub fn tp_mlp(hidden: u32, tokens: u32) -> TpLayerConfig {
    TpLayerConfig {
        kind: TpKind::Mlp,
        hidden,
        tokens,
    }
}

/// A tensor-parallel Attention boundary.
pub fn tp_attention(hidden: u32, tokens: u32) -> TpLayerConfig {
    TpLayerConfig {
        kind: TpKind::Attention,
        hidden,
        tokens,
    }
}

impl TpLayerConfig {
    /// Column width of the first shard GEMM at mp-degree `mp`.
    fn shard_width(&self, mp: u32) -> u32 {
        let w = match self.kind {
            TpKind::Mlp => 4 * self.hidden / mp,
            TpKind::Attention => 3 * self.hidden / mp,
        };
        w.max(64)
    }

    /// Inner dimension of the second shard GEMM at mp-degree `mp`.
    fn shard_k(&self, mp: u32) -> u32 {
        let k = match self.kind {
            TpKind::Mlp => 4 * self.hidden / mp,
            TpKind::Attention => self.hidden / mp,
        };
        k.max(64)
    }
}

/// Builds one tensor-parallel layer boundary across every device of the
/// cluster `gpu` models: shard GEMMs, the simulated ring allreduce of the
/// `tokens × hidden` partial sums, and the next layer's first GEMM under
/// the chosen [`TpSchedule`]. With a single device there is no allreduce
/// and the schedules coincide.
///
/// # Panics
///
/// Panics if `cfg` is degenerate (`tokens == 0` or `hidden == 0` — the
/// shard GEMM builders reject zero-extent shapes).
pub fn build_tp_layer(gpu: &mut Gpu, cfg: TpLayerConfig, schedule: TpSchedule) {
    let n = gpu.num_devices();
    let gpu_cfg = gpu.config().clone();
    let h = cfg.hidden;
    let tokens = cfg.tokens;
    let width = cfg.shard_width(n);
    let k2 = cfg.shard_k(n);
    // Shard GEMMs run 128-wide tiles at occupancy >= 2: with two blocks
    // resident per SM, the overlap schedule's wait-kernel (a 1/16-SM
    // spinner) displaces at most half a block instead of evicting a whole
    // occupancy-1 block for the entire shard phase.
    let shard_tiling = |m: u32, cols: u32| {
        let mut t = auto_tiling(&gpu_cfg, m, cols);
        t.tile.n = t.tile.n.min(128);
        t.occupancy = cusync_kernels::timing::occupancy_for_tile(t.tile.m, t.tile.n);
        t
    };
    let t1 = shard_tiling(tokens, width);
    let t2 = shard_tiling(tokens, h);

    let mains: Vec<StreamId> = (0..n).map(|d| gpu.create_stream_on(d, 0)).collect();

    for d in 0..n {
        let mut a =
            |name: &str, len: u32| gpu.alloc(&format!("{name}[{d}]"), len as usize, DType::F16);
        let x = a("x", tokens * h);
        let w1 = a("w1", h * width);
        let xw1 = a("xw1", tokens * width);
        let w2 = a("w2", k2 * h);
        let partial = a("partial", tokens * h);

        let gemm1 = GemmBuilder::new(
            &format!("shard1[{d}]"),
            GemmDims::new(tokens, width, h),
            t1.tile,
        )
        .operands(x, w1, xw1)
        .split_k(t1.split_k)
        .occupancy(t1.occupancy)
        .build(&gpu_cfg)
        .unwrap_or_else(|e| panic!("TP shard1: {e}"));
        gpu.launch(mains[d as usize], Arc::new(gemm1));

        if cfg.kind == TpKind::Attention {
            // The per-device attention core (scores, softmax, values):
            // priced as one streaming pass over the shard's Q/K/V.
            let tokens_per_block = 64u32;
            let blocks = tokens.div_ceil(tokens_per_block).max(1);
            let kv = k2;
            let bytes = 3 * tokens_per_block as u64 * kv as u64 * 2;
            let cycles = mma_cycles(
                &gpu_cfg,
                2,
                4 * tokens_per_block as u64 * tokens.min(2048) as u64 * kv as u64 / 64,
            );
            gpu.launch(
                mains[d as usize],
                Arc::new(FixedKernel::new(
                    &format!("attn_core[{d}]"),
                    Dim3::linear(blocks),
                    2,
                    vec![Op::main_step(bytes, cycles)],
                )),
            );
        }

        let gemm2 = GemmBuilder::new(
            &format!("shard2[{d}]"),
            GemmDims::new(tokens, h, k2),
            t2.tile,
        )
        .operands(xw1, w2, partial)
        .split_k(t2.split_k)
        .occupancy(t2.occupancy)
        .build(&gpu_cfg)
        .unwrap_or_else(|e| panic!("TP shard2: {e}"));
        gpu.launch(mains[d as usize], Arc::new(gemm2));
    }

    // The collective: one ring kernel per device, stream-ordered after
    // that device's shard2 (the allreduce consumes the partial sums).
    let ar_bytes = tokens as u64 * h as u64 * 2;
    let ar = launch_ring_allreduce(gpu, "allreduce", ar_bytes, &mains);

    // The next layer's first GEMM: tokens × width over k = H, reading the
    // allreduced activations. Identical op stream under both schedules —
    // only the waits differ. Its M-tiles are sized to the ring's chunk
    // granularity (one chunk covers `tokens / n` activation rows), so the
    // tiles of an early-arriving chunk are real, independently schedulable
    // work instead of all tiles spanning — and waiting for — the last
    // chunk.
    let row_bytes = h as u64 * 2;
    let mut tn = auto_tiling(&gpu_cfg, tokens, width);
    let rows_per_chunk = tokens.div_ceil(n).max(1);
    tn.tile.m = rows_per_chunk
        .next_power_of_two()
        .clamp(32, 256)
        .min(tokens.next_power_of_two());
    tn.occupancy = cusync_kernels::timing::occupancy_for_tile(tn.tile.m, tn.tile.n);
    let grid = Dim3::new(width.div_ceil(tn.tile.n), tokens.div_ceil(tn.tile.m), 1);
    for d in 0..n {
        let overlap = n > 1 && schedule == TpSchedule::Overlap;
        let stream = if overlap {
            let aux = gpu.create_stream_on(d, 0);
            // The paper's wait-kernel: a minimal-footprint spinner that
            // holds the next GEMM's launch until the collective's first
            // chunk lands, so its tiles cannot flood the SMs while the
            // producer chain still needs them (Section III-B).
            let first_chunk = (d + 1) % n;
            gpu.launch(
                aux,
                Arc::new(FixedKernel::new(
                    &format!("next1.wait[{d}]"),
                    Dim3::linear(1),
                    MAX_OCCUPANCY,
                    vec![Op::wait(ar.chunk_final[d as usize], first_chunk, 1)],
                )),
            );
            aux
        } else {
            mains[d as usize]
        };
        let finals = ar.chunk_final.get(d as usize).copied();
        let next = IndexedKernel::new(&format!("next1[{d}]"), grid, tn.occupancy, |idx| {
            let r0 = idx.y * tn.tile.m;
            let r1 = ((idx.y + 1) * tn.tile.m).min(tokens);
            let c0 = idx.x * tn.tile.n;
            let c1 = ((idx.x + 1) * tn.tile.n).min(width);
            let (rows, cols) = (r1 - r0, c1 - c0);
            let mut ops = Vec::new();
            if overlap {
                let finals = finals.expect("overlap requires a collective");
                // Chunks covering the tile's input bytes [r0*row, r1*row):
                // the upper bound uses the *last byte* of the last row, so
                // a chunk boundary falling mid-row still waits for both
                // chunks.
                let lo = ar.chunk_of(r0 as u64 * row_bytes);
                let hi = ar.chunk_of(r1 as u64 * row_bytes - 1);
                for c in lo..=hi {
                    ops.push(Op::wait(finals, c, 1));
                }
            }
            let bytes = rows as u64 * h as u64 * 2 + h as u64 * cols as u64 * 2;
            let flops = gemm_flops(rows, cols, h);
            ops.push(Op::main_step(
                bytes,
                mma_cycles(&gpu_cfg, tn.occupancy, flops),
            ));
            ops.push(Op::write(rows as u64 * cols as u64 * 2));
            ops
        });
        gpu.launch(stream, Arc::new(next));
    }
}

/// Compiles one tensor-parallel layer into an immutable, reusable
/// [`CompiledPipeline`] — the session layer is device-count-agnostic, so
/// a multi-device pipeline runs through the same `Session` machinery as
/// a single-GPU one.
pub fn compile_tp_layer(
    cluster: &ClusterConfig,
    cfg: TpLayerConfig,
    schedule: TpSchedule,
) -> CompiledPipeline {
    let mut gpu = Gpu::new_cluster(cluster.clone());
    build_tp_layer(&mut gpu, cfg, schedule);
    gpu.compile().expect("freshly built TP pipeline")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cusync_sim::Session;

    fn dgx(n: u32) -> ClusterConfig {
        ClusterConfig::dgx_v100(n)
    }

    #[test]
    fn serialized_layer_orders_collective_between_gemms() {
        let pipeline = compile_tp_layer(&dgx(4), tp_mlp(8192, 512), TpSchedule::Serialized);
        let report = Session::new().run(&pipeline).unwrap();
        for d in 0..4 {
            let ar = report.kernel(&format!("allreduce[{d}]"));
            assert!(ar.start >= report.kernel(&format!("shard2[{d}]")).end);
            assert!(report.kernel(&format!("next1[{d}]")).start >= ar.end);
        }
    }

    #[test]
    fn overlap_starts_next_gemm_under_the_collective_tail() {
        let pipeline = compile_tp_layer(&dgx(4), tp_mlp(8192, 512), TpSchedule::Overlap);
        let report = Session::new().run(&pipeline).unwrap();
        let mut overlapped = 0;
        for d in 0..4 {
            let ar = report.kernel(&format!("allreduce[{d}]"));
            if report.kernel(&format!("next1[{d}]")).start < ar.end {
                overlapped += 1;
            }
        }
        assert!(
            overlapped >= 3,
            "next-layer GEMMs should start before their allreduce finishes \
             ({overlapped}/4 did)"
        );
    }

    #[test]
    fn overlap_beats_serialized_for_mlp_and_attention() {
        let mut session = Session::new();
        for cfg in [tp_mlp(8192, 512), tp_attention(8192, 512)] {
            let mut time = |schedule| {
                let pipeline = compile_tp_layer(&dgx(4), cfg, schedule);
                session.run(&pipeline).unwrap().total
            };
            let base = time(TpSchedule::Serialized);
            let gain = crate::improvement_pct(base, time(TpSchedule::Overlap));
            assert!(gain > 0.0, "{cfg:?}: overlap should win, got {gain:.2}%");
        }
    }

    #[test]
    fn non_divisible_shapes_wait_for_both_straddled_chunks() {
        // 3 devices over tokens*hidden*2 bytes that don't divide by 3: a
        // ring-chunk boundary falls mid-row, so boundary tiles must wait
        // on two chunk-final flags. The run must stay deadlock-free and
        // engine-invariant, and still not lose to the serialized path by
        // more than launch noise.
        let cluster = ClusterConfig::dgx_v100(3);
        let cfg = tp_mlp(4096, 320);
        let mut optimized = Session::new();
        let mut reference = Session::with_mode(cusync_sim::EngineMode::Reference);
        for schedule in [TpSchedule::Serialized, TpSchedule::Overlap] {
            let pipeline = compile_tp_layer(&cluster, cfg, schedule);
            let opt = optimized.run(&pipeline).expect("TP layer deadlocked");
            let reference = reference.run(&pipeline).expect("TP layer deadlocked");
            assert_eq!(opt.kernels, reference.kernels, "{schedule:?}");
        }
    }

    #[test]
    fn single_device_schedules_coincide() {
        let cfg = tp_mlp(4096, 256);
        let mut session = Session::new();
        let mut time = |schedule| {
            let pipeline = compile_tp_layer(&dgx(1), cfg, schedule);
            session.run(&pipeline).unwrap().total
        };
        assert_eq!(time(TpSchedule::Serialized), time(TpSchedule::Overlap));
    }

    #[test]
    fn attention_layer_has_a_core_kernel_per_device() {
        let pipeline = compile_tp_layer(&dgx(2), tp_attention(4096, 256), TpSchedule::Serialized);
        let report = Session::new().run(&pipeline).unwrap();
        for d in 0..2 {
            let core = report.kernel(&format!("attn_core[{d}]"));
            assert_eq!(core.device, d);
            assert!(core.start >= report.kernel(&format!("shard1[{d}]")).end);
        }
    }
}
