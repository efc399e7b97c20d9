//! Acceptance checks for the paper's headline claims, executed against
//! the V100 model.

use cusync::OptFlags;
use cusync_bench::overhead_experiment;
use cusync_models::{
    compile_attention, compile_conv_layer, compile_mlp, gpt3_mlp_tiling, improvement_pct,
    pq_for_channels, AttentionConfig, MlpModel, PolicyKind, SyncMode,
};
use cusync_sim::stats::{utilization, waves};
use cusync_sim::{GpuConfig, Session};

fn v100() -> GpuConfig {
    GpuConfig::tesla_v100()
}

/// Claim (Table I): the MLP GeMM grids yield 1.2 waves / 60% utilization
/// at batch 256-512 and 2.4 waves / 80% at 1024.
#[test]
fn table1_waves_and_utilization_reproduce_exactly() {
    let cases = [(256u32, 1.2, 0.60), (512, 1.2, 0.60), (1024, 2.4, 0.80)];
    for (bs, expect_waves, expect_util) in cases {
        let t = gpt3_mlp_tiling(bs);
        let blocks =
            (bs.div_ceil(t.gemm1.tile.m) * (6144 / t.gemm1.tile.n) * t.gemm1.split_k) as u64;
        let w = waves(blocks, t.gemm1.occupancy, 80);
        assert!((w - expect_waves).abs() < 1e-9, "waves at {bs}: {w}");
        assert!((utilization(w) - expect_util).abs() < 1e-9);
    }
}

/// Claim 1: fine-grained sync beats StreamSync when kernels end in partial
/// waves; the gain shrinks as waves grow (Table IV row 2048 < row 512).
#[test]
fn gains_track_partial_wave_fraction() {
    let gpu = v100();
    let mut session = Session::new();
    let mut time = |bs, mode| {
        let pipeline = compile_mlp(&gpu, MlpModel::Gpt3, bs, mode);
        session.run(&pipeline).unwrap().total
    };
    let tile = SyncMode::CuSync(PolicyKind::Tile, OptFlags::WRT);
    let mut gain = |bs| improvement_pct(time(bs, SyncMode::StreamSync), time(bs, tile));
    let g256 = gain(256);
    let g512 = gain(512);
    let g2048 = gain(2048);
    assert!(g256 > 10.0, "expected >10% at 256, got {g256:.1}%");
    assert!(g512 > 10.0, "expected >10% at 512, got {g512:.1}%");
    assert!(
        g2048 < g512,
        "2048 ({g2048:.1}%) should gain less than 512 ({g512:.1}%)"
    );
    assert!(g2048 > 0.0, "still positive at 2048, got {g2048:.1}%");
}

/// Claim 2: TileSync wins for small grids, RowSync is competitive for
/// large grids (Section V-E1: RowSync reduces semaphore traffic).
#[test]
fn policy_ranking_depends_on_grid_size() {
    let gpu = v100();
    let mut session = Session::new();
    let mut t = |bs, kind| {
        let mode = SyncMode::CuSync(kind, OptFlags::WRT);
        session
            .run(&compile_mlp(&gpu, MlpModel::Gpt3, bs, mode))
            .unwrap()
            .total
    };
    // Small: TileSync at least as good as RowSync.
    assert!(t(64, PolicyKind::Tile) <= t(64, PolicyKind::Row));
    // Large: RowSync within 5% of TileSync (fewer sync operations
    // compensate the coarser granularity).
    let row = t(2048, PolicyKind::Row).as_picos() as f64;
    let tile = t(2048, PolicyKind::Tile).as_picos() as f64;
    assert!(row <= tile * 1.05, "RowSync {row} vs TileSync {tile}");
}

/// Claim 3: for Attention prompt processing, StridedSync (grouping the
/// Q/K/V slices) is the best cuSync policy.
#[test]
fn strided_sync_wins_attention_prompt() {
    let gpu = v100();
    let cfg = AttentionConfig::prompt(12288, 1024);
    let mut session = Session::new();
    let mut time = |mode| {
        session
            .run(&compile_attention(&gpu, cfg, mode))
            .unwrap()
            .total
    };
    let base = time(SyncMode::StreamSync);
    let mut gain = |kind| improvement_pct(base, time(SyncMode::CuSync(kind, OptFlags::WRT)));
    let strided = gain(PolicyKind::Strided);
    let row = gain(PolicyKind::Row);
    assert!(
        strided > 0.0,
        "StridedSync should improve, got {strided:.1}%"
    );
    assert!(
        strided >= row - 0.5,
        "StridedSync ({strided:.1}%) should be at least RowSync ({row:.1}%)"
    );
}

/// Claim 4: each W/R/T optimization monotonically reduces time for small
/// grids (Table V(a), within measurement tolerance).
#[test]
fn optimization_ladder_is_monotone_for_small_grids() {
    let gpu = v100();
    let mut session = Session::new();
    let mut t = |opts| {
        let mode = SyncMode::CuSync(PolicyKind::Tile, opts);
        let pipeline = compile_mlp(&gpu, MlpModel::Gpt3, 64, mode);
        session.run(&pipeline).unwrap().total.as_picos()
    };
    let vanilla = t(OptFlags::NONE);
    let r = t(OptFlags::R);
    let wr = t(OptFlags::WR);
    let wrt = t(OptFlags::WRT);
    let tolerance = vanilla / 100; // 1%
    assert!(r <= vanilla + tolerance, "+R {r} vs vanilla {vanilla}");
    assert!(wr <= r + tolerance, "+WR {wr} vs +R {r}");
    assert!(wrt <= wr + tolerance, "+WRT {wrt} vs +WR {wr}");
    assert!(wrt < vanilla, "full ladder must win overall");
}

/// Claim 5: cuSync >= Stream-K on large-grid GeMMs, and cuSync applies to
/// Conv2D where Stream-K cannot.
#[test]
fn cusync_beats_streamk_on_multi_wave_gemms() {
    let gpu = v100();
    let mut session = Session::new();
    for bs in [1024u32, 2048] {
        let mut time = |mode| {
            let pipeline = compile_mlp(&gpu, MlpModel::Gpt3, bs, mode);
            session.run(&pipeline).unwrap().total
        };
        let base = time(SyncMode::StreamSync);
        let cusync = improvement_pct(
            base,
            time(SyncMode::CuSync(PolicyKind::Tile, OptFlags::WRT)),
        );
        let streamk = improvement_pct(base, time(SyncMode::StreamK));
        assert!(
            cusync > streamk,
            "at {bs}: cuSync {cusync:.1}% vs Stream-K {streamk:.1}%"
        );
    }
}

/// Claim 6: the synchronization overhead bound on minimum-compute kernels
/// stays in the low single digits (Section V-D: 2-3%).
#[test]
fn overhead_bound_holds() {
    let result = overhead_experiment(&mut Session::new(), &v100(), 16 * 1024);
    assert!(
        result.per_block_sync_pct < 5.0,
        "per-block sync cost {:.2}%",
        result.per_block_sync_pct
    );
}

/// Conv2D layers improve across batch sizes (Fig. 7), with the gain
/// oscillating rather than monotone in batch size.
#[test]
fn conv_layers_improve_with_conv2d_tile_sync() {
    let gpu = v100();
    let mode = SyncMode::CuSync(PolicyKind::Conv2DTile, OptFlags::WRT);
    let mut session = Session::new();
    let mut gains = Vec::new();
    for batch in [1u32, 4, 16] {
        let mut time = |mode| {
            let pipeline = compile_conv_layer(&gpu, batch, pq_for_channels(128), 128, 2, mode);
            session.run(&pipeline).unwrap().total
        };
        gains.push(improvement_pct(time(SyncMode::StreamSync), time(mode)));
    }
    assert!(
        gains.iter().any(|&g| g > 2.0),
        "at least one batch should gain >2%, got {gains:?}"
    );
}

/// Claim (Section II-A): only `num_SMs × occupancy` blocks are resident at
/// once, so the engine holds one block slot per resident block, not one
/// per block of the grid. The GPT-3 MLP at batch 1024 runs 2.4 waves per
/// GeMM; both engines reuse finished blocks' slots the same way.
#[test]
fn block_slots_track_resident_blocks_not_the_grid() {
    use cusync_sim::EngineMode;
    for mode in [
        SyncMode::StreamSync,
        SyncMode::CuSync(PolicyKind::Tile, OptFlags::WRT),
    ] {
        let pipeline = compile_mlp(&v100(), MlpModel::Gpt3, 1024, mode);
        let run = |engine| {
            Session::with_mode(engine)
                .run(&pipeline)
                .expect("the MLP runs")
        };
        let reference = run(EngineMode::Reference);
        let optimized = run(EngineMode::Optimized);
        let peak = optimized.counters.peak_block_slots;
        assert_eq!(peak, reference.counters.peak_block_slots, "{mode}");
        let resident: u64 = optimized.kernels.iter().map(|k| k.max_concurrent).sum();
        let blocks: u64 = optimized.kernels.iter().map(|k| k.blocks).sum();
        assert!(
            peak <= resident && resident < blocks,
            "{mode}: {peak} slots, {resident} resident at most, {blocks} blocks"
        );
    }
}
