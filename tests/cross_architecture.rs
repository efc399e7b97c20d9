//! Cross-architecture checks: the framework's claims must hold on the
//! A100 model too (the paper: "the granularity of synchronization that
//! provides the best performance depends on computations, data sizes, and
//! GPU architecture").

use cusync::OptFlags;
use cusync_models::{
    compile_conv_layer, compile_mlp, improvement_pct, pq_for_channels, MlpModel, PolicyKind,
    SyncMode,
};
use cusync_sim::{GpuConfig, Session};

#[test]
fn partial_wave_gains_persist_on_a100() {
    // Note the architecture effect: at batch 512 the V100-tuned grid (96
    // blocks) fits into less than one wave of the A100's 108 SMs, so there
    // is no partial wave to reclaim there. At 1024 the grid spans 1.8
    // waves and the gain reappears.
    let gpu = GpuConfig::ampere_a100();
    let mut session = Session::new();
    let mut time = |bs, mode| {
        let pipeline = compile_mlp(&gpu, MlpModel::Gpt3, bs, mode);
        session.run(&pipeline).unwrap().total
    };
    let tile = SyncMode::CuSync(PolicyKind::Tile, OptFlags::WRT);
    let at_512 = improvement_pct(time(512, SyncMode::StreamSync), time(512, tile));
    let at_1024 = improvement_pct(time(1024, SyncMode::StreamSync), time(1024, tile));
    assert!(
        at_512.abs() < 10.0,
        "512 should be near-neutral: {at_512:.1}%"
    );
    assert!(at_1024 > 1.0, "A100 gain at 1024: {at_1024:.1}%");
}

#[test]
fn conv_chains_improve_on_a100() {
    let gpu = GpuConfig::ampere_a100();
    let mut session = Session::new();
    let mut time = |mode| {
        let pipeline = compile_conv_layer(&gpu, 32, pq_for_channels(128), 128, 2, mode);
        session.run(&pipeline).unwrap().total
    };
    let base = time(SyncMode::StreamSync);
    let gain = improvement_pct(
        base,
        time(SyncMode::CuSync(PolicyKind::Conv2DTile, OptFlags::WRT)),
    );
    assert!(gain > 0.0, "A100 conv gain: {gain:.1}%");
}

#[test]
fn absolute_times_scale_with_peak_throughput() {
    // The A100 has ~2.5x the tensor throughput and ~2.2x the bandwidth of
    // the V100; a compute-bound MLP must run substantially faster.
    let mut session = Session::new();
    let mut time = |gpu: GpuConfig| {
        let pipeline = compile_mlp(&gpu, MlpModel::Gpt3, 2048, SyncMode::StreamSync);
        session.run(&pipeline).unwrap().total
    };
    let v100 = time(GpuConfig::tesla_v100());
    let a100 = time(GpuConfig::ampere_a100());
    let ratio = v100.as_picos() as f64 / a100.as_picos() as f64;
    assert!(
        ratio > 1.5 && ratio < 3.5,
        "V100/A100 time ratio {ratio:.2} outside the plausible band"
    );
}

#[test]
fn policy_rankings_are_architecture_dependent_but_sound() {
    // On both architectures every cuSync policy must be within a few
    // percent of the best one at a multi-wave size — no pathological
    // blowup from the semaphore model.
    let mut session = Session::new();
    for gpu in [GpuConfig::tesla_v100(), GpuConfig::ampere_a100()] {
        let times: Vec<_> = [PolicyKind::Tile, PolicyKind::Row]
            .into_iter()
            .map(|kind| {
                let mode = SyncMode::CuSync(kind, OptFlags::WRT);
                let pipeline = compile_mlp(&gpu, MlpModel::Gpt3, 1024, mode);
                session.run(&pipeline).unwrap().total.as_picos() as f64
            })
            .collect();
        let spread = (times[0] - times[1]).abs() / times[0].min(times[1]);
        assert!(spread < 0.10, "{}: Tile/Row spread {spread:.2}", gpu.name);
    }
}
