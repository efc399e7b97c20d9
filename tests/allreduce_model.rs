//! The simulated ring allreduce against its analytic oracle.
//!
//! `cusync_models::allreduce_time` — the closed-form
//! `2(n-1)/n · bytes/bw + 2(n-1) · hop` NVLink ring model the fig8 path
//! used before the multi-device simulator existed — is kept as a
//! **checked oracle**: the simulated collective
//! (`cusync_models::ring_allreduce_time`, real per-hop `LinkSend`s and
//! cross-device semaphores through the event loop) must stay within ±10%
//! of it across a grid of `(bytes, gpus)`. A drift beyond that means
//! either the interconnect calibration (`ClusterConfig::nvlink_ring`) or
//! the ring kernel's op structure regressed.

use cusync_models::{allreduce_time, launch_ring_allreduce, ring_allreduce_time};
use cusync_sim::{
    ClusterConfig, EngineMode, Gpu, GpuConfig, RunReport, Session, SimTime, StreamId,
};

const TOLERANCE: f64 = 0.10;

fn relative_error(sim: SimTime, oracle: SimTime) -> f64 {
    (sim.as_picos() as f64 - oracle.as_picos() as f64).abs() / oracle.as_picos() as f64
}

#[test]
fn simulated_ring_matches_analytic_model_within_10_percent() {
    let gpu = GpuConfig::tesla_v100();
    // Bytes from latency-dominated (256 KB) to bandwidth-dominated
    // (64 MB), across every power-of-two ring size in the DGX range.
    let byte_grid: [u64; 5] = [256 << 10, 1 << 20, 4 << 20, 16 << 20, 64 << 20];
    let gpu_grid: [u32; 3] = [2, 4, 8];
    let mut worst = (0.0f64, 0u64, 0u32);
    let mut session = Session::new();
    for &gpus in &gpu_grid {
        for &bytes in &byte_grid {
            let sim = ring_allreduce_time(&mut session, &gpu, bytes, gpus);
            let oracle = allreduce_time(bytes, gpus);
            let err = relative_error(sim, oracle);
            assert!(
                err <= TOLERANCE,
                "{bytes} bytes over {gpus} GPUs: simulated {sim} vs oracle {oracle} \
                 ({:.1}% off, tolerance {:.0}%)",
                err * 100.0,
                TOLERANCE * 100.0
            );
            if err > worst.0 {
                worst = (err, bytes, gpus);
            }
        }
    }
    eprintln!(
        "worst case: {:.2}% at {} bytes / {} GPUs",
        worst.0 * 100.0,
        worst.1,
        worst.2
    );
}

#[test]
fn oracle_structure_survives_in_the_simulation() {
    // The two structural properties of a ring the oracle encodes — cost
    // grows with participants at fixed bytes (more hops) and with bytes at
    // fixed participants (more wire) — must hold in the simulation too.
    let gpu = GpuConfig::tesla_v100();
    let mut session = Session::new();
    let mut ring = |bytes, gpus| ring_allreduce_time(&mut session, &gpu, bytes, gpus);
    let t2 = ring(4 << 20, 2);
    let t4 = ring(4 << 20, 4);
    let t8 = ring(4 << 20, 8);
    assert!(t2 < t4 && t4 < t8, "{t2} {t4} {t8}");
    let small = ring(1 << 20, 8);
    let large = ring(32 << 20, 8);
    assert!(small < large, "{small} {large}");
}

#[test]
fn ring_time_is_engine_invariant() {
    let gpu = GpuConfig::tesla_v100();
    let mut session = Session::new();
    for (bytes, gpus) in [(1u64 << 20, 4u32), (8 << 20, 8), (64, 2)] {
        let run = |mode: EngineMode| -> RunReport {
            let mut node = Gpu::new_cluster(ClusterConfig::nvlink_ring(gpus, gpu.clone()));
            let streams: Vec<StreamId> = (0..gpus).map(|d| node.create_stream_on(d, 0)).collect();
            launch_ring_allreduce(&mut node, "ar", bytes, &streams);
            let pipeline = node.compile().expect("valid ring");
            Session::with_mode(mode)
                .run(&pipeline)
                .expect("ring allreduce cannot deadlock")
        };
        let reference = run(EngineMode::Reference);
        let optimized = run(EngineMode::Optimized);
        assert_eq!(
            (&reference.kernels, reference.total),
            (&optimized.kernels, optimized.total),
            "{bytes} bytes / {gpus} GPUs: timelines must be bit-identical"
        );
        let start = optimized.kernels.iter().map(|k| k.start).min().unwrap();
        assert_eq!(
            optimized.total.saturating_sub(start),
            ring_allreduce_time(&mut session, &gpu, bytes, gpus),
            "{bytes} bytes / {gpus} GPUs: the helper measures this span"
        );
        assert!(
            optimized.sim_events <= reference.sim_events,
            "optimized engine should not handle more events ({} vs {})",
            optimized.sim_events,
            reference.sim_events
        );
    }
}

#[test]
fn degenerate_rings_cost_nothing() {
    let gpu = GpuConfig::tesla_v100();
    let ring = ring_allreduce_time(&mut Session::new(), &gpu, 1 << 20, 1);
    assert_eq!(ring, SimTime::ZERO);
    assert_eq!(allreduce_time(1 << 20, 1), SimTime::ZERO);
}

#[test]
fn a100_ring_stays_within_tolerance_too() {
    // The calibration derives the raw link latency from the *device's*
    // signaling costs, so the oracle contract is architecture-portable.
    let gpu = GpuConfig::ampere_a100();
    let mut session = Session::new();
    for (bytes, gpus) in [(1u64 << 20, 8u32), (16 << 20, 4)] {
        let err = relative_error(
            ring_allreduce_time(&mut session, &gpu, bytes, gpus),
            allreduce_time(bytes, gpus),
        );
        assert!(err <= TOLERANCE, "{bytes}/{gpus}: {:.1}% off", err * 100.0);
    }
}
