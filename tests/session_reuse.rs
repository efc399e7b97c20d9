//! Compile-once/run-many ↔ fresh-run equivalence.
//!
//! The compile/execute split promises that N repeated [`Session::run`]s of
//! one [`CompiledPipeline`] are **bit-identical** to N fresh compiles of
//! the same workload, each run on a fresh [`Session`] of the same
//! [`EngineMode`] — every `RunReport` field (kernel
//! start/end timestamps, totals, race counts, semaphore post counts, the
//! utilization float to the last bit), in both [`EngineMode`]s, across the
//! paper's MLP / Attention / Conv / Stream-K scenarios, functional
//! pipelines, and randomized kernel soups. It also covers one session
//! switching between single- and multi-device pipelines, and the
//! pristine-ness of the compiled artifact.

use std::sync::Arc;

use cusync_models::{
    build_attention, build_conv_layer, build_mlp, build_tp_layer, compile_attention,
    compile_conv_layer, compile_mlp, compile_tp_layer, launch_ring_allreduce, tp_attention, tp_mlp,
    AttentionConfig, MlpModel, PolicyKind, SyncMode, TpSchedule,
};
use cusync_sim::{
    ClusterConfig, CompiledPipeline, DType, Dim3, EngineMode, FixedKernel, Gpu, GpuConfig, Op,
    RunReport, Session, StreamId,
};
use proptest::prelude::*;

#[path = "common/mod.rs"]
mod common;
use common::Gen;

const REPEATS: usize = 3;

/// Every timing-observable field must match exactly; `sim_events` and the
/// engine counters are included too — the session replays the identical
/// event sequence, so its price memos (reset per run) hit and miss alike.
fn assert_identical(fresh: &RunReport, reused: &RunReport, what: &str) {
    assert_eq!(fresh.kernels, reused.kernels, "{what}: kernel reports");
    assert_eq!(fresh.total, reused.total, "{what}: total");
    assert_eq!(fresh.races, reused.races, "{what}: races");
    assert_eq!(fresh.sem_posts, reused.sem_posts, "{what}: sem posts");
    assert_eq!(
        fresh.sm_utilization, reused.sm_utilization,
        "{what}: utilization (bit-exact)"
    );
    assert_eq!(fresh.sim_events, reused.sim_events, "{what}: event counts");
    assert_eq!(fresh.counters, reused.counters, "{what}: engine counters");
}

/// Compiles `gpu` and runs it on a fresh session in `mode`.
fn fresh_run(gpu: Gpu, mode: EngineMode) -> RunReport {
    let pipeline = gpu.compile().expect("fresh compile");
    Session::with_mode(mode).run(&pipeline).expect("fresh run")
}

/// Core harness: N `Session::run`s of one compiled pipeline vs N fresh
/// builds, each compiled and run on a fresh session, under both engine
/// modes.
fn check_reuse<C, F>(what: &str, compile: C, fresh_gpu: F)
where
    C: Fn() -> CompiledPipeline,
    F: Fn() -> Gpu,
{
    for mode in [EngineMode::Reference, EngineMode::Optimized] {
        let pipeline = compile();
        let mut session = Session::with_mode(mode);
        for rep in 0..REPEATS {
            let reused = session.run(&pipeline).expect("session run");
            let fresh = fresh_run(fresh_gpu(), mode);
            assert_identical(&fresh, &reused, &format!("{what} [{mode}] rep {rep}"));
        }
    }
}

#[test]
fn mlp_session_reuse_is_bit_identical() {
    let gpu = GpuConfig::tesla_v100();
    for (bs, mode) in [
        (
            64u32,
            SyncMode::CuSync(PolicyKind::Tile, cusync::OptFlags::WRT),
        ),
        (256, SyncMode::StreamSync),
        (8, SyncMode::CuSync(PolicyKind::Row, cusync::OptFlags::NONE)),
    ] {
        check_reuse(
            &format!("gpt3 mlp bs={bs} {mode}"),
            || compile_mlp(&gpu, MlpModel::Gpt3, bs, mode),
            || {
                let mut g = Gpu::new(gpu.clone());
                build_mlp(&mut g, MlpModel::Gpt3, bs, mode);
                g
            },
        );
    }
    // LLaMA with the strided policy (SwiGLU halves).
    let mode = SyncMode::CuSync(PolicyKind::Strided, cusync::OptFlags::WRT);
    check_reuse(
        "llama mlp bs=512 strided",
        || compile_mlp(&gpu, MlpModel::Llama, 512, mode),
        || {
            let mut g = Gpu::new(gpu.clone());
            build_mlp(&mut g, MlpModel::Llama, 512, mode);
            g
        },
    );
}

#[test]
fn streamk_session_reuse_is_bit_identical() {
    let gpu = GpuConfig::tesla_v100();
    check_reuse(
        "gpt3 mlp bs=128 stream-k",
        || compile_mlp(&gpu, MlpModel::Gpt3, 128, SyncMode::StreamK),
        || {
            let mut g = Gpu::new(gpu.clone());
            build_mlp(&mut g, MlpModel::Gpt3, 128, SyncMode::StreamK);
            g
        },
    );
}

#[test]
fn attention_session_reuse_is_bit_identical() {
    let gpu = GpuConfig::tesla_v100();
    for (cfg, mode) in [
        (
            AttentionConfig::prompt(12288, 512),
            SyncMode::CuSync(PolicyKind::Strided, cusync::OptFlags::WRT),
        ),
        (
            AttentionConfig::generation(8192, 2, 1024),
            SyncMode::StreamSync,
        ),
    ] {
        check_reuse(
            &format!("attention {cfg:?} {mode}"),
            || compile_attention(&gpu, cfg, mode),
            || {
                let mut g = Gpu::new(gpu.clone());
                build_attention(&mut g, cfg, mode);
                g
            },
        );
    }
}

#[test]
fn conv_session_reuse_is_bit_identical() {
    let gpu = GpuConfig::tesla_v100();
    let mode = SyncMode::CuSync(PolicyKind::Conv2DTile, cusync::OptFlags::WRT);
    check_reuse(
        "conv c=128 b=4",
        || compile_conv_layer(&gpu, 4, 28, 128, 2, mode),
        || {
            let mut g = Gpu::new(gpu.clone());
            build_conv_layer(&mut g, 4, 28, 128, 2, mode);
            g
        },
    );
}

/// Functional pipelines mutate global memory during the run; the session
/// must restore every buffer to its pristine initial contents between
/// runs, or the second run would read the first run's outputs.
#[test]
fn functional_memory_resets_between_session_runs() {
    use cusync::{CuStage, SyncGraph, TileSync};
    use cusync_kernels::{GemmBuilder, GemmDims, InputDep, TileShape};

    let config = GpuConfig {
        host_launch_gap: cusync_sim::SimTime::ZERO,
        kernel_dispatch_latency: cusync_sim::SimTime::ZERO,
        ..GpuConfig::toy(4)
    };
    let build = |gpu: &mut Gpu| {
        let tile = TileShape::new(8, 8, 8);
        let (m, h, k) = (16u32, 24u32, 16u32);
        let data = |len: usize| (0..len).map(|i| (i % 7) as f32 * 0.1).collect::<Vec<_>>();
        let x = gpu
            .mem_mut()
            .alloc_data("x", data((m * k) as usize), DType::F16);
        let w1 = gpu
            .mem_mut()
            .alloc_data("w1", data((k * h) as usize), DType::F16);
        let xw1 = gpu
            .mem_mut()
            .alloc_poisoned("xw1", (m * h) as usize, DType::F16);
        let grid1 = Dim3::new(h / 8, m / 8, 1);
        let mut graph = SyncGraph::new();
        let s1 = graph.add_stage(CuStage::new("g1", grid1).policy(TileSync));
        let s2 = graph.add_stage(CuStage::new("g2", Dim3::new(k / 8, m / 8, 1)).policy(TileSync));
        let out = gpu
            .mem_mut()
            .alloc_poisoned("out", (m * k) as usize, DType::F16);
        let w2 = gpu
            .mem_mut()
            .alloc_data("w2", data((h * k) as usize), DType::F16);
        graph.dependency(s1, s2, xw1).unwrap();
        let bound = graph.bind(gpu).unwrap();
        let g1 = GemmBuilder::new("g1", GemmDims::new(m, h, k), tile)
            .operands(x, w1, xw1)
            .stage(Arc::clone(bound.stage(s1)))
            .build(gpu.config())
            .expect("operands set");
        let g2 = GemmBuilder::new("g2", GemmDims::new(m, k, h), tile)
            .operands(xw1, w2, out)
            .stage(Arc::clone(bound.stage(s2)))
            .a_dep(InputDep::row_aligned(grid1), grid1.x)
            .build(gpu.config())
            .expect("operands set");
        bound.launch(gpu, s1, Arc::new(g1)).unwrap();
        bound.launch(gpu, s2, Arc::new(g2)).unwrap();
        out
    };
    for mode in [EngineMode::Reference, EngineMode::Optimized] {
        let mut gpu = Gpu::new(config.clone());
        let out = build(&mut gpu);
        let pipeline = gpu.compile().unwrap();
        // The compiled artifact stays poisoned-pristine.
        assert!(pipeline.initial_mem().snapshot(out).unwrap()[0].is_nan());

        let mut session = Session::with_mode(mode);
        let mut values: Option<Vec<f32>> = None;
        let mut reports: Option<RunReport> = None;
        for _ in 0..REPEATS {
            let report = session.run(&pipeline).expect("functional run");
            assert_eq!(
                report.races, 0,
                "[{mode}] poison must be rewritten each run"
            );
            let got = session.mem().snapshot(out).unwrap().to_vec();
            assert!(got.iter().all(|v| !v.is_nan()));
            match (&values, &reports) {
                (Some(v), Some(r)) => {
                    assert_eq!(v, &got, "[{mode}] outputs drifted across reuse");
                    assert_identical(r, &report, &format!("functional [{mode}]"));
                }
                _ => {
                    values = Some(got);
                    reports = Some(report);
                }
            }
        }
        // Fresh comparator: a fresh build on a fresh session.
        let mut gpu = Gpu::new(config.clone());
        let out2 = build(&mut gpu);
        let mut fresh_session = Session::with_mode(mode);
        let fresh = fresh_session.run(&gpu.compile().unwrap()).unwrap();
        assert_identical(&fresh, reports.as_ref().unwrap(), "functional vs fresh");
        assert_eq!(
            fresh_session.mem().snapshot(out2).unwrap(),
            values.as_deref().unwrap()
        );
    }
}

/// Multi-device pipelines go through the same device-count-agnostic
/// session machinery: N `Session::run`s of a compiled tensor-parallel
/// layer (cross-device semaphores, link sends, the ring collective) must
/// be bit-identical to N fresh cluster builds run on fresh sessions, on
/// both engines.
#[test]
fn tensor_parallel_session_reuse_is_bit_identical() {
    for (devices, cfg, schedule) in [
        (2u32, tp_mlp(4096, 256), TpSchedule::Serialized),
        (4, tp_mlp(4096, 256), TpSchedule::Overlap),
        (4, tp_attention(4096, 256), TpSchedule::Overlap),
    ] {
        let cluster = ClusterConfig::dgx_v100(devices);
        check_reuse(
            &format!("tp {cfg:?} devices={devices} {schedule:?}"),
            || compile_tp_layer(&cluster, cfg, schedule),
            || {
                let mut g = Gpu::new_cluster(cluster.clone());
                build_tp_layer(&mut g, cfg, schedule);
                g
            },
        );
    }
}

/// A bare ring collective (no compute around it) also reuses cleanly: the
/// cross-device semaphore state — including remote-homed arrays — must be
/// restored between runs.
#[test]
fn ring_allreduce_session_reuse_is_bit_identical() {
    let cluster = ClusterConfig::dgx_v100(4);
    let build = |g: &mut Gpu| {
        let streams: Vec<StreamId> = (0..4).map(|d| g.create_stream_on(d, 0)).collect();
        launch_ring_allreduce(g, "ar", 2 << 20, &streams);
    };
    check_reuse(
        "ring allreduce 4 devices",
        || {
            let mut g = Gpu::new_cluster(cluster.clone());
            build(&mut g);
            g.compile().expect("valid cluster")
        },
        || {
            let mut g = Gpu::new_cluster(cluster.clone());
            build(&mut g);
            g
        },
    );
}

/// Runs an interleaved mix of `pipelines` on one shared session, `REPEATS`
/// rounds, on both engines, and checks every run against the same
/// pipeline's run on a fresh dedicated session.
fn check_interleaved(pipelines: &[(String, CompiledPipeline)]) {
    for mode in [EngineMode::Reference, EngineMode::Optimized] {
        let fresh: Vec<RunReport> = pipelines
            .iter()
            .map(|(_, p)| Session::with_mode(mode).run(p).expect("fresh run"))
            .collect();
        let mut session = Session::with_mode(mode);
        for round in 0..REPEATS {
            for ((what, pipeline), expected) in pipelines.iter().zip(&fresh) {
                let report = session.run(pipeline).expect("shared session run");
                assert_identical(expected, &report, &format!("{what} [{mode}] round {round}"));
            }
        }
    }
}

fn gpt3_mlp_pipelines() -> Vec<(String, CompiledPipeline)> {
    let gpu = GpuConfig::tesla_v100();
    [
        SyncMode::StreamSync,
        SyncMode::CuSync(PolicyKind::Tile, cusync::OptFlags::WRT),
        SyncMode::StreamK,
    ]
    .into_iter()
    .map(|m| {
        let what = format!("gpt3 mlp bs=64 {m}");
        (what, compile_mlp(&gpu, MlpModel::Gpt3, 64, m))
    })
    .collect()
}

fn tp_mlp_pipelines() -> Vec<(String, CompiledPipeline)> {
    let cluster = ClusterConfig::dgx_v100(4);
    [TpSchedule::Serialized, TpSchedule::Overlap]
        .into_iter()
        .map(|schedule| {
            (
                format!("tp mlp devices=4 {schedule:?}"),
                compile_tp_layer(&cluster, tp_mlp(4096, 256), schedule),
            )
        })
        .collect()
}

/// Repeated, interleaved submissions of the GPT-3 MLP in several sync
/// modes to one session resolve to the same simulation as serial runs on
/// fresh sessions.
#[test]
fn shared_session_matches_serial_sessions() {
    check_interleaved(&gpt3_mlp_pipelines());
}

/// Multi-device pipelines behave like any other: repeated, interleaved
/// submissions of 4-device TP schedules to one session resolve to the
/// same simulation as serial runs on fresh sessions.
#[test]
fn multi_device_shared_session_matches_serial_sessions() {
    check_interleaved(&tp_mlp_pipelines());
}

/// One session switches freely between single-GPU and 4-device
/// pipelines: every run of an interleaved mix is identical to the same
/// pipeline's run on a fresh dedicated session, on both engines.
#[test]
fn one_session_interleaves_single_and_multi_device_pipelines() {
    let mut pipelines = gpt3_mlp_pipelines();
    pipelines.extend(tp_mlp_pipelines());
    check_interleaved(&pipelines);
}

/// Builds a randomized multi-stream FixedKernel workload from `seed`:
/// 1-3 kernels of mixed ops, priorities and occupancies, with one
/// producer → consumer semaphore edge (post launched before wait, so the
/// workload cannot deadlock).
fn random_workload(seed: u64, gpu: &mut Gpu) {
    let mut g = Gen(seed);
    let sem = gpu.alloc_sems("sem", 4, 0);
    let kernels = g.range(1, 4);
    let consumer = if kernels > 1 {
        Some(g.range(1, kernels))
    } else {
        None
    };
    for i in 0..kernels {
        let stream = gpu.create_stream(g.range(0, 3) as i32);
        let mut body = Vec::new();
        for _ in 0..g.range(1, 6) {
            let x = g.range(1, 50_000);
            body.push(match g.range(0, 5) {
                0 => Op::compute(x),
                1 => Op::read(x * 64),
                2 => Op::write(x * 64),
                3 => Op::Syncthreads,
                _ => Op::main_step(x * 32, x),
            });
        }
        if i == 0 {
            body.push(Op::post(sem, 0));
        } else if Some(i) == consumer {
            body.insert(0, Op::wait(sem, 0, 1));
        }
        gpu.launch(
            stream,
            Arc::new(FixedKernel::new(
                &format!("k{i}"),
                Dim3::linear(g.range(1, 12) as u32),
                g.range(1, 3) as u32,
                body,
            )),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property: for arbitrary multi-stream FixedKernel workloads (with a
    /// producer/consumer semaphore edge), N session reruns == N fresh
    /// builds run on fresh sessions, on both engines.
    #[test]
    fn random_workload_session_reuse_matches_fresh_gpu(
        sms in 2u32..6,
        seed in 0u64..u64::MAX,
    ) {
        let config = GpuConfig::toy(sms);
        for mode in [EngineMode::Reference, EngineMode::Optimized] {
            let mut built = Gpu::new(config.clone());
            random_workload(seed, &mut built);
            let pipeline = built.compile().expect("valid toy config");
            let mut session = Session::with_mode(mode);
            for _ in 0..2 {
                let reused = session.run(&pipeline).expect("session");
                let mut gpu = Gpu::new(config.clone());
                random_workload(seed, &mut gpu);
                let fresh = fresh_run(gpu, mode);
                prop_assert_eq!(&fresh, &reused);
            }
        }
    }
}
