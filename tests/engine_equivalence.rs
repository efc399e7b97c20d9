//! Reference ↔ optimized engine equivalence on the tier-1 scenarios.
//!
//! The optimized engine (ready-queue issue, SM capacity index, op
//! coalescing, pre-driven block programs, dense wait-lists) must produce
//! **bit-identical** `RunReport` kernel start/end times — and identical
//! deadlock reports — to the reference engine (the original
//! rescan-everything event loop) on the workloads the repo's tests
//! exercise. These tests run each scenario under both [`EngineMode`]s and
//! compare the full observable outcome.

use std::sync::Arc;

use cusync::SyncMechanism;
use cusync::{CuStage, NoSync, OptFlags, SyncGraph, TileSync};
use cusync_kernels::{GemmBuilder, GemmDims, InputDep, TileShape};
use cusync_models::{
    compile_attention, compile_attention_mechanisms, compile_conv_layer,
    compile_conv_layer_mechanisms, compile_mlp, compile_mlp_mechanisms, compile_tp_layer,
    ATTENTION_EDGES,
};
use cusync_models::{
    tp_attention, tp_mlp, AttentionConfig, MlpModel, PolicyKind, SyncMode, TpSchedule,
};
use cusync_sim::{
    ClusterConfig, CompiledPipeline, DType, Dim3, EngineMode, FixedKernel, Gpu, GpuConfig,
    LaunchGate, Op, RunReport, Session, SimError, SimTime, TraceEvent,
};
use proptest::prelude::*;

#[path = "common/mod.rs"]
mod common;
use common::Gen;

/// Asserts both reports obey the report laws ([`RunReport::check`]) and
/// every timing-observable field of the two is identical. (`sim_events`
/// and `counters` are excluded from the comparison by design: they
/// measure simulation *work*, which the optimized engine reduces.)
fn assert_reports_identical(reference: &RunReport, optimized: &RunReport, what: &str) {
    for (engine, report) in [("reference", reference), ("optimized", optimized)] {
        if let Err(law) = report.check() {
            panic!("{what}: {engine} report breaks a law: {law}");
        }
    }
    assert_eq!(
        reference.kernels, optimized.kernels,
        "{what}: kernel reports"
    );
    assert_eq!(reference.total, optimized.total, "{what}: total time");
    assert_eq!(reference.races, optimized.races, "{what}: race count");
    assert_eq!(
        reference.sem_posts, optimized.sem_posts,
        "{what}: sem posts"
    );
    assert_eq!(
        reference.sm_utilization, optimized.sm_utilization,
        "{what}: utilization (must match to the last bit)"
    );
}

/// Runs `pipeline` on a fresh session of the given engine.
fn run_on(engine: EngineMode, pipeline: &CompiledPipeline) -> RunReport {
    Session::with_mode(engine)
        .run(pipeline)
        .expect("pipeline runs")
}

/// Compiles `gpu` and runs it on a fresh session of the given engine.
fn run_gpu(engine: EngineMode, gpu: Gpu) -> Result<RunReport, SimError> {
    Session::with_mode(engine).run(&gpu.compile()?)
}

/// [`run_gpu`] on a tracing session: the report and the run's trace.
fn traced_gpu(engine: EngineMode, gpu: Gpu) -> (RunReport, Vec<TraceEvent>) {
    let mut session = Session::with_mode(engine);
    session.enable_trace();
    let report = session
        .run(&gpu.compile().expect("valid config"))
        .expect("traced run");
    (report, session.trace().to_vec())
}

fn both_modes<F: Fn(EngineMode) -> RunReport>(what: &str, run: F) {
    let reference = run(EngineMode::Reference);
    let optimized = run(EngineMode::Optimized);
    assert_reports_identical(&reference, &optimized, what);
    assert!(
        optimized.sim_events <= reference.sim_events,
        "{what}: optimized engine should never handle more events \
         ({} vs {})",
        optimized.sim_events,
        reference.sim_events
    );
}

#[test]
fn mlp_pipelines_are_engine_invariant() {
    let gpu = GpuConfig::tesla_v100();
    for bs in [1u32, 64, 256, 2048] {
        for mode in [
            SyncMode::StreamSync,
            SyncMode::CuSync(PolicyKind::Tile, OptFlags::WRT),
            SyncMode::CuSync(PolicyKind::Row, OptFlags::NONE),
            SyncMode::StreamK,
        ] {
            both_modes(&format!("gpt3 mlp bs={bs} {mode}"), |engine| {
                run_on(engine, &compile_mlp(&gpu, MlpModel::Gpt3, bs, mode))
            });
        }
        let strided = SyncMode::CuSync(PolicyKind::Strided, OptFlags::WRT);
        both_modes(&format!("llama mlp bs={bs}"), |engine| {
            run_on(engine, &compile_mlp(&gpu, MlpModel::Llama, bs, strided))
        });
    }
}

#[test]
fn attention_chains_are_engine_invariant() {
    let gpu = GpuConfig::tesla_v100();
    for cfg in [
        AttentionConfig::prompt(12288, 512),
        AttentionConfig::generation(8192, 2, 1024),
    ] {
        for mode in [
            SyncMode::StreamSync,
            SyncMode::CuSync(PolicyKind::Strided, OptFlags::WRT),
        ] {
            both_modes(&format!("attention {cfg:?} {mode}"), |engine| {
                run_on(engine, &compile_attention(&gpu, cfg, mode))
            });
        }
    }
}

#[test]
fn conv_layers_are_engine_invariant() {
    let gpu = GpuConfig::tesla_v100();
    for (channels, batch) in [(64u32, 4u32), (512, 16)] {
        let pq = cusync_models::pq_for_channels(channels);
        for mode in [
            SyncMode::StreamSync,
            SyncMode::CuSync(PolicyKind::Conv2DTile, OptFlags::WRT),
        ] {
            both_modes(&format!("conv c={channels} b={batch} {mode}"), |engine| {
                run_on(
                    engine,
                    &compile_conv_layer(&gpu, batch, pq, channels, 2, mode),
                )
            });
        }
    }
}

/// Pipelines using launch gates — PDL (`AfterLaunchOf` + a grid-sem
/// completion post) and stream-serialization (`AfterCompletionOf`) — run
/// through the preamble/dispatch machinery in both engines and must stay
/// bit-identical, alone and mixed with fine-grained edges.
#[test]
fn gated_pipelines_are_engine_invariant() {
    let gpu = GpuConfig::tesla_v100();
    // MLP: each uniform assignment plus the classic fine edge.
    for m in SyncMechanism::ALL {
        let pipeline = compile_mlp_mechanisms(&gpu, MlpModel::Gpt3, 256, OptFlags::WRT, &[m])
            .expect("valid single-edge assignment");
        both_modes(&format!("gpt3 mlp bs=256 mech={m}"), |engine| {
            run_on(engine, &pipeline)
        });
    }
    // Attention: a deliberately mixed assignment — PDL off g1, fine
    // through the middle of the chain, stream-serial into g2.
    let mixed = [
        SyncMechanism::Pdl,
        SyncMechanism::Pdl,
        SyncMechanism::TileSync,
        SyncMechanism::TileSync,
        SyncMechanism::Pdl,
        SyncMechanism::StreamSerial,
    ];
    let cfg = AttentionConfig::prompt(12288, 512);
    for ms in [[SyncMechanism::Pdl; ATTENTION_EDGES], mixed] {
        let pipeline = compile_attention_mechanisms(&gpu, cfg, OptFlags::WRT, &ms)
            .expect("valid attention assignment");
        both_modes(&format!("attention mixed mech {ms:?}"), |engine| {
            run_on(engine, &pipeline)
        });
    }
    // Conv chain: alternate PDL and fine sync along four convs.
    let chain = [
        SyncMechanism::Pdl,
        SyncMechanism::TileSync,
        SyncMechanism::StreamSerial,
    ];
    let pipeline = compile_conv_layer_mechanisms(&gpu, 4, 14, 256, 4, OptFlags::WRT, &chain)
        .expect("valid chain assignment");
    both_modes("conv chain mixed mech", |engine| run_on(engine, &pipeline));
}

/// Raw launch-gate semantics at the simulator level, checked under both
/// engines: an `AfterLaunchOf` consumer may start before the producer
/// ends (its body is gated by the grid semaphore instead), while an
/// `AfterCompletionOf` consumer cannot start until the producer is done.
#[test]
fn launch_gate_semantics_are_engine_invariant() {
    let scenario = |engine: EngineMode| {
        let mut gpu = Gpu::new(GpuConfig::toy(4));
        let grid_sem = gpu.alloc_sems("p.grid", 1, 0);
        let s1 = gpu.create_stream(0);
        let s2 = gpu.create_stream(0);
        let s3 = gpu.create_stream(0);
        let producer = gpu.launch(
            s1,
            Arc::new(FixedKernel::new(
                "producer",
                Dim3::linear(8),
                1,
                vec![Op::compute(80_000)],
            )),
        );
        let pdl_consumer = gpu.launch(
            s2,
            Arc::new(FixedKernel::new(
                "pdl_consumer",
                Dim3::linear(2),
                1,
                vec![Op::wait(grid_sem, 0, 1), Op::compute(10_000)],
            )),
        );
        let serial_consumer = gpu.launch(
            s3,
            Arc::new(FixedKernel::new(
                "serial_consumer",
                Dim3::linear(2),
                1,
                vec![Op::compute(10_000)],
            )),
        );
        gpu.gate_launch(pdl_consumer, LaunchGate::AfterLaunchOf(producer));
        gpu.post_on_completion(producer, grid_sem, 0);
        gpu.gate_launch(serial_consumer, LaunchGate::AfterCompletionOf(producer));
        run_gpu(engine, gpu).unwrap()
    };
    let reference = scenario(EngineMode::Reference);
    let optimized = scenario(EngineMode::Optimized);
    assert_reports_identical(&reference, &optimized, "launch gates");
    let producer = reference.kernel("producer");
    let pdl = reference.kernel("pdl_consumer");
    let serial = reference.kernel("serial_consumer");
    // PDL: launched once the producer's last block is resident — before
    // the producer ends — but its body outlasts the producer because it
    // spins on the grid semaphore.
    assert!(pdl.start < producer.end, "PDL consumer overlaps the tail");
    assert!(pdl.end > producer.end, "grid wait holds the body");
    // Stream-serialization: strictly after the producer.
    assert!(serial.start >= producer.end, "serial consumer is fenced");
}

/// The functional (NaN-poison race checking) path runs through the
/// coroutine bodies on both engines; values, races and timings must all
/// agree.
#[test]
fn functional_pipeline_is_engine_invariant() {
    let scenario = |engine: EngineMode| {
        let tile = TileShape::new(8, 8, 8);
        let (m, h, k) = (16u32, 24u32, 16u32);
        let mut gpu = Gpu::new(GpuConfig {
            host_launch_gap: SimTime::ZERO,
            kernel_dispatch_latency: SimTime::ZERO,
            ..GpuConfig::toy(4)
        });
        let data = |len: usize| (0..len).map(|i| (i % 7) as f32 * 0.1).collect::<Vec<_>>();
        let x = gpu
            .mem_mut()
            .alloc_data("x", data((m * k) as usize), DType::F16);
        let w1 = gpu
            .mem_mut()
            .alloc_data("w1", data((k * h) as usize), DType::F16);
        let w2 = gpu
            .mem_mut()
            .alloc_data("w2", data((h * k) as usize), DType::F16);
        let xw1 = gpu
            .mem_mut()
            .alloc_poisoned("xw1", (m * h) as usize, DType::F16);
        let out = gpu
            .mem_mut()
            .alloc_poisoned("out", (m * k) as usize, DType::F16);
        let grid1 = Dim3::new(h / 8, m / 8, 1);
        let grid2 = Dim3::new(k / 8, m / 8, 1);
        let mut graph = SyncGraph::new();
        let s1 = graph.add_stage(CuStage::new("g1", grid1).policy(TileSync));
        let s2 = graph.add_stage(CuStage::new("g2", grid2).policy(NoSync));
        graph.dependency(s1, s2, xw1).unwrap();
        let bound = graph.bind(&mut gpu).unwrap();
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
        bound.launch(&mut gpu, s1, Arc::new(g1)).unwrap();
        bound.launch(&mut gpu, s2, Arc::new(g2)).unwrap();
        let mut session = Session::with_mode(engine);
        let report = session.run(&gpu.compile().unwrap()).unwrap();
        let values = session.mem().snapshot(out).unwrap().to_vec();
        (report, values)
    };
    let (ref_report, ref_values) = scenario(EngineMode::Reference);
    let (opt_report, opt_values) = scenario(EngineMode::Optimized);
    assert_reports_identical(&ref_report, &opt_report, "functional mlp");
    assert_eq!(ref_report.races, 0);
    assert_eq!(ref_values, opt_values, "computed outputs must be identical");
}

/// The Section III-B busy-wait deadlock: both engines must stall at the
/// same simulated time with the same blocked/pending sets.
#[test]
fn deadlock_reports_are_engine_invariant() {
    let scenario = |engine: EngineMode| {
        let mut gpu = Gpu::new(GpuConfig {
            host_launch_gap: SimTime::ZERO,
            kernel_dispatch_latency: SimTime::ZERO,
            block_jitter: 0.0,
            ..GpuConfig::toy(4)
        });
        let sem = gpu.alloc_sems("tile", 1, 0);
        let s1 = gpu.create_stream(0);
        let s2 = gpu.create_stream(1);
        gpu.launch(
            s1,
            Arc::new(cusync_sim::FixedKernel::new(
                "producer",
                Dim3::linear(4),
                1,
                vec![Op::compute(100), Op::post(sem, 0)],
            )),
        );
        gpu.launch(
            s2,
            Arc::new(cusync_sim::FixedKernel::new(
                "consumer",
                Dim3::linear(4),
                1,
                vec![Op::wait(sem, 0, 4), Op::compute(10)],
            )),
        );
        run_gpu(engine, gpu).unwrap_err()
    };
    let reference = scenario(EngineMode::Reference);
    let optimized = scenario(EngineMode::Optimized);
    assert_eq!(reference, optimized, "deadlock blocked/pending sets");
    let SimError::Deadlock(report) = reference else {
        panic!("expected a deadlock");
    };
    // The consumer's blocks fill every SM busy-waiting, so the producer
    // never issues: both kernels are pending, all four resident blocks
    // are blocked.
    assert_eq!(
        report.pending_names(),
        vec!["producer".to_string(), "consumer".to_string()]
    );
    assert_eq!(report.blocked.len(), 4);
    // The structured report also closes the cycle: the producer is the
    // starved kernel (zero of four blocks launched), and every occupied
    // SM slot is a spinner.
    let starved: Vec<_> = report.starved().collect();
    assert_eq!(starved.len(), 1);
    assert_eq!(starved[0].name, "producer");
    assert_eq!(starved[0].unissued(), 4);
    assert!(report.sms.iter().all(|s| s.active_units == 0));
    assert!(report.wait_cycle().is_some());
}

/// A deadlock reached only after earlier blocks finished: `runner`'s three
/// blocks finish at jittered instants while `waiter`'s first five spin,
/// and `waiter`'s last three take the capacity they free. The report lists
/// the blocked blocks in issue order on both engines, whichever block
/// slots they ended up in.
#[test]
fn deadlock_report_keeps_issue_order_after_blocks_finish() {
    let scenario = |engine: EngineMode| {
        let mut gpu = Gpu::new(GpuConfig {
            host_launch_gap: SimTime::ZERO,
            kernel_dispatch_latency: SimTime::ZERO,
            block_jitter: 0.3,
            ..GpuConfig::toy(2)
        });
        let never = gpu.alloc_sems("never", 1, 0);
        let hi = gpu.create_stream(1);
        let lo = gpu.create_stream(0);
        gpu.launch(
            hi,
            Arc::new(FixedKernel::new(
                "runner",
                Dim3::linear(3),
                4,
                vec![Op::compute(20_000)],
            )),
        );
        gpu.launch(
            lo,
            Arc::new(FixedKernel::new(
                "waiter",
                Dim3::linear(8),
                4,
                vec![Op::wait(never, 0, 1)],
            )),
        );
        match run_gpu(engine, gpu) {
            Err(SimError::Deadlock(report)) => report,
            other => panic!("expected a deadlock, got {other:?}"),
        }
    };
    let reference = scenario(EngineMode::Reference);
    let optimized = scenario(EngineMode::Optimized);
    assert_eq!(reference, optimized, "deadlock reports");
    let blocked: Vec<(usize, u32)> = optimized
        .blocked
        .iter()
        .map(|b| (b.kernel.index(), b.block.x))
        .collect();
    assert_eq!(
        blocked,
        [
            (1, 0),
            (1, 1),
            (1, 2),
            (1, 3),
            (1, 4),
            (1, 5),
            (1, 6),
            (1, 7)
        ]
    );
    assert_eq!(optimized.pending_names(), vec!["waiter".to_string()]);
}

/// The tensor-parallel layer boundary — shard GEMMs, simulated ring
/// allreduce and the chunk-synchronized next-layer GEMM across 2–8
/// devices — must be engine-invariant under both schedules.
#[test]
fn tensor_parallel_layers_are_engine_invariant() {
    for devices in [2u32, 4, 8] {
        let cluster = ClusterConfig::dgx_v100(devices);
        for schedule in [TpSchedule::Serialized, TpSchedule::Overlap] {
            for cfg in [tp_mlp(4096, 256), tp_attention(4096, 256)] {
                let pipeline = compile_tp_layer(&cluster, cfg, schedule);
                both_modes(
                    &format!("tp {cfg:?} devices={devices} {schedule:?}"),
                    |engine| run_on(engine, &pipeline),
                );
            }
        }
    }
}

/// Builds a randomized multi-device workload from `seed`: 2-5 kernels of
/// mixed ops (including link sends) on random devices, priorities and
/// occupancies, with producer → consumer semaphore edges whose arrays are
/// homed on random devices — so the edges randomly cross the interconnect.
/// Kernel 0 posts every array and is launched first, so no launch order
/// can deadlock: on kernel 0's own device it issues first (earlier host
/// ready time), and spinners on other devices cannot block it.
fn random_cluster_workload(seed: u64, devices: u32, gpu: &mut Gpu) {
    let mut g = Gen(seed);
    let sems: Vec<_> = (0..g.range(1, 3))
        .map(|i| {
            let home = g.range(0, devices as u64) as u32;
            gpu.alloc_sems_on(home, &format!("sem{i}"), 2, 0)
        })
        .collect();
    let kernels = g.range(2, 6);
    for i in 0..kernels {
        let device = g.range(0, devices as u64) as u32;
        let stream = gpu.create_stream_on(device, g.range(0, 3) as i32);
        let mut body = Vec::new();
        for _ in 0..g.range(1, 6) {
            let x = g.range(1, 50_000);
            body.push(match g.range(0, 6) {
                0 => Op::compute(x),
                1 => Op::read(x * 64),
                2 => Op::write(x * 64),
                3 => Op::Fence,
                4 => Op::link_send(x * 256),
                _ => Op::main_step(x * 32, x),
            });
        }
        if i == 0 {
            for &sem in &sems {
                body.push(Op::post(sem, 0));
            }
        } else if g.range(0, 2) == 1 {
            let sem = sems[g.range(0, sems.len() as u64) as usize];
            body.insert(0, Op::wait(sem, 0, 1));
        }
        gpu.launch(
            stream,
            Arc::new(FixedKernel::new(
                &format!("k{i}"),
                Dim3::linear(g.range(1, 10) as u32),
                g.range(1, 5) as u32,
                body,
            )),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property: for arbitrary multi-device workloads (1-4 devices,
    /// random cross-device semaphore edges, link sends, mixed priorities)
    /// the reference and optimized engines produce bit-identical
    /// timelines and traces.
    #[test]
    fn random_multi_device_pipelines_are_engine_invariant(
        devices in 1u32..5,
        sms in 2u32..5,
        seed in 0u64..u64::MAX,
    ) {
        let cluster = ClusterConfig {
            devices: vec![GpuConfig::toy(sms); devices as usize],
            link_latency: SimTime::from_nanos(2_500),
            link_bytes_per_sec: 100e9,
        };
        let scenario = |mode: EngineMode| {
            let mut gpu = Gpu::new_cluster(cluster.clone());
            random_cluster_workload(seed, devices, &mut gpu);
            traced_gpu(mode, gpu)
        };
        let (ref_report, ref_trace) = scenario(EngineMode::Reference);
        let (opt_report, opt_trace) = scenario(EngineMode::Optimized);
        prop_assert_eq!(&ref_report.kernels, &opt_report.kernels);
        prop_assert_eq!(ref_report.total, opt_report.total);
        prop_assert_eq!(ref_report.sem_posts, opt_report.sem_posts);
        prop_assert_eq!(ref_report.sm_utilization, opt_report.sm_utilization);
        prop_assert_eq!(&ref_trace, &opt_trace);
        prop_assert!(opt_report.sim_events <= ref_report.sim_events);
    }

    /// Property: the same holds on heterogeneous clusters, where every
    /// device draws its own SM count (1-9), clock, DRAM bandwidth,
    /// residency boost, block jitter and DRAM saturation point — so
    /// devices own uneven SM ranges at uneven offsets and price ops at
    /// their own rates, and every input the optimized engine's pricing
    /// memos and per-SM residency scales key on varies per device.
    #[test]
    fn random_heterogeneous_clusters_are_engine_invariant(
        devices in 1u32..5,
        shape in 0u64..u64::MAX,
        seed in 0u64..u64::MAX,
    ) {
        let mut g = Gen(shape);
        let cluster = ClusterConfig {
            devices: (0..devices)
                .map(|_| GpuConfig {
                    clock_hz: g.range(700, 2_000) as f64 * 1e6,
                    dram_bytes_per_sec: g.range(200, 2_500) as f64 * 1e9,
                    residency_boost: g.range(0, 91) as f64 / 100.0,
                    block_jitter: g.range(0, 31) as f64 / 100.0,
                    dram_saturation_fraction: g.range(1, 101) as f64 / 100.0,
                    ..GpuConfig::toy(g.range(1, 10) as u32)
                })
                .collect(),
            link_latency: SimTime::from_nanos(2_500),
            link_bytes_per_sec: 100e9,
        };
        let scenario = |mode: EngineMode| {
            let mut gpu = Gpu::new_cluster(cluster.clone());
            random_cluster_workload(seed, devices, &mut gpu);
            traced_gpu(mode, gpu)
        };
        let (ref_report, ref_trace) = scenario(EngineMode::Reference);
        let (opt_report, opt_trace) = scenario(EngineMode::Optimized);
        assert_reports_identical(&ref_report, &opt_report, "heterogeneous cluster");
        prop_assert_eq!(&ref_trace, &opt_trace);
        prop_assert!(opt_report.sim_events <= ref_report.sim_events);
    }
}

/// Equivalence exercises the optimized engine's pricing path (per-SM
/// residency scales and per-kernel price memos), but every memo miss runs
/// the same formulas the reference engine does, so equivalence alone
/// cannot catch a formula that reads another device's rates. Pin it
/// directly: on a heterogeneous cluster, a kernel alone on device `d`
/// runs exactly as it does on a solo GPU with `d`'s config. (Jitter is
/// off: its hash keys on the kernel's index, which differs between the
/// two pipelines.)
#[test]
fn heterogeneous_devices_price_at_their_own_rates() {
    let quiet = |sms: u32| GpuConfig {
        block_jitter: 0.0,
        ..GpuConfig::toy(sms)
    };
    let gpus = [
        quiet(3),
        GpuConfig {
            clock_hz: 0.9e9,
            dram_bytes_per_sec: 400e9,
            dram_saturation_fraction: 0.9,
            ..quiet(7)
        },
        GpuConfig {
            clock_hz: 1.8e9,
            dram_bytes_per_sec: 2.0e12,
            ..quiet(1)
        },
    ];
    let kernel = |d: usize| {
        Arc::new(FixedKernel::new(
            &format!("k{d}"),
            Dim3::linear(10),
            2,
            vec![
                Op::read(1 << 20),
                Op::compute(20_000),
                Op::main_step(1 << 18, 9_000),
                Op::write(1 << 16),
            ],
        ))
    };
    let cluster = ClusterConfig {
        devices: gpus.to_vec(),
        link_latency: SimTime::from_nanos(2_500),
        link_bytes_per_sec: 100e9,
    };
    for mode in [EngineMode::Reference, EngineMode::Optimized] {
        let mut node = Gpu::new_cluster(cluster.clone());
        for d in 0..gpus.len() {
            let s = node.create_stream_on(d as u32, 0);
            node.launch(s, kernel(d));
        }
        let report = run_gpu(mode, node).expect("heterogeneous cluster runs");
        for (d, gpu) in gpus.iter().enumerate() {
            let mut solo = Gpu::new(gpu.clone());
            let s = solo.create_stream(0);
            solo.launch(s, kernel(d));
            let alone = &run_gpu(mode, solo).expect("solo GPU runs").kernels[0];
            let k = &report.kernels[d];
            assert_eq!(
                (k.ready, k.start, k.end, k.max_concurrent),
                (alone.ready, alone.start, alone.end, alone.max_concurrent),
                "{mode}: device {d}"
            );
        }
    }
}

/// Two kernels of different occupancy share one device and issue the
/// same `MainStep` before and after parking on a semaphore, so their
/// per-kernel price memos see repeated keys (hits) and keys that moved
/// with the park and the wake (misses). Both engines must agree, and the
/// optimized engine's counters must show both.
#[test]
fn price_memos_track_park_and_wake() {
    let scenario = |mode: EngineMode| {
        let mut gpu = Gpu::new(GpuConfig::toy(4));
        let sem = gpu.alloc_sems("go", 1, 0);
        let step = Op::main_step(48 * 1024, 30_000);
        let poster = gpu.create_stream(0);
        gpu.launch(
            poster,
            Arc::new(FixedKernel::new(
                "poster",
                Dim3::linear(1),
                4,
                vec![Op::compute(90_000), Op::Fence, Op::post(sem, 0)],
            )),
        );
        for (name, occupancy) in [("wide", 2u32), ("narrow", 4)] {
            let stream = gpu.create_stream(0);
            gpu.launch(
                stream,
                Arc::new(FixedKernel::new(
                    name,
                    Dim3::linear(occupancy),
                    occupancy,
                    vec![step, step, Op::wait(sem, 0, 1), step, step, step],
                )),
            );
        }
        traced_gpu(mode, gpu)
    };
    let (ref_report, ref_trace) = scenario(EngineMode::Reference);
    let (opt_report, opt_trace) = scenario(EngineMode::Optimized);
    assert_reports_identical(&ref_report, &opt_report, "park and wake");
    assert_eq!(ref_trace, opt_trace, "park and wake traces");
    let (r, o) = (ref_report.counters, opt_report.counters);
    assert!(o.parks > 0, "the waiters park: {o:?}");
    assert_eq!(
        (r.parks, r.wakes),
        (o.parks, o.wakes),
        "same parks and wakes"
    );
    assert_eq!(o.wakes, o.parks, "every parked block is woken");
    for (what, memo) in [("mem", o.mem_memo), ("cycles", o.cycles_memo)] {
        assert!(memo.hits > 0 && memo.misses > 0, "{what} memo: {memo:?}");
    }
    assert_eq!(
        r.mem_memo.hits + r.mem_memo.misses,
        0,
        "reference is unmemoized"
    );
    assert_eq!(r.cycles_memo.hits + r.cycles_memo.misses, 0);
}

/// Gates the optimized engine's pricing memos on deterministic counts:
/// on one fixed Fig. 6 MLP cell and one fixed Fig. 7 Conv2D cell, at
/// least 80% of DRAM-time and cycle-conversion lookups must hit. A change
/// that silently disables a memo (a key that never repeats, a memo reset
/// per op) fails here, not only in a wall-time benchmark.
#[test]
fn price_memos_hit_on_paper_cells() {
    let gpu = GpuConfig::tesla_v100();
    let mlp = SyncMode::CuSync(PolicyKind::Tile, OptFlags::WRT);
    let conv = SyncMode::CuSync(PolicyKind::Conv2DTile, OptFlags::WRT);
    let pq = cusync_models::pq_for_channels(128);
    let cells = [
        (
            "fig6 gpt3 mlp bs=256",
            compile_mlp(&gpu, MlpModel::Gpt3, 256, mlp),
        ),
        (
            "fig7 conv c=128 b=4",
            compile_conv_layer(&gpu, 4, pq, 128, 2, conv),
        ),
    ];
    let mut session = Session::new();
    for (what, pipeline) in cells {
        let mut run = || session.run(&pipeline).expect("paper cells cannot deadlock");
        let report = run();
        let c = report.counters;
        assert!(
            c.program_steps + c.coroutine_steps <= c.block_resume_events,
            "{what}: every block step is a resume"
        );
        let blocks: u64 = report.kernels.iter().map(|k| k.blocks).sum();
        assert_eq!(c.placements, blocks, "{what}: every block placed once");
        assert_eq!(c.parks, c.wakes, "{what}: every park woken");
        for (memo, count) in [("mem", c.mem_memo), ("cycles", c.cycles_memo)] {
            assert!(
                count.hit_rate() >= 0.8,
                "{what}: {memo} memo hit rate {:.3} ({count:?})",
                count.hit_rate()
            );
        }
        let again = run();
        assert_eq!(again.counters, c, "{what}: counters are deterministic");
    }
}

/// Builds a randomized multi-device workload whose semaphore *waits* are
/// all homed on the waiting kernel's own device, while kernel 0's posts
/// and every kernel's link sends still cross the interconnect. Kernel 0
/// posts every device's home array and is launched first, so no launch
/// order can deadlock (same argument as [`random_cluster_workload`]).
fn random_local_wait_workload(seed: u64, devices: u32, gpu: &mut Gpu) {
    let mut g = Gen(seed ^ 0x517C_C1B7_2722_0A95);
    let sems: Vec<_> = (0..devices)
        .map(|d| gpu.alloc_sems_on(d, &format!("home{d}"), 2, 0))
        .collect();
    let kernels = g.range(2, 6);
    for i in 0..kernels {
        let device = g.range(0, devices as u64) as u32;
        let stream = gpu.create_stream_on(device, g.range(0, 3) as i32);
        let mut body = Vec::new();
        for _ in 0..g.range(1, 6) {
            let x = g.range(1, 50_000);
            body.push(match g.range(0, 6) {
                0 => Op::compute(x),
                1 => Op::read(x * 64),
                2 => Op::write(x * 64),
                3 => Op::Fence,
                4 => Op::link_send(x * 256),
                _ => Op::main_step(x * 32, x),
            });
        }
        if i == 0 {
            for &sem in &sems {
                body.push(Op::post(sem, 0));
            }
        } else if g.range(0, 2) == 1 {
            body.insert(0, Op::wait(sems[device as usize], 0, 1));
        }
        gpu.launch(
            stream,
            Arc::new(FixedKernel::new(
                &format!("k{i}"),
                Dim3::linear(g.range(1, 10) as u32),
                g.range(1, 3) as u32,
                body,
            )),
        );
    }
}

/// Builds the toy cluster the local-wait properties draw from: `devices`
/// identical `sms`-SM devices joined by a 100 GB/s, 2.5 us link.
fn local_wait_pipeline(devices: u32, sms: u32, seed: u64) -> CompiledPipeline {
    let cluster = ClusterConfig {
        devices: vec![GpuConfig::toy(sms); devices as usize],
        link_latency: SimTime::from_nanos(2_500),
        link_bytes_per_sec: 100e9,
    };
    let mut gpu = Gpu::new_cluster(cluster);
    random_local_wait_workload(seed, devices, &mut gpu);
    gpu.compile().expect("local-wait workload compiles")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property: for arbitrary local-wait workloads (2-4 devices running
    /// in parallel, home-local waits, cross-device posts, link sends,
    /// mixed priorities) the reference and optimized engines produce
    /// bit-identical reports.
    #[test]
    fn random_local_wait_pipelines_are_parallel_engine_invariant(
        devices in 2u32..5,
        sms in 2u32..5,
        seed in 0u64..u64::MAX,
    ) {
        let pipeline = local_wait_pipeline(devices, sms, seed);
        let run = |mode: EngineMode| {
            let mut session = Session::with_mode(mode);
            session.run(&pipeline).expect("local-wait workload runs")
        };
        let reference = run(EngineMode::Reference);
        let optimized = run(EngineMode::Optimized);
        assert_reports_identical(&reference, &optimized, "local-wait workload");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property: on the same local-wait workloads the optimized engine's
    /// trace is identical, event for event, to the one-event-at-a-time
    /// reference engine's, and tracing perturbs neither engine's report.
    #[test]
    fn random_local_wait_traces_match_serial(
        devices in 2u32..5,
        sms in 2u32..5,
        seed in 0u64..u64::MAX,
    ) {
        let pipeline = local_wait_pipeline(devices, sms, seed);
        let run = |mode: EngineMode, trace: bool| {
            let mut session = Session::with_mode(mode);
            if trace {
                session.enable_trace();
            }
            let report = session.run(&pipeline).expect("local-wait workload runs");
            (report, session.trace().to_vec())
        };
        let (ref_plain, _) = run(EngineMode::Reference, false);
        let (ref_report, ref_trace) = run(EngineMode::Reference, true);
        let (opt_plain, _) = run(EngineMode::Optimized, false);
        let (opt_report, opt_trace) = run(EngineMode::Optimized, true);
        prop_assert_eq!(&ref_plain, &ref_report, "tracing perturbed the reference engine");
        prop_assert_eq!(&opt_plain, &opt_report, "tracing perturbed the optimized engine");
        prop_assert!(!ref_trace.is_empty(), "local-wait workload records events");
        prop_assert_eq!(&ref_trace, &opt_trace);
    }
}

/// Tracing is **passive**: enabling it changes nothing observable. The
/// same pipeline run with tracing on and off must produce bit-identical
/// reports under both engines, engine counters included — the contract
/// the observability layer (`crates/obs`) is built on.
#[test]
fn tracing_is_passive_in_every_engine() {
    let cluster = ClusterConfig::dgx_v100(2);
    let pipeline = compile_tp_layer(&cluster, tp_mlp(4096, 256), TpSchedule::Overlap);
    let run = |mode: EngineMode, trace: bool| {
        let mut session = Session::with_mode(mode);
        if trace {
            session.enable_trace();
        }
        session.run(&pipeline).expect("TP layer runs")
    };
    for (what, mode) in [
        ("reference", EngineMode::Reference),
        ("optimized", EngineMode::Optimized),
    ] {
        let untraced = run(mode, false);
        let traced = run(mode, true);
        assert_eq!(untraced, traced, "{what}: tracing perturbed the run");
    }
}

/// Traces — the fullest observable scheduling record — also match, on a
/// scenario with priorities, semaphores and partial waves.
#[test]
fn scheduling_traces_are_engine_invariant() {
    let scenario = |mode: EngineMode| {
        let mut gpu = Gpu::new(GpuConfig::toy(4));
        let sem = gpu.alloc_sems("t", 4, 0);
        let lo = gpu.create_stream(0);
        let hi = gpu.create_stream(3);
        gpu.launch(
            lo,
            Arc::new(cusync_sim::FixedKernel::new(
                "producer",
                Dim3::linear(6),
                2,
                vec![
                    Op::read(32 * 1024),
                    Op::compute(50_000),
                    Op::Fence,
                    Op::post(sem, 0),
                ],
            )),
        );
        gpu.launch(
            hi,
            Arc::new(cusync_sim::FixedKernel::new(
                "consumer",
                Dim3::linear(6),
                2,
                vec![Op::wait(sem, 0, 3), Op::main_step(16 * 1024, 40_000)],
            )),
        );
        traced_gpu(mode, gpu).1
    };
    assert_eq!(
        scenario(EngineMode::Reference),
        scenario(EngineMode::Optimized),
        "trace event sequences"
    );
}
