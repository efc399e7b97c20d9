//! Scheduling-level behaviour: the wait-kernel mechanism, deadlock
//! detection, halo correctness of the conv dependence, and Stream-K
//! functional equivalence.

use std::sync::Arc;

use cusync::{Conv2DTileSync, CuStage, NoSync, OptFlags, SyncGraph, TileSync, WaitKernel};
use cusync_kernels::reference::{assert_close, matmul};
use cusync_kernels::{
    Conv2DBuilder, Conv2DShape, DepPlan, Epilogue, GemmBuilder, GemmDims, InputDep, TileShape,
};
use cusync_sim::{
    ClusterConfig, DType, Dim3, Gpu, GpuConfig, IndexedKernel, KernelSource, Op, SchedPolicy,
    Session, SimError, SimTime,
};
use proptest::prelude::*;

fn quiet_gpu(sms: u32) -> Gpu {
    Gpu::new(GpuConfig {
        host_launch_gap: SimTime::ZERO,
        kernel_dispatch_latency: SimTime::ZERO,
        block_jitter: 0.0,
        ..GpuConfig::toy(sms)
    })
}

/// Without the wait-kernel, an eagerly scheduled consumer that fills every
/// SM slot busy-waiting starves the producer: the Section III-B deadlock.
/// With the wait-kernel, the same launch completes.
#[test]
fn wait_kernel_prevents_the_section3b_deadlock() {
    let build = |with_wait_kernel: bool| -> Result<(), SimError> {
        let mut gpu = quiet_gpu(2); // tiny GPU: 2 SMs
        let m = 16u32;
        let tile = TileShape::new(8, 8, 8);
        let x = gpu.alloc("x", (m * m) as usize, DType::F16);
        let w1 = gpu.alloc("w1", (m * m) as usize, DType::F16);
        let w2 = gpu.alloc("w2", (m * m) as usize, DType::F16);
        let xw1 = gpu.alloc("xw1", (m * m) as usize, DType::F16);
        let out = gpu.alloc("out", (m * m) as usize, DType::F16);
        let grid = Dim3::new(m / 8, m / 8, 1);
        let mut graph = SyncGraph::new();
        let s1 = graph.add_stage(CuStage::new("prod", grid).policy(TileSync));
        let opts = if with_wait_kernel {
            OptFlags::NONE
        } else {
            OptFlags {
                avoid_wait_kernel: true,
                ..OptFlags::NONE
            }
        };
        let s2 = graph.add_stage(CuStage::new("cons", grid).policy(NoSync).opts(opts));
        graph.dependency(s1, s2, xw1).unwrap();
        let bound = graph.bind(&mut gpu).unwrap();
        let g1 = GemmBuilder::new("prod", GemmDims::new(m, m, m), tile)
            .operands(x, w1, xw1)
            .occupancy(1)
            .stage(Arc::clone(bound.stage(s1)))
            .build(gpu.config())
            .expect("operands set");
        let g2 = GemmBuilder::new("cons", GemmDims::new(m, m, m), tile)
            .operands(xw1, w2, out)
            .occupancy(1)
            .stage(Arc::clone(bound.stage(s2)))
            .a_dep(InputDep::row_aligned(grid), grid.x)
            .build(gpu.config())
            .expect("operands set");
        if with_wait_kernel {
            // The paper's protocol (Fig. 4a): producer first, then the
            // wait-kernel + consumer. The wait-kernel parks on 1/16th of
            // an SM until the producer starts.
            bound.launch(&mut gpu, s1, Arc::new(g1)).unwrap();
            bound.launch(&mut gpu, s2, Arc::new(g2)).unwrap();
        } else {
            // Adversarial scheduling order (the CUDA runtime makes no
            // cross-stream ordering promise without the wait-kernel): the
            // consumer's blocks reach the SMs first.
            bound.launch(&mut gpu, s2, Arc::new(g2)).unwrap();
            bound.launch(&mut gpu, s1, Arc::new(g1)).unwrap();
        }
        gpu.compile()
            .and_then(|p| Session::new().run(&p))
            .map(|_| ())
    };
    // Without the wait-kernel the consumer's 4 blocks fill both SMs
    // (occupancy 1) busy-waiting and the producer can never run: the
    // Section III-B deadlock.
    let err = build(false).unwrap_err();
    assert!(matches!(err, SimError::Deadlock { .. }), "{err}");
    // With the wait-kernel and the launch-order scheduling it assumes
    // ("CUDA schedules thread blocks of kernels in the order the kernels
    // are invoked"), the same workload completes.
    build(true).expect("wait-kernel run must complete");
}

#[test]
fn deadlock_report_names_blocked_semaphores() {
    let mut gpu = quiet_gpu(2);
    let sem = gpu.alloc_sems("missing", 1, 0);
    let s = gpu.create_stream(0);
    gpu.launch(
        s,
        Arc::new(cusync_sim::FixedKernel::new(
            "stuck",
            Dim3::linear(1),
            1,
            vec![Op::wait(sem, 0, 3)],
        )),
    );
    match gpu
        .compile()
        .and_then(|p| Session::new().run(&p))
        .unwrap_err()
    {
        SimError::Deadlock(report) => {
            assert_eq!(report.pending_names(), vec!["stuck".to_string()]);
            let line = report.blocked[0].to_string();
            assert!(line.contains("missing[0] >= 3"), "{line}");
            assert_eq!(report.blocked[0].target, 3);
            assert_eq!(report.blocked[0].current, 0);
        }
        other => panic!("expected deadlock, got {other}"),
    }
}

/// The paper's literal Fig. 5c conv dependence (no halo) under-synchronizes:
/// under a last-launched-first issue order (`Lifo`), consumer tiles run
/// while the producer tiles holding their halo rows are unwritten, so they
/// race. Halo-aware waits (our default) are race-free on the same schedule.
#[test]
fn conv_halo_waits_are_required_for_correctness() {
    let run = |halo_safe: bool| -> u64 {
        let shape = Conv2DShape::square3x3(1, 16, 4, 4);
        let tile = TileShape::new(8, 4, 4);
        let mut gpu = quiet_gpu(4);
        let data = |len: usize| (0..len).map(|i| (i % 5) as f32 * 0.2).collect::<Vec<_>>();
        let input =
            gpu.mem_mut()
                .alloc_data("in", data((shape.gemm_m() * shape.c) as usize), DType::F16);
        let w1 = gpu.mem_mut().alloc_data(
            "w1",
            data((shape.rs() * shape.c * shape.k) as usize),
            DType::F16,
        );
        let w2 = gpu.mem_mut().alloc_data(
            "w2",
            data((shape.rs() * shape.k * shape.k) as usize),
            DType::F16,
        );
        let mid =
            gpu.mem_mut()
                .alloc_poisoned("mid", (shape.gemm_m() * shape.k) as usize, DType::F16);
        let out =
            gpu.mem_mut()
                .alloc_poisoned("out", (shape.gemm_m() * shape.k) as usize, DType::F16);
        let grid = Dim3::new(1, shape.gemm_m() / tile.m, 1);
        let mut graph = SyncGraph::new();
        let s1 =
            graph.add_stage(CuStage::new("conv1", grid).policy(Conv2DTileSync::new(shape.rs())));
        let s2 = graph.add_stage(CuStage::new("conv2", grid).policy(NoSync));
        graph.dependency(s1, s2, mid).unwrap();
        let bound = graph.bind(&mut gpu).unwrap();
        let c1 = Conv2DBuilder::new("conv1", shape, tile)
            .operands(input, w1, mid)
            .epilogue(Epilogue::None)
            .stage(Arc::clone(bound.stage(s1)))
            .build(gpu.config())
            .expect("operands set");
        let mut b2 = Conv2DBuilder::new("conv2", shape, tile)
            .operands(mid, w2, out)
            .epilogue(Epilogue::None)
            .stage(Arc::clone(bound.stage(s2)))
            .input_dep(InputDep {
                prod_grid: grid,
                plan: DepPlan::RowAligned { x_offset_tiles: 0 },
            });
        if !halo_safe {
            b2 = b2.paper_literal_waits();
        }
        let c2 = b2.build(gpu.config()).expect("operands set");
        bound.launch(&mut gpu, s1, Arc::new(c1)).unwrap();
        bound.launch(&mut gpu, s2, Arc::new(c2)).unwrap();
        let mut session = Session::new();
        session.set_sched(SchedPolicy::Lifo);
        session
            .run(&gpu.compile().expect("valid toy config"))
            .expect("conv chain deadlocked")
            .races
    };
    let literal = run(false);
    let safe = run(true);
    assert!(literal > 0, "paper-literal waits must race under Lifo");
    assert_eq!(safe, 0, "halo-aware waits must be race-free");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Stream-K computes reference-exact GeMMs for arbitrary shapes
    /// (full-wave, partial-wave and split-tile paths all exercised).
    #[test]
    fn streamk_matches_reference(mt in 1u32..6, nt in 1u32..4, kt in 1u32..6) {
        let (m, n, k) = (mt * 16, nt * 16, kt * 16);
        let mut gpu = quiet_gpu(4);
        let a_data: Vec<f32> = (0..(m * k) as usize).map(|i| (i % 9) as f32 * 0.05).collect();
        let b_data: Vec<f32> = (0..(k * n) as usize).map(|i| (i % 7) as f32 * 0.05).collect();
        let a = gpu.mem_mut().alloc_data("a", a_data.clone(), DType::F16);
        let b = gpu.mem_mut().alloc_data("b", b_data.clone(), DType::F16);
        let c = gpu.mem_mut().alloc_poisoned("c", (m * n) as usize, DType::F16);
        let sk = cusync_streamk::StreamKBuilder::new(
            "sk",
            GemmDims::new(m, n, k),
            TileShape::new(16, 16, 16),
        )
        .operands(a, b, c)
        .occupancy(1)
        .build()
        .expect("operands set");
        let stream = gpu.create_stream(0);
        sk.launch(&mut gpu, stream);
        let mut session = Session::new();
        let report = gpu.compile().and_then(|p| session.run(&p)).unwrap();
        prop_assert_eq!(report.races, 0);
        let expected = matmul(&a_data, &b_data, m as usize, n as usize, k as usize);
        assert_close(session.mem().snapshot(c).unwrap(), &expected, 1e-2);
    }
}

/// The Section III-B pair, ported to a multi-device node: a producer on
/// device 0, a relay on device 1 (its semaphores homed remotely from the
/// producer's perspective), and a final consumer back on device 0. With
/// wait-kernels and producer-first launch the chain completes across the
/// interconnect; with wait-kernels elided and the adversarial
/// consumer-first launch order, the consumer's busy-waiting blocks hold
/// device 0 hostage while they poll device 1's semaphores — a wait cycle
/// that crosses the link twice.
#[test]
fn cross_device_wait_kernel_prevents_the_section3b_deadlock() {
    let build = |with_wait_kernel: bool| -> Result<(), SimError> {
        let device_cfg = GpuConfig {
            host_launch_gap: SimTime::ZERO,
            kernel_dispatch_latency: SimTime::ZERO,
            block_jitter: 0.0,
            ..GpuConfig::toy(2)
        };
        let cluster = ClusterConfig {
            devices: vec![device_cfg; 2],
            link_latency: SimTime::from_nanos(3_000),
            link_bytes_per_sec: 100e9,
        };
        let mut gpu = Gpu::new_cluster(cluster);
        let grid = Dim3::linear(4);
        let opts = OptFlags {
            avoid_wait_kernel: !with_wait_kernel,
            avoid_custom_order: true,
            ..OptFlags::NONE
        };
        let mut graph = SyncGraph::new();
        let prod = graph.add_stage(
            CuStage::new("prod", grid)
                .policy(TileSync)
                .opts(opts)
                .on_device(0),
        );
        let relay = graph.add_stage(
            CuStage::new("relay", grid)
                .policy(TileSync)
                .opts(opts)
                .on_device(1),
        );
        let cons = graph.add_stage(
            CuStage::new("cons", grid)
                .policy(NoSync)
                .opts(opts)
                .on_device(0),
        );
        let mid = gpu.alloc("mid", 64, DType::F16);
        let out = gpu.alloc("out", 64, DType::F16);
        graph.dependency(prod, relay, mid).unwrap();
        graph.dependency(relay, cons, out).unwrap();
        let bound = graph.bind(&mut gpu).unwrap();
        // Each stage's semaphores are homed with the stage: the relay's
        // array lives on device 1, remote to both its producer's posts...
        assert_eq!(
            gpu.sems().device(bound.stage(relay).sem_array().unwrap()),
            1
        );
        // ...and to the consumer's polls from device 0.
        assert_eq!(gpu.sems().device(bound.stage(prod).sem_array().unwrap()), 0);
        let kernel = |stage: cusync::StageId| -> Arc<dyn KernelSource> {
            let runtime = Arc::clone(bound.stage(stage));
            let name = runtime.name().to_owned();
            Arc::new(IndexedKernel::new(&name, grid, 1, move |tile| {
                let mut ops: Vec<Op> = Vec::new();
                ops.extend(runtime.start_op(tile));
                for buffer in [mid, out] {
                    ops.extend(runtime.wait_op(buffer, tile));
                }
                ops.push(Op::compute(50_000));
                if let Some(post) = runtime.post_ops(tile) {
                    ops.extend(post);
                }
                ops
            }))
        };
        let launch_order: Vec<cusync::StageId> = if with_wait_kernel {
            vec![prod, relay, cons]
        } else {
            // Adversarial cross-stream order: the starving consumer's
            // blocks reach device 0's SMs before the producer's.
            vec![cons, relay, prod]
        };
        for stage in launch_order {
            let k = kernel(stage);
            bound.launch(&mut gpu, stage, k).unwrap();
        }
        gpu.compile()
            .and_then(|p| Session::new().run(&p))
            .map(|_| ())
    };
    // Without wait-kernels: cons's 4 occupancy-1 blocks fill both of
    // device 0's SMs spinning on relay's (device 1) semaphores; relay
    // spins on prod's; prod can never issue on device 0.
    let err = build(false).unwrap_err();
    let SimError::Deadlock(report) = err else {
        panic!("expected a cross-device deadlock, got {err}");
    };
    // The report shows the cross-device wait: cons blocks on device 0
    // polling the relay's remotely-homed array.
    let cross = report
        .blocked
        .iter()
        .find(|b| b.kernel_name == "cons")
        .expect("cons blocks in the report");
    assert_eq!(cross.device, 0);
    assert!(cross.sem_name.contains("relay"), "{}", cross.sem_name);
    let cycle = report.wait_cycle().expect("occupancy cycle");
    assert!(cycle.contains("prod"), "{cycle}");
    // With the wait-kernel protocol the same graph completes across the
    // link.
    build(true).expect("cross-device wait-kernel run must complete");
}

#[test]
fn wait_kernel_occupies_a_sliver_of_one_sm() {
    let mut gpu = quiet_gpu(4);
    let sem = gpu.alloc_sems("start", 1, 0);
    let wait = WaitKernel::new("w", vec![(sem, 0)]);
    use cusync_sim::KernelSource;
    assert_eq!(wait.grid().count(), 1);
    assert_eq!(wait.occupancy(), cusync_sim::MAX_OCCUPANCY);
}
