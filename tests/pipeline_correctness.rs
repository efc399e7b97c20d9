//! Cross-crate functional correctness: full producer/consumer pipelines
//! must compute reference-exact results, race-free, under every policy.

use std::sync::Arc;

use cusync::{CuStage, NoSync, OptFlags, PolicyRef, RowSync, StridedSync, SyncGraph, TileSync};
use cusync_kernels::reference::{assert_close, matmul, swish};
use cusync_kernels::{DepPlan, GemmBuilder, GemmDims, InputDep, TileShape};
use cusync_sim::{DType, Dim3, Gpu, GpuConfig, RunReport, Session, SimTime};

fn quiet_gpu(sms: u32) -> Gpu {
    Gpu::new(GpuConfig {
        host_launch_gap: SimTime::ZERO,
        kernel_dispatch_latency: SimTime::ZERO,
        block_jitter: 0.0,
        ..GpuConfig::toy(sms)
    })
}

fn seeded(len: usize, scale: f32) -> Vec<f32> {
    (0..len)
        .map(|i| ((i * 37 + 11) % 17) as f32 * scale - 0.4)
        .collect()
}

/// Runs the two-GeMM MLP chain under `policy` with `opts`, returning the
/// report and verifying output against the CPU oracle.
fn run_chain(policy: PolicyRef, opts: OptFlags, chunks: u32) -> RunReport {
    let (m, k, h) = (32u32, 24u32, 40u32);
    let tile = TileShape::new(8, 8, 8);
    let mut gpu = quiet_gpu(8);
    let x_data = seeded((m * k) as usize, 0.05);
    let w1_data = seeded((k * h) as usize, 0.04);
    let w2_data = seeded((h * k) as usize, 0.03);
    let x = gpu.mem_mut().alloc_data("x", x_data.clone(), DType::F16);
    let w1 = gpu.mem_mut().alloc_data("w1", w1_data.clone(), DType::F16);
    let w2 = gpu.mem_mut().alloc_data("w2", w2_data.clone(), DType::F16);
    let xw1 = gpu
        .mem_mut()
        .alloc_poisoned("xw1", (m * h) as usize, DType::F16);
    let out = gpu
        .mem_mut()
        .alloc_poisoned("out", (m * k) as usize, DType::F16);

    let grid1 = Dim3::new(h / tile.n, m / tile.m, 1);
    let grid2 = Dim3::new(k / tile.n, m / tile.m, 1);
    let mut graph = SyncGraph::new();
    let s1 = graph.add_stage(CuStage::new("gemm1", grid1).policy_ref(policy).opts(opts));
    let s2 = graph.add_stage(CuStage::new("gemm2", grid2).policy(NoSync).opts(opts));
    graph.dependency(s1, s2, xw1).unwrap();
    let bound = graph.bind(&mut gpu).unwrap();
    let g1 = GemmBuilder::new("gemm1", GemmDims::new(m, h, k), tile)
        .operands(x, w1, xw1)
        .stage(Arc::clone(bound.stage(s1)))
        .build(gpu.config())
        .expect("operands set");
    let g2 = GemmBuilder::new("gemm2", GemmDims::new(m, k, h), tile)
        .operands(xw1, w2, out)
        .stage(Arc::clone(bound.stage(s2)))
        .a_dep(InputDep::row_aligned(grid1), chunks)
        .build(gpu.config())
        .expect("operands set");
    bound.launch(&mut gpu, s1, Arc::new(g1)).unwrap();
    bound.launch(&mut gpu, s2, Arc::new(g2)).unwrap();
    let mut session = Session::new();
    let report = gpu
        .compile()
        .and_then(|p| session.run(&p))
        .expect("pipeline deadlocked");

    let xw1_ref = matmul(&x_data, &w1_data, m as usize, h as usize, k as usize);
    let out_ref = matmul(&xw1_ref, &w2_data, m as usize, k as usize, h as usize);
    assert_close(session.mem().snapshot(out).unwrap(), &out_ref, 5e-3);
    report
}

#[test]
fn every_policy_and_opt_combination_is_race_free_and_correct() {
    let policies: Vec<(&str, PolicyRef)> = vec![
        ("TileSync", Arc::new(TileSync)),
        ("RowSync", Arc::new(RowSync)),
    ];
    for (name, policy) in policies {
        for opts in OptFlags::all() {
            let report = run_chain(Arc::clone(&policy), opts, 5);
            assert_eq!(report.races, 0, "{name}{opts} raced: {report}");
        }
    }
}

#[test]
fn coarse_and_fine_wait_granularities_agree() {
    // One wait for the whole K extent vs one wait per producer tile.
    for chunks in [1u32, 2, 5] {
        let report = run_chain(Arc::new(TileSync), OptFlags::NONE, chunks);
        assert_eq!(report.races, 0, "chunks={chunks}");
    }
}

#[test]
fn llama_swiglu_chain_with_strided_policy_is_correct() {
    // Combined [gate|value] producer + SwiGLU consumer, synchronized by
    // the generated StridedSync (both halves of a column must be ready).
    let (m, k, inter) = (16u32, 16u32, 16u32);
    let tile = TileShape::new(8, 8, 8);
    let mut gpu = quiet_gpu(8);
    let x_data = seeded((m * k) as usize, 0.05);
    let w1v_data = seeded((k * 2 * inter) as usize, 0.05);
    let w2_data = seeded((inter * k) as usize, 0.04);
    let x = gpu.mem_mut().alloc_data("x", x_data.clone(), DType::F16);
    let w1v = gpu
        .mem_mut()
        .alloc_data("w1v", w1v_data.clone(), DType::F16);
    let w2 = gpu.mem_mut().alloc_data("w2", w2_data.clone(), DType::F16);
    let comb = gpu
        .mem_mut()
        .alloc_poisoned("comb", (m * 2 * inter) as usize, DType::F16);
    let out = gpu
        .mem_mut()
        .alloc_poisoned("out", (m * k) as usize, DType::F16);

    let grid1 = Dim3::new(2 * inter / tile.n, m / tile.m, 1);
    let grid2 = Dim3::new(k / tile.n, m / tile.m, 1);
    let half = grid1.x / 2;
    let mut graph = SyncGraph::new();
    let s1 = graph.add_stage(CuStage::new("gemm1", grid1).policy(StridedSync::new(half, 2)));
    let s2 = graph.add_stage(CuStage::new("gemm2", grid2).policy(NoSync));
    graph.dependency(s1, s2, comb).unwrap();
    let bound = graph.bind(&mut gpu).unwrap();
    let g1 = GemmBuilder::new("gemm1", GemmDims::new(m, 2 * inter, k), tile)
        .operands(x, w1v, comb)
        .stage(Arc::clone(bound.stage(s1)))
        .build(gpu.config())
        .expect("operands set");
    let g2 = GemmBuilder::new("gemm2", GemmDims::new(m, k, inter), tile)
        .swiglu_a(comb)
        .operands_b_c(w2, out)
        .stage(Arc::clone(bound.stage(s2)))
        .a_dep(
            InputDep {
                prod_grid: grid1,
                plan: DepPlan::Strided {
                    x_offsets: vec![0, half],
                },
            },
            half,
        )
        .build(gpu.config())
        .expect("operands set");
    bound.launch(&mut gpu, s1, Arc::new(g1)).unwrap();
    bound.launch(&mut gpu, s2, Arc::new(g2)).unwrap();
    let mut session = Session::new();
    let report = gpu
        .compile()
        .and_then(|p| session.run(&p))
        .expect("swiglu chain deadlocked");
    assert_eq!(report.races, 0, "{report}");

    let comb_ref = matmul(
        &x_data,
        &w1v_data,
        m as usize,
        2 * inter as usize,
        k as usize,
    );
    let mut a_eff = vec![0.0f32; (m * inter) as usize];
    for i in 0..m as usize {
        for j in 0..inter as usize {
            let gate = comb_ref[i * 2 * inter as usize + j];
            let value = comb_ref[i * 2 * inter as usize + inter as usize + j];
            a_eff[i * inter as usize + j] = swish(gate) * value;
        }
    }
    let out_ref = matmul(&a_eff, &w2_data, m as usize, k as usize, inter as usize);
    assert_close(session.mem().snapshot(out).unwrap(), &out_ref, 1e-2);
}

#[test]
fn three_stage_chain_propagates_through_intermediates() {
    // gemm1 -> gemm2 -> gemm3 with per-stage policies.
    let m = 16u32;
    let tile = TileShape::new(8, 8, 8);
    let mut gpu = quiet_gpu(8);
    let x_data = seeded((m * m) as usize, 0.05);
    let w_data: Vec<Vec<f32>> = (0..3)
        .map(|i| seeded((m * m) as usize, 0.03 + i as f32 * 0.01))
        .collect();
    let x = gpu.mem_mut().alloc_data("x", x_data.clone(), DType::F16);
    let ws: Vec<_> = w_data
        .iter()
        .enumerate()
        .map(|(i, d)| {
            gpu.mem_mut()
                .alloc_data(&format!("w{i}"), d.clone(), DType::F16)
        })
        .collect();
    let mids: Vec<_> = (0..3)
        .map(|i| {
            gpu.mem_mut()
                .alloc_poisoned(&format!("m{i}"), (m * m) as usize, DType::F16)
        })
        .collect();

    let grid = Dim3::new(m / tile.n, m / tile.m, 1);
    let mut graph = SyncGraph::new();
    let stages: Vec<_> = (0..3)
        .map(|i| {
            if i < 2 {
                graph.add_stage(CuStage::new(&format!("g{i}"), grid).policy(TileSync))
            } else {
                graph.add_stage(CuStage::new(&format!("g{i}"), grid).policy(NoSync))
            }
        })
        .collect();
    graph.dependency(stages[0], stages[1], mids[0]).unwrap();
    graph.dependency(stages[1], stages[2], mids[1]).unwrap();
    let bound = graph.bind(&mut gpu).unwrap();
    let inputs = [x, mids[0], mids[1]];
    for i in 0..3 {
        let mut b = GemmBuilder::new(&format!("g{i}"), GemmDims::new(m, m, m), tile)
            .operands(inputs[i], ws[i], mids[i])
            .stage(Arc::clone(bound.stage(stages[i])));
        if i > 0 {
            b = b.a_dep(InputDep::row_aligned(grid), grid.x);
        }
        let kernel = b.build(gpu.config()).expect("operands set");
        bound.launch(&mut gpu, stages[i], Arc::new(kernel)).unwrap();
    }
    let mut session = Session::new();
    let report = gpu
        .compile()
        .and_then(|p| session.run(&p))
        .expect("3-stage chain deadlocked");
    assert_eq!(report.races, 0, "{report}");

    let mut cur = x_data;
    for w in &w_data {
        cur = matmul(&cur, w, m as usize, m as usize, m as usize);
    }
    assert_close(session.mem().snapshot(mids[2]).unwrap(), &cur, 5e-2);
}
