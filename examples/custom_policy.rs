//! Writing a custom synchronization policy and generating policies with
//! the cuSyncGen DSL (Section IV).
//!
//! Shows the two extension paths the paper emphasizes:
//! 1. hand-implementing [`SyncPolicy`] (here: a diagonal-wavefront policy);
//! 2. describing the dependency in the DSL and letting the compiler
//!    generate the policies, the tile order, and the CUDA source.
//!
//! ```text
//! cargo run --release --example custom_policy
//! ```

use std::error::Error;
use std::sync::Arc;

use cusync::{CuStage, NoSync, SyncGraph, SyncPolicy};
use cusync_kernels::reference::{assert_close, matmul};
use cusync_kernels::{GemmBuilder, GemmDims, InputDep, TileShape};
use cusync_sim::{DType, Dim3, Gpu, GpuConfig, Session, SimTime};
use cusyncgen::{check_spec, emit_spec, policies_for, AffineExpr, DepSpec, Pattern};

/// A custom policy: tiles on the same anti-diagonal share one semaphore.
/// Coarser than TileSync along diagonals, finer than a whole-kernel
/// barrier — the kind of experiment cuSync's modularity invites.
#[derive(Debug, Clone, Copy)]
struct DiagonalSync;

impl SyncPolicy for DiagonalSync {
    fn name(&self) -> String {
        "DiagonalSync".into()
    }

    fn num_sems(&self, grid: Dim3) -> usize {
        (grid.x + grid.y - 1) as usize
    }

    fn post_sem(&self, tile: Dim3, _grid: Dim3) -> u32 {
        tile.x + tile.y
    }

    fn expected(&self, requested: Dim3, grid: Dim3) -> u32 {
        // Tiles on anti-diagonal d: count of (x, y) with x + y = d.
        let d = requested.x + requested.y;
        let lo = d.saturating_sub(grid.y - 1);
        let hi = d.min(grid.x - 1);
        (hi - lo + 1) * grid.z
    }
}

fn main() -> Result<(), Box<dyn Error>> {
    // --- 1. Run a functional MLP chain under the custom policy ----------
    let (m, k, h) = (32u32, 24u32, 40u32);
    let tile = TileShape::new(8, 8, 8);
    let mut gpu = Gpu::new(GpuConfig {
        host_launch_gap: SimTime::ZERO,
        kernel_dispatch_latency: SimTime::ZERO,
        block_jitter: 0.0,
        ..GpuConfig::toy(8)
    });
    let seeded = |len: usize, s: f32| -> Vec<f32> {
        (0..len)
            .map(|i| ((i * 37 + 11) % 17) as f32 * s - 0.4)
            .collect()
    };
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
    let s1 = graph.add_stage(CuStage::new("gemm1", grid1).policy(DiagonalSync));
    let s2 = graph.add_stage(CuStage::new("gemm2", grid2).policy(NoSync));
    graph.dependency(s1, s2, xw1)?;
    let bound = graph.bind(&mut gpu)?;
    let g1 = GemmBuilder::new("gemm1", GemmDims::new(m, h, k), tile)
        .operands(x, w1, xw1)
        .stage(Arc::clone(bound.stage(s1)))
        .build(gpu.config())
        .expect("operands set");
    let g2 = GemmBuilder::new("gemm2", GemmDims::new(m, k, h), tile)
        .operands(xw1, w2, out)
        .stage(Arc::clone(bound.stage(s2)))
        .a_dep(InputDep::row_aligned(grid1), grid1.x)
        .build(gpu.config())
        .expect("operands set");
    bound.launch(&mut gpu, s1, Arc::new(g1))?;
    bound.launch(&mut gpu, s2, Arc::new(g2))?;
    let mut session = Session::new();
    let report = gpu.compile().and_then(|p| session.run(&p))?;
    let reference = matmul(
        &matmul(&x_data, &w1_data, m as usize, h as usize, k as usize),
        &w2_data,
        m as usize,
        k as usize,
        h as usize,
    );
    assert_close(session.mem().snapshot(out).unwrap(), &reference, 5e-3);
    println!(
        "DiagonalSync chain: {} | races {} -> results verified",
        report.total, report.races
    );

    // --- 2. Generate policies from a DSL spec (cuSyncGen) ---------------
    let mut spec = DepSpec::new();
    let g1 = spec.grid("gemm1", grid1);
    let g2 = spec.grid("gemm2", grid2);
    spec.depend(g2, g1, Pattern::ForAllX(AffineExpr::y()));
    check_spec(&spec)?;
    println!("\ncuSyncGen generated policies:");
    for p in policies_for(&spec, &spec.deps()[0]) {
        println!("  - {}", p.name);
    }
    println!("\nGenerated CUDA source:\n{}", emit_spec(&spec));
    Ok(())
}
