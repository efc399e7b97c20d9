//! Quickstart: synchronize two dependent GeMMs at tile granularity,
//! using the compile → session lifecycle.
//!
//! Reproduces the Fig. 4a scenario of the paper on the simulated V100:
//! `XW1 = GeLU(X x W1)` followed by `OUT = XW1 x W2`, first with the
//! traditional stream synchronization, then with cuSync's TileSync
//! policy. Each variant is **compiled once** into an immutable
//! `CompiledPipeline` and executed through one reusable `Session` — the
//! production shape: build the synchronization structure once, serve
//! many invocations. Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::error::Error;
use std::sync::Arc;

use cusync::{launch_stream_sync, CuStage, NoSync, OptFlags, SyncGraph, TileSync};
use cusync_kernels::{Epilogue, GemmBuilder, GemmDims, InputDep, TileShape};
use cusync_sim::{DType, Dim3, Gpu, GpuConfig, KernelSource, Session};

fn main() -> Result<(), Box<dyn Error>> {
    let gpu_cfg = GpuConfig::tesla_v100();
    // A GPT-3-like MLP shard: 256 tokens, hidden 12288, intermediate 6144.
    let (m, h, inter) = (256u32, 12288u32, 6144u32);
    let tile = TileShape::new(256, 128, 32);

    // --- Compile the baseline: stream synchronization -------------------
    let baseline = {
        let mut gpu = Gpu::new(gpu_cfg.clone());
        let x = gpu.alloc("x", (m * h) as usize, DType::F16);
        let w1 = gpu.alloc("w1", (h * inter) as usize, DType::F16);
        let w2 = gpu.alloc("w2", (inter * h) as usize, DType::F16);
        let xw1 = gpu.alloc("xw1", (m * inter) as usize, DType::F16);
        let out = gpu.alloc("out", (m * h) as usize, DType::F16);
        let gemm1 = GemmBuilder::new("gemm1", GemmDims::new(m, inter, h), tile)
            .operands(x, w1, xw1)
            .epilogue(Epilogue::Gelu)
            .split_k(4) // Table IV: the CUTLASS autotuner split for this shape
            .build(gpu.config())?;
        let gemm2 = GemmBuilder::new("gemm2", GemmDims::new(m, h, inter), tile)
            .operands(xw1, w2, out)
            .split_k(2)
            .build(gpu.config())?;
        launch_stream_sync(
            &mut gpu,
            [
                Arc::new(gemm1) as Arc<dyn KernelSource>,
                Arc::new(gemm2) as Arc<dyn KernelSource>,
            ],
        );
        gpu.compile()?
    };

    // --- Compile cuSync: fine-grained tile synchronization --------------
    let synced = {
        let mut gpu = Gpu::new(gpu_cfg);
        let x = gpu.alloc("x", (m * h) as usize, DType::F16);
        let w1 = gpu.alloc("w1", (h * inter) as usize, DType::F16);
        let w2 = gpu.alloc("w2", (inter * h) as usize, DType::F16);
        let xw1 = gpu.alloc("xw1", (m * inter) as usize, DType::F16);
        let out = gpu.alloc("out", (m * h) as usize, DType::F16);

        let grid1 = Dim3::new(inter / tile.n, m.div_ceil(tile.m), 4);
        let grid2 = Dim3::new(h / tile.n, m.div_ceil(tile.m), 2);
        let mut graph = SyncGraph::new();
        let s1 = graph.add_stage(
            CuStage::new("gemm1", grid1)
                .policy(TileSync)
                .opts(OptFlags::WRT),
        );
        let s2 = graph.add_stage(
            CuStage::new("gemm2", grid2)
                .policy(NoSync)
                .opts(OptFlags::WRT),
        );
        graph.dependency(s1, s2, xw1)?;
        let bound = graph.bind(&mut gpu)?;

        let gemm1 = GemmBuilder::new("gemm1", GemmDims::new(m, inter, h), tile)
            .operands(x, w1, xw1)
            .epilogue(Epilogue::Gelu)
            .split_k(4)
            .stage(Arc::clone(bound.stage(s1)))
            .build(gpu.config())?;
        let gemm2 = GemmBuilder::new("gemm2", GemmDims::new(m, h, inter), tile)
            .operands(xw1, w2, out)
            .split_k(2)
            .stage(Arc::clone(bound.stage(s2)))
            .a_dep(InputDep::row_aligned(grid1), grid1.x)
            .build(gpu.config())?;
        bound.launch(&mut gpu, s1, Arc::new(gemm1))?;
        bound.launch(&mut gpu, s2, Arc::new(gemm2))?;
        gpu.compile()?
    };

    // --- Execute: one session, many runs, no rebuilds -------------------
    let mut session = Session::new();
    let base_report = session.run(&baseline)?;
    println!("StreamSync: {}", base_report.total);
    let sync_report = session.run(&synced)?;
    println!("cuSync (TileSync+WRT): {}", sync_report.total);

    let speedup = base_report.total.as_picos() as f64 / sync_report.total.as_picos() as f64;
    println!("speedup: {speedup:.2}x");

    // Repeated invocations reuse the warmed engine and are bit-identical
    // — the serving loop of a production runtime.
    for _ in 0..3 {
        assert_eq!(session.run(&synced)?, sync_report);
    }
    println!("\n3 repeated session runs: identical reports, zero rebuilds");

    println!("\nPer-kernel overlap:");
    for k in &sync_report.kernels {
        println!("  {k}");
    }
    Ok(())
}
