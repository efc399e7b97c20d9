//! # cusync-bench: the paper's evaluation harness
//!
//! One binary per table/figure of the paper (run with `--release`):
//!
//! | Target | Reproduces |
//! |---|---|
//! | `table1` | Table I — waves and utilization of the GPT-3 MLP GeMMs |
//! | `table3` | Table III — lines changed to adopt cuSync |
//! | `table4` | Table IV — StreamSync vs best cuSync policy per batch |
//! | `table5` | Table V — the W/R/T optimization ablation |
//! | `fig6` | Fig. 6 — MLP and Attention improvements (GPT-3, LLaMA) |
//! | `fig7` | Fig. 7 — Conv2D improvements (ResNet-38, VGG-19) |
//! | `fig8` | Fig. 8 — end-to-end inference reductions |
//! | `overhead` | Section V-D — the maximum synchronization overhead bound |
//! | `ablation` | sensitivity of the headline result to each calibrated constant |
//!
//! The committed `BENCH_PR3/9/10.json` are reproduced byte for byte by
//! `tests/bench_golden.rs`; the simulator's wall time is measured by
//! `perfbench/`.

#![warn(missing_docs)]

pub mod sweep;

use std::sync::Arc;

use cusync::{launch_stream_sync, CuStage, NoSync, OptFlags, SyncGraph, TileSync};
use cusync_kernels::CopyKernel;
use cusync_sim::{DType, Gpu, GpuConfig, KernelSource, Session, SimTime, MAX_OCCUPANCY};

/// Formats a markdown table row.
pub fn row(cells: &[String]) -> String {
    format!("| {} |", cells.join(" | "))
}

/// Formats a markdown header + separator from column names.
pub fn header(cols: &[&str]) -> String {
    let head = row(&cols.iter().map(|c| c.to_string()).collect::<Vec<_>>());
    let sep = row(&cols.iter().map(|_| "---".to_string()).collect::<Vec<_>>());
    format!("{head}\n{sep}")
}

/// Formats a percentage with sign, e.g. `+15.2%`.
pub fn pct(p: f64) -> String {
    format!("{p:+.1}%")
}

/// Formats a simulated time in microseconds.
pub fn us(t: SimTime) -> String {
    format!("{:.0}", t.as_micros())
}

/// Result of the Section V-D overhead-bound experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadResult {
    /// StreamSync time for the two copy kernels.
    pub stream_sync: SimTime,
    /// cuSync (TileSync, wait-kernel elided per Section IV-C) time.
    pub cusync: SimTime,
    /// `(cusync - stream_sync) / stream_sync`, percent. The paper bounds
    /// this at 2-3%.
    pub overhead_pct: f64,
    /// Analytic per-block cost of the synchronization ops (fence + atomic
    /// post + wait poll) as a fraction of the block's copy time, percent.
    pub per_block_sync_pct: f64,
}

/// Runs the Section V-D experiment: producer and consumer copy kernels of
/// exactly one full wave at maximum occupancy (80 x 16 = 1280 thread
/// blocks on the V100), each block copying `elems_per_block` f16 elements,
/// with the consumer's block `i` waiting on producer block `i`. Both
/// chains run on `session`.
pub fn overhead_experiment(
    session: &mut Session,
    gpu_cfg: &GpuConfig,
    elems_per_block: u32,
) -> OverheadResult {
    let blocks = gpu_cfg.blocks_per_wave(MAX_OCCUPANCY) as u32;
    let len = blocks * elems_per_block;

    let stream_sync = {
        let mut gpu = Gpu::new(gpu_cfg.clone());
        let input = gpu.alloc("input", len as usize, DType::F16);
        let mid = gpu.alloc("mid", len as usize, DType::F16);
        let out = gpu.alloc("out", len as usize, DType::F16);
        launch_stream_sync(
            &mut gpu,
            [
                Arc::new(CopyKernel::new(
                    "producer",
                    len,
                    elems_per_block,
                    input,
                    mid,
                )) as Arc<dyn KernelSource>,
                Arc::new(CopyKernel::new("consumer", len, elems_per_block, mid, out)),
            ],
        );
        gpu.compile()
            .and_then(|p| session.run(&p))
            .expect("stream-sync copy chain")
            .total
    };

    let cusync = {
        let mut gpu = Gpu::new(gpu_cfg.clone());
        let input = gpu.alloc("input", len as usize, DType::F16);
        let mid = gpu.alloc("mid", len as usize, DType::F16);
        let out = gpu.alloc("out", len as usize, DType::F16);
        let grid = cusync_sim::Dim3::linear(blocks);
        let mut graph = SyncGraph::new();
        // Both kernels fit in one wave, so Section IV-C elides the
        // wait-kernel; TileSync synchronizes same-index blocks.
        let opts = OptFlags {
            avoid_wait_kernel: true,
            ..OptFlags::NONE
        };
        let s1 = graph.add_stage(CuStage::new("producer", grid).policy(TileSync).opts(opts));
        let s2 = graph.add_stage(CuStage::new("consumer", grid).policy(NoSync).opts(opts));
        graph.dependency(s1, s2, mid).expect("copy dep");
        let bound = graph.bind(&mut gpu).expect("bindable copy graph");
        let producer = CopyKernel::new("producer", len, elems_per_block, input, mid)
            .with_stage(Arc::clone(bound.stage(s1)), false);
        let consumer = CopyKernel::new("consumer", len, elems_per_block, mid, out)
            .with_stage(Arc::clone(bound.stage(s2)), true);
        bound
            .launch(&mut gpu, s1, Arc::new(producer))
            .expect("launch producer");
        bound
            .launch(&mut gpu, s2, Arc::new(consumer))
            .expect("launch consumer");
        gpu.compile()
            .and_then(|p| session.run(&p))
            .expect("cusync copy chain")
            .total
    };

    let overhead_pct = 100.0 * (cusync.as_picos() as f64 - stream_sync.as_picos() as f64)
        / stream_sync.as_picos() as f64;

    // Analytic per-block bound: fence + atomic post (producer side) and
    // one satisfied poll (consumer side) against the block's copy time.
    let sync_cycles =
        gpu_cfg.fence_cycles + gpu_cfg.atomic_latency_cycles + gpu_cfg.poll_latency_cycles;
    let sync_time = gpu_cfg.cycles(sync_cycles);
    let bytes = elems_per_block as u64 * 2;
    let copy_time = gpu_cfg.cycles(2 * gpu_cfg.global_latency_cycles)
        + gpu_cfg.mem_time(bytes, MAX_OCCUPANCY)
        + gpu_cfg.mem_time(bytes, MAX_OCCUPANCY);
    let per_block_sync_pct = 100.0 * sync_time.as_picos() as f64 / copy_time.as_picos() as f64;

    OverheadResult {
        stream_sync,
        cusync,
        overhead_pct,
        per_block_sync_pct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_helpers_format_markdown() {
        let h = header(&["a", "b"]);
        assert!(h.contains("| a | b |"));
        assert!(h.contains("| --- | --- |"));
        assert_eq!(pct(15.23), "+15.2%");
        assert_eq!(pct(-3.0), "-3.0%");
    }

    #[test]
    fn overhead_is_single_digit_percent() {
        // Section V-D: "synchronization using cuSync leads to 2-3%
        // overhead over StreamSync". Our simulator additionally lets the
        // consumer wave start without the kernel-dispatch gap, so the
        // measured delta can differ slightly; the per-block sync cost must
        // stay in the low single digits.
        let result = overhead_experiment(&mut Session::new(), &GpuConfig::tesla_v100(), 16 * 1024);
        assert!(
            result.per_block_sync_pct > 0.5 && result.per_block_sync_pct < 6.0,
            "per-block sync {:.2}%",
            result.per_block_sync_pct
        );
        assert!(
            result.overhead_pct.abs() < 8.0,
            "end-to-end overhead {:.2}%",
            result.overhead_pct
        );
    }
}
