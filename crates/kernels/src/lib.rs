//! # cusync-kernels: tile-based GPU kernels for the cuSync simulator
//!
//! The computations the paper's workloads are built from, implemented as
//! [`cusync_sim`] kernels with the cuSync hook points of Fig. 4a
//! (`start`/`tile`/`wait`/`post`):
//!
//! - [`GemmKernel`] — tiled GeMM with split-K and fused epilogues (GeLU for
//!   GPT-3's MLP, the SwiGLU combination for LLaMA's), modeled on CUTLASS;
//! - [`Conv2DKernel`] — implicit-GeMM 2-D convolution (ResNet-38, VGG-19);
//! - [`SoftmaxDropoutKernel`] — the fused Softmax-Dropout of Attention;
//! - [`CopyKernel`] — minimum-compute copies for the Section V-D overhead
//!   bound.
//!
//! Every kernel runs in two fidelities at once: a *timing program* (compute
//! cycles, bytes moved, semaphore traffic) driven by the cost model in
//! [`timing`], and an optional *functional program* that computes real
//! `f32` results, validated against the CPU oracles in [`mod@reference`]. A
//! missing or misplaced wait shows up as NaN-poison races and wrong
//! numbers, just as on real hardware.
//!
//! ## Example: the Fig. 4a MLP pair
//!
//! ```
//! use std::sync::Arc;
//! use cusync::{CuStage, RowSync, SyncGraph, TileSync};
//! use cusync_kernels::{GemmBuilder, GemmDims, InputDep, TileShape};
//! use cusync_sim::{DType, Dim3, Gpu, GpuConfig, Session};
//!
//! let mut gpu = Gpu::new(GpuConfig::tesla_v100());
//! let (m, h, k) = (64, 256, 128);
//! let x = gpu.alloc("x", (m * k) as usize, DType::F16);
//! let w1 = gpu.alloc("w1", (k * h) as usize, DType::F16);
//! let w2 = gpu.alloc("w2", (h * k) as usize, DType::F16);
//! let xw1 = gpu.alloc("xw1", (m * h) as usize, DType::F16);
//! let out = gpu.alloc("out", (m * k) as usize, DType::F16);
//!
//! let tile = TileShape::new(32, 32, 32);
//! let grid1 = Dim3::new(h / 32, m / 32, 1);
//! let grid2 = Dim3::new(k / 32, m / 32, 1);
//! let mut graph = SyncGraph::new();
//! let s1 = graph.add_stage(CuStage::new("gemm1", grid1).policy(TileSync));
//! let s2 = graph.add_stage(CuStage::new("gemm2", grid2).policy(TileSync));
//! graph.dependency(s1, s2, xw1)?;
//! let bound = graph.bind(&mut gpu)?;
//!
//! let g1 = GemmBuilder::new("gemm1", GemmDims::new(m, h, k), tile)
//!     .operands(x, w1, xw1)
//!     .stage(Arc::clone(bound.stage(s1)))
//!     .build(gpu.config()).expect("operands set");
//! let g2 = GemmBuilder::new("gemm2", GemmDims::new(m, k, h), tile)
//!     .operands(xw1, w2, out)
//!     .stage(Arc::clone(bound.stage(s2)))
//!     .a_dep(InputDep::row_aligned(grid1), grid1.x)
//!     .build(gpu.config()).expect("operands set");
//! bound.launch(&mut gpu, s1, Arc::new(g1))?;
//! bound.launch(&mut gpu, s2, Arc::new(g2))?;
//! let report = gpu.compile().and_then(|p| Session::new().run(&p)).expect("no deadlock");
//! assert_eq!(report.races, 0);
//! # Ok::<(), cusync::CuSyncError>(())
//! ```

#![warn(missing_docs)]

mod conv2d;
mod elementwise;
mod gemm;
mod program;
pub mod reference;
mod softmax_dropout;
pub mod timing;

pub use conv2d::{Conv2DBuilder, Conv2DKernel, Conv2DShape};
pub use elementwise::CopyKernel;
pub use gemm::{
    ASource, DepPlan, Epilogue, GemmBuilder, GemmDims, GemmKernel, InputDep, TileShape,
};
pub use softmax_dropout::{SoftmaxDropoutBuilder, SoftmaxDropoutKernel};
