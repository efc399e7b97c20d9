//! # cusync: fine-grained synchronization of dependent GPU kernels
//!
//! A Rust reproduction of **cuSync** (CGO 2024, "A Framework for
//! Fine-Grained Synchronization of Dependent GPU Kernels"), running on the
//! deterministic GPU simulator of [`cusync_sim`].
//!
//! Traditional *stream synchronization* forbids any thread block of a
//! consumer kernel from starting before every block of its producer has
//! finished, wasting the partial final wave of both kernels. cuSync instead
//! synchronizes **tiles**: each kernel becomes a [`CuStage`] with a
//! [`SyncPolicy`] mapping tiles to global-memory semaphores, and dependent
//! thread blocks wait only for the exact tiles they consume, so independent
//! tiles of both kernels execute concurrently.
//!
//! The four mechanisms of Section III map onto this crate as follows:
//!
//! | Paper mechanism | Here |
//! |---|---|
//! | invoke kernels on separate streams (III-A) | [`SyncGraph::bind`] creates one stream per stage |
//! | wait-kernel scheduling order (III-B) | [`WaitKernel`], injected by [`BoundGraph::launch`] |
//! | custom tile processing order (III-C) | [`TileOrder`] + per-stage atomic counter |
//! | tile dependency semaphores (III-D) | [`SyncPolicy`] (`TileSync`, `RowSync`, `StridedSync`, ...) |
//!
//! Synchronization structure is a compile-time artifact: [`Pipeline`]
//! freezes a built graph + kernel launches into a reusable
//! `cusync_sim::CompiledPipeline`, executed any number of times through
//! `cusync_sim::Session` (the one-shot [`Gpu`](cusync_sim::Gpu)
//! flow below still works for single runs).
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use cusync::{CuStage, OptFlags, RowSync, SyncGraph, TileSync};
//! use cusync_sim::{DType, Dim3, Gpu, GpuConfig, FixedKernel, Op};
//!
//! let mut gpu = Gpu::new(GpuConfig::tesla_v100());
//! let xw1 = gpu.alloc("xw1", 1 << 20, DType::F16);
//!
//! let mut graph = SyncGraph::new();
//! let prod = graph.add_stage(CuStage::new("gemm1", Dim3::new(24, 2, 1)).policy(TileSync));
//! let cons = graph.add_stage(
//!     CuStage::new("gemm2", Dim3::new(48, 2, 1)).policy(RowSync).opts(OptFlags::WRT),
//! );
//! graph.dependency(prod, cons, xw1)?;
//! let bound = graph.bind(&mut gpu)?;
//!
//! // Real workloads use the instrumented kernels of `cusync-kernels`;
//! // here a stand-in that posts the producer's start semaphore.
//! let start = bound.stage(prod).start_sem();
//! bound.launch(&mut gpu, prod, Arc::new(FixedKernel::new(
//!     "gemm1", Dim3::new(24, 2, 1), 1, vec![Op::post(start, 0), Op::compute(1000)],
//! )))?;
//! bound.launch(&mut gpu, cons, Arc::new(FixedKernel::new(
//!     "gemm2", Dim3::new(48, 2, 1), 1, vec![Op::compute(1000)],
//! )))?;
//! let report = gpu.run().expect("no deadlock");
//! assert_eq!(report.kernels.len(), 2);
//! # Ok::<(), cusync::CuSyncError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
mod executor;
mod graph;
mod mechanism;
mod opt;
pub mod order;
mod pipeline;
pub mod policy;
mod stage;
mod wait_kernel;

pub use error::CuSyncError;
pub use executor::launch_stream_sync;
pub use graph::{producer_map, BoundGraph, SyncGraph};
pub use mechanism::SyncMechanism;
pub use opt::OptFlags;
pub use order::{ColumnMajor, OrderRef, RowMajor, TableOrder, TileOrder, TileSchedule};
pub use pipeline::Pipeline;
pub use policy::{
    BatchedRowSync, Conv2DTileSync, NoSync, PolicyRef, RowSync, StridedSync, SyncPolicy, TileSync,
};
pub use stage::{CuStage, StageId, StageRuntime, WaitTarget};
pub use wait_kernel::{start_ops, WaitKernel};
