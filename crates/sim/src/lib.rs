//! # cusync-sim: a deterministic discrete-event GPU simulator
//!
//! This crate is the hardware substrate for the cuSync reproduction (CGO
//! 2024, "A Framework for Fine-Grained Synchronization of Dependent GPU
//! Kernels"). It models the pieces of an NVIDIA GPU that the paper's
//! mechanisms depend on:
//!
//! - **SMs and occupancy** — thread blocks occupy fractional SM capacity;
//!   a kernel with occupancy *o* fits *o* blocks per SM, so a grid of *B*
//!   blocks executes in ⌈B/(o·SMs)⌉ waves (Section II-A of the paper).
//! - **Streams** — kernels on one stream serialize; kernels on different
//!   streams overlap, with priorities breaking issue-order ties.
//! - **Block-issue orders** — by default the block scheduler issues
//!   thread blocks in kernel launch order (with backfill), matching the
//!   behaviour the paper observed on Volta/Ampere
//!   ([`SchedPolicy::Fifo`]); the other [`SchedPolicy`] variants
//!   ([`Lifo`](SchedPolicy::Lifo), [`SeededShuffle`](SchedPolicy::SeededShuffle),
//!   [`SemStarver`](SchedPolicy::SemStarver)) swap in adversarial orders,
//!   and the [`explore`] module searches the schedule space for deadlocks
//!   and schedule-dependent results.
//! - **Global-memory semaphores** — busy-wait `wait`/`post` primitives whose
//!   waits *occupy the SM slot*, reproducing both the overhead model of
//!   Section V-D and the deadlock hazard of Section III-B.
//! - **Functional memory with race detection** — kernels can compute real
//!   `f32` results; intermediate buffers are NaN-poisoned so that reads of
//!   not-yet-produced tiles surface as logged races and wrong outputs.
//! - **Multi-device nodes** — a [`ClusterConfig`] models N GPUs on an
//!   NVLink-class ring: per-device SM pools and DRAM, device-homed
//!   semaphore arrays whose post→observe edge pays the link latency, and
//!   [`Op::LinkSend`] for simulated collectives (see
//!   `crates/sim/README.md`).
//!
//! Timing is kept in integer picoseconds ([`SimTime`]) and all scheduling
//! queues are deterministic, so identical inputs produce identical
//! timelines on every run — policy comparisons are exactly noise-free.
//!
//! Execution follows a **compile → session** lifecycle: build a workload
//! on a [`Gpu`], freeze it once into an immutable, shareable
//! [`CompiledPipeline`] ([`Gpu::compile`]), then execute it any number of
//! times through a reusable [`Session`] (allocation-free after warmup).
//! A `Gpu` only builds and a `Session` only runs; repeated runs on one
//! session are bit-identical to fresh sessions' runs (see
//! `crates/sim/README.md`).
//!
//! ## Example: two dependent kernels synchronized by a semaphore
//!
//! ```
//! use std::sync::Arc;
//! use cusync_sim::{Dim3, FixedKernel, Gpu, GpuConfig, Op, Session};
//!
//! let mut gpu = Gpu::new(GpuConfig::tesla_v100());
//! let sem = gpu.alloc_sems("ready", 1, 0);
//! let s1 = gpu.create_stream(0);
//! let s2 = gpu.create_stream(0);
//! gpu.launch(s1, Arc::new(FixedKernel::new(
//!     "producer", Dim3::linear(80), 1,
//!     vec![Op::compute(10_000), Op::Fence, Op::post(sem, 0)],
//! )));
//! gpu.launch(s2, Arc::new(FixedKernel::new(
//!     "consumer", Dim3::linear(80), 1,
//!     vec![Op::wait(sem, 0, 80), Op::compute(10_000)],
//! )));
//! let report = Session::new().run(&gpu.compile()?)?;
//! assert_eq!(report.races, 0);
//! # Ok::<(), cusync_sim::SimError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod dim;
mod engine;
pub mod explore;
mod json;
mod kernel;
mod kv;
mod mem;
mod ops;
mod programs;
mod sched;
mod sem;
mod session;
pub mod stats;
mod time;
mod trace;

pub use config::{ClusterConfig, ConfigError, GpuConfig, MAX_OCCUPANCY, SM_CAPACITY_UNITS};
pub use dim::Dim3;
pub use engine::{
    BlockedBlock, BuildError, BuildErrorKind, DeadlockReport, EngineMode, Gpu, LaunchGate,
    LinkScale, PendingKernel, SimError, SmOccupancy, StreamId,
};
pub use json::{json_escape, json_escape_into};
pub use kernel::{BlockBody, BlockCtx, FixedKernel, FnKernel, IndexedKernel, KernelSource, Step};
pub use kv::{KvPool, KvStats};
pub use mem::{BufferId, DType, GlobalMemory, RaceEvent};
pub use ops::Op;
pub use programs::Programs;
pub use sched::{fnv1a, splitmix64, SchedPolicy};
pub use sem::{SemArrayId, SemTable};
pub use session::{CompiledPipeline, Session};
pub use stats::{EngineCounters, KernelReport, MemoCount, RunReport};
pub use time::SimTime;
pub use trace::{KernelId, TraceEvent};
