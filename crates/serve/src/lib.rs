//! # cusync-serve: a simulated multi-tenant inference service
//!
//! The ROADMAP's north star is *serving heavy traffic*; this crate builds
//! that layer on top of the compile → session stack. It turns
//! the repository's compiled pipelines into a **deterministic,
//! virtual-clock serving simulation**:
//!
//! - a **workload generator** ([`WorkloadSpec`]): seeded open-loop
//!   Poisson and closed-loop arrival models, per-tenant rate, SLO, queue
//!   bound and fair-share weight, with request mixes drawn from the
//!   MLP / Attention / Conv / Stream-K model zoo ([`ModelKind`]);
//! - a **dispatcher** ([`Server`]): bounded per-tenant queues with
//!   backpressure and shedding, optional SLO-aware admission, pluggable
//!   request schedulers ([`RequestSched`]: FIFO, earliest-deadline-first,
//!   per-tenant weighted fair), placing work onto a pool of warmed
//!   sessions across a simulated multi-GPU
//!   [`ClusterConfig`](cusync_sim::ClusterConfig);
//! - **dynamic batching** ([`BatchPolicy`]): compatible queued requests
//!   of one tenant coalesce, up to a batch window/size, onto service
//!   times measured at startup for every batch width ([`ServicePool`]) —
//!   the compile/execute split means batching never rebuilds a graph;
//! - a **metrics core** ([`ServeReport`]): p50/p95/p99 latency, goodput,
//!   SLO-violation rate, queue depth and per-device utilization, with
//!   conservation invariants ([`ServeReport::check`]) and JSON emission.
//!
//! Two layers of simulation compose here. The *inner* discrete-event GPU
//! simulator prices each batch shape once, at warmup, on a warmed
//! [`Session`](cusync_sim::Session) per device model; because the engine
//! is exactly deterministic, those measured totals are reusable as
//! service times. The *outer* serving loop then replays millions of
//! virtual-time arrivals against that table without re-entering the
//! engine — the same seed always produces bit-identical metrics.
//!
//! A fifth layer makes the service **chaos-grade**: a deterministic
//! [`FaultPlan`] injects device dropout, worker panics and link
//! degradation at fixed virtual instants; trace-based arrivals
//! ([`ArrivalTrace`]) replay recorded or synthesized bursty/diurnal/
//! heavy-tailed traffic; rejected requests retry with seeded exponential
//! backoff ([`RetryPolicy`]); and latency-class tenants may **preempt** a
//! throughput tenant's running batch at its next kernel boundary
//! ([`PreemptPolicy`]), with the checkpoint/resume overhead accounted in
//! the report. All of it stays bit-identical per seed.
//!
//! A sixth layer serves **autoregressive decode** the way vLLM does. A
//! [`ModelKind::DecodeLlm`] tenant's requests carry per-request token
//! budgets (drawn at admission from a dedicated seeded stream), and
//! [`DecodePolicy`] picks the execution style: *static width* pads an
//! admission-time batch to its longest member's prefill + decode, while
//! *continuous batching* re-forms the running batch at every decode-step
//! boundary — finished sequences leave, queued requests join mid-run, and
//! each sequence grows a paged KV-cache allocation from a per-device
//! block pool ([`KvPool`]) carved out of the simulated GPU's DRAM.
//! Memory pressure evicts retained pages, then
//! preempts the youngest co-resident sequence for recompute; the report
//! tracks tokens-per-second goodput and the token conservation law
//! `tokens_generated = tokens_out + recomputed_tokens`
//! ([`ServeReport::check`]).
//!
//! ## Example
//!
//! ```
//! use cusync_serve::{
//!     ArrivalModel, BatchPolicy, FaultPlan, ModelKind, RequestSched, ServeConfig, Server,
//!     TenantClass, TenantSpec, WorkloadSpec,
//! };
//! use cusync_sim::{ClusterConfig, GpuConfig, SimTime};
//!
//! let spec = WorkloadSpec {
//!     tenants: vec![TenantSpec {
//!         name: "chat".into(),
//!         model: ModelKind::Toy { blocks: 2, compute_cycles: 100_000 },
//!         arrival: ArrivalModel::OpenPoisson { rate_rps: 5_000.0 },
//!         slo: SimTime::from_micros(500.0),
//!         queue_cap: 32,
//!         weight: 1,
//!         class: TenantClass::Latency,
//!         retry: None,
//!     }],
//!     horizon: SimTime::from_millis(5),
//!     seed: 42,
//! };
//! let server = Server::new(spec, &ClusterConfig::single(GpuConfig::toy(4)), 4);
//! let config = ServeConfig {
//!     sched: RequestSched::Edf,
//!     batch: BatchPolicy::new(4, SimTime::from_micros(100.0)),
//!     slo_admission: true,
//!     ..ServeConfig::baseline()
//! };
//! let report = server.run_with_faults(&config, &FaultPlan::none());
//! report.check().expect("conservation holds");
//! assert!(report.tenants[0].completed > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod dispatch;
mod fault;
mod metrics;
mod pool;
mod sched;
mod workload;
mod zoo;

pub use cusync_sim::{KvPool, KvStats};
pub use dispatch::{ServeConfig, ServeConfigError, Server};
pub use fault::{DeviceDrop, FaultPlan, LinkDegrade, PanicInjection};
pub use metrics::{
    CompletionRecord, DeviceMetrics, FaultOutcome, LatencySummary, MetricSample, ServeReport,
    TenantMetrics,
};
pub use pool::ServicePool;
pub use sched::{BatchPolicy, DecodePolicy, PreemptPolicy, RequestSched};
pub use workload::{
    ArrivalModel, ArrivalTrace, RetryPolicy, Rng, TenantClass, TenantSpec, TraceParseError,
    TraceParseErrorKind, TraceShape, WorkloadError, WorkloadSpec,
};
pub use zoo::ModelKind;
