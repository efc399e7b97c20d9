//! The NVLink ring allreduce used by model parallelism — both the
//! original closed-form model and a **simulated** ring collective whose
//! per-hop send/signal ops run through the discrete-event engine.
//!
//! With mp-degree model parallelism, each transformer layer performs two
//! allreduces (one after Attention, one after the MLP). Under coarse
//! stream synchronization the allreduce cost is identical for StreamSync
//! and cuSync — it only dilutes end-to-end improvements, which is exactly
//! the gap between Fig. 6 (module-level) and Fig. 8 (end-to-end). The
//! simulated ring makes that dilution a *measured* quantity — and, unlike
//! the closed form, exposes per-chunk completion semaphores that let the
//! next layer's first GEMM tiles overlap the tail of the collective (see
//! [`crate::build_tp_layer`]).
//!
//! The analytic [`allreduce_time`] is kept as a checked oracle: the
//! simulated ring is regression-tested to stay within ±10% of it across a
//! grid of `(bytes, gpus)` (`tests/allreduce_model.rs`).

use std::sync::Arc;

use cusync_sim::{
    ClusterConfig, Dim3, FixedKernel, Gpu, GpuConfig, Op, SemArrayId, Session, SimTime, StreamId,
};

/// Peak NVLink ring bandwidth per GPU on a DGX-2 class machine, bytes/s —
/// the same constant the simulated cluster uses, so oracle and simulation
/// cannot silently diverge on a recalibration.
const NVLINK_BYTES_PER_SEC: f64 = ClusterConfig::NVLINK_BYTES_PER_SEC;

/// Per-hop software/launch latency of a collective step (the constant
/// [`ClusterConfig::nvlink_ring`] calibrates the simulated hop against).
const HOP_LATENCY: SimTime = SimTime::from_nanos(ClusterConfig::DGX_HOP_NANOS);

/// Time of a ring allreduce of `bytes` over `gpus` participants:
/// `2 (n-1)/n * bytes / bw + 2 (n-1) * hop_latency`.
///
/// This closed form predates the simulated ring collective
/// ([`launch_ring_allreduce`]) and now serves as its checked oracle; the
/// end-to-end paths run the simulation.
///
/// # Examples
///
/// ```
/// use cusync_models::allreduce_time;
///
/// // A 2 MB allreduce over 8 GPUs costs tens of microseconds.
/// let t = allreduce_time(2 << 20, 8);
/// assert!(t.as_micros() > 20.0 && t.as_micros() < 200.0);
/// ```
pub fn allreduce_time(bytes: u64, gpus: u32) -> SimTime {
    if gpus <= 1 {
        return SimTime::ZERO;
    }
    let n = gpus as f64;
    let wire = 2.0 * (n - 1.0) / n * bytes as f64 / NVLINK_BYTES_PER_SEC;
    let latency_ps = 2 * (gpus as u64 - 1) * HOP_LATENCY.as_picos();
    SimTime::from_picos((wire * 1e12) as u64 + latency_ps)
}

/// Handles to a launched simulated ring allreduce: the per-device
/// chunk-final semaphores that fine-grained consumers wait on.
#[derive(Debug, Clone)]
pub struct RingAllreduce {
    /// Participants (= number of chunks the payload splits into).
    pub devices: u32,
    /// Total payload bytes.
    pub bytes: u64,
    /// Per device `d`: a semaphore array of `devices` flags homed on `d`;
    /// flag `c` is posted (to 1) when chunk `c`'s fully reduced value is
    /// resident in `d`'s memory. Chunks become final in ring order, so a
    /// consumer waiting on an early-arriving chunk overlaps the tail of
    /// the collective.
    pub chunk_final: Vec<SemArrayId>,
}

impl RingAllreduce {
    /// Bytes per ring chunk (the last chunk may be short).
    pub fn chunk_bytes(&self) -> u64 {
        self.bytes.div_ceil(self.devices as u64)
    }

    /// The chunk holding payload byte `offset` (chunk 0 for an empty
    /// payload).
    pub fn chunk_of(&self, offset: u64) -> u32 {
        let chunk = self.chunk_bytes();
        if chunk == 0 {
            return 0;
        }
        ((offset / chunk) as u32).min(self.devices.saturating_sub(1))
    }
}

/// The chunk whose fully reduced value arrives on device `d` with the
/// receive of ring step `step` (or `None` for reduce-scatter steps that
/// deliver only partial sums). Ring direction: `d` sends to `d + 1`.
fn finalized_chunk(d: u32, n: u32, step: u32) -> Option<u32> {
    debug_assert!(step < 2 * (n - 1));
    if step < n - 2 {
        None // reduce-scatter: partial sums only
    } else if step == n - 2 {
        Some((d + 1) % n) // the chunk d just finished reducing
    } else {
        let j = step - (n - 1); // all-gather hop j
        Some((d + n - j % n) % n)
    }
}

/// Launches a simulated ring allreduce of `bytes` across every device of
/// the cluster `gpu` models: one single-block kernel per device (named
/// `{name}[d]`, enqueued on `streams[d]`, so stream order decides what the
/// collective waits for), exchanging `2 (n-1)` per-hop [`Op::LinkSend`]s
/// signalled through cross-device semaphores. The reduction math itself
/// overlaps the wire transfer (as in NCCL) and is not charged separately.
///
/// Returns the chunk-final semaphore handles; with a single device the
/// collective is a no-op and no kernel is launched.
///
/// # Panics
///
/// Panics if `streams` does not provide one stream per device (they must
/// live on devices `0..n` in order).
pub fn launch_ring_allreduce(
    gpu: &mut Gpu,
    name: &str,
    bytes: u64,
    streams: &[StreamId],
) -> RingAllreduce {
    let n = gpu.num_devices();
    assert_eq!(
        streams.len(),
        n as usize,
        "ring allreduce needs one stream per device"
    );
    let chunk_final: Vec<SemArrayId> = (0..n)
        .map(|d| gpu.alloc_sems_on(d, &format!("{name}.final[{d}]"), n.max(1) as usize, 0))
        .collect();
    let ar = RingAllreduce {
        devices: n,
        bytes,
        chunk_final: chunk_final.clone(),
    };
    if n <= 1 {
        return ar;
    }
    let steps = 2 * (n - 1);
    // ring[d][s]: the step-s payload from d's upstream neighbour has
    // landed in d's memory. Homed on the receiver, so the *post* (sent
    // with the data) crosses the link and the receiver's poll is local.
    let ring: Vec<SemArrayId> = (0..n)
        .map(|d| gpu.alloc_sems_on(d, &format!("{name}.ring[{d}]"), steps as usize, 0))
        .collect();
    let chunk = bytes.div_ceil(n as u64);
    for d in 0..n {
        let next = ring[((d + 1) % n) as usize];
        let own = ring[d as usize];
        let finals = chunk_final[d as usize];
        let mut ops = Vec::with_capacity(4 * steps as usize + 2);
        for s in 0..steps {
            if s > 0 {
                // The next send forwards what the previous step received.
                ops.push(Op::wait(own, s - 1, 1));
                if let Some(c) = finalized_chunk(d, n, s - 1) {
                    ops.push(Op::post(finals, c));
                }
            }
            ops.push(Op::link_send(chunk));
            ops.push(Op::Fence);
            ops.push(Op::post(next, s));
        }
        // Trailing receive of the final all-gather hop.
        ops.push(Op::wait(own, steps - 1, 1));
        if let Some(c) = finalized_chunk(d, n, steps - 1) {
            ops.push(Op::post(finals, c));
        }
        gpu.launch(
            streams[d as usize],
            Arc::new(FixedKernel::new(
                &format!("{name}[{d}]"),
                Dim3::linear(1),
                1,
                ops,
            )),
        );
    }
    ar
}

/// Simulated time of one standalone ring allreduce of `bytes` over
/// `gpus` copies of `gpu` on a calibrated NVLink ring
/// ([`ClusterConfig::nvlink_ring`]), run on `session`. The time is the
/// collective's *span* — first kernel start to last kernel end —
/// excluding the one-off kernel dispatch latency, which end-to-end
/// accounting attributes to launch overhead, not the collective.
pub fn ring_allreduce_time(
    session: &mut Session,
    gpu: &GpuConfig,
    bytes: u64,
    gpus: u32,
) -> SimTime {
    if gpus <= 1 {
        return SimTime::ZERO;
    }
    let mut node = Gpu::new_cluster(ClusterConfig::nvlink_ring(gpus, gpu.clone()));
    let streams: Vec<StreamId> = (0..gpus).map(|d| node.create_stream_on(d, 0)).collect();
    launch_ring_allreduce(&mut node, "ar", bytes, &streams);
    let report = node
        .compile()
        .and_then(|p| session.run(&p))
        .expect("ring allreduce cannot deadlock");
    let start = report
        .kernels
        .iter()
        .map(|k| k.start)
        .min()
        .unwrap_or(SimTime::ZERO);
    report.total.saturating_sub(start)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_gpu_needs_no_allreduce() {
        assert_eq!(allreduce_time(1 << 20, 1), SimTime::ZERO);
        let gpu = GpuConfig::tesla_v100();
        assert_eq!(
            ring_allreduce_time(&mut Session::new(), &gpu, 1 << 20, 1),
            SimTime::ZERO
        );
    }

    #[test]
    fn cost_grows_with_bytes() {
        let small = allreduce_time(1 << 16, 8);
        let large = allreduce_time(1 << 24, 8);
        assert!(large > small);
        let gpu = GpuConfig::tesla_v100();
        let mut session = Session::new();
        let mut ring = |bytes| ring_allreduce_time(&mut session, &gpu, bytes, 8);
        assert!(ring(1 << 24) > ring(1 << 16));
    }

    #[test]
    fn latency_floor_for_tiny_messages() {
        // 2*(8-1)*4us = 56us of hop latency dominates tiny messages.
        let t = allreduce_time(64, 8);
        assert!(t.as_micros() >= 56.0, "{t}");
    }

    #[test]
    fn every_chunk_is_finalized_exactly_once_per_device() {
        for n in 2..=8u32 {
            for d in 0..n {
                let mut seen: Vec<u32> = (0..2 * (n - 1))
                    .filter_map(|s| finalized_chunk(d, n, s))
                    .collect();
                seen.sort_unstable();
                assert_eq!(seen, (0..n).collect::<Vec<_>>(), "device {d} of {n}");
            }
        }
    }

    #[test]
    fn simulated_ring_tracks_the_analytic_oracle() {
        let gpu = GpuConfig::tesla_v100();
        let sim = ring_allreduce_time(&mut Session::new(), &gpu, 8 << 20, 8);
        let oracle = allreduce_time(8 << 20, 8);
        let err =
            (sim.as_picos() as f64 - oracle.as_picos() as f64).abs() / oracle.as_picos() as f64;
        assert!(err < 0.10, "sim {sim} vs oracle {oracle} ({err:.3})");
    }

    #[test]
    fn chunks_finalize_in_ring_order_not_all_at_once() {
        // The chunk-final posts of one device must be spread across the
        // all-gather phase — that staggering is what the overlap builders
        // exploit.
        let gpu = GpuConfig::tesla_v100();
        let mut node = Gpu::new_cluster(ClusterConfig::nvlink_ring(4, gpu));
        let streams: Vec<StreamId> = (0..4).map(|d| node.create_stream_on(d, 0)).collect();
        let ar = launch_ring_allreduce(&mut node, "ar", 4 << 20, &streams);
        let mut session = Session::new();
        session.enable_trace();
        let report = session.run(&node.compile().unwrap()).unwrap();
        let finals: Vec<_> = session
            .trace()
            .iter()
            .filter_map(|e| match e {
                cusync_sim::TraceEvent::SemPosted { table, time, .. }
                    if *table == ar.chunk_final[0] =>
                {
                    Some(*time)
                }
                _ => None,
            })
            .collect();
        assert_eq!(finals.len(), 4);
        let span = report.total.saturating_sub(report.kernels[0].start);
        let spread = finals.last().unwrap().saturating_sub(finals[0]);
        assert!(
            spread.as_picos() * 3 > span.as_picos(),
            "chunk-final posts should span a large fraction of the collective \
             (spread {spread} of span {span})"
        );
    }
}
