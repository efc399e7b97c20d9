//! A serve report's heap size does not grow with the requests it served:
//! `TenantMetrics` keeps a fixed-size `LatencySummary`, not one sample
//! per completion.
//!
//! The binary counts live heap bytes with its own global allocator and
//! measures a report as the bytes its drop frees. Any other test running
//! concurrently would disturb the count, so this binary holds one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use cusync_serve::{
    ArrivalModel, ModelKind, ServeConfig, ServeReport, Server, TenantClass, TenantSpec,
    WorkloadSpec,
};
use cusync_sim::{ClusterConfig, GpuConfig, SimTime};

/// Forwards to the system allocator and keeps the live byte count.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap bytes owned by `report`: what dropping it frees.
fn heap_bytes(report: ServeReport) -> usize {
    let before = LIVE.load(Ordering::Relaxed);
    drop(report);
    before - LIVE.load(Ordering::Relaxed)
}

/// An open-loop toy tenant and a closed-loop decode tenant, so both
/// completion paths (batch end and decode step) record latencies.
fn spec(horizon: SimTime) -> WorkloadSpec {
    let tenant = |name: &str, model, arrival| TenantSpec {
        name: name.into(),
        model,
        arrival,
        slo: SimTime::from_micros(500.0),
        queue_cap: 16,
        weight: 1,
        class: TenantClass::Latency,
        retry: None,
    };
    WorkloadSpec {
        tenants: vec![
            tenant(
                "open",
                ModelKind::Toy {
                    blocks: 2,
                    compute_cycles: 100_000,
                },
                ArrivalModel::OpenPoisson { rate_rps: 8_000.0 },
            ),
            tenant(
                "decode",
                ModelKind::DecodeLlm {
                    prompt: 8,
                    max_new: 4,
                    step_cycles: 30_000,
                    ctx_cycles: 200,
                    kv_bytes_per_token: 1 << 12,
                },
                ArrivalModel::ClosedLoop {
                    clients: 4,
                    think: SimTime::from_micros(50.0),
                },
            ),
        ],
        horizon,
        seed: 7,
    }
}

#[test]
fn a_four_times_longer_horizon_keeps_the_report_size() {
    let cluster = ClusterConfig::homogeneous(
        2,
        GpuConfig::toy(4),
        SimTime::from_nanos(500),
        ClusterConfig::NVLINK_BYTES_PER_SEC,
    );
    let run = |horizon| {
        let report = Server::new(spec(horizon), &cluster, 4).run(&ServeConfig::baseline());
        report.check().expect("report invariants");
        report
    };
    let short = run(SimTime::from_millis(5));
    let long = run(SimTime::from_millis(20));
    let completed =
        |r: &ServeReport| -> Vec<u64> { r.tenants.iter().map(|t| t.completed).collect() };
    for (s, l) in completed(&short).into_iter().zip(completed(&long)) {
        assert!(
            s > 0 && l >= 3 * s,
            "the longer run must serve more: {s} vs {l}"
        );
    }
    assert_eq!(heap_bytes(short), heap_bytes(long));
}
