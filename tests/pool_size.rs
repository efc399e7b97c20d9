//! A warmed `ServicePool` keeps measured service times, not compiled
//! pipelines: once `build` returns, a pool of real zoo models owns a few
//! KiB, however large the pipelines it measured.
//!
//! The binary counts live heap bytes with its own global allocator and
//! measures a pool as the bytes its drop frees. Any other test running
//! concurrently would disturb the count, so this binary holds one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use cusync_serve::{ArrivalModel, ModelKind, ServicePool, TenantClass, TenantSpec};
use cusync_sim::{ClusterConfig, SimTime};

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

/// Heap bytes owned by `pool`: what dropping it frees.
fn heap_bytes(pool: ServicePool) -> usize {
    let before = LIVE.load(Ordering::Relaxed);
    drop(pool);
    before - LIVE.load(Ordering::Relaxed)
}

#[test]
fn a_warmed_pool_retains_no_pipelines() {
    const MAX_RETAINED: usize = 64 << 10;
    let cluster = ClusterConfig::dgx_v100(2);
    for model in [ModelKind::MlpGpt3, ModelKind::StreamKGemm] {
        let tenant = TenantSpec {
            name: model.to_string(),
            model,
            arrival: ArrivalModel::OpenPoisson { rate_rps: 1000.0 },
            slo: SimTime::from_millis(1),
            queue_cap: 16,
            weight: 1,
            class: TenantClass::Throughput,
            retry: None,
        };
        let pool = ServicePool::build(&cluster, &[tenant], 8);
        assert_eq!(pool.num_pipelines(), 8, "{model}: one pipeline per width");
        let retained = heap_bytes(pool);
        assert!(
            retained < MAX_RETAINED,
            "{model}: the pool retains {retained} bytes after build, \
             at most {MAX_RETAINED} allowed"
        );
    }
}
