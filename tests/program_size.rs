//! A compiled pipeline stores its pre-driven op programs as 4-byte ids
//! into one table of distinct ops, not as one full `Op` per program op.
//!
//! The binary counts live heap bytes with its own global allocator and
//! measures the programs as the bytes their collection leaves allocated.
//! Any other test running concurrently would disturb the count, so this
//! binary holds one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::mem::size_of;
use std::sync::atomic::{AtomicUsize, Ordering};

use cusync::OptFlags;
use cusync_models::{build_conv_layer, pq_for_channels, PolicyKind, SyncMode};
use cusync_sim::{Gpu, GpuConfig, Op, Session};

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

#[test]
fn programs_take_four_bytes_per_op_plus_the_op_table() {
    // The perfbench `sweep` conv cell with the most program ops.
    let mut gpu = Gpu::new(GpuConfig::tesla_v100());
    let mode = SyncMode::CuSync(PolicyKind::Conv2DTile, OptFlags::WRT);
    build_conv_layer(&mut gpu, 32, pq_for_channels(64), 64, 2, mode);
    let pipeline = gpu.compile().expect("compiles");

    let before = LIVE.load(Ordering::Relaxed);
    let programs = pipeline.programs();
    let bytes = LIVE.load(Ordering::Relaxed) - before;

    let (ops, distinct) = (programs.len(), programs.ops().len());
    assert!(ops > 40_000, "{ops} program ops: not the largest cell");
    assert!(distinct * 20 < ops, "{distinct} distinct ops of {ops}");
    // Ids, the op table, one span per block and one base per kernel, each
    // allowed twice its length for growth by doubling.
    let blocks: u64 = pipeline.kernel_grids().map(|grid| grid.count()).sum();
    let kernels = pipeline.kernel_grids().count();
    let layout = 4 * ops + size_of::<Op>() * distinct + 8 * blocks as usize + 4 * kernels;
    assert!(
        bytes <= 2 * layout,
        "{bytes} bytes hold {ops} program ops ({distinct} distinct): \
         at most {} allowed, {:.1} bytes per op",
        2 * layout,
        bytes as f64 / ops as f64
    );

    let report = Session::new().run(&pipeline).expect("runs");
    assert!(report.counters.program_steps > 0, "no block ran a program");
}
