//! Section V-D: maximum overhead of synchronization.
//!
//! Two copy kernels of exactly one full wave at maximum occupancy
//! (80 x 16 = 1280 thread blocks on the V100) with a same-block
//! dependency — the least compute per synchronization the framework can
//! encounter. The paper bounds cuSync's overhead at 2-3% over StreamSync.

use cusync_bench::{header, overhead_experiment, row, us};
use cusync_sim::{GpuConfig, Session};

fn main() {
    let gpu = GpuConfig::tesla_v100();
    let mut session = Session::new();
    println!("# Section V-D: maximum synchronization overhead (copy kernels, 1280 TBs)\n");
    println!(
        "{}",
        header(&[
            "Elems/block",
            "StreamSync (us)",
            "cuSync (us)",
            "End-to-end delta",
            "Per-block sync cost",
        ])
    );
    for elems in [4u32 * 1024, 16 * 1024, 64 * 1024] {
        let r = overhead_experiment(&mut session, &gpu, elems);
        println!(
            "{}",
            row(&[
                elems.to_string(),
                us(r.stream_sync),
                us(r.cusync),
                format!("{:+.1}%", r.overhead_pct),
                format!("{:.1}%", r.per_block_sync_pct),
            ])
        );
    }
    println!(
        "\nPaper: 2-3% overhead over StreamSync. The per-block sync cost column is the \
         direct analogue (fence + atomic post + wait poll vs copy time); the end-to-end \
         delta also includes the kernel-dispatch gap cuSync hides, so it can be negative."
    );
}
