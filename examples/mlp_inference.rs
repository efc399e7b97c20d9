//! Sweep the GPT-3 and LLaMA MLP blocks across batch sizes and policies —
//! the workload behind Fig. 6(a,c) and Table IV of the paper.
//!
//! ```text
//! cargo run --release --example mlp_inference
//! ```

use cusync::OptFlags;
use cusync_models::{compile_mlp, improvement_pct, MlpModel, PolicyKind, SyncMode};
use cusync_sim::{GpuConfig, Session};

fn main() {
    let gpu = GpuConfig::tesla_v100();
    let mut session = Session::new();
    for (model, name) in [
        (MlpModel::Gpt3, "GPT-3 145B"),
        (MlpModel::Llama, "LLaMA 65B"),
    ] {
        println!("=== {name} MLP (model parallelism 8) ===");
        println!(
            "{:>6} {:>14} {:>14} {:>14} {:>10}",
            "BxS", "StreamSync", "TileSync+WRT", "RowSync+WRT", "best gain"
        );
        for bs in [1u32, 16, 256, 512, 2048] {
            let mut time = |mode| {
                let pipeline = compile_mlp(&gpu, model, bs, mode);
                session.run(&pipeline).expect("MLP run deadlocked").total
            };
            let base = time(SyncMode::StreamSync);
            let tile = time(SyncMode::CuSync(PolicyKind::Tile, OptFlags::WRT));
            let row = time(SyncMode::CuSync(PolicyKind::Row, OptFlags::WRT));
            let gain = improvement_pct(base, tile.min(row));
            println!(
                "{:>6} {:>12.0}us {:>12.0}us {:>12.0}us {:>9.1}%",
                bs,
                base.as_micros(),
                tile.as_micros(),
                row.as_micros(),
                gain
            );
        }
        println!();
    }

    // Show the overlap structure at one interesting size.
    let row = SyncMode::CuSync(PolicyKind::Row, OptFlags::WRT);
    let report = session
        .run(&compile_mlp(&gpu, MlpModel::Gpt3, 512, row))
        .expect("MLP run deadlocked");
    println!("GPT-3 MLP at BxS=512 under RowSync+WRT:\n{report}");
}
