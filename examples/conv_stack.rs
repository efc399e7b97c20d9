//! ResNet-38 / VGG-19 convolution layers under cuSync (Fig. 7 / Fig. 8b).
//!
//! ```text
//! cargo run --release --example conv_stack
//! ```

use cusync::OptFlags;
use cusync_models::{
    compile_conv_layer, improvement_pct, pq_for_channels, resnet38, vgg19, vision_step_time,
    PolicyKind, SyncMode,
};
use cusync_sim::{GpuConfig, Session};

fn main() {
    let gpu = GpuConfig::tesla_v100();
    let conv_tile = SyncMode::CuSync(PolicyKind::Conv2DTile, OptFlags::WRT);
    let row = SyncMode::CuSync(PolicyKind::Row, OptFlags::WRT);
    let mut session = Session::new();

    println!("=== One layer (2 chained 3x3 convolutions) per channel count ===");
    println!(
        "{:>9} {:>4} {:>13} {:>17} {:>13}",
        "channels", "B", "StreamSync", "Conv2DTile+WRT", "RowSync+WRT"
    );
    for channels in [64u32, 128, 256, 512] {
        let pq = pq_for_channels(channels);
        for batch in [1u32, 8, 32] {
            let mut time = |mode| {
                let pipeline = compile_conv_layer(&gpu, batch, pq, channels, 2, mode);
                session.run(&pipeline).expect("conv layer deadlocked").total
            };
            let base = time(SyncMode::StreamSync);
            let tile = time(conv_tile);
            let rows = time(row);
            println!(
                "{:>9} {:>4} {:>11.0}us {:>13.0}us ({:+.0}%) {:>9.0}us",
                channels,
                batch,
                base.as_micros(),
                tile.as_micros(),
                improvement_pct(base, tile),
                rows.as_micros(),
            );
        }
    }

    println!("\n=== End-to-end inference (all Table II layers) ===");
    for (stages, name) in [(resnet38(), "ResNet-38"), (vgg19(), "VGG-19")] {
        for batch in [1u32, 8, 32] {
            let base = vision_step_time(&mut session, &gpu, &stages, batch, SyncMode::StreamSync);
            let sync = vision_step_time(&mut session, &gpu, &stages, batch, conv_tile);
            println!(
                "  {name:>10} B={batch:>2}: {:>8.0}us -> {:>8.0}us ({:+.1}%)",
                base.as_micros(),
                sync.as_micros(),
                improvement_pct(base, sync),
            );
        }
    }
}
