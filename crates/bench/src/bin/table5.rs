//! Table V: execution times of TileSync (GPT-3 MLP) and Conv2DTileSync
//! (ResNet) with the optimizations applied incrementally:
//! Vanilla, +R, +WR, +WRT (Section IV-C).

use cusync::OptFlags;
use cusync_bench::{header, row, us};
use cusync_models::{compile_conv_layer, compile_mlp, MlpModel, PolicyKind, SyncMode};
use cusync_sim::{CompiledPipeline, GpuConfig, Session};

const LADDER: [(&str, OptFlags); 4] = [
    ("Vanilla", OptFlags::NONE),
    ("+R", OptFlags::R),
    ("+WR", OptFlags::WR),
    ("+WRT", OptFlags::WRT),
];

fn main() {
    let gpu = GpuConfig::tesla_v100();
    let mut session = Session::new();
    let mut cell_us = |pipeline: CompiledPipeline| {
        us(session
            .run(&pipeline)
            .expect("table cells cannot deadlock")
            .total)
    };

    println!("# Table V(a): TileSync optimization ablation, GPT-3 MLP\n");
    println!(
        "{}",
        header(&["Batch", "Vanilla (us)", "+R", "+WR", "+WRT"])
    );
    for bs in [64u32, 128, 256] {
        // The paper's first row covers every batch size up to 64.
        let label = match bs {
            64 => "1-64".to_owned(),
            bs => bs.to_string(),
        };
        let mut cells = vec![label];
        for (_, opts) in LADDER {
            let mode = SyncMode::CuSync(PolicyKind::Tile, opts);
            cells.push(cell_us(compile_mlp(&gpu, MlpModel::Gpt3, bs, mode)));
        }
        println!("{}", row(&cells));
    }
    println!("\nPaper (B=1-64): 378 / 365 / 360 / 355 us.\n");

    println!("# Table V(b): Conv2DTileSync ablation, ResNet-38 Conv2D pairs\n");
    println!(
        "{}",
        header(&["C", "B", "Vanilla (us)", "+R", "+WR", "+WRT"])
    );
    let cases = [(64u32, 1u32), (128, 1), (256, 1), (512, 1), (512, 4)];
    for (channels, batch) in cases {
        let pq = cusync_models::pq_for_channels(channels);
        let mut cells = vec![channels.to_string(), batch.to_string()];
        for (_, opts) in LADDER {
            let mode = SyncMode::CuSync(PolicyKind::Conv2DTile, opts);
            cells.push(cell_us(compile_conv_layer(
                &gpu, batch, pq, channels, 2, mode,
            )));
        }
        println!("{}", row(&cells));
    }
    println!(
        "\nPaper: each added optimization monotonically reduces time, e.g. C=64 B=1: \
         50 / 45 / 41 / 37 us; C=512 B=4: 135 / 128 / 120 / 115 us."
    );
}
