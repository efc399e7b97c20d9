//! Fig. 7: improvement of cuSync policies over StreamSync for the Conv2D
//! layers of ResNet-38 and VGG-19 (Table II shapes).
//!
//! Rows are simulated in parallel by the sweep driver; StreamSync
//! baselines are shared across a row's modes.

use cusync_bench::sweep::{default_threads, fig7_jobs, fig7_row, parallel_map};
use cusync_bench::{header, pct, row};
use cusync_models::SyncMode;
use cusync_sim::GpuConfig;

fn panel(gpu: &GpuConfig, threads: usize, title: &str, channels: &[u32], convs: u32) {
    println!("## {title}\n");
    let modes = SyncMode::conv_policies();
    let mut cols = vec!["Channels".to_string(), "B".to_string()];
    cols.extend(modes.iter().map(|m| m.to_string()));
    println!(
        "{}",
        header(&cols.iter().map(String::as_str).collect::<Vec<_>>())
    );
    let rows = parallel_map(
        threads,
        fig7_jobs(channels, convs),
        |session, (c, pq, b, convs)| (c, b, fig7_row(session, gpu, c, pq, b, convs)),
    );
    for (c, b, r) in rows {
        let mut cells = vec![c.to_string(), b.to_string()];
        cells.extend(r.values.iter().map(|&v| pct(v)));
        println!("{}", row(&cells));
    }
    println!();
}

fn main() {
    let gpu = GpuConfig::tesla_v100();
    let threads = default_threads();
    println!("# Fig. 7: Conv2D improvements over StreamSync\n");
    panel(
        &gpu,
        threads,
        "Fig. 7a: 2x Conv2Ds per layer (ResNet-38 and VGG-19), channels 64/128",
        &[64, 128],
        2,
    );
    panel(
        &gpu,
        threads,
        "Fig. 7b: 2x Conv2Ds per layer (ResNet-38), channels 256/512",
        &[256, 512],
        2,
    );
    panel(
        &gpu,
        threads,
        "Fig. 7c: 4x Conv2Ds per layer (VGG-19), channels 256/512",
        &[256, 512],
        4,
    );
    println!(
        "Paper: up to 24% improvement; per channel count the gain oscillates with batch \
         size as the final-wave fraction changes (e.g. C=128: 20% at B=1, 24% at B=4, 3% \
         at B=8, 18% at B=12)."
    );
}
