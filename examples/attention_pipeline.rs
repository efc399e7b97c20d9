//! The five-kernel Attention chain (Fig. 5b) in both inference phases,
//! comparing StreamSync with the paper's StridedTileSync+WRT policy.
//!
//! ```text
//! cargo run --release --example attention_pipeline
//! ```

use cusync::OptFlags;
use cusync_models::{compile_attention, improvement_pct, AttentionConfig, PolicyKind, SyncMode};
use cusync_sim::{GpuConfig, Session};

fn main() {
    let gpu = GpuConfig::tesla_v100();
    let strided = SyncMode::CuSync(PolicyKind::Strided, OptFlags::WRT);
    let mut session = Session::new();
    let mut time = |cfg, mode| {
        let pipeline = compile_attention(&gpu, cfg, mode);
        session
            .run(&pipeline)
            .expect("attention run deadlocked")
            .total
    };

    println!("=== GPT-3 Attention: prompt processing (S' = 0) ===");
    for tokens in [512u32, 1024, 2048] {
        let cfg = AttentionConfig::prompt(12288, tokens);
        let base = time(cfg, SyncMode::StreamSync);
        let sync = time(cfg, strided);
        println!(
            "  BxS {tokens:>5}: StreamSync {:>8.0}us | StridedTileSync+WRT {:>8.0}us | {:+.1}%",
            base.as_micros(),
            sync.as_micros(),
            improvement_pct(base, sync),
        );
    }

    println!("\n=== GPT-3 Attention: token generation (S = 1) ===");
    for cached in [512u32, 1024, 2048] {
        for batch in [1u32, 4] {
            let cfg = AttentionConfig::generation(12288, batch, cached);
            let base = time(cfg, SyncMode::StreamSync);
            let sync = time(cfg, strided);
            println!(
                "  B {batch}, S' {cached:>5}: StreamSync {:>8.0}us | StridedTileSync+WRT {:>8.0}us | {:+.1}%",
                base.as_micros(),
                sync.as_micros(),
                improvement_pct(base, sync),
            );
        }
    }

    // The kernel-level timeline shows the QKV GeMM overlapping with the
    // attention score computation.
    let pipeline = compile_attention(&gpu, AttentionConfig::prompt(12288, 1024), strided);
    let report = session.run(&pipeline).expect("attention run deadlocked");
    println!("\nTimeline at BxS=1024 prompt under StridedTileSync+WRT:\n{report}");
}
