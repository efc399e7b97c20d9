//! Table IV: grid size, waves, and execution time under StreamSync vs
//! cuSync's best policy for both GeMMs of GPT-3's MLP.

use cusync::OptFlags;
use cusync_bench::{header, pct, row, us};
use cusync_models::{
    compile_mlp, gpt3_mlp_tiling, improvement_pct, MlpModel, PolicyKind, SyncMode,
};
use cusync_sim::stats::waves;
use cusync_sim::{GpuConfig, Session};

fn main() {
    let gpu = GpuConfig::tesla_v100();
    let mut session = Session::new();
    println!("# Table IV: StreamSync vs cuSync for GPT-3 MLP GeMMs\n");
    println!(
        "{}",
        header(&[
            "Batch",
            "GeMM1 grid",
            "GeMM1 waves",
            "GeMM2 grid",
            "GeMM2 waves",
            "StreamSync (us)",
            "cuSync (us)",
            "Best policy",
            "Decrease",
        ])
    );
    for bs in [64u32, 128, 256, 512, 1024, 2048] {
        let t = gpt3_mlp_tiling(bs);
        let g1 = (
            bs.div_ceil(t.gemm1.tile.m),
            6144 / t.gemm1.tile.n,
            t.gemm1.split_k,
        );
        let g2 = (
            bs.div_ceil(t.gemm2.tile.m),
            12288 / t.gemm2.tile.n,
            t.gemm2.split_k,
        );
        let w1 = waves((g1.0 * g1.1 * g1.2) as u64, t.gemm1.occupancy, gpu.num_sms);
        let w2 = waves((g2.0 * g2.1 * g2.2) as u64, t.gemm2.occupancy, gpu.num_sms);

        let mut time = |mode| {
            let pipeline = compile_mlp(&gpu, MlpModel::Gpt3, bs, mode);
            session
                .run(&pipeline)
                .expect("MLP cells cannot deadlock")
                .total
        };
        let base = time(SyncMode::StreamSync);
        let candidates = [
            ("Tile", SyncMode::CuSync(PolicyKind::Tile, OptFlags::WRT)),
            ("Row", SyncMode::CuSync(PolicyKind::Row, OptFlags::WRT)),
        ];
        let (best_name, best_time) = candidates
            .iter()
            .map(|(name, mode)| (*name, time(*mode)))
            .min_by_key(|(_, time)| *time)
            .expect("candidates non-empty");
        println!(
            "{}",
            row(&[
                bs.to_string(),
                format!("{}x{}x{}", g1.0, g1.1, g1.2),
                format!("{w1:.1}"),
                format!("{}x{}x{}", g2.0, g2.1, g2.2),
                format!("{w2:.1}"),
                us(base),
                us(best_time),
                best_name.to_string(),
                pct(improvement_pct(base, best_time)),
            ])
        );
    }
    println!(
        "\nPaper (times on real V100): 378->355us (Tile, 5-6%) at 1-64, 862->728us (Tile, \
         16%) at 256, 1500->1196us (Row, 21%) at 512, 2111->1901us (Row, 10%) at 1024, \
         3730->3574us (Row, 4%) at 2048."
    );
}
