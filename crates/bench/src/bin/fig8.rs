//! Fig. 8: reduction in end-to-end inference times of GPT-3, LLaMA,
//! ResNet-38 and VGG-19 using cuSync-synchronized kernels.
//!
//! Rows are simulated in parallel by the sweep driver; per-row StreamSync
//! baselines are shared across the candidate policies.
//!
//! Usage: `fig8 [llm|vision|all]`

use cusync_bench::sweep::{
    default_threads, fig8_llm_configs, fig8_llm_row, fig8_vision_row, parallel_map, FIG7_BATCHES,
};
use cusync_bench::{header, pct, row};
use cusync_sim::GpuConfig;

fn main() {
    let what = std::env::args().nth(1).unwrap_or_else(|| "all".to_owned());
    let gpu = GpuConfig::tesla_v100();
    let threads = default_threads();
    println!("# Fig. 8: end-to-end inference time reductions with cuSync\n");

    if what == "llm" || what == "all" {
        println!("## Fig. 8a: language models (best policy per configuration)\n");
        println!("{}", header(&["BxS, S'", "GPT-3", "LLaMA"]));
        let rows = parallel_map(
            threads,
            fig8_llm_configs(),
            |session, (name, tokens, cached)| fig8_llm_row(session, &gpu, &name, tokens, cached),
        );
        for r in rows {
            println!(
                "{}",
                row(&[r.label.clone(), pct(r.values[0]), pct(r.values[1])])
            );
        }
        println!("\nPaper: GPT-3 6-15% (18/13/14% prompt, 8-9% generation), LLaMA 9-13%.\n");
    }

    if what == "vision" || what == "all" {
        println!("## Fig. 8b: vision models (best policy per batch)\n");
        println!("{}", header(&["Batch", "ResNet-38", "VGG-19"]));
        let rows = parallel_map(threads, FIG7_BATCHES.to_vec(), |session, batch| {
            fig8_vision_row(session, &gpu, batch)
        });
        for r in rows {
            println!(
                "{}",
                row(&[r.label.clone(), pct(r.values[0]), pct(r.values[1])])
            );
        }
        println!("\nPaper: ResNet-38 5-22%, VGG-19 6-16%.");
    }
}
