//! The parallel sweep driver behind the figure binaries.
//!
//! Every simulated GPU is an independent deterministic state machine, so a
//! figure's grid of (configuration × sync-mode) cells is embarrassingly
//! parallel: [`parallel_map`] fans row jobs out over OS threads. Within a
//! row, the StreamSync baseline is simulated once and shared by every
//! mode.
//!
//! Each worker owns one [`Session`] and runs every cell it takes on it, so
//! cells reuse the session's warmed arenas. The rows compile their cells
//! with the model crate's `compile_*` helpers.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use cusync_models::{
    compile_attention, compile_conv_layer, compile_mlp, improvement_pct, llm_step_time, resnet38,
    ring_allreduce_time, vgg19, vision_step_time, AttentionConfig, MlpModel, PolicyKind, SyncMode,
    GPT3, LLAMA, MP_DEGREE,
};
use cusync_sim::{CompiledPipeline, GpuConfig, Session, SimTime};

use cusync::OptFlags;

/// Worker count: `CUSYNC_BENCH_THREADS` if set, else the machine's
/// available parallelism.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("CUSYNC_BENCH_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Order-preserving parallel map: runs `f` over `items` on `threads`
/// workers (1 = fully serial). Each worker creates one [`Session`] and
/// hands it to every call it makes.
pub fn parallel_map<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(&mut Session, T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        let mut session = Session::new();
        return items.into_iter().map(|i| f(&mut session, i)).collect();
    }
    let queue: Vec<Mutex<Option<T>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(queue.len()));
    let workers = threads.min(queue.len());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut session = Session::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= queue.len() {
                        break;
                    }
                    let item = queue[i].lock().unwrap().take().expect("item taken twice");
                    let r = f(&mut session, item);
                    results.lock().unwrap().push((i, r));
                }
            });
        }
    });
    let mut results = results.into_inner().unwrap();
    results.sort_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, r)| r).collect()
}

/// One table row: a label plus one value per sync mode.
#[derive(Debug, Clone)]
pub struct Row {
    /// First column of the printed table.
    pub label: String,
    /// Improvement percentages, one per mode, in mode order.
    pub values: Vec<f64>,
}

/// The one baseline comparison: the improvement of each of `modes` over
/// StreamSync, with the baseline run once. `time` runs one mode's cell.
fn improvements<F>(modes: &[SyncMode], mut time: F) -> Vec<f64>
where
    F: FnMut(SyncMode) -> SimTime,
{
    let base = time(SyncMode::StreamSync);
    modes
        .iter()
        .map(|mode| improvement_pct(base, time(*mode)))
        .collect()
}

/// Shared row builder: improvement of each `mode` over StreamSync, with
/// the baseline simulated once per row. `compile` builds a mode's cell,
/// which runs on `session`.
fn improvement_row<F>(session: &mut Session, label: String, modes: &[SyncMode], compile: F) -> Row
where
    F: Fn(SyncMode) -> CompiledPipeline,
{
    let time = |mode| {
        session
            .run(&compile(mode))
            .expect("figure cells cannot deadlock")
            .total
    };
    Row {
        label,
        values: improvements(modes, time),
    }
}

// ---------------------------------------------------------------------------
// Fig. 6 — MLP and Attention improvements over StreamSync
// ---------------------------------------------------------------------------

/// Batch sizes of the Fig. 6 MLP panels.
pub const FIG6_MLP_BATCHES: [u32; 12] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048];

/// Modes plotted in the Fig. 6 MLP panels.
pub fn fig6_mlp_modes() -> Vec<SyncMode> {
    SyncMode::llm_policies()
        .into_iter()
        .chain([SyncMode::StreamK])
        .collect()
}

/// Modes plotted in the Fig. 6 Attention panels.
pub fn fig6_attention_modes() -> Vec<SyncMode> {
    SyncMode::attention_policies()
        .into_iter()
        .chain([SyncMode::StreamK])
        .collect()
}

/// The paper's prompt/generation configuration grid, shared by the
/// Fig. 6 Attention panels and Fig. 8a: `(label, tokens, cached)`.
fn llm_config_grid() -> Vec<(String, u32, u32)> {
    let mut configs: Vec<(String, u32, u32)> = [512u32, 1024, 2048]
        .into_iter()
        .map(|bs| (format!("{bs}, 0"), bs, 0))
        .collect();
    for s_prime in [512u32, 1024, 2048] {
        for b in [1u32, 2, 4] {
            configs.push((format!("{b}, {s_prime}"), b, s_prime));
        }
    }
    configs
}

/// The `(label, config)` pairs of one Fig. 6 Attention panel.
pub fn fig6_attention_configs(hidden: u32) -> Vec<(String, AttentionConfig)> {
    llm_config_grid()
        .into_iter()
        .map(|(label, tokens, cached)| {
            (
                label,
                AttentionConfig {
                    hidden,
                    tokens,
                    cached,
                },
            )
        })
        .collect()
}

/// Runs one Fig. 6 MLP row (all modes at one batch size) on `session`.
pub fn fig6_mlp_row(session: &mut Session, gpu: &GpuConfig, model: MlpModel, bs: u32) -> Row {
    improvement_row(session, bs.to_string(), &fig6_mlp_modes(), |mode| {
        compile_mlp(gpu, model, bs, mode)
    })
}

/// Runs one Fig. 6 Attention row (all modes at one configuration) on
/// `session`.
pub fn fig6_attention_row(
    session: &mut Session,
    gpu: &GpuConfig,
    label: &str,
    cfg: AttentionConfig,
) -> Row {
    improvement_row(session, label.to_owned(), &fig6_attention_modes(), |mode| {
        compile_attention(gpu, cfg, mode)
    })
}

// ---------------------------------------------------------------------------
// Fig. 7 — Conv2D improvements over StreamSync
// ---------------------------------------------------------------------------

/// Batch sizes of the Fig. 7 panels.
pub const FIG7_BATCHES: [u32; 9] = [1, 4, 8, 12, 16, 20, 24, 28, 32];

/// Runs one Fig. 7 row (all conv policies at one `(channels, batch)`) on
/// `session`.
pub fn fig7_row(
    session: &mut Session,
    gpu: &GpuConfig,
    channels: u32,
    pq: u32,
    batch: u32,
    convs: u32,
) -> Row {
    improvement_row(
        session,
        format!("{channels}, {batch}"),
        &SyncMode::conv_policies(),
        |mode| compile_conv_layer(gpu, batch, pq, channels, convs, mode),
    )
}

/// One Fig. 7 panel's `(channels, pq, batch, convs)` jobs.
pub fn fig7_jobs(channels: &[u32], convs: u32) -> Vec<(u32, u32, u32, u32)> {
    let mut jobs = Vec::new();
    for &c in channels {
        let pq = cusync_models::pq_for_channels(c);
        for b in FIG7_BATCHES {
            jobs.push((c, pq, b, convs));
        }
    }
    jobs
}

// ---------------------------------------------------------------------------
// Fig. 8 — end-to-end inference reductions
// ---------------------------------------------------------------------------

/// The `(label, tokens, cached)` configurations of Fig. 8a — the same
/// prompt/generation grid Fig. 6's Attention panels use.
pub fn fig8_llm_configs() -> Vec<(String, u32, u32)> {
    llm_config_grid()
}

/// Best improvement over StreamSync across `candidates`.
fn best_improvement<F>(candidates: &[SyncMode], time: F) -> f64
where
    F: FnMut(SyncMode) -> SimTime,
{
    improvements(candidates, time)
        .into_iter()
        .fold(f64::MIN, f64::max)
}

/// Runs one Fig. 8a row on `session`: best attention policy per model.
/// The mode-independent allreduce is simulated once per model.
pub fn fig8_llm_row(
    session: &mut Session,
    gpu: &GpuConfig,
    label: &str,
    tokens: u32,
    cached: u32,
) -> Row {
    let candidates = SyncMode::attention_policies();
    let values = [GPT3, LLAMA]
        .into_iter()
        .map(|model| {
            let ar = ring_allreduce_time(session, gpu, model.allreduce_bytes(tokens), MP_DEGREE);
            best_improvement(&candidates, |mode| {
                llm_step_time(session, gpu, model, tokens, cached, mode, ar)
            })
        })
        .collect();
    Row {
        label: label.to_owned(),
        values,
    }
}

/// Runs one Fig. 8b row on `session`: best conv policy per vision model.
pub fn fig8_vision_row(session: &mut Session, gpu: &GpuConfig, batch: u32) -> Row {
    let candidates = [
        SyncMode::CuSync(PolicyKind::Row, OptFlags::WRT),
        SyncMode::CuSync(PolicyKind::Conv2DTile, OptFlags::WRT),
    ];
    let values = [resnet38(), vgg19()]
        .into_iter()
        .map(|stages| {
            best_improvement(&candidates, |mode| {
                vision_step_time(session, gpu, &stages, batch, mode)
            })
        })
        .collect();
    Row {
        label: batch.to_string(),
        values,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order_and_engine() {
        // Each worker runs on its own session, which is always the
        // Optimized engine: only it consults the price memos.
        let gpu = GpuConfig::tesla_v100();
        let out = parallel_map(4, (0..8).collect::<Vec<_>>(), |session, i| {
            let pipeline = compile_mlp(&gpu, MlpModel::Gpt3, 1, SyncMode::StreamSync);
            let memo = session.run(&pipeline).unwrap().counters.mem_memo;
            assert!(memo.hits + memo.misses > 0, "worker ran unmemoized");
            i * 2
        });
        assert_eq!(out, (0..8).map(|i| i * 2).collect::<Vec<_>>());
    }
}
