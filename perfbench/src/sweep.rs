//! The `sweep` workload: the paper's figure grid, each cell built,
//! compiled and executed once per pass on one optimized session.
//!
//! Why: the engine does almost all of the work here, so this is where
//! engine and compile changes show. The grid is Fig. 6 (MLP and Attention
//! × every mode plus StreamSync and Stream-K), the Fig. 7 conv panels, the
//! Fig. 8 LLM steps (attention + MLP + the simulated 8-device ring
//! allreduce) and vision steps, and the tensor-parallel overlap layers on
//! 2- and 4-GPU nodes. The seed adds off-grid batch and token sizes, so
//! the partial final wave (tile count modulo SM count) varies too; they are
//! drawn from fixed bands so that every seed costs about the same.

use cusync_models::{
    build_attention, build_conv_layer, build_mlp, build_tp_layer, launch_ring_allreduce,
    pq_for_channels, resnet38, tp_attention, tp_mlp, vgg19, AttentionConfig, LlmModel, MlpModel,
    PolicyKind, SyncMode, TpLayerConfig, TpSchedule, GPT3, LLAMA, MP_DEGREE,
};
use cusync_sim::{ClusterConfig, EngineMode, Gpu, GpuConfig, Session, SimTime, StreamId};

use crate::cells::{digest, fold, run_pipeline, Rng};
use crate::probe::Probe;
use crate::{parse_expected, Bench, Workload};

/// Batch sizes of the Fig. 6 MLP panels.
const MLP_BATCHES: [u32; 12] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048];
/// Batch sizes of the Fig. 7 panels.
const CONV_BATCHES: [u32; 9] = [1, 4, 8, 12, 16, 20, 24, 28, 32];
/// Token counts of the tensor-parallel layers.
const TP_TOKENS: [u32; 4] = [256, 512, 1024, 2048];
/// Digests of every grid cell's virtual-time output at the commit that
/// introduced this benchmark, as `label digest` lines.
const EXPECTED: &str = include_str!("../expected/sweep.txt");

/// The paper's prompt/generation grid: `(tokens, cached)`.
fn llm_grid() -> Vec<(u32, u32)> {
    let mut grid: Vec<(u32, u32)> = [512, 1024, 2048].map(|t| (t, 0)).to_vec();
    for cached in [512, 1024, 2048] {
        for b in [1, 2, 4] {
            grid.push((b, cached));
        }
    }
    grid
}

fn with_baselines(policies: Vec<SyncMode>, stream_k: bool) -> Vec<SyncMode> {
    let mut modes = vec![SyncMode::StreamSync];
    modes.extend(policies);
    if stream_k {
        modes.push(SyncMode::StreamK);
    }
    modes
}

#[derive(Debug, Clone, Copy)]
enum Work {
    Mlp(MlpModel, u32, SyncMode),
    Attention(AttentionConfig, SyncMode),
    Conv {
        channels: u32,
        batch: u32,
        convs: u32,
        mode: SyncMode,
    },
    /// One inference step: layers × (attention + MLP + 2 allreduces).
    LlmStep(LlmModel, u32, u32, SyncMode),
    /// One inference of ResNet-38 (`true`) or VGG-19.
    VisionStep(bool, u32, SyncMode),
    Tp(u32, TpLayerConfig, TpSchedule),
}

#[derive(Debug)]
struct Cell {
    label: String,
    work: Work,
    /// The digest the cell must reproduce: recorded for grid cells, taken
    /// from the first pass for off-grid cells.
    expected: Option<u64>,
    off_grid: bool,
}

fn cells(rng: &mut Rng) -> Vec<(String, Work, bool)> {
    let mut out = Vec::new();
    let mlp_models = [(MlpModel::Gpt3, "gpt3"), (MlpModel::Llama, "llama")];
    let mlp = |bs: u32, off: bool, out: &mut Vec<_>| {
        for (model, name) in mlp_models {
            for mode in with_baselines(SyncMode::llm_policies(), true) {
                out.push((
                    format!("mlp/{name}/bs{bs}/{mode}"),
                    Work::Mlp(model, bs, mode),
                    off,
                ));
            }
        }
    };
    for bs in MLP_BATCHES {
        mlp(bs, false, &mut out);
    }
    mlp(rng.range(257, 511), true, &mut out);

    let attention = |tokens: u32, cached: u32, off: bool, out: &mut Vec<_>| {
        for hidden in [12288, 8192] {
            let cfg = AttentionConfig {
                hidden,
                tokens,
                cached,
            };
            for mode in with_baselines(SyncMode::attention_policies(), true) {
                out.push((
                    format!("attention/h{hidden}/t{tokens}-c{cached}/{mode}"),
                    Work::Attention(cfg, mode),
                    off,
                ));
            }
        }
    };
    for (tokens, cached) in llm_grid() {
        attention(tokens, cached, false, &mut out);
    }
    attention(rng.range(513, 1023), 0, true, &mut out);
    attention(rng.range(3, 8), rng.range(256, 2048), true, &mut out);

    let conv = |channels: u32, batch: u32, convs: u32, off: bool, out: &mut Vec<_>| {
        for mode in with_baselines(SyncMode::conv_policies(), false) {
            out.push((
                format!("conv/c{channels}/b{batch}/x{convs}/{mode}"),
                Work::Conv {
                    channels,
                    batch,
                    convs,
                    mode,
                },
                off,
            ));
        }
    };
    for (channels, convs) in [(64, 2), (128, 2), (256, 2), (512, 2), (256, 4), (512, 4)] {
        for batch in CONV_BATCHES {
            conv(channels, batch, convs, false, &mut out);
        }
    }
    for (channels, convs) in [(128, 2), (256, 4)] {
        conv(
            channels,
            rng.off_grid(2, 31, &CONV_BATCHES),
            convs,
            true,
            &mut out,
        );
    }

    for (model, name) in [(GPT3, "gpt3"), (LLAMA, "llama")] {
        for (tokens, cached) in llm_grid() {
            for mode in with_baselines(SyncMode::attention_policies(), false) {
                out.push((
                    format!("llm_step/{name}/t{tokens}-c{cached}/{mode}"),
                    Work::LlmStep(model, tokens, cached, mode),
                    false,
                ));
            }
        }
    }
    let vision_modes = [
        SyncMode::StreamSync,
        SyncMode::CuSync(PolicyKind::Row, cusync::OptFlags::WRT),
        SyncMode::CuSync(PolicyKind::Conv2DTile, cusync::OptFlags::WRT),
    ];
    for (resnet, name) in [(true, "resnet38"), (false, "vgg19")] {
        for batch in CONV_BATCHES {
            for mode in vision_modes {
                out.push((
                    format!("vision_step/{name}/b{batch}/{mode}"),
                    Work::VisionStep(resnet, batch, mode),
                    false,
                ));
            }
        }
    }

    let tp = |devices: u32, tokens: u32, off: bool, out: &mut Vec<_>| {
        for (cfg, name) in [
            (tp_mlp(12288, tokens), "mlp"),
            (tp_attention(12288, tokens), "attention"),
        ] {
            for schedule in [TpSchedule::Serialized, TpSchedule::Overlap] {
                out.push((
                    format!("tp_{name}/d{devices}/t{tokens}/{schedule:?}"),
                    Work::Tp(devices, cfg, schedule),
                    off,
                ));
            }
        }
    };
    for devices in [2, 4] {
        for tokens in TP_TOKENS {
            tp(devices, tokens, false, &mut out);
        }
    }
    tp(4, rng.range(513, 1023), true, &mut out);
    out
}

fn times(t: SimTime, n: u32) -> SimTime {
    SimTime::from_picos(t.as_picos() * u64::from(n))
}

impl Work {
    /// Builds, compiles and runs every pipeline of the cell; returns the
    /// digest of its virtual-time output.
    fn run(self, probe: &Probe, session: &mut Session, gpu: &GpuConfig) -> Result<u64, String> {
        let mut on_gpu = |build: &dyn Fn(&mut Gpu)| {
            run_pipeline(probe, session, || {
                let mut g = Gpu::new(gpu.clone());
                build(&mut g);
                g
            })
        };
        Ok(match self {
            Work::Mlp(model, bs, mode) => digest(&on_gpu(&|g| build_mlp(g, model, bs, mode))?),
            Work::Attention(cfg, mode) => digest(&on_gpu(&|g| build_attention(g, cfg, mode))?),
            Work::Conv {
                channels,
                batch,
                convs,
                mode,
            } => digest(&on_gpu(&|g| {
                build_conv_layer(g, batch, pq_for_channels(channels), channels, convs, mode)
            })?),
            Work::LlmStep(model, tokens, cached, mode) => {
                let cfg = AttentionConfig {
                    hidden: model.hidden(),
                    tokens,
                    cached,
                };
                let attn = on_gpu(&|g| build_attention(g, cfg, mode))?;
                let mlp = on_gpu(&|g| build_mlp(g, model.mlp, tokens, mode))?;
                let bytes = u64::from(tokens) * u64::from(model.hidden()) * 2;
                let ar = run_pipeline(probe, session, || {
                    let mut node =
                        Gpu::new_cluster(ClusterConfig::nvlink_ring(MP_DEGREE, gpu.clone()));
                    let streams: Vec<StreamId> = (0..MP_DEGREE)
                        .map(|d| node.create_stream_on(d, 0))
                        .collect();
                    launch_ring_allreduce(&mut node, "ar", bytes, &streams);
                    node
                })?;
                // The collective's span, as `ring_allreduce_report` counts it.
                let first_start = ar.kernels.iter().map(|k| k.start).min();
                let ar_span = ar
                    .total
                    .saturating_sub(first_start.unwrap_or(SimTime::ZERO));
                let step = times(attn.total + mlp.total + ar_span + ar_span, model.layers);
                fold(&[digest(&attn), digest(&mlp), digest(&ar), step.as_picos()])
            }
            Work::VisionStep(resnet, batch, mode) => {
                let stages = if resnet { resnet38() } else { vgg19() };
                let mut words = Vec::new();
                let mut step = SimTime::ZERO;
                for s in stages {
                    let report = on_gpu(&|g| {
                        build_conv_layer(g, batch, s.pq, s.channels, s.convs_per_layer, mode)
                    })?;
                    step += times(report.total, s.layers);
                    words.push(digest(&report));
                }
                words.push(step.as_picos());
                fold(&words)
            }
            Work::Tp(devices, cfg, schedule) => digest(&run_pipeline(probe, session, || {
                let mut node = Gpu::new_cluster(ClusterConfig::dgx_v100(devices));
                build_tp_layer(&mut node, cfg, schedule);
                node
            })?),
        })
    }
}

pub struct Sweep {
    gpu: GpuConfig,
    session: Session,
    cells: Vec<Cell>,
}

impl Workload for Sweep {
    const TAIL_PERCENTILE: f64 = 99.0;

    fn setup(seed: u64, probe: &Probe) -> Self {
        let expected = parse_expected(EXPECTED);
        let mut rng = Rng::new(seed);
        let cells = cells(&mut rng)
            .into_iter()
            .map(|(label, work, off_grid)| Cell {
                expected: if off_grid {
                    None
                } else {
                    expected.get(&label).map(|e| e[0].parse().expect("digest"))
                },
                label,
                work,
                off_grid,
            })
            .collect();
        let mut sweep = Sweep {
            gpu: GpuConfig::tesla_v100(),
            session: Session::with_mode(EngineMode::Optimized),
            cells,
        };
        // Warm the session's arenas on the largest cell of each family.
        let mut largest: Vec<Work> = Vec::new();
        for cell in sweep.cells.iter().filter(|c| !c.off_grid) {
            let family = std::mem::discriminant(&cell.work);
            largest.retain(|w| std::mem::discriminant(w) != family);
            largest.push(cell.work);
        }
        for work in largest {
            let _ = work.run(probe, &mut sweep.session, &sweep.gpu);
        }
        sweep
    }

    fn pass(&mut self, bench: &mut Bench) {
        let probe = bench.probe;
        for cell in &mut self.cells {
            let (session, gpu) = (&mut self.session, &self.gpu);
            bench.unit(&cell.label, || {
                let got = cell.work.run(probe, session, gpu)?;
                match cell.expected {
                    Some(want) if want == got => Ok(()),
                    Some(want) => Err(format!("digest {got} != expected {want}")),
                    None if cell.off_grid => {
                        cell.expected = Some(got);
                        Ok(())
                    }
                    None => Err(format!("no recorded digest; got\n{} {got}", cell.label)),
                }
            });
        }
    }

    fn verify(&mut self, bench: &mut Bench) {
        // Off-grid cells have no recorded digest: the executable spec, the
        // Reference engine, must reproduce the optimized timeline.
        let probe = bench.probe;
        let mut reference = Session::with_mode(EngineMode::Reference);
        for cell in self.cells.iter().filter(|c| c.off_grid) {
            bench.check(&format!("{} reference", cell.label), || {
                let got = cell.work.run(probe, &mut reference, &self.gpu)?;
                match cell.expected {
                    Some(want) if want == got => Ok(()),
                    want => Err(format!("Reference digest {got} != Optimized {want:?}")),
                }
            });
        }
    }
}
