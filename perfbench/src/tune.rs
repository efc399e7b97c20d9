//! The `tune` workload: per-edge sync-mechanism autotuning of the 60
//! Fig. 6 / Fig. 7 cells of `BENCH_PR9.json` plus seeded off-grid cells,
//! from a cold `TuneCache` every pass. Each winner is re-run traced and
//! explained (attribution, Chrome export and validation), and then the
//! whole set is replayed against the warm cache.
//!
//! Why: the tuner drives the engine with many small, invalid and
//! deadlocking candidate runs, and this is the only workload where the
//! `gen` and `obs` layers run. `gen.replay_evals` counts the candidates a
//! warm replay still re-runs, because invalid and deadlocking assignments
//! are never memoized.

use cusync::{OptFlags, SyncMechanism};
use cusync_models::{
    build_attention_mechanisms, build_conv_layer_mechanisms, build_mlp_mechanisms,
    conv_chain_edges, pq_for_channels, AttentionConfig, MlpModel, ATTENTION_EDGES, MLP_EDGES,
};
use cusync_obs::{chrome_trace_json, collect_spans, validate_chrome_trace, Attribution};
use cusync_sim::{splitmix64, EngineMode, Gpu, GpuConfig, Session, SimTime};
use cusyncgen::{autotune_sync_mechanisms, MechanismPlan, TuneCache};

use crate::cells::{compile, digest, execute, Rng};
use crate::probe::Probe;
use crate::{parse_expected, Bench, Workload};

/// `figure/label tuned_ps assignment` of every cell of `BENCH_PR9.json`.
const EXPECTED: &str = include_str!("../expected/tune.txt");
const MLP_BATCHES: [u32; 12] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048];
const CONV_BATCHES: [u32; 3] = [1, 12, 24];

#[derive(Debug, Clone, Copy)]
enum Shape {
    Mlp(MlpModel, u32),
    Attention(AttentionConfig),
    Conv {
        channels: u32,
        batch: u32,
        convs: u32,
    },
}

impl Shape {
    fn edges(self) -> usize {
        match self {
            Shape::Mlp(..) => MLP_EDGES,
            Shape::Attention(_) => ATTENTION_EDGES,
            Shape::Conv { convs, .. } => conv_chain_edges(convs),
        }
    }

    /// The `TuneCache` shape key, as `bench_pr9` derives it.
    fn fingerprint(self) -> u64 {
        let parts: Vec<u64> = match self {
            Shape::Mlp(model, bs) => vec![1, model as u64, bs.into()],
            Shape::Attention(c) => vec![2, c.hidden.into(), c.tokens.into(), c.cached.into()],
            Shape::Conv {
                channels,
                batch,
                convs,
            } => vec![3, channels.into(), batch.into(), convs.into()],
        };
        parts
            .iter()
            .fold(0xC60_2024u64, |fp, &p| splitmix64(fp ^ splitmix64(p)))
    }

    /// Builds the cell under `mechanisms`; `None` if the assignment is
    /// invalid for the graph.
    fn build(self, gpu: &GpuConfig, mechanisms: &[SyncMechanism]) -> Option<Gpu> {
        let mut g = Gpu::new(gpu.clone());
        let wrt = OptFlags::WRT;
        match self {
            Shape::Mlp(model, bs) => build_mlp_mechanisms(&mut g, model, bs, wrt, mechanisms),
            Shape::Attention(cfg) => build_attention_mechanisms(&mut g, cfg, wrt, mechanisms),
            Shape::Conv {
                channels,
                batch,
                convs,
            } => build_conv_layer_mechanisms(
                &mut g,
                batch,
                pq_for_channels(channels),
                channels,
                convs,
                wrt,
                mechanisms,
            ),
        }?;
        Some(g)
    }
}

#[derive(Debug)]
struct Cell {
    key: String,
    shape: Shape,
    /// `(tuned_ps, assignment)` recorded in `BENCH_PR9.json`.
    expected: Option<(u64, String)>,
    /// This run's first plan; later passes and the replay must repeat it.
    plan: Option<MechanismPlan>,
}

/// The tuner's candidate evaluation: build, compile and run one
/// assignment. Invalid and deadlocking assignments are `None`, an
/// expected outcome rather than a failure.
fn evaluate(
    probe: &Probe,
    session: &mut Session,
    gpu: &GpuConfig,
    shape: Shape,
    mechanisms: &[SyncMechanism],
) -> Option<SimTime> {
    probe.count("models.builds", 1);
    let Some(built) = probe.span("models.build", || shape.build(gpu, mechanisms)) else {
        probe.count("models.invalid_builds", 1);
        return None;
    };
    let pipeline = compile(probe, built).ok()?;
    execute(probe, session, pipeline).ok().map(|r| r.total)
}

pub struct Tune {
    gpu: GpuConfig,
    session: Session,
    traced: Session,
    cells: Vec<Cell>,
}

impl Tune {
    /// Tunes one cell from `cache`, then re-runs the winner traced and
    /// explains it.
    fn tune_and_explain(
        probe: &Probe,
        session: &mut Session,
        traced: &mut Session,
        gpu: &GpuConfig,
        cache: &mut TuneCache,
        cell: &mut Cell,
    ) -> Result<(), String> {
        let shape = cell.shape;
        let plan = probe.span("gen.tune", || {
            autotune_sync_mechanisms(shape.edges(), shape.fingerprint(), cache, |ms| {
                probe.count("gen.evals", 1);
                evaluate(probe, session, gpu, shape, ms)
            })
        });
        probe.count("models.builds", 1);
        let built = probe
            .span("models.build", || shape.build(gpu, &plan.assignment))
            .ok_or("the winning assignment does not build")?;
        let pipeline = compile(probe, built)?;
        let report = probe
            .span("sim.traced_execute", || traced.run(&pipeline))
            .map_err(|e| format!("traced winner: {e}"))?;
        probe.count("sim.trace_events", traced.trace().len() as u64);
        let cluster = pipeline.cluster();
        let attr = probe.span("obs.analyze", || {
            Attribution::analyze(cluster, &report, traced.trace())
        });
        probe.span("obs.export", || {
            let spans = collect_spans(cluster, &report, traced.trace());
            validate_chrome_trace(&chrome_trace_json(&spans))
        })?;

        if report.total != plan.time {
            return Err(format!(
                "traced winner {} != tuned {}",
                report.total, plan.time
            ));
        }
        if !attr.exact || attr.critical_path.length > report.total {
            return Err("attribution is not exact".to_owned());
        }
        if let Some((ps, assignment)) = &cell.expected {
            if (plan.time.as_picos(), plan.describe()) != (*ps, assignment.clone()) {
                return Err(format!(
                    "tuned {} {} != BENCH_PR9 {ps} {assignment}",
                    plan.time.as_picos(),
                    plan.describe()
                ));
            }
        }
        match &cell.plan {
            Some(first) if *first != plan => Err(format!("plan {plan:?} != first {first:?}")),
            Some(_) => Ok(()),
            None => {
                cell.plan = Some(plan);
                Ok(())
            }
        }
    }
}

impl Workload for Tune {
    const TAIL_PERCENTILE: f64 = 95.0;

    fn setup(seed: u64, probe: &Probe) -> Self {
        let recorded = parse_expected(EXPECTED);
        let mut shapes: Vec<(String, Shape)> = Vec::new();
        for (model, name) in [(MlpModel::Gpt3, "gpt3"), (MlpModel::Llama, "llama")] {
            for bs in MLP_BATCHES {
                shapes.push((format!("fig6_mlp_{name}/bs{bs}"), Shape::Mlp(model, bs)));
            }
        }
        let mut attention: Vec<(u32, u32)> = [512, 1024, 2048].map(|t| (t, 0)).to_vec();
        for cached in [512, 1024, 2048] {
            attention.extend([1, 2, 4].map(|b| (b, cached)));
        }
        for (tokens, cached) in attention {
            let cfg = AttentionConfig {
                hidden: 12288,
                tokens,
                cached,
            };
            shapes.push((
                format!("fig6_attention/{tokens}-{cached}"),
                Shape::Attention(cfg),
            ));
        }
        for channels in [64, 128, 256, 512] {
            for batch in CONV_BATCHES {
                for convs in [2, 4] {
                    shapes.push((
                        format!("fig7_conv/c{channels}-b{batch}-x{convs}"),
                        Shape::Conv {
                            channels,
                            batch,
                            convs,
                        },
                    ));
                }
            }
        }
        let mut rng = Rng::new(seed);
        for (model, name) in [(MlpModel::Gpt3, "gpt3"), (MlpModel::Llama, "llama")] {
            let bs = rng.range(257, 511);
            shapes.push((format!("off_grid_mlp_{name}/bs{bs}"), Shape::Mlp(model, bs)));
        }
        for (tokens, cached) in [
            (rng.range(513, 1023), 0),
            (rng.range(3, 8), rng.range(256, 2048)),
        ] {
            let cfg = AttentionConfig {
                hidden: 12288,
                tokens,
                cached,
            };
            shapes.push((
                format!("off_grid_attention/{tokens}-{cached}"),
                Shape::Attention(cfg),
            ));
        }
        for (channels, convs) in [(128, 2), (256, 4)] {
            let batch = rng.off_grid(2, 31, &CONV_BATCHES);
            shapes.push((
                format!("off_grid_conv/c{channels}-b{batch}-x{convs}"),
                Shape::Conv {
                    channels,
                    batch,
                    convs,
                },
            ));
        }
        let cells = shapes
            .into_iter()
            .map(|(key, shape)| Cell {
                expected: recorded
                    .get(&key)
                    .map(|fields| (fields[0].parse().expect("tuned_ps"), fields[1].clone())),
                key,
                shape,
                plan: None,
            })
            .collect();

        let mut tune = Tune {
            gpu: GpuConfig::tesla_v100(),
            session: Session::with_mode(EngineMode::Optimized),
            traced: Session::with_mode(EngineMode::Optimized),
            cells,
        };
        tune.traced.enable_trace();
        // Warm both sessions on the all-TileSync anchor of each family's
        // largest cell.
        for key in [
            "fig6_mlp_gpt3/bs2048",
            "fig6_attention/2048-0",
            "fig7_conv/c64-b24-x4",
        ] {
            let cell = tune.cells.iter().find(|c| c.key == key).expect("grid cell");
            let fine = vec![SyncMechanism::TileSync; cell.shape.edges()];
            let _ = evaluate(probe, &mut tune.session, &tune.gpu, cell.shape, &fine);
            let _ = evaluate(probe, &mut tune.traced, &tune.gpu, cell.shape, &fine);
        }
        tune
    }

    fn pass(&mut self, bench: &mut Bench) {
        let probe = bench.probe;
        let mut cache = TuneCache::new();
        for cell in &mut self.cells {
            let (session, traced, gpu) = (&mut self.session, &mut self.traced, &self.gpu);
            let key = cell.key.clone();
            bench.unit(&key, || {
                Tune::tune_and_explain(probe, session, traced, gpu, &mut cache, cell)
            });
        }
        let (session, gpu) = (&mut self.session, &self.gpu);
        let replays: Vec<MechanismPlan> = probe.span("gen.replay", || {
            self.cells
                .iter()
                .map(|cell| {
                    let shape = cell.shape;
                    autotune_sync_mechanisms(shape.edges(), shape.fingerprint(), &mut cache, |ms| {
                        probe.count("gen.replay_evals", 1);
                        evaluate(probe, session, gpu, shape, ms)
                    })
                })
                .collect()
        });
        for (cell, replay) in self.cells.iter().zip(&replays) {
            bench.check(&format!("{} replay", cell.key), || match &cell.plan {
                Some(plan) if plan.assignment == replay.assignment && plan.time == replay.time => {
                    Ok(())
                }
                plan => Err(format!("warm replay {replay:?} != tuned {plan:?}")),
            });
        }
    }

    fn verify(&mut self, bench: &mut Bench) {
        // Off-grid winners have no recorded value: the Reference engine
        // must reproduce the optimized timeline.
        let mut reference = Session::with_mode(EngineMode::Reference);
        for cell in self.cells.iter().filter(|c| c.expected.is_none()) {
            bench.check(&format!("{} reference", cell.key), || {
                let plan = cell.plan.as_ref().ok_or("never tuned")?;
                let run = |session: &mut Session| {
                    let built = cell.shape.build(&self.gpu, &plan.assignment)?;
                    session.run(&built.compile().ok()?).ok()
                };
                let want = run(&mut self.session).ok_or("optimized winner failed")?;
                let got = run(&mut reference).ok_or("reference winner failed")?;
                if digest(&got) == digest(&want) {
                    Ok(())
                } else {
                    Err("Reference and Optimized timelines differ".to_owned())
                }
            });
        }
    }
}
