//! End-to-end inference assembly (Fig. 8): layer times x layer counts,
//! plus the model-parallel allreduces — **simulated** as ring collectives
//! through the multi-device engine (the closed-form `allreduce_time`
//! remains as their checked oracle; see `tests/allreduce_model.rs`).

use cusync_sim::{CompiledPipeline, GpuConfig, Session, SimTime};

use crate::attention::AttentionConfig;
use crate::mlp::MlpModel;
use crate::modes::SyncMode;
use crate::vision::ConvStage;

/// Model-parallel degree used throughout the paper's evaluation.
pub const MP_DEGREE: u32 = 8;

/// A transformer model for end-to-end accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LlmModel {
    /// Which MLP architecture (also fixes H).
    pub mlp: MlpModel,
    /// Number of transformer layers.
    pub layers: u32,
}

/// MegatronLM GPT-3 145B: 96 layers of H = 12288.
pub const GPT3: LlmModel = LlmModel {
    mlp: MlpModel::Gpt3,
    layers: 96,
};

/// LLaMA 65.2B: 80 layers of H = 8192.
pub const LLAMA: LlmModel = LlmModel {
    mlp: MlpModel::Llama,
    layers: 80,
};

impl LlmModel {
    /// Hidden dimension.
    pub fn hidden(self) -> u32 {
        self.mlp.hidden()
    }

    /// Bytes of one per-layer allreduce at `tokens` tokens: the f16
    /// `tokens x H` activations.
    pub fn allreduce_bytes(self, tokens: u32) -> u64 {
        tokens as u64 * self.hidden() as u64 * 2
    }
}

/// End-to-end time of one inference step (all layers) of `model`:
/// `layers x (attention + MLP + 2 allreduces)`.
///
/// `tokens` is `B x S` during prompt processing or `B` during token
/// generation; `cached` is `S'`. The attention and MLP blocks run on
/// `session`. `allreduce` is the time of one of the layer's two
/// allreduces. Its cost is identical across sync modes, which is exactly
/// the Fig. 6 → Fig. 8 dilution, so a caller comparing modes simulates it
/// once: [`ring_allreduce_time`](crate::ring_allreduce_time) of
/// [`LlmModel::allreduce_bytes`] over [`MP_DEGREE`] devices.
///
/// # Panics
///
/// Panics if a simulated run deadlocks (it cannot, for these launch
/// orders).
pub fn llm_step_time(
    session: &mut Session,
    gpu: &GpuConfig,
    model: LlmModel,
    tokens: u32,
    cached: u32,
    mode: SyncMode,
    allreduce: SimTime,
) -> SimTime {
    let cfg = AttentionConfig {
        hidden: model.hidden(),
        tokens,
        cached,
    };
    let attn = total(session, &crate::compile_attention(gpu, cfg, mode));
    let mlp = total(session, &crate::compile_mlp(gpu, model.mlp, tokens, mode));
    let per_layer = attn + mlp + allreduce + allreduce;
    let mut total = SimTime::ZERO;
    for _ in 0..model.layers {
        total += per_layer;
    }
    total
}

/// End-to-end time of one vision-model inference: the sum over Table II
/// stages of `layers x conv-chain time`, each chain run on `session`.
///
/// # Panics
///
/// Panics if a simulated run deadlocks or `mode` is
/// [`SyncMode::StreamK`] (Stream-K supports only GeMM).
pub fn vision_step_time(
    session: &mut Session,
    gpu: &GpuConfig,
    stages: &[ConvStage],
    batch: u32,
    mode: SyncMode,
) -> SimTime {
    let mut sum = SimTime::ZERO;
    for stage in stages {
        let layer = total(
            session,
            &crate::compile_conv_layer(
                gpu,
                batch,
                stage.pq,
                stage.channels,
                stage.convs_per_layer,
                mode,
            ),
        );
        for _ in 0..stage.layers {
            sum += layer;
        }
    }
    sum
}

/// Simulated total of one run of `pipeline` on `session`.
fn total(session: &mut Session, pipeline: &CompiledPipeline) -> SimTime {
    session
        .run(pipeline)
        .expect("model pipelines cannot deadlock")
        .total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allreduce::ring_allreduce_time;
    use crate::modes::PolicyKind;
    use crate::vision::resnet38;
    use cusync::OptFlags;

    #[test]
    fn e2e_time_scales_with_layers() {
        let gpu = GpuConfig::tesla_v100();
        let mut session = Session::new();
        let ar = ring_allreduce_time(&mut session, &gpu, GPT3.allreduce_bytes(512), MP_DEGREE);
        let mut step = |layers| {
            let model = LlmModel {
                mlp: MlpModel::Gpt3,
                layers,
            };
            llm_step_time(&mut session, &gpu, model, 512, 0, SyncMode::StreamSync, ar)
        };
        assert_eq!(step(2).as_picos(), 2 * step(1).as_picos());
    }

    #[test]
    fn e2e_improvement_is_positive_but_diluted() {
        let gpu = GpuConfig::tesla_v100();
        let mode = SyncMode::CuSync(PolicyKind::Tile, OptFlags::WRT);
        let mut session = Session::new();
        let mut mlp = |mode| {
            total(
                &mut session,
                &crate::compile_mlp(&gpu, MlpModel::Gpt3, 512, mode),
            )
        };
        let module = crate::improvement_pct(mlp(SyncMode::StreamSync), mlp(mode));
        let ar = ring_allreduce_time(&mut session, &gpu, GPT3.allreduce_bytes(512), MP_DEGREE);
        let mut step = |mode| llm_step_time(&mut session, &gpu, GPT3, 512, 0, mode, ar);
        let e2e = crate::improvement_pct(step(SyncMode::StreamSync), step(mode));
        assert!(
            e2e > 0.0,
            "end-to-end improvement should be positive, got {e2e}"
        );
        // The allreduce is mode-independent, so end-to-end gains cannot
        // exceed the best module-level gain by much.
        assert!(e2e < module + 15.0, "e2e {e2e}% vs module {module}%");
    }

    #[test]
    fn vision_e2e_covers_all_stages() {
        let gpu = GpuConfig::tesla_v100();
        let t = vision_step_time(
            &mut Session::new(),
            &gpu,
            &resnet38(),
            1,
            SyncMode::StreamSync,
        );
        assert!(t > SimTime::ZERO);
    }
}
