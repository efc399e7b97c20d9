//! End-to-end inference assembly (Fig. 8): layer times x layer counts,
//! plus the model-parallel allreduces — **simulated** as ring collectives
//! through the multi-device engine (the closed-form `allreduce_time`
//! remains as their checked oracle; see `tests/allreduce_model.rs`).

use cusync_sim::{CompiledPipeline, GpuConfig, Session, SimTime};

use crate::allreduce::ring_allreduce_time;
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
}

/// End-to-end time of one inference step (all layers) of `model`:
/// `layers x (attention + MLP + 2 allreduces)`.
///
/// `tokens` is `B x S` during prompt processing or `B` during token
/// generation; `cached` is `S'`. The attention and MLP blocks run on
/// `session`; the allreduce runs on its own cluster session.
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
) -> SimTime {
    let cfg = AttentionConfig {
        hidden: model.hidden(),
        tokens,
        cached,
    };
    let attn = total(session, &crate::compile_attention(gpu, cfg, mode));
    let mlp = total(session, &crate::compile_mlp(gpu, model.mlp, tokens, mode));
    // The two per-layer allreduces run as simulated ring collectives on
    // an MP_DEGREE-device cluster of this GPU; their cost is identical
    // across sync modes, which is exactly the Fig. 6 → Fig. 8 dilution.
    let ar = ring_allreduce_time(gpu, tokens as u64 * model.hidden() as u64 * 2, MP_DEGREE);
    let per_layer = attn + mlp + ar + ar;
    let mut total = SimTime::ZERO;
    for _ in 0..model.layers {
        total += per_layer;
    }
    total
}

/// Percentage reduction in end-to-end inference time over StreamSync
/// (Fig. 8a).
pub fn llm_e2e_improvement(
    gpu: &GpuConfig,
    model: LlmModel,
    tokens: u32,
    cached: u32,
    mode: SyncMode,
) -> f64 {
    let mut session = Session::new();
    let base = llm_step_time(
        &mut session,
        gpu,
        model,
        tokens,
        cached,
        SyncMode::StreamSync,
    );
    let t = llm_step_time(&mut session, gpu, model, tokens, cached, mode);
    100.0 * (1.0 - t.as_picos() as f64 / base.as_picos() as f64)
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
    use crate::modes::PolicyKind;
    use crate::vision::resnet38;
    use cusync::OptFlags;

    #[test]
    fn e2e_time_scales_with_layers() {
        let gpu = GpuConfig::tesla_v100();
        let mut session = Session::new();
        let one = llm_step_time(
            &mut session,
            &gpu,
            LlmModel {
                mlp: MlpModel::Gpt3,
                layers: 1,
            },
            512,
            0,
            SyncMode::StreamSync,
        );
        let two = llm_step_time(
            &mut session,
            &gpu,
            LlmModel {
                mlp: MlpModel::Gpt3,
                layers: 2,
            },
            512,
            0,
            SyncMode::StreamSync,
        );
        assert_eq!(two.as_picos(), 2 * one.as_picos());
    }

    #[test]
    fn e2e_improvement_is_positive_but_diluted() {
        let gpu = GpuConfig::tesla_v100();
        let mode = SyncMode::CuSync(PolicyKind::Tile, OptFlags::WRT);
        let module = crate::mlp::mlp_improvement(&gpu, MlpModel::Gpt3, 512, mode);
        let e2e = llm_e2e_improvement(&gpu, GPT3, 512, 0, mode);
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
