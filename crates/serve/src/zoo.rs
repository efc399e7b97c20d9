//! The serving model zoo: every request names a [`ModelKind`], and a
//! batch of `width` coalesced requests executes the corresponding
//! pipeline compiled at `width ×` the per-request base shape.
//!
//! Batch width is a **compile-time** axis here on purpose: the
//! compile/execute split means each (model, width) pair is compiled into a
//! [`CompiledPipeline`] exactly once, at server warmup — dynamic batching
//! at serve time only ever *selects* among pre-compiled widths, it never
//! rebuilds a graph (see [`crate::ServicePool`]).

use cusync::OptFlags;
use cusync_models::{
    compile_attention, compile_conv_layer, compile_mlp, AttentionConfig, MlpModel, PolicyKind,
    SyncMode,
};
use cusync_sim::{CompiledPipeline, Dim3, FixedKernel, Gpu, GpuConfig, Op};
use std::fmt;
use std::sync::Arc;

/// A servable workload family from the paper's model zoo, with the
/// per-request base shape baked in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// GPT-3 145B MLP block under `TileSync+WRT`; one request carries
    /// [`ModelKind::MLP_TOKENS`] tokens.
    MlpGpt3,
    /// LLaMA 65B MLP block under `StridedSync+WRT`; one request carries
    /// [`ModelKind::MLP_TOKENS`] tokens.
    MlpLlama,
    /// Prompt-phase attention chain (five kernels, `StridedSync+WRT`) at
    /// the given hidden dimension; one request carries
    /// [`ModelKind::MLP_TOKENS`] prompt tokens.
    Attention {
        /// Hidden dimension H (12288 for GPT-3, 8192 for LLaMA).
        hidden: u32,
    },
    /// A two-convolution ResNet-style stack (`Conv2DTileSync+WRT`,
    /// 256 channels, 14×14 activations); one request carries
    /// [`ModelKind::CONV_IMAGES`] images.
    ConvStack,
    /// The GPT-3 MLP pair as Stream-K GeMMs (no cuSync semaphores); one
    /// request carries [`ModelKind::MLP_TOKENS`] tokens.
    StreamKGemm,
    /// A synthetic two-kernel producer/consumer pipeline on a toy GPU —
    /// compiles and simulates in microseconds of wall time, for tests and
    /// examples. `blocks` producer blocks per request-width unit, each
    /// charging `compute_cycles` of work.
    Toy {
        /// Producer grid blocks per width unit.
        blocks: u32,
        /// Simulated compute per block, SM cycles.
        compute_cycles: u64,
    },
    /// [`ModelKind::Toy`] whose producer additionally pushes `payload`
    /// bytes per block over the inter-device link before posting — the
    /// communication-heavy tenant whose service time moves under
    /// link degradation ([`LinkScale`](cusync_sim::LinkScale)), while
    /// pure-compute tenants are untouched.
    ToyRemote {
        /// Producer grid blocks per width unit.
        blocks: u32,
        /// Simulated compute per block, SM cycles.
        compute_cycles: u64,
        /// Bytes each producer block sends over the link.
        payload: u64,
    },
    /// An autoregressive decode tenant: each request carries a `prompt`
    /// prefix, then generates an input-dependent number of new tokens
    /// (1..=`max_new`, drawn per request from the workload seed), one
    /// decode step per token. [`ModelKind::compile`] builds the *prefill*
    /// pipeline (one block per coalesced sequence, `prompt × step_cycles`
    /// of compute); [`ModelKind::compile_decode_step`] builds the
    /// per-step pipeline for a (width, context-length class) pair. Each
    /// sequence's KV cache occupies `⌈context / block_tokens⌉` paged
    /// blocks of the device pool (see
    /// [`DecodePolicy`](crate::DecodePolicy)), `kv_bytes_per_token`
    /// bytes per token.
    DecodeLlm {
        /// Prompt tokens per request (prefilled before decoding).
        prompt: u32,
        /// Upper bound on generated tokens; each request draws its actual
        /// length uniformly from `1..=max_new`.
        max_new: u32,
        /// Context-independent SM cycles per sequence per decode step
        /// (the MLP half of a transformer layer).
        step_cycles: u64,
        /// Additional SM cycles per token of context per decode step
        /// (the attention half grows linearly with context).
        ctx_cycles: u64,
        /// KV-cache bytes appended per generated or prefilled token.
        kv_bytes_per_token: u64,
    },
}

/// Per-request work units × batch width, saturating at `u32::MAX` instead
/// of wrapping: a wrapped product would silently compile a *tiny* pipeline
/// for a huge batch and misprice every request dispatched through it.
fn batch_units(per_request: u32, width: u32) -> u32 {
    per_request.saturating_mul(width)
}

impl ModelKind {
    /// Tokens per request for the GeMM-shaped models.
    pub const MLP_TOKENS: u32 = 64;
    /// Images per request for [`ModelKind::ConvStack`].
    pub const CONV_IMAGES: u32 = 2;

    /// Compiles this model at batch width `width` (that many coalesced
    /// requests) for the given device model. Called once per (model,
    /// width) at server warmup; serving never compiles again.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero, a builder rejects the resulting shape
    /// (the zoo's base shapes are all valid at any positive width), or a
    /// decode model's prefill cycles overflow `u64`.
    pub fn compile(&self, gpu: &GpuConfig, width: u32) -> CompiledPipeline {
        assert!(width > 0, "batch width must be positive");
        match *self {
            ModelKind::MlpGpt3 => compile_mlp(
                gpu,
                MlpModel::Gpt3,
                batch_units(Self::MLP_TOKENS, width),
                SyncMode::CuSync(PolicyKind::Tile, OptFlags::WRT),
            ),
            ModelKind::MlpLlama => compile_mlp(
                gpu,
                MlpModel::Llama,
                batch_units(Self::MLP_TOKENS, width),
                SyncMode::CuSync(PolicyKind::Strided, OptFlags::WRT),
            ),
            ModelKind::Attention { hidden } => compile_attention(
                gpu,
                AttentionConfig::prompt(hidden, batch_units(Self::MLP_TOKENS, width)),
                SyncMode::CuSync(PolicyKind::Strided, OptFlags::WRT),
            ),
            ModelKind::ConvStack => compile_conv_layer(
                gpu,
                batch_units(Self::CONV_IMAGES, width),
                14,
                256,
                2,
                SyncMode::CuSync(PolicyKind::Conv2DTile, OptFlags::WRT),
            ),
            ModelKind::StreamKGemm => compile_mlp(
                gpu,
                MlpModel::Gpt3,
                batch_units(Self::MLP_TOKENS, width),
                SyncMode::StreamK,
            ),
            ModelKind::Toy {
                blocks,
                compute_cycles,
            } => Self::build_toy(gpu, batch_units(blocks, width), compute_cycles, None),
            ModelKind::ToyRemote {
                blocks,
                compute_cycles,
                payload,
            } => Self::build_toy(
                gpu,
                batch_units(blocks, width),
                compute_cycles,
                Some(payload),
            ),
            ModelKind::DecodeLlm {
                prompt,
                step_cycles,
                ..
            } => {
                let cycles = Self::decode_prefill_cycles(prompt, step_cycles)
                    .unwrap_or_else(|| panic!("{self}: prompt × step_cycles overflows u64"));
                Self::build_toy(gpu, width, cycles, None)
            }
        }
    }

    /// Per-sequence SM cycles of a [`ModelKind::DecodeLlm`] prefill,
    /// `prompt × step_cycles`, or `None` if that overflows `u64`.
    pub(crate) fn decode_prefill_cycles(prompt: u32, step_cycles: u64) -> Option<u64> {
        (prompt as u64).checked_mul(step_cycles)
    }

    /// Per-sequence SM cycles of one decode step at context class
    /// `class`, `step_cycles + class × ctx_cycles`, or `None` if that
    /// overflows `u64`.
    pub(crate) fn decode_step_cycles(step: u64, ctx: u64, class: u32) -> Option<u64> {
        (class as u64).checked_mul(ctx)?.checked_add(step)
    }

    /// The context-length class a decode step at `context_tokens` is
    /// compiled (and priced) under: the next power of two, floored at 16.
    /// Bucketing contexts keeps the number of distinct step pipelines
    /// logarithmic in the context length while the per-step cost stays
    /// monotone in the true context.
    pub fn ctx_class(context_tokens: u32) -> u32 {
        context_tokens.next_power_of_two().max(16)
    }

    /// Compiles one decode step of a [`ModelKind::DecodeLlm`] batch:
    /// `width` coresident sequences, each paying `step_cycles +
    /// ctx_class × ctx_cycles` of compute (one block per sequence).
    /// Called lazily, once per (model, width, class, device model), by
    /// [`ServicePool::decode_step_time`](crate::ServicePool::decode_step_time).
    ///
    /// # Panics
    ///
    /// Panics if `self` is not a decode model, `width` is zero, or the
    /// step's cycles overflow `u64`.
    pub fn compile_decode_step(
        &self,
        gpu: &GpuConfig,
        width: u32,
        ctx_class: u32,
    ) -> CompiledPipeline {
        assert!(width > 0, "batch width must be positive");
        let ModelKind::DecodeLlm {
            step_cycles,
            ctx_cycles,
            ..
        } = *self
        else {
            panic!("{self} is not a decode model");
        };
        let cycles =
            Self::decode_step_cycles(step_cycles, ctx_cycles, ctx_class).unwrap_or_else(|| {
                panic!("{self}: step_cycles + ctx_class × ctx_cycles overflows u64")
            });
        Self::build_toy(gpu, width, cycles, None)
    }

    fn build_toy(
        gpu: &GpuConfig,
        blocks: u32,
        compute_cycles: u64,
        payload: Option<u64>,
    ) -> CompiledPipeline {
        let mut built = Gpu::new(gpu.clone());
        let sem = built.alloc_sems("ready", 1, 0);
        let s1 = built.create_stream(0);
        let s2 = built.create_stream(0);
        let grid = Dim3::linear(blocks);
        let mut produce = vec![Op::compute(compute_cycles)];
        if let Some(bytes) = payload {
            produce.push(Op::link_send(bytes));
        }
        produce.extend([Op::Fence, Op::post(sem, 0)]);
        built.launch(s1, Arc::new(FixedKernel::new("produce", grid, 1, produce)));
        built.launch(
            s2,
            Arc::new(FixedKernel::new(
                "consume",
                grid,
                1,
                vec![
                    // `grid` is linear over a `u32` block count, so the
                    // count always fits; saturate rather than truncate if
                    // that invariant ever changes.
                    Op::wait(sem, 0, grid.count().min(u32::MAX as u64) as u32),
                    Op::compute(compute_cycles / 2),
                ],
            )),
        );
        built.compile().expect("freshly built toy pipeline")
    }
}

impl fmt::Display for ModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ModelKind::MlpGpt3 => write!(f, "mlp-gpt3"),
            ModelKind::MlpLlama => write!(f, "mlp-llama"),
            ModelKind::Attention { hidden } => write!(f, "attention-h{hidden}"),
            ModelKind::ConvStack => write!(f, "conv-stack"),
            ModelKind::StreamKGemm => write!(f, "streamk-gemm"),
            ModelKind::Toy {
                blocks,
                compute_cycles,
            } => write!(f, "toy-b{blocks}-c{compute_cycles}"),
            ModelKind::ToyRemote {
                blocks,
                compute_cycles,
                payload,
            } => write!(f, "toy-remote-b{blocks}-c{compute_cycles}-p{payload}"),
            ModelKind::DecodeLlm {
                prompt, max_new, ..
            } => write!(f, "decode-p{prompt}-n{max_new}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cusync_sim::{Session, SimTime};

    #[test]
    fn batch_units_saturate_instead_of_wrapping() {
        assert_eq!(batch_units(ModelKind::MLP_TOKENS, 4), 256);
        // 64 × (2^31) wraps to 0 under `u32` multiplication — the old
        // `tokens * width` would have compiled an empty-batch pipeline.
        assert_eq!(batch_units(ModelKind::MLP_TOKENS, 1 << 31), u32::MAX);
        assert_eq!(batch_units(u32::MAX, 2), u32::MAX);
        assert_eq!(batch_units(0, u32::MAX), 0);
    }

    #[test]
    fn toy_model_compiles_and_runs_at_every_width() {
        let gpu = GpuConfig::toy(4);
        let kind = ModelKind::Toy {
            blocks: 4,
            compute_cycles: 100_000,
        };
        let mut session = Session::new();
        let mut last = None;
        for width in 1..=4u32 {
            let pipeline = kind.compile(&gpu, width);
            let report = session.run(&pipeline).expect("toy pipeline runs");
            // More coalesced requests never finish sooner.
            if let Some(prev) = last {
                assert!(report.total >= prev, "width {width}");
            }
            last = Some(report.total);
        }
    }

    #[test]
    fn toy_remote_pays_wire_time_and_scales_with_the_link() {
        use cusync_sim::LinkScale;
        let gpu = GpuConfig::toy(4);
        let local = ModelKind::Toy {
            blocks: 4,
            compute_cycles: 100_000,
        }
        .compile(&gpu, 1);
        let remote = ModelKind::ToyRemote {
            blocks: 4,
            compute_cycles: 100_000,
            payload: 1 << 20,
        }
        .compile(&gpu, 1);
        let mut session = Session::new();
        let healthy_local = session.run(&local).unwrap().total;
        let healthy_remote = session.run(&remote).unwrap().total;
        assert!(healthy_remote > healthy_local, "payload pays wire time");
        session.set_link_scale(Some(LinkScale::times(8)));
        let degraded_remote = session.run(&remote).unwrap().total;
        let degraded_local = session.run(&local).unwrap().total;
        session.set_link_scale(None);
        assert!(degraded_remote > healthy_remote, "degradation slows sends");
        assert_eq!(degraded_local, healthy_local, "compute-only is untouched");
    }

    #[test]
    fn decode_step_cost_is_monotone_in_width_and_context() {
        let gpu = GpuConfig::toy(4);
        let kind = ModelKind::DecodeLlm {
            prompt: 32,
            max_new: 16,
            step_cycles: 50_000,
            ctx_cycles: 1_000,
            kv_bytes_per_token: 1 << 10,
        };
        let mut session = Session::new();
        let mut time = |width, class| {
            session
                .run(&kind.compile_decode_step(&gpu, width, class))
                .expect("decode step runs")
                .total
        };
        assert!(time(2, 64) >= time(1, 64), "wider batches never run faster");
        assert!(time(1, 256) > time(1, 64), "longer context costs more");
        // Classes bucket contexts.
        assert_eq!(ModelKind::ctx_class(33), 64);
        assert_eq!(ModelKind::ctx_class(64), 64);
        assert_eq!(ModelKind::ctx_class(3), 16);
        // Prefill (compile) is a distinct, prompt-scaled pipeline.
        let prefill = kind.compile(&gpu, 1);
        assert!(session.run(&prefill).expect("prefill runs").total > SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "not a decode model")]
    fn non_decode_models_reject_step_compiles() {
        ModelKind::MlpGpt3.compile_decode_step(&GpuConfig::toy(4), 1, 16);
    }

    /// A pool builds without `WorkloadSpec::validate`, so an overflowing
    /// step must fail loudly rather than wrap to a tiny service time.
    #[test]
    #[should_panic(expected = "step_cycles + ctx_class × ctx_cycles overflows u64")]
    fn overflowing_decode_steps_refuse_to_compile() {
        let kind = ModelKind::DecodeLlm {
            prompt: 16,
            max_new: 16,
            step_cycles: 1_000,
            ctx_cycles: 1 << 60,
            kv_bytes_per_token: 1 << 10,
        };
        kind.compile_decode_step(&GpuConfig::toy(4), 1, 32);
    }

    #[test]
    #[should_panic(expected = "prompt × step_cycles overflows u64")]
    fn overflowing_decode_prefills_refuse_to_compile() {
        let kind = ModelKind::DecodeLlm {
            prompt: 16,
            max_new: 16,
            step_cycles: 1 << 60,
            ctx_cycles: 1,
            kv_bytes_per_token: 1 << 10,
        };
        kind.compile(&GpuConfig::toy(4), 1);
    }

    #[test]
    fn zoo_names_are_distinct() {
        let kinds = [
            ModelKind::MlpGpt3,
            ModelKind::MlpLlama,
            ModelKind::Attention { hidden: 8192 },
            ModelKind::ConvStack,
            ModelKind::StreamKGemm,
        ];
        let names: std::collections::HashSet<String> =
            kinds.iter().map(|k| k.to_string()).collect();
        assert_eq!(names.len(), kinds.len());
    }
}
