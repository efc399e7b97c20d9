//! # cusync-models: the paper's ML workloads on the cuSync simulator
//!
//! Assembles the evaluation workloads of Section V from the instrumented
//! kernels of [`cusync_kernels`]:
//!
//! - **GPT-3 145B / LLaMA 65B MLP blocks** ([`compile_mlp`]) with the
//!   exact Table IV tilings, GeLU/SwiGLU fusion, and model parallelism 8;
//! - **Attention** ([`compile_attention`]): the five-kernel chain of
//!   Fig. 5b with fused QKV, KV caching, and prompt/token-generation
//!   phases;
//! - **ResNet-38 / VGG-19 convolution stacks** ([`compile_conv_layer`],
//!   Table II);
//! - **end-to-end inference** ([`llm_step_time`], [`vision_step_time`])
//!   including the model-parallel allreduce;
//!
//! each runnable under [`SyncMode::StreamSync`], [`SyncMode::StreamK`] or
//! [`SyncMode::CuSync`] with any of the paper's policies.
//!
//! Models only build: each `build_*` launches a workload onto a
//! caller-provided [`cusync_sim::Gpu`], and the matching `compile_*`
//! freezes that into a [`cusync_sim::CompiledPipeline`]. Every run goes
//! through a [`cusync_sim::Session`] the caller owns, so one session's
//! warmed arenas serve every run; the end-to-end helpers and
//! [`ring_allreduce_time`] take the session they run on.
//! [`improvement_pct`] is the paper's one figure of merit: how much a
//! time improves on the StreamSync baseline.
//!
//! ## Example
//!
//! ```
//! use cusync_models::{compile_mlp, improvement_pct, MlpModel, PolicyKind, SyncMode};
//! use cusync::OptFlags;
//! use cusync_sim::{GpuConfig, Session};
//!
//! let gpu = GpuConfig::tesla_v100();
//! let mut session = Session::new();
//! let mut time = |mode| {
//!     let pipeline = compile_mlp(&gpu, MlpModel::Gpt3, 256, mode);
//!     session.run(&pipeline).expect("MLP pipelines cannot deadlock").total
//! };
//! let base = time(SyncMode::StreamSync);
//! let tile = time(SyncMode::CuSync(PolicyKind::Tile, OptFlags::WRT));
//! assert!(improvement_pct(base, tile) > 0.0, "cuSync should beat StreamSync at batch 256");
//! ```

#![warn(missing_docs)]

mod allreduce;
mod attention;
mod e2e;
mod mech;
mod mlp;
mod modes;
mod tiling;
mod tp;
mod vision;

pub use allreduce::{allreduce_time, launch_ring_allreduce, ring_allreduce_time, RingAllreduce};
pub use attention::{
    build_attention, build_attention_mechanisms, compile_attention, compile_attention_mechanisms,
    AttentionConfig, ATTENTION_EDGES,
};
pub use e2e::{llm_step_time, vision_step_time, LlmModel, GPT3, LLAMA, MP_DEGREE};
pub use mlp::{
    build_mlp, build_mlp_mechanisms, compile_mlp, compile_mlp_mechanisms, MlpModel, MLP_EDGES,
};
pub use modes::{improvement_pct, PolicyKind, SyncMode};
pub use tiling::{auto_tiling, conv_tiling, gpt3_mlp_tiling, GemmTiling, MlpTiling};
pub use tp::{
    build_tp_layer, compile_tp_layer, tp_attention, tp_mlp, TpKind, TpLayerConfig, TpSchedule,
};
pub use vision::{
    build_conv_layer, build_conv_layer_mechanisms, compile_conv_layer,
    compile_conv_layer_mechanisms, conv_chain_edges, pq_for_channels, resnet38, vgg19, ConvStage,
};
