//! # cusync-models: the paper's ML workloads on the cuSync simulator
//!
//! Assembles the evaluation workloads of Section V from the instrumented
//! kernels of [`cusync_kernels`]:
//!
//! - **GPT-3 145B / LLaMA 65B MLP blocks** ([`run_mlp`]) with the exact
//!   Table IV tilings, GeLU/SwiGLU fusion, and model parallelism 8;
//! - **Attention** ([`run_attention`]): the five-kernel chain of Fig. 5b
//!   with fused QKV, KV caching, and prompt/token-generation phases;
//! - **ResNet-38 / VGG-19 convolution stacks** ([`run_conv_layer`],
//!   Table II);
//! - **end-to-end inference** ([`llm_step_time`], [`vision_step_time`])
//!   including the model-parallel allreduce;
//!
//! each runnable under [`SyncMode::StreamSync`], [`SyncMode::StreamK`] or
//! [`SyncMode::CuSync`] with any of the paper's policies.
//!
//! Every `run_*` helper compiles its pipeline (the matching `compile_*`)
//! and runs it on a fresh [`cusync_sim::Session`]. To reuse one session's
//! warmed arenas across runs, call `compile_*` and keep the session; the
//! end-to-end helpers take the session they run on.
//!
//! ## Example
//!
//! ```
//! use cusync_models::{mlp_improvement, MlpModel, PolicyKind, SyncMode};
//! use cusync::OptFlags;
//! use cusync_sim::GpuConfig;
//!
//! let gpu = GpuConfig::tesla_v100();
//! let gain = mlp_improvement(
//!     &gpu, MlpModel::Gpt3, 256,
//!     SyncMode::CuSync(PolicyKind::Tile, OptFlags::WRT),
//! );
//! assert!(gain > 0.0, "cuSync should beat StreamSync at batch 256");
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

pub use allreduce::{
    allreduce_time, launch_ring_allreduce, ring_allreduce_report, ring_allreduce_time,
    RingAllreduce,
};
pub use attention::{
    attention_improvement, attention_time, build_attention, build_attention_mechanisms,
    compile_attention, compile_attention_mechanisms, run_attention, AttentionConfig,
    ATTENTION_EDGES,
};
pub use e2e::{
    llm_e2e_improvement, llm_step_time, vision_step_time, LlmModel, GPT3, LLAMA, MP_DEGREE,
};
pub use mlp::{
    build_mlp, build_mlp_mechanisms, compile_mlp, compile_mlp_mechanisms, mlp_improvement,
    mlp_time, run_mlp, MlpModel, MLP_EDGES,
};
pub use modes::{PolicyKind, SyncMode};
pub use tiling::{auto_tiling, conv_tiling, gpt3_mlp_tiling, GemmTiling, MlpTiling};
pub use tp::{
    build_tp_layer, compile_tp_layer, run_tp_layer, tp_attention, tp_layer_time, tp_mlp,
    tp_overlap_improvement, TpKind, TpLayerConfig, TpSchedule,
};
pub use vision::{
    build_conv_layer, build_conv_layer_mechanisms, compile_conv_layer,
    compile_conv_layer_mechanisms, conv_chain_edges, conv_improvement, conv_layer_time,
    pq_for_channels, resnet38, run_conv_layer, vgg19, ConvStage,
};
