//! # pipeinfer
//!
//! Facade crate for the PipeInfer reproduction workspace.  It re-exports the
//! public API of every workspace crate under one roof so examples,
//! integration tests and downstream users can depend on a single crate:
//!
//! * [`tensor`] — dense tensors, transformer kernels, weight-format pricing.
//! * [`model`] — decoder-only transformers, KV cache with sequence metadata,
//!   token trees, samplers and the synthetic alignment oracles.
//! * [`trace`] — cross-rank span tracing, pipeline-bubble accounting and
//!   Chrome trace-event / Perfetto export.
//! * [`cluster`] — MPI-like messaging, the threaded cluster driver and the
//!   discrete-event simulator.
//! * [`perf`] — hardware presets, model-pair presets and the roofline cost
//!   model reproducing the paper's testbeds.
//! * [`spec`] — speculative-decoding building blocks and the iterative /
//!   speculative pipeline-parallel baselines.
//! * [`core`] — PipeInfer itself: asynchronous pipelined speculation with
//!   continuous speculation, KV-cache multibuffering and early inference
//!   cancellation.
//! * [`metrics`] — measurement summaries with percentiles, and report
//!   rendering.
//! * [`serve`] — the continuous-batching serving layer: a long-lived
//!   [`serve::Server`] over one prepared deployment, workload generators and
//!   per-request latency metrics.
//!
//! Every strategy executes through the strategy-agnostic
//! [`spec::deploy::Deployment`] layer: implement
//! [`spec::deploy::Strategy`] (rank layout + layer split + head factory)
//! and `Deployment::run` does the rest.  See `README.md` for a quickstart
//! and the workspace map.

/// Dense tensors, transformer kernels and weight-format pricing (`pi-tensor`).
pub use pi_tensor as tensor;

/// Transformer models, KV cache, token trees and samplers (`pi-model`).
pub use pi_model as model;

/// Structured event tracing, pipeline-bubble accounting and Perfetto export
/// (`pi-trace`).
pub use pi_trace as trace;

/// Message passing, threaded driver and discrete-event simulator
/// (`pi-cluster`).
pub use pi_cluster as cluster;

/// Hardware/model presets and the roofline cost model (`pi-perf`).
pub use pi_perf as perf;

/// Speculative decoding building blocks and baselines (`pi-spec`).
pub use pi_spec as spec;

/// PipeInfer itself (`pipeinfer-core`).
pub use pipeinfer_core as core;

/// Metrics and report rendering (`pi-metrics`).
pub use pi_metrics as metrics;

/// Continuous-batching serving layer (`pi-serve`).
pub use pi_serve as serve;

/// Convenience prelude with the types most programs need.
pub mod prelude {
    pub use pi_cluster::{FaultPlan, HaltReason, LinkFaults};
    pub use pi_model::{
        AdmissionRefusal, Batch, ByteTokenizer, KvPagePool, KvPoolConfig, KvPoolStats, Model,
        ModelConfig, Token,
    };
    pub use pi_perf::{ClusterSpec, InferenceStrategy, ModelPair};
    pub use pi_serve::{Request, ServeReport, Server, ServerConfig, WorkloadGen};
    pub use pi_spec::deploy::{
        Deployment, ExecutionMode, HeadParts, IterativeStrategy, PreparedDeployment, RunOptions,
        RunOutput, SpeculativeStrategy, Strategy,
    };
    pub use pi_spec::{
        GenConfig, GenerationRecord, SessionStats, StepReport, StepSession, TreeConfig,
        TreeSpeculationStrategy,
    };
    pub use pi_trace::{BubbleReport, PerfettoTrace, Trace, TraceConfig};
    pub use pipeinfer_core::{DraftPlacement, PipeInferConfig, PipeInferStrategy};
}
