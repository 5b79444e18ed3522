//! # pi-spec
//!
//! Speculative-decoding building blocks and the two baseline inference
//! strategies the paper compares PipeInfer against:
//!
//! * **pipeline-parallel iterative inference** — the target model split
//!   across all ranks, one token evaluated at a time
//!   ([`IterativeStrategy`]);
//! * **pipeline-parallel speculative inference** — a SpecInfer-style
//!   synchronous speculate-then-verify loop with a single draft model hosted
//!   on the head node ([`SpeculativeStrategy`]);
//! * **tree speculation** — the same loop over genuine token *trees* with
//!   adaptive width/depth ([`tree::TreeSpeculationStrategy`]), exercising the
//!   canonical `pi_model::TokenTree` unit end-to-end.
//!
//! The three are one protocol — one run in flight, `[pending] ++ draft`
//! verified greedily, rejected KV cells rolled back; iterative is the empty
//! draft, tree speculation the branching one — and it is implemented once:
//! the private `rounds` module holds the per-request state machine
//! (`SyncRounds`: "which batch next, preceded by which cache operations" and
//! "given the target's greedy tokens, which cache operation follows"), with
//! no driver in it.  Two things drive it: the one synchronous head rank
//! (`sync_head`, what [`Strategy::build_head`] builds by default, shaped by
//! the strategy's [`StepProfile`]) on the cluster drivers, and the
//! cross-request step loop ([`session::StepSession`]), which owns one
//! `SyncRounds` per in-flight request.
//!
//! The crate also provides everything PipeInfer itself (in `pipeinfer-core`)
//! reuses:
//!
//! * the pipeline message protocol ([`message::PipeMsg`]),
//! * the head side of a run ([`launch`]): the head's stage evaluation and
//!   the send down the pipeline, a prompt in one-weight-pass slices,
//! * the generic pipeline worker rank ([`worker::PipelineWorker`]) that
//!   evaluates its layer range, applies pipelined cache operations and
//!   honours cancellation,
//! * the lane-keyed compute engines — the one place a layer range is
//!   evaluated, on a real tiny model or as roofline costs, for the cluster
//!   ranks and the step loop alike ([`engine`]),
//! * draft-model front-ends ([`drafter`]),
//! * the greedy token-verification algorithm ([`verify`]),
//! * run configuration and per-run records ([`GenConfig`],
//!   [`GenerationRecord`]),
//! * the strategy-agnostic assembly layer ([`deploy`]): the [`Strategy`]
//!   trait plus [`Deployment`], the single entry point that builds routes,
//!   engines, drafters and workers and executes them under the driver
//!   matching the [`ExecutionMode`].

pub mod deploy;
pub mod drafter;
pub mod engine;
pub mod launch;
pub mod message;
mod rounds;
pub mod route;
pub mod session;
mod sync_head;
#[cfg(test)]
pub(crate) mod testkit;
pub mod tree;
pub mod verify;
pub mod worker;

pub use deploy::{
    Deployment, ExecutionMode, HeadParts, IterativeStrategy, PreparedDeployment, RecordHandle,
    RunOptions, RunOutput, SpeculativeStrategy, StepProfile, Strategy,
};
pub use drafter::{Drafter, OracleDrafter, RealDrafter};
pub use engine::{HeadEngine, PrefixPlan, RealStage, SimHeadEngine, SimStageEngine, StageEngine};
pub use message::{ActivationPayload, CacheOp, PipeMsg, RunId, RunKind, TreeTopology};
pub use route::PipelineRoute;
pub use session::{SessionStats, StepReport, StepSession};
pub use tree::{AdaptiveShape, TreeConfig, TreeSpeculationStrategy};
pub use verify::{verify_tree, TreeVerifyOutcome};
pub use worker::PipelineWorker;

use pi_model::Token;

/// Generation-run configuration shared by every inference strategy.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Prompt tokens (the paper uses 128-token prompts).
    pub prompt: Vec<Token>,
    /// Number of tokens to generate (the paper uses 512).
    pub n_generate: usize,
    /// Maximum number of draft tokens per speculation round / micro-batch.
    pub max_draft: usize,
    /// Confidence cutoff below which the draft model stops speculating.
    pub confidence_cutoff: f32,
    /// KV-cache capacity in cells provisioned on every stage.
    pub kv_capacity: usize,
}

impl GenConfig {
    /// A small configuration suitable for tests with tiny real models.
    pub fn small_test(prompt: Vec<Token>, n_generate: usize) -> Self {
        Self {
            prompt,
            n_generate,
            max_draft: 4,
            confidence_cutoff: 0.3,
            kv_capacity: 1024,
        }
    }

    /// The paper's evaluation configuration: 128-token prompt, 512 generated
    /// tokens, speculation capped at four tokens.
    pub fn paper_eval(prompt: Vec<Token>) -> Self {
        Self {
            prompt,
            n_generate: 512,
            max_draft: 4,
            confidence_cutoff: 0.4,
            kv_capacity: 4096,
        }
    }
}

/// Timeline and outcome of one generation run, recorded by the head rank.
///
/// All times are in seconds on the driver's clock (wall-clock under the
/// threaded driver, virtual time under the simulator).
#[derive(Debug, Clone, Default)]
pub struct GenerationRecord {
    /// The generated tokens, in order (prompt not included).
    pub tokens: Vec<Token>,
    /// Time at which prompt processing finished.
    pub prompt_done_at: f64,
    /// Acceptance time of each generated token (same length as `tokens`).
    pub accept_times: Vec<f64>,
    /// Time at which the run finished.
    pub finished_at: f64,
    /// Number of draft tokens proposed.
    pub drafted: usize,
    /// Number of draft tokens accepted by verification.
    pub accepted_drafts: usize,
    /// Number of target-pipeline runs launched.
    pub runs_launched: usize,
    /// Number of runs cancelled by early inference cancellation.
    pub runs_cancelled: usize,
    /// Number of in-flight runs kept alive through an invalidation because a
    /// sibling branch of their speculation tree lay on the accepted path
    /// (branch-granular invalidation; zero for chain micro-batches).
    pub runs_rescued: usize,
    /// Number of draft requests sent to a dedicated draft rank (zero under
    /// head-hosted drafting).
    pub draft_requests: usize,
    /// Number of draft responses discarded because the hypothesis they
    /// continued had been invalidated or extended before they arrived.
    pub draft_stale: usize,
    /// Number of draft responses whose leading tokens had already been
    /// accepted by the time they arrived, but whose unused tail still
    /// continued the hypothesis and was dispatched anyway.
    pub draft_salvaged: usize,
    /// Times asynchronous speculation yielded: the acceptance estimate fell
    /// to where not even a run drafted at the frontier was expected to cover
    /// the price of a run on shared cores, and the gate went from open to
    /// closed (zero where every rank owns its node: the price is zero).
    pub spec_gate_closures: usize,
    /// Speculative runs launched below that price, as probes: how a closed
    /// gate notices a draft that tracks the target again.
    pub spec_probes: usize,
    /// Number of tree-verification rounds (zero for linear strategies).
    pub tree_rounds: usize,
    /// Total speculated tree nodes across all rounds.
    pub tree_nodes: usize,
    /// Sum of accepted root-to-leaf path lengths across all rounds.
    pub tree_accepted_path: usize,
    /// The (width, depth) shape the adaptive controller chose each round, in
    /// round order — the live trace of width/depth adaptation.
    pub tree_shapes: Vec<(usize, usize)>,
}

impl GenerationRecord {
    /// Average generation speed in tokens per second, excluding prompt
    /// processing (paper metric 1).
    pub fn generation_speed(&self) -> f64 {
        let dur = self.finished_at - self.prompt_done_at;
        if dur <= 0.0 {
            0.0
        } else {
            self.tokens.len() as f64 / dur
        }
    }

    /// Time-to-first-token: from the completion of prompt processing to the
    /// first token acceptance (paper metric 2).
    pub fn ttft(&self) -> f64 {
        self.accept_times
            .first()
            .map(|t| t - self.prompt_done_at)
            .unwrap_or(0.0)
    }

    /// Mean inter-token latency: average time between consecutive token
    /// acceptances (paper metric 3).
    pub fn mean_itl(&self) -> f64 {
        if self.accept_times.len() < 2 {
            return 0.0;
        }
        let mut gaps = Vec::with_capacity(self.accept_times.len() - 1);
        for w in self.accept_times.windows(2) {
            gaps.push(w[1] - w[0]);
        }
        gaps.iter().sum::<f64>() / gaps.len() as f64
    }

    /// Fraction of drafted tokens that were accepted.
    pub fn acceptance_rate(&self) -> f64 {
        if self.drafted == 0 {
            0.0
        } else {
            self.accepted_drafts as f64 / self.drafted as f64
        }
    }

    /// Mean tokens generated per target-pipeline run — the
    /// accepted-tokens-per-verify metric tree speculation optimises (higher
    /// is better at a fixed verify-batch budget).
    pub fn tokens_per_run(&self) -> f64 {
        if self.runs_launched == 0 {
            0.0
        } else {
            self.tokens.len() as f64 / self.runs_launched as f64
        }
    }

    /// Tree utilization: the fraction of speculated tree nodes that ended up
    /// on an accepted path.  Zero when no trees were speculated.
    pub fn tree_utilization(&self) -> f64 {
        if self.tree_nodes == 0 {
            0.0
        } else {
            self.tree_accepted_path as f64 / self.tree_nodes as f64
        }
    }

    /// First and last (width, depth) shape of the adaptive tree controller,
    /// or `None` for linear strategies.
    pub fn tree_shape_range(&self) -> Option<((usize, usize), (usize, usize))> {
        Some((*self.tree_shapes.first()?, *self.tree_shapes.last()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> GenerationRecord {
        GenerationRecord {
            tokens: vec![1, 2, 3, 4],
            prompt_done_at: 1.0,
            accept_times: vec![1.5, 2.0, 2.5, 3.0],
            finished_at: 3.0,
            drafted: 10,
            accepted_drafts: 7,
            runs_launched: 5,
            runs_cancelled: 1,
            ..GenerationRecord::default()
        }
    }

    #[test]
    fn generation_speed_excludes_prompt() {
        let r = record();
        assert!((r.generation_speed() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn ttft_is_relative_to_prompt_completion() {
        assert!((record().ttft() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mean_itl_averages_gaps() {
        assert!((record().mean_itl() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn acceptance_rate() {
        assert!((record().acceptance_rate() - 0.7).abs() < 1e-12);
        assert_eq!(GenerationRecord::default().acceptance_rate(), 0.0);
    }

    #[test]
    fn degenerate_records_are_safe() {
        let r = GenerationRecord::default();
        assert_eq!(r.generation_speed(), 0.0);
        assert_eq!(r.ttft(), 0.0);
        assert_eq!(r.mean_itl(), 0.0);
    }

    #[test]
    fn tree_metrics_and_shape_range() {
        let mut r = record();
        assert_eq!(r.tokens_per_run(), 4.0 / 5.0);
        assert_eq!(r.tree_utilization(), 0.0);
        assert_eq!(r.tree_shape_range(), None);
        r.tree_nodes = 8;
        r.tree_accepted_path = 6;
        r.tree_shapes = vec![(2, 3), (1, 4), (3, 2)];
        assert!((r.tree_utilization() - 0.75).abs() < 1e-12);
        assert_eq!(r.tree_shape_range(), Some(((2, 3), (3, 2))));
    }

    #[test]
    fn config_presets() {
        let c = GenConfig::paper_eval(vec![0; 128]);
        assert_eq!(c.prompt.len(), 128);
        assert_eq!(c.n_generate, 512);
        assert_eq!(c.max_draft, 4);
        let s = GenConfig::small_test(vec![1, 2], 8);
        assert_eq!(s.n_generate, 8);
    }
}
