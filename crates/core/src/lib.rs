//! # pipeinfer-core
//!
//! The paper's primary contribution: **PipeInfer**, asynchronous pipelined
//! speculation for pipeline-parallel LLM inference.
//!
//! PipeInfer keeps the target pipeline and a dedicated draft rank busy at the
//! same time, dispatching small speculative *micro-batches* continuously and
//! cancelling work the moment it is known to be wasted.  The four components
//! of §IV of the paper are one state machine, [`rounds::AsyncRounds`], which
//! knows no cluster; the modules around it are its parts and its drivers:
//!
//! | Paper component | Module |
//! |---|---|
//! | Asynchronous Speculation (§IV-A) — runs launched without waiting for earlier ones, tracked in a FIFO; the dedicated draft rank and the head's link to it | [`rounds`], [`run_tracker`]; [`draft_node`], [`draft_link`] |
//! | Continuous Speculation (§IV-B) — micro-batching, opportunistic drafting whenever no logits are waiting, confidence-cutoff recovery/decay | [`rounds`] (`draft_ask` / `offer`), [`continuous`] |
//! | Pipelined KV Cache Multibuffering (§IV-C) — per-run sequence partitions allocated from a FIFO pool, buffer swap to the canonical sequence, pipelined cache-copy commands | [`rounds`] (`Step::Cache`), [`multibuffer`] |
//! | Early Inference Cancellation (§IV-D) — invalidation detection against accepted tokens, back-propagated cancel signals, empty payloads for skipped runs | [`rounds`] (`Step::Swept`), [`run_tracker`], plus `pi_spec::worker` |
//!
//! [`head::PipeInferHead`] is the rank that drives an `AsyncRounds` on a
//! cluster: it feeds it results and drafts and executes its steps against
//! the engine and the wire.  The pipeline workers, message protocol, compute
//! engines and drafters are shared with the baselines and live in `pi-spec`;
//! [`strategy::PipeInferStrategy`] plugs the head and the draft rank into
//! its `Deployment` layer.

pub mod continuous;
pub mod draft_link;
pub mod draft_node;
pub mod head;
pub mod multibuffer;
pub mod rounds;
pub mod run_tracker;
pub mod strategy;

pub use continuous::SpeculationController;
pub use draft_link::RemoteDraft;
pub use draft_node::DraftNode;
pub use head::PipeInferHead;
pub use multibuffer::SeqPartitionPool;
pub use rounds::{AsyncRounds, DraftAsk, Step};
pub use run_tracker::{RunInfo, RunTracker};
pub use strategy::{PipeInferStrategy, DRAFT_RANK};

/// Where PipeInfer's speculative (draft) model runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DraftPlacement {
    /// The head rank hosts the draft model and drafts synchronously between
    /// probes — the layout every earlier PR used.
    #[default]
    HeadHosted,
    /// The paper's Fig. 3 layout: rank 1 is a dedicated draft rank off the
    /// target-pipeline route (`PipelineRoute::pipeinfer`), and the head
    /// drives it with `PipeMsg::DraftRequest`/`DraftResponse` transactions
    /// so drafting overlaps with verification instead of stalling the head.
    DedicatedRank,
}

/// PipeInfer-specific tuning knobs, including the ablation switches used by
/// the paper's Fig. 8.
#[derive(Debug, Clone)]
pub struct PipeInferConfig {
    /// Tokens per speculative micro-batch (the paper uses 1–4).  With
    /// `micro_width > 1` this is the per-iteration tree-node budget the
    /// controller splits between width and depth.
    pub micro_batch: usize,
    /// Enable Early Inference Cancellation.  Disabling it reproduces the
    /// "no cancellation" ablation of Fig. 8: invalidated runs are still
    /// ignored at the head but every stage keeps evaluating them.
    pub enable_cancellation: bool,
    /// Enable Continuous Speculation.  Disabling it reproduces the "no cont.
    /// spec." ablation of Fig. 8: only one speculative run is kept in flight,
    /// with a larger batch as a counter-balance.
    pub enable_continuous_speculation: bool,
    /// Where the draft model runs (head-hosted or on the dedicated rank of
    /// the paper's Fig. 3).
    pub draft_placement: DraftPlacement,
    /// Maximum root-level branches per continuous micro-batch.  `1` keeps
    /// micro-batches as plain chains (the pre-tree behavior, byte-identical
    /// token streams); larger values let the controller hedge each
    /// iteration with the draft model's runner-up candidates.
    pub micro_width: usize,
    /// Deadline for a `DraftRequest` transaction to the dedicated draft
    /// rank, in seconds (virtual under the simulator, wall-clock under the
    /// threaded driver).  Generous relative to any fault-free round trip so
    /// it only fires when the draft rank is dead, partitioned or severely
    /// delayed; each expiry counts as one consecutive draft failure.
    pub draft_deadline_s: f64,
    /// Consecutive draft failures (request timeouts or empty-draft refusals
    /// of an unchanged hypothesis) the head retries before failing over:
    /// to its local fallback drafter when one is attached, otherwise into
    /// degraded non-speculative pipelined decoding.
    pub draft_max_retries: u32,
    /// Base of the bounded exponential backoff between draft retries.  The
    /// actual wait is `draft_backoff_s × 2^min(failures, 6) × U[0.5, 1.5)`
    /// with a seeded jitter source, so replays are deterministic.
    pub draft_backoff_s: f64,
}

impl Default for PipeInferConfig {
    fn default() -> Self {
        Self {
            micro_batch: 2,
            enable_cancellation: true,
            enable_continuous_speculation: true,
            draft_placement: DraftPlacement::HeadHosted,
            micro_width: 1,
            draft_deadline_s: 2.0,
            draft_max_retries: 3,
            draft_backoff_s: 0.05,
        }
    }
}

impl PipeInferConfig {
    /// The configuration used by the figure benchmarks (micro-batches of 2,
    /// all features enabled).
    pub fn paper_default() -> Self {
        Self::default()
    }

    /// The "no cancellation" ablation of Fig. 8.
    pub fn no_cancellation() -> Self {
        Self {
            enable_cancellation: false,
            ..Self::default()
        }
    }

    /// The "no continuous speculation" ablation of Fig. 8.
    pub fn no_continuous_speculation() -> Self {
        Self {
            enable_continuous_speculation: false,
            ..Self::default()
        }
    }

    /// The paper's Fig. 3 deployment: drafting on the dedicated rank 1, off
    /// the target-pipeline route.
    pub fn dedicated_draft_rank() -> Self {
        Self {
            draft_placement: DraftPlacement::DedicatedRank,
            ..Self::default()
        }
    }

    /// Tree-shaped continuous micro-batches: each iteration speculates a
    /// width×depth tree chosen by the controller's acceptance shape model
    /// over a 4-node budget; an invalidation spares a run whose sibling
    /// branch carries the accepted token.
    pub fn tree_micro() -> Self {
        Self {
            micro_batch: 4,
            micro_width: 3,
            ..Self::default()
        }
    }

    /// Returns this configuration with the given draft placement.
    pub fn with_placement(mut self, placement: DraftPlacement) -> Self {
        self.draft_placement = placement;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_enables_all_features() {
        let c = PipeInferConfig::default();
        assert!(c.enable_cancellation);
        assert!(c.enable_continuous_speculation);
        assert!(c.micro_batch >= 1 && c.micro_batch <= 4);
    }

    #[test]
    fn ablation_presets_flip_one_feature_each() {
        let nc = PipeInferConfig::no_cancellation();
        assert!(!nc.enable_cancellation);
        assert!(nc.enable_continuous_speculation);
        let ns = PipeInferConfig::no_continuous_speculation();
        assert!(ns.enable_cancellation);
        assert!(!ns.enable_continuous_speculation);
    }

    #[test]
    fn default_is_the_degenerate_configuration() {
        // The byte-identity pin: head-hosted drafting, width-1 chains.
        let c = PipeInferConfig::default();
        assert_eq!(c.draft_placement, DraftPlacement::HeadHosted);
        assert_eq!(c.micro_width, 1);
    }

    #[test]
    fn recovery_knobs_have_safe_defaults() {
        // The deadline must dwarf fault-free draft round trips (sub-second
        // virtual time) so recovery only ever engages under injected faults
        // or genuine failures, and the retry budget must be finite.
        let c = PipeInferConfig::default();
        assert!(c.draft_deadline_s >= 1.0);
        assert!(c.draft_max_retries >= 1);
        assert!(c.draft_backoff_s > 0.0);
        // Worst-case total backoff stays far below the deadline-dominated
        // failover time: base × 2^6 × 1.5 per retry.
        let worst = c.draft_backoff_s * 64.0 * 1.5;
        assert!(worst < c.draft_deadline_s * 4.0);
    }

    #[test]
    fn layout_and_tree_presets() {
        let d = PipeInferConfig::dedicated_draft_rank();
        assert_eq!(d.draft_placement, DraftPlacement::DedicatedRank);
        assert_eq!(d.micro_width, 1);
        let t = PipeInferConfig::tree_micro();
        assert!(t.micro_width > 1);
        assert!(t.micro_batch >= t.micro_width);
        let td = PipeInferConfig::tree_micro().with_placement(DraftPlacement::DedicatedRank);
        assert_eq!(td.draft_placement, DraftPlacement::DedicatedRank);
        assert!(td.micro_width > 1);
    }
}
