//! PipeInfer as a [`Strategy`] for the shared
//! [`Deployment`](pi_spec::deploy::Deployment) layer.
//!
//! Rank layout (matching `pi_perf::memory::per_node_memory` and the paper's
//! Fig. 3):
//!
//! * rank 0 — head: embedding/output head, sampling and orchestration (no
//!   target layers); under `DraftPlacement::HeadHosted` it also hosts the
//!   draft model;
//! * rank 1 — under `DraftPlacement::DedicatedRank`, the dedicated draft
//!   rank: off the target-pipeline route (`PipelineRoute::pipeinfer`),
//!   serving `DraftRequest` transactions concurrently with target
//!   inference — the paper's actual Fig. 3 deployment;
//! * remaining ranks — the target pipeline, one node shorter than under the
//!   iterative baseline (two shorter with a dedicated draft rank).

use crate::draft_node::DraftNode;
use crate::head::PipeInferHead;
use crate::{DraftPlacement, PipeInferConfig};
use pi_cluster::NodeBehavior;
use pi_model::Model;
use pi_spec::deploy::{build_drafter, ExecutionMode, HeadParts, StepProfile, Strategy};
use pi_spec::{GenConfig, PipeMsg, PipelineRoute, TreeConfig};
use std::ops::Range;

/// The rank hosting the draft model in the paper's Fig. 3 layout.
pub const DRAFT_RANK: usize = 1;

/// PipeInfer: asynchronous pipelined speculation.  The head rank holds no
/// target layers; depending on [`DraftPlacement`] the draft model lives on
/// the head or on the dedicated rank 1.
#[derive(Debug, Clone)]
pub struct PipeInferStrategy {
    config: PipeInferConfig,
}

impl PipeInferStrategy {
    /// Creates the strategy with the given PipeInfer tuning knobs.
    pub fn new(config: PipeInferConfig) -> Self {
        Self { config }
    }

    /// The PipeInfer configuration this strategy deploys with.
    pub fn config(&self) -> &PipeInferConfig {
        &self.config
    }

    fn dedicated(&self) -> bool {
        self.config.draft_placement == DraftPlacement::DedicatedRank
    }
}

impl Default for PipeInferStrategy {
    fn default() -> Self {
        Self::new(PipeInferConfig::default())
    }
}

impl Strategy for PipeInferStrategy {
    fn name(&self) -> &'static str {
        "PipeInfer"
    }

    fn min_nodes(&self) -> usize {
        if self.dedicated() {
            // Head + dedicated draft rank + at least one target stage.
            3
        } else {
            // The head/draft rank plus at least one target-pipeline rank.
            2
        }
    }

    fn needs_drafter(&self) -> bool {
        // The head always gets a local drafter: the head-hosted layout
        // drafts with it directly, and the dedicated layout holds it in
        // reserve as the failover drafter for a dead or unreachable draft
        // rank (rank 1 builds its own serving drafter via
        // `build_auxiliary`).  Drafter construction is rank-agnostic, so the
        // fallback proposes exactly what the remote rank would have —
        // failover never changes the token stream.
        true
    }

    fn step_profile(&self) -> StepProfile {
        // PipeInfer's continuous asynchronous speculation collapses to its
        // synchronous per-step equivalent under a step session: greedy
        // verification is lossless, so the stream is unchanged.  The micro
        // shape carries over — tree micro-batches step as trees.
        if self.config.micro_width > 1 {
            StepProfile::Tree(TreeConfig {
                max_width: self.config.micro_width,
                window: self.config.shape_window,
                ..TreeConfig::default()
            })
        } else {
            StepProfile::Chain
        }
    }

    fn route(&self, n_nodes: usize) -> PipelineRoute {
        if self.dedicated() {
            // Fig. 3: rank 1 is the draft rank, off the route; stage 0 only
            // embeds, samples and orchestrates (no target layers).
            PipelineRoute::pipeinfer(n_nodes)
        } else {
            // Every rank is on the route, but the head contributes no target
            // layers (see `split_layers`): stage 0 only embeds, samples and
            // orchestrates while hosting the draft model.
            PipelineRoute::baseline(n_nodes)
        }
    }

    fn split_layers(&self, n_layers: usize, route: &PipelineRoute) -> Vec<Range<usize>> {
        let mut splits = Vec::with_capacity(route.n_stages());
        splits.push(0..0);
        splits.extend(Model::split_layers(n_layers, route.n_stages() - 1));
        splits
    }

    fn build_head(&self, parts: HeadParts) -> Box<dyn NodeBehavior<PipeMsg>> {
        let draft_rank = self.dedicated().then_some(DRAFT_RANK);
        Box::new(PipeInferHead::new(parts, self.config.clone(), draft_rank))
    }

    fn build_auxiliary(
        &self,
        mode: &ExecutionMode,
        _n_nodes: usize,
        route: &PipelineRoute,
        gen_config: &GenConfig,
    ) -> Vec<(usize, Box<dyn NodeBehavior<PipeMsg>>)> {
        if !self.dedicated() {
            return Vec::new();
        }
        debug_assert!(route.stage_of(DRAFT_RANK).is_none());
        let drafter = build_drafter(mode, DRAFT_RANK, gen_config);
        vec![(
            DRAFT_RANK,
            Box::new(DraftNode::new(route.head(), drafter)) as Box<dyn NodeBehavior<PipeMsg>>,
        )]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_perf::{ClusterSpec, ModelPair};
    use pi_spec::deploy::{Deployment, ExecutionMode, IterativeStrategy, SpeculativeStrategy};
    use pi_spec::GenConfig;

    fn sim_mode(n_nodes: usize) -> ExecutionMode {
        ExecutionMode::Sim {
            pair: ModelPair::dolphin_tinyllama(),
            cluster: ClusterSpec::cluster_c(n_nodes),
            oracle_seed: 42,
        }
    }

    #[test]
    fn head_rank_holds_no_target_layers() {
        let deployment = Deployment::new(PipeInferStrategy::default());
        for n in [2usize, 4, 8] {
            let (route, splits) = deployment.layout(&sim_mode(n.max(4)), n);
            assert_eq!(route.head(), 0);
            assert_eq!(route.n_stages(), n);
            assert!(splits[0].is_empty(), "PipeInfer's head must hold no layers");
            // Ranks 1..N cover every layer contiguously.
            let n_layers = sim_mode(4).target_layers();
            let mut next = 0;
            for r in &splits[1..] {
                assert_eq!(r.start, next);
                next = r.end;
            }
            assert_eq!(next, n_layers);
        }
    }

    #[test]
    fn dedicated_layout_skips_the_draft_rank() {
        let strategy = PipeInferStrategy::new(PipeInferConfig::dedicated_draft_rank());
        assert!(
            strategy.needs_drafter(),
            "the head keeps a local fallback drafter for draft-rank failover"
        );
        assert_eq!(strategy.min_nodes(), 3);
        let deployment = Deployment::new(strategy);
        for n in [3usize, 4, 8] {
            let (route, splits) = deployment.layout(&sim_mode(n.max(4)), n);
            assert_eq!(route.head(), 0);
            assert_eq!(route.stage_of(DRAFT_RANK), None, "rank 1 is off-route");
            assert_eq!(route.n_stages(), n - 1);
            assert!(splits[0].is_empty(), "head still holds no layers");
            let n_layers = sim_mode(4).target_layers();
            let mut next = 0;
            for r in &splits[1..] {
                assert_eq!(r.start, next);
                next = r.end;
            }
            assert_eq!(next, n_layers);
        }
    }

    #[test]
    fn strategy_declares_draft_hosting_head() {
        let s = PipeInferStrategy::default();
        assert!(s.needs_drafter());
        assert_eq!(s.min_nodes(), 2);
        assert_eq!(s.name(), "PipeInfer");
    }

    #[test]
    fn all_three_strategies_emit_identical_token_streams_in_sim() {
        // One oracle seed fixes the target model's greedy continuation; every
        // strategy must reproduce it bit-for-bit (the paper's §V-B claim).
        let config = GenConfig {
            prompt: vec![5; 16],
            n_generate: 32,
            max_draft: 4,
            confidence_cutoff: 0.4,
            kv_capacity: 4096,
        };
        let n = 8;
        let iter = Deployment::new(IterativeStrategy).run(&sim_mode(n), n, &config);
        let spec = Deployment::new(SpeculativeStrategy).run(&sim_mode(n), n, &config);
        let pipe = Deployment::new(PipeInferStrategy::default()).run(&sim_mode(n), n, &config);
        assert!(iter.completed && spec.completed && pipe.completed);
        let want = &iter.record.tokens[..config.n_generate];
        assert_eq!(&spec.record.tokens[..config.n_generate], want);
        assert_eq!(&pipe.record.tokens[..config.n_generate], want);
    }

    #[test]
    fn every_placement_and_micro_shape_emits_the_same_stream() {
        // The four-way layout matrix (head-hosted/dedicated × chain/tree)
        // must agree token-for-token with the head-hosted chain stream.
        let config = GenConfig {
            prompt: vec![5; 16],
            n_generate: 32,
            max_draft: 4,
            confidence_cutoff: 0.4,
            kv_capacity: 4096,
        };
        let n = 8;
        let reference = Deployment::new(PipeInferStrategy::default())
            .run(&sim_mode(n), n, &config)
            .record
            .tokens;
        for variant in [
            PipeInferConfig::dedicated_draft_rank(),
            PipeInferConfig::tree_micro(),
            PipeInferConfig::tree_micro().with_placement(crate::DraftPlacement::DedicatedRank),
            PipeInferConfig::tree_micro().whole_run_invalidation(),
        ] {
            let out = Deployment::new(PipeInferStrategy::new(variant.clone())).run(
                &sim_mode(n),
                n,
                &config,
            );
            assert!(out.completed, "{variant:?}");
            assert_eq!(
                out.record.tokens, reference,
                "layout/shape must never change the greedy stream ({variant:?})"
            );
        }
    }

    #[test]
    fn dedicated_rank_serves_draft_traffic() {
        let config = GenConfig {
            prompt: vec![5; 16],
            n_generate: 32,
            max_draft: 4,
            confidence_cutoff: 0.4,
            kv_capacity: 4096,
        };
        let n = 8;
        let strategy = PipeInferStrategy::new(PipeInferConfig::dedicated_draft_rank());
        let out = Deployment::new(strategy).run(&sim_mode(n), n, &config);
        assert!(out.completed);
        assert!(out.record.draft_requests > 0, "head must request drafts");
        // Draft traffic flows head → rank 1 → head and is accounted per rank.
        assert!(out.stats.node(0).draft_messages_sent > 0);
        assert!(out.stats.node(DRAFT_RANK).draft_messages_sent > 0);
        assert!(
            out.stats.node(DRAFT_RANK).busy_time > 0.0,
            "drafting is paid"
        );
        // Head-hosted layouts send no draft traffic at all.
        let hosted = Deployment::new(PipeInferStrategy::default()).run(&sim_mode(n), n, &config);
        assert_eq!(hosted.stats.total_draft_messages(), 0);
        assert_eq!(hosted.record.draft_requests, 0);
    }

    #[test]
    fn prepared_deployment_isolates_requests() {
        // A serving layer reuses one prepared PipeInfer deployment across a
        // request stream.  All run-tracking state (RunTracker FIFO, sequence-
        // partition pool, cancellation bookkeeping) lives in the head built
        // per run, so every request is an isolated session: repeated and
        // differing requests must match their solo one-shot runs exactly.
        let prepared = Deployment::new(PipeInferStrategy::default()).prepare(&sim_mode(4), 4);
        let requests = [
            GenConfig {
                prompt: vec![5; 16],
                n_generate: 24,
                max_draft: 4,
                confidence_cutoff: 0.4,
                kv_capacity: 4096,
            },
            GenConfig {
                prompt: vec![11; 8],
                n_generate: 12,
                max_draft: 4,
                confidence_cutoff: 0.4,
                kv_capacity: 4096,
            },
        ];
        let mut solo_tokens = Vec::new();
        for config in &requests {
            let served = prepared.run(config);
            let solo = Deployment::new(PipeInferStrategy::default()).run(&sim_mode(4), 4, config);
            assert!(served.completed && solo.completed);
            assert_eq!(served.record.tokens, solo.record.tokens);
            assert_eq!(served.record.runs_launched, solo.record.runs_launched);
            assert_eq!(served.record.runs_cancelled, solo.record.runs_cancelled);
            assert_eq!(served.record.finished_at, solo.record.finished_at);
            solo_tokens.push(solo.record.tokens);
        }
        // Interleaving order must not matter either: serving the first
        // request again after the second must still match its solo output.
        let again = prepared.run(&requests[0]);
        assert_eq!(again.record.tokens, solo_tokens[0]);
    }

    #[test]
    fn ablation_configs_flow_through_the_strategy() {
        let s = PipeInferStrategy::new(PipeInferConfig::no_cancellation());
        assert!(!s.config().enable_cancellation);
        let config = GenConfig {
            prompt: vec![2; 8],
            n_generate: 12,
            max_draft: 4,
            confidence_cutoff: 0.4,
            kv_capacity: 2048,
        };
        let full = Deployment::new(PipeInferStrategy::default()).run(&sim_mode(4), 4, &config);
        let ablated = Deployment::new(s).run(&sim_mode(4), 4, &config);
        assert_eq!(full.record.tokens, ablated.record.tokens);
    }
}
