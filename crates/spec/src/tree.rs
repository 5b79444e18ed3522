//! Tree speculation with adaptive width/depth — the strategy that exercises
//! the canonical [`TokenTree`] unit end-to-end.
//!
//! Linear speculation spends its whole verify-batch budget on one chain of
//! draft tokens, so a single top-1 miss wastes every token after it.  Tree
//! speculation hedges: the same budget buys a *tree* whose primary branch is
//! the greedy chain and whose extra root-level branches are the draft
//! model's runner-up candidates, all verified in one batched pass through
//! the pipeline (the batch's sequence-id sets encode the tree attention
//! mask, SpecInfer-style).  Verification walks the deepest accepted
//! root-to-leaf path ([`verify_tree`](crate::verify::verify_tree)); the KV
//! caches of every stage then retain exactly that path via the pipelined
//! [`BranchCommit`](crate::message::CacheOp::BranchCommit) /
//! [`BranchRollback`](crate::message::CacheOp::BranchRollback) operations.
//!
//! Linear speculation is the width-1 case of the same code: the drafter's
//! one routine ([`Drafter::draft_tree`](crate::drafter::Drafter::draft_tree))
//! drafts it, `SyncRounds` builds and verifies it on the same path, and the
//! strategy differs only in where the KV entries go — a chain is written in
//! place on the canonical sequence and its rejected tail removed, a tree's
//! branches get sequence partitions of their own.
//!
//! ## Adaptive shape
//!
//! How to split the budget between *width* (hedging) and *depth* (reach) is
//! a function of the live acceptance rate: when the draft agrees with the
//! target, deep chains win (every extra branch is a wasted slot); when it
//! struggles, wide shallow trees win (the runner-up rescues rounds the chain
//! would lose outright).  [`AdaptiveShape`] tracks the per-round depth
//! utilization over a sliding window and re-chooses `(width, depth)` every
//! round, so a request adapts *within* its own stream.  Across requests, the
//! strategy feeds each finished request's lifetime acceptance back into a
//! shared prior, so a `pi_serve::Server` stream starts each new request at
//! the shape its predecessors learned (the feedback loop the scheduler's
//! completion order drives).  Shape only affects *performance*: the emitted
//! token stream is always the target's own greedy continuation, whatever the
//! tree looks like.

use crate::message::PipeMsg;
use crate::sync_head::SyncHead;
use crate::{HeadParts, Strategy};
use pi_cluster::NodeBehavior;
use pi_model::TokenTree;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Starting acceptance estimate when no feedback exists yet: optimistic, so
/// a fresh request begins with a pure chain (`width == 1`) and only widens
/// on evidence — which also makes `max_width == 1` reproduce the linear
/// speculative baseline exactly.
pub(crate) const DEFAULT_PRIOR: f64 = 0.8;

/// Tree-speculation tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeConfig {
    /// Maximum root-level branches per tree (1 = always a chain).
    pub max_width: usize,
    /// Maximum depth of the primary branch.
    pub max_depth: usize,
}

impl Default for TreeConfig {
    fn default() -> Self {
        Self {
            max_width: 4,
            max_depth: 8,
        }
    }
}

/// Recovery probability the shape model assumes per runner-up branch: the
/// chance that, when the primary candidate misses, one extra root branch
/// rescues the round.  Kept deliberately below the oracle drafter's actual
/// second-choice rate so the controller only widens when the expected gain
/// is robust.
const MODEL_RECOVERY: f64 = 0.4;

/// Pseudo-observation weight of the prior in the acceptance estimate, so a
/// couple of unlucky opening rounds cannot whipsaw the shape.
const PRIOR_WEIGHT: f64 = 6.0;

/// Sliding-window length (in verification rounds) of the acceptance
/// estimate: the synthetic (and real) acceptance landscape shifts over a
/// handful of rounds, so a long memory adapts out of phase with it
/// (measured on the serving gate workload).
const SHAPE_WINDOW: usize = 4;

/// Sliding-window acceptance tracker choosing the per-round tree shape.
///
/// The estimate is a smoothed geometric per-token acceptance MLE over the
/// window: accepted tokens over accepted tokens plus observed rejection
/// events (a round whose accepted path stops short of the tree's span
/// observed exactly one rejection; a fully-accepted round observed none —
/// so confidence-cutoff truncation of short drafts does not inflate the
/// estimate), blended with the prior at `PRIOR_WEIGHT` pseudo-counts.
///
/// The shape decision is then a one-step expected-value model: for every
/// feasible width `w` (depth `d = budget + 1 - w`), the expected accepted
/// tokens are the chain term `p + p² + … + p^d` plus the rescue term
/// `(1 - p) · (1 - (1 - r)^(w-1))`, and the controller picks the maximising
/// `(w, d)` — deep chains when acceptance is high, wider hedged trees as it
/// falls, never exceeding the verify-batch budget.
#[derive(Debug, Clone)]
pub struct AdaptiveShape {
    config: TreeConfig,
    /// Maximum tree nodes per round (= the linear strategy's `max_draft`,
    /// keeping verify batches the same size as the baseline's).
    budget: usize,
    /// Per-round `(accepted, observed a rejection)` outcomes.
    history: VecDeque<(usize, bool)>,
    prior: f64,
}

impl AdaptiveShape {
    /// Creates a controller over `budget` speculated nodes per round,
    /// starting from acceptance estimate `prior`.
    pub fn new(config: TreeConfig, budget: usize, prior: f64) -> Self {
        Self {
            config,
            budget: budget.max(1),
            history: VecDeque::new(),
            prior: prior.clamp(0.0, 1.0),
        }
    }

    /// The current smoothed acceptance estimate (the prior until rounds
    /// accumulate).
    pub fn estimate(&self) -> f64 {
        let accepted: usize = self.history.iter().map(|(a, _)| a).sum();
        let rejections: usize = self.history.iter().filter(|(_, r)| *r).count();
        (PRIOR_WEIGHT * self.prior + accepted as f64)
            / (PRIOR_WEIGHT + (accepted + rejections) as f64)
    }

    /// Expected accepted tokens of one `(width, depth)` round at per-token
    /// acceptance `p`.
    fn expected_accepted(p: f64, width: usize, depth: usize) -> f64 {
        let chain: f64 = (1..=depth as i32).map(|k| p.powi(k)).sum();
        let rescue = (1.0 - p) * (1.0 - (1.0 - MODEL_RECOVERY).powi(width as i32 - 1));
        chain + rescue
    }

    fn depth_for(&self, width: usize) -> usize {
        (self.budget + 1 - width).min(self.config.max_depth).max(1)
    }

    /// The `(width, depth)` to draft this round: the expected-value argmax
    /// over feasible widths (ties prefer the narrower tree).
    pub fn shape(&self) -> (usize, usize) {
        let p = self.estimate();
        let widest = self.config.max_width.min(self.budget).max(1);
        let mut best = (1, self.depth_for(1));
        let mut best_value = Self::expected_accepted(p, best.0, best.1);
        for width in 2..=widest {
            let depth = self.depth_for(width);
            let value = Self::expected_accepted(p, width, depth);
            if value > best_value + 1e-12 {
                best_value = value;
                best = (width, depth);
            }
        }
        best
    }

    /// Records one verification round's outcome: `accepted` path length out
    /// of a tree spanning `span` positions.
    pub fn observe(&mut self, accepted: usize, span: usize) {
        if span == 0 {
            return;
        }
        self.history.push_back((accepted, accepted < span));
        while self.history.len() > SHAPE_WINDOW {
            self.history.pop_front();
        }
    }
}

/// Cross-request acceptance feedback shared through the strategy: each
/// finished request contributes its lifetime depth utilization, and new
/// requests start their controller from the running mean.
#[derive(Debug, Default)]
struct ShapeFeedback {
    sum: f64,
    n: u64,
}

impl ShapeFeedback {
    fn prior(&self) -> Option<f64> {
        if self.n == 0 {
            None
        } else {
            Some(self.sum / self.n as f64)
        }
    }

    fn push(&mut self, estimate: f64) {
        self.sum += estimate;
        self.n += 1;
    }
}

/// Length of the accepted path's prefix that lies on the tree's primary
/// spine (the first root and its first-child chain — the branch the greedy
/// draft proposed).
pub(crate) fn spine_prefix_len(tree: &TokenTree, accepted_path: &[usize]) -> usize {
    let mut expected = tree.roots().first().copied();
    let mut n = 0;
    for &id in accepted_path {
        if Some(id) != expected {
            break;
        }
        n += 1;
        expected = tree.nodes()[id].children.first().copied();
    }
    n
}

/// Tree speculation through the `Deployment` seam: SpecInfer-style
/// synchronous rounds whose unit is a [`TokenTree`] with adaptive
/// width/depth, verified in one batched pipeline pass at the same
/// verify-batch budget as [`crate::SpeculativeStrategy`]
/// (`GenConfig::max_draft` nodes per round).
///
/// The strategy keeps a shared acceptance prior across every head it builds:
/// requests served over one `PreparedDeployment` feed their lifetime
/// acceptance back, so later requests start at the learned shape.  Token
/// streams stay deterministic regardless (verification always reproduces the
/// target's greedy continuation); only shape and therefore speed metrics
/// respond to the feedback, and under concurrent serving the feedback order
/// follows the scheduler's completion order.
#[derive(Debug, Clone, Default)]
pub struct TreeSpeculationStrategy {
    config: TreeConfig,
    feedback: Arc<Mutex<ShapeFeedback>>,
}

impl TreeSpeculationStrategy {
    /// Creates the strategy with explicit tree knobs.
    pub fn new(config: TreeConfig) -> Self {
        Self {
            config,
            feedback: Arc::default(),
        }
    }

    /// The configured tree knobs.
    pub fn config(&self) -> TreeConfig {
        self.config
    }

    /// The cross-request acceptance prior learned so far, if any request has
    /// completed (exposed for tests and serving diagnostics).
    pub fn learned_prior(&self) -> Option<f64> {
        self.feedback.lock().unwrap().prior()
    }
}

impl Strategy for TreeSpeculationStrategy {
    fn name(&self) -> &'static str {
        "TreeSpeculation"
    }

    fn needs_drafter(&self) -> bool {
        true
    }

    fn step_profile(&self) -> crate::deploy::StepProfile {
        crate::deploy::StepProfile::Tree(self.config)
    }

    /// The shared synchronous head, seeded with the prior its predecessors
    /// learned and reporting its own acceptance back at finish.
    fn build_head(&self, parts: HeadParts) -> Box<dyn NodeBehavior<PipeMsg>> {
        let prior = self.learned_prior().unwrap_or(DEFAULT_PRIOR);
        let feedback = Arc::clone(&self.feedback);
        Box::new(
            SyncHead::new(parts, self.step_profile(), prior)
                .with_feedback(move |acceptance| feedback.lock().unwrap().push(acceptance)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::{Deployment, ExecutionMode, SpeculativeStrategy};
    use crate::GenConfig;
    use pi_cluster::{EventKind, TraceConfig};
    use pi_model::{Model, ModelConfig, OracleTarget};
    use pi_perf::{ClusterSpec, ModelPair};

    fn sim_mode(n_nodes: usize, pair: ModelPair) -> ExecutionMode {
        ExecutionMode::Sim {
            pair,
            cluster: ClusterSpec::cluster_c(n_nodes),
            oracle_seed: 42,
        }
    }

    fn config(n_generate: usize) -> GenConfig {
        GenConfig {
            prompt: vec![9; 12],
            n_generate,
            max_draft: 4,
            confidence_cutoff: 0.4,
            kv_capacity: 4096,
        }
    }

    #[test]
    fn adaptive_shape_trades_width_for_depth_within_budget() {
        let cfg = TreeConfig::default();
        let mut shape = AdaptiveShape::new(cfg, 4, 0.9);
        // High acceptance: pure chain at full depth.
        assert_eq!(shape.shape(), (1, 4));
        // Sustained rejection widens, shallower.
        for _ in 0..8 {
            shape.observe(0, 4);
        }
        let (w, d) = shape.shape();
        assert!(w > 1, "width must grow under rejection, got {w}");
        assert_eq!(d + w - 1, 4, "budget must be preserved");
        // Recovery narrows again.
        for _ in 0..8 {
            shape.observe(4, 4);
        }
        assert_eq!(shape.shape(), (1, 4));
    }

    #[test]
    fn adaptive_shape_respects_caps() {
        let cfg = TreeConfig {
            max_width: 2,
            max_depth: 3,
        };
        let mut shape = AdaptiveShape::new(cfg, 8, 0.0);
        for _ in 0..4 {
            shape.observe(0, 4);
        }
        let (w, d) = shape.shape();
        assert_eq!(w, 2, "width capped");
        assert_eq!(d, 3, "depth capped");
        // Window really slides: old rejections age out and the estimate
        // recovers toward the observed acceptances.
        let before = shape.estimate();
        for _ in 0..4 {
            shape.observe(4, 4);
        }
        assert!(shape.estimate() > before + 0.3);
    }

    #[test]
    fn tree_output_matches_oracle_continuation_in_sim_mode() {
        // Whatever shape the controller picks, the token stream must be the
        // target's greedy continuation — for every alignment.
        for pair in [ModelPair::dolphin_tinyllama(), ModelPair::goliath_xwin7b()] {
            let cfg = config(24);
            let out = Deployment::new(TreeSpeculationStrategy::default()).run(
                &sim_mode(4, pair.clone()),
                4,
                &cfg,
            );
            assert!(out.completed, "{}", pair.name);
            let oracle = OracleTarget::new(42, pair.target.cfg.vocab_size as u32);
            let truth = oracle.generate(&cfg.prompt, 30);
            assert_eq!(
                out.record.tokens[..24].to_vec(),
                truth[1..25].to_vec(),
                "{}: tree speculation must preserve greedy output",
                pair.name
            );
            assert!(out.record.tree_rounds > 0);
            assert_eq!(out.record.tree_shapes.len(), out.record.tree_rounds);
        }
    }

    #[test]
    fn a_traced_tree_run_records_one_branch_event_per_round() {
        // The synchronous head applies and pipelines its cache ops through
        // the helper PipeInfer's head uses, so each verified tree leaves its
        // commit or rollback in the trace.
        let out = Deployment::new(TreeSpeculationStrategy::default())
            .prepare(&sim_mode(4, ModelPair::goliath_xwin7b()), 4)
            .run_traced(&config(24), TraceConfig::default());
        assert!(out.completed);
        let trace = out.trace.expect("run_traced attaches a trace");
        let branch_events = trace
            .events()
            .iter()
            .filter(|e| {
                e.rank == 0
                    && matches!(
                        e.kind,
                        EventKind::BranchCommit { .. } | EventKind::BranchRollback { .. }
                    )
            })
            .count();
        assert!(out.record.tree_rounds > 0);
        assert_eq!(branch_events, out.record.tree_rounds);
    }

    #[test]
    fn tree_matches_linear_speculation_token_stream() {
        let cfg = config(32);
        let mode = sim_mode(4, ModelPair::goliath_xwin7b());
        let tree = Deployment::new(TreeSpeculationStrategy::default()).run(&mode, 4, &cfg);
        let linear = Deployment::new(SpeculativeStrategy).run(&mode, 4, &cfg);
        assert_eq!(
            tree.record.tokens[..32],
            linear.record.tokens[..32],
            "same oracle seed ⇒ same greedy stream"
        );
    }

    #[test]
    fn degenerate_width_one_reproduces_linear_round_structure() {
        // max_width 1 forces chains; the tree head must then verify exactly
        // the chains the linear baseline verifies: same tokens, same number
        // of pipeline runs, same per-round acceptance.
        let cfg = config(24);
        let mode = sim_mode(4, ModelPair::dolphin_tinyllama());
        let narrow = TreeSpeculationStrategy::new(TreeConfig {
            max_width: 1,
            max_depth: 8,
        });
        let tree = Deployment::new(narrow).run(&mode, 4, &cfg);
        let linear = Deployment::new(SpeculativeStrategy).run(&mode, 4, &cfg);
        assert_eq!(tree.record.tokens, linear.record.tokens);
        assert_eq!(tree.record.runs_launched, linear.record.runs_launched);
        assert_eq!(tree.record.drafted, linear.record.drafted);
        assert_eq!(tree.record.accepted_drafts, linear.record.accepted_drafts);
    }

    #[test]
    fn low_alignment_beats_linear_accepted_per_verify_at_equal_budget() {
        // Goliath + XWin-7B (52 % acceptance): the top-1 chain misses often
        // enough that hedging with runner-up branches wins.
        let cfg = config(48);
        let mode = sim_mode(4, ModelPair::goliath_xwin7b());
        let tree = Deployment::new(TreeSpeculationStrategy::default()).run(&mode, 4, &cfg);
        let linear = Deployment::new(SpeculativeStrategy).run(&mode, 4, &cfg);
        assert!(
            tree.record.tokens_per_run() > linear.record.tokens_per_run(),
            "tree {} <= linear {}",
            tree.record.tokens_per_run(),
            linear.record.tokens_per_run()
        );
        // And it genuinely used wider-than-chain trees to get there.
        assert!(tree.record.tree_shapes.iter().any(|&(w, _)| w > 1));
        assert!(tree.record.tree_utilization() > 0.0);
    }

    #[test]
    fn feedback_prior_is_learned_across_requests() {
        let strategy = TreeSpeculationStrategy::default();
        assert_eq!(strategy.learned_prior(), None);
        let deployment = Deployment::new(strategy.clone());
        let _ = deployment.run(&sim_mode(4, ModelPair::goliath_xwin7b()), 4, &config(16));
        let learned = strategy
            .learned_prior()
            .expect("a finished request must feed the prior");
        assert!((0.0..=1.0).contains(&learned));
        // The 52 %-acceptance pair must teach a prior below the optimistic
        // default, so later requests start from the evidence, not the guess.
        assert!(learned < DEFAULT_PRIOR, "learned prior {learned}");
        // A second request folds into the running mean.
        let _ = deployment.run(&sim_mode(4, ModelPair::goliath_xwin7b()), 4, &config(16));
        let second = strategy.learned_prior().unwrap();
        assert!((0.0..=1.0).contains(&second));
    }

    #[test]
    fn tree_runs_end_to_end_on_the_threaded_driver() {
        let model_cfg = ModelConfig::tiny_llama(64, 4);
        let target = Arc::new(Model::random(model_cfg.clone(), 17));
        let draft = Arc::new(Model::new(model_cfg, target.weights().perturbed(0.02, 18)));
        let mode = ExecutionMode::Real { target, draft };
        let cfg = GenConfig::small_test(vec![3, 1, 4, 1, 5], 12);
        let tree = Deployment::new(TreeSpeculationStrategy::default()).run(&mode, 2, &cfg);
        let linear = Deployment::new(SpeculativeStrategy).run(&mode, 2, &cfg);
        assert!(tree.completed && linear.completed);
        assert_eq!(
            tree.record.tokens, linear.record.tokens,
            "real-mode tree and linear speculation must agree token-for-token"
        );
    }
}
