//! Continuous-speculation control (§IV-B).
//!
//! The head keeps the dedicated draft rank busy by issuing micro-batch draft
//! requests whenever verification work would otherwise leave it idle.  The
//! [`SpeculationController`] decides *whether* another request should be
//! issued, with *what* confidence cutoff, and in *what shape*:
//!
//! * the paper's reactive speculation gradient — every successful
//!   continuous-speculation iteration raises the cutoff by the *recovery
//!   factor* (so speculation gets harder the further it runs ahead), a
//!   completed accepted run resets it, and a failed speculation with nothing
//!   waiting to be sampled lowers it by the *decay factor* (so an idle
//!   system speculates more aggressively);
//! * with `micro_width > 1`, a per-iteration **width×depth tree shape**
//!   chosen by the same windowed-acceptance expected-value model the tree
//!   strategy uses ([`pi_spec::AdaptiveShape`]): deep chains while the draft
//!   model tracks the target, wide shallow hedges when it struggles, always
//!   inside the `micro_batch` node budget.  Width 1 degenerates to the
//!   pre-tree chain micro-batches exactly;
//! * a decayed per-token **acceptance estimate** p̂ over every resolved
//!   speculative run, chain or tree, and the [expected yield] of a proposed
//!   run under it — what `AsyncRounds::draft_ask` weighs against the price
//!   of a run where ranks share cores.
//!
//! [expected yield]: SpeculationController::expected_yield

use crate::PipeInferConfig;
use pi_spec::{AdaptiveShape, TreeConfig};

/// Starting acceptance estimate of both memories: optimistic, so a fresh
/// generation begins with a pure chain, speculates, and only widens or
/// yields on evidence (matching `pi_spec::tree`'s prior).
const ACCEPTANCE_PRIOR: f64 = 0.8;

/// Trials the prior of the acceptance estimate counts for.
const ESTIMATE_PRIOR_TRIALS: f64 = 4.0;

/// What the acceptance estimate keeps of its counts per observed run: a
/// memory of ten runs' weight, long enough to tell 0.03 from 0.3 and short
/// enough that fifteen straight rejections bring an all-accept history of
/// two-token runs under 0.37, where `AsyncRounds` stops following the draft.
const ESTIMATE_DECAY: f64 = 0.9;

/// Reactive continuous-speculation controller.
#[derive(Debug, Clone)]
pub struct SpeculationController {
    base_cutoff: f32,
    cutoff: f32,
    recovery: f32,
    decay: f32,
    micro_batch: usize,
    max_ahead: usize,
    continuous: bool,
    ablation_batch: usize,
    /// Present iff `micro_width > 1`: the windowed acceptance model re-
    /// splitting the micro-batch budget between width and depth.
    shape: Option<AdaptiveShape>,
    /// Decayed draft tokens the target agreed with, and decayed draft tokens
    /// it ruled on: the per-token acceptance estimate is their ratio.
    accept_hits: f64,
    accept_trials: f64,
}

impl SpeculationController {
    /// Creates a controller from the run configuration and the base
    /// speculation cutoff.
    pub fn new(config: &PipeInferConfig, base_cutoff: f32) -> Self {
        let shape = (config.micro_width > 1).then(|| {
            AdaptiveShape::new(
                TreeConfig {
                    max_width: config.micro_width,
                    max_depth: config.micro_batch.max(1),
                    window: config.shape_window.max(1),
                },
                config.micro_batch.max(1),
                ACCEPTANCE_PRIOR,
            )
        });
        Self {
            base_cutoff,
            cutoff: base_cutoff,
            recovery: config.recovery_factor,
            decay: config.decay_factor,
            micro_batch: config.micro_batch.max(1),
            max_ahead: config.max_speculation_ahead.max(1),
            continuous: config.enable_continuous_speculation,
            ablation_batch: config.ablation_batch.max(1),
            shape,
            accept_hits: ACCEPTANCE_PRIOR * ESTIMATE_PRIOR_TRIALS,
            accept_trials: ESTIMATE_PRIOR_TRIALS,
        }
    }

    /// The current confidence cutoff to send with the next draft request.
    pub fn cutoff(&self) -> f32 {
        self.cutoff
    }

    /// The number of tokens to request per draft.
    pub fn batch_size(&self) -> usize {
        if self.continuous {
            self.micro_batch
        } else {
            self.ablation_batch
        }
    }

    /// The `(width, depth)` of the next micro-batch: `(1, batch_size())`
    /// for chain micro-batches, the adaptive shape model's argmax inside
    /// the node budget otherwise.
    pub fn shape(&self) -> (usize, usize) {
        match &self.shape {
            Some(model) if self.continuous => model.shape(),
            _ => (1, self.batch_size()),
        }
    }

    /// Records one resolved speculative run's outcome: the accepted prefix
    /// of the *primary spine* out of a tree spanning `span` positions.
    ///
    /// It feeds two memories, because they answer different questions.  The
    /// shape model (`micro_width > 1` only) re-splits a node budget between
    /// width and depth from the last `shape_window` runs under six
    /// pseudo-counts of prior: quick to widen, but it bottoms out at 0.48
    /// and cannot tell a draft that is wrong half the time from one that is
    /// never right — and the `tree_micro` transcripts pin its arithmetic.
    /// The [`estimate`](Self::estimate) has to see 0.03, for chains too, so
    /// it keeps decayed counts of its own: the target ruled on
    /// `spine_accepted` tokens it agreed with and, unless the whole spine
    /// passed, on the one it rejected.
    pub fn observe_shape(&mut self, spine_accepted: usize, span: usize) {
        if let Some(model) = &mut self.shape {
            model.observe(spine_accepted, span);
        }
        let hits = spine_accepted.min(span);
        let trials = (hits + 1).min(span);
        self.accept_hits = ESTIMATE_DECAY * self.accept_hits + hits as f64;
        self.accept_trials = ESTIMATE_DECAY * self.accept_trials + trials as f64;
    }

    /// The decayed per-token acceptance estimate p̂: the prior (0.8 at four
    /// trials' weight) until runs resolve.
    pub fn estimate(&self) -> f64 {
        self.accept_hits / self.accept_trials
    }

    /// Tokens a `depth`-token chain drafted `ahead` unverified tokens past
    /// the frontier is expected to add under p̂: it counts only if everything
    /// before it holds, and then up to its first miss —
    /// `p̂^ahead · (p̂ + p̂² + … + p̂^depth)` (PipeSpec's closed form for the
    /// yield of a verify, arXiv 2505.01572).
    pub fn expected_yield(&self, ahead: usize, depth: usize) -> f64 {
        let p = self.estimate();
        let chain: f64 = (1..=depth as i32).map(|k| p.powi(k)).sum();
        p.powi(ahead as i32) * chain
    }

    /// Whether another draft request should be issued right now.
    ///
    /// * `speculated_ahead` — tokens speculated and dispatched but not yet
    ///   resolved.
    /// * `active_speculative_runs` — non-cancelled speculative runs in
    ///   flight.
    /// * `partitions_available` — free KV sequence partitions.
    pub fn should_request(
        &self,
        speculated_ahead: usize,
        active_speculative_runs: usize,
        partitions_available: usize,
    ) -> bool {
        if partitions_available == 0 {
            return false;
        }
        if !self.continuous {
            // Ablation: a single speculation burst at a time.
            return active_speculative_runs == 0 && speculated_ahead == 0;
        }
        if speculated_ahead >= self.max_ahead {
            return false;
        }
        // A cutoff above 1.0 means no token can satisfy it: the gradient has
        // climbed far enough that further speculation is judged wasteful.
        self.cutoff <= 1.0
    }

    /// Called after each dispatched continuous-speculation iteration: raises
    /// the cutoff by the recovery factor.
    pub fn on_iteration(&mut self) {
        if self.continuous {
            self.cutoff = (self.cutoff + self.recovery).min(1.5);
        }
    }

    /// Called when a run completes with at least one accepted token: resets
    /// the cutoff to its base value.
    pub fn on_accept(&mut self) {
        self.cutoff = self.base_cutoff;
    }

    /// Called when speculation fails (an invalidation) while nothing is
    /// waiting to be sampled: lowers the cutoff by the decay factor.
    pub fn on_failure_while_idle(&mut self) {
        self.cutoff = (self.cutoff - self.decay).max(0.05);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller() -> SpeculationController {
        SpeculationController::new(&PipeInferConfig::default(), 0.4)
    }

    #[test]
    fn cutoff_rises_with_iterations_and_resets_on_accept() {
        let mut c = controller();
        let start = c.cutoff();
        c.on_iteration();
        c.on_iteration();
        assert!(c.cutoff() > start);
        c.on_accept();
        assert!((c.cutoff() - start).abs() < 1e-6);
    }

    #[test]
    fn cutoff_decays_on_idle_failure_with_floor() {
        let mut c = controller();
        for _ in 0..100 {
            c.on_failure_while_idle();
        }
        assert!(c.cutoff() >= 0.05);
        assert!(c.cutoff() < 0.4);
    }

    #[test]
    fn requests_stop_when_partitions_exhausted() {
        let c = controller();
        assert!(!c.should_request(0, 0, 0));
        assert!(c.should_request(0, 0, 4));
    }

    #[test]
    fn requests_stop_at_max_ahead() {
        let cfg = PipeInferConfig {
            max_speculation_ahead: 4,
            ..PipeInferConfig::default()
        };
        let c = SpeculationController::new(&cfg, 0.4);
        assert!(c.should_request(3, 2, 8));
        assert!(!c.should_request(4, 2, 8));
    }

    #[test]
    fn requests_stop_when_cutoff_exceeds_one() {
        let cfg = PipeInferConfig {
            recovery_factor: 0.3,
            ..PipeInferConfig::default()
        };
        let mut c = SpeculationController::new(&cfg, 0.9);
        assert!(c.should_request(0, 0, 4));
        c.on_iteration();
        assert!(!c.should_request(1, 1, 4), "cutoff {}", c.cutoff());
    }

    #[test]
    fn ablation_mode_allows_single_burst_with_larger_batch() {
        let cfg = PipeInferConfig::no_continuous_speculation();
        let c = SpeculationController::new(&cfg, 0.4);
        assert_eq!(c.batch_size(), cfg.ablation_batch);
        assert!(c.should_request(0, 0, 8));
        assert!(!c.should_request(0, 1, 8));
        assert!(!c.should_request(3, 0, 8));
    }

    #[test]
    fn continuous_mode_uses_micro_batches() {
        let c = controller();
        assert_eq!(c.batch_size(), PipeInferConfig::default().micro_batch);
    }

    #[test]
    fn width_one_shape_is_the_plain_chain() {
        let c = controller();
        assert_eq!(c.shape(), (1, c.batch_size()));
        let abl = SpeculationController::new(&PipeInferConfig::no_continuous_speculation(), 0.4);
        assert_eq!(abl.shape(), (1, abl.batch_size()));
    }

    #[test]
    fn tree_micro_shape_adapts_within_the_budget() {
        let cfg = PipeInferConfig::tree_micro();
        let mut c = SpeculationController::new(&cfg, 0.4);
        // Optimistic prior: starts as a pure chain at full depth.
        assert_eq!(c.shape(), (1, cfg.micro_batch));
        // Sustained rejection widens while preserving the node budget.
        for _ in 0..2 * cfg.shape_window {
            c.observe_shape(0, cfg.micro_batch);
        }
        let (w, d) = c.shape();
        assert!(w > 1, "width must grow under rejection, got {w}");
        assert!(w <= cfg.micro_width);
        assert_eq!(w + d - 1, cfg.micro_batch, "budget must be preserved");
        // Recovery narrows back to the chain.
        for _ in 0..2 * cfg.shape_window {
            c.observe_shape(cfg.micro_batch, cfg.micro_batch);
        }
        assert_eq!(c.shape(), (1, cfg.micro_batch));
    }

    #[test]
    fn observing_chains_moves_the_estimate_not_the_shape() {
        let mut c = controller();
        assert!((c.estimate() - ACCEPTANCE_PRIOR).abs() < 1e-12);
        for _ in 0..16 {
            c.observe_shape(0, 2);
        }
        assert_eq!(c.shape(), (1, c.batch_size()));
        // Where the window-4 shape model bottoms out at 0.48.
        assert!(c.estimate() < 0.1, "estimate {}", c.estimate());
    }

    #[test]
    fn the_estimate_counts_tokens_the_target_ruled_on() {
        // One accepted of three, the third never judged: one hit in two
        // trials on top of the prior's 3.2 in 4, both decayed once.
        let mut c = controller();
        c.observe_shape(1, 3);
        assert!((c.estimate() - (0.9 * 3.2 + 1.0) / (0.9 * 4.0 + 2.0)).abs() < 1e-12);
        // A draft that is always right reads as one, whatever came before.
        for _ in 0..60 {
            c.observe_shape(2, 2);
        }
        assert!(c.estimate() > 0.99);
    }

    #[test]
    fn expected_yield_is_the_truncated_geometric_sum() {
        let mut c = controller();
        assert!((c.expected_yield(0, 2) - (0.8 + 0.64)).abs() < 1e-12);
        assert!((c.expected_yield(1, 2) - 0.8 * (0.8 + 0.64)).abs() < 1e-12);
        assert_eq!(c.expected_yield(3, 0), 0.0);
        for _ in 0..60 {
            c.observe_shape(0, 1);
        }
        assert!(c.expected_yield(0, 4) < 0.01);
    }
}
