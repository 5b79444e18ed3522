//! Property tests for the continuous-speculation controller's cutoff
//! dynamics (§IV-B2) and for branch-granular invalidation.
//!
//! The reactive cutoff gradient is the paper's throttle on runaway
//! speculation: recovery must monotonically *raise* the cutoff while the
//! head runs ahead, decay must *lower* it when the system idles, an accepted
//! run must reset it to its base value, and under arbitrary interleavings of
//! those events the cutoff must stay inside its clamp band — in particular,
//! every cutoff actually *sent with a draft request* (i.e. while
//! `should_request` still returns `true`) lies within `[0, 1]`.
//!
//! Branch-granular invalidation is pinned to its safety property: a sweep
//! never cancels a run whose sibling branch lies on the accepted path, and
//! without a token to rescue (or for chain runs) it reduces to whole-run
//! invalidation exactly.

use pipeinfer_core::{PipeInferConfig, RunInfo, RunTracker, SpeculationController};
use proptest::prelude::*;

use pi_model::TokenTree;

/// The controller's clamp band: decay floors at 0.05, recovery ceilings at
/// 1.5 (cutoffs above 1.0 are the "stop speculating" sentinel that
/// `should_request` refuses to send).
const FLOOR: f32 = 0.05;
const CEILING: f32 = 1.5;

fn apply_event(c: &mut SpeculationController, event: u32) {
    match event % 3 {
        0 => c.on_iteration(),
        1 => c.on_accept(),
        _ => c.on_failure_while_idle(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Recovery monotonically raises the cutoff while speculation runs
    /// ahead; decay monotonically lowers it when idle; an accepted run
    /// resets it to the base value exactly.
    #[test]
    fn prop_cutoff_gradient_directions(
        base in 0.05f32..1.0,
        n_events in 1usize..40,
    ) {
        let mut c = SpeculationController::new(&PipeInferConfig::default(), base);
        // Recovery: never decreasing.
        let mut prev = c.cutoff();
        for _ in 0..n_events {
            c.on_iteration();
            prop_assert!(c.cutoff() >= prev, "recovery lowered the cutoff");
            prev = c.cutoff();
        }
        // Reset on accepted run.
        c.on_accept();
        prop_assert!((c.cutoff() - base).abs() < 1e-6);
        // Decay: never increasing.
        let mut prev = c.cutoff();
        for _ in 0..n_events {
            c.on_failure_while_idle();
            prop_assert!(c.cutoff() <= prev, "decay raised the cutoff");
            prev = c.cutoff();
        }
    }

    /// Under arbitrary event sequences the cutoff stays within the clamp
    /// band, and any cutoff the controller is still willing to send with a
    /// draft request lies within [0, 1].
    #[test]
    fn prop_cutoff_bounded_under_arbitrary_events(
        base in 0.05f32..1.0,
        events in proptest::collection::vec(0u32..3, 0..64),
    ) {
        let cfg = PipeInferConfig::default();
        let mut c = SpeculationController::new(&cfg, base);
        for &e in &events {
            apply_event(&mut c, e);
            let cut = c.cutoff();
            prop_assert!(cut.is_finite());
            prop_assert!((FLOOR..=CEILING).contains(&cut), "cutoff {cut} escaped the band");
            // The request gate: a cutoff above 1.0 means "stop" — so every
            // cutoff that would actually accompany a request is in [0, 1].
            if c.should_request(0, 0, 8) {
                prop_assert!((0.0..=1.0).contains(&cut), "requestable cutoff {cut} outside [0,1]");
            } else if c.batch_size() == cfg.micro_batch {
                // In continuous mode with free partitions and no backlog the
                // only reason to refuse is the sentinel.
                prop_assert!(cut > 1.0);
            }
        }
    }

    /// Whatever happened before, an accepted run restores the base cutoff —
    /// the gradient carries no hidden state across resets.
    #[test]
    fn prop_accept_always_resets(
        base in 0.05f32..1.0,
        events in proptest::collection::vec(0u32..3, 0..40),
    ) {
        let mut c = SpeculationController::new(&PipeInferConfig::default(), base);
        for &e in &events {
            apply_event(&mut c, e);
        }
        c.on_accept();
        prop_assert!((c.cutoff() - base).abs() < 1e-6);
    }

    /// The tree-shape model never exceeds the micro-batch node budget or the
    /// configured width cap, for any observation history.
    #[test]
    fn prop_shape_stays_inside_the_budget(
        observations in proptest::collection::vec(0usize..6, 0..32),
        width_cap in 2usize..6,
        budget in 2usize..8,
    ) {
        let cfg = PipeInferConfig {
            micro_batch: budget,
            micro_width: width_cap,
            ..PipeInferConfig::default()
        };
        let mut c = SpeculationController::new(&cfg, 0.4);
        for &acc in &observations {
            let span = budget.min(acc.max(1));
            c.observe_shape(acc.min(span), span);
            let (w, d) = c.shape();
            prop_assert!(w >= 1 && d >= 1);
            prop_assert!(w <= width_cap, "width {w} over cap {width_cap}");
            prop_assert!(w + d - 1 <= budget, "shape {w}x{d} over budget {budget}");
        }
    }

    /// Branch-granular invalidation never cancels a run lying on the
    /// accepted path: if a run based at the divergence position holds a
    /// root-level branch carrying the accepted token, it survives the sweep;
    /// every other speculative run at or past the divergence is cancelled,
    /// and runs before it are untouched.
    #[test]
    fn prop_rescue_never_cancels_runs_on_the_accepted_path(
        bases in proptest::collection::vec(0u32..12, 1..8),
        widths in proptest::collection::vec(1usize..4, 1..8),
        cut_idx in 0usize..8,
        accepted_tok in 100u32..104,
        hit in 0u32..2,
    ) {
        // Build a FIFO of runs at strictly increasing bases; each run's
        // spine root is a token that never equals the accepted one, and
        // (when `hit == 1` and the run is hedged) one runner-up branch
        // carries the accepted token.
        let mut tracker = RunTracker::new();
        let mut base = 0i32;
        let n = bases.len().min(widths.len());
        let mut run_meta = Vec::new();
        for i in 0..n {
            base += 1 + bases[i] as i32 % 4;
            let width = widths[i];
            let mut tree = TokenTree::new();
            let root = tree.add(None, 10 + i as u32, 0.9);
            tree.add(Some(root), 50 + i as u32, 0.8);
            let mut carries = false;
            for w in 1..width {
                let tok = if hit == 1 && w == 1 {
                    carries = true;
                    accepted_tok
                } else {
                    200 + (i * 8 + w) as u32
                };
                tree.add(None, tok, 0.5);
            }
            tracker.push(RunInfo::tree(i as u64, tree, base, 1 + 4 * i as u32));
            run_meta.push((i as u64, base, carries));
        }
        let cut = run_meta[cut_idx % run_meta.len()].1;
        let outcome = tracker.invalidate_from(cut, Some(accepted_tok));
        for &(id, run_base, carries) in &run_meta {
            let run = tracker.iter().find(|r| r.run_id == id).unwrap();
            if run_base < cut {
                prop_assert!(!run.cancelled, "run {id} before the divergence was cancelled");
            } else if run_base == cut && carries {
                prop_assert!(!run.cancelled, "run {id} on the accepted path was cancelled");
                prop_assert_eq!(outcome.rescued, Some(id));
            } else {
                prop_assert!(run.cancelled, "run {id} off the accepted path survived");
            }
        }
        // Without a token to rescue, a sweep cancels everything at or past
        // the cut.
        let mut whole = RunTracker::new();
        let mut base = 0i32;
        for (i, &b) in bases.iter().take(n).enumerate() {
            base += 1 + b as i32 % 4;
            let mut tree = TokenTree::new();
            tree.add(None, 10 + i as u32, 0.9);
            tree.add(None, accepted_tok, 0.5);
            whole.push(RunInfo::tree(i as u64, tree, base, 1 + 2 * i as u32));
        }
        let out = whole.invalidate_from(cut, None);
        prop_assert_eq!(out.rescued, None);
        for run in whole.iter() {
            prop_assert_eq!(run.cancelled, run.base_pos >= cut);
        }
    }
}
