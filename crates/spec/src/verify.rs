//! Greedy token-tree verification.
//!
//! The paper adopts SpecInfer's verification algorithm; under greedy sampling
//! (which the whole evaluation uses, so that all strategies produce identical
//! output) it reduces to longest-prefix matching of the drafted chain against
//! the target model's greedy continuation, followed by one "free" token —
//! either the correction at the first mismatch or the bonus token after a
//! fully accepted chain.

use pi_model::{Token, TokenTree, TreeNodeId};

/// Outcome of verifying one drafted chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyOutcome {
    /// Draft tokens accepted (a prefix of the drafted chain).
    pub accepted: Vec<Token>,
    /// The new pending token: the target's correction at the first mismatch,
    /// or the bonus continuation if every draft token was accepted.  It is
    /// guaranteed correct (it is the target's own greedy choice) but has not
    /// been evaluated by the target pipeline yet.
    pub pending: Token,
}

impl VerifyOutcome {
    /// Number of accepted draft tokens.
    pub fn n_accepted(&self) -> usize {
        self.accepted.len()
    }

    /// Total new tokens produced by the verification (accepted drafts plus
    /// the pending token).
    pub fn n_generated(&self) -> usize {
        self.accepted.len() + 1
    }
}

/// Verifies a drafted chain against the target's greedy continuations.
///
/// * `draft` — the drafted tokens `d₁ … d_k`.
/// * `truth` — the target's greedy token *after* each evaluated batch entry:
///   `truth[0]` is the target's choice for the position of `d₁` (i.e. the
///   token following the pending token), `truth[i]` the choice following
///   `d_i`.  Must therefore have length `draft.len() + 1`.
///
/// Panics if `truth` is shorter than `draft.len() + 1`.
pub fn verify_greedy(draft: &[Token], truth: &[Token]) -> VerifyOutcome {
    assert!(
        truth.len() > draft.len(),
        "need {} truth tokens, got {}",
        draft.len() + 1,
        truth.len()
    );
    let mut accepted = Vec::with_capacity(draft.len());
    let mut expected = truth[0];
    for (i, &d) in draft.iter().enumerate() {
        if d == expected {
            accepted.push(d);
            expected = truth[i + 1];
        } else {
            break;
        }
    }
    VerifyOutcome {
        accepted,
        pending: expected,
    }
}

/// Outcome of verifying one speculation tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeVerifyOutcome {
    /// Node ids of the accepted root-to-leaf path, in depth order.
    pub accepted_path: Vec<TreeNodeId>,
    /// Tokens along the accepted path (same length as `accepted_path`).
    pub accepted: Vec<Token>,
    /// The new pending token: the target's own greedy choice after the
    /// deepest accepted node (or at the tree's root position when no branch
    /// matched).  Known-correct but not yet evaluated by the pipeline.
    pub pending: Token,
}

impl TreeVerifyOutcome {
    /// Number of accepted tree nodes.
    pub fn n_accepted(&self) -> usize {
        self.accepted.len()
    }

    /// Total new tokens produced by the verification (accepted path plus the
    /// pending token).
    pub fn n_generated(&self) -> usize {
        self.accepted.len() + 1
    }
}

/// Verifies a speculation tree against the target's greedy continuations,
/// walking the deepest accepted root-to-leaf path.
///
/// * `tree` — the speculated token tree.
/// * `truth` — the target's greedy token after each verified position:
///   `truth[0]` is the target's choice at the tree's root position (i.e. the
///   token following the pending token), `truth[1 + id]` its choice after
///   node `id`'s root-to-node path.  Must therefore have length
///   `tree.len() + 1`; this is exactly the per-entry output of
///   `HeadEngine::finalize_tree` over a `[pending] ++ tree` batch.
///
/// At every level at most one child can match the target's (deterministic
/// greedy) choice; if several siblings carry the same token the first in
/// node-id order wins, which is also the branch whose KV entries are kept.
/// For a single-branch tree this reduces exactly to [`verify_greedy`].
///
/// Panics if `truth` is shorter than `tree.len() + 1`.
pub fn verify_tree(tree: &TokenTree, truth: &[Token]) -> TreeVerifyOutcome {
    assert!(
        truth.len() > tree.len(),
        "need {} truth tokens, got {}",
        tree.len() + 1,
        truth.len()
    );
    let nodes = tree.nodes();
    let mut accepted_path = Vec::new();
    let mut accepted = Vec::new();
    let mut expected = truth[0];
    let mut level: Vec<TreeNodeId> = tree.roots();
    while let Some(&hit) = level.iter().find(|&&id| nodes[id].token == expected) {
        accepted_path.push(hit);
        accepted.push(expected);
        expected = truth[1 + hit];
        level = nodes[hit].children.clone();
    }
    TreeVerifyOutcome {
        accepted_path,
        accepted,
        pending: expected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn all_accepted_returns_bonus_token() {
        let out = verify_greedy(&[5, 6, 7], &[5, 6, 7, 8]);
        assert_eq!(out.accepted, vec![5, 6, 7]);
        assert_eq!(out.pending, 8);
        assert_eq!(out.n_generated(), 4);
    }

    #[test]
    fn first_token_mismatch_yields_correction_only() {
        let out = verify_greedy(&[5, 6, 7], &[9, 1, 2, 3]);
        assert!(out.accepted.is_empty());
        assert_eq!(out.pending, 9);
        assert_eq!(out.n_generated(), 1);
    }

    #[test]
    fn partial_acceptance_stops_at_first_mismatch() {
        let out = verify_greedy(&[5, 6, 7, 8], &[5, 6, 99, 100, 101]);
        assert_eq!(out.accepted, vec![5, 6]);
        assert_eq!(out.pending, 99);
    }

    #[test]
    fn empty_draft_only_produces_pending() {
        let out = verify_greedy(&[], &[42]);
        assert!(out.accepted.is_empty());
        assert_eq!(out.pending, 42);
    }

    #[test]
    #[should_panic]
    fn short_truth_is_rejected() {
        let _ = verify_greedy(&[1, 2], &[1, 2]);
    }

    /// Builds the tree:
    /// ```text
    ///      a(10)   b(20)
    ///        |
    ///      c(11)
    ///        |
    ///      d(12)
    /// ```
    fn two_root_tree() -> TokenTree {
        let mut t = TokenTree::new();
        let a = t.add(None, 10, 0.9);
        let _b = t.add(None, 20, 0.4);
        let c = t.add(Some(a), 11, 0.8);
        let _d = t.add(Some(c), 12, 0.7);
        t
    }

    #[test]
    fn tree_accepts_deepest_matching_path() {
        let t = two_root_tree();
        // truth is indexed [root] ++ [after node id]: target chooses 10
        // (root), then 11 (after node 0), then 99 (after node 2, rejecting
        // d's 12).
        let out = verify_tree(&t, &[10, 11, 0, 99, 0]);
        assert_eq!(out.accepted_path, vec![0, 2]);
        assert_eq!(out.accepted, vec![10, 11]);
        assert_eq!(out.pending, 99);
        assert_eq!(out.n_generated(), 3);
    }

    #[test]
    fn tree_falls_back_to_sibling_branch() {
        let t = two_root_tree();
        // Target chooses 20: the second root is the accepted branch.
        let out = verify_tree(&t, &[20, 0, 0, 0, 77]);
        assert_eq!(out.accepted_path, vec![1]);
        assert_eq!(out.accepted, vec![20]);
        // The pending token is the target's choice after node 1 (= truth[2]).
        assert_eq!(out.pending, 0);
    }

    #[test]
    fn tree_with_no_matching_root_yields_correction_only() {
        let t = two_root_tree();
        let out = verify_tree(&t, &[55, 1, 2, 3, 4]);
        assert!(out.accepted_path.is_empty());
        assert_eq!(out.pending, 55);
        assert_eq!(out.n_generated(), 1);
    }

    #[test]
    fn empty_tree_only_produces_pending() {
        let out = verify_tree(&TokenTree::new(), &[42]);
        assert!(out.accepted.is_empty());
        assert_eq!(out.pending, 42);
    }

    #[test]
    #[should_panic]
    fn short_tree_truth_is_rejected() {
        let t = two_root_tree();
        let _ = verify_tree(&t, &[10, 11]);
    }

    proptest! {
        /// A degenerate single-branch tree must verify byte-for-byte like the
        /// linear chain it encodes — the invariant that lets chains be
        /// "just" trees everywhere.
        #[test]
        fn prop_chain_tree_matches_verify_greedy(
            truth in proptest::collection::vec(0u32..50, 1..12),
            draft_noise in proptest::collection::vec(0u32..50, 0..11),
        ) {
            let k = draft_noise.len().min(truth.len().saturating_sub(1));
            let draft: Vec<u32> = (0..k).map(|i| {
                if draft_noise[i] % 2 == 0 { truth[i] } else { truth[i].wrapping_add(1) }
            }).collect();
            let pairs: Vec<(u32, f32)> = draft.iter().map(|&t| (t, 0.5)).collect();
            let tree = TokenTree::chain(&pairs);
            let linear = verify_greedy(&draft, &truth);
            let treed = verify_tree(&tree, &truth);
            prop_assert_eq!(&treed.accepted, &linear.accepted);
            prop_assert_eq!(treed.pending, linear.pending);
            // The accepted path is the chain prefix 0..n.
            prop_assert_eq!(
                treed.accepted_path,
                (0..linear.accepted.len()).collect::<Vec<_>>()
            );
        }

        /// The verified output (accepted ++ pending) must always equal the
        /// target's own greedy continuation prefix — i.e. speculative
        /// verification never changes the generated text.
        #[test]
        fn prop_output_matches_target_continuation(
            truth in proptest::collection::vec(0u32..50, 1..10),
            draft_noise in proptest::collection::vec(0u32..50, 0..9),
        ) {
            let k = draft_noise.len().min(truth.len().saturating_sub(1));
            let draft: Vec<u32> = (0..k).map(|i| {
                // Half the time the draft matches the truth, half the time not.
                if draft_noise[i] % 2 == 0 { truth[i] } else { truth[i].wrapping_add(1) }
            }).collect();
            let out = verify_greedy(&draft, &truth);
            // accepted ++ [pending] must be a prefix of the target's own
            // continuation (truth shifted appropriately).
            let mut produced = out.accepted.clone();
            produced.push(out.pending);
            for (i, tok) in produced.iter().enumerate() {
                prop_assert_eq!(*tok, truth[i]);
            }
            prop_assert!(produced.len() <= truth.len());
        }
    }
}
