//! Run tracking for asynchronous speculation (§IV-A1, §IV-D1).
//!
//! Every run dispatched into the target pipeline is tracked in a FIFO data
//! structure recording the speculation it carries — as a
//! [`pi_model::TokenTree`], the workspace's canonical speculation unit — its
//! token positions and its sequence-partition block.  Continuous
//! micro-batches may now be genuine trees, so invalidation is
//! *branch-granular*: when the target diverges from the hypothesis at a
//! position, [`RunTracker::invalidate_from`] cancels the in-flight runs that
//! contradict the newly accepted token, but a run whose tree holds a sibling
//! branch carrying that very token is **kept alive** — its rescuing branch
//! lies on the accepted path, so cancelling it would throw away work the
//! pipeline has already paid for.  Chains (width-1 trees) have no sibling
//! branches, so for them this reduces exactly to the old whole-run
//! invalidation.  Because both drivers preserve per-link ordering, run
//! results return to the head in dispatch order, so the head only ever
//! inspects the front of the FIFO.

use pi_model::{Batch, Pos, SeqId, Token, TokenTree};
use pi_spec::{RunId, RunKind};
use std::collections::VecDeque;

/// Bookkeeping for one in-flight run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunInfo {
    /// The run identifier carried by its pipeline messages.
    pub run_id: RunId,
    /// Speculative or non-speculative.
    pub kind: RunKind,
    /// The speculation the run evaluates, as the canonical tree unit.
    /// Non-speculative runs (prompt processing, pending tokens) carry a
    /// degenerate single-branch chain.
    pub tree: TokenTree,
    /// Position of the first token (the tree's depth-0 level).
    pub base_pos: Pos,
    /// First KV-cache sequence partition of the run's block (the canonical
    /// sequence for non-speculative runs).
    pub first_seq: SeqId,
    /// Number of pooled partitions in the block — one per tree leaf; zero
    /// for non-speculative runs, which write into the canonical sequence.
    pub n_seqs: usize,
    /// The leaf partition whose root-to-leaf path the head's hypothesis
    /// follows (initially the primary spine's leaf; re-pointed to the
    /// rescuing branch's leaf when an invalidation keeps the run alive).
    /// Later runs copy their shared prefix from it (§IV-C3).
    pub spine_seq: SeqId,
    /// Set when the run has been invalidated or made superfluous; its result
    /// is ignored and, for speculative runs, stages skip its evaluation.
    pub cancelled: bool,
}

impl RunInfo {
    /// Convenience constructor for a linear (chain-shaped) run writing into
    /// a single sequence partition.
    pub fn chain(
        run_id: RunId,
        kind: RunKind,
        tokens: &[Token],
        base_pos: Pos,
        seq: SeqId,
    ) -> Self {
        Self {
            run_id,
            kind,
            tree: TokenTree::chain_of(tokens),
            base_pos,
            first_seq: seq,
            n_seqs: usize::from(kind == RunKind::Speculative),
            spine_seq: seq,
            cancelled: false,
        }
    }

    /// Constructor for a speculative tree run occupying the partition block
    /// `first_seq .. first_seq + tree.n_sequences()`.
    pub fn tree(run_id: RunId, tree: TokenTree, base_pos: Pos, first_seq: SeqId) -> Self {
        let n_seqs = tree.n_sequences();
        let spine_seq = tree
            .spine()
            .last()
            .map(|&leaf| tree.assign_sequences(first_seq)[leaf][0])
            .unwrap_or(first_seq);
        Self {
            run_id,
            kind: RunKind::Speculative,
            tree,
            base_pos,
            first_seq,
            n_seqs,
            spine_seq,
            cancelled: false,
        }
    }

    /// The batch the run evaluates: its tree linearised at `base_pos` over
    /// the run's partition block.
    pub fn batch(&self) -> Batch {
        self.tree.to_batch(self.base_pos, self.first_seq)
    }
}

/// Result of one [`RunTracker::invalidate_from`] pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Invalidation {
    /// Runs cancelled by the pass, in FIFO order.
    pub cancelled: Vec<RunId>,
    /// The run kept alive because a sibling branch of its tree carries the
    /// newly accepted token, if any.
    pub rescued: Option<RunId>,
}

/// FIFO of in-flight runs.
#[derive(Debug, Clone, Default)]
pub struct RunTracker {
    runs: VecDeque<RunInfo>,
}

impl RunTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of in-flight runs.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// Whether no runs are in flight.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Registers a newly dispatched run.
    pub fn push(&mut self, info: RunInfo) {
        self.runs.push_back(info);
    }

    /// Pops the front run, asserting it matches the returning `run_id` — a
    /// mismatch means pipeline ordering was violated.
    pub fn pop_expect(&mut self, run_id: RunId) -> RunInfo {
        let info = self
            .runs
            .pop_front()
            .unwrap_or_else(|| panic!("result for run {run_id} but no runs in flight"));
        assert_eq!(
            info.run_id, run_id,
            "pipeline ordering violated: expected run {}, got {}",
            info.run_id, run_id
        );
        info
    }

    /// Iterates over the in-flight runs, front (oldest) first.
    pub fn iter(&self) -> impl Iterator<Item = &RunInfo> {
        self.runs.iter()
    }

    /// Number of speculative runs currently in flight and not cancelled.
    pub fn active_speculative(&self) -> usize {
        self.runs
            .iter()
            .filter(|r| r.kind == RunKind::Speculative && !r.cancelled)
            .count()
    }

    /// Invalidation sweep after the target diverged from the hypothesis at
    /// `from_pos`: marks every non-cancelled speculative run starting at or
    /// after `from_pos` as cancelled, **except** — when `accepted` carries
    /// the target's true token for `from_pos` — a run based exactly at
    /// `from_pos` whose tree holds a *root-level sibling branch* with that
    /// token.  Such a run lies on the accepted path through its rescuing
    /// branch and is kept alive (branch-granular invalidation); its
    /// `spine_seq` is re-pointed at the rescuing branch's leaf partition so
    /// subsequent speculation shares the surviving prefix.
    ///
    /// Passing `accepted = None` reproduces whole-run invalidation (the
    /// `PipeInferConfig::whole_run_invalidation` ablation).  Chains are
    /// unaffected either way: a width-1 tree's only root *is* the rejected
    /// hypothesis token, so it can never match the accepted one.
    ///
    /// Non-speculative runs are never cancelled here: the paper keeps them
    /// running to completion so the canonical cache entries they produce stay
    /// valid (§IV-D3).
    pub fn invalidate_from(&mut self, from_pos: Pos, accepted: Option<Token>) -> Invalidation {
        let mut out = Invalidation::default();
        for run in self.runs.iter_mut() {
            if run.kind != RunKind::Speculative || run.cancelled || run.base_pos < from_pos {
                continue;
            }
            if run.base_pos == from_pos && out.rescued.is_none() {
                if let Some(tok) = accepted {
                    let rescue = run
                        .tree
                        .roots()
                        .into_iter()
                        .find(|&r| run.tree.nodes()[r].token == tok);
                    if let Some(root) = rescue {
                        // The rescuing branch survives; deeper speculation on
                        // it continues from its leaf partition.
                        let node_seqs = run.tree.assign_sequences(run.first_seq);
                        run.spine_seq = node_seqs[root][0];
                        out.rescued = Some(run.run_id);
                        continue;
                    }
                }
            }
            run.cancelled = true;
            out.cancelled.push(run.run_id);
        }
        out
    }

    /// The hypothesis-bearing leaf partition of the most recently dispatched
    /// non-cancelled speculative run, if any — new speculative runs copy
    /// their shared prefix from it (early cache-entry sharing, §IV-C3).
    pub fn latest_speculative_seq(&self) -> Option<SeqId> {
        self.runs
            .iter()
            .rev()
            .find(|r| r.kind == RunKind::Speculative && !r.cancelled)
            .map(|r| r.spine_seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(id: RunId, kind: RunKind, base: Pos, n: usize, seq: SeqId) -> RunInfo {
        let tokens: Vec<u32> = (0..n as u32).collect();
        RunInfo::chain(id, kind, &tokens, base, seq)
    }

    /// A two-branch tree: primary spine `10 → 11`, runner-up root `20`.
    fn hedged_tree() -> TokenTree {
        let mut t = TokenTree::new();
        let a = t.add(None, 10, 0.9);
        t.add(Some(a), 11, 0.8);
        t.add(None, 20, 0.4);
        t
    }

    #[test]
    fn fifo_order_is_enforced() {
        let mut t = RunTracker::new();
        t.push(run(1, RunKind::NonSpeculative, 10, 1, 0));
        t.push(run(2, RunKind::Speculative, 11, 2, 1));
        assert_eq!(t.len(), 2);
        let first = t.pop_expect(1);
        assert_eq!(first.run_id, 1);
        assert_eq!(first.n_seqs, 0, "non-speculative runs hold no partitions");
        let second = t.pop_expect(2);
        assert_eq!(second.first_seq, 1);
        assert_eq!(second.n_seqs, 1);
        assert!(t.is_empty());
    }

    #[test]
    #[should_panic]
    fn out_of_order_result_panics() {
        let mut t = RunTracker::new();
        t.push(run(1, RunKind::NonSpeculative, 10, 1, 0));
        t.push(run(2, RunKind::Speculative, 11, 2, 1));
        let _ = t.pop_expect(2);
    }

    #[test]
    fn invalidation_only_hits_speculative_runs_past_the_cutoff() {
        let mut t = RunTracker::new();
        t.push(run(1, RunKind::NonSpeculative, 9, 1, 0));
        t.push(run(2, RunKind::Speculative, 10, 2, 1));
        t.push(run(3, RunKind::Speculative, 12, 2, 2));
        let out = t.invalidate_from(12, None);
        assert_eq!(out.cancelled, vec![3]);
        assert_eq!(out.rescued, None);
        assert_eq!(t.active_speculative(), 1);
        // Cancelling again from an earlier point also hits run 2 but not the
        // already-cancelled run 3 or the non-speculative run 1.
        let again = t.invalidate_from(0, None);
        assert_eq!(again.cancelled, vec![2]);
    }

    #[test]
    fn chains_are_never_rescued() {
        // A chain's only root is the rejected hypothesis token, so passing
        // the accepted token changes nothing — the old whole-run behavior.
        let mut t = RunTracker::new();
        t.push(run(2, RunKind::Speculative, 10, 2, 1));
        t.push(run(3, RunKind::Speculative, 12, 2, 2));
        let out = t.invalidate_from(10, Some(99));
        assert_eq!(out.cancelled, vec![2, 3]);
        assert_eq!(out.rescued, None);
    }

    #[test]
    fn sibling_branch_on_the_accepted_path_is_kept_alive() {
        let mut t = RunTracker::new();
        t.push(RunInfo::tree(5, hedged_tree(), 10, 1));
        t.push(run(6, RunKind::Speculative, 12, 2, 3));
        // The target chose 20 at position 10: the spine (10 → 11) and every
        // later run die, but run 5's runner-up branch carries 20.
        let out = t.invalidate_from(10, Some(20));
        assert_eq!(out.cancelled, vec![6]);
        assert_eq!(out.rescued, Some(5));
        assert_eq!(t.active_speculative(), 1);
        // The surviving run's hypothesis leaf is the rescuing branch's
        // partition (leaf order: node 1 → seq 1, node 2 → seq 2).
        assert_eq!(t.latest_speculative_seq(), Some(2));
    }

    #[test]
    fn rescue_requires_the_accepted_token_and_exact_base() {
        // Wrong token: the hedged run dies with the rest.
        let mut t = RunTracker::new();
        t.push(RunInfo::tree(5, hedged_tree(), 10, 1));
        let out = t.invalidate_from(10, Some(77));
        assert_eq!(out.cancelled, vec![5]);
        assert_eq!(out.rescued, None);

        // Divergence *before* the run's base: the run descends from the
        // rejected hypothesis regardless of its branches.
        let mut t = RunTracker::new();
        t.push(RunInfo::tree(5, hedged_tree(), 10, 1));
        let out = t.invalidate_from(9, Some(20));
        assert_eq!(out.cancelled, vec![5]);
        assert_eq!(out.rescued, None);

        // Whole-run mode ignores branches entirely.
        let mut t = RunTracker::new();
        t.push(RunInfo::tree(5, hedged_tree(), 10, 1));
        let out = t.invalidate_from(10, None);
        assert_eq!(out.cancelled, vec![5]);
    }

    #[test]
    fn latest_speculative_seq_tracks_dispatch_order() {
        let mut t = RunTracker::new();
        assert_eq!(t.latest_speculative_seq(), None);
        t.push(run(1, RunKind::NonSpeculative, 5, 1, 0));
        assert_eq!(t.latest_speculative_seq(), None);
        t.push(run(2, RunKind::Speculative, 6, 2, 3));
        t.push(run(3, RunKind::Speculative, 8, 2, 7));
        assert_eq!(t.latest_speculative_seq(), Some(7));
        t.invalidate_from(8, None);
        assert_eq!(t.latest_speculative_seq(), Some(3));
        // A 4-node tree spanning 2 positions (two branches of depth 2) holds
        // one partition per leaf; its spine is a → a's child (node 2, the
        // first leaf → the block's first partition).
        let mut tree = TokenTree::new();
        let a = tree.add(None, 1, 0.9);
        let b = tree.add(None, 2, 0.5);
        tree.add(Some(a), 3, 0.8);
        tree.add(Some(b), 4, 0.4);
        let info = RunInfo::tree(4, tree, 10, 9);
        assert_eq!(info.n_seqs, 2);
        assert_eq!(info.spine_seq, 9);
        t.push(info);
        assert_eq!(t.latest_speculative_seq(), Some(9));
    }
}
