//! The synchronous-round state machine: [`SyncRounds`].
//!
//! The paper's two baselines — pipeline-parallel iterative and
//! SpecInfer-style speculative inference — and tree speculation are one
//! protocol: one run in flight per request, `[pending] ++ draft` verified
//! greedily, rejected KV cells rolled back.  Iterative decoding is the empty
//! draft and tree speculation the branching one.  `SyncRounds` is that
//! protocol for one request, with no driver in it: [`SyncRounds::next_round`]
//! says what to evaluate next and which cache operations must precede it,
//! [`SyncRounds::absorb`] takes the target's greedy tokens for that batch
//! and says which cache operation must follow.  It never applies an
//! operation, charges a cost or reads a clock itself, so its two drivers —
//! the cluster head (`SyncHead`) and the cross-request step loop
//! ([`StepSession`](crate::session::StepSession)) — each keep their own
//! charge order around the same decisions.

use crate::deploy::StepProfile;
use crate::drafter::Drafter;
use crate::engine::HeadEngine;
use crate::message::{ActivationPayload, CacheOp, RunKind};
use crate::tree::{spine_prefix_len, AdaptiveShape};
use crate::verify::{verify_greedy, verify_tree};
use crate::{GenConfig, GenerationRecord};
use pi_model::{Batch, Pos, SeqId, Token, TokenTree};

/// First KV sequence id used for tree branches (sequence 0 stays canonical).
const FIRST_TREE_SEQ: SeqId = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Prompt,
    Decoding,
    Done,
}

/// The speculation tree of one round, kept from batch construction to
/// verification.
struct TreeDraft {
    /// The speculated tree (empty when the drafter proposed nothing and only
    /// the pending token is evaluated).
    tree: TokenTree,
    /// Batch-index parent links of `[pending] ++ tree`.
    parents: Vec<Option<usize>>,
    /// Per-node sequence sets from `TokenTree::assign_sequences`.
    node_seqs: Vec<Vec<SeqId>>,
    /// Number of leaf sequences the tree occupies.
    n_leaves: usize,
}

/// One micro-batch a request wants evaluated: the prompt suffix, the single
/// pending token, `[pending] ++ chain` or `[pending] ++ tree`.
pub(crate) struct Round {
    /// The batch, parents before children, in lane 0.
    pub batch: Batch,
    /// Whether the batch carries speculated tokens.
    pub kind: RunKind,
    /// Cache operations every stage must apply before it evaluates `batch`,
    /// in order (the `SeqCp`s seeding each tree branch with the context).
    pub pre_ops: Vec<CacheOp>,
    /// What the draft model charged for this round's proposal, in seconds.
    pub draft_cost: f64,
    tree: Option<TreeDraft>,
}

impl Round {
    fn linear(batch: Batch, kind: RunKind, draft_cost: f64) -> Self {
        Self {
            batch,
            kind,
            pre_ops: Vec::new(),
            draft_cost,
            tree: None,
        }
    }

    /// The batch-index parent of every entry when this round verifies a
    /// tree — each entry's greedy token is then conditioned on its
    /// root-to-node path (`HeadEngine::finalize_tree`), not on the entries
    /// before it.  `None` for prompt, single-token and chain rounds.
    pub fn parents(&self) -> Option<&[Option<usize>]> {
        self.tree.as_ref().map(|t| t.parents.as_slice())
    }

    /// The target's greedy token after every batch entry, from the final
    /// stage's `payload`, and what computing them cost.  `context` is the
    /// accepted sequence preceding the batch ([`SyncRounds::context`]).
    pub fn finalize(
        &self,
        engine: &mut dyn HeadEngine,
        payload: &ActivationPayload,
        context: &[Token],
    ) -> (Vec<Token>, f64) {
        match self.parents() {
            Some(parents) => engine.finalize_tree(&self.batch, payload, context, parents),
            None => engine.finalize(&self.batch, payload, context),
        }
    }
}

/// One request's synchronous draft-verify loop — see the module docs.
pub(crate) struct SyncRounds {
    config: GenConfig,
    profile: StepProfile,
    drafter: Option<Box<dyn Drafter>>,
    /// Adaptive width/depth controller (tree profile only).
    shape: Option<AdaptiveShape>,
    phase: Phase,
    /// Evaluated, accepted tokens (prompt included).
    context: Vec<Token>,
    /// Leading prompt tokens already resident in every stage's KV cache (via
    /// a shared page pool); prefill covers only the remaining suffix.
    prompt_cached: usize,
    /// Sampled but not yet evaluated token.
    pending: Token,
    record: GenerationRecord,
    /// Lifetime accepted tokens and rejection events on the primary branch
    /// (same geometric estimator as [`AdaptiveShape`]).
    total_accepted: usize,
    total_rejections: usize,
}

impl SyncRounds {
    /// Starts a request.  `prompt_cached` leading prompt tokens are already
    /// in every stage's KV cache (clamped so the last prompt token is always
    /// evaluated live: it produces the first logits); `prior` seeds the tree
    /// profile's [`AdaptiveShape`] and is ignored by the others.
    pub fn new(
        config: GenConfig,
        profile: StepProfile,
        drafter: Option<Box<dyn Drafter>>,
        prompt_cached: usize,
        prior: f64,
    ) -> Self {
        assert!(!config.prompt.is_empty(), "prompt must not be empty");
        let prompt_cached = prompt_cached.min(config.prompt.len() - 1);
        let mut context = Vec::with_capacity(config.prompt.len() + config.n_generate);
        context.extend_from_slice(&config.prompt[..prompt_cached]);
        let shape = match profile {
            StepProfile::Tree(tree) => Some(AdaptiveShape::new(tree, config.max_draft, prior)),
            _ => None,
        };
        Self {
            config,
            profile,
            drafter,
            shape,
            phase: Phase::Prompt,
            context,
            prompt_cached,
            pending: 0,
            record: GenerationRecord::default(),
            total_accepted: 0,
            total_rejections: 0,
        }
    }

    /// Whether the prompt round has not been absorbed yet.
    pub fn in_prompt(&self) -> bool {
        self.phase == Phase::Prompt
    }

    /// Whether `n_generate` tokens are out.
    pub fn is_done(&self) -> bool {
        self.phase == Phase::Done
    }

    /// Evaluated, accepted tokens (prompt included): what a simulated head
    /// engine conditions the oracle on when it finalises the next round.
    pub fn context(&self) -> &[Token] {
        &self.context
    }

    /// The record accumulated so far.
    pub fn record(&self) -> &GenerationRecord {
        &self.record
    }

    /// Consumes the state machine, returning its record.
    pub fn into_record(self) -> GenerationRecord {
        self.record
    }

    /// Lets the draft model evaluate the prompt ahead of the first draft;
    /// returns what that cost (0 without a drafter).
    pub fn prime(&mut self) -> f64 {
        match &mut self.drafter {
            Some(drafter) => drafter.prime(&self.config.prompt),
            None => 0.0,
        }
    }

    /// Fraction of primary-branch draft tokens accepted over the request's
    /// lifetime — what a tree strategy feeds back into its cross-request
    /// prior.  `None` before the first observation (and for every profile
    /// but the tree one).
    pub fn lifetime_acceptance(&self) -> Option<f64> {
        let observations = self.total_accepted + self.total_rejections;
        (observations > 0).then(|| self.total_accepted as f64 / observations as f64)
    }

    /// Drafts (per the profile) and builds the next micro-batch.  Must not
    /// be called once [`SyncRounds::is_done`], nor again before the previous
    /// round was [absorbed](SyncRounds::absorb).
    pub fn next_round(&mut self) -> Round {
        assert!(!self.is_done(), "next_round on a finished request");
        self.record.runs_launched += 1;
        let base = self.context.len() as Pos;
        if self.phase == Phase::Prompt {
            let suffix = &self.config.prompt[self.prompt_cached..];
            return Round::linear(Batch::prompt(suffix, base, 0), RunKind::NonSpeculative, 0.0);
        }
        match self.profile {
            StepProfile::NonSpeculative => Round::linear(
                Batch::single(self.pending, base, 0),
                RunKind::NonSpeculative,
                0.0,
            ),
            StepProfile::Chain => {
                let drafter = self.drafter.as_mut().expect("chain profile has a drafter");
                let (chain, draft_cost) = drafter.draft(
                    &self.context,
                    &[self.pending],
                    self.config.max_draft,
                    self.config.confidence_cutoff,
                );
                self.record.drafted += chain.len();
                let mut batch = Batch::single(self.pending, base, 0);
                for (i, (tok, _conf)) in chain.iter().enumerate() {
                    batch.push(*tok, base + 1 + i as Pos, vec![0], true);
                }
                Round::linear(batch, RunKind::Speculative, draft_cost)
            }
            StepProfile::Tree(_) => {
                let shape = self.shape.as_ref().expect("tree profile has a controller");
                let (width, depth) = shape.shape();
                self.record.tree_shapes.push((width, depth));
                let drafter = self.drafter.as_mut().expect("tree profile has a drafter");
                let (tree, draft_cost) = drafter.draft_tree(
                    &self.context,
                    &[self.pending],
                    width,
                    depth,
                    self.config.confidence_cutoff,
                );
                self.record.tree_rounds += 1;
                self.record.drafted += tree.len();
                self.record.tree_nodes += tree.len();

                let node_seqs = tree.assign_sequences(FIRST_TREE_SEQ);
                let n_leaves = tree.n_sequences();
                let leaf_seqs = (0..n_leaves as SeqId).map(|leaf| FIRST_TREE_SEQ + leaf);

                // Every branch sequence receives the canonical context prefix
                // before any tree cell is allocated, so branch tokens can
                // attend to it.
                let pre_ops = leaf_seqs
                    .clone()
                    .map(|dst| CacheOp::SeqCp {
                        src: 0,
                        dst,
                        p0: 0,
                        p1: Pos::MAX,
                    })
                    .collect();

                // The pending token belongs to the canonical sequence *and*
                // to every branch (it is their shared parent); tree nodes
                // carry the sequence sets that encode the tree attention
                // mask.
                let mut batch = Batch::new();
                let mut pending_seqs = vec![0];
                pending_seqs.extend(leaf_seqs);
                batch.push(self.pending, base, pending_seqs, true);
                let mut parents: Vec<Option<usize>> = vec![None];
                for (id, node) in tree.nodes().iter().enumerate() {
                    batch.push(
                        node.token,
                        base + 1 + node.depth as Pos,
                        node_seqs[id].clone(),
                        true,
                    );
                    parents.push(Some(node.parent.map_or(0, |p| p + 1)));
                }
                Round {
                    batch,
                    kind: RunKind::Speculative,
                    pre_ops,
                    draft_cost,
                    tree: Some(TreeDraft {
                        tree,
                        parents,
                        node_seqs,
                        n_leaves,
                    }),
                }
            }
        }
    }

    /// Advances the request given `greedy`, the target's greedy token after
    /// every entry of `round.batch`, stamping the tokens this round produced
    /// (and the end of the request, if this round completes it) with `now`.
    /// Returns the cache operation every stage must apply before the next
    /// round: the `SeqRm` of a chain's rejected tail, or the
    /// `BranchCommit`/`BranchRollback` that keeps only a tree's accepted
    /// path.
    pub fn absorb(&mut self, round: Round, greedy: &[Token], now: f64) -> Option<CacheOp> {
        assert!(!self.is_done(), "absorb on a finished request");
        let op = if self.phase == Phase::Prompt {
            // The token sampled at the end of prompt processing is not
            // counted as a generated token (paper TTFT definition).
            self.record.prompt_done_at = now;
            self.pending = *greedy.last().expect("prompt batch is non-empty");
            self.context.extend(round.batch.tokens());
            self.phase = Phase::Decoding;
            None
        } else {
            self.verify(round, greedy, now)
        };
        if self.record.tokens.len() >= self.config.n_generate {
            self.record.finished_at = now;
            self.phase = Phase::Done;
        }
        op
    }

    /// The decoding half of [`SyncRounds::absorb`]: greedy verification of
    /// `[pending] ++ draft`.
    fn verify(&mut self, round: Round, greedy: &[Token], now: f64) -> Option<CacheOp> {
        let base = self.context.len() as Pos;
        let (accepted, pending, op) = match &round.tree {
            // Chain (and non-speculative, where the draft is empty).
            None => {
                let tokens = round.batch.tokens();
                let draft = &tokens[1..];
                let outcome = verify_greedy(draft, greedy);
                let n_accepted = outcome.n_accepted();
                let op = (n_accepted < draft.len()).then(|| CacheOp::SeqRm {
                    seq: 0,
                    p0: base + 1 + n_accepted as Pos,
                    p1: Pos::MAX,
                });
                (outcome.accepted, outcome.pending, op)
            }
            Some(draft) => {
                let outcome = verify_tree(&draft.tree, greedy);
                let n_accepted = outcome.n_accepted();
                self.record.tree_accepted_path += n_accepted;
                // The acceptance estimate tracks the *primary* branch: a
                // round rescued by a runner-up still rejected the primary
                // candidate, and must count as such or the estimator drifts
                // optimistic and the shape oscillates back to a pure chain.
                let spine_accepted = spine_prefix_len(&draft.tree, &outcome.accepted_path);
                self.total_accepted += spine_accepted;
                if spine_accepted < draft.tree.span() {
                    self.total_rejections += 1;
                }
                if let Some(shape) = &mut self.shape {
                    shape.observe(spine_accepted, draft.tree.span());
                }
                // Retain only the accepted path in every stage's KV cache.
                let n_seqs = draft.n_leaves as u32;
                let op = (n_seqs > 0).then(|| match outcome.accepted_path.last() {
                    Some(&deepest) => CacheOp::BranchCommit {
                        dst: 0,
                        path: draft.node_seqs[deepest][0],
                        first: FIRST_TREE_SEQ,
                        n_seqs,
                        p0: base + 1,
                        p1: base + 1 + n_accepted as Pos,
                    },
                    None => CacheOp::BranchRollback {
                        first: FIRST_TREE_SEQ,
                        n_seqs,
                    },
                });
                (outcome.accepted, outcome.pending, op)
            }
        };
        self.record.accepted_drafts += accepted.len();

        // The pending token and the accepted drafts are now evaluated
        // context; accepted drafts plus the new pending token are the newly
        // generated tokens.
        self.context.push(self.pending);
        for tok in accepted {
            self.context.push(tok);
            self.record.tokens.push(tok);
            self.record.accept_times.push(now);
        }
        self.record.tokens.push(pending);
        self.record.accept_times.push(now);
        self.pending = pending;
        op
    }
}
