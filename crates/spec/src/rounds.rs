//! The synchronous-round state machine: [`SyncRounds`].
//!
//! The paper's two baselines — pipeline-parallel iterative and
//! SpecInfer-style speculative inference — and tree speculation are one
//! protocol: one run in flight per request, `[pending] ++ tree` verified
//! greedily, rejected KV cells rolled back.  Iterative decoding drafts the
//! empty tree, chain speculation a one-branch tree and tree speculation a
//! branching one, and every round is built and verified by one path.
//! `SyncRounds` is that protocol for one request, with no driver in it:
//! [`SyncRounds::next_round`] says what to evaluate next and which cache
//! operations must precede it, [`SyncRounds::absorb`] takes the target's
//! greedy tokens for that batch and says which cache operation must follow.
//! It never applies an operation, charges a cost or reads a clock itself, so
//! its two drivers — the cluster head (`SyncHead`) and the cross-request
//! step loop ([`StepSession`](crate::session::StepSession)) — each keep
//! their own charge order around the same decisions.
//!
//! The only thing the profile decides besides the draft's shape is where a
//! round's KV entries go.  The chain (and non-speculative) profile writes
//! in place on the canonical sequence 0 and removes a rejected tail with a
//! `SeqRm`; the tree profile gives every branch its own sequence partition,
//! seeded with `SeqCp`s of the context, and keeps only the accepted path
//! with a `BranchCommit` (or drops every branch with a `BranchRollback`).

use crate::deploy::StepProfile;
use crate::drafter::Drafter;
use crate::engine::HeadEngine;
use crate::message::{ActivationPayload, CacheOp, RunKind, TreeTopology};
use crate::tree::{spine_prefix_len, AdaptiveShape};
use crate::verify::verify_tree;
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

/// One micro-batch a request wants evaluated: the prompt suffix, or the
/// pending token followed by the round's drafted tree (empty without a
/// drafter or when it proposed nothing, one branch for a chain).
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
    /// The drafted tree; the batch is `[pending] ++ tree`.
    tree: TokenTree,
    /// Batch-index parent of every entry: each entry's greedy token is
    /// conditioned on its root-to-node path (`HeadEngine::finalize`).
    parents: Vec<Option<usize>>,
    /// Sequence set of every tree node.
    node_seqs: Vec<Vec<SeqId>>,
    /// Branch partitions the tree occupies from `FIRST_TREE_SEQ` on; 0 when
    /// it is written in place on sequence 0.
    n_branches: usize,
}

impl Round {
    /// The parent links a worker needs to rebuild the attention mask of a
    /// round written into branch partitions; `None` for one written in
    /// place.
    pub fn topology(&self) -> Option<TreeTopology> {
        (self.n_branches > 0).then(|| TreeTopology {
            parents: self.parents.iter().map(|p| p.map(|i| i as u32)).collect(),
        })
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
        engine.finalize(&self.batch, payload, context, &self.parents)
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
            return Round {
                batch: Batch::prompt(suffix, base, 0),
                kind: RunKind::NonSpeculative,
                pre_ops: Vec::new(),
                draft_cost: 0.0,
                tree: TokenTree::new(),
                parents: TokenTree::chain_of(suffix).parents(),
                node_seqs: Vec::new(),
                n_branches: 0,
            };
        }
        let (kind, (width, depth)) = match self.profile {
            StepProfile::NonSpeculative => (RunKind::NonSpeculative, (1, 0)),
            StepProfile::Chain => (RunKind::Speculative, (1, self.config.max_draft)),
            StepProfile::Tree(_) => {
                let shape = self.shape.as_ref().expect("tree profile has a controller");
                let shape = shape.shape();
                self.record.tree_shapes.push(shape);
                (RunKind::Speculative, shape)
            }
        };
        let (tree, draft_cost) = match &mut self.drafter {
            Some(drafter) if depth > 0 => drafter.draft_tree(
                &self.context,
                &[self.pending],
                width,
                depth,
                self.config.confidence_cutoff,
            ),
            _ => (TokenTree::new(), 0.0),
        };
        self.record.drafted += tree.len();
        if self.shape.is_some() {
            self.record.tree_rounds += 1;
            self.record.tree_nodes += tree.len();
        }

        // KV placement, the one decision left to the profile: a tree's
        // branches each get a sequence partition, a chain is written in
        // place on the canonical sequence.
        let (node_seqs, n_branches) = if self.shape.is_some() {
            (tree.assign_sequences(FIRST_TREE_SEQ), tree.n_sequences())
        } else {
            (vec![vec![0]; tree.len()], 0)
        };
        let branch_seqs = (0..n_branches as SeqId).map(|branch| FIRST_TREE_SEQ + branch);

        // Every branch sequence receives the canonical context prefix before
        // any tree cell is allocated, so branch tokens can attend to it.
        let pre_ops = branch_seqs
            .clone()
            .map(|dst| CacheOp::SeqCp {
                src: 0,
                dst,
                p0: 0,
                p1: Pos::MAX,
            })
            .collect();

        // The pending token belongs to the canonical sequence *and* to every
        // branch (it is their shared parent); tree nodes carry the sequence
        // sets that encode the tree attention mask.
        let mut batch = Batch::new();
        batch.push(
            self.pending,
            base,
            std::iter::once(0).chain(branch_seqs).collect(),
            true,
        );
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
            kind,
            pre_ops,
            draft_cost,
            tree,
            parents,
            node_seqs,
            n_branches,
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
    /// `[pending] ++ tree`.
    fn verify(&mut self, round: Round, greedy: &[Token], now: f64) -> Option<CacheOp> {
        let base = self.context.len() as Pos;
        let tree = &round.tree;
        let outcome = verify_tree(tree, greedy);
        let n_accepted = outcome.n_accepted();
        if let Some(shape) = &mut self.shape {
            self.record.tree_accepted_path += n_accepted;
            // The acceptance estimate tracks the *primary* branch: a round
            // rescued by a runner-up still rejected the primary candidate,
            // and must count as such or the estimator drifts optimistic and
            // the shape oscillates back to a pure chain.
            let spine_accepted = spine_prefix_len(tree, &outcome.accepted_path);
            self.total_accepted += spine_accepted;
            if spine_accepted < tree.span() {
                self.total_rejections += 1;
            }
            shape.observe(spine_accepted, tree.span());
        }
        // Keep only the accepted path in every stage's KV cache.
        let op = if round.n_branches == 0 {
            (n_accepted < tree.len()).then(|| CacheOp::SeqRm {
                seq: 0,
                p0: base + 1 + n_accepted as Pos,
                p1: Pos::MAX,
            })
        } else {
            let n_seqs = round.n_branches as u32;
            Some(match outcome.accepted_path.last() {
                Some(&deepest) => CacheOp::BranchCommit {
                    dst: 0,
                    path: round.node_seqs[deepest][0],
                    first: FIRST_TREE_SEQ,
                    n_seqs,
                    p0: base + 1,
                    p1: base + 1 + n_accepted as Pos,
                },
                None => CacheOp::BranchRollback {
                    first: FIRST_TREE_SEQ,
                    n_seqs,
                },
            })
        };
        self.record.accepted_drafts += n_accepted;

        // The pending token and the accepted drafts are now evaluated
        // context; accepted drafts plus the new pending token are the newly
        // generated tokens.
        self.context.push(self.pending);
        for tok in outcome.accepted {
            self.context.push(tok);
            self.record.tokens.push(tok);
            self.record.accept_times.push(now);
        }
        self.record.tokens.push(outcome.pending);
        self.record.accept_times.push(now);
        self.pending = outcome.pending;
        op
    }
}
