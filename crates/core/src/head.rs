//! The PipeInfer head rank.
//!
//! Following the paper's deployment (Fig. 3), the head rank hosts the
//! sampling/verification logic, while the target model is split across the
//! remaining ranks — the target pipeline is therefore one node shorter than
//! under iterative inference, which is why the paper sometimes measures
//! *lower* TTFT than the iterative baseline.  The speculative model runs
//! either on the head itself ([`DraftSource::Local`], the layout earlier PRs
//! used) or on the dedicated draft rank of Fig. 3
//! ([`DraftSource::Remote`]), which the head drives with
//! `DraftRequest`/`DraftResponse` transactions so drafting overlaps with
//! verification instead of stalling the head.  The head owns the whole
//! orchestration described in §IV:
//!
//! * it embeds each batch and hands it to the first target stage,
//! * it obtains speculative micro-batches — genuine width×depth *token
//!   trees* sized by the [`SpeculationController`]'s acceptance shape model,
//!   chains being the width-1 degenerate case — whenever probing finds no
//!   returned logits waiting (Asynchronous + Continuous Speculation),
//! * it dispatches speculative verification runs without waiting for earlier
//!   runs to complete, tracking them in a FIFO ([`RunTracker`]),
//! * it assigns each speculative run a contiguous block of private KV-cache
//!   sequence partitions (one per tree leaf) and pipelines the
//!   `BranchCommit`/`BranchRollback` commands that implement the
//!   multibuffering "buffer swap" (§IV-C) at branch granularity,
//! * it verifies returning runs with the SpecInfer greedy rule walking the
//!   deepest accepted branch, detects invalidated runs and back-propagates
//!   cancellation signals (§IV-D) — *branch-granularly*: a run whose sibling
//!   branch carries the newly accepted token is kept alive instead of
//!   cancelled with the rest.
//!
//! ## Differences from the paper's implementation
//!
//! Speculative runs here never overlap in token positions (each micro-batch
//! covers a fresh slice of the hypothesis), so the paper's "superfluous run"
//! case cannot arise — only invalidation triggers cancellation.  The paper's
//! mid-evaluation cancellation probing is approximated by checking the
//! cancellation set when a decode transaction arrives at a worker; a cancel
//! signal can therefore save an entire stage evaluation but not a fraction
//! of one.  Both simplifications are conservative (they can only understate
//! PipeInfer's benefit).

use crate::continuous::SpeculationController;
use crate::multibuffer::{SeqPartitionPool, CANONICAL_SEQ};
use crate::run_tracker::{RunInfo, RunTracker};
use crate::PipeInferConfig;
use pi_cluster::{trace_if, EventKind, NodeBehavior, NodeCtx, Rank, Tag};
use pi_model::{Batch, Pos, SeqId, Token, TokenTree, TreeNodeId};
use pi_spec::deploy::RecordHandle;
use pi_spec::message::tags;
use pi_spec::worker::record_kv_events;
use pi_spec::{
    ActivationPayload, CacheOp, Drafter, GenConfig, GenerationRecord, HeadEngine, PipeMsg,
    PipelineRoute, RunId, RunKind, TreeTopology,
};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::VecDeque;

/// Seed of the head's backoff-jitter source.  A fixed constant: the jitter
/// decorrelates retry times *within* a run while keeping every replay of the
/// same schedule bit-identical.
const BACKOFF_JITTER_SEED: u64 = 0x0070_695f_6865_6164; // "pi_head"

/// Cap on the backoff exponent (`base × 2^min(failures, 6)`), bounding the
/// longest retry wait regardless of how many failures accumulate.
const BACKOFF_MAX_EXP: u32 = 6;

/// How many times more consecutive refusals than timeouts it takes to fail
/// over: an empty response proves the draft rank alive, so abandoning it is
/// held to a much higher bar (`factor × (draft_max_retries + 1)` refusals)
/// than silence is.
const REFUSAL_FAILOVER_FACTOR: u32 = 4;

/// Where the head obtains its speculative micro-batches.
pub enum DraftSource {
    /// The draft model lives on the head and is invoked synchronously
    /// between probes (`DraftPlacement::HeadHosted`).
    Local(Box<dyn Drafter>),
    /// The draft model lives on a dedicated rank (the paper's Fig. 3,
    /// `DraftPlacement::DedicatedRank`); the head sends
    /// [`PipeMsg::DraftRequest`] transactions to it and dispatches the
    /// returned trees, cancelling stale hypotheses out-of-band.
    Remote(Rank),
}

/// A draft request awaiting its response from the dedicated draft rank.
#[derive(Debug, Clone, Copy)]
struct InflightDraft {
    id: u64,
    /// The confidence cutoff the request was issued with (drives the
    /// refusal backoff when the reply comes back empty).
    cutoff: f32,
    /// Time by which the response must have arrived; expiry counts as one
    /// consecutive draft failure (`PipeInferConfig::draft_deadline_s`).
    deadline: f64,
}

/// The PipeInfer head rank state machine.
pub struct PipeInferHead {
    route: PipelineRoute,
    engine: Box<dyn HeadEngine>,
    draft: DraftSource,
    gen_config: GenConfig,
    config: PipeInferConfig,
    controller: SpeculationController,
    pool: SeqPartitionPool,
    tracker: RunTracker,

    /// Accepted tokens (prompt included).  The last element may still be
    /// unevaluated (the pending token).
    accepted: Vec<Token>,
    /// Accepted tokens followed by the primary spine of every dispatched,
    /// unresolved speculative tree — the head's current best guess of the
    /// generation.
    hypothesis: Vec<Token>,
    /// The target's known-true token for position `accepted.len()`, once the
    /// run covering the last accepted token has returned.
    expected: Option<Token>,
    prompt_done: bool,
    /// Leading prompt tokens already resident in every stage's KV cache (via
    /// a shared page pool); prefill covers only the remaining suffix.
    prompt_cached: usize,
    /// Runs (of either kind) in flight at which the head stops speculating;
    /// unbounded unless [`PipeInferHead::with_run_budget`] set it.
    run_budget: usize,

    next_run_id: RunId,
    next_draft_id: u64,
    inflight_draft: Option<InflightDraft>,
    /// Set when the draft rank returned an empty draft: `(cutoff, hyp_len)`
    /// at refusal time.  No new request is sent until the cutoff drops below
    /// the refused one, the hypothesis changes, *or* the seeded retry
    /// backoff elapses — the remote analogue of the local path's "stop
    /// speculating until verification catches up", without which the head
    /// busy-loops request/empty-response round trips.  The time bound keeps
    /// a permanently-refusing drafter from stalling speculation forever: the
    /// refusals accumulate as draft failures and eventually fail over.
    draft_refused: Option<(f32, usize)>,
    /// The dedicated draft rank this head started with, if any — remembered
    /// across a failover so the (possibly only partitioned, not dead) rank
    /// still receives its shutdown signal.
    remote_rank: Option<Rank>,
    /// Local drafter held in reserve while drafting remotely; a failover
    /// promotes it to [`DraftSource::Local`].
    fallback: Option<Box<dyn Drafter>>,
    /// Consecutive remote-draft timeouts since the last successful
    /// response; crossing `draft_max_retries` triggers the failover — no
    /// response at all means the rank is dead, partitioned or
    /// pathologically slow.
    draft_failures: u32,
    /// Consecutive same-hypothesis refusals (empty responses) since the
    /// last useful one.  A refusal proves the rank *alive*, so the failover
    /// bar is [`REFUSAL_FAILOVER_FACTOR`]× higher than the timeout bar: a
    /// transiently under-confident drafter keeps its rank, a permanently
    /// refusing one is eventually abandoned instead of retried forever.
    draft_refusals: u32,
    /// No new draft request is issued before this time (bounded seeded
    /// backoff after a failure).
    draft_backoff_until: Option<f64>,
    /// Set when the head has exhausted every draft source: speculation is
    /// permanently off and generation completes through the non-speculative
    /// pending-token runs alone (which never deadlock and only ever emit
    /// target-verified tokens).
    draft_degraded: bool,
    /// Seeded jitter source for the retry backoff.
    backoff_rng: StdRng,
    record: GenerationRecord,
    output: RecordHandle,
    finished: bool,
    /// Results produced locally when the head is the only pipeline stage.
    local_results: VecDeque<(RunId, ActivationPayload)>,
}

impl PipeInferHead {
    /// Creates the head rank.
    ///
    /// * `route` — the target-pipeline route; the head is stage 0 and
    ///   typically holds an *empty* layer range.
    /// * `engine` — embedding / output-head / stage-0 evaluation engine.
    /// * `draft` — the speculative-model front-end: hosted locally or
    ///   reached over the wire on the dedicated draft rank.
    /// * `gen_config` / `config` — generation parameters and PipeInfer
    ///   tuning/ablation switches.
    /// * `output` — handle the final [`GenerationRecord`] is written to.
    pub fn new(
        route: PipelineRoute,
        engine: Box<dyn HeadEngine>,
        draft: DraftSource,
        gen_config: GenConfig,
        config: PipeInferConfig,
        output: RecordHandle,
    ) -> Self {
        let controller = SpeculationController::new(&config, gen_config.confidence_cutoff);
        let pool = SeqPartitionPool::new(config.n_seq_partitions);
        let remote_rank = match &draft {
            DraftSource::Remote(rank) => Some(*rank),
            DraftSource::Local(_) => None,
        };
        Self {
            route,
            engine,
            draft,
            gen_config,
            config,
            controller,
            pool,
            tracker: RunTracker::new(),
            accepted: Vec::new(),
            hypothesis: Vec::new(),
            expected: None,
            prompt_done: false,
            prompt_cached: 0,
            run_budget: usize::MAX,
            next_run_id: 0,
            next_draft_id: 0,
            inflight_draft: None,
            draft_refused: None,
            remote_rank,
            fallback: None,
            draft_failures: 0,
            draft_refusals: 0,
            draft_backoff_until: None,
            draft_degraded: false,
            backoff_rng: StdRng::seed_from_u64(BACKOFF_JITTER_SEED),
            record: GenerationRecord::default(),
            output,
            finished: false,
            local_results: VecDeque::new(),
        }
    }

    /// Attaches a local fallback drafter the head promotes to
    /// [`DraftSource::Local`] when the remote draft rank is detected dead or
    /// unresponsive (consecutive request timeouts/refusals past
    /// `draft_max_retries`).  Without one, the same detection degrades the
    /// head to non-speculative pipelined decoding instead.
    pub fn with_fallback(mut self, drafter: Box<dyn Drafter>) -> Self {
        self.fallback = Some(drafter);
        self
    }

    /// Declares that the leading `n` prompt tokens are already resident in
    /// every stage's KV cache, so prefill starts at position `n`.  Clamped to
    /// leave at least the final prompt token for live evaluation.
    pub fn with_prompt_cached(mut self, n: usize) -> Self {
        self.prompt_cached = n;
        self
    }

    /// Stops continuous speculation while `runs` runs are in flight, on top
    /// of the controller's own gates (`max_speculation_ahead`, the cutoff
    /// gradient, free KV partitions).  Two is the least that still
    /// speculates: the run establishing the next expectation and one run
    /// past it.
    pub fn with_run_budget(mut self, runs: usize) -> Self {
        self.run_budget = runs;
        self
    }

    /// Whether the head has failed over away from its original remote draft
    /// rank (to the local fallback or into degraded non-speculative mode).
    pub fn failed_over(&self) -> bool {
        self.draft_degraded
            || (self.remote_rank.is_some() && matches!(self.draft, DraftSource::Local(_)))
    }

    /// The record accumulated so far.
    pub fn record(&self) -> &GenerationRecord {
        &self.record
    }

    /// The sequence-partition pool (exposed for invariants in tests).
    pub fn partition_pool(&self) -> &SeqPartitionPool {
        &self.pool
    }

    // ----- dispatch helpers -------------------------------------------------

    fn make_batch(tokens: &[Token], base_pos: Pos, seq: SeqId) -> Batch {
        let mut batch = Batch::new();
        for (i, &tok) in tokens.iter().enumerate() {
            batch.push(tok, base_pos + i as Pos, vec![seq], true);
        }
        batch
    }

    fn send_cache_op(&mut self, op: CacheOp, ctx: &mut dyn NodeCtx<PipeMsg>) {
        let cost = self.engine.apply_cache_op(0, &op);
        ctx.elapse(cost);
        match &op {
            CacheOp::BranchCommit { first, n_seqs, .. } => {
                let (first, n_seqs) = (*first, *n_seqs);
                trace_if(ctx, || EventKind::BranchCommit { first, n_seqs });
            }
            CacheOp::BranchRollback { first, n_seqs } => {
                let (first, n_seqs) = (*first, *n_seqs);
                trace_if(ctx, || EventKind::BranchRollback { first, n_seqs });
            }
            _ => {}
        }
        if let Some(next) = self.route.next_after(self.route.head()) {
            ctx.send(next, tags::CACHE, PipeMsg::Cache(op));
        }
    }

    fn send_decode(
        &mut self,
        run_id: RunId,
        kind: RunKind,
        batch: Batch,
        topology: Option<TreeTopology>,
        ctx: &mut dyn NodeCtx<PipeMsg>,
    ) {
        self.record.runs_launched += 1;
        let (payload, cost) = self.engine.eval_first_stage(&batch);
        ctx.elapse(cost);
        trace_if(ctx, || EventKind::RunInflight { run: run_id });
        if let Some(next) = self.route.next_after(self.route.head()) {
            ctx.send(
                next,
                tags::DECODE,
                PipeMsg::Decode {
                    run_id,
                    kind,
                    batch,
                    payload,
                    tree: topology,
                },
            );
        } else {
            self.local_results.push_back((run_id, payload));
        }
    }

    /// Dispatches a non-speculative run (prompt processing, pending token)
    /// into the canonical sequence.
    fn dispatch_run(&mut self, tokens: Vec<Token>, base_pos: Pos, ctx: &mut dyn NodeCtx<PipeMsg>) {
        let run_id = self.next_run_id;
        self.next_run_id += 1;
        trace_if(ctx, || EventKind::RunSpawned {
            run: run_id,
            speculative: false,
            n_nodes: tokens.len() as u32,
            width: 1,
            depth: tokens.len() as u32,
        });
        let batch = Self::make_batch(&tokens, base_pos, CANONICAL_SEQ);
        self.tracker.push(RunInfo::chain(
            run_id,
            RunKind::NonSpeculative,
            &tokens,
            base_pos,
            CANONICAL_SEQ,
        ));
        self.send_decode(run_id, RunKind::NonSpeculative, batch, None, ctx);
    }

    /// Dispatches a speculative tree micro-batch covering the next positions
    /// of the hypothesis.  The hypothesis is extended with the tree's
    /// primary spine; sibling branches ride along as hedges.
    fn dispatch_spec_tree(&mut self, tree: TokenTree, ctx: &mut dyn NodeCtx<PipeMsg>) {
        if tree.is_empty() {
            return;
        }
        let n_leaves = tree.n_sequences();
        let Some(first_seq) = self.pool.alloc_block(n_leaves) else {
            // No free partition block: drop the speculation (it will be
            // re-drafted later if still useful).
            return;
        };
        // Give every leaf partition the shared prefix: the latest in-flight
        // speculative partition already holds canonical + all prior
        // speculated entries along the hypothesis; fall back to the
        // canonical sequence.
        let src = self
            .tracker
            .latest_speculative_seq()
            .unwrap_or(CANONICAL_SEQ);
        for leaf in 0..n_leaves as SeqId {
            self.send_cache_op(
                CacheOp::SeqCp {
                    src,
                    dst: first_seq + leaf,
                    p0: 0,
                    p1: Pos::MAX,
                },
                ctx,
            );
        }
        let base = self.hypothesis.len() as Pos;
        self.record.drafted += tree.len();
        if self.config.micro_width > 1 {
            self.record.tree_rounds += 1;
            self.record.tree_nodes += tree.len();
            self.record
                .tree_shapes
                .push((tree.roots().len(), tree.spine().len()));
        }
        for &node in &tree.spine() {
            self.hypothesis.push(tree.nodes()[node].token);
        }
        let run_id = self.next_run_id;
        self.next_run_id += 1;
        trace_if(ctx, || EventKind::RunSpawned {
            run: run_id,
            speculative: true,
            n_nodes: tree.len() as u32,
            width: tree.roots().len() as u32,
            depth: tree.spine().len() as u32,
        });
        let batch = tree.to_batch(base, first_seq);
        // Chains keep their topology implicit in batch order (degenerate
        // single-branch trees); only genuine trees ship parent links.
        let topology = (n_leaves > 1).then(|| TreeTopology::from_tree(&tree));
        self.tracker
            .push(RunInfo::tree(run_id, tree, base, first_seq));
        self.send_decode(run_id, RunKind::Speculative, batch, topology, ctx);
    }

    /// Whether another speculative run may be dispatched right now: the run
    /// budget has room and the controller's speculation gate is open.
    fn may_speculate(&self) -> bool {
        self.tracker.len() < self.run_budget
            && self.controller.should_request(
                self.hypothesis.len() - self.accepted.len(),
                self.tracker.active_speculative(),
                self.pool.available(),
            )
    }

    /// One iteration of continuous speculation: probe-found-nothing ⇒ obtain
    /// a tree micro-batch from the draft source.  Locally hosted drafters
    /// draft and dispatch synchronously; the dedicated draft rank is sent a
    /// request whose response dispatches on arrival.  Returns `true` if
    /// useful work was performed.
    fn try_speculate(&mut self, ctx: &mut dyn NodeCtx<PipeMsg>) -> bool {
        if self.finished || !self.prompt_done {
            return false;
        }
        if !self.may_speculate() {
            return false;
        }
        let (width, depth) = self.controller.shape();
        match &mut self.draft {
            DraftSource::Local(drafter) => {
                let (tree, cost) = drafter.draft_tree(
                    &self.hypothesis,
                    &[],
                    width,
                    depth,
                    self.controller.cutoff(),
                );
                ctx.elapse(cost);
                if tree.is_empty() {
                    // The draft model is not confident enough under the
                    // current cutoff gradient: stop speculating until
                    // verification catches up (a run completion resets the
                    // cutoff).
                    return false;
                }
                self.controller.on_iteration();
                self.dispatch_spec_tree(tree, ctx);
                true
            }
            DraftSource::Remote(rank) => {
                if self.draft_degraded {
                    // Every draft source is exhausted: non-speculative
                    // decoding only.
                    return false;
                }
                if let Some(d) = self.inflight_draft {
                    // One hypothesis in flight at a time; the response (or
                    // its invalidation, or its deadline) unblocks the next
                    // request.  Keep the deadline armed: wake requests are
                    // one-shot.
                    ctx.request_wake(d.deadline);
                    return false;
                }
                let cutoff = self.controller.cutoff();
                if let Some((refused_cutoff, refused_len)) = self.draft_refused {
                    if cutoff >= refused_cutoff && self.hypothesis.len() == refused_len {
                        // The draft rank already refused this hypothesis at
                        // an equal-or-lower bar.  Wait for verification to
                        // lower the cutoff or move the hypothesis — but only
                        // up to the retry backoff: a permanently-refusing
                        // drafter must keep accumulating failures until the
                        // head fails over, not stall speculation forever.
                        match self.draft_backoff_until {
                            Some(until) if ctx.now() < until => {
                                ctx.request_wake(until);
                                return false;
                            }
                            _ => {}
                        }
                    }
                    self.draft_refused = None;
                    self.draft_backoff_until = None;
                }
                if let Some(until) = self.draft_backoff_until {
                    // Backoff after a request timeout (no refusal standing).
                    if ctx.now() < until {
                        ctx.request_wake(until);
                        return false;
                    }
                    self.draft_backoff_until = None;
                }
                let id = self.next_draft_id;
                self.next_draft_id += 1;
                let deadline = ctx.now() + self.config.draft_deadline_s;
                self.inflight_draft = Some(InflightDraft {
                    id,
                    cutoff,
                    deadline,
                });
                if self.draft_failures > 0 || self.draft_refusals > 0 {
                    ctx.record_draft_retry();
                }
                ctx.request_wake(deadline);
                self.record.draft_requests += 1;
                let context_len = self.hypothesis.len() as u32;
                trace_if(ctx, || EventKind::DraftRequested {
                    request: id,
                    context_len,
                });
                let rank = *rank;
                ctx.send(
                    rank,
                    tags::DRAFT,
                    PipeMsg::DraftRequest {
                        request_id: id,
                        context: self.hypothesis.clone(),
                        width,
                        max_tokens: depth,
                        confidence_cutoff: cutoff,
                    },
                );
                true
            }
        }
    }

    /// Handles the dedicated draft rank's response: drops it if the
    /// hypothesis it continues has been invalidated or extended since the
    /// request, otherwise dispatches the returned tree.
    fn handle_draft_response(
        &mut self,
        request_id: u64,
        nodes: Vec<(Token, f32)>,
        topology: TreeTopology,
        context_len: usize,
        ctx: &mut dyn NodeCtx<PipeMsg>,
    ) {
        if self.finished {
            return;
        }
        trace_if(ctx, || EventKind::DraftResponded {
            request: request_id,
            n_nodes: nodes.len() as u32,
        });
        let inflight = self.inflight_draft;
        let fresh = matches!(inflight, Some(d) if d.id == request_id);
        if fresh {
            self.inflight_draft = None;
        }
        if !fresh {
            // A response to an abandoned (invalidated) hypothesis: these
            // tokens continue a sequence that no longer exists.  Already
            // counted as stale when the cancellation was issued — the only
            // way a request stops being the in-flight one without its
            // response arriving.
            return;
        }
        if nodes.is_empty() {
            // The draft rank was not confident enough under the request's
            // cutoff; back off until the gradient or the hypothesis moves —
            // or the bounded retry backoff elapses.  The refusal applies to
            // the *requested* context only — if the hypothesis has grown
            // since, the draft rank never judged it, so the next request
            // goes out unimpeded.
            if context_len == self.hypothesis.len() {
                let cutoff = inflight.map(|d| d.cutoff).unwrap_or(0.0);
                self.draft_refusals += 1;
                let bar = REFUSAL_FAILOVER_FACTOR * (self.config.draft_max_retries + 1);
                if self.draft_refusals >= bar {
                    // The drafter refuses every retry, backoff after
                    // backoff: treat it like an unresponsive rank rather
                    // than keep paying fruitless round trips.
                    self.fail_over(ctx, self.draft_refusals);
                } else {
                    self.draft_refused = Some((cutoff, context_len));
                    self.arm_backoff(ctx, self.draft_refusals);
                }
            }
            return;
        }
        // A useful response: the draft source is alive and cooperating.
        self.draft_failures = 0;
        self.draft_refusals = 0;
        let mut tree = topology.to_tree(&nodes);
        if context_len != self.hypothesis.len() {
            // The hypothesis moved ahead while the request was in flight
            // (accepted tokens extended it, without an invalidation — an
            // invalidation would have cancelled the request).  Salvage the
            // draft's unused tail: if the drafted tree covers the gap
            // exactly, its remainder still continues the current hypothesis.
            let Some(tail) = (context_len < self.hypothesis.len())
                .then(|| {
                    let gap = &self.hypothesis[context_len..];
                    let mut level = tree.roots();
                    let mut last = None;
                    for &tok in gap {
                        let hit = level.iter().find(|&&id| tree.nodes()[id].token == tok)?;
                        last = Some(*hit);
                        level = tree.nodes()[*hit].children.clone();
                    }
                    last.map(|node| tree.subtree_below(node))
                })
                .flatten()
                .filter(|t| !t.is_empty())
            else {
                self.record.draft_stale += 1;
                return;
            };
            tree = tail;
            self.record.draft_salvaged += 1;
        }
        // Re-check the gate: partitions or the speculation budget may have
        // been consumed while the request was in flight.  This drop is
        // backpressure, not staleness — the hypothesis is intact and the
        // draft will simply be re-requested when the gate reopens.
        if !self.may_speculate() {
            return;
        }
        self.controller.on_iteration();
        self.dispatch_spec_tree(tree, ctx);
    }

    /// Cancels the in-flight draft request, if any: its hypothesis has just
    /// been invalidated, so the draft rank should drop it unserved.
    fn cancel_inflight_draft(&mut self, ctx: &mut dyn NodeCtx<PipeMsg>) {
        if let DraftSource::Remote(rank) = self.draft {
            if let Some(d) = self.inflight_draft.take() {
                self.record.draft_stale += 1;
                trace_if(ctx, || EventKind::DraftCancelled { up_to: d.id });
                ctx.send(rank, tags::CANCEL, PipeMsg::DraftCancel { up_to: d.id });
            }
        }
    }

    /// Checks the in-flight draft request against its deadline, called at
    /// the top of every callback.  An expiry is counted as a draft timeout
    /// and retried under the bounded backoff; past `draft_max_retries`
    /// consecutive failures the head fails over away from the remote rank.
    /// No-op for local drafting and fault-free timelines (the deadline
    /// dwarfs real round trips).
    fn poll_draft_deadline(&mut self, ctx: &mut dyn NodeCtx<PipeMsg>) {
        if self.finished {
            return;
        }
        let DraftSource::Remote(rank) = self.draft else {
            return;
        };
        let Some(d) = self.inflight_draft else {
            return;
        };
        if ctx.now() < d.deadline {
            ctx.request_wake(d.deadline);
            return;
        }
        // The deadline expired without a response: the draft rank is dead,
        // partitioned or pathologically slow.
        self.inflight_draft = None;
        self.record.draft_stale += 1;
        self.draft_failures += 1;
        ctx.record_draft_timeout();
        let request = d.id;
        trace_if(ctx, || EventKind::DraftTimeout { request });
        // Tell the (possibly just slow) rank to drop the request unserved;
        // a late response is already rejected by the fresh-id check.
        ctx.send(rank, tags::CANCEL, PipeMsg::DraftCancel { up_to: request });
        if self.draft_failures > self.config.draft_max_retries {
            self.fail_over(ctx, self.draft_failures);
        } else {
            self.arm_backoff(ctx, self.draft_failures);
        }
    }

    /// Fails over away from the remote draft rank — after
    /// `draft_max_retries + 1` consecutive timeouts, or a
    /// [`REFUSAL_FAILOVER_FACTOR`]× longer streak of refusals — onto the
    /// local fallback drafter when one is attached, otherwise into degraded
    /// non-speculative decoding.  Either way the token stream is unaffected:
    /// verified tokens only ever come from the head's own target engine.
    fn fail_over(&mut self, ctx: &mut dyn NodeCtx<PipeMsg>, failures: u32) {
        ctx.record_failover();
        trace_if(ctx, || EventKind::DraftFailover { timeouts: failures });
        self.draft_failures = 0;
        self.draft_refusals = 0;
        self.draft_backoff_until = None;
        self.draft_refused = None;
        self.inflight_draft = None;
        match self.fallback.take() {
            Some(drafter) => self.draft = DraftSource::Local(drafter),
            None => self.draft_degraded = true,
        }
    }

    /// Arms the retry backoff after the latest draft failure:
    /// `draft_backoff_s × 2^min(failures, 6) × U[0.5, 1.5)`, jittered from a
    /// seeded source so replays of the same schedule stay bit-identical.
    fn arm_backoff(&mut self, ctx: &mut dyn NodeCtx<PipeMsg>, failures: u32) {
        let exp = failures.min(BACKOFF_MAX_EXP);
        let jitter = 0.5 + self.backoff_rng.gen::<f64>();
        let delay = self.config.draft_backoff_s * f64::from(1u32 << exp) * jitter;
        let until = ctx.now() + delay;
        self.draft_backoff_until = Some(until);
        ctx.request_wake(until);
    }

    /// Accepts `token` as the new pending token (correction or anticipated
    /// bonus), records it, and dispatches the non-speculative run evaluating
    /// it.
    fn accept_new_pending(&mut self, token: Token, ctx: &mut dyn NodeCtx<PipeMsg>) {
        self.accepted.push(token);
        self.hypothesis = self.accepted.clone();
        if self.prompt_done {
            self.record.tokens.push(token);
            self.record.accept_times.push(ctx.now());
        }
        self.expected = None;
        let base = (self.accepted.len() - 1) as Pos;
        self.dispatch_run(vec![token], base, ctx);
    }

    /// Accepts `token` knowing an in-flight run's surviving sibling branch
    /// already covers it: no non-speculative run is needed — the kept run's
    /// result will confirm the token and re-establish the expectation (the
    /// branch-granular analogue of the paper's anticipated acceptance).
    fn accept_rescued(&mut self, token: Token, ctx: &mut dyn NodeCtx<PipeMsg>) {
        self.accepted.push(token);
        if self.prompt_done {
            self.record.tokens.push(token);
            self.record.accept_times.push(ctx.now());
        }
        self.controller.on_accept();
        self.expected = None;
        self.hypothesis = self.accepted.clone();
    }

    /// Cancellation sweep: marks in-flight speculative runs from `pos` on as
    /// invalid and back-propagates cancellation signals.  When `rescue`
    /// carries the accepted token for `pos`, a run whose sibling branch
    /// holds it survives the sweep; returns `true` iff one did.
    fn cancel_runs_from(
        &mut self,
        pos: Pos,
        rescue: Option<Token>,
        ctx: &mut dyn NodeCtx<PipeMsg>,
    ) -> bool {
        let outcome = self.tracker.invalidate_from(pos, rescue);
        self.record.runs_cancelled += outcome.cancelled.len();
        for &run_id in &outcome.cancelled {
            trace_if(ctx, || EventKind::RunInvalidated { run: run_id });
        }
        if outcome.rescued.is_some() {
            self.record.runs_rescued += 1;
        }
        if let Some(run_id) = outcome.rescued {
            trace_if(ctx, || EventKind::RunRescued { run: run_id });
        }
        if self.config.enable_cancellation && self.route.n_stages() > 1 {
            for run_id in outcome.cancelled {
                ctx.send(self.route.last(), tags::CANCEL, PipeMsg::Cancel { run_id });
            }
        }
        self.controller.on_failure_while_idle();
        self.cancel_inflight_draft(ctx);
        // The correction rewrites the hypothesis's content, so a standing
        // refusal (keyed on the old content's length) — and the retry
        // backoff it armed — no longer applies.  Failures keep accumulating:
        // only a successful response clears them.
        if self.draft_refused.take().is_some() {
            self.draft_backoff_until = None;
        }
        outcome.rescued.is_some()
    }

    /// Handles a divergence discovered at `accepted.len()`: invalidate the
    /// contradicted speculation, then accept the correction — through the
    /// rescued sibling branch when one survives, through a fresh
    /// non-speculative run otherwise.
    ///
    /// `observe_rejection` is set by callers whose divergence no surviving
    /// run will report to the shape model (the anticipation path): when the
    /// sweep cancels the covering run outright, the spine rejection is
    /// registered here — a rescued run reports its own outcome later, and a
    /// within-walk mismatch was already observed by the walking run.
    fn correct_frontier(
        &mut self,
        correction: Token,
        observe_rejection: bool,
        ctx: &mut dyn NodeCtx<PipeMsg>,
    ) {
        let pos = self.accepted.len() as Pos;
        let rescue_token = self.config.branch_invalidation.then_some(correction);
        let rescued = self.cancel_runs_from(pos, rescue_token, ctx);
        self.hypothesis.truncate(self.accepted.len());
        if observe_rejection && !rescued {
            self.controller.observe_shape(0, 1);
        }
        if rescued {
            self.accept_rescued(correction, ctx);
        } else {
            self.accept_new_pending(correction, ctx);
        }
    }

    /// Handles a newly learned true token `e` for position `accepted.len()`:
    /// either an in-flight speculation already covers it (and will be
    /// verified when it returns), or speculation diverged (invalidate, with
    /// sibling branches eligible for rescue), or nothing covers it (accept
    /// it immediately and keep the pipeline busy with its non-speculative
    /// run).
    fn resolve_expected(&mut self, e: Token, ctx: &mut dyn NodeCtx<PipeMsg>) {
        self.expected = Some(e);
        let pos = self.accepted.len();
        if self.hypothesis.len() > pos {
            if self.hypothesis[pos] != e {
                // Unless a sibling branch rescues it, the covering run is
                // about to be cancelled and will never report its own
                // outcome: `correct_frontier` registers the spine rejection
                // in that case, or the shape model only ever sees the
                // survivors and stays optimistic.
                self.correct_frontier(e, true, ctx);
            } else {
                // The token is already speculated and its verification run is
                // in flight — but it is the target's own choice, so it is
                // *known correct* right now.  Accept it immediately (the
                // paper's "anticipated" token, §II-A2): this is what keeps
                // PipeInfer's TTFT at iterative levels.  The covering run
                // will later supply the expectation for the positions after
                // it and its KV entries.
                self.accepted.push(e);
                if self.prompt_done {
                    self.record.tokens.push(e);
                    self.record.accept_times.push(ctx.now());
                }
                self.controller.on_accept();
                self.expected = None;
            }
        } else {
            self.accept_new_pending(e, ctx);
        }
    }

    // ----- result handling --------------------------------------------------

    /// Releases a speculative run's partition block, committing the accepted
    /// root-to-leaf path into the canonical sequence first when one exists.
    /// `committed` carries the path's leaf partition and one past the last
    /// accepted position.
    fn release_run(
        &mut self,
        info: &RunInfo,
        committed: Option<(SeqId, Pos)>,
        ctx: &mut dyn NodeCtx<PipeMsg>,
    ) {
        if info.n_seqs == 0 {
            return;
        }
        let op = match committed {
            Some((path, p1)) => CacheOp::BranchCommit {
                dst: CANONICAL_SEQ,
                path,
                first: info.first_seq,
                n_seqs: info.n_seqs as u32,
                p0: info.base_pos,
                p1,
            },
            None => CacheOp::BranchRollback {
                first: info.first_seq,
                n_seqs: info.n_seqs as u32,
            },
        };
        self.send_cache_op(op, ctx);
        self.pool.free_block(info.first_seq, info.n_seqs);
    }

    fn handle_result(
        &mut self,
        run_id: RunId,
        payload: ActivationPayload,
        ctx: &mut dyn NodeCtx<PipeMsg>,
    ) {
        if self.finished {
            return;
        }
        let info = self.tracker.pop_expect(run_id);
        if info.cancelled {
            self.release_run(&info, None, ctx);
            return;
        }
        let run_tokens = info.tokens();
        // Prompt completion.
        if !self.prompt_done {
            let batch = Self::make_batch(&run_tokens, info.base_pos, info.first_seq);
            // The run's batch starts at the first *uncached* prompt position;
            // the pooled prefix (if any) is context the engine already holds.
            let prefix = &self.gen_config.prompt[..info.base_pos as usize];
            let (greedy, cost) = self.engine.finalize(&batch, &payload, prefix);
            ctx.elapse(cost);
            self.prompt_done = true;
            self.record.prompt_done_at = ctx.now();
            self.accepted = prefix.to_vec();
            self.accepted.extend_from_slice(&run_tokens);
            // The token sampled from prompt processing is not counted as
            // generated (paper TTFT definition) but becomes the pending
            // token.
            let pending = *greedy.last().expect("prompt batch is non-empty");
            self.accepted.push(pending);
            self.hypothesis = self.accepted.clone();
            let base = (self.accepted.len() - 1) as Pos;
            self.dispatch_run(vec![pending], base, ctx);
            return;
        }

        let context = &self.accepted[..info.base_pos as usize];
        let batch = info.tree.to_batch(info.base_pos, info.first_seq);
        let (greedy, cost) = if info.n_seqs > 1 {
            let parents = info.tree.parents();
            self.engine
                .finalize_tree(&batch, &payload, context, &parents)
        } else {
            self.engine.finalize(&batch, &payload, context)
        };
        ctx.elapse(cost);

        match info.kind {
            RunKind::NonSpeculative => {
                let e = greedy[0];
                self.resolve_expected(e, ctx);
            }
            RunKind::Speculative => {
                self.resolve_speculative(info, greedy, ctx);
            }
        }

        if self.record.tokens.len() >= self.gen_config.n_generate {
            self.finish(ctx);
        }
    }

    /// Verifies a returned speculative tree run: walks the deepest branch
    /// consistent with the accepted tokens (confirming tokens accepted in
    /// anticipation or through a rescue) and the target's greedy choices
    /// (accepting fresh ones), commits the accepted path's KV entries, and
    /// resolves the new expectation.
    ///
    /// `greedy[id]` is the target's true token after node `id`'s
    /// root-to-node path.  For a degenerate chain this reduces exactly to
    /// the longest-prefix rule of linear speculation.
    fn resolve_speculative(
        &mut self,
        info: RunInfo,
        greedy: Vec<Token>,
        ctx: &mut dyn NodeCtx<PipeMsg>,
    ) {
        let nodes = info.tree.nodes();
        let mut level: Vec<TreeNodeId> = info.tree.roots();
        let mut pos = info.base_pos as usize;
        // The expectation at the walk frontier: pre-accepted positions carry
        // their own truth; past them the target's choice after the last
        // walked node (seeded with the standing expectation when the run
        // starts at the frontier).
        let mut exp: Option<Token> = if pos >= self.accepted.len() {
            self.expected
        } else {
            None
        };
        let mut path: Vec<TreeNodeId> = Vec::new();
        let mut confirmed = 0usize;
        let mut mismatch: Option<Token> = None;
        let mut inconsistent = false;
        // Set once the walk accepts a node off the hypothesis (a sibling
        // branch rescuing the round synchronously): everything speculated
        // after that position descends from the rejected spine.
        let mut deviated = false;
        while !level.is_empty() {
            let want = if pos < self.accepted.len() {
                self.accepted[pos]
            } else {
                exp.expect("speculative result arrived before its expectation was established")
            };
            let Some(&hit) = level.iter().find(|&&id| nodes[id].token == want) else {
                if pos < self.accepted.len() {
                    // No branch lies on the already-accepted path: the run
                    // contributed nothing and a covering run for these
                    // positions is already in flight (it should have been
                    // cancelled; reaching here is only possible with
                    // whole-run invalidation disabled mid-stream).
                    debug_assert!(false, "uncancelled run off the accepted path");
                    inconsistent = true;
                } else {
                    mismatch = Some(want);
                }
                break;
            };
            if pos >= self.accepted.len() {
                debug_assert_eq!(pos, self.accepted.len(), "walk positions are contiguous");
                match self.hypothesis.get(pos) {
                    // Position not covered by any hypothesis: nothing was
                    // drafted past here, so there is nothing to invalidate
                    // (deep branches of an already-rescued run land here).
                    None => {}
                    Some(&h) if h != want && !deviated => {
                        // The target chose a sibling branch over the spine:
                        // the hypothesis past this position — and every
                        // in-flight run drafted on it — is invalid, but this
                        // run's own surviving branch keeps the round alive.
                        deviated = true;
                        self.record.runs_rescued += 1;
                        let run = info.run_id;
                        trace_if(ctx, || EventKind::RunRescued { run });
                        self.cancel_runs_from(pos as Pos, None, ctx);
                        self.hypothesis.truncate(pos);
                    }
                    Some(_) => {}
                }
                self.accepted.push(want);
                if self.hypothesis.len() < self.accepted.len() {
                    // Keep the hypothesis a superset of the accepted tokens.
                    self.hypothesis.push(want);
                }
                self.record.tokens.push(want);
                self.record.accept_times.push(ctx.now());
            }
            path.push(hit);
            confirmed += 1;
            exp = Some(greedy[hit]);
            level = nodes[hit].children.clone();
            pos += 1;
        }
        self.record.accepted_drafts += confirmed;
        if self.config.micro_width > 1 {
            self.record.tree_accepted_path += confirmed;
        }
        trace_if(ctx, || EventKind::RunVerified {
            run: info.run_id,
            accepted: confirmed as u32,
        });
        // The shape model tracks the primary spine: a round rescued by a
        // runner-up still rejected the primary candidate.
        let spine = info.tree.spine();
        let spine_accepted = path
            .iter()
            .zip(&spine)
            .take_while(|(walked, spine_node)| walked == spine_node)
            .count();
        self.controller
            .observe_shape(spine_accepted, info.tree.span());

        // Buffer swap at branch granularity: commit the accepted path's
        // entries into the canonical sequence while dropping every sibling
        // branch, or roll the whole block back when nothing survived.
        let committed = path.last().map(|&deepest| {
            let leaf_seq = info.tree.assign_sequences(info.first_seq)[deepest][0];
            (leaf_seq, info.base_pos + confirmed as Pos)
        });
        if committed.is_some() {
            self.controller.on_accept();
        }
        self.release_run(&info, committed, ctx);

        if inconsistent {
            return;
        }
        match mismatch {
            None => {
                let e = exp.expect("non-empty run always yields an expectation");
                self.resolve_expected(e, ctx);
            }
            Some(correction) => {
                // Mismatch at the frontier: everything speculated past the
                // accepted prefix is invalid — except a sibling branch of a
                // later run that carries the correction itself.  This run
                // already reported the rejection to the shape model above.
                self.correct_frontier(correction, false, ctx);
            }
        }
    }

    fn drain_local_results(&mut self, ctx: &mut dyn NodeCtx<PipeMsg>) {
        while let Some((run_id, payload)) = self.local_results.pop_front() {
            if self.finished {
                break;
            }
            self.handle_result(run_id, payload, ctx);
        }
    }

    fn finish(&mut self, ctx: &mut dyn NodeCtx<PipeMsg>) {
        if self.finished {
            return;
        }
        self.record.finished_at = ctx.now();
        record_kv_events(self.engine.take_kv_events(), ctx);
        if let Some(next) = self.route.next_after(self.route.head()) {
            ctx.send(next, tags::SHUTDOWN, PipeMsg::Shutdown);
        }
        // Shut the draft rank down even after a failover: the rank may be
        // merely partitioned or slow rather than dead (a genuinely dead rank
        // simply never receives it, and detects the orphaning itself).
        if let Some(rank) = self.remote_rank {
            ctx.send(rank, tags::SHUTDOWN, PipeMsg::Shutdown);
        }
        *self.output.lock().unwrap() = Some(self.record.clone());
        self.finished = true;
    }
}

impl NodeBehavior<PipeMsg> for PipeInferHead {
    fn on_start(&mut self, ctx: &mut dyn NodeCtx<PipeMsg>) {
        let prompt = self.gen_config.prompt.clone();
        assert!(!prompt.is_empty(), "prompt must not be empty");
        let cached = self.prompt_cached.min(prompt.len() - 1);
        self.dispatch_run(prompt[cached..].to_vec(), cached as Pos, ctx);
        // The draft model evaluates the prompt while the target pipeline
        // does, instead of in front of the first speculative run.
        if let DraftSource::Local(drafter) = &mut self.draft {
            let cost = drafter.prime(&prompt);
            ctx.elapse(cost);
        }
        self.drain_local_results(ctx);
    }

    fn on_message(&mut self, _src: Rank, _tag: Tag, msg: PipeMsg, ctx: &mut dyn NodeCtx<PipeMsg>) {
        self.poll_draft_deadline(ctx);
        match msg {
            PipeMsg::RunResult { run_id, payload } => {
                self.handle_result(run_id, payload, ctx);
            }
            PipeMsg::DraftResponse {
                request_id,
                nodes,
                topology,
                context_len,
            } => {
                self.handle_draft_response(request_id, nodes, topology, context_len, ctx);
            }
            _ => {}
        }
        self.drain_local_results(ctx);
    }

    fn on_idle(&mut self, ctx: &mut dyn NodeCtx<PipeMsg>) -> bool {
        // "The idle state is determined by probing for an incoming logits
        // transfer transaction … otherwise, the node generates another
        // speculation tree" (§IV-B).
        self.poll_draft_deadline(ctx);
        let worked = self.try_speculate(ctx);
        self.drain_local_results(ctx);
        worked && !self.finished
    }

    fn is_finished(&self) -> bool {
        self.finished
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_model::{ModelConfig, OracleDraft, OracleTarget};
    use pi_perf::{CostModel, ModelCost, NodeSpec};
    use pi_spec::drafter::OracleDrafter;
    use pi_spec::engine::{SimHeadEngine, SimStageEngine};
    use pi_tensor::QuantKind;
    use std::sync::{Arc, Mutex};

    /// A test context that collects sent messages.
    struct TestCtx {
        rank: Rank,
        sent: Vec<(Rank, PipeMsg)>,
        now: f64,
    }
    impl NodeCtx<PipeMsg> for TestCtx {
        fn rank(&self) -> Rank {
            self.rank
        }
        fn world_size(&self) -> usize {
            3
        }
        fn now(&self) -> f64 {
            self.now
        }
        fn send(&mut self, dst: Rank, _tag: Tag, msg: PipeMsg) {
            self.sent.push((dst, msg));
        }
        fn elapse(&mut self, seconds: f64) {
            self.now += seconds;
        }
    }

    const ORACLE_SEED: u64 = 77;
    const VOCAB: u32 = 32000;

    /// A test world: rank 0 = head, rank 1 = a single pipeline worker
    /// holding every target layer, and (for the Fig. 3 layout) rank 2 = the
    /// dedicated draft rank.
    struct TestWorld {
        head: PipeInferHead,
        worker: pi_spec::PipelineWorker,
        draft_node: Option<crate::DraftNode>,
        cancel_messages: usize,
    }

    fn oracle_drafter(alignment: f64) -> OracleDrafter {
        OracleDrafter::new(
            OracleTarget::new(ORACLE_SEED, VOCAB),
            OracleDraft::new(ORACLE_SEED + 1, VOCAB, alignment),
            CostModel::new(NodeSpec::xeon_gold_6140_dual()),
            ModelCost::new(ModelConfig::tinyllama_1_1b(), QuantKind::Q4K),
        )
    }

    fn build_world(
        alignment: f64,
        n_generate: usize,
        config: PipeInferConfig,
    ) -> (TestWorld, RecordHandle) {
        let output: RecordHandle = Arc::new(Mutex::new(None));
        let oracle = OracleTarget::new(ORACLE_SEED, VOCAB);
        let dedicated = matches!(config.draft_placement, crate::DraftPlacement::DedicatedRank);
        // Head-hosted: route over ranks {0, 1}.  Dedicated: the worker keeps
        // rank 1 for simplicity and the draft rank sits at rank 2, off the
        // route — the head only cares that the draft rank is off-route.
        let route = PipelineRoute::baseline(2);
        let target_cost = ModelCost::new(ModelConfig::llama2_70b(), QuantKind::Q3K);
        let node = NodeSpec::xeon_gold_6140_dual();
        let draft = if dedicated {
            DraftSource::Remote(2)
        } else {
            DraftSource::Local(Box::new(oracle_drafter(alignment)))
        };
        let mut head = PipeInferHead::new(
            route.clone(),
            Box::new(SimHeadEngine::new(
                CostModel::new(node.clone()),
                target_cost.clone(),
                0,
                oracle,
            )),
            draft,
            GenConfig::small_test(vec![3, 1, 4, 1, 5], n_generate),
            config,
            output.clone(),
        );
        if dedicated {
            // Mirrors PipeInferStrategy::build_head: the dedicated layout
            // keeps a local drafter in reserve for draft-rank failover.
            head = head.with_fallback(Box::new(oracle_drafter(alignment)));
        }
        let worker = pi_spec::PipelineWorker::new(
            1,
            route,
            Box::new(SimStageEngine::new(CostModel::new(node), target_cost, 80)),
        );
        let draft_node =
            dedicated.then(|| crate::DraftNode::new(0, Box::new(oracle_drafter(alignment))));
        (
            TestWorld {
                head,
                worker,
                draft_node,
                cancel_messages: 0,
            },
            output,
        )
    }

    fn build_head(
        alignment: f64,
        n_generate: usize,
        config: PipeInferConfig,
    ) -> (TestWorld, RecordHandle) {
        build_world(alignment, n_generate, config)
    }

    #[test]
    fn local_drafter_is_primed_with_the_prompt_at_start() {
        /// Records what it is primed with; never drafts.
        struct Spy(Arc<Mutex<Vec<Vec<Token>>>>);
        impl Drafter for Spy {
            fn prime(&mut self, context: &[Token]) -> f64 {
                self.0.lock().unwrap().push(context.to_vec());
                0.0
            }
            fn draft(
                &mut self,
                _: &[Token],
                _: &[Token],
                _: usize,
                _: f32,
            ) -> (Vec<(Token, f32)>, f64) {
                (Vec::new(), 0.0)
            }
        }
        let (mut world, _) = build_head(1.0, 4, PipeInferConfig::default());
        let primed = Arc::new(Mutex::new(Vec::new()));
        world.head.draft = DraftSource::Local(Box::new(Spy(primed.clone())));
        let mut ctx = TestCtx {
            rank: 0,
            sent: Vec::new(),
            now: 0.0,
        };
        world.head.on_start(&mut ctx);
        assert!(matches!(ctx.sent[..], [(1, PipeMsg::Decode { .. })]));
        assert_eq!(*primed.lock().unwrap(), [vec![3, 1, 4, 1, 5]]);
    }

    #[test]
    fn run_budget_closes_the_speculation_gate() {
        let in_flight_at_close = |budget: Option<usize>| {
            let (world, _) = build_head(1.0, 8, PipeInferConfig::default());
            let mut head = world.head;
            if let Some(runs) = budget {
                head = head.with_run_budget(runs);
            }
            let mut in_flight = 0;
            while head.may_speculate() && in_flight < 12 {
                let run = RunInfo::chain(in_flight, RunKind::Speculative, &[7], 0, 1);
                head.tracker.push(run);
                in_flight += 1;
            }
            in_flight
        };
        assert_eq!(in_flight_at_close(Some(2)), 2);
        assert_eq!(in_flight_at_close(Some(3)), 3);
        // Unbudgeted (every simulated deployment): only the controller's
        // gates apply, and runs in flight are not one of them.
        assert_eq!(in_flight_at_close(None), 12);
    }

    /// Runs the world to completion by shuttling messages round by round,
    /// letting the head perform idle speculation between rounds.
    fn drive(world: &mut TestWorld) -> GenerationRecord {
        let mut head_ctx = TestCtx {
            rank: 0,
            sent: Vec::new(),
            now: 0.0,
        };
        let mut worker_ctx = TestCtx {
            rank: 1,
            sent: Vec::new(),
            now: 0.0,
        };
        let mut draft_ctx = TestCtx {
            rank: 2,
            sent: Vec::new(),
            now: 0.0,
        };
        world.head.on_start(&mut head_ctx);
        let mut safety = 0;
        while !world.head.is_finished() {
            safety += 1;
            assert!(safety < 50_000, "head did not converge");
            // Let the head speculate while the pipeline is busy (a couple of
            // probes per round keeps several runs in flight).
            for _ in 0..2 {
                if !world.head.on_idle(&mut head_ctx) {
                    break;
                }
            }
            // Deliver the head's outgoing traffic.
            let outgoing: Vec<(Rank, PipeMsg)> = head_ctx.sent.drain(..).collect();
            let mut progressed = false;
            for (dst, msg) in outgoing {
                if matches!(msg, PipeMsg::Cancel { .. }) {
                    world.cancel_messages += 1;
                }
                match dst {
                    1 => {
                        world.worker.on_message(0, 0, msg, &mut worker_ctx);
                        progressed = true;
                    }
                    2 => {
                        if let Some(node) = world.draft_node.as_mut() {
                            node.on_message(0, 0, msg, &mut draft_ctx);
                            progressed = true;
                        }
                    }
                    _ => {}
                }
            }
            // Let the draft rank serve its newest request.
            if let Some(node) = world.draft_node.as_mut() {
                if node.on_idle(&mut draft_ctx) {
                    progressed = true;
                }
            }
            // Deliver worker results and draft responses back to the head.
            let results: Vec<(Rank, PipeMsg)> = worker_ctx
                .sent
                .drain(..)
                .chain(draft_ctx.sent.drain(..))
                .collect();
            for (dst, msg) in results {
                if dst == 0 && !world.head.is_finished() {
                    head_ctx.now += 1e-4;
                    world.head.on_message(1, 0, msg, &mut head_ctx);
                    progressed = true;
                }
            }
            if !progressed && !world.head.on_idle(&mut head_ctx) {
                panic!("deadlock: head idle with nothing in flight");
            }
        }
        world.head.record().clone()
    }

    /// Drives a dedicated-rank world whose draft rank is dead from the
    /// start: every `DraftRequest` disappears on the wire and wall time
    /// marches one second per round, so request deadlines keep expiring
    /// until the head's recovery ladder resolves.
    fn drive_without_draft_rank(world: &mut TestWorld) -> GenerationRecord {
        let mut head_ctx = TestCtx {
            rank: 0,
            sent: Vec::new(),
            now: 0.0,
        };
        let mut worker_ctx = TestCtx {
            rank: 1,
            sent: Vec::new(),
            now: 0.0,
        };
        world.head.on_start(&mut head_ctx);
        let mut safety = 0;
        while !world.head.is_finished() {
            safety += 1;
            assert!(safety < 50_000, "head did not converge");
            head_ctx.now += 1.0;
            for _ in 0..2 {
                if !world.head.on_idle(&mut head_ctx) {
                    break;
                }
            }
            let outgoing: Vec<(Rank, PipeMsg)> = head_ctx.sent.drain(..).collect();
            for (dst, msg) in outgoing {
                if dst == 1 {
                    world.worker.on_message(0, 0, msg, &mut worker_ctx);
                }
                // dst 2 (the draft rank) is dead: messages are black-holed.
            }
            let results: Vec<(Rank, PipeMsg)> = worker_ctx.sent.drain(..).collect();
            for (dst, msg) in results {
                if dst == 0 && !world.head.is_finished() {
                    world.head.on_message(1, 0, msg, &mut head_ctx);
                }
            }
        }
        world.head.record().clone()
    }

    #[test]
    fn dead_draft_rank_fails_over_to_the_fallback_and_preserves_the_stream() {
        let oracle = OracleTarget::new(ORACLE_SEED, VOCAB);
        let truth = oracle.generate(&[3, 1, 4, 1, 5], 20);
        // Tight recovery knobs so the failover resolves within the first few
        // one-second rounds, well before the 12 tokens are out.
        let config = PipeInferConfig {
            draft_deadline_s: 0.25,
            draft_backoff_s: 0.01,
            ..PipeInferConfig::dedicated_draft_rank()
        };
        let (mut world, _) = build_head(0.9, 12, config);
        world.draft_node = None;
        let record = drive_without_draft_rank(&mut world);
        assert!(
            world.head.failed_over(),
            "consecutive timeouts must trigger the failover"
        );
        assert_eq!(
            record.tokens[..12].to_vec(),
            truth[1..13].to_vec(),
            "failover must preserve the greedy stream byte-for-byte"
        );
        assert!(record.draft_requests >= 1, "the head tried the remote rank");
        assert!(
            record.accepted_drafts > 0,
            "the fallback drafter resumes speculation after the failover"
        );
    }

    #[test]
    fn dead_draft_rank_without_fallback_degrades_but_never_deadlocks() {
        let oracle = OracleTarget::new(ORACLE_SEED, VOCAB);
        let truth = oracle.generate(&[3, 1, 4, 1, 5], 16);
        let output: RecordHandle = Arc::new(Mutex::new(None));
        let route = PipelineRoute::baseline(2);
        let node = NodeSpec::xeon_gold_6140_dual();
        let target_cost = ModelCost::new(ModelConfig::llama2_70b(), QuantKind::Q3K);
        let head = PipeInferHead::new(
            route.clone(),
            Box::new(SimHeadEngine::new(
                CostModel::new(node.clone()),
                target_cost.clone(),
                0,
                OracleTarget::new(ORACLE_SEED, VOCAB),
            )),
            DraftSource::Remote(2),
            GenConfig::small_test(vec![3, 1, 4, 1, 5], 10),
            PipeInferConfig {
                draft_deadline_s: 0.25,
                draft_backoff_s: 0.01,
                ..PipeInferConfig::dedicated_draft_rank()
            },
            output,
        );
        let worker = pi_spec::PipelineWorker::new(
            1,
            route,
            Box::new(SimStageEngine::new(CostModel::new(node), target_cost, 80)),
        );
        let mut world = TestWorld {
            head,
            worker,
            draft_node: None,
            cancel_messages: 0,
        };
        let record = drive_without_draft_rank(&mut world);
        assert!(world.head.failed_over(), "degraded mode counts as failover");
        assert_eq!(
            record.tokens[..10].to_vec(),
            truth[1..11].to_vec(),
            "degraded non-speculative decoding still emits the exact stream"
        );
        assert_eq!(
            record.accepted_drafts, 0,
            "no drafts are ever accepted without a draft source"
        );
    }

    #[test]
    fn output_matches_target_continuation_for_all_alignments() {
        let oracle = OracleTarget::new(ORACLE_SEED, VOCAB);
        let truth = oracle.generate(&[3, 1, 4, 1, 5], 40);
        for alignment in [0.0, 0.5, 0.9, 1.0] {
            let (mut world, _) = build_head(alignment, 24, PipeInferConfig::default());
            let record = drive(&mut world);
            assert!(record.tokens.len() >= 24, "alignment {alignment}");
            assert_eq!(
                record.tokens[..24].to_vec(),
                truth[1..25].to_vec(),
                "PipeInfer must preserve greedy output exactly (alignment {alignment})"
            );
        }
    }

    #[test]
    fn tree_micro_batches_preserve_the_stream_and_rescue_runs() {
        let oracle = OracleTarget::new(ORACLE_SEED, VOCAB);
        let truth = oracle.generate(&[3, 1, 4, 1, 5], 48);
        // Low alignment: the spine misses often, so runner-up branches get
        // their chance to rescue rounds.
        let (mut world, _) = build_head(0.3, 32, PipeInferConfig::tree_micro());
        let record = drive(&mut world);
        assert_eq!(
            record.tokens[..32].to_vec(),
            truth[1..33].to_vec(),
            "tree micro-batches must preserve greedy output"
        );
        assert!(record.tree_rounds > 0, "tree stats must be recorded");
        assert_eq!(record.tree_shapes.len(), record.tree_rounds);
        // Partition blocks are recycled, not leaked.
        assert!(world.head.partition_pool().in_use() <= 32);
    }

    #[test]
    fn branch_rescue_accepts_tokens_without_extra_runs() {
        // With hedged trees and a poorly aligned draft, some rounds must be
        // saved by a sibling branch (rescue) — and whole-run invalidation of
        // the same configuration must cancel strictly more runs.
        let (mut world, _) = build_head(0.2, 40, PipeInferConfig::tree_micro());
        let branch = drive(&mut world);
        let (mut world_whole, _) = build_head(
            0.2,
            40,
            PipeInferConfig::tree_micro().whole_run_invalidation(),
        );
        let whole = drive(&mut world_whole);
        assert_eq!(branch.tokens, whole.tokens, "streams never differ");
        assert!(
            branch.runs_rescued > 0,
            "hedged trees must rescue some rounds at 20% alignment"
        );
        assert_eq!(whole.runs_rescued, 0, "whole-run mode never rescues");
    }

    #[test]
    fn dedicated_draft_rank_reproduces_the_stream() {
        let oracle = OracleTarget::new(ORACLE_SEED, VOCAB);
        let truth = oracle.generate(&[3, 1, 4, 1, 5], 40);
        for alignment in [0.3, 0.9] {
            let (mut world, _) = build_head(alignment, 24, PipeInferConfig::dedicated_draft_rank());
            let record = drive(&mut world);
            assert_eq!(
                record.tokens[..24].to_vec(),
                truth[1..25].to_vec(),
                "remote drafting must preserve greedy output (alignment {alignment})"
            );
            assert!(record.draft_requests > 0, "head must send draft requests");
            let node = world.draft_node.as_ref().unwrap();
            assert!(node.requests_served > 0);
        }
    }

    #[test]
    fn low_alignment_triggers_cancellations() {
        let (mut world, _) = build_head(0.1, 24, PipeInferConfig::default());
        let record = drive(&mut world);
        assert!(
            record.runs_cancelled > 0,
            "poor speculation must cancel runs"
        );
        assert!(record.acceptance_rate() < 0.5);
    }

    #[test]
    fn high_alignment_accepts_most_drafts() {
        let (mut world, _) = build_head(1.0, 24, PipeInferConfig::default());
        let record = drive(&mut world);
        assert!(
            record.acceptance_rate() > 0.9,
            "rate {}",
            record.acceptance_rate()
        );
        assert_eq!(record.runs_cancelled, 0);
    }

    #[test]
    fn record_is_written_to_the_output_handle() {
        let (mut world, out) = build_head(0.8, 12, PipeInferConfig::default());
        let record = drive(&mut world);
        let stored = out.lock().unwrap().clone().unwrap();
        assert_eq!(stored.tokens, record.tokens);
        assert!(stored.prompt_done_at > 0.0);
        assert!(stored.finished_at >= stored.prompt_done_at);
        assert_eq!(stored.accept_times.len(), stored.tokens.len());
    }

    #[test]
    fn ablation_without_continuous_speculation_still_produces_correct_output() {
        let oracle = OracleTarget::new(ORACLE_SEED, VOCAB);
        let truth = oracle.generate(&[3, 1, 4, 1, 5], 20);
        let (mut world, _) = build_head(0.8, 16, PipeInferConfig::no_continuous_speculation());
        let record = drive(&mut world);
        assert_eq!(record.tokens[..16].to_vec(), truth[1..17].to_vec());
    }

    #[test]
    fn ablation_without_cancellation_sends_no_cancel_messages() {
        let (mut world, _) = build_head(0.0, 12, PipeInferConfig::no_cancellation());
        let record = drive(&mut world);
        // Runs are still *marked* invalidated in the tracker (results ignored)…
        assert!(record.runs_cancelled > 0);
        // …but no cancellation signal is back-propagated.
        assert_eq!(world.cancel_messages, 0);
        // …and the generation is still correct.
        let oracle = OracleTarget::new(ORACLE_SEED, VOCAB);
        let truth = oracle.generate(&[3, 1, 4, 1, 5], 14);
        assert_eq!(record.tokens[..12].to_vec(), truth[1..13].to_vec());
    }

    #[test]
    fn cancellation_enabled_sends_cancel_messages_under_poor_alignment() {
        let (mut world, _) = build_head(0.0, 16, PipeInferConfig::default());
        let record = drive(&mut world);
        assert!(record.runs_cancelled > 0);
        assert!(
            world.cancel_messages > 0,
            "cancellation signals must be back-propagated when enabled"
        );
    }

    #[test]
    fn partitions_are_recycled_not_leaked() {
        let config = PipeInferConfig {
            n_seq_partitions: 4,
            ..PipeInferConfig::default()
        };
        let (mut world, _) = build_head(0.7, 40, config);
        let record = drive(&mut world);
        assert!(record.tokens.len() >= 40);
        // After completion every partition must be back in the pool or still
        // assigned to an in-flight (now abandoned) run — never double-freed
        // (the pool panics on double free, so reaching this point is the
        // assertion).
        assert!(world.head.partition_pool().available() <= 4);
    }

    #[test]
    fn pipeinfer_launches_fewer_target_runs_than_tokens_when_aligned() {
        let (mut world, _) = build_head(0.95, 32, PipeInferConfig::default());
        let record = drive(&mut world);
        // Speculative batching must amortise runs: far fewer runs than the
        // iterative baseline's one-per-token.
        assert!(
            record.runs_launched < 32,
            "runs {} for 32 tokens",
            record.runs_launched
        );
    }
}
