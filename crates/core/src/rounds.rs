//! The asynchronous speculation state machine: [`AsyncRounds`].
//!
//! One request's share of §IV — the run-tracking FIFO, the partition pool,
//! the speculation controller, the accepted/hypothesis frontier and the
//! record — as a transition function that reads no clock and sends nothing,
//! in the mould of `pi_spec`'s synchronous `SyncRounds`.  Whoever drives it
//! (the head rank today) feeds it events and executes, **in order**, the
//! [`Step`]s each transition appends:
//!
//! * [`AsyncRounds::start`] launches the prompt run;
//! * [`AsyncRounds::draft_ask`] is the one speculation gate — prompt done,
//!   run budget, controller, and whether the run's expected yield covers
//!   what a run costs this deployment — and names the shape and cutoff to
//!   draft with;
//! * [`AsyncRounds::offer`] takes a drafted tree, from whichever drafter
//!   produced it and however late, and turns what still continues the
//!   hypothesis into a speculative run on a private partition block;
//! * [`AsyncRounds::take`] / [`AsyncRounds::context`] /
//!   [`AsyncRounds::absorb`] bracket the output head's evaluation of a
//!   returned run: verification walks the deepest accepted branch, commits
//!   or rolls back the block, accepts tokens (also in anticipation, §II-A2),
//!   and on a divergence sweeps the contradicted runs — sparing one whose
//!   sibling branch carries the correction.
//!
//! Speculative runs never overlap in token positions (each covers a fresh
//! slice of the hypothesis), so the paper's "superfluous run" case cannot
//! arise: only invalidation cancels.

use crate::continuous::SpeculationController;
use crate::multibuffer::{SeqPartitionPool, CANONICAL_SEQ};
use crate::run_tracker::{RunInfo, RunTracker};
use crate::PipeInferConfig;
use pi_model::{Batch, Pos, SeqId, Token, TokenTree, TreeNodeId};
use pi_spec::{CacheOp, GenConfig, GenerationRecord, RunId, RunKind, TreeTopology};

/// Runs the head keeps in flight when every rank is a thread of one process
/// (`HeadParts::ranks_share_host`): the run establishing the next
/// expectation and one speculating past it.  That is the schedule the Real
/// path ran while its drafter was slower than the target pipeline; with the
/// drafter cheap, an unbudgeted head speculates as deep as the controller
/// lets it at the same tokens/s, drafting twice the tokens per accepted
/// one (README, "The draft model on the Real path").  Simulated deployments
/// stay unbudgeted.
const SHARED_HOST_RUN_BUDGET: usize = 2;

/// What one more speculative run costs when the ranks share a host, in
/// verified tokens: the gate opens for a run expected to add at least this
/// many (`SpeculationController::expected_yield`).  The paper prices a
/// speculative run at nothing — it fills stages that would idle — and where
/// every rank owns its node that is the price here too.  On shared cores the
/// run's weight pass and its draft are taken from the run that establishes
/// the next token.  Placed from measurement (2 vCPUs, 4 rank threads and the
/// hosted drafter, `benchmark/`'s `bp256` pair; README "Yield against
/// price" lists the runs): with the draft accepted 0.04 of the time the
/// unpriced head ran at 0.78x iterative decode on 1.91 runs a token, 0.47 of
/// them cancelled; priced at 0.5 it runs at 0.89x on 1.16 (`gen_tok_s` 342
/// -> 408, ten of ten pairs).  At depth 2 this closes the gate for
/// p̂ < 0.37 at the frontier and p̂ < 0.57 one unverified token ahead, and
/// the pair accepted three times in four keeps its schedule (0.720 -> 0.718
/// runs a token, run acceptance 0.765 -> 0.766).  0.25 costs the first pair
/// 6 % more CPU a token (1.25 runs, 0.18 cancelled) and 1.0 reads the same
/// as 0.5 on both: the least price that stops paying for rejected runs.
const SHARED_HOST_RUN_PRICE: f64 = 0.5;

/// While no run covers its price the head still probes, or a draft that
/// starts tracking the target again would never be noticed: one speculative
/// run once this many tokens were emitted since the last, doubled by each
/// probe the target accepts nothing of, reset by one it accepts from.
/// Tokens, not seconds: the machine reads no clock.
const PROBE_GAP_MIN: usize = 2;
const PROBE_GAP_MAX: usize = 32;

/// KV-cache sequence partitions for speculative runs, one per leaf of every
/// run in flight (sequence 0 is the canonical one): twice the controller's
/// 16-token horizon, so chains never wait for one, and a full pool only
/// defers a tree run (backpressure in `offer`).
const N_SEQ_PARTITIONS: usize = 32;

/// What to draft next: a `width`×`depth` tree under confidence `cutoff`.
#[derive(Debug, Clone, Copy)]
pub struct DraftAsk {
    /// Root-level branches.
    pub width: usize,
    /// Tokens along the primary spine.
    pub depth: usize,
    /// Confidence below which the drafter stops.
    pub cutoff: f32,
}

/// One effect of a transition, for the driver to carry out.  Order matters:
/// it is the order the pipeline must see the cache ops and runs in, and the
/// order costs are charged and tokens time-stamped in.
#[derive(Debug)]
pub enum Step {
    /// Apply `op` locally and pipeline it to every other stage.
    Cache(CacheOp),
    /// Evaluate `batch` as run `run_id` and send it down the pipeline.
    Launch {
        run_id: RunId,
        kind: RunKind,
        batch: Batch,
        /// Parent links, for genuine trees only (chains keep their topology
        /// implicit in batch order).
        topology: Option<TreeTopology>,
        n_nodes: u32,
        width: u32,
        depth: u32,
    },
    /// A token was appended to the record: stamp its acceptance time.
    Emit,
    /// An invalidation sweep ran: back-propagate cancellation for
    /// `cancelled`, drop any draft request in flight; `rescued` survived
    /// through a sibling branch.
    Swept {
        cancelled: Vec<RunId>,
        rescued: Option<RunId>,
    },
    /// Trace only: the run being verified rescued its own round through a
    /// sibling branch.
    Rescued(RunId),
    /// Trace only: a speculative run was verified with `accepted` tokens on
    /// its accepted path.
    Verified { run_id: RunId, accepted: u32 },
    /// Trace only: the acceptance estimate (in per-mille) crossed the point
    /// where a run at the frontier covers its price, and speculation yielded
    /// to probing (`open` false) or resumed.
    Gate { open: bool, estimate_permille: u32 },
}

/// One request's asynchronous speculation state.
pub struct AsyncRounds {
    n_generate: usize,
    /// `micro_width > 1`: runs are genuine trees and the record keeps tree
    /// statistics.
    tree_micro: bool,
    controller: SpeculationController,
    pool: SeqPartitionPool,
    tracker: RunTracker,
    /// Accepted tokens (prompt included).  The last one may still be
    /// unevaluated (the pending token).
    accepted: Vec<Token>,
    /// Accepted tokens followed by the primary spine of every launched,
    /// unresolved speculative tree — the current best guess of the
    /// generation.  Always has `accepted` as a prefix.
    hypothesis: Vec<Token>,
    prompt_done: bool,
    /// Leading prompt tokens already resident in every stage's KV cache (via
    /// a shared page pool); prefill covers only the remaining suffix.
    prompt_cached: usize,
    /// Runs (of either kind) in flight at which speculation stops.
    run_budget: usize,
    /// Expected tokens a speculative run must add to be launched.
    run_price: f64,
    /// Not even a run at the frontier covers `run_price`: only probes go out.
    gate_closed: bool,
    /// Emitted tokens between probes while the gate is closed, and how many
    /// were emitted since the last one.
    probe_gap: usize,
    since_probe: usize,
    next_run_id: RunId,
    record: GenerationRecord,
    steps: Vec<Step>,
}

impl AsyncRounds {
    /// A request that has not started.  `prompt_cached` leading prompt
    /// tokens are skipped by prefill (clamped to leave the last one for live
    /// evaluation).  Where `ranks_share_host`, speculation is budgeted and
    /// priced on top of the controller's own gates
    /// (tokens speculated ahead, the cutoff gradient, free KV partitions):
    /// at most two runs in flight, the least that still speculates, and only
    /// runs expected to pay for the cores they take.
    pub fn new(
        gen_config: GenConfig,
        config: &PipeInferConfig,
        prompt_cached: usize,
        ranks_share_host: bool,
    ) -> Self {
        let (run_budget, run_price) = if ranks_share_host {
            (SHARED_HOST_RUN_BUDGET, SHARED_HOST_RUN_PRICE)
        } else {
            (usize::MAX, 0.0)
        };
        Self {
            controller: SpeculationController::new(config, gen_config.confidence_cutoff),
            pool: SeqPartitionPool::new(N_SEQ_PARTITIONS),
            tracker: RunTracker::new(),
            tree_micro: config.micro_width > 1,
            hypothesis: gen_config.prompt.clone(),
            accepted: gen_config.prompt,
            prompt_done: false,
            prompt_cached,
            run_budget,
            run_price,
            gate_closed: false,
            probe_gap: PROBE_GAP_MIN,
            since_probe: 0,
            next_run_id: 0,
            record: GenerationRecord::default(),
            steps: Vec::new(),
            n_generate: gen_config.n_generate,
        }
    }

    /// The same request over a pool of `n_partitions`, small enough for a
    /// test to exhaust.
    #[cfg(test)]
    pub(crate) fn with_partitions(mut self, n_partitions: usize) -> Self {
        self.pool = SeqPartitionPool::new(n_partitions);
        self
    }

    /// Launches the prompt run.
    pub fn start(&mut self) {
        assert!(!self.accepted.is_empty(), "prompt must not be empty");
        let cached = self.prompt_cached.min(self.accepted.len() - 1);
        let suffix = self.accepted[cached..].to_vec();
        self.launch_chain(&suffix, cached as Pos);
    }

    /// The steps appended since the last call, for the driver to execute.
    pub fn take_steps(&mut self) -> Vec<Step> {
        std::mem::take(&mut self.steps)
    }

    /// The record so far (the driver owns its time stamps).
    pub fn record(&self) -> &GenerationRecord {
        &self.record
    }

    /// The record, for the driver to stamp times and count its own draft
    /// transactions in.
    pub fn record_mut(&mut self) -> &mut GenerationRecord {
        &mut self.record
    }

    /// The tokens a drafter continues.
    pub fn hypothesis(&self) -> &[Token] {
        &self.hypothesis
    }

    /// Whether the prompt run has returned.
    pub fn prompt_done(&self) -> bool {
        self.prompt_done
    }

    /// Whether the request has its `n_generate` tokens.
    pub fn is_done(&self) -> bool {
        self.record.tokens.len() >= self.n_generate
    }

    /// The runs in flight.
    pub fn tracker(&self) -> &RunTracker {
        &self.tracker
    }

    /// The sequence-partition pool.
    pub fn pool(&self) -> &SeqPartitionPool {
        &self.pool
    }

    /// The speculation gate: `Some` iff another speculative run may be
    /// launched right now — the prompt is done, the run budget has room, the
    /// controller's gate is open, and the run is expected to add what a run
    /// costs here or a probe is due.
    pub fn draft_ask(&self) -> Option<DraftAsk> {
        let ahead = self.hypothesis.len() - self.accepted.len();
        let may = self.prompt_done
            && self.tracker.len() < self.run_budget
            && self.controller.should_request(
                ahead,
                self.tracker.active_speculative(),
                self.pool.available(),
            );
        let probe_due = self.gate_closed && self.since_probe >= self.probe_gap;
        (may && (self.pays(ahead) || probe_due)).then(|| {
            let (width, depth) = self.controller.shape();
            DraftAsk {
                width,
                depth,
                cutoff: self.controller.cutoff(),
            }
        })
    }

    /// Whether the run `draft_ask` would name, drafted `ahead` unverified
    /// tokens past the frontier, is expected to add at least the price of a
    /// run.
    fn pays(&self, ahead: usize) -> bool {
        let (_, depth) = self.controller.shape();
        self.controller.expected_yield(ahead, depth) >= self.run_price
    }

    /// Reports a resolved speculative run to the controller's memories and
    /// moves the gate with the estimate: closed while a run drafted right at
    /// the frontier, the best case, would not cover its price.
    fn observe(&mut self, spine_accepted: usize, span: usize) {
        self.controller.observe_shape(spine_accepted, span);
        if self.gate_closed {
            // What resolves now went out as a probe (or just before the gate
            // closed, which teaches the same).
            self.probe_gap = if spine_accepted > 0 {
                PROBE_GAP_MIN
            } else {
                (2 * self.probe_gap).min(PROBE_GAP_MAX)
            };
        }
        let closed = !self.pays(0);
        if closed == self.gate_closed {
            return;
        }
        self.gate_closed = closed;
        if closed {
            self.record.spec_gate_closures += 1;
            self.probe_gap = PROBE_GAP_MIN;
            self.since_probe = 0;
        }
        self.steps.push(Step::Gate {
            open: !closed,
            estimate_permille: (self.controller.estimate() * 1000.0).round() as u32,
        });
    }

    /// Offers `tree`, drafted as a continuation of the first `context_len`
    /// hypothesis tokens.  If the hypothesis has grown since (accepted
    /// tokens extended it — an invalidation would have withdrawn the
    /// request), the part of the tree below the gap is salvaged when the
    /// tree covers the gap exactly, and the draft counted stale otherwise.
    /// What remains is launched as a speculative run on its own partition
    /// block unless the gate has closed meanwhile or no block is free: that
    /// is backpressure, not staleness, and the draft is simply asked for
    /// again when the gate reopens.
    ///
    /// Runner-up roots must be leaves, the shape `Drafter::draft_tree`
    /// documents: a run rescued through one is not followed below it, so
    /// anything drafted there would overlap the next run's positions.
    pub fn offer(&mut self, mut tree: TokenTree, context_len: usize) {
        if tree.is_empty() {
            return;
        }
        debug_assert!(
            tree.roots()[1..]
                .iter()
                .all(|&root| tree.nodes()[root].children.is_empty()),
            "runner-up roots must be leaves"
        );
        if context_len != self.hypothesis.len() {
            let Some(tail) = self.salvage(&tree, context_len) else {
                self.record.draft_stale += 1;
                return;
            };
            tree = tail;
            self.record.draft_salvaged += 1;
        }
        if self.draft_ask().is_none() {
            return;
        }
        let probe = !self.pays(self.hypothesis.len() - self.accepted.len());
        self.controller.on_iteration();
        let n_leaves = tree.n_sequences();
        let Some(first_seq) = self.pool.alloc_block(n_leaves) else {
            return;
        };
        if probe {
            self.record.spec_probes += 1;
            self.since_probe = 0;
        }
        // Every leaf partition starts from the shared prefix: the latest
        // in-flight speculative partition already holds canonical + all
        // prior speculated entries along the hypothesis (§IV-C3).
        let src = self
            .tracker
            .latest_speculative_seq()
            .unwrap_or(CANONICAL_SEQ);
        for leaf in 0..n_leaves as SeqId {
            self.steps.push(Step::Cache(CacheOp::SeqCp {
                src,
                dst: first_seq + leaf,
                p0: 0,
                p1: Pos::MAX,
            }));
        }
        let base = self.hypothesis.len() as Pos;
        let spine = tree.spine();
        self.record.drafted += tree.len();
        if self.tree_micro {
            self.record.tree_rounds += 1;
            self.record.tree_nodes += tree.len();
            self.record
                .tree_shapes
                .push((tree.roots().len(), spine.len()));
        }
        // The hypothesis follows the primary spine; sibling branches ride
        // along as hedges.
        self.hypothesis
            .extend(spine.iter().map(|&node| tree.nodes()[node].token));
        self.launch(RunInfo::tree(self.next_run_id, tree, base, first_seq));
    }

    /// Claims the returned run `run_id` for verification.  `None` when there
    /// is nothing to verify: the run was cancelled (its block is rolled
    /// back), or the result repeats a run already absorbed — results return
    /// in launch order, so an id below the FIFO front, or any id with
    /// nothing in flight, is a duplicated delivery.  An id *above* the front
    /// means a result was lost and still panics.
    pub fn take(&mut self, run_id: RunId) -> Option<RunInfo> {
        let front = self.tracker.iter().next()?.run_id;
        if run_id < front {
            return None;
        }
        let info = self.tracker.pop_expect(run_id);
        if info.cancelled {
            self.release(&info, None);
            return None;
        }
        Some(info)
    }

    /// The tokens preceding `info`'s batch: what the output head evaluates
    /// it against.
    pub fn context(&self, info: &RunInfo) -> &[Token] {
        &self.accepted[..info.base_pos as usize]
    }

    /// Absorbs the target's verdict on a [`take`](Self::take)n run:
    /// `greedy[i]` is its true next token after batch entry `i`'s
    /// root-to-entry path.
    pub fn absorb(&mut self, info: RunInfo, greedy: &[Token]) {
        if !self.prompt_done {
            self.prompt_done = true;
            // The token sampled from prompt processing is not counted as
            // generated (paper TTFT definition) but becomes the pending
            // token.
            let pending = *greedy.last().expect("prompt batch is non-empty");
            self.accepted.push(pending);
            self.hypothesis.push(pending);
            self.launch_chain(&[pending], (self.accepted.len() - 1) as Pos);
            return;
        }
        match info.kind {
            RunKind::NonSpeculative => self.resolve_expected(greedy[0]),
            RunKind::Speculative => self.resolve_speculative(info, greedy),
        }
    }

    /// Launches `info`, which carries `next_run_id`.
    fn launch(&mut self, info: RunInfo) {
        debug_assert_eq!(info.run_id, self.next_run_id);
        self.next_run_id += 1;
        self.record.runs_launched += 1;
        self.steps.push(Step::Launch {
            run_id: info.run_id,
            kind: info.kind,
            batch: info.batch(),
            topology: (info.n_seqs > 1).then(|| TreeTopology::from_tree(&info.tree)),
            n_nodes: info.tree.len() as u32,
            width: info.tree.roots().len() as u32,
            depth: info.tree.spine().len() as u32,
        });
        self.tracker.push(info);
    }

    /// Launches a non-speculative run (prompt, pending token) into the
    /// canonical sequence.
    fn launch_chain(&mut self, tokens: &[Token], base_pos: Pos) {
        let (id, kind) = (self.next_run_id, RunKind::NonSpeculative);
        self.launch(RunInfo::chain(id, kind, tokens, base_pos, CANONICAL_SEQ));
    }

    /// The subtree of `tree` that still continues the hypothesis, given that
    /// `tree` was drafted after its first `context_len` tokens only.
    fn salvage(&self, tree: &TokenTree, context_len: usize) -> Option<TokenTree> {
        let gap = self.hypothesis.get(context_len..)?;
        let mut level = tree.roots();
        let mut last = None;
        for &tok in gap {
            let hit = *level.iter().find(|&&id| tree.nodes()[id].token == tok)?;
            last = Some(hit);
            level.clone_from(&tree.nodes()[hit].children);
        }
        last.map(|node| tree.subtree_below(node))
            .filter(|tail| !tail.is_empty())
    }

    /// Accepts `token` at the frontier.  `covered` says an in-flight run
    /// already evaluates it (speculated in anticipation, or on a rescued
    /// sibling branch) and will supply the next expectation; otherwise its
    /// own non-speculative run is launched to keep the pipeline busy.
    fn accept(&mut self, token: Token, covered: bool) {
        self.emit(token);
        if covered {
            self.controller.on_accept();
        } else {
            self.launch_chain(&[token], (self.accepted.len() - 1) as Pos);
        }
    }

    fn emit(&mut self, token: Token) {
        self.accepted.push(token);
        if self.hypothesis.len() < self.accepted.len() {
            self.hypothesis.push(token);
        }
        self.record.tokens.push(token);
        self.since_probe += 1;
        self.steps.push(Step::Emit);
    }

    /// Cancellation sweep: in-flight speculative runs from `pos` on are
    /// invalid.  When `rescue` carries the accepted token for `pos`, a run
    /// whose sibling branch holds it survives; returns `true` iff one did.
    fn sweep(&mut self, pos: Pos, rescue: Option<Token>) -> bool {
        let outcome = self.tracker.invalidate_from(pos, rescue);
        self.record.runs_cancelled += outcome.cancelled.len();
        self.record.runs_rescued += usize::from(outcome.rescued.is_some());
        self.controller.on_failure_while_idle();
        self.hypothesis.truncate(pos as usize);
        let rescued = outcome.rescued.is_some();
        self.steps.push(Step::Swept {
            cancelled: outcome.cancelled,
            rescued: outcome.rescued,
        });
        rescued
    }

    /// A divergence at the frontier: invalidate the contradicted
    /// speculation, then accept `correction` — through the rescued sibling
    /// branch when one survives, through a fresh run otherwise.
    ///
    /// `observe_rejection` is set when no surviving run will report the
    /// divergence to the shape model (the anticipation path): if the sweep
    /// cancels the covering run outright the spine rejection is registered
    /// here — a rescued run reports its own outcome later, and a
    /// within-walk mismatch was already observed by the walking run.
    fn correct_frontier(&mut self, correction: Token, observe_rejection: bool) {
        let pos = self.accepted.len() as Pos;
        let rescued = self.sweep(pos, Some(correction));
        if observe_rejection && !rescued {
            self.observe(0, 1);
        }
        self.accept(correction, rescued);
    }

    /// The target's true token `e` for position `accepted.len()` is known.
    fn resolve_expected(&mut self, e: Token) {
        match self.hypothesis.get(self.accepted.len()) {
            // Nothing covers the position.
            None => self.accept(e, false),
            // Already speculated, its verification run in flight — but it is
            // the target's own choice, so it is known correct right now:
            // accept it in anticipation (§II-A2), which keeps TTFT at
            // iterative levels.
            Some(&h) if h == e => self.accept(e, true),
            // Speculation diverged.  Unless a sibling branch rescues it, the
            // covering run is about to be cancelled and will never report
            // its own outcome.
            Some(_) => self.correct_frontier(e, true),
        }
    }

    /// Releases a speculative run's partition block, committing the accepted
    /// root-to-leaf path into the canonical sequence first when there is
    /// one: `committed` is the path's leaf partition and one past its last
    /// accepted position.
    fn release(&mut self, info: &RunInfo, committed: Option<(SeqId, Pos)>) {
        if info.n_seqs == 0 {
            return;
        }
        let (first, n_seqs) = (info.first_seq, info.n_seqs as u32);
        self.steps.push(Step::Cache(match committed {
            Some((path, p1)) => CacheOp::BranchCommit {
                dst: CANONICAL_SEQ,
                path,
                first,
                n_seqs,
                p0: info.base_pos,
                p1,
            },
            None => CacheOp::BranchRollback { first, n_seqs },
        }));
        self.pool.free_block(info.first_seq, info.n_seqs);
    }

    /// Verifies a returned speculative run: walks the deepest branch
    /// consistent with the accepted tokens (confirming tokens accepted in
    /// anticipation or through a rescue) and the target's greedy choices
    /// (accepting fresh ones), commits the accepted path — the buffer swap
    /// of §IV-C at branch granularity — and resolves the expectation the
    /// walk ends with.  For a chain this is the longest-prefix rule.
    fn resolve_speculative(&mut self, info: RunInfo, greedy: &[Token]) {
        let nodes = info.tree.nodes();
        let mut level: Vec<TreeNodeId> = info.tree.roots();
        let mut pos = info.base_pos as usize;
        // The target's choice after the last walked node.  The first walked
        // position is always accepted already: the run before this one
        // established it.
        let mut exp: Option<Token> = None;
        let mut path: Vec<TreeNodeId> = Vec::new();
        let mut mismatch = false;
        // Set once the walk accepts a node off the hypothesis (a sibling
        // branch rescuing the round synchronously): everything speculated
        // after that position descends from the rejected spine.
        let mut deviated = false;
        while !level.is_empty() {
            let fresh = pos >= self.accepted.len();
            let want = if fresh {
                exp.expect("speculative result arrived before its expectation was established")
            } else {
                self.accepted[pos]
            };
            let Some(&hit) = level.iter().find(|&&id| nodes[id].token == want) else {
                // No branch lies on the already-accepted path: the run
                // contributed nothing and a covering run is in flight (it
                // should have been cancelled).
                debug_assert!(fresh, "uncancelled run off the accepted path");
                mismatch = fresh;
                break;
            };
            if fresh {
                debug_assert_eq!(pos, self.accepted.len(), "walk positions are contiguous");
                if !deviated && self.hypothesis.get(pos).is_some_and(|&h| h != want) {
                    // The target chose a sibling branch over the spine: the
                    // hypothesis past here, and every run drafted on it, is
                    // invalid, but this run's surviving branch keeps the
                    // round alive.
                    deviated = true;
                    self.record.runs_rescued += 1;
                    self.steps.push(Step::Rescued(info.run_id));
                    self.sweep(pos as Pos, None);
                }
                self.emit(want);
            }
            path.push(hit);
            exp = Some(greedy[hit]);
            level.clone_from(&nodes[hit].children);
            pos += 1;
        }
        let confirmed = path.len();
        self.record.accepted_drafts += confirmed;
        if self.tree_micro {
            self.record.tree_accepted_path += confirmed;
        }
        self.steps.push(Step::Verified {
            run_id: info.run_id,
            accepted: confirmed as u32,
        });
        // The shape model tracks the primary spine: a round rescued by a
        // runner-up still rejected the primary candidate.
        let spine_accepted = path
            .iter()
            .zip(info.tree.spine())
            .take_while(|(walked, spine_node)| *walked == spine_node)
            .count();
        self.observe(spine_accepted, info.tree.span());

        let committed = path.last().map(|&deepest| {
            let leaf_seq = info.tree.assign_sequences(info.first_seq)[deepest][0];
            (leaf_seq, info.base_pos + confirmed as Pos)
        });
        if committed.is_some() {
            self.controller.on_accept();
        }
        self.release(&info, committed);

        if pos < self.accepted.len() {
            // The walk ended behind the frontier: nothing new was learned.
            return;
        }
        let e = exp.expect("non-empty run always yields an expectation");
        if mismatch {
            // Everything speculated past the accepted prefix is invalid —
            // except a sibling branch of a later run that carries the
            // correction itself.  This run already reported the rejection to
            // the shape model above.
            self.correct_frontier(e, false);
        } else {
            self.resolve_expected(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_model::OracleTarget;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::collections::{BTreeMap, VecDeque};

    const VOCAB: u32 = 32000;
    const PROMPT: [Token; 5] = [3, 1, 4, 1, 5];

    fn gen_config(n_generate: usize) -> GenConfig {
        GenConfig::small_test(PROMPT.to_vec(), n_generate)
    }

    #[test]
    fn run_budget_closes_the_speculation_gate() {
        let in_flight_at_close = |budget: Option<usize>| {
            let mut rounds = AsyncRounds::new(
                gen_config(8),
                &PipeInferConfig::default(),
                0,
                budget.is_some(),
            );
            rounds.run_budget = budget.unwrap_or(rounds.run_budget);
            rounds.prompt_done = true;
            let mut in_flight = 0;
            while rounds.draft_ask().is_some() && in_flight < 12 {
                let run = RunInfo::chain(in_flight, RunKind::Speculative, &[7], 0, 1);
                rounds.tracker.push(run);
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

    /// The pipeline, the target and the drafters of one request, played by
    /// the test: launched runs queue up and are answered in order with the
    /// oracle's greedy tokens; every step the machine emits is checked
    /// against what the steps before it set up.
    struct Harness {
        rounds: AsyncRounds,
        oracle: OracleTarget,
        rng: StdRng,
        /// Launched runs whose results have not been delivered.
        in_pipeline: VecDeque<RunId>,
        delivered: Vec<RunId>,
        /// `SeqCp` destinations seen since the last launch.
        seeded: Vec<SeqId>,
        /// Partition blocks of launched speculative runs not yet committed
        /// or rolled back: first partition → size.
        open_blocks: BTreeMap<SeqId, u32>,
        emitted: usize,
        /// A tree drafted earlier, to be offered late: the remote drafter's
        /// response in flight.
        late: Option<(TokenTree, usize)>,
        /// Per-token probability that the drafter hits the target's choice
        /// for the `i`-th generated token; `None` draws one of four per
        /// draft.
        alignment: fn(usize) -> Option<f64>,
        /// Tokens emitted when each speculative run was launched.
        speculated_at: Vec<usize>,
        /// Every step so far, as the driver saw it.
        log: Vec<String>,
        /// The gate as the `Gate` steps so far leave it.
        gate_open: bool,
    }

    impl Harness {
        fn new(seed: u64) -> Self {
            let mut rng = StdRng::seed_from_u64(seed);
            let n_partitions = [3, 8, N_SEQ_PARTITIONS][rng.gen_range(0..3usize)];
            let config = if rng.gen_bool(0.5) {
                PipeInferConfig::tree_micro()
            } else {
                PipeInferConfig::default()
            };
            let budget = [None, Some(2), Some(4)][rng.gen_range(0..3usize)];
            let cached = rng.gen_range(0..3usize);
            let mut h = Self::with(seed, &config, cached, budget.is_some(), 40);
            h.rounds = h.rounds.with_partitions(n_partitions);
            h.rounds.run_budget = budget.unwrap_or(usize::MAX);
            h.rng = rng;
            h
        }

        fn with(
            seed: u64,
            config: &PipeInferConfig,
            cached: usize,
            ranks_share_host: bool,
            n_generate: usize,
        ) -> Self {
            Self {
                rounds: AsyncRounds::new(gen_config(n_generate), config, cached, ranks_share_host),
                oracle: OracleTarget::new(seed ^ 77, VOCAB),
                rng: StdRng::seed_from_u64(seed),
                in_pipeline: VecDeque::new(),
                delivered: Vec::new(),
                seeded: Vec::new(),
                open_blocks: BTreeMap::new(),
                emitted: 0,
                late: None,
                alignment: |_| None,
                speculated_at: Vec::new(),
                log: Vec::new(),
                gate_open: true,
            }
        }

        /// A `width`×`depth` tree continuing `context`, in the shape
        /// `Drafter::draft_tree` documents: the spine follows the target with
        /// probability `alignment` per token, and when its root misses, a
        /// runner-up root (a leaf) usually carries the true token.
        fn draft(&mut self, context: &[Token], width: usize, depth: usize) -> TokenTree {
            let mixed = [0.0, 0.4, 0.8, 1.0][self.rng.gen_range(0..4usize)];
            let mut tree = TokenTree::new();
            let mut path = context.to_vec();
            let truth = self.oracle.next_token(&path);
            let mut parent = None;
            for _ in 0..depth {
                let want = self.oracle.next_token(&path);
                let generated = path.len() - PROMPT.len();
                let hit = self
                    .rng
                    .gen_bool((self.alignment)(generated).unwrap_or(mixed));
                let token = if hit { want } else { (want + 1) % VOCAB };
                parent = Some(tree.add(parent, token, 0.9));
                path.push(token);
            }
            let Some(spine_root) = tree.nodes().first().map(|root| root.token) else {
                return tree;
            };
            for w in 1..width {
                let token = if w == 1 && spine_root != truth && self.rng.gen_bool(0.8) {
                    truth
                } else {
                    (truth + 1 + w as u32) % VOCAB
                };
                tree.add(None, token, 0.3);
            }
            tree
        }

        /// Checks the steps of the last transition and plays the driver's
        /// part in them.
        fn settle(&mut self) {
            for step in self.rounds.take_steps() {
                self.log.push(format!("{step:?}"));
                match step {
                    Step::Cache(CacheOp::SeqCp { dst, p0, p1, .. }) => {
                        assert_eq!((p0, p1), (0, Pos::MAX));
                        self.seeded.push(dst);
                    }
                    Step::Cache(
                        CacheOp::BranchCommit { first, n_seqs, .. }
                        | CacheOp::BranchRollback { first, n_seqs },
                    ) => {
                        let opened = self.open_blocks.remove(&first);
                        assert_eq!(opened, Some(n_seqs), "closes a block that is open");
                    }
                    Step::Cache(op) => panic!("unexpected {op:?}"),
                    Step::Launch {
                        run_id,
                        kind,
                        batch,
                        topology,
                        ..
                    } => {
                        assert_eq!(
                            Some(run_id),
                            self.in_pipeline
                                .back()
                                .or(self.delivered.last())
                                .map(|r| r + 1)
                                .or(Some(0)),
                            "run ids count up"
                        );
                        let mut seqs: Vec<SeqId> =
                            batch.iter().flat_map(|e| e.seq_ids.clone()).collect();
                        seqs.sort_unstable();
                        seqs.dedup();
                        if kind == RunKind::Speculative {
                            // One private partition per leaf, each seeded
                            // with the shared prefix just before the launch.
                            let mut seeded = std::mem::take(&mut self.seeded);
                            seeded.sort_unstable();
                            assert_eq!(seeded, seqs, "one SeqCp per leaf partition");
                            assert!(seqs.windows(2).all(|w| w[1] == w[0] + 1), "one block");
                            assert_eq!(topology.is_some(), seqs.len() > 1);
                            let clash = self.open_blocks.insert(seqs[0], seqs.len() as u32);
                            assert_eq!(clash, None, "block handed out twice");
                            self.speculated_at.push(self.emitted);
                        } else {
                            assert!(self.seeded.is_empty());
                            assert_eq!(seqs, [CANONICAL_SEQ]);
                        }
                        self.in_pipeline.push_back(run_id);
                    }
                    Step::Emit => self.emitted += 1,
                    // The link withdraws the request whose hypothesis died.
                    Step::Swept { .. } => self.late = None,
                    Step::Rescued(_) | Step::Verified { .. } => {}
                    Step::Gate { open, .. } => {
                        assert!(self.rounds.run_price > 0.0, "a free run always pays");
                        assert_ne!(open, self.gate_open, "every move is reported once");
                        self.gate_open = open;
                    }
                }
            }
            let rounds = &self.rounds;
            assert_eq!(self.gate_open, !rounds.gate_closed);
            assert_eq!(self.emitted, rounds.record().tokens.len());
            let held: usize = rounds.tracker().iter().map(|run| run.n_seqs).sum();
            assert_eq!(rounds.pool().in_use(), held, "partitions are conserved");
            let open: u32 = self.open_blocks.values().sum();
            assert_eq!(
                open as usize, held,
                "a block closes exactly when its run leaves"
            );
            assert!(rounds.hypothesis().starts_with(&rounds.accepted));
            assert!(
                rounds.draft_ask().is_none() || rounds.tracker().len() < rounds.run_budget,
                "the gate never opens with the budget full"
            );
            let truth = self.oracle.generate(&PROMPT, self.emitted + 1);
            assert_eq!(
                rounds.record().tokens,
                truth[1..],
                "the target's continuation"
            );
        }

        /// Delivers the oldest result in the pipeline.
        fn deliver(&mut self) {
            let Some(run_id) = self.in_pipeline.pop_front() else {
                return;
            };
            self.delivered.push(run_id);
            if let Some(info) = self.rounds.take(run_id) {
                let context = self.rounds.context(&info).to_vec();
                let mut paths: Vec<Vec<Token>> = Vec::new();
                let mut greedy = Vec::new();
                for node in info.tree.nodes() {
                    let mut path = node.parent.map_or(context.clone(), |p| paths[p].clone());
                    path.push(node.token);
                    greedy.push(self.oracle.next_token(&path));
                    paths.push(path);
                }
                self.rounds.absorb(info, &greedy);
            }
            self.settle();
        }

        /// The hosted head's schedule: speculate while the gate is open, then
        /// take the oldest result.
        fn pump(&mut self) {
            while let Some(ask) = self.rounds.draft_ask() {
                let context = self.rounds.hypothesis().to_vec();
                let tree = self.draft(&context, ask.width, ask.depth);
                self.rounds.offer(tree, context.len());
                self.settle();
            }
            self.deliver();
        }

        /// A chain request on a shared host under the hosted head's
        /// schedule, `check`ed after every result.
        fn run_shared_host(
            n_generate: usize,
            alignment: fn(usize) -> Option<f64>,
            mut check: impl FnMut(&Harness),
        ) -> Harness {
            let mut h = Self::with(9, &PipeInferConfig::default(), 0, true, n_generate);
            h.alignment = alignment;
            h.rounds.start();
            h.settle();
            while !h.rounds.is_done() {
                h.pump();
                check(&h);
            }
            h
        }

        /// One random event.
        fn step(&mut self) {
            match self.rng.gen_range(0..10) {
                0..=3 => self.deliver(),
                // A duplicated delivery of a result already absorbed.
                4 if !self.delivered.is_empty() => {
                    let again = self.delivered[self.rng.gen_range(0..self.delivered.len())];
                    assert_eq!(self.rounds.take(again), None);
                    assert!(self.rounds.take_steps().is_empty());
                    self.settle();
                }
                // The hosted drafter: drafts on the hypothesis as it is.
                5..=7 => {
                    if let Some(ask) = self.rounds.draft_ask() {
                        let context = self.rounds.hypothesis().to_vec();
                        let width = self.rng.gen_range(1..=ask.width);
                        let depth = self.rng.gen_range(0..=ask.depth);
                        let tree = self.draft(&context, width, depth.min(4));
                        self.rounds.offer(tree, context.len());
                        self.settle();
                    }
                }
                // The remote drafter: a request goes out now...
                8 if self.late.is_none() => {
                    if let Some(ask) = self.rounds.draft_ask() {
                        let context = self.rounds.hypothesis().to_vec();
                        let tree = self.draft(&context, ask.width, ask.depth.max(2));
                        self.late = Some((tree, context.len()));
                    }
                }
                // ...and its response arrives whenever.
                _ => {
                    if let Some((tree, context_len)) = self.late.take() {
                        self.rounds.offer(tree, context_len);
                        self.settle();
                    }
                }
            }
        }
    }

    #[test]
    fn random_interleavings_keep_the_stream_and_the_partitions() {
        let mut totals = GenerationRecord::default();
        // 200 seeds of random configuration under the mixed drafter, then
        // shared host on/off under drafters of fixed alignment.
        let fixed: [fn(usize) -> Option<f64>; 3] = [|_| Some(0.0), |_| Some(0.3), |_| Some(0.9)];
        let mixed = (0..200).map(|seed| (seed, None));
        let priced = (200..320).map(|seed| (seed, Some((seed % 2 == 0, fixed[seed as usize % 3]))));
        for (seed, case) in mixed.chain(priced) {
            let mut h = match case {
                None => Harness::new(seed),
                Some((ranks_share_host, alignment)) => {
                    let config = PipeInferConfig::default();
                    let mut h = Harness::with(seed, &config, 0, ranks_share_host, 40);
                    h.alignment = alignment;
                    h
                }
            };
            h.rounds.start();
            h.settle();
            let mut events = 0;
            while !h.rounds.is_done() {
                events += 1;
                assert!(events < 20_000, "seed {seed} did not converge");
                h.step();
                if h.in_pipeline.is_empty() {
                    panic!("seed {seed}: nothing in flight before the request is done");
                }
            }
            let r = h.rounds.record();
            totals.runs_cancelled += r.runs_cancelled;
            totals.runs_rescued += r.runs_rescued;
            totals.draft_salvaged += r.draft_salvaged;
            totals.draft_stale += r.draft_stale;
            totals.accepted_drafts += r.accepted_drafts;
            totals.spec_gate_closures += r.spec_gate_closures;
            totals.spec_probes += r.spec_probes;
            if h.rounds.run_price == 0.0 {
                assert_eq!((r.spec_gate_closures, r.spec_probes), (0, 0));
            }
        }
        // The schedule space covers every path worth covering.
        assert!(totals.runs_cancelled > 0 && totals.runs_rescued > 0);
        assert!(totals.draft_salvaged > 0 && totals.draft_stale > 0);
        assert!(totals.accepted_drafts > 0);
        assert!(totals.spec_gate_closures > 0 && totals.spec_probes > 0);
    }

    #[test]
    fn a_useless_drafter_is_probed_not_followed() {
        let h = Harness::run_shared_host(256, |_| Some(0.0), |_| {});
        let r = h.rounds.record();
        assert_eq!(r.accepted_drafts, 0);
        // One run per token establishes it; speculation adds the four runs
        // that talk the prior down and a probe per gap of 2, 4, 8, 16, 32,
        // 32, ... tokens.
        assert_eq!(
            h.speculated_at,
            [0, 1, 2, 3, 5, 9, 17, 33, 65, 97, 129, 161, 193, 225]
        );
        assert_eq!((r.spec_gate_closures, r.spec_probes), (1, 10));
        assert!(r.runs_launched * 4 <= 256 * 5, "{} runs", r.runs_launched);
        let longest = h.speculated_at.windows(2).map(|w| w[1] - w[0]).max();
        assert_eq!(longest, Some(PROBE_GAP_MAX), "{:?}", h.speculated_at);
        assert!(256 - h.speculated_at.last().unwrap() < 64);
    }

    #[test]
    fn the_gate_follows_a_drafter_that_comes_good_and_goes_bad_again() {
        const GOOD: std::ops::Range<usize> = 96..224;
        // (tokens emitted, gate closed, speculative runs so far) per result.
        let mut seen = Vec::new();
        let h = Harness::run_shared_host(
            320,
            |i| Some(if GOOD.contains(&i) { 1.0 } else { 0.0 }),
            |h| seen.push((h.emitted, h.rounds.gate_closed, h.speculated_at.len())),
        );
        let closed_at = |emitted: usize| seen.iter().find(|s| s.0 >= emitted).unwrap().1;
        assert!(closed_at(GOOD.start), "closed on the useless stretch");
        // Noticed within two probe caps, and then it stays open.
        let reopened = seen.iter().find(|s| s.0 >= GOOD.start && !s.1).unwrap();
        assert!(reopened.0 <= GOOD.start + 2 * PROBE_GAP_MAX, "{reopened:?}");
        let while_good = seen
            .iter()
            .filter(|s| (reopened.0..GOOD.end).contains(&s.0));
        assert!(while_good.clone().count() > 20 && while_good.clone().all(|s| !s.1));
        // Closed again within 24 rejected runs of the flip back.
        let flipped = seen.iter().rfind(|s| s.0 < GOOD.end).unwrap();
        let reclosed = seen.iter().find(|s| s.0 >= GOOD.end && s.1).unwrap();
        assert!(reclosed.2 - flipped.2 <= 24, "{flipped:?} {reclosed:?}");
        assert_eq!(h.rounds.record().spec_gate_closures, 2);
    }

    #[test]
    fn a_drafter_that_is_always_right_never_meets_the_price() {
        let priced = Harness::run_shared_host(
            128,
            |_| Some(1.0),
            |h| {
                assert!(!h.rounds.gate_closed);
            },
        );
        let mut free = Harness::with(9, &PipeInferConfig::default(), 0, true, 128);
        free.rounds.run_price = 0.0;
        free.alignment = |_| Some(1.0);
        free.rounds.start();
        free.settle();
        while !free.rounds.is_done() {
            free.pump();
        }
        assert_eq!(priced.log, free.log, "the budget-only machine's steps");
        let r = priced.rounds.record();
        assert_eq!((r.spec_gate_closures, r.spec_probes), (0, 0));
        assert!(r.runs_launched < 128);
    }
}
