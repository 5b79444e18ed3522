//! The PipeInfer head rank.
//!
//! Following the paper's deployment (Fig. 3), the head rank hosts the
//! sampling/verification logic, while the target model is split across the
//! remaining ranks — the target pipeline is therefore one node shorter than
//! under iterative inference, which is why the paper sometimes measures
//! *lower* TTFT than the iterative baseline.
//!
//! [`PipeInferHead`] decides nothing about speculation.  The algorithm of
//! §IV — asynchronous and continuous speculation, KV multibuffering, early
//! inference cancellation — is [`AsyncRounds`], a state machine that knows
//! no cluster; the head is its driver, as `pi_spec`'s `SyncHead` is
//! `SyncRounds`'.  It feeds the machine the two events a rank sees, and
//! executes the [`Step`]s each one yields, in order, against the engine and
//! the wire:
//!
//! * a returned run: [`AsyncRounds::take`], the output head's evaluation,
//!   [`AsyncRounds::absorb`];
//! * an idle probe that found no logits waiting (§IV-B): if
//!   [`AsyncRounds::draft_ask`] opens the gate, a tree is drafted and
//!   [`AsyncRounds::offer`]ed — by the drafter the head hosts, synchronously
//!   between probes, or by the dedicated draft rank of Fig. 3 through
//!   [`RemoteDraft`], whose response is offered when it arrives, so drafting
//!   overlaps with verification instead of stalling the head.
//!
//! With a draft rank the hosted drafter is a reserve: once the link gives
//! the rank up it takes over, and with neither the head degrades to
//! non-speculative pipelined decoding — which never deadlocks and only ever
//! emits target-verified tokens.
//!
//! ## Differences from the paper's implementation
//!
//! The paper's mid-evaluation cancellation probing is approximated by
//! checking the cancellation set when a decode transaction arrives at a
//! worker; a cancel signal can therefore save an entire stage evaluation but
//! not a fraction of one.  That is conservative: it can only understate
//! PipeInfer's benefit.

use crate::draft_link::{RemoteDraft, Verdict};
use crate::rounds::{AsyncRounds, Step};
use crate::PipeInferConfig;
use pi_cluster::{trace_if, EventKind, NodeBehavior, NodeCtx, Rank, Tag};
use pi_spec::deploy::{HeadParts, RecordHandle};
use pi_spec::message::tags;
use pi_spec::worker::record_kv_events;
use pi_spec::{
    ActivationPayload, CacheOp, Drafter, GenerationRecord, HeadEngine, PipeMsg, PipelineRoute,
    RunId, RunKind,
};
use std::collections::VecDeque;

/// The PipeInfer head rank: drives one request's [`AsyncRounds`].
pub struct PipeInferHead {
    route: PipelineRoute,
    engine: Box<dyn HeadEngine>,
    rounds: AsyncRounds,
    /// The drafter the head hosts: the only one under
    /// `DraftPlacement::HeadHosted`, the reserve behind `remote` otherwise.
    local: Option<Box<dyn Drafter>>,
    /// The link to the dedicated draft rank, kept once abandoned so the rank
    /// still gets its shutdown.
    remote: Option<RemoteDraft>,
    /// Back-propagate cancellation signals (off in the Fig. 8 ablation).
    enable_cancellation: bool,
    output: RecordHandle,
    finished: bool,
    /// Results produced locally when the head is the only pipeline stage.
    local_results: VecDeque<(RunId, ActivationPayload)>,
}

impl PipeInferHead {
    /// Creates the head rank from the deployment's parts: stage 0 of
    /// `parts.route` (typically holding an *empty* layer range), drafting
    /// with `parts.drafter` — or, when `draft_rank` names the dedicated
    /// draft rank, over the wire with that drafter held in reserve.  The
    /// final record is written to `parts.record`.
    pub fn new(parts: HeadParts, config: PipeInferConfig, draft_rank: Option<Rank>) -> Self {
        Self {
            route: parts.route,
            engine: parts.engine,
            rounds: AsyncRounds::new(
                parts.gen_config,
                &config,
                parts.prompt_cached,
                parts.ranks_share_host,
            ),
            local: parts.drafter,
            remote: draft_rank.map(|rank| RemoteDraft::new(rank, &config)),
            enable_cancellation: config.enable_cancellation,
            output: parts.record,
            finished: false,
            local_results: VecDeque::new(),
        }
    }

    /// Whether the head has given up on its dedicated draft rank (for the
    /// hosted reserve drafter, or for non-speculative decoding).
    pub fn failed_over(&self) -> bool {
        self.remote.as_ref().is_some_and(RemoteDraft::abandoned)
    }

    /// The record accumulated so far.
    pub fn record(&self) -> &GenerationRecord {
        self.rounds.record()
    }

    /// The request's speculation state (exposed for invariants in tests).
    pub fn rounds(&self) -> &AsyncRounds {
        &self.rounds
    }

    fn send_downstream(&self, ctx: &mut dyn NodeCtx<PipeMsg>, tag: Tag, msg: PipeMsg) {
        if let Some(next) = self.route.next_after(self.route.head()) {
            ctx.send(next, tag, msg);
        }
    }

    /// Carries out what the last transition decided, in its order.
    fn execute(&mut self, ctx: &mut dyn NodeCtx<PipeMsg>) {
        for step in self.rounds.take_steps() {
            match step {
                Step::Cache(op) => {
                    let cost = self.engine.apply_cache_op(0, &op);
                    ctx.elapse(cost);
                    match op {
                        CacheOp::BranchCommit { first, n_seqs, .. } => {
                            trace_if(ctx, || EventKind::BranchCommit { first, n_seqs });
                        }
                        CacheOp::BranchRollback { first, n_seqs } => {
                            trace_if(ctx, || EventKind::BranchRollback { first, n_seqs });
                        }
                        _ => {}
                    }
                    self.send_downstream(ctx, tags::CACHE, PipeMsg::Cache(op));
                }
                Step::Launch {
                    run_id,
                    kind,
                    batch,
                    topology,
                    n_nodes,
                    width,
                    depth,
                } => {
                    trace_if(ctx, || EventKind::RunSpawned {
                        run: run_id,
                        speculative: kind == RunKind::Speculative,
                        n_nodes,
                        width,
                        depth,
                    });
                    let (payload, cost) = self.engine.eval_first_stage(&batch);
                    ctx.elapse(cost);
                    trace_if(ctx, || EventKind::RunInflight { run: run_id });
                    let Some(next) = self.route.next_after(self.route.head()) else {
                        self.local_results.push_back((run_id, payload));
                        continue;
                    };
                    let msg = PipeMsg::Decode {
                        run_id,
                        kind,
                        batch,
                        payload,
                        tree: topology,
                    };
                    ctx.send(next, tags::DECODE, msg);
                }
                Step::Emit => {
                    let now = ctx.now();
                    self.rounds.record_mut().accept_times.push(now);
                }
                Step::Swept { cancelled, rescued } => {
                    for &run in &cancelled {
                        trace_if(ctx, || EventKind::RunInvalidated { run });
                    }
                    if let Some(run) = rescued {
                        trace_if(ctx, || EventKind::RunRescued { run });
                    }
                    if self.enable_cancellation && self.route.n_stages() > 1 {
                        for run_id in cancelled {
                            ctx.send(self.route.last(), tags::CANCEL, PipeMsg::Cancel { run_id });
                        }
                    }
                    // The hypothesis a pending draft continues is gone.
                    if self
                        .remote
                        .as_mut()
                        .is_some_and(|link| link.invalidate(ctx))
                    {
                        self.rounds.record_mut().draft_stale += 1;
                    }
                }
                Step::Rescued(run) => trace_if(ctx, || EventKind::RunRescued { run }),
                Step::Verified { run_id, accepted } => trace_if(ctx, || EventKind::RunVerified {
                    run: run_id,
                    accepted,
                }),
                Step::Gate {
                    open,
                    estimate_permille,
                } => trace_if(ctx, || EventKind::SpecGate {
                    open,
                    estimate_permille,
                }),
            }
        }
    }

    /// Checks the draft request in flight against its deadline.  A no-op
    /// for hosted drafting and fault-free timelines (the deadline dwarfs
    /// real round trips).
    fn poll_draft_deadline(&mut self, ctx: &mut dyn NodeCtx<PipeMsg>) {
        let link = self.remote.as_mut().filter(|_| !self.finished);
        if link.is_some_and(|link| link.poll(ctx) != Verdict::Nothing) {
            self.rounds.record_mut().draft_stale += 1;
        }
    }

    /// One iteration of continuous speculation: the probe found nothing, so
    /// if the gate is open obtain a tree micro-batch.  The hosted drafter
    /// drafts and offers synchronously; the draft rank is sent a request
    /// whose response is offered on arrival.  Returns `true` if useful work
    /// was performed.
    fn try_speculate(&mut self, ctx: &mut dyn NodeCtx<PipeMsg>) -> bool {
        if self.finished {
            return false;
        }
        let Some(ask) = self.rounds.draft_ask() else {
            return false;
        };
        let hypothesis = self.rounds.hypothesis();
        let link = self.remote.as_mut().filter(|link| !link.abandoned());
        match (link, &mut self.local) {
            (Some(link), _) => {
                let sent = link.request(ask, hypothesis, ctx);
                self.rounds.record_mut().draft_requests += usize::from(sent);
                sent
            }
            (None, Some(drafter)) => {
                let (tree, cost) =
                    drafter.draft_tree(hypothesis, &[], ask.width, ask.depth, ask.cutoff);
                ctx.elapse(cost);
                // An empty tree: the draft model is not confident enough
                // under the current cutoff gradient, so speculation stops
                // until verification catches up (a run completion resets the
                // cutoff).
                let drafted = !tree.is_empty();
                let context_len = hypothesis.len();
                self.rounds.offer(tree, context_len);
                self.execute(ctx);
                drafted
            }
            // Every draft source is exhausted: non-speculative decoding.
            (None, None) => false,
        }
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
        if let Some(info) = self.rounds.take(run_id) {
            let batch = info.batch();
            let context = self.rounds.context(&info);
            let (greedy, cost) = if info.n_seqs > 1 {
                let parents = info.tree.parents();
                self.engine
                    .finalize_tree(&batch, &payload, context, &parents)
            } else {
                self.engine.finalize(&batch, &payload, context)
            };
            ctx.elapse(cost);
            if !self.rounds.prompt_done() {
                self.rounds.record_mut().prompt_done_at = ctx.now();
            }
            self.rounds.absorb(info, &greedy);
        }
        self.execute(ctx);
        if self.rounds.is_done() {
            self.finish(ctx);
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
        self.rounds.record_mut().finished_at = ctx.now();
        record_kv_events(self.engine.take_kv_events(), ctx);
        self.send_downstream(ctx, tags::SHUTDOWN, PipeMsg::Shutdown);
        // The draft rank is shut down even once abandoned: it may be merely
        // partitioned or slow rather than dead (a genuinely dead rank simply
        // never receives it, and detects the orphaning itself).
        if let Some(link) = &self.remote {
            ctx.send(link.rank(), tags::SHUTDOWN, PipeMsg::Shutdown);
        }
        *self.output.lock().expect("record handle poisoned") = Some(self.rounds.record().clone());
        self.finished = true;
    }
}

impl NodeBehavior<PipeMsg> for PipeInferHead {
    fn on_start(&mut self, ctx: &mut dyn NodeCtx<PipeMsg>) {
        self.rounds.start();
        self.execute(ctx);
        // A hosted drafter evaluates the prompt while the target pipeline
        // does, instead of in front of the first speculative run.
        if let (None, Some(drafter)) = (&self.remote, &mut self.local) {
            let cost = drafter.prime(self.rounds.hypothesis());
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
            } if !self.finished => {
                let hypothesis_len = self.rounds.hypothesis().len();
                let verdict = self.remote.as_mut().map(|link| {
                    link.on_response(request_id, nodes.len(), context_len, hypothesis_len, ctx)
                });
                if verdict == Some(Verdict::Tree) {
                    self.rounds.offer(topology.to_tree(&nodes), context_len);
                    self.execute(ctx);
                }
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
    use pi_model::{ModelConfig, OracleDraft, OracleTarget, Token};
    use pi_perf::{CostModel, ModelCost, NodeSpec};
    use pi_spec::drafter::OracleDrafter;
    use pi_spec::engine::{SimHeadEngine, SimStageEngine};
    use pi_spec::GenConfig;
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

    /// The parts of a head on stage 0 of the two-stage route over ranks
    /// {0, 1}, hosting `drafter`.
    fn parts(drafter: Option<Box<dyn Drafter>>, n_generate: usize) -> HeadParts {
        let engine = SimHeadEngine::new(
            CostModel::new(NodeSpec::xeon_gold_6140_dual()),
            ModelCost::new(ModelConfig::llama2_70b(), QuantKind::Q3K),
            0,
            OracleTarget::new(ORACLE_SEED, VOCAB),
        );
        HeadParts {
            route: PipelineRoute::baseline(2),
            engine: Box::new(engine),
            drafter,
            gen_config: GenConfig::small_test(vec![3, 1, 4, 1, 5], n_generate),
            record: Arc::new(Mutex::new(None)),
            prompt_cached: 0,
            ranks_share_host: false,
        }
    }

    fn build_world(
        alignment: f64,
        n_generate: usize,
        config: PipeInferConfig,
    ) -> (TestWorld, RecordHandle) {
        let dedicated = matches!(config.draft_placement, crate::DraftPlacement::DedicatedRank);
        // Head-hosted: route over ranks {0, 1}.  Dedicated: the worker keeps
        // rank 1 for simplicity and the draft rank sits at rank 2, off the
        // route — the head only cares that the draft rank is off-route.
        // Mirrors PipeInferStrategy::build_head: the dedicated layout keeps
        // the hosted drafter in reserve for draft-rank failover.
        let parts = parts(Some(Box::new(oracle_drafter(alignment))), n_generate);
        let output = parts.record.clone();
        let worker = pi_spec::PipelineWorker::new(
            1,
            parts.route.clone(),
            Box::new(SimStageEngine::new(
                CostModel::new(NodeSpec::xeon_gold_6140_dual()),
                ModelCost::new(ModelConfig::llama2_70b(), QuantKind::Q3K),
                80,
            )),
        );
        let head = PipeInferHead::new(parts, config, dedicated.then_some(2));
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
        let primed = Arc::new(Mutex::new(Vec::new()));
        let spy: Box<dyn Drafter> = Box::new(Spy(primed.clone()));
        let mut head = PipeInferHead::new(parts(Some(spy), 4), PipeInferConfig::default(), None);
        let mut ctx = TestCtx {
            rank: 0,
            sent: Vec::new(),
            now: 0.0,
        };
        head.on_start(&mut ctx);
        assert!(matches!(ctx.sent[..], [(1, PipeMsg::Decode { .. })]));
        assert_eq!(*primed.lock().unwrap(), [vec![3, 1, 4, 1, 5]]);
    }

    /// Partitions in use that no in-flight run's block accounts for.
    fn leaked_partitions(head: &PipeInferHead) -> usize {
        let rounds = head.rounds();
        let held: usize = rounds.tracker().iter().map(|run| run.n_seqs).sum();
        rounds.pool().in_use() - held
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
        let parts = parts(None, 10);
        let worker = pi_spec::PipelineWorker::new(
            1,
            parts.route.clone(),
            Box::new(SimStageEngine::new(
                CostModel::new(NodeSpec::xeon_gold_6140_dual()),
                ModelCost::new(ModelConfig::llama2_70b(), QuantKind::Q3K),
                80,
            )),
        );
        let config = PipeInferConfig {
            draft_deadline_s: 0.25,
            draft_backoff_s: 0.01,
            ..PipeInferConfig::dedicated_draft_rank()
        };
        let head = PipeInferHead::new(parts, config, Some(2));
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
        assert_eq!(leaked_partitions(&world.head), 0);
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
        // assigned to an in-flight (now abandoned) run, and never double-freed
        // (the pool panics on double free).
        assert_eq!(leaked_partitions(&world.head), 0);
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
