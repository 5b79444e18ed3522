//! The head rank of every synchronous strategy: [`SyncHead`].
//!
//! One run in flight: the head asks its [`SyncRounds`] for the next
//! micro-batch, drafts *synchronously* (the target pipeline sits idle
//! meanwhile — the latency penalty the paper highlights), sends the batch
//! through the pipeline, waits for the result, lets `SyncRounds` verify it,
//! pipelines the resulting cache clean-up ahead of the next decode, and
//! repeats.  Which baseline this is depends only on the strategy's
//! [`StepProfile`]: pipeline-parallel iterative inference (each token
//! travels through every stage before the next can be sampled, which is why
//! the paper sees constant generation speed as nodes are added),
//! SpecInfer-style chain speculation, or tree speculation.

use crate::deploy::{HeadParts, RecordHandle, StepProfile};
use crate::engine::HeadEngine;
use crate::message::{tags, ActivationPayload, CacheOp, PipeMsg, RunId, TreeTopology};
use crate::rounds::{Round, SyncRounds};
use crate::route::PipelineRoute;
use crate::worker::record_kv_events;
use pi_cluster::{NodeBehavior, NodeCtx, Rank, Tag};

/// Head rank of the iterative, speculative and tree-speculation strategies.
pub(crate) struct SyncHead {
    route: PipelineRoute,
    engine: Box<dyn HeadEngine>,
    rounds: SyncRounds,
    in_flight: Option<(RunId, Round)>,
    next_run_id: RunId,
    output: RecordHandle,
    /// Receives the request's lifetime acceptance when it finishes.
    feedback: Option<Box<dyn FnOnce(f64) + Send>>,
    finished: bool,
}

impl SyncHead {
    /// Creates the head rank from the deployment's parts.  `prior` seeds the
    /// tree profile's shape controller (see [`SyncRounds::new`]); the final
    /// record is written to `parts.record`.
    pub fn new(parts: HeadParts, profile: StepProfile, prior: f64) -> Self {
        Self {
            route: parts.route,
            engine: parts.engine,
            rounds: SyncRounds::new(
                parts.gen_config,
                profile,
                parts.drafter,
                parts.prompt_cached,
                prior,
            ),
            in_flight: None,
            next_run_id: 0,
            output: parts.record,
            feedback: None,
            finished: false,
        }
    }

    /// Calls `feedback` with the request's lifetime acceptance when it
    /// finishes (if it verified at least one tree round).
    pub fn with_feedback(mut self, feedback: impl FnOnce(f64) + Send + 'static) -> Self {
        self.feedback = Some(Box::new(feedback));
        self
    }

    fn send_downstream(&self, ctx: &mut dyn NodeCtx<PipeMsg>, tag: Tag, msg: PipeMsg) {
        if let Some(next) = self.route.next_after(self.route.head()) {
            ctx.send(next, tag, msg);
        }
    }

    /// Applies `op` on the head's own cache and pipelines it to every other
    /// stage, in order ahead of the next decode.
    fn send_cache_op(&mut self, op: CacheOp, ctx: &mut dyn NodeCtx<PipeMsg>) {
        let cost = self.engine.apply_cache_op(0, &op);
        ctx.elapse(cost);
        self.send_downstream(ctx, tags::CACHE, PipeMsg::Cache(op));
    }

    /// Drafts and launches the next round.
    fn launch(&mut self, ctx: &mut dyn NodeCtx<PipeMsg>) {
        let round = self.rounds.next_round();
        // The head drafts synchronously: the pipeline idles for the whole
        // drafting time.
        ctx.elapse(round.draft_cost);
        for &op in &round.pre_ops {
            self.send_cache_op(op, ctx);
        }
        let run_id = self.next_run_id;
        self.next_run_id += 1;
        let (payload, cost) = self.engine.eval_first_stage(&round.batch);
        ctx.elapse(cost);
        if self.route.n_stages() > 1 {
            // A round whose drafter proposed nothing is a plain single-token
            // run: no topology travels with it.
            let tree = round
                .parents()
                .filter(|parents| parents.len() > 1)
                .map(|parents| TreeTopology {
                    parents: parents.iter().map(|p| p.map(|i| i as u32)).collect(),
                });
            let msg = PipeMsg::Decode {
                run_id,
                kind: round.kind,
                batch: round.batch.clone(),
                payload,
                tree,
            };
            self.in_flight = Some((run_id, round));
            self.send_downstream(ctx, tags::DECODE, msg);
        } else {
            // Single-stage pipeline: the head is also the last stage.
            self.in_flight = Some((run_id, round));
            self.handle_result(run_id, payload, ctx);
        }
    }

    fn handle_result(
        &mut self,
        run_id: RunId,
        payload: ActivationPayload,
        ctx: &mut dyn NodeCtx<PipeMsg>,
    ) {
        // One run in flight: a result naming any other id repeats a run
        // already absorbed (a duplicated delivery) and is ignored.
        let Some((_, round)) = self.in_flight.take_if(|(id, _)| *id == run_id) else {
            return;
        };
        let (greedy, cost) = round.finalize(self.engine.as_mut(), &payload, self.rounds.context());
        ctx.elapse(cost);
        if let Some(op) = self.rounds.absorb(round, &greedy, ctx.now()) {
            self.send_cache_op(op, ctx);
        }
        if self.rounds.is_done() {
            self.finish(ctx);
        } else {
            self.launch(ctx);
        }
    }

    fn finish(&mut self, ctx: &mut dyn NodeCtx<PipeMsg>) {
        record_kv_events(self.engine.take_kv_events(), ctx);
        self.send_downstream(ctx, tags::SHUTDOWN, PipeMsg::Shutdown);
        if let (Some(feedback), Some(acceptance)) =
            (self.feedback.take(), self.rounds.lifetime_acceptance())
        {
            feedback(acceptance);
        }
        let mut record = self.rounds.record().clone();
        // The run ends once the last round's cache clean-up is charged, not
        // when its tokens were accepted.
        record.finished_at = ctx.now();
        *self.output.lock().expect("record handle poisoned") = Some(record);
        self.finished = true;
    }
}

impl NodeBehavior<PipeMsg> for SyncHead {
    fn on_start(&mut self, ctx: &mut dyn NodeCtx<PipeMsg>) {
        self.launch(ctx);
        if self.rounds.in_prompt() {
            // The prompt run is in the pipeline: the draft model evaluates
            // the prompt meanwhile instead of in front of the first draft.
            let cost = self.rounds.prime();
            ctx.elapse(cost);
        }
    }

    fn on_message(&mut self, _src: Rank, _tag: Tag, msg: PipeMsg, ctx: &mut dyn NodeCtx<PipeMsg>) {
        if let PipeMsg::RunResult { run_id, payload } = msg {
            self.handle_result(run_id, payload, ctx);
        }
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
    use crate::drafter::{Drafter, OracleDrafter};
    use crate::engine::SimHeadEngine;
    use crate::message::RunKind;
    use crate::testkit::{answer_decodes, drive, transcript_hash, TestCtx};
    use crate::tree::{TreeConfig, DEFAULT_PRIOR};
    use crate::{GenConfig, GenerationRecord};
    use pi_model::{ModelConfig, OracleDraft, OracleTarget, Token};
    use pi_perf::{CostModel, ModelCost, NodeSpec};
    use pi_tensor::QuantKind;
    use std::sync::{Arc, Mutex};

    const PROMPT: [Token; 4] = [1, 2, 3, 4];

    fn tree_profile() -> StepProfile {
        StepProfile::Tree(TreeConfig::default())
    }

    /// The parts of a head on stage 0 of a two-stage route, over the seeded
    /// oracles every case of this module shares.
    fn parts(drafter: Option<Box<dyn Drafter>>, n_generate: usize, cached: usize) -> HeadParts {
        let engine = SimHeadEngine::new(
            CostModel::new(NodeSpec::xeon_gold_6140_dual()),
            ModelCost::new(ModelConfig::llama2_70b(), QuantKind::Q3K),
            40,
            OracleTarget::new(7, 32000),
        );
        HeadParts {
            route: PipelineRoute::baseline(2),
            engine: Box::new(engine),
            drafter,
            gen_config: GenConfig::small_test(PROMPT.to_vec(), n_generate),
            record: Arc::new(Mutex::new(None)),
            prompt_cached: cached,
            ranks_share_host: false,
        }
    }

    fn oracle_drafter(alignment: f64) -> Box<dyn Drafter> {
        Box::new(OracleDrafter::new(
            OracleTarget::new(7, 32000),
            OracleDraft::new(99, 32000, alignment),
            CostModel::new(NodeSpec::xeon_gold_6140_dual()),
            ModelCost::new(ModelConfig::tinyllama_1_1b(), QuantKind::Q4K),
        ))
    }

    /// Runs one request to completion against the pass-through pipeline.
    fn run(
        profile: StepProfile,
        alignment: f64,
        n_generate: usize,
        cached: usize,
        prior: f64,
    ) -> (GenerationRecord, TestCtx) {
        let drafter = (profile != StepProfile::NonSpeculative).then(|| oracle_drafter(alignment));
        let parts = parts(drafter, n_generate, cached);
        let output = parts.record.clone();
        let mut head = SyncHead::new(parts, profile, prior);
        let mut ctx = TestCtx::new(0, 2);
        drive(&mut head, &mut ctx, 0.005);
        assert!(head.is_finished());
        let record = output.lock().unwrap().clone().expect("record written");
        (record, ctx)
    }

    #[test]
    fn prompt_is_launched_on_start() {
        let mut head = SyncHead::new(parts(None, 4, 0), StepProfile::NonSpeculative, 0.0);
        let mut ctx = TestCtx::new(0, 2);
        head.on_start(&mut ctx);
        assert_eq!(ctx.sent.len(), 1);
        match &ctx.sent[0].msg {
            PipeMsg::Decode { batch, kind, .. } => {
                assert_eq!(batch.len(), 4);
                assert_eq!(*kind, RunKind::NonSpeculative);
            }
            other => panic!("unexpected message {other:?}"),
        }
        assert_eq!((ctx.sent[0].dst, ctx.sent[0].tag), (1, tags::DECODE));
        assert!(ctx.now > 0.0, "head stage evaluation must be charged");
    }

    #[test]
    fn every_profile_emits_the_oracle_continuation_and_cleans_its_caches() {
        let n_generate = 12;
        let truth = OracleTarget::new(7, 32000).generate(&PROMPT, 20);
        for profile in [
            StepProfile::NonSpeculative,
            StepProfile::Chain,
            tree_profile(),
        ] {
            let mut runs = Vec::new();
            let mut acceptance = Vec::new();
            for alignment in [0.0, 0.5, 1.0] {
                let case = format!("{profile:?} at alignment {alignment}");
                let (record, ctx) = run(profile, alignment, n_generate, 0, DEFAULT_PRIOR);
                // Exactly the target's greedy continuation, minus the
                // uncounted token sampled from the prompt.
                assert!(record.tokens.len() >= n_generate, "{case}");
                assert_eq!(record.tokens[..n_generate], truth[1..=n_generate], "{case}");
                assert_eq!(record.accept_times.len(), record.tokens.len(), "{case}");
                assert!(record.prompt_done_at > 0.0 && record.ttft() > 0.0, "{case}");
                assert!(record.finished_at >= *record.accept_times.last().unwrap());
                assert!(matches!(ctx.sent.last().unwrap().msg, PipeMsg::Shutdown));

                let ops = ctx.cache_ops();
                let decodes = ctx
                    .sent
                    .iter()
                    .filter(|s| matches!(s.msg, PipeMsg::Decode { .. }))
                    .count();
                assert_eq!(decodes, record.runs_launched, "{case}");
                match profile {
                    StepProfile::NonSpeculative => {
                        // One prompt run plus one single-token run per token.
                        assert_eq!(record.runs_launched, 1 + n_generate);
                        assert!(ops.is_empty(), "{case}: nothing to roll back");
                    }
                    StepProfile::Chain => {
                        let rejected = record.drafted > record.accepted_drafts;
                        assert_eq!(
                            ops.iter().any(|op| matches!(op, CacheOp::SeqRm { .. })),
                            rejected,
                            "{case}: a seq_rm is pipelined after (only) a rejection"
                        );
                        assert_eq!(rejected, alignment < 1.0, "{case}");
                    }
                    StepProfile::Tree(_) => {
                        // Every round that seeded branches ends in exactly
                        // one commit or rollback of them.
                        let closes = |op: &&CacheOp| {
                            matches!(
                                op,
                                CacheOp::BranchCommit { .. } | CacheOp::BranchRollback { .. }
                            )
                        };
                        let seeded = ctx.sent.windows(2).filter(|w| {
                            matches!(w[0].msg, PipeMsg::Cache(CacheOp::SeqCp { .. }))
                                && matches!(w[1].msg, PipeMsg::Decode { .. })
                        });
                        assert_eq!(ops.iter().filter(closes).count(), seeded.count(), "{case}");
                        assert!(ops.iter().any(|op| closes(&op)), "{case}");
                        let rolled_back = ops
                            .iter()
                            .any(|op| matches!(op, CacheOp::BranchRollback { .. }));
                        // A draft that never agrees is always rolled back
                        // whole, one that always agrees never is.
                        if alignment == 0.0 || alignment == 1.0 {
                            assert_eq!(rolled_back, alignment == 0.0, "{case}");
                        }
                        assert_eq!(record.tree_shapes.len(), record.tree_rounds, "{case}");
                    }
                }
                runs.push(record.runs_launched);
                acceptance.push(record.acceptance_rate());
            }
            if profile != StepProfile::NonSpeculative {
                // Higher alignment: more drafts accepted, fewer runs needed.
                assert!(
                    runs[0] > runs[1] && runs[1] > runs[2],
                    "{profile:?} {runs:?}"
                );
                assert!(acceptance[0] < acceptance[2], "{profile:?} {acceptance:?}");
            }
        }
    }

    #[test]
    fn drafter_is_primed_with_the_prompt_while_the_prompt_run_is_in_flight() {
        /// Records the calls it receives; priming costs a hundred seconds.
        struct Spy(Arc<Mutex<Vec<String>>>);
        impl Drafter for Spy {
            fn prime(&mut self, context: &[Token]) -> f64 {
                self.0.lock().unwrap().push(format!("prime {context:?}"));
                100.0
            }
            fn draft(
                &mut self,
                context: &[Token],
                extra: &[Token],
                _max_tokens: usize,
                _cutoff: f32,
            ) -> (Vec<(Token, f32)>, f64) {
                let mut calls = self.0.lock().unwrap();
                calls.push(format!("draft {context:?} {extra:?}"));
                (Vec::new(), 0.0)
            }
        }
        for profile in [StepProfile::Chain, tree_profile()] {
            let calls = Arc::new(Mutex::new(Vec::new()));
            let spy: Box<dyn Drafter> = Box::new(Spy(calls.clone()));
            let mut head = SyncHead::new(parts(Some(spy), 4, 0), profile, DEFAULT_PRIOR);
            let mut ctx = TestCtx::new(0, 2);
            head.on_start(&mut ctx);
            assert_eq!(ctx.sent.len(), 1);
            assert!(matches!(ctx.sent[0].msg, PipeMsg::Decode { .. }));
            assert!(ctx.sent[0].at < 100.0, "the prompt is dispatched first");
            assert_eq!(*calls.lock().unwrap(), ["prime [1, 2, 3, 4]"]);
            assert!(ctx.now >= 100.0, "the priming cost is charged to the head");
            // The rest of the run drafts but never primes again.
            answer_decodes(&mut head, &mut ctx, 0.0);
            assert!(head.is_finished());
            let calls = calls.lock().unwrap();
            assert_eq!(calls.iter().filter(|c| c.starts_with("prime")).count(), 1);
            assert!(calls.len() > 1 && calls[1].starts_with("draft [1, 2, 3, 4] ["));
        }
    }

    #[test]
    fn feedback_receives_the_lifetime_acceptance_of_tree_requests_only() {
        for (profile, expected) in [(StepProfile::Chain, 0), (tree_profile(), 1)] {
            let seen = Arc::new(Mutex::new(Vec::new()));
            let sink = seen.clone();
            let parts = parts(Some(oracle_drafter(0.5)), 8, 0);
            let mut head = SyncHead::new(parts, profile, DEFAULT_PRIOR)
                .with_feedback(move |acceptance| sink.lock().unwrap().push(acceptance));
            drive(&mut head, &mut TestCtx::new(0, 2), 0.005);
            let seen = seen.lock().unwrap();
            assert_eq!(seen.len(), expected, "{profile:?}");
            assert!(seen.iter().all(|a| (0.0..=1.0).contains(a)));
        }
    }

    /// The ordered wire transcript — every send's time, destination, tag and
    /// content — of each case equals, by hash, what the head it replaced
    /// (`IterativeHead`, `SpeculativeHead`, `TreeSpecHead`) left behind at
    /// commit a2fbb55 under this very harness: same oracles, same
    /// pass-through pipeline, 5 ms per run.  A reordered `elapse` or cache-op
    /// send changes a timestamp or the order and fails here, where the
    /// token-identity tests cannot see it.
    #[test]
    fn sync_head_wire_transcript_matches_parent() {
        let tree = tree_profile();
        // (profile, alignment, prompt tokens already cached, shape prior).
        let cases = [
            (
                StepProfile::NonSpeculative,
                0.0,
                0,
                0.8,
                0xae6bba20fa8a06ee_u64,
            ),
            (StepProfile::NonSpeculative, 0.0, 2, 0.8, 0x3c60254aa5844493),
            (StepProfile::Chain, 0.0, 0, 0.8, 0xee0e38a6003f8e82),
            (StepProfile::Chain, 0.0, 2, 0.8, 0x91e17971454d010d),
            (StepProfile::Chain, 0.5, 0, 0.8, 0xaabd9a4b36e7dc51),
            (StepProfile::Chain, 0.5, 2, 0.8, 0x1290c16314a4411b),
            (StepProfile::Chain, 1.0, 0, 0.8, 0x10f5e760bab02878),
            (StepProfile::Chain, 1.0, 2, 0.8, 0x799a75b1ed6f68b4),
            (tree, 0.0, 0, 0.8, 0x6e81b76e9edb7fcf),
            (tree, 0.0, 2, 0.8, 0xe6572181a07e379b),
            (tree, 0.5, 0, 0.8, 0xec963d12db745ad1),
            (tree, 0.5, 2, 0.8, 0x224740d96c85558d),
            (tree, 1.0, 0, 0.8, 0x26d6b8b792a0afc0),
            (tree, 1.0, 2, 0.8, 0xebdac70b7a20bad9),
            // A pessimistic prior, so the first rounds are wide trees.
            (tree, 0.0, 0, 0.3, 0x8b71e5541917aecd),
            (tree, 0.5, 0, 0.3, 0x93fb8e2ccd64c298),
            (tree, 1.0, 0, 0.3, 0xaf1af29298911c3e),
        ];
        for (profile, alignment, cached, prior, expected) in cases {
            let (_, ctx) = run(profile, alignment, 12, cached, prior);
            assert_eq!(
                transcript_hash(&ctx.sent),
                expected,
                "{profile:?}, alignment {alignment}, {cached} cached, prior {prior}: \
                 {:#018x}",
                transcript_hash(&ctx.sent)
            );
        }
    }
}
