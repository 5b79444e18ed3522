//! Pipeline-parallel speculative inference — baseline 2 (SpecInfer-style).
//!
//! The head rank hosts the draft model.  Each round it *synchronously*
//! drafts a speculation chain (the target pipeline sits idle meanwhile —
//! the latency penalty the paper highlights), sends one verification batch
//! containing the pending token plus the drafted chain through the pipeline,
//! waits for the result, verifies with the SpecInfer greedy rule, cleans up
//! rejected KV entries with a pipelined `seq_rm`, and repeats.

use crate::drafter::Drafter;
use crate::engine::HeadEngine;
use crate::message::{tags, ActivationPayload, CacheOp, PipeMsg, RunId, RunKind};
use crate::route::PipelineRoute;
use crate::verify::verify_greedy;
use crate::worker::record_kv_events;
use crate::{GenConfig, GenerationRecord};
use pi_cluster::{NodeBehavior, NodeCtx, Rank, Tag};
use pi_model::{Batch, Pos, Token};
use std::sync::{Arc, Mutex};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Prompt,
    Verifying,
    Done,
}

/// Head rank of the speculative-inference baseline.
pub struct SpeculativeHead {
    route: PipelineRoute,
    engine: Box<dyn HeadEngine>,
    drafter: Box<dyn Drafter>,
    config: GenConfig,
    phase: Phase,
    /// Evaluated, accepted tokens (prompt included).
    context: Vec<Token>,
    /// Leading prompt tokens already resident in every stage's KV cache (via
    /// a shared page pool); prefill covers only the remaining suffix.
    prompt_cached: usize,
    /// Sampled but not yet evaluated token.
    pending: Token,
    in_flight: Option<(RunId, Batch)>,
    next_run_id: RunId,
    record: GenerationRecord,
    output: Arc<Mutex<Option<GenerationRecord>>>,
    finished: bool,
}

impl SpeculativeHead {
    /// Creates the head rank.  The final [`GenerationRecord`] is written to
    /// `output` when generation completes.
    pub fn new(
        route: PipelineRoute,
        engine: Box<dyn HeadEngine>,
        drafter: Box<dyn Drafter>,
        config: GenConfig,
        output: Arc<Mutex<Option<GenerationRecord>>>,
    ) -> Self {
        Self {
            route,
            engine,
            drafter,
            config,
            phase: Phase::Prompt,
            context: Vec::new(),
            prompt_cached: 0,
            pending: 0,
            in_flight: None,
            next_run_id: 0,
            record: GenerationRecord::default(),
            output,
            finished: false,
        }
    }

    /// Declares that the leading `n` prompt tokens are already resident in
    /// every stage's KV cache, so prefill starts at position `n`.  Clamped to
    /// leave at least the final prompt token for live evaluation.
    pub fn with_prompt_cached(mut self, n: usize) -> Self {
        self.prompt_cached = n;
        self
    }

    fn send_downstream(&self, ctx: &mut dyn NodeCtx<PipeMsg>, tag: Tag, msg: PipeMsg) {
        if let Some(next) = self.route.next_after(self.route.head()) {
            ctx.send(next, tag, msg);
        }
    }

    fn launch(&mut self, batch: Batch, kind: RunKind, ctx: &mut dyn NodeCtx<PipeMsg>) {
        let run_id = self.next_run_id;
        self.next_run_id += 1;
        self.record.runs_launched += 1;
        let (payload, cost) = self.engine.eval_first_stage(&batch);
        ctx.elapse(cost);
        self.in_flight = Some((run_id, batch.clone()));
        if self.route.n_stages() > 1 {
            self.send_downstream(
                ctx,
                tags::DECODE,
                PipeMsg::Decode {
                    run_id,
                    kind,
                    batch,
                    payload,
                    tree: None,
                },
            );
        } else {
            self.handle_result(run_id, payload, ctx);
        }
    }

    /// Drafts a chain and launches the verification batch
    /// `[pending, d₁ … d_k]`.
    fn speculate_and_launch(&mut self, ctx: &mut dyn NodeCtx<PipeMsg>) {
        let (chain, draft_cost) = self.drafter.draft(
            &self.context,
            &[self.pending],
            self.config.max_draft,
            self.config.confidence_cutoff,
        );
        // The baseline drafts synchronously on the head: the pipeline idles
        // for the whole drafting time.
        ctx.elapse(draft_cost);
        self.record.drafted += chain.len();
        let base = self.context.len() as Pos;
        let mut batch = Batch::new();
        batch.push(self.pending, base, vec![0], true);
        for (i, (tok, _conf)) in chain.iter().enumerate() {
            batch.push(*tok, base + 1 + i as Pos, vec![0], true);
        }
        self.launch(batch, RunKind::Speculative, ctx);
    }

    fn handle_result(
        &mut self,
        run_id: RunId,
        payload: ActivationPayload,
        ctx: &mut dyn NodeCtx<PipeMsg>,
    ) {
        let Some((expected, batch)) = self.in_flight.take() else {
            return;
        };
        debug_assert_eq!(expected, run_id);
        let (greedy, cost) = self.engine.finalize(&batch, &payload, &self.context);
        ctx.elapse(cost);
        match self.phase {
            Phase::Prompt => {
                self.record.prompt_done_at = ctx.now();
                self.pending = *greedy.last().expect("prompt batch is non-empty");
                self.context.extend(batch.tokens());
                self.phase = Phase::Verifying;
                self.speculate_and_launch(ctx);
            }
            Phase::Verifying => {
                let tokens = batch.tokens();
                let draft = &tokens[1..];
                let outcome = verify_greedy(draft, &greedy);
                let n_accepted = outcome.n_accepted();
                self.record.accepted_drafts += n_accepted;

                // The pending token and the accepted drafts are now evaluated
                // context; accepted drafts plus the new pending token are the
                // newly generated tokens.
                let base = self.context.len() as Pos;
                self.context.push(tokens[0]);
                for tok in &outcome.accepted {
                    self.context.push(*tok);
                    self.record.tokens.push(*tok);
                    self.record.accept_times.push(ctx.now());
                }
                self.record.tokens.push(outcome.pending);
                self.record.accept_times.push(ctx.now());

                // Remove the rejected draft entries from every stage's cache,
                // pipelined in order ahead of the next decode.
                if n_accepted < draft.len() {
                    let op = CacheOp::SeqRm {
                        seq: 0,
                        p0: base + 1 + n_accepted as Pos,
                        p1: Pos::MAX,
                    };
                    let c = self.engine.apply_cache_op(&op);
                    ctx.elapse(c);
                    self.send_downstream(ctx, tags::CACHE, PipeMsg::Cache(op));
                }

                self.pending = outcome.pending;
                if self.record.tokens.len() >= self.config.n_generate {
                    self.finish(ctx);
                } else {
                    self.speculate_and_launch(ctx);
                }
            }
            Phase::Done => {}
        }
    }

    fn finish(&mut self, ctx: &mut dyn NodeCtx<PipeMsg>) {
        self.phase = Phase::Done;
        self.record.finished_at = ctx.now();
        record_kv_events(self.engine.take_kv_events(), ctx);
        self.send_downstream(ctx, tags::SHUTDOWN, PipeMsg::Shutdown);
        *self.output.lock().unwrap() = Some(self.record.clone());
        self.finished = true;
    }

    /// The record accumulated so far.
    pub fn record(&self) -> &GenerationRecord {
        &self.record
    }
}

impl NodeBehavior<PipeMsg> for SpeculativeHead {
    fn on_start(&mut self, ctx: &mut dyn NodeCtx<PipeMsg>) {
        let prompt = self.config.prompt.clone();
        assert!(!prompt.is_empty(), "prompt must not be empty");
        let cached = self.prompt_cached.min(prompt.len() - 1);
        self.context.extend_from_slice(&prompt[..cached]);
        let batch = Batch::prompt(&prompt[cached..], cached as Pos, 0);
        self.launch(batch, RunKind::NonSpeculative, ctx);
        if self.phase == Phase::Prompt {
            // The prompt run is in the pipeline: the draft model evaluates
            // the prompt meanwhile instead of in front of the first draft.
            let cost = self.drafter.prime(&prompt);
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
    use crate::drafter::OracleDrafter;
    use crate::engine::SimHeadEngine;
    use pi_model::{ModelConfig, OracleDraft, OracleTarget};
    use pi_perf::{CostModel, ModelCost, NodeSpec};
    use pi_tensor::QuantKind;

    struct TestCtx {
        sent: Vec<(Rank, PipeMsg)>,
        now: f64,
    }
    impl NodeCtx<PipeMsg> for TestCtx {
        fn rank(&self) -> Rank {
            0
        }
        fn world_size(&self) -> usize {
            2
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

    fn build(
        alignment: f64,
        n_generate: usize,
    ) -> (SpeculativeHead, Arc<Mutex<Option<GenerationRecord>>>) {
        let out = Arc::new(Mutex::new(None));
        let oracle = OracleTarget::new(7, 32000);
        let engine = SimHeadEngine::new(
            CostModel::new(NodeSpec::xeon_gold_6140_dual()),
            ModelCost::new(ModelConfig::llama2_70b(), QuantKind::Q3K),
            40,
            oracle,
        );
        let drafter = OracleDrafter::new(
            oracle,
            OracleDraft::new(99, 32000, alignment),
            CostModel::new(NodeSpec::xeon_gold_6140_dual()),
            ModelCost::new(ModelConfig::tinyllama_1_1b(), QuantKind::Q4K),
        );
        let h = SpeculativeHead::new(
            PipelineRoute::baseline(2),
            Box::new(engine),
            Box::new(drafter),
            GenConfig::small_test(vec![1, 2, 3, 4], n_generate),
            out.clone(),
        );
        (h, out)
    }

    /// Drives the head against a pass-through pipeline until it finishes,
    /// returning the record.
    fn drive(head: &mut SpeculativeHead, ctx: &mut TestCtx) -> GenerationRecord {
        head.on_start(ctx);
        let mut safety = 0;
        while !head.is_finished() {
            safety += 1;
            assert!(safety < 500, "protocol did not converge");
            let (_, msg) = ctx.sent.pop().expect("head must have sent something");
            match msg {
                PipeMsg::Decode { run_id, .. } => {
                    ctx.now += 0.005;
                    head.on_message(
                        1,
                        tags::RESULT,
                        PipeMsg::RunResult {
                            run_id,
                            payload: ActivationPayload::Empty,
                        },
                        ctx,
                    );
                }
                PipeMsg::Cache(_) | PipeMsg::Shutdown => {}
                other => panic!("unexpected message {other:?}"),
            }
        }
        head.record().clone()
    }

    #[test]
    fn output_matches_oracle_continuation_regardless_of_alignment() {
        let oracle = OracleTarget::new(7, 32000);
        let truth = oracle.generate(&[1, 2, 3, 4], 20);
        for alignment in [0.0, 0.5, 1.0] {
            let (mut head, _) = build(alignment, 12);
            let mut ctx = TestCtx {
                sent: Vec::new(),
                now: 0.0,
            };
            let record = drive(&mut head, &mut ctx);
            assert!(record.tokens.len() >= 12);
            // Speculative inference must produce exactly the target's greedy
            // continuation (minus the uncounted first sampled token).
            assert_eq!(
                record.tokens[..12].to_vec(),
                truth[1..13].to_vec(),
                "alignment {alignment}"
            );
        }
    }

    #[test]
    fn high_alignment_accepts_more_drafts_and_needs_fewer_runs() {
        let (mut good, _) = build(0.95, 16);
        let mut ctx_good = TestCtx {
            sent: Vec::new(),
            now: 0.0,
        };
        let r_good = drive(&mut good, &mut ctx_good);

        let (mut bad, _) = build(0.05, 16);
        let mut ctx_bad = TestCtx {
            sent: Vec::new(),
            now: 0.0,
        };
        let r_bad = drive(&mut bad, &mut ctx_bad);

        assert!(r_good.acceptance_rate() > r_bad.acceptance_rate());
        assert!(r_good.runs_launched < r_bad.runs_launched);
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
        let (mut head, _) = build(1.0, 4);
        let calls = Arc::new(Mutex::new(Vec::new()));
        head.drafter = Box::new(Spy(calls.clone()));
        let mut ctx = TestCtx {
            sent: Vec::new(),
            now: 0.0,
        };
        head.on_start(&mut ctx);
        assert!(matches!(ctx.sent[..], [(1, PipeMsg::Decode { .. })]));
        assert_eq!(*calls.lock().unwrap(), ["prime [1, 2, 3, 4]"]);
        assert!(ctx.now >= 100.0, "the priming cost is charged to the head");
    }

    #[test]
    fn cache_cleanup_is_sent_when_drafts_are_rejected() {
        let (mut head, _) = build(0.0, 4);
        let mut ctx = TestCtx {
            sent: Vec::new(),
            now: 0.0,
        };
        head.on_start(&mut ctx);
        // Answer the prompt run.
        let run_id = match ctx.sent.pop().unwrap().1 {
            PipeMsg::Decode { run_id, .. } => run_id,
            _ => unreachable!(),
        };
        head.on_message(
            1,
            tags::RESULT,
            PipeMsg::RunResult {
                run_id,
                payload: ActivationPayload::Empty,
            },
            &mut ctx,
        );
        // Answer the first verification run (every draft rejected).
        let run_id = match ctx.sent.pop().unwrap().1 {
            PipeMsg::Decode { run_id, .. } => run_id,
            _ => unreachable!(),
        };
        head.on_message(
            1,
            tags::RESULT,
            PipeMsg::RunResult {
                run_id,
                payload: ActivationPayload::Empty,
            },
            &mut ctx,
        );
        assert!(
            ctx.sent
                .iter()
                .any(|(_, m)| matches!(m, PipeMsg::Cache(CacheOp::SeqRm { .. }))),
            "a seq_rm cache op must be pipelined after a rejection"
        );
    }
}
