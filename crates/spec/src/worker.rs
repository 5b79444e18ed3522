//! The generic pipeline worker rank.
//!
//! Every non-head rank of the target pipeline — under the iterative
//! baseline, the speculative baseline *and* PipeInfer — runs this state
//! machine.  It evaluates its layer range for every decode transaction,
//! applies pipelined KV-cache operations in arrival order, honours
//! back-propagated cancellation signals (skipping speculative runs it has
//! not started yet, while still forwarding an empty payload to preserve
//! ordering, paper §IV-D2), and shuts down on request.

use crate::engine::StageEngine;
use crate::message::{tags, ActivationPayload, PipeMsg, RunId, RunKind, TreeTopology};
use crate::route::PipelineRoute;
use pi_cluster::{trace_if, EventKind, NodeBehavior, NodeCtx, Rank, Tag};
use pi_model::KvCacheEvents;
use std::collections::HashSet;

/// Records the KV page activity drained from an engine's caches as `page_*`
/// trace events: pages materialised and released on every Real cache,
/// shared and copied-on-write ones under a pool.  No-op for Sim engines,
/// which hold no caches.  (The pool's own totals are in `KvPoolStats`.)
pub fn trace_kv_events(ev: KvCacheEvents, ctx: &mut dyn NodeCtx<PipeMsg>) {
    if ev.page_alloc > 0 {
        trace_if(ctx, || EventKind::PageAlloc {
            n: ev.page_alloc as u32,
        });
    }
    if ev.page_share_hit > 0 {
        trace_if(ctx, || EventKind::PageShareHit {
            n: ev.page_share_hit as u32,
        });
    }
    if ev.page_cow > 0 {
        trace_if(ctx, || EventKind::PageCow {
            n: ev.page_cow as u32,
        });
    }
    if ev.page_release > 0 {
        trace_if(ctx, || EventKind::PageEvict {
            n: ev.page_release as u32,
        });
    }
}

/// A pipeline stage rank.
pub struct PipelineWorker {
    rank: Rank,
    route: PipelineRoute,
    engine: Box<dyn StageEngine>,
    cancelled: HashSet<RunId>,
    /// Runs already evaluated (so that a late-arriving cancel is ignored and
    /// the cancelled set stays small).
    seen: HashSet<RunId>,
    finished: bool,
    /// Number of decode transactions fully evaluated.
    pub evaluated_runs: u64,
    /// Number of decode transactions skipped due to cancellation.
    pub skipped_runs: u64,
}

impl PipelineWorker {
    /// Creates a worker for `rank` using `engine` to evaluate its layers.
    pub fn new(rank: Rank, route: PipelineRoute, engine: Box<dyn StageEngine>) -> Self {
        Self {
            rank,
            route,
            engine,
            cancelled: HashSet::new(),
            seen: HashSet::new(),
            finished: false,
            evaluated_runs: 0,
            skipped_runs: 0,
        }
    }

    fn forward_result(
        &self,
        ctx: &mut dyn NodeCtx<PipeMsg>,
        run_id: RunId,
        kind: RunKind,
        batch: pi_model::Batch,
        payload: ActivationPayload,
        tree: Option<TreeTopology>,
    ) {
        match self.route.next_after(self.rank) {
            Some(next) => ctx.send(
                next,
                tags::DECODE,
                PipeMsg::Decode {
                    run_id,
                    kind,
                    batch,
                    payload,
                    tree,
                },
            ),
            // A leading slice of a run sent in slices (see `launch`): its
            // rows are in every stage's cache now, and the final slice
            // answers for the run.
            None if !batch.iter().any(|e| e.logits) => {}
            None => ctx.send(
                self.route.head(),
                tags::RESULT,
                PipeMsg::RunResult { run_id, payload },
            ),
        }
    }
}

impl NodeBehavior<PipeMsg> for PipelineWorker {
    fn on_message(&mut self, _src: Rank, _tag: Tag, msg: PipeMsg, ctx: &mut dyn NodeCtx<PipeMsg>) {
        match msg {
            PipeMsg::Decode {
                run_id,
                kind,
                batch,
                payload,
                tree,
            } => {
                self.seen.insert(run_id);
                let skip = kind == RunKind::Speculative && self.cancelled.remove(&run_id);
                if skip {
                    // Cancelled speculative run: skip the evaluation entirely
                    // but keep the message flowing so ordering and per-node
                    // state stay intact.
                    self.skipped_runs += 1;
                    ctx.stats().cancellations_saved += 1;
                    trace_if(ctx, || EventKind::RunSkipped { run: run_id });
                    self.forward_result(ctx, run_id, kind, batch, ActivationPayload::Empty, tree);
                } else {
                    let (out, cost) = self.engine.eval(&batch, &payload);
                    ctx.elapse(cost);
                    trace_kv_events(self.engine.take_kv_events(), ctx);
                    self.evaluated_runs += 1;
                    let (layer_lo, layer_hi) = self.engine.layer_span();
                    let batch_len = batch.len() as u32;
                    let cohort = batch.lane_count().max(1) as u32;
                    trace_if(ctx, || EventKind::StageForward {
                        run: run_id,
                        layer_lo,
                        layer_hi,
                        batch: batch_len,
                        cohort,
                        dur: cost,
                    });
                    self.forward_result(ctx, run_id, kind, batch, out, tree);
                }
            }
            PipeMsg::RunResult { run_id, payload } => {
                // Only the head consumes results; a worker receiving one is a
                // routing bug — forward it toward the head to stay robust.
                ctx.send(
                    self.route.head(),
                    tags::RESULT,
                    PipeMsg::RunResult { run_id, payload },
                );
            }
            PipeMsg::Cache(op) => {
                let cost = self.engine.apply_cache_op(0, &op);
                ctx.elapse(cost);
                trace_kv_events(self.engine.take_kv_events(), ctx);
                if let Some(next) = self.route.next_after(self.rank) {
                    ctx.send(next, tags::CACHE, PipeMsg::Cache(op));
                }
            }
            PipeMsg::Cancel { run_id } => {
                if !self.seen.contains(&run_id) {
                    self.cancelled.insert(run_id);
                }
                // Back-propagate toward the head; the first stage after the
                // head stops the propagation.
                if let Some(prev) = self.route.prev_before(self.rank) {
                    if prev != self.route.head() {
                        ctx.send(prev, tags::CANCEL, PipeMsg::Cancel { run_id });
                    }
                }
            }
            PipeMsg::Shutdown => {
                if let Some(next) = self.route.next_after(self.rank) {
                    ctx.send(next, tags::SHUTDOWN, PipeMsg::Shutdown);
                }
                self.finished = true;
            }
            // Draft traffic never reaches pipeline workers.
            PipeMsg::DraftRequest { .. }
            | PipeMsg::DraftResponse { .. }
            | PipeMsg::DraftCancel { .. } => {}
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
    use crate::engine::SimStageEngine;
    use crate::testkit::TestCtx;
    use pi_model::{Batch, ModelConfig};
    use pi_perf::{CostModel, ModelCost, NodeSpec};
    use pi_tensor::QuantKind;

    fn sim_engine() -> Box<dyn StageEngine> {
        Box::new(SimStageEngine::new(
            CostModel::new(NodeSpec::xeon_gold_6140_dual()),
            ModelCost::new(ModelConfig::llama2_70b(), QuantKind::Q3K),
            10,
        ))
    }

    fn decode(run_id: RunId, kind: RunKind) -> PipeMsg {
        PipeMsg::Decode {
            run_id,
            kind,
            batch: Batch::single(5, 10, 0),
            payload: ActivationPayload::Simulated {
                tokens: 1,
                bytes: 100,
            },
            tree: None,
        }
    }

    #[test]
    fn middle_worker_forwards_to_next_stage() {
        let mut w = PipelineWorker::new(1, PipelineRoute::baseline(4), sim_engine());
        let mut ctx = TestCtx::new(1, 4);
        w.on_message(
            0,
            tags::DECODE,
            decode(7, RunKind::NonSpeculative),
            &mut ctx,
        );
        assert_eq!(w.evaluated_runs, 1);
        assert!(ctx.now > 0.0);
        assert_eq!(ctx.sent.len(), 1);
        assert_eq!(ctx.sent[0].dst, 2);
        assert!(matches!(ctx.sent[0].msg, PipeMsg::Decode { run_id: 7, .. }));
    }

    #[test]
    fn last_worker_returns_result_to_head() {
        let mut w = PipelineWorker::new(3, PipelineRoute::baseline(4), sim_engine());
        let mut ctx = TestCtx::new(1, 4);
        w.on_message(2, tags::DECODE, decode(9, RunKind::Speculative), &mut ctx);
        assert_eq!(ctx.sent.len(), 1);
        assert_eq!(ctx.sent[0].dst, 0);
        assert!(matches!(
            ctx.sent[0].msg,
            PipeMsg::RunResult { run_id: 9, .. }
        ));
    }

    #[test]
    fn last_worker_answers_only_the_slice_that_requests_logits() {
        let mut w = PipelineWorker::new(2, PipelineRoute::baseline(3), sim_engine());
        let mut ctx = TestCtx::new(2, 3);
        let prompt = Batch::prompt(&[1, 2, 3, 4, 5], 0, 0);
        for (i, part) in [0..4, 4..5].into_iter().enumerate() {
            let slice: Batch = prompt.entries()[part].iter().cloned().collect();
            let msg = PipeMsg::Decode {
                run_id: 0,
                kind: RunKind::NonSpeculative,
                batch: slice,
                payload: ActivationPayload::Empty,
                tree: None,
            };
            w.on_message(1, tags::DECODE, msg, &mut ctx);
            assert_eq!(ctx.sent.len(), i, "slice {i}");
        }
        assert_eq!(w.evaluated_runs, 2, "both slices are evaluated");
        assert!(matches!(
            ctx.sent[0].msg,
            PipeMsg::RunResult { run_id: 0, .. }
        ));
    }

    #[test]
    fn tree_topology_is_forwarded_with_the_batch() {
        let mut w = PipelineWorker::new(1, PipelineRoute::baseline(3), sim_engine());
        let mut ctx = TestCtx::new(1, 4);
        let topology = TreeTopology {
            parents: vec![None, Some(0)],
        };
        w.on_message(
            0,
            tags::DECODE,
            PipeMsg::Decode {
                run_id: 2,
                kind: RunKind::Speculative,
                batch: Batch::prompt(&[5, 6], 10, 0),
                payload: ActivationPayload::Empty,
                tree: Some(topology.clone()),
            },
            &mut ctx,
        );
        match &ctx.sent[0].msg {
            PipeMsg::Decode { tree, .. } => assert_eq!(tree.as_ref(), Some(&topology)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn cancelled_speculative_run_is_skipped_with_empty_payload() {
        let mut w = PipelineWorker::new(1, PipelineRoute::baseline(3), sim_engine());
        let mut ctx = TestCtx::new(1, 4);
        w.on_message(2, tags::CANCEL, PipeMsg::Cancel { run_id: 4 }, &mut ctx);
        w.on_message(0, tags::DECODE, decode(4, RunKind::Speculative), &mut ctx);
        assert_eq!(w.skipped_runs, 1);
        assert_eq!(w.evaluated_runs, 0);
        let forwarded = ctx
            .sent
            .iter()
            .find(|s| matches!(s.msg, PipeMsg::Decode { run_id: 4, .. }))
            .expect("empty decode must still be forwarded");
        match &forwarded.msg {
            PipeMsg::Decode { payload, .. } => assert!(matches!(payload, ActivationPayload::Empty)),
            _ => unreachable!(),
        }
    }

    #[test]
    fn cancelled_non_speculative_run_is_still_evaluated() {
        let mut w = PipelineWorker::new(1, PipelineRoute::baseline(3), sim_engine());
        let mut ctx = TestCtx::new(1, 4);
        w.on_message(2, tags::CANCEL, PipeMsg::Cancel { run_id: 4 }, &mut ctx);
        w.on_message(
            0,
            tags::DECODE,
            decode(4, RunKind::NonSpeculative),
            &mut ctx,
        );
        assert_eq!(w.evaluated_runs, 1);
        assert_eq!(w.skipped_runs, 0);
    }

    #[test]
    fn late_cancel_for_already_seen_run_is_ignored() {
        let mut w = PipelineWorker::new(1, PipelineRoute::baseline(3), sim_engine());
        let mut ctx = TestCtx::new(1, 4);
        w.on_message(0, tags::DECODE, decode(4, RunKind::Speculative), &mut ctx);
        w.on_message(2, tags::CANCEL, PipeMsg::Cancel { run_id: 4 }, &mut ctx);
        // A later (bogus) replay of the same run id would not be skipped.
        assert!(w.cancelled.is_empty());
    }

    #[test]
    fn cancel_back_propagates_until_first_stage() {
        let route = PipelineRoute::baseline(4);
        // Rank 2: propagates to rank 1.
        let mut w2 = PipelineWorker::new(2, route.clone(), sim_engine());
        let mut ctx = TestCtx::new(1, 4);
        w2.on_message(3, tags::CANCEL, PipeMsg::Cancel { run_id: 8 }, &mut ctx);
        assert_eq!(ctx.sent.len(), 1);
        assert_eq!(ctx.sent[0].dst, 1);
        // Rank 1: previous stage is the head → stop propagating.
        let mut w1 = PipelineWorker::new(1, route, sim_engine());
        let mut ctx1 = TestCtx::new(1, 4);
        w1.on_message(2, tags::CANCEL, PipeMsg::Cancel { run_id: 8 }, &mut ctx1);
        assert!(ctx1.sent.is_empty());
    }

    #[test]
    fn cache_ops_are_applied_and_forwarded() {
        use crate::message::CacheOp;
        let rm = CacheOp::SeqRm {
            seq: 0,
            p0: 0,
            p1: 1,
        };
        let mut w = PipelineWorker::new(1, PipelineRoute::baseline(3), sim_engine());
        let mut ctx = TestCtx::new(1, 4);
        w.on_message(0, tags::CACHE, PipeMsg::Cache(rm), &mut ctx);
        assert_eq!(ctx.sent.len(), 1);
        assert_eq!(ctx.sent[0].dst, 2);
        // Last stage does not forward further.
        let mut last = PipelineWorker::new(2, PipelineRoute::baseline(3), sim_engine());
        let mut ctx2 = TestCtx::new(1, 4);
        last.on_message(1, tags::CACHE, PipeMsg::Cache(rm), &mut ctx2);
        assert!(ctx2.sent.is_empty());
    }

    #[test]
    fn shutdown_propagates_and_finishes() {
        let mut w = PipelineWorker::new(1, PipelineRoute::baseline(3), sim_engine());
        let mut ctx = TestCtx::new(1, 4);
        assert!(!w.is_finished());
        w.on_message(0, tags::SHUTDOWN, PipeMsg::Shutdown, &mut ctx);
        assert!(w.is_finished());
        assert!(matches!(ctx.sent[0].msg, PipeMsg::Shutdown));
    }
}
