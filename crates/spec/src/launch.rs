//! The head side of a run, shared by both cluster heads: [`launch`]
//! evaluates the head's own stage over a run's batch and sends it down the
//! pipeline.
//!
//! A **non-speculative** run — a prompt, or the one pending token — needs
//! the logits of its last row only, so it travels in *slices* of at most one
//! weight pass ([`StageEngine::slice_rows`](crate::engine::StageEngine)):
//! while stage 1 evaluates slice `i`, the head evaluates slice `i + 1`, and
//! a prompt's prefill overlaps across the stages instead of visiting them
//! one after another.  Slicing at one pass adds no pass over the weights (a
//! taller product takes one pass per block of that height anyway) and
//! changes no bits: row `r` of an `m`-row product is bitwise its single-row
//! product, and each row attends over the same cells in the same order.
//!
//! Every slice carries the run's id.  Only the final slice requests logits,
//! so the last stage answers the run once (`PipelineWorker` sends no
//! `RunResult` for a slice that requests none), with the final slice's rows.
//! A **speculative** run needs every row verified and travels whole.

use crate::engine::HeadEngine;
use crate::message::{tags, ActivationPayload, PipeMsg, RunId, RunKind, TreeTopology};
use crate::route::PipelineRoute;
use pi_cluster::{trace_if, EventKind, NodeCtx};
use pi_model::batch::BatchEntry;
use pi_model::Batch;
use std::ops::Range;

/// A run as the head launches it.
pub struct Run {
    /// The id every slice of the run carries.
    pub id: RunId,
    /// Whether the batch carries speculated tokens (sliced only if not).
    pub kind: RunKind,
    /// Rows in evaluation order, lane 0.
    pub batch: Batch,
    /// Parent links of a genuine tree, sent along with the final slice.
    pub tree: Option<TreeTopology>,
}

/// The row ranges a run of `len` rows travels in: consecutive slices of
/// `slice_rows` (the final one possibly shorter) for a non-speculative run,
/// the whole batch otherwise.
fn slices(kind: RunKind, len: usize, slice_rows: usize) -> impl Iterator<Item = Range<usize>> {
    let step = match kind {
        RunKind::NonSpeculative => slice_rows.clamp(1, len.max(1)),
        RunKind::Speculative => len.max(1),
    };
    (0..len)
        .step_by(step)
        .map(move |start| start..len.min(start + step))
}

/// Evaluates the head's stage over `run` and sends it down `route`, in
/// slices of `slice_rows` if it is non-speculative (see the module docs),
/// charging each slice's evaluation to `ctx`.  With `trace_inflight` the
/// head records `run_inflight` once its stage has evaluated the whole run.
///
/// Returns the final slice's activations when the head is the route's only
/// stage, for the caller to finalize itself; `None` once the run is on the
/// wire.
pub fn launch(
    engine: &mut dyn HeadEngine,
    route: &PipelineRoute,
    ctx: &mut dyn NodeCtx<PipeMsg>,
    run: Run,
    slice_rows: usize,
    trace_inflight: bool,
) -> Option<ActivationPayload> {
    let Run {
        id,
        kind,
        mut batch,
        mut tree,
    } = run;
    let next = route.next_after(route.head());
    let len = batch.len();
    for rows in slices(kind, len, slice_rows) {
        let last = rows.end == len;
        let slice = if rows.len() == len {
            std::mem::take(&mut batch)
        } else {
            batch.entries()[rows]
                .iter()
                .map(|e| BatchEntry {
                    logits: e.logits && last,
                    ..e.clone()
                })
                .collect()
        };
        let (payload, cost) = engine.eval_first_stage(&slice);
        ctx.elapse(cost);
        if last && trace_inflight {
            trace_if(ctx, || EventKind::RunInflight { run: id });
        }
        match next {
            Some(next) => {
                let msg = PipeMsg::Decode {
                    run_id: id,
                    kind,
                    batch: slice,
                    payload,
                    tree: if last { tree.take() } else { None },
                };
                ctx.send(next, tags::DECODE, msg);
            }
            // The head is the last stage: a leading slice's rows are in its
            // cache now, and the final slice's are the run's result.
            None if last => return Some(payload),
            None => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{RealStage, StageEngine};
    use crate::testkit::TestCtx;
    use pi_model::{KvCache, Model, ModelConfig, Sampler, TokenTree};
    use std::sync::Arc;

    #[test]
    fn non_speculative_runs_are_sliced_and_speculative_runs_are_not() {
        // The heights of consecutive slices, after checking they tile the
        // batch in order.
        let heights = |kind, len, h| {
            let mut next = 0;
            let mut heights = Vec::new();
            for rows in slices(kind, len, h) {
                assert_eq!(rows.start, next);
                next = rows.end;
                heights.push(rows.len());
            }
            assert_eq!(next, len);
            heights
        };
        let prompt = RunKind::NonSpeculative;
        assert_eq!(heights(prompt, 1, 8), [1]);
        assert_eq!(heights(prompt, 8, 8), [8]);
        assert_eq!(heights(prompt, 9, 8), [8, 1]);
        assert_eq!(heights(prompt, 17, 4), [4, 4, 4, 4, 1]);
        assert_eq!(heights(prompt, 3, 1), [1, 1, 1]);
        assert_eq!(heights(prompt, 5, usize::MAX), [5]);
        assert_eq!(heights(RunKind::Speculative, 17, 4), [17]);
    }

    /// A prompt sent in slices reaches the next stage as one `Decode` per
    /// slice, each under the run's id, with logits requested only on the
    /// final slice — whose rows, finalized, give the token single-process
    /// greedy decoding samples after the prompt.
    #[test]
    fn a_sliced_prompt_matches_single_process_prefill() {
        let model = Arc::new(Model::random(ModelConfig::tiny_llama(64, 4), 5));
        let prompt: Vec<u32> = (0..23).map(|i| (i * 7 + 3) % 64).collect();
        let mut cache = KvCache::new(4, model.config().kv_dim(), 64);
        let logits = model
            .forward_full(&Batch::prompt(&prompt, 0, 0), &mut cache)
            .unwrap();
        let truth = Sampler::Greedy.sample(logits.row(prompt.len() - 1).unwrap());
        let route = PipelineRoute::baseline(2);
        for h in [1, 4, 6, 8, 64] {
            let mut head = RealStage::new(model.clone(), 0..2);
            let mut stage = RealStage::new(model.clone(), 2..4);
            head.open(64, None);
            stage.open(64, None);
            let mut ctx = TestCtx::new(0, 2);
            let run = Run {
                id: 3,
                kind: RunKind::NonSpeculative,
                batch: Batch::prompt(&prompt, 0, 0),
                tree: None,
            };
            let local = launch(&mut head, &route, &mut ctx, run, h, false);
            assert!(local.is_none(), "h={h}");
            let n_slices = prompt.len().div_ceil(h);
            assert_eq!(ctx.sent.len(), n_slices, "h={h}");
            let mut out = ActivationPayload::Empty;
            for (i, sent) in ctx.sent.drain(..).enumerate() {
                let PipeMsg::Decode {
                    run_id,
                    batch,
                    payload,
                    ..
                } = sent.msg
                else {
                    panic!("h={h}: slice {i} is not a decode");
                };
                assert_eq!(run_id, 3);
                assert_eq!(batch.len(), h.min(prompt.len() - i * h), "h={h}");
                assert_eq!(batch.entries()[0].pos, (i * h) as i32);
                let last = i + 1 == n_slices;
                assert_eq!(!batch.logit_indices().is_empty(), last, "h={h} slice {i}");
                out = stage.eval(&batch, &payload).0;
            }
            let parents = TokenTree::chain_of(&prompt).parents();
            let (greedy, _) = head.finalize(&Batch::prompt(&prompt, 0, 0), &out, &[], &parents);
            assert_eq!(greedy.last(), Some(&truth), "h={h}");
        }
    }

    /// With the head as the only stage nothing is sent: the final slice's
    /// activations come back to the caller.
    #[test]
    fn a_single_stage_head_keeps_the_final_slice() {
        let model = Arc::new(Model::random(ModelConfig::tiny_llama(64, 2), 9));
        let mut head = RealStage::new(model, 0..2);
        head.open(64, None);
        let mut ctx = TestCtx::new(0, 1);
        let run = Run {
            id: 0,
            kind: RunKind::NonSpeculative,
            batch: Batch::prompt(&[1, 2, 3, 4, 5, 6, 7], 0, 0),
            tree: None,
        };
        let route = PipelineRoute::baseline(1);
        let out = launch(&mut head, &route, &mut ctx, run, 3, false);
        assert!(ctx.sent.is_empty());
        assert_eq!(out.map(|p| p.tokens()), Some(1));
        assert_eq!(head.cache(0).seq_len(0), 7);
    }
}
