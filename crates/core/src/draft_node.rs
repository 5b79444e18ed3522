//! The dedicated speculative (draft) rank.
//!
//! PipeInfer moves the speculative model onto its own rank so drafting runs
//! concurrently with target-pipeline inference (Asynchronous Speculation,
//! §IV-A; the paper's Fig. 3 hosts it on rank 1).  The rank is a
//! request/response server: the head sends its current hypothesis plus a
//! width×depth tree shape, the draft rank runs its model and returns the
//! proposed token tree with per-node confidences and topology.
//!
//! Requests are **not** served in arrival order.  Incoming requests are
//! buffered and answered from the idle loop, and the rank only ever serves
//! the *latest* pending request: any earlier buffered request speculates
//! from a hypothesis the head has since extended or abandoned, so serving it
//! FIFO would burn draft-model time on an answer the head is guaranteed to
//! discard.  An out-of-band [`PipeMsg::DraftCancel`] raises a high-water
//! mark that additionally drops stale requests still in flight on the wire
//! (the head sends it when an invalidation makes a pending hypothesis
//! worthless).  Every dropped request counts as a saved draft evaluation in
//! the driver statistics.

use pi_cluster::{trace_if, EventKind, NodeBehavior, NodeCtx, Rank, Tag};
use pi_model::Token;
use pi_spec::message::tags;
use pi_spec::{Drafter, PipeMsg, TreeTopology};
use std::collections::VecDeque;

/// Orphan detection window: with no traffic from the head for this long the
/// draft rank shuts itself down.  Fault-free runs always end with an explicit
/// [`PipeMsg::Shutdown`] long before this, but a fault schedule can drop the
/// shutdown (or every head message) on the wire — without the self-shutdown
/// the rank would block forever and turn a drop schedule into a deadlock.
/// Virtual seconds under the simulator (where the deadline is driven by
/// [`NodeCtx::request_wake`], honored only while faults are armed),
/// wall-clock under the threaded driver.
const ORPHAN_SHUTDOWN_S: f64 = 30.0;

/// One buffered draft request.
#[derive(Debug, Clone)]
struct PendingDraft {
    request_id: u64,
    context: Vec<Token>,
    width: usize,
    max_tokens: usize,
    confidence_cutoff: f32,
}

/// The draft rank state machine.
pub struct DraftNode {
    head_rank: Rank,
    drafter: Box<dyn Drafter>,
    /// Buffered requests, oldest first; only the newest is ever served.
    pending: VecDeque<PendingDraft>,
    /// Highest request id cancelled by the head; requests at or below it are
    /// dropped even if they arrive after the cancellation signal.
    cancelled_up_to: Option<u64>,
    finished: bool,
    /// Time of the last message from the head (orphan-detection clock).
    last_activity: f64,
    /// Number of draft requests served.
    pub requests_served: u64,
    /// Number of draft requests dropped unserved (superseded by a newer
    /// hypothesis or cancelled by the head).
    pub requests_dropped: u64,
    /// Total tokens drafted.
    pub tokens_drafted: u64,
}

impl DraftNode {
    /// Creates the draft rank; responses are sent to `head_rank`.
    pub fn new(head_rank: Rank, drafter: Box<dyn Drafter>) -> Self {
        Self {
            head_rank,
            drafter,
            pending: VecDeque::new(),
            cancelled_up_to: None,
            finished: false,
            last_activity: 0.0,
            requests_served: 0,
            requests_dropped: 0,
            tokens_drafted: 0,
        }
    }

    fn drop_stale(&mut self, ctx: &mut dyn NodeCtx<PipeMsg>) {
        if let Some(up_to) = self.cancelled_up_to {
            let before = self.pending.len();
            self.pending.retain(|p| p.request_id > up_to);
            let dropped = (before - self.pending.len()) as u64;
            if dropped > 0 {
                self.requests_dropped += dropped;
                ctx.stats().cancellations_saved += dropped;
                trace_if(ctx, || EventKind::DraftDropped { n: dropped as u32 });
            }
        }
    }

    /// Serves the newest pending request, dropping every older one.
    fn serve_latest(&mut self, ctx: &mut dyn NodeCtx<PipeMsg>) -> bool {
        self.drop_stale(ctx);
        let Some(req) = self.pending.pop_back() else {
            return false;
        };
        let superseded = self.pending.len() as u64;
        if superseded > 0 {
            // Older hypotheses are stale by construction: the head only
            // re-requests after extending or correcting its hypothesis.
            self.requests_dropped += superseded;
            ctx.stats().cancellations_saved += superseded;
            trace_if(ctx, || EventKind::DraftDropped {
                n: superseded as u32,
            });
            self.pending.clear();
        }
        let (tree, cost) = self.drafter.draft_tree(
            &req.context,
            &[],
            req.width,
            req.max_tokens,
            req.confidence_cutoff,
        );
        ctx.elapse(cost);
        trace_if(ctx, || EventKind::DraftServe {
            request: req.request_id,
            n_nodes: tree.len() as u32,
            dur: cost,
        });
        self.requests_served += 1;
        self.tokens_drafted += tree.len() as u64;
        let nodes: Vec<(Token, f32)> = tree.nodes().iter().map(|n| (n.token, n.prob)).collect();
        let topology = TreeTopology::from_tree(&tree);
        ctx.send(
            self.head_rank,
            tags::DRAFT,
            PipeMsg::DraftResponse {
                request_id: req.request_id,
                nodes,
                topology,
                context_len: req.context.len(),
            },
        );
        true
    }
}

impl NodeBehavior<PipeMsg> for DraftNode {
    fn on_start(&mut self, ctx: &mut dyn NodeCtx<PipeMsg>) {
        self.last_activity = ctx.now();
        ctx.request_wake(self.last_activity + ORPHAN_SHUTDOWN_S);
    }

    fn on_message(&mut self, _src: Rank, _tag: Tag, msg: PipeMsg, ctx: &mut dyn NodeCtx<PipeMsg>) {
        self.last_activity = ctx.now();
        ctx.request_wake(self.last_activity + ORPHAN_SHUTDOWN_S);
        match msg {
            PipeMsg::DraftRequest {
                request_id,
                context,
                width,
                max_tokens,
                confidence_cutoff,
            } => {
                self.pending.push_back(PendingDraft {
                    request_id,
                    context,
                    width,
                    max_tokens,
                    confidence_cutoff,
                });
                // Served from the idle loop so that cancellations and newer
                // requests already queued behind this message win first.
                self.drop_stale(ctx);
            }
            PipeMsg::DraftCancel { up_to } => {
                self.cancelled_up_to = Some(self.cancelled_up_to.map_or(up_to, |c| c.max(up_to)));
                self.drop_stale(ctx);
            }
            PipeMsg::Shutdown => {
                self.finished = true;
            }
            // The draft rank is not part of the target pipeline; any other
            // traffic is a routing mistake and is ignored.
            _ => {}
        }
    }

    fn on_idle(&mut self, ctx: &mut dyn NodeCtx<PipeMsg>) -> bool {
        if self.finished {
            return false;
        }
        if self.serve_latest(ctx) {
            ctx.request_wake(ctx.now() + ORPHAN_SHUTDOWN_S);
            return true;
        }
        if ctx.now() >= self.last_activity + ORPHAN_SHUTDOWN_S {
            // Nothing from the head for the whole window: it is gone or
            // unreachable.  Finish so the run halts cleanly instead of
            // deadlocking on a shutdown that will never arrive.
            self.finished = true;
            return false;
        }
        ctx.request_wake(self.last_activity + ORPHAN_SHUTDOWN_S);
        false
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
    use pi_cluster::NodeStats;
    use pi_model::{ModelConfig, OracleDraft, OracleTarget};
    use pi_perf::{CostModel, ModelCost, NodeSpec};
    use pi_spec::drafter::OracleDrafter;
    use pi_tensor::QuantKind;

    struct TestCtx {
        sent: Vec<(Rank, PipeMsg)>,
        elapsed: f64,
        stats: NodeStats,
    }
    impl TestCtx {
        fn new() -> Self {
            Self {
                sent: Vec::new(),
                elapsed: 0.0,
                stats: NodeStats::default(),
            }
        }
    }
    impl NodeCtx<PipeMsg> for TestCtx {
        fn rank(&self) -> Rank {
            1
        }
        fn world_size(&self) -> usize {
            4
        }
        fn now(&self) -> f64 {
            0.0
        }
        fn send(&mut self, dst: Rank, _tag: Tag, msg: PipeMsg) {
            self.sent.push((dst, msg));
        }
        fn elapse(&mut self, seconds: f64) {
            self.elapsed += seconds;
        }
        fn stats(&mut self) -> &mut NodeStats {
            &mut self.stats
        }
    }

    fn node(alignment: f64) -> DraftNode {
        let drafter = OracleDrafter::new(
            OracleTarget::new(1, 32000),
            OracleDraft::new(2, 32000, alignment),
            CostModel::new(NodeSpec::xeon_gold_6140_dual()),
            ModelCost::new(ModelConfig::tinyllama_1_1b(), QuantKind::Q4K),
        );
        DraftNode::new(0, Box::new(drafter))
    }

    fn request(id: u64, context: Vec<Token>, width: usize, max_tokens: usize) -> PipeMsg {
        PipeMsg::DraftRequest {
            request_id: id,
            context,
            width,
            max_tokens,
            confidence_cutoff: 0.0,
        }
    }

    #[test]
    fn serves_draft_requests_from_the_idle_loop() {
        let mut n = node(0.9);
        let mut ctx = TestCtx::new();
        n.on_message(0, tags::DRAFT, request(1, vec![1, 2, 3, 4], 1, 3), &mut ctx);
        assert!(ctx.sent.is_empty(), "requests are buffered, not served");
        assert!(n.on_idle(&mut ctx));
        assert_eq!(n.requests_served, 1);
        assert!(n.tokens_drafted >= 1 && n.tokens_drafted <= 3);
        assert!(ctx.elapsed > 0.0, "draft cost must be charged");
        assert_eq!(ctx.sent.len(), 1);
        assert_eq!(ctx.sent[0].0, 0);
        match &ctx.sent[0].1 {
            PipeMsg::DraftResponse {
                request_id,
                nodes,
                topology,
                context_len,
            } => {
                assert_eq!(*request_id, 1);
                assert_eq!(*context_len, 4);
                assert!(!nodes.is_empty());
                assert_eq!(topology.parents.len(), nodes.len());
            }
            other => panic!("unexpected reply {other:?}"),
        }
        assert!(!n.on_idle(&mut ctx), "queue drained");
    }

    #[test]
    fn tree_requests_return_topology_with_runner_up_roots() {
        let mut n = node(0.5);
        let mut ctx = TestCtx::new();
        n.on_message(0, tags::DRAFT, request(3, vec![5, 6, 7], 3, 4), &mut ctx);
        assert!(n.on_idle(&mut ctx));
        match &ctx.sent[0].1 {
            PipeMsg::DraftResponse {
                nodes, topology, ..
            } => {
                let roots = topology.parents.iter().filter(|p| p.is_none()).count();
                assert!(roots >= 2, "width 3 must hedge with extra roots");
                assert!(nodes.len() < 4 + 3, "at most depth + width - 1 nodes");
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn only_the_latest_pending_request_is_served() {
        let mut n = node(0.9);
        let mut ctx = TestCtx::new();
        n.on_message(0, tags::DRAFT, request(1, vec![1], 1, 2), &mut ctx);
        n.on_message(0, tags::DRAFT, request(2, vec![1, 9], 1, 2), &mut ctx);
        n.on_message(0, tags::DRAFT, request(3, vec![1, 9, 9], 1, 2), &mut ctx);
        assert!(n.on_idle(&mut ctx));
        assert_eq!(n.requests_served, 1);
        assert_eq!(n.requests_dropped, 2, "older hypotheses are stale");
        assert_eq!(ctx.stats.cancellations_saved, 2);
        assert_eq!(ctx.sent.len(), 1);
        match &ctx.sent[0].1 {
            PipeMsg::DraftResponse {
                request_id,
                context_len,
                ..
            } => {
                assert_eq!(*request_id, 3);
                assert_eq!(*context_len, 3);
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn cancellation_drops_pending_and_late_arriving_requests() {
        let mut n = node(0.9);
        let mut ctx = TestCtx::new();
        n.on_message(0, tags::DRAFT, request(4, vec![1], 1, 2), &mut ctx);
        // Out-of-band cancel overtakes request 5 on the wire.
        n.on_message(0, tags::CANCEL, PipeMsg::DraftCancel { up_to: 5 }, &mut ctx);
        assert_eq!(n.requests_dropped, 1, "buffered request 4 dropped");
        n.on_message(0, tags::DRAFT, request(5, vec![1, 2], 1, 2), &mut ctx);
        assert_eq!(n.requests_dropped, 2, "late request 5 dropped on arrival");
        assert!(!n.on_idle(&mut ctx), "nothing left to serve");
        assert_eq!(n.requests_served, 0);
        assert_eq!(ctx.stats.cancellations_saved, 2);
        // A fresh request above the high-water mark is served normally.
        n.on_message(0, tags::DRAFT, request(6, vec![1, 2, 3], 1, 2), &mut ctx);
        assert!(n.on_idle(&mut ctx));
        assert_eq!(n.requests_served, 1);
    }

    #[test]
    fn shutdown_finishes_the_rank() {
        let mut n = node(0.5);
        let mut ctx = TestCtx::new();
        assert!(!n.is_finished());
        n.on_message(0, tags::SHUTDOWN, PipeMsg::Shutdown, &mut ctx);
        assert!(n.is_finished());
        assert!(ctx.sent.is_empty());
    }

    #[test]
    fn ignores_pipeline_traffic() {
        let mut n = node(0.5);
        let mut ctx = TestCtx::new();
        n.on_message(0, tags::CANCEL, PipeMsg::Cancel { run_id: 1 }, &mut ctx);
        assert!(ctx.sent.is_empty());
        assert!(!n.is_finished());
    }
}
