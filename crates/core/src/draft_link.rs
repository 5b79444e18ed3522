//! The head's side of the dedicated draft rank's protocol: [`RemoteDraft`].
//!
//! [`DraftNode`](crate::DraftNode) serves `DraftRequest` transactions; this
//! is its client and the whole recovery ladder for when it does not.  One
//! request is in flight at a time, under a deadline.  A response that is not
//! the in-flight request's — a duplicate, or one that arrives after its
//! request was withdrawn or timed out — means nothing.  An empty response is
//! a *refusal*: the drafter was not confident enough, and asking again is
//! pointless until the cutoff drops, the hypothesis moves, or a seeded,
//! bounded backoff elapses (without which the head busy-loops
//! request/empty-response round trips, and with only which a permanently
//! refusing drafter would stall speculation forever).  A deadline expiry is
//! a *timeout*, retried under the same backoff.  Streaks of either end in
//! the rank being abandoned: `draft_max_retries + 1` timeouts (silence means
//! dead, partitioned or pathologically slow), or four times as many refusals
//! (an answer proves the rank alive, so the bar is higher).  Only a useful
//! response clears a streak.
//!
//! None of this can touch the token stream: verified tokens only ever come
//! from the head's own target engine.

use crate::rounds::DraftAsk;
use crate::PipeInferConfig;
use pi_cluster::{trace_if, EventKind, NodeCtx, Rank};
use pi_model::Token;
use pi_spec::message::tags;
use pi_spec::PipeMsg;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Seed of the backoff-jitter source.  A fixed constant: the jitter
/// decorrelates retry times *within* a run while keeping every replay of the
/// same schedule bit-identical.
const BACKOFF_JITTER_SEED: u64 = 0x0070_695f_6865_6164; // "pi_head"

/// Cap on the backoff exponent (`base × 2^min(failures, 6)`), bounding the
/// longest retry wait regardless of how many failures accumulate.
const BACKOFF_MAX_EXP: u32 = 6;

/// How many times more consecutive refusals than timeouts it takes to
/// abandon the rank.
const REFUSAL_ABANDON_FACTOR: u32 = 4;

/// What a link event means for the head.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Nothing to do.
    Nothing,
    /// The response answers the request in flight with a tree to offer.
    Tree,
    /// The request in flight timed out and will be retried after a backoff.
    TimedOut,
    /// The streak of timeouts or refusals reached its bar: the rank is
    /// abandoned for the rest of the run.
    Abandon,
}

/// A request awaiting its response.
#[derive(Debug, Clone, Copy)]
struct Inflight {
    id: u64,
    /// The cutoff it was issued with: what a refusal refuses.
    cutoff: f32,
    deadline: f64,
}

/// Client state of the draft-request protocol.
pub struct RemoteDraft {
    rank: Rank,
    deadline_s: f64,
    max_retries: u32,
    backoff_s: f64,
    next_id: u64,
    inflight: Option<Inflight>,
    /// A standing refusal: the `(cutoff, hypothesis length)` it was given
    /// for.
    refused: Option<(f32, usize)>,
    /// Consecutive timeouts since the last useful response.
    timeouts: u32,
    /// Consecutive refusals since the last useful response.
    refusals: u32,
    /// No request goes out before this time.
    backoff_until: Option<f64>,
    rng: StdRng,
    abandoned: bool,
}

impl RemoteDraft {
    /// A link to the draft rank `rank`, with `config`'s recovery knobs.
    pub fn new(rank: Rank, config: &PipeInferConfig) -> Self {
        Self {
            rank,
            deadline_s: config.draft_deadline_s,
            max_retries: config.draft_max_retries,
            backoff_s: config.draft_backoff_s,
            next_id: 0,
            inflight: None,
            refused: None,
            timeouts: 0,
            refusals: 0,
            backoff_until: None,
            rng: StdRng::seed_from_u64(BACKOFF_JITTER_SEED),
            abandoned: false,
        }
    }

    /// The draft rank.  It is owed a shutdown even once abandoned: it may be
    /// merely partitioned or slow rather than dead.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Whether the rank has been given up on.
    pub fn abandoned(&self) -> bool {
        self.abandoned
    }

    /// Sends a request for `ask` on `hypothesis` unless one is in flight, a
    /// refusal of this very ask stands, or a backoff is running.  Returns
    /// whether it went out.
    pub fn request(
        &mut self,
        ask: DraftAsk,
        hypothesis: &[Token],
        ctx: &mut dyn NodeCtx<PipeMsg>,
    ) -> bool {
        if let Some(d) = self.inflight {
            // Keep the deadline armed: wake requests are one-shot.
            ctx.request_wake(d.deadline);
            return false;
        }
        let moved = |(cutoff, len)| ask.cutoff < cutoff || hypothesis.len() != len;
        if self.refused.is_some_and(moved) {
            // The cutoff dropped or the hypothesis moved: the refusal is
            // lifted, and the backoff it armed with it.
            (self.refused, self.backoff_until) = (None, None);
        }
        match self.backoff_until {
            Some(until) if ctx.now() < until => {
                ctx.request_wake(until);
                return false;
            }
            _ => (self.refused, self.backoff_until) = (None, None),
        }
        let id = self.next_id;
        self.next_id += 1;
        let deadline = ctx.now() + self.deadline_s;
        self.inflight = Some(Inflight {
            id,
            cutoff: ask.cutoff,
            deadline,
        });
        if self.timeouts > 0 || self.refusals > 0 {
            ctx.record_draft_retry();
        }
        ctx.request_wake(deadline);
        let context_len = hypothesis.len() as u32;
        trace_if(ctx, || EventKind::DraftRequested {
            request: id,
            context_len,
        });
        ctx.send(
            self.rank,
            tags::DRAFT,
            PipeMsg::DraftRequest {
                request_id: id,
                context: hypothesis.to_vec(),
                width: ask.width,
                max_tokens: ask.depth,
                confidence_cutoff: ask.cutoff,
            },
        );
        true
    }

    /// Handles the response to `request_id`: `n_nodes` drafted on the first
    /// `context_len` tokens of a hypothesis that is `hypothesis_len` long by
    /// now.
    pub fn on_response(
        &mut self,
        request_id: u64,
        n_nodes: usize,
        context_len: usize,
        hypothesis_len: usize,
        ctx: &mut dyn NodeCtx<PipeMsg>,
    ) -> Verdict {
        trace_if(ctx, || EventKind::DraftResponded {
            request: request_id,
            n_nodes: n_nodes as u32,
        });
        let Some(answered) = self.inflight.take_if(|d| d.id == request_id) else {
            return Verdict::Nothing;
        };
        if n_nodes > 0 {
            (self.timeouts, self.refusals) = (0, 0);
            return Verdict::Tree;
        }
        // The refusal judged the *requested* context only: if the hypothesis
        // has grown since, the next request goes out unimpeded.
        if context_len != hypothesis_len {
            return Verdict::Nothing;
        }
        self.refusals += 1;
        if self.refusals >= REFUSAL_ABANDON_FACTOR * (self.max_retries + 1) {
            return self.abandon(self.refusals, ctx);
        }
        self.refused = Some((answered.cutoff, context_len));
        self.arm_backoff(self.refusals, ctx);
        Verdict::Nothing
    }

    /// The hypothesis was rewritten: withdraws the request in flight, if any
    /// (returns whether there was one), and lifts a standing refusal — keyed
    /// on the old content's length — with its backoff.  The streaks stay:
    /// only a useful response clears them.
    pub fn invalidate(&mut self, ctx: &mut dyn NodeCtx<PipeMsg>) -> bool {
        if self.refused.take().is_some() {
            self.backoff_until = None;
        }
        let Some(d) = self.inflight.take() else {
            return false;
        };
        trace_if(ctx, || EventKind::DraftCancelled { up_to: d.id });
        ctx.send(
            self.rank,
            tags::CANCEL,
            PipeMsg::DraftCancel { up_to: d.id },
        );
        true
    }

    /// Checks the request in flight against its deadline; called at the top
    /// of every head callback.
    pub fn poll(&mut self, ctx: &mut dyn NodeCtx<PipeMsg>) -> Verdict {
        let Some(d) = self.inflight else {
            return Verdict::Nothing;
        };
        if ctx.now() < d.deadline {
            ctx.request_wake(d.deadline);
            return Verdict::Nothing;
        }
        self.inflight = None;
        self.timeouts += 1;
        ctx.record_draft_timeout();
        trace_if(ctx, || EventKind::DraftTimeout { request: d.id });
        // Tell the (possibly just slow) rank to drop the request unserved; a
        // late response is already `Nothing`.
        ctx.send(
            self.rank,
            tags::CANCEL,
            PipeMsg::DraftCancel { up_to: d.id },
        );
        if self.timeouts > self.max_retries {
            return self.abandon(self.timeouts, ctx);
        }
        self.arm_backoff(self.timeouts, ctx);
        Verdict::TimedOut
    }

    fn abandon(&mut self, streak: u32, ctx: &mut dyn NodeCtx<PipeMsg>) -> Verdict {
        ctx.record_failover();
        trace_if(ctx, || EventKind::DraftFailover { timeouts: streak });
        (self.inflight, self.refused, self.backoff_until) = (None, None, None);
        self.abandoned = true;
        Verdict::Abandon
    }

    /// Arms the retry backoff after the `failures`-th consecutive failure:
    /// `draft_backoff_s × 2^min(failures, 6) × U[0.5, 1.5)`.
    fn arm_backoff(&mut self, failures: u32, ctx: &mut dyn NodeCtx<PipeMsg>) {
        let exp = failures.min(BACKOFF_MAX_EXP);
        let jitter = 0.5 + self.rng.gen::<f64>();
        let until = ctx.now() + self.backoff_s * f64::from(1u32 << exp) * jitter;
        self.backoff_until = Some(until);
        ctx.request_wake(until);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_cluster::Tag;

    /// A [`NodeCtx`] with a hand-set clock that records what the link does.
    #[derive(Default)]
    struct Ctx {
        now: f64,
        sent: Vec<(Rank, Tag, PipeMsg)>,
        wakes: Vec<f64>,
        timeouts: u32,
        retries: u32,
        failovers: u32,
    }

    impl NodeCtx<PipeMsg> for Ctx {
        fn rank(&self) -> Rank {
            0
        }
        fn world_size(&self) -> usize {
            3
        }
        fn now(&self) -> f64 {
            self.now
        }
        fn send(&mut self, dst: Rank, tag: Tag, msg: PipeMsg) {
            self.sent.push((dst, tag, msg));
        }
        fn elapse(&mut self, seconds: f64) {
            self.now += seconds;
        }
        fn record_draft_timeout(&mut self) {
            self.timeouts += 1;
        }
        fn record_draft_retry(&mut self) {
            self.retries += 1;
        }
        fn record_failover(&mut self) {
            self.failovers += 1;
        }
        fn request_wake(&mut self, at: f64) {
            self.wakes.push(at);
        }
    }

    const DRAFT_RANK: Rank = 2;
    const HYPOTHESIS: [Token; 4] = [9, 8, 7, 6];

    fn link() -> RemoteDraft {
        RemoteDraft::new(DRAFT_RANK, &PipeInferConfig::default())
    }

    fn ask(cutoff: f32) -> DraftAsk {
        DraftAsk {
            width: 1,
            depth: 2,
            cutoff,
        }
    }

    /// Sends a request and returns its id.
    fn request(link: &mut RemoteDraft, ctx: &mut Ctx) -> u64 {
        assert!(link.request(ask(0.4), &HYPOTHESIS, ctx));
        match ctx.sent.last() {
            Some((DRAFT_RANK, tags::DRAFT, PipeMsg::DraftRequest { request_id, .. })) => {
                *request_id
            }
            other => panic!("no request went out: {other:?}"),
        }
    }

    /// The draft rank refuses the request `id`, made on [`HYPOTHESIS`].
    fn refuse(link: &mut RemoteDraft, id: u64, ctx: &mut Ctx) -> Verdict {
        link.on_response(id, 0, HYPOTHESIS.len(), HYPOTHESIS.len(), ctx)
    }

    #[test]
    fn one_request_is_in_flight_under_a_deadline() {
        let (mut link, mut ctx) = (link(), Ctx::default());
        ctx.now = 1.0;
        let id = request(&mut link, &mut ctx);
        let deadline = 1.0 + PipeInferConfig::default().draft_deadline_s;
        assert_eq!(ctx.wakes, [deadline]);
        match &ctx.sent[0].2 {
            PipeMsg::DraftRequest {
                context,
                width,
                max_tokens,
                confidence_cutoff,
                ..
            } => {
                assert_eq!(context, &HYPOTHESIS);
                assert_eq!((*width, *max_tokens, *confidence_cutoff), (1, 2, 0.4));
            }
            other => panic!("unexpected {other:?}"),
        }
        // A second ask waits for the first, keeping its deadline armed.
        assert!(!link.request(ask(0.1), &HYPOTHESIS, &mut ctx));
        assert_eq!(ctx.sent.len(), 1);
        assert_eq!(ctx.wakes, [deadline, deadline]);
        // Before the deadline a poll only re-arms it.
        ctx.now = deadline - 0.1;
        assert_eq!(link.poll(&mut ctx), Verdict::Nothing);
        assert_eq!(link.on_response(id, 2, 4, 4, &mut ctx), Verdict::Tree);
        assert_eq!(link.poll(&mut ctx), Verdict::Nothing);
        assert_eq!((ctx.timeouts, ctx.retries), (0, 0));
    }

    #[test]
    fn duplicate_and_late_responses_mean_nothing() {
        let (mut link, mut ctx) = (link(), Ctx::default());
        // Never requested.
        assert_eq!(link.on_response(5, 2, 4, 4, &mut ctx), Verdict::Nothing);
        let id = request(&mut link, &mut ctx);
        assert_eq!(link.on_response(id, 2, 4, 4, &mut ctx), Verdict::Tree);
        // Delivered twice.
        assert_eq!(link.on_response(id, 2, 4, 4, &mut ctx), Verdict::Nothing);
        // Withdrawn, then answered anyway.
        let id = request(&mut link, &mut ctx);
        assert!(link.invalidate(&mut ctx));
        assert_eq!(link.on_response(id, 2, 4, 4, &mut ctx), Verdict::Nothing);
        // Timed out, then answered anyway.
        let id = request(&mut link, &mut ctx);
        ctx.now += 10.0;
        assert_eq!(link.poll(&mut ctx), Verdict::TimedOut);
        assert_eq!(link.on_response(id, 2, 4, 4, &mut ctx), Verdict::Nothing);
        assert!(!link.abandoned());
    }

    #[test]
    fn a_refusal_stands_until_the_cutoff_drops_the_hypothesis_moves_or_the_backoff_elapses() {
        let refused = || {
            let (mut link, mut ctx) = (link(), Ctx::default());
            let id = request(&mut link, &mut ctx);
            assert_eq!(refuse(&mut link, id, &mut ctx), Verdict::Nothing);
            let until = *ctx.wakes.last().unwrap();
            assert!(until > ctx.now, "a refusal arms the backoff");
            (link, ctx, until)
        };
        // The same ask, or a stricter one, on the same hypothesis: not sent,
        // and the backoff stays armed.
        let (mut link, mut ctx, until) = refused();
        assert!(!link.request(ask(0.4), &HYPOTHESIS, &mut ctx));
        assert!(!link.request(ask(0.5), &HYPOTHESIS, &mut ctx));
        assert_eq!(ctx.sent.len(), 1);
        assert_eq!(ctx.wakes[ctx.wakes.len() - 2..], [until, until]);
        // ...until the backoff elapses; the retry is counted.
        ctx.now = until;
        assert!(link.request(ask(0.4), &HYPOTHESIS, &mut ctx));
        assert_eq!(ctx.retries, 1);

        let (mut link, mut ctx, _) = refused();
        assert!(
            link.request(ask(0.3), &HYPOTHESIS, &mut ctx),
            "lower cutoff"
        );

        let (mut link, mut ctx, _) = refused();
        let grown = [9, 8, 7, 6, 5];
        assert!(link.request(ask(0.4), &grown, &mut ctx), "moved hypothesis");

        // A refusal of a context the hypothesis has outgrown judged nothing.
        let (mut link, mut ctx) = (self::link(), Ctx::default());
        let id = request(&mut link, &mut ctx);
        assert_eq!(link.on_response(id, 0, 4, 5, &mut ctx), Verdict::Nothing);
        assert!(link.request(ask(0.4), &grown, &mut ctx));
        assert_eq!(ctx.retries, 0);
    }

    #[test]
    fn timeouts_back_off_then_abandon_the_rank() {
        let (mut link, mut ctx) = (link(), Ctx::default());
        let max_retries = PipeInferConfig::default().draft_max_retries;
        for streak in 1..=max_retries + 1 {
            let id = request(&mut link, &mut ctx);
            ctx.now += 10.0;
            let verdict = link.poll(&mut ctx);
            match ctx.sent.last() {
                Some((DRAFT_RANK, tags::CANCEL, PipeMsg::DraftCancel { up_to })) => {
                    assert_eq!(*up_to, id, "the slow rank is told to drop the request")
                }
                other => panic!("unexpected {other:?}"),
            }
            if streak <= max_retries {
                assert_eq!(verdict, Verdict::TimedOut, "timeout {streak}");
                let until = *ctx.wakes.last().unwrap();
                assert!(until > ctx.now);
                assert!(
                    !link.request(ask(0.4), &HYPOTHESIS, &mut ctx),
                    "backing off"
                );
                ctx.now = until;
            } else {
                assert_eq!(verdict, Verdict::Abandon);
            }
        }
        assert!(link.abandoned());
        assert_eq!(ctx.timeouts, max_retries + 1);
        assert_eq!(ctx.retries, max_retries);
        assert_eq!(ctx.failovers, 1);
        assert_eq!(link.rank(), DRAFT_RANK, "still owed its shutdown");
    }

    #[test]
    fn refusals_abandon_the_rank_at_four_times_the_bar() {
        let (mut link, mut ctx) = (link(), Ctx::default());
        let bar = 4 * (PipeInferConfig::default().draft_max_retries + 1);
        for streak in 1..=bar {
            let id = request(&mut link, &mut ctx);
            let verdict = refuse(&mut link, id, &mut ctx);
            if streak < bar {
                assert_eq!(verdict, Verdict::Nothing, "refusal {streak}");
                ctx.now = *ctx.wakes.last().unwrap();
            } else {
                assert_eq!(verdict, Verdict::Abandon);
            }
        }
        assert!(link.abandoned());
        assert_eq!((ctx.failovers, ctx.timeouts), (1, 0));
    }

    #[test]
    fn a_useful_response_clears_the_streaks() {
        let (mut link, mut ctx) = (link(), Ctx::default());
        let max_retries = PipeInferConfig::default().draft_max_retries;
        for _ in 0..3 {
            for _ in 0..max_retries {
                request(&mut link, &mut ctx);
                ctx.now += 10.0;
                assert_eq!(link.poll(&mut ctx), Verdict::TimedOut);
                ctx.now = *ctx.wakes.last().unwrap();
            }
            let id = request(&mut link, &mut ctx);
            assert_eq!(link.on_response(id, 1, 4, 4, &mut ctx), Verdict::Tree);
        }
        assert!(!link.abandoned());
    }

    #[test]
    fn invalidate_cancels_once_and_lifts_a_refusal_but_not_the_streak() {
        let (mut link, mut ctx) = (link(), Ctx::default());
        assert!(!link.invalidate(&mut ctx), "nothing in flight");
        assert!(ctx.sent.is_empty());
        let id = request(&mut link, &mut ctx);
        assert!(link.invalidate(&mut ctx));
        assert!(matches!(
            ctx.sent[..],
            [_, (DRAFT_RANK, tags::CANCEL, PipeMsg::DraftCancel { up_to })] if up_to == id
        ));
        assert!(!link.invalidate(&mut ctx), "already withdrawn");
        assert_eq!(ctx.sent.len(), 2);

        // A standing refusal (and its backoff) goes with the hypothesis it
        // judged...
        let id = request(&mut link, &mut ctx);
        refuse(&mut link, id, &mut ctx);
        assert!(!link.request(ask(0.4), &HYPOTHESIS, &mut ctx));
        assert!(!link.invalidate(&mut ctx));
        assert!(link.request(ask(0.4), &HYPOTHESIS, &mut ctx));
        // ...but the refusal still counts towards the bar: the request that
        // followed it was a retry.
        assert_eq!(ctx.retries, 1);
    }
}
