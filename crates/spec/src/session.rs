//! Iteration-level continuous batching: the [`StepSession`] step loop.
//!
//! The replica serving path (`pi_serve::Server::serve`) gives
//! every request its own pipeline: per-request engines, per-request weight
//! streaming, per-request decode steps.  At serving concurrency that wastes
//! the dominant cost — each decode step re-streams every stage's weights for
//! a handful of batch rows.  A `StepSession` instead drives **one** decode
//! loop for all in-flight requests: each iteration collects every request's
//! micro-batch (its pending token plus draft chain or tree), fuses them into
//! a single *forest* batch with one lane per request, and evaluates the
//! forest through the pipeline once.  Projections and FFNs then run as one
//! `m = Σ cohort widths` GEMM per stage (amortising the weight stream over
//! the whole cohort) while attention stays per-sequence against each
//! request's own KV cache — the fused rows are bitwise identical to solo
//! evaluation (see [`crate::engine`]).
//!
//! The session evaluates nothing itself.  It owns the deployment's engines —
//! the head and one per further stage, built by the constructors a solo run
//! uses ([`crate::engine`]) — opens one slot on each per admitted request,
//! and every step runs `head.eval_first_stage → stages[..].eval →
//! finalize` over the forest, in `Sim` and `Real` mode alike.  What is left
//! of a second execution world is this driver: the stages run serially on
//! one thread instead of overlapping on ranks.
//!
//! Requests join and leave at step boundaries (true continuous batching): a
//! newly admitted request's first step is its prefill, a finishing request
//! closes its slots and stops contributing, and the cohort re-forms every
//! iteration.
//!
//! ## Determinism and byte-identity
//!
//! Per request, the session runs the same state machine as the solo
//! synchronous head — each in-flight request owns one `SyncRounds` (the
//! private `rounds` module), the very type the head drives: the same draft
//! calls against the same context, the same greedy verification, the same
//! KV-cache operations.  Fusing only changes *where* the rows are evaluated,
//! never their values — in `Real` mode because fused forward rows are
//! row-independent bitwise, in `Sim` mode because the oracle walk is a pure
//! function of each request's own context.  Every request's token stream is
//! therefore byte-identical to its solo run, whatever the cohort
//! interleaving.  What the session does differently from the head is
//! explicit at its call sites: it does not prime the drafter (its steps are
//! synchronous, and priming measured no gain), and it starts every tree
//! request from the default shape prior and feeds nothing back.
//!
//! ## Cost model
//!
//! Under `Sim` mode the session keeps a virtual clock and adds up what the
//! engines charge.  A fused step is one call per stage over the forest, so
//! each stage charges the weight stream once for the whole cohort plus
//! per-request KV streams, against the summed compute; the unfused knob
//! ([`StepSession::with_fused`]) makes one call per request per stage, i.e.
//! a full weight stream per request per step.  The output head is charged
//! per request either way.  The two knobs run the identical schedule and
//! emit identical tokens; only the roofline differs, which is precisely the
//! quantity the `fig_cohort_batching` bench gates on.  Under `Real` mode the
//! clock accumulates measured wall time.

use crate::deploy::{build_drafter, ExecutionMode, PreparedDeployment, RunOutput, StepProfile};
use crate::engine::{HeadEngine, PrefixPlan, StageEngine};
use crate::message::CacheOp;
use crate::rounds::SyncRounds;
use crate::tree::DEFAULT_PRIOR;
use crate::GenConfig;
use pi_cluster::{Clock, ClusterStats, MonotonicClock};
use pi_model::Batch;
use std::sync::Arc;

/// The deployment's pipeline stages, driven in stage order on the session's
/// thread.  Slot `i` of every engine belongs to the i-th in-flight request.
struct Pipeline {
    head: Box<dyn HeadEngine>,
    /// Stages `1..n_stages`.
    stages: Vec<Box<dyn StageEngine>>,
}

impl Pipeline {
    fn open(&mut self, kv_capacity: usize, plan: Option<&Arc<PrefixPlan>>) {
        self.head.open(kv_capacity, plan);
        for stage in &mut self.stages {
            stage.open(kv_capacity, plan);
        }
    }

    fn close(&mut self, slot: usize) {
        self.head.close(slot);
        for stage in &mut self.stages {
            stage.close(slot);
        }
    }

    /// Applies a pipelined cache op to slot `slot` of every stage, charged
    /// as on the solo path — where the head applies locally and the workers
    /// on receipt, off the head's clock — at the head's cost.
    fn apply_cache_op(&mut self, slot: usize, op: &CacheOp) -> f64 {
        for stage in &mut self.stages {
            stage.apply_cache_op(slot, op);
        }
        self.head.apply_cache_op(slot, op)
    }
}

/// One in-flight (or finished-but-uncollected) request.
struct RequestState {
    id: u64,
    rounds: SyncRounds,
    /// Pool admission, held until the request finishes.
    plan: Option<Arc<PrefixPlan>>,
    /// Steps this request participated in, and the summed cohort widths and
    /// own rows of those steps (surfaced through its `RunOutput` stats).
    steps_participated: u64,
    width_sum: u64,
    own_rows: u64,
}

impl RequestState {
    fn active(&self) -> bool {
        !self.rounds.is_done()
    }
}

/// Aggregate cohort accounting of one session (or one served stream).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Fused decode iterations evaluated.
    pub cohort_steps: u64,
    /// Σ cohort width over those steps (requests fused per iteration).
    pub cohort_width_sum: u64,
    /// Σ forest-batch rows over those steps.
    pub batched_rows: u64,
}

impl SessionStats {
    /// Mean requests fused per step (0 when no steps ran).
    pub fn mean_cohort_width(&self) -> f64 {
        if self.cohort_steps == 0 {
            0.0
        } else {
            self.cohort_width_sum as f64 / self.cohort_steps as f64
        }
    }
}

/// What one [`StepSession::step_cohort`] call did.
#[derive(Debug, Clone, Default)]
pub struct StepReport {
    /// Requests fused into this step's forest batch (0 = nothing to do).
    pub width: usize,
    /// Total forest-batch rows evaluated.
    pub rows: usize,
    /// Requests that completed generation at this step boundary, in
    /// admission order.  Collect them with [`StepSession::take_output`].
    pub finished: Vec<u64>,
}

/// An iteration-level continuous-batching session over a
/// [`PreparedDeployment`] — see the module docs.
///
/// # Invariants
///
/// * Requests join ([`StepSession::admit`]) and leave only at step
///   boundaries; a request is never mutated mid-step by another's progress.
/// * Within one forest batch, lane `i` is the i-th participating request in
///   admission order, and slot `i` of every engine is that request's; every
///   batch entry keeps its request's own sequence ids under its lane's
///   namespace, so no row is ever attributed across requests
///   ([`Batch::level_groups`] only orders entries *within* a lane).
/// * Each request's engine slots (and pool admission) are exclusively its
///   own; the cohort shares nothing but the weight stream.
/// * A request's engine slots close and its pool admission ends when it
///   finishes or when the session is dropped, whichever comes first.
pub struct StepSession<'d> {
    prepared: &'d PreparedDeployment,
    profile: StepProfile,
    fused: bool,
    /// The session (service) clock, seconds.
    clock: f64,
    /// Wall-time source of `Real`-mode step durations.
    wall: Arc<dyn Clock>,
    slots: Vec<RequestState>,
    next_id: u64,
    pipeline: Pipeline,
    stats: SessionStats,
}

impl<'d> StepSession<'d> {
    /// Opens a session; prefer [`PreparedDeployment::begin_session`].
    pub fn new(prepared: &'d PreparedDeployment) -> Self {
        Self {
            prepared,
            profile: prepared.strategy().step_profile(),
            fused: true,
            clock: 0.0,
            wall: Arc::new(MonotonicClock::new()),
            slots: Vec::new(),
            next_id: 0,
            pipeline: Pipeline {
                head: prepared.head_engine(),
                stages: prepared.stage_engines(),
            },
            stats: SessionStats::default(),
        }
    }

    /// Sets whether decode steps fuse the cohort into one forest batch
    /// (default) or evaluate request-granularity micro-batches — the
    /// baseline the `fig_cohort_batching` gate measures against.  Tokens are
    /// identical either way.
    pub fn with_fused(mut self, fused: bool) -> Self {
        self.fused = fused;
        self
    }

    /// Replaces the wall-time source `Real`-mode steps are measured on
    /// (default [`MonotonicClock`]; tests inject a
    /// [`ManualClock`](pi_cluster::ManualClock)).  `Sim` steps charge virtual
    /// costs and ignore it.
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.wall = clock;
        self
    }

    /// Whether decode steps fuse the cohort.
    pub fn fused(&self) -> bool {
        self.fused
    }

    /// The session clock in seconds: virtual under `Sim`, accumulated
    /// measured wall time under `Real`.
    pub fn now(&self) -> f64 {
        self.clock
    }

    /// Fast-forwards the session clock (used by the serving layer to align
    /// admission with request arrival times).  Never moves backwards.
    pub fn advance_to(&mut self, t: f64) {
        if t > self.clock {
            self.clock = t;
        }
    }

    /// Number of requests currently decoding (admitted, not finished).
    pub fn active(&self) -> usize {
        self.slots.iter().filter(|r| r.active()).count()
    }

    /// Cohort accounting so far.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Admits one request at the current step boundary.  Its first step is
    /// its prefill; it contributes to every subsequent cohort until its
    /// `n_generate` tokens are out.  Returns the session-local request id.
    pub fn admit(&mut self, config: &GenConfig) -> u64 {
        let id = self.next_id;
        self.next_id += 1;

        // Compose with the deployment's KV page pool exactly like the solo
        // pooled path: admit, attach the longest cached prefix, and fall
        // back to isolated flat caches on refusal.
        let plan = self.prepared.admit(config).ok().flatten();
        let prompt_cached = plan.as_ref().map_or(0, |plan| plan.cached_tokens);
        // The new request is the last one in flight: its slot index is its
        // lane in the next cohort.
        self.pipeline.open(config.kv_capacity, plan.as_ref());

        let needs_drafter = !matches!(self.profile, StepProfile::NonSpeculative);
        let drafter = needs_drafter
            .then(|| build_drafter(self.prepared.mode(), self.prepared.route().head(), config));
        // Every request starts from the default shape prior: the session
        // neither reads nor feeds a strategy's cross-request feedback.
        let rounds = SyncRounds::new(
            config.clone(),
            self.profile,
            drafter,
            prompt_cached,
            DEFAULT_PRIOR,
        );

        self.slots.push(RequestState {
            id,
            rounds,
            plan,
            steps_participated: 0,
            width_sum: 0,
            own_rows: 0,
        });
        id
    }

    /// Removes a finished request and returns its output.  `None` while the
    /// request is still decoding or the id is unknown.
    pub fn take_output(&mut self, id: u64) -> Option<RunOutput> {
        let idx = self.slots.iter().position(|r| r.id == id && !r.active())?;
        let r = self.slots.remove(idx);
        let mut stats = ClusterStats::new(self.prepared.n_nodes());
        stats.nodes[0].cohort_steps = r.steps_participated;
        stats.nodes[0].cohort_width_sum = r.width_sum;
        stats.nodes[0].batched_rows = r.own_rows;
        Some(RunOutput {
            record: r.rounds.into_record(),
            stats,
            completed: true,
            trace: None,
        })
    }

    /// Runs one iteration of the step loop: every active request prepares
    /// its micro-batch (prefill, draft chain, or tree round), the cohort is
    /// fused into one forest batch and evaluated, and each request verifies
    /// its own rows and advances its state machine.  Requests that reach
    /// their token budget finish at this boundary.
    pub fn step_cohort(&mut self) -> StepReport {
        let real = matches!(self.prepared.mode(), ExecutionMode::Real { .. });
        let wall_start = self.wall.now();
        let pipeline = &mut self.pipeline;
        let mut step_cost = 0.0;

        // Phase 1 — each active request drafts and builds its micro-batch;
        // pre-eval cache ops (tree branch seeding) are applied here, against
        // each request's own slots only.  Lane i of the forest is cohort[i].
        let mut cohort = Vec::new();
        let mut rounds = Vec::new();
        for (i, r) in self.slots.iter_mut().enumerate() {
            if !r.active() {
                continue;
            }
            let round = r.rounds.next_round();
            let mut cost = round.draft_cost;
            for op in &round.pre_ops {
                cost += pipeline.apply_cache_op(cohort.len(), op);
            }
            step_cost += cost;
            cohort.push(i);
            rounds.push(round);
        }
        if cohort.is_empty() {
            return StepReport::default();
        }

        // Phase 2 — fuse and evaluate: one call over the forest, or — the
        // request-granularity baseline — one one-lane call per request (each
        // streaming every stage's weights again), stage by stage.
        let width = cohort.len();
        // Request `lane` goes into call `lane % n_calls`.
        let n_calls = if self.fused { 1 } else { width };
        let mut calls = vec![Batch::new(); n_calls];
        for (lane, round) in rounds.iter().enumerate() {
            calls[lane % n_calls].append_lane(&round.batch, lane);
        }
        let mut cost = 0.0;
        let mut payloads = Vec::with_capacity(n_calls);
        for batch in &calls {
            let (payload, stage_cost) = pipeline.head.eval_first_stage(batch);
            cost += stage_cost;
            payloads.push(payload);
        }
        for stage in &mut pipeline.stages {
            for (batch, payload) in calls.iter().zip(&mut payloads) {
                let (out, stage_cost) = stage.eval(batch, payload);
                cost += stage_cost;
                *payload = out;
            }
        }
        // Head finalization (output head + sampling) is per request either
        // way: each takes its own rows of its call's activations, and the
        // oracle walk needs each request's own context.
        let mut greedy_per_request = Vec::with_capacity(width);
        let mut first_row = 0;
        for (lane, (&i, round)) in cohort.iter().zip(&rounds).enumerate() {
            let payload = &payloads[lane % n_calls];
            let n = round.batch.len();
            let own_rows;
            let payload = if payload.tokens() == n {
                payload
            } else {
                own_rows = payload.rows(first_row..first_row + n);
                &own_rows
            };
            first_row += n;
            let context = self.slots[i].rounds.context();
            let (greedy, head_cost) = round.finalize(pipeline.head.as_mut(), payload, context);
            cost += head_cost;
            greedy_per_request.push(greedy);
        }
        step_cost += cost;

        // Per-step accounting: one fused step of the cohort's width, or one
        // width-1 step per request under the request-granularity knob.
        let rows: usize = rounds.iter().map(|round| round.batch.len()).sum();
        self.stats.cohort_steps += if self.fused { 1 } else { width as u64 };
        self.stats.cohort_width_sum += width as u64;
        self.stats.batched_rows += rows as u64;
        for (&i, round) in cohort.iter().zip(&rounds) {
            let r = &mut self.slots[i];
            r.steps_participated += 1;
            r.width_sum += if self.fused { width as u64 } else { 1 };
            r.own_rows += round.batch.len() as u64;
        }

        // Phase 3 — per-request verification and state advance.  `Real`
        // steps are timed on the session's wall clock, one span up to here
        // and one over the clean-up ops below; `Sim` adds up what the
        // drafters and engines charged.
        let evaluated = self.wall.now();
        self.clock += if real {
            evaluated - wall_start
        } else {
            step_cost
        };
        let mut post_cost = 0.0;
        let mut finished = Vec::new();
        let now = self.clock;
        for (lane, (&i, round)) in cohort.iter().zip(rounds).enumerate() {
            let r = &mut self.slots[i];
            // Every request that finished before this one closed its slots.
            let slot = lane - finished.len();
            let greedy = &greedy_per_request[lane];
            if let Some(op) = r.rounds.absorb(round, greedy, now) {
                post_cost += pipeline.apply_cache_op(slot, &op);
            }
            if r.rounds.is_done() {
                pipeline.close(slot);
                if let Some(plan) = r.plan.take() {
                    self.prepared.retire(&plan);
                }
                finished.push(r.id);
            }
        }
        self.clock += if real {
            self.wall.now() - evaluated
        } else {
            post_cost
        };

        StepReport {
            width,
            rows,
            finished,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::{Deployment, IterativeStrategy, SpeculativeStrategy};
    use crate::testkit::{real_mode, sim_mode};
    use crate::tree::TreeSpeculationStrategy;
    use pi_model::kv_pool::{KvPagePool, KvPoolConfig};
    use pi_model::Token;

    fn gen(prompt_fill: Token, prompt_len: usize, n_generate: usize) -> GenConfig {
        GenConfig {
            prompt: vec![prompt_fill; prompt_len],
            n_generate,
            max_draft: 4,
            confidence_cutoff: 0.4,
            kv_capacity: 4096,
        }
    }

    fn run_session(
        prepared: &PreparedDeployment,
        configs: &[GenConfig],
        fused: bool,
    ) -> (Vec<Vec<Token>>, f64, SessionStats) {
        let mut session = prepared.begin_session().with_fused(fused);
        let ids: Vec<u64> = configs.iter().map(|c| session.admit(c)).collect();
        let mut safety = 0;
        while session.active() > 0 {
            safety += 1;
            assert!(safety < 10_000, "session did not converge");
            session.step_cohort();
        }
        let outs: Vec<Vec<Token>> = ids
            .iter()
            .map(|&id| session.take_output(id).expect("finished").record.tokens)
            .collect();
        (outs, session.now(), session.stats())
    }

    #[test]
    fn chain_session_matches_solo_runs_in_sim() {
        let prepared = Deployment::new(SpeculativeStrategy).prepare(&sim_mode(4), 4);
        let configs = [gen(5, 12, 16), gen(9, 8, 12), gen(3, 10, 20)];
        let (outs, _, stats) = run_session(&prepared, &configs, true);
        for (config, tokens) in configs.iter().zip(&outs) {
            let solo = prepared.run(config);
            assert_eq!(tokens, &solo.record.tokens, "fused stream must be solo");
        }
        assert!(stats.mean_cohort_width() > 1.5, "{stats:?}");
    }

    #[test]
    fn tree_session_matches_solo_runs_in_sim() {
        let prepared = Deployment::new(TreeSpeculationStrategy::default()).prepare(&sim_mode(4), 4);
        let configs = [gen(5, 12, 16), gen(7, 9, 12)];
        let (outs, _, _) = run_session(&prepared, &configs, true);
        for (config, tokens) in configs.iter().zip(&outs) {
            let solo = prepared.run(config);
            assert_eq!(tokens, &solo.record.tokens);
        }
    }

    #[test]
    fn iterative_session_matches_solo_runs_in_sim() {
        let prepared = Deployment::new(IterativeStrategy).prepare(&sim_mode(4), 4);
        let configs = [gen(5, 12, 8), gen(2, 6, 6)];
        let (outs, _, _) = run_session(&prepared, &configs, true);
        for (config, tokens) in configs.iter().zip(&outs) {
            let solo = prepared.run(config);
            assert_eq!(tokens, &solo.record.tokens);
        }
    }

    #[test]
    fn real_chain_session_matches_solo_runs() {
        let prepared = Deployment::new(SpeculativeStrategy).prepare(&real_mode(11), 2);
        let configs = [gen(5, 6, 8), gen(9, 4, 6)];
        let (outs, _, _) = run_session(&prepared, &configs, true);
        for (config, tokens) in configs.iter().zip(&outs) {
            let solo = prepared.run(config);
            assert_eq!(tokens, &solo.record.tokens, "real fused rows must be solo");
        }
    }

    #[test]
    fn fused_and_unfused_agree_on_tokens_but_not_cost() {
        let prepared = Deployment::new(SpeculativeStrategy).prepare(&sim_mode(4), 4);
        let configs = [gen(5, 12, 16), gen(9, 8, 16), gen(3, 10, 16), gen(6, 7, 16)];
        let (fused, fused_t, fused_stats) = run_session(&prepared, &configs, true);
        let (unfused, unfused_t, unfused_stats) = run_session(&prepared, &configs, false);
        assert_eq!(fused, unfused, "fusion must never change any stream");
        assert!(
            fused_t < unfused_t,
            "fused {fused_t} s must beat request-granularity {unfused_t} s"
        );
        assert!(fused_stats.mean_cohort_width() > 2.0, "{fused_stats:?}");
        assert!((unfused_stats.mean_cohort_width() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn requests_join_and_leave_at_step_boundaries() {
        let prepared = Deployment::new(SpeculativeStrategy).prepare(&sim_mode(4), 4);
        let mut session = prepared.begin_session();
        let a = session.admit(&gen(5, 12, 20));
        // Let the first request run alone for a few steps, then join.
        for _ in 0..3 {
            session.step_cohort();
        }
        let b = session.admit(&gen(9, 8, 10));
        let mut finished = Vec::new();
        let mut safety = 0;
        while session.active() > 0 {
            safety += 1;
            assert!(safety < 1000);
            finished.extend(session.step_cohort().finished);
        }
        assert!(finished.contains(&a) && finished.contains(&b));
        for (id, config) in [(a, gen(5, 12, 20)), (b, gen(9, 8, 10))] {
            let tokens = session.take_output(id).unwrap().record.tokens;
            let solo = prepared.run(&config);
            assert_eq!(
                tokens, solo.record.tokens,
                "mid-stream join must not perturb"
            );
        }
    }

    #[test]
    fn dropping_a_session_mid_flight_returns_its_pool_tickets() {
        for (mode, n_nodes) in [(sim_mode(4), 4), (real_mode(11), 2)] {
            let sim = matches!(mode, ExecutionMode::Sim { .. });
            let pool = KvPagePool::new(KvPoolConfig {
                tokens_per_page: 4,
                n_pages: 32,
            });
            let prepared = Deployment::new(SpeculativeStrategy)
                .prepare(&mode, n_nodes)
                .with_kv_pool(Arc::clone(&pool));
            let request = |tail: Token| GenConfig {
                prompt: [vec![7; 8], vec![tail; 4]].concat(),
                ..gen(0, 1, 8)
            };

            // A finished request leaves the shared prefix committed.
            let (_, _, _) = run_session(&prepared, &[request(1)], true);
            let committed = |pool: &KvPagePool| {
                let stats = pool.stats();
                (stats.pages_committed - stats.evictions) as usize
            };
            assert!(committed(&pool) >= 2, "sim {sim}");
            assert_eq!(pool.stats().pages_in_use, committed(&pool), "sim {sim}");

            // Two requests pin it and hold reservations; the session dies
            // with both still decoding.
            let mut session = prepared.begin_session();
            session.admit(&request(2));
            session.admit(&request(3));
            session.step_cohort();
            session.step_cohort();
            assert_eq!(session.active(), 2, "sim {sim}");
            assert_eq!(
                pool.stats().share_hits,
                2,
                "sim {sim}: both match the prefix"
            );
            assert!(pool.stats().pages_in_use > committed(&pool), "sim {sim}");
            drop(session);

            // Nothing stays reserved ...
            assert_eq!(pool.stats().pages_in_use, committed(&pool), "sim {sim}");
            // ... and nothing stays pinned: a request that needs every page
            // of the pool can evict all of them.
            let whole_pool = vec![9; 4 * 32 - 8];
            let ticket = pool
                .begin_request(&whole_pool, 8, &[])
                .unwrap_or_else(|refusal| panic!("sim {sim}: leaked pins, {refusal:?}"));
            pool.end_request(ticket.id);
            assert_eq!(pool.stats().refusals, 0, "sim {sim}");
        }
    }

    #[test]
    fn session_outputs_carry_cohort_participation() {
        let prepared = Deployment::new(SpeculativeStrategy).prepare(&sim_mode(4), 4);
        let mut session = prepared.begin_session();
        let a = session.admit(&gen(5, 12, 8));
        let b = session.admit(&gen(9, 8, 8));
        while session.active() > 0 {
            session.step_cohort();
        }
        for id in [a, b] {
            let out = session.take_output(id).unwrap();
            assert!(out.stats.nodes[0].cohort_steps > 0);
            assert!(out.stats.nodes[0].cohort_width_sum >= out.stats.nodes[0].cohort_steps);
            assert!(out.stats.nodes[0].batched_rows > 0);
        }
    }
}
