//! Iteration-level continuous batching: the [`StepSession`] step loop.
//!
//! The thread-per-request serving path (`pi_serve::Server::serve`) gives
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
//! evaluation (`pi_model::Model::forward_layer_range_multi`).
//!
//! Requests join and leave at step boundaries (true continuous batching): a
//! newly admitted request's first step is its prefill, a finishing request
//! simply stops contributing, and the cohort re-forms every iteration.
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
//! Under `Sim` mode the session keeps a virtual clock.  A fused step charges
//! each stage [`CostModel::layers_time_grouped`] — the weight stream once
//! for the whole cohort plus per-request KV streams, against the summed
//! compute — while the unfused knob ([`StepSession::with_fused`]) charges
//! the request-granularity sum of [`CostModel::layers_time`], i.e. a full
//! weight stream per request per step.  The two knobs run the identical
//! schedule and emit identical tokens; only the roofline differs, which is
//! precisely the quantity the `fig_cohort_batching` bench gates on.  Under
//! `Real` mode the clock accumulates measured wall time.

use crate::deploy::{
    build_drafter, sim_head_engine, ExecutionMode, PreparedDeployment, RunOutput, StepProfile,
};
use crate::engine::{
    apply_op, build_real_cache, maybe_commit_prompt, HeadEngine, PooledState, PrefixPlan,
    SimHeadEngine,
};
use crate::message::{ActivationPayload, CacheOp};
use crate::rounds::{Round, SyncRounds};
use crate::tree::DEFAULT_PRIOR;
use crate::GenConfig;
use pi_cluster::ClusterStats;
use pi_model::kv_pool::{KvPagePool, StageKey};
use pi_model::{Batch, KvCache, Model, Sampler, ScratchArena, Token};
use pi_perf::{CostModel, ModelCost};
use std::sync::Arc;
use std::time::Instant;

/// Per-stage KV state of one request under `Real` execution.
struct StageCaches {
    cache: KvCache,
    pooled: Option<PooledState>,
}

/// One request's admission into the deployment's KV page pool.  Dropping it
/// ends the request, so the matched chain is unpinned and the unused
/// reservation returned whichever way the request leaves: finished, dropped
/// with its session mid-flight, or unwound past.
struct PoolTicket {
    pool: Arc<KvPagePool>,
    id: u64,
}

impl Drop for PoolTicket {
    fn drop(&mut self) {
        self.pool.end_request(self.id);
    }
}

/// One in-flight (or finished-but-uncollected) request.
struct RequestState {
    id: u64,
    rounds: SyncRounds,
    /// Per-pipeline-stage KV caches (`Real` mode only), stage order.
    stages: Vec<StageCaches>,
    /// Pool admission, held until the request finishes.
    pool_ticket: Option<PoolTicket>,
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

/// Applies a pipelined cache op to every stage of one request (`Real`), or
/// charges the simulated head's cost for it (`Sim`, where `sim_head` is
/// present) — the solo path has the head apply locally and the workers on
/// receipt.
fn apply_cache_op(
    stages: &mut [StageCaches],
    sim_head: Option<&mut SimHeadEngine>,
    op: &CacheOp,
) -> f64 {
    match sim_head {
        Some(head) => head.apply_cache_op(op),
        None => {
            for stage in stages {
                apply_op(&mut stage.cache, op);
            }
            0.0
        }
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
///   admission order; every batch entry keeps its request's own sequence ids
///   under its lane's namespace, so no row is ever attributed across
///   requests ([`Batch::level_groups`] only orders entries *within* a lane).
/// * Each request's KV caches (and pool ticket) are exclusively its own; the
///   cohort shares nothing but the weight stream.
/// * A request's pool admission ends when it finishes or when the session
///   is dropped, whichever comes first.
pub struct StepSession<'d> {
    prepared: &'d PreparedDeployment,
    profile: StepProfile,
    fused: bool,
    clock: f64,
    slots: Vec<RequestState>,
    next_id: u64,
    /// Long-lived forward-pass temporaries (`Real` mode).
    scratch: Option<ScratchArena>,
    /// Head finalisation (`Sim` mode): ground-truth tokens from the oracle,
    /// output-head, sampling and cache-op costs — the engine the solo head
    /// runs on.
    sim_head: Option<SimHeadEngine>,
    /// Per-stage cost models (`Sim` mode), stage order.
    stage_costs: Vec<CostModel>,
    model_cost: Option<ModelCost>,
    stats: SessionStats,
}

impl<'d> StepSession<'d> {
    /// Opens a session; prefer [`PreparedDeployment::begin_session`].
    pub fn new(prepared: &'d PreparedDeployment) -> Self {
        let (sim_head, stage_costs, model_cost, scratch) = match prepared.mode() {
            ExecutionMode::Sim {
                pair,
                cluster,
                oracle_seed,
            } => {
                let costs = prepared
                    .route()
                    .ranks()
                    .iter()
                    .map(|&rank| CostModel::new(cluster.node(rank).clone()))
                    .collect();
                let head = sim_head_engine(pair, cluster, *oracle_seed, prepared.splits()[0].len());
                let model_cost = ModelCost::new(pair.target.cfg.clone(), pair.target.quant);
                (Some(head), costs, Some(model_cost), None)
            }
            ExecutionMode::Real { target, .. } => (
                None,
                Vec::new(),
                None,
                Some(ScratchArena::for_config(target.config())),
            ),
        };
        Self {
            prepared,
            profile: prepared.strategy().step_profile(),
            fused: true,
            clock: 0.0,
            slots: Vec::new(),
            next_id: 0,
            scratch,
            sim_head,
            stage_costs,
            model_cost,
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
        let mut prompt_cached = 0;
        let mut pool_ticket = None;
        let mut plan = None;
        if let Some(pool) = self.prepared.kv_pool() {
            let required: Vec<StageKey> = match self.prepared.mode() {
                ExecutionMode::Real { .. } => self
                    .prepared
                    .splits()
                    .iter()
                    .map(|r| (r.start, r.end))
                    .collect(),
                ExecutionMode::Sim { .. } => Vec::new(),
            };
            if let Ok(ticket) = pool.begin_request(&config.prompt, config.n_generate, &required) {
                pool_ticket = Some(PoolTicket {
                    pool: Arc::clone(pool),
                    id: ticket.id,
                });
                prompt_cached = ticket
                    .cached_tokens
                    .min(config.prompt.len().saturating_sub(1));
                plan = Some(PrefixPlan {
                    pool: Arc::clone(pool),
                    ticket: ticket.id,
                    prompt: config.prompt.clone(),
                    cached_tokens: prompt_cached,
                });
            }
        }

        let stages = match self.prepared.mode() {
            ExecutionMode::Real { target, .. } => self
                .prepared
                .splits()
                .iter()
                .map(|layers| {
                    let (cache, pooled) =
                        build_real_cache(target, layers, config.kv_capacity, plan.as_ref());
                    StageCaches { cache, pooled }
                })
                .collect(),
            ExecutionMode::Sim { .. } => Vec::new(),
        };

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
            stages,
            pool_ticket,
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
        let wall = real.then(Instant::now);
        let mut step_cost = 0.0;

        // Phase 1 — each active request drafts and builds its micro-batch;
        // pre-eval cache ops (tree branch seeding) are applied here, against
        // each request's own state only.  Lane i of the forest is cohort[i].
        let mut cohort = Vec::new();
        let mut rounds = Vec::new();
        for (i, r) in self.slots.iter_mut().enumerate() {
            if !r.active() {
                continue;
            }
            let round = r.rounds.next_round();
            // `Real` drafting cost is part of the step's measured wall time.
            let mut cost = if real { 0.0 } else { round.draft_cost };
            for op in &round.pre_ops {
                cost += apply_cache_op(&mut r.stages, self.sim_head.as_mut(), op);
            }
            step_cost += cost;
            cohort.push(i);
            rounds.push(round);
        }
        if cohort.is_empty() {
            return StepReport::default();
        }

        // Phase 2 — fuse and evaluate.
        let rows: usize = rounds.iter().map(|round| round.batch.len()).sum();
        let greedy_per_request: Vec<Vec<Token>> = if real {
            self.eval_real(&cohort, &rounds)
        } else {
            let (greedy, cost) = self.eval_sim(&cohort, &rounds);
            step_cost += cost;
            greedy
        };

        // Per-step accounting: one fused step of the cohort's width, or one
        // width-1 step per request under the request-granularity knob.
        let width = cohort.len();
        if self.fused {
            self.stats.cohort_steps += 1;
            self.stats.cohort_width_sum += width as u64;
        } else {
            self.stats.cohort_steps += width as u64;
            self.stats.cohort_width_sum += width as u64;
        }
        self.stats.batched_rows += rows as u64;
        for (&i, round) in cohort.iter().zip(&rounds) {
            let r = &mut self.slots[i];
            r.steps_participated += 1;
            r.width_sum += if self.fused { width as u64 } else { 1 };
            r.own_rows += round.batch.len() as u64;
        }

        // Phase 3 — per-request verification and state advance.
        if real {
            self.clock += wall.expect("real wall clock").elapsed().as_secs_f64();
        } else {
            self.clock += step_cost;
        }
        let mut post_cost = 0.0;
        let mut finished = Vec::new();
        let now = self.clock;
        for ((&i, round), greedy) in cohort.iter().zip(rounds).zip(&greedy_per_request) {
            let r = &mut self.slots[i];
            if let Some(op) = r.rounds.absorb(round, greedy, now) {
                post_cost += apply_cache_op(&mut r.stages, self.sim_head.as_mut(), &op);
            }
            if r.rounds.is_done() {
                if let Some(ticket) = r.pool_ticket.take() {
                    // `Real` stages committed their physical pages during
                    // prefill; `Sim` commits the prompt as a token-only
                    // chain.  Dropping the ticket then ends the request.
                    if !real {
                        ticket
                            .pool
                            .commit_chain(ticket.id, &r.rounds.config().prompt, None);
                    }
                }
                finished.push(r.id);
            }
        }
        self.clock += post_cost;

        StepReport {
            width,
            rows,
            finished,
        }
    }

    /// Simulated evaluation of the cohort: oracle tokens per request plus
    /// the roofline cost of the whole step (fused or request-granularity).
    fn eval_sim(&mut self, cohort: &[usize], rounds: &[Round]) -> (Vec<Vec<Token>>, f64) {
        let model_cost = self.model_cost.as_ref().expect("sim model cost");
        let splits = self.prepared.splits();

        // Stage costs: the weight stream amortises across the cohort when
        // fused; request-granularity charges it once per request.
        let groups: Vec<(usize, usize)> = rounds
            .iter()
            .map(|round| {
                let sub = &round.batch;
                (sub.len(), sub.min_pos().unwrap_or(0).max(0) as usize)
            })
            .collect();
        let mut cost = 0.0;
        for (stage, layers) in splits.iter().enumerate() {
            let cm = &self.stage_costs[stage];
            if self.fused {
                cost += cm.layers_time_grouped(model_cost, layers.len(), &groups);
            } else {
                for &(rows, ctx) in &groups {
                    cost += cm.layers_time(model_cost, layers.len(), rows, ctx);
                }
            }
        }

        // Head finalization (output head + sampling) is per-request either
        // way: the logits rows are per request and the oracle walk needs
        // each request's own context.
        let head = self.sim_head.as_mut().expect("sim head engine");
        let mut out = Vec::with_capacity(cohort.len());
        for (&i, round) in cohort.iter().zip(rounds) {
            let context = self.slots[i].rounds.context();
            let (greedy, head_cost) = round.finalize(head, &ActivationPayload::Empty, context);
            cost += head_cost;
            out.push(greedy);
        }
        (out, cost)
    }

    /// Real evaluation of the cohort: one fused forward through every stage,
    /// or — the request-granularity baseline — the same forward once per
    /// request (each streaming every stage's weights again).
    fn eval_real(&mut self, cohort: &[usize], rounds: &[Round]) -> Vec<Vec<Token>> {
        if self.fused {
            self.forward_forest(cohort, rounds)
        } else {
            cohort
                .iter()
                .zip(rounds)
                .flat_map(|(&i, round)| self.forward_forest(&[i], std::slice::from_ref(round)))
                .collect()
        }
    }

    /// One forward of the forest whose lane `i` is `rounds[i]`, the batch of
    /// request `cohort[i]`, through every stage; then greedy sampling of
    /// each request's logits rows.
    fn forward_forest(&mut self, cohort: &[usize], rounds: &[Round]) -> Vec<Vec<Token>> {
        let prepared = self.prepared;
        let ExecutionMode::Real { target: model, .. } = prepared.mode() else {
            unreachable!("forward_forest in sim mode");
        };
        let scratch = self.scratch.as_mut().expect("real scratch");

        let mut forest = Batch::new();
        for (lane, round) in rounds.iter().enumerate() {
            forest.append_lane(&round.batch, lane);
        }
        let mut hidden = model.embed(&forest);
        for (stage, layers) in prepared.splits().iter().enumerate() {
            let mut members: Vec<&mut RequestState> = Vec::with_capacity(cohort.len());
            let mut want = cohort.iter().peekable();
            for (idx, slot) in self.slots.iter_mut().enumerate() {
                if want.peek() == Some(&&idx) {
                    members.push(slot);
                    want.next();
                }
            }
            let mut caches: Vec<&mut KvCache> = members
                .iter_mut()
                .map(|r| &mut r.stages[stage].cache)
                .collect();
            let cells = Model::alloc_cells_multi(&forest, &mut caches).expect("stage KV exhausted");
            hidden = model
                .forward_layer_range_multi(
                    &forest,
                    &hidden,
                    layers.clone(),
                    &mut caches,
                    &cells,
                    scratch,
                )
                .expect("fused layer-range evaluation failed");
            drop(caches);
            for (r, round) in members.iter_mut().zip(rounds) {
                let stage_state = &mut r.stages[stage];
                maybe_commit_prompt(
                    &mut stage_state.cache,
                    &mut stage_state.pooled,
                    &round.batch,
                );
            }
        }
        let logits = model.logits(&hidden);
        let sampler = Sampler::Greedy;
        let mut out = Vec::with_capacity(cohort.len());
        let mut row = 0;
        for round in rounds {
            let g = (0..round.batch.len())
                .map(|j| sampler.sample(logits.row(row + j).expect("logits row")))
                .collect();
            row += round.batch.len();
            out.push(g);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::{Deployment, IterativeStrategy, SpeculativeStrategy};
    use crate::tree::TreeSpeculationStrategy;
    use pi_model::kv_pool::KvPoolConfig;
    use pi_model::ModelConfig;
    use pi_perf::{ClusterSpec, ModelPair};

    fn sim_mode(n_nodes: usize) -> ExecutionMode {
        ExecutionMode::Sim {
            pair: ModelPair::dolphin_tinyllama(),
            cluster: ClusterSpec::cluster_c(n_nodes),
            oracle_seed: 42,
        }
    }

    fn real_mode(seed: u64) -> ExecutionMode {
        let cfg = ModelConfig::tiny_llama(64, 4);
        let target = Arc::new(Model::random(cfg.clone(), seed));
        let draft = Arc::new(Model::new(cfg, target.weights().perturbed(0.02, seed + 1)));
        ExecutionMode::Real { target, draft }
    }

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
