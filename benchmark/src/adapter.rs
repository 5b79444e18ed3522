//! The only file of the benchmark that names repository APIs.
//!
//! Everything else in `benchmark/` speaks in terms of the wrappers, plain
//! result structs and re-exports below, so a later simplification PR that
//! renames or folds an entry point has exactly one file to fix.  Names that
//! must survive (as thin wrappers if need be): `Deployment::prepare`,
//! `PreparedDeployment::{run, run_traced, with_kv_pool, begin_session}`,
//! `Server::serve_stepped`, `StepSession::{admit, step_cohort, take_output}`,
//! `RealDrafter`, `Model::{forward_full, forward_layer_range_multi, logits}`,
//! `KvPagePool`, `KvCache::{branch_commit, branch_rollback}`,
//! `ThreadedDriver::run`, `ops::*`, `CostModel`, `BubbleReport`.
//!
//! Nothing here measures time: wrappers perform one public call each and the
//! callers in `run.rs` / `layers.rs` put the clocks and spans around them.

pub use pi_model::tokenizer::BYTE_VOCAB_SIZE;
pub use pi_model::{Activation, Model, ModelConfig, ModelWeights, Token};

use pi_cluster::threaded::ThreadedDriver;
use pi_cluster::{NodeBehavior, NodeCtx, Rank, Tag, WireMessage};
use pi_model::{Batch, KvCache, KvPagePool, KvPoolConfig, KvPoolStats, Sampler, ScratchArena};
use pi_perf::{CostModel, ModelCost, NodeSpec};
use pi_serve::{Request, Server, ServerConfig};
use pi_spec::deploy::{
    Deployment, ExecutionMode, IterativeStrategy, PreparedDeployment, RunOutput,
    SpeculativeStrategy,
};
use pi_spec::{Drafter, GenConfig, RealDrafter, StepSession};
use pi_tensor::{ops, QuantKind, Tensor};
use pi_trace::{BubbleReport, Cause, TraceConfig};
use pipeinfer_core::PipeInferStrategy;

use crate::rng::Rng;
use std::any::Any;
use std::sync::Arc;

/// Speculation knobs every request of every workload uses.
const MAX_DRAFT: usize = 4;
/// Draft-confidence cutoff every request uses.
pub const CONFIDENCE_CUTOFF: f32 = 0.3;
/// KV cells provisioned per stage per request.
const KV_CAPACITY: usize = 2048;

/// One generation request as the benchmark describes it.
#[derive(Debug, Clone)]
pub struct Job {
    pub id: u64,
    pub prompt: Vec<Token>,
    pub n_generate: usize,
    /// Due arrival on the service clock, seconds (0 for closed-loop jobs).
    pub arrival: f64,
}

impl Job {
    fn gen_config(&self) -> GenConfig {
        GenConfig {
            prompt: self.prompt.clone(),
            n_generate: self.n_generate,
            max_draft: MAX_DRAFT,
            confidence_cutoff: CONFIDENCE_CUTOFF,
            kv_capacity: KV_CAPACITY,
        }
    }
}

/// Which inference strategy a deployment runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyKind {
    Iterative,
    Speculative,
    PipeInfer,
}

/// What one generation run produced, copied out of `RunOutput`.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Generated tokens (the token sampled at the end of prompt processing is
    /// not counted, following the repository's TTFT convention).
    pub tokens: Vec<Token>,
    pub prompt_done_at: f64,
    pub accept_times: Vec<f64>,
    pub finished_at: f64,
    pub drafted: usize,
    pub accepted_drafts: usize,
    pub runs_launched: usize,
    pub runs_cancelled: usize,
    pub runs_rescued: usize,
    pub completed: bool,
    /// Driver wall time of the run (0 under a step session).
    pub driver_time: f64,
    pub messages: u64,
    pub bytes: u64,
    /// Σ over ranks of compute seconds charged.
    pub busy_time: f64,
    pub n_ranks: usize,
    pub cancellations_saved: u64,
}

impl From<&RunOutput> for RunResult {
    fn from(out: &RunOutput) -> Self {
        let rec = &out.record;
        Self {
            tokens: rec.tokens.clone(),
            prompt_done_at: rec.prompt_done_at,
            accept_times: rec.accept_times.clone(),
            finished_at: rec.finished_at,
            drafted: rec.drafted,
            accepted_drafts: rec.accepted_drafts,
            runs_launched: rec.runs_launched,
            runs_cancelled: rec.runs_cancelled,
            runs_rescued: rec.runs_rescued,
            completed: out.completed,
            driver_time: out.stats.total_time,
            messages: out.stats.total_messages(),
            bytes: out.stats.total_bytes(),
            busy_time: out.stats.nodes.iter().map(|n| n.busy_time).sum(),
            n_ranks: out.stats.nodes.len(),
            cancellations_saved: out.stats.total_cancellations_saved(),
        }
    }
}

/// `BubbleReport::analyze` of one traced run, reduced to cluster-wide shares.
#[derive(Debug, Clone, Copy, Default)]
pub struct Bubbles {
    /// Mean over ranks of (blocked + idle) / timeline.
    pub bubble_frac: f64,
    /// Σ cause time over ranks ÷ Σ timeline over ranks.
    pub awaiting_draft_frac: f64,
    pub cancelled_work_frac: f64,
    pub scheduling_gap_frac: f64,
    /// Events the recorder kept.
    pub events: usize,
}

/// A prepared deployment (`Deployment::prepare`) over one model pair.
pub struct Deployed(PreparedDeployment);

impl Deployed {
    /// `Deployment::prepare` in `Real` mode over `n_ranks` threaded ranks.
    pub fn prepare(
        kind: StrategyKind,
        target: &Arc<Model>,
        draft: &Arc<Model>,
        n_ranks: usize,
    ) -> Self {
        let mode = ExecutionMode::Real {
            target: Arc::clone(target),
            draft: Arc::clone(draft),
        };
        let deployment = match kind {
            StrategyKind::Iterative => Deployment::new(IterativeStrategy),
            StrategyKind::Speculative => Deployment::new(SpeculativeStrategy),
            StrategyKind::PipeInfer => Deployment::new(PipeInferStrategy::default()),
        };
        Self(deployment.prepare(&mode, n_ranks))
    }

    /// `PreparedDeployment::run`.
    pub fn run(&self, job: &Job) -> RunResult {
        RunResult::from(&self.0.run(&job.gen_config()))
    }

    /// `PreparedDeployment::run_traced` plus `BubbleReport::analyze`.
    pub fn run_traced(&self, job: &Job) -> (RunResult, Bubbles) {
        let out = self.0.run_traced(&job.gen_config(), TraceConfig::default());
        let bubbles = out.trace.as_ref().map_or_else(Bubbles::default, |trace| {
            let report = BubbleReport::analyze(trace);
            let timeline: f64 = report.ranks.iter().map(|r| r.end).sum();
            let share = |cause: Cause| {
                if timeline <= 0.0 {
                    0.0
                } else {
                    report
                        .ranks
                        .iter()
                        .map(|r| r.cause_time(cause))
                        .sum::<f64>()
                        / timeline
                }
            };
            Bubbles {
                bubble_frac: report.mean_bubble_fraction(),
                awaiting_draft_frac: share(Cause::AwaitingDraft),
                cancelled_work_frac: share(Cause::CancelledWork),
                scheduling_gap_frac: share(Cause::SchedulingGap),
                events: trace.events().len(),
            }
        });
        (RunResult::from(&out), bubbles)
    }

    /// `PreparedDeployment::begin_session`.
    pub fn begin_session(&self) -> Session<'_> {
        Session(self.0.begin_session())
    }

    /// Wraps the deployment in a `Server` with an in-flight window, optionally
    /// over a fresh `KvPagePool` (`PreparedDeployment::with_kv_pool`).
    pub fn into_server(self, window: usize, pool: Option<PoolGeometry>) -> Served {
        let pool = pool.map(|g| {
            KvPagePool::new(KvPoolConfig {
                tokens_per_page: g.tokens_per_page,
                n_pages: g.n_pages,
            })
        });
        let prepared = match &pool {
            Some(p) => self.0.with_kv_pool(Arc::clone(p)),
            None => self.0,
        };
        Served {
            server: Server::new(
                prepared,
                ServerConfig {
                    max_in_flight: window,
                },
            ),
            pool,
        }
    }
}

/// A `StepSession` driven directly.
pub struct Session<'d>(StepSession<'d>);

/// What one `StepSession::step_cohort` did.
pub struct StepOutcome {
    pub width: usize,
    pub rows: usize,
    pub finished: Vec<u64>,
}

impl Session<'_> {
    /// `StepSession::admit`.
    pub fn admit(&mut self, job: &Job) -> u64 {
        self.0.admit(&job.gen_config())
    }

    /// `StepSession::step_cohort`.
    pub fn step(&mut self) -> StepOutcome {
        let report = self.0.step_cohort();
        StepOutcome {
            width: report.width,
            rows: report.rows,
            finished: report.finished,
        }
    }

    /// `StepSession::take_output`.
    pub fn take(&mut self, id: u64) -> Option<RunResult> {
        self.0.take_output(id).map(|out| RunResult::from(&out))
    }
}

/// Geometry of a `KvPagePool`.
#[derive(Debug, Clone, Copy)]
pub struct PoolGeometry {
    pub tokens_per_page: usize,
    pub n_pages: usize,
}

/// Pool counters of one served stream (differences over the call).
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolCounters {
    pub requests: u64,
    pub share_hits: u64,
    /// Prompt tokens served from committed prefixes instead of prefill.
    pub shared_tokens: u64,
    pub evictions: u64,
    pub refusals: u64,
    /// Lifetime high-water mark of pages in use.
    pub pages_peak: u64,
}

/// One served request: `Completion` timings on the service clock plus its run.
pub struct ServedRequest {
    pub id: u64,
    pub arrival: f64,
    pub started: f64,
    pub first_token: f64,
    pub finished: f64,
    pub run: RunResult,
}

/// What `Server::serve_stepped` returned, copied out of `ServeReport`.
#[derive(Default)]
pub struct ServeResult {
    pub requests: Vec<ServedRequest>,
    pub cohort_steps: u64,
    /// Σ cohort width over the steps.
    pub cohort_width_sum: u64,
    pub batched_rows: u64,
    pub pool: PoolCounters,
}

impl ServeResult {
    /// Adds the result of a later call on the same server.
    pub fn absorb(&mut self, later: ServeResult) {
        self.requests.extend(later.requests);
        self.cohort_steps += later.cohort_steps;
        self.cohort_width_sum += later.cohort_width_sum;
        self.batched_rows += later.batched_rows;
        let (p, q) = (&mut self.pool, later.pool);
        p.requests += q.requests;
        p.share_hits += q.share_hits;
        p.shared_tokens += q.shared_tokens;
        p.evictions += q.evictions;
        p.refusals += q.refusals;
        p.pages_peak = p.pages_peak.max(q.pages_peak);
    }
}

/// A long-lived `Server` over one prepared deployment.
pub struct Served {
    server: Server,
    pool: Option<Arc<KvPagePool>>,
}

impl Served {
    fn pool_stats(&self) -> KvPoolStats {
        self.pool.as_ref().map(|p| p.stats()).unwrap_or_default()
    }

    /// `Server::serve_stepped` over `jobs` (open loop: each job is admitted no
    /// earlier than its due arrival on the session's service clock).
    pub fn serve_stepped(&self, jobs: &[Job]) -> ServeResult {
        let requests = jobs
            .iter()
            .map(|j| Request::new(j.id, j.gen_config(), j.arrival))
            .collect();
        let before = self.pool_stats();
        let report = self.server.serve_stepped(requests);
        let after = self.pool_stats();
        let cohort = report.cohort_stats().copied().unwrap_or_default();
        ServeResult {
            requests: report
                .completions()
                .iter()
                .map(|c| ServedRequest {
                    id: c.id,
                    arrival: c.timing.arrival,
                    started: c.timing.started,
                    first_token: c.timing.first_token,
                    finished: c.timing.finished,
                    run: RunResult::from(&c.output),
                })
                .collect(),
            cohort_steps: cohort.cohort_steps,
            cohort_width_sum: cohort.cohort_width_sum,
            batched_rows: cohort.batched_rows,
            pool: PoolCounters {
                requests: after.requests - before.requests,
                share_hits: after.share_hits - before.share_hits,
                shared_tokens: after.shared_tokens - before.shared_tokens,
                evictions: after.evictions - before.evictions,
                refusals: after.refusals - before.refusals,
                pages_peak: after.peak_pages_in_use as u64,
            },
        }
    }
}

// ---------------------------------------------------------------------------
// Reference: single-process greedy `Model::forward_full`.
// ---------------------------------------------------------------------------

/// Greedy single-process continuation of `prompt`: sequential
/// `Model::forward_full` decode, one token per call.
pub fn greedy_reference(model: &Model, prompt: &[Token], n_generate: usize) -> Vec<Token> {
    let cfg = model.config();
    let mut cache = KvCache::new(cfg.n_layers, cfg.kv_dim(), prompt.len() + n_generate);
    let logits = model
        .forward_full(&Batch::prompt(prompt, 0, 0), &mut cache)
        .expect("reference prefill");
    let mut next = Sampler::Greedy.sample(logits.row(prompt.len() - 1).expect("last row"));
    let mut out = Vec::with_capacity(n_generate);
    for i in 0..n_generate {
        out.push(next);
        if i + 1 == n_generate {
            break;
        }
        let pos = (prompt.len() + i) as i32;
        let logits = model
            .forward_full(&Batch::single(next, pos, 0), &mut cache)
            .expect("reference decode");
        next = Sampler::Greedy.sample(logits.row(0).expect("row"));
    }
    out
}

/// One batched `Model::forward_full` over `tokens`; returns, per position,
/// the greedy next token and the softmax confidence in it.
pub fn teacher_forced_rows(model: &Model, tokens: &[Token]) -> Vec<(Token, f32)> {
    let cfg = model.config();
    let mut cache = KvCache::new(cfg.n_layers, cfg.kv_dim(), tokens.len());
    let logits = forward_all_logits(model, &mut cache, tokens, 0);
    (0..tokens.len())
        .map(|i| {
            let row = logits.row(i).expect("row");
            (Sampler::Greedy.sample(row), Sampler::confidence(row))
        })
        .collect()
}

fn forward_all_logits(
    model: &Model,
    cache: &mut KvCache,
    tokens: &[Token],
    start: usize,
) -> Tensor {
    let mut batch = Batch::new();
    for (i, &t) in tokens.iter().enumerate() {
        batch.push(t, (start + i) as i32, vec![0], true);
    }
    model
        .forward_full(&batch, cache)
        .expect("reference forward")
}

/// Checks output streams against the greedy reference.
///
/// A stream is the greedy stream iff every token equals the argmax of the
/// target's `forward_full` logits given the prompt and the tokens before it,
/// so the check teacher-forces the whole stream through one batched forward
/// instead of decoding it token by token.  Prompts that open with `prefix`
/// reuse one precomputed copy of its KV cache.
pub struct Verifier<'m> {
    model: &'m Model,
    prefix: Vec<Token>,
    prefix_cache: Option<KvCache>,
}

impl<'m> Verifier<'m> {
    /// `tail_capacity` bounds prompt-suffix + output length of prompts that
    /// share `prefix` (ignored when `prefix` is empty).
    pub fn new(model: &'m Model, prefix: &[Token], tail_capacity: usize) -> Self {
        let prefix_cache = (!prefix.is_empty()).then(|| {
            let cfg = model.config();
            let mut cache = KvCache::new(cfg.n_layers, cfg.kv_dim(), prefix.len() + tail_capacity);
            model
                .forward_full(&Batch::prompt(prefix, 0, 0), &mut cache)
                .expect("reference prefix prefill");
            cache
        });
        Self {
            model,
            prefix: prefix.to_vec(),
            prefix_cache,
        }
    }

    /// Whether `stream` is the greedy continuation of `prompt` (after the
    /// uncounted token sampled at the end of prompt processing).
    pub fn check(&self, prompt: &[Token], stream: &[Token]) -> bool {
        if stream.is_empty() {
            return false;
        }
        let cfg = self.model.config();
        let shared = self.prefix_cache.is_some()
            && prompt.len() > self.prefix.len()
            && prompt.starts_with(&self.prefix);
        let (mut cache, done) = if shared {
            (
                self.prefix_cache.clone().expect("prefix cache"),
                self.prefix.len(),
            )
        } else {
            let capacity = prompt.len() + stream.len();
            (KvCache::new(cfg.n_layers, cfg.kv_dim(), capacity), 0)
        };
        if cache.free() < prompt.len() - done + stream.len() {
            return false;
        }
        let rest = Batch::prompt(&prompt[done..], done as i32, 0);
        let Ok(logits) = self.model.forward_full(&rest, &mut cache) else {
            return false;
        };
        let first = Sampler::Greedy.sample(logits.row(prompt.len() - done - 1).expect("row"));
        let mut fed = vec![first];
        fed.extend_from_slice(&stream[..stream.len() - 1]);
        let logits = forward_all_logits(self.model, &mut cache, &fed, prompt.len());
        stream
            .iter()
            .enumerate()
            .all(|(i, &t)| Sampler::Greedy.sample(logits.row(i).expect("row")) == t)
    }
}

// ---------------------------------------------------------------------------
// Layer fixtures: one public call per method, timed by `layers.rs`.
// ---------------------------------------------------------------------------

/// Deterministic pseudo-random fill in [-scale, scale].
fn fill(n: usize, scale: f32, salt: u64) -> Vec<f32> {
    let mut rng = Rng::new(salt);
    (0..n)
        .map(|_| (rng.unit() as f32 * 2.0 - 1.0) * scale)
        .collect()
}

/// `pi-tensor` kernels at the `bp256` shapes.
pub struct TensorOps {
    w_sq: Tensor,
    w_ff: Tensor,
    x: Vec<f32>,
    x8: Vec<f32>,
    out: Vec<f32>,
    norm_w: Vec<f32>,
    soft: Vec<f32>,
}

impl TensorOps {
    pub const D: usize = 256;
    pub const FF: usize = 704;

    pub fn new() -> Self {
        let (d, ff) = (Self::D, Self::FF);
        Self {
            w_sq: Tensor::from_vec(fill(d * d, 0.06, 1), &[d, d]).expect("shape"),
            w_ff: Tensor::from_vec(fill(ff * d, 0.06, 2), &[ff, d]).expect("shape"),
            x: fill(d, 1.0, 3),
            x8: fill(8 * d, 1.0, 4),
            out: vec![0.0; 8 * ff],
            norm_w: vec![1.0; d],
            soft: fill(512, 4.0, 5),
        }
    }

    /// `ops::matvec_t_into`, `[256] · [256, 256]ᵀ`.
    pub fn gemv_256x256(&mut self) {
        ops::matvec_t_into(&self.x, &self.w_sq, &mut self.out[..Self::D]).expect("gemv");
    }

    /// `ops::matvec_t_into`, `[256] · [704, 256]ᵀ`.
    pub fn gemv_704x256(&mut self) {
        ops::matvec_t_into(&self.x, &self.w_ff, &mut self.out[..Self::FF]).expect("gemv");
    }

    /// `ops::matmul_t_into`, `[8, 256] · [704, 256]ᵀ`.
    pub fn gemm8_704x256(&mut self) {
        ops::matmul_t_into(
            &self.x8,
            self.w_ff.data(),
            8,
            Self::D,
            Self::FF,
            &mut self.out,
        );
    }

    /// `ops::rmsnorm_into` over 256 values.
    pub fn rmsnorm_256(&mut self) {
        ops::rmsnorm_into(&self.x, &self.norm_w, 1e-5, &mut self.out[..Self::D]);
    }

    /// `ops::softmax_inplace` over 512 values.
    pub fn softmax_512(&mut self) {
        self.out[..512].copy_from_slice(&self.soft);
        ops::softmax_inplace(&mut self.out[..512]);
    }
}

fn synthetic_tokens(n: usize, salt: u64) -> Vec<Token> {
    Rng::new(salt).tokens(n)
}

/// A target model with `ctx` tokens already in its KV cache.
pub struct DecodeCtx {
    model: Arc<Model>,
    cache: KvCache,
    ctx: usize,
}

impl DecodeCtx {
    /// Prefills `ctx` synthetic tokens (`Model::forward_full`).
    pub fn new(model: &Arc<Model>, ctx: usize) -> Self {
        let cfg = model.config();
        let mut cache = KvCache::new(cfg.n_layers, cfg.kv_dim(), ctx + 8);
        model
            .forward_full(&Batch::prompt(&synthetic_tokens(ctx, 11), 0, 0), &mut cache)
            .expect("prefill");
        Self {
            model: Arc::clone(model),
            cache,
            ctx,
        }
    }

    fn forward_chain(&mut self, m: usize) {
        let mut batch = Batch::new();
        for i in 0..m {
            batch.push(7 + i as Token, (self.ctx + i) as i32, vec![0], true);
        }
        let logits = self
            .model
            .forward_full(&batch, &mut self.cache)
            .expect("decode");
        std::hint::black_box(logits);
        self.cache.seq_rm(0, self.ctx as i32, i32::MAX);
    }

    /// One single-token `Model::forward_full` at position `ctx` (the token is
    /// removed again, so the context length stays fixed).
    pub fn decode_one(&mut self) {
        self.forward_chain(1);
    }

    /// One five-row verify batch (pending token + 4 drafts) at position `ctx`.
    pub fn verify_m5(&mut self) {
        self.forward_chain(5);
    }
}

/// `Model::forward_full` prefill of `n` synthetic tokens into a fresh cache.
pub fn prefill(model: &Model, n: usize) {
    let cfg = model.config();
    let mut cache = KvCache::new(cfg.n_layers, cfg.kv_dim(), n);
    let logits = model
        .forward_full(&Batch::prompt(&synthetic_tokens(n, 12), 0, 0), &mut cache)
        .expect("prefill");
    std::hint::black_box(logits);
}

/// `Model::logits` on one hidden row.
pub struct LogitsOp {
    model: Arc<Model>,
    hidden: Tensor,
}

impl LogitsOp {
    pub fn new(model: &Arc<Model>) -> Self {
        let d = model.config().d_model;
        Self {
            model: Arc::clone(model),
            hidden: Tensor::from_vec(fill(d, 1.0, 13), &[1, d]).expect("shape"),
        }
    }

    pub fn run(&self) {
        std::hint::black_box(self.model.logits(&self.hidden));
    }
}

/// An eight-lane forest decode step through `Model::forward_layer_range_multi`.
pub struct Forest {
    model: Arc<Model>,
    caches: Vec<KvCache>,
    scratch: ScratchArena,
    ctx: usize,
}

impl Forest {
    pub const LANES: usize = 8;

    /// Eight requests, each with `ctx` tokens of context in its own cache.
    pub fn new(model: &Arc<Model>, ctx: usize) -> Self {
        let cfg = model.config();
        let caches = (0..Self::LANES)
            .map(|lane| {
                let mut cache = KvCache::new(cfg.n_layers, cfg.kv_dim(), ctx + 8);
                model
                    .forward_full(
                        &Batch::prompt(&synthetic_tokens(ctx, 20 + lane as u64), 0, 0),
                        &mut cache,
                    )
                    .expect("prefill");
                cache
            })
            .collect();
        Self {
            model: Arc::clone(model),
            caches,
            scratch: ScratchArena::for_config(cfg),
            ctx,
        }
    }

    /// One fused step: one row per lane, all layers, then `Model::logits`.
    pub fn step(&mut self) {
        let mut batch = Batch::new();
        for lane in 0..Self::LANES {
            batch.append_lane(&Batch::single(9, self.ctx as i32, 0), lane);
        }
        let mut caches: Vec<&mut KvCache> = self.caches.iter_mut().collect();
        let cells = Model::alloc_cells_multi(&batch, &mut caches).expect("cells");
        let hidden = self.model.embed(&batch);
        let out = self
            .model
            .forward_layer_range_multi(
                &batch,
                &hidden,
                0..self.model.config().n_layers,
                &mut caches,
                &cells,
                &mut self.scratch,
            )
            .expect("forest forward");
        std::hint::black_box(self.model.logits(&out));
        for cache in &mut self.caches {
            cache.seq_rm(0, self.ctx as i32, i32::MAX);
        }
    }
}

/// KV-cache metadata for one four-branch speculation tree over a 128-token
/// context: `seed_tree` (untimed) then `commit` or `rollback` (timed).
pub struct BranchOps {
    cache: KvCache,
}

impl BranchOps {
    const CTX: i32 = 128;
    const BRANCHES: usize = 4;
    const DEPTH: i32 = 4;

    pub fn new() -> Self {
        let mut cache = KvCache::new(1, 8, KV_CAPACITY);
        for pos in 0..Self::CTX {
            cache.alloc(pos, &[0]).expect("cell");
        }
        Self { cache }
    }

    /// Gives each branch sequence the context and `DEPTH` speculated cells.
    pub fn seed_tree(&mut self) {
        for b in 1..=Self::BRANCHES as u32 {
            self.cache.seq_cp(0, b, 0, i32::MAX);
            for d in 0..Self::DEPTH {
                self.cache.alloc(Self::CTX + d, &[b]).expect("cell");
            }
        }
    }

    /// `KvCache::branch_commit` of branch 1's full path into sequence 0.
    pub fn commit(&mut self) {
        self.cache
            .branch_commit(0, 1, 1, Self::BRANCHES, Self::CTX, Self::CTX + Self::DEPTH);
        // Restore the bare context for the next iteration.
        self.cache.seq_rm(0, Self::CTX, i32::MAX);
    }

    /// `KvCache::branch_rollback` of the whole tree.
    pub fn rollback(&mut self) {
        self.cache.branch_rollback(1, Self::BRANCHES);
    }
}

/// `KvPagePool` admission and commit of token-only prompt chains.
pub struct PoolOps {
    pool: Arc<KvPagePool>,
}

impl PoolOps {
    pub fn new(geometry: PoolGeometry) -> Self {
        Self {
            pool: KvPagePool::new(KvPoolConfig {
                tokens_per_page: geometry.tokens_per_page,
                n_pages: geometry.n_pages,
            }),
        }
    }

    /// `KvPagePool::begin_request`; `None` on refusal.
    pub fn begin(&self, prompt: &[Token], n_generate: usize) -> Option<u64> {
        self.pool
            .begin_request(prompt, n_generate, &[])
            .ok()
            .map(|t| t.id)
    }

    /// `KvPagePool::commit_chain` (token-only chain).
    pub fn commit(&self, ticket: u64, prompt: &[Token]) {
        self.pool.commit_chain(ticket, prompt, None);
    }

    /// `KvPagePool::end_request`.
    pub fn end(&self, ticket: u64) {
        self.pool.end_request(ticket);
    }
}

#[derive(Debug, Clone)]
struct Ping;

impl WireMessage for Ping {
    fn wire_bytes(&self) -> u64 {
        8
    }
}

/// Rank 0 starts `left` round trips with rank 1; every rank echoes.
struct PingPong {
    rank: Rank,
    left: u64,
    done: bool,
}

impl NodeBehavior<Ping> for PingPong {
    fn on_start(&mut self, ctx: &mut dyn NodeCtx<Ping>) {
        if self.rank == 0 {
            ctx.send(1, 0, Ping);
        }
    }

    fn on_message(&mut self, src: Rank, _tag: Tag, _msg: Ping, ctx: &mut dyn NodeCtx<Ping>) {
        self.left -= 1;
        // Rank 1 answers every ping; rank 0 stops after its last pong.
        if self.rank == 1 || self.left > 0 {
            ctx.send(src, 0, Ping);
        }
        self.done = self.left == 0;
    }

    fn is_finished(&self) -> bool {
        self.done
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// `ThreadedDriver::run` of a two-rank ping-pong; returns whether it completed.
pub fn ping_pong(round_trips: u64) -> bool {
    let behaviors: Vec<Box<dyn NodeBehavior<Ping>>> = (0..2)
        .map(|rank| {
            Box::new(PingPong {
                rank,
                left: round_trips,
                done: round_trips == 0,
            }) as Box<dyn NodeBehavior<Ping>>
        })
        .collect();
    ThreadedDriver::new().run(behaviors).completed
}

/// `ThreadedDriver::run` of `n_ranks` behaviors that are finished at once.
pub fn spawn_noop(n_ranks: usize) -> bool {
    let behaviors: Vec<Box<dyn NodeBehavior<Ping>>> = (0..n_ranks)
        .map(|rank| {
            Box::new(PingPong {
                rank,
                left: 0,
                done: true,
            }) as Box<dyn NodeBehavior<Ping>>
        })
        .collect();
    ThreadedDriver::new().run(behaviors).completed
}

/// A `RealDrafter` over the draft model with a fixed synthetic context.
pub struct Drafting {
    drafter: RealDrafter,
    context: Vec<Token>,
}

impl Drafting {
    pub fn new(draft: &Model, ctx: usize) -> Self {
        Self {
            drafter: RealDrafter::new(draft.clone(), KV_CAPACITY),
            context: synthetic_tokens(ctx, 31),
        }
    }

    /// `RealDrafter::draft` of up to four tokens; returns how many it proposed.
    pub fn draft4(&mut self) -> usize {
        self.drafter
            .draft(&self.context, &[], MAX_DRAFT, 0.0)
            .0
            .len()
    }
}

/// `CostModel::full_model_time` of a one-token decode at `ctx` tokens of
/// context for `cfg` stored as f32, on a node with the given measured rates.
pub fn predicted_decode_s(cfg: &ModelConfig, bytes_per_s: f64, flops: f64, ctx: usize) -> f64 {
    let node = NodeSpec {
        name: "measured".to_string(),
        mem_bandwidth_bps: bytes_per_s,
        compute_flops: flops,
        memory_bytes: 0,
    };
    let cost = ModelCost::new(cfg.clone(), QuantKind::F32);
    CostModel::new(node).full_model_time(&cost, 1, ctx)
}
