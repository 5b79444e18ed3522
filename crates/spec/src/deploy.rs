//! Strategy-agnostic cluster assembly: the [`Deployment`] layer.
//!
//! Every inference strategy in the workspace — iterative, SpecInfer-style
//! speculative, PipeInfer, and whatever future PRs add — executes the same
//! way: pick a pipeline route over the ranks, split the target model's
//! layers across the route's stages, build a head behavior plus one
//! [`PipelineWorker`] per non-head stage,
//! then run all behaviors under the driver matching the
//! [`ExecutionMode`].  Historically that plumbing was copy-pasted into
//! `run_iterative`, `run_speculative` and `pipeinfer_core::run_pipeinfer`;
//! it now lives here exactly once.
//!
//! A strategy only describes what makes it *different*:
//!
//! * its **rank-layout policy** ([`Strategy::route`]) — e.g. PipeInfer keeps
//!   rank 0 as a draft-hosting head with no target layers;
//! * its **layer-split policy** ([`Strategy::split_layers`]);
//! * its **head behavior** — by default the one synchronous head, running
//!   the strategy's [`Strategy::step_profile`]; asynchronous strategies
//!   override the factory ([`Strategy::build_head`]), which is fed with the
//!   pre-built engine/drafter for the execution mode.
//!
//! The deployment owns everything else, split into two phases:
//! [`Deployment::prepare`] validates the rank layout once and captures the
//! execution mode in a reusable [`PreparedDeployment`], which is also the
//! one constructor of the compute [engines](crate::engine) and the one place
//! a request is admitted into the KV page pool.  From there a request runs
//! one of two ways over the same engines:
//!
//! * **solo** — one private path builds the head engine and one engine per
//!   further stage, opens the request's slot on each, wraps them in the head
//!   behavior and [`PipelineWorker`]s (fresh KV caches — an isolated session
//!   per call) and executes them under the driver matching the mode,
//!   collecting a [`RunOutput`].  [`PreparedDeployment::run_with`] reaches it
//!   with [`RunOptions`] (a trace recorder, a fault plan) and surfaces a pool
//!   refusal; [`PreparedDeployment::run_pinned`] falls back to flat caches
//!   when the pool refuses the request and hands back the admission guard,
//!   and [`PreparedDeployment::run`] / [`PreparedDeployment::run_traced`]
//!   are its wrappers.  [`Deployment::run`] is the one-shot convenience
//!   wrapper.
//! * **stepped** — [`PreparedDeployment::begin_session`] hands the same
//!   engines to a [`StepSession`](crate::session::StepSession), which opens
//!   a slot per admitted request and evaluates every request's micro-batch
//!   as one forest per step.
//!
//! Pool admission is one helper for both: `admit` pins the longest committed
//! prefix and reserves the rest, returning the [`PrefixPlan`] guard whose
//! last drop ends the request, and `retire` commits a finished `Sim`
//! request's prompt as a token-only chain.

use crate::drafter::{Drafter, OracleDrafter, RealDrafter};
use crate::engine::{
    HeadEngine, PrefixPlan, RealStage, SimHeadEngine, SimStageEngine, StageEngine,
};
use crate::message::PipeMsg;
use crate::route::PipelineRoute;
use crate::sync_head::SyncHead;
use crate::tree::DEFAULT_PRIOR;
use crate::worker::PipelineWorker;
use crate::{GenConfig, GenerationRecord};
use pi_cluster::sim::SimDriver;
use pi_cluster::threaded::ThreadedDriver;
use pi_cluster::{ClusterStats, FaultPlan, NodeBehavior, Topology, Trace, TraceConfig};
use pi_model::kv_pool::{AdmissionRefusal, KvPagePool, StageKey};
use pi_model::{Model, OracleDraft, OracleTarget};
use pi_perf::{ClusterSpec, CostModel, ModelCost, ModelPair};
use std::ops::Range;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How model compute is realised during a run.
///
/// The `Sim` variant inlines its (large) presets on purpose: one value is
/// constructed per run and moved, never stored in bulk, so boxing would only
/// complicate every construction site.
#[derive(Clone)]
#[allow(clippy::large_enum_variant)]
pub enum ExecutionMode {
    /// Real tiny models, threaded driver, wall-clock time.
    Real {
        /// The target model.
        target: Arc<Model>,
        /// The draft model (ignored by the iterative baseline).
        draft: Arc<Model>,
    },
    /// Cost-model simulation of a paper-scale deployment.
    Sim {
        /// Target/draft pair with its acceptance rate.
        pair: ModelPair,
        /// Hardware the deployment runs on (node count = pipeline size).
        cluster: ClusterSpec,
        /// Seed for the token oracles (fixed seed ⇒ bit-reproducible runs).
        oracle_seed: u64,
    },
}

impl ExecutionMode {
    /// Number of decoder layers in the target model of this mode.
    pub fn target_layers(&self) -> usize {
        match self {
            ExecutionMode::Real { target, .. } => target.config().n_layers,
            ExecutionMode::Sim { pair, .. } => pair.target.cfg.n_layers,
        }
    }
}

/// Result of executing one generation run on a cluster.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// The head rank's record of the generation.
    pub record: GenerationRecord,
    /// Driver statistics (per-rank utilisation, messages, bytes).
    pub stats: ClusterStats,
    /// Whether every rank finished cleanly.
    pub completed: bool,
    /// Structured event trace, present iff the run was started through a
    /// traced entry point ([`PreparedDeployment::run_traced`]) with the
    /// `trace` feature on.
    pub trace: Option<Trace>,
}

/// Shared handle type used to pull the record out of the head behavior.
pub type RecordHandle = Arc<Mutex<Option<GenerationRecord>>>;

fn take_record(handle: &RecordHandle) -> GenerationRecord {
    handle
        .lock()
        .unwrap()
        .clone()
        .expect("head rank did not produce a generation record (run incomplete?)")
}

/// Everything a [`Strategy`] receives to construct its head behavior.
///
/// The deployment builds the pieces that depend only on the execution mode
/// (engine, drafter) so strategy implementations stay mode-oblivious.
pub struct HeadParts {
    /// The target-pipeline route; the head is stage 0.
    pub route: PipelineRoute,
    /// Embedding / output-head / stage-0 evaluation engine.
    pub engine: Box<dyn HeadEngine>,
    /// Draft-model front-end, present iff [`Strategy::needs_drafter`].
    pub drafter: Option<Box<dyn Drafter>>,
    /// Generation parameters for this run.
    pub gen_config: GenConfig,
    /// Handle the final [`GenerationRecord`] must be written to.
    pub record: RecordHandle,
    /// Leading prompt tokens already resident in every stage's KV cache
    /// (served from a shared page pool); the head must seed its context with
    /// `prompt[..prompt_cached]` and prefill only the remaining suffix.
    /// Always strictly less than the prompt length; 0 without a pool.
    pub prompt_cached: usize,
    /// Whether every rank runs as a thread of this process
    /// ([`ExecutionMode::Real`] under the threaded driver) instead of as a
    /// node of its own: the head's drafting then shares processors with the
    /// stages that verify it.
    pub ranks_share_host: bool,
}

/// The per-iteration decode shape a strategy contributes to the
/// [`StepSession`](crate::session::StepSession) step loop: what one request
/// submits per step when many requests are fused into a single forest batch.
///
/// Strategies whose solo execution is asynchronous (PipeInfer's continuous
/// speculation) collapse to their synchronous per-step equivalent here —
/// greedy speculative verification is lossless, so the emitted token stream
/// is identical either way; only the overlap structure (and therefore solo
/// latency) differs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StepProfile {
    /// One pending token per step (the iterative baseline): the empty tree.
    NonSpeculative,
    /// `[pending] ++ draft chain` per step, verified greedily: the width-1
    /// tree, written in place on the canonical KV sequence.
    Chain,
    /// `[pending] ++ token tree` per step with adaptive width/depth, each
    /// branch in a KV sequence partition of its own.
    Tree(crate::tree::TreeConfig),
}

/// What makes an inference strategy different from the others: rank layout,
/// layer split and the head rank's behavior.
///
/// Implementations: [`IterativeStrategy`], [`SpeculativeStrategy`] (both
/// here), [`TreeSpeculationStrategy`](crate::tree::TreeSpeculationStrategy)
/// and `pipeinfer_core::PipeInferStrategy`.  The first three are synchronous
/// — one run in flight, `[pending] ++ draft` verified greedily — and differ
/// only in their [`Strategy::step_profile`]; they share one head.
pub trait Strategy: Send + Sync {
    /// Human-readable strategy name (used in diagnostics and reports).
    fn name(&self) -> &'static str;

    /// Smallest cluster this strategy can run on.
    fn min_nodes(&self) -> usize {
        1
    }

    /// Whether the head rank hosts a draft model.  When `true` the
    /// deployment builds a mode-appropriate drafter into [`HeadParts`].
    fn needs_drafter(&self) -> bool {
        false
    }

    /// Rank-layout policy: which ranks form the target pipeline, in stage
    /// order.  The head must be rank 0 (both drivers deliver the record from
    /// rank 0).  Defaults to all ranks in order.
    ///
    /// Every rank not on the route must receive a behavior from
    /// [`Strategy::build_auxiliary`] — [`Deployment::run`] needs one
    /// behavior per rank and fails with a descriptive panic otherwise.
    fn route(&self, n_nodes: usize) -> PipelineRoute {
        PipelineRoute::baseline(n_nodes)
    }

    /// Layer-split policy: the half-open layer range evaluated by each stage
    /// of `route`, in stage order.  Must return exactly
    /// `route.n_stages()` ranges that jointly cover `0..n_layers`.
    fn split_layers(&self, n_layers: usize, route: &PipelineRoute) -> Vec<Range<usize>> {
        Model::split_layers(n_layers, route.n_stages())
    }

    /// The shape of one synchronous round of this strategy: what the
    /// default head verifies per pipeline run, and what one request
    /// contributes per iteration when served through a
    /// [`StepSession`](crate::session::StepSession) instead of a dedicated
    /// per-request pipeline.  Defaults to a draft chain for drafting
    /// strategies and single-token decoding otherwise; tree strategies
    /// override with their tree configuration.
    fn step_profile(&self) -> StepProfile {
        if self.needs_drafter() {
            StepProfile::Chain
        } else {
            StepProfile::NonSpeculative
        }
    }

    /// Head behavior factory.  Defaults to the synchronous head: one run in
    /// flight, each round shaped by [`Strategy::step_profile`] (so iterative
    /// decoding, chain speculation and tree speculation need no head of
    /// their own).  Strategies that keep several runs in flight override it.
    fn build_head(&self, parts: HeadParts) -> Box<dyn NodeBehavior<PipeMsg>> {
        Box::new(SyncHead::new(parts, self.step_profile(), DEFAULT_PRIOR))
    }

    /// Behaviors for ranks that are *not* pipeline stages — e.g. a dedicated
    /// draft rank in the paper's Fig. 3 layout (`PipelineRoute::pipeinfer`
    /// skips rank 1).  Returns `(rank, behavior)` pairs; the default is none,
    /// which is correct for every strategy whose route covers all ranks.
    /// [`build_drafter`] is available for hosting a draft model here.
    fn build_auxiliary(
        &self,
        _mode: &ExecutionMode,
        _n_nodes: usize,
        _route: &PipelineRoute,
        _gen_config: &GenConfig,
    ) -> Vec<(usize, Box<dyn NodeBehavior<PipeMsg>>)> {
        Vec::new()
    }
}

/// Pipeline-parallel iterative inference (baseline 1): every rank is a
/// pipeline stage, one token evaluated at a time, no draft model.
#[derive(Debug, Clone, Copy, Default)]
pub struct IterativeStrategy;

impl Strategy for IterativeStrategy {
    fn name(&self) -> &'static str {
        "Iterative"
    }
}

/// Pipeline-parallel speculative inference (baseline 2, SpecInfer-style):
/// every rank is a pipeline stage and the head also hosts the draft model
/// for a synchronous speculate-then-verify loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpeculativeStrategy;

impl Strategy for SpeculativeStrategy {
    fn name(&self) -> &'static str {
        "Speculative"
    }

    fn needs_drafter(&self) -> bool {
        true
    }
}

/// A strategy bound to the shared assembly/execution plumbing.
///
/// `Deployment::new(strategy).run(&mode, n_nodes, &gen_config)` is the single
/// entry point every runner, bench, example and test goes through.  Long-
/// lived callers (the `pi-serve` server) instead call
/// [`Deployment::prepare`] once and reuse the resulting
/// [`PreparedDeployment`] across a whole request stream.
pub struct Deployment {
    strategy: Arc<dyn Strategy>,
}

impl Deployment {
    /// Wraps a strategy.
    pub fn new<S: Strategy + 'static>(strategy: S) -> Self {
        Self {
            strategy: Arc::new(strategy),
        }
    }

    /// The wrapped strategy.
    pub fn strategy(&self) -> &dyn Strategy {
        self.strategy.as_ref()
    }

    /// The validated rank layout this deployment would use over `n_nodes`
    /// ranks, exposed for tests and capacity planning.  Panics with the same
    /// descriptive diagnostics as [`Deployment::run`] when the strategy's
    /// policies are inconsistent (too few ranks, head not rank 0, layer
    /// splits that do not tile the model).
    pub fn layout(
        &self,
        mode: &ExecutionMode,
        n_nodes: usize,
    ) -> (PipelineRoute, Vec<Range<usize>>) {
        let strategy = self.strategy.as_ref();
        assert!(
            n_nodes >= strategy.min_nodes(),
            "{} needs at least {} rank(s), got {n_nodes}",
            strategy.name(),
            strategy.min_nodes()
        );
        let route = strategy.route(n_nodes);
        assert_eq!(
            route.head(),
            0,
            "{}: the head must be rank 0",
            strategy.name()
        );
        let n_layers = mode.target_layers();
        let splits = strategy.split_layers(n_layers, &route);
        assert_eq!(
            splits.len(),
            route.n_stages(),
            "{}: one layer range per pipeline stage",
            strategy.name()
        );
        let mut next_layer = 0;
        for (stage, split) in splits.iter().enumerate() {
            assert!(
                split.start == next_layer && split.end >= split.start,
                "{}: stage {stage} covers {split:?} but layer {next_layer} is next — \
                 split_layers must tile 0..{n_layers} contiguously",
                strategy.name()
            );
            next_layer = split.end;
        }
        assert_eq!(
            next_layer,
            n_layers,
            "{}: split_layers covered only 0..{next_layer} of 0..{n_layers}",
            strategy.name()
        );
        (route, splits)
    }

    /// Validates the strategy's policies against `mode`/`n_nodes` once and
    /// returns a reusable [`PreparedDeployment`].
    ///
    /// Preparation is the per-deployment work: route construction, layer
    /// splitting and their consistency checks, plus capturing the execution
    /// mode (whose model weights are `Arc`-shared, so the expensive state is
    /// genuinely built once).  What remains per request — engines, drafter
    /// and worker behaviors — *must* be rebuilt for every generation because
    /// they own the KV caches and run-tracking state, which is exactly the
    /// per-request session isolation a serving layer needs.
    pub fn prepare(&self, mode: &ExecutionMode, n_nodes: usize) -> PreparedDeployment {
        let (route, splits) = self.layout(mode, n_nodes);
        PreparedDeployment {
            strategy: Arc::clone(&self.strategy),
            mode: mode.clone(),
            n_nodes,
            route,
            splits,
            pool: None,
        }
    }

    /// Assembles and executes one generation run across `n_nodes` ranks.
    ///
    /// Thin wrapper over [`Deployment::prepare`] +
    /// [`PreparedDeployment::run`] for one-shot callers.
    pub fn run(&self, mode: &ExecutionMode, n_nodes: usize, gen_config: &GenConfig) -> RunOutput {
        self.prepare(mode, n_nodes).run(gen_config)
    }
}

/// A validated, reusable deployment: one strategy bound to one execution
/// mode and rank count, with the rank layout computed and checked once.
///
/// `PreparedDeployment` is `Send + Sync`, so a server can execute many
/// requests over the same prepared state concurrently — each
/// [`PreparedDeployment::run`] call builds fresh engines and workers (fresh
/// KV caches and run trackers, i.e. an isolated session) around the shared
/// strategy, model weights and layout.
pub struct PreparedDeployment {
    strategy: Arc<dyn Strategy>,
    mode: ExecutionMode,
    n_nodes: usize,
    route: PipelineRoute,
    splits: Vec<Range<usize>>,
    /// Deployment-owned KV page pool, shared across `run` calls.
    pool: Option<Arc<KvPagePool>>,
}

impl PreparedDeployment {
    /// The wrapped strategy.
    pub fn strategy(&self) -> &dyn Strategy {
        self.strategy.as_ref()
    }

    /// The execution mode this deployment was prepared for.
    pub fn mode(&self) -> &ExecutionMode {
        &self.mode
    }

    /// Number of ranks in the prepared cluster.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// The validated pipeline route.
    pub fn route(&self) -> &PipelineRoute {
        &self.route
    }

    /// The validated per-stage layer splits.
    pub fn splits(&self) -> &[Range<usize>] {
        &self.splits
    }

    /// Attaches a KV page pool shared across every subsequent run and
    /// session: requests with a common prompt prefix attach the same
    /// physical pages and skip prefill for the cached span.  Without one
    /// every request gets fresh flat caches.
    pub fn with_kv_pool(mut self, pool: Arc<KvPagePool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// The deployment-owned KV page pool, if one is attached.
    pub fn kv_pool(&self) -> Option<&Arc<KvPagePool>> {
        self.pool.as_ref()
    }

    /// Opens an iteration-level continuous-batching session over this
    /// deployment: requests join and leave at step boundaries, and every
    /// step fuses all in-flight requests' micro-batches into one forest
    /// batch (see [`StepSession`](crate::session::StepSession)).
    pub fn begin_session(&self) -> crate::session::StepSession<'_> {
        crate::session::StepSession::new(self)
    }

    /// Executes one generation run over the prepared layout.
    ///
    /// With a KV pool attached, admission is attempted first; a pool too full
    /// to admit the request falls back to the pool-less path (fresh flat
    /// caches) instead of failing — use [`PreparedDeployment::run_with`] to
    /// surface the refusal instead.
    pub fn run(&self, gen_config: &GenConfig) -> RunOutput {
        self.run_pinned(gen_config, None).0
    }

    /// [`PreparedDeployment::run`] with a structured event recorder attached
    /// to every rank; the returned [`RunOutput::trace`] carries the
    /// cross-rank trace (virtual time under `Sim`, wall time under `Real`).
    /// Recording never perturbs generation output — only observes it.
    pub fn run_traced(&self, gen_config: &GenConfig, trace: TraceConfig) -> RunOutput {
        self.run_pinned(gen_config, Some(trace)).0
    }

    /// [`PreparedDeployment::run`] (or `run_traced`, with `trace` set) that
    /// also hands back the request's pool admission: the run is over, its
    /// prompt chain is committed, and the matched prefix stays pinned and the
    /// reservation held until the returned guard is dropped.  A serving loop
    /// keeps it for as long as the request is in flight on its own clock.
    /// `None` without a pool, or when the pool refused the request and it
    /// ran on isolated flat caches.
    pub fn run_pinned(
        &self,
        gen_config: &GenConfig,
        trace: Option<TraceConfig>,
    ) -> (RunOutput, Option<Arc<PrefixPlan>>) {
        // The pool cannot host this request right now: degrade to an
        // isolated flat-cache session rather than failing the run.
        let plan = self.admit(gen_config).ok().flatten();
        let out = self.run_admitted(gen_config, trace, None, plan.as_ref());
        (out, plan)
    }

    /// Executes one generation run under `options`.  Errs only when a pool
    /// is attached and cannot admit the request.
    pub fn run_with(
        &self,
        gen_config: &GenConfig,
        options: RunOptions,
    ) -> Result<RunOutput, AdmissionRefusal> {
        let plan = self.admit(gen_config)?;
        Ok(self.run_admitted(gen_config, options.trace, options.faults, plan.as_ref()))
    }

    /// The one solo path under every public run form: through the shared
    /// page pool, if the request was admitted — attach the longest cached
    /// prefix, run with suffix-only prefill, then commit the prompt chain.
    fn run_admitted(
        &self,
        gen_config: &GenConfig,
        trace: Option<TraceConfig>,
        faults: Option<FaultPlan>,
        plan: Option<&Arc<PrefixPlan>>,
    ) -> RunOutput {
        let cached = plan.map_or(0, |plan| plan.cached_tokens);
        let out = self.run_plain(gen_config, trace, faults, cached, plan);
        if let Some(plan) = plan {
            self.retire(plan);
        }
        out
    }

    /// Admits one request into the attached KV page pool (`Ok(None)` without
    /// one): pins the longest committed prefix of its prompt and reserves
    /// pages for the rest.  The returned plan is the admission — dropping
    /// its last handle ends the request — and the caller passes it to
    /// `retire` when the request finishes.
    pub(crate) fn admit(
        &self,
        gen_config: &GenConfig,
    ) -> Result<Option<Arc<PrefixPlan>>, AdmissionRefusal> {
        let Some(pool) = &self.pool else {
            return Ok(None);
        };
        // Real engines attach physical pages, so a prefix only counts as
        // cached once every stage's K/V planes are committed for it.  Sim
        // engines carry no tensors — a token-level match suffices there.
        let required: Vec<StageKey> = match &self.mode {
            ExecutionMode::Real { .. } => self.splits.iter().map(|r| (r.start, r.end)).collect(),
            ExecutionMode::Sim { .. } => Vec::new(),
        };
        let ticket = pool.begin_request(&gen_config.prompt, gen_config.n_generate, &required)?;
        Ok(Some(Arc::new(PrefixPlan {
            pool: Arc::clone(pool),
            ticket: ticket.id,
            prompt: gen_config.prompt.clone(),
            // Keep at least the final prompt token for live prefill: heads
            // need one evaluated position to produce the first logits.
            cached_tokens: ticket
                .cached_tokens
                .min(gen_config.prompt.len().saturating_sub(1)),
        })))
    }

    /// Retires the admission of a request that ran to completion.  `Real`
    /// stages committed their physical pages during prefill; `Sim` engines
    /// never touch pages, so the prompt is committed here as a token-only
    /// chain for later requests to match against.  Dropping the plan's last
    /// handle then ends the request.
    pub(crate) fn retire(&self, plan: &PrefixPlan) {
        if matches!(self.mode, ExecutionMode::Sim { .. }) {
            plan.pool.commit_chain(plan.ticket, &plan.prompt, None);
        }
    }

    /// The engine of stage 0, with no request slot open.
    pub(crate) fn head_engine(&self) -> Box<dyn HeadEngine> {
        let layers = &self.splits[0];
        match &self.mode {
            ExecutionMode::Real { target, .. } => {
                Box::new(RealStage::new(target.clone(), layers.clone()))
            }
            ExecutionMode::Sim {
                pair,
                cluster,
                oracle_seed,
            } => Box::new(SimHeadEngine::new(
                CostModel::new(cluster.node(0).clone()),
                ModelCost::new(pair.target.cfg.clone(), pair.target.quant),
                layers.len(),
                OracleTarget::new(*oracle_seed, pair.target.cfg.vocab_size as u32),
            )),
        }
    }

    /// The engines of stages `1..n_stages` of the route, in stage order,
    /// each with no request slot open.
    pub(crate) fn stage_engines(&self) -> Vec<Box<dyn StageEngine>> {
        let stages = self.route.ranks().iter().zip(&self.splits).skip(1);
        stages
            .map(|(&rank, layers)| -> Box<dyn StageEngine> {
                match &self.mode {
                    ExecutionMode::Real { target, .. } => {
                        Box::new(RealStage::new(target.clone(), layers.clone()))
                    }
                    ExecutionMode::Sim { pair, cluster, .. } => Box::new(SimStageEngine::new(
                        CostModel::new(cluster.node(rank).clone()),
                        ModelCost::new(pair.target.cfg.clone(), pair.target.quant),
                        layers.len(),
                    )),
                }
            })
            .collect()
    }

    /// One solo run: every engine opens the request's one slot (under the
    /// shared-prefix `plan`, real engines attach its pooled pages instead of
    /// starting from an empty cache) and the behaviors built around them
    /// execute under the mode's driver.
    fn run_plain(
        &self,
        gen_config: &GenConfig,
        trace: Option<TraceConfig>,
        faults: Option<FaultPlan>,
        prompt_cached: usize,
        plan: Option<&Arc<PrefixPlan>>,
    ) -> RunOutput {
        let strategy = self.strategy.as_ref();
        let (mode, route) = (&self.mode, &self.route);
        let handle: RecordHandle = Arc::new(Mutex::new(None));
        let mut engine = self.head_engine();
        engine.open(gen_config.kv_capacity, plan);
        let drafter = strategy
            .needs_drafter()
            .then(|| build_drafter(mode, route.head(), gen_config));
        let head = strategy.build_head(HeadParts {
            route: route.clone(),
            engine,
            drafter,
            gen_config: gen_config.clone(),
            record: handle.clone(),
            prompt_cached,
            ranks_share_host: matches!(mode, ExecutionMode::Real { .. }),
        });
        let mut others: Vec<(usize, Box<dyn NodeBehavior<PipeMsg>>)> = Vec::new();
        for (mut engine, &rank) in self.stage_engines().into_iter().zip(&route.ranks()[1..]) {
            engine.open(gen_config.kv_capacity, plan);
            others.push((
                rank,
                Box::new(PipelineWorker::new(rank, route.clone(), engine)),
            ));
        }
        others.extend(strategy.build_auxiliary(mode, self.n_nodes, route, gen_config));
        let behaviors = assemble_for(strategy.name(), self.n_nodes, head, others);
        execute(mode, behaviors, &handle, trace, faults)
    }
}

/// What a [`PreparedDeployment::run_with`] call attaches to its run.  The
/// default is a plain run: no recorder, no faults.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Structured event recorder attached to every rank (see
    /// [`PreparedDeployment::run_traced`]).
    pub trace: Option<TraceConfig>,
    /// Seeded chaos schedule attached to the driver (`SimDriver::with_faults`;
    /// the threaded driver applies its best-effort subset).  Under `Sim`
    /// mode the perturbed run replays bit-identically for the same plan, and
    /// with `trace` set the injected faults and any recovery they provoke
    /// (`fault_injected`, `draft_failover`, …) land in the trace.
    pub faults: Option<FaultPlan>,
}

/// Executes behaviors under the driver matching the execution mode, with an
/// optional structured event recorder and an optional seeded chaos schedule
/// attached to the driver.
fn execute(
    mode: &ExecutionMode,
    behaviors: Vec<Box<dyn NodeBehavior<PipeMsg>>>,
    handle: &RecordHandle,
    trace: Option<TraceConfig>,
    faults: Option<FaultPlan>,
) -> RunOutput {
    match mode {
        ExecutionMode::Real { .. } => {
            let mut driver = ThreadedDriver::new().with_timeout(Duration::from_secs(120));
            if let Some(cfg) = trace {
                driver = driver.with_trace(cfg);
            }
            if let Some(plan) = faults {
                driver = driver.with_faults(plan);
            }
            let out = driver.run(behaviors);
            RunOutput {
                record: take_record(handle),
                stats: out.stats,
                completed: out.completed,
                trace: out.trace,
            }
        }
        ExecutionMode::Sim { cluster, .. } => {
            let topology: Topology = cluster.topology();
            let mut driver = SimDriver::new(topology);
            if let Some(cfg) = trace {
                driver = driver.with_trace(cfg);
            }
            if let Some(plan) = faults {
                driver = driver.with_faults(plan);
            }
            let out = driver.run(behaviors);
            let completed = out.completed();
            RunOutput {
                record: take_record(handle),
                stats: out.stats,
                completed,
                trace: out.trace,
            }
        }
    }
}

/// Builds a drafter hosted on rank `host_rank`.
pub fn build_drafter(
    mode: &ExecutionMode,
    host_rank: usize,
    config: &GenConfig,
) -> Box<dyn Drafter> {
    match mode {
        ExecutionMode::Real { draft, .. } => {
            Box::new(RealDrafter::new(Arc::clone(draft), config.kv_capacity))
        }
        ExecutionMode::Sim {
            pair,
            cluster,
            oracle_seed,
        } => Box::new(OracleDrafter::new(
            OracleTarget::new(*oracle_seed, pair.target.cfg.vocab_size as u32),
            OracleDraft::new(
                oracle_seed.wrapping_add(0x5eed_cafe),
                pair.target.cfg.vocab_size as u32,
                pair.acceptance_rate,
            ),
            CostModel::new(cluster.node(host_rank).clone()),
            ModelCost::new(pair.draft.cfg.clone(), pair.draft.quant),
        )),
    }
}

/// Orders behaviors by rank into a dense vector for the drivers, verifying
/// that the strategy assigned exactly one behavior to every rank.
fn assemble_for(
    strategy: &str,
    n_nodes: usize,
    head: Box<dyn NodeBehavior<PipeMsg>>,
    mut others: Vec<(usize, Box<dyn NodeBehavior<PipeMsg>>)>,
) -> Vec<Box<dyn NodeBehavior<PipeMsg>>> {
    let mut slots: Vec<Option<Box<dyn NodeBehavior<PipeMsg>>>> =
        (0..n_nodes).map(|_| None).collect();
    slots[0] = Some(head);
    for (rank, b) in others.drain(..) {
        assert!(
            rank < n_nodes,
            "{strategy}: behavior assigned to rank {rank} outside the {n_nodes}-rank cluster"
        );
        assert!(
            slots[rank].is_none(),
            "{strategy}: rank {rank} was assigned two behaviors \
             (route worker and auxiliary overlap?)"
        );
        slots[rank] = Some(b);
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(rank, slot)| {
            slot.unwrap_or_else(|| {
                panic!(
                    "{strategy}: rank {rank} has no behavior — the route skipped it \
                     without Strategy::build_auxiliary providing one"
                )
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{real_mode, sim_mode};
    use pi_model::kv_pool::KvPoolConfig;

    fn assert_covers(splits: &[Range<usize>], n_layers: usize) {
        let mut next = 0;
        for r in splits {
            assert_eq!(r.start, next, "splits must be contiguous");
            assert!(r.end >= r.start);
            next = r.end;
        }
        assert_eq!(next, n_layers, "splits must cover every layer");
    }

    #[test]
    fn baseline_strategies_route_all_ranks_with_head_zero() {
        for strategy in [
            Deployment::new(IterativeStrategy),
            Deployment::new(SpeculativeStrategy),
        ] {
            for n in [1usize, 2, 4, 9] {
                let (route, splits) = strategy.layout(&sim_mode(n.max(4)), n);
                assert_eq!(route.head(), 0);
                assert_eq!(route.n_stages(), n);
                assert_eq!(route.ranks(), (0..n).collect::<Vec<_>>().as_slice());
                assert_covers(&splits, sim_mode(4).target_layers());
            }
        }
    }

    #[test]
    fn split_layers_matches_model_split() {
        let strategy = IterativeStrategy;
        let route = strategy.route(5);
        let splits = strategy.split_layers(80, &route);
        assert_eq!(splits, Model::split_layers(80, 5));
        assert_covers(&splits, 80);
    }

    #[test]
    fn drafter_policy_matches_strategy() {
        assert!(!IterativeStrategy.needs_drafter());
        assert!(SpeculativeStrategy.needs_drafter());
    }

    #[test]
    fn iterative_and_speculative_agree_in_sim_mode() {
        let config = GenConfig {
            prompt: vec![9; 12],
            n_generate: 24,
            max_draft: 4,
            confidence_cutoff: 0.4,
            kv_capacity: 4096,
        };
        let iter = Deployment::new(IterativeStrategy).run(&sim_mode(4), 4, &config);
        let spec = Deployment::new(SpeculativeStrategy).run(&sim_mode(4), 4, &config);
        assert!(iter.completed && spec.completed);
        assert_eq!(
            iter.record.tokens[..24],
            spec.record.tokens[..24],
            "strategies must produce the same greedy stream for one oracle seed"
        );
    }

    #[test]
    fn prepared_deployment_is_reusable_and_matches_one_shot_run() {
        let config = GenConfig {
            prompt: vec![9; 12],
            n_generate: 16,
            max_draft: 4,
            confidence_cutoff: 0.4,
            kv_capacity: 4096,
        };
        let deployment = Deployment::new(SpeculativeStrategy);
        let prepared = deployment.prepare(&sim_mode(4), 4);
        assert_eq!(prepared.n_nodes(), 4);
        assert_eq!(prepared.strategy().name(), "Speculative");
        assert_eq!(prepared.route().n_stages(), 4);
        assert_eq!(prepared.splits().len(), 4);
        // Repeated runs over one prepared deployment are isolated sessions:
        // identical configs reproduce identical outputs, and both match the
        // one-shot Deployment::run path bit-for-bit.
        let a = prepared.run(&config);
        let b = prepared.run(&config);
        let solo = deployment.run(&sim_mode(4), 4, &config);
        assert!(a.completed && b.completed && solo.completed);
        assert_eq!(a.record.tokens, b.record.tokens);
        assert_eq!(a.record.tokens, solo.record.tokens);
        assert_eq!(a.record.finished_at, solo.record.finished_at);
    }

    #[test]
    fn prepared_deployment_is_shareable_across_threads() {
        let config = GenConfig::small_test(vec![4; 8], 8);
        let prepared = Deployment::new(IterativeStrategy).prepare(&sim_mode(4), 4);
        let tokens: Vec<Vec<u32>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..3)
                .map(|_| s.spawn(|| prepared.run(&config).record.tokens.clone()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(tokens.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn deployment_runs_real_mode_end_to_end() {
        let config = GenConfig::small_test(vec![3, 1, 4, 1, 5], 8);
        let out = Deployment::new(IterativeStrategy).run(&real_mode(17), 2, &config);
        assert!(out.completed);
        assert_eq!(out.record.tokens.len(), 8);
    }

    #[test]
    #[should_panic(expected = "needs at least")]
    fn min_nodes_is_enforced() {
        struct Needy;
        impl Strategy for Needy {
            fn name(&self) -> &'static str {
                "Needy"
            }
            fn min_nodes(&self) -> usize {
                3
            }
            fn build_head(&self, _parts: HeadParts) -> Box<dyn NodeBehavior<PipeMsg>> {
                unreachable!()
            }
        }
        let config = GenConfig::small_test(vec![1], 1);
        let _ = Deployment::new(Needy).run(&sim_mode(4), 2, &config);
    }

    /// Iterative head over the Fig. 3-style route that skips rank 1.
    struct SkipRankOne {
        with_auxiliary: bool,
    }

    impl Strategy for SkipRankOne {
        fn name(&self) -> &'static str {
            "SkipRankOne"
        }
        fn min_nodes(&self) -> usize {
            3
        }
        fn route(&self, n_nodes: usize) -> PipelineRoute {
            PipelineRoute::pipeinfer(n_nodes)
        }
        fn build_head(&self, parts: HeadParts) -> Box<dyn NodeBehavior<PipeMsg>> {
            IterativeStrategy.build_head(parts)
        }
        fn build_auxiliary(
            &self,
            _mode: &ExecutionMode,
            n_nodes: usize,
            route: &PipelineRoute,
            _gen_config: &GenConfig,
        ) -> Vec<(usize, Box<dyn NodeBehavior<PipeMsg>>)> {
            if !self.with_auxiliary {
                return Vec::new();
            }
            struct Idle;
            impl NodeBehavior<PipeMsg> for Idle {
                fn on_message(
                    &mut self,
                    _: usize,
                    _: u32,
                    _: PipeMsg,
                    _: &mut dyn pi_cluster::NodeCtx<PipeMsg>,
                ) {
                }
                fn is_finished(&self) -> bool {
                    true
                }
                fn as_any(&self) -> &dyn std::any::Any {
                    self
                }
            }
            // Every rank the route skipped gets an idle placeholder (a
            // dedicated draft rank in a real strategy).
            (0..n_nodes)
                .filter(|r| route.stage_of(*r).is_none())
                .map(|r| (r, Box::new(Idle) as Box<dyn NodeBehavior<PipeMsg>>))
                .collect()
        }
    }

    #[test]
    fn off_route_ranks_are_served_by_auxiliary_behaviors() {
        let config = GenConfig {
            prompt: vec![9; 8],
            n_generate: 12,
            max_draft: 4,
            confidence_cutoff: 0.4,
            kv_capacity: 2048,
        };
        let skip = Deployment::new(SkipRankOne {
            with_auxiliary: true,
        })
        .run(&sim_mode(4), 4, &config);
        assert!(skip.completed);
        // Rank 1 is off the pipeline, so the skipping layout must match a
        // 3-stage baseline token-for-token.
        let base = Deployment::new(IterativeStrategy).run(&sim_mode(3), 3, &config);
        assert_eq!(skip.record.tokens, base.record.tokens);
    }

    #[test]
    #[should_panic(expected = "must tile")]
    fn gapped_layer_split_is_rejected() {
        struct Gapped;
        impl Strategy for Gapped {
            fn name(&self) -> &'static str {
                "Gapped"
            }
            fn split_layers(&self, n_layers: usize, _route: &PipelineRoute) -> Vec<Range<usize>> {
                // Skips layer 0 and overlaps nothing: stage 0 starts at 1.
                vec![1..n_layers / 2, n_layers / 2..n_layers]
            }
            fn build_head(&self, _parts: HeadParts) -> Box<dyn NodeBehavior<PipeMsg>> {
                unreachable!("split validation fires first")
            }
        }
        let config = GenConfig::small_test(vec![1], 1);
        let _ = Deployment::new(Gapped).run(&sim_mode(4), 2, &config);
    }

    #[test]
    fn uncovered_off_route_rank_panics_descriptively() {
        let config = GenConfig::small_test(vec![1, 2], 2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = Deployment::new(SkipRankOne {
                with_auxiliary: false,
            })
            .run(&sim_mode(4), 4, &config);
        }));
        let payload = caught.expect_err("must panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            msg.contains("SkipRankOne") && msg.contains("build_auxiliary"),
            "panic should name the strategy and the fix, got: {msg}"
        );
    }

    #[test]
    fn pooled_sim_runs_hit_shared_prefix_and_stay_byte_identical() {
        let config = GenConfig {
            prompt: vec![7; 12],
            n_generate: 16,
            max_draft: 4,
            confidence_cutoff: 0.4,
            kv_capacity: 4096,
        };
        let deployment = Deployment::new(SpeculativeStrategy);
        let baseline = deployment.prepare(&sim_mode(4), 4).run(&config);
        let pool = KvPagePool::new(KvPoolConfig {
            tokens_per_page: 4,
            n_pages: 64,
        });
        let pooled = deployment
            .prepare(&sim_mode(4), 4)
            .with_kv_pool(Arc::clone(&pool));
        let first = pooled.run(&config);
        let second = pooled.run(&config);
        assert!(first.completed && second.completed);
        // Prefill reuse must never change the token stream.
        assert_eq!(first.record.tokens, baseline.record.tokens);
        assert_eq!(second.record.tokens, baseline.record.tokens);
        let stats = pool.stats();
        assert!(stats.share_hits > 0, "second run must match the prefix");
        assert!(stats.shared_tokens > 0);
        assert!(pool.hit_rate() > 0.0);
        // The cached span skips most of prefill, so prompt processing
        // finishes strictly earlier on the simulator's virtual clock.
        assert!(second.record.prompt_done_at < first.record.prompt_done_at);
    }

    #[test]
    fn pooled_real_runs_hit_shared_prefix_and_stay_byte_identical() {
        let mode = real_mode(17);
        let config = GenConfig::small_test(vec![3, 1, 4, 1, 5, 9, 2, 6], 8);
        let deployment = Deployment::new(IterativeStrategy);
        let baseline = deployment.prepare(&mode, 2).run(&config);
        let pool = KvPagePool::new(KvPoolConfig {
            tokens_per_page: 4,
            n_pages: 32,
        });
        let pooled = deployment.prepare(&mode, 2).with_kv_pool(Arc::clone(&pool));
        let first = pooled.run(&config);
        let second = pooled.run(&config);
        assert!(first.completed && second.completed);
        // Attached pages hold bitwise-identical K/V to recomputation, so the
        // paged second run reproduces the flat baseline exactly.
        assert_eq!(first.record.tokens, baseline.record.tokens);
        assert_eq!(second.record.tokens, baseline.record.tokens);
        let stats = pool.stats();
        assert!(
            stats.share_hits > 0,
            "real-mode prefix must hit once every stage committed: {stats:?}"
        );
        assert!(stats.pages_committed > 0);
    }

    #[test]
    fn pool_exhaustion_refuses_then_run_falls_back() {
        let config = GenConfig {
            prompt: vec![7; 12],
            n_generate: 16,
            max_draft: 4,
            confidence_cutoff: 0.4,
            kv_capacity: 4096,
        };
        let pool = KvPagePool::new(KvPoolConfig {
            tokens_per_page: 4,
            n_pages: 2,
        });
        let prepared = Deployment::new(IterativeStrategy)
            .prepare(&sim_mode(4), 4)
            .with_kv_pool(Arc::clone(&pool));
        let err = prepared
            .run_with(&config, RunOptions::default())
            .expect_err("12 prompt + 16 generated tokens cannot fit 2 pages");
        assert!(err.needed_pages > err.free_pages);
        // The infallible path degrades to an isolated flat-cache run.
        let out = prepared.run(&config);
        assert!(out.completed);
        assert_eq!(out.record.tokens.len(), 16);
        assert_eq!(pool.stats().refusals, 2);
    }
}
