//! Compute engines: the one place a layer range is evaluated.
//!
//! A pipeline stage does one job — evaluate its layer range over a batch
//! against each request's own KV state, and apply pipelined cache operations
//! to that state — and it does it here, for every driver: the cluster heads
//! and [`PipelineWorker`](crate::worker::PipelineWorker)s of a solo run, and
//! the cross-request step loop ([`StepSession`](crate::session::StepSession)),
//! are all built from the same engines by the same `deploy` constructors.
//!
//! Engines are **lane-keyed**.  A stage keeps a dense table of request
//! *slots*; [`StageEngine::open`] appends one, [`StageEngine::close`] removes
//! one (later slots shift down, the way a cohort's lanes do), and a batch
//! entry in lane `i` is stored into and attends over slot `i`
//! ([`Batch::append_lane`]).  A solo run opens one slot when the engine is
//! built and every batch it sends is in lane 0; a step-loop cohort opens one
//! slot per in-flight request and sends one *forest* batch whose lanes are
//! the requests.  Cache operations are addressed to a slot.
//!
//! Two families share the traits, so the rank state machines and the step
//! loop are oblivious to which one they run on:
//!
//! * **Real** ([`RealStage`]) executes a tiny `pi-model` transformer: one
//!   `alloc_cells_multi` + `forward_layer_range_multi` over the batch and
//!   the slot caches, so a forest shares every projection/FFN GEMM while
//!   attention stays per request, and fused rows are bitwise the rows of a
//!   solo evaluation.  The head is the same stage plus the embedding and the
//!   output head.  Returned costs are measured wall time.
//! * **Simulated** ([`SimStageEngine`], and [`SimHeadEngine`] — that stage
//!   plus the ground-truth oracle) never touches weights: it charges the
//!   `pi-perf` roofline, one `layers_time_grouped` over the batch's per-lane
//!   `(rows, context)` groups — the weight stream once per call, KV stream
//!   and FLOPs per request; with one lane exactly `layers_time` — and
//!   synthesises ground-truth tokens from the alignment oracle, which
//!   reproduces the paper's figures at 70B–180B scale.

use crate::message::{ActivationPayload, CacheOp};
use pi_model::kv_pool::{KvPagePool, StageKey};
use pi_model::{
    Batch, KvCache, KvCacheEvents, Model, OracleTarget, Pos, Sampler, ScratchArena, Token,
};
use pi_perf::{CostModel, ModelCost};
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// One request's admission into a deployment's [`KvPagePool`]: the pool
/// ticket it runs under, its full prompt, and how many leading tokens are
/// served from committed pool pages instead of prefill.
///
/// The plan is the admission's guard.  Its owner and every engine slot
/// opened under it share one `Arc`; dropping the last handle ends the
/// request, so the matched chain is unpinned and the unused reservation
/// returned whichever way the request leaves — finished, dropped with its
/// session mid-flight, or unwound past — and no slot can outlive the ticket
/// it commits under.
///
/// Real slots opened with a plan use **paged** KV caches, attach the pinned
/// prefix chain for their own layer range before the first evaluation, and
/// commit their stage's frozen prompt pages back into the pool once the
/// prompt has been evaluated (idempotent — concurrent requests with the same
/// prefix merge on the pool's radix tree).
pub struct PrefixPlan {
    /// The deployment-owned page pool.
    pub pool: Arc<KvPagePool>,
    /// Ticket returned by [`KvPagePool::begin_request`] for this request.
    pub ticket: u64,
    /// The request's full prompt.
    pub prompt: Vec<Token>,
    /// Leading prompt tokens attached from the pool (already clamped so at
    /// least one prompt token is always evaluated).
    pub cached_tokens: usize,
}

impl Drop for PrefixPlan {
    fn drop(&mut self) {
        self.pool.end_request(self.ticket);
    }
}

/// Evaluation engine of a pipeline stage.
pub trait StageEngine: Send {
    /// Opens a request slot at the next dense index (the number of slots
    /// open before the call) with a KV cache of `kv_capacity` cells — paged
    /// and prefix-attached under a pool `plan`, flat otherwise.  Default
    /// (sim engines): requests carry no state.
    fn open(&mut self, _kv_capacity: usize, _plan: Option<&Arc<PrefixPlan>>) {}

    /// Closes request slot `slot`, releasing its cache and its handle on the
    /// pool plan; every later slot moves down by one.
    fn close(&mut self, _slot: usize) {}

    /// Evaluates this stage's layers over `batch` — entries in lane `i`
    /// against slot `i` — given the activations produced by the previous
    /// stage.  Returns the output activations and the compute cost in
    /// seconds.
    fn eval(&mut self, batch: &Batch, input: &ActivationPayload) -> (ActivationPayload, f64);

    /// Applies a pipelined KV-cache operation to slot `slot`, returning its
    /// cost in seconds.
    fn apply_cache_op(&mut self, slot: usize, op: &CacheOp) -> f64;

    /// The stage's layer range `[lo, hi)`, used to label trace spans.  Real
    /// engines report global layer indices; simulated engines only know
    /// their layer *count* and report `[0, n_layers)`.
    fn layer_span(&self) -> (u32, u32) {
        (0, 0)
    }

    /// Drains the paged KV-cache event counters accumulated since the last
    /// call, so the owning behavior can surface them as trace events and
    /// `NodeStats` counters.  Default (sim engines, flat caches): no events.
    fn take_kv_events(&mut self) -> KvCacheEvents {
        KvCacheEvents::default()
    }
}

/// Evaluation engine of the head rank: stage 0 plus the embedding, the
/// output head and sampling support.
pub trait HeadEngine: StageEngine {
    /// Embeds `batch` and evaluates the head's layer range.  Returns the
    /// activations to forward and the cost in seconds.
    fn eval_first_stage(&mut self, batch: &Batch) -> (ActivationPayload, f64);

    /// Converts the final stage's activations into the target model's greedy
    /// token after each batch entry.
    ///
    /// `context` is the accepted token sequence *preceding* the batch; real
    /// engines ignore it (they have the logits), simulated engines use it to
    /// query the ground-truth oracle.  Returns the per-entry greedy tokens
    /// and the cost (output head + sampling) in seconds.
    fn finalize(
        &mut self,
        batch: &Batch,
        payload: &ActivationPayload,
        context: &[Token],
    ) -> (Vec<Token>, f64);

    /// Tree-aware variant of [`HeadEngine::finalize`] for batches that carry
    /// a speculation tree: `parents[i]` is the batch index of entry `i`'s
    /// parent (`None` for entries continuing the accepted context directly),
    /// so each entry's greedy token is conditioned on its *root-to-node
    /// path*, not on every preceding batch entry.
    ///
    /// Real engines ignore the topology — their logits were computed under
    /// the tree attention mask that the batch's sequence-id sets encode — so
    /// the default forwards to [`HeadEngine::finalize`].  Simulated engines
    /// must override it to walk the parent links when querying the oracle.
    fn finalize_tree(
        &mut self,
        batch: &Batch,
        payload: &ActivationPayload,
        context: &[Token],
        _parents: &[Option<usize>],
    ) -> (Vec<Token>, f64) {
        self.finalize(batch, payload, context)
    }
}

// ---------------------------------------------------------------------------
// Real engine
// ---------------------------------------------------------------------------

/// A slot's pooled-cache bookkeeping: the request's plan, this stage's pool
/// identity, and whether the stage has committed its prompt pages yet.
struct PooledState {
    plan: Arc<PrefixPlan>,
    key: StageKey,
    committed: bool,
}

/// One request's KV state on a real stage.
struct Slot {
    cache: KvCache,
    /// Present when the request runs under a KV page pool.
    pooled: Option<PooledState>,
}

impl Slot {
    /// After an evaluation that covered the tail of this slot's prompt (the
    /// entries of `batch` in `lane`), freezes the stage's full prompt pages
    /// and commits them into the pool (once).
    fn maybe_commit_prompt(&mut self, batch: &Batch, lane: usize) {
        let Some(state) = &mut self.pooled else {
            return;
        };
        if state.committed {
            return;
        }
        let prompt_len = state.plan.prompt.len();
        let mut own = batch.iter().filter(|e| e.lane == lane);
        if !own.any(|e| e.pos + 1 >= prompt_len as Pos) {
            return;
        }
        let pages = self.cache.freeze_prefix(prompt_len);
        state.plan.pool.commit_chain(
            state.plan.ticket,
            &state.plan.prompt,
            Some((state.key, &pages)),
        );
        state.committed = true;
    }
}

/// Engine that runs a real (tiny) model's layer range — a pipeline stage,
/// and, with the embedding in front and the output head behind, the head.
///
/// Tree micro-batches submitted by the speculation strategies are evaluated
/// **level-batched**: the whole tree (laid out parents-before-children)
/// collapses into a single run, so each projection walks this stage's
/// weights once per layer for all tree nodes (one `m = batch` GEMM) instead
/// of once per node; a forest of per-request trees collapses the same way.
pub struct RealStage {
    model: Arc<Model>,
    layers: Range<usize>,
    /// Long-lived forward-pass temporaries, reused across every token this
    /// stage ever evaluates (see `pi_model::ScratchArena`).  Built at the
    /// first evaluation rather than in `new`, so that it is allocated after
    /// the first slot's cache: allocated before it, the cache planes end up
    /// on top of the heap, glibc returns their pages to the OS when a run
    /// frees them, and the next run faults them in again (measured:
    /// `setup_s` +10–13 % on the benchmark's solo workloads).
    scratch: Option<ScratchArena>,
    /// Open request slots; batch lane `i` is `slots[i]`.
    slots: Vec<Slot>,
}

impl RealStage {
    /// Creates an engine for global layers `layers` of `model`, with no
    /// request slot open yet.
    pub fn new(model: Arc<Model>, layers: Range<usize>) -> Self {
        Self {
            model,
            layers,
            scratch: None,
            slots: Vec::new(),
        }
    }

    /// Read-only access to a slot's KV cache (used by consistency tests).
    pub fn cache(&self, slot: usize) -> &KvCache {
        &self.slots[slot].cache
    }
}

impl StageEngine for RealStage {
    fn open(&mut self, kv_capacity: usize, plan: Option<&Arc<PrefixPlan>>) {
        let (model, layers) = (&self.model, &self.layers);
        let slot = match plan {
            None => Slot {
                cache: model.new_cache_for_layers(layers, kv_capacity),
                pooled: None,
            },
            Some(plan) => {
                let tpp = plan.pool.config().tokens_per_page;
                let mut cache = model.new_paged_cache_for_layers(layers, kv_capacity, tpp);
                let key = (layers.start, layers.end);
                if plan.cached_tokens > 0 {
                    let pages = plan.pool.pinned_pages(plan.ticket, key);
                    cache.attach_prefix(0, &pages, plan.cached_tokens);
                }
                let pooled = Some(PooledState {
                    plan: Arc::clone(plan),
                    key,
                    committed: false,
                });
                Slot { cache, pooled }
            }
        };
        self.slots.push(slot);
    }

    fn close(&mut self, slot: usize) {
        self.slots.remove(slot);
    }

    fn eval(&mut self, batch: &Batch, input: &ActivationPayload) -> (ActivationPayload, f64) {
        let start = Instant::now();
        let hidden = match input {
            ActivationPayload::Real(t) => t,
            _ => return (ActivationPayload::Empty, 0.0),
        };
        let scratch = self
            .scratch
            .get_or_insert_with(|| ScratchArena::for_config(self.model.config()));
        let mut caches: Vec<&mut KvCache> = self.slots.iter_mut().map(|s| &mut s.cache).collect();
        let cells = Model::alloc_cells_multi(batch, &mut caches).expect("stage KV cache exhausted");
        let out = self
            .model
            .forward_layer_range_multi(
                batch,
                hidden,
                self.layers.clone(),
                &mut caches,
                &cells,
                scratch,
            )
            .expect("layer-range evaluation failed");
        for (lane, slot) in self.slots.iter_mut().enumerate() {
            slot.maybe_commit_prompt(batch, lane);
        }
        (ActivationPayload::Real(out), start.elapsed().as_secs_f64())
    }

    fn apply_cache_op(&mut self, slot: usize, op: &CacheOp) -> f64 {
        let start = Instant::now();
        let cache = &mut self.slots[slot].cache;
        match *op {
            CacheOp::SeqCp { src, dst, p0, p1 } => cache.seq_cp(src, dst, p0, p1),
            CacheOp::SeqRm { seq, p0, p1 } => cache.seq_rm(seq, p0, p1),
            CacheOp::BranchCommit {
                dst,
                path,
                first,
                n_seqs,
                p0,
                p1,
            } => cache.branch_commit(dst, path, first, n_seqs as usize, p0, p1),
            CacheOp::BranchRollback { first, n_seqs } => {
                cache.branch_rollback(first, n_seqs as usize)
            }
        }
        start.elapsed().as_secs_f64()
    }

    fn layer_span(&self) -> (u32, u32) {
        (self.layers.start as u32, self.layers.end as u32)
    }

    fn take_kv_events(&mut self) -> KvCacheEvents {
        let mut events = KvCacheEvents::default();
        for slot in &mut self.slots {
            events.merge(slot.cache.take_events());
        }
        events
    }
}

impl HeadEngine for RealStage {
    fn eval_first_stage(&mut self, batch: &Batch) -> (ActivationPayload, f64) {
        let start = Instant::now();
        let hidden = ActivationPayload::Real(self.model.embed(batch));
        let (out, _) = self.eval(batch, &hidden);
        (out, start.elapsed().as_secs_f64())
    }

    fn finalize(
        &mut self,
        batch: &Batch,
        payload: &ActivationPayload,
        _context: &[Token],
    ) -> (Vec<Token>, f64) {
        let start = Instant::now();
        let hidden = match payload {
            ActivationPayload::Real(t) => t,
            _ => return (Vec::new(), 0.0),
        };
        let logits = self.model.logits(hidden);
        let sampler = Sampler::Greedy;
        let tokens = (0..batch.len())
            .map(|i| sampler.sample(logits.row(i).expect("logits row")))
            .collect();
        (tokens, start.elapsed().as_secs_f64())
    }
}

// ---------------------------------------------------------------------------
// Simulated engines
// ---------------------------------------------------------------------------

/// Stage engine that charges roofline costs instead of computing.
pub struct SimStageEngine {
    cost_model: CostModel,
    model_cost: ModelCost,
    n_layers: usize,
}

impl SimStageEngine {
    /// Creates a simulated stage engine evaluating `n_layers` layers of the
    /// target model on the node described by `cost_model`.
    pub fn new(cost_model: CostModel, model_cost: ModelCost, n_layers: usize) -> Self {
        Self {
            cost_model,
            model_cost,
            n_layers,
        }
    }
}

impl StageEngine for SimStageEngine {
    fn eval(&mut self, batch: &Batch, _input: &ActivationPayload) -> (ActivationPayload, f64) {
        // One `(rows, context)` group per lane of the batch: the weight
        // stream amortises across the call, KV stream and FLOPs stay per
        // request.
        let mut groups = vec![(0, usize::MAX); batch.lane_count()];
        for e in batch.iter() {
            let (rows, context_len) = &mut groups[e.lane];
            *rows += 1;
            *context_len = (*context_len).min(e.pos.max(0) as usize);
        }
        groups.retain(|&(rows, _)| rows > 0);
        let cost = self
            .cost_model
            .layers_time_grouped(&self.model_cost, self.n_layers, &groups);
        let payload = ActivationPayload::Simulated {
            tokens: batch.len(),
            bytes: self.model_cost.activation_bytes(batch.len()),
        };
        (payload, cost)
    }

    fn apply_cache_op(&mut self, _slot: usize, _op: &CacheOp) -> f64 {
        // Metadata-only operation: effectively free relative to layer
        // evaluation (the paper's "near-zero slowdown" observation).
        1e-7
    }

    fn layer_span(&self) -> (u32, u32) {
        (0, self.n_layers as u32)
    }
}

/// Head engine that charges roofline costs and answers verification queries
/// from the ground-truth oracle: a [`SimStageEngine`] plus the oracle.
pub struct SimHeadEngine {
    stage: SimStageEngine,
    oracle: OracleTarget,
}

impl SimHeadEngine {
    /// Creates a simulated head engine.  `n_layers` is the head's own layer
    /// range; `oracle` supplies the target model's deterministic token
    /// dynamics.
    pub fn new(
        cost_model: CostModel,
        model_cost: ModelCost,
        n_layers: usize,
        oracle: OracleTarget,
    ) -> Self {
        Self {
            stage: SimStageEngine::new(cost_model, model_cost, n_layers),
            oracle,
        }
    }

    /// The ground-truth oracle (used by tests).
    pub fn oracle(&self) -> &OracleTarget {
        &self.oracle
    }

    /// Output head + sampling cost of `rows` logit rows.
    fn head_cost(&self, rows: usize) -> f64 {
        let stage = &self.stage;
        stage.cost_model.io_time(&stage.model_cost, rows)
            + stage.cost_model.sampling_time(&stage.model_cost, rows)
    }
}

impl StageEngine for SimHeadEngine {
    fn eval(&mut self, batch: &Batch, input: &ActivationPayload) -> (ActivationPayload, f64) {
        self.stage.eval(batch, input)
    }

    fn apply_cache_op(&mut self, slot: usize, op: &CacheOp) -> f64 {
        self.stage.apply_cache_op(slot, op)
    }

    fn layer_span(&self) -> (u32, u32) {
        self.stage.layer_span()
    }
}

impl HeadEngine for SimHeadEngine {
    fn eval_first_stage(&mut self, batch: &Batch) -> (ActivationPayload, f64) {
        self.stage.eval(batch, &ActivationPayload::Empty)
    }

    fn finalize(
        &mut self,
        batch: &Batch,
        _payload: &ActivationPayload,
        context: &[Token],
    ) -> (Vec<Token>, f64) {
        // Ground truth after consuming each batch prefix.  Batches are token
        // chains (the pending token followed by drafted tokens), so the
        // prefix of batch entries is exactly the consumed continuation.
        let mut ctx: Vec<Token> = context.to_vec();
        let mut out = Vec::with_capacity(batch.len());
        for entry in batch.iter() {
            ctx.push(entry.token);
            out.push(self.oracle.next_token(&ctx));
        }
        (out, self.head_cost(batch.len()))
    }

    fn finalize_tree(
        &mut self,
        batch: &Batch,
        _payload: &ActivationPayload,
        context: &[Token],
        parents: &[Option<usize>],
    ) -> (Vec<Token>, f64) {
        assert_eq!(parents.len(), batch.len(), "one parent link per entry");
        // Ground truth after each entry's root-to-node token path.  Parents
        // precede children, so each path extends an already-computed one.
        let mut paths: Vec<Vec<Token>> = Vec::with_capacity(batch.len());
        let mut out = Vec::with_capacity(batch.len());
        for (i, entry) in batch.iter().enumerate() {
            let mut path = match parents[i] {
                Some(p) => {
                    assert!(p < i, "parent {p} does not precede entry {i}");
                    paths[p].clone()
                }
                None => context.to_vec(),
            };
            path.push(entry.token);
            out.push(self.oracle.next_token(&path));
            paths.push(path);
        }
        (out, self.head_cost(batch.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_model::ModelConfig;
    use pi_perf::NodeSpec;
    use pi_tensor::{QuantKind, Tensor};

    fn tiny() -> Arc<Model> {
        Arc::new(Model::random(ModelConfig::tiny_llama(64, 4), 11))
    }

    /// A stage with the one slot of a solo run open.
    fn solo(model: Arc<Model>, layers: Range<usize>, kv_capacity: usize) -> RealStage {
        let mut stage = RealStage::new(model, layers);
        stage.open(kv_capacity, None);
        stage
    }

    #[test]
    fn real_stage_engine_matches_direct_evaluation() {
        let model = tiny();
        let batch = Batch::prompt(&[1, 2, 3], 0, 0);

        // Direct full forward.
        let mut full_cache = model.new_cache_for_layers(&(0..4), 64);
        let expected = model.forward_full(&batch, &mut full_cache).unwrap();

        // Head engine (layers 0..2) + stage engine (layers 2..4) + logits.
        let mut head = solo(model.clone(), 0..2, 64);
        let mut stage = solo(model.clone(), 2..4, 64);
        let (mid, _) = head.eval_first_stage(&batch);
        let (out, cost) = stage.eval(&batch, &mid);
        assert!(cost >= 0.0);
        let hidden = match out {
            ActivationPayload::Real(t) => t,
            _ => panic!("expected real payload"),
        };
        let logits = model.logits(&hidden);
        for (a, b) in expected.data().iter().zip(logits.data().iter()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn real_head_finalize_returns_greedy_tokens() {
        let model = tiny();
        let batch = Batch::prompt(&[5, 6], 0, 0);
        let mut head = solo(model.clone(), 0..4, 64);
        let (hidden, _) = head.eval_first_stage(&batch);
        let (tokens, _) = head.finalize(&batch, &hidden, &[]);
        assert_eq!(tokens.len(), 2);

        // Cross-check against a direct forward pass.
        let mut cache = model.new_cache_for_layers(&(0..4), 64);
        let logits = model.forward_full(&batch, &mut cache).unwrap();
        assert_eq!(tokens[1], Sampler::Greedy.sample(logits.row(1).unwrap()));
    }

    #[test]
    fn real_engines_honour_cache_ops() {
        let model = tiny();
        let mut stage = solo(model.clone(), 0..4, 64);
        let batch = Batch::prompt(&[1, 2, 3, 4], 0, 0);
        let hidden = ActivationPayload::Real(model.embed(&batch));
        let _ = stage.eval(&batch, &hidden);
        assert_eq!(stage.cache(0).seq_len(0), 4);
        stage.apply_cache_op(
            0,
            &CacheOp::SeqRm {
                seq: 0,
                p0: 2,
                p1: i32::MAX,
            },
        );
        assert_eq!(stage.cache(0).seq_len(0), 2);
    }

    #[test]
    fn real_stage_engine_passes_empty_payload_through() {
        let model = tiny();
        let mut stage = solo(model, 0..4, 64);
        let batch = Batch::single(1, 0, 0);
        let (out, cost) = stage.eval(&batch, &ActivationPayload::Empty);
        assert!(matches!(out, ActivationPayload::Empty));
        assert_eq!(cost, 0.0);
    }

    #[test]
    fn real_engines_apply_branch_commit_and_rollback() {
        let model = tiny();
        let mut stage = solo(model.clone(), 0..4, 64);
        // Canonical context at positions 0..2 in sequence 0.
        let ctx_batch = Batch::prompt(&[1, 2], 0, 0);
        let _ = stage.eval(
            &ctx_batch,
            &ActivationPayload::Real(model.embed(&ctx_batch)),
        );
        // Give both branch sequences the context prefix, then evaluate a
        // two-leaf tree: shared root at pos 2, two leaves at pos 3.
        for dst in [1u32, 2] {
            stage.apply_cache_op(
                0,
                &CacheOp::SeqCp {
                    src: 0,
                    dst,
                    p0: 0,
                    p1: i32::MAX,
                },
            );
        }
        let mut tree_batch = Batch::new();
        tree_batch.push(7, 2, vec![1, 2], true);
        tree_batch.push(8, 3, vec![1], true);
        tree_batch.push(9, 3, vec![2], true);
        let _ = stage.eval(
            &tree_batch,
            &ActivationPayload::Real(model.embed(&tree_batch)),
        );
        assert_eq!(stage.cache(0).used(), 5);
        // Accept the path through leaf sequence 2 (root + one leaf).
        stage.apply_cache_op(
            0,
            &CacheOp::BranchCommit {
                dst: 0,
                path: 2,
                first: 1,
                n_seqs: 2,
                p0: 2,
                p1: 4,
            },
        );
        assert_eq!(stage.cache(0).seq_len(0), 4);
        assert_eq!(stage.cache(0).seq_len(1), 0);
        assert_eq!(stage.cache(0).seq_len(2), 0);
        assert_eq!(stage.cache(0).used(), 4, "rejected leaf freed");
        // A rollback after the fact is a no-op on already-dropped sequences.
        stage.apply_cache_op(
            0,
            &CacheOp::BranchRollback {
                first: 1,
                n_seqs: 2,
            },
        );
        assert_eq!(stage.cache(0).used(), 4);
    }

    #[test]
    fn real_stage_engine_tree_batch_matches_per_node_evaluation() {
        let model = tiny();
        let mut batched = solo(model.clone(), 0..4, 64);
        let mut per_node = solo(model.clone(), 0..4, 64);

        // Identical context + branch setup on both engines.
        let ctx_batch = Batch::prompt(&[1, 2], 0, 0);
        for eng in [&mut batched, &mut per_node] {
            let _ = eng.eval(
                &ctx_batch,
                &ActivationPayload::Real(model.embed(&ctx_batch)),
            );
            for dst in [1u32, 2] {
                eng.apply_cache_op(
                    0,
                    &CacheOp::SeqCp {
                        src: 0,
                        dst,
                        p0: 0,
                        p1: i32::MAX,
                    },
                );
            }
        }

        // Shared root at pos 2, two sibling leaves at pos 3: evaluated as one
        // level-batched tree on `batched`, and one node at a time (in
        // parents-first order, the sequential schedule) on `per_node`.
        let mut tree_batch = Batch::new();
        tree_batch.push(7, 2, vec![1, 2], true);
        tree_batch.push(8, 3, vec![1], true);
        tree_batch.push(9, 3, vec![2], true);
        let (out, _) = batched.eval(
            &tree_batch,
            &ActivationPayload::Real(model.embed(&tree_batch)),
        );
        let hidden = match out {
            ActivationPayload::Real(t) => t,
            _ => panic!("expected real payload"),
        };

        for (i, entry) in tree_batch.entries().iter().enumerate() {
            let mut node = Batch::new();
            node.push(entry.token, entry.pos, entry.seq_ids.clone(), true);
            let (out, _) = per_node.eval(&node, &ActivationPayload::Real(model.embed(&node)));
            let node_hidden = match out {
                ActivationPayload::Real(t) => t,
                _ => panic!("expected real payload"),
            };
            for (a, b) in hidden
                .row(i)
                .unwrap()
                .iter()
                .zip(node_hidden.row(0).unwrap())
            {
                assert!((a - b).abs() < 1e-4, "node {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn sim_finalize_tree_conditions_on_paths_not_batch_order() {
        let (cm, mc) = sim_pair();
        let oracle = OracleTarget::new(5, 32000);
        let mut head = SimHeadEngine::new(cm, mc, 10, oracle);
        let context = vec![10, 20];
        // Entry 0 continues the context; entries 1 and 2 are sibling
        // branches under it (same position, different branches).
        let mut batch = Batch::new();
        batch.push(30, 2, vec![0, 1, 2], true);
        batch.push(40, 3, vec![1], true);
        batch.push(50, 3, vec![2], true);
        let parents = vec![None, Some(0), Some(0)];
        let (tokens, cost) =
            head.finalize_tree(&batch, &ActivationPayload::Empty, &context, &parents);
        assert!(cost > 0.0);
        assert_eq!(tokens[0], oracle.next_token(&[10, 20, 30]));
        assert_eq!(tokens[1], oracle.next_token(&[10, 20, 30, 40]));
        // The sibling is conditioned on its own path — entry 1's token must
        // NOT leak into entry 2's context.
        assert_eq!(tokens[2], oracle.next_token(&[10, 20, 30, 50]));
        assert_ne!(tokens[2], oracle.next_token(&[10, 20, 30, 40, 50]));
    }

    fn sim_pair() -> (CostModel, ModelCost) {
        (
            CostModel::new(NodeSpec::xeon_gold_6140_dual()),
            ModelCost::new(ModelConfig::llama2_70b(), QuantKind::Q3K),
        )
    }

    #[test]
    fn sim_stage_engine_costs_scale_with_layers_and_batch() {
        let (cm, mc) = sim_pair();
        let mut e10 = SimStageEngine::new(cm.clone(), mc.clone(), 10);
        let mut e20 = SimStageEngine::new(cm, mc, 20);
        let single = Batch::single(1, 100, 0);
        let (_, c10) = e10.eval(&single, &ActivationPayload::Empty);
        let (_, c20) = e20.eval(&single, &ActivationPayload::Empty);
        assert!((c20 / c10 - 2.0).abs() < 0.01);
        let (p, _) = e10.eval(
            &Batch::prompt(&[1, 2, 3, 4], 0, 0),
            &ActivationPayload::Empty,
        );
        assert_eq!(p.tokens(), 4);
        assert_eq!(p.nbytes(), 4 * 8192 * 4);
    }

    #[test]
    fn sim_head_finalize_uses_oracle_ground_truth() {
        let (cm, mc) = sim_pair();
        let oracle = OracleTarget::new(3, 32000);
        let mut head = SimHeadEngine::new(cm, mc, 10, oracle);
        let context = vec![10, 20, 30];
        let batch = Batch::prompt(&[40, 50], 3, 0);
        let (tokens, cost) = head.finalize(&batch, &ActivationPayload::Empty, &context);
        assert_eq!(tokens.len(), 2);
        assert!(cost > 0.0);
        assert_eq!(tokens[0], oracle.next_token(&[10, 20, 30, 40]));
        assert_eq!(tokens[1], oracle.next_token(&[10, 20, 30, 40, 50]));
    }

    #[test]
    fn sim_cache_ops_are_cheap() {
        let (cm, mc) = sim_pair();
        let mut e = SimStageEngine::new(cm, mc, 10);
        let single = Batch::single(1, 100, 0);
        let (_, eval_cost) = e.eval(&single, &ActivationPayload::Empty);
        let rm = CacheOp::SeqRm {
            seq: 0,
            p0: 0,
            p1: 1,
        };
        let op_cost = e.apply_cache_op(0, &rm);
        assert!(op_cost < eval_cost / 100.0);
    }

    fn pool() -> Arc<KvPagePool> {
        KvPagePool::new(pi_model::kv_pool::KvPoolConfig {
            tokens_per_page: 4,
            n_pages: 32,
        })
    }

    /// Admits `prompt` (plus 8 generated tokens) into `pool` for a stage
    /// covering layers `0..4`.
    fn admit(pool: &Arc<KvPagePool>, prompt: &[Token]) -> Arc<PrefixPlan> {
        let ticket = pool.begin_request(prompt, 8, &[(0, 4)]).expect("admitted");
        Arc::new(PrefixPlan {
            pool: Arc::clone(pool),
            ticket: ticket.id,
            prompt: prompt.to_vec(),
            cached_tokens: ticket.cached_tokens.min(prompt.len() - 1),
        })
    }

    fn committed_pages(pool: &KvPagePool) -> usize {
        let stats = pool.stats();
        (stats.pages_committed - stats.evictions) as usize
    }

    fn real_rows(payload: ActivationPayload) -> Tensor {
        match payload {
            ActivationPayload::Real(t) => t,
            _ => panic!("expected real payload"),
        }
    }

    fn assert_same_cache(a: &KvCache, b: &KvCache) {
        a.check_consistency().unwrap();
        b.check_consistency().unwrap();
        assert_eq!(a.cells(), b.cells());
        for (cell, meta) in a.cells().iter().enumerate() {
            for layer in 0..a.n_layers() {
                if !meta.is_free() {
                    assert_eq!(a.key(layer, cell), b.key(layer, cell));
                    assert_eq!(a.value(layer, cell), b.value(layer, cell));
                }
            }
        }
    }

    /// The lane-keyed contract, on flat and on pooled slots: a forest
    /// evaluated once gives bitwise the rows and caches of each lane
    /// evaluated alone on a fresh engine, a cache op touches only the slot
    /// it is addressed to, closing a slot shifts the later ones down, and
    /// closed slots (or a dropped engine) hold no pool pins.
    #[test]
    fn forest_eval_is_each_lane_alone_and_slots_are_isolated() {
        let model = tiny();
        let prompts: [&[Token]; 2] = [&[1, 2, 3, 4, 5], &[9, 8, 7, 6, 5, 4, 3, 2, 1]];
        for pooled in [false, true] {
            let shared = pool();
            let plan =
                |pool: &Arc<KvPagePool>, lane: usize| pooled.then(|| admit(pool, prompts[lane]));
            let mut fused = RealStage::new(model.clone(), 0..4);
            let mut alone = Vec::new();
            let mut alone_pools = Vec::new();
            for lane in 0..2 {
                fused.open(64, plan(&shared, lane).as_ref());
                // Each reference engine runs against a pool of its own, so
                // neither it nor the forest sees the other's commits.
                let own_pool = pool();
                let mut engine = RealStage::new(model.clone(), 0..4);
                engine.open(64, plan(&own_pool, lane).as_ref());
                alone.push(engine);
                alone_pools.push(own_pool);
            }

            // Prefill, then a decode round: one pending token for request
            // 0, a two-token chain for request 1.
            let prefill = prompts.map(|prompt| Batch::prompt(prompt, 0, 0));
            let mut chain = Batch::single(6, 9, 0);
            chain.push(7, 10, vec![0], true);
            let decode = [Batch::single(6, 5, 0), chain];
            for round in [prefill, decode] {
                let mut forest = Batch::new();
                for (lane, batch) in round.iter().enumerate() {
                    forest.append_lane(batch, lane);
                }
                let fused_rows = real_rows(fused.eval_first_stage(&forest).0);
                let mut row = 0;
                for (lane, batch) in round.iter().enumerate() {
                    let rows = real_rows(alone[lane].eval_first_stage(batch).0);
                    for i in 0..batch.len() {
                        assert_eq!(
                            fused_rows.row(row + i).unwrap(),
                            rows.row(i).unwrap(),
                            "pooled {pooled}: lane {lane} row {i}"
                        );
                    }
                    row += batch.len();
                }
            }
            for (lane, engine) in alone.iter().enumerate() {
                assert_same_cache(fused.cache(lane), engine.cache(0));
            }
            if pooled {
                assert!(committed_pages(&shared) >= 3, "both prompts committed");
            }

            // Rejecting request 1's last draft leaves request 0 untouched.
            let reject = CacheOp::SeqRm {
                seq: 0,
                p0: 10,
                p1: Pos::MAX,
            };
            let untouched = fused.cache(0).cells().to_vec();
            fused.apply_cache_op(1, &reject);
            alone[1].apply_cache_op(0, &reject);
            assert_eq!(fused.cache(0).cells(), untouched.as_slice());
            assert_eq!(fused.cache(1).seq_len(0), 10);
            assert_same_cache(fused.cache(1), alone[1].cache(0));

            // Request 0 leaves: request 1 is slot 0 now, and lane 0 is its.
            fused.close(0);
            assert_same_cache(fused.cache(0), alone[1].cache(0));
            let next = Batch::single(3, 10, 0);
            let fused_rows = real_rows(fused.eval_first_stage(&next).0);
            let rows = real_rows(alone[1].eval_first_stage(&next).0);
            assert_eq!(fused_rows.data(), rows.data());

            // The engine slots held the last handles on their plans: one
            // closed, one dropped with the engine, and nothing stays pinned
            // or reserved.
            assert!(!pooled || shared.stats().pages_in_use > committed_pages(&shared));
            fused.close(0);
            drop(alone);
            for pool in alone_pools.iter().chain([&shared]) {
                assert_eq!(pool.stats().pages_in_use, committed_pages(pool));
            }
        }
    }

    #[test]
    fn sim_engine_charges_one_lane_as_layers_time_and_a_forest_grouped() {
        let (cm, mc) = sim_pair();
        let mut head = SimHeadEngine::new(cm.clone(), mc.clone(), 10, OracleTarget::new(5, 32000));
        let mut stage = SimStageEngine::new(cm.clone(), mc.clone(), 10);
        let subs = [Batch::prompt(&[1, 2, 3], 40, 0), Batch::single(9, 100, 0)];
        let mut forest = Batch::new();
        for (lane, sub) in subs.iter().enumerate() {
            // A one-lane batch charges the plain roofline, whichever lane
            // it is in.
            let mut one_lane = Batch::new();
            one_lane.append_lane(sub, lane);
            let ctx = sub.min_pos().unwrap() as usize;
            let expected = cm.layers_time(&mc, 10, sub.len(), ctx);
            assert_eq!(stage.eval(sub, &ActivationPayload::Empty).1, expected);
            assert_eq!(stage.eval(&one_lane, &ActivationPayload::Empty).1, expected);
            assert_eq!(head.eval_first_stage(&one_lane).1, expected);
            forest.append_lane(sub, lane);
        }
        // The forest streams the weights once for both requests.
        let grouped = cm.layers_time_grouped(&mc, 10, &[(3, 40), (1, 100)]);
        let (payload, cost) = stage.eval(&forest, &ActivationPayload::Empty);
        assert_eq!(cost, grouped);
        assert_eq!(head.eval_first_stage(&forest).1, grouped);
        assert_eq!(payload.tokens(), 4);
        assert!(grouped < cm.layers_time(&mc, 10, 3, 40) + cm.layers_time(&mc, 10, 1, 100));
    }
}
