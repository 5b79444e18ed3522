//! Pipelined prompts: a head sends a non-speculative run down the pipeline
//! in slices of one weight pass (`pi_spec::launch`), so the stages overlap
//! during prefill.  Slicing must not move a bit of output, a page of the KV
//! pool or an event of the trace's accounting.
//!
//! The slice height comes from `StageEngine::slice_rows`, which on real
//! engines is the instruction set's one-pass height.  The tests wrap the
//! head's engine so that every machine covers the heights other instruction
//! sets pick, and a few more.

use pipeinfer::cluster::NodeBehavior;
use pipeinfer::model::{Batch, KvCache, KvCacheEvents, Sampler};
use pipeinfer::prelude::*;
use pipeinfer::spec::deploy::StepProfile;
use pipeinfer::spec::engine::PrefixPlan;
use pipeinfer::spec::{
    ActivationPayload, CacheOp, HeadEngine, PipeMsg, PipelineRoute, StageEngine,
};
use pipeinfer::trace::{EventKind, State};
use std::ops::Range;
use std::sync::Arc;

const VOCAB: usize = 96;

/// A head engine that slices at `rows` instead of its own height.
struct SliceAt {
    inner: Box<dyn HeadEngine>,
    rows: usize,
}

impl StageEngine for SliceAt {
    fn open(&mut self, kv_capacity: usize, plan: Option<&Arc<PrefixPlan>>) {
        self.inner.open(kv_capacity, plan)
    }
    fn close(&mut self, slot: usize) {
        self.inner.close(slot)
    }
    fn eval(&mut self, batch: &Batch, input: &ActivationPayload) -> (ActivationPayload, f64) {
        self.inner.eval(batch, input)
    }
    fn apply_cache_op(&mut self, slot: usize, op: &CacheOp) -> f64 {
        self.inner.apply_cache_op(slot, op)
    }
    fn layer_span(&self) -> (u32, u32) {
        self.inner.layer_span()
    }
    fn slice_rows(&self) -> usize {
        self.rows
    }
    fn take_kv_events(&mut self) -> KvCacheEvents {
        self.inner.take_kv_events()
    }
}

impl HeadEngine for SliceAt {
    fn eval_first_stage(&mut self, batch: &Batch) -> (ActivationPayload, f64) {
        self.inner.eval_first_stage(batch)
    }
    fn finalize(
        &mut self,
        batch: &Batch,
        payload: &ActivationPayload,
        context: &[Token],
    ) -> (Vec<Token>, f64) {
        self.inner.finalize(batch, payload, context)
    }
    fn finalize_tree(
        &mut self,
        batch: &Batch,
        payload: &ActivationPayload,
        context: &[Token],
        parents: &[Option<usize>],
    ) -> (Vec<Token>, f64) {
        self.inner.finalize_tree(batch, payload, context, parents)
    }
}

/// `inner`, with its head slicing at `rows`.
struct Sliced<S> {
    inner: S,
    rows: usize,
}

impl<S: Strategy> Strategy for Sliced<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn min_nodes(&self) -> usize {
        self.inner.min_nodes()
    }
    fn needs_drafter(&self) -> bool {
        self.inner.needs_drafter()
    }
    fn route(&self, n_nodes: usize) -> PipelineRoute {
        self.inner.route(n_nodes)
    }
    fn split_layers(&self, n_layers: usize, route: &PipelineRoute) -> Vec<Range<usize>> {
        self.inner.split_layers(n_layers, route)
    }
    fn step_profile(&self) -> StepProfile {
        self.inner.step_profile()
    }
    fn build_head(&self, parts: HeadParts) -> Box<dyn NodeBehavior<PipeMsg>> {
        let engine = Box::new(SliceAt {
            inner: parts.engine,
            rows: self.rows,
        });
        self.inner.build_head(HeadParts { engine, ..parts })
    }
    fn build_auxiliary(
        &self,
        mode: &ExecutionMode,
        n_nodes: usize,
        route: &PipelineRoute,
        gen_config: &GenConfig,
    ) -> Vec<(usize, Box<dyn NodeBehavior<PipeMsg>>)> {
        self.inner.build_auxiliary(mode, n_nodes, route, gen_config)
    }
}

fn tiny_pair(seed: u64) -> (Arc<Model>, ExecutionMode) {
    let cfg = ModelConfig::tiny_llama(VOCAB, 4);
    let target = Arc::new(Model::random(cfg.clone(), seed));
    let draft = Arc::new(Model::new(cfg, target.weights().perturbed(0.02, seed + 1)));
    let mode = ExecutionMode::Real {
        target: target.clone(),
        draft,
    };
    (target, mode)
}

fn prompt(len: usize, salt: usize) -> Vec<Token> {
    (0..len)
        .map(|i| ((i * 31 + salt) % VOCAB) as Token)
        .collect()
}

/// Greedy generation on a single process, no pipeline and no slicing: the
/// stream every sliced run must reproduce.
fn single_process_greedy(model: &Model, prompt: &[Token], n: usize) -> Vec<Token> {
    let cfg = model.config();
    let mut cache = KvCache::new(cfg.n_layers, cfg.kv_dim(), 1024);
    let logits = model
        .forward_full(&Batch::prompt(prompt, 0, 0), &mut cache)
        .unwrap();
    let mut tok = Sampler::Greedy.sample(logits.row(prompt.len() - 1).unwrap());
    let mut out = Vec::with_capacity(n);
    for pos in prompt.len()..prompt.len() + n {
        let logits = model
            .forward_full(&Batch::single(tok, pos as i32, 0), &mut cache)
            .unwrap();
        tok = Sampler::Greedy.sample(logits.row(0).unwrap());
        out.push(tok);
    }
    out
}

/// The four head layouts, each with the ranks it needs for `stages`
/// pipeline stages.
fn layouts(rows: usize, stages: usize) -> Vec<(&'static str, Deployment, usize)> {
    vec![
        (
            "iterative",
            Deployment::new(Sliced {
                inner: IterativeStrategy,
                rows,
            }),
            stages,
        ),
        (
            "speculative",
            Deployment::new(Sliced {
                inner: SpeculativeStrategy,
                rows,
            }),
            stages,
        ),
        (
            "pipeinfer, hosted draft",
            Deployment::new(Sliced {
                inner: PipeInferStrategy::default(),
                rows,
            }),
            stages,
        ),
        (
            "pipeinfer, draft rank",
            Deployment::new(Sliced {
                inner: PipeInferStrategy::new(PipeInferConfig::dedicated_draft_rank()),
                rows,
            }),
            stages + 1,
        ),
    ]
}

#[test]
fn sliced_prompts_reproduce_single_process_greedy_output() {
    let (target, mode) = tiny_pair(13);
    let n = 6;
    for h in [1, 4, 6, 8] {
        let mut lens = vec![1, h - 1, h, h + 1, 3 * h + 5, 64];
        lens.retain(|&len| len > 0);
        lens.dedup();
        for len in lens {
            let prompt = prompt(len, h);
            let truth = single_process_greedy(&target, &prompt, n);
            // Cutoff 0: every round drafts, so speculative runs (sent
            // whole) interleave with the sliced ones.
            let gen = GenConfig {
                confidence_cutoff: 0.0,
                ..GenConfig::small_test(prompt, n)
            };
            for stages in [2, 4] {
                for (name, deployment, n_nodes) in layouts(h, stages) {
                    let out = deployment.run(&mode, n_nodes, &gen);
                    assert!(
                        out.completed,
                        "{name}, h {h}, prompt {len}, {stages} stages"
                    );
                    assert_eq!(
                        out.record.tokens[..n],
                        truth[..],
                        "{name}, h {h}, prompt {len}, {stages} stages"
                    );
                }
            }
        }
    }
}

/// A request whose cached prefix leaves a suffix of several slices: every
/// stage commits its prompt pages (a third request attaches the whole
/// prompt), the stream is unchanged, and once the requests are over nothing
/// stays pinned (a request that needs every page of the pool is admitted).
#[test]
fn a_pooled_suffix_of_several_slices_commits_and_unpins() {
    let (target, mode) = tiny_pair(29);
    let (h, tokens_per_page, n_pages, n) = (4, 4, 32, 6);
    let shared = prompt(16, 3);
    let first = [shared.clone(), prompt(2, 50)].concat();
    let second = [shared, prompt(3 * h + 5, 70)].concat();
    for (name, deployment, n_nodes) in layouts(h, 3) {
        let pool = KvPagePool::new(KvPoolConfig {
            tokens_per_page,
            n_pages,
        });
        let pooled = deployment
            .prepare(&mode, n_nodes)
            .with_kv_pool(Arc::clone(&pool));
        let runs = [(&first, 0), (&second, 16), (&second, second.len() - 1)];
        for (i, (prompt, cached)) in runs.into_iter().enumerate() {
            let before = pool.stats().shared_tokens;
            let out = pooled.run(&GenConfig::small_test(prompt.clone(), n));
            assert!(out.completed, "{name}: run {i}");
            let truth = single_process_greedy(&target, prompt, n);
            assert_eq!(out.record.tokens[..n], truth[..], "{name}: run {i}");
            let attached = pool.stats().shared_tokens - before;
            assert_eq!(attached, cached as u64, "{name}: run {i} attached");
        }
        let stats = pool.stats();
        assert_eq!(stats.refusals, 0, "{name}");
        assert_eq!(
            stats.pages_committed, 8,
            "{name}: four shared pages, four more"
        );
        let everything = prompt(n_pages * tokens_per_page - n, 1);
        let ticket = pool
            .begin_request(&everything, n, &[])
            .unwrap_or_else(|e| panic!("{name}: a page stayed pinned: {e:?}"));
        pool.end_request(ticket.id);
    }
}

/// One traced run with a prompt of five slices: the bubble report still
/// tiles every rank's timeline, each stage records one `stage_forward` per
/// slice with that slice's rows, and the prompt is spawned once.
#[test]
fn a_sliced_prompt_keeps_the_trace_exact() {
    let (_, mode) = tiny_pair(41);
    let h = 4;
    let prompt = prompt(4 * h + 1, 9);
    let out = Deployment::new(Sliced {
        inner: PipeInferStrategy::default(),
        rows: h,
    })
    .prepare(&mode, 4)
    .run_traced(&GenConfig::small_test(prompt, 8), TraceConfig::default());
    assert!(out.completed);
    let trace = out.trace.expect("traced run carries a trace");
    assert_eq!(trace.dropped_total(), 0);

    for t in &BubbleReport::analyze(&trace).ranks {
        let (mut busy, mut blocked, mut idle) = (0.0f64, 0.0, 0.0);
        let mut at = 0.0;
        for iv in &t.intervals {
            assert_eq!(iv.t0, at, "rank {}: gap or overlap", t.rank);
            at = iv.t1;
            match iv.state {
                State::Busy => busy += iv.len(),
                State::Blocked(_) => blocked += iv.len(),
                State::Idle(_) => idle += iv.len(),
            }
        }
        assert_eq!(at, t.end, "rank {}", t.rank);
        let tol = 1e-9 * t.end.max(1.0);
        assert!(
            (busy + blocked + idle - t.end).abs() <= tol,
            "rank {}: busy {busy} + blocked {blocked} + idle {idle} != end {}",
            t.rank,
            t.end
        );
    }

    let events = trace.events();
    for rank in 1..4 {
        let rows: Vec<u32> = events
            .iter()
            .filter(|e| e.rank == rank)
            .filter_map(|e| match e.kind {
                EventKind::StageForward { run: 0, batch, .. } => Some(batch),
                _ => None,
            })
            .collect();
        assert_eq!(rows, [4, 4, 4, 4, 1], "rank {rank}");
    }
    let spawned = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::RunSpawned { run: 0, .. }))
        .count();
    assert_eq!(spawned, 1);
}
