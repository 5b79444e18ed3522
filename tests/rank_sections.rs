//! Cluster ranks compute in sections of the pool's team
//! (`rayon::pool::Team`): a stage evaluation or a draft splits its products
//! and attention over the cores no other rank is computing on, and which
//! cores those are changes from call to call with the ranks' timing.  A
//! split never changes a value, so on threaded ranks every strategy's stream
//! is the same at team widths 1 and 2, and is the single-process greedy
//! stream, with a well-aligned draft and with a useless one.

use pipeinfer::model::{Batch, KvCache, ModelWeights, Sampler};
use pipeinfer::prelude::*;
use std::sync::{Arc, Mutex};

const N_NODES: usize = 3;
const N_GENERATE: usize = 12;

/// The pool's parallelism override (`rayon::pool::THREADS_ENV`).
const THREADS_ENV: &str = "PIPEINFER_THREADS";

/// Serialises the tests that set [`THREADS_ENV`].
static THREADS_ENV_LOCK: Mutex<()> = Mutex::new(());

/// A three-layer target whose every product crosses the in-team dispatch
/// threshold (`d_model` 256) and whose rows attend over enough cells for a
/// section to split them (16 heads: from 64 cells on), with its output head
/// scaled up so that a draft clears the cutoff instead of sitting at
/// `1/vocab`.
fn wide_model(weights: impl FnOnce(&ModelConfig) -> ModelWeights) -> Arc<Model> {
    let cfg = ModelConfig {
        d_model: 256,
        n_heads: 16,
        n_kv_heads: 16,
        d_ff: 256,
        ..ModelConfig::tiny_llama(96, 3)
    };
    let mut weights = weights(&cfg);
    for v in weights.lm_head.data_mut() {
        *v *= 60.0;
    }
    Arc::new(Model::new(cfg, weights))
}

fn single_process_greedy(model: &Model, prompt: &[u32], n: usize) -> Vec<u32> {
    let cfg = model.config();
    let mut cache = KvCache::new(cfg.n_layers, cfg.kv_dim(), 1024);
    let logits = model
        .forward_full(&Batch::prompt(prompt, 0, 0), &mut cache)
        .unwrap();
    let mut tok = Sampler::Greedy.sample(logits.row(prompt.len() - 1).unwrap());
    let mut out = Vec::new();
    for pos in prompt.len()..prompt.len() + n {
        let logits = model
            .forward_full(&Batch::single(tok, pos as i32, 0), &mut cache)
            .unwrap();
        tok = Sampler::Greedy.sample(logits.row(0).unwrap());
        out.push(tok);
    }
    out
}

/// Runs `deployment` on threaded ranks at team widths 1 and 2 and returns
/// both records.
fn at_widths(
    deployment: &Deployment,
    mode: &ExecutionMode,
    gen: &GenConfig,
) -> [GenerationRecord; 2] {
    let _guard = THREADS_ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prev = std::env::var_os(THREADS_ENV);
    let records = [1, 2].map(|width| {
        std::env::set_var(THREADS_ENV, width.to_string());
        let out = deployment.run(mode, N_NODES, gen);
        assert!(out.completed, "width {width} did not complete");
        out.record
    });
    match prev {
        Some(v) => std::env::set_var(THREADS_ENV, v),
        None => std::env::remove_var(THREADS_ENV),
    }
    records
}

fn check_every_strategy(draft: Arc<Model>, target: Arc<Model>) {
    let prompt: Vec<u32> = (0..66).map(|i| (i * 37 + 11) % 96).collect();
    let truth = single_process_greedy(&target, &prompt, N_GENERATE);
    let mode = ExecutionMode::Real { target, draft };
    let gen = GenConfig {
        confidence_cutoff: 0.0,
        ..GenConfig::small_test(prompt, N_GENERATE)
    };
    for (name, deployment) in [
        ("iterative", Deployment::new(IterativeStrategy)),
        ("speculative", Deployment::new(SpeculativeStrategy)),
        ("pipeinfer", Deployment::new(PipeInferStrategy::default())),
    ] {
        let [one, two] = at_widths(&deployment, &mode, &gen);
        assert_eq!(one.tokens[..N_GENERATE], truth[..], "{name} at width 1");
        assert_eq!(two.tokens[..N_GENERATE], truth[..], "{name} at width 2");
        if name != "iterative" {
            assert!(one.drafted > 0 && two.drafted > 0, "{name} must speculate");
        }
    }
}

#[test]
fn well_aligned_streams_are_identical_at_team_widths_one_and_two() {
    let target = wide_model(|cfg| ModelWeights::random(cfg, 5));
    let draft = Arc::new(Model::new(
        target.config().clone(),
        target.weights().perturbed(0.02, 6),
    ));
    check_every_strategy(draft, target);
}

#[test]
fn poorly_aligned_streams_are_identical_at_team_widths_one_and_two() {
    let target = wide_model(|cfg| ModelWeights::random(cfg, 5));
    let draft = wide_model(|cfg| ModelWeights::random(cfg, 1005));
    check_every_strategy(draft, target);
}
