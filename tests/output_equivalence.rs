//! Workspace-level integration test: the paper's central correctness claim.
//!
//! "We verified that the output of PipeInfer was consistent with the output
//! from standard speculative inference, pipeline-parallel iterative
//! inference, and single-node inference … zero deviation" (§V-B).  Here the
//! same property is asserted with real tiny models executed across real
//! OS-thread pipelines, for well- and poorly-aligned draft models and for
//! both ablation variants — every strategy assembled and executed through
//! the shared [`Deployment`] layer.

use pipeinfer::model::{Batch, KvCache, Sampler};
use pipeinfer::prelude::*;
use std::sync::Arc;

fn tiny_pair(noise: f32, seed: u64) -> (Arc<Model>, ExecutionMode) {
    let cfg = ModelConfig::tiny_llama(96, 4);
    let target = Arc::new(Model::random(cfg.clone(), seed));
    let draft = Arc::new(Model::new(cfg, target.weights().perturbed(noise, seed + 1)));
    let mode = ExecutionMode::Real {
        target: target.clone(),
        draft,
    };
    (target, mode)
}

/// One deployment per strategy, PipeInfer with its default configuration.
fn all_deployments() -> Vec<(&'static str, Deployment)> {
    vec![
        ("iterative", Deployment::new(IterativeStrategy)),
        ("speculative", Deployment::new(SpeculativeStrategy)),
        ("pipeinfer", Deployment::new(PipeInferStrategy::default())),
        ("tree", Deployment::new(TreeSpeculationStrategy::default())),
    ]
}

/// Greedy generation on a single process (no pipeline at all) — the ground
/// truth every distributed strategy must match.
fn single_process_greedy(model: &Model, prompt: &[u32], n: usize) -> Vec<u32> {
    let mut cache = KvCache::new(model.config().n_layers, model.config().kv_dim(), 2048);
    let logits = model
        .forward_full(&Batch::prompt(prompt, 0, 0), &mut cache)
        .unwrap();
    let mut tok = Sampler::Greedy.sample(logits.row(prompt.len() - 1).unwrap());
    let first_pos = prompt.len() as i32;
    let mut out = Vec::new();
    for (i, pos) in (first_pos..first_pos + n as i32 + 1).enumerate() {
        let logits = model
            .forward_full(&Batch::single(tok, pos, 0), &mut cache)
            .unwrap();
        tok = Sampler::Greedy.sample(logits.row(0).unwrap());
        // The first sampled token (from prompt processing) is not counted, so
        // collect from the first decode step onwards.
        if i < n {
            out.push(tok);
        }
    }
    out.truncate(n);
    out
}

#[test]
fn all_strategies_match_single_process_greedy_output() {
    let (target, mode) = tiny_pair(0.02, 7);
    let prompt: Vec<u32> = vec![5, 17, 33, 80, 2, 41];
    let n = 16;
    let truth = single_process_greedy(&target, &prompt, n);

    let gen = GenConfig::small_test(prompt, n);
    for (name, deployment) in all_deployments() {
        let out = deployment.run(&mode, 3, &gen);
        assert!(out.completed, "{name} did not complete");
        assert_eq!(
            out.record.tokens[..n],
            truth[..],
            "{name} diverged from single-process greedy output"
        );
    }
}

#[test]
fn poorly_aligned_draft_does_not_change_output() {
    // A heavily perturbed draft model speculates mostly wrong tokens; the
    // output must still be bit-identical, only slower.
    let (target, mode) = tiny_pair(0.5, 21);
    let prompt = vec![9u32, 9, 9, 1, 2, 3];
    let n = 12;
    let truth = single_process_greedy(&target, &prompt, n);
    let gen = GenConfig::small_test(prompt, n);
    let spec = Deployment::new(SpeculativeStrategy).run(&mode, 2, &gen);
    let pipe = Deployment::new(PipeInferStrategy::default()).run(&mode, 2, &gen);
    let tree = Deployment::new(TreeSpeculationStrategy::default()).run(&mode, 2, &gen);
    assert_eq!(spec.record.tokens[..n], truth[..]);
    assert_eq!(pipe.record.tokens[..n], truth[..]);
    assert_eq!(tree.record.tokens[..n], truth[..]);
    // The poorly aligned draft must show a visibly lower acceptance rate.
    assert!(pipe.record.acceptance_rate() < 0.9);
}

#[test]
fn ablations_preserve_output_on_real_models() {
    let (target, mode) = tiny_pair(0.05, 33);
    let prompt = vec![1u32, 2, 3, 4, 5, 6, 7, 8];
    let n = 12;
    let truth = single_process_greedy(&target, &prompt, n);
    let gen = GenConfig::small_test(prompt, n);
    for config in [
        PipeInferConfig::paper_default(),
        PipeInferConfig::no_cancellation(),
        PipeInferConfig::no_continuous_speculation(),
    ] {
        let out = Deployment::new(PipeInferStrategy::new(config.clone())).run(&mode, 4, &gen);
        assert!(out.completed);
        assert_eq!(out.record.tokens[..n], truth[..], "config {config:?}");
    }
}

#[test]
fn pipeline_depth_does_not_change_output() {
    let (target, mode) = tiny_pair(0.02, 55);
    let prompt = vec![11u32, 22, 33, 44];
    let n = 10;
    let truth = single_process_greedy(&target, &prompt, n);
    let gen = GenConfig::small_test(prompt, n);
    let deployment = Deployment::new(PipeInferStrategy::default());
    for n_nodes in [2usize, 3, 4, 5] {
        let out = deployment.run(&mode, n_nodes, &gen);
        assert_eq!(
            out.record.tokens[..n],
            truth[..],
            "output changed at {n_nodes} nodes"
        );
    }
}

#[test]
fn legacy_runner_wrappers_match_deployment_output() {
    // `run_iterative` / `run_speculative` / `run_pipeinfer` are kept as thin
    // wrappers; they must behave exactly like explicit deployments.
    let (_, mode) = tiny_pair(0.02, 77);
    let gen = GenConfig::small_test(vec![6, 5, 4, 3], 8);
    let a = run_iterative(&mode, 3, &gen);
    let b = Deployment::new(IterativeStrategy).run(&mode, 3, &gen);
    assert_eq!(a.record.tokens, b.record.tokens);
    let a = run_speculative(&mode, 3, &gen);
    let b = Deployment::new(SpeculativeStrategy).run(&mode, 3, &gen);
    assert_eq!(a.record.tokens, b.record.tokens);
    let a = run_pipeinfer(&mode, 3, &gen, &PipeInferConfig::default());
    let b = Deployment::new(PipeInferStrategy::default()).run(&mode, 3, &gen);
    assert_eq!(a.record.tokens, b.record.tokens);
}

/// `(drafted, accepted_drafts, runs_launched)` of one run.
type Counters = (usize, usize, usize);

/// One fixture of the tests above with the counters the synchronous chain
/// and tree strategies reported on it at cutoff 0 while the drafter still
/// re-evaluated its whole context on every call.
struct CounterFixture {
    noise: f32,
    seed: u64,
    prompt: &'static [u32],
    n: usize,
    n_nodes: usize,
    chain: Counters,
    tree: Counters,
}

#[test]
fn speculation_counters_match_the_from_scratch_drafter() {
    // The drafter's KV cache carried across calls must not change a single
    // proposal, so the counters are pinned.
    let fixture = |noise, seed, prompt, n, n_nodes, chain, tree| CounterFixture {
        noise,
        seed,
        prompt,
        n,
        n_nodes,
        chain,
        tree,
    };
    let fixtures = [
        fixture(
            0.02,
            7,
            &[5, 17, 33, 80, 2, 41],
            16,
            3,
            (16, 12, 5),
            (16, 12, 5),
        ),
        fixture(
            0.5,
            21,
            &[9, 9, 9, 1, 2, 3],
            12,
            2,
            (48, 0, 13),
            (48, 0, 13),
        ),
        fixture(
            0.05,
            33,
            &[1, 2, 3, 4, 5, 6, 7, 8],
            12,
            4,
            (16, 8, 5),
            (20, 8, 6),
        ),
        fixture(0.02, 55, &[11, 22, 33, 44], 10, 3, (36, 5, 10), (36, 4, 10)),
    ];
    let counters = |out: &RunOutput| {
        let r = &out.record;
        (r.drafted, r.accepted_drafts, r.runs_launched)
    };
    for f in fixtures {
        let (seed, n, n_nodes) = (f.seed, f.n, f.n_nodes);
        let (target, mode) = tiny_pair(f.noise, seed);
        // At the fixtures' own cutoff these random drafts (confidence about
        // 1/vocab) never clear the bar: every strategy decodes one token per
        // run, and PipeInfer has the next token's run dispatched already when
        // it accepts the last.
        let gen = GenConfig::small_test(f.prompt.to_vec(), n);
        let spec = Deployment::new(SpeculativeStrategy).run(&mode, n_nodes, &gen);
        assert_eq!(counters(&spec), (0, 0, n + 1), "speculative, seed {seed}");
        let pipe = Deployment::new(PipeInferStrategy::default()).run(&mode, n_nodes, &gen);
        assert_eq!(counters(&pipe), (0, 0, n + 2), "pipeinfer, seed {seed}");
        // With the cutoff at zero every round drafts: the synchronous
        // strategies' counters depend on the proposals alone.
        let gen = GenConfig {
            confidence_cutoff: 0.0,
            ..gen
        };
        let spec = Deployment::new(SpeculativeStrategy).run(&mode, n_nodes, &gen);
        assert_eq!(
            counters(&spec),
            f.chain,
            "speculative, seed {seed}, cutoff 0"
        );
        let out = Deployment::new(TreeSpeculationStrategy::default()).run(&mode, n_nodes, &gen);
        assert_eq!(counters(&out), f.tree, "tree, seed {seed}, cutoff 0");
        // PipeInfer's counters depend on thread timing as well, so what is
        // pinned is that the head did draft — extending the drafter's cache
        // on accepted tokens and cutting it back on rejected ones — and that
        // the stream is still the greedy one.
        let pipe = Deployment::new(PipeInferStrategy::default()).run(&mode, n_nodes, &gen);
        let truth = single_process_greedy(&target, f.prompt, n);
        assert_eq!(pipe.record.tokens[..n], truth[..], "pipeinfer, seed {seed}");
        let (drafted, accepted, _) = counters(&pipe);
        assert!(drafted > 0, "pipeinfer never drafted, seed {seed}");
        assert!(accepted <= drafted, "pipeinfer, seed {seed}, cutoff 0");
    }
}
