//! Golden end-to-end generation: kernel changes must not move the output.
//!
//! Greedy decoding from a fixed-seed tiny model is pinned to a hardcoded
//! token sequence, recorded before the f32x8 kernels of `pi_tensor::simd`
//! (dense and quantized matmul, rmsnorm, softmax, SwiGLU) became the one
//! tier every build ships.  Their accumulation order differs from the
//! scalar kernels the sequence was recorded with — the logits agree only to
//! ~1e-4 — but greedy argmax margins in a real forward pass dwarf that, so
//! the *sampled tokens* must stay byte-identical on either dispatch (AVX2/FMA
//! or the portable 8-lane arrays).  A silent kernel bug large enough to flip
//! any argmax fails this test.

use pipeinfer::model::{Batch, KvCache, Model, ModelConfig, OracleTarget, Sampler};
use pipeinfer::prelude::{
    ClusterSpec, Deployment, ExecutionMode, GenConfig, ModelPair, PipeInferConfig,
    PipeInferStrategy, TraceConfig,
};
use pipeinfer::trace::EventKind;
use pipeinfer_core::DraftPlacement;
use std::sync::Arc;

/// The pinned greedy output of `Model::random(tiny_llama(96, 4), 2024)` on
/// prompt `[3, 14, 15, 9, 2, 6]`, recorded from the scalar build.
fn golden_tokens() -> Vec<u32> {
    vec![
        8, 8, 11, 11, 11, 11, 8, 8, 8, 8, 8, 8, 8, 11, 11, 78, 8, 8, 8, 8, 28, 28, 28, 28,
    ]
}

/// The pinned output of every *distributed* strategy (iterative baseline and
/// all PipeInfer layouts agree) on the same model and prompt.  The
/// distributed schedule batches the prompt differently from the
/// single-process loop above, so its near-tie at step 1 resolves the other
/// way; within the distributed world the sequence is strategy-invariant.
fn golden_distributed_tokens() -> Vec<u32> {
    vec![
        8, 11, 11, 11, 11, 8, 8, 8, 8, 8, 8, 8, 11, 11, 78, 8, 8, 8, 8, 28, 28, 28, 28, 28,
    ]
}

/// Greedy single-process generation, the same schedule as the
/// output-equivalence suite's ground truth.
fn greedy(model: &Model, prompt: &[u32], n: usize) -> Vec<u32> {
    let mut cache = KvCache::new(model.config().n_layers, model.config().kv_dim(), 2048);
    let logits = model
        .forward_full(&Batch::prompt(prompt, 0, 0), &mut cache)
        .unwrap();
    let mut tok = Sampler::Greedy.sample(logits.row(prompt.len() - 1).unwrap());
    let mut out = vec![tok];
    for i in 0..n - 1 {
        let pos = prompt.len() as i32 + i as i32;
        let logits = model
            .forward_full(&Batch::single(tok, pos, 0), &mut cache)
            .unwrap();
        tok = Sampler::Greedy.sample(logits.row(0).unwrap());
        out.push(tok);
    }
    out
}

#[test]
fn greedy_generation_matches_golden_tokens() {
    let model = Model::random(ModelConfig::tiny_llama(96, 4), 2024);
    let prompt: Vec<u32> = vec![3, 14, 15, 9, 2, 6];
    let tokens = greedy(&model, &prompt, 24);
    // Recorded with the former scalar kernels; the shipped f32x8 tier must
    // reproduce it exactly (see module docs).
    assert_eq!(
        tokens,
        golden_tokens(),
        "greedy generation diverged from the recorded golden sequence"
    );
}

/// The distributed strategies — tree speculation and the dedicated draft
/// rank, in both combinations — must reproduce the same golden tokens with
/// the event recorder attached.  Speculation is lossless and tracing only
/// observes, so any divergence means one of them leaked into generation.
#[test]
fn traced_distributed_strategies_reproduce_golden_tokens() {
    let target = Arc::new(Model::random(ModelConfig::tiny_llama(96, 4), 2024));
    let draft = Arc::new(Model::new(
        target.config().clone(),
        target.weights().perturbed(0.02, 2025),
    ));
    let mode = ExecutionMode::Real { target, draft };
    let gen = GenConfig {
        prompt: vec![3, 14, 15, 9, 2, 6],
        n_generate: 24,
        max_draft: 4,
        confidence_cutoff: 0.3,
        kv_capacity: 2048,
    };

    let strategies = [
        ("tree", PipeInferConfig::tree_micro()),
        ("dedicated rank", PipeInferConfig::dedicated_draft_rank()),
        (
            "dedicated tree",
            PipeInferConfig::tree_micro().with_placement(DraftPlacement::DedicatedRank),
        ),
    ];
    for (name, config) in strategies {
        let dedicated = config.draft_placement == DraftPlacement::DedicatedRank;
        let out = Deployment::new(PipeInferStrategy::new(config))
            .prepare(&mode, 4)
            .run_traced(&gen, TraceConfig::default());
        assert!(out.completed, "{name} run did not complete");
        assert_eq!(
            out.record.tokens[..24],
            golden_distributed_tokens()[..],
            "{name} with tracing enabled diverged from the golden sequence"
        );
        let trace = out.trace.expect("run_traced must attach a trace");
        assert!(!trace.events().is_empty(), "{name} trace is empty");
        if dedicated {
            assert!(
                trace
                    .events()
                    .iter()
                    .any(|e| matches!(e.kind, EventKind::DraftServe { .. })),
                "{name}: dedicated draft rank served nothing"
            );
        }
    }
}

/// The same pin on the simulated paper-scale pair, where speculation
/// actually fires (tiny random models rarely clear the confidence cutoff,
/// so the real-model test above exercises layouts more than tree shapes):
/// with tracing enabled, tree and dedicated-rank PipeInfer must still
/// reproduce the alignment oracle's canonical stream token for token, and
/// the trace must show genuinely tree-shaped (width > 1) runs.
#[test]
fn traced_sim_tree_strategies_match_oracle_stream() {
    let pair = ModelPair::goliath_xwin7b();
    let vocab = pair.target.cfg.vocab_size as u32;
    let mode = ExecutionMode::Sim {
        pair,
        cluster: ClusterSpec::cluster_c(4),
        oracle_seed: 42,
    };
    let gen = GenConfig {
        prompt: vec![5; 16],
        n_generate: 32,
        max_draft: 4,
        confidence_cutoff: 0.4,
        kv_capacity: 4096,
    };
    let truth = OracleTarget::new(42, vocab).generate(&[5; 16], 40);

    let strategies = [
        ("tree", PipeInferConfig::tree_micro()),
        (
            "dedicated tree",
            PipeInferConfig::tree_micro().with_placement(DraftPlacement::DedicatedRank),
        ),
    ];
    for (name, config) in strategies {
        let dedicated = config.draft_placement == DraftPlacement::DedicatedRank;
        let out = Deployment::new(PipeInferStrategy::new(config))
            .prepare(&mode, 4)
            .run_traced(&gen, TraceConfig::default());
        assert!(out.completed, "{name} run did not complete");
        assert_eq!(
            out.record.tokens[..32].to_vec(),
            truth[1..33].to_vec(),
            "{name} with tracing enabled diverged from the oracle stream"
        );
        let trace = out.trace.expect("run_traced must attach a trace");
        assert!(
            trace.events().iter().any(|e| matches!(
                e.kind,
                EventKind::RunSpawned { width, .. } if width > 1
            )),
            "{name}: no tree-shaped run in the trace"
        );
        if dedicated {
            assert!(
                trace
                    .events()
                    .iter()
                    .any(|e| matches!(e.kind, EventKind::DraftServe { .. })),
                "{name}: dedicated draft rank served nothing"
            );
        }
    }
}
