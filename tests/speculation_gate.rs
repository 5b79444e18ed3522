//! The acceptance-aware speculation gate on the Real path (threaded ranks on
//! shared cores): PipeInfer with a useless draft must stop paying for runs
//! that are cancelled, and with a perfect one must never notice the gate.
//!
//! CI runs this in release as well: the gate's counters depend on how the
//! head's idle probes interleave with results, which optimised ranks change.

use pipeinfer::model::ModelWeights;
use pipeinfer::prelude::*;
use pipeinfer::trace::{validate_json, EventKind};
use std::sync::Arc;

const N_NODES: usize = 4;
const N_GENERATE: usize = 96;

/// A random tiny model whose output head is scaled up: the argmax stays, the
/// softmax peaks, so as a draft it clears the cutoff gradient's floor instead
/// of sitting at `1/vocab` and never drafting.
fn confident_model(seed: u64) -> Arc<Model> {
    let cfg = ModelConfig::tiny_llama(96, 4);
    let mut weights = ModelWeights::random(&cfg, seed);
    for v in weights.lm_head.data_mut() {
        *v *= 60.0;
    }
    Arc::new(Model::new(cfg, weights))
}

/// A request whose base cutoff never stops a draft.
fn gen_config() -> GenConfig {
    GenConfig {
        confidence_cutoff: 0.0,
        ..GenConfig::small_test(vec![5, 17, 33, 80, 2, 41], N_GENERATE)
    }
}

/// PipeInfer's record and its gate transitions `(open, p̂ in per-mille)` on
/// four threaded ranks, after checking its tokens against iterative decode.
fn run_pair(target: &Arc<Model>, draft: &Arc<Model>) -> (GenerationRecord, Vec<(bool, u32)>) {
    let mode = ExecutionMode::Real {
        target: target.clone(),
        draft: draft.clone(),
    };
    let gen = gen_config();
    let iterative = Deployment::new(IterativeStrategy).run(&mode, N_NODES, &gen);
    let pipeinfer = Deployment::new(PipeInferStrategy::default())
        .prepare(&mode, N_NODES)
        .run_traced(&gen, TraceConfig::default());
    assert!(iterative.completed && pipeinfer.completed);
    assert_eq!(
        pipeinfer.record.tokens[..N_GENERATE],
        iterative.record.tokens[..N_GENERATE]
    );
    let trace = pipeinfer.trace.expect("traced run carries a trace");
    let gate_moves: Vec<(bool, u32)> = trace
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::SpecGate {
                open,
                estimate_permille,
            } => Some((open, estimate_permille)),
            _ => None,
        })
        .collect();
    let mut export = PerfettoTrace::new();
    export.push(1, "pipeinfer", &trace);
    let json = export.to_json();
    validate_json(&json).expect("the export validates");
    assert_eq!(json.contains("\"spec_gate\""), !gate_moves.is_empty());
    (pipeinfer.record, gate_moves)
}

#[test]
fn a_draft_of_another_seed_is_probed_not_followed() {
    // Two unrelated random models agree on about one token in `vocab`.
    let (record, gate_moves) = run_pair(&confident_model(7), &confident_model(1007));
    // Four rejections bring the prior (0.8 at four trials' weight) to 0.346.
    assert_eq!(gate_moves, [(false, 346)]);
    let tokens = record.tokens.len();
    assert!(record.drafted > 0, "speculation must still engage");
    assert!(record.acceptance_rate() < 0.2);
    assert_eq!(record.spec_gate_closures, 1, "{record:?}");
    assert!(record.spec_probes > 0);
    // A run per token, the few that talk the prior down, then probes (107
    // runs here) — not the run per token on top that an ungated head
    // launches (154 to 193).
    assert!(
        record.runs_launched * 10 <= tokens * 13,
        "{} runs for {tokens} tokens",
        record.runs_launched
    );
}

#[test]
fn a_draft_that_is_the_target_never_closes_the_gate() {
    let target = confident_model(7);
    let (record, gate_moves) = run_pair(&target, &target);
    assert_eq!(gate_moves, []);
    let tokens = record.tokens.len();
    // Everything verified was accepted; the request ends with at most the
    // budget's one speculative micro-batch still in flight.
    assert_eq!(record.runs_cancelled, 0);
    assert!(record.drafted - record.accepted_drafts <= 2, "{record:?}");
    assert_eq!((record.spec_gate_closures, record.spec_probes), (0, 0));
    // The budget-only head's range (51 to 68 runs for these 96 tokens, debug
    // and release): most runs carry a whole micro-batch.
    assert!(
        record.runs_launched * 4 <= tokens * 3,
        "{} runs for {tokens} tokens",
        record.runs_launched
    );
}
