//! Thin PipeInfer entry point over the shared [`pi_spec::deploy`] layer.
//!
//! [`run_pipeinfer`] mirrors `pi_spec::runner::{run_iterative,
//! run_speculative}`: it wraps [`PipeInferStrategy`] in a
//! [`Deployment`] and runs it.  All assembly
//! (route construction, engine/drafter building, worker assembly, driver
//! selection) lives in `pi_spec::deploy` — none of it is duplicated here.

use crate::strategy::PipeInferStrategy;
use crate::PipeInferConfig;
use pi_spec::deploy::{Deployment, ExecutionMode, RunOutput};
use pi_spec::GenConfig;

/// Runs PipeInfer across `n_nodes` ranks (at least two: the head/draft rank
/// plus one target-pipeline rank).
pub fn run_pipeinfer(
    mode: &ExecutionMode,
    n_nodes: usize,
    gen_config: &GenConfig,
    config: &PipeInferConfig,
) -> RunOutput {
    Deployment::new(PipeInferStrategy::new(config.clone())).run(mode, n_nodes, gen_config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_model::{Model, ModelConfig, OracleTarget};
    use pi_perf::{ClusterSpec, ModelPair};
    use pi_spec::runner::{run_iterative, run_speculative};
    use std::sync::Arc;

    fn real_mode(seed: u64) -> ExecutionMode {
        let cfg = ModelConfig::tiny_llama(64, 4);
        let target = Arc::new(Model::random(cfg.clone(), seed));
        let draft = Arc::new(Model::new(cfg, target.weights().perturbed(0.02, seed + 1)));
        ExecutionMode::Real { target, draft }
    }

    fn sim_mode(pair: ModelPair, n_nodes: usize) -> ExecutionMode {
        ExecutionMode::Sim {
            pair,
            cluster: ClusterSpec::cluster_c(n_nodes),
            oracle_seed: 42,
        }
    }

    #[test]
    fn real_pipeinfer_matches_iterative_output_exactly() {
        let mode = real_mode(11);
        let config = GenConfig::small_test(vec![9, 8, 7, 6, 5], 12);
        let iter = run_iterative(&mode, 4, &config);
        let pipe = run_pipeinfer(&mode, 4, &config, &PipeInferConfig::default());
        assert!(iter.completed && pipe.completed);
        assert!(pipe.record.tokens.len() >= 12);
        assert_eq!(
            iter.record.tokens[..12],
            pipe.record.tokens[..12],
            "PipeInfer must not change greedy output"
        );
    }

    #[test]
    fn sim_pipeinfer_output_matches_oracle() {
        let pair = ModelPair::dolphin_tinyllama();
        let vocab = pair.target.cfg.vocab_size as u32;
        let config = GenConfig {
            prompt: vec![5; 16],
            n_generate: 32,
            max_draft: 4,
            confidence_cutoff: 0.4,
            kv_capacity: 4096,
        };
        let out = run_pipeinfer(&sim_mode(pair, 8), 8, &config, &PipeInferConfig::default());
        assert!(out.completed);
        let truth = OracleTarget::new(42, vocab).generate(&[5; 16], 40);
        assert_eq!(out.record.tokens[..32].to_vec(), truth[1..33].to_vec());
    }

    #[test]
    fn sim_pipeinfer_beats_speculative_baseline_on_deep_pipelines() {
        let config = GenConfig {
            prompt: vec![1; 16],
            n_generate: 48,
            max_draft: 4,
            confidence_cutoff: 0.4,
            kv_capacity: 4096,
        };
        // Well-aligned pair: PipeInfer must win, modestly.
        let pair = ModelPair::dolphin_tinyllama();
        let spec = run_speculative(&sim_mode(pair.clone(), 8), 8, &config);
        let pipe = run_pipeinfer(&sim_mode(pair, 8), 8, &config, &PipeInferConfig::default());
        assert!(spec.completed && pipe.completed);
        let well_aligned = pipe.record.generation_speed() / spec.record.generation_speed();
        assert!(
            well_aligned > 1.05,
            "PipeInfer speedup only {well_aligned:.2}"
        );

        // Poorly-aligned pair (Goliath + XWin-7B, 52 %): the paper's key
        // observation is that PipeInfer's relative advantage *grows* as
        // alignment drops.
        let pair = ModelPair::goliath_xwin7b();
        let spec = run_speculative(&sim_mode(pair.clone(), 8), 8, &config);
        let pipe = run_pipeinfer(&sim_mode(pair, 8), 8, &config, &PipeInferConfig::default());
        let poorly_aligned = pipe.record.generation_speed() / spec.record.generation_speed();
        assert!(
            poorly_aligned > 1.15,
            "PipeInfer speedup only {poorly_aligned:.2}"
        );
        assert!(
            poorly_aligned > well_aligned,
            "advantage must grow as alignment drops ({poorly_aligned:.2} vs {well_aligned:.2})"
        );
    }

    #[test]
    fn sim_pipeinfer_ttft_is_near_iterative() {
        let config = GenConfig {
            prompt: vec![1; 16],
            n_generate: 24,
            max_draft: 4,
            confidence_cutoff: 0.4,
            kv_capacity: 4096,
        };
        let pair = ModelPair::goliath_xwin7b();
        let iter = run_iterative(&sim_mode(pair.clone(), 8), 8, &config);
        let spec = run_speculative(&sim_mode(pair.clone(), 8), 8, &config);
        let pipe = run_pipeinfer(&sim_mode(pair, 8), 8, &config, &PipeInferConfig::default());
        // The paper's Fig. 5: PipeInfer reaches near-parity with iterative
        // TTFT while speculative inference is substantially slower to its
        // first token.
        assert!(pipe.record.ttft() < 1.5 * iter.record.ttft());
        assert!(spec.record.ttft() > pipe.record.ttft());
    }

    #[test]
    fn real_dedicated_rank_and_tree_micro_match_iterative_output() {
        // The Fig. 3 layout and tree micro-batches on the threaded driver
        // with real tiny models: greedy output must be preserved exactly.
        let mode = real_mode(31);
        let config = GenConfig::small_test(vec![9, 8, 7, 6, 5], 10);
        let iter = run_iterative(&mode, 3, &config);
        assert!(iter.completed);
        for variant in [
            PipeInferConfig::dedicated_draft_rank(),
            PipeInferConfig::tree_micro(),
            PipeInferConfig::tree_micro().with_placement(crate::DraftPlacement::DedicatedRank),
        ] {
            let pipe = run_pipeinfer(&mode, 3, &config, &variant);
            assert!(pipe.completed, "{variant:?}");
            assert_eq!(
                iter.record.tokens[..10],
                pipe.record.tokens[..10],
                "layout/shape must not change greedy output ({variant:?})"
            );
        }
    }

    #[test]
    fn sim_dedicated_rank_output_matches_oracle() {
        let pair = ModelPair::goliath_xwin7b();
        let vocab = pair.target.cfg.vocab_size as u32;
        let config = GenConfig {
            prompt: vec![5; 16],
            n_generate: 32,
            max_draft: 4,
            confidence_cutoff: 0.4,
            kv_capacity: 4096,
        };
        let out = run_pipeinfer(
            &sim_mode(pair, 8),
            8,
            &config,
            &PipeInferConfig::dedicated_draft_rank(),
        );
        assert!(out.completed);
        let truth = OracleTarget::new(42, vocab).generate(&[5; 16], 40);
        assert_eq!(out.record.tokens[..32].to_vec(), truth[1..33].to_vec());
        assert!(out.record.draft_requests > 0);
        assert!(out.stats.total_draft_bytes() > 0);
    }

    #[test]
    fn sim_pipeinfer_is_deterministic() {
        let config = GenConfig {
            prompt: vec![3; 8],
            n_generate: 16,
            max_draft: 4,
            confidence_cutoff: 0.4,
            kv_capacity: 2048,
        };
        let pair = ModelPair::falcon_7b();
        let a = run_pipeinfer(
            &sim_mode(pair.clone(), 4),
            4,
            &config,
            &PipeInferConfig::default(),
        );
        let b = run_pipeinfer(&sim_mode(pair, 4), 4, &config, &PipeInferConfig::default());
        assert_eq!(a.record.tokens, b.record.tokens);
        assert_eq!(a.record.finished_at, b.record.finished_at);
        assert_eq!(a.stats.total_messages(), b.stats.total_messages());
    }

    #[test]
    fn ablations_degrade_speed_but_not_correctness() {
        let config = GenConfig {
            prompt: vec![2; 16],
            n_generate: 32,
            max_draft: 4,
            confidence_cutoff: 0.4,
            kv_capacity: 4096,
        };
        let pair = ModelPair::goliath_xwin7b();
        let full = run_pipeinfer(
            &sim_mode(pair.clone(), 8),
            8,
            &config,
            &PipeInferConfig::default(),
        );
        let no_cancel = run_pipeinfer(
            &sim_mode(pair.clone(), 8),
            8,
            &config,
            &PipeInferConfig::no_cancellation(),
        );
        let no_cont = run_pipeinfer(
            &sim_mode(pair, 8),
            8,
            &config,
            &PipeInferConfig::no_continuous_speculation(),
        );
        assert_eq!(full.record.tokens, no_cancel.record.tokens);
        assert_eq!(full.record.tokens, no_cont.record.tokens);
        // With a poorly aligned pair, both ablations should cost speed.
        assert!(full.record.generation_speed() >= 0.95 * no_cancel.record.generation_speed());
        assert!(full.record.generation_speed() > no_cont.record.generation_speed());
    }

    #[test]
    fn two_node_deployment_degenerates_gracefully() {
        let mode = real_mode(21);
        let config = GenConfig::small_test(vec![1, 2, 3], 6);
        let out = run_pipeinfer(&mode, 2, &config, &PipeInferConfig::default());
        assert!(out.completed);
        assert!(out.record.tokens.len() >= 6);
    }
}
