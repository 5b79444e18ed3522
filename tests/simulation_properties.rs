//! Workspace-level integration tests of the simulated evaluation path:
//! determinism, cross-strategy orderings and property-based checks on the
//! paper's qualitative claims.  All strategies execute through the shared
//! [`Deployment`] layer; property cases are drawn deterministically (fixed
//! seeds), so a failure always reproduces identically.

use pipeinfer::prelude::*;
use proptest::prelude::*;

fn sim(pair: ModelPair, n: usize, seed: u64) -> ExecutionMode {
    ExecutionMode::Sim {
        pair,
        cluster: ClusterSpec::cluster_c(n),
        oracle_seed: seed,
    }
}

fn gen(n_generate: usize) -> GenConfig {
    GenConfig {
        prompt: vec![4; 24],
        n_generate,
        max_draft: 4,
        confidence_cutoff: 0.4,
        kv_capacity: 8192,
    }
}

fn pipeinfer() -> Deployment {
    Deployment::new(PipeInferStrategy::default())
}

#[test]
fn simulated_runs_are_bit_reproducible() {
    let cfg = gen(40);
    for _ in 0..2 {
        let a = pipeinfer().run(&sim(ModelPair::falcon_7b(), 8, 3), 8, &cfg);
        let b = pipeinfer().run(&sim(ModelPair::falcon_7b(), 8, 3), 8, &cfg);
        assert_eq!(a.record.tokens, b.record.tokens);
        assert_eq!(a.record.finished_at, b.record.finished_at);
        assert_eq!(a.record.accept_times, b.record.accept_times);
        assert_eq!(a.stats.total_bytes(), b.stats.total_bytes());
    }
}

#[test]
fn paper_orderings_hold_on_cluster_c() {
    // PipeInfer ≥ speculative ≥ iterative in generation speed at 8 nodes;
    // TTFT: PipeInfer ≈ iterative < speculative (paper Figs. 4 and 5).
    let cfg = gen(64);
    for pair in [ModelPair::dolphin_tinyllama(), ModelPair::goliath_xwin7b()] {
        let iter = Deployment::new(IterativeStrategy).run(&sim(pair.clone(), 8, 5), 8, &cfg);
        let spec = Deployment::new(SpeculativeStrategy).run(&sim(pair.clone(), 8, 5), 8, &cfg);
        let pipe = pipeinfer().run(&sim(pair.clone(), 8, 5), 8, &cfg);
        assert!(
            pipe.record.generation_speed() > spec.record.generation_speed(),
            "{}: pipe {:.2} <= spec {:.2}",
            pair.name,
            pipe.record.generation_speed(),
            spec.record.generation_speed()
        );
        assert!(spec.record.generation_speed() > iter.record.generation_speed());
        // TTFT: PipeInfer stays at iterative levels.  Speculative inference
        // pays the draft latency up front, which is only pronounced when the
        // draft model is not tiny (the Goliath pair uses a 7B draft).
        assert!(pipe.record.ttft() <= 1.05 * spec.record.ttft());
        assert!(pipe.record.ttft() < 1.5 * iter.record.ttft());
        if pair.name.contains("Goliath") {
            assert!(spec.record.ttft() > pipe.record.ttft());
        }
    }
}

#[test]
fn cancellation_ablation_never_improves_speed_under_poor_alignment() {
    let cfg = gen(64);
    let pair = ModelPair::goliath_xwin7b();
    let full = pipeinfer().run(&sim(pair.clone(), 8, 9), 8, &cfg);
    let no_cancel = Deployment::new(PipeInferStrategy::new(PipeInferConfig::no_cancellation()))
        .run(&sim(pair, 8, 9), 8, &cfg);
    assert!(full.record.generation_speed() >= 0.95 * no_cancel.record.generation_speed());
    assert_eq!(full.record.tokens, no_cancel.record.tokens);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Whatever the acceptance rate and node count, PipeInfer must (a) finish,
    /// (b) reproduce the oracle's greedy continuation exactly, and (c) never
    /// be slower than the iterative baseline by more than a small tolerance.
    #[test]
    fn prop_pipeinfer_correct_and_competitive(
        acceptance in 0.05f64..0.95,
        n_nodes in 4usize..12,
        seed in 0u64..50,
    ) {
        let mut pair = ModelPair::dolphin_tinyllama();
        pair.acceptance_rate = acceptance;
        let cfg = gen(32);
        let mode = sim(pair.clone(), n_nodes, seed);
        let pipe = pipeinfer().run(&mode, n_nodes, &cfg);
        prop_assert!(pipe.completed);
        prop_assert!(pipe.record.tokens.len() >= 32);
        let truth = pipeinfer::model::OracleTarget::new(seed, pair.target.cfg.vocab_size as u32)
            .generate(&cfg.prompt, 40);
        prop_assert_eq!(&pipe.record.tokens[..32], &truth[1..33]);

        let iter = Deployment::new(IterativeStrategy).run(&mode, n_nodes, &cfg);
        prop_assert!(
            pipe.record.generation_speed() > 0.8 * iter.record.generation_speed(),
            "pipe {} vs iter {}",
            pipe.record.generation_speed(),
            iter.record.generation_speed()
        );
    }

    /// Every point of the layout matrix — head-hosted or dedicated draft
    /// rank, chain or tree micro-batches — emits a byte-identical token
    /// stream: the target oracle's greedy continuation, regardless of
    /// acceptance rate, node count or seed.  Chains have no sibling branch to
    /// rescue a run with, so only trees ever record a rescue.
    #[test]
    fn prop_layout_matrix_streams_are_byte_identical(
        acceptance in 0.05f64..0.95,
        n_nodes in 4usize..10,
        seed in 0u64..50,
    ) {
        let mut pair = ModelPair::goliath_xwin7b();
        pair.acceptance_rate = acceptance;
        let cfg = gen(24);
        let mode = sim(pair.clone(), n_nodes, seed);
        let truth = pipeinfer::model::OracleTarget::new(seed, pair.target.cfg.vocab_size as u32)
            .generate(&cfg.prompt, 32);
        let variants = [
            PipeInferConfig::default(),
            PipeInferConfig::dedicated_draft_rank(),
            PipeInferConfig::tree_micro(),
            PipeInferConfig::tree_micro().with_placement(DraftPlacement::DedicatedRank),
        ];
        for config in variants {
            let out = Deployment::new(PipeInferStrategy::new(config.clone()))
                .run(&mode, n_nodes, &cfg);
            prop_assert!(out.completed, "{config:?}");
            prop_assert_eq!(
                &out.record.tokens[..24],
                &truth[1..25],
                "stream diverged under {:?}",
                config
            );
            if config.micro_width == 1 {
                prop_assert_eq!(out.record.runs_rescued, 0, "a chain was rescued: {:?}", config);
            }
        }
    }
}
