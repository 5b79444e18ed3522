//! Workspace-level integration tests of iteration-level cross-request
//! batching: the `StepSession` step loop and `Server::serve_stepped`.
//!
//! The load-bearing property is **byte-identity**: fusing concurrent
//! requests into forest batches changes the roofline, never the tokens.
//! Every cell of the deployment matrix — draft placement (head-hosted vs
//! dedicated rank) × micro-batch shape (chain vs tree) × KV backing (paged
//! pool vs flat caches) × execution mode (`Sim` vs `Real`) — must serve a
//! concurrent stream with every request's token stream identical to that
//! request decoded alone.  A property test then drives random join/leave
//! schedules through the step loop, and a forest-batch audit checks that
//! `Batch::level_groups` never mixes rows across lanes.

use pipeinfer::prelude::*;
use pipeinfer::serve::MixedWorkload;
use proptest::prelude::*;
use std::sync::Arc;

fn sim_mode(n: usize) -> ExecutionMode {
    ExecutionMode::Sim {
        pair: ModelPair::dolphin_tinyllama(),
        cluster: ClusterSpec::cluster_c(n),
        oracle_seed: 42,
    }
}

fn real_mode(seed: u64) -> ExecutionMode {
    let cfg = ModelConfig::tiny_llama(64, 4);
    let target = Arc::new(Model::random(cfg.clone(), seed));
    let draft = Arc::new(Model::new(cfg, target.weights().perturbed(0.02, seed + 1)));
    ExecutionMode::Real { target, draft }
}

fn gen(fill: Token, prompt_len: usize, n_generate: usize) -> GenConfig {
    GenConfig {
        prompt: vec![fill; prompt_len],
        n_generate,
        max_draft: 4,
        confidence_cutoff: 0.4,
        kv_capacity: 4096,
    }
}

/// Decodes one request alone through the same step loop (a single-request
/// session over the same prepared deployment) — the reference every fused
/// stream must match byte for byte.
fn solo_stepped(prepared: &PreparedDeployment, config: &GenConfig) -> Vec<Token> {
    let mut session = prepared.begin_session();
    let id = session.admit(config);
    let mut guard = 0;
    while session.active() > 0 {
        guard += 1;
        assert!(guard < 10_000, "solo session did not converge");
        session.step_cohort();
    }
    session.take_output(id).expect("solo output").record.tokens
}

/// Serves `configs` concurrently through the fused step loop and asserts
/// each stream equals its solo-stepped reference; returns the report.
fn assert_fused_matches_solo(server: &Server, configs: &[GenConfig], label: &str) -> ServeReport {
    let requests: Vec<Request> = configs
        .iter()
        .enumerate()
        .map(|(i, c)| Request::new(i as u64, c.clone(), 0.0))
        .collect();
    let report = server.serve_stepped(requests);
    assert_eq!(report.len(), configs.len(), "{label}");
    for (i, config) in configs.iter().enumerate() {
        let served = &report.completion(i as u64).unwrap().output.record.tokens;
        let solo = solo_stepped(server.prepared(), config);
        assert_eq!(
            served, &solo,
            "{label}: request {i} diverged from its solo decode under fusion"
        );
    }
    assert!(
        report.mean_cohort_width() > 1.0,
        "{label}: stream never fused (width {})",
        report.mean_cohort_width()
    );
    report
}

/// The four PipeInfer layout variants: draft placement × micro-batch shape.
fn layout_variants() -> Vec<(&'static str, PipeInferConfig)> {
    vec![
        ("head-hosted/chain", PipeInferConfig::paper_default()),
        ("head-hosted/tree", PipeInferConfig::tree_micro()),
        ("dedicated/chain", PipeInferConfig::dedicated_draft_rank()),
        (
            "dedicated/tree",
            PipeInferConfig::tree_micro().with_placement(DraftPlacement::DedicatedRank),
        ),
    ]
}

#[test]
fn forest_batching_is_byte_identical_across_the_sim_matrix() {
    let configs = [gen(5, 12, 16), gen(9, 8, 12), gen(3, 10, 20), gen(7, 6, 8)];
    for (name, config) in layout_variants() {
        for pooled in [false, true] {
            let mut prepared =
                Deployment::new(PipeInferStrategy::new(config.clone())).prepare(&sim_mode(4), 4);
            if pooled {
                prepared = prepared.with_kv_pool(KvPagePool::new(KvPoolConfig {
                    tokens_per_page: 8,
                    n_pages: 256,
                }));
            }
            let kv = if pooled { "pooled" } else { "flat" };
            let server = Server::new(prepared, ServerConfig { max_in_flight: 8 });
            assert_fused_matches_solo(&server, &configs, &format!("sim/{name}/{kv}"));
        }
    }
}

#[test]
fn forest_batching_is_byte_identical_across_the_real_matrix() {
    // Real execution is the expensive half of the matrix: tiny models,
    // short streams, but every placement × shape × KV-backing cell.
    let configs = [gen(5, 6, 6), gen(9, 4, 8), gen(3, 5, 4)];
    for (name, config) in layout_variants() {
        for pooled in [false, true] {
            let mut prepared =
                Deployment::new(PipeInferStrategy::new(config.clone())).prepare(&real_mode(11), 4);
            if pooled {
                prepared = prepared.with_kv_pool(KvPagePool::new(KvPoolConfig {
                    tokens_per_page: 8,
                    n_pages: 128,
                }));
            }
            let kv = if pooled { "pooled" } else { "flat" };
            let server = Server::new(prepared, ServerConfig { max_in_flight: 8 });
            assert_fused_matches_solo(&server, &configs, &format!("real/{name}/{kv}"));
        }
    }
}

#[test]
fn synchronous_strategies_match_their_solo_runs_exactly() {
    // For the synchronous strategies the solo reference is stronger still:
    // the fused stream must equal `PreparedDeployment::run` itself, in both
    // execution modes.
    let sim_configs = [gen(5, 12, 16), gen(9, 8, 12), gen(3, 10, 20)];
    let real_configs = [gen(5, 6, 6), gen(9, 4, 8)];
    let strategies: Vec<(&str, Deployment)> = vec![
        ("iterative", Deployment::new(IterativeStrategy)),
        ("speculative", Deployment::new(SpeculativeStrategy)),
        ("tree", Deployment::new(TreeSpeculationStrategy::default())),
    ];
    for (name, deployment) in &strategies {
        for (mode, configs) in [
            (sim_mode(4), &sim_configs[..]),
            (real_mode(11), &real_configs[..]),
        ] {
            let n = match &mode {
                ExecutionMode::Sim { .. } => 4,
                ExecutionMode::Real { .. } => 2,
            };
            let prepared = deployment.prepare(&mode, n);
            let server = Server::new(prepared, ServerConfig { max_in_flight: 8 });
            let report = assert_fused_matches_solo(&server, configs, name);
            for (i, config) in configs.iter().enumerate() {
                let solo = server.prepared().run(config);
                assert_eq!(
                    report.completion(i as u64).unwrap().output.record.tokens,
                    solo.record.tokens,
                    "{name}: fused stream diverged from PreparedDeployment::run"
                );
            }
        }
    }
}

/// Audits one forest batch.  Groups are *supposed* to span lanes — that is
/// the fused GEMM — so the safety invariant is pairwise: within a group, a
/// later entry must never attend over an earlier entry's cell, which can
/// only happen between rows of the **same** lane (same KV cache) at
/// non-increasing positions over a shared sequence.  Cross-lane rows are
/// always independent; same-lane rows must keep the sequential order's
/// visibility.  The groups must also tile the batch exactly, in order.
fn audit_forest(forest: &pipeinfer::model::Batch) {
    let entries = forest.entries();
    let mut next = 0;
    for group in forest.level_groups() {
        assert!(!group.is_empty());
        assert_eq!(group.start, next, "groups must tile the batch");
        next = group.end;
        for (off, late) in entries[group.clone()].iter().enumerate().skip(1) {
            for early in &entries[group.start..group.start + off] {
                let conflict = late.lane == early.lane
                    && late.pos <= early.pos
                    && late.seq_ids.iter().any(|s| early.seq_ids.contains(s));
                assert!(
                    !conflict,
                    "group {group:?}: row at pos {} (lane {}) would see the \
                     not-yet-stored cell at pos {} of its own sequence",
                    late.pos, late.lane, early.pos
                );
            }
        }
    }
    assert_eq!(next, entries.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random join/leave schedules: arrivals, lengths and budgets drawn at
    /// random, served through the fused step loop with a bounded window so
    /// requests genuinely join and leave mid-stream.  Every request's
    /// stream must equal its solo-stepped decode.
    #[test]
    fn prop_random_join_leave_schedules_never_mix_streams(
        n_requests in 2usize..7,
        window in 2usize..5,
        mean_gap in 0.05f64..2.0,
        seed in 0u64..40,
    ) {
        let workload = MixedWorkload {
            base: gen(5, 12, 12),
            n_requests,
            mean_interarrival: mean_gap,
            prompt_len: (4, 16),
            n_generate: (4, 16),
            seed,
        };
        let requests = workload.generate();
        let prepared = Deployment::new(SpeculativeStrategy).prepare(&sim_mode(4), 4);
        let server = Server::new(prepared, ServerConfig { max_in_flight: window });
        let fused = server.serve_stepped(requests.clone());
        for req in &requests {
            let solo = solo_stepped(server.prepared(), &req.gen);
            let f = &fused.completion(req.id).unwrap().output.record.tokens;
            prop_assert_eq!(f, &solo, "request {} fused != solo", req.id);
        }
    }

    /// Randomly fused forest batches: each lane gets a random decode-shaped
    /// sub-batch (pending token plus draft chain at a random base position
    /// with branch sequences).  Fusing must preserve every row's lane and
    /// sequence ids verbatim, the chain forest must collapse into a single
    /// fused group, and the per-entry visibility audit must hold.
    #[test]
    fn prop_level_groups_never_mix_rows_across_lanes(
        widths in proptest::collection::vec(1usize..6, 1..6),
        start_pos in 0i32..50,
    ) {
        use pipeinfer::model::Batch;
        let mut subs: Vec<Batch> = Vec::new();
        let mut forest = Batch::new();
        for (lane, &w) in widths.iter().enumerate() {
            let mut sub = Batch::new();
            let base = start_pos + lane as i32;
            sub.push(1 + lane as Token, base, vec![0], true);
            for d in 0..w {
                let seqs = if d % 2 == 0 { vec![0] } else { vec![0, 1 + d as u32] };
                sub.push(2 + d as Token, base + 1 + d as i32, seqs, true);
            }
            forest.append_lane(&sub, lane);
            subs.push(sub);
        }
        prop_assert_eq!(forest.lane_count(), widths.len());
        audit_forest(&forest);
        // Per-lane chains have strictly increasing positions, so the whole
        // forest must fuse into one cross-request group — the single GEMM.
        prop_assert_eq!(forest.level_groups().len(), 1);
        // Per-entry sequence-id audit: each lane's rows come back verbatim —
        // fusion never reassigns a row to another request's lane or seqs.
        for (lane, sub) in subs.iter().enumerate() {
            let rows: Vec<_> = forest
                .entries()
                .iter()
                .filter(|e| e.lane == lane)
                .map(|e| (e.token, e.pos, e.seq_ids.clone()))
                .collect();
            let expect: Vec<_> = sub
                .entries()
                .iter()
                .map(|e| (e.token, e.pos, e.seq_ids.clone()))
                .collect();
            prop_assert_eq!(rows, expect, "lane {} rows were remixed", lane);
        }
    }
}
