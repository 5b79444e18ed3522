//! Chaos tests of the asynchronous speculation path (ISSUE 8): seeded fault
//! schedules against the discrete-event simulator must never change the
//! emitted token stream.
//!
//! The invariant under test is the one PipeInfer's recovery design rests
//! on: verified tokens come only from the head's seeded target oracle, the
//! local fallback drafter is constructed identically to the remote draft
//! rank's, and a head with no viable drafter degrades to non-speculative
//! pipelined decoding — so drops, delays, duplicates, reorders, stragglers
//! and even killing the dedicated draft rank mid-generation can slow a run
//! down but never alter (or truncate) its output.  Schedules are seeded,
//! so every case replays bit-identically — including its trace.

use pipeinfer::core::DRAFT_RANK;
use pipeinfer::prelude::*;
use pipeinfer::trace::EventKind;
use proptest::prelude::*;

fn sim(n: usize, seed: u64) -> ExecutionMode {
    ExecutionMode::Sim {
        pair: ModelPair::goliath_xwin7b(),
        cluster: ClusterSpec::cluster_c(n),
        oracle_seed: seed,
    }
}

/// One run of `cfg` under `faults`.  No pool is attached, so nothing can
/// refuse it.
fn run_faulted(
    prepared: &PreparedDeployment,
    cfg: &GenConfig,
    faults: FaultPlan,
    trace: Option<TraceConfig>,
) -> RunOutput {
    let options = RunOptions {
        trace,
        faults: Some(faults),
    };
    prepared
        .run_with(cfg, options)
        .expect("no pool to refuse admission")
}

fn gen(n_generate: usize) -> GenConfig {
    GenConfig {
        prompt: vec![9; 24],
        n_generate,
        max_draft: 4,
        confidence_cutoff: 0.4,
        kv_capacity: 8192,
    }
}

/// A dedicated-draft-rank deployment with recovery knobs tight enough that
/// a dead draft rank fails over well inside a short simulated run.
fn dedicated(tree: bool) -> Deployment {
    let base = if tree {
        PipeInferConfig::tree_micro().with_placement(DraftPlacement::DedicatedRank)
    } else {
        PipeInferConfig::dedicated_draft_rank()
    };
    Deployment::new(PipeInferStrategy::new(PipeInferConfig {
        draft_deadline_s: 0.5,
        draft_backoff_s: 0.01,
        ..base
    }))
}

fn oracle_truth(oracle_seed: u64, prompt: &[u32], n: usize) -> Vec<u32> {
    let vocab = ModelPair::goliath_xwin7b().target.cfg.vocab_size as u32;
    pipeinfer::model::OracleTarget::new(oracle_seed, vocab).generate(prompt, n)
}

#[test]
fn killing_the_draft_rank_mid_stream_fails_over_and_preserves_the_stream() {
    let cfg = gen(32);
    let prepared = dedicated(false).prepare(&sim(6, 11), 6);
    let clean = prepared.run(&cfg);
    assert!(clean.completed);

    // Kill the dedicated draft rank a third of the way into the run.
    let t_kill = clean.stats.total_time * 0.3;
    assert!(t_kill > 0.0);
    let plan = FaultPlan::seeded(0xC4A05).kill_at(DRAFT_RANK, t_kill);
    let faulted = run_faulted(&prepared, &cfg, plan, Some(TraceConfig::default()));

    assert!(
        faulted.completed,
        "the survivors must finish without rank 1"
    );
    assert_eq!(
        faulted.record.tokens, clean.record.tokens,
        "the failover changed the token stream"
    );
    assert!(
        faulted.stats.total_failovers() >= 1,
        "the head never failed over to its local fallback drafter"
    );
    let trace = faulted.trace.expect("traced run must carry a trace");
    assert!(
        trace
            .events()
            .iter()
            .any(|e| matches!(e.kind, EventKind::DraftFailover { .. })),
        "the failover must be visible as a draft_failover trace event"
    );
    assert!(
        trace
            .events()
            .iter()
            .any(|e| matches!(e.kind, EventKind::RankKilled)),
        "the kill must be visible as a rank_killed trace event"
    );
}

#[test]
fn fully_dropped_draft_links_degrade_without_deadlock_or_divergence() {
    // 100% loss in both directions between the head and the draft rank:
    // every draft transaction times out, the head fails over to its local
    // fallback, and the orphaned draft rank shuts itself down instead of
    // waiting forever for a Shutdown that can never arrive.
    let cfg = gen(24);
    for tree in [false, true] {
        let prepared = dedicated(tree).prepare(&sim(6, 23), 6);
        let clean = prepared.run(&cfg);
        let plan = FaultPlan::seeded(7).on_path(0, DRAFT_RANK, LinkFaults::drop_all());
        let faulted = run_faulted(&prepared, &cfg, plan, None);
        assert!(faulted.completed, "tree={tree}: the run must halt cleanly");
        assert_eq!(
            faulted.record.tokens, clean.record.tokens,
            "tree={tree}: a black-holed draft path changed the stream"
        );
        assert!(faulted.stats.total_failovers() >= 1, "tree={tree}");
        assert!(faulted.stats.total_draft_timeouts() >= 1, "tree={tree}");
    }
}

#[test]
fn fault_schedules_replay_bit_identically() {
    // One schedule exercising the full fault vocabulary: lossy, slow,
    // duplicating, reordering draft links, a straggler pause on the last
    // pipeline rank and a draft-rank kill.  Replaying it must reproduce
    // the run bit-for-bit, trace included.
    let cfg = gen(24);
    let prepared = dedicated(false).prepare(&sim(6, 31), 6);
    let plan = || {
        FaultPlan::seeded(0xD1CE)
            .on_path(
                0,
                DRAFT_RANK,
                LinkFaults::delay(0.4, 0.005, 0.05)
                    .and_duplicate(0.2)
                    .and_reorder(0.2, 0.02),
            )
            .on_link(DRAFT_RANK, 0, LinkFaults::drop(0.3))
            .pause(5, 1.0, 2.0)
            .kill_at(DRAFT_RANK, 6.0)
    };
    let a = run_faulted(&prepared, &cfg, plan(), Some(TraceConfig::default()));
    let b = run_faulted(&prepared, &cfg, plan(), Some(TraceConfig::default()));
    assert_eq!(a.record.tokens, b.record.tokens);
    assert_eq!(a.record.finished_at, b.record.finished_at);
    assert_eq!(a.stats.total_bytes(), b.stats.total_bytes());
    assert_eq!(
        a.stats.total_faults_injected(),
        b.stats.total_faults_injected()
    );
    let log_a = a.trace.expect("trace").to_log();
    let log_b = b.trace.expect("trace").to_log();
    assert!(!log_a.is_empty());
    assert_eq!(log_a, log_b, "same schedule, different trace");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Whatever seeded fault schedule degrades the draft path — message
    /// loss, delay, duplication, reordering, with or without killing the
    /// draft rank outright — the token stream stays byte-identical to the
    /// fault-free run (the target oracle's greedy continuation), across
    /// chain and tree micro-batch layouts and oracle seeds.
    #[test]
    fn prop_faulted_streams_are_byte_identical(
        drop_p in 0.0f64..0.8,
        delay_p in 0.0f64..0.8,
        dup_p in 0.0f64..0.5,
        reorder_p in 0.0f64..0.5,
        kill in proptest::bool::ANY,
        tree in proptest::bool::ANY,
        fault_seed in 0u64..1000,
        oracle_seed in 0u64..50,
    ) {
        let cfg = gen(20);
        let prepared = dedicated(tree).prepare(&sim(6, oracle_seed), 6);
        let clean = prepared.run(&cfg);
        prop_assert!(clean.completed);
        let truth = oracle_truth(oracle_seed, &cfg.prompt, 28);
        prop_assert_eq!(&clean.record.tokens[..20], &truth[1..21]);

        let faults = LinkFaults::delay(delay_p, 0.001, 0.08)
            .and_duplicate(dup_p)
            .and_reorder(reorder_p, 0.05);
        let mut plan = FaultPlan::seeded(fault_seed)
            .on_path(0, DRAFT_RANK, faults)
            .on_link(DRAFT_RANK, 0, LinkFaults::drop(drop_p));
        if kill {
            plan = plan.kill_at(DRAFT_RANK, clean.stats.total_time * 0.4);
        }
        let faulted = run_faulted(&prepared, &cfg, plan, None);
        prop_assert!(faulted.completed, "chaos run did not halt cleanly");
        prop_assert_eq!(
            &faulted.record.tokens,
            &clean.record.tokens,
            "fault schedule changed the stream (kill={}, tree={})",
            kill,
            tree
        );
    }
}

#[test]
fn duplicated_run_results_never_change_the_stream() {
    // The last stage's link back to the head delivers some results twice.
    // Results return in dispatch order, so the second copy names a run the
    // head has already absorbed: it must be ignored, not verified again
    // (against the next run's bookkeeping) and not mistaken for an ordering
    // violation.
    let cfg = gen(24);
    let strategies: [(&str, Deployment); 4] = [
        ("iterative", Deployment::new(IterativeStrategy)),
        ("speculative", Deployment::new(SpeculativeStrategy)),
        (
            "pipeinfer chain",
            Deployment::new(PipeInferStrategy::default()),
        ),
        (
            "pipeinfer tree",
            Deployment::new(PipeInferStrategy::new(PipeInferConfig::tree_micro())),
        ),
    ];
    for (name, deployment) in strategies {
        let prepared = deployment.prepare(&sim(4, 19), 4);
        let clean = prepared.run(&cfg);
        assert!(clean.completed, "{name}");
        let plan =
            FaultPlan::seeded(7).on_link(3, 0, LinkFaults::delay(0.0, 0.0, 0.0).and_duplicate(0.3));
        let faulted = run_faulted(&prepared, &cfg, plan, None);
        assert!(faulted.completed, "{name}: the run must halt cleanly");
        assert!(
            faulted.stats.total_faults_injected() > 0,
            "{name}: the schedule must duplicate something"
        );
        assert_eq!(
            faulted.record.tokens, clean.record.tokens,
            "{name}: a duplicated result changed the stream"
        );
    }
}
