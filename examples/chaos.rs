//! Chaos demo: deterministic fault injection against the Fig. 3 deployment
//! on the discrete-event simulator.
//!
//! Three runs of the same dedicated-draft-rank deployment, same seeds
//! throughout: a fault-free baseline, a run whose draft rank is killed
//! mid-generation (the head times out, retries with backoff, then fails
//! over to its local fallback drafter), and a run whose draft path drops,
//! delays, duplicates and reorders messages.  Every run must emit the
//! byte-identical token stream — faults cost time, never correctness.
//!
//! ```text
//! cargo run --release --example chaos
//! ```

use pipeinfer::core::DRAFT_RANK;
use pipeinfer::prelude::*;

#[path = "util/mod.rs"]
mod util;
use util::n_generate;

fn main() {
    // 1. The paper's Fig. 3 layout on simulated cluster C: rank 0 heads,
    //    rank 1 drafts off-route, ranks 2-5 hold the target pipeline.
    let n_nodes = 6;
    let mode = ExecutionMode::Sim {
        pair: ModelPair::goliath_xwin7b(),
        cluster: ClusterSpec::cluster_c(n_nodes),
        oracle_seed: 2024,
    };
    let config = PipeInferConfig {
        draft_deadline_s: 0.5,
        draft_backoff_s: 0.01,
        ..PipeInferConfig::dedicated_draft_rank()
    };
    let deployment = Deployment::new(PipeInferStrategy::new(config));
    let prepared = deployment.prepare(&mode, n_nodes);
    let gen = GenConfig {
        prompt: vec![5; 32],
        n_generate: n_generate(48),
        max_draft: 4,
        confidence_cutoff: 0.4,
        kv_capacity: 8192,
    };

    // 2. Fault-free baseline.
    let clean = prepared.run(&gen);
    assert!(clean.completed);
    let run_faulted = |faults: FaultPlan| {
        let options = RunOptions {
            faults: Some(faults),
            ..RunOptions::default()
        };
        prepared
            .run_with(&gen, options)
            .expect("no pool to refuse admission")
    };

    // 3. Kill the draft rank a third of the way in.
    let kill_plan = FaultPlan::seeded(0xC4A05).kill_at(DRAFT_RANK, clean.stats.total_time * 0.3);
    let killed = run_faulted(kill_plan);

    // 4. Degrade the whole draft path instead: 30% loss head-ward, plus
    //    delays, duplicates and reorders both ways.
    let lossy_plan = FaultPlan::seeded(0xBADCAB1E)
        .on_path(
            0,
            DRAFT_RANK,
            LinkFaults::delay(0.4, 0.005, 0.05)
                .and_duplicate(0.2)
                .and_reorder(0.2, 0.02),
        )
        .on_link(DRAFT_RANK, 0, LinkFaults::drop(0.3));
    let lossy = run_faulted(lossy_plan);

    for (name, out) in [
        ("fault-free", &clean),
        ("draft rank killed", &killed),
        ("lossy draft path", &lossy),
    ] {
        assert!(out.completed, "{name} run did not halt cleanly");
        println!(
            "{name:>18}: {:5.2} tok/s | {:2} faults injected | {:2} draft timeouts | \
             {:2} retries | {} failover(s)",
            out.record.generation_speed(),
            out.stats.total_faults_injected(),
            out.stats.total_draft_timeouts(),
            out.stats.total_draft_retries(),
            out.stats.total_failovers(),
        );
    }

    // 5. The invariant the recovery design guarantees: no fault schedule
    //    changes the verified token stream.
    assert_eq!(
        killed.record.tokens, clean.record.tokens,
        "draft-rank failover must not change the stream"
    );
    assert_eq!(
        lossy.record.tokens, clean.record.tokens,
        "a degraded draft path must not change the stream"
    );
    assert!(
        killed.stats.total_failovers() >= 1,
        "the killed run must fail over to the local fallback drafter"
    );
    println!(
        "\nall three runs emitted the identical {}-token stream",
        clean.record.tokens.len()
    );
}
