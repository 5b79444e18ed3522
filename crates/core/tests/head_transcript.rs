//! `PipeInferHead` behaviour pin: every observable of a simulated run — the
//! cross-rank trace, event by event, and the generation record — reduced to
//! one hash per case.
//!
//! The constants were captured on the single-struct `PipeInferHead` (commit
//! 16a0f59) before it was split into `AsyncRounds`, `RemoteDraft` and the
//! thin head, and must not move: a reordered `elapse`, cache op, cancel
//! signal or draft request changes a timestamp or the event order and fails
//! here, where the token-identity tests cannot see it (what the 17
//! `sync_head_wire_transcript_matches_parent` hashes are to `SyncHead`).

use pi_cluster::{FaultPlan, LinkFaults, TraceConfig};
use pi_perf::{ClusterSpec, ModelPair};
use pi_spec::deploy::{Deployment, ExecutionMode, RunOptions};
use pi_spec::GenConfig;
use pipeinfer_core::{DraftPlacement, PipeInferConfig, PipeInferStrategy, DRAFT_RANK};

/// FNV-1a over bytes.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn words(&mut self, ws: impl IntoIterator<Item = u64>) {
        for w in ws {
            self.bytes(&w.to_le_bytes());
        }
    }
}

/// Runs `config` on `n_nodes` simulated cluster-C nodes under `faults` with a
/// recorder attached and hashes the ordered trace log (one line per event:
/// timestamp, rank, kind and every field; `f64`'s `Debug` form round-trips,
/// so distinct time bits give distinct lines) followed by the whole record.
fn transcript(
    pair: ModelPair,
    n_nodes: usize,
    config: PipeInferConfig,
    faults: Option<FaultPlan>,
) -> u64 {
    let mode = ExecutionMode::Sim {
        pair,
        cluster: ClusterSpec::cluster_c(n_nodes),
        oracle_seed: 42,
    };
    let gen = GenConfig {
        prompt: vec![7; 24],
        n_generate: 48,
        max_draft: 4,
        confidence_cutoff: 0.4,
        kv_capacity: 4096,
    };
    let options = RunOptions {
        trace: Some(TraceConfig::default()),
        faults,
    };
    let out = Deployment::new(PipeInferStrategy::new(config))
        .prepare(&mode, n_nodes)
        .run_with(&gen, options)
        .expect("no pool to refuse admission");
    assert!(out.completed);
    let trace = out.trace.expect("traced run carries a trace");
    assert_eq!(trace.dropped_total(), 0, "the ring must hold the whole run");
    let r = &out.record;
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.bytes(trace.to_log().as_bytes());
    h.words(r.tokens.iter().map(|&t| u64::from(t)));
    h.words(r.accept_times.iter().map(|t| t.to_bits()));
    h.words([r.prompt_done_at.to_bits(), r.finished_at.to_bits()]);
    h.words(
        [
            r.drafted,
            r.accepted_drafts,
            r.runs_launched,
            r.runs_cancelled,
            r.runs_rescued,
            r.draft_requests,
            r.draft_stale,
            r.draft_salvaged,
            r.tree_rounds,
            r.tree_nodes,
            r.tree_accepted_path,
        ]
        .map(|c| c as u64),
    );
    h.words(
        r.tree_shapes
            .iter()
            .flat_map(|&(w, d)| [w as u64, d as u64]),
    );
    h.0
}

#[test]
fn pipeinfer_head_transcript_matches_parent() {
    let dedicated = |c: PipeInferConfig| c.with_placement(DraftPlacement::DedicatedRank);
    let goliath = ModelPair::goliath_xwin7b;
    let dolphin = ModelPair::dolphin_tinyllama;
    let falcon = ModelPair::falcon_7b;
    let chain = PipeInferConfig::paper_default;
    let tree = PipeInferConfig::tree_micro;
    let cases: [(&str, ModelPair, PipeInferConfig, u64); 14] = [
        (
            "goliath hosted chain",
            goliath(),
            chain(),
            0x9f24841ce8a09063,
        ),
        ("goliath hosted tree", goliath(), tree(), 0x740a2d52302c9d45),
        (
            "goliath dedicated chain",
            goliath(),
            dedicated(chain()),
            0xc0f30033e43b8af7,
        ),
        (
            "goliath dedicated tree",
            goliath(),
            dedicated(tree()),
            0xb5a3e2dae1759d69,
        ),
        (
            "dolphin hosted chain",
            dolphin(),
            chain(),
            0x5ca0e78d3ed62028,
        ),
        ("dolphin hosted tree", dolphin(), tree(), 0x164149998898a4aa),
        (
            "dolphin dedicated chain",
            dolphin(),
            dedicated(chain()),
            0x2780cd0dbee27f75,
        ),
        (
            "dolphin dedicated tree",
            dolphin(),
            dedicated(tree()),
            0x62bc692e5675c3e1,
        ),
        ("falcon hosted chain", falcon(), chain(), 0xf903f43fa398323e),
        ("falcon hosted tree", falcon(), tree(), 0x43ab44215a5e908b),
        (
            "falcon dedicated chain",
            falcon(),
            dedicated(chain()),
            0x911e6cfdad73c484,
        ),
        (
            "falcon dedicated tree",
            falcon(),
            dedicated(tree()),
            0xa605f1d75d044803,
        ),
        (
            "goliath no cancellation",
            goliath(),
            PipeInferConfig::no_cancellation(),
            0xce993a9b13209f84,
        ),
        (
            "goliath no continuous speculation",
            goliath(),
            PipeInferConfig::no_continuous_speculation(),
            0x46b881c5ce78332d,
        ),
    ];
    let mut moved = Vec::new();
    for (name, pair, config, expected) in cases {
        let got = transcript(pair, 4, config, None);
        if got != expected {
            moved.push(format!("{name}: {got:#018x} (pinned {expected:#018x})"));
        }
    }
    assert!(moved.is_empty(), "transcripts moved:\n{}", moved.join("\n"));
}

/// The recovery ladder under seeded faults on the draft link (six ranks,
/// tight recovery knobs as in `tests/fault_properties.rs`): late, duplicated,
/// reordered and lost draft traffic, a straggler, a mid-run kill of the draft
/// rank, and a link that never delivers.  Timeouts, the seeded backoff, the
/// standing-refusal rule, salvage and the failover all leave events behind.
#[test]
fn pipeinfer_head_recovery_transcript_matches_parent() {
    let tight = |base: PipeInferConfig| PipeInferConfig {
        draft_deadline_s: 0.5,
        draft_backoff_s: 0.01,
        ..base.with_placement(DraftPlacement::DedicatedRank)
    };
    let chaos = || {
        let lossy = LinkFaults::delay(0.4, 0.005, 0.05)
            .and_duplicate(0.2)
            .and_reorder(0.2, 0.02);
        FaultPlan::seeded(0xD1CE)
            .on_path(0, DRAFT_RANK, lossy)
            .on_link(DRAFT_RANK, 0, LinkFaults::drop(0.3))
            .pause(5, 1.0, 2.0)
            .kill_at(DRAFT_RANK, 6.0)
    };
    let slow = || {
        let late = LinkFaults::delay(0.8, 0.05, 0.3).and_duplicate(0.3);
        FaultPlan::seeded(3).on_path(0, DRAFT_RANK, late)
    };
    let black_hole = || FaultPlan::seeded(7).on_path(0, DRAFT_RANK, LinkFaults::drop_all());
    let chain = PipeInferConfig::paper_default;
    let tree = PipeInferConfig::tree_micro;
    let cases: [(&str, PipeInferConfig, FaultPlan, u64); 6] = [
        ("chaos chain", tight(chain()), chaos(), 0x0784ae8032a1e572),
        ("chaos tree", tight(tree()), chaos(), 0x3c40f3ed2424caa3),
        (
            "slow link chain",
            tight(chain()),
            slow(),
            0x17a8c0982e5b41b4,
        ),
        ("slow link tree", tight(tree()), slow(), 0x4b1efeb4169ffd21),
        (
            "black hole chain",
            tight(chain()),
            black_hole(),
            0x4a0a270cab869190,
        ),
        (
            "black hole tree",
            tight(tree()),
            black_hole(),
            0x5cbc7196a94b0e19,
        ),
    ];
    let mut moved = Vec::new();
    for (name, config, faults, expected) in cases {
        let got = transcript(ModelPair::goliath_xwin7b(), 6, config, Some(faults));
        if got != expected {
            moved.push(format!("{name}: {got:#018x} (pinned {expected:#018x})"));
        }
    }
    assert!(moved.is_empty(), "transcripts moved:\n{}", moved.join("\n"));
}
