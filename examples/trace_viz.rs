//! Cross-rank trace visualisation: run the four PipeInfer layouts
//! (head-hosted vs dedicated draft rank × chain vs tree speculation) on the
//! simulated Goliath-120B + Xwin-7B pair (the paper's ~52%-acceptance
//! stream), record a structured event trace of every run, account for
//! pipeline bubbles per rank, and export everything as one Chrome
//! trace-event JSON file loadable in <https://ui.perfetto.dev>.
//!
//! ```text
//! cargo run --release --example trace_viz
//! # then open target/trace_viz/pipeinfer.trace.json in ui.perfetto.dev
//! ```
//!
//! Each layout becomes one Perfetto *process* (pid) with one *thread* per
//! rank, so the four timelines sit side by side in the UI.  Below the span
//! tracks, a per-rank "bubble" counter track plots busy=0 / blocked=1 /
//! idle=2 over time.  The printed tables are the same data in text form.

use pipeinfer::prelude::*;
use pipeinfer::trace::validate_json;
use pipeinfer_core::DraftPlacement;

#[path = "util/mod.rs"]
mod util;
use util::n_generate;

fn main() {
    // The paper's lowest-alignment pair: Goliath-120B target with Xwin-7B
    // draft (~52% acceptance), on four nodes of cluster C.  Low acceptance
    // is where cancellations — and therefore bubbles — actually happen.
    let n_nodes = 4;
    let mode = ExecutionMode::Sim {
        pair: ModelPair::goliath_xwin7b(),
        cluster: ClusterSpec::cluster_c(n_nodes),
        oracle_seed: 42,
    };
    let gen = GenConfig {
        prompt: vec![7; 64],
        n_generate: n_generate(96),
        max_draft: 4,
        confidence_cutoff: 0.4,
        kv_capacity: 8192,
    };

    // Four layouts: chain vs tree speculation, head-hosted vs dedicated
    // draft rank.  Under the dedicated layouts rank 1 serves drafts and the
    // target pipeline is ranks 2..4; head-hosted keeps ranks 1..4 on the
    // target.
    let layouts: [(&str, PipeInferConfig, Vec<u32>); 4] = [
        (
            "head-hosted chain",
            PipeInferConfig::paper_default(),
            vec![1, 2, 3],
        ),
        (
            "dedicated chain",
            PipeInferConfig::dedicated_draft_rank(),
            vec![2, 3],
        ),
        (
            "head-hosted tree",
            PipeInferConfig::tree_micro(),
            vec![1, 2, 3],
        ),
        (
            "dedicated tree",
            PipeInferConfig::tree_micro().with_placement(DraftPlacement::DedicatedRank),
            vec![2, 3],
        ),
    ];

    let mut perfetto = PerfettoTrace::new();
    let mut pipeline_bubbles = Vec::new();
    for (pid, (name, config, pipeline_ranks)) in layouts.iter().enumerate() {
        let prepared =
            Deployment::new(PipeInferStrategy::new(config.clone())).prepare(&mode, n_nodes);
        let out = prepared.run_traced(&gen, TraceConfig::default());
        assert!(out.completed, "{name} run did not complete");
        let trace = out.trace.as_ref().expect("run_traced must attach a trace");

        let report = BubbleReport::analyze(trace);
        let pipeline_bubble = report.mean_bubble_fraction_of(pipeline_ranks);
        pipeline_bubbles.push((*name, pipeline_bubble));

        println!(
            "=== {name}: {:.1} tok/s, {} events, pipeline-rank bubble {:.1}% ===",
            out.record.generation_speed(),
            trace.events().len(),
            pipeline_bubble * 100.0
        );
        println!("{}", report.render());

        let pid = pid as u32 + 1;
        perfetto.push(pid, name, trace);
        perfetto.push_bubbles(pid, &report);
    }

    // One JSON document with all four layouts; validate the schema the same
    // way CI does before declaring it loadable.
    let json = perfetto.to_json();
    let n_slices = validate_json(&json).expect("exported trace must be schema-valid");
    let dir = std::path::Path::new("target/trace_viz");
    std::fs::create_dir_all(dir).expect("create target/trace_viz");
    let path = dir.join("pipeinfer.trace.json");
    std::fs::write(&path, &json).expect("write trace json");
    println!(
        "wrote {} ({} bytes, {n_slices} complete slices) — open it in https://ui.perfetto.dev",
        path.display(),
        json.len()
    );

    // The Fig. 3 claim in bubble terms: moving drafting off the pipeline
    // keeps the target ranks busier on the low-acceptance stream.
    let frac = |name: &str| {
        pipeline_bubbles
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, f)| *f)
            .unwrap()
    };
    println!(
        "pipeline-rank bubble fraction: head-hosted chain {:.1}% vs dedicated chain {:.1}%",
        frac("head-hosted chain") * 100.0,
        frac("dedicated chain") * 100.0
    );
}
