//! Regenerates every figure and table of the PipeInfer evaluation.
//!
//! Run with `cargo bench -p pi-bench --bench figures`.  By default a quick
//! profile (64 generated tokens per run) is used; set
//! `PIPEINFER_BENCH_SCALE=paper` for the paper's full 128-prompt/512-token
//! profile.  Output is the textual equivalent of the paper's bar charts.

use pi_bench::*;
use pi_metrics::Report;
use pi_perf::ModelPair;
use std::time::Instant;

fn main() {
    let scale = BenchScale::from_env();
    println!(
        "PipeInfer evaluation harness — prompt {} tokens, {} generated tokens per run\n",
        scale.prompt_len, scale.n_generate
    );

    println!(
        "{}",
        table_model_pairs(&ModelPair::table1(), "Table I: CPU model pairs")
    );
    println!(
        "{}",
        table_model_pairs(&ModelPair::table3(), "Table III: GPU model pairs")
    );
    println!("{}", table_testbeds());

    let mut report = Report::new();
    let start = Instant::now();

    for f in fig_dolphin(scale) {
        report.insert(f);
    }
    eprintln!("[{:6.1?}] Dolphin sweeps done", start.elapsed());
    for f in fig_goliath(scale) {
        report.insert(f);
    }
    eprintln!("[{:6.1?}] Goliath sweeps done", start.elapsed());
    for f in fig_falcon(scale) {
        report.insert(f);
    }
    eprintln!("[{:6.1?}] Falcon sweeps done", start.elapsed());

    report.insert(fig7a_memory_efficiency(scale));
    report.insert(fig7b_constrained_ttft(scale));
    report.insert(fig7c_constrained_speed(scale));
    eprintln!(
        "[{:6.1?}] constrained-cluster figures done",
        start.elapsed()
    );
    report.insert(fig8_ablations(scale));
    report.insert(fig9_gpu_speed(scale));
    report.insert(fig10_prompt_variance(scale));
    eprintln!("[{:6.1?}] ablations + GPU figures done", start.elapsed());

    println!("{}", report.render());

    // Headline ratios the paper quotes in the abstract / §V-B.
    if let Some(fig4b) = report.figure("Fig. 4b") {
        if let Some(r) = fig4b.ratio("Pipe. (XWin-7B)", "Spec. (XWin-7B)", "8 Node") {
            println!(
                "PipeInfer / speculative speedup, Goliath + XWin-7B, 8 nodes: {r:.2}x (paper: up to 2.15x)"
            );
        }
    }
    if let Some(fig4a) = report.figure("Fig. 4a") {
        if let Some(r) = fig4a.ratio("Pipe. (TinyLlama)", "Spec. (TinyLlama)", "8 Node") {
            println!(
                "PipeInfer / speculative speedup, Dolphin + TinyLlama, 8 nodes: {r:.2}x (paper: ~1.5-1.7x)"
            );
        }
    }
    println!("\nTotal harness time: {:?}", start.elapsed());
}
