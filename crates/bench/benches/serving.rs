//! Serving-layer benchmark: goodput and latency percentiles per strategy
//! under identical steady / bursty / mixed traffic, the Fig. 3 draft-rank
//! layout study, plus the tree-vs-linear and draft-rank regression gates.
//!
//! Run with `cargo bench -p pi-bench --bench serving`.  By default the quick
//! profile is used; set `PIPEINFER_BENCH_SCALE=paper` for a longer stream
//! with the paper's token budgets.  Each strategy owns one prepared
//! deployment and serves the same request streams through the
//! continuous-batching `pi-serve` scheduler on the discrete-event simulator.
//! With `PIPEINFER_BENCH_ASSERT=1` the run fails unless (a) tree speculation
//! beats linear speculation in accepted-tokens-per-verify, (b) the
//! dedicated-draft-rank layout clears at least head-hosted
//! accepted-tokens-per-second, both on the seeded 52 %-acceptance stream,
//! (c) asynchronous speculation beats synchronous verification at the
//! high-latency end of the link-latency/jitter sweep, (d) prefix sharing
//! cuts TTFT and sustains a larger refusal-free window, and (e)
//! iteration-level cohort batching beats the same step loop one request at
//! a time on goodput while forming real cohorts (the CI regression gates).

use pi_bench::{
    cohort_batching_gate_of, draft_rank_gate_of, fig_cohort_batching, fig_draft_rank,
    fig_latency_sweep, fig_serving, fig_shared_prefix, latency_tolerance_gate_of,
    tree_vs_linear_gate, BenchScale, CohortBatchingGate, ServingScale, SharedPrefixGate,
    LATENCY_MULTIPLIERS,
};
use pi_metrics::Figure;
use std::time::Instant;

/// Where the machine-readable results go: the workspace root, next to
/// `BENCH_kernels.json`.
const JSON_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serving.json");

/// Flattens every figure's data points plus the shared-prefix gate numbers
/// into `BENCH_serving.json`.
fn write_json(figures: &[&Figure], gate: &SharedPrefixGate, cohort: &CohortBatchingGate) {
    let mut rows: Vec<String> = Vec::new();
    for fig in figures {
        for point in fig.points() {
            rows.push(format!(
                "  {{\"figure\": \"{}\", \"series\": \"{}\", \"metric\": \"{}\", \"value\": {:.6}}}",
                fig.id, point.series, point.x, point.value
            ));
        }
    }
    for (metric, value) in [
        ("ttft p50 pooled s", gate.pooled_ttft_p50),
        ("ttft p50 flat s", gate.flat_ttft_p50),
        ("prefix hit rate", gate.prefix_hit_rate),
        ("max window shared", gate.shared_max_window as f64),
        ("max window unshared", gate.unshared_max_window as f64),
        ("pool pages", gate.pool_pages as f64),
    ] {
        rows.push(format!(
            "  {{\"figure\": \"shared-prefix gate\", \"series\": \"paged kv pool\",              \"metric\": \"{metric}\", \"value\": {value:.6}}}"
        ));
    }
    for (metric, value) in [
        ("goodput fused tok/s", cohort.fused_goodput),
        ("goodput window-1 tok/s", cohort.window1_goodput),
        ("mean cohort width", cohort.mean_cohort_width),
    ] {
        rows.push(format!(
            "  {{\"figure\": \"cohort-batching gate\", \"series\": \"step loop\", \"metric\": \"{metric}\", \"value\": {value:.6}}}"
        ));
    }
    let out = format!("[\n{}\n]\n", rows.join(",\n"));
    match std::fs::write(JSON_PATH, out) {
        Ok(()) => println!("\nwrote {}", JSON_PATH),
        Err(e) => eprintln!("\nfailed to write {}: {e}", JSON_PATH),
    }
}

fn main() {
    let scale = BenchScale::from_env();
    let serving = ServingScale::from(scale);
    println!(
        "PipeInfer serving harness — {} requests/workload, {} tokens/request, window {}, {} nodes\n",
        serving.n_requests, serving.n_generate, serving.max_in_flight, serving.n_nodes
    );
    let start = Instant::now();
    let serving_figs = fig_serving(scale);
    for fig in &serving_figs {
        println!("{}", fig.render());
    }
    let layout_fig = fig_draft_rank(scale);
    println!("{}", layout_fig.render());
    let assert_gates = std::env::var_os("PIPEINFER_BENCH_ASSERT").is_some();
    let (tree, linear) = tree_vs_linear_gate(scale);
    println!(
        "tree-speculation gate (Goliath + XWin-7B, mixed lengths): \
         tree {tree:.3} vs linear {linear:.3} accepted-tokens-per-verify"
    );
    if assert_gates {
        assert!(
            tree > linear,
            "tree speculation ({tree:.3} tok/verify) must beat linear \
             speculation ({linear:.3}) on the seeded workload"
        );
        println!("PIPEINFER_BENCH_ASSERT: tree > linear — OK");
    }
    let (dedicated, head_hosted) = draft_rank_gate_of(&layout_fig);
    println!(
        "draft-rank gate (Goliath + XWin-7B, mixed lengths): \
         dedicated {dedicated:.3} vs head-hosted {head_hosted:.3} accepted-tokens-per-second"
    );
    if assert_gates {
        assert!(
            dedicated >= head_hosted,
            "the dedicated draft rank ({dedicated:.3} tok/s) must not fall behind \
             head-hosted drafting ({head_hosted:.3} tok/s) on the seeded workload"
        );
        println!("PIPEINFER_BENCH_ASSERT: dedicated >= head-hosted — OK");
    }
    let sweep_fig = fig_latency_sweep(scale);
    println!("{}", sweep_fig.render());
    let (pipe, spec) = latency_tolerance_gate_of(&sweep_fig);
    println!(
        "latency-tolerance gate (Goliath + XWin-7B, {}x link latency): \
         PipeInfer {pipe:.3} vs Speculative {spec:.3} tokens/s",
        LATENCY_MULTIPLIERS[LATENCY_MULTIPLIERS.len() - 1]
    );
    if assert_gates {
        assert!(
            pipe > spec,
            "asynchronous speculation ({pipe:.3} tok/s) must beat synchronous \
             verification ({spec:.3} tok/s) at the high-latency end of the sweep"
        );
        println!("PIPEINFER_BENCH_ASSERT: async > sync on slow links — OK");
    }
    let (prefix_fig, prefix_gate) = fig_shared_prefix(scale);
    println!("{}", prefix_fig.render());
    println!(
        "shared-prefix gate (90 % shared system prompt, paged KV pool): \
         ttft p50 {:.4} s pooled vs {:.4} s flat | prefix hit rate {:.0} % | \
         max refusal-free window {} shared vs {} unshared at {} pages",
        prefix_gate.pooled_ttft_p50,
        prefix_gate.flat_ttft_p50,
        prefix_gate.prefix_hit_rate * 100.0,
        prefix_gate.shared_max_window,
        prefix_gate.unshared_max_window,
        prefix_gate.pool_pages,
    );
    if assert_gates {
        assert!(
            prefix_gate.pooled_ttft_p50 < prefix_gate.flat_ttft_p50,
            "prefix sharing ({:.4} s p50 TTFT) must beat flat prefill ({:.4} s) \
             on the 90 %-shared stream",
            prefix_gate.pooled_ttft_p50,
            prefix_gate.flat_ttft_p50,
        );
        assert!(
            prefix_gate.shared_max_window > prefix_gate.unshared_max_window,
            "shared-prefix traffic must sustain a larger refusal-free window \
             ({}) than unshared traffic ({}) at {} pages",
            prefix_gate.shared_max_window,
            prefix_gate.unshared_max_window,
            prefix_gate.pool_pages,
        );
        println!("PIPEINFER_BENCH_ASSERT: shared-prefix TTFT + window — OK");
    }
    let (cohort_fig, _) = fig_cohort_batching(scale);
    println!("{}", cohort_fig.render());
    let cohort_gate = cohort_batching_gate_of(&cohort_fig);
    println!(
        "cohort-batching gate (steady 8-request stream, identical traffic): \
         fused {:.3} vs window-1 {:.3} tok/s goodput | mean cohort width {:.2}",
        cohort_gate.fused_goodput, cohort_gate.window1_goodput, cohort_gate.mean_cohort_width,
    );
    if assert_gates {
        assert!(
            cohort_gate.fused_goodput > cohort_gate.window1_goodput,
            "iteration-level batching ({:.3} tok/s) must beat the same loop one \
             request at a time ({:.3} tok/s) on the steady stream",
            cohort_gate.fused_goodput,
            cohort_gate.window1_goodput,
        );
        assert!(
            cohort_gate.mean_cohort_width > 2.0,
            "the steady stream must form real cohorts (mean width {:.2} <= 2)",
            cohort_gate.mean_cohort_width,
        );
        println!("PIPEINFER_BENCH_ASSERT: fused > window 1, width > 2 — OK");
    }
    let mut json_figs: Vec<&Figure> = serving_figs.iter().collect();
    json_figs.push(&layout_fig);
    json_figs.push(&sweep_fig);
    json_figs.push(&prefix_fig);
    json_figs.push(&cohort_fig);
    write_json(&json_figs, &prefix_gate, &cohort_gate);
    eprintln!("[{:6.1?}] serving figures done", start.elapsed());
}
