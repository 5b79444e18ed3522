//! # pi-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! PipeInfer evaluation (paper §V and §VI) on top of the discrete-event
//! cluster simulator.  Each `fig*` / `table*` function returns a
//! [`pi_metrics::Figure`] (or a rendered string for the static tables) that
//! the `figures` bench target prints in the same rows/series layout as the
//! paper; `EXPERIMENTS.md` records the comparison against the published
//! values.
//!
//! Scale is controlled by [`BenchScale`]: the default `quick` profile
//! generates 64 tokens per run so the whole suite completes in well under a
//! minute; `BenchScale::paper()` uses the paper's 128-token prompts and 512
//! generated tokens.

use pi_metrics::Figure;
use pi_perf::memory::{per_node_memory, speed_per_gb};
use pi_perf::{ClusterSpec, InferenceStrategy, ModelPair};
use pi_spec::deploy::{
    Deployment, ExecutionMode, IterativeStrategy, RunOptions, RunOutput, SpeculativeStrategy,
};
use pi_spec::{GenConfig, GenerationRecord, TreeSpeculationStrategy};
use pipeinfer_core::{run_pipeinfer, PipeInferConfig, PipeInferStrategy};

/// How much work each experiment run performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchScale {
    /// Prompt length in tokens.
    pub prompt_len: usize,
    /// Number of generated tokens per run.
    pub n_generate: usize,
}

impl BenchScale {
    /// Fast profile used by default and by the crate's tests.
    pub fn quick() -> Self {
        Self {
            prompt_len: 32,
            n_generate: 64,
        }
    }

    /// The paper's evaluation profile: 128-token prompts, 512 generated
    /// tokens.
    pub fn paper() -> Self {
        Self {
            prompt_len: 128,
            n_generate: 512,
        }
    }

    /// Reads the scale from the `PIPEINFER_BENCH_SCALE` environment variable
    /// (`"paper"` selects the full profile; anything else the quick one).
    pub fn from_env() -> Self {
        match std::env::var("PIPEINFER_BENCH_SCALE").as_deref() {
            Ok("paper") | Ok("full") => Self::paper(),
            _ => Self::quick(),
        }
    }
}

/// Deterministic seed used for every oracle in the harness.
pub const ORACLE_SEED: u64 = 2024;

/// Builds the prompt used by most experiments: a fixed-length pseudo-text
/// prompt derived from a tag so different prompts genuinely differ.
pub fn make_prompt(scale: BenchScale, tag: u64) -> Vec<u32> {
    (0..scale.prompt_len)
        .map(|i| ((i as u64 * 131 + tag * 977 + 7) % 29000) as u32 + 3)
        .collect()
}

fn gen_config(scale: BenchScale, tag: u64) -> GenConfig {
    GenConfig {
        prompt: make_prompt(scale, tag),
        n_generate: scale.n_generate,
        max_draft: 4,
        confidence_cutoff: 0.4,
        kv_capacity: 8192,
    }
}

fn sim_mode(pair: &ModelPair, cluster: ClusterSpec) -> ExecutionMode {
    ExecutionMode::Sim {
        pair: pair.clone(),
        cluster,
        oracle_seed: ORACLE_SEED,
    }
}

/// The [`Deployment`] executing `strategy` with the harness defaults
/// (PipeInfer uses the paper's configuration).
pub fn deployment_for(strategy: InferenceStrategy) -> Deployment {
    match strategy {
        InferenceStrategy::Iterative => Deployment::new(IterativeStrategy),
        InferenceStrategy::Speculative => Deployment::new(SpeculativeStrategy),
        InferenceStrategy::PipeInfer => {
            Deployment::new(PipeInferStrategy::new(PipeInferConfig::paper_default()))
        }
    }
}

/// Runs one experiment point and returns the head's record.
pub fn run_strategy(
    strategy: InferenceStrategy,
    pair: &ModelPair,
    cluster: ClusterSpec,
    config: &GenConfig,
) -> RunOutput {
    let n = cluster.n_nodes();
    let mode = sim_mode(pair, cluster);
    deployment_for(strategy).run(&mode, n, config)
}

/// Which metric of a [`GenerationRecord`] a figure plots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Average generation speed in tokens per second.
    Speed,
    /// Time-to-first-token in seconds.
    Ttft,
    /// Mean inter-token latency in seconds.
    Itl,
}

impl Metric {
    fn of(&self, r: &GenerationRecord) -> f64 {
        match self {
            Metric::Speed => r.generation_speed(),
            Metric::Ttft => r.ttft(),
            Metric::Itl => r.mean_itl(),
        }
    }

    fn unit(&self) -> &'static str {
        match self {
            Metric::Speed => "tokens/s",
            Metric::Ttft => "seconds",
            Metric::Itl => "seconds",
        }
    }
}

/// The node counts of the paper's cluster-C sweeps (Figures 4–6).
pub const CLUSTER_C_NODES: [usize; 4] = [4, 8, 15, 32];

/// One generation-speed / TTFT / ITL sweep over cluster C for a target model
/// with two candidate draft models — the shape of Figures 4a/5a/6a etc.
fn cluster_c_sweep(
    id_speed: &str,
    id_ttft: &str,
    id_itl: &str,
    title: &str,
    pairs: &[(&str, ModelPair)],
    scale: BenchScale,
) -> [Figure; 3] {
    let mut fig_speed = Figure::new(
        id_speed,
        &format!("{title} generation speed"),
        Metric::Speed.unit(),
    );
    let mut fig_ttft = Figure::new(id_ttft, &format!("{title} TTFT"), Metric::Ttft.unit());
    let mut fig_itl = Figure::new(
        id_itl,
        &format!("{title} inter-token latency"),
        Metric::Itl.unit(),
    );
    let config_tag = 1;
    for &n in &CLUSTER_C_NODES {
        let x = format!("{n} Node");
        let config = gen_config(scale, config_tag);
        // Iterative is draft-independent: one series.
        let iter = run_strategy(
            InferenceStrategy::Iterative,
            &pairs[0].1,
            ClusterSpec::cluster_c(n),
            &config,
        );
        fig_speed.push("Iter.", &x, Metric::Speed.of(&iter.record));
        fig_ttft.push("Iter.", &x, Metric::Ttft.of(&iter.record));
        fig_itl.push("Iter.", &x, Metric::Itl.of(&iter.record));
        for (draft_name, pair) in pairs {
            let spec = run_strategy(
                InferenceStrategy::Speculative,
                pair,
                ClusterSpec::cluster_c(n),
                &config,
            );
            let pipe = run_strategy(
                InferenceStrategy::PipeInfer,
                pair,
                ClusterSpec::cluster_c(n),
                &config,
            );
            fig_speed.push(
                &format!("Spec. ({draft_name})"),
                &x,
                Metric::Speed.of(&spec.record),
            );
            fig_speed.push(
                &format!("Pipe. ({draft_name})"),
                &x,
                Metric::Speed.of(&pipe.record),
            );
            fig_ttft.push(
                &format!("Spec. ({draft_name})"),
                &x,
                Metric::Ttft.of(&spec.record),
            );
            fig_ttft.push(
                &format!("Pipe. ({draft_name})"),
                &x,
                Metric::Ttft.of(&pipe.record),
            );
            fig_itl.push(
                &format!("Spec. ({draft_name})"),
                &x,
                Metric::Itl.of(&spec.record),
            );
            fig_itl.push(
                &format!("Pipe. ({draft_name})"),
                &x,
                Metric::Itl.of(&pipe.record),
            );
        }
    }
    [fig_speed, fig_ttft, fig_itl]
}

/// Figures 4a, 5a, 6a: Dolphin-70B with TinyLlama / Orca-2 drafts.
pub fn fig_dolphin(scale: BenchScale) -> [Figure; 3] {
    cluster_c_sweep(
        "Fig. 4a",
        "Fig. 5a",
        "Fig. 6a",
        "Dolphin-70B",
        &[
            ("TinyLlama", ModelPair::dolphin_tinyllama()),
            ("Orca2", ModelPair::dolphin_orca2()),
        ],
        scale,
    )
}

/// Figures 4b, 5b, 6b: Goliath-120B with XWin-7B / XWin-13B drafts.
pub fn fig_goliath(scale: BenchScale) -> [Figure; 3] {
    cluster_c_sweep(
        "Fig. 4b",
        "Fig. 5b",
        "Fig. 6b",
        "Goliath-120B",
        &[
            ("XWin-7B", ModelPair::goliath_xwin7b()),
            ("XWin-13B", ModelPair::goliath_xwin13b()),
        ],
        scale,
    )
}

/// Figures 4c, 5c, 6c: Falcon-180B with Falcon-7B / Falcon-40B drafts.
pub fn fig_falcon(scale: BenchScale) -> [Figure; 3] {
    cluster_c_sweep(
        "Fig. 4c",
        "Fig. 5c",
        "Fig. 6c",
        "Falcon-180B",
        &[
            ("Falcon-7B", ModelPair::falcon_7b()),
            ("Falcon-40B", ModelPair::falcon_40b()),
        ],
        scale,
    )
}

/// Figure 7a: memory efficiency (generation speed per mean per-node GB) on
/// cluster C.
pub fn fig7a_memory_efficiency(scale: BenchScale) -> Figure {
    let mut fig = Figure::new("Fig. 7a", "Memory efficiency", "tokens/s per GB");
    let pairs = [
        ("Dolphin", ModelPair::dolphin_tinyllama()),
        ("Goliath", ModelPair::goliath_xwin7b()),
        ("Falcon", ModelPair::falcon_7b()),
    ];
    for &n in &CLUSTER_C_NODES {
        let x = format!("{n} Node");
        let config = gen_config(scale, 1);
        for (name, pair) in &pairs {
            for strategy in InferenceStrategy::all() {
                let out = run_strategy(strategy, pair, ClusterSpec::cluster_c(n), &config);
                let mem = per_node_memory(pair, strategy, n);
                fig.push(
                    &format!("{} ({name})", strategy.name()),
                    &x,
                    speed_per_gb(out.record.generation_speed(), &mem),
                );
            }
        }
    }
    fig
}

/// Figure 7b: TTFT on the constrained cluster A (8 nodes, Gigabit Ethernet).
pub fn fig7b_constrained_ttft(scale: BenchScale) -> Figure {
    let mut fig = Figure::new("Fig. 7b", "TTFT on cluster A", "seconds");
    let pairs = [
        ("Dolphin", ModelPair::dolphin_tinyllama()),
        ("Goliath", ModelPair::goliath_xwin7b()),
        ("Falcon", ModelPair::falcon_7b()),
    ];
    let config = gen_config(scale, 2);
    for (name, pair) in &pairs {
        for strategy in InferenceStrategy::all() {
            let out = run_strategy(strategy, pair, ClusterSpec::cluster_a(8), &config);
            fig.push(strategy.name(), name, Metric::Ttft.of(&out.record));
        }
    }
    fig
}

/// Figure 7c: generation speed on the constrained clusters (4 and 8 nodes of
/// cluster A, 13 heterogeneous nodes of cluster B), small draft models.
pub fn fig7c_constrained_speed(scale: BenchScale) -> Figure {
    let mut fig = Figure::new(
        "Fig. 7c",
        "Generation speed on constrained clusters",
        "tokens/s",
    );
    let pairs = [
        ("Dolphin", ModelPair::dolphin_tinyllama()),
        ("Goliath", ModelPair::goliath_xwin7b()),
        ("Falcon", ModelPair::falcon_7b()),
    ];
    let config = gen_config(scale, 3);
    for (n, cluster) in [
        (4usize, ClusterSpec::cluster_a(4)),
        (8, ClusterSpec::cluster_a(8)),
        (13, ClusterSpec::cluster_b(13)),
    ] {
        let x = format!("{n} Node");
        for (name, pair) in &pairs {
            for strategy in InferenceStrategy::all() {
                let out = run_strategy(strategy, pair, cluster.clone(), &config);
                fig.push(
                    &format!("{} ({name})", strategy.name()),
                    &x,
                    Metric::Speed.of(&out.record),
                );
            }
        }
    }
    fig
}

/// Figure 8: ablation studies on 8 nodes of cluster C — full PipeInfer vs
/// disabled cancellation vs disabled continuous speculation, reporting
/// generation speed, TTFT and ITL.
pub fn fig8_ablations(scale: BenchScale) -> Figure {
    let mut fig = Figure::new("Fig. 8", "Ablation studies (8 nodes)", "tokens/s | s | s");
    let pairs = [
        ("Dolphin", ModelPair::dolphin_tinyllama()),
        ("Goliath", ModelPair::goliath_xwin7b()),
        ("Falcon", ModelPair::falcon_7b()),
    ];
    let variants: [(&str, PipeInferConfig); 3] = [
        ("PipeInfer", PipeInferConfig::paper_default()),
        ("No cancellation", PipeInferConfig::no_cancellation()),
        (
            "No cont. spec.",
            PipeInferConfig::no_continuous_speculation(),
        ),
    ];
    let config = gen_config(scale, 4);
    for (pair_name, pair) in &pairs {
        for (variant_name, variant) in &variants {
            let mode = sim_mode(pair, ClusterSpec::cluster_c(8));
            let out = run_pipeinfer(&mode, 8, &config, variant);
            let series = format!("{pair_name}: {variant_name}");
            fig.push(&series, "Speed (tokens/s)", out.record.generation_speed());
            fig.push(&series, "TTFT (s)", out.record.ttft());
            fig.push(&series, "ITL (s)", out.record.mean_itl());
        }
    }
    fig
}

/// Figure 9: generation speed on the 4-GPU cluster for the seven model pairs
/// of Table III, PipeInfer vs speculative inference.
pub fn fig9_gpu_speed(scale: BenchScale) -> Figure {
    let mut fig = Figure::new("Fig. 9", "4-GPU cluster generation speed", "tokens/s");
    let config = gen_config(scale, 5);
    for pair in ModelPair::table3() {
        for strategy in [InferenceStrategy::PipeInfer, InferenceStrategy::Speculative] {
            let out = run_strategy(strategy, &pair, ClusterSpec::gpu_cluster(), &config);
            fig.push(strategy.name(), &pair.name, Metric::Speed.of(&out.record));
        }
    }
    fig
}

/// Figure 10: prompt-to-prompt variance on the 4-GPU cluster
/// (Senku-70B + TinyLlama), PipeInfer vs speculative inference.
pub fn fig10_prompt_variance(scale: BenchScale) -> Figure {
    let mut fig = Figure::new(
        "Fig. 10",
        "Prompt-to-prompt variance (Senku-70B)",
        "tokens/s",
    );
    let pair = ModelPair::senku_tinyllama();
    let prompts = [
        ("Prompt 1 (explain)", 11u64),
        ("Prompt 2 (write a paper)", 12),
        ("Prompt 3 (roleplay)", 13),
        ("Prompt 4 (code generation)", 14),
    ];
    for (label, tag) in prompts {
        let config = gen_config(scale, tag);
        for strategy in [InferenceStrategy::PipeInfer, InferenceStrategy::Speculative] {
            let out = run_strategy(strategy, &pair, ClusterSpec::gpu_cluster(), &config);
            fig.push(strategy.name(), label, Metric::Speed.of(&out.record));
        }
    }
    fig
}

/// Serving-experiment shape: identical traffic replayed against every
/// strategy over one prepared deployment each.
#[derive(Debug, Clone, Copy)]
pub struct ServingScale {
    /// Requests per workload.
    pub n_requests: usize,
    /// In-flight window (and worker-pool width) of the server.
    pub max_in_flight: usize,
    /// Tokens generated per request.
    pub n_generate: usize,
    /// Cluster-C node count the deployments are prepared for.
    pub n_nodes: usize,
}

impl ServingScale {
    /// Derives the serving experiment size from the bench scale: the quick
    /// profile serves 12 short requests, the paper profile a longer stream.
    pub fn from(scale: BenchScale) -> Self {
        Self {
            n_requests: if scale.n_generate >= 512 { 32 } else { 12 },
            max_in_flight: 8,
            n_generate: (scale.n_generate / 4).max(8),
            n_nodes: 8,
        }
    }
}

/// The deployments the serving experiments compare: the three paper
/// strategies plus tree speculation, in figure order.
pub fn serving_deployments() -> Vec<Deployment> {
    vec![
        Deployment::new(IterativeStrategy),
        Deployment::new(SpeculativeStrategy),
        Deployment::new(PipeInferStrategy::new(PipeInferConfig::paper_default())),
        Deployment::new(TreeSpeculationStrategy::default()),
    ]
}

/// Serving figures: goodput and latency percentiles per strategy, one figure
/// per strategy, under *identical* steady / bursty / mixed traffic.
///
/// This is the paper's "varied workloads" claim made measurable: every
/// strategy owns one prepared deployment (weights and layout built once) and
/// serves the same request streams through the continuous-batching
/// `pi-serve` scheduler; the figures report goodput plus p50/p99 end-to-end
/// and TTFT latency per workload shape, and — since the tree strategy landed
/// — the speculation-quality columns (acceptance rate,
/// accepted-tokens-per-verify, tree utilization).
pub fn fig_serving(scale: BenchScale) -> Vec<Figure> {
    use pi_serve::{
        BurstyWorkload, MixedWorkload, Server, ServerConfig, SteadyWorkload, WorkloadGen,
    };

    let serving = ServingScale::from(scale);
    let pair = ModelPair::dolphin_tinyllama();
    let base = GenConfig {
        prompt: make_prompt(scale, 6),
        n_generate: serving.n_generate,
        max_draft: 4,
        confidence_cutoff: 0.4,
        kv_capacity: 8192,
    };
    // The sim's virtual clock runs at paper scale (a 70B pipeline serves a
    // few tokens per second), so arrivals are spaced in virtual seconds.
    let mean_gap = serving.n_generate as f64 / 16.0;
    let workloads: Vec<Box<dyn WorkloadGen>> = vec![
        Box::new(SteadyWorkload {
            base: base.clone(),
            n_requests: serving.n_requests,
            interarrival: mean_gap,
        }),
        Box::new(BurstyWorkload {
            base: base.clone(),
            n_requests: serving.n_requests,
            mean_interarrival: mean_gap,
            seed: ORACLE_SEED,
        }),
        Box::new(MixedWorkload {
            base: base.clone(),
            n_requests: serving.n_requests,
            mean_interarrival: mean_gap,
            prompt_len: (scale.prompt_len / 2, scale.prompt_len),
            n_generate: (serving.n_generate / 2, serving.n_generate),
            seed: ORACLE_SEED + 1,
        }),
    ];

    let mut figures = Vec::new();
    for deployment in serving_deployments() {
        let mode = sim_mode(&pair, ClusterSpec::cluster_c(serving.n_nodes));
        let server = Server::new(
            deployment.prepare(&mode, serving.n_nodes),
            ServerConfig {
                max_in_flight: serving.max_in_flight,
            },
        );
        let mut fig = Figure::new(
            &format!("Serving ({})", server.strategy_name()),
            &format!(
                "{} requests over {} nodes, window {}",
                serving.n_requests, serving.n_nodes, serving.max_in_flight
            ),
            "tok/s | s",
        );
        for workload in &workloads {
            let report = server.serve(workload.generate());
            report.to_figure(&mut fig, workload.name());
        }
        figures.push(fig);
    }
    figures
}

/// The shared-prefix serving stream: `shared_fraction` of the requests open
/// with one seeded system prompt (the 90 %-shared workload of the KV-pool
/// gate), the rest are fully random prompts of the same total length.  Both
/// populations draw identical suffix/arrival distributions, so any latency
/// difference is attributable to prefix-cache hits.
pub fn shared_prefix_workload(
    scale: BenchScale,
    shared_fraction: f64,
) -> pi_serve::SharedPrefixWorkload {
    let serving = ServingScale::from(scale);
    pi_serve::SharedPrefixWorkload {
        base: GenConfig {
            prompt: make_prompt(scale, 6),
            n_generate: serving.n_generate,
            max_draft: 4,
            confidence_cutoff: 0.4,
            kv_capacity: 8192,
        },
        n_requests: serving.n_requests,
        mean_interarrival: serving.n_generate as f64 / 16.0,
        shared_fraction,
        prefix_len: (scale.prompt_len, scale.prompt_len + scale.prompt_len / 2),
        suffix_len: ((scale.prompt_len / 8).max(2), (scale.prompt_len / 4).max(4)),
        seed: ORACLE_SEED + 2,
    }
}

/// Measurements behind the shared-prefix serving gate (see
/// [`fig_shared_prefix`]).
#[derive(Debug, Clone, Copy)]
pub struct SharedPrefixGate {
    /// p50 time-to-first-token serving the 90 %-shared stream over the page
    /// pool (prefill skipped for cached prefixes).
    pub pooled_ttft_p50: f64,
    /// p50 time-to-first-token for the identical stream on flat per-request
    /// caches (every prompt prefilled from scratch).
    pub flat_ttft_p50: f64,
    /// Fraction of pooled admissions that matched a committed prefix.
    pub prefix_hit_rate: f64,
    /// Largest in-flight window the *shared* stream sustains with zero
    /// admission refusals at [`SharedPrefixGate::pool_pages`] pages.
    pub shared_max_window: usize,
    /// Largest refusal-free window for the unshared stream of identical
    /// lengths at the same pool size.
    pub unshared_max_window: usize,
    /// Pool size (pages) used for the window probe.
    pub pool_pages: usize,
}

/// The paged-KV serving experiment: the 90 %-shared-system-prompt stream
/// served by PipeInfer over a page pool vs the identical stream on flat
/// per-request caches, plus the max-sustainable-window probe at a
/// constrained pool size.
///
/// Two gates ride on the returned measurements (CI runs the `serving` bench
/// with `PIPEINFER_BENCH_ASSERT=1`): prefix sharing must cut p50 TTFT, and
/// at a fixed page budget the shared stream must sustain a strictly larger
/// refusal-free in-flight window than unshared traffic of identical lengths
/// (the pool holds the shared prefix once instead of once per request).
pub fn fig_shared_prefix(scale: BenchScale) -> (Figure, SharedPrefixGate) {
    use pi_model::{KvPagePool, KvPoolConfig};
    use pi_serve::{admission_order, Server, ServerConfig, WorkloadGen};
    use std::collections::VecDeque;

    let serving = ServingScale::from(scale);
    let workload = shared_prefix_workload(scale, 0.9);
    let tokens_per_page = 16;
    // Worst-case pages one request pins when nothing is shared: longest
    // system prompt + longest suffix + the generation budget.
    let flat_pages = (scale.prompt_len
        + scale.prompt_len / 2
        + (scale.prompt_len / 4).max(4)
        + serving.n_generate)
        .div_ceil(tokens_per_page);

    let deployment = Deployment::new(PipeInferStrategy::new(PipeInferConfig::paper_default()));
    let mode = sim_mode(
        &ModelPair::dolphin_tinyllama(),
        ClusterSpec::cluster_c(serving.n_nodes),
    );
    let serve = |pooled: bool| {
        let mut prepared = deployment.prepare(&mode, serving.n_nodes);
        if pooled {
            // Generous pool: the TTFT comparison measures prefill reuse, not
            // admission pressure.
            prepared = prepared.with_kv_pool(KvPagePool::new(KvPoolConfig {
                tokens_per_page,
                n_pages: serving.n_requests * flat_pages,
            }));
        }
        Server::new(
            prepared,
            ServerConfig {
                max_in_flight: serving.max_in_flight,
            },
        )
        .serve(workload.generate())
    };
    let pooled = serve(true);
    let flat = serve(false);

    let mut fig = Figure::new(
        "Serving (shared prefix)",
        &format!(
            "90 % shared system prompt, {} requests over {} nodes, window {}",
            serving.n_requests, serving.n_nodes, serving.max_in_flight
        ),
        "tok/s | s",
    );
    pooled.to_figure(&mut fig, "paged pool");
    flat.to_figure(&mut fig, "flat caches");

    // Max sustainable window: largest in-flight bound under which the
    // stream's pool lifecycle (admit, match, commit the prompt, with the
    // latest `win` admissions pinned) completes with zero refusals at a page
    // budget that fits only a few unshared requests.  Pure pool arithmetic —
    // no model execution.
    let constrained = KvPoolConfig {
        tokens_per_page,
        n_pages: 4 * flat_pages,
    };
    let max_window = |w: &pi_serve::SharedPrefixWorkload| {
        let requests = w.generate();
        let order = admission_order(&requests);
        let mut best = 0;
        for win in 1..=2 * serving.max_in_flight {
            let pool = KvPagePool::new(constrained);
            let mut pinned = VecDeque::new();
            for &idx in &order {
                if pinned.len() == win {
                    pool.end_request(pinned.pop_front().expect("win >= 1"));
                }
                let gen = &requests[idx].gen;
                if let Ok(ticket) = pool.begin_request(&gen.prompt, gen.n_generate, &[]) {
                    pool.commit_chain(ticket.id, &gen.prompt, None);
                    pinned.push_back(ticket.id);
                }
            }
            if pool.stats().refusals == 0 {
                best = win;
            } else {
                break;
            }
        }
        best
    };
    let gate = SharedPrefixGate {
        pooled_ttft_p50: pooled.ttft_summary().p50,
        flat_ttft_p50: flat.ttft_summary().p50,
        prefix_hit_rate: pooled.prefix_hit_rate(),
        shared_max_window: max_window(&workload),
        unshared_max_window: max_window(&shared_prefix_workload(scale, 0.0)),
        pool_pages: constrained.n_pages,
    };
    (fig, gate)
}

/// Measurements behind the cohort-batching serving gate (see
/// [`fig_cohort_batching`]).
#[derive(Debug, Clone, Copy)]
pub struct CohortBatchingGate {
    /// Goodput serving the steady stream with iteration-level batching:
    /// every decode step fuses all in-flight micro-batches into one forest
    /// GEMM per stage.
    pub fused_goodput: f64,
    /// Goodput of the request-granularity baseline: the identical step loop
    /// and admission schedule, but each request's micro-batch evaluated
    /// alone (a full per-stage weight stream per request per iteration).
    pub unfused_goodput: f64,
    /// Mean requests fused per decode iteration on the fused path.
    pub mean_cohort_width: f64,
}

/// The iteration-level batching experiment: one steady 8-request stream
/// served twice over the same prepared PipeInfer deployment — once through
/// [`Server::serve_stepped`] (cross-request forest GEMMs) and once through
/// [`Server::serve_stepped_unfused`] (request-granularity decode, one weight
/// stream per request per step).  Identical traffic, seed and admission
/// schedule; per-request token streams are byte-identical by construction,
/// so the entire goodput difference is the amortised weight stream.
///
/// The CI gate (the `serving` bench with `PIPEINFER_BENCH_ASSERT=1`) rides
/// on the returned measurements: fused decode must beat the
/// request-granularity baseline on goodput, and the stream must form real
/// cohorts (mean width > 2).
///
/// [`Server::serve_stepped`]: pi_serve::Server::serve_stepped
/// [`Server::serve_stepped_unfused`]: pi_serve::Server::serve_stepped_unfused
pub fn fig_cohort_batching(scale: BenchScale) -> (Figure, CohortBatchingGate) {
    use pi_serve::{Server, ServerConfig, SteadyWorkload, WorkloadGen};

    let serving = ServingScale::from(scale);
    let pair = ModelPair::dolphin_tinyllama();
    // A dense steady stream: arrivals far tighter than service times, so the
    // full window is in flight almost immediately and stays saturated.
    let workload = SteadyWorkload {
        base: GenConfig {
            prompt: make_prompt(scale, 6),
            n_generate: serving.n_generate,
            max_draft: 4,
            confidence_cutoff: 0.4,
            kv_capacity: 8192,
        },
        n_requests: 8,
        interarrival: 0.05,
    };
    let deployment = Deployment::new(PipeInferStrategy::new(PipeInferConfig::paper_default()));
    let mode = sim_mode(&pair, ClusterSpec::cluster_c(serving.n_nodes));
    let server = Server::new(
        deployment.prepare(&mode, serving.n_nodes),
        ServerConfig { max_in_flight: 8 },
    );
    let fused = server.serve_stepped(workload.generate());
    let unfused = server.serve_stepped_unfused(workload.generate());

    let mut fig = Figure::new(
        "Serving (cohort batching)",
        &format!(
            "steady 8-request stream over {} nodes, fused forest vs request-granularity decode",
            serving.n_nodes
        ),
        "tok/s | s",
    );
    fused.to_figure(&mut fig, "fused forest");
    unfused.to_figure(&mut fig, "request-granularity");
    let gate = CohortBatchingGate {
        fused_goodput: fused.goodput(),
        unfused_goodput: unfused.goodput(),
        mean_cohort_width: fused.mean_cohort_width(),
    };
    (fig, gate)
}

/// The cohort-batching regression gate, read off an already-computed
/// [`fig_cohort_batching`] figure.
pub fn cohort_batching_gate_of(fig: &Figure) -> CohortBatchingGate {
    let col = |series: &str, x: &str| {
        fig.value(series, x)
            .unwrap_or_else(|| panic!("figure is missing {series}/{x}"))
    };
    CohortBatchingGate {
        fused_goodput: col("fused forest", "goodput tok/s"),
        unfused_goodput: col("request-granularity", "goodput tok/s"),
        mean_cohort_width: col("fused forest", "cohort width"),
    }
}

/// The seeded 52 %-acceptance gate stream: mixed prompt/output lengths over
/// the Goliath + XWin-7B pair, shared by [`tree_vs_linear_gate`],
/// [`fig_draft_rank`] and [`draft_rank_gate`] so the figure and the CI gates
/// always measure the same workload.  Mixed lengths make every request
/// decode a genuinely different token stream (identical requests would
/// replay one experiment N times).
fn gate_workload(scale: BenchScale) -> pi_serve::MixedWorkload {
    let serving = ServingScale::from(scale);
    pi_serve::MixedWorkload {
        base: GenConfig {
            prompt: make_prompt(scale, 6),
            n_generate: serving.n_generate,
            max_draft: 4,
            confidence_cutoff: 0.4,
            kv_capacity: 8192,
        },
        n_requests: serving.n_requests,
        mean_interarrival: serving.n_generate as f64 / 16.0,
        prompt_len: (scale.prompt_len / 2, scale.prompt_len),
        n_generate: (serving.n_generate, serving.n_generate * 2),
        seed: ORACLE_SEED,
    }
}

/// The tree-speculation regression gate: serves one seeded mixed-length
/// stream through `TreeSpeculationStrategy` and `SpeculativeStrategy` at the same
/// verify-batch budget over the 52 %-acceptance Goliath + XWin-7B pair (the
/// regime where hedging must pay off), returning
/// `(tree, linear)` mean accepted-tokens-per-verify.
///
/// CI runs this with `PIPEINFER_BENCH_ASSERT=1` (see the `serving` bench
/// target), failing the build if tree speculation stops beating linear
/// speculation on this workload.  The stream uses mixed prompt/output
/// lengths so every request decodes a genuinely different token stream
/// (identical requests would replay one experiment N times); window 1
/// serialises execution so the cross-request shape feedback — and therefore
/// the result — is deterministic.
pub fn tree_vs_linear_gate(scale: BenchScale) -> (f64, f64) {
    use pi_serve::{Server, ServerConfig, WorkloadGen};

    let serving = ServingScale::from(scale);
    let pair = ModelPair::goliath_xwin7b();
    let workload = gate_workload(scale);
    let serve = |deployment: Deployment| {
        let mode = sim_mode(&pair, ClusterSpec::cluster_c(serving.n_nodes));
        Server::new(
            deployment.prepare(&mode, serving.n_nodes),
            ServerConfig { max_in_flight: 1 },
        )
        .serve(workload.generate())
        .mean_tokens_per_run()
    };
    let tree = serve(Deployment::new(TreeSpeculationStrategy::default()));
    let linear = serve(Deployment::new(SpeculativeStrategy));
    (tree, linear)
}

/// The four PipeInfer deployment variants of the Fig. 3 layout study:
/// draft placement (head-hosted vs dedicated rank) × continuous micro-batch
/// shape (chain vs tree), in figure order.
pub fn draft_rank_variants() -> Vec<(&'static str, PipeInferConfig)> {
    use pipeinfer_core::DraftPlacement;
    vec![
        ("head-hosted / chain", PipeInferConfig::paper_default()),
        ("head-hosted / tree", PipeInferConfig::tree_micro()),
        ("dedicated / chain", PipeInferConfig::dedicated_draft_rank()),
        (
            "dedicated / tree",
            PipeInferConfig::tree_micro().with_placement(DraftPlacement::DedicatedRank),
        ),
    ]
}

/// The Fig. 3 layout study: the four PipeInfer variants of
/// [`draft_rank_variants`] serving the *same* seeded 52 %-acceptance
/// mixed-length stream (Goliath + XWin-7B) over one prepared deployment
/// each.  One series per variant; the columns are the serving metrics of
/// `ServeReport::to_figure` — goodput, latency percentiles, speculation
/// quality, per-rank draft traffic and evaluations saved by cancellation.
pub fn fig_draft_rank(scale: BenchScale) -> Figure {
    use pi_serve::{Server, ServerConfig, WorkloadGen};

    let serving = ServingScale::from(scale);
    let pair = ModelPair::goliath_xwin7b();
    let workload = gate_workload(scale);
    let mut fig = Figure::new(
        "Fig. 3 layout",
        &format!(
            "PipeInfer draft placement × micro-batch shape, {} mixed requests over {} nodes",
            serving.n_requests, serving.n_nodes
        ),
        "tok/s | s",
    );
    for (name, config) in draft_rank_variants() {
        let deployment = Deployment::new(PipeInferStrategy::new(config));
        let mode = sim_mode(&pair, ClusterSpec::cluster_c(serving.n_nodes));
        let report = Server::new(
            deployment.prepare(&mode, serving.n_nodes),
            ServerConfig { max_in_flight: 1 },
        )
        .serve(workload.generate());
        report.to_figure(&mut fig, name);
    }
    fig
}

/// The dedicated-draft-rank regression gate, read off an already-computed
/// [`fig_draft_rank`] figure: `(dedicated, head_hosted)` accepted tokens
/// per second of stream makespan (goodput) of the two chain-shaped layout
/// variants on the seeded 52 %-acceptance stream.
pub fn draft_rank_gate_of(fig: &Figure) -> (f64, f64) {
    let goodput = |series: &str| {
        fig.value(series, "goodput tok/s")
            .unwrap_or_else(|| panic!("figure is missing the {series} goodput"))
    };
    (goodput("dedicated / chain"), goodput("head-hosted / chain"))
}

/// The dedicated-draft-rank regression gate: serves the seeded
/// 52 %-acceptance mixed-length stream through the four-way layout study
/// ([`fig_draft_rank`]) and returns `(dedicated, head_hosted)` goodput of
/// the two chain-shaped variants.  Callers that already hold the figure
/// should use [`draft_rank_gate_of`] instead of re-serving the streams.
///
/// CI runs this with `PIPEINFER_BENCH_ASSERT=1` (see the `serving` bench
/// target), failing the build if moving drafting off the head stops paying
/// for itself on this workload.  Window 1 serialises execution so the
/// result is deterministic.
pub fn draft_rank_gate(scale: BenchScale) -> (f64, f64) {
    draft_rank_gate_of(&fig_draft_rank(scale))
}

/// Link-latency multipliers of the degradation sweep: nominal cluster-C
/// InfiniBand up to four orders of magnitude slower (µs-class links
/// degraded to the tens of milliseconds of a congested WAN hop).
pub const LATENCY_MULTIPLIERS: [u32; 3] = [1, 100, 10_000];

/// Seed of the jittered series' delay-fault schedule.
const JITTER_SEED: u64 = 0x6A69_7474;

/// A seeded all-links jitter schedule for an `n`-rank cluster: every
/// message has a 50% chance of an extra delay uniform in `[0, 8 × latency)`.
fn jitter_plan(n: usize, latency_s: f64) -> pi_cluster::FaultPlan {
    let mut plan = pi_cluster::FaultPlan::seeded(JITTER_SEED);
    for src in 0..n {
        for dst in 0..n {
            if src != dst {
                plan = plan.on_link(
                    src,
                    dst,
                    pi_cluster::LinkFaults::delay(0.5, 0.0, 8.0 * latency_s),
                );
            }
        }
    }
    plan
}

/// The link-latency/jitter degradation sweep: Goliath + XWin-7B over 8
/// nodes of cluster C with the interconnect latency scaled by each
/// [`LATENCY_MULTIPLIERS`] entry, generation speed per strategy — plus a
/// `(jitter)` series per speculation strategy where every link carries a
/// seeded delay-fault schedule ([`LinkFaults::delay`], 50% of messages
/// delayed by up to 8× the scaled link latency).
///
/// This is the robustness claim behind asynchronous speculation made
/// measurable: synchronous speculative verification exposes every draft →
/// verify round trip on the critical path, while PipeInfer overlaps
/// drafting with verification, pays no more added per-token latency as
/// links slow down, and therefore stays strictly faster across the sweep —
/// with and without jitter.
///
/// [`LinkFaults::delay`]: pi_cluster::LinkFaults::delay
pub fn fig_latency_sweep(scale: BenchScale) -> Figure {
    let mut fig = Figure::new(
        "Latency sweep",
        "Generation speed vs link latency (8 nodes, Goliath + XWin-7B)",
        "tokens/s",
    );
    let pair = ModelPair::goliath_xwin7b();
    let config = gen_config(scale, 7);
    let n = 8;
    for &mult in &LATENCY_MULTIPLIERS {
        let mut cluster = ClusterSpec::cluster_c(n);
        cluster.interconnect.latency_s *= f64::from(mult);
        let latency_s = cluster.interconnect.latency_s;
        let mode = sim_mode(&pair, cluster);
        let x = format!("{mult}x latency");
        for strategy in InferenceStrategy::all() {
            let prepared = deployment_for(strategy).prepare(&mode, n);
            let clean = prepared.run(&config);
            fig.push(strategy.name(), &x, Metric::Speed.of(&clean.record));
            if strategy == InferenceStrategy::Iterative {
                continue;
            }
            let options = RunOptions {
                faults: Some(jitter_plan(n, latency_s)),
                ..RunOptions::default()
            };
            let jittered = prepared
                .run_with(&config, options)
                .expect("no pool to refuse admission");
            fig.push(
                &format!("{} (jitter)", strategy.name()),
                &x,
                Metric::Speed.of(&jittered.record),
            );
        }
    }
    fig
}

/// The latency-tolerance regression gate, read off an already-computed
/// [`fig_latency_sweep`] figure: `(pipeinfer, speculative)` generation
/// speed at the *highest* latency multiplier of the sweep.
pub fn latency_tolerance_gate_of(fig: &Figure) -> (f64, f64) {
    let x = format!(
        "{}x latency",
        LATENCY_MULTIPLIERS[LATENCY_MULTIPLIERS.len() - 1]
    );
    let speed = |series: &str| {
        fig.value(series, &x)
            .unwrap_or_else(|| panic!("figure is missing the {series} speed at {x}"))
    };
    (speed("PipeInfer"), speed("Speculative"))
}

/// The latency-tolerance regression gate: runs the link-latency degradation
/// sweep ([`fig_latency_sweep`]) and returns `(pipeinfer, speculative)`
/// generation speed at the high-latency end.  Callers that already hold the
/// figure should use [`latency_tolerance_gate_of`] instead of re-running the
/// sweep.
///
/// CI runs this with `PIPEINFER_BENCH_ASSERT=1` (see the `serving` bench
/// target), failing the build if asynchronous speculation stops out-degrading
/// the synchronous baseline on slow links.
pub fn latency_tolerance_gate(scale: BenchScale) -> (f64, f64) {
    latency_tolerance_gate_of(&fig_latency_sweep(scale))
}

/// Table I / Table III: model pairs with size, quantization and acceptance
/// rate, rendered as text.
pub fn table_model_pairs(pairs: &[ModelPair], title: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "=== {title} ===");
    let _ = writeln!(
        out,
        "{:<32} {:>10} {:<32} {:>10} {:>12}",
        "Target", "Size", "Draft", "Size", "Acceptance"
    );
    for p in pairs {
        let _ = writeln!(
            out,
            "{:<32} {:>8.1}GB {:<32} {:>8.1}GB {:>11.1}%{}",
            p.target.describe(),
            p.target.resident_bytes() as f64 / 1e9,
            p.draft.describe(),
            p.draft.resident_bytes() as f64 / 1e9,
            p.acceptance_rate * 100.0,
            if p.acceptance_from_paper {
                ""
            } else {
                " (est.)"
            },
        );
    }
    out
}

/// Table II / Table IV: hardware testbeds, rendered as text.
pub fn table_testbeds() -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "=== Table II / Table IV: testbeds ===");
    for cluster in [
        ClusterSpec::cluster_a(8),
        ClusterSpec::cluster_b(13),
        ClusterSpec::cluster_c(32),
        ClusterSpec::gpu_cluster(),
    ] {
        let _ = writeln!(
            out,
            "Cluster {:<4} nodes={:<3} node0={:<22} eff-bw={:>6.0} GB/s eff-flops={:>6.2} TF link: {:.1} µs / {:.1} GB/s",
            cluster.name,
            cluster.n_nodes(),
            cluster.node(0).name,
            cluster.node(0).mem_bandwidth_bps / 1e9,
            cluster.node(0).compute_flops / 1e12,
            cluster.interconnect.latency_s * 1e6,
            cluster.interconnect.bandwidth_bps / 1e9,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale() -> BenchScale {
        BenchScale {
            prompt_len: 16,
            n_generate: 48,
        }
    }

    #[test]
    fn scales() {
        assert!(BenchScale::paper().n_generate > BenchScale::quick().n_generate);
        assert_eq!(BenchScale::paper().prompt_len, 128);
        let p = make_prompt(BenchScale::quick(), 1);
        assert_eq!(p.len(), 32);
        assert_ne!(p, make_prompt(BenchScale::quick(), 2));
    }

    #[test]
    fn dolphin_sweep_has_expected_shape() {
        let [speed, ttft, itl] = cluster_c_sweep(
            "Fig. 4a",
            "Fig. 5a",
            "Fig. 6a",
            "Dolphin-70B",
            &[("TinyLlama", ModelPair::dolphin_tinyllama())],
            tiny_scale(),
        );
        assert_eq!(speed.x_labels().len(), CLUSTER_C_NODES.len());
        assert_eq!(speed.series_labels().len(), 3);
        // PipeInfer must beat iterative at every node count, and speculative
        // at 8+ nodes (the paper's headline ordering).
        for n in CLUSTER_C_NODES {
            let x = format!("{n} Node");
            let pipe = speed.value("Pipe. (TinyLlama)", &x).unwrap();
            let iter = speed.value("Iter.", &x).unwrap();
            assert!(pipe > iter, "{x}: pipe {pipe} <= iter {iter}");
        }
        let pipe8 = speed.value("Pipe. (TinyLlama)", "8 Node").unwrap();
        let spec8 = speed.value("Spec. (TinyLlama)", "8 Node").unwrap();
        assert!(pipe8 > spec8);
        // TTFT: speculative pays the drafting latency, PipeInfer does not.
        let spec_ttft = ttft.value("Spec. (TinyLlama)", "8 Node").unwrap();
        let pipe_ttft = ttft.value("Pipe. (TinyLlama)", "8 Node").unwrap();
        assert!(spec_ttft > pipe_ttft);
        // ITL tracks speed ordering.
        let pipe_itl = itl.value("Pipe. (TinyLlama)", "8 Node").unwrap();
        let iter_itl = itl.value("Iter.", "8 Node").unwrap();
        assert!(pipe_itl < iter_itl);
    }

    #[test]
    fn memory_efficiency_favours_pipeinfer_over_speculative() {
        let fig = fig7a_memory_efficiency(tiny_scale());
        let pipe = fig.value("PipeInfer (Dolphin)", "8 Node").unwrap();
        let spec = fig.value("Speculative (Dolphin)", "8 Node").unwrap();
        assert!(pipe > spec);
        assert!(pipe > 0.0 && spec > 0.0);
    }

    #[test]
    fn ablation_figure_contains_all_variants() {
        let fig = fig8_ablations(tiny_scale());
        assert_eq!(fig.series_labels().len(), 9);
        let full = fig.value("Goliath: PipeInfer", "Speed (tokens/s)").unwrap();
        let no_cont = fig
            .value("Goliath: No cont. spec.", "Speed (tokens/s)")
            .unwrap();
        assert!(full >= no_cont, "continuous speculation must not hurt");
    }

    #[test]
    fn gpu_figure_covers_all_pairs() {
        let fig = fig9_gpu_speed(tiny_scale());
        assert_eq!(fig.x_labels().len(), 7);
        assert_eq!(fig.series_labels().len(), 2);
        // On the 4-GPU testbed the two strategies are close (dedicating one
        // of only four GPUs to the draft model costs PipeInfer a quarter of
        // the aggregate bandwidth); both must at least be in the same
        // ballpark and positive.  See EXPERIMENTS.md for the comparison with
        // the paper's Fig. 9.
        let pipe = fig
            .value("PipeInfer", "Senku-70B + TinyLlama-1.1B")
            .unwrap();
        let spec = fig
            .value("Speculative", "Senku-70B + TinyLlama-1.1B")
            .unwrap();
        assert!(pipe > 0.0 && spec > 0.0);
        assert!(pipe > 0.6 * spec && spec > 0.6 * pipe);
    }

    #[test]
    fn prompt_variance_is_lower_for_pipeinfer() {
        let fig = fig10_prompt_variance(tiny_scale());
        let collect = |series: &str| -> Vec<f64> {
            fig.x_labels()
                .iter()
                .map(|x| fig.value(series, x).unwrap())
                .collect()
        };
        let pipe = pi_metrics::Summary::of(&collect("PipeInfer"));
        let spec = pi_metrics::Summary::of(&collect("Speculative"));
        assert!(pipe.mean > 0.0 && spec.mean > 0.0);
        // Relative spread: PipeInfer is the steadier of the two.
        assert!(pipe.std_dev / pipe.mean <= spec.std_dev / spec.mean + 0.05);
    }

    #[test]
    fn serving_figures_cover_all_strategies_and_metrics() {
        let figs = fig_serving(tiny_scale());
        assert_eq!(figs.len(), 4, "one figure per strategy incl. tree");
        for fig in &figs {
            // Three workload series, eighteen metric columns each (incl.
            // the trace-derived bubble fraction, 0.0 for untraced serving,
            // the failover count, 0 on fault-free streams, the four KV-pool
            // columns, 0 for pool-less serving, and the cohort width, 0
            // under replica serving).
            assert_eq!(fig.series_labels(), vec!["steady", "bursty", "mixed"]);
            assert_eq!(fig.x_labels().len(), 18);
            for series in fig.series_labels() {
                let goodput = fig.value(&series, "goodput tok/s").unwrap();
                let p50 = fig.value(&series, "p50 e2e s").unwrap();
                let p99 = fig.value(&series, "p99 e2e s").unwrap();
                assert!(goodput > 0.0, "{}/{series}: goodput {goodput}", fig.id);
                assert!(p99 >= p50 && p50 > 0.0, "{}/{series}", fig.id);
            }
        }
        // Under identical bursty traffic PipeInfer must clear more goodput
        // than the iterative baseline (the paper's utilisation claim, now
        // under a request stream).
        let goodput = |fig: &Figure| fig.value("bursty", "goodput tok/s").unwrap();
        let iter = goodput(&figs[0]);
        let pipe = goodput(&figs[2]);
        assert!(
            pipe > iter,
            "serving goodput: PipeInfer {pipe} <= Iterative {iter}"
        );
        // Only the tree figure reports non-zero tree utilization.
        assert_eq!(figs[1].value("bursty", "tree util"), Some(0.0));
        assert!(figs[3].value("bursty", "tree util").unwrap() > 0.0);
        assert!(figs[3].id.contains("TreeSpeculation"));
    }

    #[test]
    fn draft_rank_figure_covers_the_four_way_matrix() {
        let fig = fig_draft_rank(tiny_scale());
        let series = fig.series_labels();
        assert_eq!(series.len(), 4);
        assert!(series.contains(&"head-hosted / chain".to_string()));
        assert!(series.contains(&"dedicated / tree".to_string()));
        for s in &series {
            assert!(fig.value(s, "goodput tok/s").unwrap() > 0.0, "{s}");
        }
        // Only the dedicated layouts move draft traffic over the wire.
        assert_eq!(fig.value("head-hosted / chain", "draft kB"), Some(0.0));
        assert_eq!(fig.value("head-hosted / tree", "draft kB"), Some(0.0));
        assert!(fig.value("dedicated / chain", "draft kB").unwrap() > 0.0);
        assert!(fig.value("dedicated / tree", "draft kB").unwrap() > 0.0);
    }

    #[test]
    fn latency_sweep_shows_async_speculation_degrading_more_gently() {
        let fig = fig_latency_sweep(tiny_scale());
        assert_eq!(fig.x_labels().len(), LATENCY_MULTIPLIERS.len());
        // Three clean strategy series plus a jittered variant per
        // speculation strategy.
        assert_eq!(fig.series_labels().len(), 5);
        let speed = |series: &str, mult: u32| {
            fig.value(series, &format!("{mult}x latency"))
                .unwrap_or_else(|| panic!("missing {series} at {mult}x"))
        };
        let first = LATENCY_MULTIPLIERS[0];
        let last = LATENCY_MULTIPLIERS[LATENCY_MULTIPLIERS.len() - 1];
        for series in fig.series_labels() {
            let mut prev = f64::INFINITY;
            for &mult in &LATENCY_MULTIPLIERS {
                let s = speed(&series, mult);
                assert!(s > 0.0, "{series}/{mult}x");
                assert!(s <= prev + 1e-9, "{series} sped up at {mult}x");
                prev = s;
            }
        }
        // The robustness claim, twice over: async speculation stays
        // strictly faster than the synchronous baseline at every point of
        // the sweep, on clean links and under seeded jitter alike.
        for &mult in &LATENCY_MULTIPLIERS {
            assert!(
                speed("PipeInfer", mult) > speed("Speculative", mult),
                "clean links, {mult}x"
            );
            assert!(
                speed("PipeInfer (jitter)", mult) > speed("Speculative (jitter)", mult),
                "jittered links, {mult}x"
            );
        }
        // And it degrades no more steeply: the per-token latency added by
        // slowing the links down is no larger for PipeInfer than for the
        // synchronous baseline (both pay the same wire costs, PipeInfer
        // just hides more of them off the critical path).
        let added_itl = |series: &str| 1.0 / speed(series, last) - 1.0 / speed(series, first);
        assert!(
            added_itl("PipeInfer") <= added_itl("Speculative") + 1e-3,
            "PipeInfer added {:.4} s/token vs Speculative {:.4}",
            added_itl("PipeInfer"),
            added_itl("Speculative"),
        );
        // The CI gate reads the high-latency speeds off the same figure:
        // async speculation must win outright on slow links.
        let (pipe, spec) = latency_tolerance_gate_of(&fig);
        assert_eq!(pipe, speed("PipeInfer", last));
        assert_eq!(spec, speed("Speculative", last));
        assert!(
            pipe > spec,
            "high-latency gate: PipeInfer {pipe} <= Speculative {spec}"
        );
    }

    #[test]
    fn draft_rank_gate_dedicated_at_least_matches_head_hosted() {
        let (dedicated, head_hosted) = draft_rank_gate(tiny_scale());
        assert!(dedicated > 0.0 && head_hosted > 0.0);
        assert!(
            dedicated >= head_hosted,
            "dedicated layout {dedicated} tok/s < head-hosted {head_hosted} tok/s"
        );
    }

    #[test]
    fn cohort_batching_gate_fuses_and_wins() {
        let (fig, gate) = fig_cohort_batching(tiny_scale());
        // The gate can be read back off the figure's columns.
        let from_fig = cohort_batching_gate_of(&fig);
        assert_eq!(gate.fused_goodput, from_fig.fused_goodput);
        assert_eq!(gate.unfused_goodput, from_fig.unfused_goodput);
        assert_eq!(gate.mean_cohort_width, from_fig.mean_cohort_width);
        assert!(
            gate.fused_goodput > gate.unfused_goodput,
            "fused {} tok/s <= request-granularity {} tok/s",
            gate.fused_goodput,
            gate.unfused_goodput
        );
        assert!(
            gate.mean_cohort_width > 2.0,
            "stream failed to form cohorts: width {}",
            gate.mean_cohort_width
        );
        // Fusion never changes any stream: identical total tokens.
        let tokens = |series: &str| fig.value(series, "goodput tok/s").unwrap() > 0.0;
        assert!(tokens("fused forest") && tokens("request-granularity"));
    }

    #[test]
    fn tree_gate_beats_linear_on_the_seeded_workload() {
        let (tree, linear) = tree_vs_linear_gate(tiny_scale());
        assert!(
            tree > linear,
            "tree speculation {tree} <= linear speculation {linear} tok/verify"
        );
        // Both are genuine speculation results (> 1 token per verify run).
        assert!(linear > 1.0 && tree > 1.0);
    }

    #[test]
    fn tables_render() {
        let t1 = table_model_pairs(&ModelPair::table1(), "Table I");
        assert!(t1.contains("Dolphin"));
        assert!(t1.contains("79.0%"));
        let t3 = table_model_pairs(&ModelPair::table3(), "Table III");
        assert!(t3.contains("(est.)"));
        let t2 = table_testbeds();
        assert!(t2.contains("Cluster A"));
        assert!(t2.contains("Cluster C"));
    }

    #[test]
    fn constrained_cluster_figures_have_data() {
        let f7b = fig7b_constrained_ttft(tiny_scale());
        assert_eq!(f7b.series_labels().len(), 3);
        assert_eq!(f7b.x_labels().len(), 3);
        let f7c = fig7c_constrained_speed(tiny_scale());
        assert_eq!(f7c.x_labels().len(), 3);
        // PipeInfer beats speculative on the constrained cluster for the
        // poorly aligned Goliath pair (the paper's strongest case).
        let pipe = f7c.value("PipeInfer (Goliath)", "8 Node").unwrap();
        let spec = f7c.value("Speculative (Goliath)", "8 Node").unwrap();
        assert!(pipe > spec);
    }
}
