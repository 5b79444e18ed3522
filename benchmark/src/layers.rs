//! Workload-independent layer micro-benchmarks of the traced pass.
//!
//! Each layer is measured from outside, by timing public calls (through
//! `adapter.rs`) at the `bp256` shapes.  Every micro-benchmark runs inside a
//! span named after the metric it produces.

use crate::adapter::{
    self, BranchOps, DecodeCtx, Deployed, Drafting, Forest, Job, LogitsOp, PoolGeometry, PoolOps,
    StrategyKind, TensorOps,
};
use crate::metrics::{median, ratio, Report};
use crate::pair::{bp256_config, Pair};
use crate::rng::Rng;
use crate::spans::{SpanId, Spans};
use crate::workloads::N_RANKS;
use std::time::Instant;

/// How much to measure: full sample counts, or the minimum that still
/// produces every metric (`--smoke`).
#[derive(Clone, Copy)]
pub struct Effort {
    pub quick: bool,
}

impl Effort {
    fn samples(self, full: usize) -> usize {
        if self.quick {
            1
        } else {
            full
        }
    }
}

/// Median per-call nanoseconds over `samples` batches of `calls` calls.
fn time_ns(samples: usize, calls: usize, mut op: impl FnMut()) -> f64 {
    op();
    let per_call: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                op();
            }
            t.elapsed().as_secs_f64() * 1e9 / calls as f64
        })
        .collect();
    median(&per_call)
}

/// Median nanoseconds of `op(state)`, each call preceded by an untimed
/// `prepare(state)`.
fn time_prepared_ns<T>(
    samples: usize,
    state: &mut T,
    prepare: impl Fn(&mut T),
    op: impl Fn(&mut T),
) -> f64 {
    let each: Vec<f64> = (0..samples)
        .map(|_| {
            prepare(state);
            let t = Instant::now();
            op(state);
            t.elapsed().as_secs_f64() * 1e9
        })
        .collect();
    median(&each)
}

struct Bench<'a> {
    spans: &'a mut Spans,
    parent: SpanId,
    report: &'a mut Report,
}

impl Bench<'_> {
    /// Runs `measure` inside a span named after `metric` and records its value.
    fn metric(&mut self, metric: &'static str, measure: impl FnOnce() -> f64) -> f64 {
        let id = self.spans.open(metric, self.parent, None);
        let value = measure();
        self.spans.close(id);
        self.report.set(metric, value);
        value
    }
}

/// Runs every micro-benchmark and records the workload-independent per-layer
/// metrics in `report`.
pub fn measure(
    pair: &Pair,
    effort: Effort,
    spans: &mut Spans,
    parent: SpanId,
    report: &mut Report,
) {
    let mut b = Bench {
        spans,
        parent,
        report,
    };
    tensor(&mut b, effort);
    model(&mut b, pair, effort);
    cluster(&mut b, effort);
    spec(&mut b, pair, effort);
    perf(&mut b);
}

fn tensor(b: &mut Bench, effort: Effort) {
    let n = effort.samples(15);
    let mut ops = TensorOps::new();
    b.metric("tensor.gemv_256x256_ns", || {
        time_ns(n, 64, || ops.gemv_256x256())
    });
    let gemv_ff = b.metric("tensor.gemv_704x256_ns", || {
        time_ns(n, 32, || ops.gemv_704x256())
    });
    b.metric("tensor.gemm8_704x256_ns_per_row", || {
        time_ns(n, 8, || ops.gemm8_704x256()) / 8.0
    });
    b.metric("tensor.rmsnorm_256_ns", || {
        time_ns(n, 256, || ops.rmsnorm_256())
    });
    b.metric("tensor.softmax_512_ns", || {
        time_ns(n, 128, || ops.softmax_512())
    });
    // Bytes are computed from the shapes: the f32 weight matrix streamed once
    // plus the input and output vectors.
    let bytes = 4.0 * (TensorOps::FF * TensorOps::D + TensorOps::D + TensorOps::FF) as f64;
    b.report.set("tensor.gemv_gbps", ratio(bytes, gemv_ff));
}

fn model(b: &mut Bench, pair: &Pair, effort: Effort) {
    let target = &pair.target;
    let n = effort.samples(11);
    b.metric("model.decode_ms_ctx64", || {
        let mut ctx = DecodeCtx::new(target, 64);
        time_ns(n, 1, || ctx.decode_one()) / 1e6
    });
    b.metric("model.decode_ms_ctx512", || {
        let mut ctx = DecodeCtx::new(target, 512);
        time_ns(n, 1, || ctx.decode_one()) / 1e6
    });
    b.metric("model.prefill_ms_256tok", || {
        time_ns(effort.samples(3), 1, || adapter::prefill(target, 256)) / 1e6
    });
    b.metric("model.verify_ms_m5", || {
        let mut ctx = DecodeCtx::new(target, 128);
        time_ns(n, 1, || ctx.verify_m5()) / 1e6
    });
    b.metric("model.forest_ms_per_row_m8", || {
        let mut forest = Forest::new(target, 64);
        time_ns(n, 1, || forest.step()) / 1e6 / Forest::LANES as f64
    });
    b.metric("model.logits_ms", || {
        let op = LogitsOp::new(target);
        time_ns(n, 16, || op.run()) / 1e6
    });
    let reps = effort.samples(101);
    b.metric("model.kv_branch_commit_ns", || {
        let mut ops = BranchOps::new();
        time_prepared_ns(reps, &mut ops, BranchOps::seed_tree, BranchOps::commit)
    });
    b.metric("model.kv_branch_rollback_ns", || {
        let mut ops = BranchOps::new();
        time_prepared_ns(reps, &mut ops, BranchOps::seed_tree, BranchOps::rollback)
    });
    // Pool admission and commit of 272-token prompts that share a 256-token
    // prefix, so `begin` walks a 16-node radix path like `stream_prefix` does.
    let pool = PoolOps::new(PoolGeometry {
        tokens_per_page: 16,
        n_pages: 4096,
    });
    let mut rng = Rng::new(0xB00C);
    let prefix = rng.tokens(256);
    let mut next_prompt = move || {
        let mut p = prefix.clone();
        p.extend(rng.tokens(16));
        p
    };
    let warm = next_prompt();
    let ticket = pool.begin(&warm, 16).expect("pool admits");
    pool.commit(ticket, &warm);
    pool.end(ticket);
    let mut begin_ns = Vec::with_capacity(reps);
    let mut commit_ns = Vec::with_capacity(reps);
    let id = b
        .spans
        .open("model.pool_begin_ns+model.pool_commit_ns", b.parent, None);
    for _ in 0..reps {
        let prompt = next_prompt();
        let t = Instant::now();
        let ticket = pool.begin(&prompt, 16).expect("pool admits");
        begin_ns.push(t.elapsed().as_secs_f64() * 1e9);
        let t = Instant::now();
        pool.commit(ticket, &prompt);
        commit_ns.push(t.elapsed().as_secs_f64() * 1e9);
        pool.end(ticket);
    }
    b.spans.close(id);
    b.report.set("model.pool_begin_ns", median(&begin_ns));
    b.report.set("model.pool_commit_ns", median(&commit_ns));
}

fn cluster(b: &mut Bench, effort: Effort) {
    let round_trips = if effort.quick { 200 } else { 2000 };
    b.metric("cluster.msg_rtt_us", || {
        time_ns(effort.samples(3), 1, || {
            assert!(adapter::ping_pong(round_trips), "ping-pong completes");
        }) / 1e3
            / round_trips as f64
    });
    b.metric("cluster.spawn_ms", || {
        time_ns(effort.samples(9), 1, || {
            assert!(adapter::spawn_noop(N_RANKS), "no-op ranks finish");
        }) / 1e6
    });
}

fn spec(b: &mut Bench, pair: &Pair, effort: Effort) {
    b.metric("spec.draft_ms_ctx128", || {
        let mut d = Drafting::new(&pair.draft, 128);
        time_ns(effort.samples(7), 1, || assert_eq!(d.draft4(), 4)) / 1e6
    });
    b.metric("spec.draft_ms_ctx512", || {
        let mut d = Drafting::new(&pair.draft, 512);
        time_ns(effort.samples(3), 1, || assert_eq!(d.draft4(), 4)) / 1e6
    });
    b.metric("spec.prepare_ms", || {
        time_ns(effort.samples(21), 1, || {
            std::hint::black_box(Deployed::prepare(
                StrategyKind::PipeInfer,
                &pair.target,
                &pair.draft,
                N_RANKS,
            ));
        }) / 1e6
    });
    step_session(b, pair, effort);
}

/// Drives a `StepSession` directly: four requests admitted together, so the
/// first step is their fused prefill and every later step a fused decode.
fn step_session(b: &mut Bench, pair: &Pair, effort: Effort) {
    let deployed = Deployed::prepare(StrategyKind::PipeInfer, &pair.target, &pair.draft, N_RANKS);
    let mut rng = Rng::new(0x57E9);
    let n_generate = if effort.quick { 4 } else { 16 };
    let jobs: Vec<Job> = (0..4)
        .map(|i| Job {
            id: i,
            prompt: rng.tokens(32),
            n_generate,
            arrival: 0.0,
        })
        .collect();
    let root = b.spans.open("spec.step_session", b.parent, None);
    let mut session = deployed.begin_session();
    let mut live: Vec<u64> = jobs.iter().map(|j| session.admit(j)).collect();
    let mut step_ms = Vec::new();
    let mut rows = 0usize;
    while !live.is_empty() {
        let id = b.spans.open("step_cohort", root, None);
        let t = Instant::now();
        let step = session.step();
        step_ms.push(t.elapsed().as_secs_f64() * 1e3);
        b.spans.close(id);
        assert!(step.width > 0, "step session stalled");
        rows += step.rows;
        for id in step.finished {
            live.retain(|&l| l != id);
            assert!(session.take(id).is_some(), "finished request has output");
        }
    }
    b.spans.close(root);
    let prefill_rows: usize = jobs.iter().map(|j| j.prompt.len()).sum();
    b.report.set("spec.step_prefill_ms", step_ms[0]);
    b.report
        .set("spec.step_decode_ms_p50", median(&step_ms[1..]));
    b.report.set(
        "spec.step_rows_mean",
        ratio((rows - prefill_rows) as f64, (step_ms.len() - 1) as f64),
    );
}

/// `pi-perf`'s roofline prediction of a one-token decode, on a node whose
/// bandwidth and FLOP rate are the `tensor` rates just measured, over the
/// measured decode time: the calibration figure Sim-mode numbers wait on.
fn perf(b: &mut Bench) {
    let bytes_per_s = b.report.get("tensor.gemv_gbps") * 1e9;
    let gemm_row_ns = b.report.get("tensor.gemm8_704x256_ns_per_row");
    let flops = ratio(
        2.0 * (TensorOps::FF * TensorOps::D) as f64,
        gemm_row_ns * 1e-9,
    );
    let predicted = adapter::predicted_decode_s(&bp256_config(), bytes_per_s, flops, 64);
    let measured = b.report.get("model.decode_ms_ctx64") / 1e3;
    b.report
        .set("perf.pred_over_meas_decode", ratio(predicted, measured));
}
