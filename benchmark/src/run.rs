//! One workload, one process: set-up, the timed phase, the reference check
//! and the report.  The untraced pass yields the end-to-end metrics; the
//! traced pass re-runs the same inputs with spans around every public call
//! and yields the per-layer metrics.

use crate::adapter::{
    Bubbles, Deployed, Job, Model, RunResult, ServeResult, Served, StrategyKind, Verifier,
    CONFIDENCE_CUTOFF,
};
use crate::layers::{self, Effort};
use crate::metrics::{quantile, ratio, summarize, Report, Summary, END_TO_END, PER_LAYER};
use crate::pair::{self, Pair};
use crate::rng::Rng;
use crate::spans::{SpanId, Spans};
use crate::sys;
use crate::workloads::{Inputs, Shape, Workload, N_RANKS, WINDOW};
use std::path::PathBuf;
use std::time::Instant;

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
}

/// What a workload's requests are sent to.
enum Target {
    Solo(Deployed),
    Stream(Served),
}

/// Everything set-up builds.
struct Env {
    pair: Pair,
    target: Target,
}

/// Set-up as a user of the system pays it: weights, `Deployment::prepare`,
/// the KV pool and two warm-up requests through the workload's own path.
fn set_up(w: &Workload, warmups: &[Job], spans: &mut Spans, parent: SpanId) -> Env {
    let pair = spans.scoped("setup.weights", parent, |_, _| pair::build(w.alignment));
    let deployed = spans.scoped("setup.prepare", parent, |_, _| {
        Deployed::prepare(w.strategy, &pair.target, &pair.draft, N_RANKS)
    });
    let target = match w.shape {
        Shape::Solo { .. } => Target::Solo(deployed),
        Shape::Stream { pool, .. } => Target::Stream(deployed.into_server(WINDOW, pool)),
    };
    spans.scoped("setup.warmup", parent, |_, _| match &target {
        Target::Solo(deployed) => {
            for job in warmups {
                assert!(deployed.run(job).completed, "warm-up request completes");
            }
        }
        Target::Stream(served) => {
            assert_eq!(
                served.serve_stepped(warmups).requests.len(),
                warmups.len(),
                "warm-up requests complete"
            );
        }
    });
    Env { pair, target }
}

/// Two short requests shaped like the workload's own (sharing its system
/// prompt when it has one, so the pool starts warm as a served system would).
fn warmup_jobs(inputs: &Inputs, seed: u64) -> Vec<Job> {
    let mut rng = Rng::new(seed ^ 0x3A93_0000);
    (0..2)
        .map(|i| {
            let mut prompt = inputs.shared_prefix.clone();
            prompt.extend(rng.tokens(if prompt.is_empty() { 32 } else { 8 }));
            Job {
                id: i,
                prompt,
                n_generate: 8,
                arrival: 0.0,
            }
        })
        .collect()
}

/// One request as measured.
struct Sample {
    /// Index into the run's jobs.
    job: usize,
    /// Due arrival → first accepted token.
    ttft_ms: f64,
    /// (last − first accept) ÷ (n − 1); `None` with fewer than two tokens.
    itl_mean_ms: Option<f64>,
    /// Every gap between consecutive accepts.
    gaps_ms: Vec<f64>,
    e2e_ms: f64,
    queue_ms: f64,
    /// Whether the traced entry point produced it.
    traced: bool,
    /// Wall seconds of the call (solo only).
    wall_s: f64,
    run: RunResult,
}

impl Sample {
    fn new(job: usize, run: RunResult, ttft_s: f64, e2e_s: f64, queue_s: f64) -> Self {
        let gaps_ms: Vec<f64> = run
            .accept_times
            .windows(2)
            .map(|w| (w[1] - w[0]) * 1e3)
            .collect();
        let itl_mean_ms =
            (!gaps_ms.is_empty()).then(|| gaps_ms.iter().sum::<f64>() / gaps_ms.len() as f64);
        Self {
            job,
            ttft_ms: ttft_s * 1e3,
            itl_mean_ms,
            gaps_ms,
            e2e_ms: e2e_s * 1e3,
            queue_ms: queue_s * 1e3,
            traced: false,
            wall_s: 0.0,
            run,
        }
    }

    /// A closed-loop request: due arrival is the moment of the call.  The
    /// run's own timeline starts when its driver does, so whatever the call
    /// spent before that (engines, caches) is added in front.
    fn solo(job: usize, run: RunResult, wall_s: f64) -> Self {
        let lead = (wall_s - run.driver_time).max(0.0);
        let first = run.accept_times.first().copied().unwrap_or(run.finished_at);
        let mut s = Self::new(job, run, lead + first, wall_s, 0.0);
        s.wall_s = wall_s;
        s
    }

    /// Output tokens that count: the stream up to the requested length.
    fn tokens(&self, jobs: &[Job]) -> usize {
        self.run.tokens.len().min(jobs[self.job].n_generate)
    }
}

/// One timed call into the program: a closed-loop request or one segment of
/// a stream.  Throughput and CPU cost are taken per call and reported as the
/// median over calls, so a stretch in which the machine was taken away
/// spoils the calls it hit and not the run.
struct Call {
    /// The samples the call produced.
    samples: std::ops::Range<usize>,
    wall_s: f64,
    /// utime + stime of the process over the call.
    cpu_s: f64,
}

/// Output tokens per second and CPU seconds per 1000 output tokens, each as
/// the median over `calls`.
fn per_call(calls: &[Call], samples: &[Sample], jobs: &[Job]) -> (Summary, Summary) {
    let tokens = |c: &Call| -> f64 {
        samples[c.samples.clone()]
            .iter()
            .map(|s| s.tokens(jobs) as f64)
            .sum()
    };
    let tok_s: Vec<f64> = calls.iter().map(|c| ratio(tokens(c), c.wall_s)).collect();
    let cpu: Vec<f64> = calls
        .iter()
        .map(|c| ratio(c.cpu_s, tokens(c) / 1e3))
        .collect();
    (summarize(&tok_s).1, summarize(&cpu).1)
}

/// Closed loop: one request after another until `seconds` have elapsed.
/// `call(i)` performs request number `i` and says which job it ran and
/// whether through the traced entry point.
fn solo_loop(
    seconds: f64,
    spans: &mut Spans,
    parent: SpanId,
    mut call: impl FnMut(usize) -> (usize, RunResult, bool),
) -> (Vec<Sample>, Vec<Call>) {
    let mut samples = Vec::new();
    let mut calls = Vec::new();
    let t0 = Instant::now();
    while samples.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        let i = samples.len();
        let id = spans.open("request", parent, Some(i as u64));
        let cpu0 = sys::cpu_seconds();
        let started = Instant::now();
        let (job, run, traced) = call(i);
        let wall_s = started.elapsed().as_secs_f64();
        let cpu_s = sys::cpu_seconds() - cpu0;
        spans.close(id);
        spans.derived("prefill", id, i as u64, "driver", 0.0, run.prompt_done_at);
        spans.derived(
            "decode",
            id,
            i as u64,
            "driver",
            run.prompt_done_at,
            run.finished_at,
        );
        let mut sample = Sample::solo(job, run, wall_s);
        sample.traced = traced;
        samples.push(sample);
        calls.push(Call {
            samples: i..i + 1,
            wall_s,
            cpu_s,
        });
    }
    (samples, calls)
}

/// What the segments of a stream added up to.
#[derive(Default)]
struct Streamed {
    samples: Vec<Sample>,
    calls: Vec<Call>,
    result: ServeResult,
    /// Wall seconds inside `serve_stepped`.
    wall_s: f64,
    /// Service-clock seconds during which some request was in the step loop.
    stepping_s: f64,
}

/// Open loop: one `serve_stepped` call per segment of `segment` jobs, until
/// `seconds` have elapsed or the jobs run out.
fn stream_calls(
    served: &Served,
    jobs: &[Job],
    segment: usize,
    seconds: f64,
    spans: &mut Spans,
    parent: SpanId,
) -> Streamed {
    let mut out = Streamed::default();
    let t0 = Instant::now();
    for part in jobs.chunks(segment) {
        if !out.calls.is_empty() && t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let id = spans.open("serve_stepped", parent, None);
        let cpu0 = sys::cpu_seconds();
        let started = Instant::now();
        let result = served.serve_stepped(part);
        let wall_s = started.elapsed().as_secs_f64();
        let cpu_s = sys::cpu_seconds() - cpu0;
        spans.close(id);
        let first = out.samples.len();
        for r in &result.requests {
            spans.derived("queue", id, r.id, "service", r.arrival, r.started);
            spans.derived("prefill", id, r.id, "service", r.started, r.first_token);
            spans.derived("decode", id, r.id, "service", r.first_token, r.finished);
            out.samples.push(Sample::new(
                r.id as usize,
                r.run.clone(),
                r.first_token - r.arrival,
                r.finished - r.arrival,
                r.started - r.arrival,
            ));
        }
        out.calls.push(Call {
            samples: first..out.samples.len(),
            wall_s,
            cpu_s,
        });
        out.wall_s += wall_s;
        // The session clock advances only while some request is in the step
        // loop, so the union of the requests' service intervals is the
        // summed step time.
        out.stepping_s += union_length(
            result
                .requests
                .iter()
                .map(|r| (r.started, r.finished))
                .collect(),
        );
        out.result.absorb(result);
    }
    out
}

/// Checks every sample's stream against the greedy reference, on all cores.
/// Returns one flag per sample.
fn verify(target: &Model, inputs: &Inputs, samples: &[Sample]) -> Vec<bool> {
    let jobs = &inputs.jobs;
    let prefix = &inputs.shared_prefix;
    let tail = samples
        .iter()
        .map(|s| jobs[s.job].prompt.len().saturating_sub(prefix.len()) + jobs[s.job].n_generate)
        .max()
        .unwrap_or(0);
    let verifier = Verifier::new(target, prefix, tail);
    let check = |s: &Sample| {
        let job = &jobs[s.job];
        s.run.completed
            && s.run.tokens.len() >= job.n_generate
            && verifier.check(&job.prompt, &s.run.tokens[..job.n_generate])
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let chunk = samples.len().div_ceil(threads).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = samples
            .chunks(chunk)
            .map(|part| scope.spawn(|| part.iter().map(check).collect::<Vec<bool>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("verifier thread"))
            .collect()
    })
}

/// Ends the process (exit code 2, no result line) when a pair self-check
/// failed: a workload that quietly stopped speculating must not report.
fn or_abort<T>(checked: Result<T, String>) -> T {
    checked.unwrap_or_else(|why| {
        eprintln!("pair self-check failed: {why}");
        std::process::exit(2)
    })
}

/// Speculating workloads must really speculate: gates on the counters of the
/// timed requests themselves and notes the measured acceptance.
fn acceptance_gate(w: &Workload, samples: &[Sample], report: &mut Report) {
    if w.strategy == StrategyKind::Iterative {
        return;
    }
    let drafted: usize = samples.iter().map(|s| s.run.drafted).sum();
    let accepted: usize = samples.iter().map(|s| s.run.accepted_drafts).sum();
    let rate = or_abort(pair::check_acceptance(w.alignment, drafted, accepted));
    report.notes.push(format!(
        "pair {}: run acceptance {rate:.4} ({accepted}/{drafted} drafted tokens)",
        w.alignment.name()
    ));
}

/// Runs the single-process probe, gates on it and returns its acceptance.
fn probe_gate(pair: &Pair, smoke: bool, report: &mut Report) -> f64 {
    let prompt = Rng::new(0x960B).tokens(48);
    let probe = pair.probe(&prompt, CONFIDENCE_CUTOFF, if smoke { 24 } else { 64 });
    report.notes.push(format!(
        "pair {}: probe acceptance {:.4} ({}/{} drafted), per-token agreement {:.4}",
        pair.alignment.name(),
        probe.acceptance(),
        probe.accepted,
        probe.drafted,
        probe.agreement
    ));
    or_abort(pair::check_acceptance(
        pair.alignment,
        probe.drafted,
        probe.accepted,
    ));
    probe.acceptance()
}

struct Outcome {
    report: Report,
    attempted: usize,
    failed: usize,
}

/// Requests sent that did not come back complete and equal to the reference.
fn count_failures(attempted: usize, verified: &[bool]) -> usize {
    attempted.saturating_sub(verified.iter().filter(|&&ok| ok).count())
}

fn end_to_end(w: &Workload, opts: &Options) -> Outcome {
    let mut report = Report::new(END_TO_END);
    let mut spans = Spans::new(false);
    let inputs = w.inputs(opts.seed, w.count_for(opts.seconds));
    let warmups = warmup_jobs(&inputs, opts.seed);

    // Set-up several times; report the median, keep the last.
    let mut setup_s = Vec::new();
    let mut env = None;
    for _ in 0..if opts.smoke { 1 } else { 5 } {
        drop(env.take());
        let t = Instant::now();
        env = Some(set_up(w, &warmups, &mut spans, None));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let env = env.expect("set up at least once");
    let (_, setup) = summarize(&setup_s);
    probe_gate(&env.pair, opts.smoke, &mut report);

    // Timed phase.
    let (samples, calls, attempted) = match &env.target {
        Target::Solo(deployed) => {
            let (samples, calls) = solo_loop(opts.seconds, &mut spans, None, |i| {
                let job = i % inputs.jobs.len();
                (job, deployed.run(&inputs.jobs[job]), false)
            });
            let attempted = samples.len();
            (samples, calls, attempted)
        }
        Target::Stream(served) => {
            let streamed = stream_calls(
                served,
                &inputs.jobs,
                w.segment(),
                opts.seconds,
                &mut spans,
                None,
            );
            let attempted = streamed.calls.len() * w.segment();
            (streamed.samples, streamed.calls, attempted)
        }
    };
    let peak_rss_mb = sys::peak_rss_mb();

    // Reference check, outside every metric.
    let verified = verify(&env.pair.target, &inputs, &samples);
    let failed = count_failures(attempted, &verified);
    acceptance_gate(w, &samples, &mut report);

    let tokens: usize = samples.iter().map(|s| s.tokens(&inputs.jobs)).sum();
    let wall_s: f64 = calls.iter().map(|c| c.wall_s).sum();
    let (tok_s, cpu_per_ktok) = per_call(&calls, &samples, &inputs.jobs);
    let latency = Latency::of(samples.iter());
    let within_slo = samples
        .iter()
        .zip(&verified)
        .filter(|(s, &ok)| {
            ok && s.ttft_ms <= w.slo_ttft_ms && s.itl_mean_ms.unwrap_or(0.0) <= w.slo_itl_ms
        })
        .count();

    report.notes.push(format!(
        "timed phase: {:.3} s wall in {} calls, {} requests, {} output tokens ({:.3} tok/s over the whole phase), {} threads available",
        wall_s,
        calls.len(),
        samples.len(),
        tokens,
        ratio(tokens as f64, wall_s),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    report.notes.push(format!(
        "tails (bounded nowhere, see the traced pass): ttft p90 {:.3} ms, itl p99 {:.3} ms, e2e p90 {:.3} ms, peak rss {peak_rss_mb:.1} MB",
        quantile(&latency.ttft, 0.9),
        quantile(&latency.gaps, 0.99),
        quantile(&latency.e2e, 0.9),
    ));
    report.set_dist("setup_s", setup.median, setup);
    report.set_dist("gen_tok_s", tok_s.median, tok_s);
    report.set_dist("ttft_p50_ms", latency.ttft_dist.median, latency.ttft_dist);
    report.set_dist("itl_mean_ms", latency.itl_dist.median, latency.itl_dist);
    report.set("slo_ok_frac", ratio(within_slo as f64, attempted as f64));
    report.set_dist("cpu_s_per_ktok", cpu_per_ktok.median, cpu_per_ktok);
    Outcome {
        report,
        attempted,
        failed,
    }
}

/// Latency distributions of a set of samples (sorted values and summaries).
struct Latency {
    ttft: Vec<f64>,
    ttft_dist: Summary,
    e2e: Vec<f64>,
    e2e_dist: Summary,
    /// Per-request mean inter-token latency.
    itl_dist: Summary,
    /// Every individual gap between accepts.
    gaps: Vec<f64>,
    gap_dist: Summary,
}

impl Latency {
    fn of<'a>(samples: impl Iterator<Item = &'a Sample> + Clone) -> Self {
        let (ttft, ttft_dist) = summarize(&samples.clone().map(|s| s.ttft_ms).collect::<Vec<_>>());
        let (e2e, e2e_dist) = summarize(&samples.clone().map(|s| s.e2e_ms).collect::<Vec<_>>());
        let (_, itl_dist) = summarize(
            &samples
                .clone()
                .filter_map(|s| s.itl_mean_ms)
                .collect::<Vec<_>>(),
        );
        let (gaps, gap_dist) = summarize(
            &samples
                .flat_map(|s| s.gaps_ms.iter().copied())
                .collect::<Vec<_>>(),
        );
        Self {
            ttft,
            ttft_dist,
            e2e,
            e2e_dist,
            itl_dist,
            gaps,
            gap_dist,
        }
    }
}

/// Length of the union of `[start, end]` intervals.
fn union_length(mut intervals: Vec<(f64, f64)>) -> f64 {
    intervals.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let mut total = 0.0;
    let mut open: Option<(f64, f64)> = None;
    for (s, e) in intervals {
        match open {
            Some((os, oe)) if s <= oe => open = Some((os, oe.max(e))),
            Some((os, oe)) => {
                total += oe - os;
                open = Some((s, e));
            }
            None => open = Some((s, e)),
        }
    }
    total + open.map_or(0.0, |(s, e)| e - s)
}

/// Tokens per second of `samples` (all of them solo calls).
fn solo_tok_s(samples: &[&Sample], jobs: &[Job]) -> f64 {
    let tokens: usize = samples.iter().map(|s| s.tokens(jobs)).sum();
    ratio(tokens as f64, samples.iter().map(|s| s.wall_s).sum())
}

/// `serve.*` and `model.pool_*`: what the `serve_stepped` calls reported.
fn serve_metrics(report: &mut Report, streamed: &Streamed, jobs: &[Job]) {
    let result = &streamed.result;
    let (waits, _) = summarize(
        &streamed
            .samples
            .iter()
            .map(|s| s.queue_ms)
            .collect::<Vec<_>>(),
    );
    let prompt_tokens: usize = jobs.iter().map(|j| j.prompt.len()).sum();
    let pool = &result.pool;
    report.set("serve.queue_wait_p50_ms", quantile(&waits, 0.5));
    report.set("serve.queue_wait_p90_ms", quantile(&waits, 0.9));
    report.set(
        "serve.cohort_width_mean",
        ratio(result.cohort_width_sum as f64, result.cohort_steps as f64),
    );
    report.set("serve.steps", result.cohort_steps as f64);
    report.set(
        "serve.prefix_hit_rate",
        ratio(pool.share_hits as f64, pool.requests as f64),
    );
    report.set("serve.refusals", pool.refusals as f64);
    report.set(
        "serve.step_sum_over_wall",
        ratio(streamed.stepping_s, streamed.wall_s),
    );
    report.set(
        "model.pool_hit_frac",
        ratio(pool.shared_tokens as f64, prompt_tokens as f64),
    );
    report.set("model.pool_evictions", pool.evictions as f64);
    report.set("model.pool_pages_peak", pool.pages_peak as f64);
    report.notes.push(format!(
        "serve_stepped: {:.3} s wall in {} calls, {} rows in {} steps",
        streamed.wall_s,
        streamed.calls.len(),
        result.batched_rows,
        result.cohort_steps
    ));
}

/// The demoted end-to-end readings, over the requests that went through the
/// untraced entry point (all of them on a stream).
fn demoted_metrics(report: &mut Report, samples: &[Sample]) {
    let tails = Latency::of(samples.iter().filter(|s| !s.traced));
    report.set_dist(
        "e2e.ttft_p90_ms",
        quantile(&tails.ttft, 0.9),
        tails.ttft_dist,
    );
    report.set_dist(
        "e2e.itl_p99_ms",
        quantile(&tails.gaps, 0.99),
        tails.gap_dist,
    );
    report.set_dist("e2e.e2e_p90_ms", quantile(&tails.e2e, 0.9), tails.e2e_dist);
}

/// Counters the runs themselves returned, summed over every request.
fn run_counters(report: &mut Report, samples: &[Sample], jobs: &[Job]) {
    let sum = |f: &dyn Fn(&Sample) -> f64| samples.iter().map(f).sum::<f64>();
    let tokens = sum(&|s| s.tokens(jobs) as f64);
    let launched = sum(&|s| s.run.runs_launched as f64);
    let per_tok = |total: f64| ratio(total, tokens);
    let per_ktok = |total: f64| ratio(total, tokens / 1e3);
    report.set(
        "cluster.msgs_per_tok",
        per_tok(sum(&|s| s.run.messages as f64)),
    );
    report.set(
        "cluster.bytes_per_tok",
        per_tok(sum(&|s| s.run.bytes as f64)),
    );
    report.set(
        "cluster.rank_busy_frac",
        ratio(
            sum(&|s| s.run.busy_time),
            sum(&|s| s.run.driver_time * s.run.n_ranks as f64),
        ),
    );
    report.set(
        "spec.accept_rate",
        ratio(
            sum(&|s| s.run.accepted_drafts as f64),
            sum(&|s| s.run.drafted as f64),
        ),
    );
    report.set(
        "spec.tok_per_run",
        ratio(sum(&|s| s.run.tokens.len() as f64), launched),
    );
    report.set("core.runs_per_tok", per_tok(launched));
    report.set(
        "core.cancelled_frac",
        ratio(sum(&|s| s.run.runs_cancelled as f64), launched),
    );
    report.set(
        "core.cancellations_saved",
        per_ktok(sum(&|s| s.run.cancellations_saved as f64)),
    );
    report.set(
        "core.runs_rescued",
        per_ktok(sum(&|s| s.run.runs_rescued as f64)),
    );
}

/// `cluster.bubble_*` and `trace.*`: what `run_traced` adds on a solo
/// workload, where every job ran through both entry points.
fn solo_trace_metrics(report: &mut Report, samples: &[Sample], bubbles: &[Bubbles], jobs: &[Job]) {
    let mean =
        |f: &dyn Fn(&Bubbles) -> f64| bubbles.iter().map(f).sum::<f64>() / bubbles.len() as f64;
    report.set("cluster.bubble_frac", mean(&|b| b.bubble_frac));
    report.set(
        "cluster.bubble_awaiting_draft_frac",
        mean(&|b| b.awaiting_draft_frac),
    );
    report.set(
        "cluster.bubble_cancelled_work_frac",
        mean(&|b| b.cancelled_work_frac),
    );
    report.set(
        "cluster.bubble_scheduling_gap_frac",
        mean(&|b| b.scheduling_gap_frac),
    );
    let traced: Vec<&Sample> = samples.iter().filter(|s| s.traced).collect();
    let untraced: Vec<&Sample> = samples.iter().filter(|s| !s.traced).collect();
    // Compare the two entry points over the jobs both of them ran.
    let paired = traced.len().min(untraced.len());
    let traced_tok_s = solo_tok_s(&traced[..paired], jobs);
    let untraced_tok_s = solo_tok_s(&untraced[..paired], jobs);
    report.set(
        "trace.overhead_frac",
        1.0 - ratio(traced_tok_s, untraced_tok_s),
    );
    report.set(
        "trace.events_per_tok",
        ratio(
            bubbles.iter().map(|b| b.events as f64).sum(),
            traced.iter().map(|s| s.tokens(jobs) as f64).sum(),
        ),
    );
    report.notes.push(format!(
        "trace overhead bases: untraced {untraced_tok_s:.3} tok/s, traced {traced_tok_s:.3} tok/s over {paired} jobs each"
    ));
}

/// The paper's comparison on a PipeInfer solo workload's own pair and first
/// jobs: the two baselines, and PipeInfer's speed-up over each.
fn paper_baselines(
    report: &mut Report,
    spans: &mut Spans,
    pair: &Pair,
    samples: &[Sample],
    jobs: &[Job],
    smoke: bool,
) {
    let baseline_jobs = &jobs[..if smoke { 1 } else { 2 }];
    let mut baseline = |kind: StrategyKind, name: &str| {
        let deployed = Deployed::prepare(kind, &pair.target, &pair.draft, N_RANKS);
        let id = spans.open(name, None, None);
        let t = Instant::now();
        let tokens: usize = baseline_jobs
            .iter()
            .map(|j| deployed.run(j).tokens.len().min(j.n_generate))
            .sum();
        let tok_s = ratio(tokens as f64, t.elapsed().as_secs_f64());
        spans.close(id);
        tok_s
    };
    let iterative = baseline(StrategyKind::Iterative, "baseline.iterative");
    let speculative = baseline(StrategyKind::Speculative, "baseline.speculative");
    let untraced: Vec<&Sample> = samples.iter().filter(|s| !s.traced).collect();
    let pipeinfer = solo_tok_s(&untraced, jobs);
    report.set("spec.iterative_tok_s", iterative);
    report.set("spec.speculative_tok_s", speculative);
    report.set("core.pipeinfer_tok_s", pipeinfer);
    report.set("core.speedup_vs_iterative", ratio(pipeinfer, iterative));
    report.set("core.speedup_vs_speculative", ratio(pipeinfer, speculative));
    report.notes.push(format!(
        "speedup bases: PipeInfer {pipeinfer:.3}, iterative {iterative:.3}, speculative {speculative:.3} tok/s"
    ));
}

fn traced(w: &Workload, opts: &Options) -> Outcome {
    let mut report = Report::new(PER_LAYER);
    for (name, _) in PER_LAYER {
        // Counters a workload never touches read zero.
        report.set(name, 0.0);
    }
    let mut spans = Spans::new(true);
    let inputs = w.inputs(opts.seed, w.count_for(opts.seconds));
    let jobs = &inputs.jobs;
    let warmups = warmup_jobs(&inputs, opts.seed);

    let env = spans.scoped("setup", None, |spans, id| set_up(w, &warmups, spans, id));
    let probe = probe_gate(&env.pair, opts.smoke, &mut report);
    report.set("spec.pair_probe_accept", probe);

    // Re-run the workload's inputs with spans around every call.
    let root = spans.open("workload", None, None);
    let mut bubbles: Vec<Bubbles> = Vec::new();
    let (samples, attempted) = match &env.target {
        Target::Solo(deployed) => {
            // Each job runs twice, untraced then traced, so the two entry
            // points see identical inputs.
            let (samples, _) = solo_loop(opts.seconds, &mut spans, root, |i| {
                let job = (i / 2) % jobs.len();
                if i % 2 == 0 {
                    (job, deployed.run(&jobs[job]), false)
                } else {
                    let (run, b) = deployed.run_traced(&jobs[job]);
                    bubbles.push(b);
                    (job, run, true)
                }
            });
            let attempted = samples.len();
            (samples, attempted)
        }
        Target::Stream(served) => {
            let streamed = stream_calls(served, jobs, w.segment(), opts.seconds, &mut spans, root);
            let attempted = streamed.calls.len() * w.segment();
            serve_metrics(&mut report, &streamed, &jobs[..attempted]);
            (streamed.samples, attempted)
        }
    };
    spans.close(root);
    // Read before the micro-benchmarks below allocate anything of their own.
    report.set("e2e.peak_rss_mb", sys::peak_rss_mb());
    demoted_metrics(&mut report, &samples);
    run_counters(&mut report, &samples, jobs);
    if let Target::Solo(_) = env.target {
        solo_trace_metrics(&mut report, &samples, &bubbles, jobs);
        if w.strategy == StrategyKind::PipeInfer {
            paper_baselines(
                &mut report,
                &mut spans,
                &env.pair,
                &samples,
                jobs,
                opts.smoke,
            );
        }
    }

    spans.scoped("layers", None, |spans, id| {
        let effort = Effort { quick: opts.smoke };
        layers::measure(&env.pair, effort, spans, id, &mut report)
    });

    let verified = spans.scoped("reference_check", None, |_, _| {
        verify(&env.pair.target, &inputs, &samples)
    });
    let failed = count_failures(attempted, &verified);
    acceptance_gate(w, &samples, &mut report);

    let path = trace_path(w.name);
    match spans.write(&path) {
        Ok(()) => report.notes.push(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    Outcome {
        report,
        attempted,
        failed,
    }
}

/// `<cargo target dir>/benchmark/trace-<workload>.json`, next to the build
/// that produced this executable (so always inside the checkout).
fn trace_path(workload: &str) -> PathBuf {
    let exe = std::env::current_exe().expect("own path");
    let target_dir = exe
        .parent()
        .and_then(|profile| profile.parent())
        .expect("executable lives in <target>/<profile>/");
    target_dir
        .join("benchmark")
        .join(format!("trace-{workload}.json"))
}

/// Runs one workload in this process and prints its report.
pub fn run(w: &Workload, opts: &Options) {
    let outcome = if opts.traced {
        traced(w, opts)
    } else {
        end_to_end(w, opts)
    };
    let correct = outcome.failed == 0;
    outcome
        .report
        .finish(w.name, correct, outcome.attempted, outcome.failed);
}
