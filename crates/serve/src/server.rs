//! The long-lived server: one warmed-up deployment serving a request stream.
//!
//! A [`Server`] owns a [`PreparedDeployment`] — strategy, `Arc`-shared model
//! weights and validated rank layout, built once — and executes every
//! admitted request over it.  Execution uses a pool of `max_in_flight`
//! worker threads pulling requests in admission order, so up to a full
//! window of requests genuinely runs concurrently and each slot is refilled
//! the moment its run completes (continuous batching at request
//! granularity).  Each run is an isolated session (fresh KV caches and run
//! trackers inside `PreparedDeployment::run`), which is why concurrency can
//! never change a request's token stream.
//!
//! ## Clocks
//!
//! Latency metrics live on the *service clock*: in `Sim` mode a request's
//! service duration is the virtual makespan of its run (deterministic), in
//! `Real` mode it is the measured wall time.  The admission timeline — who
//! waited behind whom under the window bound — is then reconstructed by the
//! deterministic [`scheduler`](crate::scheduler) from arrivals, priorities
//! and service durations, so `Sim`-mode serving metrics are bit-reproducible
//! run to run.
//!
//! `Real`-mode caveat: the timeline is a queueing *model* over measured
//! service times, not a trace of an online server.  Wall times are measured
//! while up to a window of other runs contend for the same cores (arrival
//! gaps are not replayed during execution), so `Real`-mode latency
//! aggregates are approximations — `Sim` mode is the measurement-grade
//! path, `Real` mode demonstrates genuine concurrent serving of real
//! models.

use crate::report::ServeReport;
use crate::request::{Completion, Request, RequestTiming};
use crate::scheduler::{plan, SchedulerConfig};
use pi_model::KvPagePool;
use pi_spec::deploy::{ExecutionMode, PreparedDeployment, RunOptions, RunOutput};
use pi_trace::{Clock, MonotonicClock, TraceConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Server tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Maximum number of requests in flight at once (window size and worker
    /// pool width).
    pub max_in_flight: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self { max_in_flight: 8 }
    }
}

/// A long-lived server over one prepared deployment.
pub struct Server {
    prepared: PreparedDeployment,
    config: ServerConfig,
    clock: Arc<dyn Clock>,
    trace: Option<TraceConfig>,
}

impl Server {
    /// Wraps a prepared deployment.  Prepare it once with
    /// [`Deployment::prepare`](pi_spec::Deployment::prepare) and keep the
    /// server alive across request streams.
    pub fn new(prepared: PreparedDeployment, config: ServerConfig) -> Self {
        assert!(config.max_in_flight >= 1, "window must admit at least one");
        Self {
            prepared,
            config,
            clock: Arc::new(MonotonicClock::new()),
            trace: None,
        }
    }

    /// Replaces the wall-clock source used for `Real`-mode service-time
    /// measurement (tests inject a [`pi_trace::ManualClock`]).
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Attaches a per-request structured event recorder: every request's
    /// [`Completion`] carries its run's cross-rank trace, and the report's
    /// bubble-fraction aggregate becomes available.
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = Some(trace);
        self
    }

    /// The underlying prepared deployment.
    pub fn prepared(&self) -> &PreparedDeployment {
        &self.prepared
    }

    /// The server configuration.
    pub fn config(&self) -> ServerConfig {
        self.config
    }

    /// Name of the strategy this server deploys.
    pub fn strategy_name(&self) -> &'static str {
        self.prepared.strategy().name()
    }

    /// Serves a request stream to completion.
    pub fn serve(&self, requests: Vec<Request>) -> ServeReport {
        self.serve_with(requests, |_| {})
    }

    /// Serves a request stream with **iteration-level batching**: one
    /// [`StepSession`](pi_spec::StepSession) step loop drives every request,
    /// fusing all in-flight micro-batches into a single forest batch per
    /// decode iteration (projections and FFNs run as one `m = Σ cohort
    /// widths` GEMM, attention stays per-sequence).
    ///
    /// Cohort formation is deterministic: requests are admitted in admission
    /// order (arrival, then priority among the waiting, then id) the moment
    /// the session clock reaches their arrival and a slot inside
    /// `max_in_flight` frees up; the cohort re-forms at every step boundary.
    /// Each request's token stream is byte-identical to its solo run and to
    /// thread-pool serving ([`Server::serve`]) — fusion changes the
    /// roofline, never the tokens.
    pub fn serve_stepped(&self, requests: Vec<Request>) -> ServeReport {
        self.serve_stepped_inner(requests, true)
    }

    /// [`Server::serve_stepped`] with fusion disabled: the identical step
    /// loop and admission schedule, but every request's micro-batch is
    /// evaluated alone (a full per-stage weight stream per request per
    /// iteration).  This is the request-granularity baseline the
    /// `fig_cohort_batching` bench gate measures fusion against; tokens are
    /// identical to the fused path.
    pub fn serve_stepped_unfused(&self, requests: Vec<Request>) -> ServeReport {
        self.serve_stepped_inner(requests, false)
    }

    fn serve_stepped_inner(&self, requests: Vec<Request>, fused: bool) -> ServeReport {
        let window = self.config.max_in_flight;
        let order = crate::scheduler::admission_order(&requests);
        let mut session = self.prepared.begin_session().with_fused(fused);

        // Session-request id -> (request index, admission time).
        let mut live: Vec<(u64, usize, f64)> = Vec::new();
        let mut waiting: std::collections::VecDeque<usize> = order.iter().copied().collect();
        let mut completions: Vec<Completion> = Vec::with_capacity(requests.len());

        loop {
            // Admit every arrived request that fits the window, picking the
            // highest-priority arrival first (FIFO on ties) — the same
            // policy the scheduler plans with.
            loop {
                if live.len() >= window || waiting.is_empty() {
                    break;
                }
                let now = session.now();
                let best = waiting
                    .iter()
                    .enumerate()
                    .filter(|(_, &idx)| requests[idx].arrival <= now)
                    .max_by(|(_, &a), (_, &b)| {
                        let (ra, rb) = (&requests[a], &requests[b]);
                        ra.priority.cmp(&rb.priority).then(
                            rb.arrival
                                .partial_cmp(&ra.arrival)
                                .expect("arrivals comparable")
                                .then(rb.id.cmp(&ra.id)),
                        )
                    })
                    .map(|(pos, _)| pos);
                let Some(pos) = best else { break };
                let idx = waiting.remove(pos).expect("position in deque");
                let sid = session.admit(&requests[idx].gen);
                live.push((sid, idx, now));
            }

            if session.active() == 0 {
                // Idle: jump to the next arrival, or finish the stream.
                match waiting.front() {
                    Some(&idx) => session.advance_to(requests[idx].arrival),
                    None => break,
                }
                continue;
            }

            for sid in session.step_cohort().finished {
                let pos = live
                    .iter()
                    .position(|&(s, _, _)| s == sid)
                    .expect("finished request was live");
                let (_, idx, started) = live.remove(pos);
                let output = session.take_output(sid).expect("finished output");
                let req = &requests[idx];
                let first_token = output
                    .record
                    .accept_times
                    .first()
                    .copied()
                    .unwrap_or(output.record.finished_at);
                completions.push(Completion {
                    id: req.id,
                    priority: req.priority,
                    timing: RequestTiming {
                        arrival: req.arrival,
                        started,
                        first_token,
                        finished: output.record.finished_at,
                    },
                    output,
                });
            }
        }

        completions.sort_by(|a, b| {
            a.timing
                .finished
                .partial_cmp(&b.timing.finished)
                .expect("finish times must be comparable")
                .then(a.id.cmp(&b.id))
        });
        let report = ServeReport::new(self.strategy_name(), window, completions)
            .with_cohort(session.stats());
        match self.prepared.kv_pool() {
            Some(pool) => report.with_kv_pool(pool.stats()),
            None => report,
        }
    }

    /// Serves a request stream, invoking `on_complete` once per request in
    /// service-clock completion order (deterministic in `Sim` mode).
    pub fn serve_with(
        &self,
        requests: Vec<Request>,
        mut on_complete: impl FnMut(&Completion),
    ) -> ServeReport {
        let n = requests.len();
        let window = self.config.max_in_flight;

        let exec_order = crate::scheduler::admission_order(&requests);

        // Phase 0 — deterministic KV-pool admission pre-pass (`Sim` mode
        // only).  When the prepared deployment owns a page pool, walk the
        // admission stream *sequentially* in admission order performing each
        // request's pool lifecycle (admit, match the longest committed
        // prefix, commit the prompt chain) while keeping at most `window`
        // requests pinned — the pool occupancy an online server with this
        // in-flight bound would see.  Concurrent phase-1 execution then
        // replays the pre-computed cached spans, so prefix hit rates,
        // refusals and every latency figure are bit-reproducible regardless
        // of thread timing.  Refused requests still execute — on isolated
        // flat caches with no cached span — and surface in the report's
        // refusal column.
        //
        // `Real` mode skips the pre-pass: its runs ignore externally computed
        // spans (no physical pages back them), so pre-pass counters would
        // claim prefill reuse that never happened.  Instead each `Real` run
        // goes through the deployment's own pooled path, which admits,
        // attaches committed stage pages, and commits physical chains — the
        // pool stats attached below then reflect genuine reuse.
        let pool = self.prepared.kv_pool().cloned();
        let sim_spans = pool.is_some() && matches!(self.prepared.mode(), ExecutionMode::Sim { .. });
        let prefix_cached = match &pool {
            Some(pool) if sim_spans => pool_admission_spans(pool, &requests, &exec_order, window),
            _ => vec![0; n],
        };

        // Phase 1 — execute every request over the shared prepared
        // deployment, at most `window` concurrently, pulled in the same
        // admission-stream order the scheduler plans over.
        let outputs: Vec<Mutex<Option<(RunOutput, f64)>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..window.min(n) {
                s.spawn(|| loop {
                    let k = cursor.fetch_add(1, Ordering::Relaxed);
                    if k >= n {
                        break;
                    }
                    let idx = exec_order[k];
                    let wall_start = self.clock.now();
                    let gen = &requests[idx].gen;
                    let options = |cached_prefix| RunOptions {
                        trace: self.trace,
                        faults: None,
                        cached_prefix,
                    };
                    let out = self
                        .prepared
                        .run_with(gen, options(sim_spans.then(|| prefix_cached[idx])))
                        // Refused by the pool: an isolated flat-cache run.
                        .or_else(|_refusal| self.prepared.run_with(gen, options(Some(0))))
                        .expect("a run that bypasses the pool is never refused");
                    let wall = (self.clock.now() - wall_start).max(0.0);
                    *outputs[idx].lock().unwrap() = Some((out, wall));
                });
            }
        });
        let runs: Vec<(RunOutput, f64)> = outputs
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .unwrap()
                    .expect("every request must have executed")
            })
            .collect();

        // Phase 2 — service durations on the service clock.
        let services: Vec<f64> = runs
            .iter()
            .map(|(out, wall)| service_time(self.prepared.mode(), out, *wall))
            .collect();

        // Phase 3 — the deterministic admission timeline.
        let slots = plan(
            &requests,
            &services,
            SchedulerConfig {
                max_in_flight: window,
            },
        );

        // Phase 4 — per-request completions, delivered in finish order.
        let mut completions: Vec<Completion> = requests
            .iter()
            .zip(runs)
            .zip(&slots)
            .map(|((req, (output, _)), slot)| {
                let first_token_offset = output
                    .record
                    .accept_times
                    .first()
                    .copied()
                    .unwrap_or(slot.finished - slot.started);
                Completion {
                    id: req.id,
                    priority: req.priority,
                    timing: RequestTiming {
                        arrival: req.arrival,
                        started: slot.started,
                        first_token: slot.started + first_token_offset,
                        finished: slot.finished,
                    },
                    output,
                }
            })
            .collect();
        completions.sort_by(|a, b| {
            a.timing
                .finished
                .partial_cmp(&b.timing.finished)
                .expect("finish times must be comparable")
                .then(a.id.cmp(&b.id))
        });
        for completion in &completions {
            on_complete(completion);
        }
        let report = ServeReport::new(self.strategy_name(), window, completions);
        match &pool {
            Some(pool) => report.with_kv_pool(pool.stats()),
            None => report,
        }
    }
}

/// The deterministic KV-pool admission pre-pass over one request stream.
///
/// Walks `order` (indices into `requests`, admission-stream order)
/// sequentially, performing each request's pool lifecycle — admit, match the
/// longest committed prefix, commit the prompt chain — while keeping at most
/// `window` tickets pinned: the pool occupancy an online server with that
/// in-flight bound would see.  Returns the per-request cached prefix span
/// (index-aligned with `requests`; `0` for refused requests).  Hit, eviction
/// and refusal counts accumulate in `pool.stats()`.
///
/// [`Server::serve_with`] uses this (in `Sim` mode only — `Real` runs
/// attach physical pages through the deployment's own pooled path instead)
/// to pre-compute prefill-reuse spans so concurrent execution stays
/// bit-reproducible; the serving bench reuses it to probe the largest
/// sustainable window of a pool geometry without paying for model execution.
pub fn pool_admission_spans(
    pool: &KvPagePool,
    requests: &[Request],
    order: &[usize],
    window: usize,
) -> Vec<usize> {
    let mut spans = vec![0; requests.len()];
    let mut live: std::collections::VecDeque<u64> = std::collections::VecDeque::new();
    for &idx in order {
        if live.len() >= window.max(1) {
            if let Some(oldest) = live.pop_front() {
                pool.end_request(oldest);
            }
        }
        let gen = &requests[idx].gen;
        if let Ok(ticket) = pool.begin_request(&gen.prompt, gen.n_generate, &[]) {
            spans[idx] = ticket.cached_tokens;
            pool.commit_chain(ticket.id, &gen.prompt, None);
            live.push_back(ticket.id);
        }
    }
    for ticket in live {
        pool.end_request(ticket);
    }
    spans
}

/// The service duration of one run: virtual makespan under `Sim`, measured
/// wall time under `Real`.
fn service_time(mode: &ExecutionMode, out: &RunOutput, wall: f64) -> f64 {
    match mode {
        ExecutionMode::Real { .. } => wall,
        ExecutionMode::Sim { .. } => out.record.finished_at,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{BurstyWorkload, MixedWorkload, WorkloadGen};
    use pi_perf::{ClusterSpec, ModelPair};
    use pi_spec::deploy::{Deployment, IterativeStrategy, SpeculativeStrategy};
    use pi_spec::GenConfig;
    use pipeinfer_core::PipeInferStrategy;

    fn sim_mode(n_nodes: usize) -> ExecutionMode {
        ExecutionMode::Sim {
            pair: ModelPair::dolphin_tinyllama(),
            cluster: ClusterSpec::cluster_c(n_nodes),
            oracle_seed: 42,
        }
    }

    fn base() -> GenConfig {
        GenConfig {
            prompt: vec![5; 12],
            n_generate: 16,
            max_draft: 4,
            confidence_cutoff: 0.4,
            kv_capacity: 4096,
        }
    }

    fn deployments() -> Vec<Deployment> {
        vec![
            Deployment::new(IterativeStrategy),
            Deployment::new(SpeculativeStrategy),
            Deployment::new(PipeInferStrategy::default()),
        ]
    }

    #[test]
    fn eight_concurrent_requests_match_solo_runs_for_all_strategies() {
        // The acceptance bar: ≥ 8 concurrent requests over one prepared
        // deployment, per-request Sim outputs byte-identical to solo runs.
        let workload = MixedWorkload {
            base: base(),
            n_requests: 8,
            mean_interarrival: 0.2,
            prompt_len: (4, 16),
            n_generate: (8, 20),
            seed: 11,
        };
        for deployment in deployments() {
            let requests = workload.generate();
            let server = Server::new(
                deployment.prepare(&sim_mode(4), 4),
                ServerConfig { max_in_flight: 8 },
            );
            let report = server.serve(requests.clone());
            assert_eq!(report.len(), 8);
            for req in &requests {
                let served = report.completion(req.id).unwrap();
                assert!(served.output.completed);
                let solo = deployment.run(&sim_mode(4), 4, &req.gen);
                assert_eq!(
                    served.output.record.tokens,
                    solo.record.tokens,
                    "{}: request {} diverged from its solo run",
                    server.strategy_name(),
                    req.id
                );
                assert_eq!(served.output.record.finished_at, solo.record.finished_at);
            }
        }
    }

    #[test]
    fn serving_metrics_are_deterministic_in_sim_mode() {
        let workload = BurstyWorkload {
            base: base(),
            n_requests: 6,
            mean_interarrival: 0.3,
            seed: 5,
        };
        let server = || {
            Server::new(
                Deployment::new(SpeculativeStrategy).prepare(&sim_mode(4), 4),
                ServerConfig { max_in_flight: 3 },
            )
        };
        let a = server().serve(workload.generate());
        let b = server().serve(workload.generate());
        assert_eq!(a.goodput(), b.goodput());
        assert_eq!(a.e2e_summary(), b.e2e_summary());
        for (x, y) in a.completions().iter().zip(b.completions()) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.timing, y.timing);
        }
    }

    #[test]
    fn pooled_serving_shares_prefixes_and_stays_byte_identical() {
        use crate::workload::SharedPrefixWorkload;
        use pi_model::{KvPagePool, KvPoolConfig};
        // 90 %-shared-system-prompt traffic over a page pool: every request's
        // token stream must still match its solo (pool-free) run, the pool
        // must register prefix hits, and the whole report — including the
        // pool counters — must be bit-reproducible.
        let workload = SharedPrefixWorkload {
            base: base(),
            n_requests: 10,
            mean_interarrival: 0.1,
            shared_fraction: 0.9,
            prefix_len: (16, 24),
            suffix_len: (2, 6),
            seed: 21,
        };
        for deployment in deployments() {
            let serve = |pooled: bool| {
                let mut prepared = deployment.prepare(&sim_mode(4), 4);
                if pooled {
                    prepared = prepared.with_kv_pool(KvPagePool::new(KvPoolConfig {
                        tokens_per_page: 8,
                        n_pages: 256,
                    }));
                }
                Server::new(prepared, ServerConfig { max_in_flight: 4 }).serve(workload.generate())
            };
            let pooled = serve(true);
            let flat = serve(false);
            assert!(flat.kv_pool_stats().is_none());
            let stats = pooled.kv_pool_stats().expect("pool stats must surface");
            assert_eq!(stats.requests, 10);
            assert!(
                stats.share_hits > 0,
                "shared prompts must hit the radix index"
            );
            assert!(pooled.prefix_hit_rate() > 0.5);
            assert_eq!(stats.refusals, 0);
            for req in workload.generate() {
                let served = pooled.completion(req.id).unwrap();
                let solo = deployment.run(&sim_mode(4), 4, &req.gen);
                assert_eq!(
                    served.output.record.tokens, solo.record.tokens,
                    "request {} diverged from its solo run under the pool",
                    req.id
                );
                // Prefill reuse can only help the absolute first-token time
                // (`accept_times[0]` counts prefill; `ttft()` does not).
                let first =
                    |r: &ServeReport, id| r.completion(id).unwrap().output.record.accept_times[0];
                assert!(first(&pooled, req.id) <= first(&flat, req.id) + 1e-12);
            }
            // At least one shared request genuinely skipped prefill.
            let faster = workload.generate().iter().any(|req| {
                pooled
                    .completion(req.id)
                    .unwrap()
                    .output
                    .record
                    .accept_times[0]
                    < flat.completion(req.id).unwrap().output.record.accept_times[0]
            });
            assert!(faster, "prefix hits must shorten some first-token time");
            // Bit-reproducible, pool counters included.
            let again = serve(true);
            assert_eq!(again.kv_pool_stats(), Some(stats));
            for (x, y) in pooled.completions().iter().zip(again.completions()) {
                assert_eq!(x.id, y.id);
                assert_eq!(x.timing, y.timing);
            }
        }
    }

    #[test]
    fn pool_exhaustion_surfaces_refusals_but_serves_every_request() {
        use crate::workload::SharedPrefixWorkload;
        use pi_model::{KvPagePool, KvPoolConfig};
        let workload = SharedPrefixWorkload {
            base: base(),
            n_requests: 8,
            mean_interarrival: 0.1,
            shared_fraction: 0.9,
            prefix_len: (16, 24),
            suffix_len: (2, 6),
            seed: 3,
        };
        // A pool far too small for the window: admissions beyond capacity are
        // refused (never a panic), refused requests fall back to flat caches
        // and still complete, and the refusal count lands in the report.
        let prepared = Deployment::new(IterativeStrategy)
            .prepare(&sim_mode(4), 4)
            .with_kv_pool(KvPagePool::new(KvPoolConfig {
                tokens_per_page: 8,
                n_pages: 6,
            }));
        let report =
            Server::new(prepared, ServerConfig { max_in_flight: 4 }).serve(workload.generate());
        assert_eq!(report.len(), 8);
        assert!(report.completions().iter().all(|c| c.output.completed));
        assert!(report.kv_refusals() > 0, "tiny pool must refuse admissions");
    }

    #[test]
    fn completion_callbacks_fire_in_finish_order() {
        let workload = BurstyWorkload {
            base: base(),
            n_requests: 5,
            mean_interarrival: 0.1,
            seed: 9,
        };
        let server = Server::new(
            Deployment::new(IterativeStrategy).prepare(&sim_mode(4), 4),
            ServerConfig { max_in_flight: 2 },
        );
        let mut seen: Vec<(u64, f64)> = Vec::new();
        let report = server.serve_with(workload.generate(), |c| {
            seen.push((c.id, c.timing.finished));
        });
        assert_eq!(seen.len(), 5);
        assert!(seen.windows(2).all(|w| w[0].1 <= w[1].1));
        assert_eq!(
            seen.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            report
                .completions()
                .iter()
                .map(|c| c.id)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn narrow_window_queues_requests_and_widening_it_cuts_latency() {
        let workload = BurstyWorkload {
            base: base(),
            n_requests: 8,
            mean_interarrival: 0.05,
            seed: 2,
        };
        let serve = |window| {
            Server::new(
                Deployment::new(IterativeStrategy).prepare(&sim_mode(4), 4),
                ServerConfig {
                    max_in_flight: window,
                },
            )
            .serve(workload.generate())
        };
        let narrow = serve(1);
        let wide = serve(8);
        // Same work either way…
        assert_eq!(narrow.total_tokens(), wide.total_tokens());
        // …but queueing shows up as end-to-end latency and lost goodput.
        assert!(narrow.e2e_summary().p99 > wide.e2e_summary().p99);
        assert!(narrow.goodput() < wide.goodput());
        assert!(wide.e2e_summary().p50 > 0.0);
    }

    #[test]
    fn tree_speculation_serves_streams_with_adaptive_shapes() {
        use pi_spec::TreeSpeculationStrategy;
        // The 52 %-acceptance pair: the regime where hedging with tree
        // branches beats a pure chain at the same verify-batch budget.
        let mode = ExecutionMode::Sim {
            pair: ModelPair::goliath_xwin7b(),
            cluster: ClusterSpec::cluster_c(4),
            oracle_seed: 42,
        };
        let workload = BurstyWorkload {
            base: base(),
            n_requests: 6,
            mean_interarrival: 0.3,
            seed: 5,
        };
        // Window 1 serialises execution in admission order, so the
        // cross-request shape feedback is deterministic.
        let serve = |deployment: Deployment| {
            Server::new(
                deployment.prepare(&mode, 4),
                ServerConfig { max_in_flight: 1 },
            )
            .serve(workload.generate())
        };
        let tree = serve(Deployment::new(TreeSpeculationStrategy::default()));
        let linear = serve(Deployment::new(SpeculativeStrategy));

        // Token streams are identical: tree shape never changes the output
        // (rounds may overshoot the budget differently, so compare the
        // requested n_generate prefix).
        assert_eq!(tree.len(), linear.len());
        let n = base().n_generate;
        for c in tree.completions() {
            let l = linear.completion(c.id).unwrap();
            assert_eq!(c.output.record.tokens[..n], l.output.record.tokens[..n]);
        }
        // Strictly higher mean accepted-tokens-per-verify at equal budget.
        assert!(
            tree.mean_tokens_per_run() > linear.mean_tokens_per_run(),
            "tree {} <= linear {}",
            tree.mean_tokens_per_run(),
            linear.mean_tokens_per_run()
        );
        assert!(tree.mean_tree_utilization() > 0.0);
        assert_eq!(linear.mean_tree_utilization(), 0.0);

        // The adaptive width/depth visibly changes across the bursty stream…
        let shapes: Vec<Vec<(usize, usize)>> = tree
            .completions()
            .iter()
            .map(|c| c.output.record.tree_shapes.clone())
            .collect();
        assert!(shapes.iter().all(|s| !s.is_empty()));
        assert!(
            shapes.iter().any(|s| s.iter().any(|&shape| shape != s[0])),
            "within-request adaptation must change the shape"
        );
        // …and the cross-request feedback makes later requests *start* at a
        // different shape than the first request's optimistic chain.
        let first_shapes: Vec<(usize, usize)> = shapes.iter().map(|s| s[0]).collect();
        assert!(
            first_shapes.iter().any(|&f| f != first_shapes[0]),
            "feedback through the serve loop must move the starting shape: {first_shapes:?}"
        );
        // The shape trace is visible in the rendered report.
        assert!(tree.render().contains('x'), "{}", tree.render());
    }

    #[test]
    fn traced_serving_records_without_perturbing_output() {
        let workload = BurstyWorkload {
            base: base(),
            n_requests: 4,
            mean_interarrival: 0.2,
            seed: 7,
        };
        let server = |traced: bool| {
            let s = Server::new(
                Deployment::new(PipeInferStrategy::default()).prepare(&sim_mode(4), 4),
                ServerConfig { max_in_flight: 2 },
            );
            if traced {
                s.with_trace(TraceConfig::default())
            } else {
                s
            }
        };
        let plain = server(false).serve(workload.generate());
        let traced = server(true).serve(workload.generate());
        assert_eq!(plain.len(), traced.len());
        for c in traced.completions() {
            let p = plain.completion(c.id).unwrap();
            assert_eq!(
                c.output.record.tokens, p.output.record.tokens,
                "recording must not perturb request {}",
                c.id
            );
            let trace = c.output.trace.as_ref().expect("traced run carries a trace");
            assert!(!trace.events().is_empty());
        }
        assert!(plain.completions().iter().all(|c| c.output.trace.is_none()));
        // A real pipelined run always has *some* bubble; untraced streams
        // report zero because the figure needs the recorder.
        assert!(traced.mean_bubble_fraction() > 0.0);
        assert_eq!(plain.mean_bubble_fraction(), 0.0);
        assert!(traced.render().contains("bubble"));
    }

    #[test]
    fn stepped_serving_matches_thread_pool_serving_byte_for_byte() {
        let workload = MixedWorkload {
            base: base(),
            n_requests: 8,
            mean_interarrival: 0.05,
            prompt_len: (4, 16),
            n_generate: (8, 20),
            seed: 11,
        };
        for deployment in [
            Deployment::new(IterativeStrategy),
            Deployment::new(SpeculativeStrategy),
        ] {
            let server = Server::new(
                deployment.prepare(&sim_mode(4), 4),
                ServerConfig { max_in_flight: 8 },
            );
            let pooled = server.serve(workload.generate());
            let stepped = server.serve_stepped(workload.generate());
            assert_eq!(stepped.len(), 8);
            assert!(stepped.cohort_stats().is_some());
            assert!(pooled.cohort_stats().is_none());
            for req in workload.generate() {
                assert_eq!(
                    stepped.completion(req.id).unwrap().output.record.tokens,
                    pooled.completion(req.id).unwrap().output.record.tokens,
                    "{}: request {} diverged under the step loop",
                    server.strategy_name(),
                    req.id
                );
            }
            // A dense 8-request stream fuses real cohorts.
            assert!(
                stepped.mean_cohort_width() > 2.0,
                "{}: width {}",
                server.strategy_name(),
                stepped.mean_cohort_width()
            );
        }
    }

    #[test]
    fn stepped_serving_is_deterministic_and_beats_unfused() {
        let workload = BurstyWorkload {
            base: base(),
            n_requests: 8,
            mean_interarrival: 0.02,
            seed: 5,
        };
        let server = Server::new(
            Deployment::new(SpeculativeStrategy).prepare(&sim_mode(4), 4),
            ServerConfig { max_in_flight: 8 },
        );
        let a = server.serve_stepped(workload.generate());
        let b = server.serve_stepped(workload.generate());
        assert_eq!(a.goodput(), b.goodput());
        assert_eq!(a.cohort_stats(), b.cohort_stats());
        for (x, y) in a.completions().iter().zip(b.completions()) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.timing, y.timing);
        }
        // The request-granularity baseline emits the same tokens slower.
        let unfused = server.serve_stepped_unfused(workload.generate());
        for c in a.completions() {
            assert_eq!(
                c.output.record.tokens,
                unfused.completion(c.id).unwrap().output.record.tokens
            );
        }
        assert!(
            a.goodput() > unfused.goodput(),
            "fused {} tok/s must beat unfused {} tok/s",
            a.goodput(),
            unfused.goodput()
        );
        assert!((unfused.mean_cohort_width() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stepped_serving_composes_with_the_kv_pool() {
        use crate::workload::SharedPrefixWorkload;
        use pi_model::{KvPagePool, KvPoolConfig};
        let workload = SharedPrefixWorkload {
            base: base(),
            n_requests: 10,
            mean_interarrival: 0.1,
            shared_fraction: 0.9,
            prefix_len: (16, 24),
            suffix_len: (2, 6),
            seed: 21,
        };
        let deployment = Deployment::new(SpeculativeStrategy);
        let prepared = deployment
            .prepare(&sim_mode(4), 4)
            .with_kv_pool(KvPagePool::new(KvPoolConfig {
                tokens_per_page: 8,
                n_pages: 256,
            }));
        let report = Server::new(prepared, ServerConfig { max_in_flight: 4 })
            .serve_stepped(workload.generate());
        let stats = report.kv_pool_stats().expect("pool stats must surface");
        assert_eq!(stats.requests, 10);
        assert!(stats.share_hits > 0, "shared prompts must hit the index");
        for req in workload.generate() {
            let served = report.completion(req.id).unwrap();
            let solo = deployment.run(&sim_mode(4), 4, &req.gen);
            assert_eq!(
                served.output.record.tokens, solo.record.tokens,
                "request {} diverged under pooled stepped serving",
                req.id
            );
        }
    }

    #[test]
    fn strategy_name_and_config_are_exposed() {
        let server = Server::new(
            Deployment::new(PipeInferStrategy::default()).prepare(&sim_mode(4), 4),
            ServerConfig::default(),
        );
        assert_eq!(server.strategy_name(), "PipeInfer");
        assert_eq!(server.config().max_in_flight, 8);
        assert_eq!(server.prepared().n_nodes(), 4);
        let empty = server.serve(Vec::new());
        assert!(empty.is_empty());
        assert_eq!(empty.goodput(), 0.0);
    }
}
