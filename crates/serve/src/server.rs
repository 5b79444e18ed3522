//! The long-lived server: one warmed-up deployment serving a request stream.
//!
//! A [`Server`] owns a [`PreparedDeployment`] — strategy, `Arc`-shared model
//! weights and validated rank layout, built once — and serves every stream
//! through the crate's one admission loop
//! ([`scheduler`](crate::scheduler)): arrivals into a ready list, the best
//! ready request into each free window slot, step, collect.  What differs
//! between the entry points is the *executor* the loop drives, i.e. what an
//! in-flight window of `max_in_flight` requests physically is:
//!
//! * **Pipeline replicas** ([`Server::serve`], [`Server::serve_with`]) — the
//!   window is `max_in_flight` independent copies of the deployment's
//!   pipeline.  An admitted request runs solo through
//!   [`PreparedDeployment::run_pinned`], on whatever head its strategy builds
//!   (so the paper's asynchronous `PipeInferHead` serves here, under the
//!   cluster drivers, with traces), occupies its replica for exactly its solo
//!   service time and holds its KV-pool admission for as long.  Requests
//!   share the page pool and nothing else; goodput scales with the window
//!   because the hardware does.
//! * **A fused cohort** ([`Server::serve_stepped`],
//!   [`Server::serve_stepped_unfused`]) — the window is the cohort of one
//!   [`StepSession`] over *one* pipeline: every step evaluates all in-flight
//!   requests' micro-batches as one forest batch, so a wider window slows
//!   each step down and amortises the weight stream.  Synchronous strategies
//!   only; no trace is recorded yet.
//!
//! Every request is an isolated session either way (its own KV state and
//! speculation state machine), which is why neither the window nor the
//! executor can change a request's token stream.
//!
//! ## Clocks
//!
//! All times are on the executor's *service clock*.  Under `Sim` that is
//! virtual time: a replica is busy for the virtual makespan of the solo run,
//! a cohort step takes what the engines charge, and since the loop runs
//! requests one at a time in admission order the whole report — latencies,
//! pool counters, the tree strategy's cross-request shape prior — is
//! bit-reproducible.  Under `Real` it is measured wall time on the injected
//! [`Clock`]: a replica is busy for the wall time its request took running
//! alone on this host (the uncontended service time a dedicated replica would
//! give it), a cohort step takes the wall time it took.

use crate::report::ServeReport;
use crate::request::{Completion, Request};
use crate::scheduler::{serve_stream, Executor, Finished};
use pi_spec::deploy::{ExecutionMode, PreparedDeployment, RunOutput};
use pi_spec::{GenConfig, PrefixPlan, StepSession};
use pi_trace::{Clock, MonotonicClock, TraceConfig};
use std::sync::Arc;

/// Server tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Maximum number of requests in flight at once: the number of pipeline
    /// replicas under [`Server::serve`], the widest cohort under
    /// [`Server::serve_stepped`].
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

    /// Replaces the wall-clock source every `Real`-mode service time is
    /// measured on — solo runs and cohort steps alike (tests inject a
    /// [`pi_trace::ManualClock`]).
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Attaches a per-request structured event recorder: every request's
    /// [`Completion`] carries its run's cross-rank trace, and the report's
    /// bubble-fraction aggregate becomes available.  Only the replicas
    /// executor ([`Server::serve`] / [`Server::serve_with`]) records; the
    /// step loop records no trace yet, so stepped completions carry none.
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

    /// Serves a request stream to completion over pipeline replicas: each
    /// admitted request runs solo on the strategy's own head.
    pub fn serve(&self, requests: Vec<Request>) -> ServeReport {
        self.serve_with(requests, |_| {})
    }

    /// [`Server::serve`], invoking `on_complete` once per request in
    /// service-clock completion order (deterministic in `Sim` mode).
    pub fn serve_with(
        &self,
        requests: Vec<Request>,
        mut on_complete: impl FnMut(&Completion),
    ) -> ServeReport {
        let mut replicas = Replicas {
            server: self,
            now: 0.0,
            in_flight: Vec::new(),
            next_id: 0,
        };
        let report = self.report(serve_stream(
            &mut replicas,
            &requests,
            self.config.max_in_flight,
        ));
        report.completions().iter().for_each(&mut on_complete);
        report
    }

    /// Serves a request stream with **iteration-level batching**: one
    /// [`StepSession`] step loop drives every request,
    /// fusing all in-flight micro-batches into a single forest batch per
    /// decode iteration (projections and FFNs run as one `m = Σ cohort
    /// widths` GEMM, attention stays per-sequence).
    ///
    /// Cohort formation is deterministic: requests are admitted by the same
    /// loop and policy as [`Server::serve`] (arrival, then priority among
    /// the waiting, then id) the moment the session clock reaches their
    /// arrival and a slot inside `max_in_flight` frees up; the cohort
    /// re-forms at every step boundary.  Each request's token stream is
    /// byte-identical to its solo run and to replica serving — fusion
    /// changes the roofline, never the tokens.
    pub fn serve_stepped(&self, requests: Vec<Request>) -> ServeReport {
        self.stepped(requests, true)
    }

    /// [`Server::serve_stepped`] with fusion disabled: the identical step
    /// loop and admission schedule, but every request's micro-batch is
    /// evaluated alone (a full per-stage weight stream per request per
    /// iteration).  This is the request-granularity baseline the
    /// `fig_cohort_batching` bench gate measures fusion against; tokens are
    /// identical to the fused path.
    pub fn serve_stepped_unfused(&self, requests: Vec<Request>) -> ServeReport {
        self.stepped(requests, false)
    }

    fn stepped(&self, requests: Vec<Request>, fused: bool) -> ServeReport {
        let mut session = self
            .prepared
            .begin_session()
            .with_fused(fused)
            .with_clock(Arc::clone(&self.clock));
        let completions = serve_stream(&mut session, &requests, self.config.max_in_flight);
        self.report(completions).with_cohort(session.stats())
    }

    fn report(&self, completions: Vec<Completion>) -> ServeReport {
        let report = ServeReport::new(self.strategy_name(), self.config.max_in_flight, completions);
        match self.prepared.kv_pool() {
            Some(pool) => report.with_kv_pool(pool.stats()),
            None => report,
        }
    }
}

/// The fused-cohort executor: the session is the window.
impl Executor for StepSession<'_> {
    fn now(&self) -> f64 {
        StepSession::now(self)
    }

    fn advance_to(&mut self, t: f64) {
        StepSession::advance_to(self, t);
    }

    fn active(&self) -> usize {
        StepSession::active(self)
    }

    fn admit(&mut self, gen: &GenConfig) -> u64 {
        StepSession::admit(self, gen)
    }

    /// One cohort step; a step cannot be cut short at the next arrival.
    fn step(&mut self, _until: f64) -> Vec<Finished> {
        let finished = self.step_cohort().finished;
        let take = |id| {
            let output = self.take_output(id).expect("finished output");
            let finished = output.record.finished_at;
            let first_token = output.record.accept_times.first().copied();
            Finished {
                id,
                first_token: first_token.unwrap_or(finished),
                finished,
                output,
            }
        };
        finished.into_iter().map(take).collect()
    }
}

/// The pipeline-replicas executor: a request runs solo, to completion, the
/// moment it is admitted, and then stays in flight — occupying its replica
/// and holding its pool admission — until its service time has passed on the
/// service clock.
struct Replicas<'s> {
    server: &'s Server,
    now: f64,
    in_flight: Vec<Replica>,
    next_id: u64,
}

/// One busy replica: a request that has run and not yet finished on the
/// service clock.
struct Replica {
    id: u64,
    started: f64,
    finished: f64,
    output: RunOutput,
    /// The request's pool admission; dropped when it leaves the window.
    _pin: Option<Arc<PrefixPlan>>,
}

impl Executor for Replicas<'_> {
    fn now(&self) -> f64 {
        self.now
    }

    fn advance_to(&mut self, t: f64) {
        self.now = self.now.max(t);
    }

    fn active(&self) -> usize {
        self.in_flight.len()
    }

    fn admit(&mut self, gen: &GenConfig) -> u64 {
        let Server {
            prepared,
            clock,
            trace,
            ..
        } = self.server;
        let wall_start = clock.now();
        let (output, pin) = prepared.run_pinned(gen, *trace);
        // Service time: virtual makespan, or wall time of the run alone.
        let service = match prepared.mode() {
            ExecutionMode::Real { .. } => clock.now() - wall_start,
            ExecutionMode::Sim { .. } => output.record.finished_at,
        };
        let id = self.next_id;
        self.next_id += 1;
        self.in_flight.push(Replica {
            id,
            started: self.now,
            finished: self.now + service.max(0.0),
            output,
            _pin: pin,
        });
        id
    }

    /// Jumps to the earliest finish (or `until`, if sooner) and retires
    /// every replica done by then, in admission order.
    fn step(&mut self, until: f64) -> Vec<Finished> {
        let next_finish = self.in_flight.iter().map(|r| r.finished);
        self.advance_to(next_finish.fold(until, f64::min));
        let now = self.now;
        let (done, busy): (Vec<_>, Vec<_>) = std::mem::take(&mut self.in_flight)
            .into_iter()
            .partition(|r| r.finished <= now);
        self.in_flight = busy;
        let retire = |r: Replica| {
            let first_token = r.output.record.accept_times.first().copied();
            Finished {
                id: r.id,
                first_token: r.started + first_token.unwrap_or(r.finished - r.started),
                finished: r.finished,
                output: r.output,
            }
        };
        done.into_iter().map(retire).collect()
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
    fn tree_speculation_serving_is_bit_reproducible() {
        use pi_spec::TreeSpeculationStrategy;
        // The tree strategy seeds each request's shape from a cross-request
        // prior fed as requests complete.  The loop runs requests one at a
        // time in admission order, so a full window changes nothing.
        let mode = ExecutionMode::Sim {
            pair: ModelPair::goliath_xwin7b(),
            cluster: ClusterSpec::cluster_c(4),
            oracle_seed: 42,
        };
        let workload = MixedWorkload {
            base: base(),
            n_requests: 12,
            mean_interarrival: 0.05,
            prompt_len: (4, 16),
            n_generate: (8, 20),
            seed: 11,
        };
        let serve = || {
            Server::new(
                Deployment::new(TreeSpeculationStrategy::default()).prepare(&mode, 4),
                ServerConfig { max_in_flight: 8 },
            )
            .serve(workload.generate())
        };
        let (a, b) = (serve(), serve());
        assert_eq!(a.len(), 12);
        for (x, y) in a.completions().iter().zip(b.completions()) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.timing, y.timing);
            assert_eq!(x.output.record.tree_shapes, y.output.record.tree_shapes);
        }
        // The prior did move between requests: this is not a vacuous pass.
        let first_shapes: Vec<_> = a
            .completions()
            .iter()
            .map(|c| c.output.record.tree_shapes[0])
            .collect();
        assert!(first_shapes.iter().any(|&s| s != first_shapes[0]));
    }

    /// A random four-layer tiny target with a slightly perturbed draft.
    fn real_mode(seed: u64) -> ExecutionMode {
        use pi_model::{Model, ModelConfig};
        let cfg = ModelConfig::tiny_llama(64, 4);
        let target = Arc::new(Model::random(cfg.clone(), seed));
        let draft = Arc::new(Model::new(cfg, target.weights().perturbed(0.02, seed + 1)));
        ExecutionMode::Real { target, draft }
    }

    #[test]
    fn real_pooled_serving_shares_pages_and_releases_every_pin() {
        use crate::workload::SharedPrefixWorkload;
        use pi_model::{KvPagePool, KvPoolConfig};
        // `Real` replicas take the same pooled path as `Sim` ones: physical
        // prefix pages are attached, streams stay solo-identical, and a pin
        // lives exactly as long as its request is in flight.
        let workload = SharedPrefixWorkload {
            base: GenConfig {
                prompt: (1..40).collect(),
                n_generate: 6,
                kv_capacity: 128,
                ..base()
            },
            n_requests: 6,
            mean_interarrival: 0.001,
            shared_fraction: 0.9,
            prefix_len: (16, 20),
            suffix_len: (2, 5),
            seed: 21,
        };
        let (tokens_per_page, n_pages) = (4, 96);
        for deployment in [
            Deployment::new(SpeculativeStrategy),
            Deployment::new(PipeInferStrategy::default()),
        ] {
            let pool = KvPagePool::new(KvPoolConfig {
                tokens_per_page,
                n_pages,
            });
            let mode = real_mode(11);
            let prepared = deployment.prepare(&mode, 2).with_kv_pool(Arc::clone(&pool));
            let report =
                Server::new(prepared, ServerConfig { max_in_flight: 3 }).serve(workload.generate());
            let stats = report.kv_pool_stats().expect("pool stats must surface");
            assert_eq!(stats.requests, 6);
            assert_eq!(stats.refusals, 0);
            assert!(stats.share_hits > 0, "shared prompts must attach pages");
            for req in workload.generate() {
                let solo = deployment.run(&mode, 2, &req.gen);
                assert_eq!(
                    report.completion(req.id).unwrap().output.record.tokens,
                    solo.record.tokens,
                    "{}: request {} diverged from its solo run under the pool",
                    report.strategy(),
                    req.id
                );
            }
            // No pin outlives its request: one request needing every page of
            // the pool can evict all that the stream committed.
            let whole_pool = vec![63; tokens_per_page * n_pages - 8];
            let ticket = pool
                .begin_request(&whole_pool, 8, &[])
                .unwrap_or_else(|refusal| panic!("leaked pins: {refusal:?}"));
            pool.end_request(ticket.id);
        }
    }

    #[test]
    fn real_stepped_timeline_moves_only_with_the_injected_clock() {
        use pi_trace::ManualClock;
        const TICK: f64 = 0.25;
        /// Every read is `TICK` later than the one before.
        struct Ticking(ManualClock);
        impl Clock for Ticking {
            fn now(&self) -> f64 {
                self.0.advance(TICK);
                self.0.now()
            }
        }
        let requests = || -> Vec<Request> {
            (0..3)
                .map(|i| {
                    let gen = GenConfig {
                        prompt: vec![3 + i as u32; 5],
                        n_generate: 4,
                        kv_capacity: 64,
                        ..base()
                    };
                    Request::new(i, gen, i as f64)
                })
                .collect()
        };
        let server = |clock: Arc<dyn Clock>| {
            Server::new(
                Deployment::new(SpeculativeStrategy).prepare(&real_mode(11), 2),
                ServerConfig { max_in_flight: 2 },
            )
            .with_clock(clock)
        };

        // A clock nobody advances: real work happens, no time passes.
        let frozen = server(Arc::new(ManualClock::new(7.0))).serve_stepped(requests());
        assert_eq!(frozen.len(), 3);
        for c in frozen.completions() {
            assert_eq!(c.n_tokens(), 4);
            let t = c.timing;
            assert_eq!(
                (t.started, t.first_token, t.finished),
                (t.arrival, t.arrival, t.arrival)
            );
        }

        // A clock that ticks on every read: the timeline is made of ticks.
        let ticking = server(Arc::new(Ticking(ManualClock::new(0.0)))).serve_stepped(requests());
        for c in ticking.completions() {
            let steps = c.output.stats.nodes[0].cohort_steps as f64;
            let service = c.timing.service();
            assert!(service >= TICK * steps, "{service} s over {steps} steps");
            assert_eq!(
                (service / TICK).fract(),
                0.0,
                "{service} s is not whole ticks"
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
