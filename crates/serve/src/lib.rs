//! # pi-serve
//!
//! The serving layer of the PipeInfer reproduction: a long-lived [`Server`]
//! that owns one warmed-up [`PreparedDeployment`](pi_spec::PreparedDeployment)
//! and admits a *stream* of generation requests, instead of the one
//! `GenConfig` per call that `Deployment::run` executes.
//!
//! The paper's headline claims are about inter-token latency and system
//! utilisation *under varied workloads* — properties that only become
//! observable once many requests contend for one deployment.  This crate
//! makes them measurable:
//!
//! * [`Request`] — a `GenConfig` plus arrival time ([`request`]);
//! * [`WorkloadGen`] — pluggable traffic shapes: steady, bursty
//!   (Poisson-like, seeded and fully deterministic) and mixed prompt/output
//!   lengths ([`workload`]);
//! * [`scheduler`] — the one admission loop (arrived requests, first come
//!   first served, into each free slot of a bounded in-flight window, step,
//!   collect);
//! * [`Server`] — drives that loop over one prepared deployment with one of
//!   two executors, which decide what a window of `max_in_flight` requests
//!   is: independent *pipeline replicas*, each running its request solo on
//!   the strategy's own head ([`Server::serve`], [`Server::serve_with`] with
//!   completion callbacks), or the *fused cohort* of one step session over a
//!   single pipeline ([`Server::serve_stepped`]) ([`server`]);
//! * [`ServeReport`] — the per-request metrics pipeline: TTFT, inter-token
//!   latency, end-to-end p50/p95/p99 and goodput, rendered into the shared
//!   `pi_metrics::Figure` machinery ([`report`]).
//!
//! ## Session isolation and determinism
//!
//! Every request is an isolated session — fresh engines and workers around
//! the shared weights under the replicas executor, its own engine slots and
//! round state machine under the cohort — so a request's token stream is
//! byte-identical to what a solo `Deployment::run` with the same `GenConfig`
//! produces: neither the window nor the executor changes outputs.  The loop
//! spawns no thread and runs requests one at a time in admission order, so
//! in `Sim` mode the whole pipeline (service times, admission timeline, pool
//! counters, percentiles) is deterministic for every strategy, which is what
//! the serving bench, CI's byte gate on `BENCH_serving.json` and the
//! property tests rely on.
//!
//! ## Quickstart
//!
//! ```
//! use pi_serve::{BurstyWorkload, Server, ServerConfig, WorkloadGen};
//! use pi_spec::deploy::{Deployment, ExecutionMode, SpeculativeStrategy};
//! use pi_spec::GenConfig;
//! # use pi_perf::{ClusterSpec, ModelPair};
//! # let mode = ExecutionMode::Sim {
//! #     pair: ModelPair::dolphin_tinyllama(),
//! #     cluster: ClusterSpec::cluster_c(4),
//! #     oracle_seed: 42,
//! # };
//!
//! let prepared = Deployment::new(SpeculativeStrategy).prepare(&mode, 4);
//! let server = Server::new(prepared, ServerConfig { max_in_flight: 4 });
//! let workload = BurstyWorkload {
//!     base: GenConfig::small_test(vec![7; 8], 8),
//!     n_requests: 6,
//!     mean_interarrival: 0.5,
//!     seed: 1,
//! };
//! let report = server.serve(workload.generate());
//! assert_eq!(report.len(), 6);
//! println!("{}", report.render());
//! ```

pub mod report;
pub mod request;
pub mod scheduler;
pub mod server;
pub mod workload;

pub use report::ServeReport;
pub use request::{Completion, Request, RequestId, RequestTiming};
pub use scheduler::admission_order;
pub use server::{Server, ServerConfig};
pub use workload::{
    BurstyWorkload, MixedWorkload, SharedPrefixWorkload, SteadyWorkload, WorkloadGen,
};
