//! Serving demo: a bursty request stream over the threaded driver.
//!
//! Builds one warmed-up PipeInfer deployment on real (tiny) models, then
//! serves a Poisson-like burst of requests through `pi-serve`'s admission
//! loop over pipeline replicas: each admitted request runs solo on
//! `PipeInferHead` across an in-process cluster of OS threads (shared
//! weights, an isolated KV session), and occupies one of `max_in_flight`
//! replicas for the wall time that run took.  Completions reach the callback
//! in finish order on that service clock; the report aggregates goodput and
//! latency percentiles.
//!
//! ```text
//! cargo run --release --example serving
//! ```

use pipeinfer::prelude::*;
use pipeinfer::serve::{BurstyWorkload, Server, ServerConfig, WorkloadGen};
use std::sync::Arc;

#[path = "util/mod.rs"]
mod util;
use util::n_generate;

fn main() {
    // 1. One warmed-up deployment: model weights built once, Arc-shared by
    //    every request the server admits.
    let config = ModelConfig::tiny_llama(pi_model::tokenizer::BYTE_VOCAB_SIZE, 4);
    let target = Arc::new(Model::random(config.clone(), 42));
    let draft = Arc::new(Model::new(config, target.weights().perturbed(0.02, 43)));
    let mode = ExecutionMode::Real { target, draft };
    let prepared = Deployment::new(PipeInferStrategy::default()).prepare(&mode, 2);
    let server = Server::new(prepared, ServerConfig { max_in_flight: 3 });

    // 2. A bursty (seeded-Poisson) request stream.
    let tokenizer = ByteTokenizer::new();
    let smoke = std::env::var_os("PIPEINFER_SMOKE").is_some();
    let workload = BurstyWorkload {
        base: GenConfig {
            prompt: tokenizer.encode("Tell me a story about a dragon.", true),
            n_generate: n_generate(24),
            max_draft: 4,
            confidence_cutoff: 0.3,
            kv_capacity: 1024,
        },
        n_requests: if smoke { 4 } else { 8 },
        mean_interarrival: 0.05,
        seed: 7,
    };

    // 3. Serve the stream; completions arrive in finish order.
    println!(
        "serving {} bursty requests over a {}-rank {} deployment (window {})",
        workload.n_requests,
        server.prepared().n_nodes(),
        server.strategy_name(),
        server.config().max_in_flight,
    );
    let report = server.serve_with(workload.generate(), |c| {
        println!(
            "request {:>2} done: wait {:6.3} s, TTFT {:6.3} s, e2e {:6.3} s, {} tokens",
            c.id,
            c.timing.wait(),
            c.timing.ttft(),
            c.timing.e2e(),
            c.n_tokens(),
        );
    });

    // 4. Aggregate per-request latency metrics.
    println!("\n{}", report.render());
}
