//! Property tests for the continuous-batching scheduler and server.
//!
//! For any workload interleaving the scheduler admits, three properties must
//! hold (all deterministic — the compat proptest draws cases from a fixed
//! seed, and `Sim`-mode serving is bit-reproducible):
//!
//! 1. **Completion** — every admitted request completes;
//! 2. **Isolation** — every request's `Sim`-mode token stream is
//!    byte-identical to its solo `Deployment::run` output, regardless of
//!    what ran concurrently;
//! 3. **No starvation** — FIFO admission is non-overtaking, the
//!    in-flight window bound is never exceeded, and no request waits longer
//!    than the total service demand admitted before it.

use pi_perf::{ClusterSpec, ModelPair};
use pi_serve::{BurstyWorkload, Completion, Server, ServerConfig, WorkloadGen};
use pi_spec::deploy::{Deployment, ExecutionMode, IterativeStrategy};
use pi_spec::GenConfig;
use proptest::prelude::*;

fn sim_mode() -> ExecutionMode {
    ExecutionMode::Sim {
        pair: ModelPair::dolphin_tinyllama(),
        cluster: ClusterSpec::cluster_c(2),
        oracle_seed: 42,
    }
}

fn base_config(n_generate: usize) -> GenConfig {
    GenConfig {
        prompt: vec![3; 6],
        n_generate,
        max_draft: 4,
        confidence_cutoff: 0.4,
        kv_capacity: 2048,
    }
}

/// Admission key: arrival, then id (the FIFO order for equal priorities).
fn admission_order(completions: &[Completion]) -> Vec<&Completion> {
    let mut by_admission: Vec<&Completion> = completions.iter().collect();
    by_admission.sort_by(|a, b| {
        a.timing
            .arrival
            .partial_cmp(&b.timing.arrival)
            .unwrap()
            .then(a.id.cmp(&b.id))
    });
    by_admission
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn served_streams_complete_isolate_and_never_starve(
        n_requests in 1usize..10,
        window in 1usize..5,
        seed in 0u64..1_000,
        n_generate in 4usize..12,
    ) {
        let workload = BurstyWorkload {
            base: base_config(n_generate),
            n_requests,
            mean_interarrival: 0.5,
            seed,
        };
        let requests = workload.generate();
        let deployment = Deployment::new(IterativeStrategy);
        let server = Server::new(
            deployment.prepare(&sim_mode(), 2),
            ServerConfig { max_in_flight: window },
        );
        let report = server.serve(requests.clone());

        // 1. Every request completes.
        prop_assert_eq!(report.len(), n_requests);
        for c in report.completions() {
            prop_assert!(c.output.completed, "request {} did not complete", c.id);
            prop_assert_eq!(c.n_tokens(), n_generate);
        }

        // 2. Per-request isolation: byte-identical to the solo run.
        for req in &requests {
            let served = report.completion(req.id).unwrap();
            let solo = deployment.run(&sim_mode(), 2, &req.gen);
            prop_assert_eq!(
                &served.output.record.tokens,
                &solo.record.tokens,
                "request {} diverged from its solo run",
                req.id
            );
        }

        // 3a. FIFO admission is non-overtaking.
        let by_admission = admission_order(report.completions());
        for pair in by_admission.windows(2) {
            prop_assert!(
                pair[0].timing.started <= pair[1].timing.started,
                "request {} overtook request {}",
                pair[1].id,
                pair[0].id
            );
        }

        // 3b. The window bound is respected at every admission instant.
        for probe in report.completions() {
            let overlapping = report
                .completions()
                .iter()
                .filter(|c| {
                    c.timing.started <= probe.timing.started
                        && probe.timing.started < c.timing.finished
                })
                .count();
            prop_assert!(
                overlapping <= window,
                "{overlapping} requests in flight at t={} with window {window}",
                probe.timing.started
            );
        }

        // 3c. Starvation bound: a request's wait never exceeds the total
        // service demand admitted before it (the window-1 worst case).
        for (pos, c) in by_admission.iter().enumerate() {
            let demand_ahead: f64 = by_admission[..pos]
                .iter()
                .map(|p| p.timing.service())
                .sum();
            prop_assert!(
                c.timing.started <= c.timing.arrival + demand_ahead + 1e-9,
                "request {} waited {} with only {} s of demand ahead",
                c.id,
                c.timing.wait(),
                demand_ahead
            );
        }
    }
}
