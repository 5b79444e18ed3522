//! Request-stream types: what a client submits and what it gets back.
//!
//! All times are seconds on the *service clock*: virtual time in `Sim` mode
//! (the deterministic discrete-event clock), wall-clock time in `Real` mode.

use pi_spec::{GenConfig, RunOutput};

/// Identifier of a request within one served stream.
pub type RequestId = u64;

/// One generation request admitted to a [`crate::Server`].
#[derive(Debug, Clone)]
pub struct Request {
    /// Stream-unique identifier (workload generators number requests from 0).
    pub id: RequestId,
    /// Generation parameters: prompt, token budget, speculation knobs.
    pub gen: GenConfig,
    /// Arrival time on the service clock, seconds.
    pub arrival: f64,
}

impl Request {
    /// Creates a request.
    pub fn new(id: RequestId, gen: GenConfig, arrival: f64) -> Self {
        Self { id, gen, arrival }
    }
}

/// Per-request latency timeline on the service clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestTiming {
    /// When the request arrived at the server.
    pub arrival: f64,
    /// When the scheduler admitted it into the in-flight window.
    pub started: f64,
    /// When its first generated token was accepted.
    pub first_token: f64,
    /// When its generation finished.
    pub finished: f64,
}

impl RequestTiming {
    /// Queueing delay: admission minus arrival.
    pub fn wait(&self) -> f64 {
        self.started - self.arrival
    }

    /// Time-to-first-token as the client observes it: first accepted token
    /// minus arrival (queueing delay and prompt processing included).
    pub fn ttft(&self) -> f64 {
        self.first_token - self.arrival
    }

    /// End-to-end latency: completion minus arrival.
    pub fn e2e(&self) -> f64 {
        self.finished - self.arrival
    }

    /// Pure service time: completion minus admission.
    pub fn service(&self) -> f64 {
        self.finished - self.started
    }
}

/// A completed request: its run output plus the latency timeline.
#[derive(Debug, Clone)]
pub struct Completion {
    /// The request's identifier.
    pub id: RequestId,
    /// The latency timeline on the service clock.
    pub timing: RequestTiming,
    /// The full run output (tokens, generation record, cluster stats).
    pub output: RunOutput,
}

impl Completion {
    /// Number of tokens the request generated.
    pub fn n_tokens(&self) -> usize {
        self.output.record.tokens.len()
    }

    /// Mean inter-token latency inside the run.
    pub fn mean_itl(&self) -> f64 {
        self.output.record.mean_itl()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_derivations() {
        let t = RequestTiming {
            arrival: 1.0,
            started: 1.5,
            first_token: 2.0,
            finished: 4.0,
        };
        assert!((t.wait() - 0.5).abs() < 1e-12);
        assert!((t.ttft() - 1.0).abs() < 1e-12);
        assert!((t.e2e() - 3.0).abs() < 1e-12);
        assert!((t.service() - 2.5).abs() < 1e-12);
    }
}
