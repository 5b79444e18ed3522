//! The admission loop: the one serving loop of the crate, and its policy.
//!
//! `serve_stream` interleaves a request stream over a bounded in-flight
//! window: free window slots are filled with the requests the service clock
//! has reached, the executor makes progress, and whatever finished is
//! collected (continuous batching — a slot is refilled the moment its request
//! finishes, no gang-scheduled barriers).  Admission is FIFO — arrival time,
//! then request id — so no request can overtake another and the wait of any
//! request is bounded by the service demand ahead of it.  A running request
//! is never preempted.
//!
//! The loop does not know how requests execute.  It drives an `Executor`
//! — a service clock plus `admit` and `step` — and the server supplies two:
//! the fused step session and the pipeline replicas (see
//! [`server`](crate::server)).  The loop reads no wall clock and spawns
//! nothing, so for a deterministic executor the whole timeline is
//! bit-reproducible.

use crate::request::{Completion, Request, RequestTiming};
use pi_spec::{GenConfig, RunOutput};

/// Indices of `requests` in admission-stream order: arrival time, then id —
/// the order the admission loop sees them arrive in.
pub fn admission_order(requests: &[Request]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..requests.len()).collect();
    order.sort_by(|&a, &b| {
        requests[a]
            .arrival
            .partial_cmp(&requests[b].arrival)
            .expect("arrival times must be comparable")
            .then(requests[a].id.cmp(&requests[b].id))
    });
    order
}

/// One request an [`Executor`] finished, with its times on the service clock.
pub(crate) struct Finished {
    /// The id [`Executor::admit`] returned for it.
    pub id: u64,
    pub output: RunOutput,
    pub first_token: f64,
    pub finished: f64,
}

/// What executes admitted requests under [`serve_stream`].
pub(crate) trait Executor {
    /// The service clock, seconds.
    fn now(&self) -> f64;
    /// Fast-forwards the service clock over an idle gap.  Never backwards.
    fn advance_to(&mut self, t: f64);
    /// Requests admitted and not yet finished.
    fn active(&self) -> usize;
    /// Admits one request at [`Executor::now`]; returns its executor-local id.
    fn admit(&mut self, gen: &GenConfig) -> u64;
    /// Makes progress with at least one request active and returns what
    /// finished.  `until` is the next arrival (infinite when there is none):
    /// an executor that can jump its clock must not jump past it.
    fn step(&mut self, until: f64) -> Vec<Finished>;
}

/// Serves `requests` over `exec` with at most `window` in flight; returns
/// their completions in finish order (ties by id).
pub(crate) fn serve_stream(
    exec: &mut impl Executor,
    requests: &[Request],
    window: usize,
) -> Vec<Completion> {
    assert!(window >= 1, "window must admit at least one");
    let order = admission_order(requests);
    let mut arrivals = order.iter().copied().peekable();
    // Executor id -> (request index, admission time).
    let mut live: Vec<(u64, usize, f64)> = Vec::new();
    let mut completions: Vec<Completion> = Vec::with_capacity(requests.len());

    loop {
        let now = exec.now();
        while exec.active() < window {
            let Some(idx) = arrivals.next_if(|&idx| requests[idx].arrival <= now) else {
                break;
            };
            live.push((exec.admit(&requests[idx].gen), idx, now));
        }
        let next_arrival = arrivals.peek().map(|&idx| requests[idx].arrival);
        if exec.active() == 0 {
            // Idle: jump to the next arrival, or finish the stream.
            match next_arrival {
                Some(t) => exec.advance_to(t),
                None => break,
            }
            continue;
        }
        // Requests that arrived to a full window wait for a slot, which only
        // a finish frees: a step need not stop for them.
        let until = next_arrival.filter(|&t| t > now);
        for done in exec.step(until.unwrap_or(f64::INFINITY)) {
            let pos = live
                .iter()
                .position(|&(id, _, _)| id == done.id)
                .expect("finished request was live");
            let (_, idx, started) = live.remove(pos);
            let req = &requests[idx];
            completions.push(Completion {
                id: req.id,
                timing: RequestTiming {
                    arrival: req.arrival,
                    started,
                    first_token: done.first_token,
                    finished: done.finished,
                },
                output: done.output,
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
    completions
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_cluster::ClusterStats;
    use pi_spec::GenerationRecord;

    /// Request `i` of a stream: its one prompt token is its index, which is
    /// how [`FixedService`] finds its service time.
    fn req(i: u64, arrival: f64) -> Request {
        Request::new(i, GenConfig::small_test(vec![i as u32], 1), arrival)
    }

    /// An executor whose request `i` is in flight for exactly `services[i]`.
    struct FixedService {
        services: Vec<f64>,
        now: f64,
        /// (id, finish time) of what is in flight.
        running: Vec<(u64, f64)>,
    }

    impl Executor for FixedService {
        fn now(&self) -> f64 {
            self.now
        }
        fn advance_to(&mut self, t: f64) {
            self.now = self.now.max(t);
        }
        fn active(&self) -> usize {
            self.running.len()
        }
        fn admit(&mut self, gen: &GenConfig) -> u64 {
            let id = u64::from(gen.prompt[0]);
            self.running
                .push((id, self.now + self.services[id as usize]));
            id
        }
        fn step(&mut self, until: f64) -> Vec<Finished> {
            let next = self.running.iter().map(|r| r.1).fold(until, f64::min);
            self.advance_to(next);
            let now = self.now;
            let done = self.running.iter().filter(|r| r.1 <= now);
            let done: Vec<Finished> = done
                .map(|&(id, finished)| Finished {
                    id,
                    output: RunOutput {
                        record: GenerationRecord::default(),
                        stats: ClusterStats::new(1),
                        completed: true,
                        trace: None,
                    },
                    first_token: finished,
                    finished,
                })
                .collect();
            self.running.retain(|r| r.1 > now);
            done
        }
    }

    /// The loop's timeline for `requests` (ids `0..n`, in order) with the
    /// given service times, index-aligned with `requests`.
    fn plan(requests: &[Request], services: &[f64], window: usize) -> Vec<RequestTiming> {
        let mut exec = FixedService {
            services: services.to_vec(),
            now: 0.0,
            running: Vec::new(),
        };
        let mut done = serve_stream(&mut exec, requests, window);
        assert_eq!(done.len(), requests.len());
        done.sort_by_key(|c| c.id);
        done.iter().map(|c| c.timing).collect()
    }

    #[test]
    fn window_of_one_serialises_fifo() {
        let requests = vec![req(0, 0.0), req(1, 0.1), req(2, 0.2)];
        let slots = plan(&requests, &[1.0, 1.0, 1.0], 1);
        assert_eq!(slots[0].started, 0.0);
        assert_eq!(slots[0].finished, 1.0);
        assert_eq!(slots[1].started, 1.0);
        assert_eq!(slots[2].started, 2.0);
    }

    #[test]
    fn wide_window_starts_everything_at_arrival() {
        let requests = vec![req(0, 0.0), req(1, 0.25), req(2, 0.5)];
        let slots = plan(&requests, &[2.0, 2.0, 2.0], 8);
        for (slot, r) in slots.iter().zip(&requests) {
            assert_eq!(slot.started, r.arrival);
            assert_eq!(slot.finished, r.arrival + 2.0);
        }
    }

    #[test]
    fn concurrency_never_exceeds_window() {
        let requests: Vec<Request> = (0..10).map(|i| req(i, i as f64 * 0.01)).collect();
        let services: Vec<f64> = (0..10).map(|i| 0.5 + 0.1 * i as f64).collect();
        let window = 3;
        let slots = plan(&requests, &services, window);
        // At every start instant, count overlapping [started, finished) spans.
        for probe in &slots {
            let overlapping = slots
                .iter()
                .filter(|s| s.started <= probe.started && probe.started < s.finished)
                .count();
            assert!(overlapping <= window, "{overlapping} > window {window}");
        }
    }

    #[test]
    fn admission_is_non_overtaking() {
        let requests: Vec<Request> = (0..8).map(|i| req(i, i as f64 * 0.05)).collect();
        let services = [0.9, 0.1, 0.8, 0.2, 0.7, 0.3, 0.6, 0.4];
        let slots = plan(&requests, &services, 2);
        for w in slots.windows(2) {
            assert!(w[0].started <= w[1].started, "FIFO overtaken: {slots:?}");
        }
    }

    #[test]
    fn zero_service_requests_terminate() {
        let requests = vec![req(0, 0.0), req(1, 0.0), req(2, 0.0)];
        let slots = plan(&requests, &[0.0, 0.0, 0.0], 1);
        assert!(slots.iter().all(|s| s.started == 0.0 && s.finished == 0.0));
    }

    #[test]
    #[should_panic(expected = "window must admit")]
    fn zero_window_is_rejected() {
        let _ = plan(&[req(0, 0.0)], &[1.0], 0);
    }
}
