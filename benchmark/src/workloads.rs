//! The five workloads and their seeded inputs.
//!
//! `--seed` drives prompts, lengths and arrivals only; model weights are
//! fixed (see `pair.rs`).  Every constant below is part of the benchmark's
//! definition: changing one changes what the numbers mean.

use crate::adapter::{Job, PoolGeometry, StrategyKind, Token};
use crate::pair::Alignment;
use crate::rng::Rng;

/// Threaded ranks of every deployment.
pub const N_RANKS: usize = 4;
/// Unique prompts a closed loop cycles through.
const SOLO_PROMPTS: usize = 64;
/// In-flight window of both stream workloads.
pub const WINDOW: usize = 8;

/// How a workload offers load.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// One client, closed loop: the next request is sent when the previous
    /// one completes, until `--seconds` have elapsed.
    Solo {
        prompt_len: usize,
        n_generate: usize,
    },
    /// Open loop: seeded Poisson arrivals at `rate` req/s on the server's
    /// service clock.  The stream comes in segments of `segment` requests, one
    /// `serve_stepped` call each, until `--seconds` have elapsed.  Every
    /// segment holds the same lengths (evenly spaced over the ranges below)
    /// and the same number of prefix misses, so segments are replicas of one
    /// experiment; the seed draws the tokens, the order, the pairing of
    /// lengths and the arrival gaps.
    Stream {
        rate: f64,
        /// Requests generated per second of `--seconds`: twice what the seed
        /// commit serves, so the clock ends the run and not the inputs.
        max_requests_per_second: f64,
        segment: usize,
        /// Unique-prompt length range (the suffix range under a shared prefix).
        prompt_len: (usize, usize),
        output_len: (usize, usize),
        /// `(length, misses per segment)` of a system prompt the other
        /// requests open with.
        shared_prefix: Option<(usize, usize)>,
        pool: Option<PoolGeometry>,
    },
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (one line, mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    pub strategy: StrategyKind,
    pub alignment: Alignment,
    pub shape: Shape,
    /// Frozen SLO: a request is within it when its TTFT and its mean ITL are
    /// at most these (4× and 3× the seed commit's medians).
    pub slo_ttft_ms: f64,
    pub slo_itl_ms: f64,
}

const SOLO: Shape = Shape::Solo {
    prompt_len: 64,
    n_generate: 64,
};

pub const ALL: [Workload; 5] = [
    Workload {
        name: "solo_iter",
        why: "closed loop, iterative decode on 4 ranks: speculation bypassed, so tensor, model and cluster do all the work",
        strategy: StrategyKind::Iterative,
        alignment: Alignment::Hi,
        shape: SOLO,
        slo_ttft_ms: 210.0,
        slo_itl_ms: 9.8,
    },
    Workload {
        name: "solo_async",
        why: "the paper's headline: one request under PipeInfer with a well-aligned draft; drafter, run tracking and cancellation dominate",
        strategy: StrategyKind::PipeInfer,
        alignment: Alignment::Hi,
        shape: SOLO,
        slo_ttft_ms: 262.0,
        slo_itl_ms: 28.8,
    },
    Workload {
        name: "solo_async_lowaccept",
        why: "same as solo_async with a poorly aligned draft: invalidation, rollback and early cancellation do most of the work",
        strategy: StrategyKind::PipeInfer,
        alignment: Alignment::Lo,
        shape: SOLO,
        slo_ttft_ms: 267.0,
        slo_itl_ms: 49.5,
    },
    Workload {
        name: "stream_decode",
        why: "open loop, unique short prompts, speculative step loop: cohort fusion, admission and queueing dominate, KV sharing does nothing",
        strategy: StrategyKind::PipeInfer,
        alignment: Alignment::Hi,
        shape: Shape::Stream {
            rate: 2.0,
            max_requests_per_second: 16.0,
            segment: 8,
            prompt_len: (16, 48),
            output_len: (8, 40),
            shared_prefix: None,
            pool: None,
        },
        slo_ttft_ms: 176.0,
        slo_itl_ms: 12.0,
    },
    Workload {
        name: "stream_prefix",
        why: "open loop, 90% of prompts share a 256-token system prompt over a paged KV pool: prefill and prefix reuse dominate, speculation bypassed",
        strategy: StrategyKind::Iterative,
        alignment: Alignment::Hi,
        shape: Shape::Stream {
            rate: 3.0,
            max_requests_per_second: 24.0,
            segment: 10,
            prompt_len: (8, 24),
            output_len: (8, 24),
            shared_prefix: Some((256, 1)),
            pool: Some(PoolGeometry {
                tokens_per_page: 16,
                n_pages: 224,
            }),
        },
        slo_ttft_ms: 108.0,
        slo_itl_ms: 13.2,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

/// The inputs of one run.
pub struct Inputs {
    pub jobs: Vec<Job>,
    /// The system prompt shared by most jobs (empty when none is).
    pub shared_prefix: Vec<Token>,
}

impl Workload {
    /// Generates the inputs for `seed`.  Solo workloads get `count` unique
    /// prompts (the closed loop cycles through them if it outlasts them);
    /// stream workloads get `count` arrivals, a whole number of segments.
    pub fn inputs(&self, seed: u64, count: usize) -> Inputs {
        let mut rng = Rng::new(seed ^ 0x5EED_0000_0000_0000);
        match self.shape {
            Shape::Solo {
                prompt_len,
                n_generate,
            } => Inputs {
                jobs: (0..count)
                    .map(|i| Job {
                        id: i as u64,
                        prompt: rng.tokens(prompt_len),
                        n_generate,
                        arrival: 0.0,
                    })
                    .collect(),
                shared_prefix: Vec::new(),
            },
            Shape::Stream {
                rate,
                segment,
                prompt_len,
                output_len,
                shared_prefix,
                ..
            } => {
                let (prefix_len, misses) = shared_prefix.unwrap_or((0, 0));
                let prefix = rng.tokens(prefix_len);
                let mid = (prompt_len.0 + prompt_len.1) / 2;
                let mut jobs = Vec::with_capacity(count);
                while jobs.len() < count {
                    // One segment: hits (or plain prompts) take the evenly
                    // spaced lengths, misses the middle one.
                    let hits = segment - misses;
                    let mut prompts: Vec<Option<usize>> = evenly_spaced(prompt_len, hits)
                        .into_iter()
                        .map(Some)
                        .collect();
                    prompts.resize(segment, None);
                    rng.shuffle(&mut prompts);
                    let mut outputs = evenly_spaced(output_len, segment);
                    rng.shuffle(&mut outputs);
                    let mut t = 0.0;
                    for (i, (hit, n_generate)) in prompts.into_iter().zip(outputs).enumerate() {
                        if i > 0 {
                            t += rng.exp_gap(1.0 / rate);
                        }
                        let prompt = match hit {
                            Some(len) => {
                                let mut p = prefix.clone();
                                p.extend(rng.tokens(len));
                                p
                            }
                            None => rng.tokens(prefix_len + mid),
                        };
                        jobs.push(Job {
                            id: jobs.len() as u64,
                            prompt,
                            n_generate,
                            arrival: t,
                        });
                    }
                }
                Inputs {
                    jobs,
                    shared_prefix: prefix,
                }
            }
        }
    }

    /// Requests to prepare for a run of `seconds` (stream) or prompts to
    /// cycle (solo).
    pub fn count_for(&self, seconds: f64) -> usize {
        match self.shape {
            Shape::Solo { .. } => SOLO_PROMPTS,
            Shape::Stream {
                max_requests_per_second,
                segment,
                ..
            } => {
                ((max_requests_per_second * seconds / segment as f64).round() as usize).max(1)
                    * segment
            }
        }
    }

    /// Requests per `serve_stepped` call (stream) or per call of `run` (solo).
    pub fn segment(&self) -> usize {
        match self.shape {
            Shape::Solo { .. } => 1,
            Shape::Stream { segment, .. } => segment,
        }
    }
}

/// `n` lengths evenly spaced over `lo..=hi`, both ends included.
fn evenly_spaced((lo, hi): (usize, usize), n: usize) -> Vec<usize> {
    (0..n)
        .map(|i| match n {
            1 => (lo + hi) / 2,
            _ => lo + ((hi - lo) * i + (n - 1) / 2) / (n - 1),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sorted `(prompt length, opens with the prefix)` and sorted output
    /// lengths of one segment.
    fn composition(jobs: &[Job], prefix: &[Token]) -> (Vec<(usize, bool)>, Vec<usize>) {
        let mut prompts: Vec<_> = jobs
            .iter()
            .map(|j| (j.prompt.len(), j.prompt.starts_with(prefix)))
            .collect();
        let mut outputs: Vec<_> = jobs.iter().map(|j| j.n_generate).collect();
        prompts.sort_unstable();
        outputs.sort_unstable();
        (prompts, outputs)
    }

    #[test]
    fn stream_segments_are_replicas_whatever_the_seed() {
        for w in ALL
            .iter()
            .filter(|w| matches!(w.shape, Shape::Stream { .. }))
        {
            let segment = w.segment();
            let a = w.inputs(1, 3 * segment);
            let b = w.inputs(2, 3 * segment);
            assert_ne!(a.jobs[0].prompt, b.jobs[0].prompt, "{}", w.name);
            let first = composition(&a.jobs[..segment], &a.shared_prefix);
            for (inputs, part) in [(&a, 1), (&a, 2), (&b, 0), (&b, 2)] {
                let jobs = &inputs.jobs[part * segment..(part + 1) * segment];
                assert_eq!(
                    composition(jobs, &inputs.shared_prefix),
                    first,
                    "{}",
                    w.name
                );
                assert_eq!(jobs[0].arrival, 0.0);
            }
        }
    }

    #[test]
    fn evenly_spaced_lengths_include_both_ends() {
        assert_eq!(
            evenly_spaced((8, 24), 9),
            [8, 10, 12, 14, 16, 18, 20, 22, 24]
        );
        assert_eq!(evenly_spaced((16, 48), 1), [32]);
    }
}
