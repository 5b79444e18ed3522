//! Aggregate per-request latency metrics over one served stream.
//!
//! A [`ServeReport`] is the metrics pipeline's output: per-request
//! completions in finish order plus the aggregates the serving literature
//! reports — goodput (generated tokens per second of stream makespan),
//! client-observed TTFT, mean inter-token latency and end-to-end latency
//! with p50/p95/p99 — rendered into the existing `pi_metrics`
//! [`Figure`]/[`Summary`]/[`Histogram`] machinery.

use crate::request::{Completion, RequestId};
use pi_metrics::{Figure, Histogram, Summary};
use pi_model::KvPoolStats;
use pi_spec::SessionStats;
use pi_trace::BubbleReport;
use std::fmt::Write as _;

/// Per-request completions plus aggregate metrics for one served stream.
#[derive(Debug, Clone)]
pub struct ServeReport {
    strategy: String,
    window: usize,
    completions: Vec<Completion>,
    /// Snapshot of the deployment's KV page pool after the stream completed,
    /// when the server runs over a pool: what the stream's own admissions
    /// matched, evicted and were refused (token chains under `Sim`, physical
    /// pages under `Real`).
    kv_pool: Option<KvPoolStats>,
    /// Cohort accounting of the step loop, when the stream was served by
    /// iteration-level batching ([`crate::Server::serve_stepped`]); `None`
    /// under replica serving ([`crate::Server::serve`]).
    cohort: Option<SessionStats>,
}

impl ServeReport {
    /// Builds a report; `completions` must already be in finish order.
    pub(crate) fn new(strategy: &str, window: usize, completions: Vec<Completion>) -> Self {
        Self {
            strategy: strategy.to_string(),
            window,
            completions,
            kv_pool: None,
            cohort: None,
        }
    }

    /// Attaches the KV page pool's stats snapshot for this stream.
    pub(crate) fn with_kv_pool(mut self, stats: KvPoolStats) -> Self {
        self.kv_pool = Some(stats);
        self
    }

    /// Attaches the step loop's cohort accounting for this stream.
    pub(crate) fn with_cohort(mut self, stats: SessionStats) -> Self {
        self.cohort = Some(stats);
        self
    }

    /// The step loop's cohort accounting, if the stream was served by
    /// iteration-level batching.
    pub fn cohort_stats(&self) -> Option<&SessionStats> {
        self.cohort.as_ref()
    }

    /// Mean requests fused per decode iteration (zero under
    /// request-granularity serving, where no forest batches exist).
    pub fn mean_cohort_width(&self) -> f64 {
        self.cohort.map_or(0.0, |s| s.mean_cohort_width())
    }

    /// The KV page pool's stats snapshot, if the stream was served over a
    /// pool.
    pub fn kv_pool_stats(&self) -> Option<&KvPoolStats> {
        self.kv_pool.as_ref()
    }

    /// Peak pages simultaneously in use by the pool over its lifetime (zero
    /// without a pool).
    pub fn kv_pages_peak(&self) -> u64 {
        self.kv_pool
            .as_ref()
            .map_or(0, |s| s.peak_pages_in_use as u64)
    }

    /// Fraction of pool admissions that attached a cached prompt prefix
    /// (zero without a pool).
    pub fn prefix_hit_rate(&self) -> f64 {
        match &self.kv_pool {
            Some(s) if s.requests > 0 => s.share_hits as f64 / s.requests as f64,
            _ => 0.0,
        }
    }

    /// LRU evictions of committed prefix chains (zero without a pool).
    pub fn kv_evictions(&self) -> u64 {
        self.kv_pool.as_ref().map_or(0, |s| s.evictions)
    }

    /// Requests the pool refused to admit for lack of free pages (zero
    /// without a pool).  Refused requests still complete — they fall back to
    /// isolated flat caches — but each refusal is lost sharing.
    pub fn kv_refusals(&self) -> u64 {
        self.kv_pool.as_ref().map_or(0, |s| s.refusals)
    }

    /// Strategy name the stream was served with.
    pub fn strategy(&self) -> &str {
        &self.strategy
    }

    /// In-flight window the stream was served under.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Completions in service-clock finish order.
    pub fn completions(&self) -> &[Completion] {
        &self.completions
    }

    /// Looks up one request's completion by id.
    pub fn completion(&self, id: RequestId) -> Option<&Completion> {
        self.completions.iter().find(|c| c.id == id)
    }

    /// Number of completed requests.
    pub fn len(&self) -> usize {
        self.completions.len()
    }

    /// Whether the stream was empty.
    pub fn is_empty(&self) -> bool {
        self.completions.is_empty()
    }

    /// Total tokens generated across the stream.
    pub fn total_tokens(&self) -> usize {
        self.completions.iter().map(Completion::n_tokens).sum()
    }

    /// Stream makespan: last finish minus earliest arrival, seconds.
    pub fn makespan(&self) -> f64 {
        let first = self
            .completions
            .iter()
            .map(|c| c.timing.arrival)
            .fold(f64::INFINITY, f64::min);
        let last = self
            .completions
            .iter()
            .map(|c| c.timing.finished)
            .fold(f64::NEG_INFINITY, f64::max);
        if last > first {
            last - first
        } else {
            0.0
        }
    }

    /// Goodput: generated tokens per second of stream makespan.
    pub fn goodput(&self) -> f64 {
        let span = self.makespan();
        if span <= 0.0 {
            0.0
        } else {
            self.total_tokens() as f64 / span
        }
    }

    fn summary_of(&self, f: impl Fn(&Completion) -> f64) -> Summary {
        let samples: Vec<f64> = self.completions.iter().map(f).collect();
        Summary::of(&samples)
    }

    /// Client-observed time-to-first-token (queueing included).
    pub fn ttft_summary(&self) -> Summary {
        self.summary_of(|c| c.timing.ttft())
    }

    /// End-to-end latency (arrival to completion).
    pub fn e2e_summary(&self) -> Summary {
        self.summary_of(|c| c.timing.e2e())
    }

    /// Queueing delay (arrival to admission).
    pub fn wait_summary(&self) -> Summary {
        self.summary_of(|c| c.timing.wait())
    }

    /// Per-request mean inter-token latency.
    pub fn itl_summary(&self) -> Summary {
        self.summary_of(Completion::mean_itl)
    }

    fn mean_of(&self, f: impl Fn(&Completion) -> f64) -> f64 {
        if self.completions.is_empty() {
            return 0.0;
        }
        self.completions.iter().map(f).sum::<f64>() / self.completions.len() as f64
    }

    /// Mean accepted-tokens-per-verify across requests: tokens generated per
    /// target-pipeline run, the metric tree speculation trades width/depth
    /// to maximise at a fixed verify-batch budget.
    pub fn mean_tokens_per_run(&self) -> f64 {
        self.mean_of(|c| c.output.record.tokens_per_run())
    }

    /// Mean draft-token acceptance rate across requests.
    pub fn mean_acceptance_rate(&self) -> f64 {
        self.mean_of(|c| c.output.record.acceptance_rate())
    }

    /// Mean tree utilization across requests (zero for linear strategies,
    /// which never speculate tree nodes).
    pub fn mean_tree_utilization(&self) -> f64 {
        self.mean_of(|c| c.output.record.tree_utilization())
    }

    /// Total draft-protocol bytes (requests, responses, cancellations) sent
    /// across all ranks over the whole stream — zero unless the deployment
    /// hosts drafting on a dedicated rank.
    pub fn total_draft_bytes(&self) -> u64 {
        self.completions
            .iter()
            .map(|c| c.output.stats.total_draft_bytes())
            .sum()
    }

    /// Total units of work saved by early cancellation across all ranks over
    /// the whole stream: stage evaluations workers skipped plus stale draft
    /// hypotheses the draft rank dropped unserved.
    pub fn total_cancellations_saved(&self) -> u64 {
        self.completions
            .iter()
            .map(|c| c.output.stats.total_cancellations_saved())
            .sum()
    }

    /// Total draft-rank failovers across the whole stream: requests whose
    /// head abandoned its remote drafter for the local fallback (or degraded
    /// non-speculative decoding) after repeated timeouts/refusals.  Zero on
    /// any fault-free stream.
    pub fn total_failovers(&self) -> u64 {
        self.completions
            .iter()
            .map(|c| c.output.stats.total_failovers())
            .sum()
    }

    /// Mean pipeline-bubble fraction across traced requests: the share of
    /// each run's per-rank timelines spent idle or blocked rather than
    /// computing, averaged over ranks and then over requests (see
    /// [`BubbleReport`]).  Zero when the stream was served without
    /// [`Server::with_trace`](crate::Server::with_trace) — the recorder, not
    /// the pipeline, determines whether the figure exists.
    pub fn mean_bubble_fraction(&self) -> f64 {
        let fracs: Vec<f64> = self
            .completions
            .iter()
            .filter_map(|c| c.output.trace.as_ref())
            .map(|t| BubbleReport::analyze(t).mean_bubble_fraction())
            .collect();
        if fracs.is_empty() {
            0.0
        } else {
            fracs.iter().sum::<f64>() / fracs.len() as f64
        }
    }

    /// End-to-end latency histogram over `[0, max e2e]`.
    pub fn e2e_histogram(&self, n_buckets: usize) -> Histogram {
        let hi = self.e2e_summary().max.max(1e-9);
        let mut h = Histogram::new(0.0, hi, n_buckets);
        for c in &self.completions {
            h.record(c.timing.e2e());
        }
        h
    }

    /// Pushes this report's aggregates into `figure` as one series: goodput,
    /// latency percentiles, plus speculation quality (acceptance rate,
    /// accepted-tokens-per-verify and tree utilization), one x-label per
    /// metric.
    pub fn to_figure(&self, figure: &mut Figure, series: &str) {
        let e2e = self.e2e_summary();
        let ttft = self.ttft_summary();
        figure.push(series, "goodput tok/s", self.goodput());
        figure.push(series, "p50 e2e s", e2e.p50);
        figure.push(series, "p99 e2e s", e2e.p99);
        figure.push(series, "p50 TTFT s", ttft.p50);
        figure.push(series, "p99 TTFT s", ttft.p99);
        figure.push(series, "mean ITL s", self.itl_summary().mean);
        figure.push(series, "accept rate", self.mean_acceptance_rate());
        figure.push(series, "tok/verify", self.mean_tokens_per_run());
        figure.push(series, "tree util", self.mean_tree_utilization());
        figure.push(series, "draft kB", self.total_draft_bytes() as f64 / 1e3);
        figure.push(
            series,
            "cancel saved",
            self.total_cancellations_saved() as f64,
        );
        figure.push(series, "bubble frac", self.mean_bubble_fraction());
        figure.push(series, "failovers", self.total_failovers() as f64);
        figure.push(series, "kv pages peak", self.kv_pages_peak() as f64);
        figure.push(series, "prefix hit", self.prefix_hit_rate());
        figure.push(series, "kv evicts", self.kv_evictions() as f64);
        figure.push(series, "kv refusals", self.kv_refusals() as f64);
        figure.push(series, "cohort width", self.mean_cohort_width());
    }

    /// Renders a per-request table plus the aggregate line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "=== {} serving report — {} request(s), window {} ===",
            self.strategy,
            self.len(),
            self.window
        );
        let _ = writeln!(
            out,
            "{:>4} {:>4} {:>10} {:>10} {:>10} {:>10} {:>7} {:>8} {:>11}",
            "id", "prio", "arrival", "wait", "TTFT", "e2e", "tokens", "tok/run", "shape"
        );
        for c in &self.completions {
            let shape = match c.output.record.tree_shape_range() {
                Some(((w0, d0), (w1, d1))) => format!("{w0}x{d0}->{w1}x{d1}"),
                None => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "{:>4} {:>4} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>7} {:>8.2} {:>11}",
                c.id,
                c.priority,
                c.timing.arrival,
                c.timing.wait(),
                c.timing.ttft(),
                c.timing.e2e(),
                c.n_tokens(),
                c.output.record.tokens_per_run(),
                shape,
            );
        }
        let e2e = self.e2e_summary();
        let _ = write!(
            out,
            "goodput {:.3} tok/s | e2e p50 {:.4} s p95 {:.4} s p99 {:.4} s | ttft p50 {:.4} s",
            self.goodput(),
            e2e.p50,
            e2e.p95,
            e2e.p99,
            self.ttft_summary().p50,
        );
        // Aggregate columns a stream never exercised render as `-` instead of
        // a misleading zero: `accept` without a drafter, `tree util` for
        // linear strategies, `draft kB` under head-hosted drafting, `bubble`
        // without a recorder, `cohort width` under request-granularity
        // serving, and so on.
        let sums = |f: fn(&Completion) -> u64| self.completions.iter().map(f).sum::<u64>();
        if sums(|c| c.output.record.drafted as u64) > 0 {
            let _ = write!(out, " | accept {:.0}%", self.mean_acceptance_rate() * 100.0);
        } else {
            let _ = write!(out, " | accept -");
        }
        let _ = write!(out, " | {:.2} tok/verify", self.mean_tokens_per_run());
        if sums(|c| (c.output.record.tree_rounds + c.output.record.tree_nodes) as u64) > 0 {
            let _ = write!(
                out,
                " | tree util {:.0}%",
                self.mean_tree_utilization() * 100.0
            );
        } else {
            let _ = write!(out, " | tree util -");
        }
        if self.total_draft_bytes() > 0 {
            let _ = write!(
                out,
                " | draft {:.1} kB",
                self.total_draft_bytes() as f64 / 1e3
            );
        } else {
            let _ = write!(out, " | draft -");
        }
        if self.total_cancellations_saved() > 0 {
            let _ = write!(
                out,
                " | {} evals saved by cancellation",
                self.total_cancellations_saved()
            );
        } else {
            let _ = write!(out, " | cancel saved -");
        }
        if self.completions.iter().any(|c| c.output.trace.is_some()) {
            let _ = write!(out, " | bubble {:.0}%", self.mean_bubble_fraction() * 100.0);
        } else {
            let _ = write!(out, " | bubble -");
        }
        if self.total_failovers() > 0 {
            let _ = write!(out, " | {} failover(s)", self.total_failovers());
        } else {
            let _ = write!(out, " | failovers -");
        }
        // Only a head whose ranks share cores prices its speculative runs;
        // `spec_gate_closures` / `spec_probes` stay zero everywhere else.
        let closures = sums(|c| c.output.record.spec_gate_closures as u64);
        let probes = sums(|c| c.output.record.spec_probes as u64);
        if closures + probes > 0 {
            let _ = write!(out, " | spec gate closed {closures}x, {probes} probe(s)");
        } else {
            let _ = write!(out, " | spec gate -");
        }
        match &self.cohort {
            Some(s) => {
                let _ = writeln!(
                    out,
                    " | cohort width {:.2} over {} step(s)",
                    s.mean_cohort_width(),
                    s.cohort_steps,
                );
            }
            None => {
                let _ = writeln!(out, " | cohort width -");
            }
        }
        if let Some(kv) = &self.kv_pool {
            let _ = writeln!(
                out,
                "kv pool: {} pages peak | prefix hit {:.0}% ({} of {} admissions, {} tokens reused)                  | {} eviction(s) | {} refusal(s)",
                kv.peak_pages_in_use,
                self.prefix_hit_rate() * 100.0,
                kv.share_hits,
                kv.requests,
                kv.shared_tokens,
                kv.evictions,
                kv.refusals,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestTiming;
    use pi_spec::deploy::RunOutput;
    use pi_spec::GenerationRecord;

    fn completion(
        id: u64,
        arrival: f64,
        started: f64,
        finished: f64,
        n_tokens: usize,
    ) -> Completion {
        let record = GenerationRecord {
            tokens: vec![1; n_tokens],
            prompt_done_at: 0.0,
            accept_times: (0..n_tokens).map(|i| 0.1 * (i + 1) as f64).collect(),
            finished_at: finished - started,
            ..GenerationRecord::default()
        };
        Completion {
            id,
            priority: 0,
            timing: RequestTiming {
                arrival,
                started,
                first_token: started + 0.1,
                finished,
            },
            output: RunOutput {
                record,
                stats: pi_cluster::ClusterStats::new(1),
                completed: true,
                trace: None,
            },
        }
    }

    #[test]
    fn aggregates_over_known_timings() {
        let report = ServeReport::new(
            "Test",
            2,
            vec![
                completion(0, 0.0, 0.0, 2.0, 10),
                completion(1, 0.5, 1.0, 3.0, 10),
            ],
        );
        assert_eq!(report.total_tokens(), 20);
        assert!((report.makespan() - 3.0).abs() < 1e-12);
        assert!((report.goodput() - 20.0 / 3.0).abs() < 1e-12);
        let e2e = report.e2e_summary();
        assert!((e2e.p50 - 2.25).abs() < 1e-12); // median of {2.0, 2.5}
        let wait = report.wait_summary();
        assert!((wait.max - 0.5).abs() < 1e-12);
        assert_eq!(report.completion(1).unwrap().id, 1);
        assert!(report.completion(7).is_none());
    }

    #[test]
    fn figure_and_render_carry_all_metrics() {
        let report = ServeReport::new(
            "Test",
            1,
            vec![
                completion(0, 0.0, 0.0, 1.0, 4),
                completion(1, 0.1, 1.0, 2.0, 4),
            ],
        );
        let mut fig = Figure::new("Serving", "serving metrics", "mixed");
        report.to_figure(&mut fig, "Test");
        assert_eq!(fig.x_labels().len(), 18);
        assert_eq!(fig.value("Test", "cohort width"), Some(0.0));
        assert_eq!(fig.value("Test", "bubble frac"), Some(0.0));
        assert_eq!(fig.value("Test", "kv pages peak"), Some(0.0));
        assert_eq!(fig.value("Test", "prefix hit"), Some(0.0));
        assert_eq!(fig.value("Test", "kv refusals"), Some(0.0));
        assert_eq!(fig.value("Test", "failovers"), Some(0.0));
        assert!(fig.value("Test", "goodput tok/s").unwrap() > 0.0);
        assert!(fig.value("Test", "p99 e2e s").unwrap() >= fig.value("Test", "p50 e2e s").unwrap());
        assert_eq!(fig.value("Test", "tree util"), Some(0.0));
        assert_eq!(fig.value("Test", "draft kB"), Some(0.0));
        assert_eq!(fig.value("Test", "cancel saved"), Some(0.0));
        let text = report.render();
        assert!(text.contains("goodput"));
        assert!(text.contains("window 1"));
        assert!(text.contains("tok/verify"));
        assert!(text.contains("shape"));
        // Metrics the stream never exercised render as `-`, not zeros.
        assert!(text.contains("accept -"), "{text}");
        assert!(text.contains("tree util -"), "{text}");
        assert!(text.contains("draft -"), "{text}");
        assert!(text.contains("cancel saved -"), "{text}");
        assert!(text.contains("bubble -"), "{text}");
        assert!(text.contains("failovers -"), "{text}");
        assert!(text.contains("spec gate -"), "{text}");
        assert!(text.contains("cohort width -"), "{text}");
        let hist = report.e2e_histogram(8);
        assert_eq!(hist.count(), 2);
    }

    #[test]
    fn cohort_column_surfaces_step_loop_stats() {
        let stats = SessionStats {
            cohort_steps: 10,
            cohort_width_sum: 25,
            batched_rows: 120,
        };
        let report =
            ServeReport::new("Test", 4, vec![completion(0, 0.0, 0.0, 1.0, 4)]).with_cohort(stats);
        assert!((report.mean_cohort_width() - 2.5).abs() < 1e-12);
        assert_eq!(report.cohort_stats(), Some(&stats));
        let mut fig = Figure::new("Serving", "serving metrics", "mixed");
        report.to_figure(&mut fig, "Test");
        assert_eq!(fig.value("Test", "cohort width"), Some(2.5));
        let text = report.render();
        assert!(text.contains("cohort width 2.50 over 10 step(s)"), "{text}");
    }

    #[test]
    fn speculation_quality_aggregates() {
        let mut a = completion(0, 0.0, 0.0, 1.0, 8);
        a.output.record.runs_launched = 4;
        a.output.record.drafted = 10;
        a.output.record.accepted_drafts = 5;
        a.output.record.tree_nodes = 10;
        a.output.record.tree_accepted_path = 5;
        a.output.record.tree_shapes = vec![(1, 4), (3, 2)];
        let mut b = completion(1, 0.1, 1.0, 2.0, 8);
        b.output.record.runs_launched = 8;
        b.output.record.spec_gate_closures = 1;
        b.output.record.spec_probes = 3;
        let report = ServeReport::new("Test", 1, vec![a, b]);
        assert!(report.render().contains("spec gate closed 1x, 3 probe(s)"));
        // Means over {8/4, 8/8}, {0.5, 0.0}, {0.5, 0.0}.
        assert!((report.mean_tokens_per_run() - 1.5).abs() < 1e-12);
        assert!((report.mean_acceptance_rate() - 0.25).abs() < 1e-12);
        assert!((report.mean_tree_utilization() - 0.25).abs() < 1e-12);
        // The per-request shape trace lands in the rendered table.
        assert!(report.render().contains("1x4->3x2"));
    }

    #[test]
    fn draft_traffic_and_cancellation_savings_aggregate_across_requests() {
        let mut a = completion(0, 0.0, 0.0, 1.0, 8);
        a.output.stats = pi_cluster::ClusterStats::new(2);
        a.output.stats.nodes[0].draft_bytes_sent = 1500;
        a.output.stats.nodes[1].draft_bytes_sent = 500;
        a.output.stats.nodes[1].cancellations_saved = 3;
        a.output.stats.nodes[0].draft_timeouts = 4;
        a.output.stats.nodes[0].failovers = 1;
        let mut b = completion(1, 0.1, 1.0, 2.0, 8);
        b.output.stats = pi_cluster::ClusterStats::new(2);
        b.output.stats.nodes[0].cancellations_saved = 2;
        let report = ServeReport::new("Test", 1, vec![a, b]);
        assert_eq!(report.total_draft_bytes(), 2000);
        assert_eq!(report.total_cancellations_saved(), 5);
        assert_eq!(report.total_failovers(), 1);
        let mut fig = Figure::new("Serving", "serving metrics", "mixed");
        report.to_figure(&mut fig, "Test");
        assert_eq!(fig.value("Test", "draft kB"), Some(2.0));
        assert_eq!(fig.value("Test", "cancel saved"), Some(5.0));
        assert_eq!(fig.value("Test", "failovers"), Some(1.0));
        let text = report.render();
        assert!(text.contains("draft 2.0 kB"));
        assert!(text.contains("5 evals saved"));
        assert!(text.contains("1 failover(s)"));
    }

    #[test]
    fn empty_report_is_safe() {
        let report = ServeReport::new("Test", 4, Vec::new());
        assert!(report.is_empty());
        assert_eq!(report.goodput(), 0.0);
        assert_eq!(report.makespan(), 0.0);
        assert_eq!(report.e2e_summary().n, 0);
        assert!(report.kv_pool_stats().is_none());
        assert_eq!(report.prefix_hit_rate(), 0.0);
    }

    #[test]
    fn kv_pool_columns_surface_pool_stats() {
        let stats = KvPoolStats {
            pages_in_use: 3,
            peak_pages_in_use: 7,
            requests: 10,
            share_hits: 6,
            shared_tokens: 480,
            pages_committed: 9,
            evictions: 2,
            refusals: 1,
        };
        let report =
            ServeReport::new("Test", 2, vec![completion(0, 0.0, 0.0, 1.0, 4)]).with_kv_pool(stats);
        assert_eq!(report.kv_pages_peak(), 7);
        assert!((report.prefix_hit_rate() - 0.6).abs() < 1e-12);
        assert_eq!(report.kv_evictions(), 2);
        assert_eq!(report.kv_refusals(), 1);
        let mut fig = Figure::new("Serving", "serving metrics", "mixed");
        report.to_figure(&mut fig, "Test");
        assert_eq!(fig.value("Test", "kv pages peak"), Some(7.0));
        assert_eq!(fig.value("Test", "prefix hit"), Some(0.6));
        assert_eq!(fig.value("Test", "kv evicts"), Some(2.0));
        assert_eq!(fig.value("Test", "kv refusals"), Some(1.0));
        let text = report.render();
        assert!(text.contains("kv pool"), "{text}");
        assert!(text.contains("7 pages peak"), "{text}");
        assert!(text.contains("480 tokens reused"), "{text}");
    }
}
