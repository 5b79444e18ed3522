//! Per-rank and cluster-wide execution statistics.
//!
//! Both drivers populate these; the benches use them for the utilisation and
//! communication-volume numbers quoted alongside the paper's figures
//! (e.g. "system utilization doubled" in §I).

use crate::{Rank, SimTime};

/// Statistics for a single rank.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeStats {
    /// Seconds spent in compute (charged via `NodeCtx::elapse`).
    pub busy_time: SimTime,
    /// Number of messages sent by this rank.
    pub messages_sent: u64,
    /// Number of messages received (delivered) by this rank.
    pub messages_received: u64,
    /// Total bytes sent by this rank.
    pub bytes_sent: u64,
    /// Number of idle callbacks that performed work.
    pub idle_work: u64,
    /// Messages sent by this rank belonging to the draft-rank protocol
    /// (draft requests/responses and draft cancellations; a subset of
    /// `messages_sent`).
    pub draft_messages_sent: u64,
    /// Bytes sent by this rank on the draft-rank protocol (a subset of
    /// `bytes_sent`).
    pub draft_bytes_sent: u64,
    /// Units of work this rank skipped thanks to early cancellation signals
    /// (stage evaluations never run, stale draft hypotheses never served).
    pub cancellations_saved: u64,
    /// Draft requests whose deadline expired on this rank without a
    /// response (the head is the only rank that records these).
    pub draft_timeouts: u64,
    /// Draft requests this rank re-issued after a timeout or an empty
    /// refusal (bounded, jittered backoff between attempts).
    pub draft_retries: u64,
    /// Times this rank abandoned a remote drafter and failed over to a local
    /// fallback (or degraded to non-speculative decoding).
    pub failovers: u64,
    /// Faults a chaos schedule injected on this rank: dropped/delayed/
    /// duplicated/reordered messages it sent, plus pauses and kills it
    /// suffered.
    pub faults_injected: u64,
    /// KV pages this rank's paged caches materialised on first write.
    pub kv_pages_allocated: u64,
    /// Committed pool pages this rank attached instead of recomputing
    /// (prefix-cache hits, counted in pages).
    pub kv_page_share_hits: u64,
    /// Shared pages this rank cloned copy-on-write at divergence points.
    pub kv_page_cows: u64,
    /// Pages this rank released or evicted at page granularity (fully-free
    /// private pages plus pool LRU evictions it triggered).
    pub kv_page_evictions: u64,
    /// Decode micro-batches this rank evaluated through its layer slice —
    /// one per `stage_forward`, whatever the cohort width.
    pub cohort_steps: u64,
    /// Sum over those steps of the number of requests (batch lanes) fused
    /// into the step's forest batch; `cohort_width_sum / cohort_steps` is
    /// the mean cohort width.  Thread-per-request serving counts width 1
    /// everywhere; iteration-level batching counts the in-flight cohort.
    pub cohort_width_sum: u64,
    /// Total batch rows those steps pushed through the fused projections
    /// and FFNs (each row shares the step's single weight stream).
    pub batched_rows: u64,
}

/// Statistics for the whole cluster run.
#[derive(Debug, Clone, Default)]
pub struct ClusterStats {
    /// Total run time in seconds (virtual for the simulator, wall-clock for
    /// the threaded driver).
    pub total_time: SimTime,
    /// Per-rank statistics, indexed by rank.
    pub nodes: Vec<NodeStats>,
}

impl ClusterStats {
    /// Creates empty statistics for `n` ranks.
    pub fn new(n: usize) -> Self {
        Self {
            total_time: 0.0,
            nodes: vec![NodeStats::default(); n],
        }
    }

    /// Statistics of rank `r`.
    pub fn node(&self, r: Rank) -> &NodeStats {
        &self.nodes[r]
    }

    /// Total messages sent across all ranks.
    pub fn total_messages(&self) -> u64 {
        self.nodes.iter().map(|n| n.messages_sent).sum()
    }

    /// Total bytes sent across all ranks.
    pub fn total_bytes(&self) -> u64 {
        self.nodes.iter().map(|n| n.bytes_sent).sum()
    }

    /// Total draft-protocol messages sent across all ranks.
    pub fn total_draft_messages(&self) -> u64 {
        self.nodes.iter().map(|n| n.draft_messages_sent).sum()
    }

    /// Total draft-protocol bytes sent across all ranks.
    pub fn total_draft_bytes(&self) -> u64 {
        self.nodes.iter().map(|n| n.draft_bytes_sent).sum()
    }

    /// Total units of work saved by early cancellation across all ranks.
    pub fn total_cancellations_saved(&self) -> u64 {
        self.nodes.iter().map(|n| n.cancellations_saved).sum()
    }

    /// Total expired draft-request deadlines across all ranks.
    pub fn total_draft_timeouts(&self) -> u64 {
        self.nodes.iter().map(|n| n.draft_timeouts).sum()
    }

    /// Total re-issued draft requests across all ranks.
    pub fn total_draft_retries(&self) -> u64 {
        self.nodes.iter().map(|n| n.draft_retries).sum()
    }

    /// Total drafter failovers across all ranks.
    pub fn total_failovers(&self) -> u64 {
        self.nodes.iter().map(|n| n.failovers).sum()
    }

    /// Total injected faults across all ranks.
    pub fn total_faults_injected(&self) -> u64 {
        self.nodes.iter().map(|n| n.faults_injected).sum()
    }

    /// Total decode micro-batches evaluated across all ranks.
    pub fn total_cohort_steps(&self) -> u64 {
        self.nodes.iter().map(|n| n.cohort_steps).sum()
    }

    /// Mean number of requests fused per decode step across all ranks
    /// (1.0 for thread-per-request serving, > 1 when iteration-level
    /// batching actually fuses concurrent requests; 0 when no stage ever
    /// ran).
    pub fn mean_cohort_width(&self) -> f64 {
        let steps = self.total_cohort_steps();
        if steps == 0 {
            return 0.0;
        }
        self.nodes.iter().map(|n| n.cohort_width_sum).sum::<u64>() as f64 / steps as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_aggregates() {
        let mut c = ClusterStats::new(2);
        c.total_time = 10.0;
        c.nodes[0].busy_time = 10.0;
        c.nodes[0].messages_sent = 3;
        c.nodes[0].bytes_sent = 100;
        c.nodes[1].busy_time = 0.0;
        c.nodes[1].messages_sent = 1;
        c.nodes[1].bytes_sent = 50;
        assert_eq!(c.total_messages(), 4);
        assert_eq!(c.total_bytes(), 150);
        assert_eq!(c.node(1).messages_sent, 1);
    }

    #[test]
    fn draft_and_cancellation_aggregates() {
        let mut c = ClusterStats::new(3);
        c.nodes[0].draft_messages_sent = 4;
        c.nodes[0].draft_bytes_sent = 400;
        c.nodes[1].draft_messages_sent = 2;
        c.nodes[1].draft_bytes_sent = 100;
        c.nodes[1].cancellations_saved = 5;
        c.nodes[2].cancellations_saved = 1;
        assert_eq!(c.total_draft_messages(), 6);
        assert_eq!(c.total_draft_bytes(), 500);
        assert_eq!(c.total_cancellations_saved(), 6);
    }

    #[test]
    fn recovery_and_fault_aggregates() {
        let mut c = ClusterStats::new(3);
        c.nodes[0].draft_timeouts = 2;
        c.nodes[0].draft_retries = 3;
        c.nodes[0].failovers = 1;
        c.nodes[1].faults_injected = 4;
        c.nodes[2].faults_injected = 1;
        assert_eq!(c.total_draft_timeouts(), 2);
        assert_eq!(c.total_draft_retries(), 3);
        assert_eq!(c.total_failovers(), 1);
        assert_eq!(c.total_faults_injected(), 5);
    }

    #[test]
    fn cohort_aggregates() {
        let mut c = ClusterStats::new(2);
        assert_eq!(c.mean_cohort_width(), 0.0, "no steps yet");
        c.nodes[0].cohort_steps = 3;
        c.nodes[0].cohort_width_sum = 9;
        c.nodes[1].cohort_steps = 1;
        c.nodes[1].cohort_width_sum = 1;
        assert_eq!(c.total_cohort_steps(), 4);
        assert!((c.mean_cohort_width() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn empty_cluster_is_safe() {
        let c = ClusterStats::new(0);
        assert_eq!(c.mean_cohort_width(), 0.0);
        assert_eq!(c.total_messages(), 0);
    }
}
