//! Per-rank and cluster-wide execution statistics, and the one ledger that
//! keeps them.
//!
//! Each rank of either driver owns a `RankLog`: its [`NodeStats`], its
//! event ring when a recorder is attached, and the wait it is blocked in.
//! The drivers tell the log what happened to the rank (a message sent or
//! received, an injected fault, an idle poll that did work, a wait, the end
//! of the rank); behaviors add their own counts through
//! [`NodeCtx::stats`](crate::NodeCtx::stats).  Nothing else writes a counter
//! or pushes a driver event, so a count means the same on both drivers.  The
//! benches use the counters for the utilisation and communication-volume
//! numbers quoted alongside the paper's figures (e.g. "system utilization
//! doubled" in §I).

use crate::{Rank, SimTime, Tag, WireMessage};
use pi_trace::{ClockDomain, EventKind, Trace, TraceBuffer, TraceConfig};

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
}

/// One rank's ledger (see the module docs).
pub(crate) struct RankLog {
    stats: NodeStats,
    buf: Option<TraceBuffer>,
    /// Start of the wait a `Blocked` span is open for (tracing only).
    blocked_since: Option<SimTime>,
}

impl RankLog {
    /// An empty ledger for `rank`, with an event ring iff `trace` is given.
    pub(crate) fn new(rank: Rank, trace: Option<TraceConfig>) -> Self {
        let buf = trace.map(|c| TraceBuffer::new(rank as u32, c.capacity_per_rank));
        Self {
            stats: NodeStats::default(),
            buf,
            blocked_since: None,
        }
    }

    /// The counters, for behaviors to add their own to.
    pub(crate) fn stats(&mut self) -> &mut NodeStats {
        &mut self.stats
    }

    /// Whether events are being recorded.
    pub(crate) fn tracing(&self) -> bool {
        self.buf.is_some()
    }

    /// Records `kind` at `at`, if events are being recorded.
    pub(crate) fn trace(&mut self, at: SimTime, kind: EventKind) {
        if let Some(buf) = self.buf.as_mut() {
            buf.push(at, kind);
        }
    }

    /// How many events have been recorded, dropped ones included: the mark
    /// an idle poll takes before it starts (see [`RankLog::idle_worked`]).
    pub(crate) fn mark(&self) -> u64 {
        self.buf
            .as_ref()
            .map_or(0, |b| b.len() as u64 + b.dropped())
    }

    /// `dur` seconds of compute charged, ending at `at`.
    pub(crate) fn computed(&mut self, at: SimTime, dur: SimTime) {
        self.stats.busy_time += dur;
        if dur > 0.0 {
            self.trace(at, EventKind::Compute { dur });
        }
    }

    /// `msg` sent to `dst` at `at`.  A message a fault later drops still
    /// counts: it occupied the wire.
    pub(crate) fn sent<M: WireMessage>(&mut self, at: SimTime, dst: Rank, tag: Tag, msg: &M) {
        let (bytes, draft) = (msg.wire_bytes(), msg.is_draft());
        self.stats.messages_sent += 1;
        self.stats.bytes_sent += bytes;
        if draft {
            self.stats.draft_messages_sent += 1;
            self.stats.draft_bytes_sent += bytes;
        }
        let dst = dst as u32;
        self.trace(
            at,
            EventKind::WireSend {
                dst,
                tag,
                bytes,
                draft,
            },
        );
    }

    /// `msg` from `src` delivered at `at`, ending any wait.
    pub(crate) fn received<M: WireMessage>(&mut self, at: SimTime, src: Rank, tag: Tag, msg: &M) {
        self.stats.messages_received += 1;
        self.close_wait(at, 0);
        if self.tracing() {
            let (src, bytes) = (src as u32, msg.wire_bytes());
            self.trace(at, EventKind::WireRecv { src, tag, bytes });
        }
    }

    /// `faults` injected on this rank at `at`.
    pub(crate) fn faulted(&mut self, at: SimTime, faults: &[EventKind]) {
        self.stats.faults_injected += faults.len() as u64;
        for &kind in faults {
            self.trace(at, kind);
        }
    }

    /// An idle poll that began at `at`, when the log stood at `mark`, did
    /// work.  The wait it ended closes at `at`, ordered ahead of the events
    /// the poll itself recorded.
    pub(crate) fn idle_worked(&mut self, at: SimTime, mark: u64) {
        self.stats.idle_work += 1;
        self.close_wait(at, (self.mark() - mark) as usize);
    }

    /// The rank found nothing to do and waits from `at`, unless it already
    /// was waiting.
    pub(crate) fn blocked(&mut self, at: SimTime) {
        if self.tracing() && self.blocked_since.is_none() {
            self.blocked_since = Some(at);
        }
    }

    /// The rank finished at `at`.  A finished rank waits for nothing, so an
    /// open wait is dropped, not closed.
    pub(crate) fn finished(&mut self, at: SimTime) {
        self.blocked_since = None;
        self.trace(at, EventKind::RankFinished);
    }

    /// A fault schedule killed the rank at `at`; like a finish, it ends any
    /// wait unrecorded.
    pub(crate) fn killed(&mut self, at: SimTime) {
        self.blocked_since = None;
        self.faulted(at, &[EventKind::RankKilled]);
    }

    /// Closes a wait still open when the run ended at `end` and hands over
    /// the counters and the ring.
    pub(crate) fn close(mut self, end: SimTime) -> (NodeStats, Option<TraceBuffer>) {
        self.close_wait(end, 0);
        (self.stats, self.buf)
    }

    /// Ends the open wait at `at`, recording it ahead of the newest `behind`
    /// events.
    fn close_wait(&mut self, at: SimTime, behind: usize) {
        let Some(since) = self.blocked_since.take() else {
            return;
        };
        if let Some(buf) = self.buf.as_mut().filter(|_| at > since) {
            buf.push_behind(behind, at, EventKind::Blocked { dur: at - since });
        }
    }
}

/// The run's statistics from its ranks' closed ledgers (in rank order), and
/// its trace if they recorded one.
pub(crate) fn gather(
    ledgers: impl IntoIterator<Item = (NodeStats, Option<TraceBuffer>)>,
    total_time: SimTime,
    domain: ClockDomain,
) -> (ClusterStats, Option<Trace>) {
    let (nodes, bufs): (Vec<_>, Vec<_>) = ledgers.into_iter().unzip();
    let bufs: Option<Vec<_>> = bufs.into_iter().collect();
    let trace = bufs
        .filter(|bufs| !bufs.is_empty())
        .map(|bufs| Trace::assemble(bufs, domain));
    (ClusterStats { total_time, nodes }, trace)
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
    fn empty_cluster_is_safe() {
        let c = ClusterStats::new(0);
        assert_eq!(c.total_bytes(), 0);
        assert_eq!(c.total_messages(), 0);
    }
}
