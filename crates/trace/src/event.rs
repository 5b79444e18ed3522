//! The typed event vocabulary.
//!
//! Every event carries the rank that recorded it and a timestamp from the
//! driver's [`Clock`](crate::Clock).  Two families exist:
//!
//! * **Spans** — intervals with a duration.  Spans are recorded at their
//!   *end*: `ts` is the end time and the start is `ts - dur`.  (Recording at
//!   the end means a single buffer push per span and no id matching.)
//! * **Instants** — point events (`dur() == None`).
//!
//! The vocabulary covers the full speculation lifecycle: run
//! spawned/inflight/verified/invalidated/rescued, draft
//! request/response/cancel, stage forwards with layer range and batch shape,
//! KV branch commit/rollback, and wire send/recv with byte counts.

/// One recorded event: when, where, what.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Timestamp in seconds (span **end** for span kinds).
    pub ts: f64,
    /// The rank that recorded the event.
    pub rank: u32,
    /// What happened.
    pub kind: EventKind,
}

/// The category of an injected fault, carried by
/// [`EventKind::FaultInjected`] so bubble accounting can attribute stalls
/// caused by a chaos schedule to their cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A message was dropped in transit.
    Drop,
    /// A message was delivered with extra injected latency.
    Delay,
    /// A message was delivered twice.
    Duplicate,
    /// A message was allowed to overtake earlier traffic on its link.
    Reorder,
    /// The rank was paused (straggler window).
    Pause,
    /// The rank was killed.
    Kill,
}

impl FaultKind {
    /// A short, stable name for labels and logs.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Delay => "delay",
            FaultKind::Duplicate => "duplicate",
            FaultKind::Reorder => "reorder",
            FaultKind::Pause => "pause",
            FaultKind::Kill => "kill",
        }
    }
}

/// What happened.  See the module docs for the span/instant split.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    // ----- spans (recorded at span end; start = ts - dur) -------------------
    /// Modeled computation charged through `NodeCtx::elapse` — the canonical
    /// "this rank was busy" signal both drivers emit.
    Compute { dur: f64 },
    /// The rank sat in a blocking receive for `dur` seconds (threaded: the
    /// poll loop; sim: the virtual wait for the next deliverable message).
    Blocked { dur: f64 },
    /// A pipeline worker evaluated one decode micro-batch through its layer
    /// slice `[layer_lo, layer_hi)`.  `batch` is the number of rows in the
    /// micro-batch; `cohort` is the number of requests (batch lanes) fused
    /// into it — 1 for thread-per-request serving, the in-flight cohort
    /// width under iteration-level batching.
    StageForward {
        run: u64,
        layer_lo: u32,
        layer_hi: u32,
        batch: u32,
        cohort: u32,
        dur: f64,
    },
    /// The dedicated draft rank served one draft request.
    DraftServe {
        request: u64,
        n_nodes: u32,
        dur: f64,
    },

    // ----- run lifecycle ----------------------------------------------------
    /// The head created a run and pushed it into the tracker.
    RunSpawned {
        run: u64,
        speculative: bool,
        n_nodes: u32,
        width: u32,
        depth: u32,
    },
    /// The run's micro-batch entered the target pipeline.
    RunInflight { run: u64 },
    /// A speculative run returned and was verified; `accepted` tokens of its
    /// tree survived the walk.
    RunVerified { run: u64, accepted: u32 },
    /// The run was invalidated by a mispredicted token and cancelled.
    RunInvalidated { run: u64 },
    /// The run survived an invalidation sweep because a sibling branch
    /// carries the accepted token (branch-granular rescue).
    RunRescued { run: u64 },
    /// A worker skipped an already-cancelled run's evaluation.
    RunSkipped { run: u64 },
    /// The head's speculation gate moved: its per-token acceptance estimate
    /// (`estimate_permille`, in 1/1000) crossed the point where a speculative
    /// run covers its price on shared cores.  Closed, only probes go out.
    SpecGate { open: bool, estimate_permille: u32 },

    // ----- draft transactions (dedicated draft rank) ------------------------
    /// The head asked the draft rank to speculate on a `context_len`-token
    /// hypothesis.
    DraftRequested { request: u64, context_len: u32 },
    /// The draft rank's response reached the head.
    DraftResponded { request: u64, n_nodes: u32 },
    /// The head cancelled every outstanding request up to an id.
    DraftCancelled { up_to: u64 },
    /// The draft rank dropped `n` requests unserved (superseded or
    /// cancelled).
    DraftDropped { n: u32 },

    // ----- KV multibuffering ------------------------------------------------
    /// Accepted branch committed into the canonical sequence; the partition
    /// block `[first, first + n_seqs)` is released.
    BranchCommit { first: u32, n_seqs: u32 },
    /// Nothing survived; the partition block rolled back wholesale.
    BranchRollback { first: u32, n_seqs: u32 },

    // ----- paged KV pool ----------------------------------------------------
    /// A paged cache materialised `n` private pages on first write.
    PageAlloc { n: u32 },
    /// A request attached `n` committed pool pages instead of recomputing
    /// the prefix they hold (prefix-cache hit).
    PageShareHit { n: u32 },
    /// `n` shared pages were cloned copy-on-write at a divergence point.
    PageCow { n: u32 },
    /// The pool evicted `n` refcount-0 pages (LRU) to admit a request, or a
    /// cache released `n` fully-free pages at page granularity.
    PageEvict { n: u32 },

    // ----- wire -------------------------------------------------------------
    /// A message left this rank.
    WireSend {
        dst: u32,
        tag: u32,
        bytes: u64,
        draft: bool,
    },
    /// A message was delivered to this rank.
    WireRecv { src: u32, tag: u32, bytes: u64 },

    /// The rank's behavior reported completion and its loop exited.
    RankFinished,

    // ----- fault injection and recovery -------------------------------------
    /// A fault-injection schedule perturbed this rank: a message on the link
    /// to `peer` was dropped/delayed/duplicated/reordered, or the rank itself
    /// was paused or killed (`peer` echoes the rank for non-link faults).
    FaultInjected { fault: FaultKind, peer: u32 },
    /// A draft request's deadline expired without a response reaching the
    /// head.
    DraftTimeout { request: u64 },
    /// The head abandoned the remote draft rank and failed over to its local
    /// fallback drafter (or, with no fallback, degraded to non-speculative
    /// decoding) after `timeouts` consecutive timeouts/refusals.
    DraftFailover { timeouts: u32 },
    /// The rank was killed by a fault schedule; it delivers and sends nothing
    /// from this point on.
    RankKilled,
}

impl EventKind {
    /// The span duration, or `None` for instants.
    pub fn dur(&self) -> Option<f64> {
        match *self {
            EventKind::Compute { dur }
            | EventKind::Blocked { dur }
            | EventKind::StageForward { dur, .. }
            | EventKind::DraftServe { dur, .. } => Some(dur),
            _ => None,
        }
    }

    /// A short, stable name (used for Perfetto track labels and logs).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Compute { .. } => "compute",
            EventKind::Blocked { .. } => "blocked",
            EventKind::StageForward { .. } => "stage_forward",
            EventKind::DraftServe { .. } => "draft_serve",
            EventKind::RunSpawned { .. } => "run_spawned",
            EventKind::RunInflight { .. } => "run_inflight",
            EventKind::RunVerified { .. } => "run_verified",
            EventKind::RunInvalidated { .. } => "run_invalidated",
            EventKind::RunRescued { .. } => "run_rescued",
            EventKind::RunSkipped { .. } => "run_skipped",
            EventKind::SpecGate { .. } => "spec_gate",
            EventKind::DraftRequested { .. } => "draft_requested",
            EventKind::DraftResponded { .. } => "draft_responded",
            EventKind::DraftCancelled { .. } => "draft_cancelled",
            EventKind::DraftDropped { .. } => "draft_dropped",
            EventKind::BranchCommit { .. } => "branch_commit",
            EventKind::BranchRollback { .. } => "branch_rollback",
            EventKind::PageAlloc { .. } => "page_alloc",
            EventKind::PageShareHit { .. } => "page_share_hit",
            EventKind::PageCow { .. } => "page_cow",
            EventKind::PageEvict { .. } => "page_evict",
            EventKind::WireSend { .. } => "wire_send",
            EventKind::WireRecv { .. } => "wire_recv",
            EventKind::RankFinished => "rank_finished",
            EventKind::FaultInjected { .. } => "fault_injected",
            EventKind::DraftTimeout { .. } => "draft_timeout",
            EventKind::DraftFailover { .. } => "draft_failover",
            EventKind::RankKilled => "rank_killed",
        }
    }
}

impl Event {
    /// The span start (`ts - dur`), or `ts` for instants.
    pub fn start(&self) -> f64 {
        self.ts - self.kind.dur().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_report_durations_and_starts() {
        let e = Event {
            ts: 2.5,
            rank: 1,
            kind: EventKind::Compute { dur: 0.5 },
        };
        assert_eq!(e.kind.dur(), Some(0.5));
        assert_eq!(e.start(), 2.0);
        let i = Event {
            ts: 1.0,
            rank: 0,
            kind: EventKind::RunSpawned {
                run: 3,
                speculative: true,
                n_nodes: 5,
                width: 2,
                depth: 4,
            },
        };
        assert_eq!(i.kind.dur(), None);
        assert_eq!(i.start(), 1.0);
    }

    #[test]
    fn fault_events_are_instants_with_stable_names() {
        let kinds = [
            EventKind::FaultInjected {
                fault: FaultKind::Drop,
                peer: 1,
            },
            EventKind::DraftTimeout { request: 3 },
            EventKind::DraftFailover { timeouts: 2 },
            EventKind::RankKilled,
        ];
        let names: Vec<&str> = kinds.iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            vec![
                "fault_injected",
                "draft_timeout",
                "draft_failover",
                "rank_killed"
            ]
        );
        assert!(kinds.iter().all(|k| k.dur().is_none()));
        assert_eq!(FaultKind::Kill.name(), "kill");
        assert_ne!(FaultKind::Delay, FaultKind::Reorder);
    }

    #[test]
    fn page_events_are_instants_with_stable_names() {
        let kinds = [
            EventKind::PageAlloc { n: 1 },
            EventKind::PageShareHit { n: 2 },
            EventKind::PageCow { n: 1 },
            EventKind::PageEvict { n: 3 },
        ];
        let names: Vec<&str> = kinds.iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            vec!["page_alloc", "page_share_hit", "page_cow", "page_evict"]
        );
        assert!(kinds.iter().all(|k| k.dur().is_none()));
    }

    #[test]
    fn names_are_stable_and_distinct_per_family() {
        assert_eq!(EventKind::RankFinished.name(), "rank_finished");
        assert_eq!(
            EventKind::StageForward {
                run: 0,
                layer_lo: 0,
                layer_hi: 4,
                batch: 1,
                cohort: 1,
                dur: 0.1
            }
            .name(),
            "stage_forward"
        );
    }
}
