//! Per-rank ring buffers and the assembled [`Trace`].
//!
//! Each rank (one OS thread under the threaded driver, one virtual rank under
//! the sim driver) records into its own [`TraceBuffer`]: no locks on the hot
//! path, bounded memory, drop-oldest on overflow with an explicit
//! dropped-events counter.  When the driver finishes, the per-rank buffers
//! are merged into a single time-sorted [`Trace`].

use crate::event::{Event, EventKind};
use std::collections::VecDeque;

/// Recording configuration handed to a driver's `with_trace`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Ring-buffer capacity per rank, in events.  When full the **oldest**
    /// event is dropped (and counted) — the tail of a run is always kept.
    pub capacity_per_rank: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            capacity_per_rank: 1 << 16,
        }
    }
}

impl TraceConfig {
    /// A config with the given per-rank capacity.
    pub fn with_capacity(capacity_per_rank: usize) -> Self {
        Self { capacity_per_rank }
    }
}

/// One rank's bounded event ring.
#[derive(Debug)]
pub struct TraceBuffer {
    rank: u32,
    cap: usize,
    events: VecDeque<Event>,
    dropped: u64,
}

impl TraceBuffer {
    /// An empty ring for `rank` holding at most `cap` events.
    pub fn new(rank: u32, cap: usize) -> Self {
        Self {
            rank,
            cap: cap.max(1),
            events: VecDeque::new(),
            dropped: 0,
        }
    }

    /// The rank this buffer records for.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// Records one event; drops (and counts) the oldest when full.
    pub fn push(&mut self, ts: f64, kind: EventKind) {
        if self.events.len() == self.cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(Event {
            ts,
            rank: self.rank,
            kind,
        });
    }

    /// Records one event ahead of the newest `behind` (all of them if fewer
    /// are held): the ring ends up exactly as if the event had been pushed
    /// before those.  A span whose end opened the activation that recorded
    /// them, but which is only known to have ended once that activation
    /// is over, is closed this way.
    pub fn push_behind(&mut self, behind: usize, ts: f64, kind: EventKind) {
        let at = self.events.len().saturating_sub(behind);
        self.events.insert(
            at,
            Event {
                ts,
                rank: self.rank,
                kind,
            },
        );
        if self.events.len() > self.cap {
            self.events.pop_front();
            self.dropped += 1;
        }
    }

    /// Events recorded so far (oldest first).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events dropped to the ring bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Which clock domain a trace's timestamps live in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockDomain {
    /// Virtual `SimTime` from the discrete-event sim driver: deterministic,
    /// byte-reproducible across hosts and thread counts.
    Virtual,
    /// Monotonic wall time from the threaded driver.
    Monotonic,
}

/// A completed recording: every rank's events merged into one time-sorted
/// stream, plus per-rank drop counters and the clock domain.
#[derive(Debug, Clone)]
pub struct Trace {
    events: Vec<Event>,
    /// Events dropped per rank (index = rank).
    dropped: Vec<u64>,
    domain: ClockDomain,
}

impl Trace {
    /// Merges per-rank buffers (indexed by rank) into one trace.  Events are
    /// stably sorted by timestamp with rank as the tie-break, so each rank's
    /// own recording order is preserved at equal timestamps.
    pub fn assemble(buffers: Vec<TraceBuffer>, domain: ClockDomain) -> Self {
        let mut dropped = vec![0u64; buffers.len()];
        let mut events = Vec::with_capacity(buffers.iter().map(|b| b.len()).sum());
        for buf in buffers {
            dropped[buf.rank as usize] = buf.dropped;
            events.extend(buf.events);
        }
        events.sort_by(|a, b| a.ts.total_cmp(&b.ts).then(a.rank.cmp(&b.rank)));
        Self {
            events,
            dropped,
            domain,
        }
    }

    /// The merged event stream, time-sorted.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Per-rank dropped-event counters (index = rank).
    pub fn dropped(&self) -> &[u64] {
        &self.dropped
    }

    /// Total events dropped across all ranks.
    pub fn dropped_total(&self) -> u64 {
        self.dropped.iter().sum()
    }

    /// The number of ranks the trace covers.
    pub fn n_ranks(&self) -> usize {
        self.dropped.len()
    }

    /// The clock domain timestamps live in.
    pub fn domain(&self) -> ClockDomain {
        self.domain
    }

    /// A stable, line-oriented text serialization.  Two traces are
    /// behaviorally identical iff their logs are byte-identical — the
    /// reproducibility tests compare sim-driver logs across thread counts
    /// and hosts.  (f64 timestamps print as shortest-roundtrip decimals, so
    /// equal bits ⇒ equal text.)
    pub fn to_log(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# domain={:?} ranks={} dropped={:?}",
            self.domain,
            self.dropped.len(),
            self.dropped
        );
        for e in &self.events {
            let _ = writeln!(out, "[{:?}] r{} {:?}", e.ts, e.rank, e.kind);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut buf = TraceBuffer::new(2, 3);
        for i in 0..5 {
            buf.push(i as f64, EventKind::RunInflight { run: i });
        }
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.dropped(), 2);
        let trace = Trace::assemble(
            vec![TraceBuffer::new(0, 4), TraceBuffer::new(1, 4), buf],
            ClockDomain::Virtual,
        );
        // The oldest two events (runs 0 and 1) are gone; the tail survives.
        let runs: Vec<u64> = trace
            .events()
            .iter()
            .map(|e| match e.kind {
                EventKind::RunInflight { run } => run,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(runs, vec![2, 3, 4]);
        assert_eq!(trace.dropped(), &[0, 0, 2]);
        assert_eq!(trace.dropped_total(), 2);
    }

    #[test]
    fn assemble_merges_time_sorted_with_rank_tiebreak() {
        let mut a = TraceBuffer::new(0, 8);
        let mut b = TraceBuffer::new(1, 8);
        a.push(2.0, EventKind::RankFinished);
        a.push(2.0, EventKind::RunInflight { run: 7 });
        b.push(1.0, EventKind::RankFinished);
        b.push(2.0, EventKind::RankFinished);
        let trace = Trace::assemble(vec![a, b], ClockDomain::Virtual);
        let order: Vec<(f64, u32)> = trace.events().iter().map(|e| (e.ts, e.rank)).collect();
        // ts first; at equal ts rank 0 precedes rank 1, and rank 0's own
        // insertion order is preserved.
        assert_eq!(order, vec![(1.0, 1), (2.0, 0), (2.0, 0), (2.0, 1)]);
        assert!(matches!(
            trace.events()[2].kind,
            EventKind::RunInflight { run: 7 }
        ));
    }

    #[test]
    fn log_round_trips_identical_traces_to_identical_bytes() {
        let build = || {
            let mut buf = TraceBuffer::new(0, 8);
            buf.push(0.125, EventKind::Compute { dur: 0.0625 });
            buf.push(
                0.25,
                EventKind::WireSend {
                    dst: 1,
                    tag: 3,
                    bytes: 4096,
                    draft: false,
                },
            );
            Trace::assemble(vec![buf], ClockDomain::Virtual)
        };
        assert_eq!(build().to_log(), build().to_log());
        assert!(build().to_log().contains("wire_send") || build().to_log().contains("WireSend"));
    }

    #[test]
    fn push_behind_matches_pushing_earlier() {
        let runs = |buf: TraceBuffer| {
            let dropped = buf.dropped();
            let trace = Trace::assemble(vec![buf], ClockDomain::Virtual);
            let runs: Vec<u64> = trace
                .events()
                .iter()
                .map(|e| match e.kind {
                    EventKind::RunInflight { run } => run,
                    _ => unreachable!(),
                })
                .collect();
            (runs, dropped)
        };
        // Run 9 goes in ahead of the newest `behind` of runs 0..5: in a ring
        // with room, in one that must drop, and behind more than it holds.
        for (cap, behind) in [(8, 2u64), (4, 2), (3, 5)] {
            let (mut late, mut early) = (TraceBuffer::new(0, cap), TraceBuffer::new(0, cap));
            for run in 0..5 {
                if run == 5 - behind {
                    early.push(0.0, EventKind::RunInflight { run: 9 });
                }
                early.push(0.0, EventKind::RunInflight { run });
                late.push(0.0, EventKind::RunInflight { run });
            }
            late.push_behind(behind as usize, 0.0, EventKind::RunInflight { run: 9 });
            assert_eq!(runs(late), runs(early), "cap {cap}, behind {behind}");
        }
    }

    #[test]
    fn capacity_floor_is_one() {
        let mut buf = TraceBuffer::new(0, 0);
        buf.push(0.0, EventKind::RankFinished);
        buf.push(1.0, EventKind::RankFinished);
        assert_eq!(buf.len(), 1);
        assert_eq!(buf.dropped(), 1);
    }
}
