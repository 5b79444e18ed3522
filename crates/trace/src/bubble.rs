//! Pipeline-bubble accounting.
//!
//! PipeInfer's central claim is that asynchronous pipelined speculation
//! shrinks *pipeline bubbles* — intervals where a rank has nothing useful to
//! do.  This module reconstructs, from a raw [`Trace`], a per-rank timeline
//! of [`Busy`](State::Busy) / [`Blocked`](State::Blocked) /
//! [`Idle`](State::Idle) intervals that **exactly tile** `[0, end]` for each
//! rank, and attributes every non-busy interval to a cause:
//!
//! * [`Cause::AwaitingDraft`] — a draft request was outstanding (the head is
//!   waiting for the speculative model; the synchronous-drafting bubble).
//! * [`Cause::AwaitingVerify`] — verification runs were in flight (the rank
//!   is waiting for the target pipeline to come back).
//! * [`Cause::CancelledWork`] — the rank skipped cancelled work during the
//!   interval (the bubble left behind by an invalidated speculation).
//! * [`Cause::SchedulingGap`] — none of the above: dead time between
//!   scheduled work.
//!
//! `Blocked` vs `Idle` is the driver's distinction: `Blocked` intervals come
//! from recorded [`EventKind::Blocked`] spans (the rank sat in a receive),
//! `Idle` is the remaining uncovered time.  Both count toward the
//! [bubble fraction](RankTimeline::bubble_fraction).

use crate::buffer::Trace;
use crate::event::{Event, EventKind};

/// Why a rank was not busy during an interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cause {
    /// A draft request was outstanding at the draft rank.
    AwaitingDraft,
    /// Speculative/non-speculative runs were in flight in the pipeline.
    AwaitingVerify,
    /// The rank skipped cancelled work in this interval.
    CancelledWork,
    /// Nothing was in flight: a scheduling gap.
    SchedulingGap,
}

impl Cause {
    /// Stable lowercase label.
    pub fn name(&self) -> &'static str {
        match self {
            Cause::AwaitingDraft => "awaiting_draft",
            Cause::AwaitingVerify => "awaiting_verify",
            Cause::CancelledWork => "cancelled_work",
            Cause::SchedulingGap => "scheduling_gap",
        }
    }
}

/// The classification of one timeline interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum State {
    /// The rank was computing (covered by a recorded compute span).
    Busy,
    /// The rank sat in a blocking receive.
    Blocked(Cause),
    /// No recorded activity at all.
    Idle(Cause),
}

/// One half-open interval `[t0, t1)` of a rank's timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    pub t0: f64,
    pub t1: f64,
    pub state: State,
}

impl Interval {
    /// Interval length in seconds.
    pub fn len(&self) -> f64 {
        self.t1 - self.t0
    }

    /// True when the interval is degenerate.
    pub fn is_empty(&self) -> bool {
        self.t1 <= self.t0
    }
}

/// One rank's reconstructed timeline: intervals tiling `[0, end]`.
#[derive(Debug, Clone)]
pub struct RankTimeline {
    pub rank: u32,
    /// The rank's last event timestamp — the timeline's right edge.
    pub end: f64,
    /// Contiguous intervals: `intervals[0].t0 == 0.0`,
    /// `intervals[i].t1 == intervals[i+1].t0`, last `t1 == end`.
    pub intervals: Vec<Interval>,
    /// Total busy seconds.
    pub busy: f64,
    /// Total blocked seconds.
    pub blocked: f64,
    /// Total idle seconds.
    pub idle: f64,
}

impl RankTimeline {
    /// The fraction of the rank's timeline spent not computing.
    pub fn bubble_fraction(&self) -> f64 {
        if self.end <= 0.0 {
            0.0
        } else {
            (self.blocked + self.idle) / self.end
        }
    }

    /// Seconds of non-busy time attributed to `cause`.
    pub fn cause_time(&self, cause: Cause) -> f64 {
        self.intervals
            .iter()
            .filter(|iv| matches!(iv.state, State::Blocked(c) | State::Idle(c) if c == cause))
            .map(Interval::len)
            .sum()
    }
}

/// Busy/blocked/idle accounting for every rank in a trace.
#[derive(Debug, Clone)]
pub struct BubbleReport {
    pub ranks: Vec<RankTimeline>,
}

/// Merges possibly-overlapping `(start, end)` spans into a disjoint,
/// ascending list.
fn merge_spans(mut spans: Vec<(f64, f64)>) -> Vec<(f64, f64)> {
    spans.retain(|&(a, b)| b > a);
    spans.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut merged: Vec<(f64, f64)> = Vec::with_capacity(spans.len());
    for (a, b) in spans {
        match merged.last_mut() {
            Some(last) if a <= last.1 => last.1 = last.1.max(b),
            _ => merged.push((a, b)),
        }
    }
    merged
}

/// True when `t` lies inside one of the disjoint ascending `spans`.
fn covers(spans: &[(f64, f64)], t: f64) -> bool {
    let idx = spans.partition_point(|&(a, _)| a <= t);
    idx > 0 && t < spans[idx - 1].1
}

/// Step function over time built from +1/-1 deltas: `at(t)` = number of
/// intervals open at `t`.
struct OpenCount {
    /// (ts, running count after applying all deltas at or before ts).
    steps: Vec<(f64, i64)>,
}

impl OpenCount {
    fn new(mut deltas: Vec<(f64, i64)>) -> Self {
        deltas.sort_by(|x, y| x.0.total_cmp(&y.0));
        let mut steps: Vec<(f64, i64)> = Vec::with_capacity(deltas.len());
        let mut acc = 0i64;
        for (ts, d) in deltas {
            acc += d;
            match steps.last_mut() {
                Some(last) if last.0 == ts => last.1 = acc,
                _ => steps.push((ts, acc)),
            }
        }
        Self { steps }
    }

    fn at(&self, t: f64) -> i64 {
        let idx = self.steps.partition_point(|&(ts, _)| ts <= t);
        if idx == 0 {
            0
        } else {
            self.steps[idx - 1].1
        }
    }
}

impl BubbleReport {
    /// Reconstructs per-rank timelines from a trace.
    pub fn analyze(trace: &Trace) -> Self {
        let events = trace.events();

        // Global context for cause attribution -------------------------------
        // Outstanding draft requests: DraftRequested opens, DraftResponded /
        // DraftCancelled (covers every id ≤ up_to) closes.
        let mut draft_deltas: Vec<(f64, i64)> = Vec::new();
        let mut open_drafts: Vec<u64> = Vec::new();
        // In-flight runs: RunInflight opens, RunVerified/RunInvalidated
        // closes.
        let mut run_deltas: Vec<(f64, i64)> = Vec::new();
        let mut open_runs: Vec<u64> = Vec::new();
        for e in events {
            match e.kind {
                EventKind::DraftRequested { request, .. } => {
                    open_drafts.push(request);
                    draft_deltas.push((e.ts, 1));
                }
                EventKind::DraftResponded { request, .. } => {
                    if let Some(i) = open_drafts.iter().position(|&r| r == request) {
                        open_drafts.swap_remove(i);
                        draft_deltas.push((e.ts, -1));
                    }
                }
                EventKind::DraftCancelled { up_to } => {
                    let before = open_drafts.len();
                    open_drafts.retain(|&r| r > up_to);
                    let closed = (before - open_drafts.len()) as i64;
                    if closed > 0 {
                        draft_deltas.push((e.ts, -closed));
                    }
                }
                EventKind::RunInflight { run } => {
                    open_runs.push(run);
                    run_deltas.push((e.ts, 1));
                }
                EventKind::RunVerified { run, .. } | EventKind::RunInvalidated { run } => {
                    if let Some(i) = open_runs.iter().position(|&r| r == run) {
                        open_runs.swap_remove(i);
                        run_deltas.push((e.ts, -1));
                    }
                }
                _ => {}
            }
        }
        let drafts_open = OpenCount::new(draft_deltas);
        let runs_open = OpenCount::new(run_deltas);

        // Per-rank timelines --------------------------------------------------
        let n_ranks = trace.n_ranks().max(
            events
                .iter()
                .map(|e| e.rank as usize + 1)
                .max()
                .unwrap_or(0),
        );
        let mut ranks = Vec::with_capacity(n_ranks);
        for rank in 0..n_ranks as u32 {
            let rank_events: Vec<&Event> = events.iter().filter(|e| e.rank == rank).collect();
            ranks.push(Self::analyze_rank(
                rank,
                &rank_events,
                &drafts_open,
                &runs_open,
            ));
        }
        Self { ranks }
    }

    fn analyze_rank(
        rank: u32,
        events: &[&Event],
        drafts_open: &OpenCount,
        runs_open: &OpenCount,
    ) -> RankTimeline {
        let end = events.iter().map(|e| e.ts).fold(0.0f64, f64::max);
        if end <= 0.0 {
            return RankTimeline {
                rank,
                end: 0.0,
                intervals: Vec::new(),
                busy: 0.0,
                blocked: 0.0,
                idle: 0.0,
            };
        }
        let clamp = |t: f64| t.clamp(0.0, end);
        let mut busy_spans = Vec::new();
        let mut blocked_spans = Vec::new();
        let mut skips: Vec<f64> = Vec::new();
        for e in events {
            match e.kind {
                EventKind::Compute { .. }
                | EventKind::StageForward { .. }
                | EventKind::DraftServe { .. } => {
                    busy_spans.push((clamp(e.start()), clamp(e.ts)));
                }
                EventKind::Blocked { .. } => {
                    blocked_spans.push((clamp(e.start()), clamp(e.ts)));
                }
                EventKind::RunSkipped { .. } => skips.push(e.ts),
                _ => {}
            }
        }
        let busy = merge_spans(busy_spans);
        let blocked = merge_spans(blocked_spans);

        // Elementary boundary sweep: every span edge plus the timeline's own
        // edges, classified by midpoint membership.  Busy wins over blocked;
        // uncovered time is idle.  Adjacent equal-state segments merge, so
        // the result tiles [0, end] exactly by construction.
        let mut bounds: Vec<f64> = vec![0.0, end];
        for &(a, b) in busy.iter().chain(blocked.iter()) {
            bounds.push(a);
            bounds.push(b);
        }
        bounds.sort_by(|x, y| x.total_cmp(y));
        bounds.dedup();

        let mut intervals: Vec<Interval> = Vec::new();
        for w in bounds.windows(2) {
            let (a, b) = (w[0], w[1]);
            if b <= a {
                continue;
            }
            let mid = a + (b - a) / 2.0;
            let state = if covers(&busy, mid) {
                State::Busy
            } else {
                let cause = if skips.iter().any(|&ts| ts >= a && ts <= b) {
                    Cause::CancelledWork
                } else if drafts_open.at(mid) > 0 {
                    Cause::AwaitingDraft
                } else if runs_open.at(mid) > 0 {
                    Cause::AwaitingVerify
                } else {
                    Cause::SchedulingGap
                };
                if covers(&blocked, mid) {
                    State::Blocked(cause)
                } else {
                    State::Idle(cause)
                }
            };
            match intervals.last_mut() {
                Some(last) if last.state == state && last.t1 == a => last.t1 = b,
                _ => intervals.push(Interval {
                    t0: a,
                    t1: b,
                    state,
                }),
            }
        }

        let mut sums = (0.0f64, 0.0f64, 0.0f64);
        for iv in &intervals {
            match iv.state {
                State::Busy => sums.0 += iv.len(),
                State::Blocked(_) => sums.1 += iv.len(),
                State::Idle(_) => sums.2 += iv.len(),
            }
        }
        RankTimeline {
            rank,
            end,
            intervals,
            busy: sums.0,
            blocked: sums.1,
            idle: sums.2,
        }
    }

    /// The timeline for `rank`, if the trace covers it.
    pub fn rank(&self, rank: u32) -> Option<&RankTimeline> {
        self.ranks.iter().find(|t| t.rank == rank)
    }

    /// Mean bubble fraction over every rank with a non-empty timeline.
    pub fn mean_bubble_fraction(&self) -> f64 {
        self.mean_bubble_fraction_of_iter(self.ranks.iter())
    }

    /// Mean bubble fraction over the chosen ranks (e.g. the target-pipeline
    /// ranks, excluding a dedicated draft rank whose idle time is by-design).
    pub fn mean_bubble_fraction_of(&self, ranks: &[u32]) -> f64 {
        self.mean_bubble_fraction_of_iter(self.ranks.iter().filter(|t| ranks.contains(&t.rank)))
    }

    fn mean_bubble_fraction_of_iter<'a>(
        &self,
        iter: impl Iterator<Item = &'a RankTimeline>,
    ) -> f64 {
        let (mut sum, mut n) = (0.0, 0usize);
        for t in iter.filter(|t| t.end > 0.0) {
            sum += t.bubble_fraction();
            n += 1;
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// A human-readable per-rank table with a cause breakdown.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<6} {:>9} {:>7} {:>8} {:>7} {:>8}  cause breakdown",
            "rank", "end(s)", "busy%", "blocked%", "idle%", "bubble%"
        );
        for t in &self.ranks {
            if t.end <= 0.0 {
                let _ = writeln!(out, "r{:<5} (no events)", t.rank);
                continue;
            }
            let pct = |x: f64| (100.0 * x / t.end).max(0.0);
            let causes = [
                Cause::AwaitingDraft,
                Cause::AwaitingVerify,
                Cause::CancelledWork,
                Cause::SchedulingGap,
            ];
            let breakdown = causes
                .iter()
                .map(|&c| format!("{}={:.1}%", c.name(), pct(t.cause_time(c))))
                .collect::<Vec<_>>()
                .join(" ");
            let _ = writeln!(
                out,
                "r{:<5} {:>9.4} {:>6.1}% {:>7.1}% {:>6.1}% {:>7.1}%  {}",
                t.rank,
                t.end,
                pct(t.busy),
                pct(t.blocked),
                pct(t.idle),
                100.0 * t.bubble_fraction(),
                breakdown
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{ClockDomain, TraceBuffer};

    fn trace(buffers: Vec<TraceBuffer>) -> Trace {
        Trace::assemble(buffers, ClockDomain::Virtual)
    }

    /// Asserts the timeline tiles `[0, end]` with no gaps or overlaps.
    fn assert_tiles(t: &RankTimeline) {
        if t.end <= 0.0 {
            return;
        }
        assert_eq!(t.intervals.first().unwrap().t0, 0.0);
        assert_eq!(t.intervals.last().unwrap().t1, t.end);
        for w in t.intervals.windows(2) {
            assert_eq!(w[0].t1, w[1].t0, "intervals must be contiguous");
            assert_ne!(w[0].state, w[1].state, "adjacent intervals are merged");
        }
        let total: f64 = t.intervals.iter().map(Interval::len).sum();
        assert!((total - t.end).abs() < 1e-9);
        assert!((t.busy + t.blocked + t.idle - t.end).abs() < 1e-9);
    }

    #[test]
    fn busy_blocked_idle_tile_the_timeline() {
        let mut buf = TraceBuffer::new(0, 64);
        buf.push(1.0, EventKind::Compute { dur: 1.0 }); // busy [0,1)
        buf.push(2.0, EventKind::Blocked { dur: 1.0 }); // blocked [1,2)
        buf.push(4.0, EventKind::Compute { dur: 1.0 }); // idle [2,3), busy [3,4)
        let report = BubbleReport::analyze(&trace(vec![buf]));
        let t = report.rank(0).unwrap();
        assert_eq!(t.end, 4.0);
        assert_tiles(t);
        assert_eq!(t.busy, 2.0);
        assert_eq!(t.blocked, 1.0);
        assert_eq!(t.idle, 1.0);
        assert_eq!(t.bubble_fraction(), 0.5);
        assert_eq!(t.intervals.len(), 4);
        assert_eq!(t.intervals[0].state, State::Busy);
        assert!(matches!(t.intervals[1].state, State::Blocked(_)));
        assert!(matches!(t.intervals[2].state, State::Idle(_)));
        assert_eq!(t.intervals[3].state, State::Busy);
    }

    #[test]
    fn busy_wins_overlaps_with_blocked() {
        let mut buf = TraceBuffer::new(0, 64);
        buf.push(4.0, EventKind::Blocked { dur: 4.0 }); // blocked [0,4)
        buf.push(3.0, EventKind::Compute { dur: 2.0 }); // busy [1,3) overlaps
        let report = BubbleReport::analyze(&trace(vec![buf]));
        let t = report.rank(0).unwrap();
        assert_tiles(t);
        assert_eq!(t.busy, 2.0);
        assert_eq!(t.blocked, 2.0);
        assert_eq!(t.idle, 0.0);
    }

    #[test]
    fn causes_are_attributed_from_global_context() {
        // Rank 0 (head): requests a draft at t=1, response lands t=3; then a
        // run is in flight from t=4 to t=6.  Rank 1 blocks throughout.
        let mut head = TraceBuffer::new(0, 64);
        head.push(1.0, EventKind::Compute { dur: 1.0 });
        head.push(
            1.0,
            EventKind::DraftRequested {
                request: 0,
                context_len: 4,
            },
        );
        head.push(
            3.0,
            EventKind::DraftResponded {
                request: 0,
                n_nodes: 3,
            },
        );
        head.push(4.0, EventKind::Compute { dur: 1.0 });
        head.push(4.0, EventKind::RunInflight { run: 0 });
        head.push(
            6.0,
            EventKind::RunVerified {
                run: 0,
                accepted: 2,
            },
        );
        head.push(7.0, EventKind::Compute { dur: 1.0 });
        head.push(8.0, EventKind::RankFinished);
        let report = BubbleReport::analyze(&trace(vec![head]));
        let t = report.rank(0).unwrap();
        assert_tiles(t);
        // [1,3): draft outstanding; [4,6) minus busy: run in flight; [6,?]
        // nothing in flight.
        assert!(t.cause_time(Cause::AwaitingDraft) >= 2.0 - 1e-9);
        assert!(t.cause_time(Cause::AwaitingVerify) >= 1.0 - 1e-9);
        assert!(t.cause_time(Cause::SchedulingGap) >= 1.0 - 1e-9);
    }

    #[test]
    fn skipped_work_marks_cancelled_bubbles() {
        let mut buf = TraceBuffer::new(1, 64);
        buf.push(1.0, EventKind::Compute { dur: 1.0 });
        buf.push(1.5, EventKind::RunSkipped { run: 9 });
        buf.push(2.0, EventKind::RankFinished);
        let report = BubbleReport::analyze(&trace(vec![TraceBuffer::new(0, 4), buf]));
        let t = report.rank(1).unwrap();
        assert_tiles(t);
        assert_eq!(t.cause_time(Cause::CancelledWork), 1.0);
    }

    #[test]
    fn mean_bubble_fraction_subsets_ranks() {
        let mut r0 = TraceBuffer::new(0, 8);
        r0.push(2.0, EventKind::Compute { dur: 2.0 }); // fully busy
        let mut r1 = TraceBuffer::new(1, 8);
        r1.push(1.0, EventKind::Compute { dur: 1.0 });
        r1.push(2.0, EventKind::RankFinished); // half idle
        let report = BubbleReport::analyze(&trace(vec![r0, r1]));
        assert_eq!(report.mean_bubble_fraction_of(&[0]), 0.0);
        assert_eq!(report.mean_bubble_fraction_of(&[1]), 0.5);
        assert_eq!(report.mean_bubble_fraction(), 0.25);
        let rendered = report.render();
        assert!(rendered.contains("bubble%"));
        assert!(rendered.contains("scheduling_gap"));
    }

    #[test]
    fn empty_rank_yields_empty_timeline() {
        let report = BubbleReport::analyze(&trace(vec![TraceBuffer::new(0, 4)]));
        let t = report.rank(0).unwrap();
        assert_eq!(t.end, 0.0);
        assert!(t.intervals.is_empty());
        assert_eq!(t.bubble_fraction(), 0.0);
    }
}
