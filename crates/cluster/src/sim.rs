//! Deterministic discrete-event cluster simulator.
//!
//! The simulator executes a set of [`NodeBehavior`] rank state machines
//! under a virtual clock:
//!
//! * compute time is charged explicitly by behaviors via
//!   [`NodeCtx::elapse`] (the amounts come from `pi-perf`'s roofline model),
//! * message transfer time is charged from the [`Topology`]'s per-link
//!   latency/bandwidth model, with each directed link serialising its
//!   messages (a later send cannot overtake an earlier one — the
//!   non-overtaking guarantee PipeInfer's transaction ordering relies on),
//! * an idle rank is offered [`NodeBehavior::on_idle`] work exactly when the
//!   real system would find its probe empty: whenever the rank's local clock
//!   is the globally smallest activation time and no delivered message is
//!   waiting.
//!
//! The event loop is conservative (it always advances the globally earliest
//! activation), so results are bit-for-bit reproducible across runs and
//! platforms.

use crate::fault::{FaultInjector, FaultPlan};
use crate::stats::ClusterStats;
use crate::topology::Topology;
use crate::{NodeBehavior, NodeCtx, Rank, SimTime, Tag, WireMessage};
use pi_trace::{ClockDomain, EventKind, FaultKind, Trace, TraceBuffer, TraceConfig};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Events after which a run is aborted as [`HaltReason::EventLimit`]: far
/// beyond any figure's run, so only a livelocked schedule reaches it.
const MAX_EVENTS: u64 = 50_000_000;

/// Why a simulated run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HaltReason {
    /// Every rank reported `is_finished()`.  Ranks killed by a fault
    /// schedule count as finished — the survivors completed without them.
    Finished,
    /// No rank could make progress: every unfinished rank was blocked with
    /// no message in flight.
    Deadlock,
    /// The run exceeded [`SimDriver::with_max_time`].
    TimeLimit,
    /// The run exceeded the driver's event limit (50 M events).
    EventLimit,
    /// A fault-schedule kill left the survivors stuck: at least one
    /// unfinished rank was waiting on a dead one when the run stalled.
    RankKilled,
}

/// Result of a simulated run.
pub struct SimOutcome<M: WireMessage> {
    /// The rank behaviors after the run (extract results by downcasting or
    /// through shared handles).
    pub behaviors: Vec<Box<dyn NodeBehavior<M>>>,
    /// Per-rank and cluster statistics; `stats.total_time` is the virtual
    /// makespan of the run.
    pub stats: ClusterStats,
    /// Why the run stopped; [`SimOutcome::completed`] folds it to a bool.
    pub halt: HaltReason,
    /// Structured event trace, present iff recording was requested via
    /// [`SimDriver::with_trace`] (and the `trace` feature is on).  Timestamps
    /// are virtual [`ClockDomain::Virtual`] seconds, so the trace — like the
    /// simulation itself — is bit-for-bit reproducible.
    pub trace: Option<Trace>,
}

impl<M: WireMessage> SimOutcome<M> {
    /// `true` iff the run finished cleanly ([`HaltReason::Finished`]).
    pub fn completed(&self) -> bool {
        self.halt == HaltReason::Finished
    }
}

/// Discrete-event simulation driver.
pub struct SimDriver {
    topology: Topology,
    max_time: SimTime,
    trace: Option<TraceConfig>,
    faults: Option<FaultPlan>,
}

struct Pending<M> {
    arrival: SimTime,
    seq: u64,
    src: Rank,
    tag: Tag,
    msg: M,
}

impl<M> PartialEq for Pending<M> {
    fn eq(&self, other: &Self) -> bool {
        self.arrival == other.arrival && self.seq == other.seq
    }
}
impl<M> Eq for Pending<M> {}
impl<M> PartialOrd for Pending<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Pending<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert to get earliest-first.
        other
            .arrival
            .partial_cmp(&self.arrival)
            .unwrap_or(Ordering::Equal)
            .then(other.seq.cmp(&self.seq))
    }
}

/// The `NodeCtx` the simulator hands to behaviors: it records sends and
/// elapsed compute so the driver can apply them after the callback returns.
struct SimCtx<M> {
    rank: Rank,
    world: usize,
    now: SimTime,
    elapsed: SimTime,
    saved: u64,
    draft_timeouts: u64,
    draft_retries: u64,
    failovers: u64,
    kv_pages_allocated: u64,
    kv_page_share_hits: u64,
    kv_page_cows: u64,
    kv_page_evictions: u64,
    cohort_steps: u64,
    cohort_width_sum: u64,
    batched_rows: u64,
    /// Earliest wake-up the behavior requested during this callback.  Wake
    /// requests last until the rank's next activation, then must be
    /// re-armed; the driver honors them only while a fault schedule is
    /// attached (fault-free schedules stay pinned).
    wake: Option<SimTime>,
    outgoing: Vec<(Rank, Tag, M, SimTime)>,
    /// Recording is purely passive — events are buffered here and drained
    /// into the per-rank [`TraceBuffer`] after the callback returns, so a
    /// traced run takes the exact same schedule as an untraced one.
    trace_on: bool,
    events: Vec<(SimTime, EventKind)>,
}

impl<M> SimCtx<M> {
    fn new(rank: Rank, world: usize, now: SimTime, trace_on: bool) -> Self {
        Self {
            rank,
            world,
            now,
            elapsed: 0.0,
            saved: 0,
            draft_timeouts: 0,
            draft_retries: 0,
            failovers: 0,
            kv_pages_allocated: 0,
            kv_page_share_hits: 0,
            kv_page_cows: 0,
            kv_page_evictions: 0,
            cohort_steps: 0,
            cohort_width_sum: 0,
            batched_rows: 0,
            wake: None,
            outgoing: Vec::new(),
            trace_on,
            events: Vec::new(),
        }
    }
}

impl<M: WireMessage> NodeCtx<M> for SimCtx<M> {
    fn rank(&self) -> Rank {
        self.rank
    }
    fn world_size(&self) -> usize {
        self.world
    }
    fn now(&self) -> SimTime {
        self.now
    }
    fn send(&mut self, dst: Rank, tag: Tag, msg: M) {
        if self.trace_on {
            self.events.push((
                self.now,
                EventKind::WireSend {
                    dst: dst as u32,
                    tag,
                    bytes: msg.wire_bytes(),
                    draft: msg.is_draft(),
                },
            ));
        }
        self.outgoing.push((dst, tag, msg, self.now));
    }
    fn elapse(&mut self, seconds: SimTime) {
        let s = seconds.max(0.0);
        self.now += s;
        self.elapsed += s;
        // Span-end convention: the Compute span is stamped at its end.
        if self.trace_on && s > 0.0 {
            self.events.push((self.now, EventKind::Compute { dur: s }));
        }
    }
    fn record_cancellation_saved(&mut self, n: u64) {
        self.saved += n;
    }
    fn record_draft_timeout(&mut self) {
        self.draft_timeouts += 1;
    }
    fn record_draft_retry(&mut self) {
        self.draft_retries += 1;
    }
    fn record_failover(&mut self) {
        self.failovers += 1;
    }
    fn record_kv_pages(&mut self, allocated: u64, share_hits: u64, cows: u64, evictions: u64) {
        self.kv_pages_allocated += allocated;
        self.kv_page_share_hits += share_hits;
        self.kv_page_cows += cows;
        self.kv_page_evictions += evictions;
    }
    fn record_cohort_step(&mut self, width: u64, rows: u64) {
        self.cohort_steps += 1;
        self.cohort_width_sum += width;
        self.batched_rows += rows;
    }
    fn request_wake(&mut self, at: SimTime) {
        self.wake = Some(match self.wake {
            Some(w) => w.min(at),
            None => at,
        });
    }
    fn trace_enabled(&self) -> bool {
        cfg!(feature = "trace") && self.trace_on
    }
    fn trace(&mut self, kind: EventKind) {
        if self.trace_on {
            self.events.push((self.now, kind));
        }
    }
}

enum ActivationKind {
    Deliver,
    Idle,
}

impl SimDriver {
    /// Creates a driver over the given topology with generous default limits
    /// (10⁶ simulated seconds, 50 M events).
    pub fn new(topology: Topology) -> Self {
        Self {
            topology,
            max_time: 1e6,
            trace: None,
            faults: None,
        }
    }

    /// Sets the maximum virtual time before the run is aborted.
    pub fn with_max_time(mut self, max_time: SimTime) -> Self {
        self.max_time = max_time;
        self
    }

    /// Attaches a structured event recorder; the run's [`SimOutcome::trace`]
    /// carries the assembled [`Trace`] stamped with virtual time.  Recording
    /// never perturbs the simulated schedule.
    pub fn with_trace(mut self, config: TraceConfig) -> Self {
        self.trace = Some(config);
        self
    }

    /// Attaches a seeded chaos schedule ([`FaultPlan`]) to the run.  The
    /// schedule perturbs the simulation deterministically: the same plan
    /// over the same behaviors replays bit-identically, trace included.
    /// An empty plan is ignored, leaving the fault-free schedule untouched.
    ///
    /// While a plan is attached the driver also honors
    /// [`NodeCtx::request_wake`], so behaviors can arm deadlines (e.g. a
    /// draft-request timeout) that fire even when no message ever arrives.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Runs the behaviors to completion (or until a limit is hit).
    ///
    /// `behaviors[r]` is rank `r`; the topology must have at least that many
    /// ranks.
    pub fn run<M: WireMessage>(
        &self,
        mut behaviors: Vec<Box<dyn NodeBehavior<M>>>,
    ) -> SimOutcome<M> {
        let n = behaviors.len();
        assert!(
            self.topology.n_ranks() >= n,
            "topology has {} ranks but {} behaviors were provided",
            self.topology.n_ranks(),
            n
        );
        let mut stats = ClusterStats::new(n);
        let mut local_time = vec![0.0f64; n];
        let mut blocked = vec![false; n];
        let mut finished = vec![false; n];
        let mut pending: Vec<BinaryHeap<Pending<M>>> = (0..n).map(|_| BinaryHeap::new()).collect();
        let mut priority_pending: Vec<BinaryHeap<Pending<M>>> =
            (0..n).map(|_| BinaryHeap::new()).collect();
        let mut link_free = vec![vec![0.0f64; n]; n];
        // Latest scheduled in-order arrival per link: delay faults stretch a
        // message's flight time but must not let later traffic overtake it
        // (per-link FIFO holds unless a reorder fault explicitly lifts it).
        let mut link_fifo = vec![vec![0.0f64; n]; n];
        let mut seq = 0u64;
        let mut events = 0u64;

        // Fault schedule (chaos testing).  `None` keeps every fault-free
        // code path — including wake handling — exactly as it always was.
        let mut injector: Option<FaultInjector> = self
            .faults
            .as_ref()
            .filter(|p| !p.is_empty())
            .map(|p| FaultInjector::new(p.clone(), n));
        let faults_armed = injector.is_some();
        let mut killed = vec![false; n];
        let mut wake: Vec<Option<SimTime>> = vec![None; n];

        let trace_config = if cfg!(feature = "trace") {
            self.trace
        } else {
            None
        };
        let mut bufs: Option<Vec<TraceBuffer>> = trace_config.map(|c| {
            (0..n)
                .map(|r| TraceBuffer::new(r as u32, c.capacity_per_rank))
                .collect()
        });
        let trace_on = bufs.is_some();
        // Start of the wait being tracked for each rank's `Blocked` span
        // (tracing only; never consulted by the scheduler).
        let mut block_start: Vec<Option<SimTime>> = vec![None; n];

        // on_start at t = 0 for every rank.
        for r in 0..n {
            let mut ctx = SimCtx::new(r, n, 0.0, trace_on);
            behaviors[r].on_start(&mut ctx);
            local_time[r] = ctx.now;
            stats.nodes[r].busy_time += ctx.elapsed;
            stats.nodes[r].cancellations_saved += ctx.saved;
            stats.nodes[r].draft_timeouts += ctx.draft_timeouts;
            stats.nodes[r].draft_retries += ctx.draft_retries;
            stats.nodes[r].failovers += ctx.failovers;
            stats.nodes[r].kv_pages_allocated += ctx.kv_pages_allocated;
            stats.nodes[r].kv_page_share_hits += ctx.kv_page_share_hits;
            stats.nodes[r].kv_page_cows += ctx.kv_page_cows;
            stats.nodes[r].kv_page_evictions += ctx.kv_page_evictions;
            stats.nodes[r].cohort_steps += ctx.cohort_steps;
            stats.nodes[r].cohort_width_sum += ctx.cohort_width_sum;
            stats.nodes[r].batched_rows += ctx.batched_rows;
            if faults_armed {
                wake[r] = ctx.wake;
            }
            if let Some(bufs) = bufs.as_mut() {
                for (ts, kind) in ctx.events.drain(..) {
                    bufs[r].push(ts, kind);
                }
            }
            Self::dispatch(
                &self.topology,
                &mut stats,
                &mut pending,
                &mut priority_pending,
                &mut link_free,
                &mut link_fifo,
                &mut blocked,
                &mut seq,
                r,
                ctx.outgoing,
                &mut injector,
                &mut bufs,
            );
            finished[r] = behaviors[r].is_finished();
            if finished[r] {
                if let Some(bufs) = bufs.as_mut() {
                    bufs[r].push(local_time[r], EventKind::RankFinished);
                }
            }
        }

        let halt = loop {
            if (0..n).all(|r| finished[r] || killed[r]) {
                break HaltReason::Finished;
            }
            if events >= MAX_EVENTS {
                break HaltReason::EventLimit;
            }
            // Choose the rank with the earliest activation.
            let mut best: Option<(SimTime, Rank, ActivationKind)> = None;
            for r in 0..n {
                if finished[r] || killed[r] {
                    continue;
                }
                let earliest_arrival = match (pending[r].peek(), priority_pending[r].peek()) {
                    (Some(a), Some(b)) => Some(a.arrival.min(b.arrival)),
                    (Some(a), None) => Some(a.arrival),
                    (None, Some(b)) => Some(b.arrival),
                    (None, None) => None,
                };
                let candidate = if !blocked[r] {
                    let kind = if earliest_arrival
                        .map(|a| a <= local_time[r])
                        .unwrap_or(false)
                    {
                        ActivationKind::Deliver
                    } else {
                        ActivationKind::Idle
                    };
                    Some((local_time[r], r, kind))
                } else {
                    // A blocked rank normally waits for its next arrival;
                    // with faults armed, an armed wake-up (deadline) can
                    // also rouse it for an idle poll.
                    let deliver =
                        earliest_arrival.map(|a| (local_time[r].max(a), ActivationKind::Deliver));
                    let woken = if faults_armed {
                        wake[r].map(|w| (local_time[r].max(w), ActivationKind::Idle))
                    } else {
                        None
                    };
                    match (deliver, woken) {
                        (Some((td, kd)), Some((tw, kw))) => {
                            Some(if tw < td { (tw, r, kw) } else { (td, r, kd) })
                        }
                        (Some((td, kd)), None) => Some((td, r, kd)),
                        (None, Some((tw, kw))) => Some((tw, r, kw)),
                        (None, None) => None,
                    }
                };
                if let Some((t, r2, k)) = candidate {
                    let better = match &best {
                        None => true,
                        Some((bt, br, _)) => t < *bt || (t == *bt && r2 < *br),
                    };
                    if better {
                        best = Some((t, r2, k));
                    }
                }
            }
            let Some((t, r, kind)) = best else {
                // No rank can make progress with unfinished ranks left: a
                // deadlock, or the aftermath of a fault-schedule kill.
                break if killed.iter().any(|&k| k) {
                    HaltReason::RankKilled
                } else {
                    HaltReason::Deadlock
                };
            };
            if t > self.max_time {
                break HaltReason::TimeLimit;
            }
            if let Some(inj) = injector.as_mut() {
                // Kills due at or before this activation fire first, then
                // the schedule is re-examined without the dead ranks.
                let newly = inj.due_kills(t);
                if !newly.is_empty() {
                    for k in newly {
                        killed[k] = true;
                        pending[k].clear();
                        priority_pending[k].clear();
                        wake[k] = None;
                        block_start[k] = None;
                        stats.nodes[k].faults_injected += 1;
                        if let Some(bufs) = bufs.as_mut() {
                            bufs[k].push(t, EventKind::RankKilled);
                        }
                    }
                    continue;
                }
                // A paused (straggler) rank defers its activation to the
                // end of the pause window.
                if let Some((deferred, first)) = inj.pause_deferral(r, t) {
                    if first {
                        stats.nodes[r].faults_injected += 1;
                        if let Some(bufs) = bufs.as_mut() {
                            bufs[r].push(
                                t,
                                EventKind::FaultInjected {
                                    fault: FaultKind::Pause,
                                    peer: r as u32,
                                },
                            );
                        }
                    }
                    local_time[r] = local_time[r].max(deferred);
                    continue;
                }
            }
            events += 1;
            local_time[r] = t;
            wake[r] = None;
            let mut ctx = SimCtx::new(r, n, t, trace_on);
            match kind {
                ActivationKind::Deliver => {
                    // Out-of-band control messages (e.g. cancellation
                    // signals) that have already arrived are checked first,
                    // ahead of the ordinary FIFO traffic.
                    let p = match priority_pending[r].peek() {
                        Some(pp) if pp.arrival <= t => priority_pending[r]
                            .pop()
                            .expect("peeked priority message must pop"),
                        _ => match pending[r].peek() {
                            Some(np) if np.arrival <= t => {
                                pending[r].pop().expect("peeked message must pop")
                            }
                            _ => priority_pending[r]
                                .pop()
                                .or_else(|| pending[r].pop())
                                .expect("deliver requires a pending message"),
                        },
                    };
                    if let Some(bufs) = bufs.as_mut() {
                        if let Some(bs) = block_start[r].take() {
                            if t > bs {
                                bufs[r].push(t, EventKind::Blocked { dur: t - bs });
                            }
                        }
                        bufs[r].push(
                            t,
                            EventKind::WireRecv {
                                src: p.src as u32,
                                tag: p.tag,
                                bytes: p.msg.wire_bytes(),
                            },
                        );
                    }
                    stats.nodes[r].messages_received += 1;
                    behaviors[r].on_message(p.src, p.tag, p.msg, &mut ctx);
                    blocked[r] = false;
                }
                ActivationKind::Idle => {
                    let worked = behaviors[r].on_idle(&mut ctx);
                    if worked {
                        stats.nodes[r].idle_work += 1;
                        // A blocked rank roused by a wake-up resumes; close
                        // the Blocked span its wait opened.
                        blocked[r] = false;
                        if let Some(bs) = block_start[r].take() {
                            if let Some(bufs) = bufs.as_mut() {
                                if t > bs {
                                    bufs[r].push(t, EventKind::Blocked { dur: t - bs });
                                }
                            }
                        }
                    } else {
                        blocked[r] = true;
                        if trace_on && block_start[r].is_none() {
                            block_start[r] = Some(ctx.now);
                        }
                    }
                }
            }
            local_time[r] = ctx.now;
            stats.nodes[r].busy_time += ctx.elapsed;
            stats.nodes[r].cancellations_saved += ctx.saved;
            stats.nodes[r].draft_timeouts += ctx.draft_timeouts;
            stats.nodes[r].draft_retries += ctx.draft_retries;
            stats.nodes[r].failovers += ctx.failovers;
            stats.nodes[r].kv_pages_allocated += ctx.kv_pages_allocated;
            stats.nodes[r].kv_page_share_hits += ctx.kv_page_share_hits;
            stats.nodes[r].kv_page_cows += ctx.kv_page_cows;
            stats.nodes[r].kv_page_evictions += ctx.kv_page_evictions;
            stats.nodes[r].cohort_steps += ctx.cohort_steps;
            stats.nodes[r].cohort_width_sum += ctx.cohort_width_sum;
            stats.nodes[r].batched_rows += ctx.batched_rows;
            if faults_armed {
                wake[r] = ctx.wake;
            }
            if let Some(bufs) = bufs.as_mut() {
                for (ts, kind) in ctx.events.drain(..) {
                    bufs[r].push(ts, kind);
                }
            }
            Self::dispatch(
                &self.topology,
                &mut stats,
                &mut pending,
                &mut priority_pending,
                &mut link_free,
                &mut link_fifo,
                &mut blocked,
                &mut seq,
                r,
                ctx.outgoing,
                &mut injector,
                &mut bufs,
            );
            if behaviors[r].is_finished() {
                finished[r] = true;
                pending[r].clear();
                priority_pending[r].clear();
                if let Some(bufs) = bufs.as_mut() {
                    // A rank that finishes straight out of a fruitless
                    // on_idle would otherwise leave a zero-length block open.
                    block_start[r] = None;
                    bufs[r].push(local_time[r], EventKind::RankFinished);
                }
            }
        };

        stats.total_time = local_time.iter().copied().fold(0.0, f64::max);
        if let Some(bufs) = bufs.as_mut() {
            // Close any wait still open at the end of an aborted run so the
            // per-rank timeline remains fully tiled.
            let end = stats.total_time;
            for r in 0..n {
                if let Some(bs) = block_start[r].take() {
                    if end > bs {
                        bufs[r].push(end, EventKind::Blocked { dur: end - bs });
                    }
                }
            }
        }
        let trace = bufs.map(|b| Trace::assemble(b, ClockDomain::Virtual));
        SimOutcome {
            behaviors,
            stats,
            halt,
            trace,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn dispatch<M: WireMessage>(
        topology: &Topology,
        stats: &mut ClusterStats,
        pending: &mut [BinaryHeap<Pending<M>>],
        priority_pending: &mut [BinaryHeap<Pending<M>>],
        link_free: &mut [Vec<SimTime>],
        link_fifo: &mut [Vec<SimTime>],
        blocked: &mut [bool],
        seq: &mut u64,
        src: Rank,
        outgoing: Vec<(Rank, Tag, M, SimTime)>,
        injector: &mut Option<FaultInjector>,
        bufs: &mut Option<Vec<TraceBuffer>>,
    ) {
        for (dst, tag, msg, send_time) in outgoing {
            if dst >= pending.len() {
                continue;
            }
            let link = topology.link(src, dst);
            let bytes = msg.wire_bytes();
            let priority = msg.priority();
            // Priority (out-of-band) messages do not contend for the link's
            // serialised transfer slot — they are tiny control signals.
            let start = if priority {
                send_time
            } else {
                send_time.max(link_free[src][dst])
            };
            let transfer = bytes as f64 / link.bandwidth_bps;
            let arrival = start + link.latency_s + transfer;
            if !priority {
                // The slot is consumed whether or not a fault later drops
                // the message: a dropped message still occupied the wire.
                link_free[src][dst] = start + transfer;
            }
            stats.nodes[src].messages_sent += 1;
            stats.nodes[src].bytes_sent += bytes;
            if msg.is_draft() {
                stats.nodes[src].draft_messages_sent += 1;
                stats.nodes[src].draft_bytes_sent += bytes;
            }
            match injector.as_mut() {
                None => {
                    // Fault-free fast path: one copy, no clone.
                    *seq += 1;
                    let entry = Pending {
                        arrival,
                        seq: *seq,
                        src,
                        tag,
                        msg,
                    };
                    if priority {
                        priority_pending[dst].push(entry);
                    } else {
                        pending[dst].push(entry);
                    }
                    blocked[dst] = false;
                }
                Some(inj) => {
                    let fate = inj.on_send(src, dst, send_time);
                    if !fate.faults.is_empty() {
                        stats.nodes[src].faults_injected += fate.faults.len() as u64;
                        if let Some(bufs) = bufs.as_mut() {
                            for kind in &fate.faults {
                                bufs[src].push(send_time, *kind);
                            }
                        }
                    }
                    for (extra, overtakes) in fate.copies {
                        // An overtaking (reordered) copy skips the link's
                        // serialisation queue, exactly like priority traffic.
                        // Every other copy stays FIFO on its link even when a
                        // delay fault stretches its flight time: later sends
                        // are clamped behind the latest in-order arrival.
                        let arrival = if overtakes {
                            send_time + link.latency_s + transfer + extra
                        } else if priority {
                            arrival + extra
                        } else {
                            let a = (arrival + extra).max(link_fifo[src][dst]);
                            link_fifo[src][dst] = a;
                            a
                        };
                        *seq += 1;
                        let entry = Pending {
                            arrival,
                            seq: *seq,
                            src,
                            tag,
                            msg: msg.clone(),
                        };
                        if priority {
                            priority_pending[dst].push(entry);
                        } else {
                            pending[dst].push(entry);
                        }
                        blocked[dst] = false;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::LinkSpec;
    use std::any::Any;

    /// Test message: a counter plus a payload size used for wire accounting.
    #[derive(Debug, Clone)]
    struct Msg {
        hops: u32,
        bytes: u64,
    }
    impl WireMessage for Msg {
        fn wire_bytes(&self) -> u64 {
            self.bytes
        }
    }

    /// Relay rank: forwards each message to the next rank after charging
    /// `compute` seconds; the last rank sends back to rank 0.  Rank 0 counts
    /// round trips and finishes after `rounds`.
    struct Relay {
        rank: Rank,
        n: usize,
        compute: f64,
        rounds_left: u32,
        finished: bool,
        completion_times: Vec<SimTime>,
    }

    impl NodeBehavior<Msg> for Relay {
        fn on_start(&mut self, ctx: &mut dyn NodeCtx<Msg>) {
            if self.rank == 0 {
                ctx.send(
                    1,
                    0,
                    Msg {
                        hops: 0,
                        bytes: 1000,
                    },
                );
            }
        }
        fn on_message(&mut self, _src: Rank, _tag: Tag, msg: Msg, ctx: &mut dyn NodeCtx<Msg>) {
            if msg.hops == u32::MAX {
                self.finished = true;
                return;
            }
            ctx.elapse(self.compute);
            if self.rank == 0 {
                self.completion_times.push(ctx.now());
                self.rounds_left -= 1;
                if self.rounds_left == 0 {
                    self.finished = true;
                    // Tell everyone else to finish.
                    for r in 1..self.n {
                        ctx.send(
                            r,
                            99,
                            Msg {
                                hops: u32::MAX,
                                bytes: 8,
                            },
                        );
                    }
                } else {
                    ctx.send(
                        1,
                        0,
                        Msg {
                            hops: 0,
                            bytes: 1000,
                        },
                    );
                }
            } else {
                let next = (self.rank + 1) % self.n;
                ctx.send(
                    next,
                    0,
                    Msg {
                        hops: msg.hops + 1,
                        bytes: msg.bytes,
                    },
                );
            }
        }
        fn is_finished(&self) -> bool {
            self.finished
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    fn relay_ring(n: usize, compute: f64, rounds: u32) -> Vec<Box<dyn NodeBehavior<Msg>>> {
        (0..n)
            .map(|r| {
                Box::new(Relay {
                    rank: r,
                    n,
                    compute,
                    rounds_left: rounds,
                    finished: false,
                    completion_times: Vec::new(),
                }) as Box<dyn NodeBehavior<Msg>>
            })
            .collect()
    }

    #[test]
    fn ring_completes_and_time_accumulates() {
        let topo = Topology::uniform(4, LinkSpec::new(1e-3, 1e6));
        let driver = SimDriver::new(topo);
        let out = driver.run(relay_ring(4, 0.01, 3));
        assert!(out.completed());
        // Each round: 4 hops × (1 ms latency + 1 ms transfer of 1000 B) + 4 × 10 ms compute
        // ≈ 48 ms; 3 rounds ≈ 144 ms.
        let expected_round = 4.0 * (0.001 + 0.001) + 4.0 * 0.01;
        assert!(
            (out.stats.total_time - 3.0 * expected_round).abs() < 0.01,
            "total_time = {}",
            out.stats.total_time
        );
    }

    #[test]
    fn determinism_across_runs() {
        let topo = Topology::uniform(5, LinkSpec::gigabit_ethernet());
        let t1 = SimDriver::new(topo.clone()).run(relay_ring(5, 0.002, 10));
        let t2 = SimDriver::new(topo).run(relay_ring(5, 0.002, 10));
        assert_eq!(t1.stats.total_time, t2.stats.total_time);
        assert_eq!(t1.stats.total_messages(), t2.stats.total_messages());
    }

    #[test]
    fn faster_interconnect_reduces_makespan() {
        let slow = SimDriver::new(Topology::uniform(4, LinkSpec::gigabit_ethernet()))
            .run(relay_ring(4, 0.0, 20));
        let fast = SimDriver::new(Topology::uniform(4, LinkSpec::infiniband_edr()))
            .run(relay_ring(4, 0.0, 20));
        assert!(slow.stats.total_time > 10.0 * fast.stats.total_time);
    }

    #[test]
    fn compute_dominated_is_insensitive_to_interconnect() {
        let slow = SimDriver::new(Topology::uniform(4, LinkSpec::gigabit_ethernet()))
            .run(relay_ring(4, 0.5, 2));
        let fast = SimDriver::new(Topology::uniform(4, LinkSpec::infiniband_edr()))
            .run(relay_ring(4, 0.5, 2));
        let ratio = slow.stats.total_time / fast.stats.total_time;
        assert!(ratio < 1.01, "ratio {ratio}");
    }

    #[test]
    fn stats_track_messages_and_bytes() {
        let topo = Topology::uniform(3, LinkSpec::infiniband_edr());
        let out = SimDriver::new(topo).run(relay_ring(3, 0.001, 2));
        assert!(out.completed());
        // Rank 0 sends 2 round-starting messages + 2 shutdown messages.
        assert_eq!(out.stats.node(0).messages_sent, 4);
        assert!(out.stats.node(0).bytes_sent >= 2 * 1000);
        assert!(out.stats.node(1).messages_received >= 2);
    }

    #[test]
    fn busy_time_equals_charged_compute() {
        let topo = Topology::uniform(2, LinkSpec::infiniband_edr());
        let out = SimDriver::new(topo).run(relay_ring(2, 0.25, 2));
        // Rank 1 relays 2 messages, charging 0.25 s each.
        assert!((out.stats.node(1).busy_time - 0.5).abs() < 1e-9);
    }

    #[test]
    fn max_time_aborts_incomplete_runs() {
        let topo = Topology::uniform(4, LinkSpec::new(0.5, 1e3));
        let out = SimDriver::new(topo)
            .with_max_time(0.1)
            .run(relay_ring(4, 0.0, 100));
        assert!(!out.completed());
        assert_eq!(out.halt, HaltReason::TimeLimit);
    }

    /// A rank that performs idle work a fixed number of times.
    struct IdleWorker {
        remaining: u32,
        finished: bool,
    }
    impl NodeBehavior<Msg> for IdleWorker {
        fn on_message(&mut self, _: Rank, _: Tag, _: Msg, _: &mut dyn NodeCtx<Msg>) {}
        fn on_idle(&mut self, ctx: &mut dyn NodeCtx<Msg>) -> bool {
            if self.remaining == 0 {
                self.finished = true;
                return false;
            }
            self.remaining -= 1;
            ctx.elapse(0.01);
            true
        }
        fn is_finished(&self) -> bool {
            self.finished
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    #[test]
    fn idle_work_advances_virtual_time() {
        let topo = Topology::uniform(1, LinkSpec::loopback());
        let out = SimDriver::new(topo).run(vec![Box::new(IdleWorker {
            remaining: 7,
            finished: false,
        }) as Box<dyn NodeBehavior<Msg>>]);
        assert!(out.completed());
        assert!((out.stats.total_time - 0.07).abs() < 1e-9);
        assert_eq!(out.stats.node(0).idle_work, 7);
    }

    #[test]
    fn deadlock_is_detected_as_incomplete() {
        // A single rank that never finishes and never has work.
        struct Stuck;
        impl NodeBehavior<Msg> for Stuck {
            fn on_message(&mut self, _: Rank, _: Tag, _: Msg, _: &mut dyn NodeCtx<Msg>) {}
            fn is_finished(&self) -> bool {
                false
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
        }
        let out = SimDriver::new(Topology::uniform(1, LinkSpec::loopback()))
            .run(vec![Box::new(Stuck) as Box<dyn NodeBehavior<Msg>>]);
        assert!(!out.completed());
        assert_eq!(out.halt, HaltReason::Deadlock);
    }

    #[test]
    fn link_serialisation_preserves_order() {
        // Rank 0 sends a large message then a tiny one to rank 1; the tiny
        // one must not overtake the large one.
        struct Sender {
            done: bool,
        }
        struct Receiver {
            order: Vec<u32>,
            finished: bool,
        }
        impl NodeBehavior<Msg> for Sender {
            fn on_start(&mut self, ctx: &mut dyn NodeCtx<Msg>) {
                ctx.send(
                    1,
                    0,
                    Msg {
                        hops: 1,
                        bytes: 10_000_000,
                    },
                );
                ctx.send(1, 0, Msg { hops: 2, bytes: 1 });
                self.done = true;
            }
            fn on_message(&mut self, _: Rank, _: Tag, _: Msg, _: &mut dyn NodeCtx<Msg>) {}
            fn is_finished(&self) -> bool {
                self.done
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
        }
        impl NodeBehavior<Msg> for Receiver {
            fn on_message(&mut self, _: Rank, _: Tag, msg: Msg, _: &mut dyn NodeCtx<Msg>) {
                self.order.push(msg.hops);
                if self.order.len() == 2 {
                    self.finished = true;
                }
            }
            fn is_finished(&self) -> bool {
                self.finished
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
        }
        let out = SimDriver::new(Topology::uniform(2, LinkSpec::gigabit_ethernet())).run(vec![
            Box::new(Sender { done: false }) as Box<dyn NodeBehavior<Msg>>,
            Box::new(Receiver {
                order: Vec::new(),
                finished: false,
            }) as Box<dyn NodeBehavior<Msg>>,
        ]);
        assert!(out.completed());
        let recv = out.behaviors[1]
            .as_any()
            .downcast_ref::<Receiver>()
            .unwrap();
        assert_eq!(recv.order, vec![1, 2]);
    }

    #[test]
    fn untraced_runs_carry_no_trace() {
        let topo = Topology::uniform(3, LinkSpec::infiniband_edr());
        let out = SimDriver::new(topo).run(relay_ring(3, 0.001, 2));
        assert!(out.trace.is_none());
    }

    #[test]
    #[cfg_attr(not(feature = "trace"), ignore)]
    fn traced_run_records_wire_and_compute_events() {
        let topo = Topology::uniform(4, LinkSpec::new(1e-3, 1e6));
        let out = SimDriver::new(topo)
            .with_trace(TraceConfig::default())
            .run(relay_ring(4, 0.01, 3));
        assert!(out.completed());
        let trace = out.trace.expect("trace requested");
        assert_eq!(trace.n_ranks(), 4);
        assert_eq!(trace.domain(), ClockDomain::Virtual);
        assert_eq!(trace.dropped_total(), 0);
        let sends = trace
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::WireSend { .. }))
            .count();
        let recvs = trace
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::WireRecv { .. }))
            .count();
        // Every simulated message is recorded once at each end.
        assert_eq!(sends as u64, out.stats.total_messages());
        assert_eq!(recvs as u64, out.stats.total_messages());
        // Compute spans sum to the charged busy time.
        let compute: f64 = trace
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Compute { dur } => Some(dur),
                _ => None,
            })
            .sum();
        let busy: f64 = (0..4).map(|r| out.stats.node(r).busy_time).sum();
        assert!((compute - busy).abs() < 1e-9, "{compute} vs {busy}");
        // Ranks 1..3 wait between rounds: Blocked spans must appear.
        assert!(trace
            .events()
            .iter()
            .any(|e| matches!(e.kind, EventKind::Blocked { .. })));
        // Every rank terminates its track.
        let fins = trace
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::RankFinished))
            .count();
        assert_eq!(fins, 4);
    }

    #[test]
    #[cfg_attr(not(feature = "trace"), ignore)]
    fn tracing_does_not_perturb_the_schedule() {
        let topo = Topology::uniform(5, LinkSpec::gigabit_ethernet());
        let plain = SimDriver::new(topo.clone()).run(relay_ring(5, 0.002, 10));
        let traced = SimDriver::new(topo)
            .with_trace(TraceConfig::default())
            .run(relay_ring(5, 0.002, 10));
        assert_eq!(plain.stats.total_time, traced.stats.total_time);
        assert_eq!(plain.stats.total_messages(), traced.stats.total_messages());
    }

    #[test]
    #[cfg_attr(not(feature = "trace"), ignore)]
    fn trace_log_is_reproducible() {
        let topo = Topology::uniform(4, LinkSpec::gigabit_ethernet());
        let run = || {
            SimDriver::new(topo.clone())
                .with_trace(TraceConfig::default())
                .run(relay_ring(4, 0.003, 5))
                .trace
                .unwrap()
                .to_log()
        };
        assert_eq!(run(), run());
    }

    // ----- fault injection ---------------------------------------------------

    use crate::fault::LinkFaults;

    #[test]
    fn empty_fault_plan_leaves_the_schedule_untouched() {
        let topo = Topology::uniform(5, LinkSpec::gigabit_ethernet());
        let plain = SimDriver::new(topo.clone()).run(relay_ring(5, 0.002, 10));
        let faulted = SimDriver::new(topo)
            .with_faults(FaultPlan::seeded(42))
            .run(relay_ring(5, 0.002, 10));
        assert!(faulted.completed());
        assert_eq!(plain.stats.total_time, faulted.stats.total_time);
        assert_eq!(faulted.stats.total_faults_injected(), 0);
    }

    #[test]
    fn full_drop_deadlocks_and_counts_faults() {
        let plan = FaultPlan::seeded(1).on_link(0, 1, LinkFaults::drop_all());
        let out = SimDriver::new(Topology::uniform(2, LinkSpec::gigabit_ethernet()))
            .with_faults(plan)
            .run(relay_ring(2, 0.001, 3));
        assert_eq!(out.halt, HaltReason::Deadlock);
        assert!(!out.completed());
        assert!(out.stats.node(0).faults_injected >= 1);
        // The dropped message was still sent (and charged to the wire) —
        // it just never arrived.
        assert_eq!(out.stats.node(0).messages_sent, 1);
        assert_eq!(out.stats.node(1).messages_received, 0);
    }

    #[test]
    fn kill_halts_as_rank_killed() {
        let plan = FaultPlan::seeded(2).kill_at(1, 0.0);
        let out = SimDriver::new(Topology::uniform(2, LinkSpec::gigabit_ethernet()))
            .with_faults(plan)
            .with_trace(TraceConfig::default())
            .run(relay_ring(2, 0.001, 3));
        assert_eq!(out.halt, HaltReason::RankKilled);
        assert_eq!(out.stats.node(1).faults_injected, 1);
        #[cfg(feature = "trace")]
        {
            let trace = out.trace.expect("trace requested");
            assert!(trace
                .events()
                .iter()
                .any(|e| e.rank == 1 && matches!(e.kind, EventKind::RankKilled)));
        }
    }

    #[test]
    fn delay_faults_slow_the_run_deterministically() {
        let topo = Topology::uniform(2, LinkSpec::gigabit_ethernet());
        let plan = || FaultPlan::seeded(7).on_path(0, 1, LinkFaults::delay(1.0, 0.05, 0.06));
        let base = SimDriver::new(topo.clone()).run(relay_ring(2, 0.001, 3));
        let a = SimDriver::new(topo.clone())
            .with_faults(plan())
            .run(relay_ring(2, 0.001, 3));
        let b = SimDriver::new(topo)
            .with_faults(plan())
            .run(relay_ring(2, 0.001, 3));
        assert!(a.completed());
        assert_eq!(a.stats.total_time, b.stats.total_time);
        assert!(a.stats.total_time > base.stats.total_time + 0.04);
        assert!(a.stats.total_faults_injected() > 0);
    }

    #[test]
    fn duplicated_messages_deliver_twice() {
        struct Once {
            done: bool,
        }
        impl NodeBehavior<Msg> for Once {
            fn on_start(&mut self, ctx: &mut dyn NodeCtx<Msg>) {
                ctx.send(
                    1,
                    0,
                    Msg {
                        hops: 1,
                        bytes: 100,
                    },
                );
                self.done = true;
            }
            fn on_message(&mut self, _: Rank, _: Tag, _: Msg, _: &mut dyn NodeCtx<Msg>) {}
            fn is_finished(&self) -> bool {
                self.done
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
        }
        struct Count {
            got: u32,
        }
        impl NodeBehavior<Msg> for Count {
            fn on_message(&mut self, _: Rank, _: Tag, _: Msg, _: &mut dyn NodeCtx<Msg>) {
                self.got += 1;
            }
            fn is_finished(&self) -> bool {
                self.got >= 2
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
        }
        let plan = FaultPlan::seeded(3).on_link(0, 1, LinkFaults::default().and_duplicate(1.0));
        let out = SimDriver::new(Topology::uniform(2, LinkSpec::gigabit_ethernet()))
            .with_faults(plan)
            .run(vec![
                Box::new(Once { done: false }) as Box<dyn NodeBehavior<Msg>>,
                Box::new(Count { got: 0 }) as Box<dyn NodeBehavior<Msg>>,
            ]);
        assert!(out.completed());
        assert_eq!(out.stats.node(0).messages_sent, 1);
        assert_eq!(out.stats.node(1).messages_received, 2);
        assert_eq!(out.stats.node(0).faults_injected, 1);
    }

    #[test]
    fn pause_defers_activations_to_window_end() {
        let plan = FaultPlan::seeded(4).pause(0, 0.0, 1.0);
        let out = SimDriver::new(Topology::uniform(1, LinkSpec::loopback()))
            .with_faults(plan)
            .run(vec![Box::new(IdleWorker {
                remaining: 7,
                finished: false,
            }) as Box<dyn NodeBehavior<Msg>>]);
        assert!(out.completed());
        assert!(
            (out.stats.total_time - 1.07).abs() < 1e-9,
            "total_time = {}",
            out.stats.total_time
        );
        assert_eq!(out.stats.node(0).faults_injected, 1);
    }

    #[test]
    fn wake_requests_only_honored_with_faults_armed() {
        struct Alarm {
            fired: bool,
        }
        impl NodeBehavior<Msg> for Alarm {
            fn on_message(&mut self, _: Rank, _: Tag, _: Msg, _: &mut dyn NodeCtx<Msg>) {}
            fn on_idle(&mut self, ctx: &mut dyn NodeCtx<Msg>) -> bool {
                if ctx.now() >= 0.5 {
                    self.fired = true;
                    true
                } else {
                    ctx.request_wake(0.5);
                    false
                }
            }
            fn is_finished(&self) -> bool {
                self.fired
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
        }
        let topo = Topology::uniform(1, LinkSpec::loopback());
        // Without a fault schedule the hint is ignored — fault-free
        // schedules must stay bit-identical to what they always were.
        let plain = SimDriver::new(topo.clone()).run(vec![
            Box::new(Alarm { fired: false }) as Box<dyn NodeBehavior<Msg>>
        ]);
        assert_eq!(plain.halt, HaltReason::Deadlock);
        // Any non-empty schedule arms wake-ups, even if none of its faults
        // ever fire.
        let armed = FaultPlan::seeded(5).pause(0, 1e8, 1e8 + 1.0);
        let out = SimDriver::new(topo).with_faults(armed).run(vec![
            Box::new(Alarm { fired: false }) as Box<dyn NodeBehavior<Msg>>,
        ]);
        assert_eq!(out.halt, HaltReason::Finished);
        assert!((out.stats.total_time - 0.5).abs() < 1e-9);
    }

    #[test]
    #[cfg_attr(not(feature = "trace"), ignore)]
    fn chaos_runs_replay_bit_identically() {
        let topo = Topology::uniform(4, LinkSpec::gigabit_ethernet());
        let plan = FaultPlan::seeded(11)
            .on_path(
                0,
                1,
                LinkFaults::drop(0.2)
                    .and_duplicate(0.2)
                    .and_reorder(0.2, 0.01),
            )
            .on_link(2, 3, LinkFaults::delay(0.5, 0.001, 0.002))
            .pause(2, 0.01, 0.02)
            .kill_at(3, 0.05);
        let run = || {
            let out = SimDriver::new(topo.clone())
                .with_faults(plan.clone())
                .with_trace(TraceConfig::default())
                .run(relay_ring(4, 0.003, 5));
            (out.halt, out.stats.total_time, out.trace.unwrap().to_log())
        };
        let (halt_a, time_a, log_a) = run();
        let (halt_b, time_b, log_b) = run();
        assert_eq!(halt_a, halt_b);
        assert_eq!(time_a, time_b);
        assert_eq!(log_a, log_b);
    }
}
