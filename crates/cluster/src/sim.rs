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
use crate::stats::{gather, ClusterStats, NodeStats, RankLog};
use crate::topology::Topology;
use crate::{NodeBehavior, NodeCtx, Rank, SimTime, Tag, WireMessage};
use pi_trace::{ClockDomain, EventKind, FaultKind, Trace, TraceConfig};
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
    /// [`SimDriver::with_trace`].  Timestamps are virtual
    /// [`ClockDomain::Virtual`] seconds, so the trace — like the simulation
    /// itself — is bit-for-bit reproducible.
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

/// What a callback leaves for the driver to apply once it returns.
struct Effects<M> {
    /// The rank's clock: the activation time plus the compute it charged.
    now: SimTime,
    /// Earliest wake-up the behavior requested.  Wake requests last until
    /// the rank's next activation, then must be re-armed; the driver honors
    /// them only while a fault schedule is attached (fault-free schedules
    /// stay pinned).
    wake: Option<SimTime>,
    /// Sends, with the time each was issued.
    outgoing: Vec<(Rank, Tag, M, SimTime)>,
}

/// The `NodeCtx` the simulator hands to behaviors.  Counts and events go
/// straight to the rank's ledger, which never feeds back into the schedule,
/// so a traced run takes the exact same schedule as an untraced one.
struct SimCtx<'a, M> {
    rank: Rank,
    world: usize,
    log: &'a mut RankLog,
    fx: Effects<M>,
}

impl<M: WireMessage> NodeCtx<M> for SimCtx<'_, M> {
    fn rank(&self) -> Rank {
        self.rank
    }
    fn world_size(&self) -> usize {
        self.world
    }
    fn now(&self) -> SimTime {
        self.fx.now
    }
    fn send(&mut self, dst: Rank, tag: Tag, msg: M) {
        self.log.sent(self.fx.now, dst, tag, &msg);
        self.fx.outgoing.push((dst, tag, msg, self.fx.now));
    }
    fn elapse(&mut self, seconds: SimTime) {
        let s = seconds.max(0.0);
        self.fx.now += s;
        // Span-end convention: the Compute span is stamped at its end.
        self.log.computed(self.fx.now, s);
    }
    fn stats(&mut self) -> &mut NodeStats {
        self.log.stats()
    }
    fn request_wake(&mut self, at: SimTime) {
        self.fx.wake = Some(self.fx.wake.map_or(at, |w| w.min(at)));
    }
    fn trace_enabled(&self) -> bool {
        self.log.tracing()
    }
    fn trace(&mut self, kind: EventKind) {
        self.log.trace(self.fx.now, kind);
    }
}

#[derive(Clone, Copy)]
enum ActivationKind {
    Deliver,
    Idle,
}

/// One rank's state over a run.
struct Node<M> {
    log: RankLog,
    /// The rank's clock: where its last activation ended.
    time: SimTime,
    /// Its last idle poll found nothing to do; only a message (or, with
    /// faults armed, a wake-up) activates it again.
    blocked: bool,
    finished: bool,
    killed: bool,
    /// The wake-up its last callback requested.
    wake: Option<SimTime>,
    /// Messages on their way to the rank: ordinary traffic, and the
    /// out-of-band control signals checked ahead of it.
    inbox: BinaryHeap<Pending<M>>,
    priority_inbox: BinaryHeap<Pending<M>>,
    /// Per destination: when this rank's link to it frees its transfer slot.
    link_free: Vec<SimTime>,
    /// Per destination: the latest in-order arrival scheduled on the link.
    /// Delay faults stretch a message's flight time but must not let later
    /// traffic overtake it (per-link FIFO holds unless a reorder fault
    /// explicitly lifts it).
    link_fifo: Vec<SimTime>,
}

impl<M> Node<M> {
    fn new(rank: Rank, world: usize, trace: Option<TraceConfig>) -> Self {
        Self {
            log: RankLog::new(rank, trace),
            time: 0.0,
            blocked: false,
            finished: false,
            killed: false,
            wake: None,
            inbox: BinaryHeap::new(),
            priority_inbox: BinaryHeap::new(),
            link_free: vec![0.0; world],
            link_fifo: vec![0.0; world],
        }
    }

    /// When and how the rank next activates, if it can.
    fn activation(&self, faults_armed: bool) -> Option<(SimTime, ActivationKind)> {
        let arrival = [self.inbox.peek(), self.priority_inbox.peek()]
            .into_iter()
            .flatten()
            .map(|p| p.arrival)
            .reduce(f64::min);
        if !self.blocked {
            let kind = match arrival {
                Some(a) if a <= self.time => ActivationKind::Deliver,
                _ => ActivationKind::Idle,
            };
            return Some((self.time, kind));
        }
        // A blocked rank normally waits for its next arrival; with faults
        // armed, an armed wake-up (deadline) can also rouse it for an idle
        // poll.
        let deliver = arrival.map(|a| (self.time.max(a), ActivationKind::Deliver));
        let woken = self
            .wake
            .filter(|_| faults_armed)
            .map(|w| (self.time.max(w), ActivationKind::Idle));
        match (deliver, woken) {
            (Some(d), Some(w)) => Some(if w.0 < d.0 { w } else { d }),
            (d, w) => d.or(w),
        }
    }

    /// The message to deliver at `t`.  Out-of-band control messages (e.g.
    /// cancellation signals) that have already arrived are checked first,
    /// ahead of the ordinary FIFO traffic.
    fn take_message(&mut self, t: SimTime) -> Pending<M> {
        let arrived = |inbox: &BinaryHeap<Pending<M>>| inbox.peek().is_some_and(|p| p.arrival <= t);
        if arrived(&self.priority_inbox) {
            self.priority_inbox.pop()
        } else if arrived(&self.inbox) {
            self.inbox.pop()
        } else {
            self.priority_inbox.pop().or_else(|| self.inbox.pop())
        }
        .expect("deliver requires a pending message")
    }
}

/// The mutable state of one run.
struct Run<'t, M> {
    topology: &'t Topology,
    nodes: Vec<Node<M>>,
    /// The fault schedule (chaos testing).  `None` keeps every fault-free
    /// code path — including wake handling — exactly as it always was.
    injector: Option<FaultInjector>,
    /// Send order, the tie-break between messages due at the same time.
    seq: u64,
}

impl<M: WireMessage> Run<'_, M> {
    /// The earliest activation of any live rank (lowest rank on a tie).
    fn next_activation(&self) -> Option<(SimTime, Rank, ActivationKind)> {
        let faults_armed = self.injector.is_some();
        let mut best: Option<(SimTime, Rank, ActivationKind)> = None;
        for (r, node) in self.nodes.iter().enumerate() {
            if node.finished || node.killed {
                continue;
            }
            if let Some((t, kind)) = node.activation(faults_armed) {
                if best.is_none_or(|(bt, _, _)| t < bt) {
                    best = Some((t, r, kind));
                }
            }
        }
        best
    }

    /// A context for a callback of rank `r` starting at `now`.
    fn ctx(&mut self, r: Rank, now: SimTime) -> SimCtx<'_, M> {
        SimCtx {
            rank: r,
            world: self.nodes.len(),
            log: &mut self.nodes[r].log,
            fx: Effects {
                now,
                wake: None,
                outgoing: Vec::new(),
            },
        }
    }

    /// Applies what a callback of rank `r` left behind, and retires the
    /// rank if it has `finished`.
    fn settle(&mut self, r: Rank, fx: Effects<M>, finished: bool) {
        let node = &mut self.nodes[r];
        node.time = fx.now;
        node.wake = fx.wake;
        self.dispatch(r, fx.outgoing);
        if finished {
            let node = &mut self.nodes[r];
            node.finished = true;
            node.inbox.clear();
            node.priority_inbox.clear();
            node.log.finished(node.time);
        }
    }

    /// Puts rank `src`'s sends on the wire.  Each takes its link's next
    /// transfer slot; the fault schedule, if any, then decides how many
    /// copies arrive and when.
    fn dispatch(&mut self, src: Rank, outgoing: Vec<(Rank, Tag, M, SimTime)>) {
        for (dst, tag, msg, send_time) in outgoing {
            if dst >= self.nodes.len() {
                continue;
            }
            let link = self.topology.link(src, dst);
            let priority = msg.priority();
            let free = &mut self.nodes[src].link_free[dst];
            // Priority (out-of-band) messages do not contend for the link's
            // serialised transfer slot — they are tiny control signals.
            let start = if priority {
                send_time
            } else {
                send_time.max(*free)
            };
            let transfer = msg.wire_bytes() as f64 / link.bandwidth_bps;
            let arrival = start + link.latency_s + transfer;
            if !priority {
                // The slot is consumed whether or not a fault later drops
                // the message: a dropped message still occupied the wire.
                *free = start + transfer;
            }
            let fate = match self.injector.as_mut() {
                None => {
                    // Fault-free fast path: one copy, no clone.
                    self.post(dst, priority, arrival, src, tag, msg);
                    continue;
                }
                Some(inj) => inj.on_send(src, dst, send_time),
            };
            self.nodes[src].log.faulted(send_time, &fate.faults);
            for (extra, overtakes) in fate.copies {
                // An overtaking (reordered) copy skips the link's
                // serialisation queue, exactly like priority traffic.  Every
                // other copy stays FIFO on its link even when a delay fault
                // stretches its flight time: later sends are clamped behind
                // the latest in-order arrival.
                let arrival = if overtakes {
                    send_time + link.latency_s + transfer + extra
                } else if priority {
                    arrival + extra
                } else {
                    let fifo = &mut self.nodes[src].link_fifo[dst];
                    *fifo = (arrival + extra).max(*fifo);
                    *fifo
                };
                self.post(dst, priority, arrival, src, tag, msg.clone());
            }
        }
    }

    /// Queues one copy of a message for `dst`, rousing it if it was blocked.
    fn post(&mut self, dst: Rank, priority: bool, arrival: SimTime, src: Rank, tag: Tag, msg: M) {
        self.seq += 1;
        let entry = Pending {
            arrival,
            seq: self.seq,
            src,
            tag,
            msg,
        };
        let node = &mut self.nodes[dst];
        if priority {
            node.priority_inbox.push(entry);
        } else {
            node.inbox.push(entry);
        }
        node.blocked = false;
    }
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
        let mut sim = Run {
            topology: &self.topology,
            nodes: (0..n).map(|r| Node::new(r, n, self.trace)).collect(),
            injector: self
                .faults
                .as_ref()
                .filter(|p| !p.is_empty())
                .map(|p| FaultInjector::new(p.clone(), n)),
            seq: 0,
        };

        // on_start at t = 0 for every rank.
        for (r, behavior) in behaviors.iter_mut().enumerate() {
            let mut ctx = sim.ctx(r, 0.0);
            behavior.on_start(&mut ctx);
            let fx = ctx.fx;
            sim.settle(r, fx, behavior.is_finished());
        }

        let mut events = 0u64;
        let halt = loop {
            if sim.nodes.iter().all(|node| node.finished || node.killed) {
                break HaltReason::Finished;
            }
            if events >= MAX_EVENTS {
                break HaltReason::EventLimit;
            }
            let Some((t, r, kind)) = sim.next_activation() else {
                // No rank can make progress with unfinished ranks left: a
                // deadlock, or the aftermath of a fault-schedule kill.
                break if sim.nodes.iter().any(|node| node.killed) {
                    HaltReason::RankKilled
                } else {
                    HaltReason::Deadlock
                };
            };
            if t > self.max_time {
                break HaltReason::TimeLimit;
            }
            if let Some(inj) = sim.injector.as_mut() {
                // Kills due at or before this activation fire first, then
                // the schedule is re-examined without the dead ranks.
                let newly = inj.due_kills(t);
                if !newly.is_empty() {
                    for k in newly {
                        let node = &mut sim.nodes[k];
                        node.killed = true;
                        node.inbox.clear();
                        node.priority_inbox.clear();
                        node.log.killed(t);
                    }
                    continue;
                }
                // A paused (straggler) rank defers its activation to the
                // end of the pause window.
                if let Some((deferred, first)) = inj.pause_deferral(r, t) {
                    let node = &mut sim.nodes[r];
                    if first {
                        let pause = EventKind::FaultInjected {
                            fault: FaultKind::Pause,
                            peer: r as u32,
                        };
                        node.log.faulted(t, &[pause]);
                    }
                    node.time = node.time.max(deferred);
                    continue;
                }
            }
            events += 1;
            let behavior = &mut behaviors[r];
            let fx = match kind {
                ActivationKind::Deliver => {
                    let p = sim.nodes[r].take_message(t);
                    sim.nodes[r].log.received(t, p.src, p.tag, &p.msg);
                    let mut ctx = sim.ctx(r, t);
                    behavior.on_message(p.src, p.tag, p.msg, &mut ctx);
                    let fx = ctx.fx;
                    sim.nodes[r].blocked = false;
                    fx
                }
                ActivationKind::Idle => {
                    let mark = sim.nodes[r].log.mark();
                    let mut ctx = sim.ctx(r, t);
                    let worked = behavior.on_idle(&mut ctx);
                    let fx = ctx.fx;
                    let node = &mut sim.nodes[r];
                    // A blocked rank roused by a wake-up resumes and closes
                    // the wait it was in; a fruitless poll blocks it.
                    node.blocked = !worked;
                    if worked {
                        node.log.idle_worked(t, mark);
                    } else {
                        node.log.blocked(fx.now);
                    }
                    fx
                }
            };
            sim.settle(r, fx, behavior.is_finished());
        };

        let total_time = sim.nodes.iter().map(|node| node.time).fold(0.0, f64::max);
        // Any wait still open at the end of an aborted run closes there, so
        // the per-rank timeline remains fully tiled.
        let ledgers = sim.nodes.into_iter().map(|node| node.log.close(total_time));
        let (stats, trace) = gather(ledgers, total_time, ClockDomain::Virtual);
        SimOutcome {
            behaviors,
            stats,
            halt,
            trace,
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
        let trace = out.trace.expect("trace requested");
        assert!(trace
            .events()
            .iter()
            .any(|e| e.rank == 1 && matches!(e.kind, EventKind::RankKilled)));
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
