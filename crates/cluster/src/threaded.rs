//! Threaded in-process cluster driver.
//!
//! Each rank runs on its own OS thread and exchanges messages over unbounded
//! crossbeam channels, which gives the buffered, non-blocking,
//! order-preserving point-to-point semantics the paper gets from MPI
//! buffered sends.  Compute inside the behaviors is *real* (tiny models from
//! `pi-model`), so this driver is used for functional end-to-end tests
//! (output equivalence across inference strategies) and for the runnable
//! examples.

use crate::fault::{FaultInjector, FaultPlan};
use crate::stats::{gather, ClusterStats, NodeStats, RankLog};
use crate::{NodeBehavior, NodeCtx, Rank, SimTime, Tag, WireMessage};
use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use pi_trace::{Clock, ClockDomain, EventKind, MonotonicClock, Trace, TraceConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Result of a threaded run.
pub struct ThreadedOutcome<M: WireMessage> {
    /// The rank behaviors after the run, in rank order.
    pub behaviors: Vec<Box<dyn NodeBehavior<M>>>,
    /// Wall-clock statistics.
    pub stats: ClusterStats,
    /// `true` if every rank finished before the timeout.
    pub completed: bool,
    /// The recorded event trace, when the driver was built `with_trace`.
    /// Timestamps are monotonic wall-clock seconds since the run started.
    pub trace: Option<Trace>,
}

struct Envelope<M> {
    src: Rank,
    tag: Tag,
    msg: M,
}

/// Per-rank mailboxes: one sender handle per destination, one receiver each.
type Channels<M> = (Vec<Sender<Envelope<M>>>, Vec<Receiver<Envelope<M>>>);

/// The ordered delivery path of a link that has carried a delayed message:
/// one thread hands each message over once it is due, in send order, and no
/// message is due before the one sent ahead of it.
struct DelayLine<M> {
    tx: Sender<(Instant, Envelope<M>)>,
    last_due: Instant,
    thread: JoinHandle<()>,
}

impl<M: WireMessage> DelayLine<M> {
    fn open(dst: Sender<Envelope<M>>) -> Self {
        let (tx, rx) = unbounded::<(Instant, Envelope<M>)>();
        let thread = std::thread::spawn(move || {
            for (due, env) in rx {
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                let _ = dst.send(env);
            }
        });
        Self {
            tx,
            last_due: Instant::now(),
            thread,
        }
    }

    /// Queues `env` to be handed over `extra` seconds from now, or right
    /// after the message ahead of it, whichever is later.
    fn post(&mut self, extra: f64, env: Envelope<M>) {
        let due = Instant::now() + Duration::from_secs_f64(extra.max(0.0));
        self.last_due = self.last_due.max(due);
        let _ = self.tx.send((self.last_due, env));
    }

    /// Hands over everything still queued, then stops the thread.
    fn close(self) {
        drop(self.tx);
        self.thread.join().expect("delay line thread panicked");
    }
}

/// Raises the run's abort flag when the rank thread holding it unwinds, so
/// the other ranks stop waiting for messages it will never send.  The flag
/// publishes no data (the panic itself travels through `join`), so its
/// loads and stores are `Relaxed`.
struct AbortOnPanic(Arc<AtomicBool>);

impl Drop for AbortOnPanic {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Relaxed);
        }
    }
}

struct ThreadedCtx<M> {
    rank: Rank,
    world: usize,
    clock: Arc<dyn Clock>,
    /// The run's epoch on `clock`; `now()` is relative to it.
    t0: f64,
    senders: Vec<Sender<Envelope<M>>>,
    /// Shared fault injector (best-effort subset: drop/delay/duplicate on
    /// the send path), present iff the driver was built `with_faults`.
    injector: Option<Arc<Mutex<FaultInjector>>>,
    /// Per destination, the link's delay line once it has carried a delayed
    /// message.
    lines: Vec<Option<DelayLine<M>>>,
    /// This rank's ledger — per-thread by construction, so the hot path
    /// takes no locks.
    log: RankLog,
}

impl<M: WireMessage> NodeCtx<M> for ThreadedCtx<M> {
    fn rank(&self) -> Rank {
        self.rank
    }
    fn world_size(&self) -> usize {
        self.world
    }
    fn now(&self) -> SimTime {
        (self.clock.now() - self.t0).max(0.0)
    }
    fn send(&mut self, dst: Rank, tag: Tag, msg: M) {
        let now = self.now();
        self.log.sent(now, dst, tag, &msg);
        let src = self.rank;
        let Some(inj) = self.injector.as_ref() else {
            // A send to a rank that already exited is silently dropped,
            // matching buffered-send semantics after a receiver has
            // finalised.
            let _ = self.senders[dst].send(Envelope { src, tag, msg });
            return;
        };
        let fate = inj
            .lock()
            .expect("a rank panicked while deciding a fault")
            .on_send(src, dst, now);
        self.log.faulted(now, &fate.faults);
        for &(extra, _overtakes) in &fate.copies {
            let env = Envelope {
                src,
                tag,
                msg: msg.clone(),
            };
            let line = &mut self.lines[dst];
            if extra <= 0.0 && line.is_none() {
                let _ = self.senders[dst].send(env);
            } else {
                // Injected latency: the sender keeps its buffered-send
                // semantics, and nothing overtakes the delayed message.
                let sender = &self.senders[dst];
                line.get_or_insert_with(|| DelayLine::open(sender.clone()))
                    .post(extra, env);
            }
        }
    }
    fn elapse(&mut self, seconds: SimTime) {
        // Real compute already took real time; only record it.
        let now = self.now();
        self.log.computed(now, seconds.max(0.0));
    }
    fn stats(&mut self) -> &mut NodeStats {
        self.log.stats()
    }
    fn trace_enabled(&self) -> bool {
        self.log.tracing()
    }
    fn trace(&mut self, kind: EventKind) {
        if self.log.tracing() {
            let now = self.now();
            self.log.trace(now, kind);
        }
    }
}

impl<M: WireMessage> ThreadedCtx<M> {
    fn deliver(&mut self, env: Envelope<M>, behavior: &mut dyn NodeBehavior<M>) {
        let now = self.now();
        self.log.received(now, env.src, env.tag, &env.msg);
        behavior.on_message(env.src, env.tag, env.msg, self);
    }
}

/// Driver that runs each rank on a dedicated OS thread.
pub struct ThreadedDriver {
    timeout: Duration,
    clock: Arc<dyn Clock>,
    trace: Option<TraceConfig>,
    faults: Option<FaultPlan>,
}

impl Default for ThreadedDriver {
    fn default() -> Self {
        Self::new()
    }
}

impl ThreadedDriver {
    /// Creates a driver with a 120 s safety timeout and a monotonic
    /// wall-time clock.
    pub fn new() -> Self {
        Self {
            timeout: Duration::from_secs(120),
            clock: Arc::new(MonotonicClock::new()),
            trace: None,
            faults: None,
        }
    }

    /// Overrides the safety timeout after which unfinished ranks give up,
    /// measured on the monotonic clock (never the injected one).
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Injects the clock behind `NodeCtx::now` and every trace timestamp
    /// (tests inject a [`pi_trace::ManualClock`] for determinism).  The
    /// run's epoch is the clock's value when `run` is called.
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Attaches a structured event recorder: every rank gets a bounded
    /// per-thread ring and the outcome carries the merged [`Trace`].
    pub fn with_trace(mut self, config: TraceConfig) -> Self {
        self.trace = Some(config);
        self
    }

    /// Attaches a chaos schedule ([`FaultPlan`]), best-effort: the per-link
    /// message faults (drop/delay/duplicate) are applied on the send path;
    /// rank pauses, kills and reordering need the virtual-time control only
    /// the simulator has and are ignored here.  Delays are real waits, and
    /// they keep per-link FIFO order: once a link has carried a delayed
    /// message, every later message on it travels through one delivery
    /// thread behind it.  Fault *decisions* are seeded and deterministic,
    /// but wall-clock thread interleaving still varies between runs — use
    /// [`SimDriver`](crate::sim::SimDriver) for bit-identical chaos replays.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Runs the behaviors, one thread per rank, until all finish or the
    /// timeout expires.  The timeout is a watchdog on the monotonic clock,
    /// whatever clock was injected, so a frozen test clock cannot stall it.
    ///
    /// # Panics
    /// If a rank panics: every other rank stops at its next wake-up (within
    /// about a millisecond of the panic, unless it is mid-callback), and
    /// once all are joined the first panic is resumed on the caller.
    pub fn run<M: WireMessage>(
        &self,
        behaviors: Vec<Box<dyn NodeBehavior<M>>>,
    ) -> ThreadedOutcome<M> {
        let n = behaviors.len();
        let t0 = self.clock.now();
        let started = Instant::now();
        let (senders, receivers): Channels<M> = (0..n).map(|_| unbounded()).unzip();

        let timeout = self.timeout;
        let abort = Arc::new(AtomicBool::new(false));
        let trace = self.trace;
        let injector: Option<Arc<Mutex<FaultInjector>>> = self
            .faults
            .as_ref()
            .filter(|p| !p.is_empty())
            .map(|p| Arc::new(Mutex::new(FaultInjector::new(p.clone(), n))));
        let handles: Vec<_> = behaviors
            .into_iter()
            .enumerate()
            .zip(receivers)
            .map(|((rank, mut behavior), rx)| {
                let senders = senders.clone();
                let clock = Arc::clone(&self.clock);
                let injector = injector.clone();
                let abort = Arc::clone(&abort);
                std::thread::spawn(move || {
                    let _raise = AbortOnPanic(Arc::clone(&abort));
                    let mut ctx = ThreadedCtx {
                        rank,
                        world: n,
                        clock,
                        t0,
                        senders,
                        injector,
                        lines: (0..n).map(|_| None).collect(),
                        log: RankLog::new(rank, trace),
                    };
                    behavior.on_start(&mut ctx);
                    let completed = loop {
                        if behavior.is_finished() {
                            break true;
                        }
                        if started.elapsed() > timeout || abort.load(Ordering::Relaxed) {
                            break false;
                        }
                        let now = ctx.now();
                        match rx.try_recv() {
                            Ok(env) => ctx.deliver(env, behavior.as_mut()),
                            Err(TryRecvError::Empty) => {
                                let mark = ctx.log.mark();
                                if behavior.on_idle(&mut ctx) {
                                    ctx.log.idle_worked(now, mark);
                                    continue;
                                }
                                let now = ctx.now();
                                ctx.log.blocked(now);
                                // Block briefly for the next message; wake up
                                // periodically to re-check finish, timeout
                                // and abort.
                                if let Ok(env) = rx.recv_timeout(Duration::from_millis(1)) {
                                    ctx.deliver(env, behavior.as_mut());
                                }
                            }
                            Err(TryRecvError::Disconnected) => break behavior.is_finished(),
                        }
                    };
                    let end = ctx.now();
                    if completed {
                        ctx.log.finished(end);
                    }
                    for line in ctx.lines.into_iter().flatten() {
                        line.close();
                    }
                    (behavior, ctx.log.close(end), completed)
                })
            })
            .collect();
        // Keep our copies of the senders alive until all threads are done so
        // no thread observes a spurious disconnect; drop after joining.
        let mut out_behaviors = Vec::with_capacity(n);
        let mut ledgers = Vec::with_capacity(n);
        let mut completed = true;
        let mut panic = None;
        for h in handles {
            match h.join() {
                Ok((behavior, ledger, rank_completed)) => {
                    out_behaviors.push(behavior);
                    ledgers.push(ledger);
                    completed &= rank_completed;
                }
                Err(payload) => {
                    panic.get_or_insert(payload);
                }
            }
        }
        drop(senders);
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
        let total_time = (self.clock.now() - t0).max(0.0);
        let (stats, trace) = gather(ledgers, total_time, ClockDomain::Monotonic);
        ThreadedOutcome {
            behaviors: out_behaviors,
            stats,
            completed,
            trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::any::Any;

    #[derive(Debug, Clone)]
    struct Num(u64);
    impl WireMessage for Num {
        fn wire_bytes(&self) -> u64 {
            8
        }
    }

    /// Rank 0 sends numbers 1..=count around a ring; every rank adds 1.
    /// When the number returns to rank 0 it checks the sum and finishes,
    /// broadcasting a stop message (u64::MAX).
    struct RingAdder {
        rank: Rank,
        n: usize,
        count: u64,
        received: Vec<u64>,
        finished: bool,
    }

    impl NodeBehavior<Num> for RingAdder {
        fn on_start(&mut self, ctx: &mut dyn NodeCtx<Num>) {
            if self.rank == 0 {
                ctx.send(1 % self.n, 7, Num(0));
            }
        }
        fn on_message(&mut self, _src: Rank, _tag: Tag, msg: Num, ctx: &mut dyn NodeCtx<Num>) {
            if msg.0 == u64::MAX {
                self.finished = true;
                return;
            }
            ctx.elapse(0.0001);
            if self.rank == 0 {
                self.received.push(msg.0);
                if self.received.len() as u64 == self.count {
                    self.finished = true;
                    for r in 1..self.n {
                        ctx.send(r, 7, Num(u64::MAX));
                    }
                } else {
                    ctx.send(1 % self.n, 7, Num(0));
                }
            } else {
                ctx.send((self.rank + 1) % self.n, 7, Num(msg.0 + 1));
            }
        }
        fn is_finished(&self) -> bool {
            self.finished
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    fn ring(n: usize, count: u64) -> Vec<Box<dyn NodeBehavior<Num>>> {
        (0..n)
            .map(|r| {
                Box::new(RingAdder {
                    rank: r,
                    n,
                    count,
                    received: Vec::new(),
                    finished: false,
                }) as Box<dyn NodeBehavior<Num>>
            })
            .collect()
    }

    #[test]
    fn ring_of_four_completes_with_correct_sums() {
        let out = ThreadedDriver::new()
            .with_timeout(Duration::from_secs(20))
            .run(ring(4, 5));
        assert!(out.completed);
        let head = out.behaviors[0]
            .as_any()
            .downcast_ref::<RingAdder>()
            .unwrap();
        // Each lap adds 1 at ranks 1, 2, 3 → value 3 back at rank 0.
        assert_eq!(head.received, vec![3, 3, 3, 3, 3]);
        assert!(out.stats.total_time > 0.0);
        assert_eq!(out.stats.node(0).messages_sent as usize, 5 + 3);
    }

    #[test]
    fn single_rank_world_finishes_immediately() {
        struct Solo {
            finished: bool,
        }
        impl NodeBehavior<Num> for Solo {
            fn on_start(&mut self, ctx: &mut dyn NodeCtx<Num>) {
                ctx.elapse(0.001);
                self.finished = true;
            }
            fn on_message(&mut self, _: Rank, _: Tag, _: Num, _: &mut dyn NodeCtx<Num>) {}
            fn is_finished(&self) -> bool {
                self.finished
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
        }
        let out = ThreadedDriver::new().run(vec![
            Box::new(Solo { finished: false }) as Box<dyn NodeBehavior<Num>>
        ]);
        assert!(out.completed);
        assert!((out.stats.node(0).busy_time - 0.001).abs() < 1e-9);
    }

    /// A rank that never finishes.
    struct Never;
    impl NodeBehavior<Num> for Never {
        fn on_message(&mut self, _: Rank, _: Tag, _: Num, _: &mut dyn NodeCtx<Num>) {}
        fn is_finished(&self) -> bool {
            false
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    #[test]
    fn timeout_reports_incomplete() {
        let out = ThreadedDriver::new()
            .with_timeout(Duration::from_millis(50))
            .run(vec![Box::new(Never) as Box<dyn NodeBehavior<Num>>]);
        assert!(!out.completed);
    }

    #[test]
    fn the_timeout_ignores_a_frozen_injected_clock() {
        let start = Instant::now();
        let out = ThreadedDriver::new()
            .with_clock(Arc::new(pi_trace::ManualClock::new(0.0)))
            .with_timeout(Duration::from_millis(50))
            .run(vec![Box::new(Never) as Box<dyn NodeBehavior<Num>>]);
        assert!(!out.completed);
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    /// Passes a number on around a ring, or panics on receiving one.  The
    /// shared `Arc` lives as long as the behavior does.
    struct Relay {
        next: Rank,
        panics: bool,
        _alive: Arc<()>,
    }
    impl NodeBehavior<Num> for Relay {
        fn on_start(&mut self, ctx: &mut dyn NodeCtx<Num>) {
            if ctx.rank() == 0 {
                ctx.send(self.next, 0, Num(0));
            }
        }
        fn on_message(&mut self, _: Rank, _: Tag, msg: Num, ctx: &mut dyn NodeCtx<Num>) {
            assert!(!self.panics, "rank {} fails", ctx.rank());
            ctx.send(self.next, 0, Num(msg.0 + 1));
        }
        fn is_finished(&self) -> bool {
            false
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    #[test]
    fn a_panicking_rank_ends_the_run_with_its_panic() {
        let alive = Arc::new(());
        let ring: Vec<Box<dyn NodeBehavior<Num>>> = (0..3)
            .map(|rank| {
                Box::new(Relay {
                    next: (rank + 1) % 3,
                    panics: rank == 2,
                    _alive: Arc::clone(&alive),
                }) as Box<dyn NodeBehavior<Num>>
            })
            .collect();
        let start = Instant::now();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ThreadedDriver::new().run(ring)
        }));
        assert!(start.elapsed() < Duration::from_secs(1));
        let payload = caught.err().expect("the rank's panic reaches the caller");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert_eq!(message, "rank 2 fails");
        // Every behavior is gone, so no rank thread still holds one.
        assert_eq!(Arc::strong_count(&alive), 1);
    }

    #[test]
    fn idle_callbacks_run_when_no_messages() {
        struct IdleCounter {
            left: u32,
            finished: bool,
        }
        impl NodeBehavior<Num> for IdleCounter {
            fn on_message(&mut self, _: Rank, _: Tag, _: Num, _: &mut dyn NodeCtx<Num>) {}
            fn on_idle(&mut self, ctx: &mut dyn NodeCtx<Num>) -> bool {
                if self.left == 0 {
                    self.finished = true;
                    return false;
                }
                self.left -= 1;
                ctx.elapse(0.0);
                true
            }
            fn is_finished(&self) -> bool {
                self.finished
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
        }
        let out = ThreadedDriver::new().run(vec![Box::new(IdleCounter {
            left: 10,
            finished: false,
        }) as Box<dyn NodeBehavior<Num>>]);
        assert!(out.completed);
        assert_eq!(out.stats.node(0).idle_work, 10);
    }

    /// Rank 0 sends 100 numbered messages to rank 1, which checks order.
    struct Blast {
        done: bool,
    }
    struct Checker {
        expected: u64,
        ok: bool,
        finished: bool,
    }
    impl NodeBehavior<Num> for Blast {
        fn on_start(&mut self, ctx: &mut dyn NodeCtx<Num>) {
            for i in 0..100 {
                ctx.send(1, 0, Num(i));
            }
            self.done = true;
        }
        fn on_message(&mut self, _: Rank, _: Tag, _: Num, _: &mut dyn NodeCtx<Num>) {}
        fn is_finished(&self) -> bool {
            self.done
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }
    impl NodeBehavior<Num> for Checker {
        fn on_message(&mut self, _: Rank, _: Tag, msg: Num, _: &mut dyn NodeCtx<Num>) {
            if msg.0 != self.expected {
                self.ok = false;
            }
            self.expected += 1;
            if self.expected == 100 {
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

    /// Blasts 100 messages down link 0 -> 1 on `driver` and returns whether
    /// they all arrived in send order.
    fn blast_arrives_in_order(driver: ThreadedDriver) -> bool {
        let out = driver.with_timeout(Duration::from_secs(20)).run(vec![
            Box::new(Blast { done: false }) as Box<dyn NodeBehavior<Num>>,
            Box::new(Checker {
                expected: 0,
                ok: true,
                finished: false,
            }) as Box<dyn NodeBehavior<Num>>,
        ]);
        assert!(out.completed);
        let checker = out.behaviors[1].as_any().downcast_ref::<Checker>().unwrap();
        checker.ok
    }

    #[test]
    fn per_link_fifo_order_is_preserved() {
        assert!(
            blast_arrives_in_order(ThreadedDriver::new()),
            "messages were reordered"
        );
    }

    #[test]
    fn delay_faults_keep_per_link_fifo_order() {
        // Half the messages are held back 1-5 ms; a later one sent straight
        // after a delayed one must still arrive behind it.
        use crate::fault::{FaultPlan, LinkFaults};
        let plan = FaultPlan::seeded(5).on_link(0, 1, LinkFaults::delay(0.5, 0.001, 0.005));
        assert!(
            blast_arrives_in_order(ThreadedDriver::new().with_faults(plan)),
            "a delayed message was overtaken"
        );
    }

    #[test]
    fn untraced_runs_carry_no_trace() {
        let out = ThreadedDriver::new()
            .with_timeout(Duration::from_secs(20))
            .run(ring(2, 2));
        assert!(out.completed);
        assert!(out.trace.is_none());
    }

    #[test]
    fn traced_run_records_wire_events_in_wall_time() {
        let out = ThreadedDriver::new()
            .with_timeout(Duration::from_secs(20))
            .with_trace(TraceConfig::default())
            .run(ring(3, 4));
        assert!(out.completed);
        let trace = out.trace.expect("trace requested");
        assert_eq!(trace.n_ranks(), 3);
        assert_eq!(trace.domain(), ClockDomain::Monotonic);
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
        assert_eq!(sends as u64, out.stats.total_messages());
        // Stop messages may still be in flight when a rank exits, so receives
        // can undercount sends — but every *delivered* message is recorded.
        assert_eq!(
            recvs as u64,
            (0..3).map(|r| out.stats.node(r).messages_received).sum()
        );
        let fins = trace
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::RankFinished))
            .count();
        assert_eq!(fins, 3);
        // Timestamps are relative to the run epoch and non-negative.
        assert!(trace.events().iter().all(|e| e.ts >= 0.0));
        // Compute spans mirror `elapse` charges.
        let compute: f64 = trace
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Compute { dur } => Some(dur),
                _ => None,
            })
            .sum();
        let busy: f64 = (0..3).map(|r| out.stats.node(r).busy_time).sum();
        assert!((compute - busy).abs() < 1e-9, "{compute} vs {busy}");
    }

    #[test]
    fn fault_plan_duplicates_and_drops_on_the_send_path() {
        use crate::fault::{FaultPlan, LinkFaults};

        // Rank 0 sends one message to rank 1 with a 100 % duplicate fault;
        // rank 1 finishes only after receiving both copies.
        struct Once {
            done: bool,
        }
        struct Count {
            got: u32,
        }
        impl NodeBehavior<Num> for Once {
            fn on_start(&mut self, ctx: &mut dyn NodeCtx<Num>) {
                ctx.send(1, 0, Num(7));
                self.done = true;
            }
            fn on_message(&mut self, _: Rank, _: Tag, _: Num, _: &mut dyn NodeCtx<Num>) {}
            fn is_finished(&self) -> bool {
                self.done
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
        }
        impl NodeBehavior<Num> for Count {
            fn on_message(&mut self, _: Rank, _: Tag, _: Num, _: &mut dyn NodeCtx<Num>) {
                self.got += 1;
            }
            fn is_finished(&self) -> bool {
                self.got >= 2
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
        }
        let plan = FaultPlan::seeded(8).on_link(0, 1, LinkFaults::default().and_duplicate(1.0));
        let out = ThreadedDriver::new()
            .with_timeout(Duration::from_secs(20))
            .with_faults(plan)
            .run(vec![
                Box::new(Once { done: false }) as Box<dyn NodeBehavior<Num>>,
                Box::new(Count { got: 0 }) as Box<dyn NodeBehavior<Num>>,
            ]);
        assert!(out.completed);
        assert_eq!(out.stats.node(0).messages_sent, 1);
        assert_eq!(out.stats.node(1).messages_received, 2);
        assert_eq!(out.stats.node(0).faults_injected, 1);

        // A dead link (100 % drop) starves the receiver: the run times out.
        let plan = FaultPlan::seeded(8).on_link(0, 1, LinkFaults::drop_all());
        let out = ThreadedDriver::new()
            .with_timeout(Duration::from_millis(100))
            .with_faults(plan)
            .run(vec![
                Box::new(Once { done: false }) as Box<dyn NodeBehavior<Num>>,
                Box::new(Count { got: 0 }) as Box<dyn NodeBehavior<Num>>,
            ]);
        assert!(!out.completed);
        assert_eq!(out.stats.node(1).messages_received, 0);
        assert_eq!(out.stats.node(0).faults_injected, 1);
    }

    #[test]
    fn manual_clock_injection_stamps_virtual_times() {
        use pi_trace::ManualClock;
        use std::sync::Arc;

        // With a ManualClock that never advances, every event lands at t = 0
        // and total_time is exactly 0 — proving the driver reads the injected
        // clock rather than `Instant::now()`.
        let clock = Arc::new(ManualClock::new(5.0));
        let out = ThreadedDriver::new()
            .with_timeout(Duration::from_secs(20))
            .with_clock(clock)
            .with_trace(TraceConfig::default())
            .run(ring(2, 2));
        assert!(out.completed);
        assert_eq!(out.stats.total_time, 0.0);
        let trace = out.trace.unwrap();
        assert!(!trace.events().is_empty());
        assert!(trace.events().iter().all(|e| e.ts == 0.0));
    }
}
