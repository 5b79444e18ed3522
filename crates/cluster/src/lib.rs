//! # pi-cluster
//!
//! The distributed-execution substrate of the PipeInfer reproduction: an
//! MPI-like message-passing abstraction plus two interchangeable drivers
//! that execute a set of *rank state machines*:
//!
//! * [`threaded::ThreadedDriver`] — one OS thread per rank, crossbeam
//!   channels as the interconnect, real wall-clock time.  This is the
//!   "real execution" path used with tiny real models.
//! * [`sim::SimDriver`] — a deterministic discrete-event simulator with a
//!   per-link latency/bandwidth model and a virtual clock.  This is how the
//!   paper's 70B–180B-scale experiments are reproduced.
//!
//! ## Programming model
//!
//! The paper's implementation writes each MPI rank as straight-line code
//! issuing tagged, buffered, non-overtaking point-to-point operations, and
//! layers a *transaction* construct on top to keep multi-message operations
//! atomic and ordered (paper §IV-A2, Fig. 2).  Here each rank is written as
//! an event-driven [`NodeBehavior`]: the driver delivers one logical message
//! at a time (a whole transaction's payload travels as one typed message, so
//! transaction atomicity holds by construction) and preserves per-link FIFO
//! ordering, which is the property PipeInfer's correctness argument needs.
//! Idle ranks get [`NodeBehavior::on_idle`] callbacks — this is where the
//! head node's continuous speculation lives ("probe for logits; if none,
//! speculate", paper §IV-B).
//!
//! Both drivers provide the same [`NodeCtx`] interface and the same ledger
//! (one [`NodeStats`] and event ring per rank, kept by the crate-private
//! `RankLog`), so the exact same scheduling code runs threaded (real time)
//! and simulated (virtual time) and is counted the same way on both.

pub mod fault;
pub mod sim;
pub mod stats;
pub mod threaded;
pub mod topology;

pub use fault::{FaultInjector, FaultPlan, LinkFaults};
pub use sim::HaltReason;
pub use stats::{ClusterStats, NodeStats};
pub use topology::{LinkSpec, Topology};

// Tracing vocabulary, re-exported so behavior crates need no direct
// `pi-trace` dependency for recording (analysis/export tooling should depend
// on `pi-trace` itself).
pub use pi_trace::{
    Clock, ClockDomain, Event, EventKind, ManualClock, MonotonicClock, Trace, TraceBuffer,
    TraceConfig,
};

/// Index of a rank (node) within the cluster, 0-based.  Rank 0 is always the
/// head node.
pub type Rank = usize;

/// Message tag, mirroring MPI tags.  With typed messages the tag is purely
/// informational (useful in traces), but per-link ordering is maintained
/// regardless of tag, which is stronger than MPI's per-(src,dst,tag)
/// guarantee and therefore safe.
pub type Tag = u32;

/// Virtual or measured time in seconds.
pub type SimTime = f64;

/// A message that can be sent between ranks.
///
/// `wire_bytes` is used by the simulated interconnect to charge transfer
/// time; the threaded driver ignores it.  `Clone` lets a fault schedule
/// deliver a message twice ([`LinkFaults::and_duplicate`]); the fault-free
/// paths never clone.
pub trait WireMessage: Clone + Send + 'static {
    /// Serialized size of the message in bytes.
    fn wire_bytes(&self) -> u64;

    /// Whether the message is an out-of-band control signal that receivers
    /// check for at synchronisation points ahead of their normal queue —
    /// PipeInfer's cancellation signals are the motivating example
    /// (paper §IV-D2).  Ordinary transaction traffic returns `false` and is
    /// delivered in strict per-link FIFO order.
    fn priority(&self) -> bool {
        false
    }

    /// Whether the message belongs to the draft-rank protocol (draft
    /// requests, responses and their cancellation signals).  Drivers account
    /// such traffic separately in [`NodeStats`] so the cost of the paper's
    /// Fig. 3 dedicated-draft-rank layout is visible per rank.
    fn is_draft(&self) -> bool {
        false
    }
}

/// Context handed to a [`NodeBehavior`] during callbacks.
///
/// All interaction with the outside world (sending messages, charging
/// compute time, reading the clock) goes through this trait so behaviors are
/// oblivious to whether they run threaded or simulated.
pub trait NodeCtx<M: WireMessage> {
    /// This rank's index.
    fn rank(&self) -> Rank;
    /// Number of ranks in the cluster.
    fn world_size(&self) -> usize;
    /// Current time in seconds (wall-clock since launch for the threaded
    /// driver, virtual time for the simulator).
    fn now(&self) -> SimTime;
    /// Buffered, non-blocking send of `msg` to `dst`.  The send completes
    /// immediately from the sender's perspective (MPI buffered-send
    /// semantics, which the paper relies on to keep the pipeline moving).
    fn send(&mut self, dst: Rank, tag: Tag, msg: M);
    /// Charges `seconds` of compute time to this rank.  The simulator
    /// advances the rank's virtual clock; the threaded driver only records
    /// the figure for utilisation statistics (real compute already consumed
    /// real time).
    fn elapse(&mut self, seconds: SimTime);
    /// This rank's counters in the driver's ledger, for the ones only a
    /// behavior can count: units of work skipped thanks to an early
    /// cancellation signal ([`NodeStats::cancellations_saved`]) and the draft
    /// link's timeouts, retries and failovers.  Everything the driver itself
    /// sees (messages, bytes, compute, idle work, faults) it counts itself.
    fn stats(&mut self) -> &mut NodeStats;
    /// Asks the driver to re-invoke [`NodeBehavior::on_idle`] at time `at`
    /// even if no message has arrived by then — how a behavior arms a
    /// deadline (e.g. a draft-request timeout).  The simulator honors wake
    /// requests only while a fault schedule is attached (fault-free
    /// schedules stay pinned); the threaded driver's 1 ms poll loop already
    /// provides this and ignores the hint.  Default no-op.
    fn request_wake(&mut self, _at: SimTime) {}
    /// Whether a trace recorder is attached to this rank.  Event sites guard
    /// on this before constructing an [`EventKind`] (see [`trace_if`]), so a
    /// disabled recorder costs a single predictable branch — the default is
    /// a constant `false`, which also keeps every hand-rolled test context
    /// compiling unchanged.
    fn trace_enabled(&self) -> bool {
        false
    }
    /// Records a structured event, stamped with this rank and [`now`]
    /// (span kinds are recorded at their *end*; see [`EventKind`]).  No-op
    /// unless a driver attached a recorder via `with_trace`.
    ///
    /// [`now`]: NodeCtx::now
    fn trace(&mut self, _kind: EventKind) {}
}

/// Records `kind()` iff `ctx` has an enabled recorder.
///
/// The closure keeps event construction off the hot path: when tracing is
/// disabled the cost is the `trace_enabled` virtual call and one branch
/// (benchmarked under 5 ns), regardless of how expensive the event's fields
/// are to compute.
#[inline]
pub fn trace_if<M: WireMessage>(ctx: &mut dyn NodeCtx<M>, kind: impl FnOnce() -> EventKind) {
    if ctx.trace_enabled() {
        let kind = kind();
        ctx.trace(kind);
    }
}

/// A rank state machine.
///
/// Implementations live in `pi-spec` (baselines) and `pipeinfer-core`
/// (PipeInfer's head, worker and draft nodes).
pub trait NodeBehavior<M: WireMessage>: Send {
    /// Called once before any message is delivered.
    fn on_start(&mut self, _ctx: &mut dyn NodeCtx<M>) {}

    /// Called for every delivered message, in per-link FIFO order.
    fn on_message(&mut self, src: Rank, tag: Tag, msg: M, ctx: &mut dyn NodeCtx<M>);

    /// Called when no message is currently deliverable.  Return `true` if
    /// useful work was performed (the driver will poll again immediately);
    /// return `false` to block until the next message arrives.
    fn on_idle(&mut self, _ctx: &mut dyn NodeCtx<M>) -> bool {
        false
    }

    /// Whether this rank has finished all its work.  The drivers stop a rank
    /// as soon as this returns `true` and stop the run once every rank is
    /// finished.
    fn is_finished(&self) -> bool;

    /// Downcasting support so callers can extract results from their concrete
    /// behavior types after a run.
    fn as_any(&self) -> &dyn std::any::Any;
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    #[derive(Debug, Clone)]
    struct Ping(#[allow(dead_code)] u64);
    impl WireMessage for Ping {
        fn wire_bytes(&self) -> u64 {
            8
        }
    }

    struct Nop;
    impl NodeBehavior<Ping> for Nop {
        fn on_message(&mut self, _: Rank, _: Tag, _: Ping, _: &mut dyn NodeCtx<Ping>) {}
        fn is_finished(&self) -> bool {
            true
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    #[test]
    fn default_on_idle_blocks() {
        struct Ctx(NodeStats);
        impl NodeCtx<Ping> for Ctx {
            fn rank(&self) -> Rank {
                0
            }
            fn world_size(&self) -> usize {
                1
            }
            fn now(&self) -> SimTime {
                0.0
            }
            fn send(&mut self, _: Rank, _: Tag, _: Ping) {}
            fn elapse(&mut self, _: SimTime) {}
            fn stats(&mut self) -> &mut NodeStats {
                &mut self.0
            }
        }
        let mut n = Nop;
        assert!(!n.on_idle(&mut Ctx(NodeStats::default())));
        assert!(n.is_finished());
    }
}
