//! Deterministic fault injection for the cluster drivers.
//!
//! A [`FaultPlan`] is a *seeded, declarative chaos schedule*: per-link
//! message drop/delay/duplicate/reorder probabilities, rank pause windows
//! (stragglers) and rank kills at a driver time.  Attached
//! to [`SimDriver::with_faults`](crate::sim::SimDriver::with_faults) the
//! plan perturbs the discrete-event schedule **deterministically** — the
//! same plan over the same run replays bit-identically, FoundationDB-style
//! — so every failure a test finds is a failure it can reproduce.  The
//! threaded driver supports a best-effort subset (drop/delay/duplicate on
//! the send path) via
//! [`ThreadedDriver::with_faults`](crate::threaded::ThreadedDriver::with_faults).
//!
//! Every injected fault is surfaced twice: counted into
//! [`NodeStats::faults_injected`](crate::NodeStats::faults_injected) and —
//! when a recorder is attached — recorded as an
//! [`EventKind::FaultInjected`](pi_trace::EventKind::FaultInjected) /
//! [`EventKind::RankKilled`](pi_trace::EventKind::RankKilled) trace event,
//! so pipeline bubbles caused by the schedule are cause-attributed.
//!
//! ```
//! use pi_cluster::{FaultPlan, LinkFaults};
//!
//! // Drop 30 % of draft traffic head <-> rank 1, kill rank 1 at t = 4 s.
//! let plan = FaultPlan::seeded(7)
//!     .on_link(0, 1, LinkFaults::drop(0.3))
//!     .on_link(1, 0, LinkFaults::drop(0.3))
//!     .kill_at(1, 4.0);
//! assert!(!plan.is_empty());
//! ```

use crate::{Rank, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fault probabilities and distributions for one directed link.
///
/// All probabilities are in `[0, 1]` and evaluated independently per
/// message, in a fixed order (drop, then delay, then duplicate, then
/// reorder) from the plan's seeded generator.  The window `[from, until)`
/// restricts the faults to a span of driver time; the default window is
/// always-on.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkFaults {
    /// Probability that a message is dropped in transit (it still occupies
    /// the link; it is simply never delivered).
    pub drop_prob: f64,
    /// Probability that a message is delivered with extra latency.
    pub delay_prob: f64,
    /// Extra latency range in seconds, sampled uniformly when a delay
    /// fires.
    pub delay_s: (f64, f64),
    /// Probability that a message is delivered twice (the duplicate arrives
    /// one delay-range sample later).
    pub duplicate_prob: f64,
    /// Probability that a message may overtake earlier traffic on its link:
    /// its arrival gets a uniform jitter in `[0, reorder_jitter_s)` *and*
    /// it skips the link-serialisation queue.
    pub reorder_prob: f64,
    /// Jitter bound for reordered messages, seconds.
    pub reorder_jitter_s: f64,
    /// Start of the active window (inclusive), driver seconds.
    pub from: SimTime,
    /// End of the active window (exclusive), driver seconds.
    pub until: SimTime,
}

impl Default for LinkFaults {
    fn default() -> Self {
        Self {
            drop_prob: 0.0,
            delay_prob: 0.0,
            delay_s: (0.0, 0.0),
            duplicate_prob: 0.0,
            reorder_prob: 0.0,
            reorder_jitter_s: 0.0,
            from: 0.0,
            until: f64::INFINITY,
        }
    }
}

impl LinkFaults {
    /// Drops each message with probability `p`.
    pub fn drop(p: f64) -> Self {
        Self {
            drop_prob: p,
            ..Self::default()
        }
    }

    /// Drops every message (a dead link).
    pub fn drop_all() -> Self {
        Self::drop(1.0)
    }

    /// Delays each message with probability `p` by a uniform sample from
    /// `[lo, hi)` seconds.
    pub fn delay(p: f64, lo: f64, hi: f64) -> Self {
        Self {
            delay_prob: p,
            delay_s: (lo, hi),
            ..Self::default()
        }
    }

    /// Adds a duplicate-delivery probability.
    pub fn and_duplicate(mut self, p: f64) -> Self {
        self.duplicate_prob = p;
        self
    }

    /// Adds a reorder probability with the given jitter bound.
    pub fn and_reorder(mut self, p: f64, jitter_s: f64) -> Self {
        self.reorder_prob = p;
        self.reorder_jitter_s = jitter_s;
        self
    }

    /// Restricts the faults to the window `[from, until)`.
    pub fn during(mut self, from: SimTime, until: SimTime) -> Self {
        self.from = from;
        self.until = until;
        self
    }

    fn active_at(&self, t: SimTime) -> bool {
        t >= self.from && t < self.until
    }

    fn is_noop(&self) -> bool {
        self.drop_prob <= 0.0
            && self.delay_prob <= 0.0
            && self.duplicate_prob <= 0.0
            && self.reorder_prob <= 0.0
    }
}

/// A seeded, declarative chaos schedule for one cluster run.
///
/// Build one with the fluent constructors, then attach it to a driver:
/// [`SimDriver::with_faults`](crate::sim::SimDriver::with_faults) supports
/// the full vocabulary; the threaded driver's best-effort subset covers the
/// per-link message faults.  All randomness flows from [`FaultPlan::seed`]
/// through one generator consumed in deterministic schedule order, so a
/// plan replayed over the same run yields a bit-identical outcome —
/// including its trace.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed for every probabilistic decision the plan makes.
    pub seed: u64,
    links: Vec<(Rank, Rank, LinkFaults)>,
    pauses: Vec<(Rank, SimTime, SimTime)>,
    /// `(rank, driver time)` of each kill.
    kills: Vec<(Rank, SimTime)>,
}

impl FaultPlan {
    /// An empty plan drawing from `seed`.
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Adds faults to the directed link `src -> dst`.
    pub fn on_link(mut self, src: Rank, dst: Rank, faults: LinkFaults) -> Self {
        self.links.push((src, dst, faults));
        self
    }

    /// Adds the same faults to both directions between `a` and `b` — the
    /// usual way to degrade a full draft path.
    pub fn on_path(self, a: Rank, b: Rank, faults: LinkFaults) -> Self {
        self.on_link(a, b, faults.clone()).on_link(b, a, faults)
    }

    /// Pauses `rank` (straggler) over the window `[from, until)`: any
    /// activation falling inside the window is deferred to its end.
    pub fn pause(mut self, rank: Rank, from: SimTime, until: SimTime) -> Self {
        self.pauses.push((rank, from, until));
        self
    }

    /// Kills `rank` once driver time reaches `at` seconds.  A killed rank
    /// is never activated again; its queued messages are discarded and
    /// traffic addressed to it is black-holed.
    pub fn kill_at(mut self, rank: Rank, at: SimTime) -> Self {
        self.kills.push((rank, at));
        self
    }

    /// Whether the plan perturbs anything at all.
    pub fn is_empty(&self) -> bool {
        self.links.iter().all(|(_, _, f)| f.is_noop())
            && self.pauses.is_empty()
            && self.kills.is_empty()
    }
}

/// The fate of one message passed through the injector.
#[derive(Debug, Clone, PartialEq)]
pub struct SendFate {
    /// One entry per delivered copy: `(extra_delay_s, overtakes)`.  Empty
    /// means the message was dropped; two entries mean it was duplicated.
    /// `overtakes` lifts the per-link FIFO serialisation for that copy.
    pub copies: Vec<(f64, bool)>,
    /// Faults this decision injected (0 for a clean pass-through).
    pub faults: Vec<crate::EventKind>,
}

impl SendFate {
    fn clean() -> Self {
        Self {
            copies: vec![(0.0, false)],
            faults: Vec::new(),
        }
    }
}

/// Runtime state of a [`FaultPlan`] over one run: the seeded generator,
/// which kills/pauses have fired, and which ranks are dead.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: StdRng,
    killed: Vec<bool>,
    kill_fired: Vec<bool>,
    pause_noted: Vec<bool>,
}

impl FaultInjector {
    /// Instantiates the plan for a `world`-rank cluster.
    pub fn new(plan: FaultPlan, world: usize) -> Self {
        let rng = StdRng::seed_from_u64(plan.seed);
        let kill_fired = vec![false; plan.kills.len()];
        let pause_noted = vec![false; plan.pauses.len()];
        Self {
            plan,
            rng,
            killed: vec![false; world],
            kill_fired,
            pause_noted,
        }
    }

    /// The plan being executed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Whether `rank` has been killed.
    pub fn is_killed(&self, rank: Rank) -> bool {
        self.killed.get(rank).copied().unwrap_or(false)
    }

    /// Decides the fate of a message sent `src -> dst` at time `now`.
    /// Consumes randomness only for links the plan names, so unfaulted
    /// links never perturb the stream.
    pub fn on_send(&mut self, src: Rank, dst: Rank, now: SimTime) -> SendFate {
        use pi_trace::{EventKind, FaultKind};
        if self.is_killed(dst) {
            // Black-holed, not counted: the kill was already recorded.
            return SendFate {
                copies: Vec::new(),
                faults: Vec::new(),
            };
        }
        let mut fate = SendFate::clean();
        for (s, d, f) in &self.plan.links {
            if *s != src || *d != dst || !f.active_at(now) || f.is_noop() {
                continue;
            }
            let fault = |kind| EventKind::FaultInjected {
                fault: kind,
                peer: dst as u32,
            };
            if f.drop_prob > 0.0 && self.rng.gen_bool(f.drop_prob.min(1.0)) {
                fate.copies.clear();
                fate.faults.push(fault(FaultKind::Drop));
                return fate;
            }
            if f.delay_prob > 0.0 && self.rng.gen_bool(f.delay_prob.min(1.0)) {
                let (lo, hi) = f.delay_s;
                let extra = if hi > lo {
                    self.rng.gen_range(lo..hi)
                } else {
                    lo
                };
                fate.copies[0].0 += extra;
                fate.faults.push(fault(FaultKind::Delay));
            }
            if f.duplicate_prob > 0.0 && self.rng.gen_bool(f.duplicate_prob.min(1.0)) {
                let (lo, hi) = f.delay_s;
                let extra = if hi > lo {
                    self.rng.gen_range(lo..hi)
                } else {
                    hi.max(0.0)
                };
                let base = fate.copies[0];
                fate.copies.push((base.0 + extra, base.1));
                fate.faults.push(fault(FaultKind::Duplicate));
            }
            if f.reorder_prob > 0.0 && self.rng.gen_bool(f.reorder_prob.min(1.0)) {
                let jitter = if f.reorder_jitter_s > 0.0 {
                    self.rng.gen_range(0.0..f.reorder_jitter_s)
                } else {
                    0.0
                };
                for copy in &mut fate.copies {
                    copy.0 += jitter;
                    copy.1 = true;
                }
                fate.faults.push(fault(FaultKind::Reorder));
            }
        }
        fate
    }

    /// Fires every kill due at `now` and returns the newly killed ranks.
    /// Idempotent: a fired kill never fires again.
    pub fn due_kills(&mut self, now: SimTime) -> Vec<Rank> {
        let mut newly = Vec::new();
        for (i, &(rank, at)) in self.plan.kills.iter().enumerate() {
            if self.kill_fired[i] || self.is_killed(rank) {
                continue;
            }
            if now >= at {
                self.kill_fired[i] = true;
                if let Some(k) = self.killed.get_mut(rank) {
                    *k = true;
                }
                newly.push(rank);
            }
        }
        newly
    }

    /// If `rank` activating at `t` falls inside a pause window, returns the
    /// deferred activation time and whether this is the window's first
    /// deferral (callers record the `Pause` fault exactly once per window).
    pub fn pause_deferral(&mut self, rank: Rank, t: SimTime) -> Option<(SimTime, bool)> {
        let mut deferred: Option<(SimTime, bool)> = None;
        for (i, &(r, from, until)) in self.plan.pauses.iter().enumerate() {
            if r == rank && t >= from && t < until {
                let first = !self.pause_noted[i];
                self.pause_noted[i] = true;
                let candidate = until;
                deferred = Some(match deferred {
                    Some((prev, was_first)) => (prev.max(candidate), was_first || first),
                    None => (candidate, first),
                });
            }
        }
        deferred
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_inert() {
        let plan = FaultPlan::seeded(1);
        assert!(plan.is_empty());
        let mut inj = FaultInjector::new(plan, 4);
        let fate = inj.on_send(0, 1, 0.0);
        assert_eq!(fate.copies, vec![(0.0, false)]);
        assert!(fate.faults.is_empty());
        assert!(inj.due_kills(1e9).is_empty());
        assert!(inj.pause_deferral(0, 5.0).is_none());
    }

    #[test]
    fn full_drop_kills_every_message_in_window() {
        let plan = FaultPlan::seeded(2).on_link(0, 1, LinkFaults::drop_all().during(1.0, 2.0));
        let mut inj = FaultInjector::new(plan, 2);
        // Outside the window: clean.
        assert_eq!(inj.on_send(0, 1, 0.5).copies.len(), 1);
        // Inside: dropped, and the fault is reported.
        let fate = inj.on_send(0, 1, 1.5);
        assert!(fate.copies.is_empty());
        assert_eq!(fate.faults.len(), 1);
        // Other direction untouched.
        assert_eq!(inj.on_send(1, 0, 1.5).copies.len(), 1);
    }

    #[test]
    fn duplicates_and_delays_accumulate_copies() {
        let plan =
            FaultPlan::seeded(3).on_link(0, 1, LinkFaults::delay(1.0, 0.5, 0.6).and_duplicate(1.0));
        let mut inj = FaultInjector::new(plan, 2);
        let fate = inj.on_send(0, 1, 0.0);
        assert_eq!(fate.copies.len(), 2);
        assert!(fate.copies[0].0 >= 0.5 && fate.copies[0].0 < 0.6);
        assert!(fate.copies[1].0 > fate.copies[0].0);
        assert_eq!(fate.faults.len(), 2);
    }

    #[test]
    fn reorder_marks_copies_as_overtaking() {
        let plan = FaultPlan::seeded(4).on_link(0, 1, LinkFaults::default().and_reorder(1.0, 0.25));
        let mut inj = FaultInjector::new(plan, 2);
        let fate = inj.on_send(0, 1, 0.0);
        assert_eq!(fate.copies.len(), 1);
        assert!(fate.copies[0].1, "reordered copies must overtake");
        assert!(fate.copies[0].0 < 0.25);
    }

    #[test]
    fn same_seed_same_fates() {
        let plan = || FaultPlan::seeded(9).on_path(0, 1, LinkFaults::drop(0.5).and_duplicate(0.3));
        let mut a = FaultInjector::new(plan(), 2);
        let mut b = FaultInjector::new(plan(), 2);
        for i in 0..64 {
            let t = i as f64 * 0.01;
            assert_eq!(a.on_send(0, 1, t), b.on_send(0, 1, t));
            assert_eq!(a.on_send(1, 0, t), b.on_send(1, 0, t));
        }
    }

    #[test]
    fn kills_fire_once_and_black_hole_traffic() {
        let plan = FaultPlan::seeded(5).kill_at(1, 2.0).kill_at(2, 4.0);
        let mut inj = FaultInjector::new(plan, 3);
        assert!(inj.due_kills(1.0).is_empty());
        assert_eq!(inj.due_kills(2.0), vec![1]);
        assert!(inj.is_killed(1));
        assert!(inj.due_kills(3.0).is_empty(), "kills fire once");
        // Messages to a dead rank vanish without being counted as new faults.
        let fate = inj.on_send(0, 1, 3.0);
        assert!(fate.copies.is_empty() && fate.faults.is_empty());
        assert_eq!(inj.due_kills(4.0), vec![2]);
    }

    #[test]
    fn pauses_defer_to_window_end_and_note_once() {
        let plan = FaultPlan::seeded(6).pause(1, 1.0, 3.0);
        let mut inj = FaultInjector::new(plan, 2);
        assert!(inj.pause_deferral(1, 0.5).is_none());
        assert_eq!(inj.pause_deferral(1, 1.5), Some((3.0, true)));
        assert_eq!(inj.pause_deferral(1, 2.0), Some((3.0, false)));
        assert!(inj.pause_deferral(0, 1.5).is_none());
        assert!(inj.pause_deferral(1, 3.0).is_none());
    }
}
