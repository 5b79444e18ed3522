//! Both drivers keep the same per-rank ledger.
//!
//! One fault-free relay ring runs on `SimDriver` and on `ThreadedDriver`
//! (with a frozen `ManualClock`, so a threaded run stamps nothing but zeros).
//! Every counter a rank's behaviour causes — messages and bytes each way, the
//! draft-protocol subset, skipped work and charged compute — must agree rank
//! by rank, and so must each rank's sequence of recorded event kinds once
//! timestamps and `blocked` waits (which depend on the schedule) are left out.

use pi_cluster::sim::SimDriver;
use pi_cluster::threaded::ThreadedDriver;
use pi_cluster::{
    trace_if, ClusterStats, EventKind, LinkSpec, ManualClock, NodeBehavior, NodeCtx, Rank, Tag,
    Topology, Trace, TraceConfig, WireMessage,
};
use std::any::Any;
use std::sync::Arc;
use std::time::Duration;

const RANKS: usize = 4;
const ROUNDS: u32 = 6;
const STOP: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Hop {
    round: u32,
    bytes: u64,
    draft: bool,
}

impl WireMessage for Hop {
    fn wire_bytes(&self) -> u64 {
        self.bytes
    }
    fn is_draft(&self) -> bool {
        self.draft
    }
}

/// Rank 0 starts `ROUNDS` laps of the ring, every odd one on the draft
/// protocol; each relay charges compute, marks one lap in three with an
/// event of its own and forwards.  After the last lap rank 0 stops everyone.
struct Relay {
    rank: Rank,
    next_round: u32,
    finished: bool,
}

impl Relay {
    fn lap(round: u32) -> Hop {
        Hop {
            round,
            bytes: 1000 + u64::from(round),
            draft: round % 2 == 1,
        }
    }
}

impl NodeBehavior<Hop> for Relay {
    fn on_start(&mut self, ctx: &mut dyn NodeCtx<Hop>) {
        if self.rank == 0 {
            ctx.send(1, 0, Self::lap(0));
            self.next_round = 1;
        }
    }

    fn on_message(&mut self, _src: Rank, _tag: Tag, msg: Hop, ctx: &mut dyn NodeCtx<Hop>) {
        if msg.round == STOP {
            self.finished = true;
            return;
        }
        ctx.elapse(0.001 * (self.rank + 1) as f64);
        if msg.round.is_multiple_of(3) {
            trace_if(ctx, || EventKind::RunSkipped {
                run: u64::from(msg.round),
            });
        }
        if self.rank != 0 {
            ctx.send((self.rank + 1) % RANKS, 0, msg);
        } else if self.next_round < ROUNDS {
            ctx.send(1, 0, Self::lap(self.next_round));
            self.next_round += 1;
        } else {
            for r in 1..RANKS {
                let stop = Hop {
                    round: STOP,
                    bytes: 8,
                    draft: false,
                };
                ctx.send(r, 9, stop);
            }
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

fn ring() -> Vec<Box<dyn NodeBehavior<Hop>>> {
    (0..RANKS)
        .map(|rank| {
            Box::new(Relay {
                rank,
                next_round: 0,
                finished: false,
            }) as Box<dyn NodeBehavior<Hop>>
        })
        .collect()
}

/// Each rank's event kinds in recorded order, `blocked` waits left out.
fn kinds(trace: &Trace, rank: Rank) -> Vec<&'static str> {
    trace
        .events()
        .iter()
        .filter(|e| e.rank as usize == rank && !matches!(e.kind, EventKind::Blocked { .. }))
        .map(|e| e.kind.name())
        .collect()
}

fn assert_same_ledger(sim: &ClusterStats, threaded: &ClusterStats) {
    assert_eq!(sim.nodes.len(), threaded.nodes.len());
    for (rank, (s, t)) in sim.nodes.iter().zip(&threaded.nodes).enumerate() {
        let counters = |n: &pi_cluster::NodeStats| {
            [
                n.messages_sent,
                n.messages_received,
                n.bytes_sent,
                n.draft_messages_sent,
                n.draft_bytes_sent,
                n.cancellations_saved,
            ]
        };
        assert_eq!(counters(s), counters(t), "rank {rank}");
        assert_eq!(s.busy_time, t.busy_time, "rank {rank}");
    }
}

#[test]
fn sim_and_threaded_drivers_keep_the_same_ledger() {
    let sim = SimDriver::new(Topology::uniform(RANKS, LinkSpec::new(1e-4, 1e8)))
        .with_trace(TraceConfig::default())
        .run(ring());
    assert!(sim.completed());
    let threaded = ThreadedDriver::new()
        .with_timeout(Duration::from_secs(20))
        .with_clock(Arc::new(ManualClock::new(3.0)))
        .with_trace(TraceConfig::default())
        .run(ring());
    assert!(threaded.completed);

    assert_same_ledger(&sim.stats, &threaded.stats);
    let head = &sim.stats.nodes[0];
    assert_eq!(head.messages_sent, u64::from(ROUNDS) + RANKS as u64 - 1);
    assert_eq!(head.draft_messages_sent, u64::from(ROUNDS / 2));
    assert!(sim.stats.nodes.iter().all(|n| n.busy_time > 0.0));

    let sim = sim.trace.expect("a traced Sim run carries its trace");
    let threaded = threaded
        .trace
        .expect("a traced threaded run carries its trace");
    for rank in 0..RANKS {
        let expected = kinds(&sim, rank);
        assert!(expected.contains(&"run_skipped"), "rank {rank}");
        assert_eq!(expected.last(), Some(&"rank_finished"), "rank {rank}");
        assert_eq!(expected, kinds(&threaded, rank), "rank {rank}");
    }
}
