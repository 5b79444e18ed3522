//! Test support shared by this crate's unit tests: the two execution modes
//! the deployment tests run under, the one recording [`NodeCtx`], a
//! pass-through pipeline that drives a head to completion, and a hash of the
//! wire transcript a head leaves behind.

use crate::deploy::ExecutionMode;
use crate::message::{tags, ActivationPayload, CacheOp, PipeMsg, RunKind};
use pi_cluster::{NodeBehavior, NodeCtx, Rank, Tag};
use pi_model::{Model, ModelConfig};
use pi_perf::{ClusterSpec, ModelPair};
use std::sync::Arc;

/// The simulated Dolphin/TinyLlama pair on `n_nodes` cluster-C nodes.
pub(crate) fn sim_mode(n_nodes: usize) -> ExecutionMode {
    ExecutionMode::Sim {
        pair: ModelPair::dolphin_tinyllama(),
        cluster: ClusterSpec::cluster_c(n_nodes),
        oracle_seed: 42,
    }
}

/// A random four-layer tiny target with a slightly perturbed draft.
pub(crate) fn real_mode(seed: u64) -> ExecutionMode {
    let cfg = ModelConfig::tiny_llama(64, 4);
    let target = Arc::new(Model::random(cfg.clone(), seed));
    let draft = Arc::new(Model::new(cfg, target.weights().perturbed(0.02, seed + 1)));
    ExecutionMode::Real { target, draft }
}

/// One message a behavior sent, with the virtual time it was sent at.
pub(crate) struct Sent {
    pub at: f64,
    pub dst: Rank,
    pub tag: Tag,
    pub msg: PipeMsg,
}

/// A [`NodeCtx`] that records every send and advances a virtual clock on
/// every `elapse`.
pub(crate) struct TestCtx {
    rank: Rank,
    world_size: usize,
    pub now: f64,
    pub sent: Vec<Sent>,
}

impl TestCtx {
    pub fn new(rank: Rank, world_size: usize) -> Self {
        Self {
            rank,
            world_size,
            now: 0.0,
            sent: Vec::new(),
        }
    }

    /// The cache operations sent so far, in order.
    pub fn cache_ops(&self) -> Vec<CacheOp> {
        self.sent
            .iter()
            .filter_map(|s| match s.msg {
                PipeMsg::Cache(op) => Some(op),
                _ => None,
            })
            .collect()
    }
}

impl NodeCtx<PipeMsg> for TestCtx {
    fn rank(&self) -> Rank {
        self.rank
    }
    fn world_size(&self) -> usize {
        self.world_size
    }
    fn now(&self) -> f64 {
        self.now
    }
    fn send(&mut self, dst: Rank, tag: Tag, msg: PipeMsg) {
        self.sent.push(Sent {
            at: self.now,
            dst,
            tag,
            msg,
        });
    }
    fn elapse(&mut self, seconds: f64) {
        self.now += seconds;
    }
}

/// Starts `head` and plays the rest of the pipeline as a pass-through (see
/// [`answer_decodes`]).  Returns when the head has nothing left in flight.
pub(crate) fn drive(head: &mut dyn NodeBehavior<PipeMsg>, ctx: &mut TestCtx, delay: f64) {
    head.on_start(ctx);
    answer_decodes(head, ctx, delay);
}

/// The pass-through pipeline: every `Decode` in `ctx.sent`, and every one
/// the head sends in response, comes back `delay` seconds later as an empty
/// `RunResult` (simulated head engines ignore the payload); everything else
/// is swallowed.
pub(crate) fn answer_decodes(head: &mut dyn NodeBehavior<PipeMsg>, ctx: &mut TestCtx, delay: f64) {
    let mut next = 0;
    while next < ctx.sent.len() {
        assert!(next < 10_000, "protocol did not converge");
        if let PipeMsg::Decode { run_id, .. } = ctx.sent[next].msg {
            ctx.now += delay;
            let result = PipeMsg::RunResult {
                run_id,
                payload: ActivationPayload::Empty,
            };
            head.on_message(1, tags::RESULT, result, ctx);
        }
        next += 1;
    }
}

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 = (self.0 ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn words(&mut self, ws: impl IntoIterator<Item = u64>) {
        for w in ws {
            self.word(w);
        }
    }
}

/// Hash of the ordered wire transcript: for every send its time, destination
/// and tag, then the message kind with its run id, run kind, every batch
/// entry (token, position, sequence set, logits flag), the tree topology and
/// the cache operation's fields.  Activation payloads are left out (the
/// simulated ones are a function of the batch).
pub(crate) fn transcript_hash(sent: &[Sent]) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for s in sent {
        h.words([s.at.to_bits(), s.dst as u64, s.tag as u64]);
        match &s.msg {
            PipeMsg::Decode {
                run_id,
                kind,
                batch,
                tree,
                ..
            } => {
                let kind = match kind {
                    RunKind::NonSpeculative => 0,
                    RunKind::Speculative => 1,
                };
                h.words([1, *run_id, kind, batch.len() as u64]);
                for e in batch.iter() {
                    h.words([e.token as u64, e.pos as u64, e.logits as u64]);
                    h.word(e.seq_ids.len() as u64);
                    h.words(e.seq_ids.iter().map(|&s| s as u64));
                }
                match tree {
                    None => h.word(0),
                    Some(t) => {
                        h.word(1 + t.parents.len() as u64);
                        h.words(t.parents.iter().map(|p| p.map_or(u64::MAX, u64::from)));
                    }
                }
            }
            PipeMsg::Cache(op) => {
                h.word(2);
                match *op {
                    CacheOp::SeqCp { src, dst, p0, p1 } => {
                        h.words([0, src as u64, dst as u64, p0 as u64, p1 as u64])
                    }
                    CacheOp::SeqRm { seq, p0, p1 } => {
                        h.words([1, seq as u64, p0 as u64, p1 as u64])
                    }
                    CacheOp::BranchCommit {
                        dst,
                        path,
                        first,
                        n_seqs,
                        p0,
                        p1,
                    } => h.words([
                        3,
                        dst as u64,
                        path as u64,
                        first as u64,
                        n_seqs as u64,
                        p0 as u64,
                        p1 as u64,
                    ]),
                    CacheOp::BranchRollback { first, n_seqs } => {
                        h.words([4, first as u64, n_seqs as u64])
                    }
                }
            }
            PipeMsg::Shutdown => h.word(3),
            other => panic!("a synchronous head never sends {other:?}"),
        }
    }
    h.0
}
