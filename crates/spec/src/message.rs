//! The pipeline message protocol.
//!
//! Every inference strategy in this reproduction — the iterative and
//! speculative baselines and PipeInfer itself — drives its target pipeline
//! with the same message enum.  One logical pipeline *transaction* of the
//! paper (a typed sequence of MPI sends issued under a single tag, §IV-A2)
//! is represented as one [`PipeMsg`] value: atomicity within a transaction
//! is then automatic, and the per-link FIFO ordering that both drivers
//! guarantee supplies the cross-transaction ordering the paper obtains from
//! MPI's non-overtaking rule.

use pi_cluster::WireMessage;
use pi_model::{Batch, Pos, SeqId, Token};
use pi_tensor::Tensor;

/// Identifier of an inference run travelling through the target pipeline.
pub type RunId = u64;

/// Whether a run carries speculative tokens or the single non-speculated
/// ("canonical") token.  Early inference cancellation treats the two
/// differently: non-speculative runs are always evaluated in full so that the
/// KV cache stays authoritative (paper §IV-D3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RunKind {
    /// Single-token inference of the pending (already accepted) token.
    NonSpeculative,
    /// Verification of speculated tokens.
    Speculative,
}

/// Activation tensors flowing between pipeline stages.
///
/// Real execution ships actual hidden states; simulated execution ships only
/// the size so the interconnect model can charge transfer time.  Cancelled
/// runs ship `Empty` payloads to preserve message ordering, exactly as the
/// paper keeps empty activation transfers for cancelled runs (§IV-D2).
#[derive(Debug, Clone)]
pub enum ActivationPayload {
    /// Real hidden states `[n_tokens, d_model]`.
    Real(Tensor),
    /// Simulated payload of the given size.
    Simulated {
        /// Number of tokens represented.
        tokens: usize,
        /// Size in bytes charged to the interconnect.
        bytes: u64,
    },
    /// Empty payload used by cancelled runs.
    Empty,
}

/// Topology of a speculation tree travelling with a decode transaction.
///
/// Tree verification ships the speculated tokens as one batch whose
/// sequence-id sets already encode the attention mask, but the head also
/// needs the per-node parent links to walk the deepest accepted path when
/// the result returns, and a real multi-process deployment would need them
/// to rebuild the mask.  `parents[i]` is the *batch index* of entry `i`'s
/// parent, or `None` for entries that directly continue the accepted
/// context (the pending token and, through it, the tree's roots).  Parents
/// always precede children (the batch is linearised parent-before-child).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeTopology {
    /// Per-batch-entry parent index.
    pub parents: Vec<Option<u32>>,
}

impl TreeTopology {
    /// Serialized size: a length word plus one parent word per entry.
    pub fn wire_bytes(&self) -> u64 {
        4 + 4 * self.parents.len() as u64
    }

    /// The wire topology of a [`pi_model::TokenTree`] (node-insertion order
    /// is parent-before-child by construction).
    pub fn from_tree(tree: &pi_model::TokenTree) -> Self {
        Self {
            parents: tree.parents().iter().map(|p| p.map(|i| i as u32)).collect(),
        }
    }

    /// Rebuilds the [`pi_model::TokenTree`] this topology describes from
    /// its wire nodes (`(token, confidence)` pairs in the same order).
    ///
    /// Panics if a parent index does not precede its node — the invariant
    /// every legal wire topology satisfies.
    pub fn to_tree(&self, nodes: &[(Token, f32)]) -> pi_model::TokenTree {
        let mut tree = pi_model::TokenTree::new();
        for (i, &(tok, prob)) in nodes.iter().enumerate() {
            let parent = self.parents.get(i).copied().flatten().map(|p| {
                let p = p as usize;
                assert!(p < i, "topology parent {p} does not precede node {i}");
                p
            });
            tree.add(parent, tok, prob);
        }
        tree
    }
}

impl ActivationPayload {
    /// Number of tokens the payload represents.
    pub fn tokens(&self) -> usize {
        match self {
            ActivationPayload::Real(t) => t.rows(),
            ActivationPayload::Simulated { tokens, .. } => *tokens,
            ActivationPayload::Empty => 0,
        }
    }

    /// Size in bytes for interconnect accounting.
    pub fn nbytes(&self) -> u64 {
        match self {
            ActivationPayload::Real(t) => t.nbytes() as u64,
            ActivationPayload::Simulated { bytes, .. } => *bytes,
            ActivationPayload::Empty => 0,
        }
    }

    /// The payload of batch entries `rows` alone: one request's share of a
    /// forest batch's activations.
    pub fn rows(&self, rows: std::ops::Range<usize>) -> ActivationPayload {
        match self {
            ActivationPayload::Real(t) => {
                let d = t.cols();
                let data = t.data()[rows.start * d..rows.end * d].to_vec();
                ActivationPayload::Real(
                    Tensor::from_vec(data, &[rows.len(), d]).expect("rows * d_model values"),
                )
            }
            ActivationPayload::Simulated { tokens, bytes } => ActivationPayload::Simulated {
                tokens: rows.len(),
                bytes: bytes / (*tokens).max(1) as u64 * rows.len() as u64,
            },
            ActivationPayload::Empty => ActivationPayload::Empty,
        }
    }
}

/// A KV-cache metadata operation, pipelined through the stages in the same
/// order as the activation traffic (paper §IV-C3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOp {
    /// Copy entries of `src` in `[p0, p1)` into `dst` (metadata only).
    SeqCp {
        /// Source sequence.
        src: SeqId,
        /// Destination sequence.
        dst: SeqId,
        /// First position (inclusive).
        p0: Pos,
        /// Last position (exclusive).
        p1: Pos,
    },
    /// Remove entries of `seq` in `[p0, p1)`.
    SeqRm {
        /// Sequence to remove from.
        seq: SeqId,
        /// First position (inclusive).
        p0: Pos,
        /// Last position (exclusive).
        p1: Pos,
    },
    /// Commit the accepted root-to-leaf path of a speculation tree: copy the
    /// entries of leaf sequence `path` in `[p0, p1)` into `dst`, then drop
    /// every tree sequence in `first .. first + n_seqs`, freeing the
    /// rejected sibling branches (see `KvCache::branch_commit`).
    BranchCommit {
        /// Destination (normally the canonical) sequence.
        dst: SeqId,
        /// Leaf sequence whose path contains every accepted node.
        path: SeqId,
        /// First tree sequence.
        first: SeqId,
        /// Number of tree sequences (= number of leaves).
        n_seqs: u32,
        /// First accepted position (inclusive).
        p0: Pos,
        /// One past the last accepted position (exclusive).
        p1: Pos,
    },
    /// Roll a speculation tree back entirely: drop every tree sequence in
    /// `first .. first + n_seqs` (see `KvCache::branch_rollback`).
    BranchRollback {
        /// First tree sequence.
        first: SeqId,
        /// Number of tree sequences.
        n_seqs: u32,
    },
}

/// Messages exchanged between ranks.
#[derive(Debug, Clone)]
pub enum PipeMsg {
    /// A decode transaction entering a pipeline stage: evaluate `batch` with
    /// the given input activations and forward the result.
    Decode {
        /// Run identifier.
        run_id: RunId,
        /// Run kind (speculative or not).
        kind: RunKind,
        /// Token batch (positions + sequence ids).
        batch: Batch,
        /// Input activations for this stage.
        payload: ActivationPayload,
        /// Per-node parent links when the run verifies a speculation tree;
        /// `None` for linear runs (prompts, single tokens and chains, which
        /// are degenerate single-branch trees whose topology is implicit in
        /// the batch order).
        tree: Option<TreeTopology>,
    },
    /// Final-stage output returning to the head for sampling/verification.
    RunResult {
        /// Run identifier.
        run_id: RunId,
        /// Output activations of the last stage.
        payload: ActivationPayload,
    },
    /// A pipelined KV-cache operation.
    Cache(CacheOp),
    /// Back-propagated early-cancellation signal for a run.
    Cancel {
        /// Run to cancel.
        run_id: RunId,
    },
    /// Request for the dedicated draft rank: speculate a tree micro-batch.
    DraftRequest {
        /// Monotonically increasing request sequence number; the reply
        /// echoes it so the head can drop responses to hypotheses it has
        /// since abandoned.
        request_id: u64,
        /// The head's current hypothesis: every accepted token followed by
        /// every token already speculated and dispatched for verification.
        /// The draft continues from the end of this sequence.
        context: Vec<Token>,
        /// Maximum number of root-level branches in the drafted tree
        /// (1 requests a plain chain).
        width: usize,
        /// Maximum depth of the primary branch (the micro-batch size).
        max_tokens: usize,
        /// Confidence cutoff for this request (continuous speculation adjusts
        /// it with the recovery/decay factors).
        confidence_cutoff: f32,
    },
    /// The draft rank's reply to a [`PipeMsg::DraftRequest`].
    DraftResponse {
        /// Echo of the request's sequence number.
        request_id: u64,
        /// Drafted tree nodes in parent-before-child order, with the draft
        /// model's confidence for each.
        nodes: Vec<(Token, f32)>,
        /// Per-node parent links of the drafted tree (same order as
        /// `nodes`) — the topology the head needs to rebuild the
        /// [`pi_model::TokenTree`].
        topology: TreeTopology,
        /// Context length the draft rank drafted from (echo for validation).
        context_len: usize,
    },
    /// Out-of-band signal to the draft rank: every draft request with
    /// sequence number `up_to` or below speculates from an invalidated
    /// hypothesis — drop it unserved.
    DraftCancel {
        /// Highest stale request sequence number.
        up_to: u64,
    },
    /// Orderly end of the run; forwarded along the pipeline.
    Shutdown,
}

impl WireMessage for PipeMsg {
    fn priority(&self) -> bool {
        matches!(self, PipeMsg::Cancel { .. } | PipeMsg::DraftCancel { .. })
    }

    fn is_draft(&self) -> bool {
        matches!(
            self,
            PipeMsg::DraftRequest { .. }
                | PipeMsg::DraftResponse { .. }
                | PipeMsg::DraftCancel { .. }
        )
    }

    fn wire_bytes(&self) -> u64 {
        match self {
            PipeMsg::Decode {
                batch,
                payload,
                tree,
                ..
            } => {
                16 + batch.wire_bytes()
                    + payload.nbytes()
                    + tree.as_ref().map_or(0, TreeTopology::wire_bytes)
            }
            PipeMsg::RunResult { payload, .. } => 12 + payload.nbytes(),
            PipeMsg::Cache(CacheOp::BranchCommit { .. }) => 28,
            PipeMsg::Cache(CacheOp::BranchRollback { .. }) => 16,
            PipeMsg::Cache(_) => 20,
            PipeMsg::Cancel { .. } => 12,
            // request_id + width + max_tokens + cutoff + length word, then
            // one token word per context entry.
            PipeMsg::DraftRequest { context, .. } => 24 + 4 * context.len() as u64,
            // request_id + context_len + (token, confidence) pairs + the
            // per-node parent topology.
            PipeMsg::DraftResponse {
                nodes, topology, ..
            } => 16 + 8 * nodes.len() as u64 + topology.wire_bytes(),
            PipeMsg::DraftCancel { .. } => 12,
            PipeMsg::Shutdown => 4,
        }
    }
}

/// Message tags (informational; ordering is per-link regardless of tag).
pub mod tags {
    /// Decode transactions.
    pub const DECODE: u32 = 1;
    /// Run results returning to the head.
    pub const RESULT: u32 = 2;
    /// Cache operations.
    pub const CACHE: u32 = 3;
    /// Cancellation signals.
    pub const CANCEL: u32 = 4;
    /// Draft requests/responses.
    pub const DRAFT: u32 = 5;
    /// Shutdown.
    pub const SHUTDOWN: u32 = 6;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_token_counts_and_sizes() {
        let real = ActivationPayload::Real(Tensor::zeros(&[3, 8]));
        assert_eq!(real.tokens(), 3);
        assert_eq!(real.nbytes(), 3 * 8 * 4);
        let sim = ActivationPayload::Simulated {
            tokens: 5,
            bytes: 999,
        };
        assert_eq!(sim.tokens(), 5);
        assert_eq!(sim.nbytes(), 999);
        assert_eq!(ActivationPayload::Empty.tokens(), 0);
        assert_eq!(ActivationPayload::Empty.nbytes(), 0);
    }

    #[test]
    fn decode_wire_bytes_include_batch_and_payload() {
        let batch = Batch::prompt(&[1, 2, 3], 0, 0);
        let msg = PipeMsg::Decode {
            run_id: 1,
            kind: RunKind::Speculative,
            batch: batch.clone(),
            payload: ActivationPayload::Simulated {
                tokens: 3,
                bytes: 1000,
            },
            tree: None,
        };
        assert_eq!(msg.wire_bytes(), 16 + batch.wire_bytes() + 1000);
    }

    #[test]
    fn tree_topology_is_charged_on_the_wire() {
        let batch = Batch::prompt(&[1, 2, 3], 0, 0);
        let topology = TreeTopology {
            parents: vec![None, Some(0), Some(0)],
        };
        assert_eq!(topology.wire_bytes(), 4 + 4 * 3);
        let linear = PipeMsg::Decode {
            run_id: 1,
            kind: RunKind::Speculative,
            batch: batch.clone(),
            payload: ActivationPayload::Empty,
            tree: None,
        };
        let treed = PipeMsg::Decode {
            run_id: 1,
            kind: RunKind::Speculative,
            batch,
            payload: ActivationPayload::Empty,
            tree: Some(topology),
        };
        assert_eq!(treed.wire_bytes(), linear.wire_bytes() + 16);
    }

    #[test]
    fn branch_cache_ops_have_fixed_wire_sizes() {
        let commit = PipeMsg::Cache(CacheOp::BranchCommit {
            dst: 0,
            path: 2,
            first: 1,
            n_seqs: 3,
            p0: 10,
            p1: 14,
        });
        assert_eq!(commit.wire_bytes(), 28);
        let rollback = PipeMsg::Cache(CacheOp::BranchRollback {
            first: 1,
            n_seqs: 3,
        });
        assert_eq!(rollback.wire_bytes(), 16);
        assert!(!commit.priority() && !rollback.priority());
    }

    #[test]
    fn cancelled_run_payload_is_cheap() {
        let msg = PipeMsg::RunResult {
            run_id: 9,
            payload: ActivationPayload::Empty,
        };
        assert!(msg.wire_bytes() < 20);
    }

    #[test]
    fn control_messages_are_small() {
        assert!(PipeMsg::Cancel { run_id: 3 }.wire_bytes() < 16);
        assert!(PipeMsg::Shutdown.wire_bytes() < 8);
        let rm = CacheOp::SeqRm {
            seq: 0,
            p0: 0,
            p1: 1,
        };
        assert!(PipeMsg::Cache(rm).wire_bytes() < 32);
    }

    #[test]
    fn only_cancellation_signals_are_out_of_band() {
        assert!(PipeMsg::Cancel { run_id: 3 }.priority());
        assert!(PipeMsg::DraftCancel { up_to: 3 }.priority());
        assert!(!PipeMsg::Shutdown.priority());
        let rm = CacheOp::SeqRm {
            seq: 0,
            p0: 0,
            p1: 1,
        };
        assert!(!PipeMsg::Cache(rm).priority());
        assert!(!PipeMsg::RunResult {
            run_id: 1,
            payload: ActivationPayload::Empty
        }
        .priority());
    }

    #[test]
    fn draft_messages_scale_with_token_count_and_topology() {
        let req = PipeMsg::DraftRequest {
            request_id: 7,
            context: vec![1, 2, 3, 4, 5],
            width: 2,
            max_tokens: 4,
            confidence_cutoff: 0.4,
        };
        assert_eq!(req.wire_bytes(), 24 + 4 * 5);
        let resp = PipeMsg::DraftResponse {
            request_id: 7,
            nodes: vec![(1, 0.9), (2, 0.8)],
            topology: TreeTopology {
                parents: vec![None, Some(0)],
            },
            context_len: 10,
        };
        assert_eq!(resp.wire_bytes(), 16 + 16 + (4 + 4 * 2));
        assert!(PipeMsg::DraftCancel { up_to: 7 }.wire_bytes() < 16);
    }

    #[test]
    fn draft_protocol_traffic_is_classified() {
        assert!(PipeMsg::DraftRequest {
            request_id: 0,
            context: vec![],
            width: 1,
            max_tokens: 1,
            confidence_cutoff: 0.0,
        }
        .is_draft());
        assert!(PipeMsg::DraftResponse {
            request_id: 0,
            nodes: vec![],
            topology: TreeTopology { parents: vec![] },
            context_len: 0,
        }
        .is_draft());
        assert!(PipeMsg::DraftCancel { up_to: 0 }.is_draft());
        assert!(!PipeMsg::Shutdown.is_draft());
        assert!(!PipeMsg::Cancel { run_id: 1 }.is_draft());
    }

    #[test]
    fn run_kind_equality() {
        assert_ne!(RunKind::Speculative, RunKind::NonSpeculative);
    }
}
