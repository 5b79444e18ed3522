//! Speculation token trees — the canonical speculation unit.
//!
//! Every speculation in the workspace is a [`TokenTree`]: the tree-shaped
//! drafts of `pi_spec`'s TreeSpeculation strategy, and the flat chains of the
//! SpecInfer-style baseline and PipeInfer's continuous micro-batches, which
//! are just degenerate single-branch trees (a drafter's width-1 tree, and
//! [`TokenTree::chain_of`] for runs that speculate nothing).  A
//! [`TokenTree`] stores the speculated tokens, their parent links and the
//! draft model's confidence for each, and can linearise itself into a
//! [`Batch`] whose sequence-id sets encode the tree attention mask (mutually
//! exclusive branches never share a sequence id, shared prefixes carry the
//! union of their descendants' ids).

use crate::batch::Batch;
use crate::{Pos, SeqId, Token};

/// Identifier of a node within a [`TokenTree`].
pub type TreeNodeId = usize;

/// One speculated token.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeNode {
    /// The speculated token.
    pub token: Token,
    /// Parent node, or `None` for a root (depth-0) node.
    pub parent: Option<TreeNodeId>,
    /// Draft-model confidence (max softmax probability) for this token.
    pub prob: f32,
    /// Children of this node.
    pub children: Vec<TreeNodeId>,
    /// Depth within the tree (0 for roots).
    pub depth: usize,
}

/// A tree of speculated tokens rooted just after the last accepted token.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TokenTree {
    nodes: Vec<TreeNode>,
}

impl TokenTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a linear chain from plain tokens (probability 1.0 each) — the
    /// shape of non-speculative runs (prompts, pending tokens) once every
    /// run is represented as a tree.
    pub fn chain_of(tokens: &[Token]) -> Self {
        let mut tree = Self::new();
        let mut parent = None;
        for &tok in tokens {
            parent = Some(tree.add(parent, tok, 1.0));
        }
        tree
    }

    /// The tokens in node-insertion (parent-before-child) order; for a
    /// single-branch tree this is the chain itself.
    pub fn tokens(&self) -> Vec<Token> {
        self.nodes.iter().map(|n| n.token).collect()
    }

    /// Adds a node under `parent` (or as a root if `parent` is `None`).
    pub fn add(&mut self, parent: Option<TreeNodeId>, token: Token, prob: f32) -> TreeNodeId {
        let depth = parent.map(|p| self.nodes[p].depth + 1).unwrap_or(0);
        let id = self.nodes.len();
        self.nodes.push(TreeNode {
            token,
            parent,
            prob,
            children: Vec::new(),
            depth,
        });
        if let Some(p) = parent {
            self.nodes[p].children.push(id);
        }
        id
    }

    /// Number of nodes (speculated tokens).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All nodes, indexed by [`TreeNodeId`].
    pub fn nodes(&self) -> &[TreeNode] {
        &self.nodes
    }

    /// Node ids of the depth-0 roots.
    pub fn roots(&self) -> Vec<TreeNodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.parent.is_none())
            .map(|(i, _)| i)
            .collect()
    }

    /// Parent link of every node, indexed by [`TreeNodeId`] — the per-node
    /// topology shipped alongside tree batches on the wire.
    pub fn parents(&self) -> Vec<Option<TreeNodeId>> {
        self.nodes.iter().map(|n| n.parent).collect()
    }

    /// Node ids of the primary spine: the first root followed by the chain
    /// of first children — the branch the greedy draft proposed, and the
    /// path PipeInfer's continuous speculation extends its hypothesis with.
    /// Empty for an empty tree.
    pub fn spine(&self) -> Vec<TreeNodeId> {
        let mut spine = Vec::new();
        let mut cur = self.roots().first().copied();
        while let Some(id) = cur {
            spine.push(id);
            cur = self.nodes[id].children.first().copied();
        }
        spine
    }

    /// The subtree hanging below `node`, re-rooted as a standalone tree:
    /// `node`'s children become depth-0 roots and their descendants follow,
    /// preserving parent-before-child order.  Used to salvage the unused
    /// tail of a draft whose leading tokens have already been accepted.
    pub fn subtree_below(&self, node: TreeNodeId) -> TokenTree {
        let mut map: Vec<Option<TreeNodeId>> = vec![None; self.nodes.len()];
        let mut out = TokenTree::new();
        for (id, n) in self.nodes.iter().enumerate() {
            let new_parent = match n.parent {
                Some(p) if p == node => Some(None),
                Some(p) => map[p].map(Some),
                None => None,
            };
            if let Some(parent) = new_parent {
                map[id] = Some(out.add(parent, n.token, n.prob));
            }
        }
        out
    }

    /// Node ids of the leaves.
    pub fn leaves(&self) -> Vec<TreeNodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.children.is_empty())
            .map(|(i, _)| i)
            .collect()
    }

    /// Maximum depth of any node plus one, i.e. the number of token
    /// positions the tree spans (0 for an empty tree).
    pub fn span(&self) -> usize {
        self.nodes.iter().map(|n| n.depth + 1).max().unwrap_or(0)
    }

    /// The path of node ids from a depth-0 root down to `leaf` (inclusive).
    pub fn path_to(&self, leaf: TreeNodeId) -> Vec<TreeNodeId> {
        let mut path = vec![leaf];
        let mut cur = leaf;
        while let Some(p) = self.nodes[cur].parent {
            path.push(p);
            cur = p;
        }
        path.reverse();
        path
    }

    /// The token sequence along the path to `leaf`.
    pub fn sequence_to(&self, leaf: TreeNodeId) -> Vec<Token> {
        self.path_to(leaf)
            .iter()
            .map(|&i| self.nodes[i].token)
            .collect()
    }

    /// Assigns one sequence id per leaf, starting from `first_seq`, and
    /// returns for every node the set of sequence ids of the leaves reachable
    /// from it.  Shared prefixes therefore belong to every branch that passes
    /// through them, which is exactly the metadata the KV cache uses to build
    /// the tree attention mask.
    pub fn assign_sequences(&self, first_seq: SeqId) -> Vec<Vec<SeqId>> {
        let leaves = self.leaves();
        let mut node_seqs: Vec<Vec<SeqId>> = vec![Vec::new(); self.nodes.len()];
        for (li, &leaf) in leaves.iter().enumerate() {
            let seq = first_seq + li as SeqId;
            for id in self.path_to(leaf) {
                node_seqs[id].push(seq);
            }
        }
        node_seqs
    }

    /// Linearises the tree into a [`Batch`] whose tokens appear in
    /// parent-before-child order (node insertion order guarantees this),
    /// with positions `base_pos + depth`, sequence ids from
    /// [`TokenTree::assign_sequences`] and logits requested for every token
    /// (verification needs the target distribution at every tree position).
    pub fn to_batch(&self, base_pos: Pos, first_seq: SeqId) -> Batch {
        let seqs = self.assign_sequences(first_seq);
        let mut batch = Batch::new();
        for (id, node) in self.nodes.iter().enumerate() {
            batch.push(
                node.token,
                base_pos + node.depth as Pos,
                seqs[id].clone(),
                true,
            );
        }
        batch
    }

    /// Number of sequence-id slots the batch for this tree will occupy
    /// (= number of leaves).
    pub fn n_sequences(&self) -> usize {
        self.leaves().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the tree:
    /// ```text
    ///      a(10)
    ///     /    \
    ///  b(11)   c(12)
    ///    |
    ///  d(13)
    /// ```
    fn sample_tree() -> TokenTree {
        let mut t = TokenTree::new();
        let a = t.add(None, 10, 0.9);
        let b = t.add(Some(a), 11, 0.8);
        let _c = t.add(Some(a), 12, 0.5);
        let _d = t.add(Some(b), 13, 0.7);
        t
    }

    #[test]
    fn chain_builds_linear_tree() {
        let t = TokenTree::chain_of(&[1, 2, 3]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.leaves(), vec![2]);
        assert_eq!(t.span(), 3);
        assert_eq!(t.sequence_to(2), vec![1, 2, 3]);
        assert_eq!(t.tokens(), vec![1, 2, 3]);
        assert_eq!(t.parents(), vec![None, Some(0), Some(1)]);
        assert!(t.nodes().iter().all(|n| n.prob == 1.0));
    }

    #[test]
    fn leaves_and_span() {
        let t = sample_tree();
        assert_eq!(t.leaves(), vec![2, 3]);
        assert_eq!(t.span(), 3);
    }

    #[test]
    fn roots_and_parents() {
        let t = sample_tree();
        assert_eq!(t.roots(), vec![0]);
        assert_eq!(t.parents(), vec![None, Some(0), Some(0), Some(1)]);
        let mut multi = TokenTree::new();
        multi.add(None, 1, 0.5);
        multi.add(None, 2, 0.5);
        assert_eq!(multi.roots(), vec![0, 1]);
    }

    #[test]
    fn spine_follows_first_children() {
        let t = sample_tree();
        // First root (a), then its first child (b), then b's first child (d).
        assert_eq!(t.spine(), vec![0, 1, 3]);
        let chain = TokenTree::chain_of(&[5, 6, 7]);
        assert_eq!(chain.spine(), vec![0, 1, 2]);
        assert!(TokenTree::new().spine().is_empty());
        // Runner-up roots never appear on the spine.
        let mut multi = TokenTree::new();
        let a = multi.add(None, 1, 0.9);
        multi.add(None, 2, 0.5);
        multi.add(Some(a), 3, 0.8);
        assert_eq!(multi.spine(), vec![0, 2]);
    }

    #[test]
    fn subtree_below_reroots_descendants() {
        let t = sample_tree();
        // Below the root a: children b, c become roots; d follows b.
        let below = t.subtree_below(0);
        assert_eq!(below.tokens(), vec![11, 12, 13]);
        assert_eq!(below.roots().len(), 2);
        assert_eq!(below.parents(), vec![None, None, Some(0)]);
        // Below a leaf: empty.
        assert!(t.subtree_below(3).is_empty());
        // Chains lose exactly their head.
        let chain = TokenTree::chain_of(&[1, 2, 3]);
        assert_eq!(chain.subtree_below(0).tokens(), vec![2, 3]);
    }

    #[test]
    fn path_and_sequence() {
        let t = sample_tree();
        assert_eq!(t.path_to(3), vec![0, 1, 3]);
        assert_eq!(t.sequence_to(3), vec![10, 11, 13]);
        assert_eq!(t.sequence_to(2), vec![10, 12]);
    }

    #[test]
    fn sequence_assignment_gives_prefix_union() {
        let t = sample_tree();
        let seqs = t.assign_sequences(4);
        // Leaves are nodes 2 and 3 → sequences 4 and 5 (in leaf order).
        assert_eq!(seqs[2], vec![4]);
        assert_eq!(seqs[3], vec![5]);
        // Node b (id 1) is only on the path to leaf d → sequence 5.
        assert_eq!(seqs[1], vec![5]);
        // Root a is shared by both branches.
        let mut root = seqs[0].clone();
        root.sort_unstable();
        assert_eq!(root, vec![4, 5]);
    }

    #[test]
    fn to_batch_positions_and_order() {
        let t = sample_tree();
        let b = t.to_batch(100, 1);
        assert_eq!(b.len(), 4);
        let entries = b.entries();
        assert_eq!(entries[0].pos, 100);
        assert_eq!(entries[1].pos, 101);
        assert_eq!(entries[2].pos, 101);
        assert_eq!(entries[3].pos, 102);
        // Parent-before-child ordering.
        assert_eq!(b.tokens(), vec![10, 11, 12, 13]);
        assert!(entries.iter().all(|e| e.logits));
    }

    #[test]
    fn branches_never_share_sequences() {
        let t = sample_tree();
        let seqs = t.assign_sequences(0);
        // Node 1 (branch via b) and node 2 (branch via c) are mutually
        // exclusive: no common sequence id.
        assert!(seqs[1].iter().all(|s| !seqs[2].contains(s)));
    }

    #[test]
    fn empty_tree() {
        let t = TokenTree::new();
        assert!(t.is_empty());
        assert_eq!(t.span(), 0);
        assert_eq!(t.n_sequences(), 0);
        assert!(t.to_batch(0, 0).is_empty());
    }
}
