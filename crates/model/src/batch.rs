//! Inference batches.
//!
//! A [`Batch`] is the unit of work submitted to a pipeline: a set of tokens,
//! each with a position, a set of sequence identifiers it belongs to, and a
//! flag saying whether logits must be produced for it.  This mirrors
//! llama.cpp's `llama_batch`, which is what both the speculative-inference
//! baseline and PipeInfer drive their pipelines with.

use crate::{Pos, SeqId, Token};

/// One token's worth of batch metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchEntry {
    /// The token id.
    pub token: Token,
    /// Position of the token within its sequence(s).
    pub pos: Pos,
    /// Sequences this token belongs to.  A token shared by several branches
    /// of a speculation tree lists every branch's sequence id.
    pub seq_ids: Vec<SeqId>,
    /// Whether the model must return logits for this token.
    pub logits: bool,
    /// KV-cache lane this entry is stored into and attends over.  Single
    /// requests use lane 0 (the default everywhere); a *forest* batch built
    /// by [`Batch::append_lane`] gives each fused request its own lane, so
    /// positions and sequence ids are interpreted per lane and identical
    /// (pos, seq) pairs in different lanes never alias.  Lanes are
    /// process-local scheduling metadata: they are not serialized by
    /// [`Batch::wire_bytes`] because forest batches never cross the wire.
    pub lane: usize,
}

/// A batch of tokens submitted to the model as one evaluation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Batch {
    entries: Vec<BatchEntry>,
}

impl Batch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a batch holding a single token in a single sequence, with
    /// logits requested — the shape of every non-speculative decode step.
    pub fn single(token: Token, pos: Pos, seq: SeqId) -> Self {
        let mut b = Self::new();
        b.push(token, pos, vec![seq], true);
        b
    }

    /// Creates a prompt-processing batch: all tokens in sequence `seq` at
    /// consecutive positions starting from `start_pos`, logits only for the
    /// last token.
    pub fn prompt(tokens: &[Token], start_pos: Pos, seq: SeqId) -> Self {
        let mut b = Self::new();
        for (i, &t) in tokens.iter().enumerate() {
            let last = i + 1 == tokens.len();
            b.push(t, start_pos + i as Pos, vec![seq], last);
        }
        b
    }

    /// Appends a token to the batch in lane 0.
    pub fn push(&mut self, token: Token, pos: Pos, seq_ids: Vec<SeqId>, logits: bool) {
        self.entries.push(BatchEntry {
            token,
            pos,
            seq_ids,
            logits,
            lane: 0,
        });
    }

    /// Appends every entry of `sub` re-homed into `lane`, preserving order.
    ///
    /// This is how a cohort scheduler fuses per-request sub-batches into one
    /// forest batch: each request keeps its own positions and sequence ids
    /// (both are lane-local), and [`Batch::level_groups`] keeps same-lane
    /// ordering constraints while treating cross-lane entries as
    /// independent.
    pub fn append_lane(&mut self, sub: &Batch, lane: usize) {
        self.entries
            .extend(sub.entries.iter().map(|e| BatchEntry { lane, ..e.clone() }));
    }

    /// One past the largest lane index in the batch (0 for an empty batch):
    /// the minimum length of the per-lane cache slice a fused forward needs.
    /// Cohort schedulers assign dense lanes, so this doubles as the cohort
    /// width of a forest batch.
    pub fn lane_count(&self) -> usize {
        self.entries.iter().map(|e| e.lane + 1).max().unwrap_or(0)
    }

    /// Number of tokens in the batch.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the batch holds no tokens.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterator over the batch entries.
    pub fn iter(&self) -> impl Iterator<Item = &BatchEntry> {
        self.entries.iter()
    }

    /// The entries as a slice.
    pub fn entries(&self) -> &[BatchEntry] {
        &self.entries
    }

    /// Indices of entries for which logits were requested.
    pub fn logit_indices(&self) -> Vec<usize> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| if e.logits { Some(i) } else { None })
            .collect()
    }

    /// Smallest token position in the batch, if any.
    pub fn min_pos(&self) -> Option<Pos> {
        self.entries.iter().map(|e| e.pos).min()
    }

    /// All tokens in batch order.
    pub fn tokens(&self) -> Vec<Token> {
        self.entries.iter().map(|e| e.token).collect()
    }

    /// Splits the batch into maximal contiguous runs of entries that can be
    /// evaluated **together** — all of a run's K/V cells stored before any of
    /// its attention — without changing what any entry attends over.
    ///
    /// Sequentially, entry `i` never sees the cell of a later entry `j`
    /// because it is not stored yet.  With the whole run stored up front,
    /// `i` would see `j`'s cell exactly when the cache's visibility filter
    /// admits it: `pos_j <= pos_i` and the two entries share a sequence.  A
    /// run is therefore safe iff no earlier member satisfies that predicate
    /// against a later one — which holds for the two shapes the engines
    /// actually submit: prompts (strictly increasing positions in one
    /// sequence) and speculation trees laid out parents-before-children
    /// (children have strictly larger positions than ancestors; same-level
    /// siblings share a position but belong to mutually exclusive branch
    /// sequences).  Both collapse into a single run, so every projection in
    /// the forward pass becomes one `m = len` GEMM that streams the weights
    /// once for the whole batch.  Pathological orderings fall back to more,
    /// smaller runs and stay correct.
    ///
    /// Entries in different **lanes** never conflict: each lane stores into
    /// and attends over its own KV cache, so positions and sequence ids are
    /// lane-local and a *forest* of per-request trees collapses into one run
    /// exactly the way a single tree does — the cross-request fused GEMM of
    /// iteration-level batching.
    pub fn level_groups(&self) -> Vec<std::ops::Range<usize>> {
        let mut groups = Vec::new();
        let mut start = 0;
        for j in 1..self.entries.len() {
            let e = &self.entries[j];
            let conflict = self.entries[start..j].iter().any(|p| {
                e.lane == p.lane
                    && e.pos <= p.pos
                    && e.seq_ids.iter().any(|s| p.seq_ids.contains(s))
            });
            if conflict {
                groups.push(start..j);
                start = j;
            }
        }
        if start < self.entries.len() {
            groups.push(start..self.entries.len());
        }
        groups
    }

    /// Serialized payload size in bytes, used by the interconnect model to
    /// charge for shipping batch metadata down the pipeline.
    pub fn wire_bytes(&self) -> u64 {
        self.entries
            .iter()
            .map(|e| 4 + 4 + 4 * e.seq_ids.len() as u64 + 1)
            .sum()
    }
}

impl FromIterator<BatchEntry> for Batch {
    fn from_iter<T: IntoIterator<Item = BatchEntry>>(iter: T) -> Self {
        Self {
            entries: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_batch_shape() {
        let b = Batch::single(42, 7, 3);
        assert_eq!(b.len(), 1);
        assert_eq!(b.entries()[0].token, 42);
        assert_eq!(b.entries()[0].pos, 7);
        assert_eq!(b.entries()[0].seq_ids, vec![3]);
        assert!(b.entries()[0].logits);
    }

    #[test]
    fn prompt_batch_only_last_token_has_logits() {
        let b = Batch::prompt(&[1, 2, 3, 4], 0, 0);
        assert_eq!(b.len(), 4);
        assert_eq!(b.logit_indices(), vec![3]);
        assert_eq!(b.entries()[2].pos, 2);
    }

    #[test]
    fn prompt_with_offset_positions() {
        let b = Batch::prompt(&[9, 8], 10, 1);
        assert_eq!(b.entries()[0].pos, 10);
        assert_eq!(b.entries()[1].pos, 11);
        assert_eq!(b.min_pos(), Some(10));
    }

    #[test]
    fn empty_batch() {
        let b = Batch::new();
        assert!(b.is_empty());
        assert_eq!(b.min_pos(), None);
        assert_eq!(b.wire_bytes(), 0);
    }

    #[test]
    fn wire_bytes_counts_seq_ids() {
        let mut b = Batch::new();
        b.push(1, 0, vec![0], true);
        b.push(2, 1, vec![0, 1, 2], false);
        assert_eq!(b.wire_bytes(), (4 + 4 + 4 + 1) + (4 + 4 + 12 + 1));
    }

    #[test]
    fn tokens_in_order() {
        let b = Batch::prompt(&[5, 6, 7], 0, 0);
        assert_eq!(b.tokens(), vec![5, 6, 7]);
    }

    #[test]
    fn prompt_is_one_level_group() {
        let b = Batch::prompt(&[5, 6, 7, 8], 3, 0);
        assert_eq!(b.level_groups(), vec![0..4]);
        assert_eq!(
            Batch::new().level_groups(),
            Vec::<std::ops::Range<usize>>::new()
        );
        assert_eq!(Batch::single(1, 0, 0).level_groups(), vec![0..1]);
    }

    #[test]
    fn tree_batch_is_one_level_group() {
        // A 2-level speculation tree rooted at pos 10: the root spans every
        // branch sequence, level-1 siblings share pos 11 in disjoint branch
        // sequences, level-2 children sit at pos 12.
        let mut b = Batch::new();
        b.push(1, 10, vec![1, 2, 3], false);
        b.push(2, 11, vec![1, 2], true);
        b.push(3, 11, vec![3], true);
        b.push(4, 12, vec![1], true);
        b.push(5, 12, vec![2], true);
        assert_eq!(b.level_groups(), vec![0..5]);
    }

    #[test]
    fn conflicting_entries_split_groups() {
        // Same sequence, non-increasing positions: entry 1 would be visible
        // to entry 0 if stored together, so each must close a group.
        let mut b = Batch::new();
        b.push(1, 5, vec![0], true);
        b.push(2, 5, vec![0], true);
        b.push(3, 6, vec![0], true);
        assert_eq!(b.level_groups(), vec![0..1, 1..3]);

        // Disjoint sequences never conflict, whatever the positions.
        let mut d = Batch::new();
        d.push(1, 9, vec![0], true);
        d.push(2, 3, vec![1], true);
        assert_eq!(d.level_groups(), vec![0..2]);
    }

    #[test]
    fn forest_batch_collapses_across_lanes() {
        // Two requests decoding the same (pos, seq) pair: fused into one
        // forest batch they sit in different lanes, so the identical
        // coordinates do not alias and the whole batch is one GEMM.
        let mut f = Batch::new();
        f.append_lane(&Batch::single(1, 5, 0), 0);
        f.append_lane(&Batch::single(2, 5, 0), 1);
        f.append_lane(&Batch::single(3, 5, 0), 2);
        assert_eq!(f.level_groups(), vec![0..3]);
        assert_eq!(f.lane_count(), 3);

        // Same coordinates in the *same* lane still conflict.
        let mut g = Batch::new();
        g.append_lane(&Batch::single(1, 5, 0), 0);
        g.append_lane(&Batch::single(2, 5, 0), 0);
        assert_eq!(g.level_groups(), vec![0..1, 1..2]);
    }

    #[test]
    fn append_lane_preserves_order_and_metadata() {
        let mut tree = Batch::new();
        tree.push(1, 10, vec![1, 2], false);
        tree.push(2, 11, vec![1], true);
        tree.push(3, 11, vec![2], true);
        let mut forest = Batch::new();
        forest.append_lane(&Batch::prompt(&[7, 8], 0, 0), 0);
        forest.append_lane(&tree, 1);
        assert_eq!(forest.len(), 5);
        assert_eq!(forest.tokens(), vec![7, 8, 1, 2, 3]);
        assert_eq!(forest.entries()[2].lane, 1);
        assert_eq!(forest.entries()[2].seq_ids, vec![1, 2]);
        // Prompt + whole tree fuse into a single run.
        assert_eq!(forest.level_groups(), vec![0..5]);
        // Lanes are process-local: wire size is unchanged by lane indices.
        let mut flat = Batch::prompt(&[7, 8], 0, 0);
        flat.push(1, 10, vec![1, 2], false);
        flat.push(2, 11, vec![1], true);
        flat.push(3, 11, vec![2], true);
        assert_eq!(forest.wire_bytes(), flat.wire_bytes());
        assert_eq!(flat.lane_count(), 1);
        assert_eq!(Batch::new().lane_count(), 0);
    }
}
