//! Sequence-partition pool for Pipelined KV Cache Multibuffering (§IV-C).
//!
//! PipeInfer partitions the KV cache into the *canonical sequence*
//! (sequence 0, holding only accepted tokens) and a set of per-run sequence
//! partitions handed out on a FIFO policy.  While a speculative run is in
//! flight its partition acts as a private "back buffer"; on acceptance the
//! accepted entries are copied (metadata-only) into the canonical sequence
//! — the "buffer swap" — and the partition returns to the free queue.

use pi_model::SeqId;
use std::collections::VecDeque;

/// The canonical sequence id holding accepted tokens.
pub const CANONICAL_SEQ: SeqId = 0;

/// FIFO pool of speculative sequence partitions.
#[derive(Debug, Clone)]
pub struct SeqPartitionPool {
    free: VecDeque<SeqId>,
    total: usize,
}

impl SeqPartitionPool {
    /// Creates a pool of `n` partitions using sequence ids `1..=n`
    /// (sequence 0 is reserved for the canonical sequence).
    pub fn new(n: usize) -> Self {
        Self {
            free: (1..=n as SeqId).collect(),
            total: n,
        }
    }

    /// Allocates the next free partition (FIFO), or `None` if every partition
    /// is currently assigned to an in-flight run.
    pub fn alloc(&mut self) -> Option<SeqId> {
        self.free.pop_front()
    }

    /// Allocates `n` partitions with *consecutive* sequence ids — the block
    /// a tree micro-batch's leaves occupy, so the pipelined
    /// `BranchCommit`/`BranchRollback` operations can name the whole run as
    /// `first .. first + n`.  Returns the first id of the block, or `None`
    /// when no block of `n` consecutive ids is free.
    ///
    /// `n == 1` delegates to [`SeqPartitionPool::alloc`], preserving the
    /// FIFO hand-out order of chain micro-batches exactly.
    pub fn alloc_block(&mut self, n: usize) -> Option<SeqId> {
        match n {
            0 => None,
            1 => self.alloc(),
            _ => {
                let mut free: Vec<SeqId> = self.free.iter().copied().collect();
                free.sort_unstable();
                let first = free
                    .windows(n)
                    .find(|w| w[n - 1] == w[0] + n as SeqId - 1)
                    .map(|w| w[0])?;
                self.free.retain(|&s| s < first || s >= first + n as SeqId);
                Some(first)
            }
        }
    }

    /// Returns a block of `n` consecutive partitions to the pool.
    pub fn free_block(&mut self, first: SeqId, n: usize) {
        for seq in first..first + n as SeqId {
            self.free(seq);
        }
    }

    /// Returns a partition to the pool.
    ///
    /// Panics on double-free or on freeing the canonical sequence — both
    /// indicate a bookkeeping bug that would corrupt the KV cache.
    pub fn free(&mut self, seq: SeqId) {
        assert_ne!(seq, CANONICAL_SEQ, "the canonical sequence is never pooled");
        assert!(
            seq as usize <= self.total,
            "sequence {seq} does not belong to this pool"
        );
        assert!(
            !self.free.contains(&seq),
            "double free of sequence partition {seq}"
        );
        self.free.push_back(seq);
    }

    /// Number of partitions currently available.
    pub fn available(&self) -> usize {
        self.free.len()
    }

    /// Number of partitions currently assigned to runs.
    pub fn in_use(&self) -> usize {
        self.total - self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_is_fifo() {
        let mut p = SeqPartitionPool::new(3);
        assert_eq!(p.alloc(), Some(1));
        assert_eq!(p.alloc(), Some(2));
        p.free(1);
        assert_eq!(p.alloc(), Some(3));
        // 1 was freed before 3 was allocated, but FIFO means it re-emerges
        // only after the ids queued ahead of it.
        assert_eq!(p.alloc(), Some(1));
        assert_eq!(p.alloc(), None);
    }

    #[test]
    fn accounting() {
        let mut p = SeqPartitionPool::new(4);
        assert_eq!(p.available(), 4);
        assert_eq!(p.in_use(), 0);
        let a = p.alloc().unwrap();
        assert_eq!(p.in_use(), 1);
        p.free(a);
        assert_eq!(p.in_use(), 0);
    }

    #[test]
    fn block_allocation_is_contiguous() {
        let mut p = SeqPartitionPool::new(6);
        let a = p.alloc_block(3).unwrap();
        assert_eq!(a, 1, "first block starts at the lowest free id");
        let b = p.alloc_block(2).unwrap();
        assert_eq!(b, 4);
        assert_eq!(p.available(), 1);
        // Fragmentation: free 1 and 3 (not adjacent to each other), then 6.
        p.free_block(a, 3);
        p.free_block(b, 2);
        let _ = p.alloc(); // takes 6 (FIFO order: 6 was never freed... )
        assert!(p.alloc_block(3).is_some());
    }

    #[test]
    fn block_allocation_respects_fragmentation() {
        let mut p = SeqPartitionPool::new(4);
        let a = p.alloc().unwrap(); // 1
        let _b = p.alloc().unwrap(); // 2
        let c = p.alloc().unwrap(); // 3
        p.free(a);
        p.free(c);
        // Free set {1, 3, 4}: no 3-block, but {3, 4} is a 2-block.
        assert_eq!(p.alloc_block(3), None);
        assert_eq!(p.alloc_block(2), Some(3));
        assert_eq!(p.available(), 1);
        assert_eq!(p.alloc_block(0), None);
    }

    #[test]
    fn single_block_preserves_fifo_order() {
        let mut a = SeqPartitionPool::new(3);
        let mut b = SeqPartitionPool::new(3);
        assert_eq!(a.alloc(), b.alloc_block(1));
        assert_eq!(a.alloc(), b.alloc_block(1));
        a.free(1);
        b.free_block(1, 1);
        assert_eq!(a.alloc(), b.alloc_block(1));
        assert_eq!(a.alloc(), b.alloc_block(1));
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut p = SeqPartitionPool::new(1);
        assert!(p.alloc().is_some());
        assert!(p.alloc().is_none());
    }

    #[test]
    #[should_panic]
    fn double_free_panics() {
        let mut p = SeqPartitionPool::new(2);
        let a = p.alloc().unwrap();
        p.free(a);
        p.free(a);
    }

    #[test]
    #[should_panic]
    fn freeing_canonical_panics() {
        let mut p = SeqPartitionPool::new(2);
        p.free(CANONICAL_SEQ);
    }

    #[test]
    fn never_hands_out_canonical() {
        let mut p = SeqPartitionPool::new(8);
        while let Some(s) = p.alloc() {
            assert_ne!(s, CANONICAL_SEQ);
        }
    }
}
