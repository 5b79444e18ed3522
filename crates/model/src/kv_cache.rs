//! KV cache with llama.cpp-style per-cell sequence metadata.
//!
//! The paper's Pipelined KV Cache Multibuffering (§IV-C) is built entirely on
//! the metadata operations this cache exposes: every cache cell records the
//! token *position* it holds and the *set of sequences* it belongs to, and
//! "copying" entries from one sequence to another only edits that metadata —
//! the attention vectors themselves are shared.  That is what makes the
//! paper's "buffer swap" (copying accepted entries to the canonical sequence
//! and to all free partitions) nearly free.
//!
//! The operations match their llama.cpp namesakes:
//!
//! * [`KvCache::seq_cp`]  — `llama_kv_cache_seq_cp`
//! * [`KvCache::seq_rm`]  — `llama_kv_cache_seq_rm`
//!
//! Each pipeline stage owns one `KvCache` covering only its layer range; the
//! metadata commands are forwarded down the pipeline as transactions so every
//! stage applies them in the same order (paper §IV-C3).
//!
//! A query attends over its visible cells in **position order**
//! ([`KvCache::visible_cells_into`]), whichever cells first-fit allocation
//! put those positions in: a rolled-back speculation leaves holes that later
//! positions fill, and attention's sums in cell order would make a logit
//! depend on the cache's history, not only on the context.
//!
//! ## Storage
//!
//! K/V vectors live in pages of `tokens_per_page` consecutive cells
//! ([`KvPage`]), materialised on their first write and released when a
//! branch commit or rollback (or [`KvCache::clear`]) leaves every cell they
//! cover free.  `capacity` is a bound, not an allocation: a request
//! provisions room for its longest possible stream and touches a fraction
//! of it, and a cache is built per request per stage (plus one per
//! drafter), so storage follows the cells actually written.  A cache that
//! runs without a pool owns private pages of [`PAGE_TOKENS`] cells; a
//! pooled one uses its pool's page size, so committed prompt prefixes can
//! be attached read-only from a [`crate::kv_pool::KvPagePool`] and are
//! cloned on first write (copy-on-write).  A never-written cell reads
//! zeros.  Cell metadata, first-fit order and what `store` / `key` /
//! `value` return do not depend on the page size or on which pages are
//! materialised.

use crate::{Pos, SeqId};
use std::collections::BTreeSet;
use std::sync::Arc;

/// One pool page worth of K/V storage for one stage's layer range.
///
/// A page holds `tokens_per_page` consecutive cells for every local layer of
/// the owning cache.  Pages are the unit of sharing between requests: a
/// committed prompt prefix is a chain of `Arc<KvPage>`s that any number of
/// caches attach read-only, and the unit of copy-on-write — the first
/// [`KvCache::store`] into a shared page clones it into a private one.
#[derive(Debug, Clone, PartialEq)]
pub struct KvPage {
    /// Per-layer keys: `tokens_per_page * kv_dim` contiguous f32s.
    k: Vec<Vec<f32>>,
    /// Per-layer values, same layout.
    v: Vec<Vec<f32>>,
}

impl KvPage {
    /// A zero-filled page covering `n_layers` layers of `tokens` cells.
    pub fn zeroed(n_layers: usize, kv_dim: usize, tokens: usize) -> Self {
        Self {
            k: zeroed_planes(n_layers, tokens * kv_dim),
            v: zeroed_planes(n_layers, tokens * kv_dim),
        }
    }
}

/// `n_layers` planes of `len` zeros, each its own zeroed allocation —
/// `vec![vec![0.0; len]; n_layers]` would allocate one and `memcpy` it
/// `n_layers - 1` times, touching every page of a cache that may never fill.
fn zeroed_planes(n_layers: usize, len: usize) -> Vec<Vec<f32>> {
    (0..n_layers).map(|_| vec![0.0; len]).collect()
}

/// One page slot of a paged cache: absent until first written or attached.
#[derive(Debug, Clone)]
enum PageSlot {
    /// A pool-committed page, possibly attached by several caches.  Reads go
    /// straight through; the first write clones it (copy-on-write).
    Shared(Arc<KvPage>),
    /// A page owned exclusively by this cache; written in place.
    Private(Box<KvPage>),
}

impl PageSlot {
    fn plane(&self) -> &KvPage {
        match self {
            PageSlot::Shared(p) => p,
            PageSlot::Private(p) => p,
        }
    }
}

/// Page-event counters accumulated by a paged cache, drained with
/// [`KvCache::take_events`] so the owning engine can surface them as trace
/// events and `NodeStats` counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KvCacheEvents {
    /// Private pages materialised on first write.
    pub page_alloc: u64,
    /// Shared pool pages attached instead of recomputed (prefix reuse).
    pub page_share_hit: u64,
    /// Copy-on-write clones of shared pages at divergence points.
    pub page_cow: u64,
    /// Fully-free pages released back at page granularity.
    pub page_release: u64,
}

impl KvCacheEvents {
    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: KvCacheEvents) {
        self.page_alloc += other.page_alloc;
        self.page_share_hit += other.page_share_hit;
        self.page_cow += other.page_cow;
        self.page_release += other.page_release;
    }
}

/// Cells per page of a cache that runs without a pool: the page size the
/// wall-clock benchmark's pool uses, so pooled and unpooled requests
/// materialise storage in the same steps.
pub const PAGE_TOKENS: usize = 16;

/// Metadata of one cache cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvCell {
    /// Position of the cached token, or -1 if the cell is free.
    pub pos: Pos,
    /// Sequences this cell belongs to; empty means free.
    pub seq_ids: BTreeSet<SeqId>,
}

impl KvCell {
    fn free() -> Self {
        Self {
            pos: -1,
            seq_ids: BTreeSet::new(),
        }
    }

    /// Whether the cell currently holds no entry.
    pub fn is_free(&self) -> bool {
        self.seq_ids.is_empty()
    }

    /// Whether the cell belongs to sequence `seq`.
    pub fn has_seq(&self, seq: SeqId) -> bool {
        self.seq_ids.contains(&seq)
    }
}

/// A KV cache for a contiguous range of decoder layers.
///
/// Layer indices passed to [`KvCache::store`] / [`KvCache::key`] /
/// [`KvCache::value`] are *local* to this cache (0-based within the owning
/// pipeline stage's layer range).
#[derive(Debug, Clone)]
pub struct KvCache {
    n_layers: usize,
    kv_dim: usize,
    capacity: usize,
    cells: Vec<KvCell>,
    /// Every cell at or above this index is free.  It only grows (in
    /// [`KvCache::alloc`] and [`KvCache::attach_prefix`]) until
    /// [`KvCache::clear`], and bounds the per-token metadata scans: a
    /// request provisions `capacity` for its longest possible stream and
    /// mostly uses a fraction of it.
    high_water: usize,
    tokens_per_page: usize,
    /// One slot per `tokens_per_page` cells of `capacity`, absent until its
    /// first write or attach.
    pages: Vec<Option<PageSlot>>,
    /// Returned for reads of cells whose page is absent.
    zero: Vec<f32>,
    events: KvCacheEvents,
}

impl KvCache {
    /// Creates an empty cache with room for `capacity` cells covering
    /// `n_layers` layers of key/value dimension `kv_dim`, on private pages
    /// of [`PAGE_TOKENS`] cells.
    ///
    /// `capacity` bounds [`KvCache::alloc`]; it is not allocated.  Pages
    /// appear on first write, so constructing a cache costs its cell
    /// metadata only, however long a stream it provisions for.
    pub fn new(n_layers: usize, kv_dim: usize, capacity: usize) -> Self {
        Self::with_page_size(n_layers, kv_dim, capacity, PAGE_TOKENS)
    }

    /// [`KvCache::new`] with `tokens_per_page` cells per page — a pooled
    /// cache takes its [`crate::kv_pool::KvPagePool`]'s page size, so it can
    /// attach the pool's committed pages ([`KvCache::attach_prefix`]) and
    /// freeze its own into it ([`KvCache::freeze_prefix`]).
    pub fn with_page_size(
        n_layers: usize,
        kv_dim: usize,
        capacity: usize,
        tokens_per_page: usize,
    ) -> Self {
        assert!(tokens_per_page > 0, "tokens_per_page must be positive");
        Self {
            n_layers,
            kv_dim,
            capacity,
            cells: vec![KvCell::free(); capacity],
            high_water: 0,
            tokens_per_page,
            pages: vec![None; capacity.div_ceil(tokens_per_page)],
            zero: vec![0.0; kv_dim],
            events: KvCacheEvents::default(),
        }
    }

    /// Cells per page.
    pub fn tokens_per_page(&self) -> usize {
        self.tokens_per_page
    }

    /// Cache capacity in cells.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of layers this cache covers.
    pub fn n_layers(&self) -> usize {
        self.n_layers
    }

    /// Key/value vector dimension.
    pub fn kv_dim(&self) -> usize {
        self.kv_dim
    }

    /// The cell metadata (read-only).
    pub fn cells(&self) -> &[KvCell] {
        &self.cells
    }

    /// Number of occupied cells.
    pub fn used(&self) -> usize {
        self.live().iter().filter(|c| !c.is_free()).count()
    }

    /// The cells below the high-water mark — the only ones that can be
    /// occupied.
    fn live(&self) -> &[KvCell] {
        &self.cells[..self.high_water]
    }

    /// Number of free cells.
    pub fn free(&self) -> usize {
        self.capacity - self.used()
    }

    /// Allocates one cell for a token at `pos` belonging to `seq_ids`.
    ///
    /// Returns the cell index, or `None` if the cache is full.  First-fit
    /// allocation keeps the behaviour deterministic across pipeline stages:
    /// every stage performs the same allocation calls in the same
    /// (transaction-ordered) sequence and therefore picks the same cells.
    pub fn alloc(&mut self, pos: Pos, seq_ids: &[SeqId]) -> Option<usize> {
        // Every cell from the high-water mark up is free, so the first free
        // cell is the first hole below the mark, else the mark itself.
        let idx = self
            .live()
            .iter()
            .position(|c| c.is_free())
            .unwrap_or(self.high_water);
        if idx == self.capacity {
            return None;
        }
        if idx == self.high_water {
            self.high_water += 1;
        }
        self.cells[idx].pos = pos;
        self.cells[idx].seq_ids = seq_ids.iter().copied().collect();
        Some(idx)
    }

    /// Stores the key/value vectors of `cell` for local layer `layer`.
    ///
    /// Materialises the cell's page on first write and clones a shared
    /// (pool-attached) page into a private one before mutating it — the
    /// copy-on-write divergence point.
    pub fn store(&mut self, layer: usize, cell: usize, key: &[f32], value: &[f32]) {
        debug_assert_eq!(key.len(), self.kv_dim);
        debug_assert_eq!(value.len(), self.kv_dim);
        let (kv_dim, tpp) = (self.kv_dim, self.tokens_per_page);
        let slot = &mut self.pages[cell / tpp];
        match slot {
            None => {
                self.events.page_alloc += 1;
                *slot = Some(PageSlot::Private(Box::new(KvPage::zeroed(
                    self.n_layers,
                    kv_dim,
                    tpp,
                ))));
            }
            Some(PageSlot::Shared(arc)) => {
                self.events.page_cow += 1;
                *slot = Some(PageSlot::Private(Box::new((**arc).clone())));
            }
            Some(PageSlot::Private(_)) => {}
        }
        let Some(PageSlot::Private(page)) = slot else {
            unreachable!("slot was just made private");
        };
        let off = (cell % tpp) * kv_dim;
        page.k[layer][off..off + kv_dim].copy_from_slice(key);
        page.v[layer][off..off + kv_dim].copy_from_slice(value);
    }

    /// The page holding `cell` and the cell's offset into its planes, or
    /// `None` while the page is absent (the cell reads zeros).
    fn page_of(&self, cell: usize) -> Option<(&KvPage, usize)> {
        let tpp = self.tokens_per_page;
        let slot = self.pages[cell / tpp].as_ref()?;
        Some((slot.plane(), (cell % tpp) * self.kv_dim))
    }

    /// Key vector of `cell` at local layer `layer`: zeros until stored.
    pub fn key(&self, layer: usize, cell: usize) -> &[f32] {
        match self.page_of(cell) {
            Some((page, off)) => &page.k[layer][off..off + self.kv_dim],
            None => &self.zero,
        }
    }

    /// Value vector of `cell` at local layer `layer`; same contract as
    /// [`KvCache::key`].
    pub fn value(&self, layer: usize, cell: usize) -> &[f32] {
        match self.page_of(cell) {
            Some((page, off)) => &page.v[layer][off..off + self.kv_dim],
            None => &self.zero,
        }
    }

    /// Attaches a committed prefix chain from a page pool: cells `0..span`
    /// are marked occupied at consecutive positions in sequence `seq` and
    /// their pages installed shared (read-only until copy-on-write).  The
    /// cache must be empty and its page size the pool's.  Prefill for the
    /// attached span is skipped entirely — attention reads the pooled K/V
    /// directly.
    pub fn attach_prefix(&mut self, seq: SeqId, shared: &[Arc<KvPage>], span: usize) {
        assert!(span <= self.capacity, "prefix span exceeds cache capacity");
        assert!(
            self.live().iter().all(|c| c.is_free()),
            "attach_prefix requires an empty cache"
        );
        for (i, cell) in self.cells.iter_mut().enumerate().take(span) {
            cell.pos = i as Pos;
            cell.seq_ids = std::iter::once(seq).collect();
        }
        self.high_water = span;
        let n_pages = span.div_ceil(self.tokens_per_page);
        assert!(
            n_pages <= shared.len(),
            "prefix chain too short for span {span}"
        );
        for (slot, page) in self.pages.iter_mut().zip(shared.iter()).take(n_pages) {
            *slot = Some(PageSlot::Shared(page.clone()));
            self.events.page_share_hit += 1;
        }
    }

    /// Freezes the first `n_tokens / tokens_per_page` **full** pages into
    /// shared pages and returns the chain, so the owning engine can commit a
    /// freshly-computed prompt prefix into the pool.  Private pages are
    /// promoted in place (subsequent writes to them copy-on-write); pages
    /// never written (possible only for zero-layer caches) are frozen as
    /// zero pages.
    pub fn freeze_prefix(&mut self, n_tokens: usize) -> Vec<Arc<KvPage>> {
        let (n_layers, kv_dim, tpp) = (self.n_layers, self.kv_dim, self.tokens_per_page);
        let n = (n_tokens / tpp).min(self.pages.len());
        self.pages[..n]
            .iter_mut()
            .map(|slot| {
                let arc = match slot.take() {
                    Some(PageSlot::Shared(a)) => a,
                    Some(PageSlot::Private(b)) => Arc::from(b),
                    None => Arc::new(KvPage::zeroed(n_layers, kv_dim, tpp)),
                };
                *slot = Some(PageSlot::Shared(arc.clone()));
                arc
            })
            .collect()
    }

    /// Releases pages whose cells are all free and returns how many.
    /// Called after `branch_commit`/`branch_rollback` so rejected
    /// speculation branches give their tail pages back at page granularity.
    pub fn release_free_pages(&mut self) -> usize {
        let (tpp, capacity, cells) = (self.tokens_per_page, self.capacity, &self.cells);
        let mut released = 0;
        for (p, slot) in self.pages.iter_mut().enumerate() {
            if slot.is_none() {
                continue;
            }
            let range = p * tpp..((p + 1) * tpp).min(capacity);
            if cells[range].iter().all(KvCell::is_free) {
                *slot = None;
                released += 1;
            }
        }
        self.events.page_release += released as u64;
        released
    }

    /// Drains the page-event counters accumulated since the last call.
    pub fn take_events(&mut self) -> KvCacheEvents {
        std::mem::take(&mut self.events)
    }

    /// Indices of cells visible to a query token belonging to `seq_ids` at
    /// position `pos`: the cell must share at least one sequence with the
    /// query and must not be in the query's future.  This implements the
    /// causal + tree attention mask of speculative verification.
    ///
    /// Allocating convenience for tests and one-off queries only — the
    /// forward pass uses [`Self::visible_cells_into`] with the scratch-arena
    /// buffer instead, so attention performs zero visibility allocations per
    /// token.
    pub fn visible_cells(&self, seq_ids: &[SeqId], pos: Pos) -> Vec<usize> {
        let mut out = Vec::new();
        self.visible_cells_into(seq_ids, pos, &mut out);
        out
    }

    /// [`Self::visible_cells`] appending to a caller-provided buffer, so a
    /// forward pass can lay the visible sets of all its batch rows end to end
    /// in one allocation the scratch arena keeps (the set depends only on
    /// cell metadata fixed at [`Self::alloc`], so one scan per row serves
    /// every layer).
    ///
    /// The cells are listed in **position order** (cell order among equal
    /// positions).  Attention sums over them in the order listed, so the
    /// order is part of every logit's value: first-fit [`Self::alloc`]
    /// reuses the holes a rollback leaves, which puts later positions in
    /// lower cells, and listed in cell order the same context would sum in
    /// a different floating-point order depending on the cache's history —
    /// enough to flip a greedy pick between two tied logits.  The scan
    /// yields position order unless a hole was reused; only then is the
    /// row sorted.
    pub fn visible_cells_into(&self, seq_ids: &[SeqId], pos: Pos, out: &mut Vec<usize>) {
        let start = out.len();
        out.extend(
            self.live()
                .iter()
                .enumerate()
                .filter(|(_, c)| {
                    !c.is_free() && c.pos <= pos && seq_ids.iter().any(|s| c.has_seq(*s))
                })
                .map(|(i, _)| i),
        );
        let row = &mut out[start..];
        let cells = &self.cells;
        if !row.is_sorted_by_key(|&i| cells[i].pos) {
            row.sort_by_key(|&i| cells[i].pos);
        }
    }

    /// Copies sequence `src`'s entries in position range `[p0, p1)` into
    /// sequence `dst` (metadata only; the vectors are shared).
    ///
    /// Passing `p1 = Pos::MAX` copies everything from `p0` onwards.
    pub fn seq_cp(&mut self, src: SeqId, dst: SeqId, p0: Pos, p1: Pos) {
        if src == dst {
            return;
        }
        for cell in &mut self.cells[..self.high_water] {
            if !cell.is_free() && cell.has_seq(src) && cell.pos >= p0 && cell.pos < p1 {
                cell.seq_ids.insert(dst);
            }
        }
    }

    /// Removes sequence `seq` from cells in position range `[p0, p1)`.
    /// Cells left with no sequence become free.
    pub fn seq_rm(&mut self, seq: SeqId, p0: Pos, p1: Pos) {
        for cell in &mut self.cells[..self.high_water] {
            if !cell.is_free() && cell.has_seq(seq) && cell.pos >= p0 && cell.pos < p1 {
                cell.seq_ids.remove(&seq);
                if cell.seq_ids.is_empty() {
                    *cell = KvCell::free();
                }
            }
        }
    }

    /// Commits one accepted branch of a speculation tree written under the
    /// dense sequence range `first_seq .. first_seq + n_seqs`: the entries of
    /// `path_seq` (the leaf sequence whose root-to-leaf path contains every
    /// accepted node) in `[p0, p1)` are copied into `dst` (normally the
    /// canonical sequence), then the whole tree is rolled back — every tree
    /// sequence is dropped, freeing the cells of the rejected branches while
    /// the accepted path survives as members of `dst`.
    ///
    /// All of this is metadata-only, which is what makes tree verification's
    /// "keep only the deepest accepted path" nearly free (the same property
    /// the paper's buffer swap relies on).
    pub fn branch_commit(
        &mut self,
        dst: SeqId,
        path_seq: SeqId,
        first_seq: SeqId,
        n_seqs: usize,
        p0: Pos,
        p1: Pos,
    ) {
        self.seq_cp(path_seq, dst, p0, p1);
        self.branch_rollback(first_seq, n_seqs);
        self.debug_check("branch_commit");
    }

    /// Rolls a speculation tree back entirely: every sequence in
    /// `first_seq .. first_seq + n_seqs` is removed from every cell.  Cells
    /// owned only by tree sequences (the speculated tokens) are freed; cells
    /// shared with other sequences (the context prefix each branch was given
    /// via [`KvCache::seq_cp`]) merely lose their tree memberships.
    pub fn branch_rollback(&mut self, first_seq: SeqId, n_seqs: usize) {
        for seq in first_seq..first_seq + n_seqs as SeqId {
            self.seq_rm(seq, 0, Pos::MAX);
        }
        self.release_free_pages();
        self.debug_check("branch_rollback");
    }

    /// Panics (debug builds only) if [`KvCache::check_consistency`] fails —
    /// wired into the branch commit/rollback and page promote/release paths
    /// so refcount bugs fail loudly in CI instead of corrupting streams.
    fn debug_check(&self, _after: &str) {
        #[cfg(debug_assertions)]
        if let Err(e) = self.check_consistency() {
            panic!("KV cache inconsistent after {_after}: {e}");
        }
    }

    /// Highest position stored for sequence `seq`, or `None` if the sequence
    /// has no entries.
    pub fn seq_max_pos(&self, seq: SeqId) -> Option<Pos> {
        self.live()
            .iter()
            .filter(|c| !c.is_free() && c.has_seq(seq))
            .map(|c| c.pos)
            .max()
    }

    /// Number of cells belonging to sequence `seq`.
    pub fn seq_len(&self, seq: SeqId) -> usize {
        self.live()
            .iter()
            .filter(|c| !c.is_free() && c.has_seq(seq))
            .count()
    }

    /// Frees every cell and releases every page.
    pub fn clear(&mut self) {
        for cell in &mut self.cells[..self.high_water] {
            *cell = KvCell::free();
        }
        self.high_water = 0;
        self.release_free_pages();
    }

    /// Verifies internal invariants; used by tests and, in debug builds,
    /// after every branch commit/rollback and page promote/release.
    ///
    /// Invariant checked: for every sequence, positions are unique — a
    /// sequence must never contain two cells with the same position, which is
    /// exactly the corruption that unsynchronised cache sharing causes.
    pub fn check_consistency(&self) -> Result<(), String> {
        use std::collections::HashMap;
        let mut seen: HashMap<(SeqId, Pos), usize> = HashMap::new();
        for (i, cell) in self.cells.iter().enumerate() {
            if cell.is_free() {
                continue;
            }
            for &s in &cell.seq_ids {
                if let Some(prev) = seen.insert((s, cell.pos), i) {
                    return Err(format!(
                        "sequence {s} has duplicate position {} in cells {prev} and {i}",
                        cell.pos
                    ));
                }
            }
        }
        if self.pages.len() != self.capacity.div_ceil(self.tokens_per_page) {
            return Err(format!(
                "{} page slots for capacity {} at {} tokens/page",
                self.pages.len(),
                self.capacity,
                self.tokens_per_page
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> KvCache {
        KvCache::new(2, 4, 16)
    }

    #[test]
    fn alloc_first_fit_and_capacity() {
        let mut c = KvCache::new(1, 2, 3);
        assert_eq!(c.alloc(0, &[0]), Some(0));
        assert_eq!(c.alloc(1, &[0]), Some(1));
        assert_eq!(c.alloc(2, &[0]), Some(2));
        assert_eq!(c.alloc(3, &[0]), None);
        assert_eq!(c.used(), 3);
        assert_eq!(c.free(), 0);
    }

    #[test]
    fn store_and_read_back() {
        let mut c = cache();
        let cell = c.alloc(0, &[0]).unwrap();
        c.store(1, cell, &[1.0, 2.0, 3.0, 4.0], &[5.0, 6.0, 7.0, 8.0]);
        assert_eq!(c.key(1, cell), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(c.value(1, cell), &[5.0, 6.0, 7.0, 8.0]);
        // Layer 0 untouched.
        assert_eq!(c.key(0, cell), &[0.0; 4]);
    }

    #[test]
    fn visibility_is_causal() {
        let mut c = cache();
        let a = c.alloc(0, &[0]).unwrap();
        let b = c.alloc(1, &[0]).unwrap();
        let vis = c.visible_cells(&[0], 0);
        assert!(vis.contains(&a) && !vis.contains(&b));
        let vis1 = c.visible_cells(&[0], 1);
        assert!(vis1.contains(&a) && vis1.contains(&b));
    }

    #[test]
    fn visibility_respects_sequences() {
        let mut c = cache();
        let shared = c.alloc(0, &[1, 2]).unwrap();
        let only1 = c.alloc(1, &[1]).unwrap();
        let only2 = c.alloc(1, &[2]).unwrap();
        let vis_seq1 = c.visible_cells(&[1], 5);
        assert!(vis_seq1.contains(&shared));
        assert!(vis_seq1.contains(&only1));
        assert!(!vis_seq1.contains(&only2));
        // A query in a different sequence entirely sees nothing.
        assert!(c.visible_cells(&[7], 5).is_empty());
    }

    #[test]
    fn seq_cp_shares_cells_without_duplicating() {
        let mut c = cache();
        for p in 0..4 {
            c.alloc(p, &[0]).unwrap();
        }
        c.seq_cp(0, 3, 0, 2);
        assert_eq!(c.seq_len(3), 2);
        assert_eq!(c.used(), 4, "copy must not allocate new cells");
        assert_eq!(c.seq_max_pos(3), Some(1));
    }

    #[test]
    fn seq_cp_to_same_sequence_is_noop() {
        let mut c = cache();
        c.alloc(0, &[0]).unwrap();
        c.seq_cp(0, 0, 0, Pos::MAX);
        assert_eq!(c.seq_len(0), 1);
    }

    #[test]
    fn seq_rm_frees_orphan_cells() {
        let mut c = cache();
        c.alloc(0, &[1]).unwrap();
        c.alloc(1, &[1, 2]).unwrap();
        c.seq_rm(1, 0, Pos::MAX);
        assert_eq!(c.seq_len(1), 0);
        // Cell shared with seq 2 survives; the seq-1-only cell is freed.
        assert_eq!(c.used(), 1);
        assert_eq!(c.seq_len(2), 1);
    }

    #[test]
    fn seq_rm_respects_position_range() {
        let mut c = cache();
        for p in 0..5 {
            c.alloc(p, &[0]).unwrap();
        }
        c.seq_rm(0, 2, 4);
        assert_eq!(c.seq_len(0), 3);
        assert_eq!(c.seq_max_pos(0), Some(4));
    }

    #[test]
    fn max_pos_and_clear() {
        let mut c = cache();
        assert_eq!(c.seq_max_pos(0), None);
        c.alloc(3, &[0]).unwrap();
        c.alloc(9, &[0]).unwrap();
        assert_eq!(c.seq_max_pos(0), Some(9));
        c.clear();
        assert_eq!(c.used(), 0);
        assert_eq!(c.seq_max_pos(0), None);
    }

    #[test]
    fn branch_commit_keeps_accepted_path_and_frees_rest() {
        let mut c = cache();
        // Canonical context at positions 0..2.
        c.alloc(0, &[0]).unwrap();
        c.alloc(1, &[0]).unwrap();
        // Each branch gets the context prefix (metadata copy)…
        c.seq_cp(0, 1, 0, Pos::MAX);
        c.seq_cp(0, 2, 0, Pos::MAX);
        // …then the tree: shared root (both branches), two leaves.
        c.alloc(2, &[1, 2]).unwrap();
        c.alloc(3, &[1]).unwrap();
        c.alloc(3, &[2]).unwrap();
        assert_eq!(c.used(), 5);
        // Accept the path down branch 1 (root + its leaf).
        c.branch_commit(0, 1, 1, 2, 2, 4);
        assert_eq!(c.seq_len(0), 4, "canonical gains the accepted path");
        assert_eq!(c.seq_len(1), 0);
        assert_eq!(c.seq_len(2), 0);
        assert_eq!(c.used(), 4, "the rejected leaf is freed");
        assert!(c.check_consistency().is_ok());
    }

    #[test]
    fn branch_rollback_frees_all_tree_cells() {
        let mut c = cache();
        c.alloc(0, &[0]).unwrap();
        c.seq_cp(0, 1, 0, Pos::MAX);
        c.seq_cp(0, 2, 0, Pos::MAX);
        c.alloc(1, &[1, 2]).unwrap();
        c.alloc(2, &[2]).unwrap();
        c.branch_rollback(1, 2);
        assert_eq!(c.used(), 1, "only the canonical context survives");
        assert_eq!(c.seq_len(0), 1);
        assert_eq!(c.seq_len(1), 0);
        assert_eq!(c.seq_len(2), 0);
    }

    #[test]
    fn consistency_detects_duplicate_positions() {
        let mut c = cache();
        c.alloc(0, &[0]).unwrap();
        assert!(c.check_consistency().is_ok());
        c.alloc(0, &[0]).unwrap();
        assert!(c.check_consistency().is_err());
    }

    #[test]
    fn freed_cells_are_reused() {
        let mut c = KvCache::new(1, 2, 2);
        let a = c.alloc(0, &[1]).unwrap();
        c.alloc(1, &[1]).unwrap();
        c.seq_rm(1, 0, 1);
        let again = c.alloc(5, &[2]).unwrap();
        assert_eq!(a, again, "first-fit must reuse the freed cell");
    }

    #[test]
    fn high_water_mark_never_changes_first_fit_or_visibility() {
        // Drive a cache through allocs, range removals and clears, and
        // compare every answer with a scan of the whole cell array: the mark
        // may only shorten scans, never change what they find.
        let mut c = KvCache::new(1, 2, 12);
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        for step in 0..400 {
            match next(8) {
                0 => c.seq_rm(next(3) as SeqId, next(6) as Pos, 6 + next(40) as Pos),
                1 if step % 50 == 49 => c.clear(),
                _ => {
                    let first_free = c.cells().iter().position(|cell| cell.is_free());
                    let got = c.alloc(next(40) as Pos, &[next(3) as SeqId]);
                    assert_eq!(got, first_free, "step {step}");
                }
            }
            let occupied = c.cells().iter().filter(|cell| !cell.is_free()).count();
            assert_eq!(c.used(), occupied, "step {step}");
            for seq in 0..3 {
                let mut naive: Vec<usize> = (0..12)
                    .filter(|&i| c.cells()[i].has_seq(seq) && c.cells()[i].pos <= 20)
                    .collect();
                naive.sort_by_key(|&i| c.cells()[i].pos);
                assert_eq!(c.visible_cells(&[seq], 20), naive, "step {step} seq {seq}");
                assert_eq!(
                    c.seq_len(seq),
                    (0..12).filter(|&i| c.cells()[i].has_seq(seq)).count()
                );
            }
        }
    }

    /// Pages currently materialised.
    fn pages_held(c: &KvCache) -> usize {
        c.pages.iter().filter(|p| p.is_some()).count()
    }

    #[test]
    fn pages_follow_the_stored_cells_not_the_capacity() {
        for n in [0usize, 1, 15, 16, 17, 100] {
            let mut c = KvCache::new(8, 256, 2048);
            assert_eq!(c.tokens_per_page(), PAGE_TOKENS);
            for p in 0..n {
                let cell = c.alloc(p as Pos, &[0]).unwrap();
                assert_eq!(cell, p);
                assert_eq!(c.key(7, cell), &[0.0; 256][..], "zeros until stored");
                c.store(7, cell, &[p as f32; 256], &[-(p as f32); 256]);
            }
            let pages = n.div_ceil(PAGE_TOKENS);
            assert_eq!(pages_held(&c), pages, "{n} cells");
            assert_eq!(c.take_events().page_alloc, pages as u64, "{n} cells");
            for p in 0..n {
                assert_eq!(c.key(7, p), &[p as f32; 256][..]);
                assert_eq!(c.value(7, p), &[-(p as f32); 256][..]);
                assert_eq!(c.value(0, p), &[0.0; 256][..]);
            }
            // Allocating without storing materialises nothing; `clear`
            // releases every page.
            c.alloc(n as Pos, &[0]).unwrap();
            assert_eq!(pages_held(&c), pages, "{n} cells");
            c.clear();
            assert_eq!(pages_held(&c), 0, "{n} cells");
            assert_eq!(c.take_events().page_release, pages as u64, "{n} cells");
            assert_eq!(c.capacity(), 2048);
        }

        // Holes below the mark are reused inside the pages already held.
        let mut c = KvCache::new(1, 2, 2048);
        for p in 0..40 {
            let cell = c.alloc(p, &[0]).unwrap();
            c.store(0, cell, &[1.0; 2], &[1.0; 2]);
        }
        c.seq_rm(0, 10, 20);
        let cell = c.alloc(500, &[0]).unwrap();
        assert_eq!(cell, 10);
        c.store(0, cell, &[2.0; 2], &[2.0; 2]);
        assert_eq!(pages_held(&c), 3);

        // A partial last page; the capacity still bounds `alloc`.
        let mut small = KvCache::new(1, 2, 70);
        for p in 0..70 {
            let cell = small.alloc(p, &[0]).unwrap();
            small.store(0, cell, &[1.0; 2], &[1.0; 2]);
        }
        assert_eq!(pages_held(&small), 5);
        assert_eq!(small.alloc(70, &[0]), None);
    }

    // --- pool page sizes, sharing and release ---

    fn paged() -> KvCache {
        KvCache::with_page_size(2, 4, 16, 4)
    }

    #[test]
    fn store_and_read_back_matches_a_reference_map() {
        use std::collections::HashMap;
        for tpp in [1, 3, 4, PAGE_TOKENS] {
            let mut c = KvCache::with_page_size(2, 4, 16, tpp);
            // (layer, cell) -> (key, value) of the last store.
            let mut stored: HashMap<(usize, usize), ([f32; 4], [f32; 4])> = HashMap::new();
            for (p, layer, kv) in [(0, 0, 1.0f32), (1, 0, 2.0), (2, 1, 3.0), (3, 0, 4.0)] {
                let cell = c.alloc(p, &[0]).unwrap();
                assert_eq!(cell, p as usize, "first-fit at every page size");
                let (k, v) = ([kv; 4], [-kv; 4]);
                c.store(layer, cell, &k, &v);
                stored.insert((layer, cell), (k, v));
            }
            // A second store into a cell replaces the first.
            c.store(0, 1, &[9.0; 4], &[-9.0; 4]);
            stored.insert((0, 1), ([9.0; 4], [-9.0; 4]));
            for layer in 0..2 {
                for cell in 0..16 {
                    let (k, v) = stored.get(&(layer, cell)).copied().unwrap_or_default();
                    assert_eq!(c.key(layer, cell), k, "tpp {tpp} layer {layer} cell {cell}");
                    assert_eq!(
                        c.value(layer, cell),
                        v,
                        "tpp {tpp} layer {layer} cell {cell}"
                    );
                }
            }
        }
    }

    #[test]
    fn paged_events_count_alloc_and_release() {
        let mut c = paged();
        for p in 0..5 {
            let cell = c.alloc(p, &[1]).unwrap();
            c.store(0, cell, &[1.0; 4], &[1.0; 4]);
        }
        let ev = c.take_events();
        assert_eq!(ev.page_alloc, 2, "5 tokens at 4/page touch 2 pages");
        c.seq_rm(1, 4, Pos::MAX);
        assert_eq!(c.release_free_pages(), 1, "the tail page is now empty");
        assert_eq!(c.take_events().page_release, 1);
    }

    #[test]
    fn attach_freeze_and_cow_roundtrip() {
        // Writer computes a 8-token prefix and freezes it.
        let mut writer = paged();
        for p in 0..8 {
            let cell = writer.alloc(p, &[0]).unwrap();
            writer.store(0, cell, &[p as f32; 4], &[p as f32 + 0.5; 4]);
            writer.store(1, cell, &[-(p as f32); 4], &[0.0; 4]);
        }
        let chain = writer.freeze_prefix(8);
        assert_eq!(chain.len(), 2);

        // Reader attaches the chain: no store calls, identical reads.
        let mut reader = paged();
        reader.attach_prefix(0, &chain, 8);
        assert_eq!(reader.used(), 8);
        assert_eq!(reader.seq_max_pos(0), Some(7));
        for cell in 0..8 {
            assert_eq!(reader.key(0, cell), writer.key(0, cell));
            assert_eq!(reader.value(0, cell), writer.value(0, cell));
            assert_eq!(reader.key(1, cell), writer.key(1, cell));
        }
        let ev = reader.take_events();
        assert_eq!(ev.page_share_hit, 2);
        assert_eq!(ev.page_alloc, 0, "attached prefix allocates nothing");

        // Divergence: the reader's first write into a shared page clones it
        // and must not disturb the writer's (pooled) copy.
        let cell = reader.alloc(8, &[0]).unwrap();
        assert_eq!(cell, 8, "first free cell follows the prefix");
        reader.seq_rm(0, 7, 8); // free cell 7 inside the shared tail page…
        let c7 = reader.alloc(7, &[0]).unwrap(); // …and rewrite it
        reader.store(0, c7, &[99.0; 4], &[99.0; 4]);
        assert_eq!(reader.take_events().page_cow, 1);
        assert_eq!(reader.key(0, 7), &[99.0; 4]);
        assert_eq!(writer.key(0, 7), &[7.0; 4], "shared page is untouched");
    }

    #[test]
    fn paged_branch_rollback_releases_tree_pages() {
        let mut c = paged();
        // Canonical prefix fills page 0 exactly.
        for p in 0..4 {
            let cell = c.alloc(p, &[0]).unwrap();
            c.store(0, cell, &[1.0; 4], &[1.0; 4]);
        }
        c.seq_cp(0, 1, 0, Pos::MAX);
        // The branch writes into a fresh page.
        for p in 4..8 {
            let cell = c.alloc(p, &[1]).unwrap();
            c.store(0, cell, &[2.0; 4], &[2.0; 4]);
        }
        let _ = c.take_events();
        c.branch_rollback(1, 1);
        let ev = c.take_events();
        assert_eq!(ev.page_release, 1, "the branch-only page is released");
        assert_eq!(c.used(), 4);
        assert!(c.check_consistency().is_ok());
    }

    #[test]
    fn partial_attach_span_leaves_tail_cells_free() {
        let mut writer = paged();
        for p in 0..8 {
            let cell = writer.alloc(p, &[0]).unwrap();
            writer.store(0, cell, &[p as f32; 4], &[p as f32; 4]);
        }
        let chain = writer.freeze_prefix(8);
        let mut reader = paged();
        // Attach only 6 of the 8 cached tokens (span capped below a page
        // boundary, as the heads do to keep at least one prompt token live).
        reader.attach_prefix(0, &chain, 6);
        assert_eq!(reader.used(), 6);
        let next = reader.alloc(6, &[0]).unwrap();
        assert_eq!(next, 6, "cell 6 is free inside the attached page");
        reader.store(0, next, &[50.0; 4], &[50.0; 4]);
        assert_eq!(reader.take_events().page_cow, 1);
        assert_eq!(
            reader.key(0, 5),
            &[5.0; 4],
            "attached cells keep pooled data"
        );
        assert_eq!(reader.key(0, 6), &[50.0; 4]);
    }
}

#[cfg(test)]
mod paged_props {
    use super::*;
    use proptest::prelude::*;

    /// The deterministic row a writer stores for layer `l`, position `p`.
    fn row(l: usize, p: usize, salt: f32) -> [f32; 4] {
        [p as f32 + 100.0 * l as f32 + salt; 4]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Copy-on-write isolation: a reader attached to a frozen prefix
        /// chain sees the writer's data bit-for-bit over any attach span,
        /// and however the reader then mutates cells inside the shared
        /// pages, the writer's (pooled) copies never change — the refcount
        /// on a shared page forces divergent writes onto private clones.
        #[test]
        fn prop_cow_isolates_shared_pages_for_any_span(
            writer_len in 4usize..16,
            span_pick in 0usize..64,
            rewrites in proptest::collection::vec(0u32..12, 1..8),
        ) {
            let paged = || KvCache::with_page_size(2, 4, 16, 4);
            let mut writer = paged();
            for p in 0..writer_len {
                let cell = writer.alloc(p as Pos, &[0]).unwrap();
                writer.store(0, cell, &row(0, p, 0.0), &row(0, p, 0.5));
                writer.store(1, cell, &row(1, p, 0.0), &row(1, p, 0.5));
            }
            let chain = writer.freeze_prefix(writer_len);
            let full_span = chain.len() * 4;
            prop_assert_eq!(full_span, writer_len / 4 * 4);
            prop_assert!(full_span >= 4, "writer_len >= 4 freezes at least one page");
            let span = span_pick % full_span + 1;

            let mut reader = paged();
            reader.attach_prefix(0, &chain, span);
            for cell in 0..span {
                prop_assert_eq!(reader.key(0, cell), writer.key(0, cell));
                prop_assert_eq!(reader.value(0, cell), writer.value(0, cell));
                prop_assert_eq!(reader.key(1, cell), writer.key(1, cell));
            }

            // The reader mutates cells at and behind the attach boundary —
            // every store into a shared page must copy it first.
            let mut next_pos = span;
            for r in rewrites {
                let target = r as usize % (span + 2);
                if target < span {
                    // Rewrite an attached cell in place.
                    reader.seq_rm(0, target as Pos, target as Pos + 1);
                    let cell = reader.alloc(target as Pos, &[0]).unwrap();
                    reader.store(0, cell, &[777.0; 4], &[777.0; 4]);
                } else if next_pos < 16 {
                    // Extend past the prefix (may land in the shared tail
                    // page when the span is not page-aligned).
                    let cell = reader.alloc(next_pos as Pos, &[0]).unwrap();
                    reader.store(0, cell, &[888.0; 4], &[888.0; 4]);
                    next_pos += 1;
                }
            }
            prop_assert!(reader.check_consistency().is_ok());
            prop_assert!(writer.check_consistency().is_ok());

            // However the reader diverged, the writer's frozen pages are
            // bit-identical to what it stored.
            for p in 0..writer_len {
                prop_assert_eq!(writer.key(0, p), &row(0, p, 0.0)[..]);
                prop_assert_eq!(writer.value(0, p), &row(0, p, 0.5)[..]);
                prop_assert_eq!(writer.key(1, p), &row(1, p, 0.0)[..]);
                prop_assert_eq!(writer.value(1, p), &row(1, p, 0.5)[..]);
            }
        }
    }
}

#[cfg(test)]
mod demand_paging_props {
    use super::*;
    use proptest::prelude::*;

    const N_LAYERS: usize = 2;
    const KV_DIM: usize = 4;

    /// Every live cell's metadata and K/V rows, `check_consistency` included.
    fn assert_same_contents(a: &KvCache, b: &KvCache, step: usize) {
        assert_eq!(a.cells(), b.cells(), "step {step}");
        assert_eq!(a.check_consistency(), Ok(()), "step {step}");
        assert_eq!(b.check_consistency(), Ok(()), "step {step}");
        for (cell, meta) in a.cells().iter().enumerate() {
            if meta.is_free() {
                continue;
            }
            for layer in 0..N_LAYERS {
                assert_eq!(a.key(layer, cell), b.key(layer, cell), "step {step}");
                assert_eq!(a.value(layer, cell), b.value(layer, cell), "step {step}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Materialising pages on demand is invisible: a fresh cache and one
        /// whose pages already span the whole capacity (every cell stored
        /// with zeros once, then removed — `seq_rm` keeps the pages) walk the
        /// same random schedule of every mutating operation and agree on
        /// every cell, every live K/V row and every `alloc` answer, `None`
        /// exactly when full.
        #[test]
        fn prop_demand_paged_cache_matches_a_fully_paged_one(
            // One cell; whole pages; one cell past a page boundary; partial
            // last pages several pages deep.
            capacity_pick in 0usize..6,
            seed in 0u64..1_000_000,
        ) {
            let capacity = [1usize, 48, 64, 65, 200, 300][capacity_pick];
            let mut fresh = KvCache::new(N_LAYERS, KV_DIM, capacity);
            let mut grown = KvCache::new(N_LAYERS, KV_DIM, capacity);
            for p in 0..capacity {
                let cell = grown.alloc(p as Pos, &[0]).unwrap();
                for layer in 0..N_LAYERS {
                    grown.store(layer, cell, &[0.0; KV_DIM], &[0.0; KV_DIM]);
                }
            }
            grown.seq_rm(0, 0, Pos::MAX);
            prop_assert!(grown.pages.iter().all(Option::is_some));

            let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            let mut next = |bound: u64| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % bound
            };
            // Positions come from a counter, so no sequence ever holds one
            // position twice and `check_consistency` has to stay clean.
            let mut pos: Pos = 0;
            let mut steps_since_clear = 0usize;
            for step in 0..600 {
                steps_since_clear += 1;
                match next(16) {
                    0 => {
                        let (src, dst) = (next(5) as SeqId, next(5) as SeqId);
                        let p0 = (pos - next(40) as Pos).max(0);
                        fresh.seq_cp(src, dst, p0, Pos::MAX);
                        grown.seq_cp(src, dst, p0, Pos::MAX);
                    }
                    1 | 2 => {
                        let seq = next(5) as SeqId;
                        let p0 = (pos - next(60) as Pos).max(0);
                        let p1 = p0 + next(30) as Pos;
                        fresh.seq_rm(seq, p0, p1);
                        grown.seq_rm(seq, p0, p1);
                    }
                    3 if next(4) == 0 => {
                        let seq = next(5) as SeqId;
                        fresh.seq_rm(seq, 0, Pos::MAX);
                        grown.seq_rm(seq, 0, Pos::MAX);
                    }
                    4 => {
                        let path = 1 + next(4) as SeqId;
                        let p0 = (pos - next(20) as Pos).max(0);
                        fresh.branch_commit(0, path, 1, 4, p0, Pos::MAX);
                        grown.branch_commit(0, path, 1, 4, p0, Pos::MAX);
                    }
                    5 => {
                        fresh.branch_rollback(1, 4);
                        grown.branch_rollback(1, 4);
                    }
                    6 if steps_since_clear > 150 => {
                        steps_since_clear = 0;
                        fresh.clear();
                        grown.clear();
                    }
                    _ => {
                        let seqs: Vec<SeqId> = match next(3) {
                            0 => vec![0],
                            1 => vec![1 + next(4) as SeqId],
                            _ => vec![1, 2, 3, 4],
                        };
                        let full = fresh.used() == capacity;
                        let cell = fresh.alloc(pos, &seqs);
                        prop_assert_eq!(cell, grown.alloc(pos, &seqs), "step {}", step);
                        prop_assert_eq!(cell.is_none(), full, "step {}", step);
                        if let Some(cell) = cell {
                            pos += 1;
                            // Most cells are stored; some stay as allocated.
                            if next(8) != 0 {
                                let layer = next(N_LAYERS as u64) as usize;
                                let key = [pos as f32 + 0.25 * layer as f32; KV_DIM];
                                let value = [-(pos as f32); KV_DIM];
                                fresh.store(layer, cell, &key, &value);
                                grown.store(layer, cell, &key, &value);
                            }
                        }
                    }
                }
                assert_same_contents(&fresh, &grown, step);
            }
        }
    }
}
