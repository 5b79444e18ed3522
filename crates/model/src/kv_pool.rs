//! Fixed-size KV page pool with radix prefix sharing.
//!
//! The serving-memory substrate for cross-request prompt reuse, in the
//! spirit of vLLM's paged attention (Kwon et al., SOSP 2023) and SGLang's
//! RadixAttention (Zheng et al., 2024), adapted to this workspace's
//! pipeline-stage caches:
//!
//! * The pool owns a **fixed budget of pages** (`n_pages`), each covering
//!   `tokens_per_page` consecutive token positions.  Every admitted request
//!   reserves the pages its prompt + generation budget needs; pages backing
//!   a committed shared prefix are counted once, however many requests
//!   attach them.
//! * A **radix tree over token chunks** maps prompt prefixes to committed
//!   page chains.  Each node holds exactly one page worth of tokens and, in
//!   real-execution mode, the frozen [`KvPage`] of every pipeline stage
//!   (keyed by the stage's global layer range).  A request whose prompt
//!   shares a committed prefix pins the matched path, attaches those pages
//!   read-only, and **skips prefill** for the matched span.
//! * **Refcounts + LRU leaf eviction**: pinned nodes (`refs > 0`) are never
//!   evicted; when admission needs pages, refcount-0 leaves are evicted in
//!   least-recently-used order.  If that cannot free enough, admission fails
//!   with [`AdmissionRefusal`] — never a panic or OOM — which `pi-serve`
//!   surfaces as a scheduling refusal.
//!
//! Page contents are immutable once committed (`Arc<KvPage>`); divergence is
//! handled downstream by [`crate::kv_cache::KvCache`]'s copy-on-write.  An
//! evicted node only drops the pool's reference — caches still attached keep
//! their pages alive through the `Arc`, so eviction can never corrupt a
//! running request.

use crate::kv_cache::KvPage;
use crate::Token;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::{Arc, Mutex};

/// A pipeline stage's identity inside the pool: its global layer range
/// `[start, end)`.  Stage engines commit and look up their per-stage pages
/// under this key.
pub type StageKey = (usize, usize);

/// Pool geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvPoolConfig {
    /// Cells per page (must divide request positions into chunks; 16–64 are
    /// typical — llama.cpp uses 256, vLLM 16).
    pub tokens_per_page: usize,
    /// Total pages the pool may hand out across all in-flight requests and
    /// committed prefixes.
    pub n_pages: usize,
}

/// Admission failed: the pool cannot reserve the pages the request needs,
/// even after evicting every unpinned prefix.  The scheduler should retry
/// once in-flight requests release their reservations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionRefusal {
    /// Pages the request still needed beyond its shared prefix.
    pub needed_pages: usize,
    /// Pages actually free (after eviction) at refusal time.
    pub free_pages: usize,
}

impl fmt::Display for AdmissionRefusal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "KV pool admission refused: need {} pages, {} free",
            self.needed_pages, self.free_pages
        )
    }
}

impl std::error::Error for AdmissionRefusal {}

/// Outcome of [`KvPagePool::begin_request`]: the request is admitted, holds
/// a page reservation, and may attach `cached_tokens` tokens of committed
/// prefix.  Must be paired with [`KvPagePool::end_request`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefixTicket {
    /// Ticket id for follow-up `commit_chain` / `end_request` calls.
    pub id: u64,
    /// Tokens of the prompt covered by the matched (pinned) prefix chain.
    pub cached_tokens: usize,
}

/// Counters and occupancy snapshot, surfaced through `ServeReport`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KvPoolStats {
    /// Pages currently reserved or committed.
    pub pages_in_use: usize,
    /// High-water mark of `pages_in_use`.
    pub peak_pages_in_use: usize,
    /// Admitted requests.
    pub requests: u64,
    /// Admitted requests that attached a non-empty committed prefix.
    pub share_hits: u64,
    /// Total tokens served from committed prefixes instead of prefill.
    pub shared_tokens: u64,
    /// Radix nodes (= pages) committed over the pool's lifetime.
    pub pages_committed: u64,
    /// Refcount-0 leaves evicted to make room.
    pub evictions: u64,
    /// Requests refused because the pool was exhausted.
    pub refusals: u64,
}

struct Node {
    /// Exactly `tokens_per_page` tokens.
    chunk: Vec<Token>,
    children: Vec<usize>,
    parent: Option<usize>,
    /// Pin count: number of tickets whose path includes this node.
    refs: usize,
    /// LRU stamp (pool-internal logical clock).
    last_use: u64,
    /// Frozen per-stage pages; empty until a real engine commits them.
    storage: HashMap<StageKey, Arc<KvPage>>,
}

struct TicketState {
    /// Pinned nodes: matched prefix plus nodes committed under this ticket.
    path: Vec<usize>,
    /// Reserved pages not yet converted into committed nodes.
    reserved_left: usize,
}

#[derive(Default)]
struct PoolInner {
    nodes: Vec<Node>,
    free_nodes: Vec<usize>,
    roots: Vec<usize>,
    /// Pages held by committed radix nodes.
    committed: usize,
    /// Pages reserved by in-flight tickets (not yet committed).
    reserved: usize,
    clock: u64,
    next_ticket: u64,
    tickets: HashMap<u64, TicketState>,
    /// Refcount-0 committed leaves keyed by `(last_use, index)`: the LRU
    /// eviction frontier, maintained incrementally at every refcount /
    /// child-list / stamp mutation so `make_room` pops victims in `O(log n)`
    /// instead of rescanning every node per freed page.
    evictable: BTreeSet<(u64, usize)>,
    stats: KvPoolStats,
}

impl PoolInner {
    fn in_use(&self) -> usize {
        self.committed + self.reserved
    }

    fn touch_stats(&mut self) {
        self.stats.pages_in_use = self.committed + self.reserved;
        self.stats.peak_pages_in_use = self.stats.peak_pages_in_use.max(self.stats.pages_in_use);
    }

    fn children_of(&self, parent: Option<usize>) -> &[usize] {
        match parent {
            Some(p) => &self.nodes[p].children,
            None => &self.roots,
        }
    }

    /// Child of `parent` holding exactly `chunk`, with storage covering all
    /// `required_stages`.
    fn find_child(
        &self,
        parent: Option<usize>,
        chunk: &[Token],
        required_stages: &[StageKey],
    ) -> Option<usize> {
        self.children_of(parent).iter().copied().find(|&c| {
            let node = &self.nodes[c];
            node.chunk == chunk && required_stages.iter().all(|s| node.storage.contains_key(s))
        })
    }

    /// Re-evaluates `idx`'s membership in the eviction frontier after a
    /// mutation of its refcount, child list or LRU stamp.  `old_last_use` is
    /// the stamp the node carried before the mutation (its previous key in
    /// the frontier, if it was there).
    fn refresh_evictable(&mut self, idx: usize, old_last_use: u64) {
        self.evictable.remove(&(old_last_use, idx));
        let n = &self.nodes[idx];
        if !n.chunk.is_empty() && n.refs == 0 && n.children.is_empty() {
            self.evictable.insert((n.last_use, idx));
        }
    }

    /// Pins `idx` against eviction and stamps its LRU clock.
    fn pin(&mut self, idx: usize, clock: u64) {
        let old = self.nodes[idx].last_use;
        self.nodes[idx].refs += 1;
        self.nodes[idx].last_use = clock;
        self.refresh_evictable(idx, old);
    }

    /// Drops one pin from `idx`; a now-unpinned leaf rejoins the frontier.
    fn unpin(&mut self, idx: usize) {
        let old = self.nodes[idx].last_use;
        self.nodes[idx].refs = self.nodes[idx].refs.saturating_sub(1);
        self.refresh_evictable(idx, old);
    }

    /// Evicts the least-recently-used refcount-0 leaf.  Returns false when
    /// every remaining node is pinned or interior.
    fn evict_one(&mut self) -> bool {
        let Some(&(stamp, victim)) = self.evictable.iter().next() else {
            return false;
        };
        self.evictable.remove(&(stamp, victim));
        let parent = self.nodes[victim].parent;
        match parent {
            Some(p) => self.nodes[p].children.retain(|&c| c != victim),
            None => self.roots.retain(|&c| c != victim),
        }
        let node = &mut self.nodes[victim];
        node.chunk.clear();
        node.children.clear();
        node.storage.clear();
        node.parent = None;
        self.free_nodes.push(victim);
        self.committed -= 1;
        self.stats.evictions += 1;
        // Losing its last child may expose the parent as a new LRU leaf.
        if let Some(p) = parent {
            let lu = self.nodes[p].last_use;
            self.refresh_evictable(p, lu);
        }
        true
    }

    /// Frees enough pages for `needed` new reservations, evicting LRU leaves
    /// as required.  Returns the free-page count on failure.
    fn make_room(&mut self, needed: usize, capacity: usize) -> Result<(), usize> {
        loop {
            let free = capacity - self.in_use();
            if free >= needed {
                return Ok(());
            }
            if !self.evict_one() {
                return Err(capacity - self.in_use());
            }
        }
    }

    fn insert_node(&mut self, parent: Option<usize>, chunk: Vec<Token>) -> usize {
        let node = Node {
            chunk,
            children: Vec::new(),
            parent,
            refs: 0,
            last_use: self.clock,
            storage: HashMap::new(),
        };
        let idx = match self.free_nodes.pop() {
            Some(i) => {
                self.nodes[i] = node;
                i
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        };
        match parent {
            Some(p) => {
                // Gaining a child removes the parent from the frontier.
                self.evictable.remove(&(self.nodes[p].last_use, p));
                self.nodes[p].children.push(idx);
            }
            None => self.roots.push(idx),
        }
        self.committed += 1;
        self.stats.pages_committed += 1;
        self.evictable.insert((self.nodes[idx].last_use, idx));
        idx
    }
}

/// The shared page pool.  One per [`Deployment::prepare`] call (or per
/// serving process); cheap to clone via `Arc`.
///
/// [`Deployment::prepare`]: ../../pi_spec/deploy/struct.Deployment.html
pub struct KvPagePool {
    cfg: KvPoolConfig,
    inner: Mutex<PoolInner>,
}

impl fmt::Debug for KvPagePool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = self.stats();
        f.debug_struct("KvPagePool")
            .field("cfg", &self.cfg)
            .field("stats", &stats)
            .finish()
    }
}

impl KvPagePool {
    /// Creates an empty pool.
    pub fn new(cfg: KvPoolConfig) -> Arc<Self> {
        assert!(cfg.tokens_per_page > 0, "tokens_per_page must be positive");
        Arc::new(Self {
            cfg,
            inner: Mutex::new(PoolInner::default()),
        })
    }

    /// Pool geometry.
    pub fn config(&self) -> KvPoolConfig {
        self.cfg
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PoolInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Splits `prompt` into full page chunks (the committable span).
    fn chunks<'a>(&self, prompt: &'a [Token]) -> impl Iterator<Item = &'a [Token]> {
        let tpp = self.cfg.tokens_per_page;
        let full = prompt.len() / tpp;
        (0..full).map(move |i| &prompt[i * tpp..(i + 1) * tpp])
    }

    /// Admits a request: matches the longest committed prefix of `prompt`
    /// (whose nodes carry pages for every stage in `required_stages`), pins
    /// it, and reserves the pages needed for the rest of the prompt plus
    /// `extra_tokens` of generation.  On success the caller may attach
    /// `cached_tokens` of prefix and **must** later call
    /// [`KvPagePool::end_request`]; on exhaustion (after LRU eviction of
    /// every unpinned leaf) returns [`AdmissionRefusal`].
    pub fn begin_request(
        &self,
        prompt: &[Token],
        extra_tokens: usize,
        required_stages: &[StageKey],
    ) -> Result<PrefixTicket, AdmissionRefusal> {
        let tpp = self.cfg.tokens_per_page;
        let mut inner = self.lock();
        inner.clock += 1;
        let clock = inner.clock;

        // Longest-prefix match over full-page chunks.
        let mut path = Vec::new();
        let mut parent = None;
        for chunk in self.chunks(prompt) {
            match inner.find_child(parent, chunk, required_stages) {
                Some(c) => {
                    path.push(c);
                    parent = Some(c);
                }
                None => break,
            }
        }
        let matched_pages = path.len();
        let total_pages = (prompt.len() + extra_tokens).div_ceil(tpp);
        let new_pages = total_pages.saturating_sub(matched_pages);

        // Pin the matched chain *before* making room: its nodes may carry
        // stale LRU stamps, and eviction must never pick the very pages this
        // request is about to attach.
        for &n in &path {
            inner.pin(n, clock);
        }
        if let Err(free) = inner.make_room(new_pages, self.cfg.n_pages) {
            for &n in &path {
                inner.unpin(n);
            }
            inner.stats.refusals += 1;
            return Err(AdmissionRefusal {
                needed_pages: new_pages,
                free_pages: free,
            });
        }
        inner.reserved += new_pages;
        let id = inner.next_ticket;
        inner.next_ticket += 1;
        inner.tickets.insert(
            id,
            TicketState {
                path,
                reserved_left: new_pages,
            },
        );
        inner.stats.requests += 1;
        let cached_tokens = matched_pages * tpp;
        if cached_tokens > 0 {
            inner.stats.share_hits += 1;
            inner.stats.shared_tokens += cached_tokens as u64;
        }
        inner.touch_stats();
        Ok(PrefixTicket { id, cached_tokens })
    }

    /// The pinned prefix chain of `ticket` for one stage, in order.  Empty
    /// when any matched node lacks that stage's pages (simulation-mode
    /// chains carry no storage).
    pub fn pinned_pages(&self, ticket: u64, stage: StageKey) -> Vec<Arc<KvPage>> {
        let inner = self.lock();
        let Some(t) = inner.tickets.get(&ticket) else {
            return Vec::new();
        };
        let mut out = Vec::with_capacity(t.path.len());
        for &n in &t.path {
            match inner.nodes[n].storage.get(&stage) {
                Some(p) => out.push(p.clone()),
                None => return Vec::new(),
            }
        }
        out
    }

    /// Commits the full-page prefix of `prompt` into the radix tree under
    /// `ticket`, converting reserved pages into committed nodes.  With
    /// `stage`/`pages` given (real mode), the stage's frozen pages are
    /// recorded on the chain's nodes; simulation mode passes `None` and
    /// commits token-only nodes.  Idempotent: chunks already committed are
    /// only re-pinned / re-stamped, and commitment stops early (best-effort)
    /// if the pool is exhausted — the request itself already holds its
    /// private pages.
    pub fn commit_chain(
        &self,
        ticket: u64,
        prompt: &[Token],
        stage: Option<(StageKey, &[Arc<KvPage>])>,
    ) {
        let mut inner = self.lock();
        inner.clock += 1;
        let clock = inner.clock;
        if !inner.tickets.contains_key(&ticket) {
            return;
        }
        let mut parent = None;
        let chunks: Vec<&[Token]> = self.chunks(prompt).collect();
        for (i, chunk) in chunks.into_iter().enumerate() {
            let existing = inner.find_child(parent, chunk, &[]);
            let node = match existing {
                Some(n) => n,
                None => {
                    // A new node consumes this ticket's reservation first,
                    // then free pages, then gives up (never refuses here —
                    // the request is already running).
                    let from_reservation = {
                        let t = inner.tickets.get_mut(&ticket).unwrap();
                        if t.reserved_left > 0 {
                            t.reserved_left -= 1;
                            true
                        } else {
                            false
                        }
                    };
                    if from_reservation {
                        inner.reserved -= 1;
                    } else if inner.make_room(1, self.cfg.n_pages).is_err() {
                        break;
                    }
                    inner.insert_node(parent, chunk.to_vec())
                }
            };
            let old_stamp = inner.nodes[node].last_use;
            inner.nodes[node].last_use = clock;
            if let Some((key, pages)) = stage {
                if let Some(page) = pages.get(i) {
                    inner.nodes[node]
                        .storage
                        .entry(key)
                        .or_insert_with(|| page.clone());
                }
            }
            // Pin nodes not already on the ticket's path so concurrent
            // eviction can never free a chain its request still relies on.
            let newly_pinned = {
                let t = inner.tickets.get_mut(&ticket).unwrap();
                if t.path.contains(&node) {
                    false
                } else {
                    t.path.push(node);
                    true
                }
            };
            if newly_pinned {
                inner.nodes[node].refs += 1;
            }
            inner.refresh_evictable(node, old_stamp);
            parent = Some(node);
        }
        inner.touch_stats();
    }

    /// Releases a request: unpins its prefix chain and returns its unused
    /// reservation to the pool.
    pub fn end_request(&self, ticket: u64) {
        let mut inner = self.lock();
        let Some(t) = inner.tickets.remove(&ticket) else {
            return;
        };
        for &n in &t.path {
            inner.unpin(n);
        }
        inner.reserved -= t.reserved_left;
        inner.touch_stats();
    }

    /// Occupancy and reuse counters.
    pub fn stats(&self) -> KvPoolStats {
        let inner = self.lock();
        let mut stats = inner.stats;
        stats.pages_in_use = inner.in_use();
        stats
    }

    /// Prefix-reuse hit rate over admitted requests (0 when none admitted).
    pub fn hit_rate(&self) -> f64 {
        let s = self.stats();
        if s.requests == 0 {
            0.0
        } else {
            s.share_hits as f64 / s.requests as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(n_pages: usize) -> Arc<KvPagePool> {
        KvPagePool::new(KvPoolConfig {
            tokens_per_page: 4,
            n_pages,
        })
    }

    fn prompt(shared: usize, tag: Token) -> Vec<Token> {
        let mut p: Vec<Token> = (0..shared as Token).collect();
        p.extend([1000 + tag, 1001 + tag, 1002 + tag, 1003 + tag]);
        p
    }

    #[test]
    fn second_request_attaches_committed_prefix() {
        let pool = pool(32);
        let a = pool.begin_request(&prompt(8, 0), 4, &[]).unwrap();
        assert_eq!(a.cached_tokens, 0);
        pool.commit_chain(a.id, &prompt(8, 0), None);
        pool.end_request(a.id);

        let b = pool.begin_request(&prompt(8, 100), 4, &[]).unwrap();
        assert_eq!(b.cached_tokens, 8, "two full shared pages are matched");
        let s = pool.stats();
        assert_eq!(s.share_hits, 1);
        assert_eq!(s.shared_tokens, 8);
        pool.end_request(b.id);
    }

    #[test]
    fn accounting_tiles_capacity() {
        let pool = pool(8);
        // 12 prompt tokens + 4 generated = 4 pages reserved.
        let a = pool.begin_request(&prompt(8, 0), 4, &[]).unwrap();
        assert_eq!(pool.stats().pages_in_use, 4);
        pool.commit_chain(a.id, &prompt(8, 0), None);
        // Committing 3 full pages converts reservation, no double count.
        assert_eq!(pool.stats().pages_in_use, 4);
        pool.end_request(a.id);
        // The unused generation reservation is returned; 3 committed remain.
        assert_eq!(pool.stats().pages_in_use, 3);
    }

    #[test]
    fn exhaustion_refuses_instead_of_panicking() {
        let pool = pool(4);
        let a = pool.begin_request(&prompt(8, 0), 4, &[]).unwrap();
        let err = pool.begin_request(&prompt(8, 100), 4, &[]).unwrap_err();
        assert!(err.needed_pages > err.free_pages);
        assert_eq!(pool.stats().refusals, 1);
        pool.end_request(a.id);
        // Capacity released: the same request is now admissible.
        assert!(pool.begin_request(&prompt(8, 100), 4, &[]).is_ok());
    }

    #[test]
    fn lru_eviction_frees_unpinned_leaves_only() {
        let pool = pool(6);
        // Two independent 2-page chains fill 4 of 6 pages.
        for tag in [0, 40] {
            let p: Vec<Token> = (tag..tag + 8).collect();
            let t = pool.begin_request(&p, 0, &[]).unwrap();
            pool.commit_chain(t.id, &p, None);
            pool.end_request(t.id);
        }
        assert_eq!(pool.stats().pages_in_use, 4);
        // A request needing 4 pages forces eviction of the LRU chain.
        let big: Vec<Token> = (100..116).collect();
        let t = pool.begin_request(&big, 0, &[]).unwrap();
        assert!(pool.stats().evictions >= 2);
        pool.end_request(t.id);
    }

    #[test]
    fn admission_never_evicts_its_own_matched_chain() {
        let pool = pool(4);
        // Commit a 2-page shared chain, then a younger unrelated 1-page
        // chain, both unpinned: the shared chain is the LRU entry.
        let shared: Vec<Token> = (0..8).collect();
        let a = pool.begin_request(&shared, 0, &[]).unwrap();
        pool.commit_chain(a.id, &shared, None);
        pool.end_request(a.id);
        let other: Vec<Token> = (100..104).collect();
        let b = pool.begin_request(&other, 0, &[]).unwrap();
        pool.commit_chain(b.id, &other, None);
        pool.end_request(b.id);
        assert_eq!(pool.stats().pages_in_use, 3);
        // A request matching the stale-stamped shared chain and needing two
        // more pages must evict the unrelated leaf, never its own match.
        let grown: Vec<Token> = (0..12).collect();
        let t = pool.begin_request(&grown, 4, &[]).unwrap();
        assert_eq!(t.cached_tokens, 8, "the matched span survives eviction");
        assert_eq!(pool.stats().evictions, 1);
        pool.end_request(t.id);
        // The shared chain is intact; the unrelated one was the victim.
        let c = pool.begin_request(&shared, 0, &[]).unwrap();
        assert_eq!(c.cached_tokens, 8);
        pool.end_request(c.id);
        let d = pool.begin_request(&other, 0, &[]).unwrap();
        assert_eq!(d.cached_tokens, 0);
        pool.end_request(d.id);
    }

    #[test]
    fn pinned_chains_survive_eviction_pressure() {
        let pool = pool(4);
        let shared: Vec<Token> = (0..8).collect();
        let a = pool.begin_request(&shared, 0, &[]).unwrap();
        pool.commit_chain(a.id, &shared, None);
        // `a` still holds its pins; a hungry request cannot evict them.
        let big: Vec<Token> = (100..120).collect();
        assert!(pool.begin_request(&big, 0, &[]).is_err());
        // The pinned chain is still matchable.
        let b = pool.begin_request(&shared, 0, &[]).unwrap();
        assert_eq!(b.cached_tokens, 8);
        pool.end_request(a.id);
        pool.end_request(b.id);
    }

    #[test]
    fn real_mode_match_requires_stage_storage() {
        let pool = pool(16);
        let stage: StageKey = (0, 4);
        let p: Vec<Token> = (0..8).collect();
        let a = pool.begin_request(&p, 0, &[stage]).unwrap();
        // Token-only commit (no storage recorded).
        pool.commit_chain(a.id, &p, None);
        pool.end_request(a.id);
        // A requester that needs stage pages must not match storage-less
        // nodes…
        let b = pool.begin_request(&p, 0, &[stage]).unwrap();
        assert_eq!(b.cached_tokens, 0);
        // …but after a real commit the pages are served.
        let pages: Vec<Arc<KvPage>> = (0..2).map(|_| Arc::new(KvPage::zeroed(2, 4, 4))).collect();
        pool.commit_chain(b.id, &p, Some((stage, &pages)));
        pool.end_request(b.id);
        let c = pool.begin_request(&p, 0, &[stage]).unwrap();
        assert_eq!(c.cached_tokens, 8);
        assert_eq!(pool.pinned_pages(c.id, stage).len(), 2);
        pool.end_request(c.id);
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Arbitrary interleavings of admit / commit / release keep the pool
        /// accounting sound: pages in use never exceed capacity, prefix
        /// matches are page-granular, refusals always report genuine
        /// pressure, and once every ticket is released no page stays
        /// pinned — a request spanning the whole pool is admissible again
        /// (i.e. random lifecycles never leak reservations or refcounts).
        #[test]
        fn prop_random_lifecycles_never_leak_or_overcommit(
            ops in proptest::collection::vec(0u32..1_000_000, 1..80),
        ) {
            let cfg = KvPoolConfig {
                tokens_per_page: 4,
                n_pages: 16,
            };
            let pool = KvPagePool::new(cfg);
            let mut live: Vec<(u64, Vec<Token>)> = Vec::new();
            for op in ops {
                match op % 3 {
                    0 => {
                        // Prompts are family-deterministic, so two begins of
                        // the same family share their full common prefix and
                        // different families never collide.
                        let family = (op / 3) % 3;
                        let len = 4 + (op / 9) % 24;
                        let n_gen = ((op / 216) % 8) as usize;
                        let prompt: Vec<Token> =
                            (0..len).map(|i| family * 10_000 + i).collect();
                        match pool.begin_request(&prompt, n_gen, &[]) {
                            Ok(t) => {
                                prop_assert!(t.cached_tokens <= prompt.len());
                                prop_assert_eq!(
                                    t.cached_tokens % cfg.tokens_per_page,
                                    0,
                                    "prefix matches are page-granular"
                                );
                                live.push((t.id, prompt));
                            }
                            Err(e) => prop_assert!(e.needed_pages > e.free_pages),
                        }
                    }
                    1 => {
                        if !live.is_empty() {
                            let (id, prompt) = &live[(op as usize / 3) % live.len()];
                            pool.commit_chain(*id, prompt, None);
                        }
                    }
                    _ => {
                        if !live.is_empty() {
                            let (id, _) = live.remove((op as usize / 3) % live.len());
                            pool.end_request(id);
                        }
                    }
                }
                let s = pool.stats();
                prop_assert!(s.pages_in_use <= cfg.n_pages);
                prop_assert!(s.peak_pages_in_use <= cfg.n_pages);
                prop_assert!(s.share_hits <= s.requests);
            }
            for (id, _) in live.drain(..) {
                pool.end_request(id);
            }
            // Leak check: with every ticket released all remaining pages
            // belong to refcount-0 committed chains, so a pool-spanning
            // request must be admitted after LRU eviction clears them.
            let full: Vec<Token> = (0..(cfg.n_pages * cfg.tokens_per_page) as Token)
                .map(|i| 900_000 + i)
                .collect();
            prop_assert!(pool.begin_request(&full, 0, &[]).is_ok());
        }
    }
}
