//! Offline stand-in for the `rayon` crate.
//!
//! Provides the one parallel-iterator shape the workspace uses —
//! `slice.par_chunks_mut(n).enumerate().for_each(f)` — executed on a
//! **persistent worker pool** ([`pool`]) instead of rayon's work-stealing
//! runtime.  The pool is created once per process and its threads are
//! long-lived.
//!
//! The pool has one parallel mode, the *compute section*: a thread that
//! holds a [`pool::Team`] keeps the pool's helpers with it between calls,
//! and its calls split over them, claiming items through one atomic word
//! (uniform cost per item, as in the matmul column blocks), while no other
//! thread is inside a section.  Every other call — on a thread without a
//! team, beside another section, or from inside an item — runs inline on
//! the calling thread and never touches the pool.
//!
//! A team's width is `PIPEINFER_THREADS` when set (read when it opens, so
//! `PIPEINFER_THREADS=1` makes every team inert and every call serial),
//! otherwise the machine's available parallelism.

pub mod prelude {
    //! Drop-in replacement for `rayon::prelude::*`.
    pub use crate::slice::ParallelSliceMut;
}

pub mod pool {
    //! The process-wide persistent worker pool.
    //!
    //! Design (llama.cpp-style compute pool, simplified):
    //!
    //! * One [`WorkerPool`] per process, lazily created through a `OnceLock`.
    //!   Worker threads are spawned on demand up to the requested parallelism
    //!   and never exit; repeated parallel calls reuse them.
    //! * A thread that holds a [`Team`] is inside a *compute section*: the
    //!   team is the thread and `width - 1` pool threads that took its
    //!   tickets off the queue and stay with it until it closes.  A call
    //!   splits over them only while no other thread is inside a section,
    //!   so threads that compute at once (the ranks of a cluster run) each
    //!   keep a core and the cores of idle ones go to whichever computes
    //!   alone.  Every other call runs inline on the calling thread.
    //! * A split call stores its task and publishes its two unclaimed ends in
    //!   one atomic claim word, which the caller claims from the front and
    //!   the helpers from the back, so several teams run at once without
    //!   serialising each other, and a caller finishes its call alone if no
    //!   helper has joined yet.
    //! * A panic inside a work item is caught on the thread that ran it,
    //!   recorded on the team, and re-raised on the *calling* thread once
    //!   every item has run; pool threads never die, so a panicking kernel
    //!   cannot leak or grow threads.
    //!
    //! Safety: a team stores a raw pointer to the caller's closure.  This is
    //! sound because the caller blocks in the call until every item it
    //! published has completed, and a member only dereferences the closure
    //! after claiming an in-range item.  A claim reads both ends from the
    //! word it changed, so a helper that arrives late — between two calls
    //! of its team — can only ever claim an item of the call in flight, if
    //! any; and the caller stores the next call's task only after every item
    //! of the previous one completed.

    use std::cell::{RefCell, UnsafeCell};
    use std::collections::VecDeque;
    use std::marker::PhantomData;
    use std::num::NonZeroUsize;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, OnceLock};
    use std::time::{Duration, Instant};

    /// What a work item panicked with, carried back to the calling thread so
    /// the original message/location is preserved on re-raise.
    type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

    /// Environment variable overriding the pool's parallelism.
    pub const THREADS_ENV: &str = "PIPEINFER_THREADS";

    /// Upper bound on the pool's parallelism, from the override and the
    /// machine alike: a backstop against `PIPEINFER_THREADS=100000`, not a
    /// tuning knob, and what bounds a team's width for its claim word
    /// ([`BACK_BIAS`]).
    pub(crate) const MAX_THREADS: usize = 256;

    struct PoolState {
        /// One ticket per helper a team asked for: stay with it until it
        /// closes.
        queue: VecDeque<Arc<TeamState>>,
        /// Worker threads spawned so far.
        workers: usize,
    }

    struct Shared {
        state: Mutex<PoolState>,
        work_cv: Condvar,
    }

    /// The persistent worker pool.
    pub struct WorkerPool {
        shared: Arc<Shared>,
    }

    static POOL: OnceLock<WorkerPool> = OnceLock::new();

    /// The process-wide pool (created on first use).
    pub fn global() -> &'static WorkerPool {
        POOL.get_or_init(|| WorkerPool {
            shared: Arc::new(Shared {
                state: Mutex::new(PoolState {
                    queue: VecDeque::new(),
                    workers: 0,
                }),
                work_cv: Condvar::new(),
            }),
        })
    }

    /// The `PIPEINFER_THREADS` override, re-read on every call.  Parsed in
    /// place from what `var_os` hands back; an unset variable (the shipped
    /// configuration) allocates nothing.
    fn env_threads() -> Option<usize> {
        std::env::var_os(THREADS_ENV)?
            .to_str()?
            .trim()
            .parse::<usize>()
            .ok()
            .filter(|&n| n > 0)
            .map(|n| n.min(MAX_THREADS))
    }

    fn default_threads() -> usize {
        // `available_parallelism` is *not* cheap on Linux: it re-reads the
        // cgroup CPU quota files on every call (~10µs in a container), which
        // a per-dispatch caller would pay on every matmul.  The machine's
        // parallelism cannot change under us, so resolve it once; only the
        // `PIPEINFER_THREADS` override stays dynamic.
        static DEFAULT: OnceLock<usize> = OnceLock::new();
        *DEFAULT.get_or_init(|| {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
                .min(MAX_THREADS)
        })
    }

    /// Configured parallelism: `PIPEINFER_THREADS` if set, else available
    /// parallelism.
    pub fn configured_threads() -> usize {
        env_threads().unwrap_or_else(default_threads)
    }

    /// Total worker threads this process has ever spawned.  The pool only
    /// grows when a team opens wider than every previous one, so under a
    /// fixed configuration this is constant after the first team.
    #[cfg(test)]
    pub(crate) fn spawned_workers() -> usize {
        global().shared.state.lock().unwrap().workers
    }

    fn worker_loop(shared: Arc<Shared>) {
        loop {
            let team = {
                let mut st = shared.state.lock().unwrap();
                loop {
                    if let Some(team) = st.queue.pop_front() {
                        break team;
                    }
                    st = shared.work_cv.wait(st).unwrap();
                }
            };
            team.help();
        }
    }

    /// Runs the `n_items` items of `task` one after another on the calling
    /// thread, each even if an earlier one panicked; the first panic's
    /// payload, if any.
    fn run_serial(n_items: usize, task: &(dyn Fn(usize) + Sync)) -> Option<PanicPayload> {
        let mut first_panic = None;
        for i in 0..n_items {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| task(i))) {
                first_panic.get_or_insert(payload);
            }
        }
        first_panic
    }

    impl WorkerPool {
        fn ensure_workers(&self, target: usize) {
            let mut st = self.shared.state.lock().unwrap();
            while st.workers < target {
                let shared = self.shared.clone();
                std::thread::Builder::new()
                    .name(format!("pipeinfer-pool-{}", st.workers))
                    .spawn(move || worker_loop(shared))
                    .expect("failed to spawn pool worker");
                st.workers += 1;
            }
        }

        /// Runs `task(i)` for every `i` in `0..n_items`, blocking until all
        /// items completed.
        ///
        /// Every item executes even if an earlier one panics (callers such as
        /// `par_chunks_mut` rely on each index being visited exactly once);
        /// the first panic's original payload is re-raised on the calling
        /// thread after the last item ran.  Panics if `n_items` is more than
        /// `u32::MAX - 256`.
        ///
        /// On a thread that holds a [`Team`], a call of two items or more
        /// goes to the team's helpers while no other thread is inside a
        /// compute section (read anew on every call); an item that itself
        /// makes a parallel call makes it outside the team.  Every other
        /// call runs its items inline on the calling thread and never
        /// touches the pool.
        pub fn run(&self, n_items: usize, task: &(dyn Fn(usize) + Sync)) {
            // A claim word holds no more; `par_chunks_mut` builds its slices
            // from claimed indices, so this bound is a safety check.
            assert!(
                n_items <= MAX_CALL_ITEMS,
                "{n_items} items in one parallel call"
            );
            let held = match n_items {
                0 | 1 => None,
                _ => CURRENT.with(|current| current.borrow_mut().take()),
            };
            let panicked = match held {
                Some(team) => {
                    let panicked = if alone() {
                        team.dispatch(n_items, task)
                    } else {
                        run_serial(n_items, task)
                    };
                    CURRENT.with(|current| *current.borrow_mut() = Some(team));
                    panicked
                }
                None => run_serial(n_items, task),
            };
            if let Some(payload) = panicked {
                resume_unwind(payload);
            }
        }
    }

    /// How long a team helper spins on the claim word after its last item
    /// before it parks (see [`Team`] for how it was placed).
    const TEAM_SPIN: Duration = Duration::from_micros(50);

    /// Threads inside a compute section: holding a [`Team`] that is not
    /// inert.  A thread counts once however many teams it opens inside its
    /// own, and a team's helpers do not count.
    static SECTIONS: CacheLine<AtomicUsize> = CacheLine(AtomicUsize::new(0));

    /// Whether no thread but the caller, itself inside a section, is inside
    /// one: whether a parallel call of the caller's may use the cores.  A
    /// heuristic read, so `Relaxed`: a section that opens while a call is in
    /// flight waits for that one call at most.
    fn alone() -> bool {
        SECTIONS.load(Ordering::Relaxed) <= 1
    }

    /// Bits of the claim word below the back end: the front end.
    const FRONT_BITS: u32 = 32;

    /// Offset of the back end in the claim word: more than the helpers that
    /// can overshoot it at once (a team has at most `MAX_THREADS - 1`, each
    /// overshooting an exhausted call once before it sees the call empty).
    const BACK_BIAS: u64 = MAX_THREADS as u64;
    const _: () = assert!(MAX_THREADS as u64 - 1 < BACK_BIAS);

    /// Most items one claim word can hold.
    const MAX_CALL_ITEMS: usize = (u32::MAX as u64 - BACK_BIAS) as usize;

    thread_local! {
        /// The team this thread holds, if any.  Taken out for the length of
        /// a team call, so that a parallel call from inside one of its items
        /// runs inline.
        static CURRENT: RefCell<Option<Arc<TeamState>>> = const { RefCell::new(None) };
    }

    /// What a team's members share: one per open team, reused by every call.
    struct TeamState {
        width: usize,
        /// The two unclaimed ends of the call in flight, `back << 32 |
        /// front` ([`claim_word`]).  A call stores it whole; the caller
        /// claims from the front with one `fetch_add`, helpers from the back
        /// with one `fetch_sub`, and each reads both ends from the value it
        /// got back, so a claim is always of the call in flight and no item
        /// is claimed twice.  Each end has room for every member
        /// overshooting it once.
        claim: AtomicU64,
        /// The task of the call in flight.  Written only by the caller and
        /// only when no item of the previous call is outstanding; read by a
        /// member only after claiming an in-range item of this one.
        task: UnsafeCell<Option<*const (dyn Fn(usize) + Sync)>>,
        /// Items of the call in flight that helpers have completed, on a
        /// cache line of its own: helpers write it while the caller claims.
        done: CacheLine<AtomicUsize>,
        /// First panic payload a helper's item raised in the call in flight.
        panic: Mutex<Option<PanicPayload>>,
        panicked: AtomicBool,
        closed: AtomicBool,
        /// Helpers parked (or about to park) on `wake`.
        parked: AtomicUsize,
        park: Mutex<()>,
        wake: Condvar,
    }

    /// A value alone on its cache line.
    #[repr(align(64))]
    struct CacheLine<T>(T);

    impl<T> std::ops::Deref for CacheLine<T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.0
        }
    }

    // The task pointer is only dereferenced under the protocol above; the
    // rest is atomics and locks.
    unsafe impl Send for TeamState {}
    unsafe impl Sync for TeamState {}

    /// The claim word of a call of `n_items`: the front end at 0, the back
    /// end at `n_items`, kept [`BACK_BIAS`] up so that helpers overshooting
    /// an exhausted call cannot take it below zero.
    fn claim_word(n_items: usize) -> u64 {
        (n_items as u64 + BACK_BIAS) << FRONT_BITS
    }

    /// `(front, back + BACK_BIAS)` of a claim word: items `front..back` are
    /// unclaimed when `front < back`.
    fn ends(word: u64) -> (u64, u64) {
        (word & ((1 << FRONT_BITS) - 1), word >> FRONT_BITS)
    }

    impl TeamState {
        fn new(width: usize) -> TeamState {
            TeamState {
                width,
                claim: AtomicU64::new(claim_word(0)),
                task: UnsafeCell::new(None),
                done: CacheLine(AtomicUsize::new(0)),
                panic: Mutex::new(None),
                panicked: AtomicBool::new(false),
                closed: AtomicBool::new(false),
                parked: AtomicUsize::new(0),
                park: Mutex::new(()),
                wake: Condvar::new(),
            }
        }

        /// The caller's claim: the next item from the front, if one is left.
        fn claim_front(&self) -> Option<usize> {
            let (front, back) = ends(self.claim.fetch_add(1, Ordering::AcqRel));
            (front + BACK_BIAS < back).then_some(front as usize)
        }

        /// A helper's claim: the next item from the back, if one is left.
        fn claim_back(&self) -> Option<usize> {
            let (front, back) = ends(self.claim.fetch_sub(1 << FRONT_BITS, Ordering::AcqRel));
            (front + BACK_BIAS < back).then(|| (back - BACK_BIAS - 1) as usize)
        }

        /// Whether the call in flight has an unclaimed item (a load, so that
        /// a spinning helper does not write the shared word).
        fn has_work(&self) -> bool {
            let (front, back) = ends(self.claim.load(Ordering::Acquire));
            front + BACK_BIAS < back
        }

        /// Runs item `i` of the call in flight; `None` or its panic payload.
        fn run_item(&self, i: usize) -> Option<PanicPayload> {
            // SAFETY: `i` was claimed in range, so the caller is blocked in
            // `dispatch` until this item completes and the task outlives it.
            let task = unsafe { &*(*self.task.get()).expect("a call is in flight") };
            catch_unwind(AssertUnwindSafe(|| task(i))).err()
        }

        /// The caller's side of one call: publish, work alongside the
        /// helpers, wait for their items.  Returns the first panic payload
        /// any item raised, after every item has run.
        fn dispatch(&self, n_items: usize, task: &(dyn Fn(usize) + Sync)) -> Option<PanicPayload> {
            // Erase the borrow's lifetime; this call returns only after
            // every item ran (see the module safety note).
            let task: *const (dyn Fn(usize) + Sync) = unsafe {
                std::mem::transmute::<
                    *const (dyn Fn(usize) + Sync + '_),
                    *const (dyn Fn(usize) + Sync + 'static),
                >(task as *const _)
            };
            // SAFETY: every item of the previous call completed before it
            // returned, and a claim on its word finds no item, so no member
            // reads the task now.
            unsafe { *self.task.get() = Some(task) };
            self.done.store(0, Ordering::Relaxed);
            self.claim.store(claim_word(n_items), Ordering::Release);
            // Pairs with the fence in `park`: either this call sees the
            // helper counted as parked, or the helper sees the new word.
            fence(Ordering::SeqCst);
            if self.parked.load(Ordering::Relaxed) > 0 {
                let _park = self.park.lock().unwrap();
                self.wake.notify_all();
            }
            let mut first_panic = None;
            let mut mine = 0;
            while let Some(i) = self.claim_front() {
                if let Some(payload) = self.run_item(i) {
                    first_panic.get_or_insert(payload);
                }
                mine += 1;
            }
            // The helpers' items are in progress; they are as short as this
            // thread's were, so wait for them on the core.
            let mut spins = 0u32;
            while self.done.load(Ordering::Acquire) < n_items - mine {
                spins += 1;
                if spins < 1 << 16 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
            if self.panicked.swap(false, Ordering::Relaxed) {
                let helper_panic = self.panic.lock().unwrap().take();
                first_panic = first_panic.or(helper_panic);
            }
            first_panic
        }

        /// A helper's side: run items while there are any, spin for
        /// `TEAM_SPIN` when there are none, then park; leave when the team
        /// closes.
        fn help(&self) {
            let mut idle_since: Option<Instant> = None;
            let mut polls = 0u32;
            loop {
                if self.has_work() {
                    if let Some(i) = self.claim_back() {
                        if let Some(payload) = self.run_item(i) {
                            self.panic.lock().unwrap().get_or_insert(payload);
                            self.panicked.store(true, Ordering::Relaxed);
                        }
                        self.done.fetch_add(1, Ordering::Release);
                    }
                    idle_since = None;
                    continue;
                }
                if self.closed.load(Ordering::Acquire) {
                    return;
                }
                // While another thread is in a section, this team's calls run
                // inline, and a spinning helper would take the core that
                // thread computes on.
                if !alone() {
                    self.park();
                    idle_since = None;
                    continue;
                }
                std::hint::spin_loop();
                polls = polls.wrapping_add(1);
                if !polls.is_multiple_of(64) {
                    continue;
                }
                let since = *idle_since.get_or_insert_with(Instant::now);
                if since.elapsed() >= TEAM_SPIN {
                    self.park();
                    idle_since = None;
                }
            }
        }

        /// Sleeps until a call is published or the team closes.
        fn park(&self) {
            let mut guard = self.park.lock().unwrap();
            self.parked.fetch_add(1, Ordering::Relaxed);
            fence(Ordering::SeqCst);
            while !self.has_work() && !self.closed.load(Ordering::Acquire) {
                guard = self.wake.wait(guard).unwrap();
            }
            self.parked.fetch_sub(1, Ordering::Relaxed);
        }

        fn close(&self) {
            self.closed.store(true, Ordering::Release);
            fence(Ordering::SeqCst);
            if self.parked.load(Ordering::Relaxed) > 0 {
                let _park = self.park.lock().unwrap();
                self.wake.notify_all();
            }
        }
    }

    /// A scoped compute team, the pool's one parallel mode: while the
    /// calling thread holds it, the pool keeps `width - 1` helpers with this
    /// thread, and every parallel call the thread makes ([`WorkerPool::run`],
    /// `par_chunks_mut`) is split between them and the thread itself without
    /// a queue, a lock, an allocation or a wake per call.  A thread that
    /// holds no team runs its calls inline.  Dropping it — also while
    /// unwinding — sends the helpers back to the pool, where they sleep.
    ///
    /// The width is the pool's parallelism ([`configured_threads`], at most
    /// 256) when the team opens.  A team of width 1, or one opened on a
    /// thread that already holds a team, is inert: nothing changes while it
    /// is held.  Results do not depend on the width: a call runs the same
    /// items, only on more threads.
    ///
    /// Holding a team that is not inert puts the thread inside a *compute
    /// section*, and several threads can be in one at once: the step loop,
    /// or each rank of a cluster run while it evaluates a stage or drafts.
    /// The pool counts the threads inside sections, and a section splits
    /// only over cores no other section holds — while another thread is in
    /// one, [`team_width`] reads 1 and the section's calls run inline, and
    /// its helpers park at once instead of spinning between calls.  The
    /// count is read on every call, not only at open, so a section that
    /// opened beside another splits as soon as it is alone, and one that
    /// opened alone stops splitting when another opens — on a 2-vCPU box
    /// its helper would otherwise take the core the other computes on.
    ///
    /// Between calls a helper spins for `TEAM_SPIN` (50 µs) and then parks,
    /// so a team costs a spinning core only while its thread issues calls
    /// closer together than that — the products and attention of a forward
    /// pass — and a parked helper costs the next call one wake.  Placed on
    /// the step loop of `d_model` 256 models on a 2-vCPU box, where a
    /// parked helper takes 45–100 µs to wake: the gaps inside a forward pass
    /// are a few µs, except a decode row's attention (not split), which
    /// behind a 256-token prompt takes about 20 µs a layer.  A 20 µs budget
    /// parked the helper there and cost it the next layer's products: on
    /// the prompt-sharing stream, alternating five runs of each, 20 µs read
    /// 21 % more CPU seconds per token than no team at all, 50 and 100 µs
    /// 0–7 %, and both were faster; on the short-prompt stream the three
    /// were level within the box's noise.  (In a slower hour, six runs each,
    /// 10 and 50 µs both read about 20 % more on the prompt-sharing stream:
    /// then the split products themselves cost the extra core time.)
    ///
    /// In a call the caller claims items from the front and the helpers
    /// from the back, so when a caller splits a product into one block per
    /// member, each core streams one contiguous block.
    pub struct Team {
        state: Option<Arc<TeamState>>,
        /// The team is this thread's: it lives in a thread-local.
        _not_send: PhantomData<*const ()>,
    }

    impl Team {
        /// Opens a team on the calling thread (see [`Team`]): queues a
        /// ticket per helper and wakes one idle worker per ticket.
        /// (`notify_all` would rouse every idle worker of a pool grown for a
        /// wider team to fight over them.)  A worker that is busy rather
        /// than waiting misses its wake and pops its ticket when it next
        /// looks at the queue.
        pub fn open() -> Team {
            let width = configured_threads();
            debug_assert!(
                width <= MAX_THREADS,
                "the claim word has room for the helpers"
            );
            let held = CURRENT.with(|current| current.borrow().is_some());
            if width <= 1 || held {
                return Team {
                    state: None,
                    _not_send: PhantomData,
                };
            }
            let state = Arc::new(TeamState::new(width));
            let pool = global();
            pool.ensure_workers(width - 1);
            {
                let mut st = pool.shared.state.lock().unwrap();
                for _ in 1..width {
                    st.queue.push_back(Arc::clone(&state));
                }
            }
            for _ in 1..width {
                pool.shared.work_cv.notify_one();
            }
            SECTIONS.fetch_add(1, Ordering::Relaxed);
            CURRENT.with(|current| *current.borrow_mut() = Some(Arc::clone(&state)));
            Team {
                state: Some(state),
                _not_send: PhantomData,
            }
        }
    }

    impl Drop for Team {
        fn drop(&mut self) {
            if let Some(state) = self.state.take() {
                CURRENT.with(|current| current.borrow_mut().take());
                state.close();
                SECTIONS.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    /// Width a parallel call of the calling thread splits over right now:
    /// that of the team it holds while no other thread is inside a compute
    /// section (see [`Team`]), else 1 — also when it holds none, and inside
    /// a team call's items.  Kernels read it, per call, to decide whether a
    /// product is worth splitting.
    pub fn team_width() -> usize {
        CURRENT.with(|current| match current.borrow().as_ref() {
            Some(state) if alone() => state.width,
            _ => 1,
        })
    }

    /// Threads inside a compute section right now.
    #[cfg(test)]
    pub(crate) fn sections() -> usize {
        SECTIONS.load(Ordering::Relaxed)
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn every_helper_of_the_widest_team_can_overshoot_a_call_at_once() {
            // The worst a call can see: each of the widest team's helpers
            // found an item unclaimed and claims after the last one went,
            // and the caller claims past the front once more.
            let state = TeamState::new(MAX_THREADS);
            for n in 1..=4 {
                for helper_items in 0..=n {
                    state.claim.store(claim_word(n), Ordering::Relaxed);
                    let mut seen: Vec<usize> = (0..helper_items)
                        .map(|_| state.claim_back().expect("an item is left"))
                        .collect();
                    seen.extend(std::iter::from_fn(|| state.claim_front()));
                    for _ in 1..MAX_THREADS {
                        assert_eq!(state.claim_back(), None, "{n} items");
                        assert!(!state.has_work());
                    }
                    assert_eq!(state.claim_front(), None);
                    seen.sort_unstable();
                    assert_eq!(seen, (0..n).collect::<Vec<_>>());
                }
            }
        }
    }
}

pub mod slice {
    //! Parallel operations on slices.

    use super::pool;

    /// Extension trait adding `par_chunks_mut` to mutable slices.
    pub trait ParallelSliceMut<T: Send> {
        /// Splits the slice into non-overlapping mutable chunks of `size`
        /// elements (the last chunk may be shorter) that can be processed in
        /// parallel.
        fn par_chunks_mut(&mut self, size: usize) -> ParChunksMut<'_, T>;
    }

    impl<T: Send> ParallelSliceMut<T> for [T] {
        fn par_chunks_mut(&mut self, size: usize) -> ParChunksMut<'_, T> {
            assert!(size > 0, "chunk size must be positive");
            ParChunksMut { slice: self, size }
        }
    }

    /// Parallel iterator over mutable chunks of a slice.
    pub struct ParChunksMut<'a, T: Send> {
        slice: &'a mut [T],
        size: usize,
    }

    impl<'a, T: Send> ParChunksMut<'a, T> {
        /// Pairs every chunk with its index.
        pub fn enumerate(self) -> ParEnumerate<'a, T> {
            ParEnumerate(self)
        }

        /// Applies `f` to every chunk, in parallel.
        pub fn for_each<F>(self, f: F)
        where
            F: Fn(&'a mut [T]) + Sync,
        {
            self.run(|_, chunk| f(chunk));
        }

        /// Runs `f(i, chunk i)` for every chunk on the pool, one chunk an
        /// item, without collecting the chunks first.
        fn run(self, f: impl Fn(usize, &'a mut [T]) + Sync) {
            let (len, size) = (self.slice.len(), self.size);
            let base = Base(self.slice.as_mut_ptr());
            pool::global().run(len.div_ceil(size), &|i| {
                let start = i * size;
                // SAFETY: the chunks partition the slice, which `self`
                // borrowed mutably for `'a`, and the pool runs every index
                // exactly once, so no two chunks handed out overlap.
                let chunk = unsafe {
                    std::slice::from_raw_parts_mut(base.at(start), size.min(len - start))
                };
                f(i, chunk)
            });
        }
    }

    /// The slice's base pointer, shared by the pool's chunk tasks.
    struct Base<T>(*mut T);
    // SAFETY: only used to build the disjoint chunks above, each of which is
    // sent to one task (hence `T: Send`).
    unsafe impl<T: Send> Sync for Base<T> {}

    impl<T> Base<T> {
        /// Pointer to element `i`.  (A method, so closures capture the `Sync`
        /// wrapper and not its raw-pointer field.)
        fn at(&self, i: usize) -> *mut T {
            self.0.wrapping_add(i)
        }
    }

    /// Enumerated parallel iterator over mutable chunks.
    pub struct ParEnumerate<'a, T: Send>(ParChunksMut<'a, T>);

    impl<'a, T: Send> ParEnumerate<'a, T> {
        /// Applies `f` to every `(index, chunk)` pair, in parallel.
        pub fn for_each<F>(self, f: F)
        where
            F: Fn((usize, &'a mut [T])) + Sync,
        {
            self.0.run(|i, chunk| f((i, chunk)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    /// Serialises tests that mutate `PIPEINFER_THREADS`.
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    /// Grows the shared global pool to the largest size any test in this
    /// binary can request (other tests run concurrently with the env var
    /// unset, so they request `available_parallelism`), by holding a team
    /// that wide.  Called before a test records `spawned_workers()`, it
    /// guarantees no concurrent test can grow the pool afterwards and
    /// invalidate the observation.
    fn saturate_pool() {
        let max = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .max(4);
        std::env::set_var(super::pool::THREADS_ENV, max.to_string());
        drop(super::pool::Team::open());
    }

    fn with_threads<R>(n: Option<usize>, f: impl FnOnce() -> R) -> R {
        let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let prev = std::env::var_os(super::pool::THREADS_ENV);
        saturate_pool();
        match n {
            Some(n) => std::env::set_var(super::pool::THREADS_ENV, n.to_string()),
            None => std::env::remove_var(super::pool::THREADS_ENV),
        }
        let out = f();
        match prev {
            Some(v) => std::env::set_var(super::pool::THREADS_ENV, v),
            None => std::env::remove_var(super::pool::THREADS_ENV),
        }
        out
    }

    #[test]
    fn enumerate_for_each_touches_every_chunk_once() {
        let mut data = vec![0usize; 103];
        data.par_chunks_mut(10).enumerate().for_each(|(i, chunk)| {
            for v in chunk.iter_mut() {
                *v = i + 1;
            }
        });
        for (pos, v) in data.iter().enumerate() {
            assert_eq!(*v, pos / 10 + 1);
        }
    }

    #[test]
    fn single_chunk_runs_inline() {
        let mut data = [1.0f32; 8];
        data.par_chunks_mut(100).for_each(|chunk| {
            for v in chunk.iter_mut() {
                *v *= 2.0;
            }
        });
        assert!(data.iter().all(|&v| v == 2.0));
    }

    #[test]
    fn closures_can_capture_shared_state() {
        let src: Vec<f32> = (0..64).map(|i| i as f32).collect();
        let mut dst = vec![0.0f32; 64];
        let bias = 1.5f32;
        dst.par_chunks_mut(7).enumerate().for_each(|(i, chunk)| {
            for (j, v) in chunk.iter_mut().enumerate() {
                *v = src[i * 7 + j] + bias;
            }
        });
        for (i, v) in dst.iter().enumerate() {
            assert_eq!(*v, i as f32 + 1.5);
        }
    }

    #[test]
    fn threads_env_one_forces_serial() {
        with_threads(Some(1), || {
            let caller = std::thread::current().id();
            let seen = Mutex::new(HashSet::new());
            let mut data = vec![0u32; 256];
            data.par_chunks_mut(4).enumerate().for_each(|(i, chunk)| {
                seen.lock().unwrap().insert(std::thread::current().id());
                for v in chunk.iter_mut() {
                    *v = i as u32;
                }
            });
            let seen = seen.into_inner().unwrap();
            assert_eq!(seen.len(), 1, "serial mode must not fan out");
            assert!(seen.contains(&caller), "work must run on the caller");
            for (pos, v) in data.iter().enumerate() {
                assert_eq!(*v, (pos / 4) as u32);
            }
        });
    }

    #[test]
    fn a_call_without_a_team_runs_inline_and_spawns_nothing() {
        with_threads(Some(4), || {
            let spawned_before = super::pool::spawned_workers();
            let caller = std::thread::current().id();
            let elsewhere = AtomicUsize::new(0);
            let mut data = vec![0u32; 256];
            // The items sleep, so that a helper the call was handed to would
            // have time to take one.
            data.par_chunks_mut(4).enumerate().for_each(|(i, chunk)| {
                std::thread::sleep(std::time::Duration::from_micros(100));
                if std::thread::current().id() != caller {
                    elsewhere.fetch_add(1, Ordering::Relaxed);
                }
                for v in chunk.iter_mut() {
                    *v = i as u32;
                }
            });
            assert_eq!(elsewhere.into_inner(), 0, "every item runs on the caller");
            for (pos, v) in data.iter().enumerate() {
                assert_eq!(*v, (pos / 4) as u32);
            }
            assert_eq!(super::pool::spawned_workers(), spawned_before);
        });
    }

    #[test]
    fn pool_survives_panicking_work_item() {
        with_threads(Some(4), || {
            let spawned_before = super::pool::spawned_workers();

            let caught = std::panic::catch_unwind(|| {
                let mut data = [0u8; 64];
                data.par_chunks_mut(1).enumerate().for_each(|(i, _chunk)| {
                    if i == 13 {
                        panic!("injected work-item panic");
                    }
                });
            });
            let payload = caught.expect_err("the panic must surface on the caller");
            let message = payload
                .downcast_ref::<&str>()
                .copied()
                .expect("original payload must be preserved");
            assert_eq!(message, "injected work-item panic");

            // The pool keeps working afterwards, with the same threads.
            let mut data = vec![0u32; 128];
            data.par_chunks_mut(2).enumerate().for_each(|(i, chunk)| {
                for v in chunk.iter_mut() {
                    *v = i as u32 + 1;
                }
            });
            for (pos, v) in data.iter().enumerate() {
                assert_eq!(*v, (pos / 2) as u32 + 1);
            }
            assert_eq!(
                super::pool::spawned_workers(),
                spawned_before,
                "a panicking item must not cost (or leak) threads"
            );

            // Inside a team: the panic of an item (whichever member ran it)
            // re-raises on the caller after every item ran, and the guard's
            // drop during the unwind closes the team.
            for bad in [0usize, 63] {
                let ran = std::sync::atomic::AtomicUsize::new(0);
                let caught = std::panic::catch_unwind(|| {
                    let _team = super::pool::Team::open();
                    assert_eq!(super::pool::team_width(), 4);
                    let mut data = [0u8; 64];
                    data.par_chunks_mut(1).enumerate().for_each(|(i, _chunk)| {
                        ran.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i == bad {
                            panic!("injected team-item panic");
                        }
                    });
                });
                let payload = caught.expect_err("the panic must surface on the caller");
                assert_eq!(
                    payload.downcast_ref::<&str>().copied(),
                    Some("injected team-item panic")
                );
                assert_eq!(
                    ran.into_inner(),
                    64,
                    "every item runs, item {bad} panicking"
                );
                assert_eq!(super::pool::team_width(), 1, "the unwind closed the team");
            }
            // The helpers came back: a new team splits again, on the same
            // threads.
            let team = super::pool::Team::open();
            let mut data = vec![0u32; 128];
            data.par_chunks_mut(2).enumerate().for_each(|(i, chunk)| {
                for v in chunk.iter_mut() {
                    *v = i as u32 + 1;
                }
            });
            drop(team);
            for (pos, v) in data.iter().enumerate() {
                assert_eq!(*v, (pos / 2) as u32 + 1);
            }
            assert_eq!(super::pool::spawned_workers(), spawned_before);
        });
    }

    #[test]
    fn a_team_runs_every_item_once_at_every_width() {
        // The last width is the cap: the widest team there is, with more
        // helpers than most calls have items.
        for width in [1usize, 2, 3, 4, super::pool::MAX_THREADS] {
            with_threads(Some(width), || {
                let team = super::pool::Team::open();
                assert_eq!(super::pool::team_width(), width);
                // Calls of every size, back to back and after the helpers
                // had time to park.
                for round in 0..3 {
                    for n in 1..40usize {
                        let hits: Vec<_> = (0..n)
                            .map(|_| std::sync::atomic::AtomicUsize::new(0))
                            .collect();
                        super::pool::global().run(n, &|i| {
                            hits[i].fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        });
                        assert!(
                            hits.iter()
                                .all(|h| h.load(std::sync::atomic::Ordering::Relaxed) == 1),
                            "width {width}, {n} items"
                        );
                    }
                    if round == 1 {
                        std::thread::sleep(std::time::Duration::from_millis(2));
                    }
                }
                // A team opened under a team is inert; an item's own
                // parallel call runs outside the team.
                drop(super::pool::Team::open());
                assert_eq!(super::pool::team_width(), width, "an inner team is inert");
                let nested = std::sync::atomic::AtomicUsize::new(0);
                super::pool::global().run(4, &|_| {
                    assert_eq!(super::pool::team_width(), 1);
                    let mut data = [0u8; 8];
                    data.par_chunks_mut(1).for_each(|c| c[0] = 1);
                    nested.fetch_add(
                        data.iter().map(|&v| v as usize).sum(),
                        std::sync::atomic::Ordering::Relaxed,
                    );
                });
                assert_eq!(nested.into_inner(), 32);
                drop(team);
                assert_eq!(super::pool::team_width(), 1);
            });
        }
    }

    #[test]
    fn repeated_calls_do_not_grow_thread_count() {
        with_threads(Some(4), || {
            let _team = super::pool::Team::open();
            let mut data = vec![0u64; 512];
            data.par_chunks_mut(8)
                .for_each(|c| c.iter_mut().for_each(|v| *v += 1));
            let spawned_after_first = super::pool::spawned_workers();
            assert!(spawned_after_first >= 3, "a 4-thread call spawns 3 helpers");
            for _ in 0..50 {
                data.par_chunks_mut(8)
                    .for_each(|c| c.iter_mut().for_each(|v| *v += 1));
            }
            assert_eq!(
                super::pool::spawned_workers(),
                spawned_after_first,
                "long-lived workers must be reused, not respawned"
            );
            assert!(data.iter().all(|&v| v == 51));
        });
    }

    #[test]
    fn concurrent_callers_share_the_pool() {
        with_threads(Some(3), || {
            std::thread::scope(|s| {
                // Threads 0 and 1 hold teams at once, each wanting two of the
                // pool's helpers, while the others run their calls inline:
                // every caller completes whichever helpers it gets.
                for t in 0..4 {
                    s.spawn(move || {
                        let _team = (t < 2).then(super::pool::Team::open);
                        for round in 0..50 {
                            let mut data = vec![0usize; 200];
                            data.par_chunks_mut(5).enumerate().for_each(|(i, chunk)| {
                                for v in chunk.iter_mut() {
                                    *v = i * 10 + t + round;
                                }
                            });
                            for (pos, v) in data.iter().enumerate() {
                                assert_eq!(*v, (pos / 5) * 10 + t + round);
                            }
                        }
                    });
                }
            });
        });
    }

    /// SplitMix64: the stress test's seeded draws.
    struct Draws(u64);

    impl Draws {
        fn below(&mut self, n: u64) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n) as usize
        }
    }

    #[test]
    fn every_call_runs_each_item_once_at_every_width_in_a_team_or_not() {
        // Seeded calls at widths 2-8 from one to three threads at once, each
        // call inside a held team or on no team (inline), of 0 to 299 items,
        // some of which make a parallel call of their own and some of which
        // panic.
        for width in 2..=8usize {
            with_threads(Some(width), || {
                let spawned_before = super::pool::spawned_workers();
                std::thread::scope(|s| {
                    for caller in 0..1 + width % 3 {
                        s.spawn(move || {
                            let mut draw = Draws((width * 7 + caller) as u64);
                            for call in 0..40 {
                                let team = (draw.below(2) == 1).then(super::pool::Team::open);
                                let in_team = team.is_some();
                                // Another caller's team makes this one's
                                // width 1 while it is held.
                                let width_ok = |w: usize| w == 1 || (in_team && w == width);
                                assert!(width_ok(super::pool::team_width()));
                                let n = draw.below(300);
                                let salt = 1 + draw.below(97);
                                let panics_at = |i: usize| call % 4 == 0 && (i * salt) % 11 == 3;
                                let message =
                                    |i: usize| format!("caller {caller} call {call} item {i}");
                                let hits: Vec<_> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                                let caught = std::panic::catch_unwind(|| {
                                    super::pool::global().run(n, &|i| {
                                        hits[i].fetch_add(1, Ordering::Relaxed);
                                        if (i * salt).is_multiple_of(7) {
                                            let nested: Vec<_> =
                                                (0..i % 13).map(|_| AtomicUsize::new(0)).collect();
                                            super::pool::global().run(nested.len(), &|j| {
                                                nested[j].fetch_add(1, Ordering::Relaxed);
                                            });
                                            assert!(nested
                                                .iter()
                                                .all(|h| h.load(Ordering::Relaxed) == 1));
                                        }
                                        if panics_at(i) {
                                            std::panic::panic_any(message(i));
                                        }
                                    })
                                });
                                for (i, h) in hits.iter().enumerate() {
                                    assert_eq!(
                                        h.load(Ordering::Relaxed),
                                        1,
                                        "width {width}, {n} items: item {i}"
                                    );
                                }
                                let expected: Vec<String> =
                                    (0..n).filter(|&i| panics_at(i)).map(message).collect();
                                match caught {
                                    Ok(()) => {
                                        assert!(expected.is_empty(), "{expected:?} were swallowed")
                                    }
                                    Err(payload) => {
                                        let got = payload
                                            .downcast::<String>()
                                            .expect("an item's own payload");
                                        assert!(
                                            expected.contains(&got),
                                            "{got} was not raised here"
                                        );
                                    }
                                }
                                assert!(width_ok(super::pool::team_width()));
                                drop(team);
                            }
                        });
                    }
                });
                assert!(
                    super::pool::spawned_workers() <= spawned_before.max(width - 1),
                    "width {width} grew the pool past {} helpers",
                    width - 1
                );
                assert_eq!(super::pool::sections(), 0);
            });
        }
    }

    /// Runs a two-item call whose items each wait (up to 10 s) for the
    /// other to start, and returns whether both ran at once — that is, on
    /// two threads: the caller claims one item at a time, so a call that
    /// runs inline finds its first item waiting alone.
    fn call_splits() -> bool {
        let started = AtomicUsize::new(0);
        let met = AtomicUsize::new(0);
        super::pool::global().run(2, &|_| {
            started.fetch_add(1, Ordering::SeqCst);
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while started.load(Ordering::SeqCst) < 2 {
                if std::time::Instant::now() > deadline {
                    return;
                }
                std::hint::spin_loop();
            }
            met.fetch_add(1, Ordering::SeqCst);
        });
        met.into_inner() == 2
    }

    /// Whether a 32-item call ran every item on the calling thread.  The
    /// items sleep, so that a helper the call was handed to has time to
    /// take one.
    fn call_runs_inline() -> bool {
        let caller = std::thread::current().id();
        let elsewhere = AtomicUsize::new(0);
        super::pool::global().run(32, &|_| {
            std::thread::sleep(std::time::Duration::from_micros(300));
            if std::thread::current().id() != caller {
                elsewhere.fetch_add(1, Ordering::Relaxed);
            }
        });
        elsewhere.into_inner() == 0
    }

    #[test]
    fn a_section_splits_only_while_no_other_thread_is_in_one() {
        with_threads(Some(2), || {
            assert_eq!(super::pool::sections(), 0);
            assert!(
                call_runs_inline(),
                "a call outside every section runs inline"
            );
            // A lone section splits; an open nested in it counts nothing
            // and changes nothing.
            {
                let _team = super::pool::Team::open();
                assert_eq!(super::pool::sections(), 1);
                let inner = super::pool::Team::open();
                assert_eq!(super::pool::sections(), 1, "a nested open counts once");
                assert_eq!(super::pool::team_width(), 2);
                assert!(call_splits(), "a lone section splits");
                drop(inner);
                assert_eq!(super::pool::sections(), 1);
                assert_eq!(super::pool::team_width(), 2);
            }
            assert_eq!(super::pool::sections(), 0);

            // Two threads in sections at once: both read width 1, and
            // their calls (checked per call, so also one made after both
            // opened) run on the calling thread alone, as do the calls of
            // a thread outside every section beside them.  Once one
            // leaves, the remaining section splits again.
            // (Every check inside the threads is a value, asserted after
            // they joined, so that a failing one cannot strand the others
            // at a barrier.)
            let both_in = std::sync::Barrier::new(3);
            let one_left = std::sync::Barrier::new(2);
            let (seen, beside) = std::thread::scope(|s| {
                let threads: Vec<_> = (0..2)
                    .map(|t| {
                        let (both_in, one_left) = (&both_in, &one_left);
                        s.spawn(move || {
                            let team = super::pool::Team::open();
                            both_in.wait();
                            let width = super::pool::team_width();
                            let inline = call_runs_inline();
                            both_in.wait();
                            if t == 0 {
                                drop(team);
                                one_left.wait();
                                return (width, inline, None);
                            }
                            one_left.wait();
                            let left_alone = (
                                super::pool::sections(),
                                super::pool::team_width(),
                                call_splits(),
                            );
                            drop(team);
                            (width, inline, Some(left_alone))
                        })
                    })
                    .collect();
                both_in.wait();
                let beside = (super::pool::sections(), call_runs_inline());
                both_in.wait();
                let seen: Vec<_> = threads.into_iter().map(|h| h.join().unwrap()).collect();
                (seen, beside)
            });
            assert_eq!(beside, (2, true), "a call beside two sections runs inline");
            assert_eq!(
                seen[0],
                (1, true, None),
                "width 1 and inline beside a section"
            );
            assert_eq!(
                seen[1],
                (1, true, Some((1, 2, true))),
                "the section left alone splits"
            );
            assert_eq!(super::pool::sections(), 0);

            // A panicking item unwinds the section and the count with it.
            let caught = std::panic::catch_unwind(|| {
                let _team = super::pool::Team::open();
                super::pool::global().run(8, &|i| {
                    if i == 5 {
                        panic!("injected section panic");
                    }
                });
            });
            assert!(caught.is_err());
            assert_eq!(super::pool::sections(), 0, "the unwind left the section");
            assert_eq!(super::pool::team_width(), 1);
            let _team = super::pool::Team::open();
            assert!(call_splits(), "a section after the unwind splits again");
        });
    }
}
