//! Offline stand-in for the `rayon` crate.
//!
//! Provides the one parallel-iterator shape the workspace uses —
//! `slice.par_chunks_mut(n).enumerate().for_each(f)` — executed on a
//! **persistent worker pool** ([`pool`]) instead of rayon's work-stealing
//! runtime.  The pool is created once per process, its threads are long-lived
//! and shared by every parallel call, and work items are claimed from a
//! chunked queue by an atomic counter, which matches the matmul
//! row/column-block partitioning use case (uniform cost per item).
//!
//! Thread count is `PIPEINFER_THREADS` when set (re-read on every call, so
//! `PIPEINFER_THREADS=1` forces fully serial in-caller execution), otherwise
//! the machine's available parallelism.

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
    //! * A parallel call publishes one `Job` — a borrowed `Fn(usize)` task
    //!   plus an atomic claim counter — and enqueues one "come help" ticket
    //!   per helper thread.  Workers (and the calling thread, which always
    //!   participates) claim item indices with `fetch_add` until the job is
    //!   exhausted, so several jobs from concurrent callers can be in flight
    //!   at once without serialising each other.
    //! * A panic inside a work item is caught on the worker, recorded on the
    //!   job, and re-raised on the *calling* thread once every item has run;
    //!   pool threads never die, so a panicking kernel cannot leak or grow
    //!   threads.
    //!
    //! Safety: a job stores a raw pointer to the caller's closure.  This is
    //! sound because the caller blocks until the per-job completion count
    //! reaches `n_items`, and workers only dereference the closure after
    //! successfully claiming an in-range item — which can no longer happen
    //! once every item is done.

    use std::collections::VecDeque;
    use std::num::NonZeroUsize;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, OnceLock};

    /// What a work item panicked with, carried back to the calling thread so
    /// the original message/location is preserved on re-raise.
    type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

    /// Environment variable overriding the pool's parallelism.
    pub const THREADS_ENV: &str = "PIPEINFER_THREADS";

    /// Upper bound on pool threads regardless of the override (a backstop
    /// against `PIPEINFER_THREADS=100000`, not a tuning knob).
    const MAX_THREADS: usize = 256;

    /// Total worker threads ever spawned by this process (test observability).
    static SPAWNED: AtomicUsize = AtomicUsize::new(0);

    struct Job {
        /// Borrowed task; valid until the caller's `run` returns (see module
        /// safety note).
        task: *const (dyn Fn(usize) + Sync),
        n_items: usize,
        /// Next item index to claim.
        next: AtomicUsize,
        /// Items fully executed.
        done: AtomicUsize,
        /// First panic payload observed in a work item, if any.
        panic: Mutex<Option<PanicPayload>>,
        finished: Mutex<bool>,
        finished_cv: Condvar,
    }

    // The raw task pointer is only dereferenced while the caller keeps the
    // closure alive (see module docs); the rest of the struct is atomics and
    // locks.
    unsafe impl Send for Job {}
    unsafe impl Sync for Job {}

    impl Job {
        /// Claims and runs items until the job is exhausted.  Returns whether
        /// this thread completed the job's last outstanding item — the
        /// `AcqRel` count it observed then orders every other item's writes
        /// before its return.
        fn work(&self) -> bool {
            let mut ran_last = false;
            loop {
                let i = self.next.fetch_add(1, Ordering::Relaxed);
                if i >= self.n_items {
                    return ran_last;
                }
                let task = unsafe { &*self.task };
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| task(i))) {
                    let mut slot = self.panic.lock().unwrap();
                    slot.get_or_insert(payload);
                }
                ran_last = self.done.fetch_add(1, Ordering::AcqRel) + 1 == self.n_items;
            }
        }

        /// Worker side of completion: wakes the caller blocked in `wait`
        /// (the only thread that ever waits on a job).
        fn signal_finished(&self) {
            *self.finished.lock().unwrap() = true;
            self.finished_cv.notify_one();
        }

        fn wait(&self) {
            let mut fin = self.finished.lock().unwrap();
            while !*fin {
                fin = self.finished_cv.wait(fin).unwrap();
            }
        }
    }

    struct PoolState {
        queue: VecDeque<Arc<Job>>,
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
        })
    }

    /// Parallelism a call with `n_items` work items will use right now:
    /// `PIPEINFER_THREADS` if set, else available parallelism, capped at
    /// `n_items`.
    pub fn effective_threads(n_items: usize) -> usize {
        env_threads()
            .unwrap_or_else(default_threads)
            .min(n_items)
            .max(1)
    }

    /// Configured parallelism (as [`effective_threads`] with unbounded work).
    pub fn configured_threads() -> usize {
        env_threads().unwrap_or_else(default_threads)
    }

    /// Minimum multiply-adds (or comparable work units) a parallel chunk
    /// should carry: below this, the claim/dispatch overhead per chunk is no
    /// longer negligible against the chunk's own compute.
    const MIN_CHUNK_WORK: usize = 8 * 1024;

    /// Chunk size for splitting `n_items` uniform work items (each costing
    /// `work_per_item` multiply-adds) across the pool.
    ///
    /// Targets ~4 chunks per configured thread so the claim counter can
    /// load-balance (the last chunk finishing late only idles a thread for
    /// 1/4 of its share), but never makes chunks smaller than
    /// `MIN_CHUNK_WORK` multiply-adds.  This replaces the old fixed
    /// `threshold / k` sizing, which produced the same chunk count at every
    /// thread count — 8 chunks for a 512×512 GEMV regardless of whether 1 or
    /// 8 threads were available.
    pub fn chunk_size(n_items: usize, work_per_item: usize) -> usize {
        if n_items == 0 {
            return 1;
        }
        let target_chunks = (configured_threads() * 4).max(1);
        let by_balance = n_items.div_ceil(target_chunks);
        let by_work = MIN_CHUNK_WORK.div_ceil(work_per_item.max(1));
        by_balance.max(by_work).clamp(1, n_items)
    }

    /// Total worker threads this process has ever spawned.  The pool only
    /// grows when the requested parallelism exceeds every previous request,
    /// so under a fixed configuration this is constant after the first
    /// parallel call.
    pub fn spawned_workers() -> usize {
        SPAWNED.load(Ordering::Relaxed)
    }

    fn worker_loop(shared: Arc<Shared>) {
        loop {
            let job = {
                let mut st = shared.state.lock().unwrap();
                loop {
                    if let Some(job) = st.queue.pop_front() {
                        break job;
                    }
                    st = shared.work_cv.wait(st).unwrap();
                }
            };
            if job.work() {
                job.signal_finished();
            }
        }
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
                SPAWNED.fetch_add(1, Ordering::Relaxed);
            }
        }

        /// Runs `task(i)` for every `i` in `0..n_items`, blocking until all
        /// items completed.  With an effective parallelism of 1 the items run
        /// inline on the calling thread and the pool is never touched.
        ///
        /// Every item executes even if an earlier one panics (callers such as
        /// `parallel_for_each` rely on each index being visited exactly once
        /// for drop correctness); the first panic's original payload is
        /// re-raised on the calling thread after the last item ran, in serial
        /// and parallel mode alike.
        pub fn run(&self, n_items: usize, task: &(dyn Fn(usize) + Sync)) {
            if n_items == 0 {
                return;
            }
            let threads = effective_threads(n_items);
            if threads <= 1 {
                let mut first_panic = None;
                for i in 0..n_items {
                    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| task(i))) {
                        first_panic.get_or_insert(payload);
                    }
                }
                if let Some(payload) = first_panic {
                    resume_unwind(payload);
                }
                return;
            }
            self.ensure_workers(threads - 1);
            // Erase the borrow's lifetime; `run` blocks until every item has
            // executed, so the pointer never outlives the closure (see the
            // module safety note).
            let task: *const (dyn Fn(usize) + Sync) = unsafe {
                std::mem::transmute::<
                    *const (dyn Fn(usize) + Sync + '_),
                    *const (dyn Fn(usize) + Sync + 'static),
                >(task as *const _)
            };
            let job = Arc::new(Job {
                task,
                n_items,
                next: AtomicUsize::new(0),
                done: AtomicUsize::new(0),
                panic: Mutex::new(None),
                finished: Mutex::new(false),
                finished_cv: Condvar::new(),
            });
            {
                let mut st = self.shared.state.lock().unwrap();
                for _ in 0..threads - 1 {
                    st.queue.push_back(job.clone());
                }
            }
            // One wake per ticket: `notify_all` would rouse every idle worker
            // of a pool grown for a wider call to fight over `threads - 1`
            // tickets.  A worker that is busy rather than waiting misses its
            // wake and pops the ticket when it next looks at the queue.
            for _ in 0..threads - 1 {
                self.shared.work_cv.notify_one();
            }
            // When the caller itself ran the last item nobody is waiting, so
            // the completion lock and futex wake are skipped entirely.
            if !job.work() {
                job.wait();
            }
            let payload = job.panic.lock().unwrap().take();
            if let Some(payload) = payload {
                resume_unwind(payload);
            }
        }
    }
}

/// Runs `f` over every item of `items` on the persistent pool, claim-based.
///
/// Items are moved out of the vector exactly once each (workers claim indices
/// atomically), so `f` receives owned items just like an iterator `for_each`.
fn parallel_for_each<I, F>(items: Vec<I>, f: F)
where
    I: Send,
    F: Fn(I) + Sync,
{
    let n = items.len();
    if n == 0 {
        return;
    }
    let mut items = items;
    let base = items.as_mut_ptr();
    // Logically move the items out of the Vec: the buffer stays allocated and
    // initialised, but the Vec will no longer drop its contents.  Every index
    // in 0..n is claimed exactly once below, so each item is consumed exactly
    // once (dropped inside `f`, or during `f`'s unwind).
    unsafe { items.set_len(0) };
    struct Base<I>(*mut I);
    unsafe impl<I: Send> Sync for Base<I> {}
    impl<I> Base<I> {
        /// Moves item `i` out of the buffer; each index may be read once.
        unsafe fn take(&self, i: usize) -> I {
            std::ptr::read(self.0.add(i))
        }
    }
    let base = Base(base);
    let task = move |i: usize| {
        let item = unsafe { base.take(i) };
        f(item);
    };
    pool::global().run(n, &task);
}

pub mod slice {
    //! Parallel operations on slices.

    use super::parallel_for_each;

    /// Extension trait adding `par_chunks_mut` to mutable slices.
    pub trait ParallelSliceMut<T: Send> {
        /// Splits the slice into non-overlapping mutable chunks of
        /// `chunk_size` elements (the last chunk may be shorter) that can be
        /// processed in parallel.
        fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T>;
    }

    impl<T: Send> ParallelSliceMut<T> for [T] {
        fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T> {
            assert!(chunk_size > 0, "chunk size must be positive");
            ParChunksMut {
                chunks: self.chunks_mut(chunk_size).collect(),
            }
        }
    }

    /// Parallel iterator over mutable chunks of a slice.
    pub struct ParChunksMut<'a, T: Send> {
        chunks: Vec<&'a mut [T]>,
    }

    impl<'a, T: Send> ParChunksMut<'a, T> {
        /// Pairs every chunk with its index.
        pub fn enumerate(self) -> ParEnumerate<'a, T> {
            ParEnumerate {
                chunks: self.chunks.into_iter().enumerate().collect(),
            }
        }

        /// Applies `f` to every chunk, in parallel.
        pub fn for_each<F>(self, f: F)
        where
            F: Fn(&'a mut [T]) + Sync,
        {
            parallel_for_each(self.chunks, f);
        }
    }

    /// Enumerated parallel iterator over mutable chunks.
    pub struct ParEnumerate<'a, T: Send> {
        chunks: Vec<(usize, &'a mut [T])>,
    }

    impl<'a, T: Send> ParEnumerate<'a, T> {
        /// Applies `f` to every `(index, chunk)` pair, in parallel.
        pub fn for_each<F>(self, f: F)
        where
            F: Fn((usize, &'a mut [T])) + Sync,
        {
            parallel_for_each(self.chunks, f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    /// Serialises tests that mutate `PIPEINFER_THREADS`.
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    /// Grows the shared global pool to the largest size any test in this
    /// binary can request (other tests run concurrently with the env var
    /// unset, so they request `available_parallelism`).  Called before a
    /// test records `spawned_workers()`, it guarantees no concurrent test
    /// can grow the pool afterwards and invalidate the observation.
    fn saturate_pool() {
        let max = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .max(4);
        std::env::set_var(super::pool::THREADS_ENV, max.to_string());
        let mut data = vec![0u8; max * 4];
        data.par_chunks_mut(1).for_each(|c| c[0] = 1);
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
    fn pool_survives_panicking_work_item() {
        with_threads(Some(4), || {
            // Warm the pool so thread-growth observations are stable.
            let mut warm = [0u8; 64];
            warm.par_chunks_mut(1).for_each(|c| c[0] = 1);
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
        });
    }

    #[test]
    fn repeated_calls_do_not_grow_thread_count() {
        with_threads(Some(4), || {
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
    fn chunk_size_scales_with_threads_and_respects_work_floor() {
        with_threads(Some(8), || {
            // 512 items of k=512 muladds each: balance wins — 4 chunks per
            // thread → 32 chunks of 16 items.
            assert_eq!(super::pool::chunk_size(512, 512), 16);
            // Tiny per-item work: the 8K-muladd floor wins over balance
            // (8192/4 = 2048 items per chunk, clamped to the item count).
            assert_eq!(super::pool::chunk_size(512, 4), 512);
            // Never exceeds the item count.
            assert_eq!(super::pool::chunk_size(3, 1), 3);
            assert_eq!(super::pool::chunk_size(0, 64), 1);
        });
        with_threads(Some(1), || {
            // One thread: 4 chunks of 128 for the same 512×512 shape.
            assert_eq!(super::pool::chunk_size(512, 512), 128);
        });
    }

    #[test]
    fn effective_threads_is_capped_by_items() {
        with_threads(Some(4), || {
            assert_eq!(super::pool::effective_threads(1), 1);
            assert_eq!(super::pool::effective_threads(2), 2);
            assert_eq!(super::pool::effective_threads(1000), 4);
            assert_eq!(super::pool::configured_threads(), 4);
        });
    }

    #[test]
    fn concurrent_callers_share_the_pool() {
        with_threads(Some(3), || {
            std::thread::scope(|s| {
                for t in 0..4 {
                    s.spawn(move || {
                        let mut data = vec![0usize; 200];
                        data.par_chunks_mut(5).enumerate().for_each(|(i, chunk)| {
                            for v in chunk.iter_mut() {
                                *v = i * 10 + t;
                            }
                        });
                        for (pos, v) in data.iter().enumerate() {
                            assert_eq!(*v, (pos / 5) * 10 + t);
                        }
                    });
                }
            });
        });
    }
}
