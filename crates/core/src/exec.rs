//! Real-thread parallel execution backend.
//!
//! The paper's speedups come from running the histogram, prefix-sum and
//! scatter kernels over thousands of GPU threads.  This module provides the
//! CPU analogue: an [`Executor`] that runs the per-block work of a counting
//! pass (and the per-bucket local sorts) either on the calling thread
//! ([`Executor::Sequential`]) or across real `std::thread::scope` workers
//! ([`Executor::Threaded`]), in the spirit of PARADIS (Cho et al., PVLDB
//! 2015).  Work is distributed dynamically: an atomic cursor hands block
//! indices to whichever worker is free, so skewed buckets (many keys in few
//! blocks) cannot strand a worker.
//!
//! Both backends produce identical output (bucket-order semantics are
//! preserved because every block's destination ranges are precomputed from
//! the per-block histograms); only wall-clock time differs.  Stability is
//! not required, matching the paper's MSD design.
//!
//! [`SharedMut`] is the low-level escape hatch the parallel kernels use to
//! write disjoint regions of one destination buffer from several workers —
//! the CPU equivalent of every thread block owning the chunks it reserved
//! with `atomicAdd`.
//!
//! ## Example: the same sorter, sequential vs threaded
//!
//! The two backends are interchangeable per sort and byte-for-byte
//! equivalent in output (`cargo run --release --example cpu_socket` runs
//! this at scale, with timings):
//!
//! ```
//! use hrs_core::{Executor, HybridRadixSorter};
//!
//! let keys = workloads::uniform_keys::<u32>(50_000, 7);
//!
//! let mut seq = keys.clone();
//! HybridRadixSorter::with_defaults()
//!     .with_executor(Executor::Sequential)
//!     .sort(&mut seq);
//!
//! let mut thr = keys;
//! HybridRadixSorter::with_defaults()
//!     .with_executor(Executor::with_workers(4))
//!     .sort(&mut thr);
//!
//! // Destination ranges are precomputed from the per-block histograms,
//! // so the threaded backend reproduces the sequential output exactly.
//! assert_eq!(seq, thr);
//! assert!(seq.windows(2).all(|w| w[0] <= w[1]));
//! ```

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Per-worker execution counters for one [`Executor`].
///
/// The executor itself is a `Copy` configuration value, so it cannot own
/// state; callers that want per-worker utilisation numbers allocate a probe
/// (sized to [`Executor::workers`]) and pass it to
/// [`Executor::for_each_task_probed`].  Cost is deliberately *per drain
/// loop*, not per task: each worker reads the clock twice per fan-out
/// (start and end of its claim loop) and adds its task count with one
/// relaxed atomic, so probing a sort changes its wall-clock time by well
/// under a percent.
///
/// Counters are cumulative across fan-outs; idle time is derivable as
/// `wall_clock × workers − Σ busy_ns`.
#[derive(Debug)]
pub struct ExecProbe {
    tasks: Vec<AtomicU64>,
    busy_ns: Vec<AtomicU64>,
    fanouts: AtomicU64,
}

impl ExecProbe {
    /// A probe for `workers` workers (clamped to ≥ 1).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        ExecProbe {
            tasks: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            busy_ns: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            fanouts: AtomicU64::new(0),
        }
    }

    /// Number of workers this probe tracks.
    pub fn workers(&self) -> usize {
        self.tasks.len()
    }

    /// Cumulative tasks executed by `worker` (0 for out-of-range workers).
    pub fn tasks(&self, worker: usize) -> u64 {
        // RELAXED: monotonic statistic; readers need no ordering with the
        // work the counts describe.
        self.tasks
            .get(worker)
            .map_or(0, |t| t.load(Ordering::Relaxed))
    }

    /// Cumulative busy nanoseconds of `worker`'s drain loops.
    pub fn busy_ns(&self, worker: usize) -> u64 {
        // RELAXED: monotonic statistic, same as `tasks`.
        self.busy_ns
            .get(worker)
            .map_or(0, |t| t.load(Ordering::Relaxed))
    }

    /// Total tasks across all workers.
    pub fn total_tasks(&self) -> u64 {
        // RELAXED: the per-worker counters are independent statistics; the
        // sum needs no cross-slot ordering.
        self.tasks.iter().map(|t| t.load(Ordering::Relaxed)).sum()
    }

    /// Number of probed fan-outs ([`Executor::for_each_task_probed`] calls
    /// that ran at least one task).
    pub fn fanouts(&self) -> u64 {
        // RELAXED: monotonic statistic.
        self.fanouts.load(Ordering::Relaxed)
    }

    fn note(&self, worker: usize, tasks: u64, busy: Duration) {
        // A probe sized for fewer workers than the executor folds the
        // excess into its last slot rather than losing the samples.
        let slot = worker.min(self.tasks.len() - 1);
        // RELAXED: pure accumulation; nothing synchronises on these
        // counters, and the scope join orders them before any reader.
        self.tasks[slot].fetch_add(tasks, Ordering::Relaxed);
        self.busy_ns[slot].fetch_add(
            u64::try_from(busy.as_nanos()).unwrap_or(u64::MAX),
            // RELAXED: as above.
            Ordering::Relaxed,
        );
    }
}

/// How the hot loops of the hybrid radix sort are executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Executor {
    /// Everything runs on the calling thread, in block order.  This is the
    /// deterministic default and has zero scheduling overhead.
    #[default]
    Sequential,
    /// Per-block work is distributed over `workers` scoped OS threads.
    Threaded {
        /// Number of worker threads (the calling thread doubles as worker
        /// 0, so exactly `workers` threads participate).
        workers: usize,
    },
}

impl Executor {
    /// A threaded backend sized to the machine's available parallelism.
    pub fn threaded() -> Self {
        Executor::Threaded {
            workers: std::thread::available_parallelism()
                .map(|t| t.get())
                .unwrap_or(1),
        }
    }

    /// A threaded backend with an explicit worker count (clamped to ≥ 1).
    pub fn with_workers(workers: usize) -> Self {
        Executor::Threaded {
            workers: workers.max(1),
        }
    }

    /// Number of workers that may run tasks concurrently (1 for
    /// [`Executor::Sequential`]).
    pub fn workers(&self) -> usize {
        match *self {
            Executor::Sequential => 1,
            Executor::Threaded { workers } => workers.max(1),
        }
    }

    /// Whether tasks may run on more than one thread.
    pub fn is_parallel(&self) -> bool {
        self.workers() > 1
    }

    /// Short display label (`"seq"` or `"threads(n)"`).
    pub fn label(&self) -> String {
        match *self {
            Executor::Sequential => "seq".to_string(),
            Executor::Threaded { workers } => format!("threads({workers})"),
        }
    }

    /// Runs `n_tasks` indexed tasks, calling `f(task_index, worker_index)`
    /// for each.  Tasks are claimed dynamically from an atomic cursor;
    /// `worker_index` is in `0..self.workers()` and identifies the thread a
    /// task runs on (so tasks can use per-worker scratch without locking).
    ///
    /// The sequential backend runs every task on the caller in ascending
    /// order; the threaded backend makes no ordering guarantee between
    /// tasks, so `f` must only touch state that is disjoint per task (or
    /// per worker).
    pub fn for_each_task<F>(&self, n_tasks: usize, f: F)
    where
        F: Fn(usize, usize) + Sync,
    {
        self.for_each_task_probed(n_tasks, None, f);
    }

    /// Like [`Executor::for_each_task`], but when `probe` is given, each
    /// worker additionally reports its task count and the busy time of its
    /// drain loop into the probe (two clock reads per worker per call).
    pub fn for_each_task_probed<F>(&self, n_tasks: usize, probe: Option<&ExecProbe>, f: F)
    where
        F: Fn(usize, usize) + Sync,
    {
        if n_tasks == 0 {
            return;
        }
        if let Some(p) = probe {
            // RELAXED: statistic; ordered before readers by the scope join.
            p.fanouts.fetch_add(1, Ordering::Relaxed);
        }
        let workers = self.workers().min(n_tasks);
        if workers <= 1 || n_tasks <= 1 {
            let start = probe.map(|_| Instant::now());
            for t in 0..n_tasks {
                f(t, 0);
            }
            if let (Some(p), Some(s)) = (probe, start) {
                p.note(0, n_tasks as u64, s.elapsed());
            }
            return;
        }
        let cursor = AtomicUsize::new(0);
        // Every worker (the caller doubles as worker 0) claims tasks from
        // the shared cursor until none remain.
        let drain = |w: usize| {
            let start = probe.map(|_| Instant::now());
            let mut done = 0u64;
            loop {
                // RELAXED: the RMW's atomicity alone makes task claims
                // unique; tasks touch disjoint state, so claiming carries
                // no payload to publish.
                let t = cursor.fetch_add(1, Ordering::Relaxed);
                if t >= n_tasks {
                    break;
                }
                f(t, w);
                done += 1;
            }
            if let (Some(p), Some(s)) = (probe, start) {
                p.note(w, done, s.elapsed());
            }
        };
        std::thread::scope(|scope| {
            for w in 1..workers {
                let drain = &drain;
                scope.spawn(move || drain(w));
            }
            drain(0);
        });
    }

    /// Splits `data` into chunks of `chunk` elements and runs
    /// `f(chunk_index, chunk_slice)` for each, in parallel on the threaded
    /// backend.  Chunks are disjoint, so no synchronisation is needed.
    ///
    /// Disjoint is not the same as unshared: chunks shorter than a cache
    /// line (64 bytes) share lines, and tasks are handed out dynamically,
    /// so two workers can write neighbouring chunks of one line at once
    /// and the line bounces between their cores on every write (false
    /// sharing).  A hot per-element loop over small chunks should pad each
    /// chunk to whole lines, or work on a private copy.
    pub fn for_each_chunk_mut<T, F>(&self, data: &mut [T], chunk: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let chunk = chunk.max(1);
        let n = data.len();
        let n_chunks = n.div_ceil(chunk);
        let shared = SharedMut::new(data);
        self.for_each_task(n_chunks, |c, _w| {
            let start = c * chunk;
            let len = chunk.min(n - start);
            // SAFETY: chunk `c` covers `start..start + len`, and distinct
            // tasks cover disjoint ranges.
            let slice = unsafe { shared.slice_mut(start, len) };
            f(c, slice);
        });
    }
}

/// A `Send + Sync` view of a mutable slice that lets several workers write
/// *disjoint* elements or sub-ranges concurrently.
///
/// This mirrors what the GPU kernels do in device memory: after chunk
/// reservation, every thread block owns a set of destination indices nobody
/// else will touch, so unsynchronised writes are safe.  The compiler cannot
/// prove that disjointness, hence the `unsafe` accessors; every call site
/// documents why its indices are disjoint.
pub struct SharedMut<'a, T> {
    ptr: *mut T,
    len: usize,
    /// Under `race-check`, every accessor reports its range here; the
    /// ledger panics (naming both claim sites) on a cross-thread overlap
    /// that the disjointness contract forbids.  The view is created per
    /// pass, so claims never leak across passes.
    #[cfg(feature = "race-check")]
    ledger: analysis::RaceLedger,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: `SharedMut` only hands out access through `unsafe` methods whose
// contract requires disjointness; the wrapper itself carries no thread
// affinity beyond the element type's.
unsafe impl<T: Send> Send for SharedMut<'_, T> {}
unsafe impl<T: Send> Sync for SharedMut<'_, T> {}

impl<'a, T> SharedMut<'a, T> {
    /// Wraps a mutable slice for disjoint concurrent writes.
    pub fn new(slice: &'a mut [T]) -> Self {
        SharedMut {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            #[cfg(feature = "race-check")]
            ledger: analysis::RaceLedger::new("SharedMut"),
            _marker: PhantomData,
        }
    }

    /// Length of the underlying slice.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the underlying slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Writes `value` at `idx`, dropping the previous element.
    ///
    /// # Safety
    ///
    /// `idx` must be in bounds and no other thread may read or write
    /// element `idx` concurrently.
    #[track_caller]
    pub unsafe fn write(&self, idx: usize, value: T) {
        debug_assert!(idx < self.len);
        #[cfg(feature = "race-check")]
        self.ledger.claim(analysis::ClaimKind::DoneWrite, idx, 1);
        // SAFETY: the caller guarantees `idx` is in bounds and unaliased
        // for the duration of this call.
        unsafe { *self.ptr.add(idx) = value };
    }

    /// Returns the sub-slice `start..start + len` as mutable.
    ///
    /// # Safety
    ///
    /// The range must be in bounds and no other thread may access any
    /// element of it while the returned borrow lives.
    #[allow(clippy::mut_from_ref)] // disjointness is the caller's contract
    #[track_caller]
    pub unsafe fn slice_mut(&self, start: usize, len: usize) -> &mut [T] {
        debug_assert!(start + len <= self.len);
        #[cfg(feature = "race-check")]
        self.ledger
            .claim(analysis::ClaimKind::OpenWrite, start, len);
        // SAFETY: the caller guarantees the range is in bounds and that it
        // exclusively owns it while the borrow lives.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(start), len) }
    }

    /// Copies `src` into `start..start + src.len()` with one contiguous
    /// copy — the flush primitive of the write-combining scatter.
    ///
    /// # Safety
    ///
    /// The destination range must be in bounds and no other thread may
    /// access any element of it concurrently.
    #[track_caller]
    pub unsafe fn copy_from_slice_at(&self, start: usize, src: &[T])
    where
        T: Copy,
    {
        debug_assert!(start + src.len() <= self.len);
        #[cfg(feature = "race-check")]
        self.ledger
            .claim(analysis::ClaimKind::DoneWrite, start, src.len());
        // SAFETY: the caller guarantees the destination range is in bounds
        // and unaliased; `src` is a live shared borrow, so it cannot
        // overlap a range this view may write.
        unsafe { std::ptr::copy_nonoverlapping(src.as_ptr(), self.ptr.add(start), src.len()) };
    }

    /// Copies `src` into `start..start + src.len()` with non-temporal
    /// stores that bypass the cache — the flush of a completed, aligned
    /// write-combining line.  The destination line is written whole, so
    /// the core never reads it for ownership first.
    ///
    /// Streams with `_mm_stream_si128` (SSE2, always present on x86_64)
    /// when the range is 16-byte aligned and a whole number of 16-byte
    /// vectors; anything else, and every other target, gets the plain copy
    /// of [`SharedMut::copy_from_slice_at`].  The stores are weakly
    /// ordered: the writing thread must call [`stream_fence`] before
    /// another thread may rely on seeing them.
    ///
    /// # Safety
    ///
    /// The destination range must be in bounds and no other thread may
    /// access any element of it concurrently.
    #[track_caller]
    pub unsafe fn stream_from_slice_at(&self, start: usize, src: &[T])
    where
        T: Copy,
    {
        debug_assert!(start + src.len() <= self.len);
        #[cfg(feature = "race-check")]
        self.ledger
            .claim(analysis::ClaimKind::DoneWrite, start, src.len());
        // SAFETY: the caller guarantees `start..start + src.len()` is in
        // bounds, so the offset stays inside the allocation.
        let dst = unsafe { self.ptr.add(start) }.cast::<u8>();
        let bytes = std::mem::size_of_val(src);
        #[cfg(target_arch = "x86_64")]
        if bytes.is_multiple_of(16) && (dst as usize).is_multiple_of(16) {
            use std::arch::x86_64::{__m128i, _mm_loadu_si128, _mm_stream_si128};
            let src = src.as_ptr().cast::<u8>();
            for off in (0..bytes).step_by(16) {
                // SAFETY: `off + 16 <= bytes`, so both 16-byte accesses stay
                // inside `src` and the caller-owned destination range; the
                // destination is 16-byte aligned as `_mm_stream_si128`
                // requires (the source load is unaligned); SSE2 is part of
                // the x86_64 baseline.
                unsafe {
                    _mm_stream_si128(
                        dst.add(off).cast::<__m128i>(),
                        _mm_loadu_si128(src.add(off).cast::<__m128i>()),
                    );
                }
            }
            return;
        }
        // SAFETY: as in `copy_from_slice_at` — the range is in bounds and
        // unaliased, and `src` is a live shared borrow.
        unsafe { std::ptr::copy_nonoverlapping(src.as_ptr(), dst.cast::<T>(), src.len()) };
    }

    /// The element offset of the view's start within its group of `group`
    /// elements, where groups are the runs of `group × size_of::<T>()`
    /// bytes that start at multiples of that size (64-byte groups are the
    /// cache lines): element `i` of the view is slot `(phase + i) % group`
    /// of its group.  Assumes elements aligned to their size, as the
    /// integer keys and values are.
    pub fn phase(&self, group: usize) -> usize {
        let size = std::mem::size_of::<T>();
        if size == 0 || group == 0 {
            return 0;
        }
        (self.ptr as usize / size) % group
    }
}

/// Orders this thread's earlier [`SharedMut::stream_from_slice_at`] stores
/// before its later stores (`_mm_sfence` on x86_64, a no-op elsewhere, where
/// no store is non-temporal).  A task that streams calls it before it
/// returns, so whatever publishes the task's completion publishes the
/// streamed lines too.
#[inline]
pub fn stream_fence() {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_sfence` only orders stores; SSE is part of the x86_64
    // baseline.
    unsafe {
        std::arch::x86_64::_mm_sfence();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn sequential_runs_every_task_in_order_on_worker_zero() {
        let exec = Executor::Sequential;
        let mut seen = Vec::new();
        let log = std::sync::Mutex::new(&mut seen);
        exec.for_each_task(5, |t, w| {
            assert_eq!(w, 0);
            log.lock().unwrap().push(t);
        });
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn threaded_runs_every_task_exactly_once() {
        for workers in [1usize, 2, 3, 7] {
            let exec = Executor::with_workers(workers);
            assert_eq!(exec.workers(), workers);
            let n = 257;
            let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            exec.for_each_task(n, |t, w| {
                assert!(w < workers);
                hits[t].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn zero_tasks_is_a_no_op() {
        Executor::with_workers(4).for_each_task(0, |_, _| panic!("no tasks"));
        Executor::Sequential.for_each_task(0, |_, _| panic!("no tasks"));
    }

    #[test]
    fn chunked_map_covers_the_slice() {
        for exec in [Executor::Sequential, Executor::with_workers(3)] {
            let mut data = vec![0u64; 1_000];
            exec.for_each_chunk_mut(&mut data, 64, |c, chunk| {
                for (i, v) in chunk.iter_mut().enumerate() {
                    *v = (c * 64 + i) as u64;
                }
            });
            assert!(data.iter().enumerate().all(|(i, &v)| v == i as u64));
        }
    }

    #[test]
    fn shared_mut_disjoint_writes_land() {
        let mut data = vec![0u32; 100];
        {
            let shared = SharedMut::new(&mut data);
            Executor::with_workers(4).for_each_task(100, |t, _| unsafe {
                shared.write(t, t as u32 + 1);
            });
        }
        assert!(data.iter().enumerate().all(|(i, &v)| v == i as u32 + 1));
    }

    #[test]
    fn probe_counts_every_task_once() {
        for exec in [Executor::Sequential, Executor::with_workers(3)] {
            let probe = ExecProbe::new(exec.workers());
            exec.for_each_task_probed(100, Some(&probe), |_t, _w| {
                std::hint::black_box(0u64);
            });
            assert_eq!(probe.total_tasks(), 100, "{}", exec.label());
            assert_eq!(probe.fanouts(), 1);
            assert_eq!(probe.workers(), exec.workers());
            // On the sequential backend every task runs on worker 0 (other
            // workers may legitimately drain everything on the threaded
            // one before the caller claims a task).
            if !exec.is_parallel() {
                assert_eq!(probe.tasks(0), 100);
            }
            assert_eq!(probe.tasks(999), 0, "out-of-range workers read as 0");
            assert_eq!(probe.busy_ns(999), 0);
        }
    }

    #[test]
    fn probe_accumulates_across_fanouts() {
        let exec = Executor::Sequential;
        let probe = ExecProbe::new(exec.workers());
        exec.for_each_task_probed(10, Some(&probe), |_, _| {});
        exec.for_each_task_probed(5, Some(&probe), |_, _| {});
        exec.for_each_task_probed(0, Some(&probe), |_, _| panic!("no tasks"));
        assert_eq!(probe.total_tasks(), 15);
        assert_eq!(probe.fanouts(), 2, "empty fan-outs are not counted");
    }

    #[test]
    fn undersized_probe_folds_excess_workers_into_last_slot() {
        let exec = Executor::with_workers(4);
        let probe = ExecProbe::new(2);
        exec.for_each_task_probed(64, Some(&probe), |_t, _w| {});
        assert_eq!(probe.total_tasks(), 64, "no samples are lost");
    }

    #[test]
    fn labels_and_parallelism_flags() {
        assert_eq!(Executor::Sequential.label(), "seq");
        assert_eq!(Executor::with_workers(4).label(), "threads(4)");
        assert!(!Executor::Sequential.is_parallel());
        assert!(Executor::with_workers(2).is_parallel());
        assert!(!Executor::with_workers(1).is_parallel());
        assert!(Executor::threaded().workers() >= 1);
        assert_eq!(Executor::default(), Executor::Sequential);
    }
}
