//! Zero-allocation scratch arena for the hot sort path.
//!
//! Wall-clock measurements of the functional sorter used to be dominated by
//! the allocator: every `sort` call allocated a fresh ping-pong buffer, and
//! every bucket of every pass allocated its histogram, prefix and offset
//! tables.  [`ScratchArena`] fixes that by owning all of this memory and
//! handing it out for reuse:
//!
//! * **typed spare buffers** (the second halves of the key/value double
//!   buffers, the scatter's write-combining lines and the local sort's
//!   ping-pong scratch, per key/value type) are parked in a type-keyed map
//!   between sorts and resized — never reallocated — when the input size
//!   repeats;
//! * **[`PassScratch`]** holds the per-radix tables (bucket histogram,
//!   prefix sum), the per-block histogram strips, the per-stripe scatter
//!   bases, the per-worker write cursors, the bucket bookkeeping lists and
//!   the per-pass tallies, all of which retain their capacity across passes
//!   *and* across sorts.  Besides the sort's own, the arena parks one per
//!   worker ([`ScratchArena::workers`]) for the depth-first tasks that
//!   finish cache-sized buckets.
//!
//! After the first sort of a given size (the warm-up), the steady-state
//! pass loop performs no heap allocation; [`ScratchArena::stats`] exposes
//! the retained capacities so tests can assert exactly that.
//!
//! ## Example: the arena footprint stays flat across sorts
//!
//! Every [`HybridRadixSorter`](crate::HybridRadixSorter) owns one arena;
//! the first sort warms it up and every following sort of the same size
//! reuses it (`cargo run --release --example cpu_socket` prints the
//! footprint next to the timings):
//!
//! ```
//! use hrs_core::HybridRadixSorter;
//!
//! let sorter = HybridRadixSorter::with_defaults();
//! let mut warm = workloads::uniform_keys::<u32>(40_000, 7);
//! sorter.sort(&mut warm); // warm-up populates the arena
//!
//! let stats = sorter.arena_stats();
//! assert!(stats.total_bytes() > 0);
//! for seed in 0..3 {
//!     let mut keys = workloads::uniform_keys::<u32>(40_000, seed);
//!     sorter.sort(&mut keys);
//!     // Same-size sorts retain exactly the warmed capacities: the pass
//!     // loop performed no steady-state allocation.
//!     assert_eq!(sorter.arena_stats(), stats);
//! }
//! ```

use crate::bucket::{Bucket, LocalBucket, PassBlock, SubBucket};
use crate::counting_sort::PassTally;
use crate::report::LocalSortStats;
use std::any::{Any, TypeId};
use std::collections::HashMap;

/// Role of a typed spare buffer within the sorter (several buffers may
/// share an element type, e.g. `u64` keys with `u64` values).
pub(crate) const ROLE_SPARE_KEYS: u8 = 0;
/// Role tag of the spare value buffer.
pub(crate) const ROLE_SPARE_VALS: u8 = 1;
/// Role tag of the per-worker write-combining key staging segment.
pub(crate) const ROLE_STAGE_KEYS: u8 = 2;
/// Role tag of the per-worker write-combining value staging segment.
pub(crate) const ROLE_STAGE_VALS: u8 = 3;
/// Role tag of the per-worker local-sort key scratch (`workers × ∂̂`).
pub(crate) const ROLE_LOCAL_KEYS: u8 = 4;
/// Role tag of the per-worker local-sort value scratch (`workers × ∂̂`).
pub(crate) const ROLE_LOCAL_VALS: u8 = 5;
/// Role tag of the sharded engine's persistent round buffer, keys.
pub const ROLE_ROUND_KEYS: u8 = 6;
/// Role tag of the sharded engine's persistent round buffer, values.
pub const ROLE_ROUND_VALS: u8 = 7;
/// Role tag of the sharded engine's splitter-search key sample.
pub const ROLE_SPLITTER_SAMPLE: u8 = 8;
/// Role tag of the sharded engine's splitter-refinement buffer (the
/// sample keys of each cut's level-0 bin).
pub const ROLE_SPLITTER_REFINE: u8 = 9;

/// Per-block bookkeeping record filled by the histogram and scatter phases
/// of a counting pass (one per key block, reused across passes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockStat {
    /// Shared-memory atomic updates the histogram strategy issued.
    pub atomic_updates: u64,
    /// Distinct digit values present in the block.
    pub distinct: u32,
    /// Shared-memory atomic updates issued while staging the scatter.
    pub shared_updates: u64,
    /// Whether the look-ahead write combiner was active for this block.
    pub lookahead_active: bool,
    /// Whole write-combining lines the scatter wrote (booked on the first
    /// block of each stripe; see `scatter::BlockScatter`).
    pub staged_lines: u64,
    /// Line fragments written with plain stores (booked likewise).
    pub partial_flushes: u64,
}

/// All reusable working memory of the counting-pass loop.
#[derive(Debug, Default)]
pub struct PassScratch {
    /// Block assignments of the current pass (bucket-major order).
    pub blocks: Vec<PassBlock>,
    /// Per-block histogram strips: `radix` counters per block, the
    /// blocks' strips padded apart.
    pub block_counts: Vec<u32>,
    /// Per-stripe scatter bases: `stripes.len() × radix` destination
    /// offsets, each stripe's cursor seed.
    pub stripe_bases: Vec<usize>,
    /// Per-block histogram/scatter statistics.
    pub block_stats: Vec<BlockStat>,
    /// Digit histogram of the bucket currently being combined.
    pub bucket_hist: Vec<u64>,
    /// Exclusive prefix sum of `bucket_hist`.
    pub prefix: Vec<usize>,
    /// Per-digit running scatter offset while the bases of a bucket's
    /// blocks are laid out, block by block.
    pub digit_run: Vec<usize>,
    /// Per-worker bin write cursors: `radix` offsets per worker, the
    /// workers' strips padded apart.
    pub worker_cursors: Vec<usize>,
    /// Sub-buckets of the bucket currently being classified.
    pub sub_buckets: Vec<SubBucket>,
    /// Buckets entering the current pass.
    pub counting_in: Vec<Bucket>,
    /// Buckets produced for the next pass.
    pub counting_out: Vec<Bucket>,
    /// Buckets routed to the local sort in the current pass.
    pub local: Vec<LocalBucket>,
    /// Per-worker write-combining fill counts: `radix` staged-key counters
    /// per worker, padded apart (all zero between stripes).
    pub stage_filled: Vec<u32>,
    /// Scatter stripes of the current pass: `(first, end)` block index
    /// ranges, consecutive blocks of one bucket.
    pub stripes: Vec<(usize, usize)>,
    /// Cache-sized buckets split off a pass's output, to be finished
    /// depth-first.
    pub depth_first: Vec<Bucket>,
    /// One tally per counting pass of the current sort, summing the
    /// buckets this scratch's pass loops partitioned.
    pub tallies: Vec<PassTally>,
    /// The local sorts this scratch's pass loops booked.
    pub local_stats: LocalSortStats,
}

impl PassScratch {
    /// Retained capacity of every scratch vector, in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.blocks.capacity() * std::mem::size_of::<PassBlock>()
            + self.block_counts.capacity() * std::mem::size_of::<u32>()
            + self.stripe_bases.capacity() * std::mem::size_of::<usize>()
            + self.block_stats.capacity() * std::mem::size_of::<BlockStat>()
            + self.bucket_hist.capacity() * std::mem::size_of::<u64>()
            + self.prefix.capacity() * std::mem::size_of::<usize>()
            + self.digit_run.capacity() * std::mem::size_of::<usize>()
            + self.worker_cursors.capacity() * std::mem::size_of::<usize>()
            + self.sub_buckets.capacity() * std::mem::size_of::<SubBucket>()
            + self.counting_in.capacity() * std::mem::size_of::<Bucket>()
            + self.counting_out.capacity() * std::mem::size_of::<Bucket>()
            + self.local.capacity() * std::mem::size_of::<LocalBucket>()
            + self.stage_filled.capacity() * std::mem::size_of::<u32>()
            + self.stripes.capacity() * std::mem::size_of::<(usize, usize)>()
            + self.depth_first.capacity() * std::mem::size_of::<Bucket>()
            + self.tallies.capacity() * std::mem::size_of::<PassTally>()
    }

    /// Grows every table to at least `other`'s capacity.  Workers that ran
    /// different tasks of one fan-out match each other's capacities
    /// afterwards, so which worker ran which task leaves no trace in the
    /// warm arena.
    pub fn reserve_like(&mut self, other: &PassScratch) {
        fn grow<T>(v: &mut Vec<T>, other: &Vec<T>) {
            if v.capacity() < other.capacity() {
                v.reserve_exact(other.capacity() - v.len());
            }
        }
        grow(&mut self.blocks, &other.blocks);
        grow(&mut self.block_counts, &other.block_counts);
        grow(&mut self.stripe_bases, &other.stripe_bases);
        grow(&mut self.block_stats, &other.block_stats);
        grow(&mut self.bucket_hist, &other.bucket_hist);
        grow(&mut self.prefix, &other.prefix);
        grow(&mut self.digit_run, &other.digit_run);
        grow(&mut self.worker_cursors, &other.worker_cursors);
        grow(&mut self.sub_buckets, &other.sub_buckets);
        grow(&mut self.counting_in, &other.counting_in);
        grow(&mut self.counting_out, &other.counting_out);
        grow(&mut self.local, &other.local);
        grow(&mut self.stage_filled, &other.stage_filled);
        grow(&mut self.stripes, &other.stripes);
        grow(&mut self.depth_first, &other.depth_first);
        grow(&mut self.tallies, &other.tallies);
    }
}

/// A spare-buffer slot plus its retained size (the `dyn Any` erases the
/// element type, so the byte count is recorded at park time).  The box
/// lives as long as the arena; a taken buffer leaves an empty `Vec` in it.
struct TypedBuffer {
    vec: Box<dyn Any + Send>,
    capacity_bytes: usize,
}

/// Retained-memory snapshot of an arena, comparable across sorts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaStats {
    /// Bytes retained by the typed spare buffers.
    pub buffer_bytes: usize,
    /// Number of spare-buffer slots (one per element type and role).
    pub buffers: usize,
    /// Bytes retained by the pass scratch tables.
    pub scratch_bytes: usize,
}

impl ArenaStats {
    /// Total retained bytes.
    pub fn total_bytes(&self) -> usize {
        self.buffer_bytes + self.scratch_bytes
    }
}

/// Reusable scratch memory owned by a
/// [`HybridRadixSorter`](crate::HybridRadixSorter).
#[derive(Default)]
pub struct ScratchArena {
    /// The counting-pass working set.
    pub pass: PassScratch,
    /// One counting-pass working set per executor worker, for the
    /// depth-first tasks.
    pub workers: Vec<PassScratch>,
    buffers: HashMap<(TypeId, u8), TypedBuffer>,
}

impl ScratchArena {
    /// An empty arena; memory is acquired lazily on the first sort.
    pub fn new() -> Self {
        ScratchArena::default()
    }

    /// Takes the spare buffer for `(T, role)` out of the arena with `len`
    /// elements.  Returns a fresh vector of defaults the first time;
    /// thereafter the parked buffer is truncated, or grown with defaults,
    /// so its first elements keep whatever the last sort left there and no
    /// warm take writes memory.  Every caller overwrites an element before
    /// it reads it.  The allocation is reused, growing only when `len`
    /// exceeds the retained capacity.
    pub fn take_buffer<T: Copy + Default + Send + 'static>(
        &mut self,
        role: u8,
        len: usize,
    ) -> Vec<T> {
        // The box stays parked; only the `Vec` moves out, so parking it
        // again needs no allocation.
        let mut buf: Vec<T> = self
            .buffers
            .get_mut(&(TypeId::of::<T>(), role))
            .and_then(|slot| {
                slot.capacity_bytes = 0;
                slot.vec.downcast_mut::<Vec<T>>()
            })
            .map(std::mem::take)
            .unwrap_or_default();
        buf.resize(len, T::default());
        buf
    }

    /// Parks a buffer for reuse by the next [`ScratchArena::take_buffer`]
    /// with the same type and role.  Refills the slot's existing box; only
    /// the first park of a `(T, role)` pair allocates one.
    pub fn put_buffer<T: Copy + Default + Send + 'static>(&mut self, role: u8, buf: Vec<T>) {
        let capacity_bytes = buf.capacity() * std::mem::size_of::<T>();
        let slot = self
            .buffers
            .entry((TypeId::of::<T>(), role))
            .or_insert_with(|| TypedBuffer {
                vec: Box::new(Vec::<T>::new()),
                capacity_bytes: 0,
            });
        if let Some(parked) = slot.vec.downcast_mut::<Vec<T>>() {
            *parked = buf;
            slot.capacity_bytes = capacity_bytes;
        }
    }

    /// Snapshot of the retained memory.  Two consecutive sorts of the same
    /// input size must report identical stats — that equality is the
    /// "zero steady-state allocation" regression check.
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            buffer_bytes: self.buffers.values().map(|b| b.capacity_bytes).sum(),
            buffers: self.buffers.len(),
            scratch_bytes: self.pass.capacity_bytes()
                + self
                    .workers
                    .iter()
                    .map(PassScratch::capacity_bytes)
                    .sum::<usize>()
                + self.workers.capacity() * std::mem::size_of::<PassScratch>(),
        }
    }
}

impl std::fmt::Debug for ScratchArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScratchArena")
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_then_put_reuses_the_allocation() {
        let mut arena = ScratchArena::new();
        let buf = arena.take_buffer::<u64>(0, 1_000);
        assert_eq!(buf.len(), 1_000);
        let ptr = buf.as_ptr();
        arena.put_buffer(0, buf);
        assert_eq!(arena.stats().buffers, 1);
        assert_eq!(arena.stats().buffer_bytes, 1_000 * 8);
        let again = arena.take_buffer::<u64>(0, 500);
        assert_eq!(again.len(), 500);
        assert_eq!(again.as_ptr(), ptr, "allocation was not reused");
    }

    #[test]
    fn a_warm_take_truncates_or_grows_without_clearing() {
        let mut arena = ScratchArena::new();
        let mut buf = arena.take_buffer::<u32>(0, 4);
        buf.copy_from_slice(&[7, 8, 9, 10]);
        arena.put_buffer(0, buf);
        let buf = arena.take_buffer::<u32>(0, 2);
        assert_eq!(buf, vec![7, 8]);
        arena.put_buffer(0, buf);
        let mut buf = arena.take_buffer::<u32>(0, 3);
        assert_eq!(buf, vec![7, 8, 0]);
        buf[2] = 5;
        arena.put_buffer(0, buf);
        // Only the grown tail is written with defaults.
        assert_eq!(arena.take_buffer::<u32>(0, 5), vec![7, 8, 5, 0, 0]);
    }

    #[test]
    fn roles_keep_same_typed_buffers_apart() {
        let mut arena = ScratchArena::new();
        let a = arena.take_buffer::<u32>(0, 10);
        let b = arena.take_buffer::<u32>(1, 20);
        arena.put_buffer(0, a);
        arena.put_buffer(1, b);
        assert_eq!(arena.stats().buffers, 2);
        assert_eq!(arena.take_buffer::<u32>(0, 10).capacity(), 10);
        assert_eq!(arena.take_buffer::<u32>(1, 20).capacity(), 20);
    }

    #[test]
    fn zero_sized_elements_cost_nothing() {
        let mut arena = ScratchArena::new();
        let buf = arena.take_buffer::<()>(1, 1 << 20);
        assert_eq!(buf.len(), 1 << 20);
        arena.put_buffer(1, buf);
        assert_eq!(arena.stats().buffer_bytes, 0);
    }

    #[test]
    fn stats_are_stable_when_sizes_repeat() {
        let mut arena = ScratchArena::new();
        for _ in 0..3 {
            let buf = arena.take_buffer::<u64>(0, 4_096);
            arena.put_buffer(0, buf);
            arena.pass.bucket_hist.clear();
            arena.pass.bucket_hist.resize(256, 0);
        }
        let snap = arena.stats();
        let buf = arena.take_buffer::<u64>(0, 4_096);
        arena.put_buffer(0, buf);
        arena.pass.bucket_hist.clear();
        arena.pass.bucket_hist.resize(256, 0);
        assert_eq!(arena.stats(), snap);
        assert_eq!(snap.total_bytes(), snap.buffer_bytes + snap.scratch_bytes);
    }
}
