//! Key (and value) scattering (Section 4.4).
//!
//! After the per-block histograms and the bucket-wide prefix sum are known,
//! every key block scatters its keys into the `r` sub-buckets:
//!
//! 1. For every digit value present in the block, a chunk of memory inside
//!    the corresponding sub-bucket is reserved with a single `atomicAdd` on
//!    the sub-bucket's write cursor (here: the per-digit cursor the pass
//!    precomputes for every block, see [`scatter_block`]).
//! 2. The block's keys are partitioned into the sub-buckets *in shared
//!    memory* (write combining) and the staged sub-buckets are copied to the
//!    reserved chunks in device memory.
//! 3. For key-value pairs, the offsets at which the keys were placed are
//!    kept in registers and the values are routed through shared memory to
//!    the same positions.
//!
//! The shared-memory staging itself uses one atomic per key; for highly
//! skewed blocks a *look-ahead of two* combines writes of up to three
//! consecutive keys sharing a digit value.  The look-ahead is only enabled
//! when the block's histogram reveals enough skew, because for well-spread
//! distributions the extra comparisons are wasted work.
//!
//! The CPU scatters a *stripe* per task: consecutive blocks of one
//! bucket, up to [`STRIPE_KEYS`] keys ([`scatter_stripe`]).  A bucket's
//! blocks own adjacent chunks of every sub-bucket, so the first block's
//! cursor serves the whole stripe.  With staging on, each key is copied to
//! its digit's staging line, a mirror of the aligned destination line the
//! key lands in (its slot is the destination position modulo the line).
//! When a line's last slot is written, the line is flushed:
//!
//! * a line wholly inside the stripe's chunk goes out with non-temporal
//!   stores ([`SharedMut::stream_from_slice_at`]), so the core never reads
//!   the destination line for ownership;
//! * a line shared with a neighbouring chunk (another stripe or another
//!   digit) gets plain stores of this chunk's part only.
//!
//! The unfinished lines are drained with plain stores at stripe end.  Keys
//! and values have lines of their own, each aligned to its own array.
//! Without staging every key is written straight to its destination: the
//! equivalence reference, and the scatter of a depth-first task, whose
//! destination range stays in cache ([`chunk_line_counts`] books the lines
//! the staged scatter would have written).
//!
//! The shared-memory atomics the GPU staging would issue are *counted* per
//! GPU block by [`block_lookahead`] (the counting pass calls it from its
//! histogram task, while the block is in cache): one per key, or, in a
//! look-ahead block, one per run of up to `lookahead + 1` consecutive equal
//! digits within a thread's keys.

use crate::digit::{Digit, KeyBins};
use crate::exec::{stream_fence, SharedMut};
use workloads::SortKey;

/// Keys per scatter task: the counting pass groups consecutive blocks of a
/// bucket into stripes of about this many keys, so the staging lines drain
/// once per stripe rather than once per GPU-sized block.  Fixed, so the
/// stripes (and the reports) do not depend on the worker count.
pub const STRIPE_KEYS: usize = 1 << 16;

/// Parameters of the scatter shared by all blocks of a pass.
#[derive(Debug, Clone, Copy)]
pub struct ScatterParams {
    /// Bits per digit.
    pub digit_bits: u32,
    /// Digit index being partitioned on.
    pub pass: u32,
    /// Radix of the digit.
    pub radix: usize,
    /// Keys per block.
    pub keys_per_block: usize,
    /// Keys per thread (granularity of the look-ahead simulation).
    pub keys_per_thread: usize,
    /// Whether the look-ahead write combining is enabled at all.
    pub lookahead_enabled: bool,
    /// Number of following keys each thread inspects (2 in the paper).
    pub lookahead: u32,
    /// Minimum max-bin fraction of a block's histogram for the look-ahead
    /// to be switched on for that block.
    pub skew_threshold: f64,
}

/// One worker's software write-combining staging area (Wassenberg &
/// Sanders): one key line and one value line per digit value, plus a
/// per-digit key count.
///
/// The slices are per-worker views into the arena-owned staging segments.
/// Each line mirrors one aligned line of the destination array, slot by
/// slot, and [`scatter_stripe`] flushes it when its last slot is written,
/// so the per-element random write becomes one line write per line.
/// `filled` is all-zero between calls — every call drains its unfinished
/// lines before returning, which is what keeps the staged output
/// byte-identical to the direct scatter (keys of one digit still land in
/// encounter order, and calls own disjoint destination chunks).
pub struct ScatterStaging<'a, K, V> {
    /// Staged keys: line of digit `d` occupies `d * line_keys ..`.
    pub keys: &'a mut [K],
    /// Staged values: `radix` lines of `vals.len() / radix` values each
    /// (empty when `V` is zero-sized).  The counting pass sizes a value
    /// line to span the bytes of a key line, so both flush whole cache
    /// lines; any length of at least one value is correct.
    pub vals: &'a mut [V],
    /// Keys of each digit value scattered by the current call (`radix`
    /// entries, all zero on entry and on exit).
    pub filled: &'a mut [u32],
    /// Keys per line (`scatter_line_bytes / key_width`, at least 2 for the
    /// staged path to be worthwhile).
    pub line_keys: usize,
}

/// Write-traffic statistics of scattering one block.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockScatter {
    /// Shared-memory atomic updates after look-ahead combining.
    pub shared_updates: u64,
    /// Whether the look-ahead write combiner was active for this block.
    pub lookahead_active: bool,
    /// Whole key lines the staged scatter writes, counted for a
    /// line-aligned destination so that reports do not depend on where the
    /// allocator placed the buffer.
    pub staged_lines: u64,
    /// Key-line fragments written with plain stores, counted the same way:
    /// the head and tail of each chunk that share a line with a
    /// neighbouring chunk.
    pub partial_flushes: u64,
}

/// Scatters a single key block through precomputed per-digit write cursors:
/// the one-block case of [`scatter_stripe`], plus the block's look-ahead
/// statistics ([`block_lookahead`]).
///
/// `cursor` must be seeded with the block's destination base offset for
/// every digit value (bucket offset + bucket prefix + counts of earlier
/// blocks), exactly the chunk the GPU block would have reserved with one
/// `atomicAdd` per occupied sub-bucket.  Because every block owns disjoint
/// destination chunks, blocks scatter concurrently without synchronisation;
/// `dst_keys`/`dst_vals` are therefore [`SharedMut`] views of the full
/// destination buffers.
///
/// `max_bin_count` is the largest digit count of the block's histogram
/// (already available from the histogram phase); it decides whether the
/// look-ahead write combiner is active.  Destination contents are
/// byte-identical with and without `staging`.
#[allow(clippy::too_many_arguments)]
pub fn scatter_block<K: SortKey, V: Copy>(
    block_keys: &[K],
    block_vals: &[V],
    cursor: &mut [usize],
    dst_keys: &SharedMut<'_, K>,
    dst_vals: &SharedMut<'_, V>,
    params: &ScatterParams,
    max_bin_count: u32,
    staging: Option<&mut ScatterStaging<'_, K, V>>,
) -> BlockScatter {
    let digit = Digit::of_pass(K::BITS, params.digit_bits, params.pass);
    let (lookahead_active, shared_updates) =
        block_lookahead(block_keys, digit, params, max_bin_count);
    let (staged_lines, partial_flushes) = scatter_stripe(
        block_keys, block_vals, cursor, dst_keys, dst_vals, digit, params, staging,
    );
    BlockScatter {
        shared_updates,
        lookahead_active,
        staged_lines,
        partial_flushes,
    }
}

/// Whether the look-ahead write combiner is active for a block whose
/// largest bin count is `max_bin_count`, and the shared-memory writes its
/// staging issues: one per key, or, with the look-ahead active, one per
/// combined run of equal bins (a second read of the block, only for skewed
/// blocks).
pub fn block_lookahead<K, B: KeyBins<K>>(
    block_keys: &[K],
    bins: B,
    params: &ScatterParams,
    max_bin_count: u32,
) -> (bool, u64) {
    let active = params.lookahead_enabled
        && !block_keys.is_empty()
        && max_bin_count as f64 / block_keys.len() as f64 >= params.skew_threshold;
    if !active {
        return (false, block_keys.len() as u64);
    }
    let mut writes = LookaheadWrites::new(params);
    for key in block_keys {
        writes.push(bins.bin(key));
    }
    (true, writes.writes)
}

/// Scatters a stripe — any run of keys whose per-bin destination chunks
/// start at `cursor` — into the bins of `bins` and returns its
/// `(staged_lines, partial_flushes)` (see [`BlockScatter`]).  On return
/// `cursor` holds the chunk ends; `params.radix` (at least `bins.bins()`)
/// sizes the cursor and staging tables.
///
/// With `staging` (lines of at least two keys) writes are combined per
/// bin in the staging lines; completed lines wholly inside a chunk are
/// streamed with non-temporal stores, and the call ends with a
/// [`stream_fence`].  The destination contents equal the direct scatter's.
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn scatter_stripe<K: Copy, V: Copy, B: KeyBins<K>>(
    keys: &[K],
    vals: &[V],
    cursor: &mut [usize],
    dst_keys: &SharedMut<'_, K>,
    dst_vals: &SharedMut<'_, V>,
    bins: B,
    params: &ScatterParams,
    staging: Option<&mut ScatterStaging<'_, K, V>>,
) -> (u64, u64) {
    scatter_stripe_with::<K, V, B, true>(
        keys, vals, cursor, dst_keys, dst_vals, bins, params, staging,
    )
}

/// [`scatter_stripe`] with the flush of whole lines chosen at compile
/// time: streamed (`STREAM`) or the plain copy other targets get.
#[allow(clippy::too_many_arguments)]
fn scatter_stripe_with<K: Copy, V: Copy, B: KeyBins<K>, const STREAM: bool>(
    keys: &[K],
    vals: &[V],
    cursor: &mut [usize],
    dst_keys: &SharedMut<'_, K>,
    dst_vals: &SharedMut<'_, V>,
    bins: B,
    params: &ScatterParams,
    staging: Option<&mut ScatterStaging<'_, K, V>>,
) -> (u64, u64) {
    // The staged loop indexes its tables by bin unchecked, so only bins
    // the tables' `params.radix` entries cover may stage.
    let lines = staging
        .filter(|_| bins.bins() <= params.radix)
        .and_then(|st| {
            let lines = StripeLines::new(st, keys, vals, cursor, params, dst_keys, dst_vals)?;
            Some((st, lines))
        });
    match lines {
        Some((st, lines)) => {
            // Power-of-two lines (every real configuration) wrap with a
            // mask; the others need the division.
            let out = if lines.pow2 {
                stage::<K, V, B, STREAM>(
                    keys,
                    vals,
                    cursor,
                    dst_keys,
                    dst_vals,
                    bins,
                    st,
                    lines,
                    |x, n| x & (n - 1),
                )
            } else {
                stage::<K, V, B, STREAM>(
                    keys,
                    vals,
                    cursor,
                    dst_keys,
                    dst_vals,
                    bins,
                    st,
                    lines,
                    |x, n| x % n,
                )
            };
            if STREAM {
                stream_fence();
            }
            out
        }
        None => {
            // Direct per-key scatter: the unstaged equivalence reference.
            let values_present = std::mem::size_of::<V>() != 0;
            for (i, key) in keys.iter().enumerate() {
                let d = bins.bin(key);
                let pos = cursor[d];
                cursor[d] = pos + 1;
                // SAFETY: `pos` lies inside the chunk this stripe reserved
                // for digit `d`; chunks of distinct stripes are disjoint by
                // construction of the per-block bases, so no other task
                // touches `pos`.
                unsafe {
                    dst_keys.write(pos, *key);
                    if values_present {
                        dst_vals.write(pos, vals[i]);
                    }
                }
            }
            (0, 0)
        }
    }
}

/// Line geometry of one staged call: line lengths and the destinations'
/// phases within their aligned lines.  Only built for a call whose tables
/// cover every bin, which the staged loop's unchecked indexing relies on.
#[derive(Clone, Copy)]
struct StripeLines {
    radix: usize,
    key_line: usize,
    key_phase: usize,
    val_line: usize,
    val_phase: usize,
    pow2: bool,
}

impl StripeLines {
    /// The geometry of staging `keys`/`vals` through `st`, or `None` when
    /// staging does not pay (lines of one key), a table is too short for
    /// `params.radix` bins or the fill table is not drained (the flushes
    /// trust its counts) — the caller then scatters directly.
    fn new<K, V>(
        st: &ScatterStaging<'_, K, V>,
        keys: &[K],
        vals: &[V],
        cursor: &[usize],
        params: &ScatterParams,
        dst_keys: &SharedMut<'_, K>,
        dst_vals: &SharedMut<'_, V>,
    ) -> Option<Self> {
        let radix = params.radix;
        let key_line = st.line_keys;
        let val_line = (st.vals.len() / radix.max(1)).max(1);
        let values_present = std::mem::size_of::<V>() != 0;
        let covered = cursor.len() >= radix
            && st.filled.len() >= radix
            && st.filled[..radix].iter().all(|&f| f == 0)
            && st.keys.len() >= radix * key_line
            && (!values_present || (vals.len() >= keys.len() && st.vals.len() >= radix * val_line));
        if key_line < 2 || !covered {
            return None;
        }
        Some(StripeLines {
            radix,
            key_line,
            key_phase: dst_keys.phase(key_line),
            val_line,
            val_phase: dst_vals.phase(val_line),
            pow2: key_line.is_power_of_two() && val_line.is_power_of_two(),
        })
    }
}

/// The staged scatter's hot loop and stripe-end drain; `wrap(x, n)` is
/// `x % n` for the line lengths `n` in use.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn stage<K: Copy, V: Copy, B: KeyBins<K>, const STREAM: bool>(
    keys: &[K],
    vals: &[V],
    cursor: &mut [usize],
    dst_keys: &SharedMut<'_, K>,
    dst_vals: &SharedMut<'_, V>,
    bins: B,
    st: &mut ScatterStaging<'_, K, V>,
    lines: StripeLines,
    wrap: impl Fn(usize, usize) -> usize,
) -> (u64, u64) {
    let values_present = std::mem::size_of::<V>() != 0;
    let (kl, vl) = (lines.key_line, lines.val_line);
    for (i, key) in keys.iter().enumerate() {
        let d = bins.bin(key);
        // SAFETY: `d` is a bin, below `radix` (`scatter_stripe_with`
        // stages only such bins), and `StripeLines::new` checked that `cursor` and `filled` hold `radix`
        // entries, the key and value tables `radix` lines of `kl` and `vl`
        // slots, and `vals` a value per key; `wrap(_, n) < n` picks a slot
        // inside the line.  The flushes' own ranges are argued there.
        unsafe {
            let pos = *cursor.get_unchecked(d);
            *cursor.get_unchecked_mut(d) = pos + 1;
            let done = st.filled.get_unchecked(d).saturating_add(1);
            *st.filled.get_unchecked_mut(d) = done;
            let slot = wrap(lines.key_phase + pos, kl);
            let line = st.keys.get_unchecked_mut(d * kl..(d + 1) * kl);
            *line.get_unchecked_mut(slot) = *key;
            if slot + 1 == kl {
                flush_line::<K, STREAM>(dst_keys, pos + 1, line, done as usize);
            }
            if values_present {
                let slot = wrap(lines.val_phase + pos, vl);
                let line = st.vals.get_unchecked_mut(d * vl..(d + 1) * vl);
                *line.get_unchecked_mut(slot) = *vals.get_unchecked(i);
                if slot + 1 == vl {
                    flush_line::<V, STREAM>(dst_vals, pos + 1, line, done as usize);
                }
            }
        }
    }

    // Drain: every digit's unfinished lines go out with plain stores, and
    // its chunk's line statistics are counted from the chunk's bounds.
    let (mut staged, mut partial) = (0u64, 0u64);
    let digits = st.filled[..lines.radix]
        .iter_mut()
        .zip(&cursor[..lines.radix]);
    for (d, (filled, &end)) in digits.enumerate() {
        let done = std::mem::take(filled) as usize;
        if done == 0 {
            continue;
        }
        let (full, fragments) = line_counts(end - done, end, kl);
        staged += full;
        partial += fragments;
        let line = &st.keys[d * kl..(d + 1) * kl];
        drain_line(dst_keys, end, line, wrap(lines.key_phase + end, kl), done);
        if values_present {
            let line = &st.vals[d * vl..(d + 1) * vl];
            drain_line(dst_vals, end, line, wrap(lines.val_phase + end, vl), done);
        }
    }
    (staged, partial)
}

/// Writes the completed staging `line` whose last slot is destination
/// position `end - 1`.  The whole line is streamed when the chunk covers
/// it (`done`, the chunk's keys so far, reaches the line length); otherwise
/// the line begins in a neighbouring chunk, and only its last `done` slots
/// are written, with plain stores.
#[inline(always)]
fn flush_line<T: Copy, const STREAM: bool>(
    dst: &SharedMut<'_, T>,
    end: usize,
    line: &[T],
    done: usize,
) {
    let n = line.len();
    if done >= n {
        // SAFETY: `end - n .. end` are the chunk's last `n` positions so
        // far (`done >= n` of them are this call's); chunks of distinct
        // tasks are disjoint, so no other task touches the range.
        unsafe {
            if STREAM {
                dst.stream_from_slice_at(end - n, line);
            } else {
                dst.copy_from_slice_at(end - n, line);
            }
        }
    } else {
        // SAFETY: `end - done .. end` are exactly this call's positions of
        // the chunk so far, which no other task touches.
        unsafe { dst.copy_from_slice_at(end - done, &line[n - done..]) };
    }
}

/// Writes the unfinished staging `line` at a chunk's end `end`: its first
/// `filled` slots are staged, of which the chunk owns the last
/// `min(filled, done)`.
#[inline(always)]
fn drain_line<T: Copy>(dst: &SharedMut<'_, T>, end: usize, line: &[T], filled: usize, done: usize) {
    let n = filled.min(done);
    if n > 0 {
        // SAFETY: `end - n .. end` lies inside this call's chunk (it holds
        // `done >= n` positions ending at `end`), which no other task
        // touches.
        unsafe { dst.copy_from_slice_at(end - n, &line[filled - n..filled]) };
    }
}

/// The `(staged_lines, partial_flushes)` the staged scatter reports for a
/// stripe whose chunk of digit `d` runs from `starts[d]` to `ends[d]` (a
/// scatter's cursor seeds and final cursors), with `origin` added to every
/// position: what a direct scatter into a range of a larger buffer that
/// starts at `origin` books for the lines of that buffer.
pub fn chunk_line_counts(
    starts: &[usize],
    ends: &[usize],
    origin: usize,
    line: usize,
) -> (u64, u64) {
    starts
        .iter()
        .zip(ends)
        .filter(|(start, end)| end > start)
        .fold((0, 0), |(full, fragments), (&start, &end)| {
            let (f, p) = line_counts(origin + start, origin + end, line);
            (full + f, fragments + p)
        })
}

/// Whole lines and line fragments of the chunk `start..end` (non-empty)
/// for lines of `line` elements aligned to element 0 — what the staged
/// scatter writes when the destination is line-aligned.
fn line_counts(start: usize, end: usize, line: usize) -> (u64, u64) {
    let first = start.div_ceil(line) * line;
    let last = end / line * line;
    if first > last {
        // Inside one line, which it does not fill.
        return (0, 1);
    }
    (
        ((last - first) / line) as u64,
        u64::from(start < first) + u64::from(last < end),
    )
}

/// Counts the shared-memory writes of a look-ahead block's staging while
/// its keys stream past in order: a key joins the current write when it
/// belongs to the same thread (`keys_per_thread` consecutive keys), has
/// the same digit and the write holds fewer than `lookahead + 1` keys.
/// Without the look-ahead every key is one write.
struct LookaheadWrites {
    window: usize,
    keys_per_thread: usize,
    /// Keys of the current thread still to come.
    left_in_thread: usize,
    /// Digit and key count of the current write.
    digit: usize,
    len: usize,
    /// Writes so far.
    writes: u64,
}

impl LookaheadWrites {
    fn new(params: &ScatterParams) -> Self {
        let window = params.lookahead as usize + 1;
        LookaheadWrites {
            window,
            keys_per_thread: params.keys_per_thread.max(1),
            left_in_thread: 0,
            digit: 0,
            len: window,
            writes: 0,
        }
    }

    /// Records the next key's digit.
    #[inline]
    fn push(&mut self, digit: usize) {
        if self.left_in_thread == 0 {
            // A new thread's keys: close the current write.
            self.left_in_thread = self.keys_per_thread;
            self.len = self.window;
        }
        self.left_in_thread -= 1;
        if digit == self.digit && self.len < self.window {
            self.len += 1;
        } else {
            self.digit = digit;
            self.len = 1;
            self.writes += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket::Bucket;
    use crate::digit::digit_of;
    use crate::histogram::block_histogram;
    use crate::prefix_sum::exclusive_prefix_sum_usize;
    use gpu_sim::HistogramStrategy;
    use workloads::{uniform_keys, EntropyLevel};

    fn params(lookahead: bool) -> ScatterParams {
        ScatterParams {
            digit_bits: 8,
            pass: 0,
            radix: 256,
            keys_per_block: 1_000,
            keys_per_thread: 10,
            lookahead_enabled: lookahead,
            lookahead: 2,
            skew_threshold: 0.5,
        }
    }

    /// Scatters the bucket `src_keys[bucket.offset..bucket.end()]` (and its
    /// values) into the same range of `dst_keys`/`dst_vals`, block by block
    /// through [`scatter_block`] as a counting pass does.  One cursor,
    /// seeded with the bucket's sub-bucket offsets, serves every block in
    /// turn: a block advances each digit's cursor past its own keys, which
    /// is exactly the next block's reserved chunk.
    fn scatter_bucket_blocks<V: Copy>(
        src_keys: &[u32],
        src_vals: &[V],
        dst_keys: &mut [u32],
        dst_vals: &mut [V],
        bucket: Bucket,
        p: &ScatterParams,
    ) -> Vec<BlockScatter> {
        let keys = &src_keys[bucket.offset..bucket.end()];
        let vals = &src_vals[bucket.offset..bucket.end()];
        let mut cursor: Vec<usize> = seed_cursor(keys, p)
            .iter()
            .map(|c| bucket.offset + c)
            .collect();
        let (dst_keys, dst_vals) = (SharedMut::new(dst_keys), SharedMut::new(dst_vals));
        keys.chunks(p.keys_per_block)
            .zip(vals.chunks(p.keys_per_block))
            .map(|(block_keys, block_vals)| {
                let hist = block_histogram(
                    block_keys,
                    p.digit_bits,
                    p.pass,
                    p.radix,
                    HistogramStrategy::AtomicsOnly,
                    18,
                );
                let max_bin = hist.counts.iter().copied().max().unwrap_or(0);
                scatter_block(
                    block_keys,
                    block_vals,
                    &mut cursor,
                    &dst_keys,
                    &dst_vals,
                    p,
                    max_bin,
                    None,
                )
            })
            .collect()
    }

    /// Scatters `keys` as one root bucket; returns the output and the
    /// blocks' statistics.
    fn scatter_and_check(keys: Vec<u32>, p: ScatterParams) -> (Vec<u32>, Vec<BlockScatter>) {
        let n = keys.len();
        let mut dst = vec![0u32; n];
        let blocks = scatter_bucket_blocks(
            &keys,
            &vec![(); n],
            &mut dst,
            &mut vec![(); n],
            Bucket::root(n),
            &p,
        );
        (dst, blocks)
    }

    fn shared_updates(blocks: &[BlockScatter]) -> u64 {
        blocks.iter().map(|b| b.shared_updates).sum()
    }

    fn lookahead_blocks(blocks: &[BlockScatter]) -> usize {
        blocks.iter().filter(|b| b.lookahead_active).count()
    }

    #[test]
    fn scatter_partitions_by_digit_value() {
        let keys = uniform_keys::<u32>(10_000, 1);
        let (dst, blocks) = scatter_and_check(keys.clone(), params(false));
        // The output is partitioned: the most-significant byte is
        // non-decreasing.
        assert!(dst.windows(2).all(|w| (w[0] >> 24) <= (w[1] >> 24)));
        // It is a permutation of the input.
        let mut a = keys;
        let mut b = dst;
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert_eq!(shared_updates(&blocks), 10_000);
        assert_eq!(blocks.len(), 10);
    }

    #[test]
    fn values_follow_their_keys() {
        let keys = uniform_keys::<u32>(5_000, 2);
        let n = keys.len();
        let vals: Vec<u32> = (0..n as u32).collect();
        let mut dst_keys = vec![0u32; n];
        let mut dst_vals = vec![0u32; n];
        scatter_bucket_blocks(
            &keys,
            &vals,
            &mut dst_keys,
            &mut dst_vals,
            Bucket::root(n),
            &params(false),
        );
        for i in 0..n {
            assert_eq!(keys[dst_vals[i] as usize], dst_keys[i]);
        }
    }

    #[test]
    fn lookahead_reduces_updates_for_skewed_blocks() {
        let keys = EntropyLevel::constant().generate_u32(3_000, 3);
        let (_, with) = scatter_and_check(keys.clone(), params(true));
        let (_, without) = scatter_and_check(keys, params(false));
        assert_eq!(shared_updates(&without), 3_000);
        // A look-ahead of two combines runs of three equal digits; with ten
        // keys per thread each thread issues ceil(10/3) = 4 writes.
        assert_eq!(shared_updates(&with), 1_200);
        assert_eq!(lookahead_blocks(&with), 3);
        assert_eq!(lookahead_blocks(&without), 0);
    }

    #[test]
    fn lookahead_not_activated_for_uniform_blocks() {
        let keys = uniform_keys::<u32>(3_000, 4);
        let (_, blocks) = scatter_and_check(keys, params(true));
        assert_eq!(lookahead_blocks(&blocks), 0);
        assert_eq!(shared_updates(&blocks), 3_000);
    }

    #[test]
    fn scatter_of_non_root_bucket_stays_in_range() {
        // Scatter a bucket located in the middle of a larger buffer and make
        // sure nothing outside its range is touched.
        let n = 4_000;
        let all = uniform_keys::<u32>(n, 6);
        // Make the middle 2 000 keys the bucket of interest.
        let bucket = Bucket {
            offset: 1_000,
            len: 2_000,
            pass: 1,
        };
        let p = ScatterParams {
            pass: 1,
            ..params(false)
        };
        let sentinel = 0xFFFF_FFFFu32;
        let mut dst = vec![sentinel; n];
        scatter_bucket_blocks(&all, &vec![(); n], &mut dst, &mut vec![(); n], bucket, &p);
        assert!(dst[..1_000].iter().all(|&k| k == sentinel));
        assert!(dst[3_000..].iter().all(|&k| k == sentinel));
        // The written range is a permutation of the bucket's keys.
        let mut expect: Vec<u32> = all[1_000..3_000].to_vec();
        let mut got: Vec<u32> = dst[1_000..3_000].to_vec();
        expect.sort_unstable();
        got.sort_unstable();
        assert_eq!(expect, got);
    }

    fn block_params(radix: usize) -> ScatterParams {
        ScatterParams {
            digit_bits: 8,
            pass: 0,
            radix,
            keys_per_block: 1_000,
            keys_per_thread: 10,
            lookahead_enabled: false,
            lookahead: 2,
            skew_threshold: 0.5,
        }
    }

    fn seed_cursor(keys: &[u32], p: &ScatterParams) -> Vec<usize> {
        let hist = block_histogram(
            keys,
            p.digit_bits,
            p.pass,
            p.radix,
            HistogramStrategy::AtomicsOnly,
            18,
        );
        let counts: Vec<usize> = hist.counts.iter().map(|&c| c as usize).collect();
        exclusive_prefix_sum_usize(&counts).0
    }

    #[test]
    fn staged_block_scatter_matches_direct_exactly() {
        let p = block_params(256);
        for (n, line_keys) in [(2_000usize, 16usize), (777, 3), (100, 2), (513, 7)] {
            let keys = uniform_keys::<u32>(n, 11);
            let vals: Vec<u32> = (0..n as u32).collect();

            let mut direct_k = vec![0u32; n];
            let mut direct_v = vec![0u32; n];
            let mut cursor = seed_cursor(&keys, &p);
            let d_out = scatter_block(
                &keys,
                &vals,
                &mut cursor,
                &SharedMut::new(&mut direct_k),
                &SharedMut::new(&mut direct_v),
                &p,
                0,
                None,
            );
            assert_eq!(d_out.staged_lines, 0);
            assert_eq!(d_out.partial_flushes, 0);

            let mut staged_k = vec![0u32; n];
            let mut staged_v = vec![0u32; n];
            let mut stage_keys = vec![0u32; p.radix * line_keys];
            let mut stage_vals = vec![0u32; p.radix * line_keys];
            let mut filled = vec![0u32; p.radix];
            let mut cursor = seed_cursor(&keys, &p);
            let s_out = scatter_block(
                &keys,
                &vals,
                &mut cursor,
                &SharedMut::new(&mut staged_k),
                &SharedMut::new(&mut staged_v),
                &p,
                0,
                Some(&mut ScatterStaging {
                    keys: &mut stage_keys,
                    vals: &mut stage_vals,
                    filled: &mut filled,
                    line_keys,
                }),
            );
            assert_eq!(staged_k, direct_k, "n={n} line={line_keys}");
            assert_eq!(staged_v, direct_v, "n={n} line={line_keys}");
            assert!(filled.iter().all(|&f| f == 0), "lines drained");
            // Every key is written exactly once, either in a whole line or
            // in a fragment; fragments cover the chunks' unaligned ends.
            assert!(s_out.staged_lines * line_keys as u64 <= n as u64);
            assert!(s_out.partial_flushes > 0);
            assert_eq!(s_out.shared_updates, d_out.shared_updates);
        }
    }

    /// Element `start..start + len` of the returned buffer begins `offset`
    /// elements past a 64-byte boundary.
    fn offset_buffer<T: Copy + Default>(len: usize, offset: usize) -> (Vec<T>, usize) {
        let mut buf = vec![T::default(); len + 128];
        if std::mem::size_of::<T>() == 0 {
            return (buf, offset);
        }
        let start = buf.as_mut_ptr().align_offset(64) + offset;
        (buf, start)
    }

    /// Line statistics of one chunk by walking its lines one by one.
    fn naive_line_counts(start: usize, end: usize, line: usize) -> (u64, u64) {
        let (mut full, mut partial) = (0, 0);
        let mut w = start / line * line;
        while w < end {
            if w >= start && w + line <= end {
                full += 1;
            } else {
                partial += 1;
            }
            w += line;
        }
        (full, partial)
    }

    /// Scatters `keys`/`vals` as consecutive stripes of `stripe` keys,
    /// directly and staged with `line_bytes` lines into destinations that
    /// start `offset` (keys) and `3 × offset` (values) elements past a
    /// line boundary, and checks the staged output byte for byte against
    /// the direct one, the drained fill table and the line statistics.
    /// `STREAM = false` runs the plain flush other targets use.
    fn check_stripes<
        K: SortKey + PartialEq,
        V: Copy + Default + PartialEq + std::fmt::Debug,
        const STREAM: bool,
    >(
        keys: &[K],
        vals: &[V],
        line_bytes: usize,
        stripe: usize,
        offset: usize,
    ) {
        let p = block_params(256);
        let n = keys.len();
        let values_present = std::mem::size_of::<V>() != 0;
        let digit = |k: &K| digit_of(k.to_radix(), K::BITS, p.digit_bits, p.pass);
        let bins = Digit::of_pass(K::BITS, p.digit_bits, p.pass);
        // Per-stripe cursor seeds: the bucket prefix plus earlier stripes.
        let mut counts = vec![0usize; p.radix];
        for k in keys {
            counts[digit(k)] += 1;
        }
        let mut run = exclusive_prefix_sum_usize(&counts).0;
        let seeds: Vec<Vec<usize>> = keys
            .chunks(stripe)
            .map(|chunk| {
                let seed = run.clone();
                for k in chunk {
                    run[digit(k)] += 1;
                }
                seed
            })
            .collect();

        let mut direct_k = vec![K::default(); n];
        let mut direct_v = vec![V::default(); if values_present { n } else { 0 }];
        {
            let (dk, dv) = (SharedMut::new(&mut direct_k), SharedMut::new(&mut direct_v));
            for (i, seed) in seeds.iter().enumerate() {
                let r = i * stripe..(i * stripe + stripe).min(n);
                let v = if values_present {
                    &vals[r.clone()]
                } else {
                    &vals[0..0]
                };
                let mut cursor = seed.clone();
                let out = scatter_stripe_with::<K, V, _, STREAM>(
                    &keys[r],
                    v,
                    &mut cursor,
                    &dk,
                    &dv,
                    bins,
                    &p,
                    None,
                );
                assert_eq!(out, (0, 0));
            }
        }

        let line_keys = (line_bytes / std::mem::size_of::<K>()).max(1);
        let line_vals =
            (line_keys * std::mem::size_of::<K>() / std::mem::size_of::<V>().max(1)).max(1);
        let mut stage_keys = vec![K::default(); p.radix * line_keys];
        let mut stage_vals = vec![
            V::default();
            if values_present {
                p.radix * line_vals
            } else {
                0
            }
        ];
        let mut filled = vec![0u32; p.radix];
        let (mut kbuf, ks) = offset_buffer::<K>(n, offset);
        let (mut vbuf, vs) = offset_buffer::<V>(n, 3 * offset);
        let vlen = if values_present { n } else { 0 };
        let (mut staged, mut partial) = (0u64, 0u64);
        let (mut want_staged, mut want_partial) = (0u64, 0u64);
        {
            let dk = SharedMut::new(&mut kbuf[ks..ks + n]);
            let dv = SharedMut::new(&mut vbuf[vs..vs + vlen]);
            for (i, seed) in seeds.iter().enumerate() {
                let r = i * stripe..(i * stripe + stripe).min(n);
                let v = if values_present {
                    &vals[r.clone()]
                } else {
                    &vals[0..0]
                };
                let mut cursor = seed.clone();
                let mut st = ScatterStaging {
                    keys: &mut stage_keys,
                    vals: &mut stage_vals,
                    filled: &mut filled,
                    line_keys,
                };
                let (a, b) = scatter_stripe_with::<K, V, _, STREAM>(
                    &keys[r],
                    v,
                    &mut cursor,
                    &dk,
                    &dv,
                    bins,
                    &p,
                    Some(&mut st),
                );
                staged += a;
                partial += b;
                assert!(filled.iter().all(|&f| f == 0), "lines drained");
                if line_keys > 1 {
                    assert_eq!(chunk_line_counts(seed, &cursor, 0, line_keys), (a, b));
                    for (&s, &e) in seed.iter().zip(&cursor) {
                        if e > s {
                            let (f, q) = naive_line_counts(s, e, line_keys);
                            want_staged += f;
                            want_partial += q;
                        }
                    }
                }
            }
        }
        let case = format!(
            "K={} V={} line_bytes={line_bytes} stripe={stripe} offset={offset} stream={STREAM}",
            K::BITS,
            std::mem::size_of::<V>()
        );
        assert!(kbuf[ks..ks + n] == direct_k[..], "keys differ: {case}");
        assert_eq!(&vbuf[vs..vs + vlen], &direct_v[..], "values differ: {case}");
        assert_eq!((staged, partial), (want_staged, want_partial), "{case}");
    }

    fn check_stripe_matrix<
        K: SortKey + PartialEq,
        V: Copy + Default + PartialEq + std::fmt::Debug,
    >(
        keys: &[K],
        vals: &[V],
    ) {
        for line_bytes in [3, 8, 24, 63, 64, 100] {
            // Stripes of one key per digit or fewer, of a few keys per
            // digit, and the whole input.
            for stripe in [50, 700, keys.len()] {
                for offset in 0..16 {
                    check_stripes::<K, V, true>(keys, vals, line_bytes, stripe, offset);
                }
                check_stripes::<K, V, false>(keys, vals, line_bytes, stripe, 5);
            }
        }
    }

    #[test]
    fn stripe_kernel_matches_direct_scatter_for_every_phase_and_width() {
        let n = 2_000;
        let narrow: Vec<u32> = (0..n as u32).collect();
        let wide: Vec<u64> = (0..n as u64).map(|i| i << 32 | 7).collect();
        let unit = vec![(); n];
        for level in [
            EntropyLevel::with_and_count(0),
            EntropyLevel::with_and_count(3),
        ] {
            let k32 = level.generate_u32(n, 31);
            let k64 = level.generate_u64(n, 32);
            check_stripe_matrix(&k32, &unit);
            check_stripe_matrix(&k32, &narrow);
            check_stripe_matrix(&k32, &wide);
            check_stripe_matrix(&k64, &unit);
            check_stripe_matrix(&k64, &narrow);
            check_stripe_matrix(&k64, &wide);
        }
    }

    #[test]
    fn stripes_of_one_block_match_the_stripe_kernel() {
        // `scatter_block` is the stripe kernel on one block: per-block
        // calls land every key where one whole-bucket call does.
        let p = block_params(256);
        let n = 5_000;
        let keys = uniform_keys::<u32>(n, 33);
        let vals: Vec<u32> = (0..n as u32).collect();
        let line_keys = 16;
        let mut stage_keys = vec![0u32; p.radix * line_keys];
        let mut stage_vals = vec![0u32; p.radix * line_keys];
        let mut filled = vec![0u32; p.radix];
        let mut scatter = |block: usize| {
            let (mut dk, mut dv) = (vec![0u32; n], vec![0u32; n]);
            let mut cursor = seed_cursor(&keys, &p);
            {
                let (sk, sv) = (SharedMut::new(&mut dk), SharedMut::new(&mut dv));
                for (bk, bv) in keys.chunks(block).zip(vals.chunks(block)) {
                    let mut st = ScatterStaging {
                        keys: &mut stage_keys,
                        vals: &mut stage_vals,
                        filled: &mut filled,
                        line_keys,
                    };
                    scatter_block(bk, bv, &mut cursor, &sk, &sv, &p, 0, Some(&mut st));
                }
            }
            (dk, dv)
        };
        assert_eq!(scatter(p.keys_per_block), scatter(n));
    }

    #[test]
    fn chunk_line_counts_shift_by_the_origin() {
        let starts = [0, 5, 40, 40];
        let ends = [5, 40, 40, 77];
        for origin in [0, 3, 16, 1_000] {
            let mut want = (0, 0);
            for (&s, &e) in starts.iter().zip(&ends).filter(|(s, e)| e > s) {
                let (f, p) = naive_line_counts(origin + s, origin + e, 16);
                want = (want.0 + f, want.1 + p);
            }
            assert_eq!(
                chunk_line_counts(&starts, &ends, origin, 16),
                want,
                "{origin}"
            );
        }
    }

    #[test]
    fn line_counts_match_a_line_walk() {
        for line in [2usize, 3, 8, 16, 25] {
            for start in 0..40 {
                for end in start + 1..start + 60 {
                    assert_eq!(
                        line_counts(start, end, line),
                        naive_line_counts(start, end, line),
                        "{start}..{end} line {line}"
                    );
                }
            }
        }
    }

    #[test]
    fn staged_scatter_write_traffic_is_strictly_lower_on_uniform_input() {
        // The CI-gated normalized-traffic check: on a large uniform input
        // the staged path issues `staged_lines + partial_flushes`
        // destination transactions where the direct path issues one per
        // key.
        let p = block_params(256);
        let line_keys = 16usize;
        let n = 200_000;
        let keys = uniform_keys::<u32>(n, 13);
        let mut dst = vec![0u32; n];
        let mut stage_keys = vec![0u32; p.radix * line_keys];
        let mut stage_vals: Vec<()> = Vec::new();
        let mut filled = vec![0u32; p.radix];
        let mut cursor = seed_cursor(&keys, &p);
        let vals = vec![(); n];
        let mut dst_vals = vec![(); n];
        let out = scatter_block(
            &keys,
            &vals,
            &mut cursor,
            &SharedMut::new(&mut dst),
            &SharedMut::new(&mut dst_vals),
            &p,
            0,
            Some(&mut ScatterStaging {
                keys: &mut stage_keys,
                vals: &mut stage_vals,
                filled: &mut filled,
                line_keys,
            }),
        );
        let staged_traffic = out.staged_lines + out.partial_flushes;
        let direct_traffic = n as u64;
        assert!(
            staged_traffic < direct_traffic,
            "staged {staged_traffic} >= direct {direct_traffic}"
        );
        // With 64-byte lines of u32 the ideal ratio is 16:1; allow the
        // per-digit fragments but demand at least an 8× reduction.
        assert!(staged_traffic * 8 <= direct_traffic);
    }

    /// Shared-memory writes of a look-ahead block, streamed the way
    /// [`scatter_block`] counts them.
    fn count_combined_writes(block: &[u32], params: &ScatterParams) -> u64 {
        let mut lookahead = LookaheadWrites::new(params);
        for k in block {
            lookahead.push(digit_of(k.to_radix(), 32, params.digit_bits, params.pass));
        }
        lookahead.writes
    }

    /// The look-ahead write count as the GPU staging derives it: each
    /// thread walks its own digits and combines a run of up to
    /// `lookahead + 1` equal neighbours into one write.
    fn naive_combined_writes<K: SortKey>(block: &[K], params: &ScatterParams) -> u64 {
        let window = params.lookahead as usize + 1;
        let mut writes = 0u64;
        for thread_keys in block.chunks(params.keys_per_thread) {
            let digits: Vec<usize> = thread_keys
                .iter()
                .map(|k| digit_of(k.to_radix(), K::BITS, params.digit_bits, params.pass))
                .collect();
            let mut i = 0;
            while i < digits.len() {
                let mut run = 1;
                while run < window && i + run < digits.len() && digits[i + run] == digits[i] {
                    run += 1;
                }
                writes += 1;
                i += run;
            }
        }
        writes
    }

    /// Scatters `keys` as one block with the look-ahead forced on, staged
    /// and direct, and checks both write counts against the naive count.
    fn check_lookahead_count<K: SortKey>(keys: &[K], params: &ScatterParams, case: &str) {
        let counts = block_histogram(
            keys,
            params.digit_bits,
            params.pass,
            params.radix,
            HistogramStrategy::AtomicsOnly,
            9,
        )
        .counts;
        let counts: Vec<usize> = counts.iter().map(|&c| c as usize).collect();
        let want = naive_combined_writes(keys, params);
        let vals = vec![(); keys.len()];
        for line_keys in [0usize, 4] {
            let mut dst = vec![K::default(); keys.len()];
            let mut dst_vals = vec![(); keys.len()];
            let mut cursor = exclusive_prefix_sum_usize(&counts).0;
            let mut stage_keys = vec![K::default(); params.radix * line_keys];
            let mut stage_vals: Vec<()> = Vec::new();
            let mut filled = vec![0u32; params.radix];
            let mut staging = ScatterStaging {
                keys: &mut stage_keys,
                vals: &mut stage_vals,
                filled: &mut filled,
                line_keys,
            };
            let out = scatter_block(
                keys,
                &vals,
                &mut cursor,
                &SharedMut::new(&mut dst),
                &SharedMut::new(&mut dst_vals),
                params,
                keys.len() as u32,
                (line_keys > 0).then_some(&mut staging),
            );
            assert!(out.lookahead_active, "{case}");
            assert_eq!(out.shared_updates, want, "{case} line_keys={line_keys}");
        }
    }

    #[test]
    fn lookahead_count_matches_naive_reference() {
        use crate::digit::{num_digits, radix_of_pass};
        for digit_bits in [5u32, 8, 11, 16] {
            for and_count in [0u32, 3, 6] {
                let level = EntropyLevel::with_and_count(and_count);
                let keys32 = level.generate_u32(2_000, 21);
                let keys64 = level.generate_u64(2_000, 22);
                for keys_per_thread in [1usize, 7, 9, 18, 23] {
                    for lookahead in [1u32, 2] {
                        let params = |key_bits: u32, pass: u32| ScatterParams {
                            digit_bits,
                            pass,
                            radix: radix_of_pass(key_bits, digit_bits, pass),
                            keys_per_block: 2_000,
                            keys_per_thread,
                            lookahead_enabled: true,
                            lookahead,
                            skew_threshold: 0.0,
                        };
                        let case = format!(
                            "digit_bits={digit_bits} and_count={and_count} kpt={keys_per_thread} lookahead={lookahead}"
                        );
                        for pass in 0..num_digits(32, digit_bits) {
                            check_lookahead_count(&keys32, &params(32, pass), &case);
                        }
                        for pass in 0..num_digits(64, digit_bits) {
                            check_lookahead_count(&keys64, &params(64, pass), &case);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn count_combined_writes_window_of_three() {
        let p = params(true);
        // Ten equal digits per thread of ten keys: ceil(10 / 3) = 4 writes.
        let keys = vec![0u32; 10];
        assert_eq!(count_combined_writes(&keys, &p), 4);
        // Alternating digits cannot be combined at all.
        let keys: Vec<u32> = (0..10).map(|i| ((i % 2) as u32) << 24).collect();
        assert_eq!(count_combined_writes(&keys, &p), 10);
    }
}
