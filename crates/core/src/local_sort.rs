//! Local sorts of small buckets (Section 4.2).
//!
//! A bucket of at most ∂̂ keys is sorted entirely in on-chip shared memory:
//! it is read from device memory once, sorted with CUB's `BlockRadixSort`,
//! and written once to the buffer that will hold the final sorted output —
//! no matter how many internal passes the local sort needs.  This is where
//! the hybrid sort saves the bulk of its memory traffic for friendly
//! distributions.
//!
//! The CPU sorts a bucket in cache with one stable radix kernel over its
//! *remaining* bits only — the low bits on which its keys may still differ
//! after the counting passes — with an MSD prefix and an LSD suffix:
//!
//! * **MSD prefix.** While more than 32 bits are unsorted, one read ORs
//!   every key's XOR with the first to find the highest bit on which the
//!   range differs (constant high bits are skipped), and a stable scatter
//!   on the 8 bits just below it splits the range.  The sub-ranges sort on
//!   from the other buffer, so the keys alternate between the destination
//!   range and a per-worker scratch range that stays in cache.  When the
//!   sub-ranges average at most the insertion cutoff, the range moves to
//!   the destination (one copy, if it sits in the scratch) and one
//!   insertion sort over it finishes them all.
//! * **LSD suffix.** A range with at most 32 unsorted bits is sorted
//!   least-significant digit first: one read builds every digit's
//!   histogram, a digit on which the whole range falls into one bin is
//!   skipped, and the first scatter reads straight from the source range.
//!
//! LSD pays a scatter for every low digit whether or not it separates
//! anything, which the MSD prefix stops after one or two levels on a
//! bucket of wide keys; but MSD all the way down is slower on the ranges
//! of at most 24 bits that u32 keys leave, hence the hand-off
//! (`MSD_HANDOFF_BITS` has the measurement).  Every scatter keeps
//! encounter order, so the local sort is stable, and so is the whole
//! hybrid sort.  Ranges of at most eight keys per remaining digit are
//! insertion-sorted (stable as well).
//!
//! To avoid over-provisioning threads for tiny buckets, the GPU groups
//! buckets into *size classes*; each class is a separate kernel launch with
//! just enough threads for its maximum bucket size.  The ablation's "single
//! local sort config" variant instead schedules every bucket on the
//! ∂̂-sized configuration.  The classes only shape the simulated cost; the
//! CPU sorts every bucket with the same kernel.
//!
//! Like the GPU, which launches the local sorts of a pass as independent
//! thread blocks, the [`Executor`](crate::Executor) distributes buckets
//! over its workers: every bucket occupies a distinct range of the
//! destination buffer, so workers sort concurrently without
//! synchronisation.

use crate::bucket::LocalBucket;
use crate::config::SortConfig;
use crate::counting_sort::PassContext;
use crate::digit::{remaining_bits, Digit};
use crate::exec::SharedMut;
use crate::opts::Optimizations;
use crate::report::LocalSortStats;
use workloads::pairs::SortValue;
use workloads::SortKey;

/// Bits per digit of the local radix sort, MSD prefix and LSD suffix
/// alike.
const DIGIT_BITS: u32 = 8;
/// Radix of the local radix sort.
const RADIX: usize = 1 << DIGIT_BITS;

/// Widest range the LSD suffix sorts: a range with more unsorted bits is
/// split MSD-first until its sub-ranges have at most this many left.
/// Measured on one core of a 2-core x86-64 machine with u64 keys and u32
/// values: ranges of 2k–9k keys with 24 unsorted bits (as the buckets of
/// u32 keys keep) took 13–14 ns per key through the LSD suffix and 18–23
/// sorted MSD-first all the way down, while the 30k-key buckets of a
/// 2^22-pair lane, with 56 unsorted bits, took 20 ns per key MSD-first
/// against 29 for 1.8k-key buckets sorted LSD-first.
const MSD_HANDOFF_BITS: u32 = 32;
/// Digits of the widest range the LSD suffix sorts.
const LSD_MAX_DIGITS: usize = (MSD_HANDOFF_BITS / DIGIT_BITS) as usize;

/// Keys per digit below which an insertion sort beats the radix sort: a
/// range of at most [`insertion_cutoff`] keys is insertion-sorted, because
/// prefix-summing 256 counters per digit costs more than the few shifts an
/// insertion sort makes.  Measured on one core of a 2-core x86-64 machine,
/// sorting 2^20 keys (with u32 values) in ranges of 8 to 128: u32 keys with
/// 24 unsorted bits (3 digits) cross over near 26 keys, u64 keys with 56
/// (7 digits) between 48 and 64.
const INSERTION_KEYS_PER_DIGIT: usize = 8;

/// Largest range the local sort insertion-sorts when `bits` bits are
/// unsorted.
fn insertion_cutoff(bits: u32) -> usize {
    INSERTION_KEYS_PER_DIGIT * bits.div_ceil(DIGIT_BITS) as usize
}

/// Books `buckets`, the local sorts one counting pass produced, into
/// `stats` (everything but `classes_used`) and returns their size classes,
/// one bit per class: bit `i` for [`SortConfig::class_index`] `i` (the
/// last bit also stands for every class beyond it).  The classes of a
/// config are distinct ranges, so the bits count the distinct classes, and
/// the sets of buckets of one pass that different workers book unite with
/// a bitwise or.
pub fn book_local_sorts(
    buckets: &[LocalBucket],
    config: &SortConfig,
    opts: &Optimizations,
    stats: &mut LocalSortStats,
) -> u64 {
    let single = !opts.multiple_local_sort_configs;
    let mut classes = 0u64;
    for bucket in buckets {
        let class = config.class_for(bucket.len, single);
        classes |= 1 << config.class_index(bucket.len, single).min(63);
        stats.invocations += 1;
        stats.n_keys += bucket.len as u64;
        stats.provisioned_keys += class.max_keys as u64;
        if bucket.is_merged() {
            stats.merged_buckets += 1;
        }
        stats.largest_bucket = stats.largest_bucket.max(bucket.len as u64);
    }
    classes
}

/// Sorts all `buckets` whose keys currently live in buffer `src` (at their
/// respective offsets) and places the sorted runs at the same offsets in
/// buffer `dst`.  `src` and `dst` may be the same buffer, in which case the
/// sort happens in place.  Buckets are distributed over the context's
/// executor, one dynamically scheduled task per bucket, so a handful of
/// near-threshold buckets cannot strand a worker behind a chunk of them.
///
/// `scratch_keys`/`scratch_vals` are the arena-owned ping-pong segments,
/// striped per worker: they must hold `workers × max(∂̂, largest bucket)`
/// elements (`scratch_vals` none when `V` is zero-sized).
#[allow(clippy::too_many_arguments)]
pub fn run_local_sorts<K: SortKey, V: SortValue>(
    buffers_keys: &mut [&mut [K]; 2],
    buffers_vals: &mut [&mut [V]; 2],
    src: usize,
    dst: usize,
    buckets: &[LocalBucket],
    cx: &PassContext<'_>,
    scratch_keys: &mut [K],
    scratch_vals: &mut [V],
) {
    if buckets.is_empty() {
        return;
    }
    // One ∂̂-key scratch stripe per worker (local buckets never exceed ∂̂;
    // `largest` only guards a hand-built bucket list).
    let values_present = std::mem::size_of::<V>() != 0;
    let largest = buckets.iter().map(|b| b.len).max().unwrap_or(0);
    let stride = cx.config.local_sort_threshold.max(largest);
    let scratch_len = cx.exec.workers() * stride;
    assert!(
        scratch_keys.len() >= scratch_len && (!values_present || scratch_vals.len() >= scratch_len),
        "local-sort scratch below workers × ∂̂"
    );
    let tmp_keys = SharedMut::new(scratch_keys);
    let tmp_vals = SharedMut::new(scratch_vals);
    let digit_bits = cx.config.digit_bits;

    if src == dst {
        let keys = SharedMut::new(&mut *buffers_keys[dst]);
        let vals = SharedMut::new(&mut *buffers_vals[dst]);
        cx.exec
            .for_each_task_probed(buckets.len(), cx.probe, |b, worker| {
                let bucket = &buckets[b];
                // SAFETY: bucket ranges are disjoint across tasks, and
                // scratch stripe `worker` belongs to this thread only.
                unsafe {
                    let (tk, tv) = stripe(&tmp_keys, &tmp_vals, worker * stride, bucket.len);
                    let (k, v) = stripe(&keys, &vals, bucket.offset, bucket.len);
                    lsd_sort_in_place(k, v, tk, tv, unsorted_bits::<K>(bucket, digit_bits));
                }
            });
    } else {
        let (src_keys, dst_keys) = split_src_dst(buffers_keys, src, dst);
        let (src_vals, dst_vals) = split_src_dst(buffers_vals, src, dst);
        let dst_keys = SharedMut::new(dst_keys);
        let dst_vals = SharedMut::new(dst_vals);
        cx.exec
            .for_each_task_probed(buckets.len(), cx.probe, |b, worker| {
                let bucket = &buckets[b];
                let range = bucket.offset..bucket.offset + bucket.len;
                let sv = if values_present {
                    &src_vals[range.clone()]
                } else {
                    &src_vals[..0]
                };
                // SAFETY: bucket ranges are disjoint across tasks, and
                // scratch stripe `worker` belongs to this thread only.
                unsafe {
                    let (tk, tv) = stripe(&tmp_keys, &tmp_vals, worker * stride, bucket.len);
                    let (dk, dv) = stripe(&dst_keys, &dst_vals, bucket.offset, bucket.len);
                    let bits = unsorted_bits::<K>(bucket, digit_bits);
                    lsd_sort_into(&src_keys[range], sv, dk, dv, tk, tv, bits);
                }
            });
    }
}

/// Low-order radix bits on which a local bucket's keys may still differ.
/// The keys of a bucket share the digits of its `sorted_passes` counting
/// passes, except that a merged bucket joins neighbouring sub-buckets of
/// its last pass and so shares one digit fewer.
fn unsorted_bits<K: SortKey>(bucket: &LocalBucket, digit_bits: u32) -> u32 {
    let shared = if bucket.is_merged() {
        bucket.sorted_passes.saturating_sub(1)
    } else {
        bucket.sorted_passes
    };
    remaining_bits(K::BITS, digit_bits, shared)
}

/// The key range `start..start + len` of `keys` and the matching value
/// range of `vals` (empty when `V` is zero-sized: key-only sorts carry no
/// value buffer).
///
/// # Safety
///
/// The range must be in bounds of `keys` (and of `vals` when `V` is not
/// zero-sized) and owned exclusively by the calling task.
#[allow(clippy::mut_from_ref)] // disjointness is the caller's contract
#[track_caller]
pub(crate) unsafe fn stripe<'a, K, V>(
    keys: &'a SharedMut<'_, K>,
    vals: &'a SharedMut<'_, V>,
    start: usize,
    len: usize,
) -> (&'a mut [K], &'a mut [V]) {
    let val_len = if std::mem::size_of::<V>() != 0 {
        len
    } else {
        0
    };
    // SAFETY: forwarded contract — the caller exclusively owns the range
    // in both views.
    unsafe {
        (
            keys.slice_mut(start, len),
            vals.slice_mut(start.min(vals.len()), val_len),
        )
    }
}

/// Splits the double buffer into the source (shared) and destination
/// (mutable) halves.  `src` and `dst` must differ.
pub(crate) fn split_src_dst<'a, T>(
    bufs: &'a mut [&mut [T]; 2],
    src: usize,
    dst: usize,
) -> (&'a [T], &'a mut [T]) {
    assert_ne!(src, dst);
    let [a, b] = bufs;
    if src == 0 {
        (&**a, &mut **b)
    } else {
        (&**b, &mut **a)
    }
}

/// Stable in-place sort of `keys`, with `vals` permuted alongside (ignored
/// when `V` is zero-sized), on the low `bits` bits of the keys' radix
/// representation; the bits above must be equal across the slice.  Runs
/// the local-sort kernel: MSD-first while more than 32 bits are unsorted,
/// LSD-first below.
/// `tmp_keys`/`tmp_vals` are scratch of at least `keys.len()` elements
/// (`tmp_vals` may be empty when `V` is zero-sized).
pub fn lsd_sort_in_place<K: SortKey, V: Copy>(
    keys: &mut [K],
    vals: &mut [V],
    tmp_keys: &mut [K],
    tmp_vals: &mut [V],
    bits: u32,
) {
    sort_range(Input::Output, keys, vals, tmp_keys, tmp_vals, bits);
}

/// Like [`lsd_sort_in_place`], but reads the keys and values from
/// `src_keys`/`src_vals` and writes the sorted run to `dst_keys`/`dst_vals`
/// (same lengths): the first scatter reads straight from the source, so
/// the input is never copied first.
pub fn lsd_sort_into<K: SortKey, V: Copy>(
    src_keys: &[K],
    src_vals: &[V],
    dst_keys: &mut [K],
    dst_vals: &mut [V],
    tmp_keys: &mut [K],
    tmp_vals: &mut [V],
    bits: u32,
) {
    sort_range(
        Input::Source(src_keys, src_vals),
        dst_keys,
        dst_vals,
        tmp_keys,
        tmp_vals,
        bits,
    );
}

/// Where the range a kernel call sorts currently lives.  The sorted run
/// always lands in the call's output slices.
#[derive(Clone, Copy)]
enum Input<'s, K, V> {
    /// In the output slices (an in-place sort).
    Output,
    /// In the scratch slices, which become free after the first scatter.
    Scratch,
    /// In a read-only source.
    Source(&'s [K], &'s [V]),
}

/// The local-sort kernel: sorts the range `input` names into
/// `keys`/`vals`, ping-ponging through `tmp_*`, on its low `bits` bits.
/// A small range is insertion-sorted.  While more than
/// [`MSD_HANDOFF_BITS`] bits are unsorted, the range is split MSD-first:
/// one read finds the highest bit on which its keys differ (the bits
/// above are skipped), a stable scatter on the 8 bits just below it moves
/// the range into the other buffer, and every sub-range sorts back out of
/// it.  The rest is sorted LSD-first.
fn sort_range<K: SortKey, V: Copy>(
    input: Input<'_, K, V>,
    keys: &mut [K],
    vals: &mut [V],
    tmp_keys: &mut [K],
    tmp_vals: &mut [V],
    mut bits: u32,
) {
    let n = keys.len();
    // The digit counters are 32-bit.
    assert!(
        u32::try_from(n).is_ok(),
        "local-sort range of 2^32 keys or more"
    );
    let tmp_keys = &mut tmp_keys[..n];
    let tmp_vals = values_of(tmp_vals, 0..n);
    if n <= insertion_cutoff(bits) {
        let from = match input {
            Input::Output => None,
            Input::Scratch => Some((&*tmp_keys, &*tmp_vals)),
            Input::Source(sk, sv) => Some((sk, sv)),
        };
        insertion_sort(from, keys, vals);
        return;
    }
    if bits > MSD_HANDOFF_BITS {
        bits = differing_bits(input_keys(input, keys, tmp_keys));
        if bits > MSD_HANDOFF_BITS {
            msd_split(input, keys, vals, tmp_keys, tmp_vals, bits);
            return;
        }
    }
    lsd_sort(input, keys, vals, tmp_keys, tmp_vals, bits);
}

/// The keys of the range `input` names.
fn input_keys<'a, K, V>(input: Input<'a, K, V>, keys: &'a [K], tmp_keys: &'a [K]) -> &'a [K] {
    match input {
        Input::Output => keys,
        Input::Scratch => tmp_keys,
        Input::Source(sk, _) => sk,
    }
}

/// Brings the range `input` names into the output slices unchanged.
fn move_to_output<K: Copy, V: Copy>(
    input: Input<'_, K, V>,
    keys: &mut [K],
    vals: &mut [V],
    tmp_keys: &[K],
    tmp_vals: &[V],
) {
    match input {
        Input::Output => {}
        Input::Scratch => copy_run(tmp_keys, tmp_vals, keys, vals),
        Input::Source(sk, sv) => copy_run(sk, sv, keys, vals),
    }
}

/// Number of low bits on which the (non-empty) `keys` differ: one read
/// ORs every key's XOR with the first.
fn differing_bits<K: SortKey>(keys: &[K]) -> u32 {
    let first = keys[0].to_radix();
    let diff = keys
        .iter()
        .fold(0u64, |acc, k| acc | (k.to_radix() ^ first));
    u64::BITS - diff.leading_zeros()
}

/// One MSD step of [`sort_range`]: scatters the range on bits
/// `bits - 8..bits` and sorts each sub-range on its remaining `bits - 8`
/// bits.  Out of the output or a source the scatter fills the scratch,
/// whose lines stay in cache; out of the scratch it fills the output, so
/// the buffers alternate level by level.  When the sub-ranges average at
/// most the insertion cutoff, the range instead moves to the output (in
/// one copy, if it sits in the scratch), the few larger sub-ranges sort
/// there, and one insertion sort over the whole range finishes it: every
/// key is at most one small sub-range away from its place, and a branch
/// per key costs less than a call per sub-range.
fn msd_split<K: SortKey, V: Copy>(
    input: Input<'_, K, V>,
    keys: &mut [K],
    vals: &mut [V],
    tmp_keys: &mut [K],
    tmp_vals: &mut [V],
    bits: u32,
) {
    let n = keys.len();
    let shift = bits - DIGIT_BITS;
    let digit = Digit::at(shift, DIGIT_BITS);
    let mut offsets = [0u32; RADIX];
    for key in input_keys(input, keys, tmp_keys) {
        offsets[digit.of(key.to_radix())] += 1;
    }
    exclusive_prefix(&mut offsets);
    let mut next = match input {
        Input::Output => {
            scatter_digit(keys, vals, tmp_keys, tmp_vals, &mut offsets, digit);
            Input::Scratch
        }
        Input::Source(sk, sv) => {
            scatter_digit(sk, sv, tmp_keys, tmp_vals, &mut offsets, digit);
            Input::Scratch
        }
        Input::Scratch => {
            scatter_digit(tmp_keys, tmp_vals, keys, vals, &mut offsets, digit);
            Input::Output
        }
    };
    let cutoff = insertion_cutoff(shift);
    let leaves = n <= cutoff << DIGIT_BITS;
    if leaves {
        move_to_output(next, keys, vals, tmp_keys, tmp_vals);
        next = Input::Output;
    }
    // The scatter advanced every offset to the end of its sub-range.
    let mut start = 0;
    for end in offsets {
        let end = end as usize;
        let len = end - start;
        if len > cutoff || (!leaves && len > 0) {
            sort_range(
                next,
                &mut keys[start..end],
                values_of(vals, start..end),
                &mut tmp_keys[start..end],
                values_of(tmp_vals, start..end),
                shift,
            );
        }
        start = end;
    }
    if leaves {
        insertion_sort(None, keys, vals);
    }
}

/// The LSD suffix of [`sort_range`], for at most [`MSD_HANDOFF_BITS`]
/// bits.  One read builds every digit's histogram, and digits the whole
/// range agrees on are skipped.  From a source, the first scatter targets
/// the output when an odd number of digits is active, so the last one
/// lands there; otherwise the scatters alternate from wherever the range
/// lives, and a run left in the scratch is copied back.
fn lsd_sort<K: SortKey, V: Copy>(
    input: Input<'_, K, V>,
    keys: &mut [K],
    vals: &mut [V],
    tmp_keys: &mut [K],
    tmp_vals: &mut [V],
    bits: u32,
) {
    // One instance per digit count, so the histogram read unrolls and
    // only the digits in use are zeroed and prefix-summed.
    match bits.div_ceil(DIGIT_BITS) {
        0 | 1 => lsd_sort_digits::<K, V, 1>(input, keys, vals, tmp_keys, tmp_vals),
        2 => lsd_sort_digits::<K, V, 2>(input, keys, vals, tmp_keys, tmp_vals),
        3 => lsd_sort_digits::<K, V, 3>(input, keys, vals, tmp_keys, tmp_vals),
        _ => lsd_sort_digits::<K, V, LSD_MAX_DIGITS>(input, keys, vals, tmp_keys, tmp_vals),
    }
}

/// [`lsd_sort`] over the `D` low digits.
fn lsd_sort_digits<K: SortKey, V: Copy, const D: usize>(
    input: Input<'_, K, V>,
    keys: &mut [K],
    vals: &mut [V],
    tmp_keys: &mut [K],
    tmp_vals: &mut [V],
) {
    let n = keys.len();
    let mut counts = [[0u32; RADIX]; D];
    let from = input_keys(input, keys, tmp_keys);
    for key in from {
        let mut r = key.to_radix();
        for row in &mut counts {
            row[(r & (RADIX as u64 - 1)) as usize] += 1;
            r >>= DIGIT_BITS;
        }
    }

    // Skip every digit the whole range agrees on; turn the others'
    // counts into exclusive scatter offsets.
    let first = from[0].to_radix();
    let mut active = [0usize; D];
    let mut n_active = 0usize;
    for (j, row) in counts.iter_mut().enumerate() {
        if row[lsd_digit(j).of(first)] as usize == n {
            continue;
        }
        exclusive_prefix(row);
        active[n_active] = j;
        n_active += 1;
    }
    if n_active == 0 {
        move_to_output(input, keys, vals, tmp_keys, tmp_vals);
        return;
    }

    let (mut in_keys, rest) = match input {
        Input::Source(sk, sv) => {
            let j = active[0];
            let to_keys = n_active % 2 == 1;
            if to_keys {
                scatter_digit(sk, sv, keys, vals, &mut counts[j], lsd_digit(j));
            } else {
                scatter_digit(sk, sv, tmp_keys, tmp_vals, &mut counts[j], lsd_digit(j));
            }
            (to_keys, &active[1..n_active])
        }
        Input::Output => (true, &active[..n_active]),
        Input::Scratch => (false, &active[..n_active]),
    };
    for &j in rest {
        if in_keys {
            scatter_digit(keys, vals, tmp_keys, tmp_vals, &mut counts[j], lsd_digit(j));
        } else {
            scatter_digit(tmp_keys, tmp_vals, keys, vals, &mut counts[j], lsd_digit(j));
        }
        in_keys = !in_keys;
    }
    if !in_keys {
        copy_run(tmp_keys, tmp_vals, keys, vals);
    }
}

/// Turns digit counts into exclusive offsets.
fn exclusive_prefix(row: &mut [u32; RADIX]) {
    let mut sum = 0u32;
    for c in row.iter_mut() {
        let count = *c;
        *c = sum;
        sum += count;
    }
}

/// The values at `range` (an empty slice when `V` is zero-sized: key-only
/// sorts may carry no value buffer).
fn values_of<V>(vals: &mut [V], range: std::ops::Range<usize>) -> &mut [V] {
    if std::mem::size_of::<V>() != 0 {
        &mut vals[range]
    } else {
        &mut vals[..0]
    }
}

/// The `j`-th least-significant 8-bit digit.
#[inline]
fn lsd_digit(j: usize) -> Digit {
    Digit::at(j as u32 * DIGIT_BITS, DIGIT_BITS)
}

/// One stable counting-sort scatter of `from_*` into `to_*` on `digit`,
/// through the digit's exclusive `offsets` (advanced past every key).
#[inline]
fn scatter_digit<K: SortKey, V: Copy>(
    from_keys: &[K],
    from_vals: &[V],
    to_keys: &mut [K],
    to_vals: &mut [V],
    offsets: &mut [u32; RADIX],
    digit: Digit,
) {
    let values_present = std::mem::size_of::<V>() != 0;
    for (i, key) in from_keys.iter().enumerate() {
        let d = digit.of(key.to_radix());
        let pos = offsets[d];
        offsets[d] = pos + 1;
        let pos = pos as usize;
        to_keys[pos] = *key;
        if values_present {
            to_vals[pos] = from_vals[i];
        }
    }
}

/// Copies a run of keys (and values, unless `V` is zero-sized).
fn copy_run<K: Copy, V: Copy>(
    from_keys: &[K],
    from_vals: &[V],
    to_keys: &mut [K],
    to_vals: &mut [V],
) {
    to_keys.copy_from_slice(from_keys);
    if std::mem::size_of::<V>() != 0 {
        to_vals.copy_from_slice(from_vals);
    }
}

/// Stable insertion sort by radix of `from` (or, when `None`, of
/// `keys`/`vals` themselves) into `keys`, moving `vals` alongside: each
/// key shifts the larger keys before it up by one, element by element.
fn insertion_sort<K: SortKey, V: Copy>(from: Option<(&[K], &[V])>, keys: &mut [K], vals: &mut [V]) {
    let values_present = std::mem::size_of::<V>() != 0;
    let first = if from.is_some() { 0 } else { 1 };
    for i in first..keys.len() {
        let (key, val) = match from {
            Some((fk, fv)) => (fk[i], values_present.then(|| fv[i])),
            None => (keys[i], values_present.then(|| vals[i])),
        };
        let r = key.to_radix();
        let mut j = i;
        while j > 0 && keys[j - 1].to_radix() > r {
            keys[j] = keys[j - 1];
            if values_present {
                vals[j] = vals[j - 1];
            }
            j -= 1;
        }
        keys[j] = key;
        if let Some(val) = val {
            vals[j] = val;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Executor;
    use workloads::{uniform_keys, KeyCodec};

    /// A bucket no counting pass has partitioned yet, so all of its key
    /// bits are unsorted.
    fn bucket(offset: usize, len: usize) -> LocalBucket {
        LocalBucket {
            offset,
            len,
            merged_from: 1,
            sorted_passes: 0,
        }
    }

    /// `run_local_sorts` with fresh scratch.
    #[allow(clippy::too_many_arguments)]
    fn run<K: SortKey, V: SortValue>(
        [k0, k1]: &mut [Vec<K>; 2],
        [v0, v1]: &mut [Vec<V>; 2],
        src: usize,
        dst: usize,
        buckets: &[LocalBucket],
        config: &SortConfig,
        opts: &Optimizations,
        exec: &Executor,
    ) -> LocalSortStats {
        let mut stats = LocalSortStats::default();
        let classes = book_local_sorts(buckets, config, opts, &mut stats);
        stats.classes_used = u64::from(classes.count_ones());
        let largest = buckets.iter().map(|b| b.len).max().unwrap_or(0);
        let len = exec.workers() * config.local_sort_threshold.max(largest);
        let cx = PassContext {
            config,
            opts,
            exec,
            probe: None,
        };
        run_local_sorts(
            &mut [k0.as_mut_slice(), k1.as_mut_slice()],
            &mut [v0.as_mut_slice(), v1.as_mut_slice()],
            src,
            dst,
            buckets,
            &cx,
            &mut vec![K::default(); len],
            &mut vec![V::default(); len],
        );
        stats
    }

    /// The stable reference: `sort_by_key` on the radix, values alongside.
    fn stable_reference<K: SortKey, V: Copy>(keys: &[K], vals: &[V]) -> (Vec<K>, Vec<V>) {
        let mut pairs: Vec<(K, V)> = keys.iter().copied().zip(vals.iter().copied()).collect();
        pairs.sort_by_key(|p| p.0.to_radix());
        pairs.into_iter().unzip()
    }

    /// Sorts `keys` (values = input positions) on their low `bits` both in
    /// place and across buffers, and checks each against the stable
    /// reference.
    fn check_kernel<K: SortKey + PartialEq>(keys: &[K], bits: u32) {
        let n = keys.len();
        let vals: Vec<u32> = (0..n as u32).collect();
        let expect = stable_reference(keys, &vals);
        let (mut tk, mut tv) = (vec![K::default(); n], vec![0u32; n]);

        let (mut k, mut v) = (keys.to_vec(), vals.clone());
        lsd_sort_in_place(&mut k, &mut v, &mut tk, &mut tv, bits);
        assert!(
            (k == expect.0) && (v == expect.1),
            "in place, n={n} bits={bits}"
        );

        let (mut k, mut v) = (vec![K::default(); n], vec![0u32; n]);
        lsd_sort_into(keys, &vals, &mut k, &mut v, &mut tk, &mut tv, bits);
        assert!(
            (k == expect.0) && (v == expect.1),
            "into, n={n} bits={bits}"
        );

        // Key-only: zero-sized values, no value scratch.
        let mut k = keys.to_vec();
        lsd_sort_in_place(&mut k, &mut [(); 0], &mut tk, &mut [], bits);
        assert!(k == expect.0, "key-only in place, n={n} bits={bits}");
        let mut k = vec![K::default(); n];
        lsd_sort_into(keys, &[(); 0], &mut k, &mut [], &mut tk, &mut [], bits);
        assert!(k == expect.0, "key-only into, n={n} bits={bits}");
    }

    /// Sizes around the insertion cutoff for `bits` unsorted bits, and one
    /// well above it.
    fn sizes(bits: u32) -> [usize; 7] {
        let cut = insertion_cutoff(bits);
        [0, 1, 2, cut - 1, cut, cut + 1, 700]
    }

    #[test]
    fn every_remaining_width_sorts_stably() {
        // Keys share their bits above `bits` (as a bucket's keys do) and
        // take few distinct low values, so equal keys are plentiful.
        for bits in 1u32..=64 {
            let low = if bits == 64 {
                u64::MAX
            } else {
                (1u64 << bits) - 1
            };
            let high = 0xA5A5_A5A5_A5A5_A5A5 & !low;
            for n in sizes(bits) {
                let keys: Vec<u64> = uniform_keys::<u64>(n, bits as u64)
                    .iter()
                    .enumerate()
                    .map(|(i, r)| high | (r & low & !(0x3 << (i % 61))))
                    .collect();
                check_kernel(&keys, bits);
            }
        }
    }

    #[test]
    fn msd_prefix_and_lsd_suffix_agree_with_a_stable_sort() {
        // Widths around the 32-bit hand-off and the widest ones, sizes from
        // empty to the CPU-socket ∂̂ for u64 + u32 pairs (across the
        // insertion cutoff, the radix and the one-level MSD limit), and
        // inputs that are random, sorted, reversed, constant or dominated
        // by one key.
        let cpu_threshold = 43_690;
        for bits in [31u32, 32, 33, 34, 56, 64] {
            let low = u64::MAX >> (64 - bits);
            let cut = insertion_cutoff(bits);
            let one_level = insertion_cutoff(bits - DIGIT_BITS) << DIGIT_BITS;
            let sizes = [
                0,
                1,
                cut,
                cut + 1,
                RADIX + 1,
                one_level,
                one_level + 1,
                cpu_threshold,
            ];
            for n in sizes {
                let random: Vec<u64> = uniform_keys::<u64>(n, u64::from(bits))
                    .iter()
                    .map(|r| (0x5A5A_5A5A_5A5A_5A5A & !low) | (r & low))
                    .collect();
                let mut sorted = random.clone();
                sorted.sort_unstable();
                let reversed: Vec<u64> = sorted.iter().rev().copied().collect();
                let constant = vec![random.first().copied().unwrap_or(0); n];
                let heavy: Vec<u64> = random
                    .iter()
                    .enumerate()
                    .map(|(i, &k)| if i % 5 < 3 { constant[0] } else { k })
                    .collect();
                for keys in [&random, &sorted, &reversed, &constant, &heavy] {
                    check_kernel(keys, bits);
                }
            }
        }
    }

    #[test]
    fn constant_digits_are_skipped_and_constant_ranges_are_copied() {
        // Only bits 16..24 vary: three of the four digits are constant.
        let keys: Vec<u32> = uniform_keys::<u32>(500, 9)
            .iter()
            .map(|r| 0x1200_0034 | (r & 0x00FF_0000))
            .collect();
        check_kernel(&keys, 32);
        // Every digit constant: the range is copied untouched.
        check_kernel(&vec![7u32; 500], 32);
        check_kernel(&vec![7u32; 500], 0);
    }

    #[test]
    fn signed_and_float_keys_sort_through_their_radix() {
        for n in sizes(64) {
            let ints: Vec<i64> = uniform_keys::<i64>(n, 3)
                .iter()
                .map(|k| k % 1_000)
                .collect();
            check_kernel(&ints, 64);
            let floats: Vec<f64> = ints.iter().map(|&k| k as f64 * -0.25).collect();
            check_kernel(&floats, 64);
        }
        let mut keys = vec![2.5f64, -1.0, 0.0, -7.5, f64::INFINITY, -0.5];
        let mut tmp = vec![0.0; keys.len()];
        lsd_sort_in_place(&mut keys, &mut [(); 0], &mut tmp, &mut [], 64);
        assert_eq!(keys, vec![-7.5, -1.0, -0.5, 0.0, 2.5, f64::INFINITY]);
    }

    #[test]
    fn tiny_buckets_sort_zero_one_inputs() {
        // Every 0/1 input of up to twelve keys.
        for n in 1usize..=12 {
            for mask in 0u32..(1 << n) {
                let keys: Vec<u8> = (0..n).map(|i| ((mask >> i) & 1) as u8).collect();
                check_kernel(&keys, 8);
            }
        }
    }

    #[test]
    fn shared_memory_sort_handles_all_sizes() {
        for n in [0usize, 1, 2, 17, 32, 33, 100, 5_000] {
            let mut keys = uniform_keys::<u64>(n, 6);
            let expected = KeyCodec::std_sorted(&keys);
            let mut tmp = vec![0u64; n];
            lsd_sort_in_place(&mut keys, &mut [(); 0], &mut tmp, &mut [], 64);
            assert_eq!(keys, expected, "n = {n}");
        }
        // Signed and float keys go through the codec.
        let mut keys: Vec<i32> = vec![5, -3, 0, -100, 77];
        lsd_sort_in_place(&mut keys, &mut [(); 0], &mut [0; 5], &mut [], 32);
        assert_eq!(keys, vec![-100, -3, 0, 5, 77]);
        let mut keys: Vec<f32> = vec![2.5, -1.0, 0.0, -7.5];
        lsd_sort_in_place(&mut keys, &mut [(); 0], &mut [0.0; 4], &mut [], 32);
        assert_eq!(keys, vec![-7.5, -1.0, 0.0, 2.5]);
    }

    #[test]
    fn unsorted_bits_of_merged_and_unmerged_buckets() {
        let unmerged = LocalBucket {
            sorted_passes: 3,
            ..bucket(0, 10)
        };
        let merged = LocalBucket {
            merged_from: 4,
            ..unmerged
        };
        assert_eq!(unsorted_bits::<u32>(&unmerged, 8), 8);
        assert_eq!(unsorted_bits::<u32>(&merged, 8), 16);
        assert_eq!(unsorted_bits::<u64>(&unmerged, 5), 49);
        assert_eq!(unsorted_bits::<u64>(&merged, 5), 54);
        assert_eq!(unsorted_bits::<u32>(&unmerged, 11), 0);
        assert_eq!(unsorted_bits::<u32>(&merged, 11), 10);
        let pass0 = LocalBucket {
            merged_from: 2,
            sorted_passes: 0,
            ..unmerged
        };
        assert_eq!(unsorted_bits::<u64>(&pass0, 8), 64);
    }

    #[test]
    fn merged_bucket_sorts_across_its_last_partitioned_digit() {
        // A merged bucket after two 8-bit passes: the top byte is shared,
        // the second byte (the last pass's digit) is not.
        let keys: Vec<u32> = uniform_keys::<u32>(900, 11)
            .iter()
            .map(|r| 0x7F00_0000 | (r & 0x0003_00FF))
            .collect();
        let vals: Vec<u32> = (0..900).collect();
        let merged = LocalBucket {
            merged_from: 3,
            sorted_passes: 2,
            ..bucket(0, 900)
        };
        assert_eq!(unsorted_bits::<u32>(&merged, 8), 24);
        for (src, dst) in [(0, 1), (0, 0)] {
            let mut kb = [keys.clone(), vec![0u32; 900]];
            let mut vb = [vals.clone(), vec![0u32; 900]];
            run(
                &mut kb,
                &mut vb,
                src,
                dst,
                &[merged],
                &SortConfig::pairs_32_32(),
                &Optimizations::all_on(),
                &Executor::with_workers(2),
            );
            let expect = stable_reference(&keys, &vals);
            assert_eq!(
                (kb[dst].clone(), vb[dst].clone()),
                expect,
                "src={src} dst={dst}"
            );
        }
    }

    #[test]
    fn sorts_buckets_into_the_destination_buffer() {
        let keys = uniform_keys::<u64>(1_000, 1);
        let mut bufs = [keys.clone(), vec![0u64; 1_000]];
        let mut vals: [Vec<()>; 2] = [Vec::new(), Vec::new()];
        let buckets = vec![bucket(0, 400), bucket(400, 600)];
        let stats = run(
            &mut bufs,
            &mut vals,
            0,
            1,
            &buckets,
            &SortConfig::keys_64(),
            &Optimizations::all_on(),
            &Executor::Sequential,
        );
        assert_eq!(bufs[1][..400], KeyCodec::std_sorted(&keys[..400]));
        assert_eq!(bufs[1][400..], KeyCodec::std_sorted(&keys[400..]));
        assert_eq!(stats.invocations, 2);
        assert_eq!(stats.n_keys, 1_000);
        assert_eq!(stats.largest_bucket, 600);
    }

    #[test]
    fn threaded_executor_matches_sequential() {
        let keys = uniform_keys::<u64>(6_000, 7);
        let buckets: Vec<LocalBucket> = (0..30).map(|i| bucket(i * 200, 200)).collect();
        let mut expect = [keys.clone(), vec![0u64; 6_000]];
        let mut vals: [Vec<()>; 2] = [Vec::new(), Vec::new()];
        let cfg = SortConfig::keys_64();
        let opts = Optimizations::all_on();
        run(
            &mut expect,
            &mut vals,
            0,
            1,
            &buckets,
            &cfg,
            &opts,
            &Executor::Sequential,
        );
        for workers in [2usize, 7] {
            let mut got = [keys.clone(), vec![0u64; 6_000]];
            let exec = Executor::with_workers(workers);
            run(&mut got, &mut vals, 0, 1, &buckets, &cfg, &opts, &exec);
            assert_eq!(got[1], expect[1], "workers = {workers}");
        }
    }

    #[test]
    fn in_place_sort_when_src_equals_dst() {
        let keys = uniform_keys::<u32>(500, 2);
        let mut bufs = [keys.clone(), vec![0u32; 500]];
        let mut vals: [Vec<()>; 2] = [Vec::new(), Vec::new()];
        run(
            &mut bufs,
            &mut vals,
            0,
            0,
            &[bucket(0, 500)],
            &SortConfig::keys_32(),
            &Optimizations::all_on(),
            &Executor::Sequential,
        );
        assert_eq!(bufs[0], KeyCodec::std_sorted(&keys));
    }

    #[test]
    fn values_are_permuted_with_their_keys() {
        let keys = uniform_keys::<u32>(300, 3);
        let vals: Vec<u32> = (0..300).collect();
        let mut kbufs = [keys.clone(), vec![0u32; 300]];
        let mut vbufs = [vals, vec![0u32; 300]];
        run(
            &mut kbufs,
            &mut vbufs,
            0,
            1,
            &[bucket(0, 300)],
            &SortConfig::pairs_32_32(),
            &Optimizations::all_on(),
            &Executor::with_workers(2),
        );
        assert!(workloads::pairs::verify_indexed_pair_sort(
            &keys, &kbufs[1], &vbufs[1]
        ));
    }

    #[test]
    fn scratch_is_striped_per_worker_and_reused() {
        let keys = uniform_keys::<u32>(4_000, 4);
        let buckets: Vec<LocalBucket> = (0..20).map(|i| bucket(i * 200, 200)).collect();
        let cfg = SortConfig::pairs_32_32();
        let exec = Executor::with_workers(3);
        let cx = PassContext {
            config: &cfg,
            opts: &Optimizations::all_on(),
            exec: &exec,
            probe: None,
        };
        // Exactly one ∂̂ stripe per worker, reused dirty by the second
        // round.
        let len = 3 * cfg.local_sort_threshold;
        let (mut sk, mut sv) = (vec![0u32; len], vec![0u32; len]);
        for _ in 0..2 {
            let mut kb = [keys.clone(), vec![0u32; 4_000]];
            let mut vb = [(0..4_000).collect(), vec![0u32; 4_000]];
            let [k0, k1] = &mut kb;
            let [v0, v1] = &mut vb;
            run_local_sorts(
                &mut [k0.as_mut_slice(), k1.as_mut_slice()],
                &mut [v0.as_mut_slice(), v1.as_mut_slice()],
                0,
                1,
                &buckets,
                &cx,
                &mut sk,
                &mut sv,
            );
            for (i, chunk) in keys.chunks(200).enumerate() {
                let vals: Vec<u32> = (i as u32 * 200..).take(200).collect();
                let range = i * 200..(i + 1) * 200;
                let got = (kb[1][range.clone()].to_vec(), vb[1][range].to_vec());
                assert_eq!(got, stable_reference(chunk, &vals));
            }
        }
    }

    #[test]
    fn provisioning_reflects_size_classes_and_the_single_config_ablation() {
        let keys = uniform_keys::<u32>(200, 4);
        let cfg = SortConfig::keys_32();
        let buckets = [bucket(0, 100), bucket(100, 100)];
        let mut bufs = [keys.clone(), vec![0u32; 200]];
        let mut vals: [Vec<()>; 2] = [Vec::new(), Vec::new()];
        let exec = Executor::Sequential;
        let multi = run(
            &mut bufs,
            &mut vals,
            0,
            1,
            &buckets,
            &cfg,
            &Optimizations::all_on(),
            &exec,
        );
        // Two 100-key buckets fall into the [1,128] class.
        assert_eq!(multi.provisioned_keys, 256);

        let single_opts = Optimizations::single_local_sort_config();
        let mut bufs = [keys, vec![0u32; 200]];
        let single = run(
            &mut bufs,
            &mut vals,
            0,
            1,
            &buckets,
            &cfg,
            &single_opts,
            &exec,
        );
        // The single configuration provisions ∂̂ keys per bucket.
        assert_eq!(single.provisioned_keys, 2 * 9_216);
    }

    #[test]
    fn merged_buckets_are_counted() {
        let keys = uniform_keys::<u32>(100, 5);
        let mut bufs = [keys, vec![0u32; 100]];
        let mut vals: [Vec<()>; 2] = [Vec::new(), Vec::new()];
        let merged = LocalBucket {
            offset: 0,
            len: 100,
            merged_from: 4,
            sorted_passes: 1,
        };
        let stats = run(
            &mut bufs,
            &mut vals,
            0,
            1,
            &[merged],
            &SortConfig::keys_32(),
            &Optimizations::all_on(),
            &Executor::Sequential,
        );
        assert_eq!(stats.merged_buckets, 1);
    }
}
