//! Per-block digit histograms (Section 4.3).
//!
//! Each key block accumulates one histogram in shared memory.  Two
//! strategies are modelled; both produce identical counts and differ only
//! in the number of shared-memory `atomicAdd`s a GPU block would issue:
//!
//! * **atomics only** — every key issues an `atomicAdd` on the counter of
//!   its digit value; under heavy skew all threads of a block collide on a
//!   single counter and throughput collapses to 1.7 billion updates per SM
//!   per second;
//! * **thread reduction & atomics** — every thread keeps its digit values in
//!   registers, sorts runs of up to nine of them with a 25-comparator
//!   network, and issues one `atomicAdd` per run of equal values.
//!
//! The CPU does not simulate either one.  It counts each key once, and for
//! the thread reduction it *counts* the atomics: a sorted register run
//! issues one update per distinct digit value, so the count is the number
//! of distinct values among the run's (at most nine) digits.  A digit's
//! first key in the run is the one that finds its counter unchanged since
//! the run began, so no sort is needed.  The cost model turns the count
//! into simulated time.  The block histograms are written to device
//! memory so the scatter step can reuse them (costing `r × 4` bytes per
//! block, "< 4 %" of the key traffic for the default `KPB`).

use crate::digit::{Digit, KeyBins};
use gpu_sim::HistogramStrategy;
use workloads::SortKey;

/// Histogram of one key block, plus the shared-memory atomic behaviour the
/// chosen strategy exhibits on it.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockHistogram {
    /// Count per digit value (length = radix of the pass).
    pub counts: Vec<u32>,
    /// Shared-memory atomic updates the strategy issues for this block.
    pub atomic_updates: u64,
    /// Number of distinct digit values present in the block.
    pub distinct_values: u32,
}

impl BlockHistogram {
    /// The most populated digit value's share of the block's keys.
    pub fn max_bin_fraction(&self) -> f64 {
        let total: u64 = self.counts.iter().map(|&c| c as u64).sum();
        if total == 0 {
            return 0.0;
        }
        self.counts.iter().max().copied().unwrap_or(0) as f64 / total as f64
    }
}

/// Computes a block histogram over `keys` for the digit of `pass`.
///
/// `keys_per_thread` controls how the block's keys are divided among the
/// simulated threads for the thread-reduction strategy (each thread sorts
/// its digit values in register runs of nine).
pub fn block_histogram<K: SortKey>(
    keys: &[K],
    digit_bits: u32,
    pass: u32,
    radix: usize,
    strategy: HistogramStrategy,
    keys_per_thread: usize,
) -> BlockHistogram {
    let mut counts = vec![0u32; radix];
    let (atomic_updates, distinct_values) = block_histogram_into(
        &mut counts,
        keys,
        digit_bits,
        pass,
        strategy,
        keys_per_thread,
    );
    BlockHistogram {
        counts,
        atomic_updates,
        distinct_values,
    }
}

/// Allocation-free variant of [`block_histogram`]: accumulates the digit
/// counts into `counts` (a zeroed strip of length `radix`, typically a
/// slice of the scratch arena's per-block strip table) and returns
/// `(atomic_updates, distinct_values)`.
///
/// The thread-reduction strategy holds each register run in fixed
/// nine-slot arrays and counts its distinct digits against `counts`
/// itself, so neither strategy touches the heap — this is what lets the
/// executor run one histogram task per block with zero steady-state
/// allocation.
pub fn block_histogram_into<K: SortKey>(
    counts: &mut [u32],
    keys: &[K],
    digit_bits: u32,
    pass: u32,
    strategy: HistogramStrategy,
    keys_per_thread: usize,
) -> (u64, u32) {
    let digit = Digit::of_pass(K::BITS, digit_bits, pass);
    block_histogram_by(counts, keys, digit, strategy, keys_per_thread)
}

/// [`block_histogram_into`] over any [`KeyBins`]: `counts` is a zeroed
/// strip of `bins.bins()` counters.  The atomics-only strategy counts
/// through [`KeyBins::count_into`], so a bin function with a faster
/// counting loop than one increment per key brings it along.
#[inline]
pub fn block_histogram_by<K, B: KeyBins<K>>(
    counts: &mut [u32],
    keys: &[K],
    bins: B,
    strategy: HistogramStrategy,
    keys_per_thread: usize,
) -> (u64, u32) {
    let mut atomic_updates = 0u64;
    match strategy {
        HistogramStrategy::AtomicsOnly => {
            bins.count_into(keys, counts);
            atomic_updates = keys.len() as u64;
        }
        HistogramStrategy::ThreadReduction => {
            for thread_keys in keys.chunks(keys_per_thread.max(1)) {
                for run_keys in thread_keys.chunks(RUN) {
                    // The run's first key of each digit issues its
                    // atomicAdd: it is the one that finds the counter
                    // still holding the value it had before the run.
                    let mut digits = [0usize; RUN];
                    let mut before = [0u32; RUN];
                    for ((d, b), k) in digits.iter_mut().zip(before.iter_mut()).zip(run_keys) {
                        *d = bins.bin(k);
                        *b = counts[*d];
                    }
                    for (&d, &b) in digits.iter().zip(&before).take(run_keys.len()) {
                        atomic_updates += u64::from(counts[d] == b);
                        counts[d] += 1;
                    }
                }
            }
        }
    }
    let distinct_values = counts.iter().filter(|&&c| c > 0).count() as u32;
    (atomic_updates, distinct_values)
}

/// Digit values a thread holds in registers at once (Section 4.3).
const RUN: usize = 9;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digit::digit_of;
    use workloads::{uniform_keys, EntropyLevel};

    #[test]
    fn both_strategies_produce_identical_counts() {
        let keys = EntropyLevel::with_and_count(2).generate_u32(10_000, 1);
        let a = block_histogram(&keys, 8, 0, 256, HistogramStrategy::AtomicsOnly, 18);
        let b = block_histogram(&keys, 8, 0, 256, HistogramStrategy::ThreadReduction, 18);
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.distinct_values, b.distinct_values);
        assert_eq!(a.counts.iter().map(|&c| c as u64).sum::<u64>(), 10_000);
    }

    #[test]
    fn atomics_only_issues_one_update_per_key() {
        let keys = uniform_keys::<u64>(5_000, 2);
        let h = block_histogram(&keys, 8, 3, 256, HistogramStrategy::AtomicsOnly, 9);
        assert_eq!(h.atomic_updates, 5_000);
    }

    #[test]
    fn thread_reduction_combines_updates_for_constant_keys() {
        let keys = vec![0xABu32 << 24; 9_000];
        let h = block_histogram(&keys, 8, 0, 256, HistogramStrategy::ThreadReduction, 18);
        // Every register run of nine equal digits collapses into a single
        // atomicAdd: 9 000 / 9 = 1 000 updates.
        assert_eq!(h.atomic_updates, 1_000);
        assert_eq!(h.distinct_values, 1);
        assert_eq!(h.counts[0xAB], 9_000);
        assert_eq!(h.max_bin_fraction(), 1.0);
    }

    #[test]
    fn thread_reduction_does_not_help_uniform_digits() {
        let keys = uniform_keys::<u32>(9_000, 3);
        let h = block_histogram(&keys, 8, 0, 256, HistogramStrategy::ThreadReduction, 18);
        // With 256 possible values in runs of nine, almost no combining
        // happens.
        assert!(h.atomic_updates > 8_000, "updates = {}", h.atomic_updates);
        assert!(h.distinct_values > 200);
    }

    #[test]
    fn histogram_respects_pass_digit() {
        let keys = vec![0x12_34_56_78u32; 10];
        for (pass, expect) in [(0usize, 0x12usize), (1, 0x34), (2, 0x56), (3, 0x78)] {
            let h = block_histogram(
                &keys,
                8,
                pass as u32,
                256,
                HistogramStrategy::AtomicsOnly,
                18,
            );
            assert_eq!(h.counts[expect], 10, "pass {pass}");
        }
    }

    #[test]
    fn aggregation_sums_blocks() {
        let keys = uniform_keys::<u32>(4_000, 5);
        let blocks: Vec<BlockHistogram> = keys
            .chunks(1_000)
            .map(|c| block_histogram(c, 8, 0, 256, HistogramStrategy::AtomicsOnly, 18))
            .collect();
        // The block strips sum to the bucket histogram, as a counting pass
        // aggregates them.
        let mut total = vec![0u32; 256];
        for b in &blocks {
            for (t, &c) in total.iter_mut().zip(&b.counts) {
                *t += c;
            }
        }
        assert_eq!(total.iter().sum::<u32>(), 4_000);
        let whole = block_histogram(&keys, 8, 0, 256, HistogramStrategy::AtomicsOnly, 18);
        assert_eq!(total, whole.counts);
    }

    /// The thread reduction's update count as the GPU derives it: sort a
    /// copy of each register run and count its runs of equal values.
    fn naive_thread_reduction_updates<K: SortKey>(
        keys: &[K],
        digit_bits: u32,
        pass: u32,
        keys_per_thread: usize,
    ) -> u64 {
        let mut updates = 0;
        for thread_keys in keys.chunks(keys_per_thread) {
            for run_keys in thread_keys.chunks(9) {
                let mut run: Vec<usize> = run_keys
                    .iter()
                    .map(|k| digit_of(k.to_radix(), K::BITS, digit_bits, pass))
                    .collect();
                run.sort_unstable();
                run.dedup();
                updates += run.len() as u64;
            }
        }
        updates
    }

    /// Every pass of `keys` at every tested `keys_per_thread`: the thread
    /// reduction's update count matches the reference and its counts match
    /// the atomics-only histogram.
    fn check_thread_reduction<K: SortKey>(keys: &[K], digit_bits: u32, label: &str) {
        use crate::digit::{num_digits, radix_of_pass};
        for kpt in [1usize, 7, 9, 18, 23] {
            for pass in 0..num_digits(K::BITS, digit_bits) {
                let radix = radix_of_pass(K::BITS, digit_bits, pass);
                let histogram =
                    |strategy| block_histogram(keys, digit_bits, pass, radix, strategy, kpt);
                let tr = histogram(HistogramStrategy::ThreadReduction);
                let at = histogram(HistogramStrategy::AtomicsOnly);
                let case = format!("{label} digit_bits={digit_bits} kpt={kpt} pass={pass}");
                let want = naive_thread_reduction_updates(keys, digit_bits, pass, kpt);
                assert_eq!(tr.atomic_updates, want, "{case}");
                assert_eq!(tr.counts, at.counts, "{case}");
                assert_eq!(tr.distinct_values, at.distinct_values, "{case}");
            }
        }
    }

    #[test]
    fn thread_reduction_matches_naive_reference() {
        for digit_bits in [5u32, 8, 11, 16] {
            for and_count in [0u32, 2, 4, 6] {
                let level = EntropyLevel::with_and_count(and_count);
                let label = format!("and_count={and_count}");
                check_thread_reduction(&level.generate_u32(4_000, 9), digit_bits, &label);
                check_thread_reduction(&level.generate_u64(4_000, 10), digit_bits, &label);
            }
            check_thread_reduction(&vec![7u32; 1_000], digit_bits, "constant");
        }
    }

    #[test]
    fn empty_block() {
        let h = block_histogram::<u32>(&[], 8, 0, 256, HistogramStrategy::ThreadReduction, 18);
        assert_eq!(h.atomic_updates, 0);
        assert_eq!(h.distinct_values, 0);
        assert_eq!(h.max_bin_fraction(), 0.0);
    }
}
