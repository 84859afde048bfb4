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
//! The CPU writes every key straight to its destination (or through a
//! software write-combining line) and *counts* the shared-memory atomics
//! the GPU staging would issue: one per key, or, in a look-ahead block, one
//! per run of up to `lookahead + 1` consecutive equal digits within a
//! thread's keys.  The runs are counted inside the loop that moves the
//! keys, from the digit it has already extracted, so a skewed block is
//! read once and nothing is allocated.

use crate::digit::Digit;
use crate::exec::SharedMut;
use workloads::SortKey;

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
/// Sanders): `radix` lines of `line_keys` keys (and values, when present),
/// plus a per-digit fill count.
///
/// The slices are per-worker views into the arena-owned staging segments;
/// [`scatter_block`] appends each key to its digit's line and flushes the
/// line to the destination with one contiguous copy when it fills, so the
/// per-element random write becomes one streaming line write per
/// `line_keys` elements.  `filled` is all-zero between blocks — every
/// block drains its partial lines before returning, which is what keeps
/// the staged output byte-identical to the direct scatter (within a block,
/// keys of one digit still land in encounter order, and blocks own
/// disjoint destination chunks).
pub struct ScatterStaging<'a, K, V> {
    /// Staged keys: line of digit `d` occupies `d * line_keys ..` .
    pub keys: &'a mut [K],
    /// Staged values, same layout as `keys` (empty when `V` is zero-sized).
    pub vals: &'a mut [V],
    /// Keys currently staged per digit value (`radix` entries, all zero on
    /// entry and on exit of every block).
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
    /// Full write-combining lines flushed with one contiguous copy.
    pub staged_lines: u64,
    /// Partially filled lines drained at block end.
    pub partial_flushes: u64,
}

/// Scatters a single key block through precomputed per-digit write cursors
/// — the unit of work of the executor's cooperative scatter.
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
/// look-ahead write combiner is active.  When `staging` is provided (and
/// its lines hold at least two keys), writes are combined per digit value
/// in the staging lines and flushed full-line; destination contents are
/// byte-identical either way.
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
    let values_present = std::mem::size_of::<V>() != 0;
    let digit = Digit::of_pass(K::BITS, params.digit_bits, params.pass);
    let lookahead_active = params.lookahead_enabled
        && !block_keys.is_empty()
        && max_bin_count as f64 / block_keys.len() as f64 >= params.skew_threshold;
    let mut out = BlockScatter {
        lookahead_active,
        ..BlockScatter::default()
    };
    let mut lookahead = lookahead_active.then(|| LookaheadWrites::new(params));

    match staging {
        Some(st) if st.line_keys > 1 => {
            let line = st.line_keys;
            debug_assert!(st.keys.len() >= params.radix * line);
            debug_assert!(st.filled[..params.radix].iter().all(|&f| f == 0));
            for (i, key) in block_keys.iter().enumerate() {
                let d = digit.of(key.to_radix());
                if let Some(l) = lookahead.as_mut() {
                    l.push(d);
                }
                let base = d * line;
                let f = st.filled[d] as usize;
                st.keys[base + f] = *key;
                if values_present {
                    st.vals[base + f] = block_vals[i];
                }
                if f + 1 == line {
                    // Full line: one streaming copy into the chunk this
                    // block reserved for digit `d`.
                    let pos = cursor[d];
                    // SAFETY: `pos .. pos + line` lies inside the chunk this
                    // block reserved for digit `d`; chunks of distinct
                    // blocks are disjoint by construction of the per-block
                    // bases, so no other task touches the range.
                    unsafe {
                        dst_keys.copy_from_slice_at(pos, &st.keys[base..base + line]);
                        if values_present {
                            dst_vals.copy_from_slice_at(pos, &st.vals[base..base + line]);
                        }
                    }
                    cursor[d] += line;
                    st.filled[d] = 0;
                    out.staged_lines += 1;
                } else {
                    st.filled[d] = (f + 1) as u32;
                }
            }
            // Drain pass: partially filled lines are flushed at block end so
            // the next block (possibly a different bucket on the same
            // worker) starts from clean lines.
            #[allow(clippy::needless_range_loop)] // `d` indexes three parallel tables
            for d in 0..params.radix {
                let f = st.filled[d] as usize;
                if f > 0 {
                    let base = d * line;
                    let pos = cursor[d];
                    // SAFETY: as above — the drained range is still inside
                    // this block's reserved chunk for digit `d`.
                    unsafe {
                        dst_keys.copy_from_slice_at(pos, &st.keys[base..base + f]);
                        if values_present {
                            dst_vals.copy_from_slice_at(pos, &st.vals[base..base + f]);
                        }
                    }
                    cursor[d] += f;
                    st.filled[d] = 0;
                    out.partial_flushes += 1;
                }
            }
        }
        _ => {
            // Direct per-key scatter: the unstaged equivalence baseline.
            for (i, key) in block_keys.iter().enumerate() {
                let d = digit.of(key.to_radix());
                if let Some(l) = lookahead.as_mut() {
                    l.push(d);
                }
                let pos = cursor[d];
                cursor[d] += 1;
                // SAFETY: `pos` lies inside the chunk this block reserved
                // for digit `d`; chunks of distinct blocks are disjoint by
                // construction of the per-block bases, so no other task
                // touches `pos`.
                unsafe {
                    dst_keys.write(pos, *key);
                    if values_present {
                        dst_vals.write(pos, block_vals[i]);
                    }
                }
            }
        }
    }

    out.shared_updates = lookahead.map_or(block_keys.len() as u64, |l| l.writes);
    out
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
            id: 7,
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
            // Every key is written exactly once, either in a full line or a
            // block-end drain; drains cover the non-multiple tails.
            assert!(s_out.staged_lines * line_keys as u64 <= n as u64);
            assert!(s_out.partial_flushes > 0);
            assert_eq!(s_out.shared_updates, d_out.shared_updates);
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
        // per-digit drains but demand at least an 8× reduction.
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
