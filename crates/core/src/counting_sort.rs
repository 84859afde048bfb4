//! One counting-sort pass over all active buckets (Sections 4.1–4.4) — the
//! one partition kernel of the workspace.
//!
//! A pass processes every bucket that still needs partitioning, using a
//! constant number of kernels regardless of the number of buckets: the
//! block assignments generated as a by-product of the previous pass tell
//! every thread block which bucket and key range it works on.  The pass
//!
//! 1. computes per-block histograms (stored for reuse by the scatter),
//! 2. computes each bucket's exclusive prefix sum (sub-bucket offsets),
//! 3. scatters keys (and values) into the sub-buckets, stably,
//! 4. merges tiny neighbouring sub-buckets and classifies each sub-bucket as
//!    *local sort* or *next counting pass*.
//!
//! What a key's sub-bucket is comes from a [`KeyBins`] bin function the
//! pass is monomorphised over.  A sort's pass bins by its digit
//! ([`Digit`](crate::digit::Digit)), so it compiles to the digit loop.  A
//! sharded engine's partition runs the same pass over its whole input as
//! one bucket, binned by shard, so one stable pass leaves every shard
//! contiguous, in shard order.
//!
//! The pass is executed by an [`Executor`]: steps 1 and 3 are
//! embarrassingly parallel over key blocks (each block owns its histogram
//! strip and its reserved destination chunks), so the threaded backend runs
//! one histogram task per block and one scatter task per stripe of
//! consecutive blocks of a bucket ([`STRIPE_KEYS`]) on real OS threads;
//! step 2 and the classification are
//! cheap `O(buckets × bins)` combines that stay on the calling thread,
//! mirroring how the GPU implementation runs them in a single small kernel.
//! Step 2 walks each bucket's histogram strips block by block, in memory
//! order, and keeps the scatter bases of each stripe's first block only:
//! a stripe's blocks own adjacent destination chunks, so those bases seed
//! the whole stripe.
//! All working memory comes from a [`PassScratch`], so a warmed-up pass
//! performs no heap allocation.
//!
//! A pass may cover only some of a digit's buckets: the sorter runs one
//! over the large buckets and lets a depth-first task run one over each
//! cache-sized bucket's range alone, sequentially and with direct scatter
//! stores (see [`run_counting_pass`]).  So a pass returns its statistics
//! as a [`PassTally`] of integer sums, which add up across the buckets of
//! a digit in any order; the report's ratios are derived once, from the
//! sums.

use crate::arena::{BlockStat, PassScratch};
use crate::bucket::{classify_sub_buckets_into, pass_blocks_into, Bucket, LocalBucket, SubBucket};
use crate::config::SortConfig;
use crate::digit::KeyBins;
use crate::exec::{ExecProbe, Executor, SharedMut};
use crate::histogram::block_histogram_by;
use crate::opts::Optimizations;
use crate::prefix_sum::exclusive_prefix_sum_into;
use crate::report::PassStats;
use crate::scatter::{
    block_lookahead, chunk_line_counts, scatter_stripe, ScatterParams, ScatterStaging, STRIPE_KEYS,
};
use crate::trace::{SortTrace, TraceEvent};
use gpu_sim::HistogramStrategy;
use workloads::pairs::SortValue;
use workloads::SortKey;

/// What every pass of one pass loop shares: the sort's configuration and
/// flags, and the backend its fan-outs run on.
#[derive(Debug, Clone, Copy)]
pub struct PassContext<'a> {
    /// The sort's configuration.
    pub config: &'a SortConfig,
    /// The sort's optimisation flags.
    pub opts: &'a Optimizations,
    /// The backend running the histogram, scatter and local-sort tasks.
    pub exec: &'a Executor,
    /// Per-worker telemetry for those fan-outs, if any.
    pub probe: Option<&'a ExecProbe>,
}

/// The statistics of one counting pass over some of its buckets, as
/// integer sums.  Tallies of disjoint bucket sets of one pass add up to
/// the tally of the whole pass, whatever order or worker they ran in;
/// [`PassTally::stats`] derives the float ratios once, from the sums.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassTally {
    /// Keys processed.
    pub n_keys: u64,
    /// Buckets partitioned.
    pub n_buckets: u64,
    /// Key blocks processed.
    pub n_blocks: u64,
    /// Histogram atomic updates.
    pub histogram_updates: u64,
    /// Scatter staging atomic updates.
    pub scatter_updates: u64,
    /// Distinct digit values summed over the blocks.
    pub distinct_digits: u64,
    /// Keys of each bucket's most populated digit value, summed over the
    /// buckets.
    pub max_bin_keys: u64,
    /// Non-empty sub-buckets produced.
    pub sub_buckets_created: u64,
    /// Buckets handed to the local sort.
    pub local_buckets_created: u64,
    /// Buckets forwarded to the next pass.
    pub counting_buckets_forwarded: u64,
    /// Blocks with the look-ahead write combiner active.
    pub lookahead_active_blocks: u64,
    /// Whole write-combining lines written.
    pub staged_lines: u64,
    /// Line fragments written with plain stores.
    pub partial_flushes: u64,
    /// The local-sort size classes of the buckets the pass handed to the
    /// local sort, one bit per class (see
    /// [`local_sort::book_local_sorts`](crate::local_sort::book_local_sorts)).
    pub local_classes: u64,
}

impl PassTally {
    /// Adds the tally of a disjoint set of buckets of the same pass.
    pub fn add(&mut self, other: &PassTally) {
        self.n_keys += other.n_keys;
        self.n_buckets += other.n_buckets;
        self.n_blocks += other.n_blocks;
        self.histogram_updates += other.histogram_updates;
        self.scatter_updates += other.scatter_updates;
        self.distinct_digits += other.distinct_digits;
        self.max_bin_keys += other.max_bin_keys;
        self.sub_buckets_created += other.sub_buckets_created;
        self.local_buckets_created += other.local_buckets_created;
        self.counting_buckets_forwarded += other.counting_buckets_forwarded;
        self.lookahead_active_blocks += other.lookahead_active_blocks;
        self.staged_lines += other.staged_lines;
        self.partial_flushes += other.partial_flushes;
        self.local_classes |= other.local_classes;
    }

    /// The report's statistics of pass `pass`, whose digit has `radix`
    /// values.
    pub fn stats(&self, pass: u32, radix: usize) -> PassStats {
        let per_block = |sum: u64| {
            if self.n_blocks > 0 {
                sum as f64 / self.n_blocks as f64
            } else {
                0.0
            }
        };
        PassStats {
            pass,
            n_keys: self.n_keys,
            n_buckets: self.n_buckets,
            n_blocks: self.n_blocks,
            radix,
            histogram_updates: self.histogram_updates,
            scatter_updates: self.scatter_updates,
            avg_block_distinct: per_block(self.distinct_digits),
            avg_occupied_sub_buckets: per_block(self.distinct_digits),
            max_bin_fraction: if self.n_keys > 0 {
                self.max_bin_keys as f64 / self.n_keys as f64
            } else {
                0.0
            },
            sub_buckets_created: self.sub_buckets_created,
            local_buckets_created: self.local_buckets_created,
            counting_buckets_forwarded: self.counting_buckets_forwarded,
            lookahead_active_blocks: self.lookahead_active_blocks,
            staged_lines: self.staged_lines,
            partial_flushes: self.partial_flushes,
        }
    }
}

/// Bytes between two tasks' strips of a per-worker or per-block table
/// that tasks write per key: two cache lines, because x86 prefetches lines
/// in pairs.  Unpadded, the strips of two workers (or of two blocks that
/// two workers count) share a line at their border, and the line moves
/// between the workers' cores on every write to the bins it holds.
const STRIP_PAD_BYTES: usize = 128;

/// `len` elements of `T` plus [`STRIP_PAD_BYTES`].
fn padded<T>(len: usize) -> usize {
    len + STRIP_PAD_BYTES / std::mem::size_of::<T>().max(1)
}

/// Values per write-combining value line beside a line of `line_keys`
/// keys: the same bytes (16 u32 values beside 8 u64 keys).
fn line_vals<K, V>(line_keys: usize) -> usize {
    (line_keys * std::mem::size_of::<K>() / std::mem::size_of::<V>().max(1)).max(1)
}

/// Keys and values of one worker's write-combining staging segment:
/// `radix` key lines and `radix` value lines, sized by the *maximum* radix
/// so a segment serves every pass, and 128 bytes to keep it apart from the
/// next worker's.  A value line spans the bytes of a key line (16 u32
/// values beside 8 u64 keys), so both arrays flush whole cache lines.
/// Both are 0 when the staged scatter is off or a line holds a single key;
/// [`run_counting_pass`] takes `workers ×` these.
pub fn staging_lens<K: SortKey, V: SortValue>(
    config: &SortConfig,
    opts: &Optimizations,
) -> (usize, usize) {
    let line_keys = config.scatter_line_keys(K::BYTES as usize);
    if !opts.staged_scatter || line_keys < 2 {
        return (0, 0);
    }
    let vals = if std::mem::size_of::<V>() != 0 {
        padded::<V>(config.radix() * line_vals::<K, V>(line_keys))
    } else {
        0
    };
    (padded::<K>(config.radix() * line_keys), vals)
}

/// Runs one counting-sort pass over `buckets`, reading keys/values from the
/// `src` buffers and writing each bucket's keys, grouped by their bin of
/// `bins`, into the same range of the `dst` buffers, stably.  A sort's pass
/// `pass` bins by the pass's digit ([`Digit`](crate::digit::Digit)); a
/// sharded engine's partition bins by shard.
/// `origin` is the position of the buffers' element 0 within the sort's
/// whole buffers (0 unless the pass runs on one bucket's range of them); it
/// only shifts the line statistics, so they describe the whole buffers'
/// lines.
///
/// The scatter stages its writes through `staging_keys`/`staging_vals`,
/// the arena-owned write-combining segments, one [`staging_lens`] stripe
/// per worker, and streams whole lines past the cache (when the bins are
/// no more than the configuration's radix).  Given shorter segments —
/// empty ones, as a depth-first task passes, whose destination range stays
/// in cache for the local sorts that read it next — it writes every key
/// straight to its place instead and books the lines the staged scatter
/// would have written, so the statistics do not change.
///
/// Buckets forwarded to the next pass are appended to `out_counting` and
/// buckets ready for a local sort to `out_local` (both are cleared first);
/// the pass's working memory lives in `scratch` and is reused across passes
/// and sorts.  After the pass, `scratch.bucket_hist` holds the last
/// bucket's bin counts (unless traced).  The histogram and
/// scatter phases are distributed over the context's executor: one
/// histogram task per key block, one scatter task per stripe.  The phases
/// run strictly in order — every histogram task finishes before the prefix
/// sums, and those before the first scatter task — as in the paper's kernel
/// sequence.
#[allow(clippy::too_many_arguments)]
pub fn run_counting_pass<K: SortKey, V: SortValue, B: KeyBins<K>>(
    cx: &PassContext<'_>,
    src_keys: &[K],
    dst_keys: &mut [K],
    src_vals: &[V],
    dst_vals: &mut [V],
    origin: usize,
    buckets: &[Bucket],
    pass: u32,
    bins: B,
    scratch: &mut PassScratch,
    staging_keys: &mut [K],
    staging_vals: &mut [V],
    out_local: &mut Vec<LocalBucket>,
    out_counting: &mut Vec<Bucket>,
    mut trace: Option<&mut SortTrace>,
) -> PassTally {
    let PassContext {
        config,
        opts,
        exec,
        probe,
    } = *cx;
    let radix = bins.bins();
    let strategy = if opts.thread_reduction_histogram {
        HistogramStrategy::ThreadReduction
    } else {
        HistogramStrategy::AtomicsOnly
    };
    let scatter_params = ScatterParams {
        digit_bits: config.digit_bits,
        pass,
        radix,
        keys_per_block: config.keys_per_block,
        keys_per_thread: config.keys_per_thread as usize,
        lookahead_enabled: opts.lookahead,
        lookahead: config.lookahead,
        skew_threshold: config.lookahead_skew_threshold,
    };

    let mut tally = PassTally::default();
    out_local.clear();
    out_counting.clear();
    if let Some(t) = trace.as_deref_mut() {
        t.push(TraceEvent::PassStart {
            pass,
            buckets: buckets.len(),
        });
    }

    // Block assignments of the pass, bucket-major (the by-product the
    // previous pass's sub-bucket offsets make available on the GPU).
    pass_blocks_into(buckets, config.keys_per_block, &mut scratch.blocks);
    let n_blocks = scratch.blocks.len();

    // (1) Per-block histograms into the strip table, one executor task per
    // block.  Every block owns strip `b * strip ..` exclusively, `radix`
    // counters and a pad, since neighbouring blocks run on different
    // workers.  The task
    // also counts the block's look-ahead writes while its keys are in
    // cache; the scatter works on whole stripes and never sees a block.
    let strip_len = padded::<u32>(radix);
    scratch.block_counts.clear();
    scratch.block_counts.resize(n_blocks * strip_len, 0);
    scratch.block_stats.clear();
    scratch.block_stats.resize(n_blocks, BlockStat::default());
    {
        let blocks = &scratch.blocks;
        let counts = SharedMut::new(&mut scratch.block_counts);
        let block_stats = SharedMut::new(&mut scratch.block_stats);
        exec.for_each_task_probed(n_blocks, probe, |b, _worker| {
            let blk = &blocks[b];
            let keys = &src_keys[blk.key_offset..blk.key_offset + blk.key_count];
            // SAFETY: strip `b` and stat slot `b` belong to this task only.
            let strip = unsafe { counts.slice_mut(b * strip_len, radix) };
            let (atomic_updates, distinct) =
                block_histogram_by(strip, keys, bins, strategy, config.keys_per_thread as usize);
            let max_bin = strip.iter().copied().max().unwrap_or(0);
            let (lookahead_active, shared_updates) =
                block_lookahead(keys, bins, &scatter_params, max_bin);
            // SAFETY: stat slot `b` belongs to this task only.
            unsafe {
                block_stats.write(
                    b,
                    BlockStat {
                        atomic_updates,
                        distinct,
                        shared_updates,
                        lookahead_active,
                        ..BlockStat::default()
                    },
                );
            }
        });
    }

    // (2) Per bucket: aggregate the strips, prefix-sum into sub-bucket
    // offsets, cut the bucket's blocks into stripes and derive each
    // stripe's scatter bases, classify sub-buckets.
    scratch.stripe_bases.clear();
    scratch.stripes.clear();
    let stripe_blocks = (STRIPE_KEYS / config.keys_per_block.max(1)).max(1);
    let mut block_cursor = 0usize;
    for bucket in buckets {
        let nb = bucket.num_blocks(config.keys_per_block);
        let bucket_blocks = block_cursor..block_cursor + nb;
        block_cursor += nb;
        scratch.stripes.extend(
            bucket_blocks
                .clone()
                .step_by(stripe_blocks)
                .map(|b| (b, (b + stripe_blocks).min(bucket_blocks.end))),
        );

        scratch.bucket_hist.clear();
        scratch.bucket_hist.resize(radix, 0);
        for b in bucket_blocks.clone() {
            let strip = &scratch.block_counts[b * strip_len..b * strip_len + radix];
            for (t, &c) in scratch.bucket_hist.iter_mut().zip(strip) {
                *t += c as u64;
            }
        }
        let total = exclusive_prefix_sum_into(&scratch.bucket_hist, &mut scratch.prefix);
        debug_assert_eq!(total, bucket.len);

        // Scatter bases: for bin d, block b writes its keys of bin d at
        // `bucket.offset + prefix[d] + Σ counts of earlier blocks` — the
        // chunk the GPU block reserves with one atomicAdd.  A stripe's
        // blocks own adjacent chunks, so only each stripe's first block's
        // bases are kept, as the stripe's cursor seed.  Walked block by
        // block, so the strips are read in memory order, with one running
        // offset per bin.
        scratch.digit_run.clear();
        scratch
            .digit_run
            .extend(scratch.prefix.iter().map(|&p| bucket.offset + p));
        for b in bucket_blocks.clone() {
            if (b - bucket_blocks.start) % stripe_blocks == 0 {
                scratch.stripe_bases.extend_from_slice(&scratch.digit_run);
            }
            let counts = &scratch.block_counts[b * strip_len..b * strip_len + radix];
            for (run, &c) in scratch.digit_run.iter_mut().zip(counts) {
                *run += c as usize;
            }
        }

        // Build, merge and classify the sub-buckets.
        scratch.sub_buckets.clear();
        for (d, &count) in scratch.bucket_hist.iter().enumerate() {
            if count > 0 {
                scratch.sub_buckets.push(SubBucket {
                    offset: bucket.offset + scratch.prefix[d],
                    len: count as usize,
                });
            }
        }
        let local_before = out_local.len();
        let counting_before = out_counting.len();
        classify_sub_buckets_into(
            &scratch.sub_buckets,
            pass + 1,
            config.local_sort_threshold,
            config.merge_threshold,
            opts.bucket_merging,
            out_local,
            out_counting,
        );

        tally.n_keys += bucket.len as u64;
        tally.n_buckets += 1;
        tally.n_blocks += nb as u64;
        tally.sub_buckets_created += scratch.sub_buckets.len() as u64;
        tally.local_buckets_created += (out_local.len() - local_before) as u64;
        tally.counting_buckets_forwarded += (out_counting.len() - counting_before) as u64;
        tally.max_bin_keys += scratch.bucket_hist.iter().copied().max().unwrap_or(0);

        if let Some(t) = trace.as_deref_mut() {
            // Move the tables into the trace instead of cloning them; the
            // scratch vectors are rebuilt on the next bucket (tracing is a
            // debugging path, so the extra allocations are acceptable).
            t.push(TraceEvent::BucketHistogram {
                pass,
                offset: bucket.offset,
                len: bucket.len,
                histogram: std::mem::take(&mut scratch.bucket_hist),
                prefix: std::mem::take(&mut scratch.prefix),
            });
        }
    }

    // Per-worker write-combining staging: one `staging_lens` stripe per
    // worker out of the caller's segments.
    let values_present = std::mem::size_of::<V>() != 0;
    let workers = exec.workers();
    let line_keys = config.scatter_line_keys(K::BYTES as usize);
    let (stage_stride, val_stride) = staging_lens::<K, V>(config, opts);
    let line_vals = line_vals::<K, V>(line_keys);
    let filled_stride = padded::<u32>(config.radix());
    let staging_on = stage_stride > 0
        && n_blocks > 0
        && radix <= config.radix()
        && staging_keys.len() >= workers * stage_stride
        && staging_vals.len() >= workers * val_stride;
    let book_lines = stage_stride > 0 && !staging_on;
    if staging_on {
        scratch.stage_filled.clear();
        scratch.stage_filled.resize(workers * filled_stride, 0);
    }

    // (3) Cooperative scatter, one executor task per stripe.  Each worker
    // seeds its private cursor strip from the stripe's bases; destination
    // chunks of distinct stripes are disjoint.
    let cursor_stride = padded::<usize>(radix);
    scratch.worker_cursors.clear();
    scratch.worker_cursors.resize(workers * cursor_stride, 0);
    {
        let blocks = &scratch.blocks;
        let bases = &scratch.stripe_bases;
        let stripes = &scratch.stripes;
        let cursors = SharedMut::new(&mut scratch.worker_cursors);
        let block_stats = SharedMut::new(&mut scratch.block_stats);
        let stage_keys_sm = SharedMut::new(staging_keys);
        let stage_vals_sm = SharedMut::new(staging_vals);
        let stage_filled_sm = SharedMut::new(&mut scratch.stage_filled);
        let dst_keys = SharedMut::new(dst_keys);
        let dst_vals = SharedMut::new(dst_vals);
        exec.for_each_task_probed(stripes.len(), probe, |s, worker| {
            let (first, end) = stripes[s];
            let last = &blocks[end - 1];
            let span = blocks[first].key_offset..last.key_offset + last.key_count;
            let stripe_vals = if values_present {
                &src_vals[span.clone()]
            } else {
                &src_vals[0..0]
            };
            // SAFETY: cursor strip `worker` belongs to this thread only.
            let cursor = unsafe { cursors.slice_mut(worker * cursor_stride, radix) };
            let seeds = &bases[s * radix..(s + 1) * radix];
            cursor.copy_from_slice(seeds);
            let mut staging_storage = None;
            if staging_on {
                // SAFETY: the staging segments are striped per worker, and
                // a worker runs one stripe at a time, so the key range is
                // exclusive to this thread.
                let stage_keys =
                    unsafe { stage_keys_sm.slice_mut(worker * stage_stride, radix * line_keys) };
                let stage_vals = if values_present {
                    // SAFETY: same striping as the keys.
                    unsafe { stage_vals_sm.slice_mut(worker * val_stride, radix * line_vals) }
                } else {
                    // SAFETY: zero-length view; no bytes are reachable.
                    unsafe { stage_vals_sm.slice_mut(0, 0) }
                };
                // SAFETY: the fill table is striped per worker like the
                // staging lines.
                let filled = unsafe { stage_filled_sm.slice_mut(worker * filled_stride, radix) };
                staging_storage = Some(ScatterStaging {
                    keys: stage_keys,
                    vals: stage_vals,
                    filled,
                    line_keys,
                });
            }
            let (mut staged_lines, mut partial_flushes) = scatter_stripe(
                &src_keys[span],
                stripe_vals,
                cursor,
                &dst_keys,
                &dst_vals,
                bins,
                &scatter_params,
                staging_storage.as_mut(),
            );
            if book_lines {
                (staged_lines, partial_flushes) =
                    chunk_line_counts(seeds, cursor, origin, line_keys);
            }
            // SAFETY: stat slot `first` belongs to this stripe's task only;
            // the stripe's line counts are booked on its first block.
            let stat = unsafe { &mut block_stats.slice_mut(first, 1)[0] };
            stat.staged_lines = staged_lines;
            stat.partial_flushes = partial_flushes;
        });
    }

    // (4) Fold the per-block records into the pass tally.
    for s in &scratch.block_stats {
        tally.histogram_updates += s.atomic_updates;
        tally.scatter_updates += s.shared_updates;
        tally.lookahead_active_blocks += s.lookahead_active as u64;
        tally.staged_lines += s.staged_lines;
        tally.partial_flushes += s.partial_flushes;
        tally.distinct_digits += s.distinct as u64;
    }
    tally
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digit::{radix_of_pass, Digit};
    use workloads::{uniform_keys, EntropyLevel, KeyCodec};

    /// Output of one pass as the tests inspect it.
    struct PassRun {
        next_counting: Vec<Bucket>,
        local: Vec<LocalBucket>,
        stats: PassStats,
    }

    #[allow(clippy::too_many_arguments)]
    fn run_pass<K: SortKey>(
        keys: &[K],
        dst: &mut [K],
        buckets: &[Bucket],
        pass: u32,
        config: &SortConfig,
        opts: &Optimizations,
        exec: &Executor,
        trace: Option<&mut SortTrace>,
    ) -> PassRun {
        let src_vals: Vec<()> = Vec::new();
        let mut dst_vals: Vec<()> = Vec::new();
        let mut scratch = PassScratch::default();
        let (stage_len, _) = staging_lens::<K, ()>(config, opts);
        let mut staging_keys = vec![K::default(); exec.workers() * stage_len];
        let mut local = Vec::new();
        let mut counting = Vec::new();
        let cx = PassContext {
            config,
            opts,
            exec,
            probe: None,
        };
        let tally = run_counting_pass(
            &cx,
            keys,
            dst,
            &src_vals,
            &mut dst_vals,
            0,
            buckets,
            pass,
            Digit::of_pass(K::BITS, config.digit_bits, pass),
            &mut scratch,
            &mut staging_keys,
            &mut [],
            &mut local,
            &mut counting,
            trace,
        );
        PassRun {
            next_counting: counting,
            local,
            stats: tally.stats(pass, radix_of_pass(K::BITS, config.digit_bits, pass)),
        }
    }

    fn run_pass_u32(
        keys: &[u32],
        config: &SortConfig,
        opts: &Optimizations,
        exec: &Executor,
    ) -> (Vec<u32>, PassRun) {
        let n = keys.len();
        let mut dst = vec![0u32; n];
        let out = run_pass(
            keys,
            &mut dst,
            &[Bucket::root(n)],
            0,
            config,
            opts,
            exec,
            None,
        );
        (dst, out)
    }

    fn small_config() -> SortConfig {
        let mut c = SortConfig::keys_32();
        c.keys_per_block = 512;
        c.local_sort_threshold = 300;
        c.merge_threshold = 100;
        c.local_sort_classes = SortConfig::default_classes(300);
        c
    }

    #[test]
    fn pass_partitions_and_preserves_keys() {
        let keys = uniform_keys::<u32>(50_000, 1);
        let (dst, out) = run_pass_u32(
            &keys,
            &small_config(),
            &Optimizations::all_on(),
            &Executor::Sequential,
        );
        assert!(dst.windows(2).all(|w| (w[0] >> 24) <= (w[1] >> 24)));
        assert!(workloads::stats::is_permutation_of(&keys, &dst));
        assert_eq!(out.stats.n_keys, 50_000);
        assert_eq!(out.stats.n_buckets, 1);
        assert_eq!(
            out.stats.sub_buckets_created as usize,
            workloads::distinct_values(&keys.iter().map(|k| k >> 24).collect::<Vec<_>>())
        );
        // 50 000 / 256 ≈ 195 keys per digit value: below ∂̂ = 300, so every
        // sub-bucket goes to the local sort.
        assert_eq!(out.next_counting.len(), 0);
        assert!(out.local.len() > 100);
    }

    #[test]
    fn threaded_executor_produces_identical_partitions() {
        let keys = uniform_keys::<u32>(40_000, 8);
        let cfg = small_config();
        let opts = Optimizations::all_on();
        let (seq_dst, seq) = run_pass_u32(&keys, &cfg, &opts, &Executor::Sequential);
        for workers in [2usize, 7] {
            let (thr_dst, thr) = run_pass_u32(&keys, &cfg, &opts, &Executor::with_workers(workers));
            assert_eq!(seq_dst, thr_dst, "workers = {workers}");
            assert_eq!(seq.next_counting, thr.next_counting);
            assert_eq!(seq.local, thr.local);
            assert_eq!(seq.stats.histogram_updates, thr.stats.histogram_updates);
            assert_eq!(seq.stats.scatter_updates, thr.stats.scatter_updates);
            assert_eq!(seq.stats.sub_buckets_created, thr.stats.sub_buckets_created);
        }
    }

    #[test]
    fn sub_bucket_sizes_sum_to_input() {
        let keys = EntropyLevel::with_and_count(2).generate_u32(20_000, 2);
        let (_, out) = run_pass_u32(
            &keys,
            &small_config(),
            &Optimizations::all_on(),
            &Executor::Sequential,
        );
        let local: usize = out.local.iter().map(|l| l.len).sum();
        let counting: usize = out.next_counting.iter().map(|b| b.len).sum();
        assert_eq!(local + counting, 20_000);
        // Skewed input: at least one bucket must be forwarded for another
        // pass (the heavy digit value 0).
        assert!(!out.next_counting.is_empty());
        assert!(out.stats.max_bin_fraction > 0.2);
    }

    #[test]
    fn forwarded_buckets_advance_the_pass_index() {
        let keys = EntropyLevel::constant().generate_u32(10_000, 3);
        let (_, out) = run_pass_u32(
            &keys,
            &small_config(),
            &Optimizations::all_on(),
            &Executor::Sequential,
        );
        assert_eq!(out.next_counting.len(), 1);
        assert_eq!(out.next_counting[0].pass, 1);
        assert_eq!(out.next_counting[0].len, 10_000);
        assert!(out.local.is_empty());
        assert_eq!(out.stats.max_bin_fraction, 1.0);
        assert!((out.stats.avg_block_distinct - 1.0).abs() < 1e-9);
    }

    #[test]
    fn occupied_sub_buckets_tracks_block_diversity() {
        // Two 1 000-key blocks: uniform keys occupy most of the 256
        // sub-buckets in each block, constant keys exactly one.
        let mut cfg = small_config();
        cfg.keys_per_block = 1_000;
        let opts = Optimizations::all_on();
        let exec = Executor::Sequential;
        let uniform = uniform_keys::<u32>(2_000, 5);
        let (_, u) = run_pass_u32(&uniform, &cfg, &opts, &exec);
        assert_eq!(u.stats.n_blocks, 2);
        assert!(u.stats.avg_occupied_sub_buckets > 200.0);
        let constant = EntropyLevel::constant().generate_u32(2_000, 5);
        let (_, c) = run_pass_u32(&constant, &cfg, &opts, &exec);
        assert_eq!(c.stats.avg_occupied_sub_buckets, 1.0);
    }

    #[test]
    fn merging_toggle_changes_local_bucket_count() {
        // A distribution with many tiny sub-buckets: uniform over few keys.
        let keys = uniform_keys::<u32>(5_000, 4);
        let cfg = small_config();
        let exec = Executor::Sequential;
        let (_, with) = run_pass_u32(&keys, &cfg, &Optimizations::all_on(), &exec);
        let (_, without) = run_pass_u32(&keys, &cfg, &Optimizations::no_bucket_merging(), &exec);
        assert!(with.local.len() < without.local.len());
        assert!(with.local.iter().any(|l| l.is_merged()));
        assert!(without.local.iter().all(|l| !l.is_merged()));
        // Both cover the same keys.
        let a: usize = with.local.iter().map(|l| l.len).sum();
        let b: usize = without.local.iter().map(|l| l.len).sum();
        assert_eq!(a, b);
    }

    #[test]
    fn staged_pass_reduces_write_transactions() {
        // The staged scatter's normalized write traffic (line flushes +
        // drains) must be strictly lower than the direct path's one write
        // per key on a large uniform input.
        let keys = uniform_keys::<u32>(300_000, 22);
        let cfg = small_config();
        let exec = Executor::Sequential;
        let (staged_dst, staged) = run_pass_u32(&keys, &cfg, &Optimizations::all_on(), &exec);
        let (direct_dst, direct) =
            run_pass_u32(&keys, &cfg, &Optimizations::no_staged_scatter(), &exec);
        assert_eq!(staged_dst, direct_dst, "staged output must be identical");
        assert_eq!(direct.stats.staged_lines, 0);
        assert_eq!(direct.stats.partial_flushes, 0);
        let staged_traffic = staged.stats.staged_lines + staged.stats.partial_flushes;
        assert!(staged_traffic > 0);
        assert!(
            staged_traffic < staged.stats.n_keys,
            "staged write transactions ({staged_traffic}) not below \
             one-per-key ({})",
            staged.stats.n_keys
        );
    }

    #[test]
    fn trace_records_histogram_of_root_bucket() {
        let keys = uniform_keys::<u32>(1_000, 5);
        let n = keys.len();
        let mut dst = vec![0u32; n];
        let mut trace = SortTrace::new(0);
        run_pass(
            &keys,
            &mut dst,
            &[Bucket::root(n)],
            0,
            &small_config(),
            &Optimizations::all_on(),
            &Executor::Sequential,
            Some(&mut trace),
        );
        assert_eq!(trace.histograms_of_pass(0).len(), 1);
    }

    #[test]
    fn pass_one_respects_existing_partitioning() {
        // Partition twice manually and verify full sortedness on the top
        // 16 bits afterwards.
        let keys = uniform_keys::<u32>(30_000, 6);
        let cfg = small_config();
        let opts = Optimizations::all_on();
        let exec = Executor::with_workers(3);
        let n = keys.len();
        let mut buf1 = vec![0u32; n];
        let out0 = run_pass(
            &keys,
            &mut buf1,
            &[Bucket::root(n)],
            0,
            &cfg,
            &opts,
            &exec,
            None,
        );
        let mut buf2 = vec![0u32; n];
        let out1 = run_pass(
            &buf1,
            &mut buf2,
            &out0.next_counting,
            1,
            &cfg,
            &opts,
            &exec,
            None,
        );
        // Keys covered by second-pass buckets are now sorted on their top
        // 16 bits within each first-pass bucket region.
        for b in &out0.next_counting {
            let region = &buf2[b.offset..b.offset + b.len];
            assert!(region.windows(2).all(|w| (w[0] >> 16) <= (w[1] >> 16)));
        }
        assert_eq!(out1.stats.pass, 1);
        let _ = KeyCodec::std_sorted(&keys);
    }
}
