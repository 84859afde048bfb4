//! Range partitioning via splitter selection over MSD digit histograms.
//!
//! A sharded sort needs splitters that divide the *key space* into `p`
//! contiguous ranges whose populations match the devices' capacity weights.
//! Splitters are found the way the hybrid radix sort itself looks at keys:
//! with most-significant-digit histograms of a strided key sample.  A
//! histogram of the top 8 bits locates the bin every weighted rank target
//! falls into; heavily populated bins are refined by recursing into the next
//! 8-bit digit (up to [`PartitionConfig::refine_levels`] levels), which
//! keeps splitters accurate even for skewed (Zipfian) inputs.
//!
//! Because every key with the same radix value maps to the same shard,
//! shard outputs are non-overlapping ranges: the recombination merge never
//! interleaves elements from different shards, and equal keys can never
//! straddle a shard boundary.
//!
//! The scatter that follows is the sorter's own counting pass
//! ([`hrs_core::counting_sort::run_counting_pass`]) over the whole input as
//! one bucket, binned by shard in place of the pass's digit, so the
//! partition and the sort share one kernel: per-block histograms, one
//! prefix sum, and a stable striped scatter that leaves every shard
//! contiguous, in shard order, and in input order within.  With a few
//! cuts (`ShardBins`) a key's shard is the number of cuts at or below its
//! radix ([`SplitterSet::shard_of`]), a sum of comparisons without
//! branches, and the histogram counts a block of keys cut by cut (the keys
//! below each cut), so the loop vectorises.  With more cuts — out of core
//! there is one per chunk — both costs grow with the cuts, so the shard
//! comes from a table of the key's first digit (`DigitBins`).  The scatter
//! writes directly: a write-combining line of so few bins fills every few
//! keys.

use hrs_core::arena::{PassScratch, ROLE_SPLITTER_REFINE, ROLE_SPLITTER_SAMPLE};
use hrs_core::bucket::Bucket;
use hrs_core::counting_sort::{run_counting_pass, PassContext};
use hrs_core::digit::KeyBins;
use hrs_core::{Executor, Optimizations, ScratchArena, SharedMut, SortConfig};
use serde::{Deserialize, Serialize};
use workloads::pairs::SortValue;
use workloads::SortKey;

/// Tuning knobs of the splitter search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartitionConfig {
    /// Maximum number of keys sampled for the histograms (the full input is
    /// strided down to at most this many samples).
    pub max_samples: usize,
    /// How many 8-bit digit levels to refine into (1 = MSD histogram only;
    /// 3 gives 24-bit splitter granularity, enough to balance a Zipf
    /// distribution over millions of distinct values).
    pub refine_levels: u32,
    /// Bits per digit of the histogram descent.
    pub digit_bits: u32,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        PartitionConfig {
            max_samples: 1 << 20,
            refine_levels: 3,
            digit_bits: 8,
        }
    }
}

/// The chosen splitters: `cuts` in the key's radix space, strictly
/// increasing, one fewer than the number of shards.  Shard `i` owns the
/// half-open radix range `[cuts[i-1], cuts[i])` (with 0 and the maximum
/// radix closing the ends).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SplitterSet {
    /// Strictly increasing shard boundaries in radix space.
    pub cuts: Vec<u64>,
    /// Width of the key type the cuts apply to.
    pub key_bits: u32,
}

impl SplitterSet {
    /// Number of shards the set partitions into.
    pub fn num_shards(&self) -> usize {
        self.cuts.len() + 1
    }

    /// Largest representable radix value for the key width.
    pub fn max_radix(&self) -> u64 {
        if self.key_bits >= 64 {
            u64::MAX
        } else {
            (1u64 << self.key_bits) - 1
        }
    }

    /// The shard a radix value belongs to: the number of cuts at or
    /// below it.  Counting every cut costs no branch, where a binary
    /// search mispredicts about every other random key.
    #[inline(always)]
    pub fn shard_of(&self, radix: u64) -> usize {
        self.cuts.iter().map(|&c| usize::from(c <= radix)).sum()
    }

    /// Inclusive `[lo, hi]` radix ranges of every shard.  Together the
    /// ranges tile the whole key space: the first starts at 0, the last
    /// ends at [`SplitterSet::max_radix`], and each range starts exactly one
    /// past its predecessor's end.
    pub fn ranges(&self) -> Vec<(u64, u64)> {
        let mut ranges = Vec::with_capacity(self.num_shards());
        let mut lo = 0u64;
        for &cut in &self.cuts {
            ranges.push((lo, cut - 1));
            lo = cut;
        }
        ranges.push((lo, self.max_radix()));
        ranges
    }

    /// Validates the structural invariants (strictly increasing cuts within
    /// the key space).  Returns a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        let mut prev = 0u64;
        for (i, &cut) in self.cuts.iter().enumerate() {
            if cut <= prev {
                return Err(format!(
                    "cut {i} = {cut} is not strictly greater than its predecessor {prev}"
                ));
            }
            if cut > self.max_radix() {
                return Err(format!(
                    "cut {i} = {cut} exceeds the key space (max radix {})",
                    self.max_radix()
                ));
            }
            prev = cut;
        }
        Ok(())
    }
}

/// Chooses splitters for `keys` so that the expected shard populations are
/// proportional to `weights` (one weight per shard, all positive).
///
/// Sequential convenience wrapper around [`compute_splitters_with`]; the
/// two produce identical cuts for identical inputs.
pub fn compute_splitters<K: SortKey>(
    keys: &[K],
    weights: &[f64],
    cfg: &PartitionConfig,
) -> SplitterSet {
    compute_splitters_with(keys, weights, cfg, &Executor::Sequential)
}

/// Samples per task of the parallel gather and level-0 histogram of the
/// splitter search.
const HIST_CHUNK: usize = 64 * 1024;

/// [`compute_splitters`] with an explicit execution backend.
///
/// The strided key sample is gathered in parallel chunks, each counting
/// its level-0 digits as it goes; the summed histogram is shared by every
/// cut's descent, and the per-cut refinement descents (independent walks
/// over the sample, each filtering into its own region of one buffer) fan
/// out over `exec`.  Every step is deterministic, so the chosen cuts are
/// identical for any worker count — the sequential backend is the
/// equivalence baseline.
pub fn compute_splitters_with<K: SortKey>(
    keys: &[K],
    weights: &[f64],
    cfg: &PartitionConfig,
    exec: &Executor,
) -> SplitterSet {
    compute_splitters_in(keys, weights, cfg, exec, &mut ScratchArena::new())
}

/// Keys between two samples of an `n`-key input.
fn sample_stride(n: usize, cfg: &PartitionConfig) -> usize {
    n.div_ceil(cfg.max_samples.max(1)).max(1)
}

/// [`compute_splitters_with`] drawing its key sample and the keys its cuts
/// refine on into `arena`'s buffers, so a caller that sorts repeatedly
/// reuses one allocation for each.  Both are taken at the length the
/// search writes in full, so a warm take writes no memory.
pub(crate) fn compute_splitters_in<K: SortKey>(
    keys: &[K],
    weights: &[f64],
    cfg: &PartitionConfig,
    exec: &Executor,
    arena: &mut ScratchArena,
) -> SplitterSet {
    let shards = weights.len().max(1);
    assert!(
        weights.iter().all(|&w| w > 0.0),
        "capacity weights must be positive"
    );
    let max_radix = if K::BITS >= 64 {
        u64::MAX
    } else {
        (1u64 << K::BITS) - 1
    };
    assert!(
        (shards as u64 - 1) <= max_radix,
        "more shards than representable key values"
    );

    if shards == 1 {
        return SplitterSet {
            cuts: Vec::new(),
            key_bits: K::BITS,
        };
    }

    let total_weight: f64 = weights.iter().sum();
    let levels = cfg
        .refine_levels
        .clamp(1, K::BITS.div_ceil(cfg.digit_bits))
        .min(64 / cfg.digit_bits);

    // The sample is every `stride`-th key, its radix normalised into the
    // top bits of a u64 so the histogram descent always works on 8-bit
    // digits from bit 63 downward, independent of the key width.  Chunks
    // of it are gathered in parallel, each counting its keys' level-0
    // digits as it goes; every cut's descent starts from the summed table
    // instead of re-scanning the sample per cut.
    let norm_shift = 64 - K::BITS;
    let stride = sample_stride(keys.len(), cfg);
    let mut sample: Vec<u64> = arena.take_buffer(ROLE_SPLITTER_SAMPLE, keys.len().div_ceil(stride));
    let radix = 1usize << cfg.digit_bits;
    let shift0 = 64 - cfg.digit_bits;
    let root_hist: Vec<u64> = {
        let n_chunks = sample.len().div_ceil(HIST_CHUNK).max(1);
        let mut chunk_counts = vec![0u64; n_chunks * radix];
        let counts = SharedMut::new(chunk_counts.as_mut_slice());
        exec.for_each_chunk_mut(&mut sample, HIST_CHUNK, |c, part| {
            // SAFETY: strip `c` of the count table belongs to chunk `c`
            // alone.
            let strip = unsafe { counts.slice_mut(c * radix, radix) };
            let chunk_keys = keys[c * HIST_CHUNK * stride..].iter().step_by(stride);
            for (slot, k) in part.iter_mut().zip(chunk_keys) {
                let norm = k.to_radix() << norm_shift;
                *slot = norm;
                strip[(norm >> shift0) as usize] += 1;
            }
        });
        let mut root = vec![0u64; radix];
        for strip in chunk_counts.chunks_exact(radix) {
            for (r, &c) in root.iter_mut().zip(strip.iter()) {
                *r += c;
            }
        }
        root
    };

    // Cumulative weight fraction each cut targets.
    let mut fracs = Vec::with_capacity(shards - 1);
    let mut cum_weight = 0.0;
    for w in &weights[..shards - 1] {
        cum_weight += w;
        fracs.push(cum_weight / total_weight);
    }

    // Each cut that refines past level 0 gets a region of `refine` the
    // size of its level-0 bin: its descent filters that bin's keys there,
    // then narrows them in place level by level.  The descents are
    // independent — one executor task per cut.
    let targets: Vec<f64> = fracs.iter().map(|f| sample.len() as f64 * f).collect();
    let mut region_ends = Vec::with_capacity(targets.len());
    let mut refine_len = 0;
    for &target in &targets {
        let (_, _, count) = pick_bin(&root_hist, target);
        if count > 1 && levels > 1 {
            refine_len += count;
        }
        region_ends.push(refine_len);
    }
    let mut refine: Vec<u64> = arena.take_buffer(ROLE_SPLITTER_REFINE, refine_len);
    let mut cut_norms = vec![0u64; shards - 1];
    {
        let sample = &sample[..];
        let cuts_sm = SharedMut::new(cut_norms.as_mut_slice());
        let regions = SharedMut::new(refine.as_mut_slice());
        let (targets, region_ends, root) = (&targets[..], &region_ends[..], &root_hist[..]);
        exec.for_each_task_probed(targets.len(), None, |i, _| {
            let target = targets[i];
            let cut_norm = if sample.is_empty() {
                // No data: fall back to an equal-width partition of the key
                // space itself.
                ((u128::from(u64::MAX) + 1) * (fracs[i] * 1024.0) as u128 / 1024)
                    .min(u128::from(u64::MAX)) as u64
            } else {
                let start = if i == 0 { 0 } else { region_ends[i - 1] };
                // SAFETY: cut `i`'s region lies between the previous cut's
                // region end and its own, and task `i` alone touches it.
                let region = unsafe { regions.slice_mut(start, region_ends[i] - start) };
                descend(sample, region, target, levels, cfg.digit_bits, root)
            };
            // SAFETY: task `i` is the only writer of slot `i`.
            unsafe { cuts_sm.write(i, cut_norm) };
        });
    }
    arena.put_buffer(ROLE_SPLITTER_SAMPLE, sample);
    arena.put_buffer(ROLE_SPLITTER_REFINE, refine);
    let mut cuts: Vec<u64> = cut_norms.iter().map(|&c| c >> norm_shift).collect();

    // Enforce strict monotonicity (heavy skew can collapse neighbouring
    // targets into the same histogram bin); a forced one-step cut yields an
    // empty shard but keeps the ranges a true partition of the key space.
    let mut prev = 0u64;
    for (i, cut) in cuts.iter_mut().enumerate() {
        let floor = prev + 1;
        let ceil = max_radix - (shards as u64 - 2 - i as u64);
        *cut = (*cut).clamp(floor, ceil);
        prev = *cut;
    }

    SplitterSet {
        cuts,
        key_bits: K::BITS,
    }
}

/// Scatters the input into one key (and value) buffer per shard, consuming
/// the input buffers.  It runs the engine's partition pass into one
/// buffer, then moves each shard but the first into a `Vec` of its own,
/// shrinking the buffer to the first shard.
pub fn scatter_into_shards<K: SortKey, V: SortValue>(
    keys: &mut Vec<K>,
    values: &mut Vec<V>,
    splitters: &SplitterSet,
    exec: &Executor,
) -> (Vec<Vec<K>>, Vec<Vec<V>>) {
    let n = keys.len();
    let mut dst_keys = vec![K::default(); n];
    let mut dst_vals = vec![V::default(); if values.is_empty() { 0 } else { n }];
    let lens = scatter_into_round(
        keys,
        values,
        splitters,
        exec,
        &mut dst_keys,
        &mut dst_vals,
        &mut ScratchArena::new(),
    );
    keys.clear();
    values.clear();
    (
        split_lengths(dst_keys, &lens),
        split_lengths(dst_vals, &lens),
    )
}

/// Cuts `buf` into consecutive vectors of the given lengths (summing to
/// its length, or it is empty), each with the capacity of its length.  The
/// shards split off its end one by one and `buf` shrinks to what is left
/// after each, so at most `buf` and one split-off shard are held beyond
/// the shards already split off.
fn split_lengths<T>(mut buf: Vec<T>, lens: &[usize]) -> Vec<Vec<T>> {
    if buf.is_empty() {
        return lens.iter().map(|_| Vec::new()).collect();
    }
    let mut out: Vec<Vec<T>> = lens
        .iter()
        .skip(1)
        .rev()
        .map(|&len| {
            let shard = buf.split_off(buf.len() - len);
            buf.shrink_to_fit();
            shard
        })
        .collect();
    out.push(buf);
    out.reverse();
    out
}

/// Keys per block of the partition pass: each block is one histogram
/// task and one scatter stripe.
const PARTITION_BLOCK: usize = 64 * 1024;

/// Keys per block of a shard count: each cut re-reads the block, so it
/// should stay in the L1 cache.
const COUNT_BLOCK: usize = 2048;

/// Cuts up to which the partition bins a key by comparing it with every
/// cut ([`ShardBins`]); past them [`DigitBins`] looks it up in one step.
/// Over a 2²³-pair partition on two workers the two tied at 3 cuts; at 4,
/// 7 and 15 the lookup took about 0.9×, 0.75× and 0.55× the time
/// (CHANGES.md).
const DIRECT_CUTS: usize = 3;

/// The bins of a `p`-way partition: a key's shard, from every cut.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShardBins<'a> {
    splitters: &'a SplitterSet,
}

impl<'a> ShardBins<'a> {
    /// The shards of `splitters`, whose cuts must be sorted: the histogram
    /// counts a shard from the keys below each cut, the scatter from the
    /// cuts at or below the key, and the scatter's writes stay in the
    /// chunks the counts reserved only if the two agree.
    pub(crate) fn new(splitters: &'a SplitterSet) -> Self {
        assert!(
            splitters.cuts.is_sorted(),
            "splitter cuts must be sorted: {:?}",
            splitters.cuts
        );
        ShardBins { splitters }
    }
}

// SAFETY: a shard counts cuts, so it is at most `cuts.len()`, below
// `bins() = cuts.len() + 1`.
unsafe impl<K: SortKey> KeyBins<K> for ShardBins<'_> {
    #[inline]
    fn bins(&self) -> usize {
        self.splitters.num_shards()
    }

    #[inline(always)]
    fn bin(&self, key: &K) -> usize {
        self.splitters.shard_of(key.to_radix())
    }

    /// Counts cut by cut: shards `0..=s` hold the keys below cut `s`, so
    /// the difference of neighbouring cuts' counts is a shard's population
    /// (the cuts are sorted, see [`ShardBins::new`]).
    fn count_into(&self, keys: &[K], counts: &mut [u32]) {
        let cuts = &self.splitters.cuts;
        for block in keys.chunks(COUNT_BLOCK) {
            let mut below_prev = 0;
            for (s, &cut) in cuts.iter().enumerate() {
                let below = block.iter().filter(|k| k.to_radix() < cut).count();
                counts[s] += (below - below_prev) as u32;
                below_prev = below;
            }
            counts[cuts.len()] += (block.len() - below_prev) as u32;
        }
    }
}

/// The same bins as [`ShardBins`], looked up by the key's first 8-bit
/// digit while no two cuts share one: the cuts whose first digit is below
/// the key's lie below the key, those above lie above, and a cut of the
/// key's own first digit is compared on the low bits.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DigitBins {
    /// Per first digit: the cuts whose first digit is below it.
    below: [u32; 256],
    /// Per first digit: its cut's low bits, or a value above all low bits.
    low_cuts: [u64; 256],
    /// Bits below the first digit.
    shift: u32,
    bins: usize,
}

impl DigitBins {
    /// The table of `splitters`' cuts, if no two share a first digit.
    pub(crate) fn new(splitters: &SplitterSet) -> Option<Self> {
        let shift = splitters.key_bits - splitters.key_bits.min(8);
        let low_mask = (1u64 << shift) - 1;
        let mut bins = DigitBins {
            below: [0; 256],
            low_cuts: [low_mask + 1; 256],
            shift,
            bins: splitters.num_shards(),
        };
        let mut prev = None;
        for (i, &cut) in splitters.cuts.iter().enumerate() {
            let d = (cut >> shift) as usize;
            if prev >= Some(d) || d > 255 {
                return None;
            }
            bins.below[prev.map_or(0, |p| p + 1)..=d].fill(i as u32);
            bins.low_cuts[d] = cut & low_mask;
            prev = Some(d);
        }
        bins.below[prev.map_or(0, |p| p + 1)..].fill(splitters.cuts.len() as u32);
        Some(bins)
    }
}

// SAFETY: a shard counts the cuts below the key's first digit and at most
// one more, so it is at most `cuts.len()`, below `bins()`.
unsafe impl<K: SortKey> KeyBins<K> for DigitBins {
    #[inline]
    fn bins(&self) -> usize {
        self.bins
    }

    #[inline(always)]
    fn bin(&self, key: &K) -> usize {
        let radix = key.to_radix();
        let d = (radix >> self.shift) as usize & 0xFF;
        let low = radix & ((1u64 << self.shift) - 1);
        self.below[d] as usize + usize::from(self.low_cuts[d] <= low)
    }
}

/// Scatters `keys` (and `values`) into `dst_keys` (and `dst_vals`), of the
/// inputs' lengths, with the shards back to back in shard order and each
/// in input order; returns each shard's length.  This is the sharded
/// engine's partition: one counting pass on `exec` over the input as one
/// bucket, binned by [`ShardBins`] or [`DigitBins`], on `arena`'s pass
/// scratch.  Value
/// slices may be empty when `V` is zero-sized.
pub(crate) fn scatter_into_round<K: SortKey, V: SortValue>(
    keys: &[K],
    values: &[V],
    splitters: &SplitterSet,
    exec: &Executor,
    dst_keys: &mut [K],
    dst_vals: &mut [V],
    arena: &mut ScratchArena,
) -> Vec<usize> {
    // The counting pass of the sort, with the model's bookkeeping off (an
    // atomics-only histogram, which is the shard count, no look-ahead, no
    // merging of the unused classification) and the scatter direct: with
    // `p` bins a staged line fills every few keys and is flushed right
    // after its stores, and a 2²³-pair pass into two bins took about
    // 50 ms staged against 30 ms direct (CHANGES.md).
    let mut config = SortConfig::keys_64();
    config.keys_per_block = PARTITION_BLOCK;
    let opts = Optimizations {
        bucket_merging: false,
        lookahead: false,
        thread_reduction_histogram: false,
        staged_scatter: false,
        ..Optimizations::all_on()
    };
    let cx = PassContext {
        config: &config,
        opts: &opts,
        exec,
        probe: None,
    };
    let scratch = &mut arena.pass;
    let bins = ShardBins::new(splitters);
    match (splitters.cuts.len() > DIRECT_CUTS)
        .then(|| DigitBins::new(splitters))
        .flatten()
    {
        Some(table) => partition_pass(&cx, keys, values, dst_keys, dst_vals, table, scratch),
        _ => partition_pass(&cx, keys, values, dst_keys, dst_vals, bins, scratch),
    }
    // Untraced, the pass leaves its one bucket's bin counts here.
    scratch.bucket_hist.iter().map(|&c| c as usize).collect()
}

/// The counting pass of [`scatter_into_round`] over `bins`.
fn partition_pass<K: SortKey, V: SortValue, B: KeyBins<K>>(
    cx: &PassContext<'_>,
    keys: &[K],
    values: &[V],
    dst_keys: &mut [K],
    dst_vals: &mut [V],
    bins: B,
    scratch: &mut PassScratch,
) {
    let mut local = std::mem::take(&mut scratch.local);
    let mut counting = std::mem::take(&mut scratch.counting_out);
    run_counting_pass(
        cx,
        keys,
        dst_keys,
        values,
        dst_vals,
        0,
        &[Bucket::root(keys.len())],
        0,
        bins,
        scratch,
        &mut [],
        &mut [],
        &mut local,
        &mut counting,
        None,
    );
    (scratch.local, scratch.counting_out) = (local, counting);
}

/// The bin of `hist` in which rank `target` falls (the last bin if none
/// reaches it), with the number of keys in the bins before it and in the
/// bin itself.
fn pick_bin(hist: &[u64], target: f64) -> (usize, f64, usize) {
    let mut cum_before = 0.0;
    for (b, &count) in hist.iter().enumerate() {
        if cum_before + count as f64 >= target || b == hist.len() - 1 {
            return (b, cum_before, count as usize);
        }
        cum_before += count as f64;
    }
    unreachable!("a digit histogram has at least one bin")
}

/// Descends the sample's digit histograms from `root_hist` (level 0) to
/// locate the radix value whose rank is closest to `target`, and returns a
/// cut aligned to the finest refined digit boundary.  Where the target
/// falls inside a populated bin, the walk refines on the next digit,
/// restricted to that bin's keys: they are filtered into `region` (which
/// holds exactly the level-0 bin's keys) and narrowed there in place.
fn descend(
    sample: &[u64],
    region: &mut [u64],
    mut target: f64,
    levels: u32,
    digit_bits: u32,
    root_hist: &[u64],
) -> u64 {
    let radix = 1usize << digit_bits;
    let mask = (radix - 1) as u64;
    let mut hist = Vec::new();
    let mut prefix = 0u64;
    let mut len = 0usize;
    for level in 0..levels {
        let shift = 64 - digit_bits * (level + 1);
        let counts = if level == 0 { root_hist } else { &hist[..] };
        let (b, cum_before, count) = pick_bin(counts, target);
        let bin_lo = prefix | ((b as u64) << shift);
        if count > 1 && level + 1 < levels {
            let in_bin = |k: u64| (k >> shift) & mask == b as u64;
            if level == 0 {
                for (slot, k) in region
                    .iter_mut()
                    .zip(sample.iter().copied().filter(|&k| in_bin(k)))
                {
                    *slot = k;
                }
            } else {
                let mut kept = 0;
                for i in 0..len {
                    if in_bin(region[i]) {
                        region[kept] = region[i];
                        kept += 1;
                    }
                }
            }
            len = count;
            let next_shift = shift - digit_bits;
            hist.clear();
            hist.resize(radix, 0u64);
            for &k in &region[..len] {
                hist[((k >> next_shift) & mask) as usize] += 1;
            }
            prefix = bin_lo;
            target -= cum_before;
            continue;
        }
        // Out of refinement levels: snap to the nearer bin boundary.
        if target - cum_before <= count as f64 / 2.0 {
            return bin_lo;
        }
        let bin_hi = u128::from(prefix) + ((b as u128 + 1) << shift);
        return bin_hi.min(u128::from(u64::MAX)) as u64;
    }
    unreachable!("the last level always snaps")
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{uniform_keys, ZipfGenerator};

    fn shard_counts<K: SortKey>(keys: &[K], s: &SplitterSet) -> Vec<usize> {
        let mut counts = vec![0usize; s.num_shards()];
        for k in keys {
            counts[s.shard_of(k.to_radix())] += 1;
        }
        counts
    }

    #[test]
    fn uniform_keys_split_evenly() {
        let keys = uniform_keys::<u64>(200_000, 1);
        let s = compute_splitters(&keys, &[1.0; 4], &PartitionConfig::default());
        s.validate().unwrap();
        let counts = shard_counts(&keys, &s);
        for &c in &counts {
            let expected = keys.len() / 4;
            assert!(
                (c as f64 - expected as f64).abs() < expected as f64 * 0.1,
                "unbalanced shards: {counts:?}"
            );
        }
    }

    #[test]
    fn weighted_split_follows_capacity() {
        let keys = uniform_keys::<u64>(200_000, 2);
        let s = compute_splitters(&keys, &[3.0, 1.0], &PartitionConfig::default());
        let counts = shard_counts(&keys, &s);
        let frac = counts[0] as f64 / keys.len() as f64;
        assert!((frac - 0.75).abs() < 0.05, "weighted fraction {frac}");
    }

    #[test]
    fn zipf_keys_balance_through_refinement() {
        let keys: Vec<u64> = ZipfGenerator::paper_keys(300_000, 3);
        let s = compute_splitters(&keys, &[1.0; 4], &PartitionConfig::default());
        s.validate().unwrap();
        let counts = shard_counts(&keys, &s);
        let max = *counts.iter().max().unwrap() as f64;
        // Perfect balance is impossible when single values repeat heavily,
        // but refinement must keep the largest shard well below "almost
        // everything in one shard".
        assert!(
            max < keys.len() as f64 * 0.55,
            "zipf shards too skewed: {counts:?}"
        );
    }

    #[test]
    fn constant_input_still_partitions_the_key_space() {
        let keys = vec![0xABCDu32; 10_000];
        let s = compute_splitters(&keys, &[1.0; 4], &PartitionConfig::default());
        s.validate().unwrap();
        let ranges = s.ranges();
        assert_eq!(ranges.len(), 4);
        assert_eq!(ranges[0].0, 0);
        assert_eq!(ranges[3].1, u32::MAX as u64);
        // All keys land in exactly one shard.
        let counts = shard_counts(&keys, &s);
        assert_eq!(counts.iter().sum::<usize>(), keys.len());
        assert_eq!(*counts.iter().max().unwrap(), keys.len());
    }

    #[test]
    fn ranges_tile_the_key_space_without_gaps() {
        let keys = uniform_keys::<u32>(50_000, 5);
        for shards in [2usize, 3, 5, 8] {
            let s = compute_splitters(&keys, &vec![1.0; shards], &PartitionConfig::default());
            s.validate().unwrap();
            let ranges = s.ranges();
            assert_eq!(ranges[0].0, 0);
            for w in ranges.windows(2) {
                assert_eq!(w[0].1 + 1, w[1].0, "gap or overlap between {w:?}");
            }
            assert_eq!(ranges.last().unwrap().1, u32::MAX as u64);
        }
    }

    #[test]
    fn empty_input_falls_back_to_equal_width() {
        let keys: Vec<u64> = Vec::new();
        let s = compute_splitters(&keys, &[1.0, 1.0], &PartitionConfig::default());
        s.validate().unwrap();
        // The single cut should sit near the middle of the key space.
        let mid = s.cuts[0] as f64 / u64::MAX as f64;
        assert!((mid - 0.5).abs() < 0.01, "fallback cut at {mid}");
    }

    #[test]
    fn single_shard_has_no_cuts() {
        let keys = uniform_keys::<u64>(1_000, 7);
        let s = compute_splitters(&keys, &[1.0], &PartitionConfig::default());
        assert_eq!(s.num_shards(), 1);
        assert_eq!(s.ranges(), vec![(0, u64::MAX)]);
    }

    #[test]
    fn scatter_into_shards_routes_every_key() {
        let keys = uniform_keys::<u64>(150_000, 21);
        let s = compute_splitters(&keys, &[1.0; 4], &PartitionConfig::default());
        let mut k = keys.clone();
        let mut v: Vec<u32> = (0..150_000).collect();
        let (shard_keys, shard_vals) =
            scatter_into_shards(&mut k, &mut v, &s, &Executor::Sequential);
        assert!(k.is_empty() && v.is_empty());
        assert_eq!(shard_keys.iter().map(Vec::len).sum::<usize>(), 150_000);
        for (si, (ks, vs)) in shard_keys.iter().zip(shard_vals.iter()).enumerate() {
            assert_eq!(ks.len(), vs.len());
            // Every shard is sized to itself, the first one included.
            assert_eq!((ks.capacity(), vs.capacity()), (ks.len(), vs.len()));
            for (key, &val) in ks.iter().zip(vs.iter()) {
                assert_eq!(s.shard_of(key.to_radix()), si);
                // Values still ride with their original keys.
                assert_eq!(keys[val as usize], *key);
            }
        }
    }

    #[test]
    fn parallel_scatter_matches_sequential() {
        let keys = uniform_keys::<u32>(200_000, 22);
        let s = compute_splitters(&keys, &[2.0, 1.0, 1.0], &PartitionConfig::default());
        let mut k_seq = keys.clone();
        let mut v_seq: Vec<()> = Vec::new();
        let (seq, _) = scatter_into_shards(&mut k_seq, &mut v_seq, &s, &Executor::Sequential);
        for workers in [2usize, 7] {
            let mut k_par = keys.clone();
            let mut v_par: Vec<()> = Vec::new();
            let (par, _) =
                scatter_into_shards(&mut k_par, &mut v_par, &s, &Executor::with_workers(workers));
            assert_eq!(seq, par, "workers = {workers}");
        }
    }

    /// The binary search `shard_of` replaced.
    fn reference_shard(s: &SplitterSet, radix: u64) -> usize {
        s.cuts.partition_point(|&c| c <= radix)
    }

    /// `shard_of` and the partition's bin function against the reference at
    /// either side of every cut and at both ends of the key space.
    fn check_lookup<K: SortKey>(keys: &[K], from_radix: impl Fn(u64) -> K) {
        for p in 1..=9usize {
            let s = compute_splitters(keys, &vec![1.0; p], &PartitionConfig::default());
            assert_eq!(s.num_shards(), p);
            let mut probes = vec![0, s.max_radix()];
            for &cut in &s.cuts {
                probes.extend([cut - 1, cut, cut.saturating_add(1).min(s.max_radix())]);
            }
            let probe_keys: Vec<K> = probes.iter().map(|&r| from_radix(r)).collect();
            // The partition's bins: shards, also counted cut by cut, and
            // the same shards by first digit.
            let bins = ShardBins::new(&s);
            let mut counts = vec![0u32; p];
            bins.count_into(&probe_keys, &mut counts);
            // The table exists exactly when no two cuts share a first digit.
            let table = DigitBins::new(&s);
            let digit = |cut: &u64| cut >> (K::BITS - 8);
            let distinct = s.cuts.windows(2).all(|w| digit(&w[0]) < digit(&w[1]));
            assert_eq!(table.is_some(), distinct, "p = {p}");
            let mut expected_counts = vec![0u32; p];
            for (&radix, key) in probes.iter().zip(&probe_keys) {
                assert_eq!(key.to_radix(), radix);
                let expected = reference_shard(&s, radix);
                expected_counts[expected] += 1;
                assert_eq!(s.shard_of(radix), expected, "p = {p}, radix {radix}");
                assert_eq!(bins.bin(key), expected, "p = {p}, radix {radix}");
                if let Some(table) = table {
                    assert_eq!(table.bin(key), expected, "p = {p}, radix {radix}");
                }
            }
            assert_eq!(counts, expected_counts, "p = {p}");
            if let Some(table) = table {
                let mut table_counts = vec![0u32; p];
                table.count_into(&probe_keys, &mut table_counts);
                assert_eq!(table_counts, expected_counts, "p = {p}");
            }
        }
    }

    #[test]
    fn branchless_lookup_matches_binary_search() {
        check_lookup(&uniform_keys::<u32>(20_000, 41), |r| r as u32);
        check_lookup(&uniform_keys::<u64>(20_000, 42), |r| r);
        // Constant keys force consecutive cuts, all in one first digit
        // (u64), or each its own (u8).
        check_lookup(&vec![0xAB00_0000_0000_0005u64; 1_000], |r| r);
        check_lookup(&vec![7u8; 1_000], |r| r as u8);
    }

    #[test]
    fn round_scatter_is_identical_for_any_worker_count() {
        // Three full blocks and a ragged fourth.
        let n = 3 * PARTITION_BLOCK + 17;
        let uniform = uniform_keys::<u64>(n, 43);
        let rows: Vec<u32> = (0..n as u32).collect();
        for p in [2usize, 3, 5, 8] {
            let s = compute_splitters(&uniform, &vec![1.0; p], &PartitionConfig::default());
            // Plant keys on and just below every cut, where an off-by-one
            // in the count or the lookup would show.
            let mut keys = uniform.clone();
            for (i, k) in keys.iter_mut().step_by(97).enumerate() {
                *k = s.cuts[i % (p - 1)] - (i / (p - 1) % 2) as u64;
            }
            // Each shard in input order, shards back to back.
            let mut expected: Vec<(u64, u32)> = keys.iter().copied().zip(rows.clone()).collect();
            expected.sort_by_key(|&(k, _)| reference_shard(&s, k));
            let expected_lens: Vec<usize> = (0..p)
                .map(|i| {
                    keys.iter()
                        .filter(|&&k| reference_shard(&s, k) == i)
                        .count()
                })
                .collect();
            for exec in [
                Executor::Sequential,
                Executor::with_workers(2),
                Executor::with_workers(3),
            ] {
                let (mut dst_keys, mut dst_rows) = (vec![0u64; n], vec![0u32; n]);
                let lens = scatter_into_round(
                    &keys,
                    &rows,
                    &s,
                    &exec,
                    &mut dst_keys,
                    &mut dst_rows,
                    &mut ScratchArena::new(),
                );
                let label = format!("p = {p}, {}", exec.label());
                assert_eq!(lens, expected_lens, "{label}");
                assert!(
                    dst_keys
                        .iter()
                        .copied()
                        .zip(dst_rows)
                        .eq(expected.iter().copied()),
                    "{label}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "splitter cuts must be sorted")]
    fn unsorted_cuts_are_refused_before_any_write() {
        let s = SplitterSet {
            cuts: vec![1 << 40, 1 << 20],
            key_bits: 64,
        };
        let mut keys = uniform_keys::<u64>(1_000, 44);
        scatter_into_shards(&mut keys, &mut Vec::<()>::new(), &s, &Executor::Sequential);
    }

    #[test]
    fn parallel_splitter_descent_matches_sequential() {
        let uniform = uniform_keys::<u64>(200_000, 31);
        let zipf: Vec<u64> = ZipfGenerator::paper_keys(200_000, 5);
        let weights = [2.0, 1.0, 1.0, 1.0, 3.0];
        for keys in [&uniform, &zipf] {
            let seq = compute_splitters(keys, &weights, &PartitionConfig::default());
            seq.validate().unwrap();
            for workers in [2usize, 7] {
                let par = compute_splitters_with(
                    keys,
                    &weights,
                    &PartitionConfig::default(),
                    &Executor::with_workers(workers),
                );
                assert_eq!(seq, par, "workers = {workers}");
            }
        }
    }

    #[test]
    fn sorted_input_splits_evenly() {
        let mut keys = uniform_keys::<u64>(100_000, 11);
        keys.sort_unstable();
        let s = compute_splitters(&keys, &[1.0; 8], &PartitionConfig::default());
        s.validate().unwrap();
        let counts = shard_counts(&keys, &s);
        for &c in &counts {
            assert!(c > keys.len() / 16, "sorted shards unbalanced: {counts:?}");
        }
    }
}
