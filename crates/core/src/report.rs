//! Instrumentation collected while the hybrid radix sort executes.
//!
//! Every counting-sort pass and the local-sort phase record the quantities
//! the GPU cost model needs: keys processed, blocks launched, shared-memory
//! atomic updates issued (before and after the thread-reduction / look-ahead
//! combining), how many digit values each block actually touched, and how
//! many sub-buckets were produced, merged or forwarded.  [`SortReport`]
//! bundles those statistics with the simulated execution breakdown.

use crate::cost::SimBreakdown;
use serde::{Deserialize, Serialize};

/// Statistics of one counting-sort pass (all buckets partitioned on the
/// same digit index).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct PassStats {
    /// Digit index of this pass (0 = most-significant digit).
    pub pass: u32,
    /// Keys processed by this pass.
    pub n_keys: u64,
    /// Buckets partitioned by this pass.
    pub n_buckets: u64,
    /// Key blocks processed (histogram + scatter each touch every block).
    pub n_blocks: u64,
    /// Radix of the digit partitioned on.
    pub radix: usize,
    /// Shared-memory atomic updates issued by the histogram kernel (after
    /// thread-reduction combining when that optimisation is enabled).
    pub histogram_updates: u64,
    /// Shared-memory atomic updates issued while staging the scatter in
    /// shared memory (after look-ahead combining when enabled and the
    /// distribution is skewed enough).
    pub scatter_updates: u64,
    /// Average number of distinct digit values observed per block — the
    /// contention measure fed into the shared-memory atomic model.
    pub avg_block_distinct: f64,
    /// Average number of occupied sub-buckets per block — drives the
    /// scatter's memory-transaction efficiency (Section 4.4).
    pub avg_occupied_sub_buckets: f64,
    /// Fraction of this pass's keys that fell into the single most
    /// populated digit value (1.0 for a constant distribution).
    pub max_bin_fraction: f64,
    /// Sub-buckets produced by the pass (before merging, non-empty only).
    pub sub_buckets_created: u64,
    /// Buckets handed to the local sort after this pass (after merging).
    pub local_buckets_created: u64,
    /// Buckets forwarded to the next counting-sort pass.
    pub counting_buckets_forwarded: u64,
    /// Blocks for which the look-ahead write combining was active.
    pub lookahead_active_blocks: u64,
    /// Whole write-combining lines the staged scatter wrote, counted for a
    /// line-aligned destination (0 when the staged scatter is disabled).
    pub staged_lines: u64,
    /// Line fragments the staged scatter wrote with plain stores: chunk
    /// heads and tails that share a line with a neighbouring chunk.
    pub partial_flushes: u64,
}

/// Aggregated statistics of all local sorts performed during a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct LocalSortStats {
    /// Number of buckets sorted locally (= thread blocks scheduled).
    pub invocations: u64,
    /// Keys sorted locally.
    pub n_keys: u64,
    /// Sum of the per-invocation provisioned sizes (the size class each
    /// bucket was scheduled under; equals `n_keys` rounded up to class
    /// boundaries when multiple configurations are enabled, or
    /// `invocations × ∂̂` for the single-configuration ablation).
    pub provisioned_keys: u64,
    /// Buckets that were produced by merging tiny neighbouring sub-buckets.
    pub merged_buckets: u64,
    /// Largest bucket sorted locally.
    pub largest_bucket: u64,
    /// Number of distinct size classes used (= local-sort kernel launches).
    pub classes_used: u64,
}

impl LocalSortStats {
    /// Accumulates the local sorts of another set of buckets: counts add
    /// up, the largest bucket and the class count take the maximum.
    pub fn absorb(&mut self, other: &LocalSortStats) {
        self.invocations += other.invocations;
        self.n_keys += other.n_keys;
        self.provisioned_keys += other.provisioned_keys;
        self.merged_buckets += other.merged_buckets;
        self.largest_bucket = self.largest_bucket.max(other.largest_bucket);
        self.classes_used = self.classes_used.max(other.classes_used);
    }
}

/// Full report of one hybrid-radix-sort run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SortReport {
    /// Number of elements sorted.
    pub n: u64,
    /// Key width in bytes.
    pub key_bytes: u32,
    /// Value width in bytes (0 for key-only sorts).
    pub value_bytes: u32,
    /// Per-pass statistics of the counting-sort passes that actually ran.
    pub passes: Vec<PassStats>,
    /// Local-sort statistics.
    pub local: LocalSortStats,
    /// Total number of (non-empty) sub-buckets created over the whole run.
    pub total_sub_buckets: u64,
    /// Maximum number of buckets alive at the end of any pass.
    pub max_live_buckets: u64,
    /// Whether the run took the small-input fallback (one local sort of the
    /// whole input) because the input was below the small-input threshold.
    pub fallback_comparison_sort: bool,
    /// Simulated execution breakdown on the configured GPU model.
    pub simulated: SimBreakdown,
}

impl SortReport {
    /// Creates an empty report skeleton.
    pub fn new(n: u64, key_bytes: u32, value_bytes: u32) -> Self {
        SortReport {
            n,
            key_bytes,
            value_bytes,
            passes: Vec::new(),
            local: LocalSortStats::default(),
            total_sub_buckets: 0,
            max_live_buckets: 0,
            fallback_comparison_sort: false,
            simulated: SimBreakdown::empty(),
        }
    }

    /// Total input size in bytes (keys + values).
    pub fn input_bytes(&self) -> u64 {
        self.n * (self.key_bytes as u64 + self.value_bytes as u64)
    }

    /// Number of counting-sort passes that processed at least one key.
    pub fn counting_passes(&self) -> u32 {
        self.passes.iter().filter(|p| p.n_keys > 0).count() as u32
    }

    /// Scales every per-key statistic by `factor`, leaving structural counts
    /// (bucket and block counts, averages, fractions) untouched.  Used by
    /// the experiment harness to extrapolate a scaled-down functional run to
    /// the paper-scale input size; only valid when the run used a
    /// configuration scaled with [`crate::SortConfig::scaled_for`] so that
    /// the bucket structure matches the target size (see DESIGN.md).
    pub fn scale_per_key_stats(&mut self, factor: f64) {
        let scale = |v: &mut u64| *v = (*v as f64 * factor).round() as u64;
        scale(&mut self.n);
        for p in &mut self.passes {
            scale(&mut p.n_keys);
            scale(&mut p.histogram_updates);
            scale(&mut p.scatter_updates);
        }
        scale(&mut self.local.n_keys);
        scale(&mut self.local.provisioned_keys);
        scale(&mut self.local.largest_bucket);
    }

    /// Accumulates another run's statistics into this report, aligning
    /// counting passes by digit index.  This is the aggregation hook used by
    /// multi-device engines: each shard produces its own `SortReport`, and
    /// the fleet-wide view sums keys, blocks and atomic updates while
    /// keeping per-block averages as key-weighted means.  The `simulated`
    /// breakdown is *not* combined — shards execute concurrently, so their
    /// simulated times compose by critical path, not by addition; the
    /// caller owns that schedule.
    pub fn absorb(&mut self, other: &SortReport) {
        self.n += other.n;
        while self.passes.len() < other.passes.len() {
            let pass = self.passes.len() as u32;
            self.passes.push(PassStats {
                pass,
                ..PassStats::default()
            });
        }
        for (mine, theirs) in self.passes.iter_mut().zip(other.passes.iter()) {
            let total_keys = mine.n_keys + theirs.n_keys;
            let weighted = |a: f64, b: f64| {
                if total_keys == 0 {
                    0.0
                } else {
                    (a * mine.n_keys as f64 + b * theirs.n_keys as f64) / total_keys as f64
                }
            };
            mine.avg_block_distinct = weighted(mine.avg_block_distinct, theirs.avg_block_distinct);
            mine.avg_occupied_sub_buckets = weighted(
                mine.avg_occupied_sub_buckets,
                theirs.avg_occupied_sub_buckets,
            );
            mine.max_bin_fraction = mine.max_bin_fraction.max(theirs.max_bin_fraction);
            mine.radix = mine.radix.max(theirs.radix);
            mine.n_keys = total_keys;
            mine.n_buckets += theirs.n_buckets;
            mine.n_blocks += theirs.n_blocks;
            mine.histogram_updates += theirs.histogram_updates;
            mine.scatter_updates += theirs.scatter_updates;
            mine.sub_buckets_created += theirs.sub_buckets_created;
            mine.local_buckets_created += theirs.local_buckets_created;
            mine.counting_buckets_forwarded += theirs.counting_buckets_forwarded;
            mine.lookahead_active_blocks += theirs.lookahead_active_blocks;
            mine.staged_lines += theirs.staged_lines;
            mine.partial_flushes += theirs.partial_flushes;
        }
        self.local.absorb(&other.local);
        self.total_sub_buckets += other.total_sub_buckets;
        // Shards are live on different devices at the same time, so the
        // fleet-wide maximum is the sum of the per-device maxima.
        self.max_live_buckets += other.max_live_buckets;
        self.fallback_comparison_sort |= other.fallback_comparison_sort;
    }

    /// A one-line summary suitable for experiment logs.
    pub fn summary(&self) -> String {
        format!(
            "n={} ({} B/key, {} B/value): {} counting passes, {} local sorts over {} keys, {} sub-buckets, simulated {} at {}",
            self.n,
            self.key_bytes,
            self.value_bytes,
            self.counting_passes(),
            self.local.invocations,
            self.local.n_keys,
            self.total_sub_buckets,
            self.simulated.total,
            self.simulated.sorting_rate,
        )
    }

    /// A multi-line per-pass table for debugging and the experiment
    /// binaries.
    pub fn pass_table(&self) -> String {
        let mut out = String::from(
            "pass |      keys | buckets |  blocks | distinct/blk | occupied/blk | max-bin | locals | forwarded\n",
        );
        for p in &self.passes {
            out.push_str(&format!(
                "{:>4} | {:>9} | {:>7} | {:>7} | {:>12.1} | {:>12.1} | {:>6.2} | {:>6} | {:>9}\n",
                p.pass,
                p.n_keys,
                p.n_buckets,
                p.n_blocks,
                p.avg_block_distinct,
                p.avg_occupied_sub_buckets,
                p.max_bin_fraction,
                p.local_buckets_created,
                p.counting_buckets_forwarded,
            ));
        }
        out.push_str(&format!(
            "local sorts: {} invocations, {} keys, {} provisioned, {} merged buckets, largest {}\n",
            self.local.invocations,
            self.local.n_keys,
            self.local.provisioned_keys,
            self.local.merged_buckets,
            self.local.largest_bucket,
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> SortReport {
        let mut r = SortReport::new(1_000_000, 8, 8);
        r.passes.push(PassStats {
            pass: 0,
            n_keys: 1_000_000,
            n_buckets: 1,
            n_blocks: 290,
            radix: 256,
            histogram_updates: 1_000_000,
            scatter_updates: 1_000_000,
            avg_block_distinct: 250.0,
            avg_occupied_sub_buckets: 250.0,
            max_bin_fraction: 0.01,
            sub_buckets_created: 256,
            local_buckets_created: 0,
            counting_buckets_forwarded: 256,
            lookahead_active_blocks: 0,
            staged_lines: 58_000,
            partial_flushes: 290 * 256,
        });
        r.passes.push(PassStats {
            pass: 1,
            n_keys: 1_000_000,
            n_buckets: 256,
            n_blocks: 512,
            radix: 256,
            histogram_updates: 1_000_000,
            scatter_updates: 1_000_000,
            avg_block_distinct: 240.0,
            avg_occupied_sub_buckets: 240.0,
            max_bin_fraction: 0.01,
            sub_buckets_created: 65_000,
            local_buckets_created: 65_000,
            counting_buckets_forwarded: 0,
            lookahead_active_blocks: 0,
            staged_lines: 55_000,
            partial_flushes: 512 * 200,
        });
        r.local = LocalSortStats {
            invocations: 65_000,
            n_keys: 1_000_000,
            provisioned_keys: 1_200_000,
            merged_buckets: 10_000,
            largest_bucket: 4_000,
            classes_used: 4,
        };
        r.total_sub_buckets = 65_256;
        r.max_live_buckets = 65_000;
        r
    }

    #[test]
    fn input_bytes_counts_keys_and_values() {
        let r = sample_report();
        assert_eq!(r.input_bytes(), 16_000_000);
        let r2 = SortReport::new(100, 4, 0);
        assert_eq!(r2.input_bytes(), 400);
    }

    #[test]
    fn counting_passes_ignores_empty_passes() {
        let mut r = sample_report();
        assert_eq!(r.counting_passes(), 2);
        r.passes.push(PassStats::default());
        assert_eq!(r.counting_passes(), 2);
    }

    #[test]
    fn scaling_only_touches_per_key_fields() {
        let mut r = sample_report();
        let buckets_before = r.passes[1].n_buckets;
        let blocks_before = r.passes[1].n_blocks;
        let invocations_before = r.local.invocations;
        r.scale_per_key_stats(10.0);
        assert_eq!(r.n, 10_000_000);
        assert_eq!(r.passes[0].n_keys, 10_000_000);
        assert_eq!(r.passes[0].histogram_updates, 10_000_000);
        assert_eq!(r.local.n_keys, 10_000_000);
        assert_eq!(r.passes[1].n_buckets, buckets_before);
        assert_eq!(r.passes[1].n_blocks, blocks_before);
        assert_eq!(r.local.invocations, invocations_before);
    }

    #[test]
    fn absorb_sums_counts_and_weights_averages() {
        let mut a = sample_report();
        let b = sample_report();
        let keys_before = a.passes[0].n_keys;
        let distinct_before = a.passes[0].avg_block_distinct;
        a.absorb(&b);
        assert_eq!(a.n, 2_000_000);
        assert_eq!(a.passes[0].n_keys, 2 * keys_before);
        // Equal-weight absorb of an identical report keeps the average.
        assert!((a.passes[0].avg_block_distinct - distinct_before).abs() < 1e-9);
        assert_eq!(a.local.n_keys, 2_000_000);
        assert_eq!(a.local.invocations, 130_000);
        assert_eq!(a.max_live_buckets, 130_000);
        assert_eq!(a.total_sub_buckets, 2 * 65_256);
        assert_eq!(a.passes[0].staged_lines, 2 * 58_000);
        assert_eq!(a.passes[0].partial_flushes, 2 * 290 * 256);
    }

    #[test]
    fn absorb_pads_missing_passes() {
        let mut a = SortReport::new(10, 4, 0);
        let b = sample_report();
        a.absorb(&b);
        assert_eq!(a.passes.len(), b.passes.len());
        assert_eq!(a.passes[1].n_keys, b.passes[1].n_keys);
        assert_eq!(a.counting_passes(), 2);
    }

    #[test]
    fn summary_and_table_render() {
        let r = sample_report();
        let s = r.summary();
        assert!(s.contains("2 counting passes"));
        assert!(s.contains("65000 local sorts"));
        let t = r.pass_table();
        assert!(t.contains("pass |"));
        assert!(t.lines().count() >= 4);
    }
}
