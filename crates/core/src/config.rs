//! Sort configuration (Table 3 of the paper).
//!
//! The configuration fixes the digit width (`d = 8` bits, chosen in
//! Section 4.4 as the trade-off between pass count and worst-case memory
//! efficiency), the number of keys per block (`KPB`), threads per block and
//! keys per thread (`KPT`), the local-sort threshold ∂̂ (the largest bucket
//! that still fits into on-chip shared memory) and the merge threshold ∂
//! (neighbouring sub-buckets whose combined size stays below ∂ are merged
//! before local sorting).
//!
//! | key/value size        | KPB   | threads | KPT | ∂̂     |
//! |-----------------------|-------|---------|-----|-------|
//! | 32-bit keys           | 6 912 | 384     | 18  | 9 216 |
//! | 64-bit keys           | 3 456 | 384     | 9   | 4 224 |
//! | 32-bit/32-bit pairs   | 3 456 | 384     | 18  | 5 760 |
//! | 64-bit/64-bit pairs   | 2 304 | 256     | 9   | 3 840 |
//!
//! A host CPU has no 48 KB shared-memory limit: [`SortConfig::for_device`]
//! sizes its ∂̂ to the cache a worker sorts a bucket in, so a CPU lane's
//! buckets leave the counting passes as soon as they fit there.

use gpu_sim::{BlockResources, DeviceSpec, GpuGeneration, Occupancy};
use serde::{Deserialize, Serialize};

/// One local-sort configuration: a kernel specialised for buckets whose
/// size falls into `(min_keys, max_keys]`, launched with `threads` threads
/// per block (Section 4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LocalSortClass {
    /// Exclusive lower bound on the bucket size handled by this class.
    pub min_keys: usize,
    /// Inclusive upper bound on the bucket size handled by this class.
    pub max_keys: usize,
    /// Threads provisioned per thread block for this class.
    pub threads: u32,
}

impl LocalSortClass {
    /// Whether a bucket of `len` keys is handled by this class.
    pub fn covers(&self, len: usize) -> bool {
        len > self.min_keys && len <= self.max_keys
    }
}

/// Configuration of the hybrid radix sort.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SortConfig {
    /// Bits per digit (`d`); the paper uses eight.
    pub digit_bits: u32,
    /// Keys per block (`KPB`).
    pub keys_per_block: usize,
    /// Threads per block for the counting-sort kernels.
    pub threads_per_block: u32,
    /// Keys per thread (`KPT`).
    pub keys_per_thread: u32,
    /// Local-sort threshold ∂̂: buckets of at most this many keys are sorted
    /// in shared memory.
    pub local_sort_threshold: usize,
    /// Merge threshold ∂ (≤ ∂̂): neighbouring sub-buckets are merged while
    /// their combined size stays below this value.
    pub merge_threshold: usize,
    /// Size classes for the local sort (smallest first).
    pub local_sort_classes: Vec<LocalSortClass>,
    /// Skew threshold: the scatter look-ahead is only enabled when the most
    /// populated digit value of a block holds at least this fraction of the
    /// block's keys.
    pub lookahead_skew_threshold: f64,
    /// Number of keys each thread inspects beyond the current one when
    /// combining writes ("look-ahead of two" in the paper).
    pub lookahead: u32,
    /// Inputs of at most this many keys skip the partitioning passes and
    /// go straight to the local-sort kernel — Section 6.1 notes CUB has the
    /// edge below ~1.9 M keys and that a simple case distinction would be
    /// used in practice.
    pub small_input_fallback: usize,
    /// Bytes per software write-combining line in the staged scatter
    /// (Wassenberg & Sanders): each worker stages keys of one digit value
    /// in a line this large and flushes it to the destination with a single
    /// contiguous copy.  The default of 64 matches a typical cache line;
    /// any positive value works and odd sizes merely change how many keys
    /// fit per line (`scatter_line_bytes / key_width`, at least one).
    pub scatter_line_bytes: usize,
}

impl SortConfig {
    /// The radix `r = 2^d`.
    pub fn radix(&self) -> usize {
        1usize << self.digit_bits
    }

    /// Default configuration for 32-bit keys without values (Table 3).
    pub fn keys_32() -> Self {
        SortConfig::build(6_912, 384, 18, 9_216)
    }

    /// Default configuration for 64-bit keys without values (Table 3).
    pub fn keys_64() -> Self {
        SortConfig::build(3_456, 384, 9, 4_224)
    }

    /// Default configuration for 32-bit keys with 32-bit values (Table 3).
    pub fn pairs_32_32() -> Self {
        SortConfig::build(3_456, 384, 18, 5_760)
    }

    /// Default configuration for 64-bit keys with 64-bit values (Table 3).
    pub fn pairs_64_64() -> Self {
        SortConfig::build(2_304, 256, 9, 3_840)
    }

    /// Selects the Table 3 configuration matching the given key and value
    /// widths (in bytes).  Unknown combinations fall back to the
    /// closest configuration by total record width.
    pub fn for_widths(key_bytes: u32, value_bytes: u32) -> Self {
        match (key_bytes, value_bytes) {
            (4, 0) => SortConfig::keys_32(),
            (8, 0) => SortConfig::keys_64(),
            (4, 4) => SortConfig::pairs_32_32(),
            (8, 8) => SortConfig::pairs_64_64(),
            _ => {
                let record = key_bytes + value_bytes;
                if record <= 4 {
                    SortConfig::keys_32()
                } else if record <= 8 {
                    SortConfig::keys_64()
                } else if record <= 12 {
                    SortConfig::pairs_32_32()
                } else {
                    SortConfig::pairs_64_64()
                }
            }
        }
    }

    /// The configuration a sorter modelling `device` uses for keys and
    /// values of the given widths (in bytes).  A GPU gets its Table 3 row.
    /// A host CPU gets the same row with ∂̂ sized to its on-chip memory
    /// (`max_shared_mem_per_block`, the cache one worker sorts in): half
    /// of it holds the bucket, half the local sort's ping-pong scratch.
    pub fn for_device(device: &DeviceSpec, key_bytes: u32, value_bytes: u32) -> Self {
        let table3 = SortConfig::for_widths(key_bytes, value_bytes);
        if device.generation != GpuGeneration::HostCpu {
            return table3;
        }
        let record = (key_bytes + value_bytes).max(1) as usize;
        table3.with_local_sort_threshold(device.max_shared_mem_per_block as usize / (2 * record))
    }

    fn build(kpb: usize, threads: u32, kpt: u32, local_threshold: usize) -> Self {
        SortConfig {
            digit_bits: 8,
            keys_per_block: kpb,
            threads_per_block: threads,
            keys_per_thread: kpt,
            local_sort_threshold: 0,
            merge_threshold: 0,
            local_sort_classes: Vec::new(),
            lookahead_skew_threshold: 0.5,
            lookahead: 2,
            small_input_fallback: 0,
            scatter_line_bytes: 64,
        }
        .with_local_sort_threshold(local_threshold)
    }

    /// Sets ∂̂ with what derives from it: ∂ = ∂̂ / 3 and the default size
    /// classes.
    fn with_local_sort_threshold(mut self, local_threshold: usize) -> Self {
        self.local_sort_threshold = local_threshold;
        self.merge_threshold = local_threshold / 3;
        self.local_sort_classes = SortConfig::default_classes(local_threshold);
        self
    }

    /// Keys per write-combining line for a key of `key_bytes` bytes: at
    /// least one, so a line size below the key width degenerates to the
    /// direct scatter (one "line" per key).
    pub fn scatter_line_keys(&self, key_bytes: usize) -> usize {
        (self.scatter_line_bytes / key_bytes.max(1)).max(1)
    }

    /// The default local-sort size classes: powers of two starting at 128
    /// keys, capped at ∂̂ (Section 4.2's `[1,128], (128,256], (256,512], …`).
    pub fn default_classes(local_threshold: usize) -> Vec<LocalSortClass> {
        let mut classes = Vec::new();
        let mut lower = 0usize;
        let mut upper = 128usize;
        while lower < local_threshold {
            let capped = upper.min(local_threshold);
            classes.push(LocalSortClass {
                min_keys: lower,
                max_keys: capped,
                threads: ((capped as u32).div_ceil(8)).clamp(32, 1_024),
            });
            lower = capped;
            upper *= 2;
        }
        classes
    }

    /// The local-sort class responsible for a bucket of `len` keys, or the
    /// single ∂̂-sized class when `single_class` is set (the ablation's
    /// "single local sort config").
    pub fn class_for(&self, len: usize, single_class: bool) -> LocalSortClass {
        if single_class || self.local_sort_classes.is_empty() {
            return LocalSortClass {
                min_keys: 0,
                max_keys: self.local_sort_threshold,
                threads: self.threads_per_block,
            };
        }
        self.local_sort_classes[self.class_index(len, false)]
    }

    /// Position in [`SortConfig::local_sort_classes`] of the class
    /// [`SortConfig::class_for`] picks (0 for the single ∂̂-sized class).
    pub fn class_index(&self, len: usize, single_class: bool) -> usize {
        if single_class {
            return 0;
        }
        self.local_sort_classes
            .iter()
            .position(|c| c.covers(len))
            .unwrap_or(self.local_sort_classes.len().saturating_sub(1))
    }

    /// Number of counting-sort passes needed to consume `key_bits` bits.
    pub fn num_passes(&self, key_bits: u32) -> u32 {
        key_bits.div_ceil(self.digit_bits)
    }

    /// Returns a copy of this configuration whose size thresholds (`KPB`,
    /// ∂̂, ∂ and the class boundaries) have been scaled by
    /// `n_actual / n_reference`.  The experiment harness uses this to run
    /// the sort functionally on a scaled-down input while preserving the
    /// *bucket structure* (number of passes, bucket counts) the paper-scale
    /// input would exhibit, so that traffic statistics can be extrapolated
    /// linearly (see DESIGN.md).
    pub fn scaled_for(&self, n_actual: usize, n_reference: usize) -> SortConfig {
        if n_reference == 0 || n_actual == 0 || n_actual >= n_reference {
            return self.clone();
        }
        let factor = n_actual as f64 / n_reference as f64;
        let scale = |v: usize, min: usize| ((v as f64 * factor).round() as usize).max(min);
        let local = scale(self.local_sort_threshold, 8);
        let mut cfg = self.clone();
        cfg.keys_per_block = scale(self.keys_per_block, 8);
        cfg.local_sort_threshold = local;
        cfg.merge_threshold = scale(self.merge_threshold, 4).min(local);
        // Scale the class boundaries proportionally (rather than rebuilding
        // the 128-key power-of-two ladder) so that the ratio between a
        // bucket's size and its provisioned class size matches the
        // paper-scale behaviour and the extrapolated provisioning cost stays
        // faithful.
        let mut classes = Vec::new();
        let mut prev = 0usize;
        for c in &self.local_sort_classes {
            let upper = (((c.max_keys as f64) * factor).round() as usize)
                .max(prev + 1)
                .min(local);
            if upper > prev {
                classes.push(LocalSortClass {
                    min_keys: prev,
                    max_keys: upper,
                    threads: c.threads.max(32),
                });
                prev = upper;
            }
        }
        if prev < local {
            classes.push(LocalSortClass {
                min_keys: prev,
                max_keys: local,
                threads: self.threads_per_block,
            });
        }
        cfg.local_sort_classes = classes;
        cfg
    }

    /// Shared-memory bytes a counting-sort block requires: staging space for
    /// `KPB` keys (and values) plus `r` 32-bit counters.
    pub fn counting_block_shared_mem(&self, key_bytes: u32, value_bytes: u32) -> u32 {
        (self.keys_per_block as u32) * key_bytes.max(value_bytes) + (self.radix() as u32) * 4
    }

    /// Occupancy of the counting-sort kernel on the given device (sanity
    /// check that the Table 3 configurations actually fit).
    pub fn counting_occupancy(
        &self,
        device: &DeviceSpec,
        key_bytes: u32,
        value_bytes: u32,
    ) -> Occupancy {
        let res = BlockResources::new(
            self.threads_per_block,
            32,
            self.counting_block_shared_mem(key_bytes, value_bytes),
        );
        Occupancy::compute(device, &res)
    }

    /// Validates internal consistency; returns a description of the first
    /// violated constraint, if any.
    pub fn validate(&self) -> Result<(), String> {
        if self.digit_bits == 0 || self.digit_bits > 16 {
            return Err(format!(
                "digit_bits must be in 1..=16, got {}",
                self.digit_bits
            ));
        }
        if self.keys_per_block == 0 {
            return Err("keys_per_block must be positive".to_string());
        }
        if self.merge_threshold > self.local_sort_threshold {
            return Err(format!(
                "merge threshold ({}) must not exceed the local sort threshold ({})",
                self.merge_threshold, self.local_sort_threshold
            ));
        }
        if self.local_sort_threshold == 0 {
            return Err("local_sort_threshold must be positive".to_string());
        }
        Ok(())
    }
}

impl Default for SortConfig {
    fn default() -> Self {
        SortConfig::keys_64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_3_values() {
        let c = SortConfig::keys_32();
        assert_eq!(
            (
                c.keys_per_block,
                c.threads_per_block,
                c.keys_per_thread,
                c.local_sort_threshold
            ),
            (6_912, 384, 18, 9_216)
        );
        let c = SortConfig::keys_64();
        assert_eq!(
            (
                c.keys_per_block,
                c.threads_per_block,
                c.keys_per_thread,
                c.local_sort_threshold
            ),
            (3_456, 384, 9, 4_224)
        );
        let c = SortConfig::pairs_32_32();
        assert_eq!(
            (
                c.keys_per_block,
                c.threads_per_block,
                c.keys_per_thread,
                c.local_sort_threshold
            ),
            (3_456, 384, 18, 5_760)
        );
        let c = SortConfig::pairs_64_64();
        assert_eq!(
            (
                c.keys_per_block,
                c.threads_per_block,
                c.keys_per_thread,
                c.local_sort_threshold
            ),
            (2_304, 256, 9, 3_840)
        );
    }

    #[test]
    fn key_only_configs_satisfy_kpb_equals_threads_times_kpt() {
        // For the key-only rows of Table 3, KPB = threads × KPT; the pair
        // configurations halve KPB because shared memory must also stage the
        // values.
        for c in [SortConfig::keys_32(), SortConfig::keys_64()] {
            assert_eq!(
                c.keys_per_block,
                (c.threads_per_block * c.keys_per_thread) as usize
            );
        }
        for c in [
            SortConfig::keys_32(),
            SortConfig::keys_64(),
            SortConfig::pairs_32_32(),
            SortConfig::pairs_64_64(),
        ] {
            assert!(c.validate().is_ok());
            assert!(c.keys_per_block <= (c.threads_per_block * c.keys_per_thread) as usize);
        }
    }

    #[test]
    fn radix_and_pass_count() {
        let c = SortConfig::keys_32();
        assert_eq!(c.radix(), 256);
        assert_eq!(c.num_passes(32), 4);
        assert_eq!(c.num_passes(64), 8);
        let mut c5 = c.clone();
        c5.digit_bits = 5;
        assert_eq!(c5.num_passes(32), 7);
        assert_eq!(c5.num_passes(64), 13);
    }

    #[test]
    fn for_widths_selects_table_3_rows() {
        assert_eq!(SortConfig::for_widths(4, 0), SortConfig::keys_32());
        assert_eq!(SortConfig::for_widths(8, 0), SortConfig::keys_64());
        assert_eq!(SortConfig::for_widths(4, 4), SortConfig::pairs_32_32());
        assert_eq!(SortConfig::for_widths(8, 8), SortConfig::pairs_64_64());
        // Unknown combination falls back to something sensible.
        let c = SortConfig::for_widths(8, 4);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn cpu_devices_size_the_local_threshold_to_their_cache() {
        let cpu = DeviceSpec::cpu_socket(1);
        let half = cpu.max_shared_mem_per_block as usize / 2;
        // u32 keys, u64 keys, u64 + u32 pairs, u64 + u64 pairs.
        for (kb, vb) in [(4u32, 0u32), (8, 0), (8, 4), (8, 8)] {
            let c = SortConfig::for_device(&cpu, kb, vb);
            let threshold = half / (kb + vb) as usize;
            assert_eq!(c.local_sort_threshold, threshold);
            assert_eq!(c.merge_threshold, threshold / 3);
            assert_eq!(c.local_sort_classes, SortConfig::default_classes(threshold));
            // Everything but ∂̂ and what derives from it is Table 3's.
            let table3 = SortConfig::for_widths(kb, vb);
            assert_eq!(
                (c.keys_per_block, c.threads_per_block, c.keys_per_thread),
                (
                    table3.keys_per_block,
                    table3.threads_per_block,
                    table3.keys_per_thread
                )
            );
            assert!(c.validate().is_ok(), "{c:?}");
        }
        // GPUs keep Table 3.
        for gpu in [
            DeviceSpec::titan_x_pascal(),
            DeviceSpec::gtx_980(),
            DeviceSpec::tesla_p100(),
        ] {
            assert_eq!(
                SortConfig::for_device(&gpu, 8, 4),
                SortConfig::for_widths(8, 4)
            );
            assert_eq!(SortConfig::for_device(&gpu, 4, 0), SortConfig::keys_32());
        }
    }

    #[test]
    fn local_sort_classes_cover_the_whole_range() {
        let c = SortConfig::keys_32();
        for len in [1usize, 100, 128, 129, 1_000, 5_000, 9_216] {
            let class = c.class_for(len, false);
            assert!(class.covers(len), "len {len} not covered by {class:?}");
        }
        // The single-class variant always provisions for ∂̂.
        let single = c.class_for(10, true);
        assert_eq!(single.max_keys, 9_216);
    }

    #[test]
    fn classes_are_contiguous_and_increasing() {
        let classes = SortConfig::default_classes(9_216);
        assert_eq!(classes.first().unwrap().min_keys, 0);
        assert_eq!(classes.last().unwrap().max_keys, 9_216);
        for w in classes.windows(2) {
            assert_eq!(w[0].max_keys, w[1].min_keys);
            assert!(w[0].max_keys < w[1].max_keys);
        }
    }

    #[test]
    fn table_3_configurations_fit_on_the_titan_x() {
        let device = DeviceSpec::titan_x_pascal();
        for (cfg, kb, vb) in [
            (SortConfig::keys_32(), 4u32, 0u32),
            (SortConfig::keys_64(), 8, 0),
            (SortConfig::pairs_32_32(), 4, 4),
            (SortConfig::pairs_64_64(), 8, 8),
        ] {
            let occ = cfg.counting_occupancy(&device, kb, vb);
            assert!(occ.blocks_per_sm >= 1, "{cfg:?} does not fit: {occ:?}");
        }
    }

    #[test]
    fn scaled_config_preserves_ratios() {
        let full = SortConfig::keys_64();
        let scaled = full.scaled_for(4_000_000, 250_000_000);
        let factor = 4_000_000f64 / 250_000_000f64;
        assert!(
            (scaled.local_sort_threshold as f64 - full.local_sort_threshold as f64 * factor).abs()
                <= 1.0
        );
        assert!(scaled.merge_threshold <= scaled.local_sort_threshold);
        assert!(scaled.validate().is_ok());
        // Not scaled when the actual size is at least the reference size.
        assert_eq!(full.scaled_for(250_000_000, 250_000_000), full);
        assert_eq!(full.scaled_for(500_000_000, 250_000_000), full);
    }

    #[test]
    fn scatter_line_keys_is_width_aware_and_never_zero() {
        let c = SortConfig::keys_32();
        assert_eq!(c.scatter_line_bytes, 64);
        assert_eq!(c.scatter_line_keys(4), 16);
        assert_eq!(c.scatter_line_keys(8), 8);
        let mut odd = c.clone();
        odd.scatter_line_bytes = 24;
        assert_eq!(odd.scatter_line_keys(8), 3);
        odd.scatter_line_bytes = 3;
        // Line smaller than the key width degenerates to direct writes.
        assert_eq!(odd.scatter_line_keys(8), 1);
        odd.scatter_line_bytes = 0;
        assert_eq!(odd.scatter_line_keys(8), 1);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut c = SortConfig::keys_32();
        c.digit_bits = 0;
        assert!(c.validate().is_err());
        let mut c = SortConfig::keys_32();
        c.merge_threshold = c.local_sort_threshold + 1;
        assert!(c.validate().is_err());
        let mut c = SortConfig::keys_32();
        c.keys_per_block = 0;
        assert!(c.validate().is_err());
        let mut c = SortConfig::keys_32();
        c.local_sort_threshold = 0;
        assert!(c.validate().is_err());
    }
}
