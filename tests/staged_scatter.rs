//! Equivalence suite for the write-combining scatter: both settings of the
//! staged-scatter toggle must produce byte-identical output to the unstaged
//! sequential baseline and to `std` sorting — across workloads (uniform /
//! zipf / sorted / duplicate-heavy),
//! shapes (key-only and pairs), worker counts, and staging-line sizes,
//! including lines that do not divide block or bucket populations.

use hybrid_radix_sort::hrs_core::{Executor, HybridRadixSorter, Optimizations, SortConfig};
use hybrid_radix_sort::workloads::{pairs::verify_indexed_pair_sort, Distribution, KeyCodec};
use proptest::prelude::*;

const WORKER_COUNTS: [usize; 3] = [1, 2, 7];

/// Both settings of the staged-scatter toggle.
fn scatter_variants() -> [(&'static str, Optimizations); 2] {
    [
        ("staged", Optimizations::all_on()),
        ("unstaged", Optimizations::no_staged_scatter()),
    ]
}

/// A configuration small enough that moderate inputs hit multiple passes,
/// partial staging lines and local sorts, with a caller-chosen line size.
fn lined_config(line_bytes: usize) -> SortConfig {
    let mut cfg = SortConfig::keys_32();
    cfg.local_sort_threshold = 120;
    cfg.merge_threshold = 41;
    cfg.keys_per_block = 96;
    cfg.local_sort_classes = SortConfig::default_classes(120);
    cfg.scatter_line_bytes = line_bytes;
    cfg
}

/// Odd and even line sizes; for u32 keys these yield 1 (staging disabled),
/// 2, 6, 15, 16 and 25 keys per line, so bucket tails regularly end
/// mid-line and drain through the partial-flush path.
const LINE_BYTES: [usize; 6] = [3, 8, 24, 63, 64, 100];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_toggle_corners_match_std_for_u32_keys(
        keys in proptest::collection::vec(any::<u32>(), 0..3500),
        line_idx in 0usize..LINE_BYTES.len(),
        workers_idx in 0usize..3,
    ) {
        let expected = KeyCodec::std_sorted(&keys);
        let cfg = lined_config(LINE_BYTES[line_idx]);
        for (name, opts) in scatter_variants() {
            let mut k = keys.clone();
            HybridRadixSorter::new(cfg.clone())
                .with_executor(Executor::with_workers(WORKER_COUNTS[workers_idx]))
                .with_optimizations(opts)
                .sort(&mut k);
            prop_assert_eq!(&k, &expected, "variant {} line {}", name, LINE_BYTES[line_idx]);
        }
    }

    #[test]
    fn all_toggle_corners_match_the_sequential_baseline_for_pairs(
        keys in proptest::collection::vec(any::<u32>(), 0..2500),
        line_idx in 0usize..LINE_BYTES.len(),
        workers_idx in 0usize..3,
    ) {
        let n = keys.len();
        let values: Vec<u32> = (0..n as u32).collect();
        let cfg = lined_config(LINE_BYTES[line_idx]);

        // The unstaged sequential run is the equivalence baseline the
        // tentpole promises byte-identity against.
        let mut base_keys = keys.clone();
        let mut base_vals = values.clone();
        HybridRadixSorter::new(cfg.clone())
            .with_executor(Executor::Sequential)
            .with_optimizations(Optimizations::no_staged_scatter())
            .sort_pairs(&mut base_keys, &mut base_vals);
        prop_assert!(verify_indexed_pair_sort(&keys, &base_keys, &base_vals));

        for (name, opts) in scatter_variants() {
            let mut k = keys.clone();
            let mut v = values.clone();
            HybridRadixSorter::new(cfg.clone())
                .with_executor(Executor::with_workers(WORKER_COUNTS[workers_idx]))
                .with_optimizations(opts)
                .sort_pairs(&mut k, &mut v);
            prop_assert_eq!(&k, &base_keys, "variant {}", name);
            prop_assert_eq!(&v, &base_vals, "variant {}", name);
        }
    }
}

#[test]
fn workload_matrix_is_equivalent_across_all_toggles() {
    let n = 30_000usize;
    let workloads: [(&str, Distribution); 4] = [
        ("uniform", Distribution::Uniform),
        ("zipf", Distribution::paper_zipf(n as u64 / 4)),
        ("sorted", Distribution::Sorted),
        // A tiny universe makes every digit bucket duplicate-heavy.
        ("dup-heavy", Distribution::paper_zipf(64)),
    ];
    for (wname, dist) in workloads {
        let keys: Vec<u32> = dist.generate(n, 0x5EED);
        let expected = KeyCodec::std_sorted(&keys);
        for workers in WORKER_COUNTS {
            for (vname, opts) in scatter_variants() {
                let ctx = format!("{wname}/{vname}/workers={workers}");
                let mut k = keys.clone();
                HybridRadixSorter::new(SortConfig::keys_32().scaled_for(n, 500_000_000))
                    .with_executor(Executor::with_workers(workers))
                    .with_optimizations(opts)
                    .sort(&mut k);
                assert_eq!(k, expected, "{ctx} (keys)");

                let mut k = keys.clone();
                let mut v: Vec<u32> = (0..n as u32).collect();
                HybridRadixSorter::new(SortConfig::pairs_32_32().scaled_for(n, 500_000_000))
                    .with_executor(Executor::with_workers(workers))
                    .with_optimizations(opts)
                    .sort_pairs(&mut k, &mut v);
                assert_eq!(k, expected, "{ctx} (pair keys)");
                assert!(
                    verify_indexed_pair_sort(&keys, &k, &v),
                    "{ctx} (pair values)"
                );
            }
        }
    }
}

#[test]
fn wide_keys_survive_odd_staging_lines() {
    // u64 keys with line sizes that leave 0, 1 or a prime number of keys
    // per line; the narrower final digit of 64-bit configs also exercises
    // the staging segment's max-radix capacity sizing.
    let keys: Vec<u64> = Distribution::Uniform.generate(50_000, 77);
    let expected = KeyCodec::std_sorted(&keys);
    for line_bytes in [7usize, 24, 56, 64] {
        let mut cfg = SortConfig::keys_64().scaled_for(50_000, 250_000_000);
        cfg.scatter_line_bytes = line_bytes;
        for workers in WORKER_COUNTS {
            let mut k = keys.clone();
            HybridRadixSorter::new(cfg.clone())
                .with_executor(Executor::with_workers(workers))
                .sort(&mut k);
            assert_eq!(k, expected, "line {line_bytes} workers {workers}");
        }
    }
}
