//! Integration tests of the execution backends: the `Threaded` and
//! `Sequential` executors must produce exactly the output of `std` sorting
//! for arbitrary inputs, key-only and key-value, across worker counts; and
//! repeated sorts through one sorter must reuse the scratch arena instead
//! of allocating.

use hybrid_radix_sort::hrs_core::{Executor, HybridRadixSorter, SortConfig};
use hybrid_radix_sort::multi_gpu::{compute_splitters, scatter_into_shards, PartitionConfig};
use hybrid_radix_sort::workloads::{pairs::verify_indexed_pair_sort, KeyCodec, SortKey};
use proptest::prelude::*;

/// Worker counts every property is exercised under (1 = the `Threaded`
/// backend degenerating to a single worker; Sequential is the baseline).
const WORKER_COUNTS: [usize; 3] = [1, 2, 7];

fn tiny_config(local: usize, kpb: usize, digit_bits: u32) -> SortConfig {
    let mut cfg = SortConfig::keys_32();
    cfg.digit_bits = digit_bits;
    cfg.local_sort_threshold = local;
    cfg.merge_threshold = local / 3 + 1;
    cfg.keys_per_block = kpb;
    cfg.local_sort_classes = SortConfig::default_classes(local);
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn threaded_matches_std_sort_for_u32_keys(
        keys in proptest::collection::vec(any::<u32>(), 0..4000),
        local in 8usize..500,
        kpb in 16usize..700,
    ) {
        let expected = KeyCodec::std_sorted(&keys);
        let cfg = tiny_config(local, kpb, 8);
        let mut seq = keys.clone();
        HybridRadixSorter::new(cfg.clone())
            .with_executor(Executor::Sequential)
            .sort(&mut seq);
        prop_assert_eq!(&seq, &expected);
        for workers in WORKER_COUNTS {
            let mut thr = keys.clone();
            HybridRadixSorter::new(cfg.clone())
                .with_executor(Executor::with_workers(workers))
                .sort(&mut thr);
            prop_assert_eq!(&thr, &expected, "workers = {}", workers);
        }
    }

    #[test]
    fn threaded_matches_std_sort_for_u64_keys(
        keys in proptest::collection::vec(any::<u64>(), 0..2500),
        workers_idx in 0usize..3,
    ) {
        let expected = KeyCodec::std_sorted(&keys);
        let cfg = tiny_config(96, 64, 8);
        let mut thr = keys.clone();
        HybridRadixSorter::new(cfg)
            .with_executor(Executor::with_workers(WORKER_COUNTS[workers_idx]))
            .sort(&mut thr);
        prop_assert_eq!(thr, expected);
    }

    #[test]
    fn threaded_pairs_match_sequential_pairs(
        keys in proptest::collection::vec(any::<u32>(), 0..2000),
        workers_idx in 0usize..3,
    ) {
        let n = keys.len();
        let values: Vec<u32> = (0..n as u32).collect();
        let cfg = tiny_config(128, 96, 8);

        let mut seq_keys = keys.clone();
        let mut seq_vals = values.clone();
        HybridRadixSorter::new(cfg.clone())
            .with_executor(Executor::Sequential)
            .sort_pairs(&mut seq_keys, &mut seq_vals);
        prop_assert!(verify_indexed_pair_sort(&keys, &seq_keys, &seq_vals));

        let mut thr_keys = keys.clone();
        let mut thr_vals = values;
        HybridRadixSorter::new(cfg)
            .with_executor(Executor::with_workers(WORKER_COUNTS[workers_idx]))
            .sort_pairs(&mut thr_keys, &mut thr_vals);
        prop_assert!(verify_indexed_pair_sort(&keys, &thr_keys, &thr_vals));
        // Keys sort identically; values may differ only within equal-key
        // runs, which verify_indexed_pair_sort already validates.
        prop_assert_eq!(seq_keys, thr_keys);
    }

    #[test]
    fn parallel_partition_scatter_matches_sequential(
        keys in proptest::collection::vec(any::<u64>(), 0..3000),
        shards in 2usize..6,
    ) {
        let splitters = compute_splitters(&keys, &vec![1.0; shards], &PartitionConfig::default());
        let mut k = keys.clone();
        let mut v: Vec<()> = Vec::new();
        let (seq, _) = scatter_into_shards(&mut k, &mut v, &splitters, &Executor::Sequential);
        let mut k = keys.clone();
        let mut v: Vec<()> = Vec::new();
        let (par, _) = scatter_into_shards(&mut k, &mut v, &splitters, &Executor::with_workers(3));
        prop_assert_eq!(seq, par);
    }
}

#[test]
fn arena_capacity_is_stable_across_repeated_sorts() {
    // The zero-steady-state-allocation regression check over the public
    // API: a warmed-up sorter retains exactly the same arena footprint no
    // matter how many more times it sorts the same-sized input.
    let keys: Vec<u64> = hybrid_radix_sort::workloads::uniform_keys(120_000, 5);
    for workers in WORKER_COUNTS {
        let sorter = HybridRadixSorter::new(SortConfig::keys_64().scaled_for(120_000, 250_000_000))
            .with_executor(Executor::with_workers(workers));
        let mut warm = keys.clone();
        sorter.sort(&mut warm);
        let baseline = sorter.arena_stats();
        assert!(baseline.total_bytes() > 0);
        for _ in 0..3 {
            let mut k = keys.clone();
            sorter.sort(&mut k);
            assert_eq!(
                sorter.arena_stats(),
                baseline,
                "arena grew on a repeated sort (workers = {workers})"
            );
        }
    }

    // Two workers finishing Zipf-skewed buckets of unequal sizes
    // depth-first: which worker runs which bucket changes from sort to
    // sort, yet the per-worker pass scratch parked after the warm-up sort
    // is a fixed point, keys alone and with values.
    let n = 1 << 18;
    let zipf: Vec<u64> = hybrid_radix_sort::workloads::ZipfGenerator::paper_keys(n, 9);
    let keys_only = HybridRadixSorter::new(SortConfig::keys_64().scaled_for(n, 1 << 22))
        .with_executor(Executor::with_workers(2));
    let pairs = HybridRadixSorter::new(SortConfig::for_widths(8, 4).scaled_for(n, 1 << 22))
        .with_executor(Executor::with_workers(2));
    let sort = |sorter: &HybridRadixSorter| {
        let mut k = zipf.clone();
        if std::ptr::eq(sorter, &pairs) {
            let mut rows: Vec<u32> = (0..n as u32).collect();
            sorter.sort_pairs(&mut k, &mut rows);
        } else {
            sorter.sort(&mut k);
        }
        assert_eq!(k, KeyCodec::std_sorted(&zipf));
    };
    for sorter in [&keys_only, &pairs] {
        sort(sorter);
        let baseline = sorter.arena_stats();
        for _ in 0..5 {
            sort(sorter);
            assert_eq!(
                sorter.arena_stats(),
                baseline,
                "arena grew on a repeated depth-first sort"
            );
        }
    }
}

#[test]
fn staging_segments_are_a_warm_fixed_point() {
    // The write-combining scatter parks its per-worker staging segments in
    // the arena like the spare halves: after the warm-up sort they are a
    // fixed point too — staging adds zero steady-state allocations.
    use hybrid_radix_sort::hrs_core::Optimizations;
    let keys: Vec<u32> = hybrid_radix_sort::workloads::uniform_keys(90_000, 9);
    let cfg = SortConfig::pairs_32_32().scaled_for(90_000, 500_000_000);
    for workers in WORKER_COUNTS {
        let staged =
            HybridRadixSorter::new(cfg.clone()).with_executor(Executor::with_workers(workers));
        let unstaged = HybridRadixSorter::new(cfg.clone())
            .with_executor(Executor::with_workers(workers))
            .with_optimizations(Optimizations::no_staged_scatter());
        for sorter in [&staged, &unstaged] {
            let mut k = keys.clone();
            let mut v: Vec<u32> = (0..90_000).collect();
            sorter.sort_pairs(&mut k, &mut v);
        }
        // The staged sorter retains strictly more buffer bytes: the key and
        // value staging segments on top of the spare halves.
        let warm = staged.arena_stats();
        assert!(
            warm.buffer_bytes > unstaged.arena_stats().buffer_bytes,
            "staging segments missing from the warm arena (workers = {workers})"
        );
        for _ in 0..3 {
            let mut k = keys.clone();
            let mut v: Vec<u32> = (0..90_000).collect();
            staged.sort_pairs(&mut k, &mut v);
            assert_eq!(
                staged.arena_stats(),
                warm,
                "staging segment grew on a repeated sort (workers = {workers})"
            );
        }
    }
}

#[test]
fn executors_agree_on_every_key_width() {
    fn check<K: SortKey>(make: impl Fn(u64) -> K) {
        let keys: Vec<K> = (0..9_000u64)
            .map(|i| make(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            .collect();
        let expected = KeyCodec::std_sorted(&keys);
        for workers in WORKER_COUNTS {
            let mut k = keys.clone();
            HybridRadixSorter::new(tiny_config(200, 128, 8))
                .with_executor(Executor::with_workers(workers))
                .sort(&mut k);
            assert_eq!(k, expected, "workers = {workers}");
        }
    }
    check::<u8>(|v| v as u8);
    check::<u16>(|v| v as u16);
    check::<u32>(|v| v as u32);
    check::<u64>(|v| v);
}
