//! The sorter's hot path allocates nothing per key, block or bucket: once
//! its scratch arena is warm, a sequential sort makes the same number of
//! heap allocations at 2^14 and at 2^17 keys (only the fixed per-sort
//! report is allocated) — for keys alone and for pairs, whose value halves,
//! staging lines and local-sort scratch come from the arena too, at no more
//! allocations than the keys alone.
//!
//! The counting global allocator of `common` measures the whole test
//! binary, so this file holds a single test and nothing else runs while it
//! counts.

mod common;

use hybrid_radix_sort::prelude::*;
use hybrid_radix_sort::workloads::uniform_keys;

const SMALL: usize = 1 << 14;
const LARGE: usize = 1 << 17;

/// Heap allocations made by `sorter` sorting a copy of `keys` (the copy is
/// made before counting starts).
fn allocations_of_sort<K: SortKey>(sorter: &HybridRadixSorter, keys: &[K]) -> (u64, SortReport) {
    let mut keys = keys.to_vec();
    let before = common::allocations();
    let report = sorter.sort(&mut keys);
    let after = common::allocations();
    assert!(keys.windows(2).all(|w| w[0] <= w[1]), "keys not sorted");
    (after - before, report)
}

/// Heap allocations made by `sorter` sorting a copy of `keys` with their
/// row ids as values (both made before counting starts).
fn allocations_of_pair_sort(sorter: &HybridRadixSorter, keys: &[u64]) -> (u64, SortReport) {
    let mut keys = keys.to_vec();
    let mut rows: Vec<u32> = (0..keys.len() as u32).collect();
    let before = common::allocations();
    let report = sorter.sort_pairs(&mut keys, &mut rows);
    let after = common::allocations();
    assert!(keys.windows(2).all(|w| w[0] <= w[1]), "keys not sorted");
    (after - before, report)
}

/// Warms one sorter at both sizes, then returns its allocation counts
/// for a sort at each size.
fn warmed_allocations<K>(
    sorter: &HybridRadixSorter,
    small: &[K],
    large: &[K],
    sort: fn(&HybridRadixSorter, &[K]) -> (u64, SortReport),
) -> [u64; 2] {
    for _ in 0..2 {
        sort(sorter, small);
        sort(sorter, large);
    }
    let (a, small_report) = sort(sorter, small);
    let (b, large_report) = sort(sorter, large);
    // Equal counts only mean something if the two sorts have the same
    // shape: the per-sort report grows with the number of passes.
    assert_eq!(
        small_report.passes.len(),
        large_report.passes.len(),
        "pass counts differ"
    );
    [a, b]
}

#[test]
fn warmed_sorts_allocate_independently_of_input_size() {
    // 2^14 and 2^17 keys of each input.
    let skewed = |n| EntropyLevel::with_and_count(5).generate_u32(n, 3);
    let uniform = |n| uniform_keys::<u32>(n, 5);

    // Skewed: the top digits are mostly zero, so the scatter look-ahead is
    // active on every block of the early passes.
    let sorter = HybridRadixSorter::with_defaults();
    let counts = warmed_allocations(&sorter, &skewed(SMALL), &skewed(LARGE), allocations_of_sort);
    let report = sorter.sort(&mut skewed(LARGE));
    assert!(report.passes[0].lookahead_active_blocks > 0);
    assert_eq!(counts[0], counts[1], "skewed input: {counts:?}");

    // Tiny buckets: with a 32-key local-sort threshold every pass-0 bucket
    // goes on to pass 1, which leaves thousands of local buckets of at
    // most 32 keys.
    let tiny = SortConfig {
        local_sort_threshold: 32,
        merge_threshold: 8,
        local_sort_classes: SortConfig::default_classes(32),
        ..SortConfig::keys_32()
    };
    let sorter = HybridRadixSorter::new(tiny);
    let counts = warmed_allocations(
        &sorter,
        &uniform(SMALL),
        &uniform(LARGE),
        allocations_of_sort,
    );
    let report = sorter.sort(&mut uniform(LARGE));
    assert!(report.local.invocations > 1_000);
    assert!(report.local.largest_bucket <= 32);
    assert_eq!(counts[0], counts[1], "tiny local buckets: {counts:?}");

    // Uniform, defaults.
    let sorter = HybridRadixSorter::with_defaults();
    let counts = warmed_allocations(
        &sorter,
        &uniform(SMALL),
        &uniform(LARGE),
        allocations_of_sort,
    );
    assert_eq!(counts[0], counts[1], "uniform input: {counts:?}");

    // Pairs: u64 keys with u32 row ids.  The local sort ping-pongs every
    // bucket through per-worker arena scratch, so a warm sorter's arena is
    // a fixed point and the count does not grow with the bucket count.
    let sorter = HybridRadixSorter::with_defaults();
    let uniform64 = |n| uniform_keys::<u64>(n, 7);
    let pair_counts = warmed_allocations(
        &sorter,
        &uniform64(SMALL),
        &uniform64(LARGE),
        allocations_of_pair_sort,
    );
    assert_eq!(pair_counts[0], pair_counts[1], "pairs: {pair_counts:?}");
    let warm = sorter.arena_stats();
    let (_, report) = allocations_of_pair_sort(&sorter, &uniform64(LARGE));
    assert!(report.local.invocations > 0);
    assert_eq!(
        sorter.arena_stats(),
        warm,
        "local-sort scratch grew when warm"
    );

    // Values cost no allocations of their own: parking a warm buffer
    // refills its arena slot in place, so a warm pair sort allocates no
    // more than a warm key-only sort with the same pass count.
    let key_sorter = HybridRadixSorter::with_defaults();
    let key_counts = warmed_allocations(
        &key_sorter,
        &uniform64(SMALL),
        &uniform64(LARGE),
        allocations_of_sort,
    );
    let (_, key_report) = allocations_of_sort(&key_sorter, &uniform64(LARGE));
    assert_eq!(report.passes.len(), key_report.passes.len());
    assert!(
        pair_counts[1] <= key_counts[1],
        "pairs allocate more than keys: {pair_counts:?} vs {key_counts:?}"
    );
}
