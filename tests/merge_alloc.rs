//! The host p-way merge allocates nothing per element: merging key-value
//! runs into caller-provided slices makes the same number of heap
//! allocations at 2^14 and at 2^17 elements per run, sequentially and with
//! two threads (only the fixed per-merge run lists and thread handles are
//! allocated).
//!
//! The counting global allocator of `common` measures the whole test
//! binary, so this file holds a single test and nothing else runs while it
//! counts.

mod common;

use hybrid_radix_sort::hetero::merge_pairs_into;
use hybrid_radix_sort::workloads::uniform_keys;

const SMALL: usize = 1 << 14;
const LARGE: usize = 1 << 17;
const RUNS: u64 = 4;

/// Four sorted runs of `per_run` u64 keys, each with u32 values.
fn sorted_runs(per_run: usize) -> Vec<(Vec<u64>, Vec<u32>)> {
    (0..RUNS)
        .map(|seed| {
            let mut keys = uniform_keys::<u64>(per_run, seed);
            keys.sort_unstable();
            let vals = keys.iter().map(|&k| k as u32).collect();
            (keys, vals)
        })
        .collect()
}

/// Heap allocations made by one merge of `runs` with `threads` threads
/// into preallocated outputs (the outputs and run list are made before
/// counting starts).
fn allocations_of_merge(runs: &[(Vec<u64>, Vec<u32>)], threads: usize) -> u64 {
    let refs: Vec<(&[u64], &[u32])> = runs
        .iter()
        .map(|(ks, vs)| (ks.as_slice(), vs.as_slice()))
        .collect();
    let n = runs.iter().map(|(ks, _)| ks.len()).sum();
    let (mut keys, mut vals) = (vec![0u64; n], vec![0u32; n]);
    let before = common::allocations();
    merge_pairs_into(&refs, threads, &mut keys, &mut vals);
    let after = common::allocations();
    assert!(keys.windows(2).all(|w| w[0] <= w[1]), "keys not merged");
    assert!(keys.iter().zip(&vals).all(|(&k, &v)| v == k as u32));
    after - before
}

#[test]
fn merging_into_slices_allocates_independently_of_run_length() {
    let (small, large) = (sorted_runs(SMALL), sorted_runs(LARGE));
    for threads in [1usize, 2] {
        // Warm up once at each size (first spawns set up thread state).
        allocations_of_merge(&small, threads);
        allocations_of_merge(&large, threads);
        let counts = [
            allocations_of_merge(&small, threads),
            allocations_of_merge(&large, threads),
        ];
        assert_eq!(counts[0], counts[1], "threads = {threads}: {counts:?}");
    }
}
