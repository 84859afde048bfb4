//! Stability: every pair sort leaves the values of equal keys in input
//! order, so its output equals a stable `sort_by_key` on the keys' radix
//! representation — for the single-device sorter under every executor and
//! digit width, through its `Vec` entry and its slice entry with a
//! caller-supplied spare, and for the sharded engine's in-core and
//! out-of-core paths on the benchmarks' two-CPU-socket pool.
//!
//! Values are input positions, so any reordering of equal keys shows.

use hybrid_radix_sort::prelude::*;

const N: usize = 30_000;

/// The stable reference: keys and input positions after a stable sort.
fn stable_reference<K: SortKey>(keys: &[K]) -> (Vec<K>, Vec<u32>) {
    let mut positions: Vec<u32> = (0..keys.len() as u32).collect();
    positions.sort_by_key(|&i| keys[i as usize].to_radix());
    let sorted = positions.iter().map(|&i| keys[i as usize]).collect();
    (sorted, positions)
}

/// Duplicate-heavy inputs: Zipf over a small universe, one constant key,
/// and three rungs of the AND ladder.
fn inputs<K: SortKey>() -> Vec<(&'static str, Vec<K>)> {
    let zipf = Distribution::Zipf {
        theta: 0.75,
        universe: 2_000,
    };
    vec![
        ("zipf", zipf.generate(N, 1)),
        ("constant", Distribution::Constant.generate(N, 2)),
        ("and 1", EntropyLevel::with_and_count(1).generate(N, 3)),
        ("and 3", EntropyLevel::with_and_count(3).generate(N, 4)),
        ("and 5", EntropyLevel::with_and_count(5).generate(N, 5)),
    ]
}

/// The default sorter, 5- and 11-bit digits, and a 32-key local-sort
/// threshold (many passes, thousands of tiny local buckets).
fn sorters<K: SortKey>(exec: Executor) -> Vec<(&'static str, HybridRadixSorter)> {
    let base = SortConfig::for_widths(K::BYTES, 4);
    let tiny = SortConfig {
        local_sort_threshold: 32,
        merge_threshold: 10,
        local_sort_classes: SortConfig::default_classes(32),
        ..base.clone()
    };
    let five = SortConfig {
        digit_bits: 5,
        ..base.clone()
    };
    let eleven = SortConfig {
        digit_bits: 11,
        ..base
    };
    vec![
        ("defaults", HybridRadixSorter::with_defaults()),
        ("5-bit digits", HybridRadixSorter::new(five)),
        ("11-bit digits", HybridRadixSorter::new(eleven)),
        ("32-key threshold", HybridRadixSorter::new(tiny)),
    ]
    .into_iter()
    .map(|(name, s)| (name, s.with_executor(exec)))
    .collect()
}

fn check_single_device<K: SortKey + PartialEq>() {
    for (input, keys) in inputs::<K>() {
        let expect = stable_reference(&keys);
        for exec in [Executor::Sequential, Executor::with_workers(2)] {
            for (config, sorter) in sorters::<K>(exec) {
                let mut k = keys.clone();
                let mut v: Vec<u32> = (0..N as u32).collect();
                sorter.sort_pairs(&mut k, &mut v);
                assert!(
                    k == expect.0 && v == expect.1,
                    "{} keys, {input}, {config}, {}: not a stable sort",
                    K::BITS,
                    exec.label()
                );
            }
        }
    }
}

#[test]
fn sort_pairs_is_stable_for_u32_keys() {
    check_single_device::<u32>();
}

#[test]
fn sort_pairs_is_stable_for_u64_keys() {
    check_single_device::<u64>();
}

/// `sort_pairs_with_spare` with a spare the caller fills with junk: the
/// output lands in `keys`, stably, whether the pass count is even (8-bit
/// digits) or odd (5- and 11-bit digits on u32 keys, 5-bit on u64), which
/// ends the passes in the spare and copies the output back.
fn check_slice_entry<K: SortKey + PartialEq>() {
    for (input, keys) in inputs::<K>() {
        let expect = stable_reference(&keys);
        for (config, sorter) in sorters::<K>(Executor::with_workers(2)) {
            let mut k = keys.clone();
            let mut v: Vec<u32> = (0..N as u32).collect();
            let mut spare_keys = keys.clone();
            spare_keys.reverse();
            let mut spare_vals = vec![u32::MAX; N];
            sorter.sort_pairs_with_spare(&mut k, &mut v, &mut spare_keys, &mut spare_vals);
            assert!(
                k == expect.0 && v == expect.1,
                "{} keys, {input}, {config}: the slice entry is not a stable sort into `keys`",
                K::BITS
            );
        }
    }
}

#[test]
fn slice_entry_with_a_caller_spare_is_stable_for_u32_keys() {
    check_slice_entry::<u32>();
}

#[test]
fn slice_entry_with_a_caller_spare_is_stable_for_u64_keys() {
    check_slice_entry::<u64>();
}

/// The benchmarks' pool: two single-worker CPU sockets; out of core, four
/// chunks per lane.
fn socket_engine() -> ShardedSorter {
    ShardedSorter::new(DevicePool::new(vec![SimDevice::cpu_socket(1); 2]))
        .with_ooc_config(OocConfig::default().with_chunks_per_device(4))
}

fn check_engine<K: SortKey + PartialEq>() {
    let engine = socket_engine();
    for (input, keys) in inputs::<K>() {
        let expect = stable_reference(&keys);
        let mut k = keys.clone();
        let mut v: Vec<u32> = (0..N as u32).collect();
        engine.sort_pairs(&mut k, &mut v);
        assert!(
            k == expect.0 && v == expect.1,
            "{} keys, {input}: ShardedSorter::sort_pairs is not stable",
            K::BITS
        );
        let mut k = keys.clone();
        let mut v: Vec<u32> = (0..N as u32).collect();
        engine.sort_out_of_core_pairs(&mut k, &mut v);
        assert!(
            k == expect.0 && v == expect.1,
            "{} keys, {input}: sort_out_of_core_pairs is not stable",
            K::BITS
        );
    }
}

#[test]
fn sharded_pair_sorts_are_stable_on_two_cpu_sockets() {
    check_engine::<u32>();
    check_engine::<u64>();
}
