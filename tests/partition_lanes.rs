//! The sharded engine's partition pass on pools of CPU sockets: one
//! counting pass bins the input by shard, and every lane sorts its shard.
//! The sorted output must equal a stable `std` sort, keys and values
//! alike, and each lane's report must equal, in every field, the report of
//! the same lane sorter sorting its shard on its own (the shard's elements
//! in input order): the partition is stable, so a lane sees exactly the
//! input a standalone sort of its shard would.

use hybrid_radix_sort::prelude::*;
use hybrid_radix_sort::workloads::{uniform_keys, ZipfGenerator};

const N: usize = 1 << 17;

/// The inputs every pool sorts, with their names.
fn inputs() -> Vec<(&'static str, Vec<u64>)> {
    let mut sorted = uniform_keys::<u64>(N, 3);
    sorted.sort_unstable();
    vec![
        ("uniform", uniform_keys::<u64>(N, 1)),
        ("zipf", ZipfGenerator::paper_keys(N, 2)),
        ("sorted", sorted),
        ("constant", vec![0x0123_4567_89AB_CDEF; N]),
    ]
}

/// The sorter of a `cpu_socket(1)` lane, built as the engine builds its
/// lanes from the default template.
fn lane_sorter() -> HybridRadixSorter {
    HybridRadixSorter::with_defaults()
        .with_device(DeviceSpec::cpu_socket(1))
        .with_executor(Executor::with_workers(1))
}

#[test]
fn cpu_socket_lanes_sort_like_standalone_shard_sorts() {
    for p in [1usize, 2, 3, 8] {
        let engine = ShardedSorter::new(DevicePool::new(vec![SimDevice::cpu_socket(1); p]))
            .with_host_executor(Executor::with_workers(2))
            .with_merge_threads(2);
        for (name, keys) in inputs() {
            let case = format!("p = {p}, {name}");
            let rows: Vec<u32> = (0..N as u32).collect();
            let mut expected: Vec<(u64, u32)> = keys.iter().copied().zip(rows.clone()).collect();
            expected.sort_by_key(|&(k, _)| k);

            let (mut k, mut v) = (keys.clone(), rows.clone());
            let report = engine.sort_pairs(&mut k, &mut v);
            assert!(
                k.iter()
                    .copied()
                    .zip(v.iter().copied())
                    .eq(expected.iter().copied()),
                "{case}: output differs from a stable sort"
            );

            assert_eq!(report.shards.len(), p, "{case}");
            for (i, shard) in report.shards.iter().enumerate() {
                let (lo, hi) = shard.range;
                let (mut sk, mut sv): (Vec<u64>, Vec<u32>) = keys
                    .iter()
                    .copied()
                    .zip(rows.iter().copied())
                    .filter(|&(key, _)| (lo..=hi).contains(&key))
                    .unzip();
                assert_eq!(sk.len() as u64, shard.n, "{case}, shard {i}");
                let alone = lane_sorter().sort_pairs(&mut sk, &mut sv);
                assert_eq!(
                    format!("{:?}", shard.report),
                    format!("{alone:?}"),
                    "{case}, shard {i}: lane report differs from its standalone sort"
                );
            }
        }
    }
}
