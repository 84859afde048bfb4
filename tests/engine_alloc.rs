//! A warm sharded sort allocates no element memory.  Once the engine's
//! round buffer, splitter sample and lane arenas are warm, a repeated
//! in-core or out-of-core pair sort on the benchmarks' two CPU sockets
//! asks the allocator only for bookkeeping — reports, schedules, count
//! tables — far below the size of one copy of its keys and values, while
//! the first sort allocates at least one such copy (its round buffer).
//!
//! The counting global allocator of `common` measures the whole test
//! binary, so this file holds a single test and nothing else runs while it
//! counts.

mod common;

use hybrid_radix_sort::prelude::*;

const N: usize = 1 << 17;

/// Bytes allocated by each of three same-size sorts through `sort`, each
/// on a fresh copy of the input (copied before counting starts).
fn bytes_per_sort(
    keys: &[u64],
    rows: &[u32],
    sort: impl Fn(&mut Vec<u64>, &mut Vec<u32>),
) -> [u64; 3] {
    let (mut k, mut v) = (keys.to_vec(), rows.to_vec());
    [0; 3].map(|_| {
        k.copy_from_slice(keys);
        v.copy_from_slice(rows);
        let before = common::allocated_bytes();
        sort(&mut k, &mut v);
        let after = common::allocated_bytes();
        assert!(k.windows(2).all(|w| w[0] <= w[1]), "keys not sorted");
        after - before
    })
}

#[test]
fn warm_sharded_sorts_allocate_no_element_memory() {
    let keys: Vec<u64> = ZipfGenerator::paper_keys(N, 3);
    let rows: Vec<u32> = (0..N as u32).collect();
    let elements = (N * (8 + 4)) as u64;
    for out_of_core in [false, true] {
        let engine = ShardedSorter::new(DevicePool::new(vec![SimDevice::cpu_socket(1); 2]))
            .with_merge_threads(2)
            .with_ooc_config(OocConfig::default().with_chunks_per_device(4));
        let bytes = bytes_per_sort(&keys, &rows, |k, v| {
            if out_of_core {
                engine.sort_out_of_core_pairs(k, v);
            } else {
                engine.sort_pairs(k, v);
            }
        });
        assert!(
            bytes[0] >= elements,
            "out_of_core = {out_of_core}: the cold sort allocated only {} bytes",
            bytes[0]
        );
        for warm in &bytes[1..] {
            assert!(
                *warm < elements / 16,
                "out_of_core = {out_of_core}: a warm sort allocated {warm} bytes \
                 against {elements} bytes of keys and values"
            );
        }
    }
}
