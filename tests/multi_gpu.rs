//! Integration tests of the multi-GPU sharded sort engine: output equality
//! with the standard-library sort for every key shape and distribution,
//! capacity-proportional sharding on heterogeneous pools, and scaling of
//! the simulated critical path.

use hybrid_radix_sort::gpu_sim::{DeviceMemoryPlanner, DeviceSpec};
use hybrid_radix_sort::multi_gpu::{DevicePool, OocConfig, ShardedSorter, SimDevice};
use hybrid_radix_sort::prelude::*;
use hybrid_radix_sort::workloads::{uniform_keys, Distribution, KeyCodec, ZipfGenerator};

fn sorter(p: usize) -> ShardedSorter {
    // Scale the on-GPU configuration to the functional test input sizes so
    // the shards run several counting passes plus local sorts.
    let gpu = HybridRadixSorter::new(SortConfig::keys_64().scaled_for(50_000, 250_000_000));
    ShardedSorter::new(DevicePool::titan_cluster(p))
        .with_sorter(gpu)
        .with_merge_threads(4)
}

#[test]
fn matches_std_sort_for_u32_u64_and_distributions() {
    for p in [1usize, 2, 4] {
        let s = sorter(p);
        for dist in [
            Distribution::Uniform,
            Distribution::paper_zipf(10_000),
            Distribution::Sorted,
            Distribution::ReverseSorted,
            Distribution::Constant,
        ] {
            let keys64: Vec<u64> = dist.generate(90_000, 42);
            let expected = KeyCodec::std_sorted(&keys64);
            let mut k = keys64;
            s.sort(&mut k);
            assert_eq!(k, expected, "u64, p={p}, {}", dist.name());

            let keys32: Vec<u32> = dist.generate(60_000, 43);
            let expected = KeyCodec::std_sorted(&keys32);
            let mut k = keys32;
            s.sort(&mut k);
            assert_eq!(k, expected, "u32, p={p}, {}", dist.name());
        }
    }
}

#[test]
fn key_value_pairs_stay_associated() {
    let keys: Vec<u64> = ZipfGenerator::paper_keys(80_000, 5);
    for p in [2usize, 4] {
        let mut k = keys.clone();
        let mut v: Vec<u64> = k.iter().map(|&key| !key).collect();
        let report = sorter(p).sort_pairs(&mut k, &mut v);
        assert!(k.windows(2).all(|w| w[0] <= w[1]));
        assert!(k.iter().zip(v.iter()).all(|(&key, &val)| val == !key));
        assert_eq!(report.value_bytes, 8);
        assert_eq!(report.shards.len(), p);
    }
}

#[test]
fn signed_and_float_keys_sort_via_their_codec() {
    let s = sorter(3);
    let mut ints: Vec<i64> = Distribution::Uniform.generate(70_000, 7);
    let expected = KeyCodec::std_sorted(&ints);
    s.sort(&mut ints);
    assert_eq!(ints, expected);

    let mut floats: Vec<f64> = (0..70_000)
        .map(|i| ((i as f64) - 35_000.0) * 0.73)
        .rev()
        .collect();
    s.sort(&mut floats);
    assert!(floats.windows(2).all(|w| w[0] <= w[1]));
}

#[test]
fn critical_path_shrinks_with_more_devices_on_uniform_input() {
    let keys = uniform_keys::<u64>(250_000, 99);
    let mut last = f64::INFINITY;
    for p in [1usize, 2, 4, 8] {
        let mut k = keys.clone();
        let report = sorter(p).sort(&mut k);
        let cp = report.critical_path.secs();
        assert!(cp < last, "p={p}: critical path {cp} did not shrink");
        last = cp;
    }
}

#[test]
fn heterogeneous_pool_sorts_and_loads_by_capacity() {
    let pool = DevicePool::new(vec![
        SimDevice::on_nvlink2(DeviceSpec::tesla_p100()),
        SimDevice::on_pcie3(DeviceSpec::titan_x_pascal()),
        SimDevice::on_pcie3(DeviceSpec::gtx_980()),
    ]);
    let gpu = HybridRadixSorter::new(SortConfig::keys_64().scaled_for(50_000, 250_000_000));
    let s = ShardedSorter::new(pool).with_sorter(gpu);

    let keys = uniform_keys::<u64>(150_000, 3);
    let expected = KeyCodec::std_sorted(&keys);
    let mut k = keys;
    let report = s.sort(&mut k);
    assert_eq!(k, expected);
    // Shards follow bandwidth: P100 (580) > Titan X (369) > GTX 980 (180).
    assert!(report.shards[0].n > report.shards[1].n);
    assert!(report.shards[1].n > report.shards[2].n);
}

#[test]
fn shard_ranges_tile_the_key_space_and_own_their_keys() {
    let keys: Vec<u64> = Distribution::paper_zipf(5_000).generate(120_000, 13);
    let mut k = keys;
    let report = sorter(4).sort(&mut k);
    let ranges: Vec<(u64, u64)> = report.shards.iter().map(|s| s.range).collect();
    assert_eq!(ranges[0].0, 0);
    assert_eq!(ranges.last().unwrap().1, u64::MAX);
    for w in ranges.windows(2) {
        assert_eq!(w[0].1 + 1, w[1].0, "gap/overlap between shard ranges");
    }
    // The sorted output is the concatenation of the shards in range order.
    let mut offset = 0usize;
    for s in &report.shards {
        let slice = &k[offset..offset + s.n as usize];
        assert!(slice
            .iter()
            .all(|&key| key >= s.range.0 && key <= s.range.1));
        offset += s.n as usize;
    }
    assert_eq!(offset, k.len());
}

#[test]
fn nvlink_beats_pcie_for_the_same_device() {
    let keys = uniform_keys::<u64>(200_000, 21);
    let gpu = HybridRadixSorter::new(SortConfig::keys_64().scaled_for(100_000, 250_000_000));
    let run = |link: fn(DeviceSpec) -> SimDevice| {
        let pool = DevicePool::homogeneous(2, link(DeviceSpec::titan_x_pascal()));
        let mut k = keys.clone();
        ShardedSorter::new(pool)
            .with_sorter(gpu.clone())
            .sort(&mut k)
            .critical_path
    };
    let pcie = run(SimDevice::on_pcie3);
    let nvlink = run(SimDevice::on_nvlink2);
    assert!(
        nvlink.secs() < pcie.secs(),
        "NVLink {} should beat PCIe {}",
        nvlink,
        pcie
    );
}

/// `keys` with their row ids, stably sorted by key: the output every
/// row-id pair sort must reproduce.
fn stable_rows(keys: &[u64]) -> Vec<(u64, u32)> {
    let mut rows: Vec<(u64, u32)> = keys.iter().copied().zip(0..).collect();
    rows.sort_by_key(|&(key, _)| key);
    rows
}

#[test]
fn out_of_core_row_id_sorts_match_a_stable_std_sort() {
    for p in [1usize, 2, 3] {
        for s in [1usize, 2, 4, 7] {
            let sorter = sorter(p).with_ooc_config(OocConfig::default().with_chunks_per_device(s));
            for dist in [
                Distribution::Uniform,
                Distribution::paper_zipf(2_000),
                Distribution::Sorted,
                Distribution::Constant,
            ] {
                let keys: Vec<u64> = dist.generate(24_000, 17);
                let (mut k, mut v): (Vec<u64>, Vec<u32>) = (keys.clone(), (0..24_000).collect());
                let report = sorter.sort_out_of_core_pairs(&mut k, &mut v);
                let label = format!("p = {p}, s = {s}, {}", dist.name());
                assert!(k.iter().copied().zip(v).eq(stable_rows(&keys)), "{label}");
                // One chunk per non-empty key range: none is over budget.
                assert!(report.ooc_chunks.len() <= p * s, "{label}");
                assert_eq!(report.shards.len(), p, "{label}");
            }
        }
    }
}

#[test]
fn a_key_heavier_than_a_chunk_budget_sorts_in_fitting_chunks() {
    // Two 1 MiB devices: a chunk slot holds about 27k u64+u32 pairs, and
    // one key takes 90k of the 200k pairs.
    let mut spec = DeviceSpec::titan_x_pascal();
    spec.device_memory_bytes = 1 << 20;
    let budget = DeviceMemoryPlanner::for_device(&spec).chunk_budget_bytes(true);
    let sorter = ShardedSorter::new(DevicePool::homogeneous(2, SimDevice::on_pcie3(spec)));
    let mut keys = uniform_keys::<u64>(200_000, 23);
    for (i, key) in keys.iter_mut().enumerate() {
        if i % 9 < 4 {
            *key = 0xC0DE << 40;
        }
    }
    let heavy = keys.iter().filter(|&&k| k == 0xC0DE << 40).count() as u64;
    assert!(heavy * 12 > budget, "{heavy} pairs fit one chunk");
    let (mut k, mut v): (Vec<u64>, Vec<u32>) = (keys.clone(), (0..200_000).collect());
    let report = sorter.sort_out_of_core_pairs(&mut k, &mut v);
    assert!(k.iter().copied().zip(v).eq(stable_rows(&keys)));
    for chunk in &report.ooc_chunks {
        assert!(chunk.len * 12 <= budget, "{chunk:?} over {budget} bytes");
    }
    // The heavy key's pieces merged, and the merge hid under the stream.
    let snap = sorter.inspector().snapshot();
    let ooc = snap.node("multi_gpu/ooc").unwrap();
    assert!(ooc.double("merge_overlap_ratio").is_some());
}

#[test]
fn a_fault_free_out_of_core_sort_runs_no_merge() {
    let sorter = sorter(2).with_ooc_config(OocConfig::default().with_chunks_per_device(4));
    let keys: Vec<u64> = Distribution::paper_zipf(5_000).generate(60_000, 29);
    let mut k = keys.clone();
    let report = sorter.sort_out_of_core(&mut k);
    assert_eq!(k, KeyCodec::std_sorted(&keys));
    assert_eq!(report.ooc_chunks.len(), 8);
    let snap = sorter.inspector().snapshot();
    let ooc = snap.node("multi_gpu/ooc").unwrap();
    assert_eq!(ooc.uint("sorts"), Some(1));
    assert_eq!(ooc.double("merge_overlap_ratio"), None);
    assert!(report
        .timeline
        .events()
        .iter()
        .all(|e| !e.label.starts_with("host merge")));
}
