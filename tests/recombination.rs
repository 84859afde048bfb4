//! Equivalence suite for the recombination phase: the sharded engine's
//! host step — concatenating range-disjoint runs, merging only where runs
//! overlap — must agree with the standard library sort on every output,
//! for plain keys, pairs and the out-of-core lane, across uniform / zipf /
//! sorted / duplicate-heavy inputs and 1/2/4/8-device pools, including
//! skewed capacity weights and shards that receive zero keys.  The
//! benchmarks' two-CPU-socket pool, whose round-0 shards concatenate on
//! the host, is held to the same outputs.

use hybrid_radix_sort::gpu_sim::DeviceSpec;
use hybrid_radix_sort::multi_gpu::{DevicePool, OocConfig, ShardedSorter};
use hybrid_radix_sort::prelude::*;
use hybrid_radix_sort::workloads::{uniform_keys, KeyCodec, ZipfGenerator};
use proptest::prelude::*;

/// A sharded sorter over `p` PCIe Titan X cards, with the on-GPU config
/// scaled down to test-sized inputs.
fn host_sorter(p: usize) -> ShardedSorter {
    let gpu = HybridRadixSorter::new(SortConfig::keys_64().scaled_for(50_000, 250_000_000));
    ShardedSorter::new(DevicePool::titan_cluster(p))
        .with_sorter(gpu)
        .with_merge_threads(4)
}

/// The benchmarks' pool: two single-worker CPU sockets, which sort for
/// real and recombine on the host; out of core, four chunks per lane.
fn socket_sorter() -> ShardedSorter {
    ShardedSorter::new(DevicePool::new(vec![SimDevice::cpu_socket(1); 2]))
        .with_merge_threads(4)
        .with_ooc_config(OocConfig::default().with_chunks_per_device(4))
}

/// A value that is a function of its key, so pair outputs compare exactly
/// whatever order a sorter leaves equal keys in.
fn tag(k: u64) -> u32 {
    (k ^ (k >> 32)) as u32
}

/// The input shapes the suite sweeps: uniform, the paper's zipf,
/// pre-sorted, duplicate-heavy (keys folded into 16 distinct values) and
/// constant (every shard but one receives zero keys).
fn generate(shape: usize, n: usize, seed: u64) -> Vec<u64> {
    match shape {
        0 => uniform_keys::<u64>(n, seed),
        1 => ZipfGenerator::paper_keys::<u64>(n, seed),
        2 => {
            let mut k = uniform_keys::<u64>(n, seed);
            k.sort_unstable();
            k
        }
        3 => uniform_keys::<u64>(n, seed)
            .into_iter()
            .map(|k| (k % 16) << 60)
            .collect(),
        _ => vec![seed; n],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Keys: the host step ≡ std, over 1/2/4/8-device pools and every
    /// input shape.
    #[test]
    fn key_sorts_agree_with_std(
        n in 2_000usize..40_000,
        p_idx in 0usize..4,
        shape in 0usize..4,
        seed in any::<u64>(),
    ) {
        let p = [1usize, 2, 4, 8][p_idx];
        let keys = generate(shape, n, seed);
        let reference = KeyCodec::std_sorted(&keys);

        let mut sorted = keys;
        let report = host_sorter(p).sort(&mut sorted);
        prop_assert_eq!(&sorted, &reference);
        prop_assert_eq!(report.n, n as u64);
        let invariants = report.span_invariants();
        prop_assert!(invariants.is_ok(), "span invariants: {:?}", invariants);
    }

    /// Pairs: every value still rides its key through the host step.
    #[test]
    fn pair_sorts_keep_values_with_their_keys(
        n in 1_000usize..25_000,
        p_idx in 0usize..3,
        seed in any::<u64>(),
    ) {
        let p = [2usize, 4, 8][p_idx];
        let keys = uniform_keys::<u64>(n, seed);
        let tags: Vec<u64> = keys.iter().map(|&k| !k).collect();
        let reference = KeyCodec::std_sorted(&keys);

        let (mut k, mut v) = (keys, tags);
        host_sorter(p).sort_pairs(&mut k, &mut v);
        prop_assert_eq!(&k, &reference);
        prop_assert!(k.iter().zip(&v).all(|(&k, &v)| v == !k),
            "a value came unglued from its key");
    }

    /// CPU sockets: pairs and the out-of-core lane agree with std
    /// and with the host-merge sorter on a GPU pool, on every input shape.
    #[test]
    fn socket_pair_sorts_agree_with_reference_and_host_merge(
        n in 2_000usize..30_000,
        shape in 0usize..5,
        seed in any::<u64>(),
    ) {
        let keys = generate(shape, n, seed);
        let vals: Vec<u32> = keys.iter().map(|&k| tag(k)).collect();
        let reference = KeyCodec::std_sorted(&keys);
        let reference_vals: Vec<u32> = reference.iter().map(|&k| tag(k)).collect();

        let (mut hk, mut hv) = (keys.clone(), vals.clone());
        host_sorter(2).sort_pairs(&mut hk, &mut hv);
        prop_assert_eq!(&hk, &reference);
        prop_assert_eq!(&hv, &reference_vals);

        let sorter = socket_sorter();
        let (mut sk, mut sv) = (keys.clone(), vals.clone());
        sorter.sort_pairs(&mut sk, &mut sv);
        prop_assert_eq!(&sk, &hk);
        prop_assert_eq!(&sv, &hv);

        let (mut ok, mut ov) = (keys, vals);
        let report = sorter.sort_out_of_core_pairs(&mut ok, &mut ov);
        prop_assert!(report.is_out_of_core());
        prop_assert_eq!(&ok, &hk);
        prop_assert_eq!(&ov, &hv);
    }

    /// Out of core on devices with 1 MiB of memory: the key-range chunks
    /// recombine on the host into exactly the std sort.
    #[test]
    fn out_of_core_agrees_with_std(
        n in 60_000usize..120_000,
        seed in any::<u64>(),
    ) {
        let mut spec = DeviceSpec::titan_x_pascal();
        spec.device_memory_bytes = 1 << 20;
        let pool = DevicePool::homogeneous(2, SimDevice::on_pcie3(spec));
        let keys = uniform_keys::<u64>(n, seed);
        let reference = KeyCodec::std_sorted(&keys);
        let mut sorted = keys;
        let report = ShardedSorter::new(pool)
            .try_sort_out_of_core(&mut sorted)
            .expect("ooc lane must not fail without faults");
        prop_assert_eq!(&sorted, &reference);
        prop_assert!(report.is_out_of_core());
    }
}

/// Skewed capacity weights: a P100 next to a GTX 980 cuts very unequal
/// key ranges, and the host step must still tile the key space exactly.
#[test]
fn skewed_pool_agrees_with_host_merge_and_reference() {
    let pool = DevicePool::new(vec![
        SimDevice::on_nvlink2(DeviceSpec::tesla_p100()),
        SimDevice::on_pcie3(DeviceSpec::gtx_980()),
    ]);
    let gpu = HybridRadixSorter::new(SortConfig::keys_64().scaled_for(75_000, 250_000_000));
    let keys = ZipfGenerator::paper_keys::<u64>(140_000, 27);
    let reference = KeyCodec::std_sorted(&keys);

    let mut via_titans = keys.clone();
    host_sorter(2).sort(&mut via_titans);
    assert_eq!(via_titans, reference);

    let mut via_skewed = keys;
    let report = ShardedSorter::new(pool)
        .with_sorter(gpu)
        .with_merge_threads(4)
        .sort(&mut via_skewed);
    assert_eq!(via_skewed, reference);
    assert!(
        report.shards[0].n > report.shards[1].n,
        "the P100 must take the larger key range"
    );
    report.span_invariants().expect("monotone spans");
}

/// A constant-key input collapses every splitter onto one value, so at
/// least one shard ends up with zero keys and concatenates like any other.
#[test]
fn zero_key_shards_are_legal() {
    let keys = vec![0xDEAD_BEEF_u64; 30_000];
    let mut sorted = keys.clone();
    let report = host_sorter(4).sort(&mut sorted);
    assert_eq!(sorted, keys, "constant input is already sorted");
    assert_eq!(report.shards.iter().map(|s| s.n).sum::<u64>(), 30_000);
    assert!(
        report.shards.iter().any(|s| s.n == 0),
        "a constant input must starve at least one shard"
    );
    report.span_invariants().expect("monotone spans");

    // The empty edge cases hold too.
    let mut empty: Vec<u64> = Vec::new();
    let r = host_sorter(4).sort(&mut empty);
    assert!(empty.is_empty());
    assert_eq!(r.n, 0);
    let mut one = vec![42u64];
    host_sorter(8).sort(&mut one);
    assert_eq!(one, vec![42]);
}

/// A constant input starves one of the two CPU sockets, in core and out
/// of core, and the empty shard concatenates like any other.
#[test]
fn socket_pool_tolerates_a_zero_key_shard() {
    let keys = vec![0xDEAD_BEEF_u64; 30_000];
    let vals: Vec<u32> = keys.iter().map(|&k| tag(k)).collect();
    let sorter = socket_sorter();
    for out_of_core in [false, true] {
        let (mut k, mut v) = (keys.clone(), vals.clone());
        let report = if out_of_core {
            sorter.sort_out_of_core_pairs(&mut k, &mut v)
        } else {
            sorter.sort_pairs(&mut k, &mut v)
        };
        assert_eq!((&k, &v), (&keys, &vals));
        assert!(
            report.shards.iter().any(|s| s.n == 0),
            "a constant input must starve a socket (out_of_core = {out_of_core})"
        );
    }
}
