//! Property-based tests over the core invariants: any input is sorted into a
//! permutation of itself, values follow their keys, codecs preserve order,
//! bucket classification conserves keys, multi-GPU shard boundaries
//! partition the key space, and the pipeline schedule respects its
//! dependencies.

use hybrid_radix_sort::hrs_core::bucket::{classify_sub_buckets, SubBucket};
use hybrid_radix_sort::hrs_core::{HybridRadixSorter, Optimizations, SortConfig};
use hybrid_radix_sort::multi_gpu::{compute_splitters, DevicePool, PartitionConfig, ShardedSorter};
use hybrid_radix_sort::prelude::SortKey;
use hybrid_radix_sort::workloads::{pairs::verify_indexed_pair_sort, KeyCodec};
use proptest::prelude::*;

fn tiny_config(local: usize, merge: usize, kpb: usize, digit_bits: u32) -> SortConfig {
    let mut cfg = SortConfig::keys_32();
    cfg.digit_bits = digit_bits;
    cfg.local_sort_threshold = local;
    cfg.merge_threshold = merge.min(local);
    cfg.keys_per_block = kpb;
    cfg.local_sort_classes = SortConfig::default_classes(local);
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sorts_arbitrary_u32_inputs(keys in proptest::collection::vec(any::<u32>(), 0..3000),
                                  local in 4usize..600,
                                  kpb in 16usize..800,
                                  digit_bits in 2u32..9) {
        let cfg = tiny_config(local, local / 3 + 1, kpb, digit_bits);
        let mut sorted = keys.clone();
        HybridRadixSorter::new(cfg).sort(&mut sorted);
        prop_assert_eq!(sorted, KeyCodec::std_sorted(&keys));
    }

    #[test]
    fn sorts_arbitrary_u64_inputs_with_all_ablation_variants(
        keys in proptest::collection::vec(any::<u64>(), 0..1500),
        variant in 0usize..6,
    ) {
        let opts = Optimizations::ablation_variants()[variant].1;
        let cfg = tiny_config(128, 43, 96, 8);
        let mut sorted = keys.clone();
        HybridRadixSorter::new(cfg).with_optimizations(opts).sort(&mut sorted);
        prop_assert_eq!(sorted, KeyCodec::std_sorted(&keys));
    }

    #[test]
    fn sorts_arbitrary_signed_and_float_inputs(ints in proptest::collection::vec(any::<i64>(), 0..1200),
                                               floats in proptest::collection::vec(-1e12f64..1e12, 0..1200)) {
        let sorter = HybridRadixSorter::new(tiny_config(200, 67, 128, 8));
        let mut s = ints.clone();
        sorter.sort(&mut s);
        prop_assert_eq!(s, KeyCodec::std_sorted(&ints));
        let mut f = floats.clone();
        sorter.sort(&mut f);
        prop_assert!(f.windows(2).all(|w| w[0] <= w[1]));
        prop_assert_eq!(f.len(), floats.len());
    }

    #[test]
    fn pair_sorts_preserve_association(keys in proptest::collection::vec(any::<u32>(), 1..2000)) {
        let mut sorted = keys.clone();
        let mut values: Vec<u32> = (0..keys.len() as u32).collect();
        HybridRadixSorter::new(tiny_config(150, 50, 100, 8)).sort_pairs(&mut sorted, &mut values);
        prop_assert!(verify_indexed_pair_sort(&keys, &sorted, &values));
    }

    #[test]
    fn codec_round_trips_and_preserves_order(a in any::<f64>().prop_filter("no NaN", |v| !v.is_nan()),
                                             b in any::<f64>().prop_filter("no NaN", |v| !v.is_nan()),
                                             x in any::<i64>(), y in any::<i64>()) {
        prop_assert_eq!(f64::from_radix(a.to_radix()).to_bits(), a.to_bits());
        prop_assert_eq!(i64::from_radix(x.to_radix()), x);
        if a < b {
            prop_assert!(a.to_radix() < b.to_radix());
        }
        if x < y {
            prop_assert!(x.to_radix() < y.to_radix());
        }
    }

    #[test]
    fn bucket_classification_conserves_keys_and_respects_thresholds(
        lens in proptest::collection::vec(0usize..5000, 0..64),
        local in 64usize..4000,
    ) {
        let merge = local / 3;
        let mut offset = 0usize;
        let subs: Vec<SubBucket> = lens.iter().map(|&len| {
            let sb = SubBucket { offset, len };
            offset += len;
            sb
        }).collect();
        let c = classify_sub_buckets(&subs, 1, local, merge, true);
        let total_in: usize = lens.iter().sum();
        let total_out: usize = c.local.iter().map(|l| l.len).sum::<usize>()
            + c.counting.iter().map(|b| b.len).sum::<usize>();
        prop_assert_eq!(total_in, total_out);
        // Counting buckets are the ones that exceeded the local threshold.
        for b in &c.counting {
            prop_assert!(b.len > local);
        }
        // Merged buckets never exceed the merge threshold.
        for l in &c.local {
            if l.is_merged() {
                prop_assert!(l.len < merge);
            }
            prop_assert!(l.len <= local);
        }
    }

    #[test]
    fn shard_boundaries_partition_the_key_space(
        keys in proptest::collection::vec(any::<u32>(), 0..4000),
        shards in 2usize..9,
        heavy_weight in 1usize..5,
    ) {
        // Heterogeneous capacity weights: the first device is up to 4x the
        // rest.
        let mut weights = vec![1.0; shards];
        weights[0] = heavy_weight as f64;
        let s = compute_splitters(&keys, &weights, &PartitionConfig::default());
        prop_assert!(s.validate().is_ok(), "{:?}", s.validate());
        // The inclusive ranges tile [0, max_radix] with no gaps or
        // overlaps, regardless of the input's shape.
        let ranges = s.ranges();
        prop_assert_eq!(ranges.len(), shards);
        prop_assert_eq!(ranges[0].0, 0);
        prop_assert_eq!(ranges.last().unwrap().1, u32::MAX as u64);
        for w in ranges.windows(2) {
            prop_assert_eq!(w[0].1 + 1, w[1].0);
        }
        // Every key lands in exactly the shard whose range contains it, and
        // the shard populations sum back to the input size.
        let mut counts = vec![0usize; shards];
        for k in &keys {
            let shard = s.shard_of(k.to_radix());
            let (lo, hi) = ranges[shard];
            prop_assert!(k.to_radix() >= lo && k.to_radix() <= hi);
            counts[shard] += 1;
        }
        prop_assert_eq!(counts.iter().sum::<usize>(), keys.len());
    }

    #[test]
    fn sharded_sort_matches_std_sort(
        keys in proptest::collection::vec(any::<u32>(), 0..3000),
        devices in 1usize..5,
    ) {
        let gpu = HybridRadixSorter::new(tiny_config(128, 43, 96, 8));
        let sorter = ShardedSorter::new(DevicePool::titan_cluster(devices))
            .with_sorter(gpu)
            .with_merge_threads(2);
        let mut sorted = keys.clone();
        let report = sorter.sort(&mut sorted);
        prop_assert_eq!(sorted, KeyCodec::std_sorted(&keys));
        prop_assert_eq!(report.n as usize, keys.len());
        prop_assert_eq!(report.shards.iter().map(|s| s.n).sum::<u64>() as usize, keys.len());
    }

    #[test]
    fn merge_of_sorted_runs_is_sorted_permutation(
        runs in proptest::collection::vec(proptest::collection::vec(any::<u64>(), 0..400), 1..8),
        threads in 1usize..6,
    ) {
        use hybrid_radix_sort::hetero::parallel_merge_sorted_runs;
        let sorted_runs: Vec<Vec<u64>> = runs.iter().map(|r| {
            let mut s = r.clone();
            s.sort_unstable();
            s
        }).collect();
        let refs: Vec<&[u64]> = sorted_runs.iter().map(|r| r.as_slice()).collect();
        let merged = parallel_merge_sorted_runs(&refs, threads);
        let mut expected: Vec<u64> = runs.concat();
        expected.sort_unstable();
        prop_assert_eq!(merged, expected);
    }

    #[test]
    fn pairs_merge_equals_the_stable_reference(
        runs in proptest::collection::vec(proptest::collection::vec(0u64..12, 0..1200), 1..9),
        threads in 1usize..5,
    ) {
        use hybrid_radix_sort::hetero::merge_pairs_into;
        // A 12-key universe forces ties; each value labels its element's
        // run and position, so the values show the order of the ties.
        let runs: Vec<(Vec<u64>, Vec<u32>)> = runs.into_iter().enumerate().map(|(r, mut ks)| {
            ks.sort_unstable();
            let vs = (0..ks.len() as u32).map(|i| (r as u32) << 16 | i).collect();
            (ks, vs)
        }).collect();
        // The stable reference: concatenate in run order, stable-sort by key.
        let mut expected: Vec<(u64, u32)> = runs
            .iter()
            .flat_map(|(ks, vs)| ks.iter().copied().zip(vs.iter().copied()))
            .collect();
        expected.sort_by_key(|&(k, _)| k);
        let refs: Vec<(&[u64], &[u32])> =
            runs.iter().map(|(ks, vs)| (ks.as_slice(), vs.as_slice())).collect();
        let (mut keys, mut vals) = (vec![0u64; expected.len()], vec![0u32; expected.len()]);
        merge_pairs_into(&refs, threads, &mut keys, &mut vals);
        prop_assert_eq!(keys.into_iter().zip(vals).collect::<Vec<_>>(), expected);
    }

    #[test]
    fn lsd_local_sort_equals_the_stable_reference(
        raw in proptest::collection::vec(any::<u64>(), 0..700),
        bits in 1u32..65,
        distinct in 1u64..40,
        in_place in any::<bool>(),
    ) {
        use hybrid_radix_sort::hrs_core::local_sort::{lsd_sort_in_place, lsd_sort_into};
        // Keys agree above their low `bits` bits (as a bucket's keys do)
        // and take at most `distinct` low values, so ties are common; the
        // values are input positions, so the order of ties shows.
        let low = u64::MAX >> (64 - bits);
        let keys: Vec<u64> = raw
            .iter()
            .map(|r| (0xC3C3_C3C3_C3C3_C3C3 & !low) | ((r % distinct).wrapping_mul(0x9E37_79B9_7F4A_7C15) & low))
            .collect();
        let n = keys.len();
        let vals: Vec<u32> = (0..n as u32).collect();
        let mut expected: Vec<(u64, u32)> = keys.iter().copied().zip(vals.iter().copied()).collect();
        expected.sort_by_key(|&(k, _)| k);
        let (mut tk, mut tv) = (vec![0u64; n], vec![0u32; n]);
        let (mut k, mut v) = (keys.clone(), vals.clone());
        if in_place {
            lsd_sort_in_place(&mut k, &mut v, &mut tk, &mut tv, bits);
        } else {
            lsd_sort_into(&keys, &vals, &mut k, &mut v, &mut tk, &mut tv, bits);
        }
        prop_assert_eq!(k.into_iter().zip(v).collect::<Vec<_>>(), expected);
    }
}
