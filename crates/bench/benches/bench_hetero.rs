//! Criterion benchmark behind Figures 8 and 9: the CPU-side parallel
//! multiway merge for a growing number of runs (the component that limits
//! the end-to-end time on the six-core host), the same merge over key-value
//! runs, and the full heterogeneous sort at functional scale (the sharded
//! engine's out-of-core path on one device).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hetero::{merge_pairs_into, parallel_merge_sorted_runs};
use hrs_bench::{bench_config_64, BENCH_HETERO_KEYS, BENCH_SEED};
use hrs_core::HybridRadixSorter;
use multi_gpu::{DevicePool, OocConfig, ShardedSorter};
use std::hint::black_box;
use std::time::Duration;
use workloads::Distribution;

fn bench_multiway_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig08_cpu_multiway_merge");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    let keys: Vec<u64> = Distribution::Uniform.generate(BENCH_HETERO_KEYS * 4, BENCH_SEED);
    for runs in [2usize, 4, 8, 16] {
        let per = keys.len() / runs;
        let sorted_runs: Vec<Vec<u64>> = (0..runs)
            .map(|i| {
                let mut r = keys[i * per..(i + 1) * per].to_vec();
                r.sort_unstable();
                r
            })
            .collect();
        group.bench_with_input(
            BenchmarkId::new("merge", format!("s={runs}")),
            &sorted_runs,
            |b, runs| {
                b.iter(|| {
                    let refs: Vec<&[u64]> = runs.iter().map(|r| r.as_slice()).collect();
                    black_box(parallel_merge_sorted_runs(&refs, 6))
                });
            },
        );
    }
    // The sharded engine's out-of-core shape: four runs of u64 keys with
    // u32 values, merged structure-of-arrays into preallocated outputs.
    let per = keys.len() / 4;
    let pair_runs: Vec<(Vec<u64>, Vec<u32>)> = (0..4)
        .map(|i| {
            let mut r = keys[i * per..(i + 1) * per].to_vec();
            r.sort_unstable();
            let vals = r.iter().map(|&k| k as u32).collect();
            (r, vals)
        })
        .collect();
    let mut out = (vec![0u64; 4 * per], vec![0u32; 4 * per]);
    group.bench_function("merge_pairs/s=4", |b| {
        b.iter(|| {
            let refs: Vec<(&[u64], &[u32])> = pair_runs
                .iter()
                .map(|(ks, vs)| (ks.as_slice(), vs.as_slice()))
                .collect();
            merge_pairs_into(&refs, 6, &mut out.0, &mut out.1);
            black_box(&out);
        });
    });
    group.finish();
}

fn bench_hetero_sort(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig09_heterogeneous_sort_functional");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    let keys: Vec<u64> =
        Distribution::paper_zipf(100_000).generate(BENCH_HETERO_KEYS * 2, BENCH_SEED);
    for s in [2usize, 4] {
        let sorter = ShardedSorter::new(DevicePool::titan_cluster(1))
            .with_sorter(HybridRadixSorter::new(bench_config_64()))
            .with_merge_threads(6)
            .with_ooc_config(OocConfig::default().with_chunks_per_device(s));
        group.bench_with_input(
            BenchmarkId::new("end_to_end", format!("s={s}")),
            &keys,
            |b, keys| {
                b.iter(|| {
                    let mut k = keys.clone();
                    black_box(sorter.sort_out_of_core(&mut k));
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_multiway_merge, bench_hetero_sort);
criterion_main!(benches);
