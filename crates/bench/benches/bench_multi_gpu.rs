//! Criterion benchmark for the multi-GPU sharded sort engine: end-to-end
//! functional sorting time over the device count, plus the splitter
//! selection on its own.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hrs_bench::{bench_config_64, BENCH_HETERO_KEYS, BENCH_SEED};
use hrs_core::HybridRadixSorter;
use multi_gpu::{compute_splitters, DevicePool, PartitionConfig, ShardedSorter};
use std::hint::black_box;
use std::time::Duration;
use workloads::uniform_keys;

fn bench_sharded_sort(c: &mut Criterion) {
    let mut group = c.benchmark_group("multi_gpu_sharded_sort");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    let keys = uniform_keys::<u64>(BENCH_HETERO_KEYS, BENCH_SEED);
    for devices in [1usize, 2, 4, 8] {
        let sorter = ShardedSorter::new(DevicePool::titan_cluster(devices))
            .with_sorter(HybridRadixSorter::new(bench_config_64()));
        group.bench_with_input(
            BenchmarkId::new("sort", format!("p={devices}")),
            &keys,
            |b, keys| {
                b.iter(|| {
                    let mut k = keys.clone();
                    black_box(sorter.sort(&mut k));
                });
            },
        );
    }
    group.finish();
}

fn bench_splitter_selection(c: &mut Criterion) {
    let mut group = c.benchmark_group("multi_gpu_splitters");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    let keys = uniform_keys::<u64>(BENCH_HETERO_KEYS, BENCH_SEED);
    for shards in [2usize, 8, 32] {
        let weights = vec![1.0; shards];
        group.bench_with_input(
            BenchmarkId::new("compute_splitters", format!("p={shards}")),
            &keys,
            |b, keys| {
                b.iter(|| {
                    black_box(compute_splitters(
                        keys,
                        &weights,
                        &PartitionConfig::default(),
                    ))
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_sharded_sort, bench_splitter_selection);
criterion_main!(benches);
