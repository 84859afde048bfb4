//! Out-of-core / heterogeneous sorting: an input that would not fit into GPU
//! device memory is split into chunks, pipelined over the (simulated) PCIe
//! bus, sorted chunk by chunk and merged on the CPU with the parallel
//! multiway merge — Section 5 of the paper.  The functional sort is the
//! sharded engine's out-of-core path on a one-device pool; the paper-scale
//! what-if uses the analytic model.
//!
//! ```text
//! cargo run --release --example out_of_core
//! ```

use hybrid_radix_sort::prelude::*;

fn main() {
    let n = 8_000_000usize;
    let mut keys = hybrid_radix_sort::workloads::uniform_keys::<u64>(n, 99);

    for s in [2usize, 4, 8] {
        let sorter = ShardedSorter::new(DevicePool::titan_cluster(1))
            .with_merge_threads(6)
            .with_ooc_config(OocConfig::default().with_chunks_per_device(s));
        let mut run = keys.clone();
        let report = sorter.sort_out_of_core(&mut run);
        assert!(run.windows(2).all(|w| w[0] <= w[1]));
        println!(
            "s = {:>2}: chunked sort {:>10}, CPU merge measured {:?}, end-to-end {:>10}",
            s, report.critical_path, report.measured_merge, report.end_to_end
        );
    }

    // Paper-scale what-if: how long would 64 GB of 64-bit/64-bit pairs take
    // end to end, given the measured merge throughput of this machine?
    let gpu_sort_64gb = SimTime::from_secs(0.42 * 16.0); // ~0.42 s per 4 GB chunk
    let merge_throughput = 2.0e9; // bytes/s, conservative six-core estimate
    let breakdown = HeterogeneousSorter::with_defaults().simulate_end_to_end(
        64_000_000_000,
        16,
        gpu_sort_64gb,
        SimTime::from_secs(64_000_000_000.0 / merge_throughput),
    );
    println!(
        "64 GB what-if: chunked sort {}, CPU merge {}, end-to-end {}",
        breakdown.chunked_sort, breakdown.cpu_merge, breakdown.end_to_end
    );

    // The same idea composed over a *pool*: every device of a sharded sort
    // streams its own shard through the chunked pipeline, so the input may
    // exceed the sum of device memories.  Shrink the device memories so the
    // small demo input is genuinely out of core.
    let mut small = DeviceSpec::titan_x_pascal();
    small.device_memory_bytes = 1 << 20; // 1 MiB "GPUs"
    let pool = DevicePool::homogeneous(2, SimDevice::on_pcie3(small));
    println!(
        "\npool of 2 × 1 MiB devices: in-core admission budget = {} bytes",
        pool.batch_budget_bytes()
    );
    let mut run = keys[..500_000].to_vec(); // 4 MB of keys: over budget
    let report = ShardedSorter::new(pool).sort_out_of_core(&mut run);
    assert!(run.windows(2).all(|w| w[0] <= w[1]));
    println!(
        "out-of-core sharded sort: {} chunks over {} devices, critical path {}, end-to-end {}",
        report.ooc_chunks.len(),
        report.shards.len(),
        report.critical_path,
        report.end_to_end
    );

    keys.truncate(0);
}
