//! Depth-first finishing of cache-sized buckets changes the schedule, not
//! the result: an untraced sort, which hands every bucket whose source and
//! destination fit `gpu_sim::HOST_CACHE_BYTES` to one worker for its
//! remaining passes and local sorts, produces the same keys, values and
//! `SortReport` (compared as `Debug` strings, simulated cost included) as
//! the traced sort of the same input, the only one that keeps the paper's
//! breadth-first pass order.
//!
//! Each shape runs on 1, 2 and 7 workers, and each checks that the
//! depth-first schedule actually ran: one executor task finishes a bucket
//! that takes at least a histogram task, a scatter task and a local sort
//! breadth-first, so the untraced sort runs fewer tasks.

use hybrid_radix_sort::gpu_sim::HOST_CACHE_BYTES;
use hybrid_radix_sort::hrs_core::{SortValue, SorterProbe};
use hybrid_radix_sort::prelude::*;
use hybrid_radix_sort::workloads::uniform_keys;

const WORKERS: [usize; 3] = [1, 2, 7];

/// Sorts `keys`/`values` untraced and traced on `workers` workers, checks
/// that both agree byte for byte and with `std`, and returns the report.
fn check_against_breadth_first<K: SortKey, V: SortValue + PartialEq + std::fmt::Debug>(
    config: &SortConfig,
    keys: &[K],
    values: &[V],
    workers: usize,
) -> SortReport {
    let sorter = |probe: &std::sync::Arc<SorterProbe>| {
        HybridRadixSorter::new(config.clone())
            .with_executor(Executor::with_workers(workers))
            .with_probe(probe.clone())
    };
    let depth_probe = SorterProbe::register(&Inspector::new(), "core", workers);
    let (mut dk, mut dv) = (keys.to_vec(), values.to_vec());
    let depth = sorter(&depth_probe).sort_pairs(&mut dk, &mut dv);

    let breadth_probe = SorterProbe::register(&Inspector::new(), "core", workers);
    let (mut bk, mut bv) = (keys.to_vec(), values.to_vec());
    let (breadth, _) = sorter(&breadth_probe).sort_pairs_traced(&mut bk, &mut bv, 0);

    let case = format!(
        "K={} V={} workers={workers}",
        K::BITS,
        std::mem::size_of::<V>()
    );
    assert!(
        dk.iter()
            .map(|k| k.to_radix())
            .eq(bk.iter().map(|k| k.to_radix())),
        "keys differ: {case}"
    );
    assert!(dv == bv, "values differ: {case}");
    assert_eq!(
        format!("{depth:?}"),
        format!("{breadth:?}"),
        "reports differ: {case}"
    );
    assert!(
        bk.windows(2).all(|w| w[0].to_radix() <= w[1].to_radix()),
        "not sorted: {case}"
    );
    let (tasks, breadth_tasks) = (
        depth_probe.exec_probe().total_tasks(),
        breadth_probe.exec_probe().total_tasks(),
    );
    assert!(
        tasks < breadth_tasks,
        "no depth-first task ran ({tasks} tasks against {breadth_tasks}): {case}"
    );
    depth
}

/// Largest bucket, in keys, the sorter finishes depth-first for records of
/// `record` bytes.
fn depth_first_keys(record: usize) -> usize {
    HOST_CACHE_BYTES as usize / (2 * record)
}

#[test]
fn table3_u32_keys_match_the_breadth_first_sort() {
    // Table 3's u32 row with the bucket structure of 2^24 keys (as the
    // bench sorts them) at 2^20: every pass-0 bucket of about 4k keys is
    // above ∂̂ and inside the cache budget, so it finishes depth-first.
    let n = 1 << 20;
    let config = SortConfig::keys_32().scaled_for(n, 1 << 24);
    let keys = uniform_keys::<u32>(n, 41);
    for workers in WORKERS {
        let report = check_against_breadth_first(&config, &keys, &vec![(); n], workers);
        assert_eq!(report.counting_passes(), 2, "{}", report.summary());
    }
}

#[test]
fn skewed_keys_mix_breadth_first_and_deeper_depth_first_passes() {
    // Keys that AND two random words: the all-zero top digit holds about a
    // tenth of the input, above the cache budget, so its pass 1 runs
    // breadth-first; the other pass-0 buckets fit the budget, and some of
    // their pass-1 sub-buckets are still above ∂̂, so their depth-first
    // tasks run pass 2 too.
    let n = 1 << 21;
    let config = SortConfig::keys_32().scaled_for(n, 1 << 24);
    let keys = EntropyLevel::with_and_count(2).generate_u32(n, 43);
    let threshold = config.local_sort_threshold;
    let budget = depth_first_keys(4);
    let mut top = vec![0usize; 256];
    let mut top_two = vec![0usize; 1 << 16];
    for &k in &keys {
        top[(k >> 24) as usize] += 1;
        top_two[(k >> 16) as usize] += 1;
    }
    assert!(
        top.iter().any(|&c| c > budget),
        "no bucket above the budget"
    );
    assert!(
        (0..256).any(|d| {
            top[d] > threshold
                && top[d] <= budget
                && top_two[d << 8..(d + 1) << 8].iter().any(|&c| c > threshold)
        }),
        "no depth-first task runs a second pass"
    );
    for workers in WORKERS {
        let report = check_against_breadth_first(&config, &keys, &vec![(); n], workers);
        assert!(report.counting_passes() >= 3, "{}", report.summary());
    }
}

#[test]
fn wide_pairs_with_merged_local_buckets_match_the_breadth_first_sort() {
    // u64 keys with u64 row ids: the pass-0 buckets of about 1k pairs
    // finish depth-first, and their pass-1 sub-buckets of a few pairs
    // merge into local buckets.
    let n = 1 << 18;
    let config = SortConfig::pairs_64_64().scaled_for(n, 1 << 22);
    let keys = uniform_keys::<u64>(n, 47);
    let rows: Vec<u64> = (0..n as u64).collect();
    assert!(n / 256 <= depth_first_keys(16));
    for workers in WORKERS {
        let report = check_against_breadth_first(&config, &keys, &rows, workers);
        assert!(report.local.merged_buckets > 0, "{}", report.summary());
        assert_eq!(report.counting_passes(), 2, "{}", report.summary());
    }
}
