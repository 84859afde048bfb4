//! Local sorts of small buckets (Section 4.2).
//!
//! A bucket of at most ∂̂ keys is sorted entirely in on-chip shared memory:
//! it is read from device memory once, sorted (with CUB's `BlockRadixSort`
//! on the GPU; here with an in-place comparison sort on the keys' radix
//! representation), and written once to the buffer that will hold the
//! final sorted output — no matter how many internal passes the local sort
//! needs.  This is where the hybrid sort saves the bulk of its memory
//! traffic for friendly distributions.
//!
//! To avoid over-provisioning threads for tiny buckets, buckets are grouped
//! into *size classes*; each class is a separate kernel launch with just
//! enough threads (and an appropriately specialised sorting algorithm) for
//! its maximum bucket size.  The ablation's "single local sort config"
//! variant instead schedules every bucket on the ∂̂-sized configuration.
//!
//! Like the GPU, which launches the local sorts of a pass as independent
//! thread blocks, the [`Executor`] distributes buckets over its workers:
//! every bucket occupies a distinct range of the destination buffer, so
//! workers sort concurrently without synchronisation.

use crate::bucket::LocalBucket;
use crate::config::SortConfig;
use crate::exec::{ExecProbe, Executor, SharedMut};
use crate::opts::Optimizations;
use crate::report::LocalSortStats;
use workloads::pairs::SortValue;
use workloads::SortKey;

/// Sorts all `buckets` whose keys currently live in buffer `src` (at their
/// respective offsets) and places the sorted runs at the same offsets in
/// buffer `dst`.  `src` and `dst` may be the same buffer, in which case the
/// sort happens in place.  Buckets are distributed over the executor's
/// workers; the per-bucket statistics are accumulated on the calling
/// thread.
#[allow(clippy::too_many_arguments)]
pub fn run_local_sorts<K: SortKey, V: SortValue>(
    buffers_keys: &mut [Vec<K>; 2],
    buffers_vals: &mut [Vec<V>; 2],
    src: usize,
    dst: usize,
    buckets: &[LocalBucket],
    config: &SortConfig,
    opts: &Optimizations,
    exec: &Executor,
    probe: Option<&ExecProbe>,
    stats: &mut LocalSortStats,
) {
    // Bookkeeping first (cheap, O(1) per bucket): size classes, merge and
    // provisioning statistics.
    let mut classes_seen = [0usize; 64];
    let mut n_classes = 0usize;
    for bucket in buckets {
        let class = config.class_for(bucket.len, !opts.multiple_local_sort_configs);
        if !classes_seen[..n_classes].contains(&class.max_keys) && n_classes < classes_seen.len() {
            classes_seen[n_classes] = class.max_keys;
            n_classes += 1;
        }
        stats.invocations += 1;
        stats.n_keys += bucket.len as u64;
        stats.provisioned_keys += class.max_keys as u64;
        if bucket.is_merged() {
            stats.merged_buckets += 1;
        }
        stats.largest_bucket = stats.largest_bucket.max(bucket.len as u64);
    }
    stats.classes_used = stats.classes_used.max(n_classes as u64);

    if buckets.is_empty() {
        return;
    }

    // One dynamically scheduled task per bucket (so a handful of
    // near-threshold buckets cannot strand a worker behind a chunk of
    // them), with one record staging buffer per *worker* — a pass still
    // issues at most `workers` staging allocations.
    let mut stagings: Vec<Vec<(u64, K, V)>> = (0..exec.workers()).map(|_| Vec::new()).collect();
    let staging_view = SharedMut::new(&mut stagings);

    if src == dst {
        let keys = SharedMut::new(buffers_keys[dst].as_mut_slice());
        let vals = SharedMut::new(buffers_vals[dst].as_mut_slice());
        exec.for_each_task_probed(buckets.len(), probe, |b, worker| {
            // SAFETY: bucket ranges are disjoint across tasks, and staging
            // slot `worker` belongs to this thread only.
            unsafe {
                let records = &mut staging_view.slice_mut(worker, 1)[0];
                sort_range_in_place(&keys, &vals, &buckets[b], records);
            }
        });
    } else {
        let (src_keys, dst_keys) = split_src_dst(buffers_keys, src, dst);
        let (src_vals, dst_vals) = split_src_dst(buffers_vals, src, dst);
        let dst_keys = SharedMut::new(dst_keys);
        let dst_vals = SharedMut::new(dst_vals);
        exec.for_each_task_probed(buckets.len(), probe, |b, worker| {
            let bucket = &buckets[b];
            let range = bucket.offset..bucket.offset + bucket.len;
            // SAFETY: bucket ranges are disjoint across tasks, and staging
            // slot `worker` belongs to this thread only.
            unsafe {
                let keys = dst_keys.slice_mut(bucket.offset, bucket.len);
                keys.copy_from_slice(&src_keys[range.clone()]);
                if std::mem::size_of::<V>() != 0 {
                    let vals = dst_vals.slice_mut(bucket.offset, bucket.len);
                    vals.copy_from_slice(&src_vals[range]);
                    let records = &mut staging_view.slice_mut(worker, 1)[0];
                    sort_pairs_with_staging(keys, vals, records);
                } else {
                    sort_keys_in_shared_memory(keys);
                }
            }
        });
    }
}

/// Splits the double buffer into the source (shared) and destination
/// (mutable) halves.  `src` and `dst` must differ.
fn split_src_dst<T>(bufs: &mut [Vec<T>; 2], src: usize, dst: usize) -> (&[T], &mut [T]) {
    assert_ne!(src, dst);
    let (a, b) = bufs.split_at_mut(1);
    if src == 0 {
        (a[0].as_slice(), b[0].as_mut_slice())
    } else {
        (b[0].as_slice(), a[0].as_mut_slice())
    }
}

/// Sorts one bucket in place inside the shared destination views.
///
/// # Safety
///
/// The bucket's range must be in bounds and owned exclusively by the
/// calling task.
unsafe fn sort_range_in_place<K: SortKey, V: SortValue>(
    keys: &SharedMut<'_, K>,
    vals: &SharedMut<'_, V>,
    bucket: &LocalBucket,
    records: &mut Vec<(u64, K, V)>,
) {
    // SAFETY: forwarded contract — the caller exclusively owns the
    // bucket's range in both views.
    let key_slice = unsafe { keys.slice_mut(bucket.offset, bucket.len) };
    if std::mem::size_of::<V>() != 0 {
        // SAFETY: as above, for the value view.
        let val_slice = unsafe { vals.slice_mut(bucket.offset, bucket.len) };
        sort_pairs_with_staging(key_slice, val_slice, records);
    } else {
        sort_keys_in_shared_memory(key_slice);
    }
}

/// Co-sorts a key slice and its value slice by key, staging `(radix, key,
/// value)` records in a reusable buffer exactly like the GPU stages a
/// bucket's pairs through shared memory.
fn sort_pairs_with_staging<K: SortKey, V: SortValue>(
    keys: &mut [K],
    vals: &mut [V],
    records: &mut Vec<(u64, K, V)>,
) {
    records.clear();
    records.extend(
        keys.iter()
            .zip(vals.iter())
            .map(|(&k, &v)| (k.to_radix(), k, v)),
    );
    records.sort_unstable_by_key(|r| r.0);
    for (i, (_, k, v)) in records.drain(..).enumerate() {
        keys[i] = k;
        vals[i] = v;
    }
}

/// Sorts a staged bucket of keys by their radix representation.  An
/// unstable comparison sort is functionally equivalent to the GPU's
/// in-shared-memory `BlockRadixSort`: keys round-trip through the radix
/// representation, so equal radices are identical keys and every correct
/// sort yields the same bytes.  It sorts in place, so buckets of every
/// size class (tiny ones included) allocate nothing.
pub fn sort_keys_in_shared_memory<K: SortKey>(staged: &mut [K]) {
    staged.sort_unstable_by_key(|k| k.to_radix());
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{uniform_keys, KeyCodec};

    fn bucket(offset: usize, len: usize) -> LocalBucket {
        LocalBucket {
            id: 0,
            offset,
            len,
            merged_from: 1,
            sorted_passes: 1,
        }
    }

    #[test]
    fn sorts_buckets_into_the_destination_buffer() {
        let keys = uniform_keys::<u64>(1_000, 1);
        let mut bufs = [keys.clone(), vec![0u64; 1_000]];
        let mut vals: [Vec<()>; 2] = [Vec::new(), Vec::new()];
        let buckets = vec![bucket(0, 400), bucket(400, 600)];
        let mut stats = LocalSortStats::default();
        run_local_sorts(
            &mut bufs,
            &mut vals,
            0,
            1,
            &buckets,
            &SortConfig::keys_64(),
            &Optimizations::all_on(),
            &Executor::Sequential,
            None,
            &mut stats,
        );
        assert!(bufs[1][..400].windows(2).all(|w| w[0] <= w[1]));
        assert!(bufs[1][400..].windows(2).all(|w| w[0] <= w[1]));
        assert!(workloads::stats::is_permutation_of(
            &keys[..400],
            &bufs[1][..400]
        ));
        assert_eq!(stats.invocations, 2);
        assert_eq!(stats.n_keys, 1_000);
        assert_eq!(stats.largest_bucket, 600);
    }

    #[test]
    fn threaded_executor_matches_sequential() {
        let keys = uniform_keys::<u64>(6_000, 7);
        let buckets: Vec<LocalBucket> = (0..30).map(|i| bucket(i * 200, 200)).collect();
        let mut expect = [keys.clone(), vec![0u64; 6_000]];
        let mut vals: [Vec<()>; 2] = [Vec::new(), Vec::new()];
        let mut stats = LocalSortStats::default();
        run_local_sorts(
            &mut expect,
            &mut vals,
            0,
            1,
            &buckets,
            &SortConfig::keys_64(),
            &Optimizations::all_on(),
            &Executor::Sequential,
            None,
            &mut stats,
        );
        for workers in [2usize, 7] {
            let mut got = [keys.clone(), vec![0u64; 6_000]];
            let mut vals: [Vec<()>; 2] = [Vec::new(), Vec::new()];
            let mut stats = LocalSortStats::default();
            run_local_sorts(
                &mut got,
                &mut vals,
                0,
                1,
                &buckets,
                &SortConfig::keys_64(),
                &Optimizations::all_on(),
                &Executor::with_workers(workers),
                None,
                &mut stats,
            );
            assert_eq!(got[1], expect[1], "workers = {workers}");
        }
    }

    #[test]
    fn in_place_sort_when_src_equals_dst() {
        let keys = uniform_keys::<u32>(500, 2);
        let mut bufs = [keys.clone(), vec![0u32; 500]];
        let mut vals: [Vec<()>; 2] = [Vec::new(), Vec::new()];
        let mut stats = LocalSortStats::default();
        run_local_sorts(
            &mut bufs,
            &mut vals,
            0,
            0,
            &[bucket(0, 500)],
            &SortConfig::keys_32(),
            &Optimizations::all_on(),
            &Executor::Sequential,
            None,
            &mut stats,
        );
        assert_eq!(bufs[0], KeyCodec::std_sorted(&keys));
    }

    #[test]
    fn values_are_permuted_with_their_keys() {
        let keys = uniform_keys::<u32>(300, 3);
        let vals: Vec<u32> = (0..300).collect();
        let mut kbufs = [keys.clone(), vec![0u32; 300]];
        let mut vbufs = [vals, vec![0u32; 300]];
        let mut stats = LocalSortStats::default();
        run_local_sorts(
            &mut kbufs,
            &mut vbufs,
            0,
            1,
            &[bucket(0, 300)],
            &SortConfig::pairs_32_32(),
            &Optimizations::all_on(),
            &Executor::with_workers(2),
            None,
            &mut stats,
        );
        assert!(workloads::pairs::verify_indexed_pair_sort(
            &keys, &kbufs[1], &vbufs[1]
        ));
    }

    #[test]
    fn provisioning_reflects_size_classes_and_the_single_config_ablation() {
        let keys = uniform_keys::<u32>(200, 4);
        let cfg = SortConfig::keys_32();
        let mut stats_multi = LocalSortStats::default();
        let mut bufs = [keys.clone(), vec![0u32; 200]];
        let mut vals: [Vec<()>; 2] = [Vec::new(), Vec::new()];
        run_local_sorts(
            &mut bufs,
            &mut vals,
            0,
            1,
            &[bucket(0, 100), bucket(100, 100)],
            &cfg,
            &Optimizations::all_on(),
            &Executor::Sequential,
            None,
            &mut stats_multi,
        );
        // Two 100-key buckets fall into the [1,128] class.
        assert_eq!(stats_multi.provisioned_keys, 256);

        let mut stats_single = LocalSortStats::default();
        let mut bufs = [keys, vec![0u32; 200]];
        let mut vals: [Vec<()>; 2] = [Vec::new(), Vec::new()];
        run_local_sorts(
            &mut bufs,
            &mut vals,
            0,
            1,
            &[bucket(0, 100), bucket(100, 100)],
            &cfg,
            &Optimizations::single_local_sort_config(),
            &Executor::Sequential,
            None,
            &mut stats_single,
        );
        // The single configuration provisions ∂̂ keys per bucket.
        assert_eq!(stats_single.provisioned_keys, 2 * 9_216);
    }

    #[test]
    fn merged_buckets_are_counted() {
        let keys = uniform_keys::<u32>(100, 5);
        let mut bufs = [keys, vec![0u32; 100]];
        let mut vals: [Vec<()>; 2] = [Vec::new(), Vec::new()];
        let mut stats = LocalSortStats::default();
        let merged = LocalBucket {
            id: 1,
            offset: 0,
            len: 100,
            merged_from: 4,
            sorted_passes: 1,
        };
        run_local_sorts(
            &mut bufs,
            &mut vals,
            0,
            1,
            &[merged],
            &SortConfig::keys_32(),
            &Optimizations::all_on(),
            &Executor::Sequential,
            None,
            &mut stats,
        );
        assert_eq!(stats.merged_buckets, 1);
    }

    #[test]
    fn tiny_buckets_sort_zero_one_inputs() {
        // Every 0/1 input of up to twelve keys.
        for n in 1usize..=12 {
            for mask in 0u32..(1 << n) {
                let mut v: Vec<u8> = (0..n).map(|i| ((mask >> i) & 1) as u8).collect();
                sort_keys_in_shared_memory(&mut v);
                assert!(v.windows(2).all(|w| w[0] <= w[1]), "n={n} mask={mask:#b}");
            }
        }
    }

    #[test]
    fn shared_memory_sort_handles_all_sizes() {
        for n in [0usize, 1, 2, 17, 32, 33, 100, 5_000] {
            let mut keys = uniform_keys::<u64>(n, 6);
            let expected = KeyCodec::std_sorted(&keys);
            sort_keys_in_shared_memory(&mut keys);
            assert_eq!(keys, expected, "n = {n}");
        }
        // Signed and float keys go through the codec.
        let mut keys: Vec<i32> = vec![5, -3, 0, -100, 77];
        sort_keys_in_shared_memory(&mut keys);
        assert_eq!(keys, vec![-100, -3, 0, 5, 77]);
        let mut keys: Vec<f32> = vec![2.5, -1.0, 0.0, -7.5];
        sort_keys_in_shared_memory(&mut keys);
        assert_eq!(keys, vec![-7.5, -1.0, 0.0, 2.5]);
    }
}
