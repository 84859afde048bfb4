//! Race-ledger integration tests, compiled only under `--features
//! race-check`.
//!
//! With the feature on, every `SharedMut` accessor reports its claimed
//! range to the analysis crate's dynamic race ledger before touching
//! memory.  Two properties are asserted here:
//!
//! * sorting arbitrary inputs through the full hybrid pipeline — threaded
//!   executor, staged scatter — never trips the ledger: the disjointness
//!   contracts the `unsafe` accessors rely on hold on real schedules, not
//!   just in the comments.  The same holds for the sharded engine on two
//!   CPU sockets, in core and out of core, whose partition scatters into
//!   shard ranges of one round buffer and whose lanes sort those ranges
//!   against the same ranges of the free input buffer, also with two
//!   threads sorting through one engine at once;
//! * two workers finishing cache-sized buckets depth-first, each task on
//!   its bucket's range of both halves and its own worker's scratch, keys
//!   alone and with values, uniform and Zipf, never trip it either;
//! * the counting pass's striped scatter, whose neighbouring stripes share
//!   destination cache lines across workers, claims whole lines it
//!   streams and the fragments it writes plainly without overlap;
//! * a deliberately overlapping pair of cross-thread claims panics with a
//!   diagnostic naming both claim sites, proving the instrument actually
//!   bites (a checker that cannot fail checks nothing).

#![cfg(feature = "race-check")]

use hybrid_radix_sort::hrs_core::scatter::STRIPE_KEYS;
use hybrid_radix_sort::hrs_core::{Executor, HybridRadixSorter, SharedMut, SortConfig};
use hybrid_radix_sort::multi_gpu::{DevicePool, OocConfig, ShardedSorter, SimDevice};
use hybrid_radix_sort::workloads::pairs::verify_indexed_pair_sort;
use hybrid_radix_sort::workloads::{uniform_keys, KeyCodec, ZipfGenerator};
use proptest::prelude::*;
use std::sync::Barrier;

fn tiny_config(local: usize, kpb: usize) -> SortConfig {
    let mut cfg = SortConfig::keys_32();
    cfg.digit_bits = 8;
    cfg.local_sort_threshold = local;
    cfg.merge_threshold = local / 3 + 1;
    cfg.keys_per_block = kpb;
    cfg.local_sort_classes = SortConfig::default_classes(local);
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn instrumented_sorts_never_trip_the_ledger(
        keys in proptest::collection::vec(any::<u64>(), 0..2500),
        local in 8usize..400,
        kpb in 16usize..600,
        workers in 2usize..5,
    ) {
        let expected = KeyCodec::std_sorted(&keys);
        let mut sorted = keys.clone();
        HybridRadixSorter::new(tiny_config(local, kpb))
            .with_executor(Executor::with_workers(workers))
            .sort(&mut sorted);
        prop_assert_eq!(sorted, expected);
    }
}

#[test]
fn striped_scatter_on_two_workers_never_trips_the_ledger() {
    // Pass 0 cuts the root bucket into stripes of `STRIPE_KEYS` keys.  A
    // stripe's chunk of each sub-bucket ends mid-line next to the next
    // stripe's chunk, and two workers claim the stripes in turn, so lines
    // are split between workers: the streamed whole lines and the plainly
    // written fragments must still be disjoint claims.
    let n = 10 * STRIPE_KEYS + 777;
    let sorter = HybridRadixSorter::new(SortConfig::for_widths(8, 4))
        .with_executor(Executor::with_workers(2));
    for keys in [uniform_keys::<u64>(n, 3), ZipfGenerator::paper_keys(n, 4)] {
        check_pair_sort(&keys, |k, v| {
            sorter.sort_pairs(k, v);
        });
    }
    let keys = uniform_keys::<u32>(n, 5);
    let mut sorted = keys.clone();
    HybridRadixSorter::new(SortConfig::keys_32())
        .with_executor(Executor::with_workers(2))
        .sort(&mut sorted);
    assert_eq!(sorted, KeyCodec::std_sorted(&keys));
}

#[test]
fn depth_first_tasks_on_two_workers_never_trip_the_ledger() {
    // Table 3's rows scaled so that the pass-0 buckets of about 1k keys
    // are above ∂̂ and inside the cache budget: two workers finish them
    // depth-first, each task claiming its bucket's range of both halves,
    // its worker's pass scratch and its worker's local-sort stripe.
    let n = 1 << 18;
    let pairs = HybridRadixSorter::new(SortConfig::for_widths(8, 4).scaled_for(n, 1 << 22))
        .with_executor(Executor::with_workers(2));
    let keys_only = HybridRadixSorter::new(SortConfig::keys_32().scaled_for(n, 1 << 24))
        .with_executor(Executor::with_workers(2));
    for seed in 0..2 {
        for keys in [
            uniform_keys::<u64>(n, seed),
            ZipfGenerator::paper_keys(n, seed),
        ] {
            check_pair_sort(&keys, |k, v| {
                pairs.sort_pairs(k, v);
            });
        }
        for keys in [
            uniform_keys::<u32>(n, seed),
            ZipfGenerator::paper_keys(n, seed),
        ] {
            let mut sorted = keys.clone();
            keys_only.sort(&mut sorted);
            assert_eq!(sorted, KeyCodec::std_sorted(&keys));
        }
    }
}

/// The benchmarks' pool: two single-worker CPU sockets; out of core,
/// four chunks per lane.
fn socket_engine() -> ShardedSorter {
    ShardedSorter::new(DevicePool::new(vec![SimDevice::cpu_socket(1); 2]))
        .with_merge_threads(2)
        .with_ooc_config(OocConfig::default().with_chunks_per_device(4))
}

/// Sorts `keys` with row ids through `sort` and checks the result.
fn check_pair_sort(keys: &[u64], sort: impl FnOnce(&mut Vec<u64>, &mut Vec<u32>)) {
    let mut k = keys.to_vec();
    let mut v: Vec<u32> = (0..keys.len() as u32).collect();
    sort(&mut k, &mut v);
    assert!(verify_indexed_pair_sort(keys, &k, &v));
}

#[test]
fn sharded_pair_sorts_on_two_sockets_never_trip_the_ledger() {
    let engine = socket_engine();
    let inputs = [
        uniform_keys::<u64>(40_000, 1),
        ZipfGenerator::paper_keys(40_000, 2),
    ];
    // Twice each, so the second sort partitions into the parked buffer.
    for keys in inputs.iter().chain(&inputs) {
        check_pair_sort(keys, |k, v| {
            engine.sort_pairs(k, v);
        });
        check_pair_sort(keys, |k, v| {
            engine.sort_out_of_core_pairs(k, v);
        });
    }
}

#[test]
fn concurrent_sorts_through_one_engine_never_trip_the_ledger() {
    // Both threads race for the engine's lanes and parked round buffer;
    // the loser of either `try_lock` sorts on its own.
    let engine = socket_engine();
    let barrier = Barrier::new(2);
    std::thread::scope(|s| {
        for t in 0..2u64 {
            let (engine, barrier) = (&engine, &barrier);
            s.spawn(move || {
                barrier.wait();
                for rep in 0..4 {
                    let keys = uniform_keys::<u64>(30_000, 10 * t + rep);
                    check_pair_sort(&keys, |k, v| {
                        engine.sort_pairs(k, v);
                    });
                }
            });
        }
    });
}

#[test]
fn disjoint_cross_thread_claims_are_allowed() {
    let mut buf = vec![0u32; 1024];
    let shared = SharedMut::new(&mut buf);
    let barrier = Barrier::new(2);
    std::thread::scope(|s| {
        for t in 0..2usize {
            let shared = &shared;
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                // SAFETY: thread `t` claims exactly [t·512, t·512 + 512);
                // the two ranges are disjoint by construction.
                let half = unsafe { shared.slice_mut(t * 512, 512) };
                for (i, v) in half.iter_mut().enumerate() {
                    *v = (t * 512 + i) as u32;
                }
            });
        }
    });
    drop(shared);
    assert!(buf.iter().enumerate().all(|(i, &v)| v == i as u32));
}

#[test]
#[should_panic(expected = "race ledger")]
fn overlapping_cross_thread_writes_panic() {
    // Two threads claim ranges sharing [512, 600).  The barrier makes the
    // claims genuinely concurrent and cross-thread (an executor could
    // legally hand both tasks to one worker, where the overlap would be
    // sequenced and benign — spawning raw threads removes that escape).
    // Whichever thread claims second panics; the explicit joins re-raise
    // that panic with its original payload (a bare `thread::scope` exit
    // would replace it with "a scoped thread panicked"), so `should_panic`
    // can verify the diagnostic text.
    let mut buf = vec![0u8; 1024];
    let shared = SharedMut::new(&mut buf);
    let barrier = Barrier::new(2);
    std::thread::scope(|s| {
        let handles: Vec<_> = [(0usize, 600usize), (512, 512)]
            .into_iter()
            .map(|(start, len)| {
                let shared = &shared;
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    // SAFETY: deliberately *violates* the disjointness
                    // contract — under race-check the ledger panics before
                    // either borrow is used, which is this test's point.
                    // The returned borrows are dropped immediately and
                    // never dereferenced, so even the claim that wins
                    // stays unused.
                    let _ = unsafe { shared.slice_mut(start, len) };
                })
            })
            .collect();
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}
