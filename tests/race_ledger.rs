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
//!   just in the comments;
//! * a deliberately overlapping pair of cross-thread claims panics with a
//!   diagnostic naming both claim sites, proving the instrument actually
//!   bites (a checker that cannot fail checks nothing).

#![cfg(feature = "race-check")]

use hybrid_radix_sort::hrs_core::{Executor, HybridRadixSorter, SharedMut, SortConfig};
use hybrid_radix_sort::workloads::KeyCodec;
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
