//! Integration tests of the batch sort service: N concurrent requests of
//! mixed sizes and key classes must round-trip through `SortService`
//! identical to sorting each individually, through both the coalescing and
//! the one-request-per-batch schedulers, and across the
//! saturation/backpressure path.

use hybrid_radix_sort::multi_gpu::{DevicePool, ShardedSorter};
use hybrid_radix_sort::sort_service::{
    ServiceConfig, SortPayload, SortService, SortTicket, SubmitError,
};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// What sorting one request *individually* must produce.  Key-only
/// payloads sort exactly; pair payloads sort by key with values permuted
/// along — ties may order their values differently between a batched and
/// an individual run (the hybrid radix sort is not stable), so pairs are
/// compared as `(key, value)` multisets in key order.
fn expected(payload: &SortPayload) -> SortPayload {
    match payload {
        SortPayload::U32Keys(keys) => {
            let mut k = keys.clone();
            k.sort_unstable();
            SortPayload::U32Keys(k)
        }
        SortPayload::U64Keys(keys) => {
            let mut k = keys.clone();
            k.sort_unstable();
            SortPayload::U64Keys(k)
        }
        SortPayload::U32Pairs { keys, values } => {
            let mut zip: Vec<(u32, u32)> =
                keys.iter().copied().zip(values.iter().copied()).collect();
            zip.sort_unstable();
            SortPayload::U32Pairs {
                keys: zip.iter().map(|&(k, _)| k).collect(),
                values: zip.iter().map(|&(_, v)| v).collect(),
            }
        }
        SortPayload::U64Pairs { keys, values } => {
            let mut zip: Vec<(u64, u32)> =
                keys.iter().copied().zip(values.iter().copied()).collect();
            zip.sort_unstable();
            SortPayload::U64Pairs {
                keys: zip.iter().map(|&(k, _)| k).collect(),
                values: zip.iter().map(|&(_, v)| v).collect(),
            }
        }
    }
}

/// Canonicalises a sorted payload for comparison: pair payloads are
/// re-sorted by `(key, value)` so tie-order differences don't matter;
/// key-only payloads are compared verbatim.
fn canonical(payload: &SortPayload) -> SortPayload {
    match payload {
        SortPayload::U32Keys(_) | SortPayload::U64Keys(_) => payload.clone(),
        _ => expected(payload),
    }
}

/// Builds the deterministic mixed-request workload: sizes/classes/shapes
/// cycle so every batch mixes key-only with pair requests of both widths.
fn mixed_payloads(sizes: &[usize]) -> Vec<SortPayload> {
    sizes
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let seed = (i as u64 + 1) * 37;
            match i % 4 {
                0 => SortPayload::U32Keys(hybrid_radix_sort::workloads::uniform_keys(n, seed)),
                1 => SortPayload::U64Keys(hybrid_radix_sort::workloads::uniform_keys(n, seed)),
                2 => SortPayload::U32Pairs {
                    keys: hybrid_radix_sort::workloads::uniform_keys(n, seed),
                    values: (0..n as u32).rev().collect(),
                },
                _ => SortPayload::U64Pairs {
                    keys: hybrid_radix_sort::workloads::uniform_keys(n, seed),
                    values: (0..n as u32).collect(),
                },
            }
        })
        .collect()
}

/// Submits every payload from its own thread (true concurrent submission),
/// waits for all tickets and returns the outcomes' payloads in request
/// order.
fn round_trip(service: &SortService, payloads: Vec<SortPayload>) -> Vec<SortPayload> {
    let tickets: Vec<SortTicket> = std::thread::scope(|scope| {
        let handles: Vec<_> = payloads
            .into_iter()
            .map(|p| {
                // queue_depth covers every request in these tests, so no
                // submission may bounce.
                scope.spawn(move || service.submit(p).expect("admission"))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    tickets
        .into_iter()
        .map(|t| t.wait().expect("ticket resolves").payload)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn batched_results_equal_individual_sorts(
        sizes in proptest::collection::vec(0usize..3_000, 3..10),
        linger_ms in 0u64..20,
    ) {
        let payloads = mixed_payloads(&sizes);
        let individual: Vec<SortPayload> = payloads.iter().map(expected).collect();
        let service = SortService::start(
            ShardedSorter::new(DevicePool::titan_cluster(2)),
            ServiceConfig::default()
                .with_max_linger(Duration::from_millis(linger_ms))
                .with_queue_depth(payloads.len().max(1)),
        );
        let results = round_trip(&service, payloads);
        let stats = service.shutdown();
        prop_assert_eq!(stats.requests as usize, results.len());
        for (i, (got, want)) in results.iter().zip(individual.iter()).enumerate() {
            prop_assert_eq!(&canonical(got), want, "request {}", i);
        }
    }

    #[test]
    fn one_request_per_batch_matches_too(
        sizes in proptest::collection::vec(0usize..2_000, 2..6),
    ) {
        let payloads = mixed_payloads(&sizes);
        let individual: Vec<SortPayload> = payloads.iter().map(expected).collect();
        let service = SortService::start(
            ShardedSorter::new(DevicePool::titan_cluster(2)),
            ServiceConfig::unbatched().with_queue_depth(payloads.len().max(1)),
        );
        let results = round_trip(&service, payloads);
        let stats = service.shutdown();
        // Coalescing disabled: exactly one batch per request.
        prop_assert_eq!(stats.batches, stats.requests);
        for (got, want) in results.iter().zip(individual.iter()) {
            prop_assert_eq!(&canonical(got), want);
        }
    }
}

#[test]
fn saturation_backpressure_is_lossless() {
    // queue_depth 3, long linger, huge thresholds: three requests fill the
    // service, the fourth bounces with `Saturated`, and after the drain
    // resolves the first three the lane is open again.
    let service = SortService::start(
        ShardedSorter::new(DevicePool::titan_cluster(2)),
        ServiceConfig::default()
            .with_queue_depth(3)
            .with_max_linger(Duration::from_secs(30))
            .with_max_batch_bytes(u64::MAX),
    );
    let payloads = mixed_payloads(&[1_500, 900, 700]);
    let individual: Vec<SortPayload> = payloads.iter().map(expected).collect();
    let tickets: Vec<SortTicket> = payloads
        .into_iter()
        .map(|p| service.submit(p).unwrap())
        .collect();
    assert_eq!(service.in_flight(), 3);
    match service
        .submit(SortPayload::U32Keys(vec![5, 3, 4]))
        .unwrap_err()
    {
        SubmitError::Saturated {
            in_flight,
            queue_depth,
        } => {
            assert_eq!(in_flight, 3);
            assert_eq!(queue_depth, 3);
        }
        other => panic!("expected saturation, got {other}"),
    }
    // Every admitted request still resolves correctly through the drain.
    let stats = service.shutdown();
    assert_eq!(stats.requests, 3);
    for (t, want) in tickets.into_iter().zip(individual.iter()) {
        let got = t.wait().unwrap().payload;
        assert_eq!(&canonical(&got), want);
    }
}

#[test]
fn coalesced_batch_shares_one_report() {
    let service = SortService::start(
        ShardedSorter::new(DevicePool::titan_cluster(2)),
        ServiceConfig::default()
            .with_max_linger(Duration::from_millis(150))
            .with_max_batch_bytes(u64::MAX)
            .with_queue_depth(8),
    );
    let tickets: Vec<SortTicket> = (0..3)
        .map(|s| {
            service
                .submit(SortPayload::U64Keys(
                    hybrid_radix_sort::workloads::uniform_keys(2_000, s + 1),
                ))
                .unwrap()
        })
        .collect();
    let outcomes: Vec<_> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
    assert!(
        outcomes
            .windows(2)
            .all(|w| w[0].batch.batch == w[1].batch.batch),
        "expected one coalesced batch"
    );
    let report = &outcomes[0].report;
    assert_eq!(report.n, 6_000);
    // Spans tile the concatenated batch in submission order.
    for (i, o) in outcomes.iter().enumerate() {
        assert!(Arc::ptr_eq(&o.report, report));
        assert_eq!(o.span.index, i);
        assert_eq!(o.span.offset, 2_000 * i as u64);
        assert_eq!(o.span.len, 2_000);
    }
    service.shutdown();
}
