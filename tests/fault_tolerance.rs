//! Chaos and fault-tolerance tests: injected device failures, shard
//! corruption, transfer stalls and engine panics, driven through both the
//! sharded engine (`try_sort*`) and the full sort service.
//!
//! The contract under test, end to end: **under any injected single-device
//! failure with at least two survivors, every request either completes
//! with output identical to a reference sort or resolves to a typed
//! error — no hangs, no silent corruption, no escaping panics** — and the
//! `ShardedReport` / telemetry record each fault with the requeue that
//! resolved it.
//!
//! The CI chaos matrix reruns this file under several `CHAOS_SEED` values;
//! see `chaos_seed_scenario_is_deterministic`.

use hybrid_radix_sort::prelude::*;
use hybrid_radix_sort::sort_service::FlushReason;
use hybrid_radix_sort::workloads::{uniform_keys, KeyCodec};
use proptest::prelude::*;
use std::time::Duration;

/// A generous bound on how long any single request may take to resolve.
/// Nothing in these tests sleeps anywhere near this long; hitting it means
/// a hang, which is exactly what the suite exists to rule out.
const NEVER_HANGS: Duration = Duration::from_secs(120);

fn sorted_multiset(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

fn tiny_memory_pool(p: usize, memory: u64) -> DevicePool {
    let mut spec = DeviceSpec::titan_x_pascal();
    spec.device_memory_bytes = memory;
    DevicePool::homogeneous(p, SimDevice::on_pcie3(spec))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Engine-level chaos: a randomly seeded fault plan (device failures,
    /// corruption, stalls — no panics here; those get their own test)
    /// against random pool sizes and inputs.  Recovery must either produce
    /// the reference sort or fail with a typed error that loses nothing.
    #[test]
    fn engine_survives_random_fault_plans(
        n in 1_000usize..15_000,
        p in 2usize..5,
        seed in any::<u64>(),
        key_seed in any::<u64>(),
    ) {
        let plan = FaultPlan::seeded(seed, p, 3, 2);
        let sorter = ShardedSorter::new(DevicePool::titan_cluster(p))
            .with_fault_plan(plan.clone());
        let keys = uniform_keys::<u64>(n, key_seed);
        let mut sorted = keys.clone();
        match sorter.try_sort(&mut sorted) {
            Ok(report) => {
                prop_assert_eq!(&sorted, &KeyCodec::std_sorted(&keys));
                prop_assert_eq!(report.n, n as u64);
                // Every recorded fault carries the requeue that resolved
                // it (stalls requeue nothing but are still recorded).
                for ev in &report.faults {
                    prop_assert!(ev.recovered);
                    prop_assert!(ev.device < p);
                }
            }
            Err(err) => {
                // Typed failure: nothing lost, nothing corrupted.
                prop_assert!(matches!(
                    err,
                    SortError::AllDevicesDead { .. } | SortError::RetriesExhausted { .. }
                ));
                prop_assert_eq!(sorted_multiset(sorted), sorted_multiset(keys));
            }
        }
    }

    /// Service-level chaos: every ticket resolves within a bounded wait —
    /// to a correct outcome or a typed error — under a random fault plan.
    #[test]
    fn service_requests_always_resolve(seed in any::<u64>()) {
        let plan = FaultPlan::seeded(seed, 3, 2, 2);
        let sorter = ShardedSorter::new(DevicePool::titan_cluster(3)).with_fault_plan(plan);
        let service = SortService::start(
            sorter,
            ServiceConfig::default().with_max_linger(Duration::from_millis(5)),
        );
        let inputs: Vec<Vec<u64>> = (0..4)
            .map(|i| uniform_keys::<u64>(4_000, seed ^ i))
            .collect();
        let mut tickets = Vec::new();
        for keys in &inputs {
            match service.submit(SortPayload::U64Keys(keys.clone())) {
                Ok(t) => tickets.push(Some(t)),
                // Degraded-mode shedding is a legal resolution too.
                Err(SubmitError::Degraded { .. }) => tickets.push(None),
                Err(other) => panic!("unexpected rejection: {other}"),
            }
        }
        for (mut ticket, keys) in tickets.into_iter().flatten().zip(inputs) {
            match ticket.wait_timeout(NEVER_HANGS) {
                Ok(Some(outcome)) => {
                    let SortPayload::U64Keys(sorted) = outcome.payload else {
                        panic!("wrong payload variant")
                    };
                    prop_assert_eq!(sorted, KeyCodec::std_sorted(&keys));
                }
                Ok(None) => panic!("request hung past the wait bound"),
                Err(e) => prop_assert!(
                    matches!(
                        e,
                        TicketError::SortFailed(_)
                            | TicketError::WorkerFailed
                            | TicketError::ServiceDropped
                    ),
                    "unexpected ticket error: {}",
                    e
                ),
            }
        }
        service.shutdown();
    }
}

/// One explicit device failure through the whole service stack: the batch
/// completes on the survivors, and the report + stats record the fault.
#[test]
fn service_survives_an_explicit_device_failure() {
    let sorter = ShardedSorter::new(DevicePool::titan_cluster(3))
        .with_fault_plan(FaultPlan::fail_device(1, 0));
    let pool = sorter.pool().clone();
    let service = SortService::start(
        sorter,
        ServiceConfig::default().with_max_linger(Duration::from_millis(5)),
    );
    let keys = uniform_keys::<u64>(30_000, 7);
    let ticket = service.submit(SortPayload::U64Keys(keys.clone())).unwrap();
    let outcome = ticket.wait().expect("two survivors must recover");
    let SortPayload::U64Keys(sorted) = outcome.payload else {
        panic!("wrong variant")
    };
    assert_eq!(sorted, KeyCodec::std_sorted(&keys));
    assert!(outcome.report.had_faults());
    assert!(outcome.report.requeued_elements() > 0);
    assert!(!pool.alive(1), "the engine must mark the device dead");
    let stats = service.stats_snapshot();
    assert!(stats.device_failures >= 1, "stats missed the fault");
    assert!(stats.requeued_elements > 0);
    assert!(stats.recovery_p50 > Duration::ZERO);
    // Telemetry carries the fault subtree for external scrapers.
    let snap = service.inspector().snapshot();
    let faults = snap.node("multi_gpu/faults").expect("faults subtree");
    assert!(faults.uint("device_failures").unwrap() >= 1);
    assert!(faults.uint("requeued_elements").unwrap() > 0);
    service.shutdown();
}

/// An out-of-core request recovers from a mid-stream device failure.
#[test]
fn ooc_lane_recovers_from_device_failure() {
    let sorter = ShardedSorter::new(tiny_memory_pool(2, 1 << 20))
        .with_fault_plan(FaultPlan::fail_device(0, 1));
    let service = SortService::start(
        sorter,
        ServiceConfig::default().with_over_budget(OverBudgetPolicy::OutOfCore),
    );
    let keys = uniform_keys::<u64>(150_000, 11);
    let ticket = service
        .submit(SortPayload::U64Keys(keys.clone()))
        .expect("over-budget admission");
    let outcome = ticket.wait().expect("the survivor must absorb the shard");
    let SortPayload::U64Keys(sorted) = outcome.payload else {
        panic!("wrong variant")
    };
    assert_eq!(sorted, KeyCodec::std_sorted(&keys));
    assert_eq!(outcome.batch.reason, FlushReason::OutOfCore);
    assert!(outcome.report.is_out_of_core());
    assert!(outcome.report.had_faults());
    let snap = service.inspector().snapshot();
    assert!(snap.node("multi_gpu/ooc").unwrap().uint("retries").unwrap() > 0);
    service.shutdown();
}

/// When every device dies the ticket resolves with the typed engine error,
/// and the now-degraded pool sheds subsequent submissions.
#[test]
fn all_devices_dead_is_a_typed_error_then_degraded_shedding() {
    let plan = FaultPlan::new(vec![
        FaultSpec {
            device: 0,
            op: 0,
            kind: FaultKind::DeviceFail,
        },
        FaultSpec {
            device: 1,
            op: 0,
            kind: FaultKind::DeviceFail,
        },
    ]);
    let sorter = ShardedSorter::new(DevicePool::titan_cluster(2)).with_fault_plan(plan);
    let service = SortService::start(
        sorter,
        ServiceConfig::default().with_max_linger(Duration::from_millis(5)),
    );
    let ticket = service
        .submit(SortPayload::U64Keys(uniform_keys::<u64>(10_000, 13)))
        .unwrap();
    let err = ticket.wait().unwrap_err();
    assert_eq!(
        err,
        TicketError::SortFailed(SortError::AllDevicesDead { failed: 2 })
    );
    // 0 of 2 alive → degraded: new load is shed with a typed rejection.
    let err = service
        .submit(SortPayload::U64Keys(vec![3, 1, 2]))
        .unwrap_err();
    assert_eq!(err, SubmitError::Degraded { alive: 0, total: 2 });
    let stats = service.shutdown();
    assert_eq!(stats.sort_failures, 1);
    assert_eq!(stats.rejected_degraded, 1);
}

/// Regression: cancelling one pending request removes exactly that
/// request's bytes from the class queue accounting — the survivor's bytes
/// stay, and only one cancellation is counted.
#[test]
fn cancellation_removes_exactly_the_cancelled_bytes() {
    let service = SortService::start(
        ShardedSorter::new(DevicePool::titan_cluster(2)),
        ServiceConfig::default()
            .with_max_linger(Duration::from_secs(30))
            .with_max_batch_bytes(u64::MAX),
    );
    let doomed = service
        .submit(SortPayload::U64Keys(uniform_keys::<u64>(5_000, 1)))
        .unwrap();
    let survivor = service
        .submit(SortPayload::U64Keys(uniform_keys::<u64>(3_000, 2)))
        .unwrap();
    doomed.cancel();
    // The cancel resolves the ticket (via the worker) before we inspect.
    assert_eq!(doomed.wait().unwrap_err(), TicketError::Cancelled);
    let snap = service.inspector().snapshot();
    let class = snap.node("service/class/u64").unwrap();
    // 3_000 keys × (8 key bytes + 8 tag bytes): exactly the survivor.
    assert_eq!(class.uint("pending_bytes"), Some(3_000 * 16));
    assert_eq!(class.uint("queue_depth"), Some(1));
    assert_eq!(service.stats_snapshot().cancelled, 1);
    assert_eq!(service.in_flight(), 1);
    // The survivor still sorts (drain at shutdown).
    service.shutdown();
    let outcome = survivor.wait().unwrap();
    assert_eq!(outcome.span.len, 3_000);
}

/// An injected engine panic is isolated: the ticket fails typed, the
/// worker keeps serving, and shutdown stays clean.
#[test]
fn worker_panic_is_isolated_and_the_service_survives() {
    let sorter = ShardedSorter::new(DevicePool::titan_cluster(2))
        .with_fault_plan(FaultPlan::panic_in_sort(0, 0));
    let service = SortService::start(
        sorter,
        ServiceConfig::default().with_max_linger(Duration::from_millis(5)),
    );
    let mut doomed = service
        .submit(SortPayload::U64Keys(uniform_keys::<u64>(8_000, 17)))
        .unwrap();
    match doomed.wait_timeout(NEVER_HANGS) {
        Err(TicketError::WorkerFailed) => {}
        other => panic!("expected WorkerFailed, got {other:?}"),
    }
    // The plan is exhausted and the pool intact: the next request works.
    let keys = uniform_keys::<u64>(6_000, 19);
    let ticket = service.submit(SortPayload::U64Keys(keys.clone())).unwrap();
    let outcome = ticket.wait().expect("service must survive the panic");
    let SortPayload::U64Keys(sorted) = outcome.payload else {
        panic!("wrong variant")
    };
    assert_eq!(sorted, KeyCodec::std_sorted(&keys));
    let stats = service.shutdown();
    assert!(stats.worker_failures >= 1);
    assert_eq!(stats.requests, 2);
}

/// Deadlines: an approaching deadline flushes the batch early
/// (`FlushReason::Deadline`), and an already-expired deadline resolves the
/// ticket with `DeadlineExceeded` instead of sorting.
#[test]
fn deadlines_flush_early_and_expire_typed() {
    let service = SortService::start(
        ShardedSorter::new(DevicePool::titan_cluster(2)),
        ServiceConfig::default()
            .with_max_linger(Duration::from_secs(30))
            .with_max_batch_bytes(u64::MAX),
    );
    // Without the deadline this request would linger 30 s; with it, the
    // worker wakes at 80 % of 2 s and dispatches.
    let keys = uniform_keys::<u64>(4_000, 23);
    let ticket = service
        .submit(SortPayload::U64Keys(keys.clone()).with_deadline(Duration::from_secs(2)))
        .unwrap();
    let outcome = ticket.wait().unwrap();
    assert_eq!(outcome.batch.reason, FlushReason::Deadline);
    let SortPayload::U64Keys(sorted) = outcome.payload else {
        panic!("wrong variant")
    };
    assert_eq!(sorted, KeyCodec::std_sorted(&keys));

    // A zero deadline can never be met: typed expiry, no sort.
    let ticket = service
        .submit(SortPayload::U64Keys(uniform_keys::<u64>(1_000, 29)).with_deadline(Duration::ZERO))
        .unwrap();
    assert_eq!(ticket.wait().unwrap_err(), TicketError::DeadlineExceeded);
    let stats = service.shutdown();
    assert!(stats.flushed_by_deadline >= 1);
    assert_eq!(stats.deadline_exceeded, 1);
}

/// Marking more than half the pool dead flips admission into degraded
/// shedding — through the shared health state, no restart involved.
#[test]
fn degraded_pool_sheds_new_load() {
    let sorter = ShardedSorter::new(DevicePool::titan_cluster(3));
    let pool = sorter.pool().clone();
    let service = SortService::start(sorter, ServiceConfig::default());
    assert!(service.admission_budget() > 0);
    pool.mark_dead(0);
    // 2 of 3 alive: not degraded yet, and the budget shrank to what the
    // survivors can hold.
    let healthy_budget = service.admission_budget();
    assert!(healthy_budget > 0);
    let t = service
        .submit(SortPayload::U64Keys(uniform_keys::<u64>(2_000, 31)))
        .unwrap();
    t.wait().unwrap();
    pool.mark_dead(2);
    // 1 of 3 alive: degraded.
    let err = service
        .submit(SortPayload::U64Keys(vec![3, 1, 2]))
        .unwrap_err();
    assert_eq!(err, SubmitError::Degraded { alive: 1, total: 3 });
    let stats = service.shutdown();
    assert_eq!(stats.rejected_degraded, 1);
    assert_eq!(stats.requests, 1);
}

/// The CI chaos matrix entry point: `CHAOS_SEED` selects a deterministic
/// fault plan, and the same seed must always produce the same plan (the
/// suite re-runs under a fixed seed matrix in CI).
#[test]
fn chaos_seed_scenario_is_deterministic() {
    let seed: u64 = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    let plan_a = FaultPlan::seeded(seed, 3, 3, 3);
    let plan_b = FaultPlan::seeded(seed, 3, 3, 3);
    assert_eq!(plan_a, plan_b, "seeded plans must be reproducible");

    let sorter = ShardedSorter::new(DevicePool::titan_cluster(3)).with_fault_plan(plan_a);
    let keys = uniform_keys::<u64>(25_000, seed);
    let mut sorted = keys.clone();
    match sorter.try_sort(&mut sorted) {
        Ok(report) => {
            assert_eq!(sorted, KeyCodec::std_sorted(&keys));
            for ev in &report.faults {
                assert!(ev.recovered);
            }
        }
        Err(err) => {
            assert!(matches!(
                err,
                SortError::AllDevicesDead { .. } | SortError::RetriesExhausted { .. }
            ));
            assert_eq!(sorted_multiset(sorted), sorted_multiset(keys));
        }
    }
}
