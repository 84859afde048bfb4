//! Fault handling of the sharded engine: detection, requeue, retry.
//!
//! The paper's Section 5 pipeline assumes every device completes its
//! schedule.  Production fleets break that assumption: devices die
//! mid-sort, links stall, a shard occasionally comes back corrupt.  Faults
//! are scripted with an injected [`gpu_sim::FaultPlan`], and the one
//! round-based driver ([`ShardedSorter::try_sort`] and friends) absorbs
//! them:
//!
//! 1. **Partition over the survivors.**  Every round partitions its
//!    pending elements over the *alive* devices' capacity weights (elastic
//!    pool resize), so dead devices take no work.
//! 2. **Consult the plan once per unit of work**, in device/unit order — a
//!    unit is a whole shard in core or one memory-budget chunk out of
//!    core.  A `DeviceFail` marks the device dead and requeues everything
//!    it still owed; a `CorruptShard` requeues just that unit; a
//!    `TransferStall` completes with degraded link time; an `EnginePanic`
//!    escapes (the service isolates it with `catch_unwind`).
//! 3. **Retry with exponential backoff in simulated time.**  Requeued
//!    elements form the next round, which starts on the shared timeline
//!    only after the previous round's makespan plus `1 ms · 2^r`.  Three
//!    retry rounds are allowed; exhaustion or a fully dead pool yields a
//!    typed [`SortError`] with the caller's data restored intact
//!    (unsorted, never lost, never corrupt).
//!
//! A fault-free sort is simply round 0, so faulted and clean sorts report
//! alike.  Every fault is recorded as a [`FaultEvent`] in
//! [`crate::ShardedReport::faults`] and counted under the
//! `multi_gpu/faults/…` telemetry subtree, so dashboards see device
//! failures, requeued volume, recovery latency and retries-per-sort live.

use crate::driver::{Run, Unit};
use crate::engine::ShardedSorter;
use crate::report::{FaultEvent, FaultEventKind};
use crate::telemetry_paths as tp;
use gpu_sim::{FaultKind, SimTime};
use std::time::Duration;
use telemetry::Inspector;

/// Why a fault-tolerant sort could not complete.  The input buffers are
/// always restored before one of these is returned — every element the
/// caller handed in is still there, merely unsorted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortError {
    /// Every pool device has been marked dead; there is nothing left to
    /// sort on.
    AllDevicesDead {
        /// Total devices in the (now fully dead) pool.
        failed: usize,
    },
    /// The retry budget ran out with elements still unsorted.
    RetriesExhausted {
        /// The retry bound that was exhausted (rounds beyond the first).
        retries: u32,
        /// Elements still awaiting a successful sort when the engine gave
        /// up.
        unsorted: u64,
    },
}

impl std::fmt::Display for SortError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SortError::AllDevicesDead { failed } => {
                write!(f, "all {failed} pool devices are dead")
            }
            SortError::RetriesExhausted { retries, unsorted } => write!(
                f,
                "recovery exhausted {retries} retries with {unsorted} elements unsorted"
            ),
        }
    }
}

impl std::error::Error for SortError {}

/// Requeue rounds allowed beyond the initial attempt.
pub(crate) const MAX_RETRIES: u32 = 3;

/// Base simulated backoff: retry round `r + 1` starts `BACKOFF · 2^r`
/// after round `r`'s schedule finishes.
pub(crate) const BACKOFF: SimTime = SimTime(1e-3);

/// Idempotently registers the `multi_gpu/faults/…` subtree (plus the ooc
/// retry counter) so snapshots always expose fault-handling health.
pub(crate) fn register_fault_probes(t: &Inspector) {
    t.counter(tp::FAULT_DEVICE_FAILURES);
    t.counter(tp::FAULT_SHARD_CORRUPTIONS);
    t.counter(tp::FAULT_TRANSFER_STALLS);
    t.counter(tp::FAULT_REQUEUED_ELEMENTS);
    t.histogram(tp::FAULT_RECOVERY_NS);
    t.histogram(tp::FAULT_RETRIES_PER_SORT);
    t.counter(tp::OOC_RETRIES);
}

impl ShardedSorter {
    /// Consults the fault plan for one operation of device `g` on `len`
    /// elements, recording any fault in `events`.  Returns the unit's
    /// transfer stall factor when it proceeds, `None` when its elements
    /// must be requeued (the device died or corrupted its output).
    fn consult(
        &self,
        g: usize,
        len: usize,
        round: u32,
        events: &mut Vec<FaultEvent>,
    ) -> Option<f64> {
        let Some(fault) = self.faults.as_ref().and_then(|plan| plan.next_op(g)) else {
            return Some(1.0);
        };
        let (kind, stall) = match fault {
            FaultKind::DeviceFail => {
                self.pool.mark_dead(g);
                (FaultEventKind::DeviceFailure, None)
            }
            FaultKind::CorruptShard => (FaultEventKind::ShardCorruption, None),
            FaultKind::TransferStall { factor } => {
                (FaultEventKind::TransferStall, Some(factor.max(1.0)))
            }
            FaultKind::EnginePanic => panic!("injected engine panic on device {g}"),
        };
        events.push(FaultEvent {
            device: g,
            kind,
            round,
            requeued: if stall.is_some() { 0 } else { len as u64 },
            backoff: SimTime::ZERO,
            recovered: false,
        });
        stall
    }

    /// Consults the fault plan once per non-empty unit, in device/unit
    /// order, and returns the units that go on to sort.  Units of a device
    /// that is already dead — earlier in this round, or in a concurrent
    /// sort sharing the pool — are requeued untouched; the failure event of
    /// this round absorbs their volume.
    pub(crate) fn triage<K: Copy, V: Copy>(
        &self,
        run: &mut Run<K, V>,
        units: Vec<Unit>,
    ) -> Vec<Unit> {
        let mut survivors = Vec::with_capacity(units.len());
        for mut unit in units {
            let g = unit.device;
            let len = unit.range.len;
            if !self.pool.alive(g) {
                let round = run.round;
                if let Some(ev) = run.faults.last_mut().filter(|e| {
                    e.device == g && e.round == round && e.kind == FaultEventKind::DeviceFailure
                }) {
                    ev.requeued += len as u64;
                }
                run.requeue(unit.range);
            } else if len == 0 {
                survivors.push(unit);
            } else if let Some(stall) = self.consult(g, len, run.round, &mut run.faults) {
                unit.stall = stall;
                survivors.push(unit);
            } else {
                run.requeue(unit.range);
            }
        }
        survivors
    }

    /// Counts one sort's faults into the `multi_gpu/faults/…` subtree
    /// (success and failure alike).
    pub(crate) fn note_fault_outcomes(
        &self,
        events: &[FaultEvent],
        retries: u32,
        elapsed: Duration,
        out_of_core: bool,
    ) {
        let t = &self.inspector;
        register_fault_probes(t);
        for ev in events {
            let path = match ev.kind {
                FaultEventKind::DeviceFailure => tp::FAULT_DEVICE_FAILURES,
                FaultEventKind::ShardCorruption => tp::FAULT_SHARD_CORRUPTIONS,
                FaultEventKind::TransferStall => tp::FAULT_TRANSFER_STALLS,
            };
            t.counter(path).inc();
            t.counter(tp::FAULT_REQUEUED_ELEMENTS).add(ev.requeued);
        }
        if !events.is_empty() || retries > 0 {
            t.histogram(tp::FAULT_RECOVERY_NS).record_duration(elapsed);
            t.histogram(tp::FAULT_RETRIES_PER_SORT)
                .record(retries as u64);
            if out_of_core {
                t.counter(tp::OOC_RETRIES).add(retries as u64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device_pool::{DevicePool, SimDevice};
    use gpu_sim::{DeviceSpec, FaultPlan, FaultSpec};
    use hrs_core::{HybridRadixSorter, SortConfig};
    use workloads::{uniform_keys, KeyCodec};

    fn test_sorter(pool: DevicePool) -> ShardedSorter {
        let gpu = HybridRadixSorter::new(SortConfig::keys_64().scaled_for(40_000, 250_000_000));
        ShardedSorter::new(pool)
            .with_sorter(gpu)
            .with_merge_threads(4)
    }

    fn tiny_memory_pool(p: usize) -> DevicePool {
        let mut spec = DeviceSpec::titan_x_pascal();
        spec.device_memory_bytes = 1 << 20;
        DevicePool::homogeneous(p, SimDevice::on_pcie3(spec))
    }

    fn sorted_multiset(mut v: Vec<u64>) -> Vec<u64> {
        v.sort_unstable();
        v
    }

    #[test]
    fn device_failure_requeues_onto_survivors() {
        let sorter =
            test_sorter(DevicePool::titan_cluster(3)).with_fault_plan(FaultPlan::fail_device(1, 0));
        let keys = uniform_keys::<u64>(90_000, 3);
        let expected = KeyCodec::std_sorted(&keys);
        let mut k = keys;
        let report = sorter.try_sort(&mut k).expect("two survivors must recover");
        assert_eq!(k, expected);
        assert_eq!(report.n, 90_000);
        // The pool lost the device for good; recovery was recorded.
        assert!(!sorter.pool().alive(1));
        assert_eq!(sorter.pool().alive_count(), 2);
        assert_eq!(report.faults.len(), 1);
        let ev = &report.faults[0];
        assert_eq!(ev.device, 1);
        assert_eq!(ev.kind, FaultEventKind::DeviceFailure);
        assert_eq!(ev.round, 0);
        assert!(ev.requeued > 0);
        assert!(ev.recovered);
        assert!(ev.backoff.secs() > 0.0);
        assert_eq!(report.requeued_elements(), ev.requeued);
        // Every element was sorted exactly once across the run set.
        assert_eq!(report.shards.iter().map(|s| s.n).sum::<u64>(), 90_000);
        // Telemetry counted the failure and the requeue.
        let snap = sorter.inspector().snapshot();
        let faults = snap.node("multi_gpu/faults").unwrap();
        assert_eq!(faults.uint("device_failures"), Some(1));
        assert_eq!(faults.uint("requeued_elements"), Some(ev.requeued));
        assert!(
            snap.node("multi_gpu/faults/retries_per_sort")
                .unwrap()
                .uint("count")
                .unwrap()
                > 0
        );
        // The next sort runs on the two survivors only.
        let mut again = uniform_keys::<u64>(30_000, 5);
        let expected2 = KeyCodec::std_sorted(&again);
        let r2 = sorter.try_sort(&mut again).unwrap();
        assert_eq!(again, expected2);
        assert!(r2.faults.is_empty());
        assert_eq!(r2.shards.len(), 2);
    }

    #[test]
    fn corruption_requeues_without_killing_the_device() {
        let sorter = test_sorter(DevicePool::titan_cluster(2))
            .with_fault_plan(FaultPlan::corrupt_shard(0, 0));
        let keys = uniform_keys::<u64>(60_000, 7);
        let expected = KeyCodec::std_sorted(&keys);
        let mut k = keys;
        let report = sorter.try_sort(&mut k).unwrap();
        assert_eq!(k, expected);
        assert_eq!(sorter.pool().alive_count(), 2, "corruption is not death");
        assert_eq!(report.faults.len(), 1);
        assert_eq!(report.faults[0].kind, FaultEventKind::ShardCorruption);
        assert!(report.faults[0].requeued > 0);
        // The plan is exhausted and nobody died: one shard per device, no
        // faults.
        let mut again = uniform_keys::<u64>(20_000, 8);
        let r2 = sorter.try_sort(&mut again).unwrap();
        assert!(r2.faults.is_empty());
        assert_eq!(r2.shards.len(), 2);
    }

    #[test]
    fn transfer_stall_slows_the_schedule_but_loses_nothing() {
        let keys = uniform_keys::<u64>(80_000, 11);
        let expected = KeyCodec::std_sorted(&keys);
        // The same plan with the stall never firing, for an
        // apples-to-apples critical path.
        let clean = test_sorter(DevicePool::titan_cluster(2))
            .with_fault_plan(FaultPlan::stall_transfer(0, 999, 4.0));
        let mut kc = keys.clone();
        let clean_path = clean.try_sort(&mut kc).unwrap().critical_path;
        let stalled = test_sorter(DevicePool::titan_cluster(2))
            .with_fault_plan(FaultPlan::stall_transfer(0, 0, 4.0));
        let mut ks = keys;
        let report = stalled.try_sort(&mut ks).unwrap();
        assert_eq!(ks, expected);
        assert_eq!(report.faults.len(), 1);
        let ev = &report.faults[0];
        assert_eq!(ev.kind, FaultEventKind::TransferStall);
        assert_eq!(ev.requeued, 0, "a stall requeues nothing");
        assert!(
            report.critical_path > clean_path,
            "stalled {} vs clean {clean_path}",
            report.critical_path
        );
    }

    #[test]
    fn all_devices_dead_restores_the_input() {
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
        let sorter = test_sorter(DevicePool::titan_cluster(2)).with_fault_plan(plan);
        let keys = uniform_keys::<u64>(50_000, 13);
        let mut k = keys.clone();
        let err = sorter.try_sort(&mut k).unwrap_err();
        assert_eq!(err, SortError::AllDevicesDead { failed: 2 });
        assert_eq!(
            sorted_multiset(k),
            sorted_multiset(keys),
            "failure must not lose or corrupt elements"
        );
        assert_eq!(sorter.pool().alive_count(), 0);
        assert!(sorter.pool().is_degraded());
        // The panicking wrappers surface the same condition loudly.
        let mut again = vec![3u64, 1, 2];
        assert!(sorter.try_sort(&mut again).is_err());
    }

    #[test]
    fn retry_budget_is_bounded() {
        // Every op on device 0 of a single-device pool corrupts, so the
        // sort can never complete; it must stop after MAX_RETRIES rounds.
        let plan = FaultPlan::new(
            (0..16)
                .map(|op| FaultSpec {
                    device: 0,
                    op,
                    kind: FaultKind::CorruptShard,
                })
                .collect(),
        );
        let sorter = test_sorter(DevicePool::titan_cluster(1)).with_fault_plan(plan);
        let keys = uniform_keys::<u64>(10_000, 17);
        let mut k = keys.clone();
        let err = sorter.try_sort(&mut k).unwrap_err();
        assert_eq!(
            err,
            SortError::RetriesExhausted {
                retries: MAX_RETRIES,
                unsorted: 10_000
            }
        );
        assert_eq!(MAX_RETRIES, 3);
        assert_eq!(sorted_multiset(k), sorted_multiset(keys));
    }

    #[test]
    fn pairs_survive_recovery() {
        let n = 40_000usize;
        let keys = uniform_keys::<u32>(n, 19);
        let mut sorted = keys.clone();
        let mut vals: Vec<u32> = (0..n as u32).collect();
        let gpu = HybridRadixSorter::new(SortConfig::pairs_32_32().scaled_for(50_000, 500_000_000));
        let sorter = ShardedSorter::new(DevicePool::titan_cluster(3))
            .with_sorter(gpu)
            .with_fault_plan(FaultPlan::fail_device(2, 0));
        let report = sorter.try_sort_pairs(&mut sorted, &mut vals).unwrap();
        assert!(workloads::pairs::verify_indexed_pair_sort(
            &keys, &sorted, &vals
        ));
        assert!(report.had_faults());
    }

    #[test]
    fn out_of_core_recovery_requeues_chunks() {
        // Fail device 0 on its second chunk: the first chunk's run stands,
        // the rest of the shard requeues onto device 1.
        let sorter = test_sorter(tiny_memory_pool(2)).with_fault_plan(FaultPlan::fail_device(0, 1));
        let keys = uniform_keys::<u64>(200_000, 23);
        let expected = KeyCodec::std_sorted(&keys);
        let mut k = keys;
        let report = sorter.try_sort_out_of_core(&mut k).unwrap();
        assert_eq!(k, expected);
        assert!(report.is_out_of_core());
        assert_eq!(report.faults.len(), 1);
        assert_eq!(report.faults[0].kind, FaultEventKind::DeviceFailure);
        assert!(report.faults[0].requeued > 0);
        // Device 0 kept its pre-failure chunk; device 1 absorbed the rest.
        assert!(report.chunks_on_device(0) >= 1);
        assert!(report.chunks_on_device(1) >= 2);
        assert_eq!(
            report.ooc_chunks.iter().map(|c| c.len).sum::<u64>(),
            200_000
        );
        let snap = sorter.inspector().snapshot();
        assert!(snap.node("multi_gpu/ooc").unwrap().uint("retries").unwrap() > 0);
    }

    #[test]
    fn exhausted_plan_sorts_like_a_clean_one() {
        let sorter = test_sorter(DevicePool::titan_cluster(2))
            .with_fault_plan(FaultPlan::stall_transfer(1, 0, 2.0));
        let mut k = uniform_keys::<u64>(30_000, 29);
        assert!(sorter.try_sort(&mut k).unwrap().had_faults());
        // The plan fired and nobody died: the next sort reports one shard
        // per device, no faults, and the schedule of a plan-less sorter.
        let keys = uniform_keys::<u64>(30_000, 31);
        let mut k2 = keys.clone();
        let report = sorter.try_sort(&mut k2).unwrap();
        assert_eq!(report.shards.len(), 2);
        assert!(report.faults.is_empty());
        let mut k3 = keys;
        let clean = test_sorter(DevicePool::titan_cluster(2)).sort(&mut k3);
        assert_eq!(report.critical_path, clean.critical_path);
        assert_eq!(k2, k3);
    }

    #[test]
    fn recovered_sorts_report_like_clean_ones() {
        // In core: the survivors' device gauges are set.
        let sorter =
            test_sorter(DevicePool::titan_cluster(3)).with_fault_plan(FaultPlan::fail_device(1, 0));
        let mut k = uniform_keys::<u64>(60_000, 37);
        assert!(sorter.try_sort(&mut k).unwrap().had_faults());
        let snap = sorter.inspector().snapshot();
        for i in [0, 2] {
            let dev = snap.node(&format!("multi_gpu/dev{i}")).unwrap();
            assert!(dev.double("utilisation").unwrap() > 0.0, "dev{i}");
            assert!(dev.double("overlap_ratio").unwrap() > 0.0, "dev{i}");
            assert!(dev.uint("transfer_bytes").unwrap() > 0, "dev{i}");
        }

        // Out of core: the pipeline gauges are set.
        let sorter = test_sorter(tiny_memory_pool(2)).with_fault_plan(FaultPlan::fail_device(0, 1));
        let mut k = uniform_keys::<u64>(200_000, 41);
        assert!(sorter.try_sort_out_of_core(&mut k).unwrap().had_faults());
        let snap = sorter.inspector().snapshot();
        let ooc = snap.node("multi_gpu/ooc").unwrap();
        assert_eq!(ooc.uint("sorts"), Some(1));
        let occupancy = ooc.double("pipeline_occupancy").unwrap();
        assert!(occupancy > 0.0 && occupancy <= 1.0, "{occupancy}");
        assert!(ooc.double("merge_overlap_ratio").is_some());
    }
}
