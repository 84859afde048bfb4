//! # hybrid-radix-sort — umbrella crate
//!
//! A Rust reproduction of *"A Memory Bandwidth-Efficient Hybrid Radix Sort
//! on GPUs"* (Stehle & Jacobsen, SIGMOD 2017).  This crate re-exports the
//! workspace's public API so that the examples and integration tests at the
//! repository root can use a single dependency:
//!
//! * [`hrs_core`] — the hybrid MSD radix sort itself,
//! * [`gpu_sim`] — the analytical GPU model the simulated timings come from,
//! * [`workloads`] — key/value generators and codecs,
//! * [`baselines`] — CUB/Thrust/MGPU/Multisplit/PARADIS comparison sorts,
//! * [`hetero`] — the pipelined heterogeneous (out-of-core) sort,
//! * [`multi_gpu`] — the sharded sort engine over several simulated GPUs,
//! * [`sort_service`] — the async batch sort service over the device pool,
//! * [`telemetry`] — the metrics registry, structured spans and live
//!   inspection snapshots every layer above reports into,
//! * [`experiments`] — the harness regenerating every table and figure.
//!
//! `ARCHITECTURE.md` at the repository root walks the layers top-down.
//!
//! ```
//! use hybrid_radix_sort::prelude::*;
//!
//! let mut keys = workloads::uniform_keys::<u64>(10_000, 1);
//! let report = HybridRadixSorter::with_defaults().sort(&mut keys);
//! assert!(keys.windows(2).all(|w| w[0] <= w[1]));
//! assert!(report.simulated.total.secs() > 0.0);
//! ```

pub use baselines;
pub use experiments;
pub use gpu_sim;
pub use hetero;
pub use hrs_core;
pub use multi_gpu;
pub use sort_service;
pub use telemetry;
pub use workloads;

/// Commonly used types, re-exported for convenience.
pub mod prelude {
    pub use baselines::{GpuLsdRadixSort, GpuMergeSort, MultisplitRadixSort, ParadisSort};
    pub use gpu_sim::{DeviceSpec, FaultKind, FaultPlan, FaultSpec, LinkSpec, SimTime};
    pub use hetero::HeterogeneousSorter;
    pub use hrs_core::{Executor, HybridRadixSorter, Optimizations, SortConfig, SortReport};
    pub use multi_gpu::{
        DeviceBackend, DevicePool, FaultEvent, FaultEventKind, OocChunkSpan, OocConfig,
        ShardedReport, ShardedSorter, SimDevice, SortError,
    };
    pub use sort_service::{
        OverBudgetPolicy, RequestSpan, ServiceConfig, SortOutcome, SortPayload, SortRequest,
        SortService, SortTicket, SubmitError, TicketError,
    };
    pub use telemetry::{InspectNode, Inspector};
    pub use workloads::{Distribution, EntropyLevel, SortKey, ZipfGenerator};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn umbrella_crate_wires_everything_together() {
        let mut keys = workloads::uniform_keys::<u32>(5_000, 3);
        let report = HybridRadixSorter::with_defaults().sort(&mut keys);
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(report.n, 5_000);
        let _ = DeviceSpec::titan_x_pascal();
        let _ = Optimizations::all_on();
    }

    #[test]
    fn umbrella_exposes_the_sort_service() {
        let service = SortService::start(
            ShardedSorter::new(DevicePool::titan_cluster(2)),
            ServiceConfig::default(),
        );
        let keys = workloads::uniform_keys::<u32>(8_000, 4);
        let ticket = service.submit(SortPayload::U32Keys(keys)).unwrap();
        let outcome = ticket.wait().unwrap();
        let SortPayload::U32Keys(sorted) = outcome.payload else {
            panic!("wrong variant")
        };
        assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(outcome.span.len, 8_000);
        // The telemetry layer is reachable through the umbrella too: live
        // stats plus the full inspection tree, before shutdown.
        assert_eq!(service.stats_snapshot().requests, 1);
        let snap = service.inspector().snapshot();
        assert_eq!(snap.node("service").unwrap().uint("requests"), Some(1));
        assert!(snap.node("multi_gpu").is_some());
        assert_eq!(service.shutdown().requests, 1);
    }

    #[test]
    fn umbrella_exposes_the_multi_gpu_engine() {
        let mut keys = workloads::uniform_keys::<u64>(30_000, 8);
        let report = ShardedSorter::new(DevicePool::titan_cluster(2)).sort(&mut keys);
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(report.shards.len(), 2);
        let _ = LinkSpec::nvlink2();
        let _ = SimDevice::on_pcie3(DeviceSpec::gtx_980());
    }
}
