//! # multi-gpu — sharded sorting across several simulated GPUs
//!
//! The hybrid radix sort of Stehle & Jacobsen saturates one device's memory
//! bandwidth; the next scale-up axis is *several* devices.  This crate
//! implements the standard multi-GPU recipe (Arkhipov et al., *Sorting with
//! GPUs: A Survey*; Casanova et al., *An Efficient Multiway Mergesort for
//! GPU Architectures*):
//!
//! 1. **range-partition** the keys with splitters sampled from MSD digit
//!    histograms ([`partition`]), sized to each device's capacity
//!    ([`DevicePool`]) — a Tesla P100 next to a GTX 980 simply gets a
//!    proportionally larger key range;
//! 2. **sort every shard independently** with the full
//!    [`hrs_core::HybridRadixSorter`], one simulated device per shard, each
//!    with its own host link ([`gpu_sim::LinkSpec`]: PCIe 3.0/4.0 or
//!    NVLink classes) so transfers overlap across devices;
//! 3. **recombine** on the host, where the range-disjoint shards (out of
//!    core, their key-range chunks) already lie back to back in one round
//!    buffer; only the pieces of an over-budget out-of-core range, and
//!    every run after a fault's requeue rounds, merge with the
//!    structure-of-arrays p-way merge of [`hetero::multiway_merge`].
//!
//! The engine is functional — the output really is sorted — while transfer
//! and kernel times come from the `gpu_sim` analytical model, scheduled on
//! a shared [`gpu_sim::Timeline`] whose makespan is the critical-path
//! simulated time reported in [`ShardedReport`].
//!
//! Every entry point runs one round-based driver: each round partitions
//! the pending elements over the alive devices, cuts each device's share
//! into units of work (the whole shard, or its key-range chunks for the
//! out-of-core pipeline of [`ooc`]), consults an injected
//! [`gpu_sim::FaultPlan`] once per unit ([`recovery`]), sorts and
//! schedules the surviving units, and recombines them.  A fault-free sort
//! is round 0; device failures and corrupt shards requeue their elements
//! into further rounds on the survivors.
//!
//! ## Quick start
//!
//! ```
//! use multi_gpu::{DevicePool, ShardedSorter};
//!
//! let mut keys = workloads::uniform_keys::<u64>(100_000, 42);
//! let sorter = ShardedSorter::new(DevicePool::titan_cluster(4));
//! let report = sorter.sort(&mut keys);
//! assert!(keys.windows(2).all(|w| w[0] <= w[1]));
//! assert_eq!(report.shards.len(), 4);
//! assert!(report.critical_path.secs() > 0.0);
//! ```

#![warn(missing_docs)]

pub mod device_pool;
mod driver;
pub mod engine;
pub mod ooc;
pub mod partition;
pub mod recovery;
pub mod report;
pub mod telemetry_paths;

pub use device_pool::{DeviceBackend, DevicePool, SimDevice};
pub use engine::ShardedSorter;
pub use ooc::{OocConfig, OocPlan};
pub use partition::{compute_splitters, scatter_into_shards, PartitionConfig, SplitterSet};
pub use recovery::SortError;
pub use report::{FaultEvent, FaultEventKind, OocChunkSpan, ShardReport, ShardedReport};
