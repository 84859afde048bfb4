//! # gpu-sim — functional + analytical GPU cost-model substrate
//!
//! The paper *"A Memory Bandwidth-Efficient Hybrid Radix Sort on GPUs"*
//! (Stehle & Jacobsen, SIGMOD 2017) evaluates its algorithms on an NVIDIA
//! Titan X (Pascal).  This reproduction has no GPU available, so the
//! algorithms are executed *functionally* on the CPU while this crate
//! provides the *analytical hardware model* used to derive simulated
//! execution times, sorting rates and end-to-end pipelines.
//!
//! The model follows the paper's own memory-bandwidth arguments:
//!
//! * [`DeviceSpec`] describes a GPU (streaming multiprocessors, shared
//!   memory, registers, device-memory bandwidth).
//! * [`traffic::MemoryTraffic`] is a ledger of bytes read and written by a
//!   kernel; [`kernel::KernelCost`] converts traffic plus a compute ceiling
//!   into a simulated kernel duration (`max(memory time, compute time)`).
//! * [`atomics::AtomicModel`] models the shared-memory-atomic contention
//!   curve of Section 4.3 / Figure 2 (1.7 billion updates per SM per second
//!   under full contention, 3.3 billion once three or more distinct values
//!   are present).
//! * [`transaction`] implements the memory-transaction efficiency bound of
//!   Section 4.4 (worst case `r` extra transactions per key block).
//! * [`occupancy`] computes how many thread blocks fit on an SM.
//! * [`interconnect::LinkSpec`] models a full-duplex host↔device link —
//!   the PCIe 3.0 ×16 bus of Section 5, and the PCIe 4.0 and NVLink classes
//!   of multi-GPU systems — and [`timeline::Timeline`] resolves the
//!   pipelined schedule of transfers and sorts over such links.
//! * [`memory::DeviceMemoryPlanner`] tracks device-memory budgets for the
//!   in-place replacement strategy (three chunk slots instead of four).
//!
//! All times are carried as [`SimTime`] (seconds, `f64`).

pub mod atomics;
pub mod device;
pub mod fault;
pub mod interconnect;
pub mod kernel;
pub mod memory;
pub mod occupancy;
pub mod simtime;
pub mod timeline;
pub mod traffic;
pub mod transaction;

pub use atomics::{AtomicModel, HistogramStrategy};
pub use device::{DeviceSpec, GpuGeneration, HOST_CACHE_BYTES};
pub use fault::{FaultKind, FaultPlan, FaultSpec};
pub use interconnect::{LinkKind, LinkSpec, TransferDirection};
pub use kernel::{KernelCost, KernelKind, KernelTiming};
pub use memory::{DeviceAllocation, DeviceMemoryPlanner};
pub use occupancy::{BlockResources, Occupancy};
pub use simtime::{Bandwidth, SimTime};
pub use timeline::{ResourceId, Timeline, TimelineEvent};
pub use traffic::MemoryTraffic;
pub use transaction::TransactionModel;

/// Bytes in one gigabyte (decimal, as used throughout the paper's GB/s
/// figures).
pub const GB: f64 = 1_000_000_000.0;

/// Bytes in one gibibyte (binary); used when the paper speaks about device
/// memory capacities such as "12 GB device memory".
pub const GIB: f64 = 1_073_741_824.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_consistent() {
        const { assert!(GIB > GB) };
        assert_eq!(GB, 1e9);
    }
}
