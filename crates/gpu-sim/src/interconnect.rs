//! Host↔device links (Section 5 and its multi-device extension).
//!
//! The heterogeneous sort transfers chunks to the GPU, sorts them there and
//! returns the sorted runs.  A link is full duplex: a host-to-device (HtD)
//! transfer and a device-to-host (DtH) transfer proceed concurrently at
//! full speed, but transfers in the *same* direction are serialised.
//! [`LinkSpec`] gives per-direction bandwidths and transfer durations; the
//! actual overlap is resolved by [`crate::timeline::Timeline`].
//!
//! The Section 5 pipeline runs over one PCIe 3.0 ×16 link.  A multi-GPU
//! system has one link per device — possibly of different classes (PCIe
//! 3.0/4.0, NVLink) — and the links operate independently of each other,
//! so shard uploads to different devices overlap fully.

use crate::simtime::{Bandwidth, SimTime};
use serde::{Deserialize, Serialize};

/// Transfer direction over a host↔device link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TransferDirection {
    /// Host (CPU memory) to device (GPU memory).
    HostToDevice,
    /// Device (GPU memory) to host (CPU memory).
    DeviceToHost,
}

/// The class of a host↔device (or device↔device) link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LinkKind {
    /// PCI Express 3.0 ×16 (the paper's test system, ≈ 12 GB/s pinned).
    PcieGen3x16,
    /// PCI Express 4.0 ×16 (≈ 24 GB/s pinned).
    PcieGen4x16,
    /// NVLink 2.0 (≈ 45 GB/s per direction usable).
    NvLink2,
    /// NVLink 3.0 (≈ 90 GB/s per direction usable).
    NvLink3,
    /// No interconnect at all: the "device" is a CPU socket working on
    /// host memory, so a transfer is at most a memcpy.
    HostMemory,
    /// Anything else (custom bandwidths).
    Custom,
}

impl LinkKind {
    /// Short display name of the link class.
    pub fn label(self) -> &'static str {
        match self {
            LinkKind::PcieGen3x16 => "PCIe3x16",
            LinkKind::PcieGen4x16 => "PCIe4x16",
            LinkKind::NvLink2 => "NVLink2",
            LinkKind::NvLink3 => "NVLink3",
            LinkKind::HostMemory => "host-mem",
            LinkKind::Custom => "custom",
        }
    }
}

/// A full-duplex host↔device link with per-direction bandwidths.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkSpec {
    /// Link class.
    pub kind: LinkKind,
    /// Host-to-device bandwidth.
    pub htod: Bandwidth,
    /// Device-to-host bandwidth.
    pub dtoh: Bandwidth,
    /// Fixed per-transfer latency (driver + DMA setup).
    pub per_transfer_latency: SimTime,
}

impl LinkSpec {
    /// PCIe 3.0 ×16: ≈ 12 GB/s per direction with pinned memory.
    pub fn pcie_gen3_x16() -> Self {
        LinkSpec {
            kind: LinkKind::PcieGen3x16,
            htod: Bandwidth::from_gb_per_s(12.0),
            dtoh: Bandwidth::from_gb_per_s(12.0),
            per_transfer_latency: SimTime::from_micros(10.0),
        }
    }

    /// PCIe 4.0 ×16: ≈ 24 GB/s per direction with pinned memory.
    pub fn pcie_gen4_x16() -> Self {
        LinkSpec {
            kind: LinkKind::PcieGen4x16,
            htod: Bandwidth::from_gb_per_s(24.0),
            dtoh: Bandwidth::from_gb_per_s(24.0),
            per_transfer_latency: SimTime::from_micros(8.0),
        }
    }

    /// NVLink 2.0: ≈ 45 GB/s usable per direction, much lower setup latency.
    pub fn nvlink2() -> Self {
        LinkSpec {
            kind: LinkKind::NvLink2,
            htod: Bandwidth::from_gb_per_s(45.0),
            dtoh: Bandwidth::from_gb_per_s(45.0),
            per_transfer_latency: SimTime::from_micros(2.0),
        }
    }

    /// NVLink 3.0: ≈ 90 GB/s usable per direction.
    pub fn nvlink3() -> Self {
        LinkSpec {
            kind: LinkKind::NvLink3,
            htod: Bandwidth::from_gb_per_s(90.0),
            dtoh: Bandwidth::from_gb_per_s(90.0),
            per_transfer_latency: SimTime::from_micros(2.0),
        }
    }

    /// The degenerate link of a CPU-socket "device": its shard already
    /// lives in host memory, so the only cost is a streaming memcpy (one
    /// memory read + write per byte on a commodity dual-channel socket).
    pub fn host_memory() -> Self {
        LinkSpec {
            kind: LinkKind::HostMemory,
            htod: Bandwidth::from_gb_per_s(25.0),
            dtoh: Bandwidth::from_gb_per_s(25.0),
            per_transfer_latency: SimTime::from_micros(0.5),
        }
    }

    /// A custom link.
    pub fn custom(htod: Bandwidth, dtoh: Bandwidth, per_transfer_latency: SimTime) -> Self {
        LinkSpec {
            kind: LinkKind::Custom,
            htod,
            dtoh,
            per_transfer_latency,
        }
    }

    /// Bandwidth in a given direction.
    pub fn bandwidth(&self, dir: TransferDirection) -> Bandwidth {
        match dir {
            TransferDirection::HostToDevice => self.htod,
            TransferDirection::DeviceToHost => self.dtoh,
        }
    }

    /// Duration of one transfer of `bytes` bytes in direction `dir`.
    pub fn transfer_time(&self, dir: TransferDirection, bytes: u64) -> SimTime {
        if bytes == 0 {
            return SimTime::ZERO;
        }
        self.bandwidth(dir).time_for_bytes(bytes as f64) + self.per_transfer_latency
    }
}

impl Default for LinkSpec {
    fn default() -> Self {
        LinkSpec::pcie_gen3_x16()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_classes_are_ordered_by_bandwidth() {
        let g3 = LinkSpec::pcie_gen3_x16();
        let g4 = LinkSpec::pcie_gen4_x16();
        let nv2 = LinkSpec::nvlink2();
        let nv3 = LinkSpec::nvlink3();
        assert!(g3.htod.gb_per_s() < g4.htod.gb_per_s());
        assert!(g4.htod.gb_per_s() < nv2.htod.gb_per_s());
        assert!(nv2.htod.gb_per_s() < nv3.htod.gb_per_s());
    }

    #[test]
    fn nvlink_moves_a_shard_faster_than_pcie() {
        let bytes = 1_000_000_000;
        let pcie = LinkSpec::pcie_gen3_x16().transfer_time(TransferDirection::HostToDevice, bytes);
        let nv = LinkSpec::nvlink2().transfer_time(TransferDirection::HostToDevice, bytes);
        assert!(nv.secs() < pcie.secs() / 3.0);
    }

    #[test]
    fn six_gb_transfer_takes_about_half_a_second() {
        // Figure 8's naive approach transfers 6 GB over PCIe in roughly
        // 540 ms (the paper quotes 540 ms for HtD).
        let link = LinkSpec::pcie_gen3_x16();
        let t = link.transfer_time(TransferDirection::HostToDevice, 6_000_000_000);
        assert!(t.millis() > 480.0 && t.millis() < 560.0, "{t}");
    }

    #[test]
    fn directions_are_independent() {
        let link = LinkSpec::custom(
            Bandwidth::from_gb_per_s(12.0),
            Bandwidth::from_gb_per_s(6.0),
            SimTime::from_micros(10.0),
        );
        let up = link.transfer_time(TransferDirection::HostToDevice, 1_000_000_000);
        let down = link.transfer_time(TransferDirection::DeviceToHost, 1_000_000_000);
        assert!(down.secs() > up.secs() * 1.9);
    }

    #[test]
    fn zero_bytes_is_free() {
        let link = LinkSpec::pcie_gen3_x16();
        assert_eq!(
            link.transfer_time(TransferDirection::DeviceToHost, 0),
            SimTime::ZERO
        );
    }

    #[test]
    fn chunking_only_adds_latency() {
        // The Section 5 pipeline moves a chunked input as one transfer per
        // chunk: the split costs only the per-transfer latency.
        let link = LinkSpec::nvlink3();
        let whole = link.transfer_time(TransferDirection::HostToDevice, 4_000_000_000);
        let chunked = link.transfer_time(TransferDirection::HostToDevice, 500_000_000) * 8.0;
        assert!(chunked > whole);
        assert!(chunked.secs() - whole.secs() < 1e-3);
    }

    #[test]
    fn pcie_chunking_only_adds_latency() {
        // 8 GB over PCIe 3.0 moved as sixteen 500 MB transfers.
        let link = LinkSpec::pcie_gen3_x16();
        let whole = link.transfer_time(TransferDirection::HostToDevice, 8_000_000_000);
        let chunked = link.transfer_time(TransferDirection::HostToDevice, 500_000_000) * 16.0;
        assert!(chunked.secs() > whole.secs());
        assert!(chunked.secs() - whole.secs() < 0.001);
    }

    #[test]
    fn labels_are_short_and_distinct() {
        let kinds = [
            LinkKind::PcieGen3x16,
            LinkKind::PcieGen4x16,
            LinkKind::NvLink2,
            LinkKind::NvLink3,
            LinkKind::Custom,
        ];
        for (i, a) in kinds.iter().enumerate() {
            for b in &kinds[i + 1..] {
                assert_ne!(a.label(), b.label());
            }
        }
    }
}
