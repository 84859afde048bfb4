//! Peer (device↔device) interconnect topology.
//!
//! [`crate::interconnect::LinkSpec`] models each device's *host* link; this
//! module adds the matrix of links *between* devices, which is what a
//! peer-to-peer recombination phase schedules its all-to-all bucket
//! exchange over.  Two archetypes matter in practice:
//!
//! * **NVLink mesh** — every ordered device pair owns a dedicated direct
//!   link ([`PeerTopology::nvlink_mesh`]); transfers between different
//!   pairs overlap fully, exactly like independent host links.
//! * **PCIe through host** — commodity boxes have no peer links at all
//!   ([`PeerTopology::through_host`]); a device→device copy is staged as a
//!   DtH leg on the source's host link followed by an HtD leg on the
//!   destination's host link.  The scheduler (in the `multi-gpu` crate)
//!   models both legs on the devices' own host links.
//!
//! The matrix is per *ordered* pair, so asymmetric fabrics (e.g. a partial
//! NVLink ring) can be described with [`PeerTopology::with_link`].

use crate::interconnect::{LinkSpec, TransferDirection};
use crate::simtime::SimTime;
use serde::{Deserialize, Serialize};

/// The device↔device link matrix of a multi-GPU system.
///
/// Entry `(i, j)` is the direct link carrying traffic from device `i` to
/// device `j`, or `None` when that pair must stage through host memory.
/// Diagonal entries are meaningless (a device never transfers to itself)
/// and always `None`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PeerTopology {
    n: usize,
    /// Row-major `n × n` matrix of direct links.
    links: Vec<Option<LinkSpec>>,
}

impl PeerTopology {
    /// A topology over `n` devices with no direct peer links: every
    /// device→device copy stages through host memory over the two host
    /// links involved.  This is the commodity-PCIe archetype.
    pub fn through_host(n: usize) -> Self {
        PeerTopology {
            n,
            links: vec![None; n * n],
        }
    }

    /// A fully connected mesh of `n` devices where every ordered pair owns
    /// a dedicated `link` (the DGX-style NVLink archetype).  Transfers of
    /// distinct pairs never contend.
    pub fn nvlink_mesh(n: usize, link: LinkSpec) -> Self {
        let mut links = vec![None; n * n];
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    links[i * n + j] = Some(link.clone());
                }
            }
        }
        PeerTopology { n, links }
    }

    /// Installs a direct link for the ordered pair `src → dst` (builder
    /// style).  Panics on out-of-range indices or `src == dst`.
    pub fn with_link(mut self, src: usize, dst: usize, link: LinkSpec) -> Self {
        assert!(src < self.n && dst < self.n, "device index out of range");
        assert_ne!(src, dst, "a device has no link to itself");
        self.links[src * self.n + dst] = Some(link);
        self
    }

    /// Installs a direct link in both directions between `a` and `b`.
    pub fn with_duplex_link(self, a: usize, b: usize, link: LinkSpec) -> Self {
        self.with_link(a, b, link.clone()).with_link(b, a, link)
    }

    /// Number of devices the topology spans.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the topology spans zero devices.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The direct link of the ordered pair `src → dst`, if one exists.
    /// Out-of-range or diagonal queries resolve to `None`.
    pub fn link(&self, src: usize, dst: usize) -> Option<&LinkSpec> {
        if src >= self.n || dst >= self.n || src == dst {
            return None;
        }
        self.links[src * self.n + dst].as_ref()
    }

    /// Whether `src → dst` traffic rides a direct peer link (as opposed to
    /// staging through host memory).
    pub fn is_direct(&self, src: usize, dst: usize) -> bool {
        self.link(src, dst).is_some()
    }

    /// Number of ordered pairs with a direct link.
    pub fn direct_pair_count(&self) -> usize {
        self.links.iter().filter(|l| l.is_some()).count()
    }

    /// Whether every ordered pair of distinct devices has a direct link.
    pub fn is_full_mesh(&self) -> bool {
        self.n < 2 || self.direct_pair_count() == self.n * (self.n - 1)
    }

    /// Duration of a `bytes`-byte transfer over the direct `src → dst`
    /// link, or `None` when the pair has no direct link and must be staged
    /// through the host by the scheduler.  Peer links are symmetric in
    /// practice; the `HostToDevice` direction of the pair's [`LinkSpec`]
    /// is used by convention.
    pub fn direct_transfer_time(&self, src: usize, dst: usize, bytes: u64) -> Option<SimTime> {
        self.link(src, dst)
            .map(|l| l.transfer_time(TransferDirection::HostToDevice, bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn through_host_has_no_direct_pairs() {
        let t = PeerTopology::through_host(4);
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
        assert_eq!(t.direct_pair_count(), 0);
        assert!(!t.is_direct(0, 1));
        assert!(t.link(2, 3).is_none());
        assert!(t.direct_transfer_time(0, 1, 1 << 20).is_none());
        assert!(!t.is_full_mesh());
    }

    #[test]
    fn nvlink_mesh_connects_every_ordered_pair() {
        let t = PeerTopology::nvlink_mesh(4, LinkSpec::nvlink2());
        assert_eq!(t.direct_pair_count(), 12);
        assert!(t.is_full_mesh());
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(t.is_direct(i, j), i != j, "({i}, {j})");
            }
        }
        // The diagonal never carries a link.
        assert!(t.link(2, 2).is_none());
    }

    #[test]
    fn direct_transfer_time_follows_the_pair_link() {
        let t = PeerTopology::nvlink_mesh(2, LinkSpec::nvlink3());
        let expect = LinkSpec::nvlink3().transfer_time(TransferDirection::HostToDevice, 1 << 30);
        assert_eq!(t.direct_transfer_time(0, 1, 1 << 30), Some(expect));
        // NVLink 3 beats NVLink 2 on the same payload.
        let slower = PeerTopology::nvlink_mesh(2, LinkSpec::nvlink2());
        assert!(t.direct_transfer_time(0, 1, 1 << 30) < slower.direct_transfer_time(0, 1, 1 << 30));
    }

    #[test]
    fn partial_fabrics_build_with_with_link() {
        // A 3-device ring: 0→1, 1→2, 2→0 direct; everything else staged.
        let t = PeerTopology::through_host(3)
            .with_link(0, 1, LinkSpec::nvlink2())
            .with_link(1, 2, LinkSpec::nvlink2())
            .with_link(2, 0, LinkSpec::nvlink2());
        assert_eq!(t.direct_pair_count(), 3);
        assert!(t.is_direct(0, 1) && !t.is_direct(1, 0));
        assert!(!t.is_full_mesh());
        // Duplex helper installs both directions at once.
        let duplex = PeerTopology::through_host(2).with_duplex_link(0, 1, LinkSpec::nvlink3());
        assert!(duplex.is_direct(0, 1) && duplex.is_direct(1, 0));
        assert!(duplex.is_full_mesh());
    }

    #[test]
    fn out_of_range_queries_are_not_direct() {
        let t = PeerTopology::nvlink_mesh(2, LinkSpec::nvlink2());
        assert!(!t.is_direct(0, 5));
        assert!(!t.is_direct(7, 0));
        assert!(t.link(9, 9).is_none());
    }

    #[test]
    #[should_panic(expected = "no link to itself")]
    fn self_links_are_rejected() {
        let _ = PeerTopology::through_host(2).with_link(1, 1, LinkSpec::nvlink2());
    }
}
