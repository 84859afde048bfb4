//! Recombination-strategy benchmark: host p-way merge vs the peer-to-peer
//! all-to-all bucket exchange, over the device count and the peer
//! topology, written to `BENCH_exchange.json`.
//!
//! Every point sorts the same input twice on the same pool — once with
//! [`RecombineStrategy::HostMerge`] and once with
//! [`RecombineStrategy::PeerExchange`] — and compares the *simulated
//! recombination tail*: everything scheduled after the last local sort
//! finished.  Both tails are purely analytical, so the comparison is
//! deterministic:
//!
//! * **host merge** — the post-sort device→host downloads on the timeline
//!   plus the modeled host merge pass over all bytes
//!   ([`multi_gpu::modeled_host_merge_time`]), which at paper scale is
//!   bottlenecked on host memory bandwidth and does not shrink with the
//!   device count;
//! * **peer exchange** — the bucket transfers (direct NVLink, or staged
//!   through the host on PCIe pools), each device's merge of its own
//!   output range, and its single output download, all overlapped on the
//!   shared timeline.
//!
//! On an NVLink mesh the exchange tail shrinks with the device count, so
//! the speedup curve rises; on a PCIe through-host topology the staged
//! exchange *loses* — every bucket pays the 10 µs per-transfer latency
//! twice, which swamps the on-device merge win at these sizes — exactly
//! the trade the cost model behind [`RecombineStrategy::Auto`]
//! arbitrates.

use crate::artifact;
use hrs_core::{HybridRadixSorter, SortConfig};
use multi_gpu::{modeled_host_merge_time, DevicePool, RecombineStrategy, ShardedSorter};
use telemetry::InspectNode;
use workloads::uniform_keys;

/// One (topology, device count) point: both recombination tails and their
/// ratio.
#[derive(Debug, Clone)]
pub struct ExchangePoint {
    /// Topology label (`"nvlink2-mesh"` or `"pcie3-through-host"`).
    pub topology: String,
    /// Devices in the pool.
    pub devices: usize,
    /// Keys sorted.
    pub n: usize,
    /// Simulated host-merge recombination tail, in seconds: post-sort
    /// downloads plus the modeled host merge pass.
    pub host_recombine_secs: f64,
    /// Simulated peer-exchange recombination tail, in seconds.
    pub peer_recombine_secs: f64,
    /// `host / peer` — above 1.0 the exchange wins.
    pub speedup: f64,
    /// Bytes moved device-to-device during the exchange.
    pub exchange_bytes: u64,
    /// Whether every exchange transfer rode a direct peer link.
    pub all_direct: bool,
    /// Strategy [`RecombineStrategy::Auto`] resolves to on this pool.
    pub auto_picks: String,
}

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct ExchangeBenchConfig {
    /// Device counts per topology (the issue's 2–8 range).
    pub device_counts: Vec<usize>,
    /// Keys per run.
    pub keys: usize,
}

impl ExchangeBenchConfig {
    /// The full sweep.
    pub fn full() -> Self {
        ExchangeBenchConfig {
            device_counts: vec![2, 4, 8],
            keys: 400_000,
        }
    }

    /// A CI-sized smoke run — same device counts (the acceptance gate
    /// needs the 8-device NVLink point), fewer keys.
    pub fn smoke() -> Self {
        ExchangeBenchConfig {
            device_counts: vec![2, 4, 8],
            keys: 120_000,
        }
    }
}

/// The two topologies the sweep compares.
fn pools(devices: usize) -> [(String, DevicePool); 2] {
    [
        (
            "nvlink2-mesh".to_string(),
            DevicePool::nvlink_mesh_cluster(devices),
        ),
        (
            "pcie3-through-host".to_string(),
            DevicePool::titan_cluster(devices),
        ),
    ]
}

fn sorter_on(pool: DevicePool, n: usize, strategy: RecombineStrategy) -> ShardedSorter {
    let gpu = HybridRadixSorter::new(SortConfig::keys_64().scaled_for(n.max(1), 250_000_000));
    ShardedSorter::new(pool)
        .with_sorter(gpu)
        .with_merge_threads(4)
        .with_recombine_strategy(strategy)
}

/// Runs the sweep: every device count on both topologies, both strategies.
pub fn run_exchange_sweep(cfg: &ExchangeBenchConfig) -> Vec<ExchangePoint> {
    let keys = uniform_keys::<u64>(cfg.keys, 0xE0);
    let elem_bytes = 8u64;
    let mut points = Vec::new();
    for &devices in &cfg.device_counts {
        for (topology, pool) in pools(devices) {
            let host = sorter_on(pool.clone(), cfg.keys, RecombineStrategy::HostMerge);
            let mut k = keys.clone();
            let host_report = host.sort(&mut k);
            assert!(k.windows(2).all(|w| w[0] <= w[1]), "bench output unsorted");
            // The host tail on the timeline is the post-sort downloads;
            // the merge itself runs on the host, modeled over all bytes.
            let host_tail = (host_report.critical_path - host_report.last_sort_finish())
                .max(gpu_sim::SimTime::ZERO)
                + modeled_host_merge_time(cfg.keys as u64 * elem_bytes);

            let peer = sorter_on(pool.clone(), cfg.keys, RecombineStrategy::PeerExchange);
            let mut k = keys.clone();
            let peer_report = peer.sort(&mut k);
            assert!(k.windows(2).all(|w| w[0] <= w[1]), "bench output unsorted");
            let peer_tail = (peer_report.critical_path - peer_report.last_sort_finish())
                .max(gpu_sim::SimTime::ZERO);

            let auto = sorter_on(pool, cfg.keys, RecombineStrategy::Auto);
            let auto_picks = auto.resolve_recombine(cfg.keys as u64 * elem_bytes);

            points.push(ExchangePoint {
                topology,
                devices,
                n: cfg.keys,
                host_recombine_secs: host_tail.secs(),
                peer_recombine_secs: peer_tail.secs(),
                speedup: host_tail.secs() / peer_tail.secs().max(1e-12),
                exchange_bytes: peer_report.exchange.iter().map(|x| x.bytes).sum(),
                all_direct: peer_report.exchange.iter().all(|x| x.direct),
                auto_picks: auto_picks.label().to_string(),
            });
        }
    }
    points
}

impl ExchangePoint {
    /// The point as one artifact row (`all_direct` as 0 or 1).
    pub fn row(&self) -> InspectNode {
        artifact::row([
            ("topology", self.topology.as_str().into()),
            ("devices", self.devices.into()),
            ("n", self.n.into()),
            ("host_recombine_secs", self.host_recombine_secs.into()),
            ("peer_recombine_secs", self.peer_recombine_secs.into()),
            ("speedup", self.speedup.into()),
            ("exchange_bytes", self.exchange_bytes.into()),
            ("all_direct", self.all_direct.into()),
            ("auto_picks", self.auto_picks.as_str().into()),
        ])
    }
}

/// The `BENCH_exchange.json` tree: one row per point.
pub fn exchange_artifact(points: &[ExchangePoint]) -> InspectNode {
    artifact::root(
        "exchange",
        "recombine_secs",
        points.iter().map(ExchangePoint::row).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExchangeBenchConfig {
        ExchangeBenchConfig {
            device_counts: vec![2, 8],
            keys: 60_000,
        }
    }

    #[test]
    fn nvlink_8_device_exchange_beats_host_merge_by_2x() {
        let points = run_exchange_sweep(&tiny());
        let p = points
            .iter()
            .find(|p| p.topology == "nvlink2-mesh" && p.devices == 8)
            .expect("the sweep must cover the 8-device NVLink point");
        assert!(
            p.speedup >= 2.0,
            "acceptance gate: 8-device NVLink exchange must be >= 2x, got {:.2}x",
            p.speedup
        );
        assert!(
            p.all_direct,
            "a full mesh must carry every transfer directly"
        );
        assert_eq!(p.auto_picks, "peer-exchange");
    }

    #[test]
    fn exchange_moves_bytes_and_host_tail_never_shrinks_below_the_merge() {
        let points = run_exchange_sweep(&tiny());
        assert_eq!(points.len(), 4); // 2 device counts x 2 topologies
        let merge_floor = modeled_host_merge_time(60_000 * 8).secs();
        for p in &points {
            assert!(p.exchange_bytes > 0, "{}: no exchange traffic", p.topology);
            assert!(
                p.host_recombine_secs >= merge_floor,
                "{}: host tail below the merge floor",
                p.topology
            );
            assert!(p.peer_recombine_secs > 0.0);
        }
        // PCIe has no direct links: everything stages through the host.
        assert!(points
            .iter()
            .filter(|p| p.topology == "pcie3-through-host")
            .all(|p| !p.all_direct));
    }

    #[test]
    fn json_document_is_well_formed_enough() {
        let points = run_exchange_sweep(&ExchangeBenchConfig {
            device_counts: vec![2],
            keys: 40_000,
        });
        let tree = exchange_artifact(&points);
        assert_eq!(artifact::non_finite(&tree), None);
        let parsed = InspectNode::from_json(&tree.to_json()).unwrap();
        assert_eq!(parsed.text("bench"), Some("exchange"));
        assert_eq!(parsed.children.len(), points.len());
        for row in &parsed.children {
            let keys: Vec<&str> = row.properties.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                keys,
                [
                    "topology",
                    "devices",
                    "n",
                    "host_recombine_secs",
                    "peer_recombine_secs",
                    "speedup",
                    "exchange_bytes",
                    "all_direct",
                    "auto_picks"
                ]
            );
        }
        let nvlink = &parsed.children[0];
        assert_eq!(nvlink.text("topology"), Some("nvlink2-mesh"));
        assert_eq!(nvlink.uint("all_direct"), Some(1));
        assert_eq!(parsed.children[1].uint("all_direct"), Some(0));
        assert!(artifact::table(&parsed.children).contains("speedup"));
    }
}
