//! Throughput of the batch sort service: batched vs one-request-per-batch.
//!
//! The service's claim is that coalescing small concurrent requests into
//! device-pool-sized batches raises end-to-end throughput, because every
//! sharded sort pays fixed costs (splitter selection, shard fan-out, merge,
//! worker wake-ups) that a 4k-key request cannot amortise but a coalesced
//! multi-megabyte batch can.  This sweep measures it: a closed-loop client
//! submits `requests` payloads of each size mix and waits for all tickets,
//! once against a batching service and once against the same service with
//! coalescing disabled (`max_batch_requests = 1`).  Results go to
//! `BENCH_service.json`.
//!
//! Reported per point: the number of batches actually formed, the mean
//! requests per batch, wall-clock requests/sec and keys/sec, and the
//! *simulated* device-phase seconds accumulated over all batches (the
//! critical-path sum the analytical model assigns).  The **headline metric
//! is the simulated device throughput** (`requests / sim_device_secs`):
//! the device pool is simulated, so device occupancy is where this
//! repository measures scheduling quality — a 4k-key request cannot fill a
//! Titan X's transfer pipeline any more than a 4-byte access fills a memory
//! transaction, and coalescing shows up as a large drop in device seconds.
//! Host wall-clock is reported alongside for completeness; on a single-core
//! container it tracks total CPU work (linear in keys), so batching is
//! roughly neutral there — the same caveat `bench_wallclock` carries.

use crate::artifact;
use multi_gpu::{DevicePool, ShardedSorter};
use sort_service::{ServiceConfig, SortPayload, SortService, SortTicket};
use std::time::{Duration, Instant};
use telemetry::InspectNode;
use workloads::uniform_keys;

/// How request sizes are drawn within a mix.
#[derive(Debug, Clone)]
pub struct RequestMix {
    /// Mix label (`"small"`, `"medium"`, `"mixed"`).
    pub name: String,
    /// Request sizes in keys, cycled over the submission sequence.
    pub sizes: Vec<usize>,
    /// Fraction of requests that are u64 (the rest are u32), cycled
    /// deterministically.
    pub u64_every: usize,
    /// Fraction of requests that carry values, cycled deterministically.
    pub pairs_every: usize,
}

impl RequestMix {
    /// All 4k-key requests — the workload batching exists for.
    pub fn small() -> Self {
        RequestMix {
            name: "small".into(),
            sizes: vec![4_096],
            u64_every: 3,
            pairs_every: 4,
        }
    }

    /// All 64k-key requests.
    pub fn medium() -> Self {
        RequestMix {
            name: "medium".into(),
            sizes: vec![65_536],
            u64_every: 3,
            pairs_every: 4,
        }
    }

    /// Sizes from 1k to 64k interleaved — the realistic front-end mix.
    pub fn mixed() -> Self {
        RequestMix {
            name: "mixed".into(),
            sizes: vec![1_024, 16_384, 4_096, 65_536, 2_048, 8_192],
            u64_every: 2,
            pairs_every: 3,
        }
    }

    /// The deterministic payload of request `i`.
    pub fn payload(&self, i: usize) -> SortPayload {
        let n = self.sizes[i % self.sizes.len()];
        let seed = i as u64 + 1;
        let is_u64 = self.u64_every != 0 && i.is_multiple_of(self.u64_every);
        let is_pairs = self.pairs_every != 0 && i.is_multiple_of(self.pairs_every);
        match (is_u64, is_pairs) {
            (false, false) => SortPayload::U32Keys(uniform_keys::<u32>(n, seed)),
            (true, false) => SortPayload::U64Keys(uniform_keys::<u64>(n, seed)),
            (false, true) => SortPayload::U32Pairs {
                keys: uniform_keys::<u32>(n, seed),
                values: (0..n as u32).collect(),
            },
            (true, true) => SortPayload::U64Pairs {
                keys: uniform_keys::<u64>(n, seed),
                values: (0..n as u32).collect(),
            },
        }
    }
}

/// One measured service configuration.
#[derive(Debug, Clone)]
pub struct ServicePoint {
    /// Request-mix label.
    pub mix: String,
    /// Scheduling mode: `"batched"` or `"unbatched"`.
    pub mode: String,
    /// The batch linger window in milliseconds (0 for unbatched).
    pub linger_ms: f64,
    /// Requests submitted and completed.
    pub requests: usize,
    /// Total keys across all requests.
    pub keys: u64,
    /// Batches the service actually formed.
    pub batches: u64,
    /// Mean requests coalesced per batch.
    pub mean_batch_requests: f64,
    /// Wall-clock seconds from first submission to last outcome.
    pub wall_secs: f64,
    /// Completed requests per wall-clock second.
    pub reqs_per_sec: f64,
    /// Sorted keys per wall-clock second.
    pub keys_per_sec: f64,
    /// Simulated device-phase seconds summed over the formed batches.
    pub sim_device_secs: f64,
    /// Completed requests per simulated device-second — the headline
    /// scheduling-quality metric.
    pub sim_reqs_per_sec: f64,
    /// Sorted keys per simulated device-second.
    pub sim_keys_per_sec: f64,
}

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct ServiceBenchConfig {
    /// Requests per mix per mode.
    pub requests: usize,
    /// Devices in the simulated pool.
    pub devices: usize,
    /// Batch linger window for the batched mode.
    pub linger: Duration,
    /// Size-based flush threshold for the batched mode.
    pub max_batch_bytes: u64,
    /// The mixes to run.
    pub mixes: Vec<RequestMix>,
}

impl ServiceBenchConfig {
    /// The full sweep: 192 requests per point over small/medium/mixed.
    pub fn full() -> Self {
        ServiceBenchConfig {
            requests: 192,
            devices: 4,
            linger: Duration::from_millis(2),
            max_batch_bytes: 48 << 20,
            mixes: vec![
                RequestMix::small(),
                RequestMix::medium(),
                RequestMix::mixed(),
            ],
        }
    }

    /// A CI-sized smoke run.
    pub fn smoke() -> Self {
        ServiceBenchConfig {
            requests: 48,
            devices: 2,
            linger: Duration::from_millis(2),
            max_batch_bytes: 48 << 20,
            mixes: vec![RequestMix::small(), RequestMix::mixed()],
        }
    }
}

fn run_mode(mix: &RequestMix, mode_batched: bool, cfg: &ServiceBenchConfig) -> ServicePoint {
    let sorter = ShardedSorter::new(DevicePool::titan_cluster(cfg.devices));
    let service_cfg = if mode_batched {
        ServiceConfig::default()
            .with_max_linger(cfg.linger)
            .with_max_batch_bytes(cfg.max_batch_bytes)
            .with_queue_depth(cfg.requests.max(1))
    } else {
        ServiceConfig::unbatched().with_queue_depth(cfg.requests.max(1))
    };
    let service = SortService::start(sorter, service_cfg);

    // Warm-up: one throwaway request per key class builds the device lanes
    // so the timed loop measures the steady state.
    for warm in [
        SortPayload::U32Keys(uniform_keys::<u32>(4_096, 77)),
        SortPayload::U64Keys(uniform_keys::<u64>(4_096, 78)),
    ] {
        let _ = service.submit(warm).unwrap().wait();
    }

    let start = Instant::now();
    let tickets: Vec<SortTicket> = (0..cfg.requests)
        .map(|i| service.submit(mix.payload(i)).expect("admission"))
        .collect();
    let mut keys = 0u64;
    let mut sim_device_secs = 0.0;
    // Count each batch's simulated critical path once: tickets of one
    // batch share a batch id (u32 and u64 batches interleave in ticket
    // order, so dedupe with a set rather than a run-length check).
    let mut seen = std::collections::HashSet::new();
    for t in tickets {
        let o = t.wait().expect("ticket resolves");
        keys += o.span.len;
        if seen.insert(o.batch.batch) {
            sim_device_secs += o.report.critical_path.secs();
        }
    }
    let wall_secs = start.elapsed().as_secs_f64().max(1e-9);
    let stats = service.shutdown();
    // The two warm-up requests rode their own batches before the timed
    // loop; subtract them from the lifetime counters.
    let batches = stats.batches.saturating_sub(2);
    ServicePoint {
        mix: mix.name.clone(),
        mode: if mode_batched { "batched" } else { "unbatched" }.into(),
        linger_ms: if mode_batched {
            cfg.linger.as_secs_f64() * 1e3
        } else {
            0.0
        },
        requests: cfg.requests,
        keys,
        batches,
        mean_batch_requests: cfg.requests as f64 / batches.max(1) as f64,
        wall_secs,
        reqs_per_sec: cfg.requests as f64 / wall_secs,
        keys_per_sec: keys as f64 / wall_secs,
        sim_device_secs,
        sim_reqs_per_sec: cfg.requests as f64 / sim_device_secs.max(1e-12),
        sim_keys_per_sec: keys as f64 / sim_device_secs.max(1e-12),
    }
}

/// Runs the sweep: every mix in batched and unbatched mode.
pub fn run_service_sweep(cfg: &ServiceBenchConfig) -> Vec<ServicePoint> {
    let mut points = Vec::new();
    for mix in &cfg.mixes {
        for batched in [false, true] {
            points.push(run_mode(mix, batched, cfg));
        }
    }
    points
}

impl ServicePoint {
    /// The point as one artifact row.
    pub fn row(&self) -> InspectNode {
        artifact::row([
            ("mix", self.mix.as_str().into()),
            ("mode", self.mode.as_str().into()),
            ("linger_ms", self.linger_ms.into()),
            ("requests", self.requests.into()),
            ("keys", self.keys.into()),
            ("batches", self.batches.into()),
            ("mean_batch_requests", self.mean_batch_requests.into()),
            ("wall_secs", self.wall_secs.into()),
            ("reqs_per_sec", self.reqs_per_sec.into()),
            ("keys_per_sec", self.keys_per_sec.into()),
            ("sim_device_secs", self.sim_device_secs.into()),
            ("sim_reqs_per_sec", self.sim_reqs_per_sec.into()),
            ("sim_keys_per_sec", self.sim_keys_per_sec.into()),
        ])
    }
}

/// The `BENCH_service.json` tree: one row per point.
pub fn service_artifact(points: &[ServicePoint]) -> InspectNode {
    artifact::root(
        "service",
        "sim_reqs_per_sec",
        points.iter().map(ServicePoint::row).collect(),
    )
}

/// Runs one short instrumented service session and returns the full
/// inspection tree as JSON — the `TELEMETRY_snapshot.json` artifact CI
/// uploads alongside `BENCH_service.json`.  The session touches every
/// layer the telemetry covers: a mixed request stream exercises both key
/// classes of the batching lane, the sharded engine underneath, and the
/// per-device core sorters.
pub fn telemetry_snapshot_json(cfg: &ServiceBenchConfig) -> String {
    let sorter = ShardedSorter::new(DevicePool::titan_cluster(cfg.devices));
    let service = SortService::start(
        sorter,
        ServiceConfig::default()
            .with_max_linger(cfg.linger)
            .with_queue_depth(64),
    );
    let mix = RequestMix::mixed();
    let tickets: Vec<SortTicket> = (0..24)
        .map(|i| service.submit(mix.payload(i)).expect("admission"))
        .collect();
    for t in tickets {
        let _ = t.wait();
    }
    let snapshot = service.inspector().snapshot();
    service.shutdown();
    snapshot.to_json()
}

/// Batched-over-unbatched throughput ratios per mix:
/// `(mix, simulated-device ratio, wall-clock ratio)`.  The simulated ratio
/// is the headline — it measures how much device occupancy coalescing
/// recovers from small requests.
pub fn batching_speedups(points: &[ServicePoint]) -> Vec<(String, f64, f64)> {
    let mut out = Vec::new();
    for p in points.iter().filter(|p| p.mode == "batched") {
        if let Some(base) = points
            .iter()
            .find(|q| q.mode == "unbatched" && q.mix == p.mix)
        {
            out.push((
                p.mix.clone(),
                p.sim_reqs_per_sec / base.sim_reqs_per_sec.max(1e-9),
                p.reqs_per_sec / base.reqs_per_sec.max(1e-9),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ServiceBenchConfig {
        ServiceBenchConfig {
            requests: 12,
            devices: 2,
            linger: Duration::from_millis(1),
            max_batch_bytes: 48 << 20,
            mixes: vec![RequestMix::small()],
        }
    }

    #[test]
    fn sweep_runs_both_modes_and_batches_coalesce() {
        let points = run_service_sweep(&tiny());
        assert_eq!(points.len(), 2);
        let unbatched = &points[0];
        let batched = &points[1];
        assert_eq!(unbatched.mode, "unbatched");
        assert_eq!(batched.mode, "batched");
        // One-request-per-batch mode forms exactly one batch per request.
        assert_eq!(unbatched.batches, unbatched.requests as u64);
        // The batched mode must actually coalesce.
        assert!(
            batched.batches < batched.requests as u64,
            "no coalescing: {} batches for {} requests",
            batched.batches,
            batched.requests
        );
        assert!(batched.mean_batch_requests > 1.0);
        for p in &points {
            assert!(p.wall_secs > 0.0);
            assert!(p.keys > 0);
            assert!(p.sim_device_secs > 0.0);
            assert!(p.sim_reqs_per_sec > 0.0);
        }
        // The service's claim: coalescing small requests raises simulated
        // device throughput (per-batch fixed transfer/kernel overheads are
        // amortised), so fewer batches must mean fewer device seconds.
        assert!(
            batched.sim_device_secs < unbatched.sim_device_secs,
            "batching did not reduce device seconds: {} vs {}",
            batched.sim_device_secs,
            unbatched.sim_device_secs
        );
        let speedups = batching_speedups(&points);
        assert_eq!(speedups.len(), 1);
        let (_, sim_ratio, wall_ratio) = &speedups[0];
        assert!(*sim_ratio > 1.0, "sim speedup {sim_ratio}");
        assert!(*wall_ratio > 0.0);
    }

    #[test]
    fn json_document_is_well_formed_enough() {
        let points = run_service_sweep(&tiny());
        let tree = service_artifact(&points);
        assert_eq!(artifact::non_finite(&tree), None);
        let parsed = InspectNode::from_json(&tree.to_json()).unwrap();
        assert_eq!(parsed.text("bench"), Some("service"));
        assert_eq!(parsed.children.len(), points.len());
        for row in &parsed.children {
            let keys: Vec<&str> = row.properties.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                keys,
                [
                    "mix",
                    "mode",
                    "linger_ms",
                    "requests",
                    "keys",
                    "batches",
                    "mean_batch_requests",
                    "wall_secs",
                    "reqs_per_sec",
                    "keys_per_sec",
                    "sim_device_secs",
                    "sim_reqs_per_sec",
                    "sim_keys_per_sec"
                ]
            );
        }
        assert_eq!(parsed.children[1].text("mode"), Some("batched"));
        assert!(artifact::table(&parsed.children).contains("mean_batch_requests"));
    }

    #[test]
    fn telemetry_snapshot_parses_and_covers_the_layers() {
        let json = telemetry_snapshot_json(&tiny());
        let snap = telemetry::InspectNode::from_json(&json).expect("snapshot JSON parses");
        assert_eq!(snap.node("service").unwrap().uint("requests"), Some(24));
        assert!(snap.node("multi_gpu").unwrap().uint("sorts").unwrap() >= 1);
        assert!(snap.node("core/dev0").is_some());
    }

    #[test]
    fn mixes_are_deterministic_and_varied() {
        let mix = RequestMix::mixed();
        assert_eq!(mix.payload(5), mix.payload(5));
        let classes: std::collections::HashSet<&'static str> = (0..12)
            .map(|i| match mix.payload(i) {
                SortPayload::U32Keys(_) => "u32",
                SortPayload::U64Keys(_) => "u64",
                SortPayload::U32Pairs { .. } => "u32p",
                SortPayload::U64Pairs { .. } => "u64p",
            })
            .collect();
        assert!(classes.len() >= 3, "mix too uniform: {classes:?}");
    }
}
