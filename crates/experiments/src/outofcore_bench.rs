//! Out-of-core lane benchmark: the in-core/out-of-core crossover and the
//! per-device chunk-count sweep (Figure 8 composed over a device pool).
//!
//! Two sweeps go to `BENCH_outofcore.json`:
//!
//! * **Crossover** — requests stepping across the pool's admission budget
//!   are submitted to a [`SortService`] running
//!   [`OverBudgetPolicy::OutOfCore`].  Under-budget requests ride the
//!   batching lane as before; over-budget requests stream through the
//!   dedicated out-of-core lane (per-device chunked full-duplex pipeline +
//!   host multiway merge).  Each point records which lane served it, the
//!   chunk count, and wall-clock/simulated times — the crossover is the
//!   first point whose lane flips, exactly at the budget boundary.
//! * **Chunk sweep** — a fixed over-budget input sorted by
//!   [`multi_gpu::ShardedSorter::sort_out_of_core`] with the per-device
//!   chunk count forced to 1, 2, 4, … ([`OocConfig::with_chunks_per_device`]).
//!   Per Figure 8 of the paper, more chunks buy more upload/sort/download
//!   overlap; at functional test scale every chunk also pays real per-sort
//!   overhead, so the JSON reports both the simulated critical path and
//!   its non-overlapped serial bound to expose the overlap win directly.
//!
//! The pool's devices have deliberately shrunken memories (the knob is
//! `device_memory_bytes`) so the crossover happens at container-friendly
//! input sizes; the schedule arithmetic is identical at paper scale.

use crate::artifact;
use multi_gpu::{DevicePool, OocConfig, ShardedSorter, SimDevice};
use sort_service::{OverBudgetPolicy, ServiceConfig, SortPayload, SortService};
use std::time::Instant;
use telemetry::InspectNode;
use workloads::uniform_keys;

/// One request of the crossover sweep.
#[derive(Debug, Clone)]
pub struct OocCrossoverPoint {
    /// Keys in the request.
    pub n: usize,
    /// Request size in admission (batch) bytes.
    pub bytes: u64,
    /// The service's resolved admission budget.
    pub budget: u64,
    /// Which lane served the request (a [`sort_service::FlushReason`]
    /// label: `"out-of-core"` for the dedicated lane, anything else means
    /// the batching lane).
    pub lane: String,
    /// Pipeline chunks streamed (0 for in-core requests).
    pub chunks: u64,
    /// Wall-clock seconds from submission to outcome.
    pub wall_secs: f64,
    /// Simulated device-phase seconds of the request's sort.
    pub sim_device_secs: f64,
    /// Simulated end-to-end seconds (partition + device phase + merge).
    pub sim_end_to_end_secs: f64,
    /// Sorted keys per simulated device second.
    pub sim_keys_per_sec: f64,
}

/// One point of the per-device chunk-count sweep.
#[derive(Debug, Clone)]
pub struct OocChunkPoint {
    /// Forced chunks per device.
    pub chunks_per_device: usize,
    /// Total chunks across the pool.
    pub total_chunks: usize,
    /// Simulated critical path of the chunked device phase.
    pub critical_path_secs: f64,
    /// Simulated end-to-end seconds.
    pub end_to_end_secs: f64,
    /// Non-overlapped serial bound: the slowest device's
    /// `upload + sort + download` stage sums.
    pub serial_bound_secs: f64,
    /// `critical_path / serial_bound` — below 1.0 means the pipeline
    /// overlapped transfers with sorting.
    pub overlap_ratio: f64,
}

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct OocBenchConfig {
    /// Devices in the pool.
    pub devices: usize,
    /// Shrunken per-device memory in bytes (sets the admission budget).
    pub device_memory: u64,
    /// Request sizes as fractions of the admission budget.
    pub budget_fractions: Vec<f64>,
    /// Per-device chunk counts of the chunk sweep.
    pub chunk_counts: Vec<usize>,
    /// Keys of the chunk-sweep input.
    pub chunk_sweep_keys: usize,
}

impl OocBenchConfig {
    /// The full sweep.
    pub fn full() -> Self {
        OocBenchConfig {
            devices: 2,
            device_memory: 4 << 20,
            budget_fractions: vec![0.25, 0.5, 0.9, 1.5, 3.0, 6.0],
            chunk_counts: vec![1, 2, 4, 8, 16],
            chunk_sweep_keys: 400_000,
        }
    }

    /// A CI-sized smoke run.
    pub fn smoke() -> Self {
        OocBenchConfig {
            devices: 2,
            device_memory: 1 << 20,
            budget_fractions: vec![0.5, 4.0],
            chunk_counts: vec![1, 2, 4],
            chunk_sweep_keys: 150_000,
        }
    }

    /// The shrunken-memory pool both sweeps run on.
    pub fn pool(&self) -> DevicePool {
        let mut spec = gpu_sim::DeviceSpec::titan_x_pascal();
        spec.device_memory_bytes = self.device_memory;
        DevicePool::homogeneous(self.devices.max(1), SimDevice::on_pcie3(spec))
    }
}

/// Runs the crossover sweep through a service with the out-of-core policy.
pub fn run_crossover_sweep(cfg: &OocBenchConfig) -> Vec<OocCrossoverPoint> {
    let sorter = ShardedSorter::new(cfg.pool());
    let service = SortService::start(
        sorter,
        ServiceConfig::default().with_over_budget(OverBudgetPolicy::OutOfCore),
    );
    let budget = service.admission_budget();
    // Admission bytes per u64 key: the key plus its u64 demux tag.
    let elem = 16u64;
    let mut points = Vec::new();
    for (i, &fraction) in cfg.budget_fractions.iter().enumerate() {
        let n = ((budget as f64 * fraction) / elem as f64).ceil().max(1.0) as usize;
        let payload = SortPayload::U64Keys(uniform_keys::<u64>(n, i as u64 + 1));
        let bytes = payload.batch_bytes();
        let start = Instant::now();
        let outcome = service
            .submit(payload)
            .expect("both lanes admit")
            .wait()
            .expect("ticket resolves");
        let wall_secs = start.elapsed().as_secs_f64();
        let sim_device_secs = outcome.report.critical_path.secs();
        points.push(OocCrossoverPoint {
            n,
            bytes,
            budget,
            lane: outcome.batch.reason.label().to_string(),
            chunks: outcome.report.ooc_chunks.len() as u64,
            wall_secs,
            sim_device_secs,
            sim_end_to_end_secs: outcome.report.end_to_end.secs(),
            sim_keys_per_sec: n as f64 / sim_device_secs.max(1e-12),
        });
    }
    service.shutdown();
    points
}

/// Runs the chunk-count sweep directly on the sharded sorter.
pub fn run_chunk_sweep(cfg: &OocBenchConfig) -> Vec<OocChunkPoint> {
    let keys = uniform_keys::<u64>(cfg.chunk_sweep_keys, 77);
    cfg.chunk_counts
        .iter()
        .map(|&s| {
            let sorter = ShardedSorter::new(cfg.pool())
                .with_ooc_config(OocConfig::default().with_chunks_per_device(s));
            let mut k = keys.clone();
            let report = sorter.sort_out_of_core(&mut k);
            assert!(k.windows(2).all(|w| w[0] <= w[1]), "bench output unsorted");
            let serial_bound = report
                .shards
                .iter()
                .map(|sh| (sh.upload + sh.gpu_sort + sh.download).secs())
                .fold(0.0f64, f64::max);
            let critical = report.critical_path.secs();
            OocChunkPoint {
                chunks_per_device: s,
                total_chunks: report.ooc_chunks.len(),
                critical_path_secs: critical,
                end_to_end_secs: report.end_to_end.secs(),
                serial_bound_secs: serial_bound,
                overlap_ratio: critical / serial_bound.max(1e-12),
            }
        })
        .collect()
}

impl OocCrossoverPoint {
    /// The point as one artifact row.
    pub fn row(&self) -> InspectNode {
        artifact::row([
            ("n", self.n.into()),
            ("bytes", self.bytes.into()),
            ("budget", self.budget.into()),
            ("lane", self.lane.as_str().into()),
            ("chunks", self.chunks.into()),
            ("wall_secs", self.wall_secs.into()),
            ("sim_device_secs", self.sim_device_secs.into()),
            ("sim_end_to_end_secs", self.sim_end_to_end_secs.into()),
            ("sim_keys_per_sec", self.sim_keys_per_sec.into()),
        ])
    }
}

impl OocChunkPoint {
    /// The point as one artifact row.
    pub fn row(&self) -> InspectNode {
        artifact::row([
            ("chunks_per_device", self.chunks_per_device.into()),
            ("total_chunks", self.total_chunks.into()),
            ("critical_path_secs", self.critical_path_secs.into()),
            ("end_to_end_secs", self.end_to_end_secs.into()),
            ("serial_bound_secs", self.serial_bound_secs.into()),
            ("overlap_ratio", self.overlap_ratio.into()),
        ])
    }
}

/// The `BENCH_outofcore.json` tree: a `crossover` and a `chunk_sweep`
/// section, one row per point.
pub fn outofcore_artifact(
    crossover: &[OocCrossoverPoint],
    chunks: &[OocChunkPoint],
) -> InspectNode {
    artifact::root(
        "outofcore",
        "sim_keys_per_sec",
        vec![
            artifact::section(
                "crossover",
                crossover.iter().map(OocCrossoverPoint::row).collect(),
            ),
            artifact::section(
                "chunk_sweep",
                chunks.iter().map(OocChunkPoint::row).collect(),
            ),
        ],
    )
}

/// The crossover boundary: `(last in-core n, first out-of-core n)`, if the
/// sweep straddled the budget.
pub fn crossover_boundary(points: &[OocCrossoverPoint]) -> Option<(usize, usize)> {
    let last_in = points
        .iter()
        .filter(|p| p.lane != "out-of-core")
        .map(|p| p.n)
        .max()?;
    let first_out = points
        .iter()
        .filter(|p| p.lane == "out-of-core")
        .map(|p| p.n)
        .min()?;
    Some((last_in, first_out))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> OocBenchConfig {
        OocBenchConfig {
            devices: 2,
            device_memory: 1 << 20,
            budget_fractions: vec![0.5, 4.0],
            chunk_counts: vec![1, 2],
            chunk_sweep_keys: 150_000,
        }
    }

    #[test]
    fn crossover_sweep_flips_lanes_at_the_budget() {
        let points = run_crossover_sweep(&tiny());
        assert_eq!(points.len(), 2);
        let (under, over) = (&points[0], &points[1]);
        assert!(under.bytes <= under.budget);
        assert_ne!(under.lane, "out-of-core");
        assert_eq!(under.chunks, 0);
        assert!(over.bytes > over.budget);
        assert_eq!(over.lane, "out-of-core");
        assert!(over.chunks > 2, "{} chunks", over.chunks);
        for p in &points {
            assert!(p.wall_secs > 0.0);
            assert!(p.sim_device_secs > 0.0);
            assert!(p.sim_end_to_end_secs >= p.sim_device_secs);
        }
        let (last_in, first_out) = crossover_boundary(&points).unwrap();
        assert!(last_in < first_out);
    }

    #[test]
    fn chunk_sweep_overlaps_once_chunked() {
        let points = run_chunk_sweep(&tiny());
        assert_eq!(points.len(), 2);
        // One chunk per device: strictly sequential within a device.
        assert!(points[0].overlap_ratio > 0.999);
        // Two chunks per device: transfers overlap sorting.
        assert!(points[1].overlap_ratio < 1.0);
        assert_eq!(points[1].total_chunks, 4);
        for p in &points {
            assert!(p.critical_path_secs > 0.0);
            assert!(p.end_to_end_secs >= p.critical_path_secs);
        }
    }

    #[test]
    fn json_document_is_well_formed_enough() {
        let cfg = tiny();
        let crossover = run_crossover_sweep(&cfg);
        let chunks = run_chunk_sweep(&cfg);
        let tree = outofcore_artifact(&crossover, &chunks);
        assert_eq!(artifact::non_finite(&tree), None);
        let parsed = InspectNode::from_json(&tree.to_json()).unwrap();
        assert_eq!(parsed.text("bench"), Some("outofcore"));
        let sections: Vec<&str> = parsed.children.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(sections, ["crossover", "chunk_sweep"]);
        let crossover_rows = &parsed.node("crossover").unwrap().children;
        let chunk_rows = &parsed.node("chunk_sweep").unwrap().children;
        assert_eq!(crossover_rows.len(), crossover.len());
        assert_eq!(chunk_rows.len(), chunks.len());
        let keys = |row: &InspectNode| -> Vec<String> {
            row.properties.iter().map(|(k, _)| k.clone()).collect()
        };
        for row in crossover_rows {
            assert_eq!(
                keys(row),
                [
                    "n",
                    "bytes",
                    "budget",
                    "lane",
                    "chunks",
                    "wall_secs",
                    "sim_device_secs",
                    "sim_end_to_end_secs",
                    "sim_keys_per_sec"
                ]
            );
        }
        for row in chunk_rows {
            assert_eq!(
                keys(row),
                [
                    "chunks_per_device",
                    "total_chunks",
                    "critical_path_secs",
                    "end_to_end_secs",
                    "serial_bound_secs",
                    "overlap_ratio"
                ]
            );
        }
        assert_eq!(crossover_rows[1].text("lane"), Some("out-of-core"));
        assert!(artifact::table(chunk_rows).contains("overlap_ratio"));
    }
}
