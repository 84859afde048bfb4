//! Wall-clock throughput of the execution backends.
//!
//! Everything else in this crate reports *simulated* GPU times; this module
//! starts the repo's **real** performance trajectory.  It measures keys/sec
//! of the functional hybrid radix sort under the [`Executor::Sequential`]
//! baseline and the real-thread [`Executor::Threaded`] backend across
//! worker counts, workloads (uniform / Zipfian / pre-sorted) and shapes
//! (u32 keys, u32 + u32 pairs, and u64 + u32 pairs, whose local buckets
//! keep more than 32 unsorted bits and so run the local sort's MSD
//! prefix), and serialises the sweep as
//! `BENCH_wallclock.json` so CI can archive the trajectory.  Every point
//! times the staged (write-combining) scatter and, as its A/B reference,
//! the direct per-key scatter.
//!
//! Every timed run is preceded by a warm-up sort of the same input, so the
//! scratch arena is hot and the numbers measure the algorithm, not the
//! allocator.

use crate::artifact;
use hrs_core::{Executor, HybridRadixSorter, Optimizations};
use std::time::Instant;
use telemetry::InspectNode;
use workloads::{Distribution, SortKey};

/// One measured configuration of the sweep.
#[derive(Debug, Clone)]
pub struct WallclockPoint {
    /// Workload name (`"uniform"`, `"zipf"`, `"sorted"`).
    pub workload: String,
    /// Shape name (`"u32 keys"`, `"u32+u32 pairs"`, `"u64+u32 pairs"`).
    pub shape: String,
    /// Input size in keys.
    pub n: usize,
    /// Worker count (1 runs the `Sequential` baseline).
    pub workers: usize,
    /// Backend label (`"seq"`, `"threads(4)"`).
    pub backend: String,
    /// Best wall-clock seconds of the staged scatter over the measured
    /// repetitions.
    pub secs: f64,
    /// Sorted keys per second.
    pub keys_per_sec: f64,
    /// Effective record bytes moved per second (key + value widths × keys
    /// sorted / `secs`).
    pub bytes_per_sec: f64,
    /// Speedup over the sequential baseline of the same configuration.
    pub speedup_vs_seq: f64,
    /// Best seconds of the unstaged (direct-scatter) reference run.
    pub unstaged_secs: f64,
    /// `unstaged_secs / secs` — the staged path's A/B gain (> 1 means the
    /// write-combining scatter won).
    pub staged_vs_unstaged: f64,
}

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct WallclockConfig {
    /// Input sizes in keys.
    pub sizes: Vec<usize>,
    /// Worker counts to measure (1 = sequential baseline; always measured
    /// even when absent from this list, since it anchors the speedups).
    pub worker_counts: Vec<usize>,
    /// Timed repetitions per configuration (the best is reported).
    pub reps: usize,
    /// Whether to also measure the key-value shapes.
    pub pairs: bool,
}

impl WallclockConfig {
    /// The full sweep of the perf trajectory: 2^20–2^26 keys, 1/2/4/8
    /// workers, every shape, staged with unstaged A/B references.
    pub fn full() -> Self {
        WallclockConfig {
            sizes: vec![1 << 20, 1 << 22, 1 << 24, 1 << 26],
            worker_counts: vec![1, 2, 4, 8],
            reps: 3,
            pairs: true,
        }
    }

    /// A CI-sized smoke run (one small size, few workers, one rep).
    pub fn smoke() -> Self {
        WallclockConfig {
            sizes: vec![1 << 20],
            worker_counts: vec![1, 2, 4],
            reps: 1,
            pairs: true,
        }
    }
}

/// The workloads of the sweep.
pub fn wallclock_workloads(n: usize) -> Vec<(String, Distribution)> {
    vec![
        ("uniform".to_string(), Distribution::Uniform),
        (
            "zipf".to_string(),
            Distribution::paper_zipf((n as u64 / 4).max(2)),
        ),
        ("sorted".to_string(), Distribution::Sorted),
    ]
}

fn executor_for(workers: usize) -> Executor {
    if workers <= 1 {
        Executor::Sequential
    } else {
        Executor::with_workers(workers)
    }
}

/// Measures one configuration: best-of-`reps` wall-clock of sorting `keys`
/// (cloned per run) with optional index values, after one warm-up run.
fn measure<F: FnMut() -> f64>(reps: usize, mut run: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        best = best.min(run());
    }
    best
}

/// Measures one shape: `keys`, alone or with `u32` row ids as values.
fn run_shape<K: SortKey>(
    points: &mut Vec<WallclockPoint>,
    workload: &str,
    shape: &str,
    keys: &[K],
    pairs: bool,
    cfg: &WallclockConfig,
) {
    let n = keys.len();
    let record_bytes = f64::from(K::BYTES + if pairs { 4 } else { 0 });
    // The sequential baseline anchors every speedup, so it is always
    // measured and always measured first, whatever order (or subset) the
    // caller asked for.
    let mut workers_list: Vec<usize> = vec![1];
    for &w in &cfg.worker_counts {
        if w != 1 && !workers_list.contains(&w) {
            workers_list.push(w);
        }
    }
    let mut seq_secs = f64::NAN;
    for &workers in &workers_list {
        let exec = executor_for(workers);
        // Warm-up (inside `timed`): populates the arena so the timed runs
        // are steady-state.
        let timed = |opts: Optimizations| {
            let sorter = HybridRadixSorter::with_defaults()
                .with_executor(exec)
                .with_optimizations(opts);
            let run = || {
                let mut k = keys.to_vec();
                if pairs {
                    let mut v: Vec<u32> = (0..n as u32).collect();
                    let start = Instant::now();
                    sorter.sort_pairs(&mut k, &mut v);
                    start.elapsed().as_secs_f64()
                } else {
                    let start = Instant::now();
                    sorter.sort(&mut k);
                    start.elapsed().as_secs_f64()
                }
            };
            run();
            measure(cfg.reps, run)
        };
        let secs = timed(Optimizations::all_on());
        // The A/B reference shares everything but the staged-scatter toggle.
        let unstaged_secs = timed(Optimizations::no_staged_scatter());
        if workers == 1 {
            seq_secs = secs;
        }
        points.push(WallclockPoint {
            workload: workload.to_string(),
            shape: shape.to_string(),
            n,
            workers,
            backend: exec.label(),
            secs,
            keys_per_sec: n as f64 / secs.max(1e-12),
            bytes_per_sec: n as f64 * record_bytes / secs.max(1e-12),
            speedup_vs_seq: seq_secs / secs.max(1e-12),
            unstaged_secs,
            staged_vs_unstaged: unstaged_secs / secs.max(1e-12),
        });
    }
}

/// Runs the whole sweep and returns one point per configuration.
pub fn run_wallclock_sweep(cfg: &WallclockConfig) -> Vec<WallclockPoint> {
    let mut points = Vec::new();
    for &n in &cfg.sizes {
        for (workload, dist) in wallclock_workloads(n) {
            let keys: Vec<u32> = dist.generate(n, 0xBE);
            run_shape(&mut points, &workload, "u32 keys", &keys, false, cfg);
            if cfg.pairs {
                run_shape(&mut points, &workload, "u32+u32 pairs", &keys, true, cfg);
                let wide: Vec<u64> = dist.generate(n, 0xBE);
                run_shape(&mut points, &workload, "u64+u32 pairs", &wide, true, cfg);
            }
        }
    }
    points
}

impl WallclockPoint {
    /// The point as one artifact row.
    pub fn row(&self) -> InspectNode {
        artifact::row([
            ("workload", self.workload.as_str().into()),
            ("shape", self.shape.as_str().into()),
            ("n", self.n.into()),
            ("workers", self.workers.into()),
            ("backend", self.backend.as_str().into()),
            ("secs", self.secs.into()),
            ("keys_per_sec", self.keys_per_sec.into()),
            ("bytes_per_sec", self.bytes_per_sec.into()),
            ("speedup_vs_seq", self.speedup_vs_seq.into()),
            ("unstaged_secs", self.unstaged_secs.into()),
            ("staged_vs_unstaged", self.staged_vs_unstaged.into()),
        ])
    }
}

/// The `BENCH_wallclock.json` tree: one row per point.
pub fn wallclock_artifact(points: &[WallclockPoint]) -> InspectNode {
    artifact::root(
        "wallclock",
        "keys_per_sec",
        points.iter().map(WallclockPoint::row).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> WallclockConfig {
        WallclockConfig {
            sizes: vec![20_000],
            worker_counts: vec![1, 2],
            reps: 1,
            pairs: true,
        }
    }

    #[test]
    fn sweep_covers_every_configuration() {
        let points = run_wallclock_sweep(&tiny_config());
        // 1 size × 3 workloads × 3 shapes × 2 worker counts (the unstaged
        // A/B reference rides inside each point, not as extra rows).
        assert_eq!(points.len(), 18);
        for p in &points {
            assert!(p.secs > 0.0, "{p:?}");
            assert!(p.keys_per_sec > 0.0, "{p:?}");
            assert!(p.speedup_vs_seq > 0.0, "{p:?}");
            assert!(p.unstaged_secs > 0.0, "{p:?}");
            assert!(p.staged_vs_unstaged > 0.0, "{p:?}");
            // Effective bytes/sec is keys/sec scaled by the record width.
            let record = match p.shape.as_str() {
                "u32 keys" => 4.0,
                "u32+u32 pairs" => 8.0,
                "u64+u32 pairs" => 12.0,
                other => panic!("unexpected shape {other}"),
            };
            assert!(
                (p.bytes_per_sec - p.keys_per_sec * record).abs() < 1.0,
                "{p:?}"
            );
        }
        // The sequential baseline has speedup exactly 1.
        assert!(points
            .iter()
            .filter(|p| p.workers == 1)
            .all(|p| (p.speedup_vs_seq - 1.0).abs() < 1e-9));
    }

    #[test]
    fn descending_worker_order_still_anchors_speedups() {
        // Regression: the baseline used to be measured only when the loop
        // *reached* workers == 1, leaving earlier points with NaN speedups
        // (and invalid JSON).
        let points = run_wallclock_sweep(&WallclockConfig {
            sizes: vec![8_000],
            worker_counts: vec![2, 1],
            reps: 1,
            pairs: false,
        });
        assert_eq!(points[0].workers, 1, "baseline must be measured first");
        assert_eq!(artifact::non_finite(&wallclock_artifact(&points)), None);
    }

    #[test]
    fn json_document_is_well_formed_enough() {
        let points = run_wallclock_sweep(&WallclockConfig {
            sizes: vec![10_000],
            worker_counts: vec![1],
            reps: 1,
            pairs: false,
        });
        let tree = wallclock_artifact(&points);
        assert_eq!(artifact::non_finite(&tree), None);
        let parsed = InspectNode::from_json(&tree.to_json()).unwrap();
        assert_eq!(parsed.text("bench"), Some("wallclock"));
        assert_eq!(parsed.children.len(), points.len());
        for row in &parsed.children {
            let keys: Vec<&str> = row.properties.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                keys,
                [
                    "workload",
                    "shape",
                    "n",
                    "workers",
                    "backend",
                    "secs",
                    "keys_per_sec",
                    "bytes_per_sec",
                    "speedup_vs_seq",
                    "unstaged_secs",
                    "staged_vs_unstaged"
                ]
            );
        }
        assert_eq!(parsed.children[0].uint("n"), Some(10_000));
        assert!(artifact::table(&parsed.children).contains("keys_per_sec"));
    }
}
