//! End-to-end heterogeneous sorting driver (Section 5).
//!
//! [`HeterogeneousSorter`] splits an input into `s` chunks, sorts every
//! chunk with the hybrid radix sort (functionally — the output really is
//! sorted), derives each chunk's simulated on-GPU sorting time from its
//! [`hrs_core::SortReport`], schedules the chunk uploads, sorts and
//! downloads on the simulated full-duplex PCIe pipeline, and finally merges
//! the sorted runs on the CPU with the parallel multiway merge, measuring
//! the real merge time.
//!
//! The resulting [`HeteroReport`] contains both the functional output and
//! the simulated end-to-end breakdown that Figures 8 and 9 plot, plus the
//! naive (non-pipelined) comparison points.

use crate::chunking::split_into_chunks;
use crate::multiway_merge::merge_keys_into;
use crate::pipeline::{PipelineBreakdown, PipelineConfig, PipelineSchedule};
use gpu_sim::{PcieBus, SimTime, TransferDirection};
use hrs_core::HybridRadixSorter;
use workloads::SortKey;

/// Simulated timings of the naive approach that uploads the whole input,
/// sorts it on the GPU and downloads the result without any overlap
/// (the `CUB` / `HRS` bars on the left of Figure 8).
#[derive(Debug, Clone, PartialEq)]
pub struct NaiveGpuReport {
    /// Label of the on-GPU sort used.
    pub name: String,
    /// PCIe host-to-device time.
    pub htod: SimTime,
    /// On-GPU sorting time.
    pub gpu_sort: SimTime,
    /// PCIe device-to-host time.
    pub dtoh: SimTime,
}

impl NaiveGpuReport {
    /// Total end-to-end duration of the naive approach.
    pub fn total(&self) -> SimTime {
        self.htod + self.gpu_sort + self.dtoh
    }
}

/// Report of one heterogeneous sort run.
#[derive(Debug, Clone)]
pub struct HeteroReport {
    /// Number of chunks used.
    pub chunks: usize,
    /// Total input bytes.
    pub input_bytes: u64,
    /// Simulated pipeline breakdown (chunked sort, CPU merge, end-to-end).
    pub breakdown: PipelineBreakdown,
    /// Per-chunk simulated GPU sorting times.
    pub chunk_sort_times: Vec<SimTime>,
    /// Measured wall-clock duration of the real CPU multiway merge.
    pub measured_merge: std::time::Duration,
    /// Measured CPU merge throughput in bytes per second.
    pub measured_merge_bytes_per_sec: f64,
}

impl HeteroReport {
    /// One-line summary for experiment logs.
    pub fn summary(&self) -> String {
        format!(
            "s={}: chunked sort {}, CPU merge {}, end-to-end {}",
            self.chunks,
            self.breakdown.chunked_sort,
            self.breakdown.cpu_merge,
            self.breakdown.end_to_end
        )
    }
}

/// The heterogeneous sorter.
#[derive(Debug, Clone)]
pub struct HeterogeneousSorter {
    /// The on-GPU sorter used for the chunks.
    pub gpu_sorter: HybridRadixSorter,
    /// Pipeline configuration (PCIe link, in-place replacement).
    pub pipeline: PipelineConfig,
    /// Number of CPU threads used for the multiway merge.
    pub merge_threads: usize,
    /// The observability hub: sort/chunk counters and the merge span land
    /// under `hetero/`; swap in a shared inspector with
    /// [`Self::with_telemetry`] to fold them into a wider snapshot tree.
    pub inspector: telemetry::Inspector,
}

impl HeterogeneousSorter {
    /// A sorter with the paper's defaults (hybrid radix sort on a Titan X,
    /// PCIe 3.0 ×16, in-place replacement, six merge threads as on the
    /// paper's six-core host).
    pub fn with_defaults() -> Self {
        HeterogeneousSorter {
            gpu_sorter: HybridRadixSorter::with_defaults(),
            pipeline: PipelineConfig::default(),
            merge_threads: 6,
            inspector: telemetry::Inspector::new(),
        }
    }

    /// Reports into `inspector` instead of the sorter's private one, and
    /// attaches a `core` probe to the chunk sorter so per-pass timings and
    /// arena gauges land in the same tree.  Apply after
    /// [`Self::with_gpu_sorter`], which replaces the probed sorter.
    pub fn with_telemetry(mut self, inspector: &telemetry::Inspector) -> Self {
        self.inspector = inspector.clone();
        self.gpu_sorter = self.gpu_sorter.with_telemetry(inspector, "core");
        self
    }

    /// Overrides the GPU sorter.
    pub fn with_gpu_sorter(mut self, sorter: HybridRadixSorter) -> Self {
        self.gpu_sorter = sorter;
        self
    }

    /// Overrides the number of merge threads.
    pub fn with_merge_threads(mut self, threads: usize) -> Self {
        self.merge_threads = threads.max(1);
        self
    }

    /// Overrides the pipeline configuration.
    pub fn with_pipeline(mut self, pipeline: PipelineConfig) -> Self {
        self.pipeline = pipeline;
        self
    }

    /// Sorts `keys` end to end using `s` chunks and returns the report.
    pub fn sort<K: SortKey>(&self, keys: &mut Vec<K>, s: usize) -> HeteroReport {
        let n = keys.len();
        let input_bytes = n as u64 * K::BYTES as u64;
        let plan = split_into_chunks(n, s.max(1));

        // Sort each chunk "on the GPU" (functionally on the CPU, with the
        // simulated time taken from the sort report).
        let mut runs: Vec<Vec<K>> = Vec::with_capacity(plan.num_chunks());
        let mut sort_times = Vec::with_capacity(plan.num_chunks());
        let mut chunk_bytes = Vec::with_capacity(plan.num_chunks());
        for &(start, end) in &plan.ranges {
            let mut chunk: Vec<K> = keys[start..end].to_vec();
            let report = self.gpu_sorter.sort(&mut chunk);
            sort_times.push(report.simulated.total);
            chunk_bytes.push((end - start) as u64 * K::BYTES as u64);
            runs.push(chunk);
        }

        // Merge the sorted runs on the CPU (measured for real).
        let merge_span = self.inspector.span_with("hetero/merge", "hetero/merge_ns");
        // The runs are copies, so they merge straight into `keys`.
        if let [run] = runs.as_mut_slice() {
            std::mem::swap(keys, run);
        } else {
            let run_refs: Vec<&[K]> = runs.iter().map(|r| r.as_slice()).collect();
            merge_keys_into(&run_refs, self.merge_threads, |k: &K| k.to_radix(), keys);
        }
        let measured_merge = merge_span.finish();
        self.inspector.counter("hetero/sorts").inc();
        self.inspector.counter("hetero/keys").add(n as u64);
        self.inspector
            .counter("hetero/chunks")
            .add(plan.num_chunks() as u64);

        let merge_bytes_per_sec = if measured_merge.as_secs_f64() > 0.0 {
            input_bytes as f64 / measured_merge.as_secs_f64()
        } else {
            f64::INFINITY
        };
        // The simulated merge time equals the measured wall-clock time: the
        // CPU side of the heterogeneous sort is real, not simulated.
        let cpu_merge = if runs.len() <= 1 {
            SimTime::ZERO
        } else {
            SimTime::from_secs(measured_merge.as_secs_f64())
        };

        let schedule =
            PipelineSchedule::build(&self.pipeline, &chunk_bytes, &sort_times, cpu_merge);

        HeteroReport {
            chunks: plan.num_chunks(),
            input_bytes,
            breakdown: schedule.breakdown,
            chunk_sort_times: sort_times,
            measured_merge,
            measured_merge_bytes_per_sec: merge_bytes_per_sec,
        }
    }

    /// Simulated naive (non-pipelined) end-to-end time: one upload of
    /// `input_bytes`, one on-GPU sort of `gpu_sort_time`, one download.
    pub fn naive(&self, name: &str, input_bytes: u64, gpu_sort_time: SimTime) -> NaiveGpuReport {
        let bus: &PcieBus = &self.pipeline.bus;
        NaiveGpuReport {
            name: name.to_string(),
            htod: bus.transfer_time(TransferDirection::HostToDevice, input_bytes),
            gpu_sort: gpu_sort_time,
            dtoh: bus.transfer_time(TransferDirection::DeviceToHost, input_bytes),
        }
    }

    /// Analytic end-to-end simulation for an input of `input_bytes` split
    /// into `s` chunks, given the total on-GPU sorting time and the CPU
    /// merge time (used by the paper-scale experiment harness where the
    /// functional path would need tens of gigabytes of RAM).
    pub fn simulate_end_to_end(
        &self,
        input_bytes: u64,
        s: usize,
        total_gpu_sort: SimTime,
        cpu_merge: SimTime,
    ) -> PipelineBreakdown {
        let s = s.max(1);
        let per_chunk = input_bytes / s as u64;
        let chunk_bytes = vec![per_chunk; s];
        let sort_times = vec![total_gpu_sort / s as f64; s];
        PipelineSchedule::build(&self.pipeline, &chunk_bytes, &sort_times, cpu_merge).breakdown
    }
}

impl Default for HeterogeneousSorter {
    fn default() -> Self {
        HeterogeneousSorter::with_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrs_core::SortConfig;
    use workloads::{uniform_keys, KeyCodec, ZipfGenerator};

    fn sorter() -> HeterogeneousSorter {
        // Scale the on-GPU configuration to the small functional inputs used
        // in tests so that multiple counting passes and local sorts occur.
        let gpu = HybridRadixSorter::new(SortConfig::keys_64().scaled_for(50_000, 250_000_000));
        HeterogeneousSorter::with_defaults()
            .with_gpu_sorter(gpu)
            .with_merge_threads(4)
    }

    #[test]
    fn end_to_end_sorts_correctly_for_various_chunk_counts() {
        let keys = uniform_keys::<u64>(120_000, 1);
        let expected = KeyCodec::std_sorted(&keys);
        for s in [1usize, 2, 3, 4, 8, 16] {
            let mut k = keys.clone();
            let report = sorter().sort(&mut k, s);
            assert_eq!(k, expected, "s = {s}");
            assert_eq!(report.chunks, s);
            assert!(report.breakdown.end_to_end.secs() > 0.0);
        }
    }

    #[test]
    fn zipfian_input_end_to_end() {
        let keys: Vec<u64> = ZipfGenerator::paper_keys(80_000, 3);
        let expected = KeyCodec::std_sorted(&keys);
        let mut k = keys;
        let report = sorter().sort(&mut k, 4);
        assert_eq!(k, expected);
        assert!(report.measured_merge_bytes_per_sec > 0.0);
    }

    #[test]
    fn single_chunk_has_no_merge_cost() {
        let mut keys = uniform_keys::<u64>(50_000, 2);
        let report = sorter().sort(&mut keys, 1);
        assert_eq!(report.breakdown.cpu_merge, SimTime::ZERO);
        assert_eq!(
            report.breakdown.end_to_end.secs(),
            report.breakdown.chunked_sort.secs()
        );
    }

    #[test]
    fn chunked_sort_beats_the_naive_approach_at_scale() {
        // At paper scale (6 GB of 64+64 pairs) the pipelined chunked sort
        // should beat naive HtD + sort + DtH.
        let s = sorter();
        let input_bytes = 6_000_000_000u64;
        let gpu_sort = SimTime::from_millis(330.0);
        let naive = s.naive("HRS", input_bytes, gpu_sort);
        let pipelined = s.simulate_end_to_end(input_bytes, 8, gpu_sort, SimTime::ZERO);
        assert!(pipelined.chunked_sort < naive.total());
        // Figure 8: the naive approach is dominated by the transfers.
        assert!(naive.htod.millis() > 450.0 && naive.htod.millis() < 600.0);
    }

    #[test]
    fn more_chunks_reduce_the_chunked_sort_time() {
        let s = sorter();
        let input_bytes = 6_000_000_000u64;
        let gpu_sort = SimTime::from_millis(330.0);
        let mut last = f64::INFINITY;
        for chunks in [2usize, 4, 8, 16] {
            let b = s.simulate_end_to_end(input_bytes, chunks, gpu_sort, SimTime::ZERO);
            assert!(b.chunked_sort.secs() <= last + 1e-9, "chunks = {chunks}");
            last = b.chunked_sort.secs();
        }
    }

    #[test]
    fn naive_report_total_is_the_sum_of_stages() {
        let s = sorter();
        let naive = s.naive("CUB", 1_000_000_000, SimTime::from_millis(100.0));
        assert!(
            (naive.total().secs() - naive.htod.secs() - naive.gpu_sort.secs() - naive.dtoh.secs())
                .abs()
                < 1e-12
        );
        assert_eq!(naive.name, "CUB");
    }

    #[test]
    fn telemetry_records_sorts_and_the_merge_span() {
        let hub = telemetry::Inspector::new();
        let s = sorter().with_telemetry(&hub);
        let mut keys = uniform_keys::<u64>(60_000, 7);
        s.sort(&mut keys, 3);
        let snap = hub.snapshot();
        let hetero = snap.node("hetero").unwrap();
        assert_eq!(hetero.uint("sorts"), Some(1));
        assert_eq!(hetero.uint("keys"), Some(60_000));
        assert_eq!(hetero.uint("chunks"), Some(3));
        assert_eq!(snap.node("hetero/merge_ns").unwrap().uint("count"), Some(1));
        assert!(snap.node("spans/hetero/merge").is_some());
        // The probed chunk sorter reports under core/.
        assert_eq!(snap.node("core").unwrap().uint("sorts"), Some(3));
    }

    #[test]
    fn report_summary_mentions_chunks() {
        let mut keys = uniform_keys::<u64>(30_000, 5);
        let report = sorter().sort(&mut keys, 3);
        assert!(report.summary().contains("s=3"));
    }
}
