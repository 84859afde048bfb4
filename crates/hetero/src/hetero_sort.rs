//! The Section 5 end-to-end model.
//!
//! [`HeterogeneousSorter`] answers the questions Figures 8 and 9 ask at
//! paper scale, where the functional path would need tens of gigabytes of
//! RAM: how long the naive upload, sort, download approach takes
//! ([`HeterogeneousSorter::naive`]), and how long the chunked pipeline plus
//! the CPU merge take for `s` chunks
//! ([`HeterogeneousSorter::simulate_end_to_end`]).  Sorting real data out
//! of core is the sharded engine's job (`multi_gpu`'s `sort_out_of_core`),
//! which streams every device's shard through the same
//! [`PipelineSchedule`] slot rule.

use crate::pipeline::{PipelineBreakdown, PipelineConfig, PipelineSchedule};
use gpu_sim::{SimTime, TransferDirection};

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

/// The heterogeneous sorter's end-to-end model.
#[derive(Debug, Clone)]
pub struct HeterogeneousSorter {
    /// Pipeline configuration (host link, in-place replacement).
    pub pipeline: PipelineConfig,
}

impl HeterogeneousSorter {
    /// The paper's defaults: PCIe 3.0 ×16 with in-place replacement.
    pub fn with_defaults() -> Self {
        HeterogeneousSorter {
            pipeline: PipelineConfig::default(),
        }
    }

    /// Simulated naive (non-pipelined) end-to-end time: one upload of
    /// `input_bytes`, one on-GPU sort of `gpu_sort_time`, one download.
    pub fn naive(&self, name: &str, input_bytes: u64, gpu_sort_time: SimTime) -> NaiveGpuReport {
        let link = &self.pipeline.link;
        NaiveGpuReport {
            name: name.to_string(),
            htod: link.transfer_time(TransferDirection::HostToDevice, input_bytes),
            gpu_sort: gpu_sort_time,
            dtoh: link.transfer_time(TransferDirection::DeviceToHost, input_bytes),
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

    #[test]
    fn chunked_sort_beats_the_naive_approach_at_scale() {
        // At paper scale (6 GB of 64+64 pairs) the pipelined chunked sort
        // should beat naive HtD + sort + DtH.
        let s = HeterogeneousSorter::with_defaults();
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
        let s = HeterogeneousSorter::with_defaults();
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
        let s = HeterogeneousSorter::with_defaults();
        let naive = s.naive("CUB", 1_000_000_000, SimTime::from_millis(100.0));
        assert!(
            (naive.total().secs() - naive.htod.secs() - naive.gpu_sort.secs() - naive.dtoh.secs())
                .abs()
                < 1e-12
        );
        assert_eq!(naive.name, "CUB");
    }
}
