//! # hetero — pipelined heterogeneous sorting (Section 5 of the paper)
//!
//! Inputs that do not reside on the GPU, or that exceed the device memory,
//! must be streamed over the PCIe bus.  The heterogeneous sort splits the
//! input into `s` chunks and overlaps three stages — host-to-device
//! transfer, on-GPU sorting, and device-to-host transfer of the sorted runs
//! — exploiting the bus's full-duplex capability, while the CPU merges the
//! returned runs with a parallel multiway merge.  The end-to-end time is
//!
//! ```text
//! T_EtE = T_HtD / s + max(T_HtD, T_S, T_DtH) + T_DtH / s + T_M
//! ```
//!
//! An *in-place replacement* strategy reuses the device-memory slot of the
//! chunk currently being returned for the next incoming chunk, so only three
//! chunk-sized slots are needed instead of four, allowing chunks of up to a
//! third of the device memory (Figure 5).
//!
//! The crate provides:
//!
//! * [`chunking`] — splitting an input into balanced chunks,
//! * [`multiway_merge`] — a structure-of-arrays k-way merge kernel with a
//!   parallel range-splitting front end (the CPU-side merge of the paper),
//! * [`pipeline`] — the simulated full-duplex PCIe / GPU schedule,
//! * [`hetero_sort`] — the paper-scale end-to-end model behind Figures 8
//!   and 9 (naive upload, sort, download vs the chunked pipeline).
//!
//! The functional out-of-core sort is the sharded engine's
//! (`multi_gpu::ShardedSorter::sort_out_of_core`): it chunks each device's
//! shard with [`split_into_chunks`], schedules the chunks under the same
//! in-place replacement slot rule as [`PipelineSchedule`] and merges the
//! runs with [`merge_pairs_into`].  On one device its simulated chunked-sort time is
//! exactly [`PipelineSchedule::build`]'s.

#![warn(missing_docs)]

pub mod chunking;
pub mod hetero_sort;
pub mod multiway_merge;
pub mod pipeline;

pub use chunking::{split_into_chunks, ChunkPlan};
pub use hetero_sort::{HeterogeneousSorter, NaiveGpuReport};
pub use multiway_merge::{
    merge_pairs_into, parallel_merge_sorted_runs, parallel_merge_sorted_runs_by,
};
pub use pipeline::{PipelineBreakdown, PipelineConfig, PipelineResources, PipelineSchedule};
