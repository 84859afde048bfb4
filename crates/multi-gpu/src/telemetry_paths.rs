//! The canonical telemetry path constants of the multi-GPU layer.
//!
//! Every `multi_gpu/...` metric path is declared exactly once here and
//! imported by its registration sites (the engine, the out-of-core
//! planner, the recovery wrapper, and the sort service's counter mirror).  The `telemetry-path-registered-once`
//! lint of `hrs-lint` enforces the "exactly once" part: a path literal
//! that appears at two registration sites is a typo waiting to fork the
//! metric tree, so new paths must be added here and referenced by name.

/// Completed multi-GPU sorts.
pub const SORTS: &str = "multi_gpu/sorts";
/// Keys sorted across all multi-GPU sorts.
pub const KEYS: &str = "multi_gpu/keys";
/// Spare-buffer slots the engine's own scratch arena retains (the round
/// buffers and the splitter sample).
pub const ARENA_BUFFERS: &str = "multi_gpu/arena/buffers";
/// Bytes the engine's own scratch arena retains.
pub const ARENA_BUFFER_BYTES: &str = "multi_gpu/arena/buffer_bytes";

/// Completed out-of-core sorts.
pub const OOC_SORTS: &str = "multi_gpu/ooc/sorts";
/// Chunks processed by the out-of-core pipeline.
pub const OOC_CHUNKS: &str = "multi_gpu/ooc/chunks";
/// Fraction of out-of-core merge time overlapped with transfers.
pub const OOC_MERGE_OVERLAP_RATIO: &str = "multi_gpu/ooc/merge_overlap_ratio";
/// Occupancy of the out-of-core transfer/sort/merge pipeline.
pub const OOC_PIPELINE_OCCUPANCY: &str = "multi_gpu/ooc/pipeline_occupancy";
/// Out-of-core chunk retries after injected faults.
pub const OOC_RETRIES: &str = "multi_gpu/ooc/retries";

/// Devices declared failed by the recovery wrapper.
pub const FAULT_DEVICE_FAILURES: &str = "multi_gpu/faults/device_failures";
/// Shards whose contents failed verification.
pub const FAULT_SHARD_CORRUPTIONS: &str = "multi_gpu/faults/shard_corruptions";
/// Transfers that stalled and were retried.
pub const FAULT_TRANSFER_STALLS: &str = "multi_gpu/faults/transfer_stalls";
/// Elements requeued onto surviving devices after a failure.
pub const FAULT_REQUEUED_ELEMENTS: &str = "multi_gpu/faults/requeued_elements";
/// Wall-clock nanoseconds spent inside fault recovery.
pub const FAULT_RECOVERY_NS: &str = "multi_gpu/faults/recovery_ns";
/// Retries needed per recovered sort.
pub const FAULT_RETRIES_PER_SORT: &str = "multi_gpu/faults/retries_per_sort";
