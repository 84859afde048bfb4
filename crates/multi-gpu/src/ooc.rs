//! Out-of-core sharded sorting: every device streams its shard through the
//! Section 5 chunked PCIe pipeline.
//!
//! An in-core sort ([`ShardedSorter::sort`]) needs every device's shard to
//! fit its memory budget, so the largest sortable input is bounded by the
//! sum of device memories.  Out of core, the round-based driver lifts that
//! bound by changing only the unit of work:
//!
//! 1. **Partition** exactly as in core: splitters from MSD digit
//!    histograms, shards proportional to device capacity.
//! 2. **Chunk** each shard by key range, in the same partition pass.  A
//!    device streams `s_g` chunks: [`OocConfig::chunks_per_device`], or as
//!    many as its expected share needs against its *own* memory
//!    ([`gpu_sim::DeviceMemoryPlanner::chunk_budget_bytes`]: three in-place
//!    replacement slots, Figure 5).  The partition cuts `Σ s_g` key ranges,
//!    `s_g` per device with a weight of `w_g / s_g` each.  Under default
//!    chunking a range over the chunk budget (sampling error, or one key
//!    heavier than a chunk) streams as budget-sized pieces by position.
//!    Every chunk or piece is one unit of work.
//! 3. **Stream**: the driver schedules each device's chunks, with the
//!    in-place-replacement slot dependency of [`hetero::PipelineSchedule`],
//!    on the device's own three resources of the shared
//!    [`gpu_sim::Timeline`] — uploads, sorts and downloads overlap within a
//!    device, and devices overlap with each other completely.
//!    Chunk sorts are real; CPU sockets contribute measured wall-clock,
//!    GPUs their modelled time.
//! 4. **Recombine**: key-range chunks do not overlap, so the sorted chunks
//!    lie in order in the round buffer, which becomes the output as in
//!    core: round 0 runs no host merge and has no merge tail.  Only the
//!    pieces of an over-budget range merge with each other, and after a
//!    requeue round every run takes the p-way merge, whose tail past the
//!    chunk stream adds to the end-to-end time.
//!
//! The paper's example becomes pool-wide: four 12 GB GPUs and 4 GB chunks
//! sort 256 GB without a merging pass.  [`hetero::HeterogeneousSorter`]
//! keeps the paper's positional chunks and final merge for Figures 8–9.

use crate::device_pool::{DevicePool, SimDevice};
use crate::engine::ShardedSorter;
use crate::recovery::SortError;
use crate::report::{OocChunkSpan, ShardedReport};
use crate::telemetry_paths as tp;
use gpu_sim::{DeviceMemoryPlanner, SimTime, Timeline};
use hetero::chunking::{split_into_chunks, ChunkPlan};
use workloads::keys::SortKey;
use workloads::pairs::SortValue;

/// Configuration of the out-of-core execution path.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OocConfig {
    /// Overrides the per-device chunk count (the Figure 8 sweep knob).
    /// `None` sizes chunks against each device's memory budget.
    pub chunks_per_device: Option<usize>,
}

impl OocConfig {
    /// Forces every device to stream its shard in exactly `chunks` chunks
    /// (the chunk-count sweep of Figure 8).
    pub fn with_chunks_per_device(mut self, chunks: usize) -> Self {
        self.chunks_per_device = Some(chunks.max(1));
        self
    }
}

/// How each device's shard is split into positional pipeline chunks, as
/// Section 5 streams them (the engine cuts key ranges instead).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OocPlan {
    /// One element-range chunk plan per device, in pool order.  Ranges are
    /// relative to the device's own shard buffer.
    pub device_chunks: Vec<ChunkPlan>,
}

impl OocPlan {
    /// Plans the chunking of per-device shards of `shard_lens` elements
    /// (each element `elem_bytes` bytes) over `pool`.  Every device's chunk
    /// count comes from its own memory budget
    /// ([`DeviceMemoryPlanner::chunk_budget_bytes`], three in-place
    /// replacement slots) unless `cfg.chunks_per_device` overrides it.
    pub fn for_shards(
        pool: &DevicePool,
        shard_lens: &[usize],
        elem_bytes: u64,
        cfg: &OocConfig,
    ) -> OocPlan {
        assert_eq!(shard_lens.len(), pool.len(), "one shard per device");
        let device_chunks = pool
            .devices()
            .iter()
            .zip(shard_lens)
            .map(|(device, &len)| {
                split_into_chunks(
                    len,
                    device_chunk_count(device, len as u64 * elem_bytes, cfg),
                )
            })
            .collect();
        OocPlan { device_chunks }
    }

    /// Total number of chunks across all devices.
    pub fn total_chunks(&self) -> usize {
        self.device_chunks.iter().map(ChunkPlan::num_chunks).sum()
    }
}

/// The bytes one chunk of `device` may take: one of the three in-place
/// replacement slots of its memory.
pub(crate) fn chunk_budget_bytes(device: &SimDevice) -> u64 {
    DeviceMemoryPlanner::for_device(&device.spec)
        .chunk_budget_bytes(true)
        .max(1)
}

/// How many chunks `device` streams a share of `bytes` in: the configured
/// count, or else as many as its chunk budget needs.
pub(crate) fn device_chunk_count(device: &SimDevice, bytes: u64, cfg: &OocConfig) -> usize {
    cfg.chunks_per_device
        .unwrap_or_else(|| bytes.div_ceil(chunk_budget_bytes(device)) as usize)
        .max(1)
}

/// Overlaps the measured host tail merge (`merge_total` over `n`
/// elements) with the chunk stream: the merge time is distributed over
/// the chunks proportional to their length and scheduled on one
/// `host merge` resource, each consume event gated on its chunk's
/// pipeline finish.  Returns the fraction of the merge hidden under the
/// stream — 1.0 when only the last chunk's consume sticks out, 0.0 when
/// the whole merge ran after the pipelines drained — or `None` when there
/// was nothing to overlap.
pub(crate) fn overlap_tail_merge(
    tl: &mut Timeline,
    chunks: &[OocChunkSpan],
    n: usize,
    merge_total: SimTime,
) -> Option<f64> {
    if chunks.is_empty() || n == 0 || merge_total <= SimTime::ZERO {
        return None;
    }
    let stream_end = tl.makespan();
    let host = tl.add_resource("host merge");
    let mut order: Vec<&OocChunkSpan> = chunks.iter().collect();
    order.sort_by(|a, b| a.finish.secs().total_cmp(&b.finish.secs()));
    for (c, chunk) in order.into_iter().enumerate() {
        tl.schedule_after(
            format!("host merge c{c}"),
            host,
            &[chunk.finish],
            merge_total * (chunk.len as f64 / n as f64),
        );
    }
    let hidden = (stream_end + merge_total - tl.makespan()).secs() / merge_total.secs();
    Some(hidden.clamp(0.0, 1.0))
}

impl ShardedSorter {
    /// Sorts `keys` across the pool through the out-of-core chunked
    /// pipeline, so the input may exceed every device's memory budget (and
    /// the sum of device memories).  Functionally identical to
    /// [`Self::sort`]; the schedule models each device streaming its shard
    /// chunk by chunk over its own link.
    pub fn sort_out_of_core<K: SortKey>(&self, keys: &mut Vec<K>) -> ShardedReport {
        self.try_sort_out_of_core(keys)
            .expect("out-of-core sort failed; use try_sort_out_of_core to handle device loss")
    }

    /// Out-of-core pair sort: like [`Self::sort_out_of_core`], permuting
    /// `values` along with the keys.
    pub fn sort_out_of_core_pairs<K: SortKey, V: SortValue>(
        &self,
        keys: &mut Vec<K>,
        values: &mut Vec<V>,
    ) -> ShardedReport {
        self.try_sort_out_of_core_pairs(keys, values).expect(
            "out-of-core pair sort failed; use try_sort_out_of_core_pairs to handle device loss",
        )
    }

    /// Fallible counterpart of [`Self::sort_out_of_core`].
    pub fn try_sort_out_of_core<K: SortKey>(
        &self,
        keys: &mut Vec<K>,
    ) -> Result<ShardedReport, SortError> {
        self.run(keys, &mut Vec::<()>::new(), true)
    }

    /// Fallible counterpart of [`Self::sort_out_of_core_pairs`].
    pub fn try_sort_out_of_core_pairs<K: SortKey, V: SortValue>(
        &self,
        keys: &mut Vec<K>,
        values: &mut Vec<V>,
    ) -> Result<ShardedReport, SortError> {
        assert_eq!(
            keys.len(),
            values.len(),
            "keys and values must have the same length"
        );
        self.run(keys, values, true)
    }

    /// Records the out-of-core metrics of one completed streamed sort:
    /// sort/chunk counters, the chunk-pipeline occupancy — the fraction
    /// of the devices' three pipeline stages (HtD, GPU, DtH) kept busy over
    /// the schedule's makespan — and, when a host merge ran, how much of it
    /// hid under the chunk stream.
    pub(crate) fn note_ooc(&self, report: &ShardedReport, merge_overlap: Option<f64>) {
        let t = &self.inspector;
        t.counter(tp::OOC_SORTS).inc();
        t.counter(tp::OOC_CHUNKS)
            .add(report.ooc_chunks.len() as u64);
        if let Some(hidden) = merge_overlap {
            t.float_gauge(tp::OOC_MERGE_OVERLAP_RATIO).set(hidden);
        }
        let makespan = report.critical_path.secs();
        if makespan > 0.0 && !report.shards.is_empty() {
            let busy: f64 = report
                .shards
                .iter()
                .map(|s| (s.upload + s.gpu_sort + s.download).secs())
                .sum();
            let capacity = 3.0 * report.shards.len() as f64 * makespan;
            t.float_gauge(tp::OOC_PIPELINE_OCCUPANCY)
                .set(busy / capacity);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceSpec;
    use hrs_core::{HybridRadixSorter, SortConfig};
    use workloads::{uniform_keys, KeyCodec, ZipfGenerator};

    /// A pool of `p` Titan-X-like devices whose memory is shrunk to
    /// `memory` bytes, so small test inputs overflow the in-core budget.
    fn tiny_memory_pool(p: usize, memory: u64) -> DevicePool {
        let mut spec = DeviceSpec::titan_x_pascal();
        spec.device_memory_bytes = memory;
        DevicePool::homogeneous(p, SimDevice::on_pcie3(spec))
    }

    fn test_sorter(pool: DevicePool) -> ShardedSorter {
        let gpu = HybridRadixSorter::new(SortConfig::keys_64().scaled_for(40_000, 250_000_000));
        ShardedSorter::new(pool)
            .with_sorter(gpu)
            .with_merge_threads(4)
    }

    #[test]
    fn out_of_core_sorts_beyond_the_pool_budget() {
        // 2 devices × 1 MiB: the in-core budget is ~1 MiB of payload, the
        // input is 1.6 MB of u64 keys — strictly over budget.
        let pool = tiny_memory_pool(2, 1 << 20);
        let budget = pool.batch_budget_bytes();
        let n = 200_000usize;
        assert!(
            n as u64 * 8 > budget,
            "input must exceed the in-core budget"
        );
        let keys = uniform_keys::<u64>(n, 3);
        let expected = KeyCodec::std_sorted(&keys);
        let mut k = keys;
        let report = test_sorter(pool).sort_out_of_core(&mut k);
        assert_eq!(k, expected);
        assert!(report.is_out_of_core());
        assert_eq!(report.n, n as u64);
        // Chunking actually happened: more chunks than devices.
        assert!(
            report.ooc_chunks.len() > 2,
            "{} chunks",
            report.ooc_chunks.len()
        );
        assert!(report.critical_path.secs() > 0.0);
        // Chunk spans tile every shard.
        for (i, shard) in report.shards.iter().enumerate() {
            let covered: u64 = report
                .ooc_chunks
                .iter()
                .filter(|c| c.device == i)
                .map(|c| c.len)
                .sum();
            assert_eq!(covered, shard.n, "device {i}");
            assert_eq!(report.chunks_on_device(i), {
                let mut chunks: Vec<_> =
                    report.ooc_chunks.iter().filter(|c| c.device == i).collect();
                chunks.sort_by_key(|c| c.chunk);
                let mut offset = 0u64;
                for c in &chunks {
                    assert_eq!(c.offset, offset, "chunks must tile the shard in order");
                    offset += c.len;
                }
                chunks.len()
            });
            // Every chunk finished no later than the critical path.
            assert!(shard.finish <= report.critical_path);
        }
    }

    #[test]
    fn out_of_core_matches_in_core_output() {
        let keys = uniform_keys::<u64>(120_000, 11);
        let expected = KeyCodec::std_sorted(&keys);
        let mut in_core = keys.clone();
        let mut ooc = keys;
        let big = test_sorter(DevicePool::titan_cluster(2));
        let small = test_sorter(tiny_memory_pool(2, 1 << 20));
        big.sort(&mut in_core);
        let report = small.sort_out_of_core(&mut ooc);
        assert_eq!(in_core, expected);
        assert_eq!(ooc, expected);
        assert!(report.is_out_of_core());
    }

    #[test]
    fn ooc_pairs_travel_with_their_keys() {
        let n = 150_000usize;
        let keys = uniform_keys::<u32>(n, 7);
        let mut sorted = keys.clone();
        let mut vals: Vec<u32> = (0..n as u32).collect();
        let gpu = HybridRadixSorter::new(SortConfig::pairs_32_32().scaled_for(50_000, 500_000_000));
        let pool = tiny_memory_pool(2, 1 << 20);
        assert!(n as u64 * 12 > pool.batch_budget_bytes());
        let sorter = ShardedSorter::new(pool).with_sorter(gpu);
        let report = sorter.sort_out_of_core_pairs(&mut sorted, &mut vals);
        assert!(workloads::pairs::verify_indexed_pair_sort(
            &keys, &sorted, &vals
        ));
        assert!(report.is_out_of_core());
        assert_eq!(report.value_bytes, 4);
    }

    #[test]
    fn zipf_keys_sort_out_of_core() {
        let keys: Vec<u64> = ZipfGenerator::paper_keys(100_000, 5);
        let expected = KeyCodec::std_sorted(&keys);
        let mut k = keys;
        let report = test_sorter(tiny_memory_pool(3, 1 << 20)).sort_out_of_core(&mut k);
        assert_eq!(k, expected);
        assert_eq!(report.combined.n, 100_000);
        assert_eq!(report.shards.len(), 3);
    }

    #[test]
    fn chunk_count_override_drives_the_figure_8_sweep() {
        let keys = uniform_keys::<u64>(60_000, 9);
        let expected = KeyCodec::std_sorted(&keys);
        let mut last_chunks = 0usize;
        for s in [2usize, 4, 8] {
            let sorter = test_sorter(DevicePool::titan_cluster(2))
                .with_ooc_config(OocConfig::default().with_chunks_per_device(s));
            let mut k = keys.clone();
            let report = sorter.sort_out_of_core(&mut k);
            assert_eq!(k, expected, "s = {s}");
            assert_eq!(report.ooc_chunks.len(), 2 * s);
            assert_eq!(report.chunks_on_device(0), s);
            assert!(report.ooc_chunks.len() > last_chunks);
            last_chunks = report.ooc_chunks.len();
        }
    }

    #[test]
    fn chunked_pipelines_overlap_transfers_with_sorting() {
        // With two or more chunks per device, a device's uploads, sorts
        // and downloads overlap, so its finish time is strictly below the
        // non-pipelined sum of its stage totals.  (Figure 8's *decreasing*
        // end-to-end curve needs a fixed per-byte sort rate; at functional
        // test scale every extra chunk adds real per-sort overhead, so the
        // bench sweeps that claim at paper scale instead.)
        let keys = uniform_keys::<u64>(80_000, 21);
        for s in [2usize, 4, 8] {
            let sorter = test_sorter(DevicePool::titan_cluster(2))
                .with_ooc_config(OocConfig::default().with_chunks_per_device(s));
            let mut k = keys.clone();
            let report = sorter.sort_out_of_core(&mut k);
            for shard in &report.shards {
                let serial = shard.upload + shard.gpu_sort + shard.download;
                assert!(
                    shard.finish < serial,
                    "s={s}: no overlap ({} vs serial {serial})",
                    shard.finish
                );
            }
        }
    }

    #[test]
    fn plan_sizes_chunks_against_each_device() {
        let pool = tiny_memory_pool(2, 1 << 20);
        let cfg = OocConfig::default();
        let plan = OocPlan::for_shards(&pool, &[100_000, 100_000], 8, &cfg);
        assert!(plan.total_chunks() >= 4, "{} chunks", plan.total_chunks());
        // Every chunk fits one of the device's three in-place replacement
        // slots.
        for (chunks, device) in plan.device_chunks.iter().zip(pool.devices()) {
            let budget = DeviceMemoryPlanner::for_device(&device.spec).chunk_budget_bytes(true);
            assert!(chunks.max_chunk_len() as u64 * 8 <= budget);
        }
        // An in-budget shard needs exactly one chunk.
        let roomy = OocPlan::for_shards(&DevicePool::titan_cluster(2), &[1_000, 1_000], 8, &cfg);
        assert_eq!(roomy.total_chunks(), 2);
    }

    #[test]
    fn shards_keep_device_ranges_when_chunk_counts_differ() {
        // 1 MiB and 4 MiB devices of equal weight: under default chunking
        // the first streams its share in more, smaller chunks.
        let mut big = DeviceSpec::titan_x_pascal();
        big.device_memory_bytes = 4 << 20;
        let pool = tiny_memory_pool(1, 1 << 20).with_device(SimDevice::on_pcie3(big));
        let keys = uniform_keys::<u64>(200_000, 19);
        let mut k = keys.clone();
        let report = test_sorter(pool).sort_out_of_core(&mut k);
        assert_eq!(k, KeyCodec::std_sorted(&keys));
        assert!(report.chunks_on_device(0) > report.chunks_on_device(1));
        let mut start = 0;
        for shard in &report.shards {
            let end = start + shard.n as usize;
            let (lo, hi) = shard.range;
            assert!(k[start..end].iter().all(|&key| (lo..=hi).contains(&key)));
            start = end;
        }
        assert_eq!(
            report.splitters.ranges(),
            vec![report.shards[0].range, report.shards[1].range]
        );
    }

    #[test]
    fn empty_and_tiny_inputs_survive_the_ooc_path() {
        let sorter = test_sorter(tiny_memory_pool(2, 1 << 20));
        let mut empty: Vec<u64> = Vec::new();
        let report = sorter.sort_out_of_core(&mut empty);
        assert!(empty.is_empty());
        assert_eq!(report.n, 0);
        let mut tiny = vec![9u64, 1, 5];
        sorter.sort_out_of_core(&mut tiny);
        assert_eq!(tiny, vec![1, 5, 9]);
    }

    #[test]
    fn cpu_socket_chunks_carry_measured_time() {
        let pool = tiny_memory_pool(1, 1 << 20).add_cpu_socket(2);
        let gpu = HybridRadixSorter::new(SortConfig::keys_64().scaled_for(40_000, 250_000_000));
        let sorter = ShardedSorter::new(pool).with_sorter(gpu);
        let keys = uniform_keys::<u64>(150_000, 13);
        let expected = KeyCodec::std_sorted(&keys);
        let mut k = keys;
        let report = sorter.sort_out_of_core(&mut k);
        assert_eq!(k, expected);
        assert!(report.shards[1].measured_sort.is_some());
        assert!(report.shards[0].measured_sort.is_none());
    }

    #[test]
    fn ooc_telemetry_reports_chunks_and_occupancy() {
        let sorter = test_sorter(tiny_memory_pool(2, 1 << 20));
        let mut keys = uniform_keys::<u64>(200_000, 41);
        let report = sorter.sort_out_of_core(&mut keys);
        let snap = sorter.inspector().snapshot();
        let ooc = snap.node("multi_gpu/ooc").unwrap();
        assert_eq!(ooc.uint("sorts"), Some(1));
        assert_eq!(ooc.uint("chunks"), Some(report.ooc_chunks.len() as u64));
        let occupancy = ooc.double("pipeline_occupancy").unwrap();
        assert!(
            occupancy > 0.0 && occupancy <= 1.0,
            "occupancy {occupancy} out of range"
        );
        // OOC sorts flow through the same engine-level metrics and lanes.
        assert_eq!(snap.node("multi_gpu").unwrap().uint("sorts"), Some(1));
        assert_eq!(
            snap.node("multi_gpu/partition_ns").unwrap().uint("count"),
            Some(1)
        );
        assert!(snap.node("core/dev0").unwrap().uint("sorts").unwrap() > 0);
    }

    #[test]
    fn ooc_report_timeline_mentions_every_device() {
        let mut keys = uniform_keys::<u64>(160_000, 17);
        let report = test_sorter(tiny_memory_pool(2, 1 << 20)).sort_out_of_core(&mut keys);
        let rendered = report.timeline.render();
        for i in 0..2 {
            assert!(rendered.contains(&format!("dev{i}")));
        }
        assert!(rendered.contains("chunk"));
        assert!(report.end_to_end >= report.critical_path);
    }
}
