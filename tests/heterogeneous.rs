//! Integration tests of the heterogeneous (out-of-core) sorting pipeline:
//! functional correctness, pipeline overlap and the in-place replacement
//! memory plan.  The functional sort is the sharded engine's out-of-core
//! path on a one-device pool; the paper-scale figures use the analytic
//! model.

use hybrid_radix_sort::gpu_sim::{DeviceMemoryPlanner, SimTime};
use hybrid_radix_sort::hetero::{
    parallel_merge_sorted_runs, split_into_chunks, HeterogeneousSorter, PipelineConfig,
    PipelineSchedule,
};
use hybrid_radix_sort::prelude::*;
use hybrid_radix_sort::workloads::{uniform_keys, Distribution, KeyCodec};

/// One Titan X on PCIe 3.0 streaming its input in exactly `s` chunks, with
/// the on-GPU configuration scaled to the small functional inputs so that
/// multiple counting passes and local sorts occur.
fn one_device_sorter(s: usize) -> ShardedSorter {
    let gpu = HybridRadixSorter::new(SortConfig::keys_64().scaled_for(30_000, 250_000_000));
    ShardedSorter::new(DevicePool::titan_cluster(1))
        .with_sorter(gpu)
        .with_merge_threads(4)
        .with_ooc_config(OocConfig::default().with_chunks_per_device(s))
}

fn skewed_keys() -> Vec<u64> {
    Distribution::paper_zipf(50_000).generate(150_000, 1)
}

#[test]
fn heterogeneous_sort_is_correct_for_skewed_inputs() {
    let keys = skewed_keys();
    let expected = KeyCodec::std_sorted(&keys);
    for s in [2usize, 4, 7] {
        let mut k = keys.clone();
        let report = one_device_sorter(s).sort_out_of_core(&mut k);
        assert_eq!(k, expected, "s = {s}");
        assert_eq!(report.ooc_chunks.len(), s);
        // The pipelined chunked sort is never slower than the sum of all
        // stages executed sequentially.
        let shard = &report.shards[0];
        let sequential = shard.upload + shard.gpu_sort + shard.download;
        assert!(report.critical_path.secs() <= sequential.secs() + 1e-9);
    }
}

#[test]
fn one_device_out_of_core_sort_is_the_section_5_pipeline() {
    // Fed the engine's own chunk lengths and sort times, the Section 5
    // schedule reproduces the engine's critical path and stage totals.
    let keys = skewed_keys();
    for s in [1usize, 2, 4, 7] {
        let mut k = keys.clone();
        let report = one_device_sorter(s).sort_out_of_core(&mut k);
        let chunk_bytes: Vec<u64> = report.ooc_chunks.iter().map(|c| c.len * 8).collect();
        let sort_times: Vec<SimTime> = report.ooc_chunks.iter().map(|c| c.sort).collect();
        let model = PipelineSchedule::build(
            &PipelineConfig::default(),
            &chunk_bytes,
            &sort_times,
            SimTime::ZERO,
        )
        .breakdown;
        let close = |a: SimTime, b: SimTime| (a.secs() - b.secs()).abs() < 1e-9;
        assert!(
            close(report.critical_path, model.chunked_sort),
            "s = {s}: engine {} vs model {}",
            report.critical_path,
            model.chunked_sort
        );
        let shard = &report.shards[0];
        assert!(close(shard.upload, model.total_htod), "s = {s}");
        assert!(close(shard.gpu_sort, model.total_gpu_sort), "s = {s}");
        assert!(close(shard.download, model.total_dtoh), "s = {s}");
    }
}

#[test]
fn pipeline_overlap_shrinks_with_more_chunks_and_stays_above_the_transfer_bound() {
    let s = HeterogeneousSorter::with_defaults();
    let input_bytes = 6_000_000_000u64;
    let gpu_time = SimTime::from_millis(330.0);
    let mut last = f64::INFINITY;
    for chunks in [1usize, 2, 4, 8, 16] {
        let b = s.simulate_end_to_end(input_bytes, chunks, gpu_time, SimTime::ZERO);
        assert!(b.chunked_sort.secs() <= last + 1e-9, "chunks = {chunks}");
        // Never faster than a single one-way transfer of the whole input.
        assert!(b.chunked_sort.secs() >= b.total_htod.secs() * 0.999);
        last = b.chunked_sort.secs();
    }
}

#[test]
fn figure_8_shape_chunked_sort_beats_naive_cub_upload_sort_download() {
    let s = HeterogeneousSorter::with_defaults();
    let input_bytes = 6_000_000_000u64;
    let hrs_gpu = SimTime::from_millis(330.0);
    let cub_gpu = SimTime::from_millis(636.0);
    let naive_cub = s.naive("CUB", input_bytes, cub_gpu);
    let naive_hrs = s.naive("HRS", input_bytes, hrs_gpu);
    let pipelined = s.simulate_end_to_end(input_bytes, 16, hrs_gpu, SimTime::ZERO);
    // Figure 8: the chunked sort (even before merging) beats both naive
    // approaches, and naive HRS beats naive CUB.
    assert!(pipelined.chunked_sort < naive_hrs.total());
    assert!(naive_hrs.total() < naive_cub.total());
    // The chunked sort should be within ~35 % of the single HtD transfer.
    assert!(pipelined.chunked_sort.secs() < naive_hrs.htod.secs() * 1.35);
}

#[test]
fn in_place_replacement_allows_larger_chunks_than_four_slots() {
    let planner = DeviceMemoryPlanner::new(12 * 1024 * 1024 * 1024);
    let three = planner.max_chunk_bytes(3, 0.05);
    let four = planner.max_chunk_bytes(4, 0.05);
    assert!(three > four);
    // Three-slot chunks of ~4 GB allow 64 GB in 16 chunks; the four-slot
    // plan needs more chunks (more merge runs for the CPU).
    assert!(three >= 4_000_000_000);
    assert!(four < 3_300_000_000);
}

#[test]
fn chunk_plan_and_parallel_merge_compose() {
    let keys = uniform_keys::<u64>(90_001, 5);
    let plan = split_into_chunks(keys.len(), 5);
    assert_eq!(plan.total_len(), keys.len());
    let mut runs: Vec<Vec<u64>> = plan
        .ranges
        .iter()
        .map(|&(s, e)| {
            let mut c = keys[s..e].to_vec();
            c.sort_unstable();
            c
        })
        .collect();
    runs.retain(|r| !r.is_empty());
    let refs: Vec<&[u64]> = runs.iter().map(|r| r.as_slice()).collect();
    let merged = parallel_merge_sorted_runs(&refs, 3);
    assert_eq!(merged, KeyCodec::std_sorted(&keys));
}

#[test]
fn pipeline_schedule_respects_resource_exclusivity() {
    let cfg = PipelineConfig::default();
    let chunk_bytes = vec![500_000_000u64; 6];
    let sort_times = vec![SimTime::from_millis(40.0); 6];
    let sched = PipelineSchedule::build(&cfg, &chunk_bytes, &sort_times, SimTime::ZERO);
    // Events on the same resource never overlap.
    let events = sched.timeline.events();
    for a in events {
        for b in events {
            if a != b && a.resource == b.resource {
                assert!(
                    a.end.secs() <= b.start.secs() + 1e-12
                        || b.end.secs() <= a.start.secs() + 1e-12,
                    "overlap: {a:?} vs {b:?}"
                );
            }
        }
    }
    // Sorts start only after their upload finished.
    for i in 0..6 {
        let up = events
            .iter()
            .find(|e| e.label == format!("HtD chunk {i}"))
            .unwrap();
        let sort = events
            .iter()
            .find(|e| e.label == format!("sort chunk {i}"))
            .unwrap();
        let down = events
            .iter()
            .find(|e| e.label == format!("DtH chunk {i}"))
            .unwrap();
        assert!(sort.start >= up.end);
        assert!(down.start >= sort.end);
    }
}
