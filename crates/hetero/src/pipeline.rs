//! The simulated full-duplex PCIe / GPU pipeline (Section 5, Figures 4–5).
//!
//! Three resources execute concurrently: the host-to-device PCIe stream, the
//! GPU, and the device-to-host PCIe stream.  Chunk `i` is transferred to the
//! device, sorted, and its sorted run returned; the transfer of chunk `i+1`
//! overlaps with the sorting of chunk `i`, and the return of chunk `i-1`
//! overlaps with both (full duplex).  With the in-place replacement strategy
//! only three chunk-sized device-memory slots exist, so the upload of chunk
//! `i` reuses the slot of chunk `i-2` and may start only once that chunk's
//! run has *begun* draining back to the host (the replacement proceeds
//! concurrently with the return, Figure 5); without the strategy (four
//! slots) the dependency moves one chunk further back.

use gpu_sim::{LinkSpec, ResourceId, SimTime, Timeline, TransferDirection};
use serde::{Deserialize, Serialize};

/// Configuration of the pipeline simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    /// The host↔device link (PCIe 3.0 ×16 in the paper's system).
    pub link: LinkSpec,
    /// Whether the in-place replacement strategy (three chunk slots) is
    /// used; otherwise four slots are assumed.
    pub in_place_replacement: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            link: LinkSpec::pcie_gen3_x16(),
            in_place_replacement: true,
        }
    }
}

/// Durations of the pipeline stages of one heterogeneous sort.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineBreakdown {
    /// Time to transfer the whole input to the device once.
    pub total_htod: SimTime,
    /// Sum of the per-chunk GPU sorting times.
    pub total_gpu_sort: SimTime,
    /// Time to return all sorted runs to the host once.
    pub total_dtoh: SimTime,
    /// Makespan of the chunked sort (upload + sort + return, overlapped).
    pub chunked_sort: SimTime,
    /// CPU multiway-merge time (supplied by the caller; zero when the input
    /// fits in a single chunk).
    pub cpu_merge: SimTime,
    /// End-to-end duration (chunked sort + merge).
    pub end_to_end: SimTime,
}

/// The three timeline resources one device's chunk pipeline runs on: its
/// host-to-device stream, the device itself, and its device-to-host stream.
#[derive(Debug, Clone, Copy)]
pub struct PipelineResources {
    /// The host-to-device transfer stream.
    pub htod: ResourceId,
    /// The device's execution engine.
    pub gpu: ResourceId,
    /// The device-to-host transfer stream.
    pub dtoh: ResourceId,
}

impl PipelineResources {
    /// Registers the three per-device resources on `timeline`, naming them
    /// `"{prefix}HtD"`, `"{prefix}GPU"` and `"{prefix}DtH"`.
    pub fn register(timeline: &mut Timeline, prefix: &str) -> Self {
        PipelineResources {
            htod: timeline.add_resource(format!("{prefix}HtD")),
            gpu: timeline.add_resource(format!("{prefix}GPU")),
            dtoh: timeline.add_resource(format!("{prefix}DtH")),
        }
    }
}

/// The resolved pipeline schedule.
#[derive(Debug, Clone)]
pub struct PipelineSchedule {
    /// The event timeline (HtD, GPU, DtH events per chunk).
    pub timeline: Timeline,
    /// Aggregated stage durations.
    pub breakdown: PipelineBreakdown,
}

impl PipelineSchedule {
    /// Builds the schedule for chunks of `chunk_bytes` bytes whose per-chunk
    /// GPU sorting times are `sort_times`.  `cpu_merge` is the time the CPU
    /// needs to merge the returned runs (zero for a single chunk).
    pub fn build(
        config: &PipelineConfig,
        chunk_bytes: &[u64],
        sort_times: &[SimTime],
        cpu_merge: SimTime,
    ) -> PipelineSchedule {
        assert_eq!(chunk_bytes.len(), sort_times.len());
        let mut timeline = Timeline::new();
        let htod = timeline.add_resource("PCIe HtD");
        let gpu = timeline.add_resource("GPU");
        let dtoh = timeline.add_resource("PCIe DtH");
        let link = &config.link;
        let slot_dependency_distance = if config.in_place_replacement { 2 } else { 3 };
        let mut dtoh_start: Vec<SimTime> = Vec::with_capacity(chunk_bytes.len());
        let mut total_htod = SimTime::ZERO;
        let mut total_dtoh = SimTime::ZERO;
        let mut total_sort = SimTime::ZERO;

        for (i, (&bytes, &sort_time)) in chunk_bytes.iter().zip(sort_times).enumerate() {
            let up_time = link.transfer_time(TransferDirection::HostToDevice, bytes);
            let down_time = link.transfer_time(TransferDirection::DeviceToHost, bytes);
            total_htod += up_time;
            total_dtoh += down_time;
            total_sort += sort_time;

            // The upload may have to wait for its chunk slot: the slot is
            // reusable as soon as the previous occupant's return transfer
            // has started draining it (in-place replacement).
            let slot_free = if i >= slot_dependency_distance {
                dtoh_start[i - slot_dependency_distance]
            } else {
                SimTime::ZERO
            };
            let up = timeline.schedule(format!("HtD chunk {i}"), htod, slot_free, up_time);
            let sort = timeline.schedule(format!("sort chunk {i}"), gpu, up.end, sort_time);
            let down = timeline.schedule(format!("DtH chunk {i}"), dtoh, sort.end, down_time);
            dtoh_start.push(down.start);
        }

        let chunked_sort = timeline.makespan();
        PipelineSchedule {
            timeline,
            breakdown: PipelineBreakdown {
                total_htod,
                total_gpu_sort: total_sort,
                total_dtoh,
                chunked_sort,
                cpu_merge,
                end_to_end: chunked_sort + cpu_merge,
            },
        }
    }

    /// The paper's closed-form approximation of the chunked-sort time:
    /// `T_HtD/s + max(T_HtD, T_S, T_DtH) + T_DtH/s`.
    pub fn closed_form(breakdown: &PipelineBreakdown, s: u32) -> SimTime {
        let s = s.max(1) as f64;
        breakdown.total_htod / s
            + breakdown
                .total_htod
                .max(breakdown.total_gpu_sort)
                .max(breakdown.total_dtoh)
            + breakdown.total_dtoh / s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_chunks(total_bytes: u64, s: usize, sort_each_ms: f64) -> (Vec<u64>, Vec<SimTime>) {
        let per = total_bytes / s as u64;
        (vec![per; s], vec![SimTime::from_millis(sort_each_ms); s])
    }

    #[test]
    fn single_chunk_is_strictly_sequential() {
        let cfg = PipelineConfig::default();
        let (bytes, sorts) = uniform_chunks(6_000_000_000, 1, 300.0);
        let sched = PipelineSchedule::build(&cfg, &bytes, &sorts, SimTime::ZERO);
        let b = &sched.breakdown;
        // No overlap possible: makespan = HtD + sort + DtH.
        let expected = b.total_htod + b.total_gpu_sort + b.total_dtoh;
        assert!((b.chunked_sort.secs() - expected.secs()).abs() < 1e-9);
    }

    #[test]
    fn more_chunks_approach_the_transfer_bound() {
        // Figure 8: with 16 chunks the chunked sort takes only ~16 % longer
        // than a single full HtD transfer.
        let cfg = PipelineConfig::default();
        let total_bytes = 6_000_000_000u64;
        let mut last = f64::INFINITY;
        for s in [2usize, 4, 8, 16] {
            let (bytes, sorts) = uniform_chunks(total_bytes, s, 330.0 / s as f64);
            let sched = PipelineSchedule::build(&cfg, &bytes, &sorts, SimTime::ZERO);
            let t = sched.breakdown.chunked_sort.secs();
            assert!(t <= last + 1e-9, "s={s}: {t} > {last}");
            last = t;
        }
        let (bytes, sorts) = uniform_chunks(total_bytes, 16, 330.0 / 16.0);
        let sched = PipelineSchedule::build(&cfg, &bytes, &sorts, SimTime::ZERO);
        let single_htod = sched.breakdown.total_htod.secs();
        let ratio = sched.breakdown.chunked_sort.secs() / single_htod;
        assert!(ratio < 1.35, "ratio = {ratio}");
    }

    #[test]
    fn closed_form_tracks_the_schedule() {
        let cfg = PipelineConfig::default();
        let (bytes, sorts) = uniform_chunks(8_000_000_000, 8, 60.0);
        let sched = PipelineSchedule::build(&cfg, &bytes, &sorts, SimTime::ZERO);
        let closed = PipelineSchedule::closed_form(&sched.breakdown, 8);
        let simulated = sched.breakdown.chunked_sort;
        let rel = (closed.secs() - simulated.secs()).abs() / simulated.secs();
        assert!(rel < 0.25, "closed {closed} vs simulated {simulated}");
    }

    #[test]
    fn in_place_replacement_never_slower_than_four_slots_for_equal_chunks() {
        // With equally sized chunks the slot constraint is rarely binding;
        // the in-place strategy's benefit is the *larger* chunks it allows
        // (fewer merge runs), not a faster pipeline for the same chunks.
        let total_bytes = 12_000_000_000u64;
        let (bytes, sorts) = uniform_chunks(total_bytes, 6, 150.0);
        let three = PipelineSchedule::build(
            &PipelineConfig {
                in_place_replacement: true,
                ..Default::default()
            },
            &bytes,
            &sorts,
            SimTime::ZERO,
        );
        let four = PipelineSchedule::build(
            &PipelineConfig {
                in_place_replacement: false,
                ..Default::default()
            },
            &bytes,
            &sorts,
            SimTime::ZERO,
        );
        // The stricter dependency can only delay things.
        assert!(three.breakdown.chunked_sort >= four.breakdown.chunked_sort);
        // But the delay is bounded by the slack in the pipeline.
        assert!(three.breakdown.chunked_sort.secs() <= four.breakdown.chunked_sort.secs() * 1.5);
    }

    #[test]
    fn merge_time_is_added_to_the_end_to_end_duration() {
        let cfg = PipelineConfig::default();
        let (bytes, sorts) = uniform_chunks(4_000_000_000, 4, 80.0);
        let sched = PipelineSchedule::build(&cfg, &bytes, &sorts, SimTime::from_secs(1.5));
        assert!(
            (sched.breakdown.end_to_end.secs() - sched.breakdown.chunked_sort.secs() - 1.5).abs()
                < 1e-9
        );
    }

    #[test]
    fn timeline_contains_three_events_per_chunk() {
        let cfg = PipelineConfig::default();
        let (bytes, sorts) = uniform_chunks(1_000_000_000, 5, 10.0);
        let sched = PipelineSchedule::build(&cfg, &bytes, &sorts, SimTime::ZERO);
        assert_eq!(sched.timeline.events().len(), 15);
        let rendered = sched.timeline.render();
        assert!(rendered.contains("sort chunk 4"));
        assert!(rendered.contains("DtH chunk 0"));
    }
}
