//! Aggregated reporting for sharded multi-device sorts.

use crate::partition::SplitterSet;
use gpu_sim::{SimTime, Timeline};
use hrs_core::SortReport;
use std::collections::HashMap;

/// What one device did for its shard.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Device name (from its [`gpu_sim::DeviceSpec`]).
    pub device: String,
    /// Link class label (e.g. `"PCIe3x16"`).
    pub link: String,
    /// Keys in the shard.
    pub n: u64,
    /// Inclusive radix range the shard owns.
    pub range: (u64, u64),
    /// The shard's own hybrid-radix-sort report.
    pub report: SortReport,
    /// Simulated upload duration (sum over the shard's chunks).
    pub upload: SimTime,
    /// Simulated on-GPU sorting duration.
    pub gpu_sort: SimTime,
    /// Simulated download duration.
    pub download: SimTime,
    /// When the device's last download finished on the shared timeline.
    pub finish: SimTime,
    /// Measured wall-clock of the shard sort when the device is a real CPU
    /// socket ([`crate::DeviceBackend::CpuSocket`]); `None` for simulated
    /// GPUs, whose `gpu_sort` time comes from the analytical model.
    pub measured_sort: Option<std::time::Duration>,
}

/// One chunk of an out-of-core sharded sort: which device streamed it,
/// which slice of that device's shard it covered, and how it fared on the
/// shared pipeline timeline.
///
/// Produced by [`crate::ShardedSorter::sort_out_of_core`] /
/// [`crate::ShardedSorter::sort_out_of_core_pairs`] and their `try_`
/// forms.  A chunk span locates a slice of one device's shard; which
/// slice of a coalesced batch belongs to which request is the sort
/// service's bookkeeping (`sort_service::RequestSpan`), and its
/// over-budget lane hands these chunk spans to the requester inside the
/// shared [`ShardedReport`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OocChunkSpan {
    /// Index of the device (pool order) that sorted the chunk.
    pub device: usize,
    /// Index of the chunk within its device's shard, in stream order.
    pub chunk: usize,
    /// Offset of the chunk's first element within its device's shard.
    pub offset: u64,
    /// Number of elements in the chunk.
    pub len: u64,
    /// The chunk's device sorting time (simulated for GPUs, measured for
    /// CPU sockets).
    pub sort: SimTime,
    /// When the chunk's sorted run finished returning to the host on the
    /// shared timeline.
    pub finish: SimTime,
}

/// What kind of injected or detected fault an engine run survived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEventKind {
    /// A device died mid-sort and was marked dead in the pool; its
    /// remaining work was requeued onto the survivors.
    DeviceFailure,
    /// A device returned a shard/chunk that failed its boundary check; the
    /// data was discarded and requeued, the device stayed in the pool.
    ShardCorruption,
    /// A device's transfers ran degraded for one unit of work; nothing was
    /// requeued, but the schedule reflects the slower link.
    TransferStall,
}

impl FaultEventKind {
    /// Short label for logs and tables.
    pub fn label(&self) -> &'static str {
        match self {
            FaultEventKind::DeviceFailure => "device-failure",
            FaultEventKind::ShardCorruption => "shard-corruption",
            FaultEventKind::TransferStall => "transfer-stall",
        }
    }
}

/// One fault the engine hit during a sort, and how recovery handled it.
///
/// Recorded by the engine (see [`crate::ShardedSorter::try_sort`] and
/// friends) in [`ShardedReport::faults`]: each event names the device, the
/// retry round it happened in, how many elements had to be requeued onto
/// the surviving devices, and the simulated backoff the requeue waited out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Pool index of the faulting device.
    pub device: usize,
    /// What went wrong.
    pub kind: FaultEventKind,
    /// The retry round (0 = the initial attempt) the fault occurred in.
    pub round: u32,
    /// Elements this fault forced back onto the requeue.
    pub requeued: u64,
    /// Simulated backoff delay the requeued work waited before its retry
    /// round started (exponential in the round number).
    pub backoff: SimTime,
    /// Whether the sort ultimately completed despite this fault.  All
    /// events in a returned [`ShardedReport`] are recovered by definition;
    /// the flag exists so events can also be surfaced from failed runs via
    /// telemetry snapshots.
    pub recovered: bool,
}

/// Full report of one sharded multi-GPU sort.
#[derive(Debug, Clone)]
pub struct ShardedReport {
    /// Total elements sorted.
    pub n: u64,
    /// Key width in bytes.
    pub key_bytes: u32,
    /// Value width in bytes (0 for key-only sorts).
    pub value_bytes: u32,
    /// Per-device shard reports, in shard (key-range) order within each
    /// round.  A fault-free sort has one per device; requeue rounds add
    /// more.
    pub shards: Vec<ShardReport>,
    /// The splitters that defined the shards.
    pub splitters: SplitterSet,
    /// Critical path of the simulated device phase: the time at which the
    /// slowest device finished returning its sorted shard (uploads, sorts
    /// and downloads of all devices overlap on their own links).
    pub critical_path: SimTime,
    /// Measured wall-clock duration of the host-side partitioning
    /// (splitter selection + the partition pass into the round buffer).
    pub measured_partition: std::time::Duration,
    /// The splitter selection's share of `measured_partition` (summed
    /// over rounds like it): the sample, its histograms and the cut
    /// descents.  The rest is the partition pass.
    pub measured_splitters: std::time::Duration,
    /// Measured wall-clock duration of the final host step: the per-shard
    /// merges and the concatenation of a first-round sort, or the p-way
    /// merge of every run after a requeue round.
    pub measured_merge: std::time::Duration,
    /// End-to-end time: host partition, device critical path, host merge.
    pub end_to_end: SimTime,
    /// Fleet-wide statistics: every shard's report accumulated via
    /// [`SortReport::absorb`].  Its `simulated` breakdown is empty — shards
    /// run concurrently, so their times compose via `critical_path`.
    pub combined: SortReport,
    /// The simulated schedule of every transfer and sort.
    pub timeline: Timeline,
    /// Per-chunk bookkeeping when this sort ran out of core (see
    /// [`OocChunkSpan`]); empty for in-core sorts.
    pub ooc_chunks: Vec<OocChunkSpan>,
    /// Faults the engine hit and recovered from during this sort (see
    /// [`FaultEvent`]); empty for clean runs.
    pub faults: Vec<FaultEvent>,
}

impl ShardedReport {
    /// Whether this sort streamed its shards through the out-of-core
    /// chunked pipeline.
    pub fn is_out_of_core(&self) -> bool {
        !self.ooc_chunks.is_empty()
    }

    /// Number of pipeline chunks device `i` streamed (0 for in-core sorts).
    pub fn chunks_on_device(&self, device: usize) -> usize {
        self.ooc_chunks
            .iter()
            .filter(|c| c.device == device)
            .count()
    }

    /// Whether this sort hit (and recovered from) any fault.
    pub fn had_faults(&self) -> bool {
        !self.faults.is_empty()
    }

    /// Total elements all recovered faults forced back onto the requeue.
    pub fn requeued_elements(&self) -> u64 {
        self.faults.iter().map(|f| f.requeued).sum()
    }

    /// Total input size in bytes (keys + values).
    pub fn input_bytes(&self) -> u64 {
        self.n * (self.key_bytes as u64 + self.value_bytes as u64)
    }

    /// Ratio of the largest shard to the mean shard size (1.0 = perfectly
    /// balanced; meaningful for equal-capacity pools).
    pub fn shard_imbalance(&self) -> f64 {
        if self.n == 0 || self.shards.is_empty() {
            return 1.0;
        }
        let mean = self.n as f64 / self.shards.len() as f64;
        let max = self.shards.iter().map(|s| s.n).max().unwrap_or(0) as f64;
        max / mean
    }

    /// When the last *local sort* event finished on the shared timeline.
    /// Every engine mode labels its device sort events with the substring
    /// `"sort"` (and nothing else with it), so this is the moment all
    /// device compute on input data was done and only recombination work
    /// (downloads, host merge) remained.
    pub fn last_sort_finish(&self) -> SimTime {
        self.timeline
            .events()
            .iter()
            .filter(|e| e.label.contains("sort"))
            .map(|e| e.end)
            .fold(SimTime::ZERO, SimTime::max)
    }

    /// Checks the monotone span invariants every engine mode must uphold,
    /// regardless of how its phases overlap:
    ///
    /// * every timeline event ends no earlier than it starts;
    /// * events on one resource never overlap (a resource executes one
    ///   task at a time);
    /// * every shard finished within the critical path;
    /// * the critical path never exceeds the timeline makespan (it may be
    ///   *shorter* when host-merge consumption is overlapped onto the
    ///   tail of the schedule);
    /// * the end-to-end time covers at least the critical path.
    ///
    /// The historical accounting assumed the host merge strictly followed
    /// all DtH transfers; once recombination overlaps phases that
    /// assumption is gone, and this check is what regression-tests the
    /// ordering instead.
    pub fn span_invariants(&self) -> Result<(), String> {
        const EPS: f64 = 1e-9;
        for e in self.timeline.events() {
            if e.end.secs() + EPS < e.start.secs() {
                return Err(format!(
                    "event '{}' ends ({}) before it starts ({})",
                    e.label, e.end, e.start
                ));
            }
        }
        let mut by_resource: HashMap<_, Vec<_>> = HashMap::new();
        for e in self.timeline.events() {
            by_resource.entry(e.resource).or_default().push(e);
        }
        for (res, mut events) in by_resource {
            events.sort_by(|a, b| a.start.secs().total_cmp(&b.start.secs()));
            for w in events.windows(2) {
                if w[1].start.secs() + EPS < w[0].end.secs() {
                    return Err(format!(
                        "resource '{}' overlaps: '{}' ends {} but '{}' starts {}",
                        self.timeline.resource_name(res),
                        w[0].label,
                        w[0].end,
                        w[1].label,
                        w[1].start
                    ));
                }
            }
        }
        let makespan = self.timeline.makespan();
        if self.critical_path.secs() > makespan.secs() + EPS {
            return Err(format!(
                "critical path {} exceeds the timeline makespan {makespan}",
                self.critical_path
            ));
        }
        for (i, s) in self.shards.iter().enumerate() {
            if s.finish.secs() > self.critical_path.secs() + EPS {
                return Err(format!(
                    "shard {i} finish {} exceeds the critical path {}",
                    s.finish, self.critical_path
                ));
            }
        }
        if self.end_to_end.secs() + EPS < self.critical_path.secs() {
            return Err(format!(
                "end-to-end {} shorter than the critical path {}",
                self.end_to_end, self.critical_path
            ));
        }
        Ok(())
    }

    /// One-line summary for experiment logs.
    pub fn summary(&self) -> String {
        format!(
            "{} keys across {} shard sorts: critical path {}, partition {:?}, merge {:?}, end-to-end {}, imbalance {:.2}",
            self.n,
            self.shards.len(),
            self.critical_path,
            self.measured_partition,
            self.measured_merge,
            self.end_to_end,
            self.shard_imbalance(),
        )
    }

    /// A per-shard table for the experiment binaries.
    pub fn shard_table(&self) -> String {
        let mut out = String::from(
            "shard | device                      | link     |      keys |   upload |     sort | download |   finish\n",
        );
        for (i, s) in self.shards.iter().enumerate() {
            out.push_str(&format!(
                "{:>5} | {:<27} | {:<8} | {:>9} | {:>8} | {:>8} | {:>8} | {:>8}\n",
                i, s.device, s.link, s.n, s.upload, s.gpu_sort, s.download, s.finish,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A hand-built report whose timeline has one upload → sort → download
    /// chain plus a host-merge consumption event overlapping the DtH tail
    /// (the shape that broke the old "merge strictly follows every DtH"
    /// accounting).
    fn synthetic_report() -> ShardedReport {
        let mut tl = Timeline::new();
        let htod = tl.add_resource("dev0 HtD");
        let gpu = tl.add_resource("dev0 GPU");
        let dtoh = tl.add_resource("dev0 DtH");
        let host = tl.add_resource("host merge");
        let up0 = tl.schedule("HtD s0 c0", htod, SimTime::ZERO, SimTime::from_millis(2.0));
        let sort0 = tl.schedule_after("sort s0 c0", gpu, &[up0.end], SimTime::from_millis(5.0));
        let down0 = tl.schedule_after("DtH s0 c0", dtoh, &[sort0.end], SimTime::from_millis(2.0));
        let up1 = tl.schedule("HtD s0 c1", htod, SimTime::ZERO, SimTime::from_millis(2.0));
        let sort1 = tl.schedule_after("sort s0 c1", gpu, &[up1.end], SimTime::from_millis(5.0));
        let down1 = tl.schedule_after("DtH s0 c1", dtoh, &[sort1.end], SimTime::from_millis(2.0));
        // The merge consumes chunk 0 while chunk 1 is still downloading —
        // its first event starts before the last DtH ends.
        let m0 = tl.schedule_after(
            "host merge c0",
            host,
            &[down0.end],
            SimTime::from_millis(3.0),
        );
        assert!(m0.start < down1.end, "test premise: merge overlaps DtH");
        tl.schedule_after(
            "host merge c1",
            host,
            &[down1.end],
            SimTime::from_millis(3.0),
        );

        let critical_path = down1.end;
        let shard = ShardReport {
            device: "dev".into(),
            link: "PCIe3x16".into(),
            n: 100,
            range: (0, u64::MAX),
            report: SortReport::new(100, 8, 0),
            upload: up0.duration() + up1.duration(),
            gpu_sort: sort0.duration() + sort1.duration(),
            download: down0.duration() + down1.duration(),
            finish: down1.end,
            measured_sort: None,
        };
        let end_to_end = SimTime::from_millis(1.0) + tl.makespan() + SimTime::from_millis(1.0);
        ShardedReport {
            n: 100,
            key_bytes: 8,
            value_bytes: 0,
            shards: vec![shard],
            splitters: SplitterSet {
                cuts: Vec::new(),
                key_bits: 64,
            },
            critical_path,
            measured_partition: Duration::from_millis(1),
            measured_splitters: Duration::ZERO,
            measured_merge: Duration::from_millis(1),
            end_to_end,
            combined: SortReport::new(100, 8, 0),
            timeline: tl,
            ooc_chunks: Vec::new(),
            faults: Vec::new(),
        }
    }

    #[test]
    fn monotone_invariants_hold_with_an_overlapped_merge_tail() {
        // Regression for the latent bug class: the critical path may be
        // *shorter* than the makespan once merge consumption overlaps the
        // DtH tail, and that must not trip the invariants.
        let report = synthetic_report();
        assert!(report.timeline.makespan() > report.critical_path);
        report.span_invariants().expect("well-formed report");
    }

    #[test]
    fn last_sort_finish_scans_sort_labels_only() {
        let report = synthetic_report();
        let last_sort = report
            .timeline
            .events()
            .iter()
            .filter(|e| e.label.starts_with("sort"))
            .map(|e| e.end)
            .fold(SimTime::ZERO, SimTime::max);
        assert_eq!(report.last_sort_finish(), last_sort);
        // Merge and transfer events sit beyond it, but are not counted.
        assert!(report.timeline.makespan() > last_sort);
    }

    #[test]
    fn invariants_catch_a_shard_finishing_past_the_critical_path() {
        let mut report = synthetic_report();
        report.shards[0].finish = report.critical_path + SimTime::from_millis(1.0);
        let err = report.span_invariants().unwrap_err();
        assert!(err.contains("exceeds the critical path"), "{err}");
    }

    #[test]
    fn invariants_catch_an_end_to_end_below_the_critical_path() {
        let mut report = synthetic_report();
        report.end_to_end = report.critical_path - SimTime::from_millis(1.0);
        let err = report.span_invariants().unwrap_err();
        assert!(err.contains("shorter than the critical path"), "{err}");
    }

    #[test]
    fn invariants_catch_a_critical_path_beyond_the_makespan() {
        let mut report = synthetic_report();
        report.critical_path = report.timeline.makespan() + SimTime::from_millis(1.0);
        report.shards[0].finish = report.critical_path;
        report.end_to_end = report.critical_path * 2.0;
        let err = report.span_invariants().unwrap_err();
        assert!(err.contains("exceeds the timeline makespan"), "{err}");
    }
}
