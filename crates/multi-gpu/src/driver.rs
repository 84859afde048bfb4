//! The round-based driver behind every [`ShardedSorter`] sort.
//!
//! One sort is a sequence of rounds over the pending elements.  Round 0
//! holds the whole input, and a fault-free sort ends with it.  Each round:
//!
//! 1. **Partition** (host, measured) the pending elements over the devices
//!    still alive: splitters from MSD digit histograms
//!    ([`crate::partition`]), then a key-range scatter into one *round
//!    buffer*, the devices' shares back to back — out of core, each share
//!    as its chunks' key ranges in key order.  Round 0 scatters into the
//!    engine's persistent scratch, so a warm sort allocates no element
//!    memory.
//! 2. **Carve units of work**, as ranges of the round buffer: the whole
//!    share in core, every key-range chunk out of core, split by position
//!    where a range is over its device's chunk budget ([`crate::ooc`]).
//! 3. **Consult the fault plan** once per unit, in device/unit order
//!    ([`crate::recovery`]): a failure or corruption copies the unit back
//!    to the pending set, a stall slows the unit's transfers.
//! 4. **Sort** the surviving units in place on the persistent device
//!    lanes, each ping-ponging against the same range of the round's free
//!    buffer (the partitioned input), one host-executor task per device:
//!    simulated GPUs fan out first, CPU sockets side by side in a fan-out
//!    of their own afterwards, so a socket's measured wall-clock shares the
//!    host only with its sibling sockets.  That matches a real multi-socket machine only while the
//!    sockets' workers together fit in the host executor's workers
//!    (cores); beyond that, sibling sockets contend and each socket's
//!    measured time grows.
//! 5. **Schedule** every unit on one shared [`gpu_sim::Timeline`] from the
//!    round's start: uploads, sorts and downloads overlap within a device
//!    and across devices, since every link is independent.
//! 6. **Keep the round**: each sorted unit becomes a run, in merge groups
//!    — one per in-core share or out-of-core key range, whose pieces
//!    merge.
//!
//! Requeued elements wait out an exponential simulated backoff before the
//! next round, which partitions them into a round buffer of its own.  A
//! final host step yields the output and one report.  A sort that ends in
//! round 0 has range-disjoint groups in key order, so each group merges
//! only its own runs, and when every group is one run the round buffer
//! already is the output: it is swapped into the caller's `Vec`, and the
//! caller's old buffer becomes the next sort's scratch.  Any other run set
//! merges into the caller's buffer (the p-way merge of every run after
//! requeue rounds).

use crate::device_pool::SimDevice;
use crate::engine::ShardedSorter;
use crate::ooc::{chunk_budget_bytes, device_chunk_count, overlap_tail_merge};
use crate::partition::{compute_splitters_in, scatter_into_round, PartitionConfig, SplitterSet};
use crate::recovery::{SortError, BACKOFF, MAX_RETRIES};
use crate::report::{FaultEvent, OocChunkSpan, ShardReport, ShardedReport};
use gpu_sim::{SimTime, Timeline, TransferDirection};
use hetero::chunking::split_into_chunks;
use hetero::multiway_merge::merge_pairs_into;
use hetero::pipeline::PipelineResources;
use hrs_core::arena::{ROLE_ROUND_KEYS, ROLE_ROUND_VALS};
use hrs_core::{HybridRadixSorter, SharedMut, SortReport};
use std::time::{Duration, Instant};
use workloads::keys::SortKey;
use workloads::pairs::SortValue;

/// In-core shards split their transfers into this many chunks, so a
/// device's upload, sort and download overlap.
const CHUNKS_PER_SHARD: usize = 4;

/// Keys and values of one buffer of a sort.
type Buffers<K, V> = (Vec<K>, Vec<V>);

/// `len` elements from `start` of round buffer `buf`: a unit of work, and
/// once sorted a run of the final host step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Range {
    buf: usize,
    start: usize,
    pub(crate) len: usize,
}

impl Range {
    /// The element indices of the range within its buffer.
    fn span(&self) -> std::ops::Range<usize> {
        self.start..self.start + self.len
    }
}

/// One unit of work: a device's whole share (in core) or one
/// memory-budget chunk of it (out of core).
pub(crate) struct Unit {
    pub(crate) device: usize,
    /// Index of the chunk within the device's share of its round.
    chunk: usize,
    /// Index of the chunk's key range within the device's share: the
    /// pieces of an over-budget range share it and merge with each other.
    group: usize,
    /// Offset of the chunk within the device's share.
    offset: u64,
    /// Where the unit's elements lie.
    pub(crate) range: Range,
    /// Transfer-time multiplier from an injected stall (1.0 = clean).
    pub(crate) stall: f64,
    report: SortReport,
    measured: Duration,
}

impl Unit {
    fn new(device: usize, chunk: usize, group: usize, offset: usize, range: Range) -> Self {
        Unit {
            device,
            chunk,
            group,
            offset: offset as u64,
            range,
            stall: 1.0,
            report: SortReport::new(0, 0, 0),
            measured: Duration::ZERO,
        }
    }
}

/// One device's part of a round: its sorted units and their schedule.
struct Share {
    device: usize,
    range: (u64, u64),
    units: Vec<Unit>,
    /// Elements the device uploaded this round.
    n: u64,
    upload: SimTime,
    gpu_sort: SimTime,
    download: SimTime,
    /// When the device's last download finished.
    finish: SimTime,
}

/// Everything one sort accumulates across its rounds.
pub(crate) struct Run<K, V> {
    elem_bytes: u64,
    pub(crate) round: u32,
    round_start: SimTime,
    tl: Timeline,
    /// The HtD / GPU / DtH resources of every pool device.
    res: Vec<PipelineResources>,
    /// Elements awaiting a (re)try; round 0 starts with the caller's
    /// buffers.
    pending: Buffers<K, V>,
    /// Every round's buffers; units and runs are ranges of them.
    bufs: Vec<Buffers<K, V>>,
    /// The current round's free buffer, as long as its round buffer: the
    /// lane sorts' ping-pong partner.
    spare: Buffers<K, V>,
    /// The caller's buffer once round 0 has sorted out of it: where the
    /// final host step merges to.
    out: Option<Buffers<K, V>>,
    /// Sorted runs awaiting the final host step, in merge groups: the runs
    /// of a group overlap in key range, groups do not.
    runs: Vec<Vec<Range>>,
    combined: SortReport,
    measured_partition: Duration,
    /// The share of `measured_partition` spent choosing splitters.
    measured_splitters: Duration,
    shards: Vec<ShardReport>,
    /// Per shard report: the pool device and the elements it uploaded.
    shard_devices: Vec<(usize, u64)>,
    ooc_chunks: Vec<OocChunkSpan>,
    pub(crate) faults: Vec<FaultEvent>,
}

impl<K: Copy, V: Copy> Run<K, V> {
    /// The keys and values of `r`.
    fn slices(&self, r: Range) -> (&[K], &[V]) {
        let (keys, vals) = &self.bufs[r.buf];
        (&keys[r.span()], &vals[r.span()])
    }

    /// Copies the elements of `r` back to the pending set for the next
    /// round.
    pub(crate) fn requeue(&mut self, r: Range) {
        let (keys, vals) = &self.bufs[r.buf];
        self.pending.0.extend_from_slice(&keys[r.span()]);
        self.pending.1.extend_from_slice(&vals[r.span()]);
    }
}

impl ShardedSorter {
    /// Sorts `keys` (and `values` along with them) through the rounds of
    /// the module docs.  On failure every element is restored, unsorted.
    pub(crate) fn run<K: SortKey, V: SortValue>(
        &self,
        keys: &mut Vec<K>,
        values: &mut Vec<V>,
        out_of_core: bool,
    ) -> Result<ShardedReport, SortError> {
        let clock = Instant::now();
        let n = keys.len();
        let value_bytes = std::mem::size_of::<V>() as u32;
        let p = self.pool.len();

        // Reuse the persistent device lanes (and their warm scratch
        // arenas) when they are free; a concurrent sort through the same
        // sorter falls back to ephemeral lanes instead of blocking.
        let mut fallback: Option<Vec<HybridRadixSorter>> = None;
        let mut guard = self.lanes.try_lock().ok();
        let lanes: &mut Vec<HybridRadixSorter> = match guard.as_deref_mut() {
            Some(lanes) => lanes,
            None => fallback.get_or_insert_with(Vec::new),
        };
        if lanes.len() != p {
            *lanes = (0..p).map(|i| self.lane_sorter(i)).collect();
        }
        let lanes: &[HybridRadixSorter] = lanes;

        // Key-only sorts carry an empty vec of zero-sized values;
        // materialise it so every buffer holds keys and values alike.
        values.resize(n, V::default());
        let mut run = self.begin(std::mem::take(keys), std::mem::take(values));
        let mut splitters: Option<SplitterSet> = None;

        let failure = loop {
            let alive = self.pool.alive_indices();
            if alive.is_empty() {
                break Some(SortError::AllDevicesDead { failed: p });
            }
            if run.round > MAX_RETRIES {
                break Some(SortError::RetriesExhausted {
                    retries: MAX_RETRIES,
                    unsorted: run.pending.0.len() as u64,
                });
            }
            let (round_splitters, shares) = self.sort_round(&mut run, lanes, &alive, out_of_core);
            self.keep_shares(&mut run, shares, out_of_core);
            splitters.get_or_insert(round_splitters);

            if run.pending.0.is_empty() {
                break None;
            }
            let delay = BACKOFF * 2f64.powi(run.round as i32);
            for ev in run.faults.iter_mut().filter(|e| e.round == run.round) {
                ev.backoff = delay;
            }
            run.round_start = run.tl.makespan() + delay;
            run.round += 1;
        };

        if let Some(err) = failure {
            // Restore every element — sorted runs and still-pending alike —
            // so the caller's data survives the failure unsorted but whole.
            let (mut ks, mut vs) = run.out.take().unwrap_or_default();
            ks.clear();
            vs.clear();
            for &r in run.runs.iter().flatten() {
                let (rk, rv) = run.slices(r);
                ks.extend_from_slice(rk);
                vs.extend_from_slice(rv);
            }
            ks.append(&mut run.pending.0);
            vs.append(&mut run.pending.1);
            (*keys, *values) = (ks, vs);
            if let Some(free) = run.bufs.drain(..).next() {
                self.park_round_buffer(free);
            }
            self.note_fault_outcomes(&run.faults, run.round, clock.elapsed(), out_of_core);
            return Err(err);
        }

        let critical_path = run.tl.makespan();
        let merge_span = self
            .inspector
            .span_with("multi_gpu/merge", "multi_gpu/merge_ns");
        let merged;
        ((*keys, *values), merged) = self.host_step(&mut run);
        let measured_merge = merge_span.finish();
        // Whichever n-sized buffer the output did not take is the next
        // sort's scratch.
        if let Some(free) = run.out.take().or_else(|| run.bufs.drain(..).next()) {
            self.park_round_buffer(free);
        }

        let merge_total = SimTime::from_secs(measured_merge.as_secs_f64());
        let merge_overlap = if out_of_core && merged {
            overlap_tail_merge(&mut run.tl, &run.ooc_chunks, n, merge_total)
        } else {
            None
        };
        // Out of core, a host merge consumes chunk runs as they land, so
        // only its tail past the chunk stream adds to the end-to-end time.
        let device_and_merge = if merge_overlap.is_some() {
            run.tl.makespan()
        } else {
            critical_path + merge_total
        };
        for ev in &mut run.faults {
            ev.recovered = true;
        }
        let report = ShardedReport {
            n: n as u64,
            key_bytes: K::BYTES,
            value_bytes,
            shards: run.shards,
            splitters: splitters.expect("round 0 always partitions"),
            critical_path,
            measured_partition: run.measured_partition,
            measured_splitters: run.measured_splitters,
            measured_merge,
            end_to_end: SimTime::from_secs(run.measured_partition.as_secs_f64()) + device_and_merge,
            combined: run.combined,
            timeline: run.tl,
            ooc_chunks: run.ooc_chunks,
            faults: run.faults,
        };
        self.note_sort(&report, &run.shard_devices);
        if out_of_core {
            self.note_ooc(&report, merge_overlap);
        }
        self.note_fault_outcomes(&report.faults, run.round, clock.elapsed(), out_of_core);
        Ok(report)
    }

    /// Parks `keys` / `vals` as the next sort's round buffer.
    fn park_round_buffer<K: SortKey, V: SortValue>(&self, (keys, vals): Buffers<K, V>) {
        self.with_scratch(|a| {
            a.put_buffer(ROLE_ROUND_KEYS, keys);
            a.put_buffer(ROLE_ROUND_VALS, vals);
        });
    }

    /// A fresh sort with every element pending and every pool device's
    /// resources registered on an empty timeline.
    fn begin<K: SortKey, V: SortValue>(&self, keys: Vec<K>, vals: Vec<V>) -> Run<K, V> {
        let mut tl = Timeline::new();
        let res = (0..self.pool.len())
            .map(|i| PipelineResources::register(&mut tl, &format!("dev{i} ")))
            .collect();
        Run {
            elem_bytes: K::BYTES as u64 + std::mem::size_of::<V>() as u64,
            round: 0,
            round_start: SimTime::ZERO,
            tl,
            res,
            pending: (keys, vals),
            bufs: Vec::new(),
            spare: Buffers::default(),
            out: None,
            runs: Vec::new(),
            combined: SortReport::new(0, K::BYTES, std::mem::size_of::<V>() as u32),
            measured_partition: Duration::ZERO,
            measured_splitters: Duration::ZERO,
            shards: Vec::new(),
            shard_devices: Vec::new(),
            ooc_chunks: Vec::new(),
            faults: Vec::new(),
        }
    }

    /// The device work of one round (steps 1–5 of the module docs): the
    /// round's splitters and one scheduled share per `alive` device.
    fn sort_round<K: SortKey, V: SortValue>(
        &self,
        run: &mut Run<K, V>,
        lanes: &[HybridRadixSorter],
        alive: &[usize],
        out_of_core: bool,
    ) -> (SplitterSet, Vec<Share>) {
        let span = self
            .inspector
            .span_with("multi_gpu/partition", "multi_gpu/partition_ns");
        let (splitters, units) = self.carve_units(run, alive, out_of_core);
        run.measured_partition += span.finish();

        let mut units = self.triage(run, units);
        self.sort_units(lanes, run, &mut units);
        for unit in &units {
            run.combined.absorb(&unit.report);
        }
        let mut units = units.into_iter().peekable();
        let shares = alive
            .iter()
            .zip(splitters.ranges())
            .map(|(&g, range)| {
                let mine = std::iter::from_fn(|| units.next_if(|u| u.device == g)).collect();
                self.schedule_share(run, g, range, mine, out_of_core)
            })
            .collect();
        (splitters, shares)
    }

    /// Partitions the pending elements over the `alive` devices into a new
    /// round buffer and carves each device's share into its units of work,
    /// as ranges of that buffer; returns the devices' splitters and the
    /// units.  Out of core, a share is `s_g` key ranges of weight
    /// `w_g / s_g`, its chunks ([`crate::ooc`]).  The partition scatters
    /// into the round's scratch, and the pending buffer becomes the round's
    /// spare.
    fn carve_units<K: SortKey, V: SortValue>(
        &self,
        run: &mut Run<K, V>,
        alive: &[usize],
        out_of_core: bool,
    ) -> (SplitterSet, Vec<Unit>) {
        let pending = std::mem::take(&mut run.pending);
        let m = pending.0.len();
        let devices: Vec<&SimDevice> = alive.iter().map(|&g| &self.pool.devices()[g]).collect();
        let weights: Vec<f64> = devices.iter().map(|d| d.capacity_weight()).collect();
        let total_weight: f64 = weights.iter().sum();
        let chunks: Vec<usize> = devices
            .iter()
            .zip(&weights)
            .map(|(device, w)| {
                let bytes = (m as f64 * w / total_weight).ceil() as u64 * run.elem_bytes;
                if out_of_core {
                    device_chunk_count(device, bytes, &self.ooc)
                } else {
                    1
                }
            })
            .collect();
        let range_weights: Vec<f64> = weights
            .iter()
            .zip(&chunks)
            .flat_map(|(&w, &s)| std::iter::repeat_n(w / s as f64, s))
            .collect();
        let clock = Instant::now();
        let ranges = self.with_scratch(|a| {
            compute_splitters_in(
                &pending.0,
                &range_weights,
                &PartitionConfig::default(),
                &self.host_exec,
                a,
            )
        });
        run.measured_splitters += clock.elapsed();
        // The devices' cuts: every device's last range ends at one.
        let mut end = 0;
        let splitters = SplitterSet {
            cuts: (chunks[..alive.len() - 1].iter())
                .map(|&s| {
                    end += s;
                    ranges.cuts[end - 1]
                })
                .collect(),
            key_bits: ranges.key_bits,
        };
        // Round 0 partitions into the engine's persistent round buffer
        // (a warm take writes no element memory), requeue rounds into
        // fresh memory.  It takes at least the pending buffer's capacity,
        // so the two buffers that trade places between sorts are
        // interchangeable for a caller that refills its buffer in place.
        let mut free = if run.round == 0 {
            self.with_scratch(|a| {
                (
                    a.take_buffer(ROLE_ROUND_KEYS, m),
                    a.take_buffer(ROLE_ROUND_VALS, m),
                )
            })
        } else {
            Buffers::default()
        };
        free.0
            .reserve_exact(pending.0.capacity().saturating_sub(free.0.len()));
        free.1
            .reserve_exact(pending.1.capacity().saturating_sub(free.1.len()));
        free.0.resize(m, K::default());
        free.1.resize(m, V::default());
        let lens = self.with_scratch(|a| {
            scatter_into_round(
                &pending.0,
                &pending.1,
                &ranges,
                &self.host_exec,
                &mut free.0,
                &mut free.1,
                a,
            )
        });
        run.spare = pending;
        let buf = run.bufs.len();
        run.bufs.push(free);

        let mut units = Vec::new();
        let mut lens = lens.into_iter();
        let mut share_start = 0;
        for ((&g, device), &s) in alive.iter().zip(&devices).zip(&chunks) {
            // Under default chunking, a key range over the chunk budget
            // (sampling error, or a key heavier than a chunk) streams as
            // budget-sized pieces; a configured chunk count never splits.
            let budget = match (out_of_core, self.ooc.chunks_per_device) {
                (true, None) => (chunk_budget_bytes(device) / run.elem_bytes).max(1) as usize,
                _ => usize::MAX,
            };
            let (mut offset, mut chunk) = (0, 0);
            for (group, len) in lens.by_ref().take(s).enumerate() {
                for (start, end) in split_into_chunks(len, len.div_ceil(budget)).ranges {
                    let range = Range {
                        buf,
                        start: share_start + offset + start,
                        len: end - start,
                    };
                    units.push(Unit::new(g, chunk, group, offset + start, range));
                    chunk += 1;
                }
                offset += len;
            }
            share_start += offset;
        }
        (splitters, units)
    }

    /// Sorts every unit in place through its device's lane, against the
    /// same range of the round's spare, one host-executor task per device
    /// sorting its units in stream order (a real device sorts one chunk at
    /// a time, and serial lane use keeps the warm arena uncontended).
    /// Simulated devices fan out first; CPU sockets fan out afterwards,
    /// side by side, because their measured wall-clock *is* the schedule
    /// input and must not absorb simulated-GPU host work.  The schedule
    /// overlaps the sockets' times as if each had its own cores, which
    /// holds while their workers together fit in `host_exec.workers()`;
    /// past that, each time includes contention with its siblings.
    fn sort_units<K: SortKey, V: SortValue>(
        &self,
        lanes: &[HybridRadixSorter],
        run: &mut Run<K, V>,
        units: &mut [Unit],
    ) {
        // Units arrive grouped by device: one index range per device.
        let mut groups: Vec<(usize, usize)> = Vec::new();
        for (i, unit) in units.iter().enumerate() {
            match groups.last_mut() {
                Some(group) if units[group.0].device == unit.device => group.1 = i + 1,
                _ => groups.push((i, i + 1)),
            }
        }
        let (measured, simulated): (Vec<_>, Vec<_>) =
            groups.into_iter().partition(|&(start, _)| {
                self.pool.devices()[units[start].device]
                    .backend
                    .is_measured()
            });
        let (keys, vals) = run.bufs.last_mut().expect("the round buffer is carved");
        let (spare_keys, spare_vals) = &mut run.spare;
        let keys = SharedMut::new(keys.as_mut_slice());
        let vals = SharedMut::new(vals.as_mut_slice());
        let spare_keys = SharedMut::new(spare_keys.as_mut_slice());
        let spare_vals = SharedMut::new(spare_vals.as_mut_slice());
        for groups in [simulated, measured] {
            let view = SharedMut::new(&mut *units);
            self.host_exec.for_each_task(groups.len(), |t, _worker| {
                let (start, end) = groups[t];
                // SAFETY: device groups are disjoint index ranges, so task
                // `t` exclusively owns units `start..end`.
                for unit in unsafe { view.slice_mut(start, end - start) } {
                    let (at, len) = (unit.range.start, unit.range.len);
                    let clock = Instant::now();
                    // SAFETY: units are disjoint ranges of the round
                    // buffer, the spare is as long, and only the task
                    // owning a unit touches its range in either.
                    unit.report = unsafe {
                        lanes[unit.device].sort_pairs_with_spare(
                            keys.slice_mut(at, len),
                            vals.slice_mut(at, len),
                            spare_keys.slice_mut(at, len),
                            spare_vals.slice_mut(at, len),
                        )
                    };
                    unit.measured = clock.elapsed();
                }
            });
        }
    }

    /// Schedules device `g`'s sorted units on its three timeline
    /// resources, starting no earlier than the round's start.  In core,
    /// the single unit's transfers split into [`CHUNKS_PER_SHARD`] pieces;
    /// out of core, every chunk is a piece and its upload waits for a free
    /// slot (in-place replacement: the slot of the chunk two back frees as
    /// its download starts).
    fn schedule_share<K, V>(
        &self,
        run: &mut Run<K, V>,
        g: usize,
        range: (u64, u64),
        units: Vec<Unit>,
        out_of_core: bool,
    ) -> Share {
        let device = &self.pool.devices()[g];
        let res = run.res[g];
        let mut share = Share {
            device: g,
            range,
            n: units.iter().map(|u| u.range.len as u64).sum(),
            units: Vec::new(),
            upload: SimTime::ZERO,
            gpu_sort: SimTime::ZERO,
            download: SimTime::ZERO,
            finish: SimTime::ZERO,
        };
        // (label index, elements, sort time, stall, unit offset) per piece.
        let mut pieces = Vec::new();
        for u in &units {
            // Simulated GPUs contribute their modelled kernel time; a CPU
            // socket contributes the wall-clock its sort really took.
            let sort_total = if device.backend.is_measured() {
                SimTime::from_secs(u.measured.as_secs_f64())
            } else {
                u.report.simulated.total
            };
            let len = u.range.len;
            if out_of_core {
                pieces.push((u.chunk, len, sort_total, u.stall, u.offset));
                continue;
            }
            for (j, &(start, end)) in split_into_chunks(len, CHUNKS_PER_SHARD.min(len))
                .ranges
                .iter()
                .enumerate()
            {
                let frac = (end - start) as f64 / len as f64;
                pieces.push((j, end - start, sort_total * frac, u.stall, 0));
            }
        }
        let label = |stage: &str, j: usize| {
            if out_of_core {
                format!("dev{g} {stage} chunk {j}")
            } else {
                format!("{stage} s{g} c{j}")
            }
        };
        let mut dtoh_start = Vec::with_capacity(pieces.len());
        for (k, &(j, len, sort_time, stall, offset)) in pieces.iter().enumerate() {
            let bytes = len as u64 * run.elem_bytes;
            let up_time = device
                .link
                .transfer_time(TransferDirection::HostToDevice, bytes)
                * stall;
            let slot_free = if out_of_core && k >= 2 {
                dtoh_start[k - 2]
            } else {
                SimTime::ZERO
            };
            let up = run.tl.schedule(
                label("HtD", j),
                res.htod,
                run.round_start.max(slot_free),
                up_time,
            );
            let sort = run
                .tl
                .schedule(label("sort", j), res.gpu, up.end, sort_time);
            // Out-of-core totals are the stage sums of the Section 5
            // pipeline; in-core totals sum the realised event spans.
            if out_of_core {
                share.upload += up_time;
                share.gpu_sort += sort_time;
            } else {
                share.upload += up.duration();
                share.gpu_sort += sort.duration();
            }
            let down_time = device
                .link
                .transfer_time(TransferDirection::DeviceToHost, bytes)
                * stall;
            let down = run
                .tl
                .schedule(label("DtH", j), res.dtoh, sort.end, down_time);
            dtoh_start.push(down.start);
            share.finish = share.finish.max(down.end);
            if out_of_core {
                share.download += down_time;
                run.ooc_chunks.push(OocChunkSpan {
                    device: g,
                    chunk: j,
                    offset,
                    len: len as u64,
                    sort: sort_time,
                    finish: down.end,
                });
            } else {
                share.download += down.duration();
            }
        }
        share.units = units;
        share
    }

    /// Keeps one round: every share, and the round's spare as the host
    /// step's merge target when it is the caller's buffer (round 0).
    fn keep_shares<K: SortKey, V: SortValue>(
        &self,
        run: &mut Run<K, V>,
        shares: Vec<Share>,
        out_of_core: bool,
    ) {
        for share in shares {
            self.keep_share(run, share, out_of_core);
        }
        let spare = std::mem::take(&mut run.spare);
        run.out.get_or_insert(spare);
    }

    /// Keeps one device's round: the shard report, and the sorted units as
    /// the shard's runs for the final host step.
    fn keep_share<K: SortKey, V: SortValue>(
        &self,
        run: &mut Run<K, V>,
        share: Share,
        out_of_core: bool,
    ) {
        let device = &self.pool.devices()[share.device];
        let report = if out_of_core {
            let mut report = SortReport::new(0, 0, 0);
            for unit in &share.units {
                report.absorb(&unit.report);
            }
            report
        } else {
            share.units.first().map_or_else(
                || SortReport::new(0, K::BYTES, std::mem::size_of::<V>() as u32),
                |unit| unit.report.clone(),
            )
        };
        run.shards.push(ShardReport {
            device: device.spec.name.clone(),
            link: device.link.kind.label().to_string(),
            n: share.n,
            range: share.range,
            report,
            upload: share.upload,
            gpu_sort: share.gpu_sort,
            download: share.download,
            finish: share.finish,
            measured_sort: device
                .backend
                .is_measured()
                .then(|| share.units.iter().map(|u| u.measured).sum()),
        });
        run.shard_devices.push((share.device, share.n));
        run.runs.extend(
            share
                .units
                .chunk_by(|a, b| a.group == b.group)
                .map(|group| group.iter().map(|u| u.range).collect()),
        );
    }

    /// The final host step: each group of runs merges on its own and the
    /// groups concatenate in order; returns the output and whether any run
    /// merged.  A sort that ends in round 0 holds range-disjoint shards in
    /// device order, and equal keys never straddle shards, so each shard's
    /// groups are range-disjoint too: one run per in-core shard, one per
    /// out-of-core chunk except the pieces of an over-budget key range,
    /// which form one group.  That is byte for byte the p-way merge of
    /// every run.  After requeue rounds the ranges overlap, so all runs
    /// form one group: the full p-way merge.
    ///
    /// When every group is a single run and the runs tile one round buffer
    /// in order, that buffer is the output as it stands.  Otherwise the
    /// groups merge straight into their slices of the caller's buffer.
    fn host_step<K: SortKey, V: SortValue>(&self, run: &mut Run<K, V>) -> (Buffers<K, V>, bool) {
        let mut groups = std::mem::take(&mut run.runs);
        if run.round > 0 {
            groups = vec![groups.into_iter().flatten().collect()];
        }
        if let Some(buf) = tiled_buffer(&groups, &run.bufs) {
            return (std::mem::take(&mut run.bufs[buf]), false);
        }
        let n: usize = groups.iter().flatten().map(|r| r.len).sum();
        let mut out = run.out.take().expect("round 0 keeps the caller's buffer");
        out.0.resize(n, K::default());
        out.1.resize(n, V::default());
        let (mut keys, mut vals) = (out.0.as_mut_slice(), out.1.as_mut_slice());
        for runs in groups {
            let len = runs.iter().map(|r| r.len).sum();
            let (group_keys, rest) = std::mem::take(&mut keys).split_at_mut(len);
            keys = rest;
            let (group_vals, rest) = std::mem::take(&mut vals).split_at_mut(len);
            vals = rest;
            self.merge_into(run, &runs, group_keys, group_vals);
        }
        (out, true)
    }

    /// Merges `runs` of `run`'s buffers straight into `keys` / `vals` with
    /// the host's merge threads.
    fn merge_into<K: SortKey, V: SortValue>(
        &self,
        run: &Run<K, V>,
        runs: &[Range],
        keys: &mut [K],
        vals: &mut [V],
    ) {
        let refs: Vec<(&[K], &[V])> = runs.iter().map(|&r| run.slices(r)).collect();
        merge_pairs_into(&refs, self.merge_threads, keys, vals);
    }
}

/// The round buffer that single-run `groups` tile in order, from its
/// first element to its last, if any: those runs are the output as they
/// stand.
fn tiled_buffer<K, V>(groups: &[Vec<Range>], bufs: &[Buffers<K, V>]) -> Option<usize> {
    let mut buf = None;
    let mut end = 0;
    for group in groups {
        let [r] = group.as_slice() else {
            return None;
        };
        if *buf.get_or_insert(r.buf) != r.buf || r.start != end {
            return None;
        }
        end += r.len;
    }
    buf.filter(|&b| bufs[b].0.len() == end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device_pool::{DevicePool, SimDevice};
    use crate::ooc::OocConfig;
    use gpu_sim::FaultPlan;
    use hrs_core::SortConfig;
    use workloads::{uniform_keys, KeyCodec, ZipfGenerator};

    /// Two single-worker CPU sockets, the pairs benchmarks' pool; out of
    /// core, each lane streams four chunks.
    fn socket_sorter() -> ShardedSorter {
        ShardedSorter::new(DevicePool::new(vec![SimDevice::cpu_socket(1); 2]))
            .with_merge_threads(2)
            .with_ooc_config(OocConfig::default().with_chunks_per_device(4))
    }

    /// Zipf keys over a 256-value universe, so every key repeats (the
    /// ones either side of a shard boundary included), with row ids.
    fn zipf_rows(n: usize, seed: u64) -> (Vec<u64>, Vec<u32>) {
        let keys = ZipfGenerator::paper_default(256, seed).generate::<u64>(n);
        (keys, (0..n as u32).collect())
    }

    /// Every round of a host-merge sort up to, not including, the final
    /// host step.
    fn host_merge_rounds(
        sorter: &ShardedSorter,
        (keys, vals): (Vec<u64>, Vec<u32>),
        out_of_core: bool,
    ) -> Run<u64, u32> {
        let lanes: Vec<_> = (0..sorter.pool().len())
            .map(|i| sorter.lane_sorter(i))
            .collect();
        let mut run = sorter.begin(keys, vals);
        loop {
            let alive = sorter.pool().alive_indices();
            let (_, shares) = sorter.sort_round(&mut run, &lanes, &alive, out_of_core);
            sorter.keep_shares(&mut run, shares, out_of_core);
            if run.pending.0.is_empty() {
                return run;
            }
            run.round += 1;
        }
    }

    /// The p-way merge of every run, whatever its grouping.
    fn merge_all(sorter: &ShardedSorter, run: &Run<u64, u32>) -> (Vec<u64>, Vec<u32>) {
        let runs: Vec<Range> = run.runs.iter().flatten().copied().collect();
        let n = runs.iter().map(|r| r.len).sum();
        let mut out = (vec![0; n], vec![0; n]);
        sorter.merge_into(run, &runs, &mut out.0, &mut out.1);
        out
    }

    /// Every run's keys, concatenated in run order.
    fn concatenated<V: Copy>(run: &Run<u64, V>) -> Vec<u64> {
        run.runs
            .iter()
            .flatten()
            .flat_map(|&r| run.slices(r).0)
            .copied()
            .collect()
    }

    #[test]
    fn round_zero_shards_concatenate_to_the_p_way_merge() {
        for out_of_core in [false, true] {
            let sorter = socket_sorter();
            let input = zipf_rows(40_000, 7);
            let expected_keys = KeyCodec::std_sorted(&input.0);
            let mut run = host_merge_rounds(&sorter, input, out_of_core);
            assert_eq!(run.round, 0);
            // One group per shard in core, per chunk out of core, each a
            // single run: a configured chunk count never splits a range.
            let groups = if out_of_core { 8 } else { 2 };
            assert_eq!(run.runs.len(), groups, "out_of_core = {out_of_core}");
            assert!(run.runs.iter().all(|runs| runs.len() == 1));
            let boundary: usize = run.runs[0].iter().map(|r| r.len).sum();
            let merged = merge_all(&sorter, &run);

            let ((keys, vals), _) = sorter.host_step(&mut run);
            assert_eq!(keys, expected_keys, "out_of_core = {out_of_core}");
            assert_eq!(keys, merged.0, "out_of_core = {out_of_core}");
            assert_eq!(vals, merged.1, "out_of_core = {out_of_core}");
            // Ties on both sides of the first group boundary, none across
            // it.
            let (below, above) = (keys[boundary - 1], keys[boundary]);
            assert!(below < above);
            assert_eq!(keys[boundary - 2], below);
            assert_eq!(keys[boundary + 1], above);
        }
    }

    #[test]
    fn splitter_time_is_a_share_of_the_partition_time() {
        let sorter = socket_sorter();
        let (mut keys, mut vals) = zipf_rows(200_000, 9);
        let report = sorter.sort_pairs(&mut keys, &mut vals);
        assert!(report.measured_splitters > Duration::ZERO);
        assert!(report.measured_splitters <= report.measured_partition);
    }

    #[test]
    fn a_socket_failing_in_round_zero_takes_the_full_merge() {
        // Socket 0 holds the lower key range and fails its round-0 sort;
        // socket 1 sorts the upper range in round 0 and the requeued lower
        // range in round 1, so its runs are out of key order.
        for out_of_core in [false, true] {
            let sorter = socket_sorter().with_fault_plan(FaultPlan::fail_device(0, 0));
            let input = zipf_rows(30_000, 5);
            let expected_keys = KeyCodec::std_sorted(&input.0);
            let mut run = host_merge_rounds(&sorter, input, out_of_core);
            assert_eq!(run.round, 1);
            assert!(!sorter.pool().alive(0));
            assert_ne!(
                concatenated(&run),
                expected_keys,
                "out_of_core = {out_of_core}"
            );
            let merged = merge_all(&sorter, &run);

            let ((keys, vals), _) = sorter.host_step(&mut run);
            assert_eq!(keys, expected_keys, "out_of_core = {out_of_core}");
            assert_eq!((&keys, &vals), (&merged.0, &merged.1));
        }
    }

    #[test]
    fn device_killed_by_a_concurrent_caller_loses_nothing() {
        let gpu = HybridRadixSorter::new(SortConfig::keys_64().scaled_for(40_000, 250_000_000));
        let sorter = ShardedSorter::new(DevicePool::titan_cluster(4)).with_sorter(gpu);
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(5));
                sorter.pool().mark_dead(2);
            });
            for seed in 0..20 {
                let keys = uniform_keys::<u64>(20_000, seed);
                let expected = KeyCodec::std_sorted(&keys);
                let mut k = keys;
                sorter.try_sort(&mut k).expect("three survivors remain");
                assert_eq!(k, expected, "seed {seed}");
            }
        });
        assert!(!sorter.pool().alive(2));
    }
}
