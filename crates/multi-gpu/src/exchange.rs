//! Peer-to-peer recombination: the all-to-all bucket exchange.
//!
//! The host p-way merge funnels every sorted shard back through one
//! host-memory stream — a recombination stage whose bandwidth does *not*
//! scale with device count.  This module adds the scalable alternative
//! argued by the paper's Section 5 topology model and Casanova et al.'s
//! multiway GPU mergesort: after the per-device local sorts, devices swap
//! *bucket ranges* directly over the pool's [`gpu_sim::PeerTopology`],
//! each device p-way-merges only its own output range on-device, and the
//! host has nothing left to merge.
//!
//! Within a round of the sharded driver (all on the shared
//! [`gpu_sim::Timeline`]):
//!
//! 1. **Contiguous slabs.**  Splitters are computed exactly as for the
//!    host merge, but the input is not scattered by key: each device's slab
//!    is a contiguous capacity-weighted range of the round's input buffer,
//!    and buckets are later cut out of each *sorted* slab by binary
//!    search, so no scatter pass is needed.
//! 2. **Local sorts**, chunk-pipelined per device like the host-merge
//!    schedule (upload overlaps sorting), but with *no* slab download.
//! 3. **All-to-all exchange.**  Bucket `j` of device `i`'s sorted slab
//!    travels `i → j`.  A transfer is gated only on its *source's* local
//!    sort, so early finishers ship buckets while stragglers still sort.
//!    Direct pairs ride their own peer link; pairs without one stage
//!    through host memory as a DtH leg on the source's host link chained
//!    to an HtD leg on the destination's.
//! 4. **On-device merges + output downloads.**  Each device merges the
//!    buckets of its output range (a bandwidth-bound pass: the range
//!    streams once in and once out of device memory) and downloads it into
//!    its slice of the round's spare buffer.  Ranges tile the key space in
//!    device order, so after a single round the spare already is the
//!    output.
//!
//! Before the exchange every device holding a sorted slab consults the
//! fault plan once more.  A device dying *mid-exchange*, or found dead
//! there, has its slab requeued onto the survivors, while buckets destined
//! to it stay with their sources as orphan runs; orphan ranges overlap the
//! merged ones, so such sorts end with the host p-way merge instead.

use crate::device_pool::DevicePool;
use crate::driver::{Range, Run, Share};
use crate::engine::ShardedSorter;
use crate::partition::SplitterSet;
use crate::report::{ExchangeSpan, ShardReport, ShardedReport};
use crate::telemetry_paths as tp;
use gpu_sim::{LinkSpec, SimTime, TransferDirection};
use hrs_core::SortReport;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};
use telemetry::Inspector;
use workloads::keys::SortKey;
use workloads::pairs::SortValue;

/// How the sorted shards are recombined into one globally sorted output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum RecombineStrategy {
    /// Download every shard and recombine on the host: range-disjoint
    /// shards lie back to back in one round buffer, each after merging
    /// its own out-of-core chunk runs (the original engine path; the
    /// default and the fallback).
    #[default]
    HostMerge,
    /// All-to-all bucket exchange over the pool's peer topology followed
    /// by per-device output-range merges; the host merges nothing.
    PeerExchange,
    /// Pick per sort by comparing the modeled exchange time against the
    /// modeled host-merge tail ([`estimate_exchange_time`] vs.
    /// [`modeled_host_merge_time`]).  Reports never carry `Auto` — they
    /// record the strategy that actually ran.
    Auto,
}

impl RecombineStrategy {
    /// Short human-readable label (`host-merge`, `peer-exchange`, `auto`).
    pub fn label(&self) -> &'static str {
        match self {
            RecombineStrategy::HostMerge => "host-merge",
            RecombineStrategy::PeerExchange => "peer-exchange",
            RecombineStrategy::Auto => "auto",
        }
    }
}

/// Modeled duration of the host p-way merge over `bytes` of sorted runs:
/// the batch streams once in and once out of host memory at
/// [`LinkSpec::host_memory`] bandwidth.
pub fn modeled_host_merge_time(bytes: u64) -> SimTime {
    let host = LinkSpec::host_memory();
    host.transfer_time(TransferDirection::HostToDevice, bytes)
        + host.transfer_time(TransferDirection::DeviceToHost, bytes)
}

/// Modeled recombination tail of the *host-merge* strategy after the last
/// local sort: the slowest device's slab download followed by the host
/// p-way merge of the whole batch.
pub fn estimate_host_merge_tail(pool: &DevicePool, total_bytes: u64) -> SimTime {
    let alive = pool.alive_indices();
    if alive.is_empty() || total_bytes == 0 {
        return SimTime::ZERO;
    }
    let slab = total_bytes / alive.len() as u64;
    let slowest = alive
        .iter()
        .map(|&i| {
            pool.devices()[i]
                .link
                .transfer_time(TransferDirection::DeviceToHost, slab)
        })
        .fold(SimTime::ZERO, SimTime::max);
    slowest + modeled_host_merge_time(total_bytes)
}

/// Modeled recombination tail of the *peer-exchange* strategy after the
/// last local sort, under a uniform-bucket assumption: per device, the
/// exchange legs (direct pairs overlap; staged pairs serialise on the
/// host links), the on-device output-range merge, and the output
/// download.  The slowest device bounds the tail.
pub fn estimate_exchange_time(pool: &DevicePool, total_bytes: u64) -> SimTime {
    let alive = pool.alive_indices();
    let p = alive.len();
    if p == 0 || total_bytes == 0 {
        return SimTime::ZERO;
    }
    let topo = pool.peer_topology();
    let slab = total_bytes / p as u64;
    let bucket = slab / p as u64;
    alive
        .iter()
        .map(|&i| {
            let dev = &pool.devices()[i];
            // Direct transfers of distinct pairs overlap fully; staged
            // ones share the device's host link, and each staged bucket
            // pays the link's per-transfer latency on both legs — on PCIe
            // (10 µs setup) that latency dominates small buckets, which is
            // exactly why `Auto` keeps through-host pools on the host
            // merge.
            let mut staging = SimTime::ZERO;
            let mut direct_max = SimTime::ZERO;
            for &j in &alive {
                if j == i {
                    continue;
                }
                match topo.direct_transfer_time(i, j, bucket) {
                    Some(t) => direct_max = direct_max.max(t),
                    None => {
                        staging = staging
                            + dev
                                .link
                                .transfer_time(TransferDirection::DeviceToHost, bucket)
                            + dev
                                .link
                                .transfer_time(TransferDirection::HostToDevice, bucket);
                    }
                }
            }
            let merge = dev
                .spec
                .effective_bandwidth
                .time_for_bytes(2.0 * slab as f64);
            let download = dev
                .link
                .transfer_time(TransferDirection::DeviceToHost, slab);
            staging + direct_max + merge + download
        })
        .fold(SimTime::ZERO, SimTime::max)
}

/// Idempotently registers the `multi_gpu/exchange/…` subtree so every
/// snapshot exposes the recombination telemetry (zero or not).
pub(crate) fn register_exchange_probes(t: &Inspector) {
    t.counter(tp::EXCHANGE_BYTES);
    t.float_gauge(tp::EXCHANGE_OVERLAP_RATIO);
    t.histogram(tp::EXCHANGE_DEVICE_MERGE_NS);
}

/// Capacity-weighted contiguous slab lengths summing exactly to `n`
/// (cumulative rounding, so no slab drifts by more than one element).
pub(crate) fn slab_lengths(n: usize, weights: &[f64]) -> Vec<usize> {
    let total: f64 = weights.iter().sum();
    let mut lens = Vec::with_capacity(weights.len());
    let mut assigned = 0usize;
    let mut acc = 0.0;
    for (i, w) in weights.iter().enumerate() {
        acc += w;
        let upto = if i + 1 == weights.len() {
            n
        } else {
            ((acc / total) * n as f64).round() as usize
        };
        let upto = upto.clamp(assigned, n);
        lens.push(upto - assigned);
        assigned = upto;
    }
    lens
}

/// Bucket boundaries of a *sorted* slab against the splitter cuts:
/// `[0, …, len]` with one binary search per cut, so bucket `j` is
/// `sorted[b[j]..b[j + 1]]`.
pub(crate) fn bucket_boundaries<K: SortKey>(sorted: &[K], cuts: &[u64]) -> Vec<usize> {
    let mut b = Vec::with_capacity(cuts.len() + 2);
    b.push(0);
    for &c in cuts {
        b.push(sorted.partition_point(|k| k.to_radix() < c));
    }
    b.push(sorted.len());
    b
}

impl ShardedSorter {
    /// Resolves the configured [`RecombineStrategy`] for an input of
    /// `input_bytes`: [`RecombineStrategy::Auto`] becomes the cost model's
    /// pick (host merge below two live devices, otherwise whichever of
    /// [`estimate_exchange_time`] / [`estimate_host_merge_tail`] is
    /// shorter); explicit strategies pass through unchanged.
    pub fn resolve_recombine(&self, input_bytes: u64) -> RecombineStrategy {
        match self.recombine {
            RecombineStrategy::Auto => {
                if self.pool.alive_count() < 2 {
                    RecombineStrategy::HostMerge
                } else if estimate_exchange_time(&self.pool, input_bytes)
                    < estimate_host_merge_tail(&self.pool, input_bytes)
                {
                    RecombineStrategy::PeerExchange
                } else {
                    RecombineStrategy::HostMerge
                }
            }
            explicit => explicit,
        }
    }

    /// Recombines one round of a peer-exchange sort (see the module docs):
    /// the mid-exchange fault point, the bucket transfers, and every live
    /// destination's merge and download.  Buckets are ranges of the sorted
    /// slabs in the round buffer; each destination merges its buckets into
    /// its output range of the round's spare, the ranges in device order.
    /// Merged output ranges and orphan buckets become runs of the final
    /// host step.
    pub(crate) fn exchange_round<K: SortKey, V: SortValue>(
        &self,
        run: &mut Run<K, V>,
        splitters: &SplitterSet,
        mut shares: Vec<Share>,
    ) {
        let topo = self.pool.peer_topology();
        let ranges = splitters.ranges();
        let devices: Vec<usize> = shares.iter().map(|s| s.device).collect();
        let value_bytes = std::mem::size_of::<V>() as u32;
        // A failure here takes the slab down with the device (requeued from
        // the host copy); a stall slows its exchange and download legs.
        // Liveness is read here only: a device already dead (killed by a
        // concurrent sort on the pool) hands its slab back, and one dying
        // later still finishes the round.
        let mut xstall = vec![1.0; shares.len()];
        let mut dead: Vec<bool> = devices.iter().map(|&g| !self.pool.alive(g)).collect();
        for (l, share) in shares.iter_mut().enumerate() {
            let Some(slab) = share.units.first_mut().filter(|u| u.range.len > 0) else {
                continue;
            };
            if !dead[l] {
                if let Some(stall) =
                    self.consult(share.device, slab.range.len, run.round, &mut run.faults)
                {
                    xstall[l] = stall;
                    continue;
                }
                dead[l] = !self.pool.alive(share.device);
            }
            run.requeue(slab.range);
            slab.range.len = 0;
        }

        // Bucket carve + transfers, each gated only on its source's sort.
        let mut incoming: Vec<Vec<Range>> = devices.iter().map(|_| Vec::new()).collect();
        let mut arrivals: Vec<Vec<SimTime>> = vec![Vec::new(); devices.len()];
        for (i, share) in shares.iter().enumerate() {
            let Some(slab) = share.units.first().map(|u| u.range) else {
                continue;
            };
            let (g, ready) = (share.device, share.sort_finish);
            let src_link = &self.pool.devices()[g].link;
            let bounds = bucket_boundaries(run.slices(slab).0, &splitters.cuts);
            for (j, w) in bounds.windows(2).enumerate() {
                let bucket = Range {
                    buf: slab.buf,
                    start: slab.start + w[0],
                    len: w[1] - w[0],
                };
                if bucket.len == 0 {
                    continue;
                }
                if j == i {
                    incoming[j].push(bucket);
                    continue;
                }
                let dst = devices[j];
                let elems = bucket.len as u64;
                let bytes = elems * run.elem_bytes;
                let out_time =
                    src_link.transfer_time(TransferDirection::DeviceToHost, bytes) * xstall[i];
                if dead[j] {
                    // Orphan run: the destination is dead, so this piece
                    // of its range stays on (and downloads from) the source.
                    run.orphans = true;
                    let down = run.tl.schedule(
                        format!("DtH orphan s{g}->d{dst}"),
                        run.res[g].dtoh,
                        ready,
                        out_time,
                    );
                    let device = &self.pool.devices()[g];
                    run.shards.push(ShardReport {
                        device: device.spec.name.clone(),
                        link: device.link.kind.label().to_string(),
                        n: elems,
                        range: ranges[j],
                        report: SortReport::new(elems, K::BYTES, value_bytes),
                        upload: SimTime::ZERO,
                        gpu_sort: SimTime::ZERO,
                        download: down.duration(),
                        finish: down.end,
                        measured_sort: None,
                    });
                    run.shard_devices.push((g, 0));
                    run.runs.push(vec![bucket]);
                    continue;
                }
                let (start, end, direct) = match topo.direct_transfer_time(g, dst, bytes) {
                    Some(t) => {
                        let link = *run
                            .peer_res
                            .entry((g, dst))
                            .or_insert_with(|| run.tl.add_resource(format!("peer {g}->{dst}")));
                        let ev = run.tl.schedule(
                            format!("xfer s{g}->d{dst}"),
                            link,
                            ready,
                            t * xstall[i],
                        );
                        (ev.start, ev.end, true)
                    }
                    None => {
                        let out = run.tl.schedule(
                            format!("stage out s{g}->d{dst}"),
                            run.res[g].dtoh,
                            ready,
                            out_time,
                        );
                        let inn = run.tl.schedule(
                            format!("stage in s{g}->d{dst}"),
                            run.res[dst].htod,
                            out.end,
                            self.pool.devices()[dst]
                                .link
                                .transfer_time(TransferDirection::HostToDevice, bytes)
                                * xstall[i],
                        );
                        (out.start, inn.end, false)
                    }
                };
                run.exchange.push(ExchangeSpan {
                    src: g,
                    dst,
                    elems,
                    bytes,
                    direct,
                    start,
                    end,
                });
                arrivals[j].push(end);
                incoming[j].push(bucket);
            }
        }

        // Per-destination merge + download.  The functional merge stands
        // in for the on-device one and feeds the exchange histogram.
        let spare_buf = run.bufs.len();
        let (mut spare_keys, mut spare_vals) = std::mem::take(&mut run.spare);
        let mut out_start = 0;
        for (j, (share, runs)) in shares.into_iter().zip(incoming).enumerate() {
            let g = share.device;
            if dead[j] && runs.is_empty() {
                continue;
            }
            let device = &self.pool.devices()[g];
            let out_len: usize = runs.iter().map(|r| r.len).sum();
            let out_elems = out_len as u64;
            let (mut merge_time, mut download, mut finish) =
                (SimTime::ZERO, SimTime::ZERO, share.sort_finish);
            if out_elems > 0 {
                // Bandwidth-bound: the output range streams once in and
                // once out of device memory.
                let out_bytes = out_elems * run.elem_bytes;
                let mut deps = std::mem::take(&mut arrivals[j]);
                deps.push(share.sort_finish);
                let merge = run.tl.schedule_after(
                    format!("merge d{g}"),
                    run.res[g].gpu,
                    &deps,
                    device
                        .spec
                        .effective_bandwidth
                        .time_for_bytes(2.0 * out_bytes as f64),
                );
                let down = run.tl.schedule(
                    format!("DtH d{g}"),
                    run.res[g].dtoh,
                    merge.end,
                    device
                        .link
                        .transfer_time(TransferDirection::DeviceToHost, out_bytes)
                        * xstall[j],
                );
                merge_time = merge.duration();
                download = down.duration();
                finish = down.end;
            }
            let out = Range {
                buf: spare_buf,
                start: out_start,
                len: out_len,
            };
            let clock = Instant::now();
            self.merge_into(
                run,
                &runs,
                &mut spare_keys[out.span()],
                &mut spare_vals[out.span()],
            );
            self.inspector
                .histogram(tp::EXCHANGE_DEVICE_MERGE_NS)
                .record_duration(clock.elapsed());
            let slab = share.units.into_iter().next();
            run.shards.push(ShardReport {
                device: device.spec.name.clone(),
                link: device.link.kind.label().to_string(),
                n: out_elems,
                range: share.range,
                report: slab.as_ref().map_or_else(
                    || SortReport::new(0, K::BYTES, value_bytes),
                    |u| u.report.clone(),
                ),
                upload: share.upload,
                gpu_sort: share.gpu_sort + merge_time,
                download,
                finish,
                measured_sort: device
                    .backend
                    .is_measured()
                    .then(|| slab.map_or(Duration::ZERO, |u| u.measured)),
            });
            run.shard_devices.push((g, share.n));
            run.runs.push(vec![out]);
            out_start += out_len;
        }
        run.bufs.push((spare_keys, spare_vals));
    }
}

/// Exchange telemetry of one completed peer-exchange sort: total and
/// per-link bytes, and the share of exchange traffic that overlapped
/// still-running local sorts.
pub(crate) fn note_exchange(t: &Inspector, report: &ShardedReport) {
    let total: u64 = report.exchange.iter().map(|x| x.bytes).sum();
    t.counter(tp::EXCHANGE_BYTES).add(total);
    for x in &report.exchange {
        t.counter(&format!("multi_gpu/exchange/link{}_{}/bytes", x.src, x.dst))
            .add(x.bytes);
    }
    let last_sort = report.last_sort_finish();
    let dur: f64 = report.exchange.iter().map(|x| x.duration().secs()).sum();
    if dur > 0.0 {
        let overlapped: f64 = report
            .exchange
            .iter()
            .map(|x| (x.end.min(last_sort) - x.start).max(SimTime::ZERO).secs())
            .sum();
        t.float_gauge(tp::EXCHANGE_OVERLAP_RATIO)
            .set(overlapped / dur);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device_pool::SimDevice;
    use crate::{FaultEventKind, SortError};
    use gpu_sim::{DeviceSpec, FaultKind, FaultPlan};
    use hrs_core::{HybridRadixSorter, SortConfig};
    use workloads::{uniform_keys, KeyCodec};

    fn exchange_sorter(pool: DevicePool) -> ShardedSorter {
        let gpu = HybridRadixSorter::new(SortConfig::keys_64().scaled_for(40_000, 250_000_000));
        ShardedSorter::new(pool)
            .with_sorter(gpu)
            .with_merge_threads(4)
            .with_recombine_strategy(RecombineStrategy::PeerExchange)
    }

    #[test]
    fn slab_lengths_sum_and_follow_weights() {
        let lens = slab_lengths(100, &[1.0, 1.0, 2.0]);
        assert_eq!(lens.iter().sum::<usize>(), 100);
        assert_eq!(lens, vec![25, 25, 50]);
        assert_eq!(slab_lengths(0, &[1.0, 1.0]), vec![0, 0]);
        // Heavy skew still covers every element exactly once.
        let skew = slab_lengths(7, &[0.001, 10.0]);
        assert_eq!(skew.iter().sum::<usize>(), 7);
    }

    #[test]
    fn bucket_boundaries_tile_a_sorted_slab() {
        let sorted: Vec<u64> = vec![1, 5, 5, 9, 20, 21];
        let b = bucket_boundaries(&sorted, &[5, 20]);
        assert_eq!(b, vec![0, 1, 4, 6]);
        // Empty slab: all boundaries collapse to zero.
        assert_eq!(bucket_boundaries::<u64>(&[], &[5, 20]), vec![0, 0, 0, 0]);
    }

    #[test]
    fn peer_exchange_sorts_on_an_nvlink_mesh() {
        let keys = uniform_keys::<u64>(120_000, 1);
        let expected = KeyCodec::std_sorted(&keys);
        let mut k = keys;
        let sorter = exchange_sorter(DevicePool::nvlink_mesh_cluster(4));
        let report = sorter.sort(&mut k);
        assert_eq!(k, expected);
        assert_eq!(report.recombine, RecombineStrategy::PeerExchange);
        assert_eq!(report.n, 120_000);
        assert_eq!(report.shards.iter().map(|s| s.n).sum::<u64>(), 120_000);
        assert!(!report.exchange.is_empty());
        assert!(
            report.exchange.iter().all(|x| x.direct),
            "mesh pairs are direct"
        );
        assert!(report.critical_path.secs() > 0.0);
        report.span_invariants().expect("monotone spans");
    }

    #[test]
    fn peer_exchange_stages_through_host_on_pcie() {
        let keys = uniform_keys::<u64>(90_000, 3);
        let expected = KeyCodec::std_sorted(&keys);
        let mut k = keys;
        let report = exchange_sorter(DevicePool::titan_cluster(3)).sort(&mut k);
        assert_eq!(k, expected);
        assert!(!report.exchange.is_empty());
        assert!(
            report.exchange.iter().all(|x| !x.direct),
            "no peer links: every pair stages through the host"
        );
        report.span_invariants().expect("monotone spans");
    }

    #[test]
    fn pairs_travel_through_the_exchange() {
        let n = 60_000usize;
        let keys = uniform_keys::<u32>(n, 5);
        let mut sorted = keys.clone();
        let mut vals: Vec<u32> = (0..n as u32).collect();
        let gpu = HybridRadixSorter::new(SortConfig::pairs_32_32().scaled_for(60_000, 500_000_000));
        let sorter = ShardedSorter::new(DevicePool::nvlink_mesh_cluster(3))
            .with_sorter(gpu)
            .with_recombine_strategy(RecombineStrategy::PeerExchange);
        let report = sorter.sort_pairs(&mut sorted, &mut vals);
        assert!(workloads::pairs::verify_indexed_pair_sort(
            &keys, &sorted, &vals
        ));
        assert_eq!(report.recombine, RecombineStrategy::PeerExchange);
    }

    #[test]
    fn empty_tiny_and_single_device_inputs() {
        let sorter = exchange_sorter(DevicePool::nvlink_mesh_cluster(4));
        let mut empty: Vec<u64> = Vec::new();
        let report = sorter.sort(&mut empty);
        assert!(empty.is_empty());
        assert_eq!(report.n, 0);
        assert!(report.exchange.is_empty());

        let mut tiny = vec![9u64, 1, 5];
        sorter.sort(&mut tiny);
        assert_eq!(tiny, vec![1, 5, 9]);

        // One device: no exchange partners, still sorts.
        let solo = exchange_sorter(DevicePool::titan_cluster(1));
        let keys = uniform_keys::<u64>(30_000, 7);
        let expected = KeyCodec::std_sorted(&keys);
        let mut k = keys;
        let report = solo.sort(&mut k);
        assert_eq!(k, expected);
        assert!(report.exchange.is_empty());
    }

    #[test]
    fn auto_resolves_by_cost_model() {
        let auto = exchange_sorter(DevicePool::nvlink_mesh_cluster(4))
            .with_recombine_strategy(RecombineStrategy::Auto);
        // A multi-device NVLink mesh always beats the single host stream.
        assert_eq!(
            auto.resolve_recombine(16 << 20),
            RecombineStrategy::PeerExchange
        );
        // Below two devices there is nobody to exchange with.
        let solo = exchange_sorter(DevicePool::titan_cluster(1))
            .with_recombine_strategy(RecombineStrategy::Auto);
        assert_eq!(
            solo.resolve_recombine(16 << 20),
            RecombineStrategy::HostMerge
        );
        // Explicit strategies pass through untouched.
        let host = exchange_sorter(DevicePool::titan_cluster(2))
            .with_recombine_strategy(RecombineStrategy::HostMerge);
        assert_eq!(
            host.resolve_recombine(1 << 30),
            RecombineStrategy::HostMerge
        );
        // Reports never carry Auto.
        let mut k = uniform_keys::<u64>(50_000, 9);
        let report = auto.sort(&mut k);
        assert_ne!(report.recombine, RecombineStrategy::Auto);
    }

    #[test]
    fn exchange_estimate_beats_host_merge_on_a_mesh() {
        let pool = DevicePool::nvlink_mesh_cluster(8);
        let bytes = 16u64 << 20;
        let peer = estimate_exchange_time(&pool, bytes);
        let host = estimate_host_merge_tail(&pool, bytes);
        assert!(peer.secs() > 0.0 && host.secs() > 0.0);
        assert!(
            host.secs() / peer.secs() >= 2.0,
            "peer {peer} vs host {host}: expected ≥ 2× on an 8-device mesh"
        );
    }

    #[test]
    fn exchange_telemetry_subtree_is_populated() {
        let sorter = exchange_sorter(DevicePool::nvlink_mesh_cluster(4));
        let mut k = uniform_keys::<u64>(80_000, 11);
        let report = sorter.sort(&mut k);
        let snap = sorter.inspector().snapshot();
        let ex = snap.node("multi_gpu/exchange").unwrap();
        let total: u64 = report.exchange.iter().map(|x| x.bytes).sum();
        assert_eq!(ex.uint("bytes"), Some(total));
        assert!(total > 0);
        assert!(ex.double("overlap_ratio").is_some());
        assert!(
            snap.node("multi_gpu/exchange/device_merge_ns")
                .unwrap()
                .uint("count")
                .unwrap()
                >= 4
        );
        // Per-ordered-pair link counters exist for every active pair.
        assert!(
            snap.node("multi_gpu/exchange/link0_1")
                .unwrap()
                .uint("bytes")
                .unwrap()
                > 0
        );
    }

    #[test]
    fn host_merge_stays_the_default() {
        let sorter = ShardedSorter::with_defaults();
        assert_eq!(sorter.recombine_strategy(), RecombineStrategy::HostMerge);
        let gpu = HybridRadixSorter::new(SortConfig::keys_64().scaled_for(40_000, 250_000_000));
        let sorter = ShardedSorter::new(DevicePool::titan_cluster(2)).with_sorter(gpu);
        let mut k = uniform_keys::<u64>(40_000, 13);
        let report = sorter.sort(&mut k);
        assert_eq!(report.recombine, RecombineStrategy::HostMerge);
        assert!(report.exchange.is_empty());
    }

    #[test]
    fn skewed_capacity_weights_still_sort() {
        // P100 on NVLink next to a GTX 980 on PCIe, duplex peer link.
        let pool = DevicePool::new(vec![
            SimDevice::on_nvlink2(DeviceSpec::tesla_p100()),
            SimDevice::on_pcie3(DeviceSpec::gtx_980()),
        ]);
        let topo = gpu_sim::PeerTopology::through_host(2).with_duplex_link(
            0,
            1,
            gpu_sim::LinkSpec::nvlink2(),
        );
        let pool = pool.with_peer_topology(topo);
        let gpu = HybridRadixSorter::new(SortConfig::keys_64().scaled_for(75_000, 250_000_000));
        let keys = uniform_keys::<u64>(150_000, 15);
        let expected = KeyCodec::std_sorted(&keys);
        let mut k = keys;
        let report = ShardedSorter::new(pool)
            .with_sorter(gpu)
            .with_recombine_strategy(RecombineStrategy::PeerExchange)
            .sort(&mut k);
        assert_eq!(k, expected);
        assert!(report.exchange.iter().all(|x| x.direct));
        report.span_invariants().expect("monotone spans");
    }

    #[test]
    fn mid_exchange_device_failure_recovers() {
        // op 0 = local sort (clean), op 1 = mid-exchange: device 1 sorts
        // its slab, then dies holding it; the slab requeues onto the
        // survivors and buckets already destined to device 1 stay with
        // their sources as orphan runs.
        let sorter = exchange_sorter(DevicePool::nvlink_mesh_cluster(3))
            .with_fault_plan(FaultPlan::fail_device(1, 1));
        let keys = uniform_keys::<u64>(90_000, 17);
        let expected = KeyCodec::std_sorted(&keys);
        let mut k = keys;
        let report = sorter.try_sort(&mut k).expect("survivors must recover");
        assert_eq!(k, expected);
        assert_eq!(report.recombine, RecombineStrategy::PeerExchange);
        assert!(!sorter.pool().alive(1));
        assert_eq!(report.faults.len(), 1);
        assert_eq!(report.faults[0].kind, FaultEventKind::DeviceFailure);
        assert!(report.faults[0].requeued > 0);
        assert!(report.faults[0].recovered);
        assert_eq!(report.shards.iter().map(|s| s.n).sum::<u64>(), 90_000);
        report.span_invariants().expect("monotone spans");
    }

    #[test]
    fn mid_exchange_stall_slows_but_loses_nothing() {
        let keys = uniform_keys::<u64>(80_000, 19);
        let expected = KeyCodec::std_sorted(&keys);
        // The same plan with the stall never firing, for an
        // apples-to-apples critical path.
        let clean = exchange_sorter(DevicePool::nvlink_mesh_cluster(2))
            .with_fault_plan(FaultPlan::stall_transfer(0, 999, 6.0));
        let mut kc = keys.clone();
        let clean_path = clean.try_sort(&mut kc).unwrap().critical_path;
        let stalled = exchange_sorter(DevicePool::nvlink_mesh_cluster(2))
            .with_fault_plan(FaultPlan::stall_transfer(0, 1, 6.0));
        let mut ks = keys;
        let report = stalled.try_sort(&mut ks).unwrap();
        assert_eq!(ks, expected);
        assert_eq!(report.faults.len(), 1);
        assert_eq!(report.faults[0].kind, FaultEventKind::TransferStall);
        assert_eq!(report.faults[0].requeued, 0);
        assert!(
            report.critical_path > clean_path,
            "stalled {} vs clean {clean_path}",
            report.critical_path
        );
    }

    #[test]
    fn all_devices_dead_mid_exchange_restores_the_input() {
        let plan = FaultPlan::new(vec![
            gpu_sim::FaultSpec {
                device: 0,
                op: 1,
                kind: FaultKind::DeviceFail,
            },
            gpu_sim::FaultSpec {
                device: 1,
                op: 1,
                kind: FaultKind::DeviceFail,
            },
        ]);
        let sorter = exchange_sorter(DevicePool::nvlink_mesh_cluster(2)).with_fault_plan(plan);
        let keys = uniform_keys::<u64>(50_000, 21);
        let mut k = keys.clone();
        let err = sorter.try_sort(&mut k).unwrap_err();
        assert_eq!(err, SortError::AllDevicesDead { failed: 2 });
        let mut lost = k;
        lost.sort_unstable();
        let mut orig = keys;
        orig.sort_unstable();
        assert_eq!(lost, orig, "failure must not lose or corrupt elements");
    }

    #[test]
    fn strategy_labels_are_stable() {
        assert_eq!(RecombineStrategy::HostMerge.label(), "host-merge");
        assert_eq!(RecombineStrategy::PeerExchange.label(), "peer-exchange");
        assert_eq!(RecombineStrategy::Auto.label(), "auto");
        assert_eq!(RecombineStrategy::default(), RecombineStrategy::HostMerge);
    }
}
