//! The traced run's per-layer decomposition.
//!
//! Each probe calls one layer's public functions from this crate, one
//! phase at a time, with a timer around every call, on the same input the
//! end-to-end operation sorts:
//!
//! * core (`hrs_core`): the sorter call without and with a `SorterProbe`
//!   attached (the tracing overhead), then its pass-0 histogram and
//!   scatter re-run on their own through `histogram::block_histogram_into`
//!   and `scatter::scatter_block`;
//! * engine (`multi_gpu`): splitter search, shard scatter, the per-lane
//!   sorts and the p-way merge that `ShardedSorter::sort_pairs` chains;
//! * out-of-core (`multi_gpu::ooc`, `hetero`): partition, chunk carve, the
//!   chunk sorts and the merge over every chunk run;
//! * service (`sort_service`): a closed client loop reading each outcome's
//!   queue wait and the service's lifetime counters.
//!
//! A layer's self time is its whole call minus the phases timed here.

use crate::input::{Input, Key, Payload, RequestTemplate};
use crate::metrics::{median, percentile, Metric, RunResult};
use gpu_sim::HistogramStrategy;
use hetero::multiway_merge::parallel_merge_sorted_runs_by;
use hrs_core::digit::{digit_of, radix_of_pass};
use hrs_core::histogram::block_histogram_into;
use hrs_core::scatter::{scatter_block, ScatterParams, ScatterStaging};
use hrs_core::{Executor, HybridRadixSorter, SharedMut, SortReport, SorterProbe};
use multi_gpu::partition::{compute_splitters, compute_splitters_with, PartitionConfig};
use multi_gpu::{scatter_into_shards, DevicePool, OocConfig, OocPlan, ShardedSorter, SimDevice};
use sort_service::{ServiceConfig, ServiceStats, SortService, SortTicket};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use telemetry::Inspector;
use workloads::KeyCodec;

/// Worker threads of every executor the benchmark builds (the machine's
/// two cores).
pub const WORKERS: usize = 2;

/// One sorted unit (a whole input, a shard or a chunk).
pub type Unit<K, V> = (Vec<K>, Vec<V>);

/// A device pool plus the host-side settings of the sharded engine.
#[derive(Debug, Clone)]
pub struct EngineStack {
    /// The devices.
    pub pool: DevicePool,
    /// Executor of the host phases (partition scatter, lane fan-out).
    pub host_exec: Executor,
    /// Threads of the host p-way merge.
    pub merge_threads: usize,
    /// Chunking of the out-of-core path.
    pub ooc: OocConfig,
}

impl EngineStack {
    /// Two single-worker CPU-socket lanes (sorted for real, one after the
    /// other), four out-of-core chunks per device.
    pub fn cpu_sockets() -> Self {
        EngineStack {
            pool: DevicePool::new(vec![SimDevice::cpu_socket(1); 2]),
            host_exec: Executor::with_workers(WORKERS),
            merge_threads: WORKERS,
            ooc: OocConfig::default().with_chunks_per_device(4),
        }
    }

    /// Two simulated Titan X lanes (sorted on the host, fanned out over
    /// the host executor).
    pub fn titan_pair() -> Self {
        EngineStack {
            pool: DevicePool::titan_cluster(2),
            ..EngineStack::cpu_sockets()
        }
    }

    /// The sharded sorter these settings describe.
    pub fn sorter(&self) -> ShardedSorter {
        ShardedSorter::new(self.pool.clone())
            .with_host_executor(self.host_exec)
            .with_merge_threads(self.merge_threads)
            .with_ooc_config(self.ooc.clone())
    }

    /// One probed lane sorter per pool device, built like the engine's own
    /// device lanes.
    pub fn lanes(&self) -> Vec<Lane> {
        self.pool
            .devices()
            .iter()
            .map(|d| {
                let sorter = HybridRadixSorter::with_defaults()
                    .with_device(d.spec.clone())
                    .with_executor(d.backend.executor());
                Lane::new(sorter, d.backend.is_measured())
            })
            .collect()
    }
}

/// A core sorter with a [`SorterProbe`] attached, and its unprobed twin.
#[derive(Debug)]
pub struct Lane {
    /// The probed sorter.
    pub sorter: HybridRadixSorter,
    /// The same sorter without the probe (the tracing overhead's reference).
    pub plain: HybridRadixSorter,
    /// Its probe (fan-outs, worker busy time).
    pub probe: Arc<SorterProbe>,
    /// Whether the engine runs this lane alone (CPU socket) rather than
    /// fanned out with the other simulated lanes.
    pub measured: bool,
}

impl Lane {
    /// Attaches a fresh probe to `sorter`, keeping an unprobed clone.
    pub fn new(sorter: HybridRadixSorter, measured: bool) -> Self {
        let probe = SorterProbe::register(&Inspector::new(), "core", sorter.executor().workers());
        Lane {
            plain: sorter.clone(),
            sorter: sorter.with_probe(probe.clone()),
            probe,
            measured,
        }
    }
}

// ---------------------------------------------------------------- core --

/// Pass-0 phase times of one unit.
#[derive(Debug, Clone, Copy, Default)]
struct Pass0 {
    hist: Duration,
    hist_atomics: Duration,
    scatter: Duration,
}

/// Per-worker scatter state: cursor strip and write-combining lines.
struct WorkerScratch<K, V> {
    cursor: Vec<usize>,
    stage_keys: Vec<K>,
    stage_vals: Vec<V>,
    filled: Vec<u32>,
}

/// Re-runs the sorter's pass 0 on `keys` phase by phase: block histograms
/// with the sorter's default strategy, again with atomics only, then the
/// block scatter from cursors built out of those histograms.  All three
/// fan out over the sorter's own executor and use its effective
/// configuration.  Returns the times and whether the results agree.
fn pass0<K: Key, V: Payload>(sorter: &HybridRadixSorter, keys: &[K], vals: &[V]) -> (Pass0, bool) {
    let value_bytes = if V::PAIRS {
        std::mem::size_of::<V>() as u32
    } else {
        0
    };
    let config = sorter.effective_config(K::BYTES, value_bytes);
    let opts = sorter.optimizations();
    let exec = sorter.executor();
    let radix = radix_of_pass(K::BITS, config.digit_bits, 0);
    let kpb = config.keys_per_block;
    let kpt = config.keys_per_thread as usize;
    let n = keys.len();
    let n_blocks = n.div_ceil(kpb);
    let block = |b: usize| b * kpb..((b + 1) * kpb).min(n);

    let histograms = |strategy: HistogramStrategy, counts: &mut Vec<u32>| {
        counts.clear();
        counts.resize(n_blocks * radix, 0);
        let start = Instant::now();
        exec.for_each_chunk_mut(counts, radix, |b, strip| {
            block_histogram_into(strip, &keys[block(b)], config.digit_bits, 0, strategy, kpt);
        });
        start.elapsed()
    };
    let strategy = if opts.thread_reduction_histogram {
        HistogramStrategy::ThreadReduction
    } else {
        HistogramStrategy::AtomicsOnly
    };
    let mut counts = Vec::new();
    let hist = histograms(strategy, &mut counts);
    let mut atomic_counts = Vec::new();
    let hist_atomics = histograms(HistogramStrategy::AtomicsOnly, &mut atomic_counts);
    let mut ok = counts == atomic_counts;

    // Write bases: digit-major prefix over all blocks (the root bucket
    // covers the whole input), built outside the timed scatter.
    let mut bases = vec![0usize; n_blocks * radix];
    let mut run = 0usize;
    for d in 0..radix {
        for b in 0..n_blocks {
            bases[b * radix + d] = run;
            run += counts[b * radix + d] as usize;
        }
    }

    let line_keys = config.scatter_line_keys(K::BYTES as usize);
    let staged = opts.staged_scatter && line_keys > 1;
    let lines = if staged { radix * line_keys } else { 0 };
    let workers: Vec<Mutex<WorkerScratch<K, V>>> = (0..exec.workers())
        .map(|_| {
            Mutex::new(WorkerScratch {
                cursor: vec![0; radix],
                stage_keys: vec![K::default(); lines],
                stage_vals: vec![V::default(); if V::PAIRS { lines } else { 0 }],
                filled: vec![0; radix],
            })
        })
        .collect();
    let params = ScatterParams {
        digit_bits: config.digit_bits,
        pass: 0,
        radix,
        keys_per_block: kpb,
        keys_per_thread: kpt,
        lookahead_enabled: opts.lookahead,
        lookahead: config.lookahead,
        skew_threshold: config.lookahead_skew_threshold,
    };
    let mut dst_keys = vec![K::default(); n];
    let mut dst_vals = vec![V::default(); if V::PAIRS { n } else { 0 }];
    let scatter = {
        let dk = SharedMut::new(dst_keys.as_mut_slice());
        let dv = SharedMut::new(dst_vals.as_mut_slice());
        let start = Instant::now();
        exec.for_each_task(n_blocks, |b, w| {
            let mut guard = workers[w].lock().expect("worker scratch lock poisoned");
            let ws = &mut *guard;
            ws.cursor
                .copy_from_slice(&bases[b * radix..(b + 1) * radix]);
            let max_bin = counts[b * radix..(b + 1) * radix]
                .iter()
                .copied()
                .max()
                .unwrap_or(0);
            let block_vals = if V::PAIRS {
                &vals[block(b)]
            } else {
                &vals[0..0]
            };
            let mut staging = staged.then(|| ScatterStaging {
                keys: &mut ws.stage_keys,
                vals: &mut ws.stage_vals,
                filled: &mut ws.filled,
                line_keys,
            });
            scatter_block(
                &keys[block(b)],
                block_vals,
                &mut ws.cursor,
                &dk,
                &dv,
                &params,
                max_bin,
                staging.as_mut(),
            );
        });
        start.elapsed()
    };
    let digit = |k: &K| digit_of(k.to_radix(), K::BITS, config.digit_bits, 0);
    ok &= dst_keys.windows(2).all(|w| digit(&w[0]) <= digit(&w[1]));
    (
        Pass0 {
            hist,
            hist_atomics,
            scatter,
        },
        ok,
    )
}

/// One repetition of the core probe, summed over its units.
#[derive(Debug, Clone, Default)]
pub struct CoreRep {
    /// The units sorted by the probed sorters.
    pub sort: Duration,
    /// The same units sorted by the unprobed twins.
    pub plain: Duration,
    pass0: Pass0,
    /// Σ over units of executor workers × sort time.
    worker_capacity: Duration,
    report: Option<SortReport>,
    max_passes: u32,
}

/// Sorts every unit through its lane (`lane_of[u]`) unprobed and probed
/// (probed first when `probed_first`, so alternating repetitions cancel an
/// order bias), and re-runs pass 0 of every unit that ran a counting pass.
pub fn core_rep<K: Key, V: Payload>(
    lanes: &[Lane],
    lane_of: &[usize],
    units: &[Unit<K, V>],
    probed_first: bool,
    result: &mut RunResult,
) -> CoreRep {
    let mut rep = CoreRep::default();
    let (mut keys, mut vals) = (Vec::new(), Vec::new());
    for ((unit_keys, unit_vals), &l) in units.iter().zip(lane_of) {
        let lane = &lanes[l];
        let mut timed_sort = |sorter: &HybridRadixSorter, result: &mut RunResult| {
            keys.clear();
            keys.extend_from_slice(unit_keys);
            vals.clear();
            vals.extend_from_slice(unit_vals);
            let start = Instant::now();
            let report = sorter.sort_pairs(&mut keys, &mut vals);
            let elapsed = start.elapsed();
            result.record(KeyCodec::is_radix_sorted(&keys) && keys.len() == unit_keys.len());
            (report, elapsed)
        };
        let (report, elapsed) = if probed_first {
            let probed = timed_sort(&lane.sorter, result);
            rep.plain += timed_sort(&lane.plain, result).1;
            probed
        } else {
            rep.plain += timed_sort(&lane.plain, result).1;
            timed_sort(&lane.sorter, result)
        };
        rep.sort += elapsed;
        rep.worker_capacity += elapsed * lane.sorter.executor().workers() as u32;
        if !report.passes.is_empty() {
            let (p, ok) = pass0(&lane.sorter, unit_keys, unit_vals);
            rep.pass0.hist += p.hist;
            rep.pass0.hist_atomics += p.hist_atomics;
            rep.pass0.scatter += p.scatter;
            result.record(ok);
        }
        rep.max_passes = rep.max_passes.max(report.counting_passes());
        match rep.report.as_mut() {
            Some(total) => total.absorb(&report),
            None => rep.report = Some(report),
        }
    }
    rep
}

/// Emits the `core.*` metrics from the repetitions and the lanes' probes.
pub fn core_metrics<K: Key, V: Payload>(reps: &[CoreRep], lanes: &[Lane], out: &mut RunResult) {
    let pick = |f: &dyn Fn(&CoreRep) -> Duration| median(&reps.iter().map(f).collect::<Vec<_>>());
    let sort = pick(&|r| r.sort);
    let hist = pick(&|r| r.pass0.hist);
    let scatter = pick(&|r| r.pass0.scatter);
    out.push(Metric::ms("core.sort_ms", sort));
    out.push(Metric::ms("core.hist_pass0_ms", hist));
    out.push(Metric::ms(
        "core.hist_pass0_atomics_ms",
        pick(&|r| r.pass0.hist_atomics),
    ));
    out.push(Metric::ms("core.scatter_pass0_ms", scatter));
    let rest: Vec<_> = reps
        .iter()
        .map(|r| (r.sort, r.pass0.hist + r.pass0.scatter))
        .collect();
    out.push(Metric::self_ms("core.rest_ms", &rest));

    let last = reps.last().expect("at least one core repetition");
    let report = last.report.as_ref().expect("at least one core unit");
    let n = report.n.max(1) as f64;
    let pass_keys: u64 = report.passes.iter().map(|p| p.n_keys).sum();
    let key_bytes = K::BYTES as f64;
    let record_bytes = key_bytes
        + if V::PAIRS {
            std::mem::size_of::<V>() as f64
        } else {
            0.0
        };
    // Computed, not measured: every counting pass reads the keys for the
    // histogram and reads + writes each record for the scatter; the local
    // sort reads and writes each record once.
    let computed_bytes = pass_keys as f64 * (key_bytes + 2.0 * record_bytes)
        + report.local.n_keys as f64 * 2.0 * record_bytes;
    out.push(Metric::count("core.passes", last.max_passes as u64));
    out.push(Metric::ratio(
        "core.pass_keys_per_key",
        pass_keys as f64 / n,
    ));
    out.push(Metric::ratio(
        "core.local_keys_frac",
        report.local.n_keys as f64 / n,
    ));
    out.push(Metric::bytes_per_key(
        "core.computed_bytes_per_key",
        computed_bytes / n,
    ));

    let sorts: u64 = lanes.iter().map(|l| l.probe.sorts()).sum();
    let fanouts: u64 = lanes.iter().map(|l| l.probe.exec_probe().fanouts()).sum();
    let busy_ns: u64 = lanes
        .iter()
        .map(|l| {
            let p = l.probe.exec_probe();
            (0..p.workers()).map(|w| p.busy_ns(w)).sum::<u64>()
        })
        .sum();
    let capacity: Duration = reps.iter().map(|r| r.worker_capacity).sum();
    out.push(Metric::ratio(
        "core.fanouts_per_sort",
        fanouts as f64 / sorts.max(1) as f64,
    ));
    out.push(Metric::ratio(
        "core.worker_busy_frac",
        busy_ns as f64 / (capacity.as_nanos().max(1) as f64),
    ));
    let arena: usize = lanes
        .iter()
        .map(|l| l.sorter.arena_stats().total_bytes())
        .sum();
    out.push(Metric::mib("core.arena_mb", arena as u64));
}

// -------------------------------------------------------------- engine --

fn pair_key<K: Key, V>(record: &(K, V)) -> u64 {
    record.0.to_radix()
}

/// Sorts every unit through lane `lane_of[u]` the way the engine does:
/// simulated lanes fan out over `exec` (one task per lane, its units in
/// order), CPU-socket lanes run afterwards one at a time.  Returns each
/// unit's sort time and the wall time of the whole phase.
fn sort_units<K: Key, V: Payload>(
    lanes: &[Lane],
    lane_of: &[usize],
    exec: &Executor,
    units: &mut [Unit<K, V>],
) -> (Vec<Duration>, Duration) {
    let start = Instant::now();
    let times: Vec<Mutex<Duration>> = units.iter().map(|_| Mutex::new(Duration::ZERO)).collect();
    let cells: Vec<Mutex<&mut Unit<K, V>>> = units.iter_mut().map(Mutex::new).collect();
    let sort_unit = |u: usize| {
        let mut cell = cells[u].lock().expect("unit lock poisoned");
        let (keys, vals) = &mut **cell;
        let t = Instant::now();
        lanes[lane_of[u]].sorter.sort_pairs(keys, vals);
        *times[u].lock().expect("time lock poisoned") = t.elapsed();
    };
    let simulated: Vec<usize> = (0..lanes.len()).filter(|&l| !lanes[l].measured).collect();
    exec.for_each_task(simulated.len(), |t, _worker| {
        for u in (0..lane_of.len()).filter(|&u| lane_of[u] == simulated[t]) {
            sort_unit(u);
        }
    });
    for u in (0..lane_of.len()).filter(|&u| lanes[lane_of[u]].measured) {
        sort_unit(u);
    }
    let times = times
        .into_iter()
        .map(|t| t.into_inner().expect("time lock poisoned"))
        .collect();
    (times, start.elapsed())
}

/// The engine's recombination: zip each sorted run into `(key, value)`
/// records, p-way merge them, unzip.  Returns the merged keys, values and
/// the time of all three steps.
fn merge_runs<K: Key, V: Payload>(
    runs: &[Unit<K, V>],
    threads: usize,
) -> (Vec<K>, Vec<V>, Duration) {
    let start = Instant::now();
    let zipped: Vec<Vec<(K, V)>> = runs
        .iter()
        .map(|(k, v)| k.iter().copied().zip(v.iter().copied()).collect())
        .collect();
    let refs: Vec<&[(K, V)]> = zipped.iter().map(Vec::as_slice).collect();
    let merged = parallel_merge_sorted_runs_by(&refs, threads, pair_key::<K, V>);
    let keys = merged.iter().map(|r| r.0).collect();
    let vals = merged.into_iter().map(|r| r.1).collect();
    (keys, vals, start.elapsed())
}

/// One repetition of the engine probe.
#[derive(Debug, Clone, Default)]
pub struct EngineRep {
    op: Duration,
    splitters: Duration,
    shard_scatter: Duration,
    lane_times: Vec<Duration>,
    lane_phase: Duration,
    merge: Duration,
    imbalance: f64,
}

/// Times `ShardedSorter::sort_pairs` on `input`, then the same sort phase
/// by phase.  Returns the repetition and the shard inputs (the lane
/// inputs the core probe can reuse).
pub fn engine_rep<K: Key, V: Payload>(
    stack: &EngineStack,
    sorter: &ShardedSorter,
    lanes: &[Lane],
    input: &Input<K, V>,
    result: &mut RunResult,
) -> (EngineRep, Vec<Unit<K, V>>) {
    let (mut keys, mut vals) = (Vec::new(), Vec::new());
    input.copy_into(&mut keys, &mut vals);
    let start = Instant::now();
    let report = sorter.sort_pairs(&mut keys, &mut vals);
    let op = start.elapsed();
    result.record(input.check(&keys, &vals));

    input.copy_into(&mut keys, &mut vals);
    let start = Instant::now();
    let splitters = compute_splitters_with(
        &keys,
        &stack.pool.capacity_weights(),
        &PartitionConfig::default(),
        &stack.host_exec,
    );
    let t_splitters = start.elapsed();
    let start = Instant::now();
    let (shard_keys, shard_vals) =
        scatter_into_shards(&mut keys, &mut vals, &splitters, &stack.host_exec);
    let t_scatter = start.elapsed();
    let mut units: Vec<Unit<K, V>> = shard_keys.into_iter().zip(shard_vals).collect();
    let shard_inputs = units.clone();
    let lane_of: Vec<usize> = (0..units.len()).collect();
    let (lane_times, lane_phase) = sort_units(lanes, &lane_of, &stack.host_exec, &mut units);
    let (merged_keys, merged_vals, merge) = merge_runs(&units, stack.merge_threads);
    result.record(input.check(&merged_keys, &merged_vals));
    (
        EngineRep {
            op,
            splitters: t_splitters,
            shard_scatter: t_scatter,
            lane_times,
            lane_phase,
            merge,
            imbalance: report.shard_imbalance(),
        },
        shard_inputs,
    )
}

/// Emits the `engine.*` metrics.
pub fn engine_metrics(reps: &[EngineRep], out: &mut RunResult) {
    let pick = |f: &dyn Fn(&EngineRep) -> Duration| median(&reps.iter().map(f).collect::<Vec<_>>());
    let splitters = pick(&|r| r.splitters);
    let scatter = pick(&|r| r.shard_scatter);
    let merge = pick(&|r| r.merge);
    out.push(Metric::ms("engine.splitters_ms", splitters));
    out.push(Metric::ms("engine.shard_scatter_ms", scatter));
    out.push(Metric::ms(
        "engine.lane_sort_ms_max",
        pick(&|r| r.lane_times.iter().copied().max().unwrap_or_default()),
    ));
    out.push(Metric::ms(
        "engine.lane_sort_ms_sum",
        pick(&|r| r.lane_times.iter().sum()),
    ));
    out.push(Metric::ms("engine.merge_ms", merge));
    let self_reps: Vec<_> = reps
        .iter()
        .map(|r| (r.op, r.splitters + r.shard_scatter + r.lane_phase + r.merge))
        .collect();
    out.push(Metric::self_ms("engine.self_ms", &self_reps));
    let imbalance = reps.last().map_or(1.0, |r| r.imbalance);
    out.push(Metric::ratio("engine.shard_imbalance", imbalance));
}

// ---------------------------------------------------------- out-of-core --

/// One repetition of the out-of-core probe.
#[derive(Debug, Clone, Default)]
pub struct OocRep {
    op: Duration,
    partition: Duration,
    chunk_times: Vec<Duration>,
    chunk_phase: Duration,
    merge: Duration,
}

/// Times `ShardedSorter::sort_out_of_core_pairs` on `input`, then the same
/// pipeline phase by phase.  Returns the repetition, the chunk inputs and
/// the device (lane) of every chunk.
pub fn ooc_rep<K: Key, V: Payload>(
    stack: &EngineStack,
    sorter: &ShardedSorter,
    lanes: &[Lane],
    input: &Input<K, V>,
    result: &mut RunResult,
) -> (OocRep, Vec<Unit<K, V>>, Vec<usize>) {
    let (mut keys, mut vals) = (Vec::new(), Vec::new());
    input.copy_into(&mut keys, &mut vals);
    let start = Instant::now();
    sorter.sort_out_of_core_pairs(&mut keys, &mut vals);
    let op = start.elapsed();
    result.record(input.check(&keys, &vals));

    input.copy_into(&mut keys, &mut vals);
    let start = Instant::now();
    let splitters = compute_splitters(
        &keys,
        &stack.pool.capacity_weights(),
        &PartitionConfig::default(),
    );
    let (shard_keys, shard_vals) =
        scatter_into_shards(&mut keys, &mut vals, &splitters, &stack.host_exec);
    let lens: Vec<usize> = shard_keys.iter().map(Vec::len).collect();
    let elem_bytes = K::BYTES as u64 + std::mem::size_of::<V>() as u64;
    let plan = OocPlan::for_shards(&stack.pool, &lens, elem_bytes, &stack.ooc);
    let mut units: Vec<Unit<K, V>> = Vec::with_capacity(plan.total_chunks());
    let mut lane_of = Vec::with_capacity(plan.total_chunks());
    // Carve each shard into its chunks by moving, back to front, as the
    // out-of-core driver does.
    for (dev, (mut ks, mut vs)) in shard_keys.into_iter().zip(shard_vals).enumerate() {
        let ranges = &plan.device_chunks[dev].ranges;
        let mut rear = Vec::with_capacity(ranges.len());
        for &(s, _) in ranges.iter().rev() {
            rear.push((ks.split_off(s), vs.split_off(s)));
        }
        units.extend(rear.into_iter().rev());
        lane_of.extend(std::iter::repeat_n(dev, ranges.len()));
    }
    let partition = start.elapsed();
    let chunk_inputs = units.clone();
    let (chunk_times, chunk_phase) = sort_units(lanes, &lane_of, &stack.host_exec, &mut units);
    let (merged_keys, merged_vals, merge) = merge_runs(&units, stack.merge_threads);
    result.record(input.check(&merged_keys, &merged_vals));
    (
        OocRep {
            op,
            partition,
            chunk_times,
            chunk_phase,
            merge,
        },
        chunk_inputs,
        lane_of,
    )
}

/// Emits the `ooc.*` metrics.
pub fn ooc_metrics(reps: &[OocRep], out: &mut RunResult) {
    let pick = |f: &dyn Fn(&OocRep) -> Duration| median(&reps.iter().map(f).collect::<Vec<_>>());
    let partition = pick(&|r| r.partition);
    let merge = pick(&|r| r.merge);
    let chunks = reps.last().map_or(0, |r| r.chunk_times.len());
    out.push(Metric::count("ooc.chunks", chunks as u64));
    out.push(Metric::ms("ooc.partition_ms", partition));
    out.push(Metric::ms(
        "ooc.chunk_sort_ms_sum",
        pick(&|r| r.chunk_times.iter().sum()),
    ));
    out.push(Metric::ms("ooc.merge_ms", merge));
    let self_reps: Vec<_> = reps
        .iter()
        .map(|r| (r.op, r.partition + r.chunk_phase + r.merge))
        .collect();
    out.push(Metric::self_ms("ooc.self_ms", &self_reps));
}

// ------------------------------------------------------------- service --

/// Requests a client keeps in flight.
pub const OUTSTANDING: usize = 16;

/// Starts the service over `stack` with two flush workers.
pub fn start_service(stack: &EngineStack) -> SortService {
    SortService::start(
        stack.sorter(),
        ServiceConfig::default().with_flush_executor(Executor::with_workers(WORKERS)),
    )
}

/// What one closed client loop observed.
#[derive(Debug, Clone, Default)]
pub struct LoopStats {
    /// Submit → resolved-ticket time of every successful request.
    pub latencies: Vec<Duration>,
    /// Each successful request's `SortOutcome::queued`.
    pub queued: Vec<Duration>,
    /// Keys in successfully resolved requests.
    pub keys: u64,
    /// First submit → last resolution.
    pub window: Duration,
    /// Service counters before and after the loop.
    pub stats: (ServiceStats, ServiceStats),
}

/// A closed loop of one client with [`OUTSTANDING`] requests in flight:
/// the client waits for the oldest ticket, submits the next request
/// (templates in order, cycling) and then checks the resolved one.  It
/// stops submitting once `seconds` have passed and at least
/// `min_requests` were submitted, then drains.  Every request counts in
/// `result`; a `SubmitError`, a `TicketError` or wrong data is a failure.
pub fn service_loop(
    service: &SortService,
    templates: &[RequestTemplate],
    seconds: f64,
    min_requests: usize,
    result: &mut RunResult,
) -> LoopStats {
    let mut stats = LoopStats {
        stats: (service.stats_snapshot(), ServiceStats::default()),
        ..LoopStats::default()
    };
    let mut pending: VecDeque<(usize, Instant, SortTicket)> = VecDeque::new();
    let mut submitted = 0usize;
    let mut submit = |pending: &mut VecDeque<_>, result: &mut RunResult| {
        let t = submitted % templates.len();
        submitted += 1;
        let payload = templates[t].payload.clone();
        let at = Instant::now();
        match service.submit(payload) {
            Ok(ticket) => pending.push_back((t, at, ticket)),
            Err(_) => result.record(false),
        }
        submitted
    };
    let start = Instant::now();
    let mut count = 0;
    while count < OUTSTANDING {
        count = submit(&mut pending, result);
    }
    let mut last = start;
    while let Some((t, at, ticket)) = pending.pop_front() {
        let resolved = ticket.wait();
        last = Instant::now();
        let latency = last - at;
        if start.elapsed().as_secs_f64() < seconds || count < min_requests {
            count = submit(&mut pending, result);
        }
        match resolved {
            Ok(outcome) => {
                let ok = templates[t].check(&outcome.payload)
                    && outcome.span.len == templates[t].len() as u64;
                result.record(ok);
                if ok {
                    stats.latencies.push(latency);
                    stats.queued.push(outcome.queued);
                    stats.keys += templates[t].len() as u64;
                }
            }
            Err(_) => result.record(false),
        }
    }
    stats.window = last - start;
    stats.stats.1 = service.stats_snapshot();
    stats
}

/// Submits `templates` all at once and waits for every ticket (the
/// warm-up round of the service's set-up).
pub fn service_round(service: &SortService, templates: &[RequestTemplate], result: &mut RunResult) {
    let tickets: Vec<_> = templates
        .iter()
        .map(|t| service.submit(t.payload.clone()))
        .collect();
    for (t, ticket) in templates.iter().zip(tickets) {
        let ok = ticket
            .ok()
            .and_then(|ticket| ticket.wait().ok())
            .is_some_and(|outcome| t.check(&outcome.payload));
        result.record(ok);
    }
}

/// Emits the `service.*` metrics of a loop.
pub fn service_metrics(stats: &LoopStats, out: &mut RunResult) {
    let (before, after) = &stats.stats;
    let dispatch_to_done: Vec<Duration> = stats
        .latencies
        .iter()
        .zip(&stats.queued)
        .map(|(l, q)| l.saturating_sub(*q))
        .collect();
    let batches = after.batches - before.batches;
    let batched = (after.requests - before.requests) - (after.ooc_requests - before.ooc_requests);
    let per_batch = |n: u64| n as f64 / batches.max(1) as f64;
    let rejected = |s: &ServiceStats| {
        s.rejected_saturated
            + s.rejected_too_large
            + s.rejected_too_many_keys
            + s.rejected_mismatched_pairs
            + s.rejected_degraded
    };
    out.push(Metric::ms(
        "service.queue_wait_ms_p50",
        median(&stats.queued),
    ));
    out.push(Metric::ms(
        "service.queue_wait_ms_p99",
        percentile(&stats.queued, 99.0),
    ));
    out.push(Metric::ms(
        "service.dispatch_to_done_ms_p50",
        median(&dispatch_to_done),
    ));
    // The tail is reported here, ungated: on a shared 2-core host it moves
    // with the neighbours' load by more than any bound the benchmark allows.
    out.push(Metric::ms(
        "service.latency_p99_ms",
        percentile(&stats.latencies, 99.0),
    ));
    out.push(Metric::ratio(
        "service.requests_per_batch",
        per_batch(batched),
    ));
    out.push(Metric::ratio(
        "service.flush_linger_frac",
        per_batch(after.flushed_by_linger - before.flushed_by_linger),
    ));
    out.push(Metric::ratio(
        "service.flush_bytes_frac",
        per_batch(after.flushed_by_bytes - before.flushed_by_bytes),
    ));
    out.push(Metric::count(
        "service.rejected",
        rejected(after) - rejected(before),
    ));
}
