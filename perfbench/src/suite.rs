//! The four workloads: inputs, set-up, the measured operation and the
//! traced run.
//!
//! | workload | operation | layers on its path |
//! |---|---|---|
//! | `bulk_uniform_u32` | `HybridRadixSorter::sort`, 2²⁴ uniform u32 | core |
//! | `sharded_zipf_pairs` | `ShardedSorter::sort_pairs`, 2²³ Zipf(0.75) u64 + u32 row ids, two CPU-socket lanes | engine, core |
//! | `sharded_ooc_pairs` | `ShardedSorter::sort_out_of_core_pairs`, 2²³ uniform u64 + u32, 4 chunks per lane | out-of-core, engine, core |
//! | `service_mixed` | `SortService` closed loop, 16 outstanding, 1k–64k keys, u32/u64 × keys/pairs | service, engine, core |
//!
//! The untraced run reports the end-to-end metrics.  The traced run reports
//! every per-layer metric on every workload: each layer's probe runs on the
//! workload's own input, so a layer the workload's operation bypasses still
//! shows what it would cost there.

use crate::baseline::time_references;
use crate::input::{sub_seed, Input, Key, Payload, RequestTemplate};
use crate::layers::{
    core_metrics, core_rep, engine_metrics, engine_rep, ooc_metrics, ooc_rep, service_loop,
    service_metrics, service_round, start_service, CoreRep, EngineStack, Lane, Unit, WORKERS,
};
use crate::metrics::{median, peak_rss_bytes, rss_bytes, Metric, RunResult};
use hrs_core::{Executor, HybridRadixSorter};
use multi_gpu::ShardedSorter;
use sort_service::{SortPayload, SortService};
use std::time::{Duration, Instant};
use workloads::Distribution;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's single-device sort: core only.
    BulkUniformU32,
    /// Skewed pairs over two CPU-socket lanes: engine + core.
    ShardedZipfPairs,
    /// The chunk → sort → merge pipeline: out-of-core + engine + core.
    ShardedOocPairs,
    /// Small mixed requests through the batch service.
    ServiceMixed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::BulkUniformU32,
        Workload::ShardedZipfPairs,
        Workload::ShardedOocPairs,
        Workload::ServiceMixed,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BulkUniformU32 => "bulk_uniform_u32",
            Workload::ShardedZipfPairs => "sharded_zipf_pairs",
            Workload::ShardedOocPairs => "sharded_ooc_pairs",
            Workload::ServiceMixed => "service_mixed",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Repetitions of each layer probe in the traced run (its metrics are
/// medians over them).
const LAYER_REPS: usize = 3;

/// Input sizes and repetition counts.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Keys of `bulk_uniform_u32`.
    pub bulk_keys: usize,
    /// Keys of the two sharded workloads.
    pub sharded_keys: usize,
    /// Request sizes the service loops cycle through.
    pub request_sizes: Vec<usize>,
    /// Fewest requests a service loop submits.
    pub min_requests: usize,
    /// Fewest timed operations of a batch workload.
    pub min_ops: usize,
    /// Set-ups per untraced run (`setup_s` is their median).
    pub setup_reps: usize,
}

impl Scale {
    /// The benchmark's sizes.
    pub fn full() -> Self {
        Scale {
            bulk_keys: 1 << 24,
            sharded_keys: 1 << 23,
            request_sizes: vec![1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 64 << 10],
            min_requests: 1500,
            min_ops: 3,
            setup_reps: 5,
        }
    }

    /// Small sizes for the smoke tests.
    pub fn tiny() -> Self {
        Scale {
            bulk_keys: 1 << 17,
            sharded_keys: 1 << 16,
            request_sizes: vec![256, 512, 1024, 2048, 4096, 8192],
            min_requests: 40,
            min_ops: 2,
            setup_reps: 2,
        }
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
}

/// Runs one workload and returns its metrics.
pub fn run(cfg: &RunConfig) -> RunResult {
    let n_sharded = cfg.scale.sharded_keys;
    match cfg.workload {
        Workload::BulkUniformU32 => {
            let input: Input<u32, ()> =
                Input::new(Distribution::Uniform.generate(cfg.scale.bulk_keys, cfg.seed));
            let build = || {
                HybridRadixSorter::with_defaults().with_executor(Executor::with_workers(WORKERS))
            };
            let op = |s: &HybridRadixSorter, k: &mut Vec<u32>, _: &mut Vec<()>| {
                s.sort(k);
            };
            if cfg.trace {
                let core = Lane::new(build(), true);
                batch_trace(
                    cfg,
                    &input,
                    build,
                    op,
                    &EngineStack::cpu_sockets(),
                    CoreUnits::Whole(Box::new(core)),
                )
            } else {
                batch_end_to_end(cfg, &input, build, op)
            }
        }
        Workload::ShardedZipfPairs => {
            let keys = Distribution::paper_zipf(n_sharded as u64).generate(n_sharded, cfg.seed);
            let input: Input<u64, u32> = Input::new(keys);
            let stack = EngineStack::cpu_sockets();
            let build = || stack.sorter();
            let op = |s: &ShardedSorter, k: &mut Vec<u64>, v: &mut Vec<u32>| {
                s.sort_pairs(k, v);
            };
            if cfg.trace {
                batch_trace(cfg, &input, build, op, &stack, CoreUnits::Shards)
            } else {
                batch_end_to_end(cfg, &input, build, op)
            }
        }
        Workload::ShardedOocPairs => {
            let input: Input<u64, u32> =
                Input::new(Distribution::Uniform.generate(n_sharded, cfg.seed));
            let stack = EngineStack::cpu_sockets();
            let build = || stack.sorter();
            let op = |s: &ShardedSorter, k: &mut Vec<u64>, v: &mut Vec<u32>| {
                s.sort_out_of_core_pairs(k, v);
            };
            if cfg.trace {
                batch_trace(cfg, &input, build, op, &stack, CoreUnits::Chunks)
            } else {
                batch_end_to_end(cfg, &input, build, op)
            }
        }
        Workload::ServiceMixed => {
            let templates = mixed_templates(cfg.seed, &cfg.scale.request_sizes);
            if cfg.trace {
                service_trace(cfg, &templates)
            } else {
                service_end_to_end(cfg, &templates)
            }
        }
    }
}

/// Copies `input` into the work buffers, times `op` on them and checks
/// the output (copy and check are outside the timed call).
fn timed_op<K: Key, V: Payload>(
    input: &Input<K, V>,
    bufs: &mut (Vec<K>, Vec<V>),
    op: impl FnOnce(&mut Vec<K>, &mut Vec<V>),
    result: &mut RunResult,
) -> Duration {
    input.copy_into(&mut bufs.0, &mut bufs.1);
    let start = Instant::now();
    op(&mut bufs.0, &mut bufs.1);
    let elapsed = start.elapsed();
    result.record(input.check(&bufs.0, &bufs.1));
    elapsed
}

/// End-to-end run of a batch workload: `setup_reps` set-ups (build plus
/// one warm-up operation each), then operations until their summed time
/// reaches the window.
fn batch_end_to_end<K: Key, V: Payload, S>(
    cfg: &RunConfig,
    input: &Input<K, V>,
    build: impl Fn() -> S,
    op: impl Fn(&S, &mut Vec<K>, &mut Vec<V>),
) -> RunResult {
    let mut result = RunResult::default();
    let mut bufs = (Vec::new(), Vec::new());
    input.copy_into(&mut bufs.0, &mut bufs.1);
    let resident = rss_bytes();
    let mut setups = Vec::new();
    let mut system = None;
    for _ in 0..cfg.scale.setup_reps.max(1) {
        drop(system.take());
        input.copy_into(&mut bufs.0, &mut bufs.1);
        let start = Instant::now();
        let s = build();
        op(&s, &mut bufs.0, &mut bufs.1);
        setups.push(start.elapsed());
        result.record(input.check(&bufs.0, &bufs.1));
        system = Some(s);
    }
    let system = system.expect("at least one set-up");
    let mut latencies = Vec::new();
    let mut total = Duration::ZERO;
    while total.as_secs_f64() < cfg.seconds || latencies.len() < cfg.scale.min_ops {
        let d = timed_op(input, &mut bufs, |k, v| op(&system, k, v), &mut result);
        latencies.push(d);
        total += d;
    }
    let keys = (input.len() * latencies.len()) as u64;
    end_to_end_metrics(&mut result, keys, total, &latencies, &setups, resident);
    result
}

/// The end-to-end metrics.  `resident` is the RSS read once the harness's
/// own buffers (input, reference, work buffers or request templates) were
/// resident and before the first set-up, so `peak_rss_mb` counts only what
/// the sorter, pool or service adds on top of them.
fn end_to_end_metrics(
    result: &mut RunResult,
    keys: u64,
    window: Duration,
    latencies: &[Duration],
    setups: &[Duration],
    resident: u64,
) {
    result.push(Metric::keys_per_s("keys_per_s", keys, window));
    result.push(Metric::ms("latency_p50_ms", median(latencies)));
    result.push(Metric::secs("setup_s", median(setups)));
    result.push(Metric::mib(
        "peak_rss_mb",
        peak_rss_bytes().saturating_sub(resident),
    ));
}

/// Where the core probe's units come from.
enum CoreUnits {
    /// The whole input, sorted by this lane (the bulk sorter).
    Whole(Box<Lane>),
    /// The engine probe's shard inputs, sorted by the stack's lanes.
    Shards,
    /// The out-of-core probe's chunk inputs, sorted by their device lanes.
    Chunks,
}

/// Traced run of a batch workload.
fn batch_trace<K: Key, V: Payload, S>(
    cfg: &RunConfig,
    input: &Input<K, V>,
    build: impl Fn() -> S,
    op: impl Fn(&S, &mut Vec<K>, &mut Vec<V>),
    stack: &EngineStack,
    core: CoreUnits,
) -> RunResult {
    let mut result = RunResult::default();

    // The workload's own operation, untraced, after one warm-up: the
    // numerator of `baseline.hrs_vs_std`.
    let system = build();
    let mut bufs = (Vec::new(), Vec::new());
    timed_op(input, &mut bufs, |k, v| op(&system, k, v), &mut result);
    let mut op_times = Vec::new();
    for _ in 0..LAYER_REPS {
        op_times.push(timed_op(
            input,
            &mut bufs,
            |k, v| op(&system, k, v),
            &mut result,
        ));
    }
    drop((system, bufs));
    let op_rate = (input.len() as u64, median(&op_times));

    let core_rates = layer_probes(input, stack, core, &mut result);

    // Service, fed with requests carved from this input.
    let templates = carved_templates(input, &cfg.scale.request_sizes);
    service_probe(cfg, &templates, &mut result);

    // Same-run references.
    let (mut std_times, mut lsd_times) = (Vec::new(), Vec::new());
    for _ in 0..LAYER_REPS {
        let (s, l, ok) = time_references(input);
        result.record(ok);
        std_times.push(s);
        lsd_times.push(l);
    }
    let n = input.len() as u64;
    baseline_metrics(&mut result, n, median(&std_times), median(&lsd_times));
    trace_metrics(&mut result, op_rate, core_rates);
    result
}

/// The engine, out-of-core and core probes on `input`, `LAYER_REPS` times
/// each.  Returns the core units' rate through the unprobed and through
/// the probed lane sorters: the only code a probe is attached to, so their
/// gap is the tracing overhead.
fn layer_probes<K: Key, V: Payload>(
    input: &Input<K, V>,
    stack: &EngineStack,
    core: CoreUnits,
    result: &mut RunResult,
) -> (Rate, Rate) {
    // Engine.
    let sorter = stack.sorter();
    let lanes = stack.lanes();
    let mut engine = Vec::new();
    let mut shards = Vec::new();
    for _ in 0..LAYER_REPS {
        let (rep, units) = engine_rep(stack, &sorter, &lanes, input, result);
        engine.push(rep);
        shards = units;
    }
    engine_metrics(&engine, result);

    // Out-of-core.
    let mut ooc = Vec::new();
    let mut chunks = (Vec::new(), Vec::new());
    for _ in 0..LAYER_REPS {
        let (rep, units, lane_of) = ooc_rep(stack, &sorter, &lanes, input, result);
        ooc.push(rep);
        chunks = (units, lane_of);
    }
    ooc_metrics(&ooc, result);
    drop((sorter, lanes));

    // Core.
    let (core_lanes, lane_of, units): (Vec<Lane>, Vec<usize>, Vec<Unit<K, V>>) = match core {
        CoreUnits::Whole(lane) => (
            vec![*lane],
            vec![0],
            vec![(input.keys.clone(), input.vals.clone())],
        ),
        CoreUnits::Shards => (stack.lanes(), (0..shards.len()).collect(), shards),
        CoreUnits::Chunks => (stack.lanes(), chunks.1, chunks.0),
    };
    let reps: Vec<_> = (0..LAYER_REPS)
        .map(|r| core_rep(&core_lanes, &lane_of, &units, r % 2 == 1, result))
        .collect();
    core_metrics::<K, V>(&reps, &core_lanes, result);
    let keys: u64 = units.iter().map(|(k, _)| k.len() as u64).sum();
    let time = |f: fn(&CoreRep) -> Duration| median(&reps.iter().map(f).collect::<Vec<_>>());
    ((keys, time(|r| r.plain)), (keys, time(|r| r.sort)))
}

/// Keys processed over a measured time.
type Rate = (u64, Duration);

/// The `baseline.*` metrics; `baseline.hrs_vs_std` is filled in by
/// [`trace_metrics`] once the untraced rate is known.
fn baseline_metrics(result: &mut RunResult, keys: u64, std_time: Duration, lsd_time: Duration) {
    result.push(Metric::keys_per_s(
        "baseline.std_keys_per_s",
        keys,
        std_time,
    ));
    result.push(Metric::keys_per_s(
        "baseline.lsd_keys_per_s",
        keys,
        lsd_time,
    ));
}

/// The `trace.*` metrics from the core lanes' (untraced, traced) rates,
/// and `baseline.hrs_vs_std` from the workload's own untraced `op` rate.
fn trace_metrics(result: &mut RunResult, op: Rate, (untraced, traced): (Rate, Rate)) {
    let op = Metric::keys_per_s("keys_per_s", op.0, op.1);
    let untraced = Metric::keys_per_s("trace.untraced_keys_per_s", untraced.0, untraced.1);
    let traced = Metric::keys_per_s("trace.keys_per_s", traced.0, traced.1);
    let std_rate = result
        .get("baseline.std_keys_per_s")
        .expect("baselines run before the trace metrics")
        .value;
    result.push(Metric::ratio("baseline.hrs_vs_std", op.value / std_rate));
    result.push(Metric::ratio(
        "trace.overhead_frac",
        1.0 - traced.value / untraced.value,
    ));
    result.push(traced);
    result.push(untraced);
}

/// Request templates cycling through `sizes` × {u32, u64} × {keys, pairs},
/// two full cycles of distinct data.
pub fn mixed_templates(seed: u64, sizes: &[usize]) -> Vec<RequestTemplate> {
    let cycle = sizes.len() * 4;
    (0..2 * cycle)
        .map(|i| {
            let n = sizes[i % sizes.len()];
            let s = sub_seed(seed, i as u64);
            let rows = || (0..n as u32).collect::<Vec<u32>>();
            let payload = match (i / sizes.len()) % 4 {
                0 => SortPayload::U32Keys(Distribution::Uniform.generate(n, s)),
                1 => SortPayload::U64Keys(Distribution::Uniform.generate(n, s)),
                2 => SortPayload::U32Pairs {
                    keys: Distribution::Uniform.generate(n, s),
                    values: rows(),
                },
                _ => SortPayload::U64Pairs {
                    keys: Distribution::Uniform.generate(n, s),
                    values: rows(),
                },
            };
            RequestTemplate::new(payload)
        })
        .collect()
}

/// Request templates cut from consecutive slices of `input` (wrapping),
/// cycling through `sizes`; pairs get per-request row ids.
fn carved_templates<K: Key, V: Payload>(
    input: &Input<K, V>,
    sizes: &[usize],
) -> Vec<RequestTemplate> {
    // Enough distinct templates that no two in-flight requests share one.
    let count = sizes.len() * (2 * crate::layers::OUTSTANDING).div_ceil(sizes.len());
    let mut offset = 0;
    (0..count)
        .map(|i| {
            let n = sizes[i % sizes.len()].min(input.len());
            if offset + n > input.len() {
                offset = 0;
            }
            let keys = &input.keys[offset..offset + n];
            offset += n;
            let rows = || (0..n as u32).collect::<Vec<u32>>();
            let payload = if K::BITS == 32 {
                let keys: Vec<u32> = keys.iter().map(|k| k.to_radix() as u32).collect();
                if V::PAIRS {
                    SortPayload::U32Pairs {
                        keys,
                        values: rows(),
                    }
                } else {
                    SortPayload::U32Keys(keys)
                }
            } else {
                let keys: Vec<u64> = keys.iter().map(|k| k.to_radix()).collect();
                if V::PAIRS {
                    SortPayload::U64Pairs {
                        keys,
                        values: rows(),
                    }
                } else {
                    SortPayload::U64Keys(keys)
                }
            };
            RequestTemplate::new(payload)
        })
        .collect()
}

/// The service probe of a batch workload: a service over two simulated
/// lanes, one warm-up round, then a closed loop of `min_requests`.
fn service_probe(cfg: &RunConfig, templates: &[RequestTemplate], result: &mut RunResult) {
    let service = start_service(&EngineStack::titan_pair());
    service_round(
        &service,
        &templates[..cfg.scale.request_sizes.len()],
        result,
    );
    let stats = service_loop(&service, templates, 0.0, cfg.scale.min_requests, result);
    service_metrics(&stats, result);
    service.shutdown();
}

/// End-to-end run of `service_mixed`.
fn service_end_to_end(cfg: &RunConfig, templates: &[RequestTemplate]) -> RunResult {
    let mut result = RunResult::default();
    let stack = EngineStack::titan_pair();
    let warm_up = &templates[..templates.len() / 2];
    let resident = rss_bytes();
    let mut setups = Vec::new();
    let mut service: Option<SortService> = None;
    for _ in 0..cfg.scale.setup_reps.max(1) {
        if let Some(s) = service.take() {
            s.shutdown();
        }
        let start = Instant::now();
        let s = start_service(&stack);
        service_round(&s, warm_up, &mut result);
        setups.push(start.elapsed());
        service = Some(s);
    }
    let service = service.expect("at least one set-up");
    let stats = service_loop(
        &service,
        templates,
        cfg.seconds,
        cfg.scale.min_requests,
        &mut result,
    );
    end_to_end_metrics(
        &mut result,
        stats.keys,
        stats.window,
        &stats.latencies,
        &setups,
        resident,
    );
    service.shutdown();
    result
}

/// Traced run of `service_mixed`: the service loop, then the other layers'
/// probes on the u64 pair requests, concatenated.
fn service_trace(cfg: &RunConfig, templates: &[RequestTemplate]) -> RunResult {
    let mut result = RunResult::default();
    let stack = EngineStack::titan_pair();
    let service = start_service(&stack);
    service_round(&service, &templates[..templates.len() / 2], &mut result);
    let stats = service_loop(
        &service,
        templates,
        cfg.seconds,
        cfg.scale.min_requests,
        &mut result,
    );
    service.shutdown();
    service_metrics(&stats, &mut result);

    let keys: Vec<u64> = templates
        .iter()
        .filter_map(|t| match &t.payload {
            SortPayload::U64Pairs { keys, .. } => Some(keys.iter().copied()),
            _ => None,
        })
        .flatten()
        .collect();
    let input: Input<u64, u32> = Input::new(keys);
    let core_rates = layer_probes(&input, &stack, CoreUnits::Shards, &mut result);

    // Same-run references over every request.
    let (mut std_times, mut lsd_times) = (Vec::new(), Vec::new());
    for _ in 0..LAYER_REPS {
        let (mut s, mut l) = (Duration::ZERO, Duration::ZERO);
        for t in templates {
            let (ts, tl, ok) = match &t.payload {
                SortPayload::U32Keys(k) => time_references(&Input::<u32, ()>::new(k.clone())),
                SortPayload::U64Keys(k) => time_references(&Input::<u64, ()>::new(k.clone())),
                SortPayload::U32Pairs { keys, .. } => {
                    time_references(&Input::<u32, u32>::new(keys.clone()))
                }
                SortPayload::U64Pairs { keys, .. } => {
                    time_references(&Input::<u64, u32>::new(keys.clone()))
                }
            };
            result.record(ok);
            s += ts;
            l += tl;
        }
        std_times.push(s);
        lsd_times.push(l);
    }
    let keys: u64 = templates.iter().map(|t| t.len() as u64).sum();
    baseline_metrics(&mut result, keys, median(&std_times), median(&lsd_times));
    trace_metrics(&mut result, (stats.keys, stats.window), core_rates);
    result
}
