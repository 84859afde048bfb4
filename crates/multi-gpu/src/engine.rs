//! The sharded multi-device sorting engine.
//!
//! [`ShardedSorter`] runs one logical sort across every device of a
//! [`DevicePool`]:
//!
//! 1. **Partition** (host): splitters are selected from MSD digit
//!    histograms ([`crate::partition`]) so that the expected shard sizes
//!    are proportional to the devices' capacity weights, and the input is
//!    scattered into one round buffer, the shards back to back.  The round
//!    buffer is the sorter's persistent scratch, so a warm sort allocates
//!    no element memory.  Measured for real.
//! 2. **Device phase** (simulated, functionally real): every shard is
//!    uploaded over its device's own link, sorted in place with the full
//!    [`HybridRadixSorter`] configured for that device (ping-ponging
//!    against the shard's range of the now free input buffer), and
//!    downloaded.
//!    Each shard's transfers are split into chunks so uploads, sorting and
//!    downloads overlap within a device — and devices overlap with each
//!    other completely, since every link is independent.  The schedule is
//!    built on a shared [`gpu_sim::Timeline`]; its makespan is the
//!    critical-path simulated time.
//! 3. **Recombination** (host): range partitioning means equal keys never
//!    straddle shards, so in a sort that finishes in its first round the
//!    `p` sorted shards already lie in device order: the round buffer is
//!    swapped into the caller's `Vec`, and the caller's old buffer becomes
//!    the next sort's scratch.  Out of core, the partition cuts every
//!    shard into its chunks' key ranges, so the sorted chunks lie in order
//!    too.  Requeue rounds after a fault break the order, so they merge
//!    every run into the whole output with the structure-of-arrays p-way
//!    merge of [`hetero::merge_pairs_into`].  Measured for real.
//!
//! Every entry point — in core, out of core ([`crate::ooc`]) or under
//! injected faults ([`crate::recovery`]) — runs the same round-based
//! driver; a fault-free sort is its round 0.

use crate::device_pool::DevicePool;
use crate::recovery::{register_fault_probes, SortError};
use crate::report::ShardedReport;
use crate::telemetry_paths as tp;
use gpu_sim::FaultPlan;
use hrs_core::{Executor, HybridRadixSorter, ScratchArena};
use std::sync::Mutex;
use telemetry::Inspector;
use workloads::keys::SortKey;
use workloads::pairs::SortValue;

/// A sorter that shards one input across several devices (simulated GPUs
/// and/or real CPU sockets).
#[derive(Debug)]
pub struct ShardedSorter {
    pub(crate) pool: DevicePool,
    pub(crate) template: HybridRadixSorter,
    pub(crate) merge_threads: usize,
    pub(crate) ooc: crate::ooc::OocConfig,
    pub(crate) host_exec: Executor,
    /// One persistent [`HybridRadixSorter`] per pool device ("device
    /// lane").  Each lane owns its own [`hrs_core::ScratchArena`], so
    /// repeated sorts through one `ShardedSorter` — the steady state of the
    /// batch sort service — perform no per-sort scratch allocation once the
    /// lanes are warm.  Built lazily on first use; invalidated by the
    /// builders that change what a lane would be ([`Self::with_sorter`],
    /// [`Self::with_pool`]).  `try_lock` with an ephemeral fallback keeps
    /// concurrent sorts through one sorter safe (they simply skip lane
    /// reuse), mirroring the arena handling inside `HybridRadixSorter`.
    pub(crate) lanes: Mutex<Vec<HybridRadixSorter>>,
    /// The observability hub every layer reports into.  Each sorter starts
    /// with a private [`Inspector`]; [`Self::with_telemetry`] swaps in a
    /// shared one so the sort service (and anything else holding a clone)
    /// sees engine, lane and out-of-core metrics in one snapshot tree.
    pub(crate) inspector: Inspector,
    /// Memory parked between sorts, so repeated sorts of one size
    /// allocate no element memory: the persistent round buffer round 0
    /// partitions into (the buffer a sort's output does not take is
    /// parked for the next), and the splitter search's key sample.
    /// `try_lock` with a fresh allocation as the fallback keeps concurrent
    /// sorts through one sorter safe.
    pub(crate) scratch: Mutex<ScratchArena>,
    /// Injected fault script ([`gpu_sim::FaultPlan`]), consulted once per
    /// unit of work; `None` sorts clean.
    pub(crate) faults: Option<FaultPlan>,
}

impl ShardedSorter {
    /// A sharded sorter over an explicit device pool, using the paper's
    /// default hybrid-radix-sort configuration on every device.  Host-side
    /// phases (partition scatter, shard fan-out) run on the machine's
    /// available parallelism.
    pub fn new(pool: DevicePool) -> Self {
        ShardedSorter {
            pool,
            template: HybridRadixSorter::with_defaults(),
            merge_threads: 6,
            ooc: crate::ooc::OocConfig::default(),
            host_exec: Executor::threaded(),
            lanes: Mutex::new(Vec::new()),
            scratch: Mutex::default(),
            inspector: Inspector::new(),
            faults: None,
        }
    }

    /// Four Titan X (Pascal) cards on independent PCIe 3.0 links.
    pub fn with_defaults() -> Self {
        ShardedSorter::new(DevicePool::titan_cluster(4))
    }

    /// Replaces the per-device sorter template (its device model is
    /// overridden per shard by each pool device's spec).
    pub fn with_sorter(mut self, template: HybridRadixSorter) -> Self {
        self.template = template;
        self.lanes = Mutex::new(Vec::new());
        self
    }

    /// Replaces the device pool.
    pub fn with_pool(mut self, pool: DevicePool) -> Self {
        self.pool = pool;
        self.lanes = Mutex::new(Vec::new());
        self
    }

    /// Sets the host-side merge thread count.
    pub fn with_merge_threads(mut self, threads: usize) -> Self {
        self.merge_threads = threads.max(1);
        self
    }

    /// Replaces the out-of-core configuration used by
    /// [`Self::sort_out_of_core`] / [`Self::sort_out_of_core_pairs`].
    pub fn with_ooc_config(mut self, cfg: crate::ooc::OocConfig) -> Self {
        self.ooc = cfg;
        self
    }

    /// Replaces the executor running the host-side phases (the partition
    /// scatter and the shard fan-out).  Per-shard *device* execution is
    /// chosen by each device's [`crate::DeviceBackend`] instead.
    pub fn with_host_executor(mut self, exec: Executor) -> Self {
        self.host_exec = exec;
        self
    }

    /// Installs an injected-fault script, consulted once per unit of work:
    /// failed devices are marked dead in the pool, their work is requeued
    /// onto the survivors with bounded retries and exponential simulated
    /// backoff, and every fault is recorded in [`ShardedReport::faults`]
    /// and telemetry.  Clones of the sorter share the plan's fired/op
    /// state.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Reports into `inspector` instead of the sorter's private one, so
    /// several components (the sort service, bench harnesses) share one
    /// snapshot tree.  Device lanes are invalidated so they re-register
    /// their probes on the new inspector.
    pub fn with_telemetry(mut self, inspector: &Inspector) -> Self {
        self.inspector = inspector.clone();
        self.lanes = Mutex::new(Vec::new());
        self
    }

    /// The observability hub this sorter reports into.  Call
    /// [`Inspector::snapshot`] on it at any moment — mid-sort included —
    /// for the live metric tree.
    pub fn inspector(&self) -> &Inspector {
        &self.inspector
    }

    /// The device pool in use.
    pub fn pool(&self) -> &DevicePool {
        &self.pool
    }

    /// Retained scratch-arena footprint of every device lane (empty until
    /// the first sort builds the lanes).  Two snapshots around a repeated
    /// same-size sort must be identical — the regression hook behind the
    /// sort service's zero-steady-state-allocation claim.
    pub fn lane_arena_stats(&self) -> Vec<hrs_core::ArenaStats> {
        self.lanes
            .lock()
            .map(|lanes| lanes.iter().map(|l| l.arena_stats()).collect())
            .unwrap_or_default()
    }

    /// Sorts `keys` across the pool and returns the aggregated report.
    ///
    /// Panics if recovery fails under an injected fault script (every
    /// device dead, or retries exhausted); use [`Self::try_sort`] for the
    /// fallible form.
    pub fn sort<K: SortKey>(&self, keys: &mut Vec<K>) -> ShardedReport {
        self.try_sort(keys)
            .expect("sharded sort failed; use try_sort to handle device loss")
    }

    /// Sorts `keys` across the pool, permuting `values` along with them.
    ///
    /// Panics on recovery failure like [`Self::sort`]; see
    /// [`Self::try_sort_pairs`].
    pub fn sort_pairs<K: SortKey, V: SortValue>(
        &self,
        keys: &mut Vec<K>,
        values: &mut Vec<V>,
    ) -> ShardedReport {
        self.try_sort_pairs(keys, values)
            .expect("sharded pair sort failed; use try_sort_pairs to handle device loss")
    }

    /// Fallible counterpart of [`Self::sort`]: completes on the survivors
    /// under an armed fault plan (or an already-degraded pool), or returns
    /// a typed [`SortError`] with `keys` restored.
    pub fn try_sort<K: SortKey>(&self, keys: &mut Vec<K>) -> Result<ShardedReport, SortError> {
        self.run(keys, &mut Vec::<()>::new(), false)
    }

    /// Fallible counterpart of [`Self::sort_pairs`].
    pub fn try_sort_pairs<K: SortKey, V: SortValue>(
        &self,
        keys: &mut Vec<K>,
        values: &mut Vec<V>,
    ) -> Result<ShardedReport, SortError> {
        assert_eq!(
            keys.len(),
            values.len(),
            "keys and values must have the same length"
        );
        self.run(keys, values, false)
    }

    /// The per-device lane sorter: the template specialised to pool device
    /// `i`'s hardware model, executor and telemetry prefix.
    pub(crate) fn lane_sorter(&self, i: usize) -> HybridRadixSorter {
        let device = &self.pool.devices()[i];
        self.template
            .clone()
            .with_device(device.spec.clone())
            .with_executor(device.backend.executor())
            .with_telemetry(&self.inspector, &format!("core/dev{i}"))
    }

    /// Records the engine-level metrics of one completed sharded sort:
    /// sort/key counters, per-device transfer bytes (every uploaded element
    /// plus every element of the device's output), utilisation (fraction
    /// of the device's span spent sorting) and overlap ratio (stage-busy
    /// time over span — above 1.0 means transfers genuinely overlapped the
    /// sort), and the memory the engine's own scratch arena retains (left
    /// as it was while a concurrent sort holds the arena).  `shard_devices`
    /// names each shard's pool device and uploaded elements.
    pub(crate) fn note_sort(&self, report: &ShardedReport, shard_devices: &[(usize, u64)]) {
        let t = &self.inspector;
        t.counter(tp::SORTS).inc();
        t.counter(tp::KEYS).add(report.n);
        if let Ok(arena) = self.scratch.try_lock() {
            let stats = arena.stats();
            t.gauge(tp::ARENA_BUFFERS).set(stats.buffers as u64);
            t.gauge(tp::ARENA_BUFFER_BYTES)
                .set(stats.buffer_bytes as u64);
        }
        // Register the fault subtree eagerly (registration is idempotent)
        // so every snapshot exposes its health — zero or not.
        register_fault_probes(t);
        let elem_bytes = report.key_bytes as u64 + report.value_bytes as u64;
        for (shard, &(i, uploaded)) in report.shards.iter().zip(shard_devices) {
            let dev = |leaf: &str| format!("multi_gpu/dev{i}/{leaf}");
            t.counter(&dev("transfer_bytes"))
                .add((uploaded + shard.n) * elem_bytes);
            let span = shard.finish.secs();
            if span > 0.0 {
                t.float_gauge(&dev("utilisation"))
                    .set(shard.gpu_sort.secs() / span);
                let busy = (shard.upload + shard.gpu_sort + shard.download).secs();
                t.float_gauge(&dev("overlap_ratio")).set(busy / span);
            }
        }
    }
}

impl ShardedSorter {
    /// Runs `f` on the sorter's scratch arena, or on an empty one while a
    /// concurrent sort holds it (what `f` parks there is then dropped).
    pub(crate) fn with_scratch<R>(&self, f: impl FnOnce(&mut ScratchArena) -> R) -> R {
        match self.scratch.try_lock() {
            Ok(mut arena) => f(&mut arena),
            Err(_) => f(&mut ScratchArena::new()),
        }
    }
}

impl Default for ShardedSorter {
    fn default() -> Self {
        ShardedSorter::with_defaults()
    }
}

impl Clone for ShardedSorter {
    /// Clones the configuration; the clone starts with cold (empty) device
    /// lanes, so clones can be moved to other threads cheaply.
    fn clone(&self) -> Self {
        ShardedSorter {
            pool: self.pool.clone(),
            template: self.template.clone(),
            merge_threads: self.merge_threads,
            ooc: self.ooc.clone(),
            host_exec: self.host_exec,
            lanes: Mutex::new(Vec::new()),
            scratch: Mutex::default(),
            inspector: self.inspector.clone(),
            // The fault plan's fired/op state is shared (Arc), so a clone
            // doing the service's sorting consumes the same script.
            faults: self.faults.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device_pool::SimDevice;
    use gpu_sim::{DeviceSpec, SimTime};
    use hrs_core::SortConfig;
    use workloads::{uniform_keys, KeyCodec, ZipfGenerator};

    fn test_sorter(p: usize) -> ShardedSorter {
        // Scale the on-GPU configuration to the small functional inputs used
        // in tests (same trick as the hetero tests).
        let gpu = HybridRadixSorter::new(SortConfig::keys_64().scaled_for(40_000, 250_000_000));
        ShardedSorter::new(DevicePool::titan_cluster(p))
            .with_sorter(gpu)
            .with_merge_threads(4)
    }

    #[test]
    fn sorts_uniform_keys_across_device_counts() {
        let keys = uniform_keys::<u64>(120_000, 1);
        let expected = KeyCodec::std_sorted(&keys);
        for p in [1usize, 2, 4] {
            let mut k = keys.clone();
            let report = test_sorter(p).sort(&mut k);
            assert_eq!(k, expected, "p = {p}");
            assert_eq!(report.shards.len(), p);
            assert_eq!(report.n, 120_000);
            assert!(report.critical_path.secs() > 0.0);
        }
    }

    #[test]
    fn zipf_keys_sort_correctly() {
        let keys: Vec<u64> = ZipfGenerator::paper_keys(100_000, 7);
        let expected = KeyCodec::std_sorted(&keys);
        let mut k = keys;
        let report = test_sorter(4).sort(&mut k);
        assert_eq!(k, expected);
        assert_eq!(report.combined.n, 100_000);
    }

    #[test]
    fn pairs_travel_with_their_keys() {
        let keys = uniform_keys::<u32>(50_000, 3);
        let mut sorted_keys = keys.clone();
        let mut vals: Vec<u32> = (0..50_000).collect();
        let gpu = HybridRadixSorter::new(SortConfig::pairs_32_32().scaled_for(50_000, 500_000_000));
        let sorter = ShardedSorter::new(DevicePool::titan_cluster(3)).with_sorter(gpu);
        let report = sorter.sort_pairs(&mut sorted_keys, &mut vals);
        assert!(workloads::pairs::verify_indexed_pair_sort(
            &keys,
            &sorted_keys,
            &vals
        ));
        assert_eq!(report.value_bytes, 4);
        assert_eq!(report.input_bytes(), 50_000 * 8);
    }

    #[test]
    fn more_devices_shorten_the_critical_path() {
        let keys = uniform_keys::<u64>(200_000, 5);
        let mut last = f64::INFINITY;
        for p in [1usize, 2, 4] {
            let mut k = keys.clone();
            let report = test_sorter(p).sort(&mut k);
            assert!(
                report.critical_path.secs() < last,
                "p = {p}: {} not faster than {last}",
                report.critical_path.secs()
            );
            last = report.critical_path.secs();
        }
    }

    #[test]
    fn heterogeneous_pool_gives_the_fast_device_the_biggest_shard() {
        let pool = DevicePool::new(vec![
            SimDevice::on_nvlink2(DeviceSpec::tesla_p100()),
            SimDevice::on_pcie3(DeviceSpec::gtx_980()),
        ]);
        let keys = uniform_keys::<u64>(150_000, 9);
        let expected = KeyCodec::std_sorted(&keys);
        let gpu = HybridRadixSorter::new(SortConfig::keys_64().scaled_for(75_000, 250_000_000));
        let mut k = keys;
        let report = ShardedSorter::new(pool).with_sorter(gpu).sort(&mut k);
        assert_eq!(k, expected);
        // P100 (580 GB/s) should hold ~3.2x the keys of the GTX 980
        // (180 GB/s).
        let ratio = report.shards[0].n as f64 / report.shards[1].n.max(1) as f64;
        assert!(ratio > 2.0, "capacity-proportional ratio {ratio}");
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let sorter = test_sorter(4);
        let mut empty: Vec<u64> = Vec::new();
        let report = sorter.sort(&mut empty);
        assert!(empty.is_empty());
        assert_eq!(report.n, 0);
        assert_eq!(report.critical_path, SimTime::ZERO);

        let mut tiny = vec![9u64, 1, 5];
        sorter.sort(&mut tiny);
        assert_eq!(tiny, vec![1, 5, 9]);
    }

    #[test]
    fn cpu_socket_device_sorts_its_shard_for_real() {
        let pool = DevicePool::titan_cluster(2).add_cpu_socket(4);
        let gpu = HybridRadixSorter::new(SortConfig::keys_64().scaled_for(40_000, 250_000_000));
        let sorter = ShardedSorter::new(pool).with_sorter(gpu);
        let keys = uniform_keys::<u64>(90_000, 13);
        let expected = KeyCodec::std_sorted(&keys);
        let mut k = keys;
        let report = sorter.sort(&mut k);
        assert_eq!(k, expected);
        assert_eq!(report.shards.len(), 3);
        // The CPU shard carries a measured time, the GPU shards do not.
        assert!(report.shards[2].measured_sort.is_some());
        assert!(report.shards[0].measured_sort.is_none());
        assert!(report.shards[1].measured_sort.is_none());
        assert_eq!(report.shards[2].link, "host-mem");
        // Capacity weighting keeps the CPU shard the smallest.
        assert!(report.shards[2].n < report.shards[0].n);
        assert!(report.shards.iter().map(|s| s.n).sum::<u64>() == 90_000);
    }

    #[test]
    fn host_executor_choice_does_not_change_the_output() {
        let keys = uniform_keys::<u64>(60_000, 17);
        let expected = KeyCodec::std_sorted(&keys);
        for exec in [Executor::Sequential, Executor::with_workers(3)] {
            let mut k = keys.clone();
            let report = test_sorter(4).with_host_executor(exec).sort(&mut k);
            assert_eq!(k, expected, "exec {}", exec.label());
            assert_eq!(report.n, 60_000);
        }
    }

    #[test]
    fn device_lanes_are_reused_across_sorts() {
        let sorter = test_sorter(4);
        assert!(sorter.lane_arena_stats().is_empty(), "lanes start cold");
        let keys = uniform_keys::<u64>(100_000, 29);
        let mut k = keys.clone();
        sorter.sort(&mut k); // warm-up builds the lanes
        let warm = sorter.lane_arena_stats();
        assert_eq!(warm.len(), 4);
        assert!(warm.iter().any(|s| s.total_bytes() > 0));
        for _ in 0..2 {
            let mut k = keys.clone();
            sorter.sort(&mut k);
            assert_eq!(
                sorter.lane_arena_stats(),
                warm,
                "lane arenas grew on a repeated same-size sort"
            );
        }
        // Clones start with cold lanes of their own.
        assert!(sorter.clone().lane_arena_stats().is_empty());
    }

    #[test]
    fn round_zero_moves_no_buffer_on_two_cpu_sockets() {
        let sorter = ShardedSorter::new(DevicePool::new(vec![SimDevice::cpu_socket(1); 2]))
            .with_ooc_config(crate::ooc::OocConfig::default().with_chunks_per_device(4));
        let keys: Vec<u64> = ZipfGenerator::paper_keys(60_000, 41);
        let rows: Vec<u32> = (0..60_000).collect();
        let expected = KeyCodec::std_sorted(&keys);

        // Out of core, too, the chunks sort in place in the round buffer,
        // which becomes the output.
        let (mut k, mut v) = (keys.clone(), rows.clone());
        let caller = (k.as_ptr(), v.as_ptr());
        sorter.sort_out_of_core_pairs(&mut k, &mut v);
        assert_eq!(k, expected);
        assert_ne!((k.as_ptr(), v.as_ptr()), caller);

        // In core, the sorted round buffer and the caller's buffer trade
        // places on every sort, and the lanes' arenas stay put.
        sorter.sort_pairs(&mut k, &mut v);
        let mut outputs = Vec::new();
        let mut stats = Vec::new();
        for _ in 0..3 {
            k.copy_from_slice(&keys);
            v.copy_from_slice(&rows);
            sorter.sort_pairs(&mut k, &mut v);
            assert_eq!(k, expected);
            assert!(v
                .iter()
                .zip(&k)
                .all(|(&row, &key)| keys[row as usize] == key));
            outputs.push((k.as_ptr(), v.as_ptr()));
            stats.push(sorter.lane_arena_stats());
        }
        assert_ne!(outputs[0], outputs[1]);
        assert_eq!(outputs[0], outputs[2]);
        assert_eq!(stats[0], stats[1]);
        assert_eq!(stats[1], stats[2]);
    }

    #[test]
    fn telemetry_covers_engine_and_device_lanes() {
        let sorter = test_sorter(2);
        let mut keys = uniform_keys::<u64>(80_000, 33);
        let report = sorter.sort(&mut keys);
        let snap = sorter.inspector().snapshot();
        let mg = snap.node("multi_gpu").unwrap();
        assert_eq!(mg.uint("sorts"), Some(1));
        assert_eq!(mg.uint("keys"), Some(80_000));
        assert_eq!(
            snap.node("multi_gpu/partition_ns").unwrap().uint("count"),
            Some(1)
        );
        assert_eq!(
            snap.node("multi_gpu/merge_ns").unwrap().uint("count"),
            Some(1)
        );
        for i in 0..2 {
            let dev = snap.node(&format!("multi_gpu/dev{i}")).unwrap();
            assert_eq!(
                dev.uint("transfer_bytes"),
                Some(2 * report.shards[i].n * 8),
                "dev{i} moves every element up and down once"
            );
            assert!(dev.double("utilisation").unwrap() > 0.0);
            assert!(dev.double("overlap_ratio").unwrap() > 0.0);
            // The device lanes carry their own core-layer probes.
            let lane = snap.node(&format!("core/dev{i}")).unwrap();
            assert_eq!(lane.uint("sorts"), Some(1));
        }
        assert!(snap.node("spans/multi_gpu/partition").is_some());
        assert!(snap.node("spans/multi_gpu/merge").is_some());
    }

    #[test]
    fn with_telemetry_shares_an_external_inspector() {
        let hub = Inspector::new();
        let sorter = test_sorter(2).with_telemetry(&hub);
        assert!(sorter.inspector().same_as(&hub));
        let mut keys = uniform_keys::<u64>(40_000, 35);
        sorter.sort(&mut keys);
        let mg = hub.snapshot();
        assert_eq!(mg.node("multi_gpu").unwrap().uint("sorts"), Some(1));
        // Clones report into the same shared tree.
        let mut again = uniform_keys::<u64>(40_000, 36);
        sorter.clone().sort(&mut again);
        assert_eq!(
            hub.snapshot().node("multi_gpu").unwrap().uint("sorts"),
            Some(2)
        );
    }

    #[test]
    fn lane_arena_gauges_hold_steady_across_repeated_sorts() {
        let sorter = test_sorter(2);
        let keys = uniform_keys::<u64>(80_000, 37);
        let mut k = keys.clone();
        sorter.sort(&mut k);
        let warm = sorter.inspector().snapshot();
        let warm_bytes = warm
            .node("core/dev0/arena")
            .unwrap()
            .uint("buffer_bytes")
            .unwrap();
        assert!(warm_bytes > 0, "lane arenas retain buffers after a sort");
        for _ in 0..2 {
            let mut k = keys.clone();
            sorter.sort(&mut k);
            let again = sorter
                .inspector()
                .snapshot()
                .node("core/dev0/arena")
                .unwrap()
                .uint("buffer_bytes")
                .unwrap();
            assert_eq!(
                again, warm_bytes,
                "lane arena gauge grew on a repeated same-size sort"
            );
        }
    }

    #[test]
    fn engine_arena_gauges_hold_steady_across_repeated_sorts() {
        let sorter = test_sorter(2);
        let keys = uniform_keys::<u64>(80_000, 39);
        let rows: Vec<u32> = (0..80_000).collect();
        let arena = |sorter: &ShardedSorter| {
            let snap = sorter.inspector().snapshot();
            let node = snap.node("multi_gpu/arena").unwrap();
            (
                node.uint("buffers").unwrap(),
                node.uint("buffer_bytes").unwrap(),
            )
        };
        let (mut k, mut v) = (keys.clone(), rows.clone());
        sorter.sort_pairs(&mut k, &mut v);
        let warm = arena(&sorter);
        // The round keys and values, the splitter sample and the
        // splitter refinement buffer.
        assert_eq!(warm.0, 4);
        assert!(
            warm.1 >= 80_000 * 12,
            "the round buffer is parked: {warm:?}"
        );
        for _ in 0..2 {
            k.copy_from_slice(&keys);
            v.copy_from_slice(&rows);
            sorter.sort_pairs(&mut k, &mut v);
            assert_eq!(
                arena(&sorter),
                warm,
                "engine arena gauges moved on a repeated same-size sort"
            );
        }
    }

    #[test]
    fn report_bookkeeping_is_consistent() {
        let mut keys = uniform_keys::<u64>(80_000, 11);
        let report = test_sorter(4).sort(&mut keys);
        assert_eq!(report.shards.iter().map(|s| s.n).sum::<u64>(), 80_000);
        assert_eq!(report.combined.n, 80_000);
        // Every shard finished no later than the critical path.
        for s in &report.shards {
            assert!(s.finish <= report.critical_path);
        }
        // The timeline rendered schedule mentions every device.
        let rendered = report.timeline.render();
        for i in 0..4 {
            assert!(rendered.contains(&format!("dev{i}")));
        }
        assert!(report.end_to_end >= report.critical_path);
        assert!(report.shard_imbalance() >= 1.0);
    }
}
