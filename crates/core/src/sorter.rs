//! The hybrid radix sort driver (Section 4.1).
//!
//! [`HybridRadixSorter`] owns the configuration, optimisation flags, device
//! model, the [`Executor`] running the hot loops and the
//! [`ScratchArena`] holding all reusable working memory, and exposes
//! `sort` / `sort_pairs` entry points for any [`SortKey`] type, plus
//! `sort_pairs_with_spare`, which sorts slices against a caller-supplied
//! second buffer.  The driver
//!
//! 1. starts with a single bucket covering the whole input and the
//!    most-significant digit,
//! 2. runs counting-sort passes, alternating between the two halves of a
//!    double buffer,
//! 3. hands every bucket that has shrunk below ∂̂ to the local sort, which
//!    writes its result directly into the buffer that will hold the final
//!    output (so the algorithm may finish early), and
//! 4. stops when no bucket needs further partitioning or all digits are
//!    consumed.
//!
//! The per-pass tables and bucket lists come from the arena, and so does
//! the second half of the double buffer for the `Vec` entries, so repeated
//! sorts through one sorter allocate nothing once warmed up; with
//! [`Executor::Threaded`] the histogram, scatter and local sort phases run
//! on real OS threads.
//!
//! The returned [`SortReport`] contains the recorded statistics and the
//! simulated GPU execution breakdown.

use crate::arena::{
    ArenaStats, ScratchArena, ROLE_LOCAL_KEYS, ROLE_LOCAL_VALS, ROLE_SPARE_KEYS, ROLE_SPARE_VALS,
    ROLE_STAGE_KEYS, ROLE_STAGE_VALS,
};
use crate::bucket::Bucket;
use crate::config::SortConfig;
use crate::cost;
use crate::counting_sort::run_counting_pass;
use crate::exec::Executor;
use crate::local_sort::{lsd_sort_in_place, run_local_sorts, split_src_dst};
use crate::opts::Optimizations;
use crate::probe::SorterProbe;
use crate::report::SortReport;
use crate::trace::{SortTrace, TraceEvent};
use gpu_sim::DeviceSpec;
use std::sync::{Arc, Mutex, TryLockError};
use std::time::Instant;
use workloads::keys::SortKey;
use workloads::pairs::SortValue;

/// The hybrid MSD radix sorter.
#[derive(Debug)]
pub struct HybridRadixSorter {
    /// Explicit configuration; when `None` the device's configuration for
    /// the key/value widths ([`SortConfig::for_device`]) is chosen per
    /// sort call.
    config: Option<SortConfig>,
    /// Optimisation toggles.
    opts: Optimizations,
    /// GPU model used for the simulated timings.
    device: DeviceSpec,
    /// Execution backend for the histogram/scatter/local-sort loops.
    exec: Executor,
    /// Reusable working memory, interior-mutable so `sort` can stay
    /// `&self`.  Uncontended sorts reuse it; when a sorter is shared
    /// across threads, concurrent sorts never block — they fall back to a
    /// private arena for that call.
    arena: Mutex<ScratchArena>,
    /// Opt-in telemetry.  When attached, every sort reports counters,
    /// per-pass timings, arena gauges and per-worker utilisation; when
    /// absent, no clock is read beyond what the sort already did.
    probe: Option<Arc<SorterProbe>>,
}

impl HybridRadixSorter {
    /// A sorter with the paper's defaults: Table 3 configuration selected by
    /// key/value width, all optimisations on, Titan X (Pascal) device model,
    /// sequential execution.
    pub fn with_defaults() -> Self {
        HybridRadixSorter {
            config: None,
            opts: Optimizations::all_on(),
            device: DeviceSpec::titan_x_pascal(),
            exec: Executor::Sequential,
            arena: Mutex::new(ScratchArena::new()),
            probe: None,
        }
    }

    /// A sorter with an explicit configuration.
    pub fn new(config: SortConfig) -> Self {
        HybridRadixSorter {
            config: Some(config),
            ..HybridRadixSorter::with_defaults()
        }
    }

    /// Replaces the configuration.
    pub fn with_config(mut self, config: SortConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Replaces the optimisation flags.
    pub fn with_optimizations(mut self, opts: Optimizations) -> Self {
        self.opts = opts;
        self
    }

    /// Replaces the device model.
    pub fn with_device(mut self, device: DeviceSpec) -> Self {
        self.device = device;
        self
    }

    /// Replaces the execution backend.
    pub fn with_executor(mut self, exec: Executor) -> Self {
        self.exec = exec;
        self
    }

    /// Attaches a telemetry probe.  Several sorters may share one probe
    /// (their metrics aggregate); clones keep reporting into it.
    pub fn with_probe(mut self, probe: Arc<SorterProbe>) -> Self {
        self.probe = Some(probe);
        self
    }

    /// Registers a [`SorterProbe`] for this sorter on `inspector` under
    /// `prefix` (worker slots sized to the current executor — attach the
    /// executor first).
    pub fn with_telemetry(self, inspector: &telemetry::Inspector, prefix: &str) -> Self {
        let probe = SorterProbe::register(inspector, prefix, self.exec.workers());
        self.with_probe(probe)
    }

    /// The attached telemetry probe, if any.
    pub fn probe(&self) -> Option<&Arc<SorterProbe>> {
        self.probe.as_ref()
    }

    /// The configuration that will be used for keys/values of the given
    /// widths: the explicit one if set, else the device's
    /// ([`SortConfig::for_device`]: Table 3 on a GPU, a cache-sized ∂̂ on a
    /// host CPU).
    pub fn effective_config(&self, key_bytes: u32, value_bytes: u32) -> SortConfig {
        self.config
            .clone()
            .unwrap_or_else(|| SortConfig::for_device(&self.device, key_bytes, value_bytes))
    }

    /// The optimisation flags in effect.
    pub fn optimizations(&self) -> Optimizations {
        self.opts
    }

    /// The device model in effect.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// The execution backend in effect.
    pub fn executor(&self) -> Executor {
        self.exec
    }

    /// Snapshot of the scratch arena's retained memory.  Two consecutive
    /// sorts of the same input size report identical stats — the
    /// steady-state hot path allocates nothing.
    pub fn arena_stats(&self) -> ArenaStats {
        self.arena
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .stats()
    }

    /// Sorts `keys` in ascending order (by the key type's radix total
    /// order) and returns the execution report.
    pub fn sort<K: SortKey>(&self, keys: &mut Vec<K>) -> SortReport {
        // Key-only sorts ride the zero-size-value fast path: no value
        // buffer is ever materialised.
        let mut values: Vec<()> = Vec::new();
        self.sort_vecs(keys, &mut values, None)
    }

    /// Sorts `keys` and permutes `values` along with them.
    pub fn sort_pairs<K: SortKey, V: SortValue>(
        &self,
        keys: &mut Vec<K>,
        values: &mut Vec<V>,
    ) -> SortReport {
        assert_eq!(
            keys.len(),
            values.len(),
            "keys and values must have the same length"
        );
        self.sort_vecs(keys, values, None)
    }

    /// Sorts `keys` and permutes `values` along with them in place,
    /// ping-ponging against the caller's `spare_keys` / `spare_values`
    /// instead of the arena's spare halves, so a caller that owns free
    /// memory of the input's size (the sharded engine's lanes) needs no
    /// second buffer of its own.  The spares must have the inputs'
    /// lengths; their contents are ignored and left unspecified.  The
    /// sorted output always lands in `keys` / `values`: when the
    /// configuration's pass count is odd the passes end in the spares, and
    /// one copy brings the output back.  Zero-sized values may come as
    /// empty slices.
    pub fn sort_pairs_with_spare<K: SortKey, V: SortValue>(
        &self,
        keys: &mut [K],
        values: &mut [V],
        spare_keys: &mut [K],
        spare_values: &mut [V],
    ) -> SortReport {
        let n = keys.len();
        let values_present = std::mem::size_of::<V>() != 0;
        assert_eq!(spare_keys.len(), n, "spare keys must match the keys");
        if values_present {
            assert_eq!(values.len(), n, "keys and values must have the same length");
            assert_eq!(spare_values.len(), n, "spare values must match the values");
        }
        self.sort_guarded::<K, V>(n, |config, arena| {
            let (report, out) = self.sort_in(
                config,
                arena,
                [&mut *keys, &mut *spare_keys],
                [&mut *values, &mut *spare_values],
                None,
            );
            if out == 1 {
                keys.copy_from_slice(spare_keys);
                if values_present {
                    values.copy_from_slice(spare_values);
                }
            }
            report
        })
    }

    /// Sorts `keys` while recording a step-by-step [`SortTrace`] (buffer
    /// snapshots are taken for inputs of at most `snapshot_limit` keys).
    pub fn sort_traced<K: SortKey>(
        &self,
        keys: &mut Vec<K>,
        snapshot_limit: usize,
    ) -> (SortReport, SortTrace) {
        let mut values: Vec<()> = Vec::new();
        let mut trace = SortTrace::new(snapshot_limit);
        let report = self.sort_vecs(keys, &mut values, Some(&mut trace));
        (report, trace)
    }

    /// Evaluates the simulated execution of an existing report again (used
    /// after scaling its statistics to a different input size).
    pub fn reevaluate(&self, report: &mut SortReport) {
        let config = self.effective_config(report.key_bytes, report.value_bytes);
        report.simulated = cost::evaluate(&self.device, &config, &self.opts, report);
    }

    /// The `Vec` entries: the arena's spare halves complete the double
    /// buffer, and an odd pass count swaps the buffers instead of copying.
    fn sort_vecs<K: SortKey, V: SortValue>(
        &self,
        keys: &mut Vec<K>,
        values: &mut Vec<V>,
        trace: Option<&mut SortTrace>,
    ) -> SortReport {
        let n = keys.len();
        let values_present = std::mem::size_of::<V>() != 0;
        self.sort_guarded::<K, V>(n, |config, arena| {
            let mut spare_keys = arena.take_buffer::<K>(ROLE_SPARE_KEYS, n);
            let mut spare_vals = if values_present {
                arena.take_buffer::<V>(ROLE_SPARE_VALS, n)
            } else {
                Vec::new()
            };
            let (report, out) = self.sort_in(
                config,
                arena,
                [keys.as_mut_slice(), spare_keys.as_mut_slice()],
                [values.as_mut_slice(), spare_vals.as_mut_slice()],
                trace,
            );
            if out == 1 {
                std::mem::swap(keys, &mut spare_keys);
                std::mem::swap(values, &mut spare_vals);
            }
            if !values_present && values.len() != n {
                // Zero-size fast path: restore the caller-visible length
                // (free for ZSTs — no heap memory is involved).
                values.resize(n, V::default());
            }
            // Park the spare halves for the next sort.
            arena.put_buffer(ROLE_SPARE_KEYS, spare_keys);
            if values_present {
                arena.put_buffer(ROLE_SPARE_VALS, spare_vals);
            }
            report
        })
    }

    /// Runs `sort` on the scratch arena between the steps every entry
    /// shares: the configuration for `K`/`V`, the early return below two
    /// elements, the probe's clock and counters, and the simulated cost.
    /// Concurrent sorts through a sorter shared between threads never
    /// block on the arena; they sort on a private one for that call.
    fn sort_guarded<K: SortKey, V: SortValue>(
        &self,
        n: usize,
        sort: impl FnOnce(&SortConfig, &mut ScratchArena) -> SortReport,
    ) -> SortReport {
        let value_bytes = std::mem::size_of::<V>() as u32;
        let config = self.effective_config(K::BYTES, value_bytes);
        debug_assert!(config.validate().is_ok());
        // Telemetry is opt-in: without a probe no clock is read here.
        let sort_start = self.probe.as_ref().map(|_| Instant::now());
        let mut report = if n <= 1 {
            SortReport::new(n as u64, K::BYTES, value_bytes)
        } else {
            let mut fallback_arena: Option<ScratchArena> = None;
            let mut guard = match self.arena.try_lock() {
                Ok(g) => Some(g),
                Err(TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
                Err(TryLockError::WouldBlock) => None,
            };
            let arena: &mut ScratchArena = match guard.as_deref_mut() {
                Some(shared) => shared,
                None => fallback_arena.get_or_insert_with(ScratchArena::new),
            };
            let report = sort(&config, arena);
            if let Some(p) = self
                .probe
                .as_ref()
                .filter(|_| !report.fallback_comparison_sort)
            {
                let mut staged = 0u64;
                let mut partial = 0u64;
                for ps in &report.passes {
                    staged += ps.staged_lines;
                    partial += ps.partial_flushes;
                }
                p.record_scatter(staged, partial);
                p.record_arena(&arena.stats());
            }
            report
        };
        self.note_sort(
            n as u64,
            report.passes.len() as u64,
            report.fallback_comparison_sort,
            sort_start,
        );
        report.simulated = cost::evaluate(&self.device, &config, &self.opts, &report);
        report
    }

    /// The hybrid sort proper: sorts `key_bufs[0]` (with `val_bufs[0]`)
    /// over the double buffer whose other half, of the same length, is
    /// free scratch.  Returns the report, without its simulated cost, and
    /// the half holding the sorted output.
    fn sort_in<K: SortKey, V: SortValue>(
        &self,
        config: &SortConfig,
        arena: &mut ScratchArena,
        mut key_bufs: [&mut [K]; 2],
        mut val_bufs: [&mut [V]; 2],
        mut trace: Option<&mut SortTrace>,
    ) -> (SortReport, usize) {
        let n = key_bufs[0].len();
        let values_present = std::mem::size_of::<V>() != 0;
        let mut report = SortReport::new(n as u64, K::BYTES, std::mem::size_of::<V>() as u32);

        // Small-input fallback (Section 6.1): below the threshold the whole
        // input goes straight to the local-sort kernel, skipping the
        // partitioning machinery; the free half is its scratch.
        if n <= config.small_input_fallback {
            let [keys, spare_keys] = key_bufs;
            let [vals, spare_vals] = val_bufs;
            lsd_sort_in_place(keys, vals, spare_keys, spare_vals, K::BITS);
            report.fallback_comparison_sort = true;
            return (report, 0);
        }

        let num_passes = config.num_passes(K::BITS);
        let final_buf = (num_passes % 2) as usize;

        // The local sort's ping-pong scratch, taken at the `workers × ∂̂`
        // elements run_local_sorts stripes, so a warm take writes nothing.
        let local_len = self.exec.workers() * config.local_sort_threshold;
        let mut local_keys = arena.take_buffer::<K>(ROLE_LOCAL_KEYS, local_len);
        let mut local_vals: Vec<V> = if values_present {
            arena.take_buffer::<V>(ROLE_LOCAL_VALS, local_len)
        } else {
            Vec::new()
        };
        // Per-worker write-combining staging lines live in their own arena
        // segment; the counting pass sizes them (they stay empty when the
        // staged scatter is disabled or the line holds a single key).
        let mut staging_keys = arena.take_buffer::<K>(ROLE_STAGE_KEYS, 0);
        let mut staging_vals: Vec<V> = if values_present {
            arena.take_buffer::<V>(ROLE_STAGE_VALS, 0)
        } else {
            Vec::new()
        };

        if let Some(t) = trace.as_deref_mut() {
            if n <= t.snapshot_limit {
                t.push(TraceEvent::BufferState {
                    label: "input".to_string(),
                    keys: key_bufs[0].iter().map(|k| k.to_radix()).collect(),
                });
            }
        }

        // Bucket bookkeeping lists, reused across sorts via the arena.
        let mut counting = std::mem::take(&mut arena.pass.counting_in);
        let mut next_counting = std::mem::take(&mut arena.pass.counting_out);
        let mut local = std::mem::take(&mut arena.pass.local);
        counting.clear();
        counting.push(Bucket::root(n));
        let mut next_id: u64 = 1;
        let mut cur = 0usize;
        let mut swaps = 0usize;
        let exec_probe = self.probe.as_deref().map(SorterProbe::exec_probe);

        for pass in 0..num_passes {
            if counting.is_empty() {
                break;
            }
            let pass_start = self.probe.as_ref().map(|_| Instant::now());
            let dst = 1 - cur;

            // Split the double buffer into the source and destination halves.
            let (src_keys, dst_keys) = split_src_dst(&mut key_bufs, cur, dst);
            let (src_vals, dst_vals) = split_src_dst(&mut val_bufs, cur, dst);

            let pass_stats = run_counting_pass(
                src_keys,
                dst_keys,
                src_vals,
                dst_vals,
                &counting,
                pass,
                config,
                &self.opts,
                &mut next_id,
                &self.exec,
                exec_probe,
                &mut arena.pass,
                &mut staging_keys,
                &mut staging_vals,
                &mut local,
                &mut next_counting,
                trace.as_deref_mut(),
            );

            report.total_sub_buckets += pass_stats.sub_buckets_created;
            report.max_live_buckets = report
                .max_live_buckets
                .max((next_counting.len() + local.len()) as u64);
            report.passes.push(pass_stats);

            // Local sorts read from the freshly written destination buffer
            // and place their result in the buffer holding the final output.
            if !local.is_empty() {
                if let Some(t) = trace.as_deref_mut() {
                    for l in &local {
                        t.push(TraceEvent::LocalSort {
                            pass: l.sorted_passes,
                            offset: l.offset,
                            len: l.len,
                            merged_from: l.merged_from,
                        });
                    }
                }
                run_local_sorts(
                    &mut key_bufs,
                    &mut val_bufs,
                    dst,
                    final_buf,
                    &local,
                    config,
                    &self.opts,
                    &self.exec,
                    exec_probe,
                    &mut local_keys,
                    &mut local_vals,
                    &mut report.local,
                );
            }

            if let (Some(p), Some(s)) = (&self.probe, pass_start) {
                p.record_pass(s.elapsed());
            }

            std::mem::swap(&mut counting, &mut next_counting);
            swaps += 1;
            cur = dst;

            if let Some(t) = trace.as_deref_mut() {
                if n <= t.snapshot_limit {
                    t.push(TraceEvent::BufferState {
                        label: format!("after pass {pass}"),
                        keys: key_bufs[final_buf].iter().map(|k| k.to_radix()).collect(),
                    });
                }
            }
        }

        // Whatever buckets remain after the last pass consist of keys that
        // are identical on every digit; their data already sits in the final
        // buffer (cur == final_buf at this point).
        debug_assert!(counting.is_empty() || cur == final_buf);

        // The staging segments are parked too: once warmed up they are a
        // fixed point just like the spare halves.
        arena.put_buffer(ROLE_STAGE_KEYS, staging_keys);
        if values_present {
            arena.put_buffer(ROLE_STAGE_VALS, staging_vals);
        }
        arena.put_buffer(ROLE_LOCAL_KEYS, local_keys);
        if values_present {
            arena.put_buffer(ROLE_LOCAL_VALS, local_vals);
        }
        // Undo an odd number of swaps before parking, so a repeated sort
        // runs each physical list through the same pass sequence and the
        // warmed-up capacities are a fixed point (the arena-reuse
        // regression tests assert exactly this).
        if swaps % 2 == 1 {
            std::mem::swap(&mut counting, &mut next_counting);
        }
        arena.pass.counting_in = counting;
        arena.pass.counting_out = next_counting;
        arena.pass.local = local;
        (report, final_buf)
    }

    /// Reports one completed sort to the probe, if both are present.
    fn note_sort(&self, keys: u64, passes: u64, fallback: bool, start: Option<Instant>) {
        if let (Some(p), Some(s)) = (&self.probe, start) {
            p.record_sort(keys, passes, fallback, s.elapsed());
        }
    }
}

impl Default for HybridRadixSorter {
    fn default() -> Self {
        HybridRadixSorter::with_defaults()
    }
}

impl Clone for HybridRadixSorter {
    /// Clones the configuration; the clone starts with a fresh (empty)
    /// arena, so clones can be moved to other threads cheaply.  An
    /// attached probe is shared — clones keep aggregating into the same
    /// metrics.
    fn clone(&self) -> Self {
        HybridRadixSorter {
            config: self.config.clone(),
            opts: self.opts,
            device: self.device.clone(),
            exec: self.exec,
            arena: Mutex::new(ScratchArena::new()),
            probe: self.probe.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{
        pairs::verify_indexed_pair_sort, uniform_keys, Distribution, EntropyLevel, KeyCodec,
    };

    fn scaled_config_64() -> SortConfig {
        // Scale the 64-bit configuration so that moderate test inputs
        // exercise multiple counting passes and local sorts.
        SortConfig::keys_64().scaled_for(100_000, 250_000_000)
    }

    #[test]
    fn sorts_uniform_u64_keys() {
        let mut keys = uniform_keys::<u64>(100_000, 1);
        let expected = KeyCodec::std_sorted(&keys);
        let sorter = HybridRadixSorter::new(scaled_config_64());
        let report = sorter.sort(&mut keys);
        assert_eq!(keys, expected);
        assert!(report.counting_passes() >= 1);
        assert!(report.local.invocations > 0);
        assert!(report.simulated.total.secs() > 0.0);
    }

    #[test]
    fn cpu_socket_sorters_size_the_local_threshold_to_the_cache() {
        let cpu = HybridRadixSorter::with_defaults().with_device(DeviceSpec::cpu_socket(1));
        let on_chip = DeviceSpec::cpu_socket(1).max_shared_mem_per_block as usize;
        assert_eq!(on_chip, 1024 * 1024);
        for (key_bytes, value_bytes) in [(4u32, 0u32), (8, 0), (8, 4), (8, 8)] {
            let config = cpu.effective_config(key_bytes, value_bytes);
            let record = (key_bytes + value_bytes) as usize;
            assert_eq!(config.local_sort_threshold, on_chip / (2 * record));
            assert!(config.validate().is_ok(), "{config:?}");
        }
        assert_eq!(cpu.effective_config(8, 4).local_sort_threshold, 43_690);
        // A GPU sorter keeps Table 3, and an explicit configuration wins.
        let titan = HybridRadixSorter::with_defaults();
        assert_eq!(titan.effective_config(4, 0), SortConfig::keys_32());
        assert_eq!(titan.effective_config(8, 0), SortConfig::keys_64());
        assert_eq!(titan.effective_config(4, 4), SortConfig::pairs_32_32());
        assert_eq!(titan.effective_config(8, 8), SortConfig::pairs_64_64());
        assert_eq!(titan.effective_config(8, 4), SortConfig::for_widths(8, 4));
        let explicit = cpu.with_config(SortConfig::keys_64());
        assert_eq!(explicit.effective_config(8, 4), SortConfig::keys_64());
    }

    #[test]
    fn cpu_socket_sorts_uniform_wide_pairs_in_one_counting_pass() {
        let n = 1 << 20;
        let keys = uniform_keys::<u64>(n, 37);
        let mut sorted_keys = keys.clone();
        let mut values: Vec<u32> = (0..n as u32).collect();
        let sorter = HybridRadixSorter::with_defaults().with_device(DeviceSpec::cpu_socket(1));
        let report = sorter.sort_pairs(&mut sorted_keys, &mut values);
        assert!(verify_indexed_pair_sort(&keys, &sorted_keys, &values));
        assert_eq!(report.counting_passes(), 1, "{}", report.summary());
        let threshold = sorter.effective_config(8, 4).local_sort_threshold as u64;
        assert!(report.local.largest_bucket <= threshold);
        assert_eq!(report.local.n_keys, n as u64);
    }

    #[test]
    fn threaded_executor_sorts_identically() {
        let keys = uniform_keys::<u64>(80_000, 23);
        let expected = KeyCodec::std_sorted(&keys);
        for workers in [1usize, 2, 7] {
            let mut k = keys.clone();
            let sorter = HybridRadixSorter::new(scaled_config_64())
                .with_executor(Executor::with_workers(workers));
            let report = sorter.sort(&mut k);
            assert_eq!(k, expected, "workers = {workers}");
            assert!(report.counting_passes() >= 1);
        }
    }

    #[test]
    fn arena_is_reused_across_sorts() {
        // The regression check behind the "zero steady-state allocation"
        // claim: after the warm-up sort, repeated sorts of the same input
        // must not grow any retained arena capacity.
        let keys = uniform_keys::<u64>(60_000, 21);
        for exec in [Executor::Sequential, Executor::with_workers(4)] {
            let sorter = HybridRadixSorter::new(scaled_config_64()).with_executor(exec);
            let mut k = keys.clone();
            sorter.sort(&mut k);
            let warm = sorter.arena_stats();
            assert!(warm.total_bytes() > 0);
            assert!(warm.buffers >= 1);
            for _ in 0..2 {
                let mut k = keys.clone();
                sorter.sort(&mut k);
                assert_eq!(
                    sorter.arena_stats(),
                    warm,
                    "arena grew on a repeated sort ({})",
                    exec.label()
                );
            }
        }
    }

    #[test]
    fn arena_is_reused_for_pairs_too() {
        let keys = uniform_keys::<u32>(30_000, 2);
        let sorter =
            HybridRadixSorter::new(SortConfig::pairs_32_32().scaled_for(30_000, 500_000_000));
        let mut k = keys.clone();
        let mut v: Vec<u32> = (0..30_000).collect();
        sorter.sort_pairs(&mut k, &mut v);
        let warm = sorter.arena_stats();
        // Key and value spare buffers are both parked.
        assert!(warm.buffers >= 2);
        let mut k = keys.clone();
        let mut v: Vec<u32> = (0..30_000).collect();
        sorter.sort_pairs(&mut k, &mut v);
        assert_eq!(sorter.arena_stats(), warm);
    }

    #[test]
    fn probed_sorts_report_live_metrics() {
        let inspector = telemetry::Inspector::new();
        let sorter = HybridRadixSorter::new(scaled_config_64())
            .with_executor(Executor::with_workers(2))
            .with_telemetry(&inspector, "core");
        let mut keys = uniform_keys::<u64>(60_000, 31);
        let report = sorter.sort(&mut keys);

        let snap = inspector.snapshot();
        let core = snap.node("core").unwrap();
        assert_eq!(core.uint("sorts"), Some(1));
        assert_eq!(core.uint("keys"), Some(60_000));
        assert_eq!(core.uint("passes"), Some(report.counting_passes() as u64));
        assert_eq!(
            snap.node("core/pass_ns").unwrap().uint("count"),
            Some(report.counting_passes() as u64)
        );
        assert_eq!(snap.node("core/sort_ns").unwrap().uint("count"), Some(1));
        // The arena gauges mirror the retained scratch memory.
        let arena = snap.node("core/arena").unwrap();
        assert_eq!(
            arena.uint("buffer_bytes"),
            Some(sorter.arena_stats().buffer_bytes as u64)
        );
        // Both executor workers surface, and their task counts cover every
        // histogram/scatter/local-sort task of the sort.
        let tasks0 = snap.node("core/worker0").unwrap().uint("tasks").unwrap();
        let tasks1 = snap.node("core/worker1").unwrap().uint("tasks").unwrap();
        assert!(tasks0 + tasks1 > 0);

        // A clone shares the probe: its sorts aggregate into the same tree.
        let clone = sorter.clone();
        let mut keys = uniform_keys::<u64>(60_000, 32);
        clone.sort(&mut keys);
        assert_eq!(
            inspector.snapshot().node("core").unwrap().uint("sorts"),
            Some(2)
        );
    }

    #[test]
    fn fallback_sorts_are_counted_separately() {
        let inspector = telemetry::Inspector::new();
        let mut cfg = SortConfig::keys_32();
        cfg.small_input_fallback = 1_000;
        let sorter = HybridRadixSorter::new(cfg).with_telemetry(&inspector, "core");
        let mut keys = uniform_keys::<u32>(500, 11);
        sorter.sort(&mut keys);
        let snap = inspector.snapshot();
        let core = snap.node("core").unwrap();
        assert_eq!(core.uint("sorts"), Some(1));
        assert_eq!(core.uint("fallback_sorts"), Some(1));
        assert_eq!(core.uint("passes"), Some(0));
    }

    #[test]
    fn clone_starts_with_a_fresh_arena() {
        let sorter = HybridRadixSorter::new(scaled_config_64());
        let mut keys = uniform_keys::<u64>(50_000, 3);
        sorter.sort(&mut keys);
        assert!(sorter.arena_stats().total_bytes() > 0);
        let clone = sorter.clone();
        assert_eq!(clone.arena_stats().total_bytes(), 0);
        assert_eq!(clone.executor(), sorter.executor());
    }

    #[test]
    fn sorts_all_entropy_levels_u32() {
        let sorter = HybridRadixSorter::new(SortConfig::keys_32().scaled_for(50_000, 500_000_000));
        for level in EntropyLevel::ladder() {
            let mut keys = level.generate_u32(50_000, 7);
            let expected = KeyCodec::std_sorted(&keys);
            let report = sorter.sort(&mut keys);
            assert_eq!(keys, expected, "level {level:?}");
            assert!(report.counting_passes() <= 4);
        }
    }

    #[test]
    fn constant_distribution_runs_all_passes() {
        let mut keys = vec![0xDEAD_BEEFu32; 20_000];
        let sorter = HybridRadixSorter::new(SortConfig::keys_32().scaled_for(20_000, 500_000_000));
        let report = sorter.sort(&mut keys);
        // Every pass sees one bucket holding all keys; no local sort can
        // trigger before the digits run out.
        assert_eq!(report.counting_passes(), 4);
        assert_eq!(report.local.invocations, 0);
        assert!(keys.iter().all(|&k| k == 0xDEAD_BEEF));
    }

    #[test]
    fn uniform_distribution_finishes_early() {
        let mut keys = uniform_keys::<u64>(80_000, 3);
        let sorter = HybridRadixSorter::new(SortConfig::keys_64().scaled_for(80_000, 250_000_000));
        let report = sorter.sort(&mut keys);
        // The uniform distribution should never need all eight passes.
        assert!(report.counting_passes() < 8, "{}", report.summary());
        assert!(report.local.n_keys > 0);
    }

    #[test]
    fn sort_pairs_preserves_association() {
        let keys = uniform_keys::<u32>(30_000, 4);
        let mut sorted_keys = keys.clone();
        let mut values: Vec<u32> = (0..30_000).collect();
        let sorter =
            HybridRadixSorter::new(SortConfig::pairs_32_32().scaled_for(30_000, 500_000_000));
        let report = sorter.sort_pairs(&mut sorted_keys, &mut values);
        assert!(verify_indexed_pair_sort(&keys, &sorted_keys, &values));
        assert_eq!(report.value_bytes, 4);
        assert_eq!(report.input_bytes(), 30_000 * 8);
    }

    #[test]
    fn sort_pairs_with_threads_preserves_association() {
        let keys = uniform_keys::<u64>(40_000, 19);
        let mut sorted_keys = keys.clone();
        let mut values: Vec<u32> = (0..40_000).collect();
        let sorter =
            HybridRadixSorter::new(SortConfig::pairs_64_64().scaled_for(40_000, 225_000_000))
                .with_executor(Executor::with_workers(3));
        sorter.sort_pairs(&mut sorted_keys, &mut values);
        assert!(verify_indexed_pair_sort(&keys, &sorted_keys, &values));
    }

    #[test]
    fn sorts_signed_and_float_keys() {
        let sorter = HybridRadixSorter::with_defaults();
        let mut ints: Vec<i64> = Distribution::Uniform.generate(10_000, 5);
        let expected = KeyCodec::std_sorted(&ints);
        sorter.sort(&mut ints);
        assert_eq!(ints, expected);

        let mut floats: Vec<f64> = (0..10_000)
            .map(|i| ((i as f64) - 5_000.0) * 1.37)
            .rev()
            .collect();
        sorter.sort(&mut floats);
        assert!(floats.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(floats[0], -5_000.0 * 1.37);
    }

    #[test]
    fn empty_and_single_element_inputs() {
        let sorter = HybridRadixSorter::with_defaults();
        let mut empty: Vec<u32> = Vec::new();
        let report = sorter.sort(&mut empty);
        assert!(empty.is_empty());
        assert_eq!(report.n, 0);
        let mut single = vec![42u64];
        sorter.sort(&mut single);
        assert_eq!(single, vec![42]);
    }

    #[test]
    fn ablation_variants_still_sort_correctly() {
        let keys = EntropyLevel::with_and_count(3).generate_u32(40_000, 9);
        let expected = KeyCodec::std_sorted(&keys);
        for (name, opts) in Optimizations::ablation_variants() {
            let mut k = keys.clone();
            let sorter =
                HybridRadixSorter::new(SortConfig::keys_32().scaled_for(40_000, 500_000_000))
                    .with_optimizations(opts);
            sorter.sort(&mut k);
            assert_eq!(k, expected, "variant {name}");
        }
    }

    #[test]
    fn small_input_fallback_path() {
        let mut cfg = SortConfig::keys_32();
        cfg.small_input_fallback = 1_000;
        let sorter = HybridRadixSorter::new(cfg);
        let mut keys = uniform_keys::<u32>(500, 11);
        let expected = KeyCodec::std_sorted(&keys);
        let report = sorter.sort(&mut keys);
        assert!(report.fallback_comparison_sort);
        assert_eq!(keys, expected);
        assert!(report.passes.is_empty());
    }

    #[test]
    fn traced_sort_records_table2_style_events() {
        // The Table 2 example: 16 keys of 4 bits — approximated here with
        // u8 keys whose upper bits are zero and a 2-bit-digit config.
        let mut cfg = SortConfig::keys_32();
        cfg.digit_bits = 2;
        cfg.local_sort_threshold = 3;
        cfg.merge_threshold = 3;
        cfg.keys_per_block = 16;
        cfg.local_sort_classes = SortConfig::default_classes(3);
        let sorter = HybridRadixSorter::new(cfg);
        let mut keys: Vec<u8> = vec![13, 6, 1, 11, 6, 10, 6, 0, 5, 4, 4, 13, 3, 7, 6, 3];
        let (report, trace) = sorter.sort_traced(&mut keys, 64);
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        assert!(trace.histograms_of_pass(0).len() == 1);
        assert!(trace.local_sorts() > 0);
        assert!(report.counting_passes() >= 1);
    }

    #[test]
    fn reevaluate_after_scaling_changes_the_simulated_time() {
        let mut keys = uniform_keys::<u64>(50_000, 13);
        let sorter = HybridRadixSorter::new(scaled_config_64());
        let mut report = sorter.sort(&mut keys);
        let before = report.simulated.total;
        report.scale_per_key_stats(10_000.0);
        sorter.reevaluate(&mut report);
        assert!(report.simulated.total > before * 5.0);
    }

    #[test]
    fn report_passes_respect_bucket_structure() {
        let mut keys = uniform_keys::<u32>(60_000, 17);
        let cfg = SortConfig::keys_32().scaled_for(60_000, 500_000_000);
        let sorter = HybridRadixSorter::new(cfg);
        let report = sorter.sort(&mut keys);
        // The first pass always partitions exactly one bucket.
        assert_eq!(report.passes[0].n_buckets, 1);
        assert_eq!(report.passes[0].n_keys, 60_000);
        // Each later pass only processes the keys of forwarded buckets.
        for w in report.passes.windows(2) {
            assert!(w[1].n_keys <= w[0].n_keys);
            assert_eq!(w[1].n_buckets, w[0].counting_buckets_forwarded);
        }
    }
}
