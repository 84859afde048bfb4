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
//!    output (so the algorithm may finish early),
//! 4. finishes every forwarded bucket whose source and destination fit a
//!    core's cache share ([`HOST_CACHE_BYTES`]) depth-first: one executor
//!    fan-out runs a task per such bucket, and each task runs the same pass
//!    loop over that bucket's range alone — its remaining passes, then its
//!    local sorts — on one worker, while the bucket is in cache, and
//! 5. stops when no bucket needs further partitioning or all digits are
//!    consumed.
//!
//! Larger buckets stay breadth-first: one pass over all of them at a time,
//! as the paper's kernels run.  Each pass's
//! [`PassStats`](crate::PassStats) is summed from the integer tallies of
//! the loops that ran its buckets, so the report, and the simulated cost
//! derived from it, do not depend on the schedule.
//! The traced sorts ([`HybridRadixSorter::sort_traced`]) are the only ones
//! that keep every bucket breadth-first, since they snapshot the buffers
//! after each pass.
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
    ArenaStats, PassScratch, ScratchArena, ROLE_LOCAL_KEYS, ROLE_LOCAL_VALS, ROLE_SPARE_KEYS,
    ROLE_SPARE_VALS, ROLE_STAGE_KEYS, ROLE_STAGE_VALS,
};
use crate::bucket::Bucket;
use crate::config::SortConfig;
use crate::cost;
use crate::counting_sort::{run_counting_pass, staging_lens, PassContext, PassTally};
use crate::digit::{radix_of_pass, Digit};
use crate::exec::{Executor, SharedMut};
use crate::local_sort::{
    book_local_sorts, lsd_sort_in_place, run_local_sorts, split_src_dst, stripe,
};
use crate::opts::Optimizations;
use crate::probe::SorterProbe;
use crate::report::{LocalSortStats, SortReport};
use crate::trace::{SortTrace, TraceEvent};
use gpu_sim::{DeviceSpec, HOST_CACHE_BYTES};
use std::sync::{Arc, Mutex, TryLockError};
use std::time::{Duration, Instant};
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
    ///
    /// The traced sorts are the only ones that run every pass breadth-first
    /// over all buckets, as the paper's kernels do: a snapshot after each
    /// pass needs every bucket to have reached it.  The others finish a
    /// cache-sized bucket depth-first on one worker; both orders produce
    /// the same output and the same report.
    pub fn sort_traced<K: SortKey>(
        &self,
        keys: &mut Vec<K>,
        snapshot_limit: usize,
    ) -> (SortReport, SortTrace) {
        self.sort_pairs_traced(keys, &mut Vec::<()>::new(), snapshot_limit)
    }

    /// [`HybridRadixSorter::sort_traced`] for keys with values.
    pub fn sort_pairs_traced<K: SortKey, V: SortValue>(
        &self,
        keys: &mut Vec<K>,
        values: &mut Vec<V>,
        snapshot_limit: usize,
    ) -> (SortReport, SortTrace) {
        if std::mem::size_of::<V>() != 0 {
            assert_eq!(
                keys.len(),
                values.len(),
                "keys and values must have the same length"
            );
        }
        let mut trace = SortTrace::new(snapshot_limit);
        let report = self.sort_vecs(keys, values, Some(&mut trace));
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
        let workers = self.exec.workers();

        // The local sort's ping-pong scratch, taken at the `workers × ∂̂`
        // elements run_local_sorts stripes, so a warm take writes nothing;
        // likewise the per-worker write-combining staging lines (empty
        // when the staged scatter is disabled or a line holds one key).
        let local_len = workers * config.local_sort_threshold;
        let (stage_len, stage_val_len) = staging_lens::<K, V>(config, &self.opts);
        let mut local_keys = arena.take_buffer::<K>(ROLE_LOCAL_KEYS, local_len);
        let mut staging_keys = arena.take_buffer::<K>(ROLE_STAGE_KEYS, workers * stage_len);
        let (mut local_vals, mut staging_vals): (Vec<V>, Vec<V>) = if values_present {
            (
                arena.take_buffer::<V>(ROLE_LOCAL_VALS, local_len),
                arena.take_buffer::<V>(ROLE_STAGE_VALS, workers * stage_val_len),
            )
        } else {
            (Vec::new(), Vec::new())
        };

        if let Some(t) = trace.as_deref_mut() {
            if n <= t.snapshot_limit {
                t.push(TraceEvent::BufferState {
                    label: "input".to_string(),
                    keys: key_bufs[0].iter().map(|k| k.to_radix()).collect(),
                });
            }
        }

        // Every pass loop of the sort tallies into its own scratch: the
        // sort's, and one per worker for the depth-first tasks.
        arena.workers.resize_with(workers, PassScratch::default);
        for scratch in std::iter::once(&mut arena.pass).chain(&mut arena.workers) {
            scratch.tallies.clear();
            scratch
                .tallies
                .resize(num_passes as usize, PassTally::default());
            scratch.local_stats = LocalSortStats::default();
        }
        arena.pass.counting_in.clear();
        arena.pass.counting_in.push(Bucket::root(n));

        // A bucket whose source and destination fit a core's cache share
        // is finished depth-first, unless the trace needs every pass's
        // buffer snapshot (the breadth-first order is its only caller).
        let record = (K::BYTES as usize + std::mem::size_of::<V>()).max(1);
        let depth_first = trace.is_none().then_some(DepthFirst {
            max_keys: HOST_CACHE_BYTES as usize / (2 * record),
            workers: &mut arena.workers,
        });
        let cx = PassContext {
            config,
            opts: &self.opts,
            exec: &self.exec,
            probe: self.probe.as_deref().map(SorterProbe::exec_probe),
        };
        let mut clock = self.probe.as_ref().map(|_| PassClock::new());
        pass_loop(
            &cx,
            &mut key_bufs,
            &mut val_bufs,
            0,
            0,
            final_buf,
            &mut arena.pass,
            [&mut staging_keys, &mut local_keys],
            [&mut staging_vals, &mut local_vals],
            depth_first,
            trace,
            clock.as_mut(),
        );

        // Sum the tallies of every pass loop, pass by pass.
        let mut tallies = std::mem::take(&mut arena.pass.tallies);
        let mut local = arena.pass.local_stats.clone();
        for worker in &arena.workers {
            for (mine, theirs) in tallies.iter_mut().zip(&worker.tallies) {
                mine.add(theirs);
            }
            local.absorb(&worker.local_stats);
        }
        report.passes = tallies
            .iter()
            .take_while(|t| t.n_buckets > 0)
            .zip(0u32..)
            .map(|(t, pass)| t.stats(pass, radix_of_pass(K::BITS, config.digit_bits, pass)))
            .collect();
        for (t, stats) in tallies.iter().zip(&report.passes) {
            report.total_sub_buckets += stats.sub_buckets_created;
            report.max_live_buckets = report
                .max_live_buckets
                .max(stats.local_buckets_created + stats.counting_buckets_forwarded);
            local.classes_used = local.classes_used.max(t.local_classes.count_ones().into());
        }
        report.local = local;
        arena.pass.tallies = tallies;
        if let (Some(p), Some(c)) = (&self.probe, &clock) {
            for elapsed in c.per_pass(report.passes.len()) {
                p.record_pass(elapsed);
            }
        }

        // The scratch segments are parked too: once warmed up they are a
        // fixed point just like the spare halves.
        arena.put_buffer(ROLE_STAGE_KEYS, staging_keys);
        arena.put_buffer(ROLE_LOCAL_KEYS, local_keys);
        if values_present {
            arena.put_buffer(ROLE_STAGE_VALS, staging_vals);
            arena.put_buffer(ROLE_LOCAL_VALS, local_vals);
        }
        (report, final_buf)
    }

    /// Reports one completed sort to the probe, if both are present.
    fn note_sort(&self, keys: u64, passes: u64, fallback: bool, start: Option<Instant>) {
        if let (Some(p), Some(s)) = (&self.probe, start) {
            p.record_sort(keys, passes, fallback, s.elapsed());
        }
    }
}

/// Where the pass loop sends the cache-sized buckets a pass produces:
/// one depth-first task each, on the worker scratch given here.
struct DepthFirst<'a> {
    /// Largest bucket, in keys, whose source and destination fit
    /// [`HOST_CACHE_BYTES`].
    max_keys: usize,
    /// One pass scratch per executor worker.
    workers: &'a mut [PassScratch],
}

/// Measured time of the pass loop, per pass (only kept for a probe; a
/// sort has at most 64 passes, one per key bit).
struct PassClock {
    /// A pass's counting and local sorts.
    own: [Duration; 64],
    /// The depth-first fan-out that followed a pass.
    depth_first: [Duration; 64],
}

impl PassClock {
    fn new() -> Self {
        PassClock {
            own: [Duration::ZERO; 64],
            depth_first: [Duration::ZERO; 64],
        }
    }

    /// One time per counting pass of a sort that ran `passes` passes: its
    /// own time plus an even share of each depth-first fan-out that
    /// finished its buckets, which covers every pass after the one that
    /// launched it.
    fn per_pass(&self, passes: usize) -> impl Iterator<Item = Duration> + '_ {
        (0..passes.min(64)).map(move |q| {
            (0..q).fold(self.own[q], |t, p| {
                t + self.depth_first[p] / (passes - 1 - p) as u32
            })
        })
    }
}

/// The pass loop over one double buffer: counting passes from
/// `first_pass` on over the buckets in `scratch.counting_in`, each pass's
/// local sorts into buffer `final_buf`, until no bucket is left or the
/// digits run out.  Pass `p` reads the half `p % 2` and writes the other.
/// `origin` is the buffers' position within the sort's whole buffers.
///
/// `[staging_keys, local_keys]` and `[staging_vals, local_vals]` are the
/// staging segments and the local-sort scratch, striped per worker.  With
/// `depth_first`, the cache-sized buckets each pass forwards leave the
/// loop: one executor fan-out runs a task per bucket, which calls this
/// loop again on the bucket's range alone (see [`finish_depth_first`]).
/// Every loop tallies into the scratch it ran on.
#[allow(clippy::too_many_arguments)]
fn pass_loop<K: SortKey, V: SortValue>(
    cx: &PassContext<'_>,
    key_bufs: &mut [&mut [K]; 2],
    val_bufs: &mut [&mut [V]; 2],
    origin: usize,
    first_pass: u32,
    final_buf: usize,
    scratch: &mut PassScratch,
    [staging_keys, local_keys]: [&mut [K]; 2],
    [staging_vals, local_vals]: [&mut [V]; 2],
    mut depth_first: Option<DepthFirst<'_>>,
    mut trace: Option<&mut SortTrace>,
    mut clock: Option<&mut PassClock>,
) {
    let n = key_bufs[0].len();
    let num_passes = scratch.tallies.len() as u32;
    // The bookkeeping lists leave the scratch while the passes borrow it.
    let mut counting = std::mem::take(&mut scratch.counting_in);
    let mut next_counting = std::mem::take(&mut scratch.counting_out);
    let mut local = std::mem::take(&mut scratch.local);
    let mut deep = std::mem::take(&mut scratch.depth_first);
    let mut swaps = 0usize;

    for pass in first_pass..num_passes {
        if counting.is_empty() {
            break;
        }
        let pass_start = clock.is_some().then(Instant::now);
        let (src, dst) = ((pass % 2) as usize, (1 - pass % 2) as usize);
        let (src_keys, dst_keys) = split_src_dst(key_bufs, src, dst);
        let (src_vals, dst_vals) = split_src_dst(val_bufs, src, dst);
        let mut tally = run_counting_pass(
            cx,
            src_keys,
            dst_keys,
            src_vals,
            dst_vals,
            origin,
            &counting,
            pass,
            Digit::of_pass(K::BITS, cx.config.digit_bits, pass),
            scratch,
            staging_keys,
            staging_vals,
            &mut local,
            &mut next_counting,
            trace.as_deref_mut(),
        );
        tally.local_classes =
            book_local_sorts(&local, cx.config, cx.opts, &mut scratch.local_stats);
        scratch.tallies[pass as usize].add(&tally);

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
                key_bufs, val_bufs, dst, final_buf, &local, cx, local_keys, local_vals,
            );
        }
        if let (Some(c), Some(s)) = (clock.as_deref_mut(), pass_start) {
            c.own[pass as usize] += s.elapsed();
        }

        // Cache-sized buckets with digits left finish depth-first.
        if let Some(df) = depth_first.as_mut().filter(|_| pass + 1 < num_passes) {
            deep.clear();
            next_counting.retain(|b| {
                let fits = b.len <= df.max_keys;
                if fits {
                    deep.push(*b);
                }
                !fits
            });
            if !deep.is_empty() {
                let start = clock.is_some().then(Instant::now);
                finish_depth_first(
                    cx,
                    key_bufs,
                    val_bufs,
                    &deep,
                    final_buf,
                    df.workers,
                    (&mut *local_keys, &mut *local_vals),
                );
                if let (Some(c), Some(s)) = (clock.as_deref_mut(), start) {
                    c.depth_first[pass as usize] += s.elapsed();
                }
            }
        }

        std::mem::swap(&mut counting, &mut next_counting);
        swaps += 1;

        if let Some(t) = trace.as_deref_mut() {
            if n <= t.snapshot_limit {
                t.push(TraceEvent::BufferState {
                    label: format!("after pass {pass}"),
                    keys: key_bufs[final_buf].iter().map(|k| k.to_radix()).collect(),
                });
            }
        }
    }

    // Whatever buckets remain after the last pass consist of keys that are
    // identical on every digit; their data already sits in the final
    // buffer.
    debug_assert!(counting.is_empty() || (num_passes % 2) as usize == final_buf);

    // Undo an odd number of swaps before parking, so a repeated sort runs
    // each physical list through the same pass sequence and the warmed-up
    // capacities are a fixed point (the arena-reuse regression tests
    // assert exactly this).
    if swaps % 2 == 1 {
        std::mem::swap(&mut counting, &mut next_counting);
    }
    scratch.counting_in = counting;
    scratch.counting_out = next_counting;
    scratch.local = local;
    scratch.depth_first = deep;
}

/// Finishes every bucket of `buckets` (cache-sized, all forwarded by one
/// pass) depth-first: one executor fan-out with a task per bucket, each
/// running [`pass_loop`] over the bucket's range of both halves,
/// sequentially, on its worker's scratch and its worker's stripe of the
/// local-sort segments.  A task's passes get no staging segments, so they
/// scatter every key straight to its place: the range stays in cache, and
/// the local sorts read it straight back.  Afterwards every worker's
/// scratch grows to the others' capacities.
fn finish_depth_first<K: SortKey, V: SortValue>(
    cx: &PassContext<'_>,
    key_bufs: &mut [&mut [K]; 2],
    val_bufs: &mut [&mut [V]; 2],
    buckets: &[Bucket],
    final_buf: usize,
    workers: &mut [PassScratch],
    (local_keys, local_vals): (&mut [K], &mut [V]),
) {
    let task_cx = PassContext {
        exec: &Executor::Sequential,
        probe: None,
        ..*cx
    };
    let n_workers = workers.len().max(1);
    let local_len = local_keys.len() / n_workers;
    let local_val_len = local_vals.len() / n_workers;
    let [k0, k1] = key_bufs;
    let [v0, v1] = val_bufs;
    let keys = [SharedMut::new(k0), SharedMut::new(k1)];
    let vals = [SharedMut::new(v0), SharedMut::new(v1)];
    let scratch = SharedMut::new(&mut *workers);
    let local = (SharedMut::new(local_keys), SharedMut::new(local_vals));
    cx.exec
        .for_each_task_probed(buckets.len(), cx.probe, |t, w| {
            let bucket = buckets[t];
            // SAFETY: bucket ranges are disjoint across tasks, so each task
            // owns its range of both halves; scratch slot `w` and stripe `w`
            // of the local-sort segments belong to worker `w`'s thread, which
            // runs one task at a time.
            let (mut halves, ws, sort_keys, sort_vals) = unsafe {
                let (k0, v0) = stripe(&keys[0], &vals[0], bucket.offset, bucket.len);
                let (k1, v1) = stripe(&keys[1], &vals[1], bucket.offset, bucket.len);
                (
                    ([k0, k1], [v0, v1]),
                    &mut scratch.slice_mut(w, 1)[0],
                    local.0.slice_mut(w * local_len, local_len),
                    local.1.slice_mut(w * local_val_len, local_val_len),
                )
            };
            ws.counting_in.clear();
            ws.counting_in.push(Bucket {
                offset: 0,
                ..bucket
            });
            pass_loop(
                &task_cx,
                &mut halves.0,
                &mut halves.1,
                bucket.offset,
                bucket.pass,
                final_buf,
                ws,
                [&mut [], sort_keys],
                [&mut [], sort_vals],
                None,
                None,
                None,
            );
        });
    if let Some((first, rest)) = workers.split_first_mut() {
        for w in rest.iter() {
            first.reserve_like(w);
        }
        for w in rest {
            w.reserve_like(first);
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
    fn depth_first_tasks_park_matching_worker_scratch() {
        // Every pass-0 bucket of about 1k keys finishes depth-first; both
        // workers' pass scratch stays parked, at equal capacities.
        let n = 1 << 18;
        let sorter = HybridRadixSorter::new(SortConfig::keys_32().scaled_for(n, 1 << 24))
            .with_executor(Executor::with_workers(2));
        let mut keys = uniform_keys::<u32>(n, 5);
        let expected = KeyCodec::std_sorted(&keys);
        let report = sorter.sort(&mut keys);
        assert_eq!(keys, expected);
        assert_eq!(report.counting_passes(), 2);
        let arena = sorter.arena.lock().unwrap();
        assert_eq!(arena.workers.len(), 2);
        let bytes: Vec<usize> = arena
            .workers
            .iter()
            .map(PassScratch::capacity_bytes)
            .collect();
        assert!(bytes[0] > 0 && bytes[0] == bytes[1], "{bytes:?}");
        assert!(arena.workers.iter().all(|w| w.blocks.capacity() > 0));
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
