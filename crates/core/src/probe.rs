//! The sorter's telemetry probe: live counters, timings and arena gauges.
//!
//! A [`SorterProbe`] bundles every metric one [`HybridRadixSorter`] reports:
//! sort/key/pass counters, log₂ histograms of whole-sort and per-pass times,
//! gauges mirroring the [`ArenaStats`] of the scratch arena, and per-worker
//! task/busy counters fed by the [`ExecProbe`] attached to the execution
//! backend.  Probes register their metrics on a shared
//! [`telemetry::Inspector`] under a caller-chosen prefix (`core`,
//! `core/dev3`, ...), so any number of sorters — including clones running as
//! device lanes — surface in one snapshot tree.
//!
//! Probing is opt-in and cheap: a sorter without a probe takes no clock
//! reads beyond what it already did, and a probed sort adds two `Instant`
//! reads per pass plus two per worker per fan-out (see [`ExecProbe`]).
//!
//! [`HybridRadixSorter`]: crate::HybridRadixSorter

use crate::arena::ArenaStats;
use crate::exec::ExecProbe;
use std::sync::Arc;
use std::time::Duration;
use telemetry::{Counter, Gauge, Histogram, Inspector};

/// Telemetry handles for one sorter (or one family of sorter clones).
#[derive(Debug)]
pub struct SorterProbe {
    /// Completed sorts (including trivial and fallback sorts).
    sorts: Counter,
    /// Keys sorted, cumulative.
    keys: Counter,
    /// Counting passes executed, cumulative.
    passes: Counter,
    /// Sorts that took the small-input comparison fallback.
    fallbacks: Counter,
    /// Whole-sort wall-clock times.
    sort_ns: Histogram,
    /// Per-counting-pass wall-clock times (includes the pass's local sorts).
    pass_ns: Histogram,
    /// Cache lines flushed whole by the write-combining scatter.
    staged_lines: Counter,
    /// Line fragments the write-combining scatter wrote with plain stores.
    partial_flushes: Counter,
    /// Arena gauges, refreshed after every probed sort.
    arena_buffer_bytes: Gauge,
    arena_buffers: Gauge,
    arena_scratch_bytes: Gauge,
    /// Shared per-worker counters for the execution backend.
    exec: ExecProbe,
    /// Per-worker gauges mirroring `exec`, refreshed after every sort.
    worker_tasks: Vec<Gauge>,
    worker_busy_ns: Vec<Gauge>,
}

impl SorterProbe {
    /// Registers a probe's metrics on `inspector` under `prefix` (e.g.
    /// `core` yields `core/sorts`, `core/worker0/tasks`, ...), tracking
    /// `workers` executor workers.
    ///
    /// Registration is idempotent on the inspector side: two probes with
    /// the same prefix share the same underlying counters, which is
    /// exactly what lets rebuilt device lanes keep aggregating.
    pub fn register(inspector: &Inspector, prefix: &str, workers: usize) -> Arc<SorterProbe> {
        let p = |leaf: &str| format!("{prefix}/{leaf}");
        let workers = workers.max(1);
        Arc::new(SorterProbe {
            sorts: inspector.counter(&p("sorts")),
            keys: inspector.counter(&p("keys")),
            passes: inspector.counter(&p("passes")),
            fallbacks: inspector.counter(&p("fallback_sorts")),
            sort_ns: inspector.histogram(&p("sort_ns")),
            pass_ns: inspector.histogram(&p("pass_ns")),
            staged_lines: inspector.counter(&p("scatter/staged_lines")),
            partial_flushes: inspector.counter(&p("scatter/partial_flushes")),
            arena_buffer_bytes: inspector.gauge(&p("arena/buffer_bytes")),
            arena_buffers: inspector.gauge(&p("arena/buffers")),
            arena_scratch_bytes: inspector.gauge(&p("arena/scratch_bytes")),
            exec: ExecProbe::new(workers),
            worker_tasks: (0..workers)
                .map(|w| inspector.gauge(&p(&format!("worker{w}/tasks"))))
                .collect(),
            worker_busy_ns: (0..workers)
                .map(|w| inspector.gauge(&p(&format!("worker{w}/busy_ns"))))
                .collect(),
        })
    }

    /// The per-worker execution probe to pass into
    /// [`Executor::for_each_task_probed`](crate::Executor::for_each_task_probed).
    pub fn exec_probe(&self) -> &ExecProbe {
        &self.exec
    }

    /// Cumulative sorts recorded.
    pub fn sorts(&self) -> u64 {
        self.sorts.get()
    }

    /// Cumulative keys recorded.
    pub fn keys(&self) -> u64 {
        self.keys.get()
    }

    /// Records one per-pass wall-clock time.
    pub(crate) fn record_pass(&self, elapsed: Duration) {
        self.pass_ns.record_duration(elapsed);
    }

    /// Records one completed sort and refreshes the worker gauges from the
    /// execution probe's cumulative counters.
    pub(crate) fn record_sort(&self, keys: u64, passes: u64, fallback: bool, elapsed: Duration) {
        self.sorts.inc();
        self.keys.add(keys);
        self.passes.add(passes);
        if fallback {
            self.fallbacks.inc();
        }
        self.sort_ns.record_duration(elapsed);
        for (w, gauge) in self.worker_tasks.iter().enumerate() {
            gauge.set(self.exec.tasks(w));
        }
        for (w, gauge) in self.worker_busy_ns.iter().enumerate() {
            gauge.set(self.exec.busy_ns(w));
        }
    }

    /// Records one sort's write-combining totals.
    pub(crate) fn record_scatter(&self, staged: u64, partial: u64) {
        self.staged_lines.add(staged);
        self.partial_flushes.add(partial);
    }

    /// Mirrors the arena's retained-memory stats into the gauges.  Uses
    /// `set_max` for the byte gauges: concurrent sorts that fell back to a
    /// private arena report zero retained bytes, and the high-water mark is
    /// the useful signal for "is the arena actually being reused".
    pub(crate) fn record_arena(&self, stats: &ArenaStats) {
        self.arena_buffer_bytes.set_max(stats.buffer_bytes as u64);
        self.arena_buffers.set_max(stats.buffers as u64);
        self.arena_scratch_bytes.set_max(stats.scratch_bytes as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_is_idempotent_per_prefix() {
        let inspector = Inspector::new();
        let a = SorterProbe::register(&inspector, "core", 2);
        let b = SorterProbe::register(&inspector, "core", 2);
        a.record_sort(10, 2, false, Duration::from_micros(5));
        b.record_sort(20, 1, true, Duration::from_micros(7));
        // Distinct probe allocations, shared counters.
        assert_eq!(a.sorts(), 2);
        assert_eq!(a.keys(), 30);
        let snap = inspector.snapshot();
        let core = snap.node("core").unwrap();
        assert_eq!(core.uint("sorts"), Some(2));
        assert_eq!(core.uint("passes"), Some(3));
        assert_eq!(core.uint("fallback_sorts"), Some(1));
        assert_eq!(snap.node("core/sort_ns").unwrap().uint("count"), Some(2));
    }

    #[test]
    fn arena_gauges_track_the_high_water_mark() {
        let inspector = Inspector::new();
        let probe = SorterProbe::register(&inspector, "core", 1);
        probe.record_arena(&ArenaStats {
            buffer_bytes: 1_000,
            buffers: 2,
            scratch_bytes: 64,
        });
        probe.record_arena(&ArenaStats {
            buffer_bytes: 0,
            buffers: 0,
            scratch_bytes: 0,
        });
        let node = inspector.snapshot();
        let arena = node.node("core/arena").unwrap();
        assert_eq!(arena.uint("buffer_bytes"), Some(1_000));
        assert_eq!(arena.uint("buffers"), Some(2));
        assert_eq!(arena.uint("scratch_bytes"), Some(64));
    }

    #[test]
    fn worker_gauges_mirror_the_exec_probe() {
        let inspector = Inspector::new();
        let probe = SorterProbe::register(&inspector, "core", 2);
        crate::Executor::with_workers(2).for_each_task_probed(
            50,
            Some(probe.exec_probe()),
            |_, _| {},
        );
        probe.record_sort(50, 1, false, Duration::from_micros(1));
        let snap = inspector.snapshot();
        let w0 = snap.node("core/worker0").unwrap().uint("tasks").unwrap();
        let w1 = snap.node("core/worker1").unwrap().uint("tasks").unwrap();
        assert_eq!(w0 + w1, 50);
    }
}
