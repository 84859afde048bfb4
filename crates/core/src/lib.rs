//! # hrs-core — the hybrid MSD radix sort of Stehle & Jacobsen (SIGMOD 2017)
//!
//! This crate implements the paper's primary contribution: a GPU radix sort
//! that proceeds from the most-significant towards the least-significant
//! digit, sorts on **eight bits per pass** (instead of the four to five bits
//! of LSD-based state-of-the-art sorts), and switches to an on-chip **local
//! sort** as soon as a bucket fits into shared memory.  Because the MSD
//! order does not require stable passes, per-block histograms and the key
//! scattering can be built on native shared-memory atomics; skew-induced
//! contention is mitigated by a register-level *thread reduction* (a
//! 9-element sorting network) and a *look-ahead* write combiner.
//!
//! In this reproduction the algorithm runs *functionally* on the CPU — it
//! really sorts — while every kernel's device-memory traffic and
//! shared-memory atomic behaviour is recorded and fed through the
//! analytical GPU model of the [`gpu_sim`] crate to obtain simulated
//! execution times and sorting rates comparable to the paper's figures.
//!
//! ## Quick start
//!
//! ```
//! use hrs_core::HybridRadixSorter;
//! use workloads::uniform_keys;
//!
//! let mut keys = uniform_keys::<u64>(100_000, 42);
//! let sorter = HybridRadixSorter::with_defaults();
//! let report = sorter.sort(&mut keys);
//! assert!(keys.windows(2).all(|w| w[0] <= w[1]));
//! println!("simulated sorting rate: {}", report.simulated.sorting_rate);
//! ```
//!
//! ## Module map
//!
//! * [`exec`] — the execution backends: [`Executor::Sequential`] and the
//!   real-thread [`Executor::Threaded`] running the per-block work of every
//!   pass on scoped OS workers.
//! * [`arena`] — the zero-allocation scratch arena reused across passes and
//!   sorts (ping-pong buffers, histogram strips, offset tables).
//! * [`config`] — Table 3 configurations (`KPB`, threads, `KPT`, ∂̂) and the
//!   local-sort size classes.
//! * [`opts`] — the optimisation toggles exercised by the Appendix-B
//!   ablation study.
//! * [`digit`] — most-significant-first digit extraction.
//! * [`prefix_sum`] — a small building block.
//! * [`histogram`] — per-block histograms, counting the shared-memory
//!   atomics of the *atomics only* and *thread reduction & atomics*
//!   strategies (Section 4.3).
//! * [`scatter`] — key/value scattering with chunk reservation, counting
//!   the shared-memory writes of the look-ahead write combiner
//!   (Section 4.4).
//! * [`bucket`] — bucket and block bookkeeping, neighbour-bucket merging.
//! * [`counting_sort`] — one full counting-sort pass over all active
//!   buckets.
//! * [`local_sort`] — stable LSD radix local sorts over each bucket's
//!   remaining bits (Section 4.2).
//! * [`sorter`] — the double-buffered driver ([`HybridRadixSorter`]).
//! * [`probe`] — opt-in telemetry: per-sorter counters, pass timings,
//!   arena gauges and per-worker utilisation reported to a shared
//!   [`telemetry::Inspector`].
//! * [`report`], [`cost`] — instrumentation and the simulated-time
//!   evaluation.
//! * [`model`] — the analytical model of Section 4.5 (bucket/block bounds,
//!   memory requirements).
//! * [`trace`] — the step-by-step trace used to reproduce Table 2.

#![warn(missing_docs)]
// Every unsafe operation inside an `unsafe fn` must name its own `unsafe`
// block (and justify it), instead of inheriting a function-wide license.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod arena;
pub mod bucket;
pub mod config;
pub mod cost;
pub mod counting_sort;
pub mod digit;
pub mod exec;
pub mod histogram;
pub mod local_sort;
pub mod model;
pub mod opts;
pub mod prefix_sum;
pub mod probe;
pub mod report;
pub mod scatter;
pub mod sorter;
pub mod trace;

pub use arena::{ArenaStats, ScratchArena};
pub use config::{LocalSortClass, SortConfig};
pub use cost::SimBreakdown;
pub use exec::{ExecProbe, Executor, SharedMut};
pub use model::AnalyticalModel;
pub use opts::Optimizations;
pub use probe::SorterProbe;
pub use report::{LocalSortStats, PassStats, SortReport};
pub use sorter::HybridRadixSorter;
pub use trace::SortTrace;

/// Re-export of the key abstraction used by all sorters.
pub use workloads::keys::SortKey;
/// Re-export of the value marker trait.
pub use workloads::pairs::SortValue;
