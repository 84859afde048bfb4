//! # experiments — harness regenerating every table and figure of the paper
//!
//! Each figure of the paper is regenerated by a function in [`figures`] that
//! returns one or more [`Series`]; the experiment binaries print them as
//! aligned text tables next to the paper's reference values.  Because the
//! evaluation inputs of the paper are 2–64 GB, the harness runs the sorts
//! *functionally* on a scaled-down input whose sort configuration has been
//! scaled by the same factor (preserving the bucket structure — see
//! DESIGN.md) and extrapolates the per-key statistics back to paper scale
//! before evaluating the GPU cost model ([`scale`]).
//!
//! [`checks`] contains the "shape checks" used by the integration tests:
//! who wins, by roughly what factor, and where the crossovers fall.
//!
//! The `bench_*` bins write their sweeps as `BENCH_*.json` through
//! [`artifact`]: one `telemetry::InspectNode` tree per artifact, printed
//! as a console table from the same rows.

#![warn(missing_docs)]

pub mod artifact;
pub mod checks;
pub mod figures;
pub mod multi_gpu_scaling;
pub mod outofcore_bench;
pub mod scale;
pub mod series;
pub mod service_bench;
pub mod wallclock;

pub use multi_gpu_scaling::{ScalingCurve, ScalingPoint};
pub use outofcore_bench::{
    run_chunk_sweep, run_crossover_sweep, OocBenchConfig, OocChunkPoint, OocCrossoverPoint,
};
pub use scale::{KeyKind, PaperScale, ScaledHrsRun};
pub use series::{format_table, Series};
pub use service_bench::{run_service_sweep, ServiceBenchConfig, ServicePoint};
pub use wallclock::{run_wallclock_sweep, WallclockConfig, WallclockPoint};
