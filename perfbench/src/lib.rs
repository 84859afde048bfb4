//! Wall-clock benchmark of the hybrid radix sort stack.
//!
//! One run sorts one workload for a measured window and reports either the
//! end-to-end metrics (untraced run) or the per-layer decomposition of the
//! same workload (traced run).  Every operation's output is checked outside
//! the timed calls; every number is a measured `std::time::Duration` or a
//! count, never a simulated GPU time.

pub mod baseline;
pub mod input;
pub mod layers;
pub mod metrics;
pub mod suite;

pub use metrics::{Metric, RunResult};
pub use suite::{run, RunConfig, Scale, Workload};
