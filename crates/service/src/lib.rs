//! # sort-service — an async batch sort service over the device pool
//!
//! Stehle & Jacobsen's hybrid radix sort wins by keeping every byte of
//! memory bandwidth busy; a production front end must do the same with
//! *devices*.  A small sort request that occupies a whole
//! [`multi_gpu::DevicePool`] wastes the machine exactly like a
//! partially-filled memory transaction wastes a bus — and the GPU sorting
//! survey of Arkhipov et al. observes that end-to-end throughput in
//! database deployments is dominated by scheduling and transfer
//! orchestration, not the kernel.  This crate is that orchestration layer:
//!
//! * [`SortService`] accepts many concurrent [`SortPayload`] submissions
//!   over a bounded queue and returns a [`SortTicket`] per request;
//! * a worker loop coalesces small requests of the same key class into
//!   batches, flushing on a size threshold (`max_batch_bytes`), a deadline
//!   (`max_linger`), a request cap, or drain at shutdown;
//! * **admission control** checks every request and every batch against the
//!   pool's per-device memory budgets
//!   ([`gpu_sim::DeviceMemoryPlanner::sort_budget_bytes`] queried through
//!   [`multi_gpu::DevicePool::batch_budget_bytes`]), so a batch can never
//!   be formed that would not fit its shards on the devices;
//! * **backpressure is explicit**: when `queue_depth` requests are already
//!   in flight, [`SortService::submit`] returns
//!   [`SubmitError::Saturated`] instead of queueing unboundedly;
//! * each batch runs as **one** sharded sort
//!   ([`multi_gpu::ShardedSorter::try_sort_pairs`]) with every key tagged
//!   by its request slot, and the worker demultiplexes the globally sorted
//!   output back into each request's own buffers — in place, with no
//!   steady-state allocation (batch assembly buffers and the per-device
//!   sorter lanes' scratch arenas are reused across batches).  The engine
//!   sorts one input and knows nothing of requests: each request's
//!   [`RequestSpan`] is the service's own bookkeeping;
//! * ready batches of different key classes are flushed concurrently
//!   through an [`hrs_core::Executor`], and each flush fans its shards out
//!   over the pool exactly like a direct [`multi_gpu::ShardedSorter`] call.
//!
//! The resolved [`SortTicket`] yields a [`SortOutcome`]: the sorted payload
//! (in the requester's own buffers), the request's [`RequestSpan`] slice of
//! the batch, and the batch's shared [`multi_gpu::ShardedReport`].
//!
//! The service is **observable while it runs**: every lifetime counter in
//! [`ServiceStats`] is a shared atomic on the sorter's
//! [`telemetry::Inspector`], so [`SortService::stats_snapshot`] returns
//! live queue depths, flush-reason counts, admission rejections and
//! submit→outcome latency percentiles at any moment, and
//! [`SortService::inspector`] exposes the whole tree — service, sharded
//! engine, out-of-core lane, per-device core sorters — as one
//! JSON-serialisable [`telemetry::InspectNode`] snapshot.
//!
//! ## Quick start
//!
//! ```
//! use sort_service::{ServiceConfig, SortPayload, SortService};
//! use multi_gpu::{DevicePool, ShardedSorter};
//!
//! let service = SortService::start(
//!     ShardedSorter::new(DevicePool::titan_cluster(2)),
//!     ServiceConfig::default(),
//! );
//! let tickets: Vec<_> = (0..4)
//!     .map(|seed| {
//!         let keys = workloads::uniform_keys::<u64>(10_000, seed);
//!         service.submit(SortPayload::U64Keys(keys)).unwrap()
//!     })
//!     .collect();
//! for ticket in tickets {
//!     let outcome = ticket.wait().unwrap();
//!     let SortPayload::U64Keys(keys) = outcome.payload else { unreachable!() };
//!     assert!(keys.windows(2).all(|w| w[0] <= w[1]));
//! }
//! // Live counters, no shutdown needed — and the full inspection tree.
//! let live = service.stats_snapshot();
//! assert_eq!(live.requests, 4);
//! let snapshot = service.inspector().snapshot();
//! assert_eq!(snapshot.node("service").unwrap().uint("requests"), Some(4));
//! let stats = service.shutdown();
//! assert_eq!(stats.requests, 4);
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod config;
mod counters;
pub mod ooc_lane;
pub mod request;
pub mod service;

pub use config::{OverBudgetPolicy, ServiceConfig};
pub use multi_gpu::{FaultEvent, FaultEventKind, OocChunkSpan, SortError};
pub use request::{
    BatchInfo, FlushReason, KeyClass, RequestSpan, SortOutcome, SortPayload, SortRequest,
    SortTicket, SubmitError, TicketError,
};
pub use service::{ServiceStats, SortService};
pub use telemetry::{InspectNode, Inspector};
