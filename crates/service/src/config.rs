//! Service tuning knobs.

use hrs_core::Executor;
use std::time::Duration;

/// What [`SortService::submit`](crate::SortService::submit) does with a
/// request larger than the pool's admission budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverBudgetPolicy {
    /// Reject the request with
    /// [`SubmitError::TooLarge`](crate::SubmitError::TooLarge) — the
    /// pre-out-of-core behaviour, and the default.
    #[default]
    Reject,
    /// Admit the request into the dedicated out-of-core lane: it bypasses
    /// batching entirely and runs as one
    /// [`multi_gpu::ShardedSorter::sort_out_of_core`] sort, each device
    /// streaming its shard through the chunked full-duplex pipeline of
    /// Section 5.  The maximum sortable request is then bounded by host
    /// memory, not by device memory.
    OutOfCore,
}

/// Configuration of a [`SortService`](crate::SortService).
///
/// The two batching knobs trade latency for throughput exactly like a
/// group-commit log: `max_batch_bytes` is the size-based admission
/// threshold (a class flushes as soon as its pending bytes reach it) and
/// `max_linger` is the deadline-based one (no admitted request waits longer
/// than this for co-travellers).  Both are further capped by the device
/// pool's memory budget at service start.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Maximum requests in flight (admitted but not yet resolved) before
    /// [`submit`](crate::SortService::submit) returns
    /// [`SubmitError::Saturated`](crate::SubmitError::Saturated).
    pub queue_depth: usize,
    /// Flush a key class once its pending payload reaches this many batch
    /// bytes (keys + demux tags).  Clamped to the pool admission budget.
    pub max_batch_bytes: u64,
    /// Flush a key class once its oldest pending request has waited this
    /// long.
    pub max_linger: Duration,
    /// Flush a key class once it holds this many pending requests.  Set to
    /// `1` to disable coalescing entirely (every request becomes its own
    /// batch) — the baseline mode of `bench_service`.
    pub max_batch_requests: usize,
    /// Executor that runs ready batches of different key classes
    /// concurrently.  Shard fan-out *within* a batch is governed by the
    /// sorter's own host executor instead.
    pub flush_executor: Executor,
    /// What to do with a request above the admission budget: bounce it
    /// ([`OverBudgetPolicy::Reject`]) or stream it through the out-of-core
    /// lane ([`OverBudgetPolicy::OutOfCore`]).
    pub over_budget: OverBudgetPolicy,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_depth: 256,
            max_batch_bytes: 32 << 20,
            max_linger: Duration::from_millis(2),
            max_batch_requests: 1024,
            flush_executor: Executor::with_workers(2),
            over_budget: OverBudgetPolicy::default(),
        }
    }
}

impl ServiceConfig {
    /// Sets the in-flight request limit (≥ 1).
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth.max(1);
        self
    }

    /// Sets the size-based flush threshold.
    pub fn with_max_batch_bytes(mut self, bytes: u64) -> Self {
        self.max_batch_bytes = bytes.max(1);
        self
    }

    /// Sets the deadline-based flush threshold.
    pub fn with_max_linger(mut self, linger: Duration) -> Self {
        self.max_linger = linger;
        self
    }

    /// Sets the request-count flush threshold (≥ 1; `1` disables
    /// coalescing).  Clamped to [`crate::batch::MAX_BATCH_SLOTS`]: a batch
    /// tags every key with its request slot in the high 32 tag bits, so no
    /// batch may hold more requests than the slot space addresses.
    pub fn with_max_batch_requests(mut self, requests: usize) -> Self {
        self.max_batch_requests = requests.clamp(1, crate::batch::MAX_BATCH_SLOTS);
        self
    }

    /// Sets the over-budget policy.
    pub fn with_over_budget(mut self, policy: OverBudgetPolicy) -> Self {
        self.over_budget = policy;
        self
    }

    /// Replaces the executor that flushes ready classes concurrently.
    pub fn with_flush_executor(mut self, exec: Executor) -> Self {
        self.flush_executor = exec;
        self
    }

    /// A configuration that makes every request its own batch — the
    /// one-request-per-batch scheduling `bench_service` compares against.
    pub fn unbatched() -> Self {
        ServiceConfig::default()
            .with_max_batch_requests(1)
            .with_max_linger(Duration::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_clamp() {
        let cfg = ServiceConfig::default()
            .with_queue_depth(0)
            .with_max_batch_bytes(0)
            .with_max_batch_requests(0);
        assert_eq!(cfg.queue_depth, 1);
        assert_eq!(cfg.max_batch_bytes, 1);
        assert_eq!(cfg.max_batch_requests, 1);
        assert_eq!(ServiceConfig::unbatched().max_batch_requests, 1);
        assert_eq!(ServiceConfig::unbatched().max_linger, Duration::ZERO);
    }

    #[test]
    fn request_cap_is_clamped_to_the_slot_space() {
        // Regression (slot-tag packing): a batch cannot hold more requests
        // than the 32-bit slot half of the demux tag can address.
        let cfg = ServiceConfig::default().with_max_batch_requests(usize::MAX);
        assert_eq!(cfg.max_batch_requests, crate::batch::MAX_BATCH_SLOTS);
        assert!(crate::batch::MAX_BATCH_SLOTS <= u32::MAX as usize);
    }

    #[test]
    fn over_budget_defaults_to_reject() {
        assert_eq!(
            ServiceConfig::default().over_budget,
            OverBudgetPolicy::Reject
        );
        let cfg = ServiceConfig::default().with_over_budget(OverBudgetPolicy::OutOfCore);
        assert_eq!(cfg.over_budget, OverBudgetPolicy::OutOfCore);
    }
}
