//! The dedicated out-of-core lane for over-budget requests.
//!
//! A request larger than the pool's admission budget can never be batched —
//! no formed batch may exceed what the devices' memory planners allow.
//! Under [`OverBudgetPolicy::OutOfCore`](crate::OverBudgetPolicy::OutOfCore)
//! such a request is instead admitted into this lane: its own worker
//! thread, its own sorter clone (own warm device lanes), no coalescing.
//! Each request runs as one
//! [`multi_gpu::ShardedSorter::try_sort_out_of_core`] (or `_pairs`) sort —
//! every device streams its shard through the chunked full-duplex PCIe
//! pipeline of Section 5 — and resolves with the per-chunk
//! [`multi_gpu::OocChunkSpan`]s in its report.  The request rides alone,
//! so its [`RequestSpan`] is index 0, offset 0 and its whole length.
//!
//! The lane reports into the same live `service/...` counters as the
//! batching worker (`service/ooc/{requests,chunks,latency_ns}`), so
//! [`SortService::stats_snapshot`](crate::SortService::stats_snapshot) and
//! [`ServiceStats`](crate::ServiceStats) cover it without any
//! shutdown-time merging.
//!
//! Keeping the lane on its own thread means a multi-gigabyte streaming
//! sort never blocks the latency-sensitive batching worker next door.

use crate::counters::ServiceCounters;
use crate::request::{BatchInfo, FlushReason, RequestSpan, SortOutcome, SortPayload, TicketError};
use crate::service::{CancelSet, Submission};
use multi_gpu::{ShardedReport, ShardedSorter, SortError};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

/// The lane worker: owns a sorter clone and drains its own channel.
pub(crate) struct OocLaneWorker {
    sorter: ShardedSorter,
    in_flight: Arc<AtomicUsize>,
    next_batch: Arc<AtomicU64>,
    counters: Arc<ServiceCounters>,
    cancels: CancelSet,
}

impl OocLaneWorker {
    pub(crate) fn new(
        sorter: ShardedSorter,
        in_flight: Arc<AtomicUsize>,
        next_batch: Arc<AtomicU64>,
        cancels: CancelSet,
    ) -> Self {
        let counters = ServiceCounters::register(sorter.inspector());
        OocLaneWorker {
            sorter,
            in_flight,
            next_batch,
            counters,
            cancels,
        }
    }

    pub(crate) fn run(self, rx: mpsc::Receiver<Submission>) {
        while let Ok(sub) = rx.recv() {
            self.handle(sub);
        }
    }

    /// Resolves one request with a terminal error instead of an outcome.
    fn resolve_err(
        &self,
        id: u64,
        tx: &mpsc::Sender<Result<SortOutcome, TicketError>>,
        err: TicketError,
    ) {
        self.cancels.lock().unwrap().remove(&id);
        self.counters.note_failed(&err);
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
        let _ = tx.send(Err(err));
    }

    /// Runs one over-budget request end to end and resolves its ticket.
    fn handle(&self, sub: Submission) {
        let Submission {
            id,
            payload,
            deadline,
            tx,
            submitted,
        } = sub;
        // QoS gates before committing the devices: a cancelled request is
        // dropped, and a request whose dispatch deadline already expired
        // while queued behind earlier lane work fails fast.
        if self.cancels.lock().unwrap().contains(&id) {
            return self.resolve_err(id, &tx, TicketError::Cancelled);
        }
        if deadline.is_some_and(|d| submitted.elapsed() > d) {
            return self.resolve_err(id, &tx, TicketError::DeadlineExceeded);
        }
        let dispatch = Instant::now();
        let elements = payload.len() as u64;
        let bytes = payload.batch_bytes();
        // The sort runs through the fault-tolerant engine path, panic-
        // isolated: a typed engine failure or an engine panic resolves the
        // ticket with an error and the lane keeps serving.
        type Sorted = Result<(SortPayload, ShardedReport), SortError>;
        let sorter = &self.sorter;
        let sorted: std::thread::Result<Sorted> =
            catch_unwind(AssertUnwindSafe(|| match payload {
                SortPayload::U32Keys(mut keys) => sorter
                    .try_sort_out_of_core(&mut keys)
                    .map(|report| (SortPayload::U32Keys(keys), report)),
                SortPayload::U64Keys(mut keys) => sorter
                    .try_sort_out_of_core(&mut keys)
                    .map(|report| (SortPayload::U64Keys(keys), report)),
                SortPayload::U32Pairs {
                    mut keys,
                    mut values,
                } => sorter
                    .try_sort_out_of_core_pairs(&mut keys, &mut values)
                    .map(|report| (SortPayload::U32Pairs { keys, values }, report)),
                SortPayload::U64Pairs {
                    mut keys,
                    mut values,
                } => sorter
                    .try_sort_out_of_core_pairs(&mut keys, &mut values)
                    .map(|report| (SortPayload::U64Pairs { keys, values }, report)),
            }));
        let (payload, report) = match sorted {
            Ok(Ok(done)) => done,
            Ok(Err(e)) => {
                return self.resolve_err(id, &tx, TicketError::SortFailed(e));
            }
            Err(_) => {
                self.counters.note_worker_failure();
                return self.resolve_err(id, &tx, TicketError::WorkerFailed);
            }
        };
        let chunks = report.ooc_chunks.len() as u64;
        let outcome = Self::outcome(
            payload,
            report,
            // RELAXED: the batch id only needs to be unique, which the RMW
            // guarantees; no other state is published through it.
            self.next_batch.fetch_add(1, Ordering::Relaxed),
            bytes,
            dispatch.saturating_duration_since(submitted),
        );
        self.counters
            .note_ooc(elements, chunks, submitted.elapsed());
        self.cancels.lock().unwrap().remove(&id);
        // Release the admission slot first, then resolve the ticket (a
        // dropped ticket just discards its outcome) — same order as the
        // batching lane, so a requester can resubmit immediately.
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
        let _ = tx.send(Ok(outcome));
    }

    fn outcome(
        payload: SortPayload,
        report: ShardedReport,
        batch: u64,
        bytes: u64,
        queued: std::time::Duration,
    ) -> SortOutcome {
        let elements = payload.len() as u64;
        SortOutcome {
            payload,
            span: RequestSpan {
                index: 0,
                offset: 0,
                len: elements,
            },
            report: Arc::new(report),
            batch: BatchInfo {
                batch,
                requests: 1,
                elements,
                bytes,
                reason: FlushReason::OutOfCore,
            },
            queued,
        }
    }
}
