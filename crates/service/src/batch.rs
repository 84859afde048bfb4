//! Batch formation, execution and result demultiplexing.
//!
//! One [`ClassQueue`] exists per [`KeyClass`].  Requests
//! accumulate in submission order; a flush concatenates their keys into one
//! buffer, tags every key with its request slot (high half) and demux
//! payload (low half: the pair value, or the local index for key-only
//! requests), runs **one** sharded sort over the whole batch, and scatters
//! the globally sorted output back into each request's own buffers.
//!
//! The tag scheme is what makes demux allocation-free: after the sort, a
//! key's tag alone says which request it belongs to (`tag >> 32`) and, for
//! pair requests, what its permuted value is (`tag as u32`) — no
//! side-table lookups, no scratch buffers.  Each request's keys appear in
//! the globally sorted batch in ascending order, so writing them back
//! front-to-back reproduces exactly what sorting the request alone would
//! have produced.
//!
//! All assembly buffers (`batch_keys`, `batch_tags`, cursors) and the
//! sorter's per-device lanes are reused across flushes: once the queue has
//! seen its largest batch, steady-state flushing performs no heap
//! allocation outside the outcome-channel sends.

use crate::counters::{ClassProbe, ServiceCounters};
use crate::request::{
    BatchInfo, FlushReason, KeyClass, RequestSpan, SortOutcome, SortPayload, TicketError,
};
use crate::service::CancelSet;
use multi_gpu::ShardedSorter;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workloads::keys::SortKey;

/// Keys the service can batch: bridges a concrete key type back to the
/// [`SortPayload`] variants that carry it.
pub trait ServiceKey: SortKey {
    /// The key class this type batches under (names the class's telemetry
    /// subtree, `service/class/<label>/`).
    const CLASS: KeyClass;
    /// Wraps sorted buffers back into the payload variant they came from.
    fn rebuild(keys: Vec<Self>, values: Option<Vec<u32>>) -> SortPayload;
    /// Unwraps a payload of this key class into its buffers.
    fn split(payload: SortPayload) -> (Vec<Self>, Option<Vec<u32>>);
}

impl ServiceKey for u32 {
    const CLASS: KeyClass = KeyClass::U32;

    fn rebuild(keys: Vec<Self>, values: Option<Vec<u32>>) -> SortPayload {
        match values {
            None => SortPayload::U32Keys(keys),
            Some(values) => SortPayload::U32Pairs { keys, values },
        }
    }

    fn split(payload: SortPayload) -> (Vec<Self>, Option<Vec<u32>>) {
        match payload {
            SortPayload::U32Keys(keys) => (keys, None),
            SortPayload::U32Pairs { keys, values } => (keys, Some(values)),
            other => unreachable!("u32 class queue got {other:?}"),
        }
    }
}

impl ServiceKey for u64 {
    const CLASS: KeyClass = KeyClass::U64;

    fn rebuild(keys: Vec<Self>, values: Option<Vec<u32>>) -> SortPayload {
        match values {
            None => SortPayload::U64Keys(keys),
            Some(values) => SortPayload::U64Pairs { keys, values },
        }
    }

    fn split(payload: SortPayload) -> (Vec<Self>, Option<Vec<u32>>) {
        match payload {
            SortPayload::U64Keys(keys) => (keys, None),
            SortPayload::U64Pairs { keys, values } => (keys, Some(values)),
            other => unreachable!("u64 class queue got {other:?}"),
        }
    }
}

/// One admitted request waiting for its batch.
pub struct Pending<K: ServiceKey> {
    /// Request id assigned at submission.
    pub id: u64,
    /// The request's keys (sorted in place by the flush).
    pub keys: Vec<K>,
    /// The request's values, for pair payloads (permuted in place).
    pub values: Option<Vec<u32>>,
    /// Where the outcome (or terminal error) goes.
    pub tx: mpsc::Sender<Result<SortOutcome, TicketError>>,
    /// When the request was admitted.
    pub submitted: Instant,
    /// Dispatch deadline relative to `submitted`, if the request set one.
    pub deadline: Option<Duration>,
}

/// What one flush did, for the worker's statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushSummary {
    /// Requests resolved by the flush.
    pub requests: usize,
    /// Total keys sorted.
    pub elements: u64,
    /// Total batch bytes (keys + tags).
    pub bytes: u64,
    /// What triggered the flush.
    pub reason: FlushReason,
}

/// The pending queue and reusable batch buffers of one key class.
pub struct ClassQueue<K: ServiceKey> {
    sorter: ShardedSorter,
    /// The service-wide in-flight counter; a request's slot is released
    /// *before* its outcome is sent, so a requester that just resolved a
    /// ticket can immediately submit again without a spurious
    /// [`SubmitError::Saturated`](crate::SubmitError::Saturated).
    in_flight: Arc<AtomicUsize>,
    /// Shared `service/...` counters (same atomic cells as every other
    /// holder registered on the sorter's inspector).
    counters: Arc<ServiceCounters>,
    /// This class's live gauges and latency histogram.
    probe: ClassProbe,
    /// Ids cancelled via `SortTicket::cancel`, shared service-wide.
    cancels: CancelSet,
    pending: Vec<Pending<K>>,
    pending_bytes: u64,
    batch_keys: Vec<K>,
    batch_tags: Vec<u64>,
    cursors: Vec<usize>,
}

/// Bytes one element of class `K` contributes to a batch: the key plus its
/// `u64` demux tag.
pub fn elem_bytes<K: ServiceKey>() -> u64 {
    K::BYTES as u64 + 8
}

/// The largest batchable request in keys.  A batched key's demux tag packs
/// the request's local index (or pair value) into the low 32 tag bits, so a
/// request's indices must fit `u32` — a longer request would wrap and
/// silently corrupt the `(slot << 32) | index` tags of every other request
/// in the batch.  Enforced as a hard [`crate::SubmitError::TooManyKeys`]
/// at admission (it used to be a release-invisible `debug_assert!`).
pub const MAX_REQUEST_KEYS: usize = u32::MAX as usize;

/// The most requests one batch may hold: the slot half of the demux tag is
/// the high 32 bits, so slot ids must fit `u32`.
/// [`crate::ServiceConfig::with_max_batch_requests`] clamps to this.
pub const MAX_BATCH_SLOTS: usize = u32::MAX as usize;

/// The admission-side check behind [`MAX_REQUEST_KEYS`]: `Some(error)`
/// when a request of `keys` keys cannot be tagged safely.  Factored out so
/// the overflow arithmetic is testable without allocating a ≥ 2³²-element
/// payload.
pub fn oversize_request_error(keys: usize) -> Option<crate::SubmitError> {
    (keys > MAX_REQUEST_KEYS).then_some(crate::SubmitError::TooManyKeys {
        keys,
        max: MAX_REQUEST_KEYS,
    })
}

impl<K: ServiceKey> ClassQueue<K> {
    /// A queue flushing through (a clone of) the given sorter.  Each class
    /// gets its own clone so concurrent flushes of different classes both
    /// keep warm device lanes.
    pub fn new(sorter: ShardedSorter, in_flight: Arc<AtomicUsize>, cancels: CancelSet) -> Self {
        let counters = ServiceCounters::register(sorter.inspector());
        let probe = ClassProbe::register(sorter.inspector(), K::CLASS);
        ClassQueue {
            sorter,
            in_flight,
            counters,
            probe,
            cancels,
            pending: Vec::new(),
            pending_bytes: 0,
            batch_keys: Vec::new(),
            batch_tags: Vec::new(),
            cursors: Vec::new(),
        }
    }

    /// Admits a request into the pending batch.
    ///
    /// The tag-packing limits are enforced for real (not `debug_assert!`):
    /// admission control rejects violating requests before they reach the
    /// queue, so a failure here means a service-internal bug, and
    /// corrupting every other request's demux tags is not an acceptable
    /// release-build response to it.
    pub fn push(&mut self, req: Pending<K>) {
        assert!(
            req.keys.len() <= MAX_REQUEST_KEYS,
            "request of {} keys exceeds the demux-tag index space",
            req.keys.len()
        );
        assert!(
            self.pending.len() < MAX_BATCH_SLOTS,
            "batch already holds the maximum {MAX_BATCH_SLOTS} request slots"
        );
        self.pending_bytes += req.keys.len() as u64 * elem_bytes::<K>();
        self.pending.push(req);
        self.probe.queue_depth.set(self.pending.len() as u64);
        self.probe.pending_bytes.set(self.pending_bytes);
    }

    /// Pending request count.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Pending payload in batch bytes.
    pub fn pending_bytes(&self) -> u64 {
        self.pending_bytes
    }

    /// Admission time of the oldest pending request.
    pub fn oldest(&self) -> Option<Instant> {
        self.pending.first().map(|p| p.submitted)
    }

    /// The earliest moment a pending request's dispatch deadline demands a
    /// flush: 80 % of the way from submission to the deadline, leaving
    /// headroom for the batch to dispatch before the deadline expires.
    pub fn deadline_wake(&self) -> Option<Instant> {
        self.pending
            .iter()
            .filter_map(|p| Some(p.submitted + p.deadline?.mul_f64(0.8)))
            .min()
    }

    /// Resolves one departing request with a terminal error: its bytes
    /// leave the queue accounting exactly, its admission slot is released,
    /// the failure is counted and its ticket resolves with `err`.
    fn resolve_err(&mut self, p: Pending<K>, err: TicketError) {
        self.pending_bytes -= p.keys.len() as u64 * elem_bytes::<K>();
        self.probe.queue_depth.set(self.pending.len() as u64);
        self.probe.pending_bytes.set(self.pending_bytes);
        self.cancels.lock().unwrap().remove(&p.id);
        self.counters.note_failed(&err);
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
        let _ = p.tx.send(Err(err));
    }

    /// Unpicks a pending request by id (called for
    /// `SortTicket::cancel`).  `true` when the request was found and
    /// cancelled; `false` when it is not in this queue (wrong class, or
    /// its batch already dispatched).
    pub fn cancel(&mut self, id: u64) -> bool {
        let Some(idx) = self.pending.iter().position(|p| p.id == id) else {
            return false;
        };
        let p = self.pending.remove(idx);
        self.resolve_err(p, TicketError::Cancelled);
        true
    }

    /// Fails every pending request with `err` (worker panic isolation and
    /// engine sort failures).  The queue is left empty and consistent.
    pub fn fail_pending(&mut self, err: TicketError) {
        while let Some(p) = self.pending.pop() {
            self.resolve_err(p, err);
        }
        debug_assert_eq!(self.pending_bytes, 0);
    }

    /// Counts one isolated worker panic on the shared service counters.
    pub fn note_worker_panic(&self) {
        self.counters.note_worker_failure();
    }

    /// Removes requests that were cancelled after their `Cancel` message
    /// was processed (or raced the flush), and requests whose dispatch
    /// deadline has fully expired.  Runs at the head of every flush, so a
    /// batch never sorts work nobody is waiting for.
    fn sweep_before_flush(&mut self) {
        let cancelled: Vec<u64> = {
            let set = self.cancels.lock().unwrap();
            if set.is_empty() {
                Vec::new()
            } else {
                self.pending
                    .iter()
                    .filter(|p| set.contains(&p.id))
                    .map(|p| p.id)
                    .collect()
            }
        };
        for id in cancelled {
            self.cancel(id);
        }
        let now = Instant::now();
        let mut i = 0;
        while i < self.pending.len() {
            let expired = self.pending[i]
                .deadline
                .is_some_and(|d| now.saturating_duration_since(self.pending[i].submitted) > d);
            if expired {
                let p = self.pending.remove(i);
                self.resolve_err(p, TicketError::DeadlineExceeded);
            } else {
                i += 1;
            }
        }
    }

    /// Runs the pending batch as one sharded sort, demultiplexes the result
    /// back into every request's buffers and resolves their tickets.
    /// Returns `None` when nothing was pending.
    pub fn flush(&mut self, reason: FlushReason, batch: u64) -> Option<FlushSummary> {
        self.sweep_before_flush();
        if self.pending.is_empty() {
            return None;
        }
        let dispatch = Instant::now();
        // The pending requests leave the queue now; the live gauges drop to
        // zero while the batch itself sorts.
        self.probe.queue_depth.set(0);
        self.probe.pending_bytes.set(0);

        // Assemble: concatenate keys, tag each with (slot << 32) | demux.
        self.batch_keys.clear();
        self.batch_tags.clear();
        for (slot, p) in self.pending.iter().enumerate() {
            let hi = (slot as u64) << 32;
            match &p.values {
                Some(values) => {
                    self.batch_keys.extend_from_slice(&p.keys);
                    self.batch_tags
                        .extend(values.iter().map(|&v| hi | v as u64));
                }
                None => {
                    self.batch_keys.extend_from_slice(&p.keys);
                    self.batch_tags
                        .extend((0..p.keys.len()).map(|i| hi | i as u64));
                }
            }
        }
        let elements = self.batch_keys.len() as u64;
        let bytes = elements * elem_bytes::<K>();

        // One sharded sort for the whole batch — through the fault-
        // tolerant engine path, panic-isolated: an engine panic or a typed
        // sort failure resolves every pending ticket with an error instead
        // of killing the worker (or hanging the requesters).
        let sorted = {
            let sorter = &self.sorter;
            let keys = &mut self.batch_keys;
            let tags = &mut self.batch_tags;
            catch_unwind(AssertUnwindSafe(|| sorter.try_sort_pairs(keys, tags)))
        };
        let report = match sorted {
            Ok(Ok(report)) => Arc::new(report),
            Ok(Err(e)) => {
                self.fail_pending(TicketError::SortFailed(e));
                return None;
            }
            Err(_) => {
                self.counters.note_worker_failure();
                self.fail_pending(TicketError::WorkerFailed);
                return None;
            }
        };

        // Demux: each request's keys arrive in ascending order, so a
        // per-slot cursor writes them back in place.
        self.cursors.clear();
        self.cursors.resize(self.pending.len(), 0);
        for (&k, &tag) in self.batch_keys.iter().zip(self.batch_tags.iter()) {
            let slot = (tag >> 32) as usize;
            let c = self.cursors[slot];
            let p = &mut self.pending[slot];
            p.keys[c] = k;
            if let Some(values) = &mut p.values {
                values[c] = tag as u32;
            }
            self.cursors[slot] = c + 1;
        }

        // Resolve the tickets.  The batch counters are recorded *before*
        // the first outcome send, so a requester that just resolved its
        // ticket always sees its own batch in a snapshot.
        let requests = self.pending.len();
        let summary = FlushSummary {
            requests,
            elements,
            bytes,
            reason,
        };
        self.counters.note_flush(&summary);
        let info = BatchInfo {
            batch,
            requests,
            elements,
            bytes,
            reason,
        };
        // Prune resolved ids from the cancel set first: a cancel that
        // raced past the pre-flush sweep is a no-op (the batch already
        // dispatched) and must not leak its id.
        {
            let mut set = self.cancels.lock().unwrap();
            if !set.is_empty() {
                for p in &self.pending {
                    set.remove(&p.id);
                }
            }
        }
        // A request's span is its slot and the running offset of the
        // requests concatenated before it.
        let mut offset = 0;
        for (index, p) in self.pending.drain(..).enumerate() {
            let len = p.keys.len() as u64;
            let span = RequestSpan { index, offset, len };
            offset += len;
            let outcome = SortOutcome {
                payload: K::rebuild(p.keys, p.values),
                span,
                report: Arc::clone(&report),
                batch: info,
                queued: dispatch.saturating_duration_since(p.submitted),
            };
            // Release the admission slot first, then resolve the ticket (a
            // dropped ticket just discards its outcome).
            self.probe.latency_ns.record_duration(p.submitted.elapsed());
            self.in_flight.fetch_sub(1, Ordering::AcqRel);
            let _ = p.tx.send(Ok(outcome));
        }
        self.pending_bytes = 0;
        Some(summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multi_gpu::DevicePool;

    fn queue<K: ServiceKey>() -> ClassQueue<K> {
        ClassQueue::new(
            ShardedSorter::new(DevicePool::titan_cluster(2)),
            Arc::new(AtomicUsize::new(usize::MAX / 2)),
            CancelSet::default(),
        )
    }

    type PendRx = mpsc::Receiver<Result<SortOutcome, TicketError>>;

    fn pend<K: ServiceKey>(
        id: u64,
        keys: Vec<K>,
        values: Option<Vec<u32>>,
    ) -> (Pending<K>, PendRx) {
        let (tx, rx) = mpsc::channel();
        (
            Pending {
                id,
                keys,
                values,
                tx,
                submitted: Instant::now(),
                deadline: None,
            },
            rx,
        )
    }

    #[test]
    fn flush_of_empty_queue_is_none() {
        assert!(queue::<u32>().flush(FlushReason::Drain, 0).is_none());
    }

    #[test]
    fn oversize_request_check_trips_past_the_tag_limit() {
        // Regression (slot-tag packing): a ≥ 2³²-key request used to pass a
        // release build silently (`debug_assert!` only) and wrap its local
        // indices into other requests' slot bits.  The admission check must
        // trip exactly past MAX_REQUEST_KEYS.
        assert!(oversize_request_error(0).is_none());
        assert!(oversize_request_error(MAX_REQUEST_KEYS).is_none());
        let err = oversize_request_error(MAX_REQUEST_KEYS + 1).unwrap();
        match err {
            crate::SubmitError::TooManyKeys { keys, max } => {
                assert_eq!(keys, MAX_REQUEST_KEYS + 1);
                assert_eq!(max, MAX_REQUEST_KEYS);
            }
            other => panic!("wrong error: {other}"),
        }
        // The limit is exactly the 32-bit index space: one more key and a
        // local index would no longer fit the low tag half.
        assert_eq!(MAX_REQUEST_KEYS as u64, (1u64 << 32) - 1);
    }

    #[test]
    fn mixed_key_only_and_pair_requests_round_trip() {
        let mut q = queue::<u64>();
        let a_keys = workloads::uniform_keys::<u64>(5_000, 1);
        let b_keys = workloads::uniform_keys::<u64>(3_000, 2);
        let b_vals: Vec<u32> = (0..3_000).rev().collect();
        let c_keys: Vec<u64> = Vec::new();
        let (pa, ra) = pend(0, a_keys.clone(), None);
        let (pb, rb) = pend(1, b_keys.clone(), Some(b_vals.clone()));
        let (pc, rc) = pend(2, c_keys, None);
        q.push(pa);
        q.push(pb);
        q.push(pc);
        assert_eq!(q.len(), 3);
        assert_eq!(q.pending_bytes(), (5_000 + 3_000) * 16);

        let summary = q.flush(FlushReason::Bytes, 7).unwrap();
        assert!(q.is_empty());
        assert_eq!(q.pending_bytes(), 0);
        assert_eq!(summary.requests, 3);
        assert_eq!(summary.elements, 8_000);

        let oa = ra.try_recv().unwrap().unwrap();
        let SortPayload::U64Keys(sorted_a) = oa.payload else {
            panic!("wrong variant")
        };
        let mut expect_a = a_keys;
        expect_a.sort_unstable();
        assert_eq!(sorted_a, expect_a);
        assert_eq!(oa.span.offset, 0);
        assert_eq!(oa.span.len, 5_000);
        assert_eq!(oa.batch.batch, 7);
        assert_eq!(oa.batch.requests, 3);
        assert_eq!(oa.batch.reason, FlushReason::Bytes);

        let ob = rb.try_recv().unwrap().unwrap();
        let SortPayload::U64Pairs { keys, values } = ob.payload else {
            panic!("wrong variant")
        };
        assert!(workloads::pairs::verify_indexed_pair_sort(
            &b_keys,
            &keys,
            &values
                .iter()
                .map(|&v| 2_999 - v) // undo the reversed value mapping
                .collect::<Vec<u32>>(),
        ));
        assert_eq!(ob.span.offset, 5_000);

        let oc = rc.try_recv().unwrap().unwrap();
        assert!(oc.payload.is_empty());
        assert_eq!(oc.span.len, 0);
        // All three requests share one report.
        assert_eq!(oa.report.n, 8_000);
        assert!(Arc::ptr_eq(&oa.report, &ob.report) && Arc::ptr_eq(&ob.report, &oc.report));
    }

    /// Coalesces requests of unequal lengths into one flush and checks
    /// that every outcome's span names its submission index, the prefix
    /// sum of the lengths before it, and its own length.
    fn spans_tile_the_batch<K: ServiceKey>(pairs: bool) {
        let lens = [7_000usize, 1_000, 0, 4_500];
        let mut q = queue::<K>();
        let receivers: Vec<PendRx> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| {
                let keys = workloads::uniform_keys::<K>(len, i as u64 + 11);
                let values = pairs.then(|| (0..len as u32).collect());
                let (p, r) = pend(i as u64, keys, values);
                q.push(p);
                r
            })
            .collect();
        q.flush(FlushReason::Bytes, 3).unwrap();
        let mut offset = 0;
        for (i, (r, &len)) in receivers.iter().zip(&lens).enumerate() {
            let outcome = r.try_recv().unwrap().unwrap();
            assert_eq!(
                outcome.span,
                RequestSpan {
                    index: i,
                    offset,
                    len: len as u64
                }
            );
            assert_eq!(outcome.payload.len(), len);
            assert_eq!(outcome.report.n, 12_500);
            offset += len as u64;
        }
    }

    #[test]
    fn spans_tile_a_u32_key_batch() {
        spans_tile_the_batch::<u32>(false);
    }

    #[test]
    fn spans_tile_a_u64_pair_batch() {
        spans_tile_the_batch::<u64>(true);
    }

    #[test]
    fn u32_class_round_trips_too() {
        let mut q = queue::<u32>();
        let keys = workloads::uniform_keys::<u32>(4_000, 3);
        let (p, r) = pend(0, keys.clone(), None);
        q.push(p);
        q.flush(FlushReason::Linger, 0).unwrap();
        let SortPayload::U32Keys(sorted) = r.try_recv().unwrap().unwrap().payload else {
            panic!("wrong variant")
        };
        let mut expect = keys;
        expect.sort_unstable();
        assert_eq!(sorted, expect);
    }

    #[test]
    fn batch_buffers_are_reused_across_flushes() {
        let mut q = queue::<u32>();
        for round in 0..3 {
            let (p, _r) = pend(round, workloads::uniform_keys::<u32>(10_000, round), None);
            let (p2, _r2) = pend(
                round,
                workloads::uniform_keys::<u32>(6_000, round + 50),
                None,
            );
            q.push(p);
            q.push(p2);
            q.flush(FlushReason::Bytes, round).unwrap();
            // note: _r/_r2 dropped — flush must tolerate dropped tickets.
        }
        let keys_cap = q.batch_keys.capacity();
        let tags_cap = q.batch_tags.capacity();
        let (p, _r) = pend(9, workloads::uniform_keys::<u32>(16_000, 9), None);
        q.push(p);
        q.flush(FlushReason::Bytes, 9).unwrap();
        assert_eq!(q.batch_keys.capacity(), keys_cap, "assembly buffer grew");
        assert_eq!(q.batch_tags.capacity(), tags_cap, "tag buffer grew");
        // The sorter's device lanes stayed warm across flushes as well.
        assert!(q
            .sorter
            .lane_arena_stats()
            .iter()
            .any(|s| s.total_bytes() > 0));
    }
}
