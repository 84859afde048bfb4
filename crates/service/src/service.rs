//! The service front end and its worker loop.

use crate::batch::{elem_bytes, oversize_request_error, ClassQueue, Pending, ServiceKey};
use crate::config::{OverBudgetPolicy, ServiceConfig};
use crate::counters::ServiceCounters;
use crate::ooc_lane::OocLaneWorker;
use crate::request::{
    FlushReason, KeyClass, SortOutcome, SortPayload, SortRequest, SortTicket, SubmitError,
    TicketError,
};
use hrs_core::Executor;
use multi_gpu::{DevicePool, ShardedSorter};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use telemetry::Inspector;

/// Fraction of [`DevicePool::batch_budget_bytes`] the admission budget
/// uses.  The slack absorbs splitter imbalance (shards are only *expected*
/// to be capacity-proportional) and the one-request overshoot a
/// flush-after-admit batch can carry.
const BUDGET_SLACK: f64 = 0.5;

/// The admission budget of a pool whose raw batch budget is `pool_budget`.
fn admission_budget_of(pool_budget: u64) -> u64 {
    (pool_budget as f64 * BUDGET_SLACK).max(1.0) as u64
}

/// Request ids cancelled via [`SortTicket::cancel`], shared between the
/// front end, the tickets, both class queues and the out-of-core lane.
pub(crate) type CancelSet = Arc<Mutex<HashSet<u64>>>;

/// What travels over the batching worker's channel.
pub(crate) enum WorkerMsg {
    /// A freshly admitted request.
    Submit(Submission),
    /// A cancellation for a previously submitted request (sent by
    /// [`SortTicket::cancel`]; the id is also in the [`CancelSet`]).
    Cancel(u64),
    /// Drain everything and exit.  Shutdown is an explicit message rather
    /// than a channel disconnect because tickets hold sender clones (for
    /// [`SortTicket::cancel`]): an outstanding ticket would otherwise keep
    /// the channel alive and deadlock the shutdown join.
    Shutdown,
}

/// Lifetime counters of a service.
///
/// Every field is backed by a shared atomic on the service's
/// [`Inspector`], so [`SortService::stats_snapshot`] returns a *live* read
/// at any moment — requests in flight included — and
/// [`SortService::shutdown`] returns the final state of the same counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests admitted (counted at submission; shutdown drains and
    /// resolves every one of them).
    pub requests: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Largest number of requests coalesced into one batch.
    pub max_batch_requests: usize,
    /// Total keys sorted.
    pub elements: u64,
    /// Batches flushed because the size threshold was reached.
    pub flushed_by_bytes: u64,
    /// Batches flushed because the oldest request hit `max_linger`.
    pub flushed_by_linger: u64,
    /// Batches flushed because the request-count cap was reached.
    pub flushed_by_cap: u64,
    /// Batches flushed by the shutdown drain.
    pub flushed_by_drain: u64,
    /// Over-budget requests sorted through the out-of-core lane (also
    /// counted in `requests` and `elements`).
    pub ooc_requests: u64,
    /// Pipeline chunks streamed across all out-of-core requests.
    pub ooc_chunks: u64,
    /// Submissions bounced by backpressure
    /// ([`SubmitError::Saturated`]).
    pub rejected_saturated: u64,
    /// Over-budget submissions bounced under
    /// [`OverBudgetPolicy::Reject`] ([`SubmitError::TooLarge`]).
    pub rejected_too_large: u64,
    /// Submissions bounced by the demux-tag key limit
    /// ([`SubmitError::TooManyKeys`]).
    pub rejected_too_many_keys: u64,
    /// Malformed pair submissions bounced
    /// ([`SubmitError::MismatchedPair`]).
    pub rejected_mismatched_pairs: u64,
    /// Submissions shed because more than half the pool was dead
    /// ([`SubmitError::Degraded`]).
    pub rejected_degraded: u64,
    /// Admitted requests unpicked by [`SortTicket::cancel`] before their
    /// batch dispatched.
    pub cancelled: u64,
    /// Admitted requests whose dispatch deadline expired before their
    /// batch dispatched ([`TicketError::DeadlineExceeded`]).
    pub deadline_exceeded: u64,
    /// Worker panics caught and isolated (the affected requests resolved
    /// with [`TicketError::WorkerFailed`]; the service kept running).
    pub worker_failures: u64,
    /// Batches the sharded engine could not complete even after fault
    /// recovery ([`TicketError::SortFailed`]).
    pub sort_failures: u64,
    /// Batches flushed early because a pending request's deadline
    /// approached ([`FlushReason::Deadline`]).
    pub flushed_by_deadline: u64,
    /// Device failures the sharded engine survived while serving this
    /// service's batches (from the `multi_gpu/faults` telemetry subtree).
    pub device_failures: u64,
    /// Elements fault recovery requeued onto surviving devices.
    pub requeued_elements: u64,
    /// Median engine fault-recovery latency (zero when no fault occurred).
    pub recovery_p50: Duration,
    /// 99th-percentile engine fault-recovery latency.
    pub recovery_p99: Duration,
    /// Median submit→outcome latency across every resolved request (both
    /// key classes and the out-of-core lane).
    pub latency_p50: Duration,
    /// 99th-percentile submit→outcome latency.
    pub latency_p99: Duration,
}

impl ServiceStats {
    /// Mean requests per batch (1.0 when nothing coalesced).  Out-of-core
    /// requests never ride a batch, so they are excluded from the ratio.
    pub fn mean_batch_requests(&self) -> f64 {
        let batched = self.requests.saturating_sub(self.ooc_requests);
        if self.batches == 0 {
            1.0
        } else {
            batched as f64 / self.batches as f64
        }
    }
}

/// A request as it travels from [`SortService::submit`] to a worker (the
/// batching worker or the out-of-core lane).
pub(crate) struct Submission {
    pub(crate) id: u64,
    pub(crate) payload: SortPayload,
    pub(crate) deadline: Option<Duration>,
    pub(crate) tx: mpsc::Sender<Result<SortOutcome, TicketError>>,
    pub(crate) submitted: Instant,
}

/// The async batch sort service (see the [crate docs](crate) for the full
/// architecture).  Submissions are non-blocking; sorting happens on a
/// dedicated worker thread that owns the device pool.
#[derive(Debug)]
pub struct SortService {
    tx: Option<mpsc::Sender<WorkerMsg>>,
    worker: Option<JoinHandle<()>>,
    /// Channel and worker of the out-of-core lane; `None` under
    /// [`OverBudgetPolicy::Reject`].
    ooc_tx: Option<mpsc::Sender<Submission>>,
    ooc_worker: Option<JoinHandle<()>>,
    /// The sorter's observability hub: one snapshot covers the service
    /// counters plus the sharded-engine and per-device core metrics below.
    inspector: Inspector,
    /// Shared handles to the live `service/...` counters.
    counters: Arc<ServiceCounters>,
    /// A clone of the sorter's pool: device health is shared through it
    /// (an `Arc` inside), so the front end sees deaths the engine marks
    /// mid-sort and can gate degraded-mode admission live.
    pool: DevicePool,
    /// Ids cancelled via [`SortTicket::cancel`], shared with every ticket
    /// and both workers.
    cancels: CancelSet,
    in_flight: Arc<AtomicUsize>,
    next_id: AtomicU64,
    queue_depth: usize,
    admission_budget: u64,
    /// Whether the pool can sort anything at all (a positive raw budget).
    /// A zero-budget pool — e.g. every device has a non-positive capacity
    /// weight — must reject over-budget requests even under the
    /// out-of-core policy: the lane shards by capacity weight too, so
    /// there is no device that could take a chunk.
    pool_can_sort: bool,
    over_budget: OverBudgetPolicy,
}

impl SortService {
    /// Starts a service over `sorter`'s device pool.
    ///
    /// The admission budget is resolved here: half of
    /// `pool.batch_budget_bytes()` bounds both a single
    /// request and the size threshold a batch flushes at, so no formed
    /// batch can exceed what the devices' memory planners allow.  Under
    /// [`OverBudgetPolicy::OutOfCore`] a second worker thread (the
    /// out-of-core lane, with its own sorter clone) admits requests
    /// *above* the budget and streams them through the chunked pipeline.
    pub fn start(sorter: ShardedSorter, cfg: ServiceConfig) -> Self {
        let pool = sorter.pool().clone();
        let pool_budget = pool.batch_budget_bytes();
        let admission_budget = admission_budget_of(pool_budget);
        let pool_can_sort = pool_budget > 0;
        let queue_depth = cfg.queue_depth;
        let over_budget = cfg.over_budget;
        let in_flight = Arc::new(AtomicUsize::new(0));
        let cancels: CancelSet = Arc::new(Mutex::new(HashSet::new()));
        // Both lanes, the class queues and this front end all register on
        // the sorter's inspector — idempotently, so every holder updates
        // the same atomic cells and `stats_snapshot` is live.
        let inspector = sorter.inspector().clone();
        let counters = ServiceCounters::register(&inspector);
        // Batch ids stay unique across both lanes: they draw from one
        // shared counter.
        let next_batch = Arc::new(AtomicU64::new(0));

        let (ooc_tx, ooc_worker) = if over_budget == OverBudgetPolicy::OutOfCore {
            let (tx, rx) = mpsc::channel::<Submission>();
            let lane = OocLaneWorker::new(
                sorter.clone(),
                Arc::clone(&in_flight),
                Arc::clone(&next_batch),
                Arc::clone(&cancels),
            );
            let handle = std::thread::Builder::new()
                .name("sort-service-ooc".into())
                .spawn(move || lane.run(rx))
                .expect("spawning the out-of-core lane worker");
            (Some(tx), Some(handle))
        } else {
            (None, None)
        };

        let (tx, rx) = mpsc::channel();
        let worker_inflight = Arc::clone(&in_flight);
        let worker_cancels = Arc::clone(&cancels);
        let worker = std::thread::Builder::new()
            .name("sort-service".into())
            .spawn(move || {
                Worker::new(
                    sorter,
                    cfg,
                    admission_budget,
                    worker_inflight,
                    next_batch,
                    worker_cancels,
                )
                .run(rx)
            })
            .expect("spawning the sort-service worker");
        SortService {
            tx: Some(tx),
            worker: Some(worker),
            ooc_tx,
            ooc_worker,
            inspector,
            counters,
            pool,
            cancels,
            in_flight,
            next_id: AtomicU64::new(0),
            queue_depth,
            admission_budget,
            pool_can_sort,
            over_budget,
        }
    }

    /// The resolved admission budget in batch bytes (pool budget × slack).
    ///
    /// Live: when devices have died, the budget is recomputed over the
    /// surviving devices' memory planners, so admission control reflects
    /// what the degraded pool can actually hold.
    pub fn admission_budget(&self) -> u64 {
        if self.pool.any_dead() {
            admission_budget_of(self.pool.batch_budget_bytes())
        } else {
            self.admission_budget
        }
    }

    /// Requests currently admitted and not yet resolved.
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::Acquire)
    }

    /// A live snapshot of the service's lifetime counters — callable at
    /// any moment, including while requests are in flight.  The counters
    /// are shared atomics updated by the workers as they go, so this
    /// involves no channel round trip and no locks on the sorting path.
    pub fn stats_snapshot(&self) -> ServiceStats {
        self.counters.stats_snapshot()
    }

    /// The observability hub shared with the underlying sorter:
    /// [`Inspector::snapshot`] walks the service counters *and* the
    /// sharded-engine, out-of-core and per-device core metrics into one
    /// JSON-serialisable tree.
    pub fn inspector(&self) -> &Inspector {
        &self.inspector
    }

    /// Counts a rejection before handing the error back.
    fn reject(&self, err: SubmitError) -> SubmitError {
        self.counters.note_rejected(&err);
        err
    }

    /// Submits a sort request.  Non-blocking: returns a [`SortTicket`]
    /// immediately, or a [`SubmitError`] when admission control rejects the
    /// request (saturation, size, malformed pairs, degraded pool,
    /// shutdown).
    ///
    /// Takes anything convertible into a [`SortRequest`]: a bare
    /// [`SortPayload`] submits with no deadline; attach one with
    /// [`SortPayload::with_deadline`].
    ///
    /// A request above the admission budget is routed by the configured
    /// [`OverBudgetPolicy`]: rejected as [`SubmitError::TooLarge`], or
    /// admitted into the dedicated out-of-core lane (bypassing batching;
    /// its outcome reports [`FlushReason::OutOfCore`] and carries the
    /// per-chunk spans in the shared report).
    pub fn submit(&self, request: impl Into<SortRequest>) -> Result<SortTicket, SubmitError> {
        let SortRequest { payload, deadline } = request.into();
        // Exhaustive on purpose: a new payload variant must decide here
        // whether it carries values (and how their length is validated)
        // before it can be admitted at all.
        let (keys_len, values_len) = match &payload {
            SortPayload::U32Keys(keys) => (keys.len(), keys.len()),
            SortPayload::U64Keys(keys) => (keys.len(), keys.len()),
            SortPayload::U32Pairs { keys, values } => (keys.len(), values.len()),
            SortPayload::U64Pairs { keys, values } => (keys.len(), values.len()),
        };
        if keys_len != values_len {
            return Err(self.reject(SubmitError::MismatchedPair {
                keys: keys_len,
                values: values_len,
            }));
        }
        // Graceful degradation: with more than half the pool dead, shed
        // new load outright instead of queueing work the survivors cannot
        // absorb.  In-flight requests still resolve through recovery.
        if self.pool.is_degraded() {
            return Err(self.reject(SubmitError::Degraded {
                alive: self.pool.alive_count(),
                total: self.pool.len(),
            }));
        }
        let bytes = payload.batch_bytes();
        let budget = self.admission_budget();
        let over_budget_lane = bytes > budget;
        if over_budget_lane {
            // A pool that can sort nothing (zero raw budget — e.g. every
            // device has a non-positive capacity weight) rejects under
            // *both* policies: the out-of-core lane shards by the same
            // capacity weights, so it could not run the request either.
            if self.over_budget == OverBudgetPolicy::Reject || !self.pool_can_sort {
                return Err(self.reject(SubmitError::TooLarge { bytes, budget }));
            }
            // Over-budget lane: no batching, no demux tags, so the
            // slot-tag key limit does not apply.
            if self.ooc_tx.is_none() {
                return Err(SubmitError::ShuttingDown);
            }
        } else {
            // Batched requests must fit the demux-tag index space —
            // enforced here as a hard error, where it used to be a
            // release-invisible debug assert deep in the class queue.
            if let Some(err) = oversize_request_error(keys_len) {
                return Err(self.reject(err));
            }
            if self.tx.is_none() {
                return Err(SubmitError::ShuttingDown);
            }
        }
        // Reserve an in-flight slot; the worker releases it once the
        // request's batch completed.
        let depth = self.queue_depth;
        if self
            .in_flight
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < depth).then_some(n + 1)
            })
            .is_err()
        {
            return Err(self.reject(SubmitError::Saturated {
                in_flight: depth,
                queue_depth: depth,
            }));
        }
        // RELAXED: ticket ids only need uniqueness, which the RMW
        // guarantees; nothing is published through this cell.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (otx, orx) = mpsc::channel();
        let submission = Submission {
            id,
            payload,
            deadline,
            tx: otx,
            submitted: Instant::now(),
        };
        // Count the admission *before* the send: a snapshot that sees a
        // batch therefore always sees its requests too (`requests ≥
        // batches` holds at every instant).
        self.counters.note_admitted();
        let sent = if over_budget_lane {
            self.ooc_tx
                .as_ref()
                .is_some_and(|tx| tx.send(submission).is_ok())
        } else {
            // The batching lane wraps submissions in worker messages so
            // cancellations ride the same ordered channel.
            self.tx
                .as_ref()
                .is_some_and(|tx| tx.send(WorkerMsg::Submit(submission)).is_ok())
        };
        if !sent {
            self.in_flight.fetch_sub(1, Ordering::AcqRel);
            return Err(SubmitError::ShuttingDown);
        }
        Ok(SortTicket {
            id,
            rx: orx,
            cancel_tx: (!over_budget_lane).then(|| self.tx.as_ref().unwrap().clone()),
            cancel_set: Some(Arc::clone(&self.cancels)),
        })
    }

    /// Shuts the service down: stops admitting, drains and resolves every
    /// pending request, joins the workers and returns the final counters.
    pub fn shutdown(mut self) -> ServiceStats {
        self.shutdown_in_place();
        self.counters.stats_snapshot()
    }

    fn shutdown_in_place(&mut self) {
        // Tell the batching worker explicitly: tickets hold clones of this
        // sender, so dropping our end does not disconnect the channel.
        if let Some(tx) = self.tx.take() {
            let _ = tx.send(WorkerMsg::Shutdown);
        }
        // The out-of-core lane's channel has no other senders, so the drop
        // alone disconnects it.
        drop(self.ooc_tx.take());
        // The workers isolate panics internally (pending requests resolve
        // with `TicketError::WorkerFailed` and the loop continues), so a
        // join error here means a panic escaped the isolation — count it
        // rather than propagate: shutdown must stay deterministic.
        if let Some(w) = self.worker.take() {
            if w.join().is_err() {
                self.counters.note_worker_failure();
            }
        }
        if let Some(ooc) = self.ooc_worker.take() {
            if ooc.join().is_err() {
                self.counters.note_worker_failure();
            }
        }
    }
}

impl Drop for SortService {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// The worker-side state: one class queue per key class, each with its own
/// sorter clone (and therefore its own warm device lanes).
struct Worker {
    q32: ClassQueue<u32>,
    q64: ClassQueue<u64>,
    cfg: ServiceConfig,
    max_batch_bytes: u64,
    /// Shared with the out-of-core lane so batch ids stay unique
    /// service-wide.
    next_batch: Arc<AtomicU64>,
    /// Set once shutdown was requested; if a panic escapes the drain
    /// flush, the loop must still exit instead of spinning on a channel
    /// that outstanding tickets keep alive.
    draining: bool,
}

impl Worker {
    fn new(
        sorter: ShardedSorter,
        cfg: ServiceConfig,
        admission_budget: u64,
        in_flight: Arc<AtomicUsize>,
        next_batch: Arc<AtomicU64>,
        cancels: CancelSet,
    ) -> Self {
        // The size threshold is capped by the admission budget, and
        // `admit` flushes a class *before* an addition would cross the
        // threshold, so a formed batch never exceeds `max_batch_bytes` —
        // and therefore never exceeds the pool's planner budget.
        let max_batch_bytes = cfg.max_batch_bytes.min(admission_budget);
        Worker {
            q32: ClassQueue::new(sorter.clone(), Arc::clone(&in_flight), Arc::clone(&cancels)),
            q64: ClassQueue::new(sorter, in_flight, cancels),
            cfg,
            max_batch_bytes,
            next_batch,
            draining: false,
        }
    }

    fn next_batch_id(&self) -> u64 {
        // RELAXED: batch ids only need uniqueness across lanes, which the
        // RMW guarantees; nothing else is published through this cell.
        self.next_batch.fetch_add(1, Ordering::Relaxed)
    }

    /// The worker loop, panic-isolated: a panic that escapes one pass
    /// (e.g. from deep inside a flush) fails the pending requests with
    /// [`TicketError::WorkerFailed`] and the loop keeps serving — the
    /// service never hangs a ticket and never needs a restart.
    fn run(mut self, rx: mpsc::Receiver<WorkerMsg>) {
        loop {
            match catch_unwind(AssertUnwindSafe(|| self.step(&rx))) {
                Ok(true) => {}
                Ok(false) => return,
                Err(_) => {
                    self.q32.note_worker_panic();
                    self.q32.fail_pending(TicketError::WorkerFailed);
                    self.q64.fail_pending(TicketError::WorkerFailed);
                    if self.draining {
                        return;
                    }
                }
            }
        }
    }

    /// One pass of the loop; `false` means shutdown was requested (or the
    /// channel disconnected) and the drain flush ran.
    fn step(&mut self, rx: &mpsc::Receiver<WorkerMsg>) -> bool {
        match rx.recv_timeout(self.next_deadline()) {
            Ok(msg) => {
                if !self.handle(msg) {
                    return self.drain();
                }
                // Greedily drain whatever else already arrived (e.g.
                // the backlog built up behind a long flush).  The size
                // and request-cap triggers fire between admissions —
                // they bound individual batches — but the linger
                // *deadline* is checked once at the end of the burst,
                // so a stale backlog coalesces into one batch instead
                // of flushing as singletons.
                self.flush_ready(false);
                while let Ok(msg) = rx.try_recv() {
                    if !self.handle(msg) {
                        return self.drain();
                    }
                    self.flush_ready(false);
                }
                self.flush_ready(true);
                true
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                self.flush_ready(true);
                true
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => self.drain(),
        }
    }

    /// Runs the shutdown drain; always returns `false` (exit the loop).
    fn drain(&mut self) -> bool {
        self.draining = true;
        self.flush_all(FlushReason::Drain);
        false
    }

    /// Processes one message; `false` means shutdown was requested.
    fn handle(&mut self, msg: WorkerMsg) -> bool {
        match msg {
            WorkerMsg::Submit(sub) => self.admit(sub),
            WorkerMsg::Cancel(id) => {
                // The id lives in exactly one class queue (or already
                // flushed, in which case the cancel is a no-op and the
                // set entry is pruned by the queues' sweeps).
                let _ = self.q32.cancel(id) || self.q64.cancel(id);
            }
            WorkerMsg::Shutdown => return false,
        }
        true
    }

    /// Admits a request into its class queue, flushing the class first
    /// when the addition would push its pending bytes past the size
    /// threshold.  Flush-before-admit keeps the invariant exact: a formed
    /// batch's bytes never exceed
    /// `max_batch_bytes` (a single request is capped at the admission
    /// budget, which also caps `max_batch_bytes`).
    fn admit(&mut self, sub: Submission) {
        match sub.payload.class() {
            KeyClass::U32 => {
                let (keys, values) = <u32 as ServiceKey>::split(sub.payload);
                let incoming = keys.len() as u64 * elem_bytes::<u32>();
                if !self.q32.is_empty()
                    && self.q32.pending_bytes() + incoming > self.max_batch_bytes
                {
                    let id = self.next_batch_id();
                    self.q32.flush(FlushReason::Bytes, id);
                }
                self.q32.push(Pending {
                    id: sub.id,
                    keys,
                    values,
                    tx: sub.tx,
                    submitted: sub.submitted,
                    deadline: sub.deadline,
                });
            }
            KeyClass::U64 => {
                let (keys, values) = <u64 as ServiceKey>::split(sub.payload);
                let incoming = keys.len() as u64 * elem_bytes::<u64>();
                if !self.q64.is_empty()
                    && self.q64.pending_bytes() + incoming > self.max_batch_bytes
                {
                    let id = self.next_batch_id();
                    self.q64.flush(FlushReason::Bytes, id);
                }
                self.q64.push(Pending {
                    id: sub.id,
                    keys,
                    values,
                    tx: sub.tx,
                    submitted: sub.submitted,
                    deadline: sub.deadline,
                });
            }
        }
    }

    /// How long the worker may sleep before some class's linger expires or
    /// a pending request's dispatch deadline approaches (the wake point is
    /// 80 % of the deadline, leaving headroom to dispatch before it
    /// expires).
    fn next_deadline(&self) -> Duration {
        let now = Instant::now();
        let linger = self.cfg.max_linger;
        let lingers = [self.q32.oldest(), self.q64.oldest()]
            .into_iter()
            .flatten()
            .map(|oldest| oldest + linger);
        let deadlines = [self.q32.deadline_wake(), self.q64.deadline_wake()]
            .into_iter()
            .flatten();
        lingers
            .chain(deadlines)
            .map(|at| at.saturating_duration_since(now))
            .min()
            .unwrap_or(Duration::from_secs(60))
    }

    /// Decides per class whether a flush is due and runs all due flushes —
    /// concurrently through the flush executor when more than one class is
    /// ready.  With `check_linger`, the deadline trigger is evaluated too;
    /// it runs at the end of every loop pass (not only after a receive
    /// timeout: under sustained arrivals the channel is never empty, and
    /// the deadline must still hold).
    fn flush_ready(&mut self, check_linger: bool) {
        let now = Instant::now();
        let linger = self.cfg.max_linger;
        let cap = self.cfg.max_batch_requests;
        let max_bytes = self.max_batch_bytes;
        let due = |len: usize,
                   bytes: u64,
                   oldest: Option<Instant>,
                   deadline_wake: Option<Instant>|
         -> Option<FlushReason> {
            if len == 0 {
                return None;
            }
            if bytes >= max_bytes {
                Some(FlushReason::Bytes)
            } else if len >= cap {
                Some(FlushReason::RequestCap)
            } else if deadline_wake.is_some_and(|at| now >= at) {
                // A request's dispatch deadline approaches: flush now so
                // the batch dispatches before the deadline expires.
                // Checked on every pass, like bytes/cap — a deadline is a
                // per-request promise, not a batching heuristic.
                Some(FlushReason::Deadline)
            } else if check_linger
                && oldest.is_some_and(|o| now.saturating_duration_since(o) >= linger)
            {
                Some(FlushReason::Linger)
            } else {
                None
            }
        };
        let r32 = due(
            self.q32.len(),
            self.q32.pending_bytes(),
            self.q32.oldest(),
            self.q32.deadline_wake(),
        );
        let r64 = due(
            self.q64.len(),
            self.q64.pending_bytes(),
            self.q64.oldest(),
            self.q64.deadline_wake(),
        );
        self.flush_classes(r32, r64);
    }

    fn flush_all(&mut self, reason: FlushReason) {
        let r32 = (!self.q32.is_empty()).then_some(reason);
        let r64 = (!self.q64.is_empty()).then_some(reason);
        self.flush_classes(r32, r64);
    }

    /// Runs the requested class flushes.  Two ready classes flush
    /// concurrently on the flush executor (each owns its sorter clone, so
    /// both keep warm lanes); batch ids stay monotonic.  In-flight slots
    /// are released per request inside the flushes, and the flush/batch
    /// counters are recorded by the class queues themselves.
    fn flush_classes(&mut self, r32: Option<FlushReason>, r64: Option<FlushReason>) {
        let id32 = r32.map(|_| self.next_batch_id());
        let id64 = r64.map(|_| self.next_batch_id());
        match (r32, r64) {
            (None, None) => {}
            (Some(re), None) => {
                self.q32.flush(re, id32.unwrap());
            }
            (None, Some(re)) => {
                self.q64.flush(re, id64.unwrap());
            }
            (Some(re32), Some(re64)) => {
                type Job<'a> = Box<dyn FnOnce() + Send + 'a>;
                let exec: Executor = self.cfg.flush_executor;
                let (q32, q64) = (&mut self.q32, &mut self.q64);
                let (b32, b64) = (id32.unwrap(), id64.unwrap());
                let slots: [Mutex<Option<Job>>; 2] = [
                    Mutex::new(Some(Box::new(move || {
                        q32.flush(re32, b32);
                    }))),
                    Mutex::new(Some(Box::new(move || {
                        q64.flush(re64, b64);
                    }))),
                ];
                exec.for_each_task(2, |t, _| {
                    if let Some(job) = slots[t].lock().unwrap().take() {
                        job();
                    }
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multi_gpu::{DevicePool, SimDevice};
    use workloads::uniform_keys;

    fn small_service(cfg: ServiceConfig) -> SortService {
        SortService::start(ShardedSorter::new(DevicePool::titan_cluster(2)), cfg)
    }

    /// A pool whose devices hold only `memory` bytes each, so modest test
    /// inputs overflow the admission budget.
    fn tiny_memory_pool(p: usize, memory: u64) -> DevicePool {
        let mut spec = gpu_sim::DeviceSpec::titan_x_pascal();
        spec.device_memory_bytes = memory;
        DevicePool::homogeneous(p, SimDevice::on_pcie3(spec))
    }

    fn tiny_memory_service(cfg: ServiceConfig) -> SortService {
        SortService::start(ShardedSorter::new(tiny_memory_pool(2, 1 << 20)), cfg)
    }

    #[test]
    fn single_request_round_trips() {
        let service = small_service(ServiceConfig::default());
        let keys = uniform_keys::<u64>(20_000, 1);
        let mut expect = keys.clone();
        expect.sort_unstable();
        let ticket = service.submit(SortPayload::U64Keys(keys)).unwrap();
        let outcome = ticket.wait().unwrap();
        assert_eq!(outcome.payload, SortPayload::U64Keys(expect));
        assert_eq!(outcome.span.len, 20_000);
        assert_eq!(outcome.report.n, 20_000);
        let stats = service.shutdown();
        assert_eq!(stats.requests, 1);
        assert!(stats.batches >= 1);
    }

    #[test]
    fn linger_coalesces_requests_into_one_batch() {
        // Large byte threshold + generous linger: the two quick submissions
        // must ride the same batch.
        let service = small_service(
            ServiceConfig::default()
                .with_max_linger(Duration::from_millis(200))
                .with_max_batch_bytes(u64::MAX),
        );
        let t1 = service
            .submit(SortPayload::U32Keys(uniform_keys::<u32>(5_000, 1)))
            .unwrap();
        let t2 = service
            .submit(SortPayload::U32Keys(uniform_keys::<u32>(5_000, 2)))
            .unwrap();
        let (o1, o2) = (t1.wait().unwrap(), t2.wait().unwrap());
        assert_eq!(o1.batch.batch, o2.batch.batch, "expected one batch");
        assert_eq!(o1.batch.requests, 2);
        assert!(o1.queued >= Duration::ZERO);
        let stats = service.shutdown();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.mean_batch_requests(), 2.0);
    }

    #[test]
    fn linger_deadline_holds_under_sustained_arrivals() {
        // Regression: the linger check used to run only after a receive
        // *timeout*, so a steady arrival stream (channel never empty at the
        // deadline) starved the deadline-based flush until the bytes or
        // request-cap threshold fired.  With arrivals every ~3 ms and a
        // 10 ms linger, several linger flushes must happen mid-stream.
        let service = small_service(
            ServiceConfig::default()
                .with_max_linger(Duration::from_millis(10))
                .with_max_batch_bytes(u64::MAX)
                .with_queue_depth(64),
        );
        let tickets: Vec<SortTicket> = (0..20)
            .map(|s| {
                std::thread::sleep(Duration::from_millis(3));
                service
                    .submit(SortPayload::U32Keys(uniform_keys::<u32>(500, s)))
                    .unwrap()
            })
            .collect();
        for t in tickets {
            t.wait().unwrap();
        }
        let stats = service.shutdown();
        assert!(
            stats.flushed_by_linger >= 2,
            "linger never fired mid-stream: {stats:?}"
        );
        assert!(
            stats.batches > 1,
            "everything rode one batch despite a 10 ms linger over ~60 ms of arrivals"
        );
    }

    #[test]
    fn oversized_batches_are_split_before_admission() {
        // A tiny byte threshold: three 1000-key u64 requests (16 KB each in
        // batch bytes) against a 20 KB threshold must form three singleton
        // batches — admit flushes *before* the addition would cross the
        // threshold, so no formed batch exceeds it.
        let service = small_service(
            ServiceConfig::default()
                .with_max_linger(Duration::from_secs(30))
                .with_max_batch_bytes(20 * 1024)
                .with_queue_depth(8),
        );
        let tickets: Vec<SortTicket> = (0..3)
            .map(|s| {
                service
                    .submit(SortPayload::U64Keys(uniform_keys::<u64>(1_000, s)))
                    .unwrap()
            })
            .collect();
        // The last request only flushes at the shutdown drain (its bytes
        // alone stay under the threshold), so resolve after shutdown.
        service.shutdown();
        let outcomes: Vec<_> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        for o in &outcomes {
            assert!(
                o.batch.bytes <= 20 * 1024,
                "batch of {} bytes exceeded the threshold",
                o.batch.bytes
            );
        }
        let ids: std::collections::HashSet<u64> = outcomes.iter().map(|o| o.batch.batch).collect();
        assert_eq!(ids.len(), 3, "requests must not have shared a batch");
    }

    #[test]
    fn saturation_is_reported_and_recovers() {
        // Long linger + huge thresholds: admitted requests stay in flight
        // until the drain, so the fifth submission must bounce.
        let service = small_service(
            ServiceConfig::default()
                .with_queue_depth(4)
                .with_max_linger(Duration::from_secs(30))
                .with_max_batch_bytes(u64::MAX),
        );
        let tickets: Vec<SortTicket> = (0..4)
            .map(|s| {
                service
                    .submit(SortPayload::U64Keys(uniform_keys::<u64>(1_000, s)))
                    .unwrap()
            })
            .collect();
        assert_eq!(service.in_flight(), 4);
        let err = service
            .submit(SortPayload::U64Keys(uniform_keys::<u64>(1_000, 9)))
            .unwrap_err();
        assert_eq!(
            err,
            SubmitError::Saturated {
                in_flight: 4,
                queue_depth: 4
            }
        );
        // Shutdown drains: every admitted ticket still resolves, sorted.
        let stats = service.shutdown();
        assert_eq!(stats.requests, 4);
        assert_eq!(stats.flushed_by_drain, 1);
        for t in tickets {
            let o = t.wait().unwrap();
            let SortPayload::U64Keys(keys) = o.payload else {
                panic!("wrong variant")
            };
            assert!(keys.windows(2).all(|w| w[0] <= w[1]));
            assert_eq!(o.batch.reason, FlushReason::Drain);
        }
    }

    #[test]
    fn oversized_and_malformed_requests_bounce() {
        let service = small_service(ServiceConfig::default());
        let budget = service.admission_budget();
        assert!(budget > 0);
        let err = service
            .submit(SortPayload::U32Pairs {
                keys: vec![1, 2],
                values: vec![7],
            })
            .unwrap_err();
        assert_eq!(err, SubmitError::MismatchedPair { keys: 2, values: 1 });
        // A Titan X budget is gigabytes, so instead of allocating an
        // actually-oversized input, use devices of 1 MiB each.
        drop(service);
        let tiny = tiny_memory_service(ServiceConfig::default());
        let payload = SortPayload::U64Keys(uniform_keys::<u64>(100_000, 1));
        let bytes = payload.batch_bytes();
        let budget = tiny.admission_budget();
        assert!(
            bytes > budget,
            "test input must exceed the {budget}-byte budget"
        );
        let err = tiny.submit(payload).unwrap_err();
        assert_eq!(err, SubmitError::TooLarge { bytes, budget });
    }

    #[test]
    fn over_budget_request_rides_the_out_of_core_lane() {
        let service = tiny_memory_service(
            ServiceConfig::default().with_over_budget(OverBudgetPolicy::OutOfCore),
        );
        let budget = service.admission_budget();
        let n = 200_000usize;
        let keys = uniform_keys::<u64>(n, 31);
        let payload = SortPayload::U64Keys(keys.clone());
        assert!(
            payload.batch_bytes() > budget,
            "test input must exceed the {budget}-byte budget"
        );
        let ticket = service.submit(payload).expect("out-of-core admission");
        let outcome = ticket.wait().unwrap();
        let SortPayload::U64Keys(sorted) = outcome.payload else {
            panic!("wrong variant")
        };
        let mut expect = keys;
        expect.sort_unstable();
        assert_eq!(sorted, expect);
        assert_eq!(outcome.batch.reason, FlushReason::OutOfCore);
        assert_eq!(outcome.batch.requests, 1);
        assert_eq!(
            outcome.span,
            crate::RequestSpan {
                index: 0,
                offset: 0,
                len: n as u64
            }
        );
        assert!(outcome.report.is_out_of_core());
        assert!(
            outcome.report.ooc_chunks.len() > 2,
            "expected real chunking, got {} chunks",
            outcome.report.ooc_chunks.len()
        );
        let stats = service.shutdown();
        assert_eq!(stats.ooc_requests, 1);
        assert_eq!(stats.requests, 1);
        assert!(stats.ooc_chunks > 2);
        assert_eq!(stats.elements, n as u64);
    }

    #[test]
    fn ooc_lane_and_batching_lane_coexist() {
        // A small request batches as usual while a big one streams through
        // the out-of-core lane; batch ids never collide.
        let service = tiny_memory_service(
            ServiceConfig::default()
                .with_over_budget(OverBudgetPolicy::OutOfCore)
                .with_max_linger(Duration::from_millis(1)),
        );
        let big = service
            .submit(SortPayload::U64Pairs {
                keys: uniform_keys::<u64>(150_000, 41),
                values: (0..150_000u32).collect(),
            })
            .expect("over-budget pairs admission");
        let small = service
            .submit(SortPayload::U32Keys(uniform_keys::<u32>(2_000, 42)))
            .expect("small admission");
        let ob = big.wait().unwrap();
        let os = small.wait().unwrap();
        assert_eq!(ob.batch.reason, FlushReason::OutOfCore);
        assert_ne!(os.batch.reason, FlushReason::OutOfCore);
        assert_ne!(ob.batch.batch, os.batch.batch);
        let SortPayload::U64Pairs { keys, values } = ob.payload else {
            panic!("wrong variant")
        };
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(values.len(), 150_000);
        let stats = service.shutdown();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.ooc_requests, 1);
        // The coalescing ratio counts only batched requests: one request
        // in one batch, the out-of-core request excluded.
        assert!(
            (stats.mean_batch_requests() - 1.0).abs() < 1e-9,
            "ooc requests skewed the batching ratio: {}",
            stats.mean_batch_requests()
        );
    }

    #[test]
    fn zero_weight_pool_rejects_even_under_the_ooc_policy() {
        // The out-of-core lane shards by the same capacity weights as the
        // in-core path, so a pool that can sort nothing must reject over-
        // budget requests instead of panicking the lane worker.
        let mut spec = gpu_sim::DeviceSpec::titan_x_pascal();
        spec.effective_bandwidth = gpu_sim::Bandwidth::from_gb_per_s(0.0);
        let pool = DevicePool::homogeneous(2, SimDevice::on_pcie3(spec));
        let service = SortService::start(
            ShardedSorter::new(pool),
            ServiceConfig::default().with_over_budget(OverBudgetPolicy::OutOfCore),
        );
        let err = service
            .submit(SortPayload::U64Keys(vec![3, 1, 2]))
            .unwrap_err();
        assert!(matches!(err, SubmitError::TooLarge { .. }), "got {err}");
        // Shutdown must not panic on a dead lane worker.
        let stats = service.shutdown();
        assert_eq!(stats.requests, 0);
        assert_eq!(stats.ooc_requests, 0);
    }

    #[test]
    fn reject_policy_still_bounces_over_budget_requests() {
        let service = tiny_memory_service(ServiceConfig::default());
        let err = service
            .submit(SortPayload::U64Keys(uniform_keys::<u64>(200_000, 5)))
            .unwrap_err();
        assert!(matches!(err, SubmitError::TooLarge { .. }));
        assert_eq!(service.stats_snapshot().rejected_too_large, 1);
        let stats = service.shutdown();
        assert_eq!(stats.requests, 0);
        assert_eq!(stats.ooc_requests, 0);
        assert_eq!(stats.rejected_too_large, 1);
    }

    #[test]
    fn ooc_lane_respects_saturation() {
        // in_flight accounting covers the out-of-core lane too.
        let service = tiny_memory_service(
            ServiceConfig::default()
                .with_over_budget(OverBudgetPolicy::OutOfCore)
                .with_queue_depth(1),
        );
        let t = service
            .submit(SortPayload::U64Keys(uniform_keys::<u64>(150_000, 6)))
            .unwrap();
        // The lane is busy and the single slot is taken: the next request
        // must bounce regardless of its size.
        let err = service
            .submit(SortPayload::U32Keys(vec![3, 1]))
            .unwrap_err();
        assert!(matches!(err, SubmitError::Saturated { .. }));
        t.wait().unwrap();
        service.shutdown();
    }

    #[test]
    fn submissions_after_shutdown_error_out() {
        let mut service = small_service(ServiceConfig::default());
        service.shutdown_in_place();
        assert_eq!(
            service
                .submit(SortPayload::U32Keys(vec![3, 1]))
                .unwrap_err(),
            SubmitError::ShuttingDown
        );
        // The out-of-core lane reports shutdown too (not TooLarge).
        let mut ooc = tiny_memory_service(
            ServiceConfig::default().with_over_budget(OverBudgetPolicy::OutOfCore),
        );
        ooc.shutdown_in_place();
        assert_eq!(
            ooc.submit(SortPayload::U64Keys(uniform_keys::<u64>(200_000, 1)))
                .unwrap_err(),
            SubmitError::ShuttingDown
        );
    }

    #[test]
    fn stats_snapshot_is_live_and_counts_rejections() {
        // Two admitted requests sit in the queue (nothing can trigger a
        // flush before the 30 s linger), yet the snapshot already sees
        // them — the old API could only report after `shutdown` destroyed
        // the service.
        let service = small_service(
            ServiceConfig::default()
                .with_queue_depth(2)
                .with_max_linger(Duration::from_secs(30))
                .with_max_batch_bytes(u64::MAX),
        );
        let t1 = service
            .submit(SortPayload::U64Keys(uniform_keys::<u64>(2_000, 1)))
            .unwrap();
        let t2 = service
            .submit(SortPayload::U64Keys(uniform_keys::<u64>(2_000, 2)))
            .unwrap();
        let live = service.stats_snapshot();
        assert_eq!(live.requests, 2);
        assert_eq!(live.batches, 0, "nothing may have flushed yet");
        assert_eq!(service.in_flight(), 2);

        // Rejections are counted by kind, live.
        let err = service
            .submit(SortPayload::U64Keys(vec![3, 1, 2]))
            .unwrap_err();
        assert!(matches!(err, SubmitError::Saturated { .. }));
        let _ = service
            .submit(SortPayload::U32Pairs {
                keys: vec![1, 2],
                values: vec![9],
            })
            .unwrap_err();
        let live = service.stats_snapshot();
        assert_eq!(live.rejected_saturated, 1);
        assert_eq!(live.rejected_mismatched_pairs, 1);

        let stats = service.shutdown();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.flushed_by_drain, 1);
        assert_eq!(stats.max_batch_requests, 2);
        assert!(stats.latency_p50 > Duration::ZERO);
        assert!(stats.latency_p99 >= stats.latency_p50);
        for t in [t1, t2] {
            t.wait().unwrap();
        }
    }

    #[test]
    fn inspector_snapshot_spans_every_layer() {
        let service = small_service(ServiceConfig::default());
        let t = service
            .submit(SortPayload::U64Keys(uniform_keys::<u64>(20_000, 3)))
            .unwrap();
        t.wait().unwrap();
        let snap = service.inspector().snapshot();
        let svc = snap.node("service").unwrap();
        assert_eq!(svc.uint("requests"), Some(1));
        assert!(svc.uint("batches").unwrap() >= 1);
        // The class subtree: queue drained back to zero, one latency sample.
        let class = snap.node("service/class/u64").unwrap();
        assert_eq!(class.uint("queue_depth"), Some(0));
        assert_eq!(
            snap.node("service/class/u64/latency_ns")
                .unwrap()
                .uint("count"),
            Some(1)
        );
        // The engine and per-device core layers hang off the same tree.
        assert!(snap.node("multi_gpu").unwrap().uint("sorts").unwrap() >= 1);
        assert!(snap.node("core/dev0").is_some());
        // And the whole thing round-trips through JSON.
        let parsed = crate::InspectNode::from_json(&snap.to_json()).unwrap();
        assert_eq!(parsed, snap);
        service.shutdown();
    }

    #[test]
    fn concurrent_class_flushes_resolve_both() {
        // One u32 and one u64 request pending at drain time → the worker
        // flushes both classes through the flush executor.
        let service = small_service(
            ServiceConfig::default()
                .with_max_linger(Duration::from_secs(30))
                .with_max_batch_bytes(u64::MAX),
        );
        let t32 = service
            .submit(SortPayload::U32Keys(uniform_keys::<u32>(4_000, 4)))
            .unwrap();
        let t64 = service
            .submit(SortPayload::U64Pairs {
                keys: uniform_keys::<u64>(4_000, 5),
                values: (0..4_000).collect(),
            })
            .unwrap();
        let stats = service.shutdown();
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.flushed_by_drain, 2);
        let o32 = t32.wait().unwrap();
        let o64 = t64.wait().unwrap();
        assert_ne!(o32.batch.batch, o64.batch.batch);
        let SortPayload::U64Pairs { keys, values } = o64.payload else {
            panic!("wrong variant")
        };
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(values.len(), 4_000);
    }
}
