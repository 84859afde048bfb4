//! Request and response types of the batch sort service.

use crate::service::{CancelSet, WorkerMsg};
use multi_gpu::{ShardedReport, SortError};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

/// The key class a payload sorts under.  Only payloads of the same class
/// can be coalesced into one batch (their keys are concatenated into a
/// single buffer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KeyClass {
    /// 32-bit keys.
    U32,
    /// 64-bit keys.
    U64,
}

impl KeyClass {
    /// Human-readable label (`"u32"` / `"u64"`).
    pub fn label(&self) -> &'static str {
        match self {
            KeyClass::U32 => "u32",
            KeyClass::U64 => "u64",
        }
    }
}

/// One sort request's data, and — inside a [`SortOutcome`] — its sorted
/// result, returned in the same buffers that were submitted.
///
/// Pair payloads carry a `u32` value per key (a row id in database terms);
/// the value doubles as the demux tag, which is what lets the service
/// recover every request's permuted values from the globally sorted batch
/// without any side-table lookups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SortPayload {
    /// Key-only sort of 32-bit keys.
    U32Keys(Vec<u32>),
    /// Key-only sort of 64-bit keys.
    U64Keys(Vec<u64>),
    /// 32-bit keys, each carrying a 32-bit value.
    U32Pairs {
        /// The sort keys.
        keys: Vec<u32>,
        /// `values[i]` travels with `keys[i]`.
        values: Vec<u32>,
    },
    /// 64-bit keys, each carrying a 32-bit value.
    U64Pairs {
        /// The sort keys.
        keys: Vec<u64>,
        /// `values[i]` travels with `keys[i]`.
        values: Vec<u32>,
    },
}

impl SortPayload {
    /// Number of keys in the payload.
    pub fn len(&self) -> usize {
        match self {
            SortPayload::U32Keys(k) => k.len(),
            SortPayload::U64Keys(k) => k.len(),
            SortPayload::U32Pairs { keys, .. } => keys.len(),
            SortPayload::U64Pairs { keys, .. } => keys.len(),
        }
    }

    /// Whether the payload holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The key class batching groups this payload under.
    pub fn class(&self) -> KeyClass {
        match self {
            SortPayload::U32Keys(_) | SortPayload::U32Pairs { .. } => KeyClass::U32,
            SortPayload::U64Keys(_) | SortPayload::U64Pairs { .. } => KeyClass::U64,
        }
    }

    /// Whether a value travels with every key.
    pub fn is_pairs(&self) -> bool {
        matches!(
            self,
            SortPayload::U32Pairs { .. } | SortPayload::U64Pairs { .. }
        )
    }

    /// Payload size in bytes as the admission control counts it: keys plus
    /// the per-key demux tag every batched element carries through the
    /// device phase (the tag subsumes the pair value).  Shares
    /// [`crate::batch::elem_bytes`] with the queue accounting so the two
    /// can never drift apart.
    pub fn batch_bytes(&self) -> u64 {
        let elem = match self.class() {
            KeyClass::U32 => crate::batch::elem_bytes::<u32>(),
            KeyClass::U64 => crate::batch::elem_bytes::<u64>(),
        };
        self.len() as u64 * elem
    }

    /// Wraps the payload into a [`SortRequest`] with a dispatch deadline:
    /// the service must dispatch the request's batch within `deadline` of
    /// submission, or resolve the ticket with
    /// [`TicketError::DeadlineExceeded`].
    pub fn with_deadline(self, deadline: Duration) -> SortRequest {
        SortRequest::from(self).with_deadline(deadline)
    }
}

/// One submission to [`SortService::submit`](crate::SortService::submit):
/// a payload plus optional per-request quality-of-service attributes.
///
/// `submit` takes `impl Into<SortRequest>`, so a bare [`SortPayload`]
/// still submits directly; attach a deadline with
/// [`SortPayload::with_deadline`] or [`SortRequest::with_deadline`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortRequest {
    /// The data to sort.
    pub payload: SortPayload,
    /// Dispatch deadline: the batch carrying this request must dispatch
    /// within this much time of submission.  The worker wakes early to
    /// flush a class whose deadline approaches
    /// ([`FlushReason::Deadline`]); a request whose deadline has fully
    /// expired before dispatch resolves with
    /// [`TicketError::DeadlineExceeded`] instead of sorting.
    pub deadline: Option<Duration>,
}

impl SortRequest {
    /// Sets the dispatch deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

impl From<SortPayload> for SortRequest {
    fn from(payload: SortPayload) -> Self {
        SortRequest {
            payload,
            deadline: None,
        }
    }
}

/// Why [`SortService::submit`](crate::SortService::submit) rejected a
/// request.  Rejections are immediate and lossless — the payload was not
/// enqueued and no ticket exists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// `queue_depth` requests are already in flight; retry after some
    /// tickets resolve.  This is the explicit backpressure signal.
    Saturated {
        /// Requests currently admitted and not yet completed.
        in_flight: usize,
        /// The configured admission limit.
        queue_depth: usize,
    },
    /// The single request exceeds the device pool's admission budget and
    /// the service's [`OverBudgetPolicy`](crate::OverBudgetPolicy) is
    /// `Reject` — with the `OutOfCore` policy the request would instead be
    /// admitted into the chunked out-of-core lane.
    TooLarge {
        /// The request's size in batch bytes (keys + demux tags).
        bytes: u64,
        /// The pool budget after the admission slack.
        budget: u64,
    },
    /// The request holds more keys than the batch demux-tag scheme can
    /// address: every batched key carries a `(slot << 32) | index` tag, so
    /// a request's local index must fit 32 bits.  A larger request would
    /// silently corrupt every other request's tags in release builds (this
    /// used to be a `debug_assert!` only); it is now rejected at admission.
    TooManyKeys {
        /// Number of keys submitted.
        keys: usize,
        /// The largest batchable request in keys
        /// ([`crate::batch::MAX_REQUEST_KEYS`]).
        max: usize,
    },
    /// A pair payload whose key and value lengths differ.
    MismatchedPair {
        /// Number of keys submitted.
        keys: usize,
        /// Number of values submitted.
        values: usize,
    },
    /// More than half of the device pool is marked dead: the service is in
    /// degraded mode and sheds new load rather than queueing work the
    /// remaining devices cannot absorb.  In-flight requests still resolve
    /// (the fault-tolerant engine requeues onto the survivors).
    Degraded {
        /// Devices still alive in the pool.
        alive: usize,
        /// Total devices the pool was built with.
        total: usize,
    },
    /// The service is shutting down and accepts no further requests.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Saturated {
                in_flight,
                queue_depth,
            } => write!(
                f,
                "service saturated: {in_flight} requests in flight (queue depth {queue_depth})"
            ),
            SubmitError::TooLarge { bytes, budget } => write!(
                f,
                "request of {bytes} bytes exceeds the pool admission budget of {budget} bytes"
            ),
            SubmitError::TooManyKeys { keys, max } => write!(
                f,
                "request of {keys} keys exceeds the {max}-key demux-tag limit of a batch"
            ),
            SubmitError::MismatchedPair { keys, values } => {
                write!(f, "pair payload with {keys} keys but {values} values")
            }
            SubmitError::Degraded { alive, total } => write!(
                f,
                "service degraded: only {alive} of {total} devices alive; shedding new load"
            ),
            SubmitError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// What made the worker close a batch and dispatch it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushReason {
    /// The class's pending bytes reached `max_batch_bytes`.
    Bytes,
    /// The oldest pending request waited `max_linger`.
    Linger,
    /// The class's pending request count reached `max_batch_requests`.
    RequestCap,
    /// A pending request's dispatch deadline approached: the worker
    /// flushed the class early (at 80 % of the deadline) so the batch
    /// dispatches before the deadline expires.
    Deadline,
    /// Shutdown drain: the submission queue disconnected.
    Drain,
    /// The request exceeded the admission budget and rode the dedicated
    /// out-of-core lane (one chunked sharded sort per request, no
    /// coalescing).
    OutOfCore,
}

impl FlushReason {
    /// Short label for logs and the bench JSON.
    pub fn label(&self) -> &'static str {
        match self {
            FlushReason::Bytes => "bytes",
            FlushReason::Linger => "linger",
            FlushReason::RequestCap => "request-cap",
            FlushReason::Deadline => "deadline",
            FlushReason::Drain => "drain",
            FlushReason::OutOfCore => "out-of-core",
        }
    }
}

/// Identity and shape of the batch a request rode in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchInfo {
    /// Monotonic batch id, unique per service instance.
    pub batch: u64,
    /// Requests coalesced into the batch.
    pub requests: usize,
    /// Total keys across the batch.
    pub elements: u64,
    /// Total batch bytes (keys + demux tags).
    pub bytes: u64,
    /// What triggered the flush.
    pub reason: FlushReason,
}

/// The span one request occupied in its batch's concatenated input.
///
/// The batching worker concatenates the pending requests' keys in
/// submission order, so a request's span is its submission index and the
/// prefix sum of the lengths before it.  A request of the out-of-core lane
/// rides alone and spans its whole sort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestSpan {
    /// Index of the request within its batch, in submission order.
    pub index: usize,
    /// Offset of the request's first element in the concatenated input.
    pub offset: u64,
    /// Number of elements the request contributed.
    pub len: u64,
}

/// The resolved result of one sort request.
#[derive(Debug)]
pub struct SortOutcome {
    /// The sorted payload, in the buffers the request submitted.
    pub payload: SortPayload,
    /// This request's slice of the batch (offset/length in the
    /// concatenated input).
    pub span: RequestSpan,
    /// The batch's shared sharded-sort report: schedule, critical path,
    /// per-shard breakdown.  One `Arc` per batch, shared by all its
    /// requests.
    pub report: Arc<ShardedReport>,
    /// The batch this request was coalesced into.
    pub batch: BatchInfo,
    /// Time from submission to batch dispatch (queueing + linger).
    pub queued: Duration,
}

/// Why waiting on a [`SortTicket`] failed.
///
/// Every variant is a *terminal* resolution: the ticket will never yield a
/// [`SortOutcome`], and the request's admission slot has been released.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TicketError {
    /// The service (and its worker) terminated before resolving the
    /// ticket.  Cannot happen through the public API: shutdown drains every
    /// pending request first.
    ServiceDropped,
    /// The request was cancelled via [`SortTicket::cancel`] before its
    /// batch dispatched.
    Cancelled,
    /// The request's dispatch deadline expired before its batch
    /// dispatched (see [`SortRequest::deadline`]).
    DeadlineExceeded,
    /// The sharded engine could not complete the request's batch even
    /// after fault recovery (all devices dead, or the retry budget ran
    /// out).  The typed engine error says which.
    SortFailed(SortError),
    /// A worker thread panicked while processing the request's batch.  The
    /// service survives — the panic is isolated, pending requests are
    /// resolved with this error, and new submissions keep working.
    WorkerFailed,
}

impl std::fmt::Display for TicketError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TicketError::ServiceDropped => write!(f, "service dropped before the sort completed"),
            TicketError::Cancelled => write!(f, "request cancelled before its batch dispatched"),
            TicketError::DeadlineExceeded => {
                write!(f, "request deadline expired before its batch dispatched")
            }
            TicketError::SortFailed(e) => write!(f, "sharded sort failed: {e}"),
            TicketError::WorkerFailed => {
                write!(f, "service worker panicked while processing the request")
            }
        }
    }
}

impl std::error::Error for TicketError {}

/// A handle to one in-flight sort request, resolving to a [`SortOutcome`].
#[derive(Debug)]
pub struct SortTicket {
    pub(crate) id: u64,
    pub(crate) rx: mpsc::Receiver<Result<SortOutcome, TicketError>>,
    /// Wakes the batching worker so a cancel takes effect promptly; `None`
    /// for tickets riding the out-of-core lane (its worker checks the
    /// cancel set before dispatching).
    pub(crate) cancel_tx: Option<mpsc::Sender<WorkerMsg>>,
    /// The service-wide set of cancelled request ids.
    pub(crate) cancel_set: Option<CancelSet>,
}

impl SortTicket {
    /// The request id assigned at submission (monotonic per service).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Requests cancellation.  Best-effort: if the request is still
    /// pending in its class queue (or waiting in the out-of-core lane),
    /// it is unpicked — its bytes leave the queue accounting, its
    /// admission slot is released and the ticket resolves with
    /// [`TicketError::Cancelled`].  A request whose batch already
    /// dispatched completes normally.
    pub fn cancel(&self) {
        if let Some(set) = &self.cancel_set {
            set.lock().unwrap().insert(self.id);
        }
        if let Some(tx) = &self.cancel_tx {
            let _ = tx.send(WorkerMsg::Cancel(self.id));
        }
    }

    /// Blocks until the request resolves and returns the outcome.
    pub fn wait(self) -> Result<SortOutcome, TicketError> {
        match self.rx.recv() {
            Ok(resolved) => resolved,
            Err(_) => Err(TicketError::ServiceDropped),
        }
    }

    /// Non-blocking poll: the outcome if the request already resolved.
    pub fn try_wait(&mut self) -> Result<Option<SortOutcome>, TicketError> {
        match self.rx.try_recv() {
            Ok(Ok(outcome)) => Ok(Some(outcome)),
            Ok(Err(err)) => Err(err),
            Err(mpsc::TryRecvError::Empty) => Ok(None),
            Err(mpsc::TryRecvError::Disconnected) => Err(TicketError::ServiceDropped),
        }
    }

    /// Bounded wait: blocks at most `timeout` for the request to resolve.
    /// `Ok(None)` means the timeout elapsed with the request still in
    /// flight — the ticket stays valid and can be waited on again.
    pub fn wait_timeout(&mut self, timeout: Duration) -> Result<Option<SortOutcome>, TicketError> {
        match self.rx.recv_timeout(timeout) {
            Ok(Ok(outcome)) => Ok(Some(outcome)),
            Ok(Err(err)) => Err(err),
            Err(mpsc::RecvTimeoutError::Timeout) => Ok(None),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(TicketError::ServiceDropped),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_accounting() {
        let p = SortPayload::U32Keys(vec![3, 1, 2]);
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
        assert_eq!(p.class(), KeyClass::U32);
        assert!(!p.is_pairs());
        assert_eq!(p.batch_bytes(), 3 * (4 + 8));

        let q = SortPayload::U64Pairs {
            keys: vec![9, 8],
            values: vec![0, 1],
        };
        assert_eq!(q.class(), KeyClass::U64);
        assert!(q.is_pairs());
        assert_eq!(q.batch_bytes(), 2 * (8 + 8));
        assert!(SortPayload::U64Keys(Vec::new()).is_empty());
        assert_eq!(KeyClass::U32.label(), "u32");
        assert_eq!(KeyClass::U64.label(), "u64");
    }

    #[test]
    fn errors_render() {
        let s = SubmitError::Saturated {
            in_flight: 8,
            queue_depth: 8,
        };
        assert!(s.to_string().contains("saturated"));
        assert!(SubmitError::TooLarge {
            bytes: 10,
            budget: 5
        }
        .to_string()
        .contains("budget"));
        assert!(SubmitError::MismatchedPair { keys: 2, values: 3 }
            .to_string()
            .contains("2 keys"));
        assert!(SubmitError::TooManyKeys {
            keys: 5_000_000_000,
            max: u32::MAX as usize
        }
        .to_string()
        .contains("demux-tag"));
        assert!(SubmitError::ShuttingDown.to_string().contains("shutting"));
        assert!(SubmitError::Degraded { alive: 1, total: 4 }
            .to_string()
            .contains("1 of 4"));
        assert!(TicketError::ServiceDropped.to_string().contains("dropped"));
        assert!(TicketError::Cancelled.to_string().contains("cancelled"));
        assert!(TicketError::DeadlineExceeded
            .to_string()
            .contains("deadline"));
        assert!(TicketError::WorkerFailed.to_string().contains("panicked"));
        assert!(
            TicketError::SortFailed(SortError::AllDevicesDead { failed: 2 })
                .to_string()
                .contains("dead")
        );
        assert_eq!(FlushReason::Linger.label(), "linger");
        assert_eq!(FlushReason::Drain.label(), "drain");
        assert_eq!(FlushReason::Deadline.label(), "deadline");
        assert_eq!(FlushReason::OutOfCore.label(), "out-of-core");
    }

    #[test]
    fn deadlines_attach_to_payloads() {
        let req = SortPayload::U32Keys(vec![1]).with_deadline(Duration::from_millis(5));
        assert_eq!(req.deadline, Some(Duration::from_millis(5)));
        let bare: SortRequest = SortPayload::U32Keys(vec![1]).into();
        assert_eq!(bare.deadline, None);
        assert_eq!(
            bare.with_deadline(Duration::from_secs(1)).deadline,
            Some(Duration::from_secs(1))
        );
    }
}
