//! Dynamic interval race ledger for disjoint-write views.
//!
//! `hrs_core::exec::SharedMut` hands several workers raw access to one
//! destination buffer on the promise that their index ranges are disjoint —
//! the CPU analogue of the paper's `atomicAdd`-reserved chunk ownership.
//! The compiler cannot check that promise, so (behind `hrs-core`'s
//! `race-check` feature) every unsafe accessor reports the range it claims
//! to a [`RaceLedger`] attached to the view.  The ledger keeps an interval
//! map of who claimed what and panics — naming **both** claim sites — the
//! moment two threads' claims overlap in a way the `SharedMut` contract
//! forbids.
//!
//! ## Conflict rules
//!
//! Claims are keyed by the claiming thread.  Overlaps *within* one thread
//! are always benign (the accesses are sequenced) and are merged; the rules
//! below apply across threads:
//!
//! | new claim \ existing     | [`OpenWrite`] | [`DoneWrite`] | [`Read`] |
//! |--------------------------|---------------|---------------|----------|
//! | write (either kind)      | panic         | panic         | panic    |
//! | [`Read`]                 | panic         | **allowed**   | allowed  |
//!
//! The one deliberate hole — reads over another thread's *completed* writes
//! — covers a reader ordered after the writer by a happens-before edge the
//! ledger cannot see, such as a thread-scope join or a Release/Acquire
//! pair.  The ledger trusts that edge rather than checking it.
//! `SharedMut` has no read accessor, so today only callers that claim
//! [`Read`] ranges themselves, as the ledger's own tests do, reach the
//! rule.  A [`DoneWrite`] claim records an instantaneous write that completed before
//! the accessor returned ([`SharedMut::write`]/`copy_from_slice_at`); an
//! [`OpenWrite`] records a live `&mut` borrow ([`slice_mut`]) that stays
//! exclusive for the rest of the view's life, because the ledger cannot see
//! when the borrow ends.
//!
//! Adjacent same-thread claims are coalesced, so a counting pass costs
//! O(blocks × radix) ledger entries rather than O(keys).
//!
//! [`OpenWrite`]: ClaimKind::OpenWrite
//! [`DoneWrite`]: ClaimKind::DoneWrite
//! [`Read`]: ClaimKind::Read
//! [`SharedMut::write`]: ClaimKind::DoneWrite
//! [`slice_mut`]: ClaimKind::OpenWrite

use std::collections::BTreeMap;
use std::panic::Location;
use std::sync::Mutex;
use std::thread::{self, ThreadId};

/// What kind of access a claim records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClaimKind {
    /// A live `&mut` borrow of the range (`slice_mut`): exclusive until the
    /// view is dropped, since the ledger cannot observe the borrow's end.
    OpenWrite,
    /// A write that completed before the accessor returned (`write`,
    /// `copy_from_slice_at`): other threads may *read* the range afterwards
    /// if something else (a barrier, a Release/Acquire countdown) orders the
    /// read after the write.
    DoneWrite,
    /// A shared borrow of the range (`slice_ref`).
    Read,
}

impl ClaimKind {
    fn is_write(self) -> bool {
        matches!(self, ClaimKind::OpenWrite | ClaimKind::DoneWrite)
    }

    fn label(self) -> &'static str {
        match self {
            ClaimKind::OpenWrite => "open write (slice_mut)",
            ClaimKind::DoneWrite => "completed write",
            ClaimKind::Read => "read",
        }
    }
}

/// One recorded write interval (`start` is the map key).
#[derive(Debug, Clone)]
struct WriteClaim {
    end: usize,
    owner: ThreadId,
    kind: ClaimKind,
    site: &'static Location<'static>,
}

/// One recorded read interval; `owner` is `None` once threads share it.
#[derive(Debug, Clone)]
struct ReadClaim {
    end: usize,
    owner: Option<ThreadId>,
    site: &'static Location<'static>,
}

#[derive(Debug, Default)]
struct Inner {
    /// Disjoint write intervals keyed by start (same-thread overlaps are
    /// merged on insert; cross-thread overlaps panic before insert).
    writes: BTreeMap<usize, WriteClaim>,
    /// Disjoint read intervals keyed by start (overlapping reads merge).
    reads: BTreeMap<usize, ReadClaim>,
}

/// Interval ledger recording every range claimed through one `SharedMut`
/// view and panicking on cross-thread conflicts.
///
/// ```
/// use analysis::{ClaimKind, RaceLedger};
///
/// let ledger = RaceLedger::new("doc");
/// ledger.claim(ClaimKind::DoneWrite, 0, 8);   // worker wrote [0, 8)
/// ledger.claim(ClaimKind::Read, 0, 8);        // same thread: benign
/// ledger.claim(ClaimKind::DoneWrite, 8, 8);   // disjoint: fine
/// assert_eq!(ledger.write_claims(), 1);       // adjacent claims coalesce
/// ```
#[derive(Debug)]
pub struct RaceLedger {
    label: &'static str,
    inner: Mutex<Inner>,
}

impl RaceLedger {
    /// A fresh, empty ledger; `label` names the guarded buffer in panics.
    pub fn new(label: &'static str) -> Self {
        RaceLedger {
            label,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Records that the calling thread claims `start..start + len` with
    /// `kind`, panicking (with both claim sites) on a cross-thread
    /// conflict.  Zero-length claims are ignored.
    #[track_caller]
    pub fn claim(&self, kind: ClaimKind, start: usize, len: usize) {
        if len == 0 {
            return;
        }
        let end = start + len;
        let me = thread::current().id();
        let site = Location::caller();
        // A panic unwinding out of `claim` poisons the mutex; later claims
        // (e.g. from a `should_panic` test's surviving workers) still want
        // the real conflict report, not a poison error.
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        if kind.is_write() {
            self.check_write_conflicts(&inner, kind, start, end, me, site);
            Self::insert_write(&mut inner.writes, kind, start, end, me, site);
        } else {
            self.check_read_conflicts(&inner, start, end, me, site);
            Self::insert_read(&mut inner.reads, start, end, me, site);
        }
    }

    /// Number of (merged) write intervals currently recorded.
    pub fn write_claims(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .writes
            .len()
    }

    /// Number of (merged) read intervals currently recorded.
    pub fn read_claims(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .reads
            .len()
    }

    /// Forgets every recorded claim.  `SharedMut` views are created per
    /// pass, so the instrumentation never needs this; it exists for tests
    /// that reuse one ledger across scenarios.
    pub fn clear(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner.writes.clear();
        inner.reads.clear();
    }

    /// Panics if `start..end` overlaps a claim the new write may not race
    /// with: any other thread's write, or any read the writer does not own.
    fn check_write_conflicts(
        &self,
        inner: &Inner,
        kind: ClaimKind,
        start: usize,
        end: usize,
        me: ThreadId,
        site: &'static Location<'static>,
    ) {
        // Intervals in each map are disjoint and keyed by start, so their
        // ends are strictly increasing: walking backwards from `end` can
        // stop at the first interval that ends at or before `start`.
        for (&c_start, c) in inner.writes.range(..end).rev() {
            if c.end <= start {
                break;
            }
            if c.owner != me {
                self.conflict(kind, start..end, site, c.kind, c_start..c.end, c.site);
            }
        }
        for (&c_start, c) in inner.reads.range(..end).rev() {
            if c.end <= start {
                break;
            }
            if c.owner != Some(me) {
                self.conflict(
                    kind,
                    start..end,
                    site,
                    ClaimKind::Read,
                    c_start..c.end,
                    c.site,
                );
            }
        }
    }

    /// Panics if `start..end` overlaps another thread's *open* write.
    /// Completed writes are fine: the caller asserts an external
    /// happens-before edge (barrier or Release/Acquire countdown) orders
    /// the read after them.
    fn check_read_conflicts(
        &self,
        inner: &Inner,
        start: usize,
        end: usize,
        me: ThreadId,
        site: &'static Location<'static>,
    ) {
        for (&c_start, c) in inner.writes.range(..end).rev() {
            if c.end <= start {
                break;
            }
            if c.owner != me && c.kind == ClaimKind::OpenWrite {
                self.conflict(
                    ClaimKind::Read,
                    start..end,
                    site,
                    c.kind,
                    c_start..c.end,
                    c.site,
                );
            }
        }
    }

    /// Inserts a conflict-free write claim, merging it with every
    /// same-thread claim it overlaps or touches (an overlap with a
    /// different thread already panicked).  Merging keeps the map disjoint
    /// and bounds its size; a merged interval keeps the newest site and the
    /// stronger kind (`OpenWrite` wins, staying exclusive).
    fn insert_write(
        writes: &mut BTreeMap<usize, WriteClaim>,
        kind: ClaimKind,
        start: usize,
        end: usize,
        me: ThreadId,
        site: &'static Location<'static>,
    ) {
        let mut new_start = start;
        let mut new_end = end;
        let mut new_kind = kind;
        let mut absorbed = Vec::new();
        // `..=end` (not `..end`) also picks up a claim starting exactly at
        // `end` — adjacent on the right, eligible for coalescing.
        for (&c_start, c) in writes.range(..=end).rev() {
            if c.end < new_start {
                break;
            }
            if c.owner == me {
                absorbed.push(c_start);
                new_start = new_start.min(c_start);
                new_end = new_end.max(c.end);
                if c.kind == ClaimKind::OpenWrite {
                    new_kind = ClaimKind::OpenWrite;
                }
            }
        }
        for c_start in absorbed {
            writes.remove(&c_start);
        }
        writes.insert(
            new_start,
            WriteClaim {
                end: new_end,
                owner: me,
                kind: new_kind,
                site,
            },
        );
    }

    /// Inserts a conflict-free read claim, merging overlapping or adjacent
    /// reads from *any* thread (shared borrows coexist); a merged interval
    /// spanning several threads records `owner: None`, which later writes
    /// from every thread conflict with.
    fn insert_read(
        reads: &mut BTreeMap<usize, ReadClaim>,
        start: usize,
        end: usize,
        me: ThreadId,
        site: &'static Location<'static>,
    ) {
        let mut new_start = start;
        let mut new_end = end;
        let mut new_owner = Some(me);
        let mut absorbed = Vec::new();
        for (&c_start, c) in reads.range(..=end).rev() {
            if c.end < new_start {
                break;
            }
            absorbed.push(c_start);
            new_start = new_start.min(c_start);
            new_end = new_end.max(c.end);
            if c.owner != Some(me) {
                new_owner = None;
            }
        }
        for c_start in absorbed {
            reads.remove(&c_start);
        }
        reads.insert(
            new_start,
            ReadClaim {
                end: new_end,
                owner: new_owner,
                site,
            },
        );
    }

    /// Reports a cross-thread overlap and aborts the claim by panicking.
    fn conflict(
        &self,
        new_kind: ClaimKind,
        new_range: std::ops::Range<usize>,
        new_site: &'static Location<'static>,
        old_kind: ClaimKind,
        old_range: std::ops::Range<usize>,
        old_site: &'static Location<'static>,
    ) -> ! {
        panic!(
            "race ledger `{}`: {} of [{}, {}) at {} overlaps another \
             thread's {} of [{}, {}) at {}",
            self.label,
            new_kind.label(),
            new_range.start,
            new_range.end,
            new_site,
            old_kind.label(),
            old_range.start,
            old_range.end,
            old_site,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Barrier;

    #[test]
    fn disjoint_writes_from_one_thread_are_fine_and_coalesce() {
        let ledger = RaceLedger::new("t");
        for i in 0..100 {
            ledger.claim(ClaimKind::DoneWrite, i * 4, 4);
        }
        assert_eq!(ledger.write_claims(), 1, "adjacent claims merge");
        ledger.claim(ClaimKind::DoneWrite, 1000, 4);
        assert_eq!(ledger.write_claims(), 2, "a gap keeps intervals apart");
    }

    #[test]
    fn same_thread_overlap_is_benign() {
        let ledger = RaceLedger::new("t");
        ledger.claim(ClaimKind::OpenWrite, 0, 100);
        ledger.claim(ClaimKind::DoneWrite, 50, 100);
        ledger.claim(ClaimKind::Read, 0, 150);
        assert_eq!(ledger.write_claims(), 1);
    }

    #[test]
    fn zero_length_claims_are_ignored() {
        let ledger = RaceLedger::new("t");
        ledger.claim(ClaimKind::DoneWrite, 5, 0);
        ledger.claim(ClaimKind::Read, 5, 0);
        assert_eq!(ledger.write_claims(), 0);
        assert_eq!(ledger.read_claims(), 0);
    }

    #[test]
    fn read_over_foreign_done_write_is_allowed() {
        let ledger = RaceLedger::new("t");
        std::thread::scope(|s| {
            s.spawn(|| ledger.claim(ClaimKind::DoneWrite, 0, 64))
                .join()
                .unwrap();
        });
        // The writer finished; an external barrier (thread join above)
        // ordered this read after it.
        ledger.claim(ClaimKind::Read, 0, 64);
        assert_eq!(ledger.read_claims(), 1);
    }

    #[test]
    #[should_panic(expected = "race ledger")]
    fn cross_thread_write_write_overlap_panics() {
        let ledger = RaceLedger::new("t");
        let gate = Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                ledger.claim(ClaimKind::DoneWrite, 0, 64);
                gate.wait();
            });
            gate.wait();
            ledger.claim(ClaimKind::DoneWrite, 32, 64);
        });
    }

    #[test]
    #[should_panic(expected = "open write")]
    fn read_over_foreign_open_write_panics() {
        let ledger = RaceLedger::new("t");
        let gate = Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                ledger.claim(ClaimKind::OpenWrite, 0, 64);
                gate.wait();
            });
            gate.wait();
            ledger.claim(ClaimKind::Read, 10, 4);
        });
    }

    #[test]
    #[should_panic(expected = "race ledger")]
    fn write_over_foreign_read_panics() {
        let ledger = RaceLedger::new("t");
        let gate = Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                ledger.claim(ClaimKind::Read, 0, 64);
                gate.wait();
            });
            gate.wait();
            ledger.claim(ClaimKind::DoneWrite, 63, 1);
        });
    }

    #[test]
    fn panic_message_names_both_sites() {
        let ledger = RaceLedger::new("buf");
        std::thread::scope(|s| {
            s.spawn(|| ledger.claim(ClaimKind::DoneWrite, 0, 10))
                .join()
                .unwrap();
        });
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ledger.claim(ClaimKind::DoneWrite, 5, 10);
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("race ledger `buf`"), "{msg}");
        assert!(msg.contains("[5, 15)"), "{msg}");
        assert!(msg.contains("[0, 10)"), "{msg}");
        // Both claim sites point into this test file.
        assert_eq!(msg.matches("ledger.rs").count(), 2, "{msg}");
    }

    #[test]
    fn parallel_disjoint_partition_never_trips() {
        // Emulates a counting pass: W workers claim interleaved disjoint
        // block ranges of one output buffer, then read them back.
        let ledger = RaceLedger::new("t");
        let workers = 4;
        let blocks = 64;
        let block_len = 32;
        std::thread::scope(|s| {
            for w in 0..workers {
                let ledger = &ledger;
                s.spawn(move || {
                    for b in (w..blocks).step_by(workers) {
                        ledger.claim(ClaimKind::DoneWrite, b * block_len, block_len);
                    }
                });
            }
        });
        // All writes completed (scope join is the happens-before edge);
        // cross-thread reads of the whole buffer are fine.
        ledger.claim(ClaimKind::Read, 0, blocks * block_len);
        assert!(ledger.write_claims() <= blocks);
        ledger.clear();
        assert_eq!(ledger.write_claims(), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any random partition of [0, n) into disjoint runs, claimed in
        /// random order from several threads, must never trip the ledger,
        /// and merging must never record more intervals than runs.
        #[test]
        fn random_disjoint_partitions_never_trip(
            cuts in collection::vec(0usize..4096, 1..40),
            seed in 0u64..u64::MAX,
        ) {
            let mut bounds = cuts.clone();
            bounds.push(0);
            bounds.push(4096);
            bounds.sort_unstable();
            bounds.dedup();
            let runs: Vec<(usize, usize)> = bounds
                .windows(2)
                .map(|w| (w[0], w[1] - w[0]))
                .collect();
            let n_runs = runs.len();
            let ledger = RaceLedger::new("prop");
            let workers = 3;
            std::thread::scope(|s| {
                for w in 0..workers {
                    let ledger = &ledger;
                    let runs = &runs;
                    s.spawn(move || {
                        // Deterministic per-worker interleave of the runs.
                        let offset = (seed as usize).wrapping_add(w) % n_runs;
                        for i in 0..n_runs {
                            let idx = (offset + i * workers + w) % n_runs;
                            if idx % workers == w {
                                let (start, len) = runs[idx];
                                ledger.claim(ClaimKind::DoneWrite, start, len);
                            }
                        }
                    });
                }
            });
            prop_assert!(ledger.write_claims() <= n_runs);
        }
    }
}
