//! Schedule points for deterministic concurrency testing.
//!
//! The STM algorithms call [`point`] at every place where the outcome of
//! a race is decided — seqlock acquire/release, orec lock CAS, the
//! read-consistency window, snapshot extension, the commit fence — and
//! [`spin`] inside every bounded wait loop. In a normal build both are
//! empty `#[inline]` functions and the algorithms are exactly as before.
//!
//! Under `--features shuttle` (named after the style of tool, not a
//! dependency — this workspace is fully offline), each call consults a
//! thread-local `SchedHook`. The `semtm-check` crate installs a hook
//! that parks the calling OS thread and hands control to a coordinator,
//! which resumes exactly one thread at a time: transactions become
//! cooperatively scheduled coroutines and the coordinator can explore
//! interleavings exhaustively (bounded-preemption DFS) or replayably
//! (seeded random walks).
//!
//! The same hook decides [`fault`]s: a checker run that names a
//! [`Fault`] makes the engines skip that one guard on its threads, so
//! the explorer can show the checker catches the guard's removal.
//! Without a hook, and always without `shuttle`, no fault fires.
//!
//! Placement invariant relied on by the history checker: **no schedule
//! point sits between a commit's first data write-back and its lock
//! release**. Write-back plus release is one atomic step of the virtual
//! schedule, so the memory states other threads can observe are exactly
//! the prefixes of the commit order.

/// Where in an algorithm a schedule point sits. Carried to the hook for
/// diagnostics; the scheduler treats all kinds identically except that
/// spin points (reported via [`spin`]) force a thread switch.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum PointKind {
    /// NOrec: before sampling the global sequence lock at begin.
    NorecBegin,
    /// NOrec: head of one validation round (before loading the lock).
    NorecValidate,
    /// NOrec: between per-entry revalidation and the closing time
    /// re-check of a validation round.
    NorecValidateRecheck,
    /// NOrec: before the data load of a consistent read.
    NorecRead,
    /// NOrec: before one commit-time acquire CAS on the sequence lock.
    NorecCommitAcquire,
    /// NOrec: sequence lock held, before write-back begins.
    NorecWriteback,
    /// TL2: before sampling the version clock at begin.
    Tl2Begin,
    /// TL2: before the first orec load of a validated read.
    Tl2Read,
    /// TL2: between the data load and the confirming orec re-load (the
    /// classic TL2 read-consistency window).
    Tl2ReadWindow,
    /// TL2: head of one snapshot-extension round.
    Tl2Extend,
    /// TL2: before attempting to lock one write-set orec at commit.
    Tl2LockCas,
    /// TL2: head of one commit-time clock-advance CAS round.
    Tl2CommitCas,
    /// TL2: locks held and clock advanced, before write-back begins.
    Tl2Writeback,
    /// Sharded-clock NOrec: before one load of a shard word at the first
    /// read under that shard in an attempt (one point per wait round;
    /// the attempt's first touch has sampled the epoch just before it).
    /// Begin itself touches no shared memory and has no point.
    ScNorecTouch,
    /// Sharded-clock NOrec: head of one validation round (before
    /// sampling the epoch and the shards the attempt has read under).
    ScNorecValidate,
    /// Sharded-clock NOrec: between moved-shard revalidation and the
    /// closing re-sample of those shards.
    ScNorecValidateRecheck,
    /// Sharded-clock NOrec: before the data load of a consistent read.
    ScNorecRead,
    /// Sharded-clock NOrec: before one commit-time acquire pass over the
    /// write-set's shards (a CAS from the snapshot on a shard the attempt
    /// read under, a blind `fetch_or` on one it did not).
    ScNorecCommitAcquire,
    /// Sharded-clock NOrec: all write-set shards held and the read-set
    /// revalidated, before write-back begins.
    ScNorecWriteback,
    /// WAL: commit locks held and validation passed, before appending
    /// the resolved write record to the commit log (still before the
    /// first data write-back, so the placement invariant holds).
    WalAppend,
    /// WAL flusher: before draining the pending buffer into storage.
    WalFlush,
    /// WAL flusher: batch appended, before the fsync that makes it
    /// durable — the crash window where written ≠ durable.
    WalFsync,
    /// Adaptive switching: before an attempt's load of the mode word
    /// ([`crate::adapt`] enter protocol).
    AdaptEnter,
    /// Adaptive switching: presence count incremented, before the confirming
    /// re-load of the mode word (the enter race window).
    AdaptEnterRecheck,
    /// Adaptive switching: before a switcher's acquire CAS on the mode
    /// word (`Running → Draining`).
    AdaptAcquire,
    /// Adaptive switching: `Draining` published, before the first scan
    /// of the presence counts (drain-loop rounds are reported as spins).
    AdaptDrain,
    /// Adaptive switching: drain complete (no attempt in flight), before
    /// reseeding the engine metadata clocks.
    AdaptReseed,
    /// Adaptive switching: metadata reseeded, before publishing
    /// `Running(next, epoch+1)`.
    AdaptPublish,
}

/// A guard an engine skips when the running thread's hook asks for it
/// ([`fault`]): a deliberately reintroduced bug the `semtm-check`
/// mutation table shows the checker catches. Not `#[non_exhaustive]`,
/// so a `match` over it names every fault.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fault {
    /// S-NOrec: skip the per-entry semantic revalidation of the
    /// read/compare set during [`validate`](crate::norec), committing on
    /// a stale snapshot.
    SnorecSkipRevalidation,
    /// TL2/S-TL2: skip commit-time read-set validation when the commit
    /// timestamp moved past the start version, publishing writes that
    /// were derived from since-overwritten reads.
    Tl2SkipReadValidation,
    /// S-TL2: skip the compare-set revalidation of the commit-time clock
    /// advance (Algorithm 7 lines 68–72) when the clock moved past the
    /// start version, so a compare a concurrent commit flipped after the
    /// attempt's last extension still commits.
    Stl2SkipCompareSet,
    /// Adaptive switching: skip the drain barrier of
    /// [`crate::Stm::switch_to`] — the switch publishes the new mode
    /// while old-mode attempts are still in flight, so a new-mode
    /// transaction can commit without the old mode's clock ever noticing
    /// (the cross-engine torn-validation bug the mode word's quiesce
    /// protocol exists to prevent).
    AdaptSkipDrain,
    /// Sharded-clock NOrec: the first read under a shard records its
    /// word but leaves the shard out of the set the attempt has read
    /// under ([`crate::sclock`]), so no later validation looks at it and
    /// a commit under it goes unnoticed.
    ScnorecForgetTouch,
}

impl Fault {
    /// Every fault, in declaration order.
    pub const ALL: [Fault; 5] = [
        Fault::SnorecSkipRevalidation,
        Fault::Tl2SkipReadValidation,
        Fault::Stl2SkipCompareSet,
        Fault::AdaptSkipDrain,
        Fault::ScnorecForgetTouch,
    ];
}

#[cfg(feature = "shuttle")]
pub use active::{clear_hook, fault, install_hook, point, spin, SchedHook};

#[cfg(feature = "shuttle")]
mod active {
    use super::{Fault, PointKind};
    use std::cell::RefCell;
    use std::sync::Arc;

    /// Coordinator interface a deterministic scheduler installs on each
    /// worker thread. Both methods are expected to park the calling
    /// thread until the coordinator schedules it again.
    pub trait SchedHook: Send + Sync {
        /// A numbered schedule point; returning resumes the algorithm.
        fn point(&self, kind: PointKind);
        /// One iteration of a bounded wait loop. The scheduler must run
        /// another thread if any is runnable (the waited-on resource can
        /// only change through another thread), and must not treat
        /// "continue spinning" as a branching choice — spin iterations
        /// are side-effect free, so branching on them would make the
        /// schedule tree infinite.
        fn spin(&self);
        /// Whether the calling thread skips the guard `fault` names. Not
        /// a schedule point: answering must not park the thread.
        fn fault(&self, _fault: Fault) -> bool {
            false
        }
    }

    thread_local! {
        static HOOK: RefCell<Option<Arc<dyn SchedHook>>> = const { RefCell::new(None) };
    }

    /// Install `hook` for the current OS thread (replacing any previous
    /// one). The `semtm-check` worker wrapper calls this before running
    /// a transaction body under the coordinator.
    pub fn install_hook(hook: Arc<dyn SchedHook>) {
        HOOK.with(|h| *h.borrow_mut() = Some(hook));
    }

    /// Remove the current thread's hook (no-op when none is installed).
    pub fn clear_hook() {
        HOOK.with(|h| *h.borrow_mut() = None);
    }

    /// The calling thread's hook. Cloned out of the RefCell so the borrow
    /// is not held across the (potentially long) park inside the hook;
    /// `None` once the slot is destroyed — a transaction run from another
    /// thread-local's destructor at thread exit runs unscheduled.
    #[inline]
    fn hook() -> Option<Arc<dyn SchedHook>> {
        HOOK.try_with(|h| h.borrow().clone()).ok().flatten()
    }

    /// A schedule point: yields to the coordinator when a hook is
    /// installed, otherwise free.
    #[inline]
    pub fn point(kind: PointKind) {
        if let Some(hook) = hook() {
            hook.point(kind);
        }
    }

    /// A spin-loop iteration: forces a switch to another runnable thread
    /// when a hook is installed, otherwise free.
    #[inline]
    pub fn spin() {
        if let Some(hook) = hook() {
            hook.spin();
        }
    }

    /// Whether the guard `fault` names is skipped: the installed hook's
    /// answer, `false` without a hook.
    #[inline]
    pub fn fault(fault: Fault) -> bool {
        hook().is_some_and(|hook| hook.fault(fault))
    }
}

/// A schedule point (no-op in this build; see the module docs).
#[cfg(not(feature = "shuttle"))]
#[inline(always)]
pub fn point(_kind: PointKind) {}

/// A spin-loop iteration (no-op in this build; see the module docs).
#[cfg(not(feature = "shuttle"))]
#[inline(always)]
pub fn spin() {}

/// Whether a guard is skipped (never in this build; see the module docs).
#[cfg(not(feature = "shuttle"))]
#[inline(always)]
pub fn fault(_fault: Fault) -> bool {
    false
}

#[cfg(all(test, feature = "shuttle"))]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Counts points and spins, and skips the one guard it names.
    struct Counter(AtomicUsize, AtomicUsize);
    impl SchedHook for Counter {
        fn point(&self, _k: PointKind) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
        fn spin(&self) {
            self.1.fetch_add(1, Ordering::SeqCst);
        }
        fn fault(&self, f: Fault) -> bool {
            f == Fault::AdaptSkipDrain
        }
    }

    #[test]
    fn hook_sees_points_only_while_installed() {
        point(PointKind::NorecBegin); // no hook: free
        assert!(Fault::ALL.iter().all(|&f| !fault(f)), "no hook: no fault");
        let c = Arc::new(Counter(AtomicUsize::new(0), AtomicUsize::new(0)));
        install_hook(c.clone());
        point(PointKind::NorecBegin);
        point(PointKind::Tl2Read);
        spin();
        for f in Fault::ALL {
            assert_eq!(fault(f), f == Fault::AdaptSkipDrain, "{f:?}");
        }
        clear_hook();
        point(PointKind::NorecBegin);
        assert!(!fault(Fault::AdaptSkipDrain));
        assert_eq!(c.0.load(Ordering::SeqCst), 2);
        assert_eq!(c.1.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn hook_is_per_thread() {
        let c = Arc::new(Counter(AtomicUsize::new(0), AtomicUsize::new(0)));
        install_hook(c.clone());
        std::thread::scope(|s| {
            // Other thread: no hook, so no point and no fault.
            s.spawn(|| point(PointKind::NorecBegin));
            s.spawn(|| assert!(!fault(Fault::AdaptSkipDrain)));
        });
        assert_eq!(c.0.load(Ordering::SeqCst), 0);
        clear_hook();
    }
}
