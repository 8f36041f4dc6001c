//! Runtime-gated fault injection for checker regression tests.
//!
//! The `semtm-check` harness proves it can *catch* bugs by deliberately
//! reintroducing known ones: each constant below names a specific
//! validation step an algorithm may (incorrectly) skip. Without the
//! `fault-injection` feature [`active`] is a const `false` and the gates
//! compile away; with it, a test process arms a bit via [`arm`] and the
//! corresponding `#[should_panic]` test asserts the history checker
//! flags the resulting non-serializable execution.
//!
//! Faults are process-global, so each `#[should_panic]` regression test
//! lives in its own integration-test file (own process).

/// S-NOrec: skip the per-entry semantic revalidation of the read/compare
/// set during [`validate`](crate::norec), committing on a stale snapshot.
pub const SNOREC_SKIP_REVALIDATION: u32 = 1 << 0;

/// TL2/S-TL2: skip commit-time read-set validation when the commit
/// timestamp moved past the start version, publishing writes that were
/// derived from since-overwritten reads.
pub const TL2_SKIP_READ_VALIDATION: u32 = 1 << 1;

/// WAL: the storage backend fails appends with an I/O error, exercising
/// the clean pre-write-back abort path (see [`crate::wal`]).
pub const WAL_APPEND_IO_ERROR: u32 = 1 << 2;

/// WAL: the storage backend fails fsyncs with an I/O error, exercising
/// the fail-stop path in [`crate::wal::CommitLog::wait_durable`].
pub const WAL_FSYNC_IO_ERROR: u32 = 1 << 3;

/// Adaptive switching: skip the drain barrier of
/// [`crate::Stm::switch_to`] — the switch publishes the new mode while
/// old-mode attempts are still in flight, so a new-mode transaction can
/// commit without the old mode's clock ever noticing (the cross-engine
/// torn-validation bug the mode word's quiesce protocol exists to
/// prevent).
pub const ADAPT_SKIP_DRAIN: u32 = 1 << 4;

/// Sharded-clock NOrec: the first read under a shard records its word
/// but leaves the shard out of the set the attempt has read under
/// ([`crate::sclock`]), so no later validation looks at it and a commit
/// under it goes unnoticed.
pub const SCNOREC_FORGET_TOUCH: u32 = 1 << 5;

#[cfg(feature = "fault-injection")]
mod armed {
    use std::sync::atomic::{AtomicU32, Ordering};

    static FAULTS: AtomicU32 = AtomicU32::new(0);

    /// Arm exactly the faults in `mask` (replacing any previous mask).
    pub fn arm(mask: u32) {
        FAULTS.store(mask, Ordering::SeqCst);
    }

    /// Whether the fault `bit` is currently armed.
    #[inline]
    pub fn active(bit: u32) -> bool {
        FAULTS.load(Ordering::Relaxed) & bit != 0
    }
}

#[cfg(feature = "fault-injection")]
pub use armed::{active, arm};

/// Whether the fault `bit` is armed — always `false` in this build.
#[cfg(not(feature = "fault-injection"))]
#[inline(always)]
pub fn active(_bit: u32) -> bool {
    false
}

#[cfg(all(test, feature = "fault-injection"))]
mod tests {
    use super::*;

    #[test]
    fn arm_sets_exactly_the_mask() {
        assert!(!active(SNOREC_SKIP_REVALIDATION));
        arm(SNOREC_SKIP_REVALIDATION);
        assert!(active(SNOREC_SKIP_REVALIDATION));
        assert!(!active(TL2_SKIP_READ_VALIDATION));
        arm(0);
        assert!(!active(SNOREC_SKIP_REVALIDATION));
    }
}
