//! Abort signalling.
//!
//! Transaction bodies return `Result<T, Abort>`; the runtime's retry loop
//! in [`crate::stm::Stm::atomic`] catches `Err(Abort)` from any barrier,
//! rolls the transaction back, applies contention-manager backoff and
//! re-executes the body. The reason is kept for statistics (the paper's
//! abort-rate plots distinguish nothing finer than "aborted", but the
//! breakdown is useful for the ablation benches).
//!
//! Besides the reason, an `Abort` carries a best-effort [`Conflict`]
//! attribution — *which* heap address (or orec, for the TL2 family)
//! failed, and *whose* commit invalidated it. Attribution is advisory:
//! it feeds the flight recorder's spans (and the hot-address and
//! who-aborted-whom counts read from them), never control flow, which is why `Abort` equality deliberately compares
//! the reason alone.

use crate::heap::Addr;

/// Best-effort attribution of the conflict behind an abort.
///
/// Packed with in-band sentinels (`u32::MAX` for "no address/orec",
/// `0` for "no thread" — thread tokens start at 1) so the error value
/// stays small on the `Result` hot path; use the accessors.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct Conflict {
    addr: u32,
    orec: u32,
    by: u64,
}

impl Conflict {
    /// No attribution recorded.
    pub const NONE: Conflict = Conflict {
        addr: u32::MAX,
        orec: u32::MAX,
        by: 0,
    };

    /// The heap address whose validation (or lock acquisition) failed,
    /// when the algorithm could name one.
    #[inline]
    pub fn addr(&self) -> Option<Addr> {
        if self.addr == u32::MAX {
            None
        } else {
            Some(Addr(self.addr))
        }
    }

    /// The orec index involved (TL2 family only).
    #[inline]
    pub fn orec(&self) -> Option<u32> {
        if self.orec == u32::MAX {
            None
        } else {
            Some(self.orec)
        }
    }

    /// The [thread token](crate::util::thread_token) of the transaction
    /// whose commit caused this abort, where knowable: the lock owner
    /// for TL2 lock conflicts, the most recent committer (a heuristic —
    /// see `GlobalClock`) for value-validation failures.
    #[inline]
    pub fn by(&self) -> Option<u64> {
        if self.by == 0 {
            None
        } else {
            Some(self.by)
        }
    }

    /// Is any attribution present at all?
    #[inline]
    pub fn is_none(&self) -> bool {
        *self == Conflict::NONE
    }
}

impl Default for Conflict {
    fn default() -> Self {
        Conflict::NONE
    }
}

/// Why a transaction attempt must be rolled back and retried.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum AbortReason {
    /// Read-set / compare-set validation failed: a concurrent commit
    /// changed a value (NOrec) or an orec version (TL2) in a way that the
    /// recorded relation no longer holds.
    Validation,
    /// A needed ownership record was locked by a concurrent committer
    /// (TL2 family only).
    Locked,
    /// Waited on a locked orec past the configured patience (the paper's
    /// "timeout mechanism to avoid starvation", §4.2; TL2 family only).
    Timeout,
    /// Commit-time lock acquisition failed (TL2 family only).
    LockAcquire,
    /// The program itself requested a retry via [`Abort::explicit`].
    Explicit,
    /// The write-ahead commit log refused the transaction's record
    /// (I/O failure or an earlier poisoning). Raised *before* any heap
    /// write-back, so the rollback is clean — but the runtime treats it
    /// as fail-stop rather than retrying against a broken log.
    Durability,
}

impl AbortReason {
    /// Every reason in declaration order, so `ALL[r as usize] == r`: the
    /// per-reason counters of [`crate::stats`] are indexed that way.
    pub const ALL: [AbortReason; 6] = [
        AbortReason::Validation,
        AbortReason::Locked,
        AbortReason::Timeout,
        AbortReason::LockAcquire,
        AbortReason::Explicit,
        AbortReason::Durability,
    ];

    /// Stable display name used in stats tables.
    pub fn name(self) -> &'static str {
        match self {
            AbortReason::Validation => "validation",
            AbortReason::Locked => "locked",
            AbortReason::Timeout => "timeout",
            AbortReason::LockAcquire => "lock-acquire",
            AbortReason::Explicit => "explicit",
            AbortReason::Durability => "durability",
        }
    }
}

/// A request to abort the current transaction attempt.
///
/// `Abort` is a value, not a panic: STM barriers return
/// `Result<_, Abort>` and the `?` operator unwinds the body cleanly.
///
/// Equality compares the [`reason`](Abort::reason) only: the
/// [`Conflict`] attribution is forensic metadata that depends on
/// scheduling, so `Abort::validation().at_addr(a) ==
/// Abort::validation()` — tests can assert on the cause without pinning
/// the (non-deterministic) attribution.
#[derive(Clone, Copy, Debug)]
pub struct Abort {
    /// The cause, recorded in statistics.
    pub reason: AbortReason,
    conflict: Conflict,
}

impl PartialEq for Abort {
    fn eq(&self, other: &Abort) -> bool {
        self.reason == other.reason
    }
}

impl Eq for Abort {}

impl Abort {
    /// Abort due to failed (semantic) validation.
    #[inline]
    pub fn validation() -> Abort {
        Abort {
            reason: AbortReason::Validation,
            conflict: Conflict::NONE,
        }
    }

    /// Abort because a concurrent committer holds a needed orec.
    #[inline]
    pub fn locked() -> Abort {
        Abort {
            reason: AbortReason::Locked,
            conflict: Conflict::NONE,
        }
    }

    /// Abort after exhausting the lock-wait patience.
    #[inline]
    pub fn timeout() -> Abort {
        Abort {
            reason: AbortReason::Timeout,
            conflict: Conflict::NONE,
        }
    }

    /// Abort because commit-time write-lock acquisition failed.
    #[inline]
    pub fn lock_acquire() -> Abort {
        Abort {
            reason: AbortReason::LockAcquire,
            conflict: Conflict::NONE,
        }
    }

    /// Programmer-requested retry (e.g. "queue is full, retry later").
    #[inline]
    pub fn explicit() -> Abort {
        Abort {
            reason: AbortReason::Explicit,
            conflict: Conflict::NONE,
        }
    }

    /// Abort because the commit log could not accept the write record
    /// (see [`crate::wal`]). Not retried: [`crate::Stm::atomic`] treats
    /// it as fail-stop.
    #[inline]
    pub fn durability() -> Abort {
        Abort {
            reason: AbortReason::Durability,
            conflict: Conflict::NONE,
        }
    }

    /// Attach the heap address whose validation failed.
    #[inline]
    pub fn at_addr(mut self, addr: Addr) -> Abort {
        self.conflict.addr = addr.0;
        self
    }

    /// Attach the orec index involved (TL2 family).
    #[inline]
    pub fn at_orec(mut self, orec: usize) -> Abort {
        self.conflict.orec = orec.min(u32::MAX as usize - 1) as u32;
        self
    }

    /// Attach the thread token of the conflicting committer.
    #[inline]
    pub fn by(mut self, token: u64) -> Abort {
        self.conflict.by = token;
        self
    }

    /// The recorded conflict attribution.
    #[inline]
    pub fn conflict(&self) -> Conflict {
        self.conflict
    }
}

impl std::fmt::Display for Abort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "transaction aborted ({})", self.reason.name())?;
        if let Some(a) = self.conflict.addr() {
            write!(f, " at addr {}", a.index())?;
        }
        if let Some(by) = self.conflict.by() {
            write!(f, " by thread {by}")?;
        }
        Ok(())
    }
}

impl std::error::Error for Abort {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reasons_have_distinct_names() {
        let mut names: Vec<_> = AbortReason::ALL.iter().map(|r| r.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), AbortReason::ALL.len());
    }

    #[test]
    fn all_is_indexed_by_discriminant() {
        for (i, &r) in AbortReason::ALL.iter().enumerate() {
            assert_eq!(r as usize, i, "{}", r.name());
        }
    }

    #[test]
    fn display_mentions_reason() {
        assert!(Abort::timeout().to_string().contains("timeout"));
    }

    #[test]
    fn equality_ignores_attribution() {
        let plain = Abort::validation();
        let attributed = Abort::validation().at_addr(Addr(7)).at_orec(3).by(9);
        assert_eq!(plain, attributed);
        assert_ne!(attributed, Abort::locked());
        assert_eq!(attributed.conflict().addr(), Some(Addr(7)));
        assert_eq!(attributed.conflict().orec(), Some(3));
        assert_eq!(attributed.conflict().by(), Some(9));
        assert!(plain.conflict().is_none());
    }

    #[test]
    fn conflict_sentinels_read_as_none() {
        let c = Conflict::NONE;
        assert_eq!(c.addr(), None);
        assert_eq!(c.orec(), None);
        assert_eq!(c.by(), None);
        assert!(c.is_none());
        assert_eq!(Conflict::default(), Conflict::NONE);
    }

    #[test]
    fn display_includes_attribution_when_present() {
        let a = Abort::validation().at_addr(Addr(42)).by(5);
        let s = a.to_string();
        assert!(s.contains("validation"), "{s}");
        assert!(s.contains("addr 42"), "{s}");
        assert!(s.contains("thread 5"), "{s}");
    }
}
