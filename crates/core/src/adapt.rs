//! Adaptive engine switching: one runtime, many engines, chosen by load.
//!
//! All four engines' global metadata (NOrec's sequence lock, the sharded
//! commit clock, TL2's version clock + orec table) coexist inside one
//! [`crate::Stm`]; which engine a transaction *runs* is decided per
//! attempt from a single packed **mode word**. That makes engine choice a
//! runtime property — [`crate::Stm::switch_to`] hot-swaps a live runtime
//! between NOrec ↔ sharded-clock NOrec ↔ TL2 (and the semantic variants)
//! without stopping the world longer than one quiesce epoch, and the
//! [`Controller`] closes the loop from the PR-1 telemetry (abort-rate /
//! wasted-work / set-size EWMAs) to that choice.
//!
//! ## The mode word and the quiesce handoff
//!
//! The mode word packs `(mode, draining, epoch)` into one
//! `AtomicU64`. Attempts **enter** the current epoch before running and
//! **exit** when they retire (commit, or abort *after* rollback):
//!
//! ```text
//! enter:  loop {
//!           w := word;            if draining(w) { wait; retry }
//!           slot[tid % 64] += 1;                       // publish presence
//!           if word == w { return w }                  // still that epoch
//!           slot[tid % 64] -= 1; retry                 // raced a switch
//!         }
//! exit:   slot[tid % 64] -= 1
//! ```
//!
//! The slots are 64 cache-line-padded **counters** (not flags): beyond 64
//! threads, slots are shared and the count still sums correctly. A switch
//! CAS-publishes `Draining` (winning switcher takes the word), waits
//! for every slot to reach zero — at which point *no* transaction is
//! in flight: no commit lock is held, no write-back is partial, and every
//! durable commit has been acked (the WAL `wait_durable` happens inside
//! commit, before the attempt exits) — reseeds the engine metadata, and
//! publishes `Running(next, epoch+1)`. The epoch in the packed word makes
//! the enter re-check ABA-safe: even if a full switch cycle lands between
//! an attempt's first load and its re-check, the word differs.
//!
//! **Opacity across the boundary** (DESIGN.md §10): entering attempts
//! never observe `Draining`, and draining completes only when the heap
//! holds exactly the committed state of the old era with no metadata
//! locked. The new era's engine therefore starts from a quiescent,
//! consistent heap — its metadata clocks are bumped (never rewound) by
//! the reseed so no stale snapshot from the old era can validate against
//! new-era state.
//!
//! Every synchronization edge added here is [`crate::sched`]-instrumented
//! (`AdaptEnter` / `AdaptEnterRecheck` / `AdaptAcquire` / `AdaptDrain` /
//! `AdaptReseed` / `AdaptPublish`), so `semtm-check` DFS explores
//! switches interleaved with commits, aborts, and WAL group-commit
//! flushes; the [`crate::fault::ADAPT_SKIP_DRAIN`] injection proves the
//! checker catches a switch that skips the drain barrier.

use crate::config::{Algorithm, StmConfig};
use crate::sched;
use crate::telemetry::RateEwma;
use crate::util::SpinWait;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// One engine the runtime can be switched to: an [`Algorithm`] plus
/// whether the NOrec family runs on the sharded commit clock.
///
/// `sharded` is only meaningful for the NOrec family (TL2's version
/// clock has no sharded variant — see [`crate::sclock`]) and only
/// available when the runtime was built with
/// [`StmConfig::clock_shards`] > 1 (the shard vector is sized at
/// construction).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Mode {
    /// The algorithm this mode runs.
    pub algorithm: Algorithm,
    /// NOrec family only: run on the sharded commit clock.
    pub sharded: bool,
}

impl Mode {
    /// A global-clock (unsharded) mode for `algorithm`.
    pub fn new(algorithm: Algorithm) -> Mode {
        Mode {
            algorithm,
            sharded: false,
        }
    }

    /// The sharded-clock mode for a NOrec-family `algorithm`.
    pub fn sharded(algorithm: Algorithm) -> Mode {
        Mode {
            algorithm,
            sharded: true,
        }
    }

    /// The mode a runtime starts in, per its construction config: the
    /// configured algorithm, sharded when the NOrec family has
    /// `clock_shards > 1` (the pre-adaptive dispatch rule, unchanged).
    pub fn initial(config: &StmConfig) -> Mode {
        Mode {
            algorithm: config.algorithm,
            sharded: config.algorithm.baseline() == Algorithm::NOrec && config.clock_shards > 1,
        }
    }

    /// Whether this mode can run on a runtime built with `config`
    /// (sharded modes need a multi-shard clock and the NOrec family).
    pub fn available_under(self, config: &StmConfig) -> bool {
        !self.sharded || (self.algorithm.baseline() == Algorithm::NOrec && config.clock_shards > 1)
    }

    /// Figure-legend style label: `NOrec`, `S-NOrec/sharded`, …
    pub fn label(self) -> String {
        if self.sharded {
            format!("{}/sharded", self.algorithm.name())
        } else {
            self.algorithm.name().to_string()
        }
    }

    fn idx(self) -> u64 {
        let a = match self.algorithm {
            Algorithm::NOrec => 0,
            Algorithm::SNOrec => 1,
            Algorithm::Tl2 => 2,
            Algorithm::STl2 => 3,
        };
        a | if self.sharded { 4 } else { 0 }
    }

    fn from_idx(v: u64) -> Mode {
        let algorithm = match v & 3 {
            0 => Algorithm::NOrec,
            1 => Algorithm::SNOrec,
            2 => Algorithm::Tl2,
            _ => Algorithm::STl2,
        };
        Mode {
            algorithm,
            sharded: v & 4 != 0,
        }
    }
}

impl std::fmt::Display for Mode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

// Packed mode-word layout (u64):
//   bits 0..3   current mode (algorithm 2 bits + sharded bit)
//   bit  3      draining flag
//   bits 4..64  epoch (bumped once per completed switch)
const DRAINING: u64 = 1 << 3;
const EPOCH_SHIFT: u32 = 4;

fn pack_running(mode: Mode, epoch: u64) -> u64 {
    mode.idx() | (epoch << EPOCH_SHIFT)
}

fn pack_draining(cur: Mode, epoch: u64) -> u64 {
    pack_running(cur, epoch) | DRAINING
}

fn unpack_mode(word: u64) -> Mode {
    Mode::from_idx(word & 7)
}

/// The mode of a packed word returned by [`ModeMachine::enter`].
pub(crate) fn word_mode(word: u64) -> Mode {
    unpack_mode(word)
}

fn is_draining(word: u64) -> bool {
    word & DRAINING != 0
}

fn unpack_epoch(word: u64) -> u64 {
    word >> EPOCH_SHIFT
}

/// Number of epoch slots (matches the telemetry shard count; threads map
/// by `thread_token() % SLOTS` and may share slots — the counters sum
/// correctly regardless).
const SLOTS: usize = 64;

/// One padded epoch-slot counter (own line pair, like the stat shards).
#[repr(align(128))]
#[derive(Default)]
struct Slot {
    active: AtomicU64,
}

/// The epoch slot of the thread whose token is `token`. A transaction
/// computes it once; `enter` and `exit` must be handed the same one.
#[inline]
pub(crate) fn slot_of(token: u64) -> usize {
    (token as usize) & (SLOTS - 1)
}

/// Why a [`crate::Stm::switch_to`] request was refused.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SwitchError {
    /// The target mode needs the sharded clock but the runtime was built
    /// with `clock_shards = 1`, or a sharded TL2 was requested (the TL2
    /// family has no sharded variant).
    Unavailable(Mode),
}

impl std::fmt::Display for SwitchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwitchError::Unavailable(m) => {
                write!(f, "mode {m} is not available on this runtime")
            }
        }
    }
}

impl std::error::Error for SwitchError {}

/// What a completed (or no-op) switch did — drain cost and latency, for
/// the A7 ablation's switch-latency quantification.
#[derive(Clone, Copy, Debug)]
pub struct SwitchReport {
    /// Mode before the switch.
    pub from: Mode,
    /// Mode after the switch (`== from` for a no-op request).
    pub to: Mode,
    /// Epoch published with the new mode.
    pub epoch: u64,
    /// Spin rounds the drain barrier waited for in-flight attempts.
    pub drain_rounds: u64,
    /// Wall-clock time from acquiring the switch to publishing the new
    /// mode (the window in which starting attempts wait).
    pub elapsed: Duration,
}

impl SwitchReport {
    /// Whether the switch actually changed the running mode.
    pub fn changed(&self) -> bool {
        self.from != self.to
    }
}

/// The mode word + epoch slots: the switch protocol's shared state.
/// Owned by [`crate::Stm`]; not constructible elsewhere.
pub(crate) struct ModeMachine {
    word: AtomicU64,
    slots: Box<[Slot]>,
    switches: AtomicU64,
}

impl ModeMachine {
    pub(crate) fn new(initial: Mode) -> ModeMachine {
        let mut slots = Vec::with_capacity(SLOTS);
        slots.resize_with(SLOTS, Slot::default);
        ModeMachine {
            word: AtomicU64::new(pack_running(initial, 0)),
            slots: slots.into_boxed_slice(),
            switches: AtomicU64::new(0),
        }
    }

    /// The currently published mode (draining reports the *old* mode —
    /// it is still the one in-flight attempts run).
    pub(crate) fn mode(&self) -> Mode {
        unpack_mode(self.word.load(Ordering::SeqCst))
    }

    /// Completed switches so far.
    pub(crate) fn switch_count(&self) -> u64 {
        self.switches.load(Ordering::SeqCst)
    }

    /// Enter the current epoch: publish this thread's presence in its
    /// `slot` and return the packed word the attempt runs under. Waits
    /// out any in-flight drain (bounded by one quiesce epoch).
    pub(crate) fn enter(&self, slot: usize) -> u64 {
        let mut wait = SpinWait::new();
        loop {
            sched::point(sched::PointKind::AdaptEnter);
            let w = self.word.load(Ordering::SeqCst);
            if is_draining(w) {
                sched::spin();
                wait.spin();
                continue;
            }
            let slot = &self.slots[slot].active;
            slot.fetch_add(1, Ordering::SeqCst);
            sched::point(sched::PointKind::AdaptEnterRecheck);
            // Re-check *the full word*: a switch published `Draining`
            // (or even completed, bumping the epoch) between the load
            // and the slot increment. The epoch bits make a complete
            // switch cycle distinguishable from "nothing happened".
            if self.word.load(Ordering::SeqCst) == w {
                return w;
            }
            slot.fetch_sub(1, Ordering::SeqCst);
            sched::spin();
            wait.spin();
        }
    }

    /// Retire the attempt entered by the matching [`ModeMachine::enter`]
    /// on the same `slot`.
    pub(crate) fn exit(&self, slot: usize) {
        self.slots[slot].active.fetch_sub(1, Ordering::SeqCst);
    }

    fn active_total(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| s.active.load(Ordering::SeqCst))
            .sum()
    }

    /// The switch protocol: acquire the word (`Running → Draining`),
    /// wait for in-flight attempts to retire, run `reseed` on the
    /// quiescent runtime, publish `Running(target, epoch+1)`.
    ///
    /// Must not be called from inside a transaction body on the same
    /// runtime — the drain would wait for the caller's own attempt.
    pub(crate) fn switch(&self, target: Mode, reseed: impl FnOnce()) -> SwitchReport {
        let started = Instant::now();
        let mut wait = SpinWait::new();
        // Acquire: CAS Running(cur, e) → Draining(cur, e).
        // A concurrent switcher that wins makes us wait for its epoch
        // to complete, then retry against the new mode.
        let (from, epoch) = loop {
            sched::point(sched::PointKind::AdaptAcquire);
            let w = self.word.load(Ordering::SeqCst);
            if is_draining(w) {
                sched::spin();
                wait.spin();
                continue;
            }
            let from = unpack_mode(w);
            let epoch = unpack_epoch(w);
            if from == target {
                return SwitchReport {
                    from,
                    to: target,
                    epoch,
                    drain_rounds: 0,
                    elapsed: started.elapsed(),
                };
            }
            let draining = pack_draining(from, epoch);
            if self
                .word
                .compare_exchange(w, draining, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                break (from, epoch);
            }
            sched::spin();
        };
        // Drain: every slot at zero ⇒ no attempt is in flight ⇒ no
        // commit lock held, no partial write-back, all durable commits
        // acked. New attempts see `Draining` and wait, so the count
        // cannot rise again. ADAPT_SKIP_DRAIN reintroduces the obvious
        // bug for the checker regression.
        let mut drain_rounds = 0u64;
        if !crate::fault::active(crate::fault::ADAPT_SKIP_DRAIN) {
            sched::point(sched::PointKind::AdaptDrain);
            while self.active_total() != 0 {
                drain_rounds += 1;
                sched::spin();
                wait.spin();
            }
        }
        sched::point(sched::PointKind::AdaptReseed);
        reseed();
        sched::point(sched::PointKind::AdaptPublish);
        self.word
            .store(pack_running(target, epoch + 1), Ordering::SeqCst);
        self.switches.fetch_add(1, Ordering::SeqCst);
        SwitchReport {
            from,
            to: target,
            epoch: epoch + 1,
            drain_rounds,
            elapsed: started.elapsed(),
        }
    }
}

/// Tuning knobs of the adaptive [`Controller`] — sampling, hysteresis,
/// and the cost-model weights (see [`Controller::cost`] and DESIGN.md
/// §10 for the model).
#[derive(Clone, Copy, Debug)]
pub struct AdaptPolicy {
    /// EWMA smoothing factor handed to [`crate::telemetry::Telemetry::rates`]
    /// (weight of the newest window; `1.0` = no smoothing).
    pub sample_alpha: f64,
    /// Ignore windows with fewer commits than this (no signal).
    pub min_commits: u64,
    /// Hysteresis: ticks to dwell in a freshly chosen mode before
    /// another switch may be considered.
    pub dwell_ticks: u32,
    /// Hysteresis: the best candidate's modeled cost must undercut the
    /// current mode's by this relative margin to justify a switch.
    pub margin: f64,
    /// Cost weight of one read-set entry revalidated when the commit
    /// clock moves (NOrec-family validation term).
    pub revalidation_weight: f64,
    /// Cost weight of acquiring one extra clock shard at commit
    /// (the sharded clock's write-side tax — what A5's Bank row shows).
    pub shard_commit_weight: f64,
    /// Cost weight of the two orec loads bracketing every TL2 read.
    pub tl2_read_weight: f64,
    /// Cost weight of locking one orec at TL2 commit.
    pub tl2_write_weight: f64,
    /// Cost weight of TL2's restart exposure under contention: a TL2
    /// conflict discards the whole attempt (`r` reads of wasted work),
    /// where the NOrec family's value-based revalidation and snapshot
    /// extension usually salvage the attempt in place.
    pub tl2_contention_weight: f64,
}

impl Default for AdaptPolicy {
    fn default() -> AdaptPolicy {
        AdaptPolicy {
            sample_alpha: 0.5,
            min_commits: 64,
            dwell_ticks: 3,
            margin: 0.25,
            revalidation_weight: 1.0,
            shard_commit_weight: 2.0,
            tl2_read_weight: 0.01,
            tl2_write_weight: 0.5,
            tl2_contention_weight: 0.5,
        }
    }
}

/// The telemetry-driven mode controller: consumes smoothed rate windows
/// ([`RateEwma`], Counters tier only — never a Spans-gated path), scores
/// the available modes with a cost model, and proposes switches with
/// hysteresis. Pull-based: the embedding harness calls
/// [`crate::Stm::adapt_tick`] at its own cadence (no hidden thread).
#[derive(Clone, Debug)]
pub struct Controller {
    policy: AdaptPolicy,
    dwell: u32,
}

impl Controller {
    /// A controller following `policy`.
    pub fn new(policy: AdaptPolicy) -> Controller {
        Controller { policy, dwell: 0 }
    }

    /// The policy this controller follows.
    pub fn policy(&self) -> &AdaptPolicy {
        &self.policy
    }

    /// The per-commit overhead the cost model predicts for `mode` under
    /// the observed window. Dimensionless — only relative order matters.
    ///
    /// The model (DESIGN.md §10): with `r` the average read-set size,
    /// `w` the average write-set size, `p_w = min(1, w)` the likelihood
    /// a commit moves the clock, and `c` an abort-ratio-derived
    /// contention multiplier,
    ///
    /// * global NOrec family: `1 + r·p_w·(¼ + c)·REVAL` — every clock
    ///   move revalidates the whole read-set;
    /// * sharded NOrec family: the same revalidation term scaled by the
    ///   fraction of shards a typical commit moves (`min(1, w/shards)`),
    ///   plus `w·SHARD` for the multi-shard commit acquisition;
    /// * TL2 family: `1.5 + r·TL2R + w·TL2W + r·c·TL2C` — per-read orec
    ///   loads and per-write orec locks (both cheap and
    ///   contention-independent), plus a restart-exposure term: a TL2
    ///   conflict throws away the whole `r`-read attempt, where the
    ///   NOrec family's value revalidation / snapshot extension usually
    ///   saves it. TL2 therefore wins exactly the big-read-set,
    ///   low-abort regime (A7's scan phase) and loses it back as aborts
    ///   appear (the hot hashtable).
    pub fn cost(&self, mode: Mode, rates: &RateEwma, clock_shards: usize) -> f64 {
        let p = &self.policy;
        let r = rates.avg_read_set;
        let w = rates.avg_write_set;
        let p_w = w.min(1.0);
        let contention = (rates.abort_ratio * 8.0).min(4.0);
        let reval = r * p_w * (0.25 + contention) * p.revalidation_weight;
        match (mode.algorithm.baseline(), mode.sharded) {
            (Algorithm::NOrec, false) => 1.0 + reval,
            (Algorithm::NOrec, true) => {
                let moved = (w / clock_shards.max(1) as f64).min(1.0);
                1.0 + w * p.shard_commit_weight + reval * moved
            }
            (Algorithm::Tl2, _) => {
                1.5 + r * p.tl2_read_weight
                    + w * p.tl2_write_weight
                    + r * contention * p.tl2_contention_weight
            }
            _ => unreachable!("baseline() returns a baseline"),
        }
    }

    /// Consider the smoothed window and propose a mode, or `None` to
    /// stay. `clock_shards` is the runtime's shard count (1 = sharded
    /// modes unavailable). The proposal always preserves the current
    /// mode's semanticity: whether `cmp`/`inc` are handled semantically
    /// is an API-level property of the workload (under a baseline mode
    /// the semantic ops delegate to reads/writes and the semantic-usage
    /// signal is invisible), so adaptation only moves between engine
    /// families and clock layouts.
    pub fn decide(&mut self, current: Mode, rates: &RateEwma, clock_shards: usize) -> Option<Mode> {
        if self.dwell > 0 {
            self.dwell -= 1;
            return None;
        }
        if rates.window_commits < self.policy.min_commits {
            return None;
        }
        let semantic = current.algorithm.is_semantic();
        let norec = if semantic {
            Algorithm::SNOrec
        } else {
            Algorithm::NOrec
        };
        let tl2 = if semantic {
            Algorithm::STl2
        } else {
            Algorithm::Tl2
        };
        let mut candidates = vec![Mode::new(norec), Mode::new(tl2)];
        if clock_shards > 1 {
            candidates.push(Mode::sharded(norec));
        }
        let current_cost = self.cost(current, rates, clock_shards);
        let best = candidates
            .into_iter()
            .map(|m| (m, self.cost(m, rates, clock_shards)))
            .min_by(|a, b| a.1.total_cmp(&b.1))?;
        if best.0 != current && best.1 < current_cost * (1.0 - self.policy.margin) {
            Some(best.0)
        } else {
            None
        }
    }

    /// Note that a proposed switch was performed (starts the dwell).
    pub fn note_switched(&mut self) {
        self.dwell = self.policy.dwell_ticks;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_modes() -> Vec<Mode> {
        let mut v: Vec<Mode> = Algorithm::ALL.into_iter().map(Mode::new).collect();
        v.extend(
            [Algorithm::NOrec, Algorithm::SNOrec]
                .into_iter()
                .map(Mode::sharded),
        );
        v
    }

    #[test]
    fn mode_word_packs_and_unpacks() {
        for mode in all_modes() {
            for epoch in [0u64, 1, 7, 1 << 40] {
                let w = pack_running(mode, epoch);
                assert!(!is_draining(w));
                assert_eq!(unpack_mode(w), mode);
                assert_eq!(unpack_epoch(w), epoch);
                let d = pack_draining(mode, epoch);
                assert!(is_draining(d));
                assert_eq!(unpack_mode(d), mode, "draining keeps the old mode");
                assert_eq!(unpack_epoch(d), epoch);
            }
        }
    }

    #[test]
    fn initial_mode_follows_the_dispatch_rule() {
        let cfg = StmConfig::new(Algorithm::SNOrec).clock_shards(4);
        assert_eq!(Mode::initial(&cfg), Mode::sharded(Algorithm::SNOrec));
        let cfg = StmConfig::new(Algorithm::SNOrec);
        assert_eq!(Mode::initial(&cfg), Mode::new(Algorithm::SNOrec));
        let cfg = StmConfig::new(Algorithm::STl2).clock_shards(4);
        assert_eq!(Mode::initial(&cfg), Mode::new(Algorithm::STl2));
    }

    #[test]
    fn availability_gates_sharded_modes() {
        let single = StmConfig::new(Algorithm::NOrec);
        let multi = StmConfig::new(Algorithm::NOrec).clock_shards(8);
        assert!(Mode::new(Algorithm::Tl2).available_under(&single));
        assert!(!Mode::sharded(Algorithm::SNOrec).available_under(&single));
        assert!(Mode::sharded(Algorithm::SNOrec).available_under(&multi));
        assert!(!Mode::sharded(Algorithm::STl2).available_under(&multi));
    }

    #[test]
    fn machine_switch_drains_and_bumps_epoch() {
        let m = ModeMachine::new(Mode::new(Algorithm::SNOrec));
        let w = m.enter(5);
        assert_eq!(unpack_mode(w), Mode::new(Algorithm::SNOrec));
        m.exit(5);
        let mut reseeded = false;
        let r = m.switch(Mode::new(Algorithm::STl2), || reseeded = true);
        assert!(reseeded);
        assert!(r.changed());
        assert_eq!(r.epoch, 1);
        assert_eq!(m.mode(), Mode::new(Algorithm::STl2));
        assert_eq!(m.switch_count(), 1);
        // No-op switch: no drain, no epoch bump, no reseed.
        let r2 = m.switch(Mode::new(Algorithm::STl2), || panic!("no reseed"));
        assert!(!r2.changed());
        assert_eq!(m.switch_count(), 1);
    }

    #[test]
    fn machine_drain_waits_for_inflight_attempts() {
        use std::sync::Arc;
        let m = Arc::new(ModeMachine::new(Mode::new(Algorithm::NOrec)));
        let slot = slot_of(crate::util::thread_token());
        let entered = m.enter(slot);
        let m2 = m.clone();
        let switcher = std::thread::spawn(move || m2.switch(Mode::new(Algorithm::Tl2), || ()));
        // The switcher cannot finish while we are in flight. Give it a
        // moment to reach the drain loop, then retire; it must complete.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(unpack_mode(entered).algorithm, Algorithm::NOrec);
        m.exit(slot);
        let report = switcher.join().unwrap();
        assert!(report.changed());
        assert_eq!(m.mode(), Mode::new(Algorithm::Tl2));
        // Post-switch attempts run the new mode.
        let w = m.enter(slot);
        assert_eq!(unpack_mode(w), Mode::new(Algorithm::Tl2));
        m.exit(slot);
    }

    fn window(r: f64, w: f64, abort_ratio: f64, commits: u64) -> RateEwma {
        RateEwma {
            commit_rate: 1000.0,
            abort_ratio,
            avg_read_set: r,
            avg_write_set: w,
            wasted_ratio: abort_ratio,
            semantic_share: 0.0,
            window_commits: commits,
            window_secs: 0.1,
        }
    }

    #[test]
    fn controller_maps_the_three_phase_profiles() {
        // The A7 phase profiles (EXPERIMENTS.md): write-wide Bank wants
        // the global clock, the contended hashtable wants cheap partial
        // revalidation, the scan phase's huge read-sets want per-shard
        // (or per-orec) validation rather than whole-set revalidation.
        let mut c = Controller::new(AdaptPolicy {
            dwell_ticks: 0,
            ..AdaptPolicy::default()
        });
        let shards = 16;
        let bank = window(12.0, 20.0, 0.05, 10_000);
        let hot = window(30.0, 4.0, 0.35, 10_000);
        let scan = window(120.0, 0.2, 0.02, 10_000);
        let global = Mode::new(Algorithm::SNOrec);
        let sharded = Mode::sharded(Algorithm::SNOrec);
        let stl2 = Mode::new(Algorithm::STl2);
        // Bank: global NOrec-family is the cheapest of the three.
        let cost_g = c.cost(global, &bank, shards);
        assert!(cost_g < c.cost(sharded, &bank, shards));
        assert!(cost_g < c.cost(stl2, &bank, shards));
        // Contended hashtable: whole-set revalidation is the worst.
        assert!(c.cost(global, &hot, shards) > c.cost(sharded, &hot, shards));
        // Scan: global revalidation of 120-entry read-sets loses badly.
        assert!(c.cost(global, &scan, shards) > c.cost(sharded, &scan, shards));
        // The measured A7 scan profile (64-read windows, every commit
        // writes a summary word, no aborts): per-orec validation beats
        // even the sharded clock — revalidation-free reads win once the
        // clock is busy and nothing ever aborts.
        let busy_scan = window(64.0, 1.15, 0.0, 10_000);
        assert!(c.cost(stl2, &busy_scan, shards) < c.cost(sharded, &busy_scan, shards));
        assert!(c.cost(stl2, &busy_scan, shards) < c.cost(global, &busy_scan, shards));
        // decide() proposes to leave global mode on the hot profile …
        let proposal = c.decide(global, &hot, shards);
        assert!(proposal.is_some());
        // … preserving semanticity.
        assert!(proposal.unwrap().algorithm.is_semantic());
    }

    #[test]
    fn controller_hysteresis_dwell_and_margin() {
        let mut c = Controller::new(AdaptPolicy {
            dwell_ticks: 2,
            ..AdaptPolicy::default()
        });
        let hot = window(30.0, 4.0, 0.35, 10_000);
        let global = Mode::new(Algorithm::SNOrec);
        // Under-sampled window: no decision.
        assert_eq!(c.decide(global, &window(30.0, 4.0, 0.35, 3), 16), None);
        let target = c.decide(global, &hot, 16).expect("clear win");
        c.note_switched();
        // Dwell: the next two ticks stay put even with the same signal.
        assert_eq!(c.decide(target, &hot, 16), None);
        assert_eq!(c.decide(target, &hot, 16), None);
        // After the dwell, the chosen mode is already the best: stay.
        assert_eq!(c.decide(target, &hot, 16), None);
    }
}
