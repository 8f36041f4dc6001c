//! Kill-at-any-schedule-point crash-recovery sweeps.
//!
//! The deterministic scheduler already parks every virtual thread at
//! every synchronization edge of the STM algorithms — and a schedule
//! point *is* a crash point: killing the process there would preserve
//! exactly the log storage state (bytes written to the OS, bytes
//! durable past fsync) at that instant. Because the simulated log
//! storage is append-only, the byte stream at any point during the run
//! is a **prefix** of the final stream, so one execution yields the
//! crash images of *all* of its kill points: a [`Driver`] wrapper
//! samples the `(written, durable, acked)` watermarks at every
//! scheduling decision (when every vthread is parked, i.e. at a
//! consistent cut of the virtual schedule), and after the run each
//! distinct sampled state is recovered and checked.
//!
//! Two properties are checked for every kill point, under multiple
//! tail policies (durable-only = power loss; full-written = process
//! kill; random torn cut in between):
//!
//! * **Prefix durability** — every commit *acked* by that point (its
//!   [`wait_durable`](semtm_core::CommitLog::wait_durable) returned)
//!   is reconstructed by recovery;
//! * **Atomicity / consistency** — replaying the recovered prefix into
//!   a fresh heap yields a state satisfying the kernel's invariant
//!   (Bank conservation + non-negativity; slot-census equality for the
//!   hashtable-style kernel), i.e. no partially applied transaction and
//!   no causally inconsistent cut is ever visible after recovery.
//!
//! The flusher runs as a **scheduled virtual thread** (the log is in
//! [`DurabilityMode::Manual`]), so batch formation, the append, and the
//! fsync all interleave with committers under the explored schedule —
//! the group-commit protocol itself is inside the sweep, not mocked.

use crate::schedule::{Decision, Driver, RandomDriver};
use crate::vthread::{run_threads, Body, STEP_CAP};
use semtm_core::util::SplitMix64;
use semtm_core::wal::{read_records, replay, DurabilityMode, SimHandle, SimStorage};
use semtm_core::{Addr, Algorithm, CommitLog, Stm, StmConfig};
use semtm_workloads::bank::{Bank, BankConfig};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Probability (%) that the random driver preempts a runnable thread.
const SWITCH_PCT: u32 = 40;

/// Which workload kernel the crash scenario runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CrashKernel {
    /// Guarded transfers over a small account array; recovery invariant:
    /// money conservation and non-negative balances.
    Bank,
    /// Open-addressing-style slot flips with a size counter (the
    /// hashtable atomicity skeleton); recovery invariant: the counter
    /// equals the number of occupied slots — a single torn transaction
    /// breaks it immediately.
    Slots,
}

impl CrashKernel {
    /// Display name for reports.
    pub fn name(self) -> &'static str {
        match self {
            CrashKernel::Bank => "bank",
            CrashKernel::Slots => "slots",
        }
    }
}

/// One crash sweep's shape: engine, kernel, and exploration budget.
#[derive(Clone, Debug)]
pub struct CrashConfig {
    /// The STM algorithm under test.
    pub algorithm: Algorithm,
    /// Commit-clock shards (`> 1` selects the sharded clock for the
    /// NOrec family).
    pub clock_shards: usize,
    /// The workload kernel.
    pub kernel: CrashKernel,
    /// Concurrent committer vthreads (the flusher vthread is extra).
    pub workers: usize,
    /// Workload transactions per worker per execution.
    pub ops_per_worker: usize,
    /// Number of random-schedule executions (each contributes every one
    /// of its kill points).
    pub executions: usize,
    /// Base seed for the schedule walks.
    pub base_seed: u64,
}

impl CrashConfig {
    /// A small default sweep for `algorithm` over `kernel`.
    pub fn new(algorithm: Algorithm, kernel: CrashKernel) -> CrashConfig {
        CrashConfig {
            algorithm,
            clock_shards: 1,
            kernel,
            workers: 2,
            ops_per_worker: 3,
            executions: 6,
            base_seed: 0x00DD_BA11,
        }
    }

    fn stm_config(&self) -> StmConfig {
        let sharded = self.clock_shards > 1;
        StmConfig::new(self.algorithm)
            .heap_words(1 << 11)
            .orec_count(16)
            .clock_shards(self.clock_shards)
            .padded_alloc(sharded)
            .durability(DurabilityMode::Manual)
            .lock_wait_spins(8)
    }
}

/// Aggregated result of one crash sweep (all executions, all kill
/// points). The sweep itself never panics on a property violation — it
/// counts them, so tests can assert `lost_acked == 0 && inconsistent
/// == 0` and print the whole report on failure.
#[derive(Clone, Copy, Debug, Default)]
pub struct CrashReport {
    /// Schedule executions run.
    pub executions: usize,
    /// Distinct kill-point storage states recovered.
    pub kill_points: usize,
    /// Total recovery checks (kill points × tail policies).
    pub recoveries: usize,
    /// Commits acked across all executions.
    pub acked_commits: usize,
    /// Records present in the final logs across all executions.
    pub logged_commits: usize,
    /// Property violations: an acked commit missing after recovery.
    pub lost_acked: usize,
    /// Property violations: recovered state failed the kernel invariant
    /// (partial transaction or causally inconsistent prefix).
    pub inconsistent: usize,
}

/// The hashtable-style slot kernel: `slots` occupancy words plus a
/// `size` counter that must always census-match them.
struct Slots {
    base: Addr,
    size: Addr,
    count: usize,
}

impl Slots {
    const SLOTS: usize = 8;

    fn new(stm: &Stm) -> Slots {
        let base = stm.alloc_array(Slots::SLOTS, 0i64);
        let size = stm.alloc_cell(0i64);
        Slots {
            base,
            size,
            count: Slots::SLOTS,
        }
    }

    /// Flip one slot and adjust the counter — both or neither must
    /// survive recovery.
    fn flip_tx(&self, stm: &Stm, rng: &mut SplitMix64) {
        let i = rng.index(self.count);
        let slot = self.base.offset(i);
        stm.atomic(|tx| {
            if tx.eq(slot, 0)? {
                tx.write(slot, 1)?;
                tx.inc(self.size, 1)?;
            } else {
                tx.write(slot, 0)?;
                tx.dec(self.size, 1)?;
            }
            Ok(())
        });
    }

    fn verify(&self, stm: &Stm) -> Result<(), String> {
        let mut occupied = 0i64;
        for i in 0..self.count {
            let v = stm.read_now(self.base.offset(i));
            if v != 0 && v != 1 {
                return Err(format!("slot {i} holds {v}, expected 0/1"));
            }
            occupied += v;
        }
        let size = stm.read_now(self.size);
        if size != occupied {
            return Err(format!("size counter {size} != occupied slots {occupied}"));
        }
        Ok(())
    }
}

/// The workload behind one scenario, bound to a specific [`Stm`].
enum Kernel {
    Bank(Bank),
    Slots(Slots),
}

impl Kernel {
    fn bank_config(sharded: bool) -> BankConfig {
        BankConfig {
            accounts: 8,
            initial_balance: 50,
            transfers_per_tx: 2,
            max_amount: 20,
            audit_per_mille: 100,
            skew_accounts: 0,
            padded: sharded,
        }
    }

    /// Build the kernel on `stm`. Allocation order is deterministic, so
    /// building it again on a fresh `Stm` with the same config yields
    /// identical addresses — which is what lets recovery replay a log
    /// into a freshly re-set-up heap.
    fn setup(cfg: &CrashConfig, stm: &Stm) -> Kernel {
        match cfg.kernel {
            CrashKernel::Bank => {
                Kernel::Bank(Bank::new(stm, Kernel::bank_config(cfg.clock_shards > 1)))
            }
            CrashKernel::Slots => Kernel::Slots(Slots::new(stm)),
        }
    }

    fn run_one(&self, stm: &Stm, rng: &mut SplitMix64) {
        match self {
            Kernel::Bank(b) => {
                b.transfer_tx(stm, rng);
            }
            Kernel::Slots(s) => s.flip_tx(stm, rng),
        }
    }

    fn verify(&self, stm: &Stm) -> Result<(), String> {
        match self {
            Kernel::Bank(b) => b.verify(stm),
            Kernel::Slots(s) => s.verify(stm),
        }
    }
}

/// One sampled kill point: `(written bytes, durable bytes, acked
/// commits)` at a scheduling decision.
type KillPoint = (usize, usize, usize);

/// One execution's yield: sampled kill points, the final acked
/// sequence list, and the final log bytes.
type ExecutionTrace = (Vec<KillPoint>, Vec<u64>, Vec<u8>);

/// A [`Driver`] wrapper sampling the crash-relevant storage state at
/// every scheduling decision. When `choose` runs, every virtual thread
/// is parked at a schedule point, so the sample is a consistent cut of
/// the virtual schedule — exactly the state a kill at that point would
/// leave behind.
struct CrashObserver<'a> {
    inner: &'a mut dyn Driver,
    sim: SimHandle,
    log: &'a CommitLog,
    samples: Vec<KillPoint>,
}

impl Driver for CrashObserver<'_> {
    fn choose(&mut self, d: Decision<'_>) -> usize {
        let (written, durable) = self.sim.watermarks();
        self.samples
            .push((written, durable, self.log.acked_count()));
        self.inner.choose(d)
    }
}

/// Shared state handed to the vthread bodies.
struct Shared {
    stm: Stm,
    kernel: Kernel,
    done: AtomicUsize,
    workers: usize,
    ops_per_worker: usize,
    body_seed: u64,
}

/// Run one scheduled execution; returns the sampled kill points, the
/// final acked sequence list, and the final log bytes.
fn run_once(cfg: &CrashConfig, driver: &mut dyn Driver) -> Result<ExecutionTrace, String> {
    let (sim, handle) = SimStorage::new();
    let stm = Stm::with_wal(cfg.stm_config(), Box::new(sim));
    stm.wal().unwrap().track_acks(true);
    let kernel = Kernel::setup(cfg, &stm);
    let shared = Shared {
        stm,
        kernel,
        done: AtomicUsize::new(0),
        workers: cfg.workers,
        ops_per_worker: cfg.ops_per_worker,
        body_seed: cfg.base_seed,
    };

    let s = &shared;
    let worker = |tid: usize| {
        let mut rng = SplitMix64::new(s.body_seed ^ (0xA5A5 + tid as u64 * 0x9E37_79B9));
        for _ in 0..s.ops_per_worker {
            s.kernel.run_one(&s.stm, &mut rng);
        }
        s.done.fetch_add(1, Ordering::SeqCst);
    };
    // The group-commit flusher as a scheduled vthread: drain/fsync steps
    // interleave with committers under the explored schedule. Workers
    // block in `wait_durable` until their batch lands, so the flusher
    // must keep stepping until every worker has finished.
    let flusher = |_tid: usize| {
        let log = s.stm.wal().unwrap();
        while s.done.load(Ordering::SeqCst) < s.workers {
            log.flush_step()
                .expect("no I/O faults armed in crash sweeps");
            semtm_core::sched::spin();
        }
        log.flush_step().expect("final flush");
    };

    let mut bodies: Vec<Body<'_>> = Vec::new();
    for _ in 0..cfg.workers {
        bodies.push(&worker);
    }
    bodies.push(&flusher);

    let mut samples = {
        let mut obs = CrashObserver {
            inner: driver,
            sim: handle.clone(),
            log: shared.stm.wal().unwrap(),
            samples: Vec::new(),
        };
        run_threads(&bodies, &mut obs, STEP_CAP)?;
        obs.samples
    };

    // The live (uncrashed) run must itself be consistent.
    shared.kernel.verify(&shared.stm)?;
    let (written, durable) = handle.watermarks();
    if written != durable {
        return Err(format!(
            "final flush left {written} written vs {durable} durable bytes"
        ));
    }
    samples.push((written, durable, shared.stm.wal().unwrap().acked_count()));
    let acks = shared.stm.wal().unwrap().acked_seqs();
    Ok((samples, acks, handle.bytes()))
}

/// Recover `prefix` into a fresh re-setup of the scenario and check
/// both crash properties. Returns `(lost_acked, inconsistent)` as 0/1
/// counts and accumulates nothing itself.
fn check_recovery(
    cfg: &CrashConfig,
    prefix: &[u8],
    acked: &[u64],
    expect_clean: bool,
) -> Result<(usize, usize), String> {
    let (records, _consumed, stop) = read_records(prefix);
    if expect_clean && stop != semtm_core::wal::StopReason::CleanEnd {
        return Err(format!(
            "durable/written watermark is not a record boundary: {stop:?}"
        ));
    }
    for (i, r) in records.iter().enumerate() {
        if r.seq != (i + 1) as u64 {
            return Err(format!("recovered seq {} at position {i}", r.seq));
        }
    }
    let last_seq = records.len() as u64;

    let mut lost = 0usize;
    if acked.iter().any(|&s| s > last_seq) {
        lost = 1;
    }

    // Fresh runtime, identical deterministic setup, then replay.
    let mut plain = cfg.stm_config();
    // Recovery runs on a plain (non-durable) runtime: same layout knobs,
    // no log.
    plain.durability = DurabilityMode::Manual;
    let stm = Stm::new(plain);
    let kernel = Kernel::setup(cfg, &stm);
    replay(prefix, stm.heap());
    let inconsistent = match kernel.verify(&stm) {
        Ok(()) => 0,
        Err(_) => 1,
    };
    Ok((lost, inconsistent))
}

/// Run the full sweep described by `cfg`: every execution contributes
/// every distinct kill-point storage state, each recovered under three
/// tail policies (durable-only, full-written, random torn cut).
///
/// Returns `Err` only on harness-level failures (step cap, malformed
/// watermarks); property violations are *counted* in the report.
pub fn sweep(cfg: &CrashConfig) -> Result<CrashReport, String> {
    let mut report = CrashReport::default();
    let mut seeder = SplitMix64::new(cfg.base_seed);
    for exec in 0..cfg.executions {
        let seed = seeder.next_u64();
        let mut driver = RandomDriver::new(seed, SWITCH_PCT);
        let (samples, acks, bytes) = run_once(cfg, &mut driver)
            .map_err(|e| format!("{} execution {exec} (seed {seed:#x}): {e}", cfg.algorithm))?;
        report.executions += 1;
        report.acked_commits += acks.len();
        let (final_records, _, _) = read_records(&bytes);
        report.logged_commits += final_records.len();

        let distinct: BTreeSet<KillPoint> = samples.into_iter().collect();
        let mut torn_rng = SplitMix64::new(seed ^ 0x7EAA);
        for (written, durable, acked_count) in distinct {
            report.kill_points += 1;
            let acked = &acks[..acked_count.min(acks.len())];
            // Power loss: only the fsynced prefix survives.
            // Process kill: everything handed to the OS survives.
            // Torn tail: a random cut in between (never below the
            // durable watermark — fsync'd bytes cannot tear).
            let torn = durable + torn_rng.index(written - durable + 1);
            for (cut, expect_clean) in [(durable, true), (written, true), (torn, false)] {
                report.recoveries += 1;
                let (lost, inconsistent) = check_recovery(cfg, &bytes[..cut], acked, expect_clean)
                    .map_err(|e| {
                        format!(
                            "{} execution {exec} (seed {seed:#x}) kill point \
                             (w={written}, d={durable}, k={acked_count}) cut {cut}: {e}",
                            cfg.algorithm
                        )
                    })?;
                report.lost_acked += lost;
                report.inconsistent += inconsistent;
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::tests::assert_cells_spread;

    #[test]
    fn slots_kernel_spreads_over_lines_and_shards() {
        // The slot array and its size counter: on shards of their own
        // in the sharded cells, so a flip's commit takes two shards.
        for shards in [1, 4, 16] {
            for alg in Algorithm::ALL {
                let mut cfg = CrashConfig::new(alg, CrashKernel::Slots);
                cfg.clock_shards = shards;
                let stm = Stm::new(cfg.stm_config());
                let slots = Slots::new(&stm);
                let what = format!("{alg} crash slots");
                assert_cells_spread(&[slots.base, slots.size], shards, &what);
            }
        }
    }

    #[test]
    fn single_engine_sweep_reports_clean() {
        let mut cfg = CrashConfig::new(Algorithm::SNOrec, CrashKernel::Slots);
        cfg.executions = 2;
        let report = sweep(&cfg).expect("sweep must run");
        assert!(report.kill_points > 0, "{report:?}");
        assert!(report.acked_commits > 0, "{report:?}");
        assert_eq!(report.lost_acked, 0, "{report:?}");
        assert_eq!(report.inconsistent, 0, "{report:?}");
    }

    #[test]
    fn detector_flags_a_lost_acked_commit() {
        // Cut the log below what was acked: prefix durability must trip.
        let cfg = CrashConfig::new(Algorithm::NOrec, CrashKernel::Slots);
        let mut driver = RandomDriver::new(7, SWITCH_PCT);
        let (_samples, acks, bytes) = run_once(&cfg, &mut driver).unwrap();
        assert!(!acks.is_empty());
        let (lost, _) = check_recovery(&cfg, &[], &acks, true).unwrap();
        assert_eq!(lost, 1, "empty log cannot contain acked commits");
        let (lost, _) = check_recovery(&cfg, &bytes, &acks, true).unwrap();
        assert_eq!(lost, 0, "full log contains every acked commit");
    }

    #[test]
    fn detector_flags_an_inconsistent_heap() {
        // A synthetic half-transaction: bump the slots size counter
        // without occupying a slot. The invariant must fail.
        let cfg = CrashConfig::new(Algorithm::NOrec, CrashKernel::Slots);
        let stm = Stm::new(cfg.stm_config());
        let kernel = Kernel::setup(&cfg, &stm);
        match &kernel {
            Kernel::Slots(s) => stm.write_now(s.size, 1),
            Kernel::Bank(_) => unreachable!(),
        }
        assert!(kernel.verify(&stm).is_err());
    }
}
