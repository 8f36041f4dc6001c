//! The Bank micro-benchmark (paper §7.1).
//!
//! "Each transaction performs multiple transfers (at most 10) between
//! accounts with an overdraft check (i.e., skip the transfer if account
//! balance is insufficient). In the semantic version of the benchmark,
//! the reads/writes were transformed into `cmp` and `inc` operations."
//!
//! One workload source serves all four algorithms: the overdraft check is
//! written as `TM_GTE(src, amount)` and the balance updates as
//! `TM_INC`/`TM_DEC`; baselines transparently delegate these to plain
//! reads and writes, giving the "base" columns of Table 3.
//!
//! Invariant: total money is conserved.

use crate::driver::{
    run_fixed_work, run_for_duration, run_for_duration_observed, run_for_duration_sampled,
    RunResult,
};
use semtm_core::util::SplitMix64;
use semtm_core::{Abort, Addr, SamplePoint, Stm, TArray, Tx};
use std::time::Duration;

/// Bank configuration.
#[derive(Clone, Copy, Debug)]
pub struct BankConfig {
    /// Number of accounts.
    pub accounts: usize,
    /// Initial balance per account.
    pub initial_balance: i64,
    /// Transfers attempted per transaction (the paper's "at most 10").
    pub transfers_per_tx: usize,
    /// Maximum transfer amount (uniform in `1..=max_amount`).
    pub max_amount: i64,
    /// Per-mille probability that a transaction additionally audits one
    /// random account with a plain read (produces the small residual
    /// read/promote counts visible in Table 3's semantic Bank column).
    pub audit_per_mille: u32,
    /// Contention skew: when nonzero, half of all transfer endpoints are
    /// drawn from the first `skew_accounts` accounts instead of uniformly,
    /// concentrating conflicts on a known-hot set (used to exercise the
    /// flight recorder's hot-address sketch). `0` keeps the paper's
    /// uniform draw.
    pub skew_accounts: usize,
    /// Line-stripe the account array ([`TArray::new_striped`]): one
    /// account per cache line, so accounts never false-share a line and,
    /// under a sharded commit clock, spread across shards. Costs 16× the
    /// heap words.
    pub padded: bool,
}

impl Default for BankConfig {
    fn default() -> Self {
        BankConfig {
            accounts: 64,
            initial_balance: 1_000,
            transfers_per_tx: 10,
            max_amount: 100,
            audit_per_mille: 50,
            skew_accounts: 0,
            padded: false,
        }
    }
}

/// Shared bank state over a transactional heap.
pub struct Bank {
    accounts: TArray<i64>,
    config: BankConfig,
}

impl Bank {
    /// Allocate and initialise the accounts on `stm`'s heap.
    pub fn new(stm: &Stm, config: BankConfig) -> Bank {
        let accounts = if config.padded {
            TArray::new_striped(stm, config.accounts, config.initial_balance)
        } else {
            TArray::new(stm, config.accounts, config.initial_balance)
        };
        Bank { accounts, config }
    }

    /// Total money that must be conserved.
    pub fn expected_total(&self) -> i64 {
        self.config.accounts as i64 * self.config.initial_balance
    }

    /// One workload transaction: up to `transfers_per_tx` guarded
    /// transfers (and occasionally an audit read). Returns the number of
    /// transfers that passed the overdraft check.
    pub fn transfer_tx(&self, stm: &Stm, rng: &mut SplitMix64) -> usize {
        let n = self.config.accounts;
        // Pre-draw the plan so the body is deterministic across retries.
        let mut plan = [(0usize, 0usize, 0i64); 16];
        let count = self.config.transfers_per_tx.min(plan.len());
        let hot = self.config.skew_accounts.min(n);
        let draw = |rng: &mut SplitMix64| {
            if hot > 0 && rng.chance(50) {
                rng.index(hot)
            } else {
                rng.index(n)
            }
        };
        for slot in plan.iter_mut().take(count) {
            let src = draw(rng);
            let mut dst = draw(rng);
            if dst == src {
                dst = (dst + 1) % n;
            }
            *slot = (
                src,
                dst,
                1 + rng.below(self.config.max_amount as u64) as i64,
            );
        }
        let audit = if rng.below(1000) < self.config.audit_per_mille as u64 {
            Some(rng.index(n))
        } else {
            None
        };
        stm.atomic(|tx| {
            let mut done = 0usize;
            for &(src, dst, amount) in plan.iter().take(count) {
                done += self.transfer(tx, src, dst, amount)? as usize;
            }
            if let Some(acct) = audit {
                let _ = self.accounts.read(tx, acct)?;
            }
            Ok(done)
        })
    }

    /// A single guarded transfer inside an open transaction.
    pub fn transfer(
        &self,
        tx: &mut Tx<'_>,
        src: usize,
        dst: usize,
        amount: i64,
    ) -> Result<bool, Abort> {
        // Overdraft check: `balance >= amount` — one semantic TM_GTE.
        if !tx.gte(self.accounts.addr(src), amount)? {
            return Ok(false);
        }
        tx.dec(self.accounts.addr(src), amount)?;
        tx.inc(self.accounts.addr(dst), amount)?;
        Ok(true)
    }

    /// Heap address of account `i` — lets telemetry consumers map the
    /// flight recorder's attributed conflict addresses back to accounts.
    pub fn account_addr(&self, i: usize) -> Addr {
        self.accounts.addr(i)
    }

    /// Non-transactional sum of all balances (quiescent verification).
    pub fn total_now(&self, stm: &Stm) -> i64 {
        (0..self.config.accounts)
            .map(|i| self.accounts.read_now(stm, i))
            .sum()
    }

    /// Check conservation of money and non-negativity of balances.
    pub fn verify(&self, stm: &Stm) -> Result<(), String> {
        let total = self.total_now(stm);
        if total != self.expected_total() {
            return Err(format!(
                "money not conserved: {total} != {}",
                self.expected_total()
            ));
        }
        for i in 0..self.config.accounts {
            let b = self.accounts.read_now(stm, i);
            if b < 0 {
                return Err(format!("account {i} overdrawn: {b}"));
            }
        }
        Ok(())
    }
}

/// Measured run for the figure harness: `threads` workers for `duration`.
pub fn run(
    stm: &Stm,
    config: BankConfig,
    threads: usize,
    duration: Duration,
    seed: u64,
) -> RunResult {
    let bank = Bank::new(stm, config);
    let r = run_for_duration(stm, threads, duration, seed, |_tid, rng| {
        bank.transfer_tx(stm, rng);
    });
    bank.verify(stm).expect("bank invariant violated");
    r
}

/// Fixed-work run: exactly `total_ops` transfer transactions split
/// across `threads`. Deterministic operation count, so tests can assert
/// the exact accounting identity `stats.commits == total_ops` (the bank
/// pre-populates its accounts non-transactionally: no setup commits).
pub fn run_fixed(
    stm: &Stm,
    config: BankConfig,
    threads: usize,
    total_ops: u64,
    seed: u64,
) -> RunResult {
    let bank = Bank::new(stm, config);
    let r = run_fixed_work(stm, threads, total_ops, seed, |_tid, _i, rng| {
        bank.transfer_tx(stm, rng);
    });
    bank.verify(stm).expect("bank invariant violated");
    r
}

/// Like [`run`], but additionally samples throughput/abort-rate every
/// `sample_every` (the telemetry time-series export).
pub fn run_sampled(
    stm: &Stm,
    config: BankConfig,
    threads: usize,
    duration: Duration,
    sample_every: Duration,
    seed: u64,
) -> (RunResult, Vec<SamplePoint>) {
    let bank = Bank::new(stm, config);
    let out = run_for_duration_sampled(stm, threads, duration, sample_every, seed, |_tid, rng| {
        bank.transfer_tx(stm, rng);
    });
    bank.verify(stm).expect("bank invariant violated");
    out
}

/// Like [`run`], but hands every sample to `observe` while the run is in
/// flight (the live-dashboard hook; the callback may also inspect
/// `stm.telemetry()` for hot addresses and spans).
pub fn run_observed(
    stm: &Stm,
    config: BankConfig,
    threads: usize,
    duration: Duration,
    sample_every: Duration,
    seed: u64,
    observe: impl FnMut(Duration, &SamplePoint),
) -> (RunResult, Vec<SamplePoint>) {
    let bank = Bank::new(stm, config);
    let out = run_for_duration_observed(
        stm,
        threads,
        duration,
        sample_every,
        seed,
        |_tid, rng| {
            bank.transfer_tx(stm, rng);
        },
        observe,
    );
    bank.verify(stm).expect("bank invariant violated");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use semtm_core::{Algorithm, StmConfig};

    fn stm(alg: Algorithm) -> Stm {
        Stm::new(StmConfig::new(alg).heap_words(1 << 12).orec_count(1 << 8))
    }

    #[test]
    fn transfers_conserve_money_single_thread() {
        for alg in Algorithm::ALL {
            let s = stm(alg);
            let bank = Bank::new(&s, BankConfig::default());
            let mut rng = SplitMix64::new(11);
            for _ in 0..50 {
                bank.transfer_tx(&s, &mut rng);
            }
            bank.verify(&s).unwrap_or_else(|e| panic!("{alg}: {e}"));
        }
    }

    #[test]
    fn overdraft_check_blocks_insufficient_transfers() {
        let s = stm(Algorithm::SNOrec);
        let bank = Bank::new(
            &s,
            BankConfig {
                accounts: 2,
                initial_balance: 10,
                ..BankConfig::default()
            },
        );
        let moved = s.atomic(|tx| bank.transfer(tx, 0, 1, 50));
        assert!(!moved, "transfer above balance must be skipped");
        let moved = s.atomic(|tx| bank.transfer(tx, 0, 1, 10));
        assert!(moved, "transfer of exactly the balance is allowed");
        assert_eq!(bank.total_now(&s), 20);
    }

    #[test]
    fn concurrent_run_conserves_money_all_algorithms() {
        for alg in Algorithm::ALL {
            let s = stm(alg);
            let r = run(
                &s,
                BankConfig {
                    accounts: 16,
                    ..BankConfig::default()
                },
                4,
                Duration::from_millis(60),
                3,
            );
            assert!(r.total_ops > 0, "{alg}");
        }
    }

    #[test]
    fn skewed_run_ranks_hot_accounts_first_in_hot_addresses() {
        use semtm_core::TelemetryLevel;
        // Concentrate half of all transfer endpoints on 4 of 64 accounts
        // and let 4 threads fight over them; the flight recorder's
        // hot-address sketch must rank the skew targets at the top.
        let skew = 4usize;
        let cfg = BankConfig {
            accounts: 64,
            skew_accounts: skew,
            ..BankConfig::default()
        };
        let s = Stm::new(
            StmConfig::new(Algorithm::SNOrec)
                .heap_words(1 << 12)
                .telemetry(TelemetryLevel::Spans),
        );
        let bank = Bank::new(&s, cfg);
        let hot_addrs: Vec<_> = (0..skew).map(|i| bank.account_addr(i)).collect();
        let r = run_for_duration(&s, 4, Duration::from_millis(120), 9, |_tid, rng| {
            bank.transfer_tx(&s, rng);
        });
        bank.verify(&s).expect("bank invariant violated");
        assert!(r.stats.conflict_aborts() > 0, "skewed run must conflict");
        let ranked = s.telemetry().hot_addresses();
        assert!(
            !ranked.is_empty(),
            "attributed conflicts must fill the sketch"
        );
        assert!(
            hot_addrs.contains(&ranked[0].0),
            "top-ranked address {:?} should be one of the skew targets {:?}; ranking: {:?}",
            ranked[0].0,
            hot_addrs,
            &ranked[..ranked.len().min(8)],
        );
    }

    #[test]
    fn padded_bank_conserves_money_under_sharded_clock() {
        // The ablation's "sharded+padded" cell: striped accounts on a
        // 16-shard commit clock, every algorithm, concurrent run.
        for alg in Algorithm::ALL {
            let s = Stm::new(
                StmConfig::new(alg)
                    .heap_words(1 << 14)
                    .orec_count(1 << 8)
                    .clock_shards(16),
            );
            let cfg = BankConfig {
                accounts: 16,
                padded: true,
                ..BankConfig::default()
            };
            let r = run(&s, cfg, 4, Duration::from_millis(60), 7);
            assert!(r.total_ops > 0, "{alg}");
        }
    }

    #[test]
    fn semantic_mode_reports_cmps_and_incs() {
        let s = stm(Algorithm::SNOrec);
        let bank = Bank::new(&s, BankConfig::default());
        let mut rng = SplitMix64::new(5);
        for _ in 0..20 {
            bank.transfer_tx(&s, &mut rng);
        }
        let st = s.stats();
        assert!(st.cmps_per_tx() > 5.0, "overdraft checks are compares");
        assert!(st.incs_per_tx() > 5.0, "balance updates are increments");
        assert!(st.reads_per_tx() < 1.0, "only rare audit reads remain");
    }

    #[test]
    fn base_mode_reports_reads_and_writes() {
        let s = stm(Algorithm::NOrec);
        let bank = Bank::new(&s, BankConfig::default());
        let mut rng = SplitMix64::new(5);
        for _ in 0..20 {
            bank.transfer_tx(&s, &mut rng);
        }
        let st = s.stats();
        assert!(st.reads_per_tx() > 10.0);
        assert!(st.writes_per_tx() > 5.0);
        assert_eq!(st.committed.cmps, 0);
        assert_eq!(st.committed.incs, 0);
    }
}
