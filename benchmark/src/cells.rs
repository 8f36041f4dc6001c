//! The five workloads and the engine cells they run on.
//!
//! A cell is one `Stm` plus one workload's state on its heap. Every run
//! builds the same three cells — the three modes the adaptive runtime
//! chooses between — and measures each in turn.

use crate::meter::{Meter, MeterState};
use crate::probe::Probe;
use semtm_core::util::{hash_u32, SplitMix64};
use semtm_core::{Addr, Algorithm, DurabilityMode, FileStorage, Stm, StmConfig, TelemetryLevel};
use semtm_ir::{lower, parse_function, programs, run_tm_passes, Interp, LoweredFunction};
use semtm_workloads::bank::{Bank, BankConfig};
use semtm_workloads::hashtable::{Hashtable, HashtableConfig};
use semtm_workloads::scan::{Scan, ScanConfig};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    BankTransfer,
    ScanAudit,
    HashtableHot,
    BankDurable,
    IrKernels,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::BankTransfer,
        Workload::ScanAudit,
        Workload::HashtableHot,
        Workload::BankDurable,
        Workload::IrKernels,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BankTransfer => "bank-transfer",
            Workload::ScanAudit => "scan-audit",
            Workload::HashtableHot => "hashtable-hot",
            Workload::BankDurable => "bank-durable",
            Workload::IrKernels => "ir-kernels",
        }
    }

    /// Why the workload exists — the `why` of `BENCHMARK.json`.
    pub fn why(self) -> &'static str {
        match self {
            Workload::BankTransfer => "1024 accounts, 10 guarded transfers (1 cmp + 2 inc) per transaction: the cmp/inc barriers and the writer commit are the whole operation; validation, wal and ir do nothing",
            Workload::ScanAudit => "4096 cells, 64 plain reads per transaction, 15 % also inc: the read barrier, read-set growth and commit-time validation dominate, so a read-path gain paid for by writers shows",
            Workload::HashtableHot => "1024-cell table held at 45 % keys + 45 % tombstones, 10 ops per transaction: long probe chains and frequent aborts, so revalidation, retry and backoff dominate; the paper's false-conflict case",
            Workload::BankDurable => "bank-transfer inputs on a group-commit log over real files, real sync_data after every batch: 99 % of an operation is wal, so an engine change must not move it and a wal change moves only it",
            Workload::IrKernels => "the three shipped IR kernels after the TM passes, run lowered through the interpreter: ir dispatch dominates and the engines see only the kernels' barriers",
        }
    }

    /// Whether `BENCHMARK.json` lists the workload, so that the driver
    /// judges later changes by it. `bank-durable` flushes with the real
    /// `sync_data`: on the reference host ten runs of the same code
    /// spread up to 120 %, more than any bound the driver accepts, so it
    /// is measured and reported but not judged (see the README).
    pub fn gated(self) -> bool {
        self != Workload::BankDurable
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One of the three engine configurations every run measures.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Engine {
    /// Name of the cell in end-to-end metrics.
    pub cell: &'static str,
    /// Name of the engine's module in ladder metrics.
    pub module: &'static str,
    pub algorithm: Algorithm,
    pub clock_shards: usize,
}

pub const ENGINES: [Engine; 3] = [
    Engine {
        cell: "snorec",
        module: "norec",
        algorithm: Algorithm::SNOrec,
        clock_shards: 1,
    },
    Engine {
        cell: "scnorec",
        module: "scnorec",
        algorithm: Algorithm::SNOrec,
        clock_shards: 16,
    },
    Engine {
        cell: "stl2",
        module: "tl2",
        algorithm: Algorithm::STl2,
        clock_shards: 1,
    },
];

impl Engine {
    pub fn config(&self) -> StmConfig {
        StmConfig::new(self.algorithm)
            .clock_shards(self.clock_shards)
            .telemetry(TelemetryLevel::Counters)
            .heap_words(1 << 20)
            .orec_count(1 << 14)
    }
}

pub const BANK: BankConfig = BankConfig {
    accounts: 1024,
    initial_balance: 1_000,
    transfers_per_tx: 10,
    max_amount: 100,
    audit_per_mille: 50,
    skew_accounts: 0,
    padded: false,
};

const SCAN: ScanConfig = ScanConfig {
    cells: 4096,
    reads_per_tx: 64,
    summary_slots: 16,
    inc_per_mille: 150,
    initial_value: 1,
    padded: false,
};

/// The table is allocated empty; [`HotTable::new`] brings it to 45 % live
/// keys + 45 % tombstones through the table's own operations.
const HASHTABLE: HashtableConfig = HashtableConfig {
    capacity: 1024,
    fill_pct: 0,
    tombstone_pct: 0,
    ops_per_tx: 10,
    get_pct: 60,
    key_space: 4096,
    padded: false,
};
/// Distinct keys `hashtable-hot` draws from: 90 % of the capacity.
const HOT_KEYS: usize = HASHTABLE.capacity * 9 / 10;

/// Heap state of `hashtable-hot`: the library's table held at 45 % live
/// keys + 45 % tombstones + 10 % free cells.
///
/// The table never turns a cell back to free, so uniform keys from the
/// whole key space would fill it within a second and leave every probe
/// walking all 1024 cells. The workload therefore draws from a closed
/// universe of [`HOT_KEYS`] keys that were all inserted once: the cells
/// they took stay the only non-free ones (an insert always finds a
/// tombstone in its cluster before the free cell that ends it), and with
/// inserts and removes equally likely half the universe is live.
struct HotTable {
    table: Hashtable,
    universe: Vec<i64>,
}

impl HotTable {
    fn new(stm: &Stm) -> HotTable {
        let table = Hashtable::new(stm, HASHTABLE);
        let mut universe = Vec::with_capacity(HOT_KEYS);
        let mut seen = std::collections::HashSet::new();
        for j in 0.. {
            let key = 1 + (hash_u32(j) % HASHTABLE.key_space) as i64;
            if seen.insert(key) {
                universe.push(key);
                if universe.len() == HOT_KEYS {
                    break;
                }
            }
        }
        for &key in &universe {
            assert!(
                stm.atomic(|tx| table.insert(tx, key)),
                "pre-fill inserts {key}"
            );
        }
        for &key in universe.iter().step_by(2) {
            assert!(
                stm.atomic(|tx| table.remove(tx, key)),
                "pre-fill removes {key}"
            );
        }
        HotTable { table, universe }
    }

    /// One transaction of `ops_per_tx` operations, 60 % gets and the rest
    /// inserts and removes in equal shares, on keys of the universe. The
    /// closure is the benchmark's, so a traced run can time it.
    #[inline]
    fn op(&self, stm: &Stm, rng: &mut SplitMix64, probe: &mut Probe, sampled: bool) {
        let mut plan = [(0u8, 0i64); HASHTABLE.ops_per_tx];
        for step in plan.iter_mut() {
            let key = self.universe[rng.index(HOT_KEYS)];
            let kind = if rng.below(100) < HASHTABLE.get_pct as u64 {
                0
            } else if rng.chance(50) {
                1
            } else {
                2
            };
            *step = (kind, key);
        }
        stm.atomic(|tx| {
            probe.attempt(sampled, || {
                for &(kind, key) in &plan {
                    match kind {
                        0 => self.table.contains(tx, key)?,
                        1 => self.table.insert(tx, key)?,
                        _ => self.table.remove(tx, key)?,
                    };
                }
                Ok(())
            })
        });
    }

    /// The table's own integrity check, and the occupancy the workload
    /// is specified at: no free cell was used up, and about half the
    /// universe is live.
    fn verify(&self, stm: &Stm) -> Result<(), String> {
        self.table.verify(stm)?;
        let (used, removed, free) = self.table.census(stm);
        let cap = HASHTABLE.capacity;
        if free != cap - HOT_KEYS || !(cap * 35 / 100..=cap * 55 / 100).contains(&used) {
            return Err(format!(
                "occupancy left 45/45/10 %: {used} used, {removed} tombstones, {free} free"
            ));
        }
        Ok(())
    }
}

/// The flush policy of `bank-durable`, stated in every report.
pub const FLUSH_POLICY: &str =
    "group commit: one flusher thread per log, FileStorage, real sync_data after every batch";

const HT_CAPACITY: usize = 1 << 12;
/// Keys in the table's universe: the table is half full.
const HT_KEYS: usize = HT_CAPACITY / 2;
const HT_INSERT_PCT: u32 = 20;
const IR_ACCOUNTS: usize = 1024;
const IR_BALANCE: i64 = 1_000;
const OFFERS: usize = 64;
/// Offers one reservation considers: a window at a random start, so that
/// bookings spread over the table instead of all landing on its single
/// dearest offer — the workload is about `ir` dispatch, not about two
/// threads handing one cache line back and forth.
const OFFER_WINDOW: usize = 16;
/// Seats per offer: more than a run can book, so the state is stationary.
const OFFER_SEATS: i64 = 1 << 40;

/// The three shipped kernels, compiled once per set-up.
pub struct Kernels {
    pub ht_op: LoweredFunction,
    pub bank_transfer: LoweredFunction,
    pub vac_reserve: LoweredFunction,
}

impl Kernels {
    /// Parse, run the TM passes (the measured configuration; the ladder
    /// also counts barrier calls without them), lower.
    pub fn compile(passes: bool) -> Kernels {
        let build = |src: &str| {
            let mut f = parse_function(src).expect("shipped kernel parses");
            if passes {
                run_tm_passes(&mut f);
            }
            lower(&f).expect("shipped kernel lowers")
        };
        Kernels {
            ht_op: build(programs::HASHTABLE_OP_SRC),
            bank_transfer: build(programs::BANK_TRANSFER_SRC),
            vac_reserve: build(programs::VACATION_RESERVE_SRC),
        }
    }
}

/// Heap state of `ir-kernels`.
pub struct IrState {
    kernels: Kernels,
    /// The key universe: distinct 20-bit keys, so that home buckets
    /// (`key & mask`) collide and probes have chains to walk.
    universe: Vec<i64>,
    states: Addr,
    keys: Addr,
    accounts: Addr,
    offers: Addr,
}

impl IrState {
    pub fn new(stm: &Stm, kernels: Kernels) -> IrState {
        let mut universe = Vec::with_capacity(HT_KEYS);
        let mut seen = std::collections::HashSet::new();
        for j in 0.. {
            let key = 1 + (hash_u32(j) & 0xF_FFFF) as i64;
            if seen.insert(key) {
                universe.push(key);
                if universe.len() == HT_KEYS {
                    break;
                }
            }
        }
        let s = IrState {
            kernels,
            universe,
            states: stm.alloc_array(HT_CAPACITY, 0i64),
            keys: stm.alloc_array(HT_CAPACITY, 0i64),
            accounts: stm.alloc_array(IR_ACCOUNTS, IR_BALANCE),
            offers: stm.alloc(OFFERS * 5),
        };
        // The table holds its whole key universe from the start: the
        // kernel has no remove, so only then is occupancy stationary.
        let interp = Interp::new(stm);
        for &key in &s.universe {
            let r = interp.execute_lowered(&s.kernels.ht_op, &s.ht_args(key, 1));
            assert_eq!(r, Ok(Some(2)), "pre-fill inserts key {key}");
        }
        for i in 0..OFFERS {
            let rec = s.offers.offset(i * 5);
            stm.write_now(rec, i as i64);
            stm.write_now(rec.offset(1), 0);
            stm.write_now(rec.offset(2), OFFER_SEATS);
            stm.write_now(rec.offset(3), OFFER_SEATS);
            stm.write_now(rec.offset(4), 100 + (i as i64 * 37) % 400);
        }
        s
    }

    fn ht_args(&self, key: i64, op: i64) -> [i64; 5] {
        [
            self.states.index() as i64,
            self.keys.index() as i64,
            HT_CAPACITY as i64 - 1,
            key,
            op,
        ]
    }

    /// One operation: the three kernels, one atomic region each.
    /// Returns `(ok, seats booked, stamps)`; with a `clock`, the stamps
    /// are when each kernel started and when the last one ended.
    pub fn op(
        &self,
        interp: &Interp<'_>,
        rng: &mut SplitMix64,
        clock: Option<&Probe>,
    ) -> (bool, u64, [u64; 4]) {
        let key = self.universe[rng.index(HT_KEYS)];
        let insert = i64::from(rng.chance(HT_INSERT_PCT));
        let src = rng.index(IR_ACCOUNTS);
        let mut dst = rng.index(IR_ACCOUNTS);
        if dst == src {
            dst = (dst + 1) % IR_ACCOUNTS;
        }
        let amount = 1 + rng.below(100) as i64;
        let first_offer = rng.index(OFFERS - OFFER_WINDOW + 1);
        let stamp = || clock.map_or(0, Probe::now);
        let t0 = stamp();
        let found = interp.execute_lowered(&self.kernels.ht_op, &self.ht_args(key, insert));
        let t1 = stamp();
        let moved = interp.execute_lowered(
            &self.kernels.bank_transfer,
            &[
                self.accounts.offset(src).index() as i64,
                self.accounts.offset(dst).index() as i64,
                amount,
            ],
        );
        let t2 = stamp();
        let booked = interp.execute_lowered(
            &self.kernels.vac_reserve,
            &[
                self.offers.offset(first_offer * 5).index() as i64,
                OFFER_WINDOW as i64,
            ],
        );
        let t3 = stamp();
        // Every key is present, so both get and insert report "found".
        let ok = found == Ok(Some(1))
            && matches!(moved, Ok(Some(0 | 1)))
            && matches!(booked, Ok(Some(rec)) if rec >= self.offers.index() as i64);
        let seats = u64::from(matches!(booked, Ok(Some(rec)) if rec >= 0));
        (ok, seats, [t0, t1, t2, t3])
    }

    pub fn verify(&self, stm: &Stm, booked: u64) -> Result<(), String> {
        let total: i64 = (0..IR_ACCOUNTS)
            .map(|i| stm.read_now(self.accounts.offset(i)))
            .sum();
        if total != IR_ACCOUNTS as i64 * IR_BALANCE {
            return Err(format!("account sum {total} not conserved"));
        }
        let mut used_total = 0;
        for i in 0..OFFERS {
            let rec = self.offers.offset(i * 5);
            let (used, free, seats) = (
                stm.read_now(rec.offset(1)),
                stm.read_now(rec.offset(2)),
                stm.read_now(rec.offset(3)),
            );
            if used + free != seats || free < 0 {
                return Err(format!(
                    "offer {i}: used {used} + free {free} != total {seats}"
                ));
            }
            used_total += used;
        }
        if used_total != booked as i64 {
            return Err(format!(
                "{used_total} seats used, {booked} bookings acknowledged"
            ));
        }
        // Every inserted key is reachable from its home bucket.
        let mask = HT_CAPACITY - 1;
        for &key in &self.universe {
            let mut i = key as usize & mask;
            loop {
                match stm.read_now(self.states.offset(i)) {
                    0 => return Err(format!("key {key} unreachable")),
                    1 if stm.read_now(self.keys.offset(i)) == key => break,
                    _ => i = (i + 1) & mask,
                }
            }
        }
        Ok(())
    }
}

enum Load {
    Bank(Bank),
    Scan(Scan),
    Hashtable(HotTable),
    Ir(IrState),
}

/// The log of a durable cell, as seen from outside.
pub struct Wal {
    pub path: PathBuf,
    pub meter: Arc<MeterState>,
}

pub struct Cell {
    pub engine: Engine,
    pub stm: Stm,
    load: Load,
    pub wal: Option<Wal>,
    /// Route operations through the benchmark's rebuilt transaction
    /// bodies, which can record spans.
    pub wrapped: bool,
}

/// What one operation reports back to its worker.
#[derive(Clone, Copy)]
pub struct OpOut {
    pub ok: bool,
    /// Workload-specific count the post-run check needs: scan
    /// increments, bank writer transactions, seats booked.
    pub aux: u64,
}

/// Where a run may create files, and whether it is traced.
pub struct Env<'a> {
    pub out_dir: &'a Path,
    pub epoch: Instant,
    /// A traced run records flusher spans.
    pub traced: bool,
}

impl Cell {
    /// Build one cell: the `Stm`, the workload's population, and for
    /// `bank-durable` the log file. `slot` names the log file and the
    /// cell's process in the trace.
    pub fn build(workload: Workload, engine: Engine, slot: usize, env: &Env<'_>) -> Cell {
        let config = engine.config();
        let mut wal = None;
        let stm = if workload == Workload::BankDurable {
            std::fs::create_dir_all(env.out_dir).expect("creating the output directory");
            let path = env.out_dir.join(format!("wal-{slot}-{}.log", engine.cell));
            let file = FileStorage::create(&path).expect("creating the log file");
            let meter = MeterState::new(env.epoch, slot as u32, env.traced);
            let storage = Box::new(Meter::new(file, meter.clone()));
            wal = Some(Wal { path, meter });
            Stm::with_wal(config.durability(DurabilityMode::Group), storage)
        } else {
            Stm::new(config)
        };
        let load = match workload {
            Workload::BankTransfer | Workload::BankDurable => Load::Bank(Bank::new(&stm, BANK)),
            Workload::ScanAudit => Load::Scan(Scan::new(&stm, SCAN)),
            Workload::HashtableHot => Load::Hashtable(HotTable::new(&stm)),
            Workload::IrKernels => Load::Ir(IrState::new(&stm, Kernels::compile(true))),
        };
        Cell {
            engine,
            stm,
            load,
            wal,
            wrapped: false,
        }
    }

    /// One operation, timed by the caller.
    #[inline]
    pub fn op(&self, slot: usize, rng: &mut SplitMix64, probe: &mut Probe) -> OpOut {
        if self.wrapped {
            return self.op_wrapped(slot, rng, probe);
        }
        match &self.load {
            Load::Bank(bank) => OpOut {
                ok: true,
                aux: u64::from(bank.transfer_tx(&self.stm, rng) > 0),
            },
            Load::Scan(scan) => OpOut {
                ok: true,
                aux: scan.scan_tx(&self.stm, rng),
            },
            Load::Hashtable(table) => {
                table.op(&self.stm, rng, probe, false);
                OpOut { ok: true, aux: 0 }
            }
            Load::Ir(ir) => {
                let (ok, aux, _) = ir.op(&Interp::new(&self.stm), rng, None);
                OpOut { ok, aux }
            }
        }
    }

    /// The same operation through the benchmark's wrappers. The bank
    /// body is rebuilt from the library's public in-transaction
    /// operations, drawing the same random plan as `transfer_tx`, so that
    /// the closure handed to `Stm::atomic` is ours and can be timed; the
    /// hashtable body is the benchmark's in either case.
    fn op_wrapped(&self, slot: usize, rng: &mut SplitMix64, probe: &mut Probe) -> OpOut {
        let sampled = probe.sample();
        let start = if sampled { probe.now() } else { 0 };
        let out = match &self.load {
            Load::Bank(bank) => {
                let n = BANK.accounts;
                let mut plan = [(0usize, 0usize, 0i64); 10];
                for step in plan.iter_mut() {
                    let src = rng.index(n);
                    let mut dst = rng.index(n);
                    if dst == src {
                        dst = (dst + 1) % n;
                    }
                    *step = (src, dst, 1 + rng.below(BANK.max_amount as u64) as i64);
                }
                let audit = (rng.below(1000) < BANK.audit_per_mille as u64).then(|| rng.index(n));
                let done = self.stm.atomic(|tx| {
                    probe.attempt(sampled, || {
                        let mut done = 0usize;
                        for &(src, dst, amount) in &plan {
                            done += bank.transfer(tx, src, dst, amount)? as usize;
                        }
                        if let Some(account) = audit {
                            tx.read(bank.account_addr(account))?;
                        }
                        Ok(done)
                    })
                });
                OpOut {
                    ok: true,
                    aux: u64::from(done > 0),
                }
            }
            Load::Hashtable(table) => {
                table.op(&self.stm, rng, probe, sampled);
                OpOut { ok: true, aux: 0 }
            }
            // `scan_tx` keeps its closure to itself: an `op` span only.
            Load::Scan(scan) => {
                let aux = scan.scan_tx(&self.stm, rng);
                if sampled {
                    probe.finish_opaque_op(slot, start, probe.now(), &[]);
                }
                return OpOut { ok: true, aux };
            }
            Load::Ir(ir) => {
                let (ok, aux, t) = ir.op(&Interp::new(&self.stm), rng, sampled.then_some(&*probe));
                if sampled {
                    let parts = [
                        ("ht_op", t[0], t[1]),
                        ("bank_transfer", t[1], t[2]),
                        ("vac_reserve", t[2], t[3]),
                    ];
                    probe.finish_opaque_op(slot, start, t[3], &parts);
                }
                return OpOut { ok, aux };
            }
        };
        if sampled {
            probe.finish_tx_op(slot, start, probe.now());
        }
        out
    }

    /// The workload's invariants on the quiescent cell. `aux` is the sum
    /// of [`OpOut::aux`] over every operation the cell ever ran.
    pub fn verify(&self, aux: u64) -> Result<(), String> {
        match &self.load {
            Load::Bank(bank) => bank.verify(&self.stm),
            Load::Scan(scan) => scan.verify(&self.stm, aux),
            Load::Hashtable(table) => table.verify(&self.stm),
            Load::Ir(ir) => ir.verify(&self.stm, aux),
        }
    }

    /// The restart check of `bank-durable`. Consumes the cell: the `Stm`
    /// is dropped first, which stops the flusher after a last flush.
    ///
    /// A killed process keeps the OS cache, so a real crash test would
    /// see unsynced bytes survive; the benchmark discards them itself.
    /// The log is cut to the length the last successful `sync` covered
    /// and replayed onto a freshly built, identically initialised bank.
    /// `acked_writers` is the number of writing transactions the workers
    /// saw acknowledged.
    pub fn restart_check(self, acked_writers: u64) -> Result<(), String> {
        let Cell {
            stm, wal, engine, ..
        } = self;
        drop(stm);
        let wal = wal.ok_or("cell has no log")?;
        let synced = wal.meter.synced_len.load(Ordering::Acquire) as usize;
        let mut bytes = std::fs::read(&wal.path).map_err(|e| format!("reading the log: {e}"))?;
        if bytes.len() < synced {
            return Err(format!(
                "log holds {} bytes, {synced} were synced",
                bytes.len()
            ));
        }
        bytes.truncate(synced);
        let fresh = Stm::new(engine.config());
        let bank = Bank::new(&fresh, BANK);
        let report = semtm_core::replay(&bytes, fresh.heap());
        if !report.stopped.is_tail() {
            return Err(format!("log corrupt: {:?}", report.stopped));
        }
        bank.verify(&fresh)?;
        if report.records < acked_writers {
            return Err(format!(
                "{} records survive, {acked_writers} commits were acknowledged",
                report.records
            ));
        }
        // The log has served its purpose; a kept one would fill the disk.
        let _ = std::fs::remove_file(&wal.path);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semtm_core::StatsSnapshot;

    fn env(dir: &Path) -> Env<'_> {
        Env {
            out_dir: dir,
            epoch: Instant::now(),
            traced: false,
        }
    }

    /// The single-thread fixed-op mode: `ops` operations on a fresh cell.
    fn fixed_ops(workload: Workload, seed: u64, ops: usize, wrapped: bool) -> StatsSnapshot {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let mut cell = Cell::build(workload, ENGINES[0], 0, &env(&dir));
        cell.wrapped = wrapped;
        let before = cell.stm.stats();
        let mut rng = SplitMix64::new(seed);
        let mut probe = Probe::idle();
        let mut aux = 0;
        for _ in 0..ops {
            let out = cell.op(0, &mut rng, &mut probe);
            assert!(out.ok);
            aux += out.aux;
        }
        cell.verify(aux).unwrap();
        cell.stm.stats().since(&before)
    }

    #[test]
    fn equal_seeds_give_equal_op_counts_and_different_seeds_do_not() {
        for w in [
            Workload::BankTransfer,
            Workload::ScanAudit,
            Workload::HashtableHot,
            Workload::IrKernels,
        ] {
            let a = fixed_ops(w, 5, 300, false);
            assert_eq!(a, fixed_ops(w, 5, 300, false), "{}", w.name());
            assert_ne!(a, fixed_ops(w, 6, 300, false), "{}", w.name());
            assert_eq!(a.total_aborts(), 0);
        }
    }

    #[test]
    fn wrapped_bodies_issue_the_library_bodies_operations() {
        assert_eq!(
            fixed_ops(Workload::BankTransfer, 9, 300, true),
            fixed_ops(Workload::BankTransfer, 9, 300, false)
        );
    }

    #[test]
    fn durable_cell_survives_a_restart() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{}", std::process::id()));
        let cell = Cell::build(Workload::BankDurable, ENGINES[2], 7, &env(&dir));
        let mut rng = SplitMix64::new(3);
        let mut probe = Probe::idle();
        let writers: u64 = (0..200).map(|_| cell.op(7, &mut rng, &mut probe).aux).sum();
        assert!(writers > 150);
        cell.verify(writers).unwrap();
        let path = cell.wal.as_ref().unwrap().path.clone();
        // More acknowledged commits than records must be reported.
        let meter = cell.wal.as_ref().unwrap().meter.clone();
        cell.restart_check(writers).unwrap();
        assert!(meter.syncs.load(Ordering::Relaxed) > 0);
        let lost = Cell::build(Workload::BankDurable, ENGINES[2], 7, &env(&dir));
        assert!(lost.restart_check(1).is_err());
        std::fs::remove_file(path).unwrap();
        std::fs::remove_dir(dir).unwrap();
    }
}
