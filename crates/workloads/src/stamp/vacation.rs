//! STAMP **Vacation** — a travel-reservation OLTP emulation (paper §3.1
//! Algorithm 4 and §7.1).
//!
//! An in-memory database of three relations (cars, flights, rooms) plus a
//! customer relation, each indexed by a transactional red-black tree
//! ([`RbMap`]). Client sessions run as coarse transactions:
//!
//! * **make-reservation** — queries `queries_per_tx` random offers per
//!   relation looking for the best-priced available one (the checks
//!   `numFree > 0` and `price > max_price` are the paper's semantic
//!   `TM_GT`s), then books it: `TM_INC(numFree, -1)`,
//!   `TM_INC(numUsed, +1)` plus a sanity re-read that *promotes* the
//!   increments — reproducing the paper's observation that "almost all
//!   the inc operations were promoted ... because of an additional
//!   sanity check";
//! * **delete-customer** — releases all of a customer's bookings;
//! * **update-tables** — price changes and capacity additions.
//!
//! Invariants: for every offer `numFree + numUsed == numTotal`,
//! `numFree >= 0`, and the sum of booked units equals the length of all
//! customers' reservation lists.

use super::rbtree::RbMap;
use crate::driver::{run_fixed_work, RunResult};
use semtm_core::util::SplitMix64;
use semtm_core::{Abort, Addr, Stm, Tx};

/// Offer record layout (5 heap words).
const R_ID: usize = 0;
const R_USED: usize = 1;
const R_FREE: usize = 2;
const R_TOTAL: usize = 3;
const R_PRICE: usize = 4;

/// Customer reservation-list node (3 heap words): relation, offer id, next.
const L_REL: usize = 0;
const L_OFFER: usize = 1;
const L_NEXT: usize = 2;

const NIL: i64 = -1;

#[inline]
fn field(block: i64, f: usize) -> Addr {
    Addr::from_index(block as usize + f)
}

/// Vacation configuration (mirrors STAMP's `-n -q -u -r -t` knobs).
#[derive(Clone, Copy, Debug)]
pub struct VacationConfig {
    /// Offers per relation.
    pub relations: usize,
    /// Offers examined per reservation transaction (STAMP `-n`).
    pub queries_per_tx: usize,
    /// Percent of sessions that are user reservations (STAMP `-u`); the
    /// remainder split evenly between delete-customer and update-tables.
    pub user_pct: u32,
    /// Initial capacity per offer.
    pub initial_capacity: i64,
    /// Customer-id universe.
    pub customers: usize,
}

impl Default for VacationConfig {
    fn default() -> Self {
        VacationConfig {
            relations: 256,
            queries_per_tx: 10,
            user_pct: 90,
            initial_capacity: 20,
            customers: 128,
        }
    }
}

/// Relation selector.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Relation {
    /// Car rentals.
    Car = 0,
    /// Flights.
    Flight = 1,
    /// Hotel rooms.
    Room = 2,
}

impl Relation {
    const ALL: [Relation; 3] = [Relation::Car, Relation::Flight, Relation::Room];
}

/// The shared in-memory reservation database.
pub struct Vacation {
    tables: [RbMap; 3],
    customers: RbMap,
    config: VacationConfig,
}

impl Vacation {
    /// Build and populate the database. Offers are inserted in shuffled
    /// id order (matches STAMP's randomised population; the RB tree is
    /// balanced regardless).
    pub fn new(stm: &Stm, config: VacationConfig) -> Vacation {
        let v = Vacation {
            tables: [RbMap::new(stm), RbMap::new(stm), RbMap::new(stm)],
            customers: RbMap::new(stm),
            config,
        };
        let mut rng = SplitMix64::new(0x7AC0);
        for rel in Relation::ALL {
            let mut ids: Vec<i64> = (1..=config.relations as i64).collect();
            // Fisher–Yates shuffle.
            for i in (1..ids.len()).rev() {
                ids.swap(i, rng.index(i + 1));
            }
            for id in ids {
                let offer = stm.alloc(5);
                stm.write_now(offer.offset(R_ID), id);
                stm.write_now(offer.offset(R_USED), 0);
                stm.write_now(offer.offset(R_FREE), config.initial_capacity);
                stm.write_now(offer.offset(R_TOTAL), config.initial_capacity);
                stm.write_now(offer.offset(R_PRICE), 100 + rng.below(400) as i64);
                stm.atomic(|tx| v.tables[rel as usize].insert(stm, tx, id, offer.index() as i64));
            }
        }
        v
    }

    /// Algorithm 4: scan `ids`, keeping the priciest offer that still has
    /// a free unit, then book it for `customer`. Returns whether a
    /// booking was made.
    pub fn make_reservation(
        &self,
        stm: &Stm,
        tx: &mut Tx<'_>,
        rel: Relation,
        customer: i64,
        ids: &[i64],
    ) -> Result<bool, Abort> {
        let table = &self.tables[rel as usize];
        let mut max_price = -1i64;
        let mut best: Option<i64> = None;
        for &id in ids {
            let Some(offer) = table.get(tx, id)? else {
                continue;
            };
            // TM_GT(res.numFree, 0)
            if tx.gt(field(offer, R_FREE), 0)? {
                // TM_GT(res.price, max_price)
                if tx.gt(field(offer, R_PRICE), max_price)? {
                    max_price = tx.read(field(offer, R_PRICE))?;
                    best = Some(offer);
                }
            }
        }
        let Some(offer) = best else {
            return Ok(false);
        };
        // TM_INC(res.numFree, -1) and the used-counter mirror.
        tx.inc(field(offer, R_FREE), -1)?;
        tx.inc(field(offer, R_USED), 1)?;
        // STAMP's reservation sanity check (reservation_info compare):
        // re-reads the counters, which promotes both increments.
        if tx.read(field(offer, R_FREE))? < 0 || tx.read(field(offer, R_USED))? <= 0 {
            return Err(Abort::explicit());
        }
        // Record the booking on the customer's list.
        let offer_id = tx.read(field(offer, R_ID))?;
        self.add_to_customer(stm, tx, customer, rel, offer_id)?;
        Ok(true)
    }

    fn add_to_customer(
        &self,
        stm: &Stm,
        tx: &mut Tx<'_>,
        customer: i64,
        rel: Relation,
        offer_id: i64,
    ) -> Result<(), Abort> {
        let head = self.customers.get(tx, customer)?.unwrap_or(NIL);
        let node = stm.alloc(3);
        stm.write_now(node.offset(L_REL), rel as i64);
        stm.write_now(node.offset(L_OFFER), offer_id);
        stm.write_now(node.offset(L_NEXT), NIL);
        tx.write(node.offset(L_NEXT), head)?;
        self.customers
            .insert(stm, tx, customer, node.index() as i64)?;
        Ok(())
    }

    /// Release all of `customer`'s bookings and drop the customer row.
    /// Returns the number of released units.
    pub fn delete_customer(&self, tx: &mut Tx<'_>, customer: i64) -> Result<usize, Abort> {
        let Some(mut node) = self.customers.remove(tx, customer)? else {
            return Ok(0);
        };
        let mut released = 0;
        while node != NIL {
            let rel = tx.read(field(node, L_REL))? as usize;
            let offer_id = tx.read(field(node, L_OFFER))?;
            if let Some(offer) = self.tables[rel].get(tx, offer_id)? {
                tx.inc(field(offer, R_FREE), 1)?;
                tx.inc(field(offer, R_USED), -1)?;
                released += 1;
            }
            node = tx.read(field(node, L_NEXT))?;
        }
        Ok(released)
    }

    /// Update sessions: for each id either re-price the offer or add one
    /// unit of capacity.
    pub fn update_tables(
        &self,
        tx: &mut Tx<'_>,
        rel: Relation,
        ids: &[i64],
        rng_price: i64,
    ) -> Result<(), Abort> {
        let table = &self.tables[rel as usize];
        for (i, &id) in ids.iter().enumerate() {
            let Some(offer) = table.get(tx, id)? else {
                continue;
            };
            if i % 2 == 0 {
                tx.write(field(offer, R_PRICE), 100 + (rng_price + id) % 400)?;
            } else {
                tx.inc(field(offer, R_TOTAL), 1)?;
                tx.inc(field(offer, R_FREE), 1)?;
            }
        }
        Ok(())
    }

    /// One client session (the top-level transaction of the benchmark).
    pub fn session(&self, stm: &Stm, rng: &mut SplitMix64) {
        let roll = rng.below(100) as u32;
        let n = self.config.queries_per_tx;
        let mut ids: Vec<i64> = Vec::with_capacity(n);
        for _ in 0..n {
            ids.push(1 + rng.below(self.config.relations as u64) as i64);
        }
        if roll < self.config.user_pct {
            let customer = 1 + rng.below(self.config.customers as u64) as i64;
            let rel = Relation::ALL[rng.index(3)];
            stm.atomic(|tx| self.make_reservation(stm, tx, rel, customer, &ids));
        } else if roll < self.config.user_pct + (100 - self.config.user_pct) / 2 {
            let customer = 1 + rng.below(self.config.customers as u64) as i64;
            stm.atomic(|tx| self.delete_customer(tx, customer));
        } else {
            let rel = Relation::ALL[rng.index(3)];
            let price_seed = rng.below(1 << 20) as i64;
            stm.atomic(|tx| self.update_tables(tx, rel, &ids, price_seed));
        }
    }

    /// Quiescent invariant check (see module docs).
    pub fn verify(&self, stm: &Stm) -> Result<(), String> {
        let mut total_used = 0i64;
        for rel in Relation::ALL {
            let mut err = None;
            self.tables[rel as usize].for_each_now(stm, |id, offer| {
                let used = stm.read_now(field(offer, R_USED));
                let free = stm.read_now(field(offer, R_FREE));
                let total = stm.read_now(field(offer, R_TOTAL));
                if free + used != total && err.is_none() {
                    err = Some(format!(
                        "offer {id} ({rel:?}): free {free} + used {used} != total {total}"
                    ));
                }
                if (free < 0 || used < 0) && err.is_none() {
                    err = Some(format!("offer {id} ({rel:?}): negative counter"));
                }
                total_used += used;
            });
            if let Some(e) = err {
                return Err(e);
            }
            self.tables[rel as usize].verify(stm)?;
        }
        let mut booked = 0i64;
        self.customers.for_each_now(stm, |_, mut node| {
            while node != NIL {
                booked += 1;
                node = stm.read_now(field(node, L_NEXT));
            }
        });
        if booked != total_used {
            return Err(format!(
                "customer lists record {booked} bookings but tables show {total_used} used"
            ));
        }
        Ok(())
    }
}

/// Measured fixed-work run for the figure harness (`sessions` client
/// sessions split across `threads`).
pub fn run(
    stm: &Stm,
    config: VacationConfig,
    threads: usize,
    sessions: u64,
    seed: u64,
) -> RunResult {
    let db = Vacation::new(stm, config);
    let r = run_fixed_work(stm, threads, sessions, seed, |_tid, _i, rng| {
        db.session(stm, rng);
    });
    db.verify(stm).expect("vacation invariant violated");
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use semtm_core::{Algorithm, StmConfig};

    fn stm(alg: Algorithm) -> Stm {
        Stm::new(StmConfig::new(alg).heap_words(1 << 20).orec_count(1 << 12))
    }

    fn small() -> VacationConfig {
        VacationConfig {
            relations: 32,
            queries_per_tx: 4,
            customers: 16,
            ..VacationConfig::default()
        }
    }

    #[test]
    fn reservation_books_best_available_offer() {
        let s = stm(Algorithm::SNOrec);
        let db = Vacation::new(&s, small());
        let ids: Vec<i64> = (1..=8).collect();
        let booked = s.atomic(|tx| db.make_reservation(&s, tx, Relation::Car, 1, &ids));
        assert!(booked);
        db.verify(&s).unwrap();
        // One unit consumed somewhere among the queried offers.
        let mut used = 0;
        db.tables[Relation::Car as usize].for_each_now(&s, |_, offer| {
            used += s.read_now(field(offer, R_USED));
        });
        assert_eq!(used, 1);
    }

    #[test]
    fn delete_customer_releases_bookings() {
        let s = stm(Algorithm::STl2);
        let db = Vacation::new(&s, small());
        let ids: Vec<i64> = (1..=8).collect();
        for _ in 0..3 {
            s.atomic(|tx| db.make_reservation(&s, tx, Relation::Room, 7, &ids));
        }
        db.verify(&s).unwrap();
        let released = s.atomic(|tx| db.delete_customer(tx, 7));
        assert_eq!(released, 3);
        db.verify(&s).unwrap();
        let mut used = 0;
        db.tables[Relation::Room as usize].for_each_now(&s, |_, offer| {
            used += s.read_now(field(offer, R_USED));
        });
        assert_eq!(used, 0);
    }

    #[test]
    fn update_tables_keeps_invariants() {
        let s = stm(Algorithm::SNOrec);
        let db = Vacation::new(&s, small());
        let ids: Vec<i64> = (1..=6).collect();
        s.atomic(|tx| db.update_tables(tx, Relation::Flight, &ids, 12345));
        db.verify(&s).unwrap();
    }

    #[test]
    fn sessions_preserve_invariants_across_algorithms() {
        for alg in Algorithm::ALL {
            let s = stm(alg);
            let db = Vacation::new(&s, small());
            let mut rng = SplitMix64::new(42);
            for _ in 0..60 {
                db.session(&s, &mut rng);
            }
            db.verify(&s).unwrap_or_else(|e| panic!("{alg}: {e}"));
        }
    }

    #[test]
    fn concurrent_sessions_preserve_invariants() {
        for alg in [Algorithm::SNOrec, Algorithm::STl2] {
            let s = stm(alg);
            let r = run(&s, small(), 4, 200, 9);
            assert_eq!(r.total_ops, 200, "{alg}");
        }
    }

    #[test]
    fn semantic_profile_shows_promotions() {
        // The paper: "almost all the inc operations were promoted to read
        // and write operations because of an additional sanity check".
        let s = stm(Algorithm::SNOrec);
        let db = Vacation::new(&s, small());
        let mut rng = SplitMix64::new(3);
        for _ in 0..40 {
            db.session(&s, &mut rng);
        }
        let st = s.stats().committed;
        assert!(st.promotes > 0, "sanity re-reads must promote increments");
        assert!(st.cmps > 0, "availability/price checks are compares");
        assert!(
            st.reads > st.cmps,
            "tree traversal keeps most reads plain: {} reads vs {} cmps",
            st.reads,
            st.cmps
        );
    }
}
