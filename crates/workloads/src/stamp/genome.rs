//! STAMP **Genome** — gene sequencing, reduced kernel (paper Table 3).
//!
//! The paper profiles Genome but excludes it from the performance figures
//! because its transactions contain almost no semantic-convertible
//! operations (Table 3: 84 reads, 3 writes, ≈0 compares/increments per
//! transaction). This port reproduces that profile: the dominant phase
//! deduplicates DNA segments through a *chained* transactional hash set —
//! bucket-list traversals are value-carrying plain reads (the next
//! pointer and segment of every visited node are *used*, not just
//! compared), so nothing converts.
//!
//! Segments are 64-bit packed nucleotide windows drawn from a synthetic
//! genome string. Phase 2 is STAMP's overlap matcher: for decreasing
//! overlap lengths, each unmatched segment searches a prefix-indexed
//! table for a successor whose prefix equals its suffix and links to it
//! transactionally (claim + link in one transaction) — also
//! read-dominated, with a single rare `TM_EQ` on the claim flag
//! (Table 3's 0.06 compares/tx residue).

use crate::driver::{run_fixed_work, RunResult};
use semtm_core::util::SplitMix64;
use semtm_core::{Abort, Addr, Stm, TArray, Tx};

const NIL: i64 = -1;
/// Hash-set node: segment value, next pointer.
const N_SEG: usize = 0;
const N_NEXT: usize = 1;

#[inline]
fn field(node: i64, f: usize) -> Addr {
    Addr::from_index(node as usize + f)
}

/// Genome configuration.
#[derive(Clone, Copy, Debug)]
pub struct GenomeConfig {
    /// Length of the synthetic genome (nucleotides).
    pub genome_length: usize,
    /// Segment window length (nucleotides, ≤ 32 for 2-bit packing).
    pub segment_length: usize,
    /// Number of (overlapping, duplicated) segments sampled.
    pub segments: usize,
    /// Hash-set buckets — kept low so chains are long and transactions
    /// read-heavy, matching Table 3's 84 reads/tx.
    pub buckets: usize,
    /// Segments deduplicated per transaction.
    pub inserts_per_tx: usize,
}

impl Default for GenomeConfig {
    fn default() -> Self {
        GenomeConfig {
            genome_length: 4096,
            segment_length: 16,
            segments: 4096,
            buckets: 64,
            inserts_per_tx: 4,
        }
    }
}

/// Phase-2 link record layout (4 heap words per unique segment):
/// `segment, next (successor index or -1), claimed (0/1), overlap used`.
const L_SEG: usize = 0;
const L_NEXT: usize = 1;
const L_CLAIMED: usize = 2;
const L_OVERLAP: usize = 3;

/// The segment-deduplication table plus the sampled segment stream.
pub struct Genome {
    buckets: TArray<i64>,
    config: GenomeConfig,
    /// Sampled (duplicated) segment stream — the phase-1 input.
    stream: Vec<i64>,
    /// Ground truth: distinct segments in the stream.
    distinct: usize,
}

impl Genome {
    /// Synthesise a genome, sample overlapping segments (with heavy
    /// duplication, as the real benchmark's sequencer input has).
    pub fn new(stm: &Stm, config: GenomeConfig, seed: u64) -> Genome {
        let mut rng = SplitMix64::new(seed);
        let genome: Vec<u8> = (0..config.genome_length)
            .map(|_| rng.below(4) as u8)
            .collect();
        let mut stream = Vec::with_capacity(config.segments);
        let span = config.genome_length - config.segment_length;
        for _ in 0..config.segments {
            let start = rng.index(span);
            let mut packed: i64 = 0;
            for &n in &genome[start..start + config.segment_length] {
                packed = (packed << 2) | n as i64;
            }
            // The raw 2-bit packing is kept intact so phase 2 can do
            // suffix/prefix arithmetic on the stored value.
            stream.push(packed);
        }
        let distinct = {
            let mut s: Vec<i64> = stream.clone();
            s.sort_unstable();
            s.dedup();
            s.len()
        };
        Genome {
            buckets: TArray::new(stm, config.buckets, NIL),
            config,
            stream,
            distinct,
        }
    }

    #[inline]
    fn bucket(&self, segment: i64) -> usize {
        semtm_core::util::hash_u32(segment as u32) as usize % self.config.buckets
    }

    /// Insert one segment if absent; plain-read chain traversal.
    pub fn dedup_insert(&self, stm: &Stm, tx: &mut Tx<'_>, segment: i64) -> Result<bool, Abort> {
        let b = self.bucket(segment);
        let head = self.buckets.read(tx, b)?;
        let mut cur = head;
        while cur != NIL {
            if tx.read(field(cur, N_SEG))? == segment {
                return Ok(false);
            }
            cur = tx.read(field(cur, N_NEXT))?;
        }
        let node = stm.alloc(2);
        stm.write_now(node.offset(N_SEG), segment);
        tx.write(node.offset(N_NEXT), head)?;
        self.buckets.write(tx, b, node.index() as i64)?;
        Ok(true)
    }

    /// Phase-1 transaction: deduplicate a batch of stream segments.
    pub fn dedup_tx(&self, stm: &Stm, indices: &[usize]) -> usize {
        stm.atomic(|tx| {
            let mut fresh = 0;
            for &i in indices {
                if self.dedup_insert(stm, tx, self.stream[i])? {
                    fresh += 1;
                }
            }
            Ok(fresh)
        })
    }

    /// Quiescent census of deduplicated segments.
    pub fn unique_now(&self, stm: &Stm) -> usize {
        let mut n = 0;
        for b in 0..self.config.buckets {
            let mut cur = self.buckets.read_now(stm, b);
            while cur != NIL {
                n += 1;
                cur = stm.read_now(field(cur, N_NEXT));
            }
        }
        n
    }

    /// Check the dedup result against the ground truth.
    pub fn verify(&self, stm: &Stm) -> Result<(), String> {
        let got = self.unique_now(stm);
        if got != self.distinct {
            return Err(format!(
                "dedup produced {got} segments, ground truth {}",
                self.distinct
            ));
        }
        // No duplicates within any chain.
        for b in 0..self.config.buckets {
            let mut seen = std::collections::HashSet::new();
            let mut cur = self.buckets.read_now(stm, b);
            while cur != NIL {
                if !seen.insert(stm.read_now(field(cur, N_SEG))) {
                    return Err(format!("duplicate segment in bucket {b}"));
                }
                cur = stm.read_now(field(cur, N_NEXT));
            }
        }
        Ok(())
    }
}

/// The phase-2 matcher state: one link record per unique segment plus a
/// prefix index (bucket -> list of record ids) rebuilt per overlap
/// length outside transactions, as STAMP's sequencer does.
pub struct Matcher {
    records: Vec<i64>,
    segment_length: usize,
}

impl Matcher {
    /// Build link records for the deduplicated segments of `g`.
    pub fn new(stm: &Stm, g: &Genome) -> Matcher {
        let mut records = Vec::new();
        for b in 0..g.config.buckets {
            let mut cur = g.buckets.read_now(stm, b);
            while cur != NIL {
                let seg = stm.read_now(field(cur, N_SEG));
                let rec = stm.alloc(4);
                stm.write_now(rec.offset(L_SEG), seg);
                stm.write_now(rec.offset(L_NEXT), NIL);
                stm.write_now(rec.offset(L_CLAIMED), 0);
                stm.write_now(rec.offset(L_OVERLAP), 0);
                records.push(rec.index() as i64);
                cur = stm.read_now(field(cur, N_NEXT));
            }
        }
        Matcher {
            records,
            segment_length: g.config.segment_length,
        }
    }

    /// Number of unique-segment link records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when there are no records (empty input).
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    #[inline]
    fn prefix(seg: i64, seg_len: usize, k: usize) -> i64 {
        seg >> (2 * (seg_len - k))
    }

    #[inline]
    fn suffix(seg: i64, k: usize) -> i64 {
        seg & ((1i64 << (2 * k)) - 1)
    }

    /// Link one segment at overlap `k`: find an unclaimed record whose
    /// prefix-k equals our suffix-k and claim it as successor. One
    /// transaction per candidate set, exactly one winner per successor.
    fn try_link(
        &self,
        stm: &Stm,
        rec: i64,
        k: usize,
        index: &std::collections::HashMap<i64, Vec<i64>>,
    ) -> bool {
        let me_seg = stm.read_now(field(rec, L_SEG));
        let want = Self::suffix(me_seg, k);
        let Some(candidates) = index.get(&want) else {
            return false;
        };
        for &cand in candidates {
            if cand == rec {
                continue; // no self-loops
            }
            let chain_bound = self.records.len();
            let linked = stm.atomic(|tx| {
                // Already linked in a previous round (or by a racing
                // thread of this round): nothing to do.
                if tx.read(field(rec, L_NEXT))? != NIL {
                    return Ok(true);
                }
                // The claim check is the one semantic residue of Genome
                // (Table 3's 0.06 compares/tx).
                if !tx.eq(field(cand, L_CLAIMED), 0)? {
                    return Ok(false);
                }
                // Synthetic genomes can close overlap loops (real
                // sequencer input cannot): refuse a link whose target
                // chain leads back to us.
                let mut cur = cand;
                for _ in 0..chain_bound {
                    let next = tx.read(field(cur, L_NEXT))?;
                    if next == rec {
                        return Ok(false);
                    }
                    if next == NIL {
                        break;
                    }
                    cur = next;
                }
                tx.write(field(cand, L_CLAIMED), 1)?;
                tx.write(field(rec, L_NEXT), cand)?;
                tx.write(field(rec, L_OVERLAP), k as i64)?;
                Ok(true)
            });
            if linked {
                return true;
            }
        }
        false
    }

    /// Run the full matching pass: overlap lengths from `L-1` down to
    /// `min_overlap`, threads splitting the record space per round.
    /// Returns the number of links formed.
    pub fn run_matching(&self, stm: &Stm, threads: usize, min_overlap: usize) -> usize {
        let mut links = std::sync::atomic::AtomicUsize::new(0);

        for k in (min_overlap..self.segment_length).rev() {
            // Rebuild the prefix index for this round (non-transactional,
            // records' segments are immutable).
            let mut index: std::collections::HashMap<i64, Vec<i64>> =
                std::collections::HashMap::new();
            for &rec in &self.records {
                let seg = stm.read_now(field(rec, L_SEG));
                index
                    .entry(Self::prefix(seg, self.segment_length, k))
                    .or_default()
                    .push(rec);
            }
            let index = &index;
            let links_ref = &links;
            std::thread::scope(|s| {
                for t in 0..threads {
                    let records = &self.records;
                    s.spawn(move || {
                        let mut local = 0;
                        let mut i = t;
                        while i < records.len() {
                            let rec = records[i];
                            if stm.read_now(field(rec, L_NEXT)) == NIL
                                && self.try_link(stm, rec, k, index)
                            {
                                local += 1;
                            }
                            i += threads;
                        }
                        links_ref.fetch_add(local, std::sync::atomic::Ordering::Relaxed);
                    });
                }
            });
        }
        *links.get_mut()
    }

    /// Quiescent phase-2 invariants: every successor is claimed exactly
    /// once, recorded overlaps really match, and following links never
    /// cycles.
    pub fn verify(&self, stm: &Stm) -> Result<(), String> {
        let mut claimed_by: std::collections::HashMap<i64, i64> = std::collections::HashMap::new();
        for &rec in &self.records {
            let next = stm.read_now(field(rec, L_NEXT));
            if next == NIL {
                continue;
            }
            if stm.read_now(field(next, L_CLAIMED)) != 1 {
                return Err(format!("record {rec}: successor {next} not claimed"));
            }
            if let Some(prev) = claimed_by.insert(next, rec) {
                return Err(format!("record {next} claimed by both {prev} and {rec}"));
            }
            let k = stm.read_now(field(rec, L_OVERLAP)) as usize;
            if k == 0 || k >= self.segment_length {
                return Err(format!("record {rec}: bogus overlap {k}"));
            }
            let s_me = stm.read_now(field(rec, L_SEG));
            let s_next = stm.read_now(field(next, L_SEG));
            if Self::suffix(s_me, k) != Self::prefix(s_next, self.segment_length, k) {
                return Err(format!("record {rec}: overlap {k} does not actually match"));
            }
        }
        // Acyclic: every chain must reach NIL within |records| steps.
        for &rec in &self.records {
            let mut cur = rec;
            let mut steps = 0;
            loop {
                let next = stm.read_now(field(cur, L_NEXT));
                if next == NIL {
                    break;
                }
                steps += 1;
                if steps > self.records.len() {
                    return Err(format!("cycle through record {rec}"));
                }
                cur = next;
            }
        }
        Ok(())
    }
}

/// Measured run: deduplicate the whole stream across threads.
pub fn run(stm: &Stm, config: GenomeConfig, threads: usize, seed: u64) -> RunResult {
    let g = Genome::new(stm, config, seed);
    let batches = (config.segments / config.inserts_per_tx) as u64;
    let r = run_fixed_work(stm, threads, batches, seed, |_tid, i, _rng| {
        let lo = i as usize * config.inserts_per_tx;
        let indices: Vec<usize> = (lo..lo + config.inserts_per_tx).collect();
        g.dedup_tx(stm, &indices);
    });
    g.verify(stm).expect("genome dedup incorrect");
    // Phase 2: overlap matching over the deduplicated segments.
    let matcher = Matcher::new(stm, &g);
    matcher.run_matching(stm, threads, config.segment_length.saturating_sub(4).max(1));
    matcher.verify(stm).expect("genome matching incorrect");
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use semtm_core::{Algorithm, StmConfig};

    fn stm(alg: Algorithm) -> Stm {
        Stm::new(StmConfig::new(alg).heap_words(1 << 18).orec_count(1 << 10))
    }

    fn small() -> GenomeConfig {
        GenomeConfig {
            genome_length: 256,
            segment_length: 8,
            segments: 512,
            buckets: 16,
            inserts_per_tx: 4,
        }
    }

    #[test]
    fn dedup_matches_ground_truth_single_thread() {
        for alg in Algorithm::ALL {
            let s = stm(alg);
            let r = run(&s, small(), 1, 3);
            assert!(r.total_ops > 0, "{alg}");
        }
    }

    #[test]
    fn dedup_matches_ground_truth_concurrent() {
        for alg in [Algorithm::SNOrec, Algorithm::STl2] {
            let s = stm(alg);
            let _ = run(&s, small(), 4, 5);
        }
    }

    #[test]
    fn profile_is_essentially_read_only() {
        // Table 3: Genome's traffic is value-carrying reads; only the
        // rare phase-2 claim check converts (0.06 compares/tx in the
        // paper — a sub-1% residue here too).
        let s = stm(Algorithm::SNOrec);
        let _ = run(&s, small(), 1, 9);
        let st = s.stats().committed;
        assert!(st.reads > 0);
        assert!(
            (st.cmps + st.cmp_pairs) as f64 <= 0.2 * st.reads as f64,
            "compares must stay a residue: {} cmps vs {} reads",
            st.cmps,
            st.reads
        );
        assert_eq!(st.incs, 0);
    }

    #[test]
    fn matching_links_respect_invariants() {
        for alg in [Algorithm::SNOrec, Algorithm::STl2] {
            let s = stm(alg);
            let g = Genome::new(&s, small(), 31);
            // Phase 1 single-threaded for determinism.
            for i in 0..(small().segments / small().inserts_per_tx) {
                let lo = i * small().inserts_per_tx;
                let indices: Vec<usize> = (lo..lo + small().inserts_per_tx).collect();
                g.dedup_tx(&s, &indices);
            }
            let m = Matcher::new(&s, &g);
            assert!(!m.is_empty());
            let links = m.run_matching(&s, 4, 4);
            assert!(links > 0, "{alg}: overlapping windows must chain");
            m.verify(&s).unwrap_or_else(|e| panic!("{alg}: {e}"));
        }
    }
}
