//! Log-bucket histogram for per-operation wall times in nanoseconds.
//!
//! 64 linear sub-buckets per power of two: a bucket is at most 1/64 of
//! its lower bound wide (1.6 %), and a quantile is interpolated inside
//! its bucket by rank, so the error of any quantile stays below 1.6 % —
//! inside the 3 % the benchmark promises — and a quantile does not move
//! in bucket-sized steps from run to run. Values below 64 ns are exact.

const SUB_BITS: u32 = 6;
const SUB: usize = 1 << SUB_BITS;
/// Largest exponent with its own octave: 2^41 ns ≈ 37 min. Anything
/// slower lands in the last bucket.
const MAX_EXP: u32 = 41;
const BUCKETS: usize = (MAX_EXP - SUB_BITS + 2) as usize * SUB;

/// A histogram of `u64` nanosecond samples.
#[derive(Clone)]
pub struct Hist {
    counts: Box<[u32]>,
    total: u64,
}

fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    if e > MAX_EXP {
        return BUCKETS - 1;
    }
    let sub = (v >> (e - SUB_BITS)) as usize & (SUB - 1);
    (e - SUB_BITS + 1) as usize * SUB + sub
}

/// Lower bound and width of bucket `i`.
fn bucket_span(i: usize) -> (u64, u64) {
    if i < SUB {
        return (i as u64, 1);
    }
    let shift = (i / SUB - 1) as u32;
    (((SUB + i % SUB) as u64) << shift, 1 << shift)
}

impl Default for Hist {
    fn default() -> Self {
        Hist::new()
    }
}

impl Hist {
    pub fn new() -> Hist {
        Hist {
            counts: vec![0u32; BUCKETS].into_boxed_slice(),
            total: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        let c = &mut self.counts[bucket_of(ns)];
        *c = c.saturating_add(1);
        self.total += 1;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a = a.saturating_add(*b);
        }
        self.total += other.total;
    }

    /// The sample of rank `ceil(q · n)`, placed inside its bucket as if
    /// the bucket's samples were spread evenly (0 for an empty histogram).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if seen + c as u64 >= rank {
                let (lo, width) = bucket_span(i);
                let within = ((rank - seen) as f64 - 0.5) / c as f64;
                return lo as f64 + (width - 1) as f64 * within;
            }
            seen += c as u64;
        }
        unreachable!("rank is clamped to the total")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semtm_core::util::SplitMix64;

    fn exact_quantile(sorted: &[u64], q: f64) -> f64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1] as f64
    }

    fn check(samples: Vec<u64>, what: &str) {
        let mut h = Hist::new();
        for &s in &samples {
            h.record(s);
        }
        let mut sorted = samples;
        sorted.sort_unstable();
        for q in [0.25, 0.5, 0.9, 0.99, 0.999] {
            let want = exact_quantile(&sorted, q);
            let got = h.quantile(q);
            let err = (got - want).abs() / want.max(1.0);
            assert!(err <= 0.03, "{what} q{q}: got {got}, want {want}");
        }
    }

    #[test]
    fn quantile_error_is_within_three_percent() {
        let mut rng = SplitMix64::new(7);
        check(
            (0..50_000).map(|_| 200 + rng.below(4_000_000)).collect(),
            "uniform",
        );
        // Log-uniform over 100 ns .. 100 ms: every octave is populated.
        check(
            (0..50_000)
                .map(|_| {
                    let e = rng.below(20) as u32;
                    (100u64 << e) + rng.below(100u64 << e)
                })
                .collect(),
            "log-uniform",
        );
        // Bimodal: a fast mode and a 1 % tail a thousand times slower.
        check(
            (0..50_000)
                .map(|i| {
                    if i % 100 == 0 {
                        1_300_000 + rng.below(50_000)
                    } else {
                        1_300 + rng.below(60)
                    }
                })
                .collect(),
            "bimodal",
        );
    }

    #[test]
    fn buckets_tile_the_range() {
        let mut expect = 0u64;
        for i in 0..BUCKETS {
            let (lo, width) = bucket_span(i);
            assert_eq!(lo, expect, "bucket {i}");
            assert_eq!(bucket_of(lo), i);
            assert_eq!(bucket_of(lo + width - 1), i);
            assert!(i < SUB || width as f64 / lo as f64 <= 0.03);
            expect = lo + width;
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Hist::new();
        let mut b = Hist::new();
        a.record(100);
        b.record(10_000);
        b.record(10_000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert!((a.quantile(0.5) - 10_000.0).abs() < 200.0);
    }
}
