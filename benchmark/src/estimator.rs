//! The quiet-slice estimator.
//!
//! A run is cut into short slices. Interference on a shared host only
//! ever slows the program, so the fastest quarter of a cell's slices —
//! its quiet slices — shows what the code does when the host leaves it
//! alone. Throughput is the median over the quiet slices; latency
//! quantiles come from the histograms of the same slices merged.

use crate::hist::Hist;

/// Median of `v` (mean of the middle two for an even count; 0 if empty).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The value at the lower quartile of `v` (rank `ceil(n/4)`).
pub fn lower_quartile(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s[s.len().div_ceil(4) - 1]
}

/// Indices of the quiet slices: the top quarter (rounded up) by rate.
pub fn quiet_indices(rates: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..rates.len()).collect();
    order.sort_by(|&a, &b| rates[b].total_cmp(&rates[a]));
    order.truncate(rates.len().div_ceil(4));
    order
}

/// The quiet-slice rate of a series: median over its quiet slices.
#[cfg(test)]
pub fn quiet_rate(rates: &[f64]) -> f64 {
    let quiet: Vec<f64> = quiet_indices(rates).iter().map(|&i| rates[i]).collect();
    median(&quiet)
}

/// One measured slice of one cell, all workers merged.
pub struct Slice {
    /// Operations started in the slice.
    pub ops: u64,
    /// Wall time of the slice in seconds.
    pub wall_s: f64,
    /// Wall time of every operation started in the slice.
    pub hist: Hist,
}

impl Slice {
    pub fn ktps(&self) -> f64 {
        self.ops as f64 / self.wall_s / 1e3
    }
}

/// What the estimator reports for one cell.
pub struct Estimate {
    pub tput_ktps: f64,
    pub lat_p50_us: f64,
    pub lat_p99_us: f64,
    /// Operations in the merged quiet-slice histogram.
    pub lat_samples: u64,
    /// `1 − all-slice median ÷ quiet median`: how much of the run the
    /// host disturbed.
    pub disturbance: f64,
    /// Relative difference between the medians of the first and last
    /// third of the slices: state that has not settled shows here.
    pub drift: f64,
}

pub fn estimate(slices: &[Slice]) -> Estimate {
    let rates: Vec<f64> = slices.iter().map(Slice::ktps).collect();
    let quiet = quiet_indices(&rates);
    let quiet_rates: Vec<f64> = quiet.iter().map(|&i| rates[i]).collect();
    let tput = median(&quiet_rates);
    let mut hist = Hist::new();
    for &i in &quiet {
        hist.merge(&slices[i].hist);
    }
    let third = (rates.len() / 3).max(1);
    let first = median(&rates[..third]);
    let last = median(&rates[rates.len() - third..]);
    Estimate {
        tput_ktps: tput,
        lat_p50_us: hist.quantile(0.5) / 1e3,
        lat_p99_us: hist.quantile(0.99) / 1e3,
        lat_samples: hist.count(),
        disturbance: if tput > 0.0 {
            1.0 - median(&rates) / tput
        } else {
            0.0
        },
        drift: if first > 0.0 {
            (last - first).abs() / first
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semtm_core::util::SplitMix64;

    /// The host model from the issue: 710 kTx/s undisturbed, 440 when a
    /// co-tenant is busy, ±1 % jitter on both, disturbed in multi-slice
    /// episodes.
    fn bimodal(n: usize, quiet_share: f64, rng: &mut SplitMix64) -> Vec<f64> {
        let quiet = (n as f64 * quiet_share).ceil() as usize;
        let mut levels = vec![440.0; n];
        // Quiet slices come in runs, like the real thing.
        let mut placed = 0;
        while placed < quiet {
            let at = rng.index(n);
            for slot in levels.iter_mut().skip(at).take(4) {
                if placed < quiet && *slot == 440.0 {
                    *slot = 710.0;
                    placed += 1;
                }
            }
        }
        levels
            .into_iter()
            .map(|l| l * (0.99 + rng.below(2001) as f64 / 100_000.0))
            .collect()
    }

    #[test]
    fn recovers_the_fast_level_when_a_quarter_is_quiet() {
        let mut rng = SplitMix64::new(42);
        for n in [20, 25, 32, 96] {
            for share in [0.25, 0.3, 0.5, 0.8, 1.0] {
                for _ in 0..50 {
                    let got = quiet_rate(&bimodal(n, share, &mut rng));
                    assert!(
                        (got - 710.0).abs() / 710.0 <= 0.02,
                        "n={n} share={share}: {got}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_whole_run_mean_does_not() {
        let mut rng = SplitMix64::new(1);
        let series = bimodal(32, 0.5, &mut rng);
        let mean = series.iter().sum::<f64>() / series.len() as f64;
        assert!((mean - 710.0).abs() / 710.0 > 0.15);
    }

    #[test]
    fn disturbance_and_drift_read_the_series() {
        let slice = |ktps: f64| Slice {
            ops: (ktps * 250.0) as u64,
            wall_s: 0.25,
            hist: Hist::new(),
        };
        let steady: Vec<Slice> = (0..24).map(|_| slice(700.0)).collect();
        let e = estimate(&steady);
        assert!(e.disturbance.abs() < 1e-9 && e.drift < 1e-9);
        let ramp: Vec<Slice> = (0..24).map(|i| slice(400.0 + 10.0 * i as f64)).collect();
        let e = estimate(&ramp);
        assert!(e.drift > 0.3, "drift {}", e.drift);
        let disturbed: Vec<Slice> = (0..24)
            .map(|i| slice(if i % 3 == 0 { 700.0 } else { 350.0 }))
            .collect();
        let e = estimate(&disturbed);
        assert!((e.disturbance - 0.5).abs() < 0.01);
        assert!((e.tput_ktps - 700.0).abs() < 1.0);
    }

    #[test]
    fn medians_and_quartiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(lower_quartile(&[4.0, 1.0, 2.0, 3.0]), 1.0);
        assert_eq!(
            lower_quartile(&[8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]),
            2.0
        );
        assert_eq!(quiet_indices(&[1.0, 9.0, 3.0, 8.0, 2.0]), vec![1, 3]);
    }
}
