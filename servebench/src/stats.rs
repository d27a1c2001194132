//! The benchmark's own arithmetic: a seeded generator, nearest-rank
//! percentiles and logit SQNR. Kept free of any dependency on the
//! serving stack so the self-tests pin exactly what the reported figures
//! are computed from.

/// SplitMix64: a small, seedable generator. The benchmark derives every
/// input from `--seed` through it, so equal seeds give equal inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x6A09_E667_F3BC_C909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// Standard normal (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        let u1 = self.unit().max(f64::MIN_POSITIVE);
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

/// Nearest-rank percentile: the smallest sample such that at least `p`
/// percent of the samples are at or below it. `p` in `(0, 100]`.
///
/// # Panics
///
/// Panics on an empty sample or a `p` outside `(0, 100]`.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The 50th nearest-rank percentile.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Accumulated signal and error energy of a reference/test pair of
/// logit vectors; [`SqnrAcc::db`] turns it into signal-to-quantization-
/// noise ratio in dB.
#[derive(Debug, Clone, Copy, Default)]
pub struct SqnrAcc {
    pub signal: f64,
    pub noise: f64,
}

impl SqnrAcc {
    /// Adds one pair of equally long vectors.
    pub fn add(&mut self, reference: &[f32], test: &[f32]) {
        assert_eq!(reference.len(), test.len(), "SQNR over unequal lengths");
        for (&r, &t) in reference.iter().zip(test) {
            self.signal += f64::from(r) * f64::from(r);
            let e = f64::from(r) - f64::from(t);
            self.noise += e * e;
        }
    }

    pub fn merge(&mut self, other: SqnrAcc) {
        self.signal += other.signal;
        self.noise += other.noise;
    }

    /// `10 · log10(signal / noise)`; infinite when the test is exact.
    pub fn db(&self) -> f64 {
        10.0 * (self.signal / self.noise).log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 1.0), 1.0);
        // Order of the input does not matter.
        let rev: Vec<f64> = v.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 50.0), 5.0);
        // The classic textbook case: 15, 20, 35, 40, 50.
        let t = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&t, 5.0), 15.0);
        assert_eq!(percentile(&t, 30.0), 20.0);
        assert_eq!(percentile(&t, 40.0), 20.0);
        assert_eq!(percentile(&t, 50.0), 35.0);
        assert_eq!(percentile(&t, 100.0), 50.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn sqnr_hand_computed() {
        // Signal energy 3² + 4² = 25, noise energy 0.5² + 0² = 0.25:
        // 10 · log10(100) = 20 dB.
        let mut acc = SqnrAcc::default();
        acc.add(&[3.0, 4.0], &[2.5, 4.0]);
        assert!((acc.db() - 20.0).abs() < 1e-12);
        // Merging a pair with signal 75 and noise 0.75 keeps the ratio.
        let mut other = SqnrAcc::default();
        other.add(&[5.0, 5.0, 5.0], &[5.5, 4.5, 5.5]);
        acc.merge(other);
        assert!((acc.db() - 20.0).abs() < 1e-12);
        let mut exact = SqnrAcc::default();
        exact.add(&[1.0], &[1.0]);
        assert!(exact.db().is_infinite());
    }

    #[test]
    fn rng_is_reproducible() {
        let mut a = Rng::new(9);
        let mut b = Rng::new(9);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut r = Rng::new(1);
        for _ in 0..1000 {
            let x = r.range(3, 7);
            assert!((3..=7).contains(&x));
        }
    }
}
