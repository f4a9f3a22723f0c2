//! Exact order statistics over stored samples, and the seeded generator
//! every workload draws its inputs from.

/// Nearest-rank percentile: the smallest sample that has at least a
/// fraction `q` of all samples at or below it. Exact — computed from the
/// stored samples, never from histogram buckets. Reorders `samples`.
///
/// # Panics
/// Panics on an empty slice or a `q` outside `[0, 1]`.
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample set");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    *samples.select_nth_unstable_by(rank - 1, f64::total_cmp).1
}

/// The highest quantile that still has at least ten samples beyond it,
/// capped at p99.9: the tail a run of `n` samples can support.
pub fn tail_quantile(n: usize) -> f64 {
    (1.0 - 10.0 / n.max(1) as f64).clamp(0.5, 0.999)
}

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose whole stream is fixed by `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_matches_sorted_oracle() {
        let mut rng = Rng::new(7);
        for n in [1usize, 2, 3, 10, 99, 100, 101, 1000, 4097] {
            let data: Vec<f64> = (0..n).map(|_| (rng.below(500) as f64) * 0.5).collect();
            let mut sorted = data.clone();
            sorted.sort_by(f64::total_cmp);
            for q in [0.0, 0.001, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
                let want = sorted[((q * n as f64).ceil() as usize).max(1) - 1];
                let mut scratch = data.clone();
                assert_eq!(percentile(&mut scratch, q), want, "n={n} q={q}");
            }
        }
    }

    #[test]
    fn percentile_orders_infinite_failures_last() {
        let mut v = vec![3.0, f64::INFINITY, 1.0, 2.0];
        assert_eq!(percentile(&mut v, 0.5), 2.0);
        assert_eq!(percentile(&mut v, 1.0), f64::INFINITY);
    }

    #[test]
    fn tail_quantile_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(1_000_000), 0.999);
        assert!((tail_quantile(1000) - 0.99).abs() < 1e-12);
        assert_eq!(tail_quantile(5), 0.5);
    }

    #[test]
    fn rng_is_deterministic_per_seed() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..100).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
        let mut r = Rng::new(5);
        assert!((0..1000).all(|_| r.below(7) < 7));
    }
}
