//! Popularity sampling: a small Zipf sampler over ranks.
//!
//! Endpoint communication in enterprises is heavily skewed — a few
//! servers and printers take most flows. The campus model ranks
//! always-on infrastructure first so it naturally absorbs the skew.

use rand::Rng;

/// Samples ranks `0..n` with probability ∝ `1 / (rank+1)^s`.
#[derive(Clone, Debug)]
pub struct ZipfSampler {
    /// Cumulative weights, normalized to the total.
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Builds a sampler over `n` ranks with exponent `s`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `s < 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "need at least one rank");
        assert!(s >= 0.0, "exponent must be non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 0..n {
            total += 1.0 / ((rank + 1) as f64).powf(s);
            cdf.push(total);
        }
        for v in &mut cdf {
            *v /= total;
        }
        ZipfSampler { cdf }
    }

    /// Draws a rank.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let u: f64 = rng.gen();
        match self
            .cdf
            .binary_search_by(|p| p.partial_cmp(&u).expect("NaN in cdf"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn skewed_distribution_prefers_low_ranks() {
        let z = ZipfSampler::new(100, 1.0);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut counts = vec![0u32; 100];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10] && counts[10] > counts[50]);
        // Rank 0 takes roughly 1/H(100) ≈ 19% of draws.
        assert!((15_000..25_000).contains(&counts[0]), "rank0={}", counts[0]);
    }

    #[test]
    fn zero_exponent_is_uniform() {
        let z = ZipfSampler::new(10, 0.0);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut counts = vec![0u32; 10];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for c in counts {
            assert!((8_000..12_000).contains(&c), "uniform expected, got {c}");
        }
    }

    #[test]
    fn all_ranks_reachable() {
        let z = ZipfSampler::new(5, 1.5);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut seen = [false; 5];
        for _ in 0..10_000 {
            seen[z.sample(&mut rng)] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn empty_panics() {
        ZipfSampler::new(0, 1.0);
    }
}
