//! Zipfian key generation (Gray et al., "Quickly generating billion-record
//! synthetic databases").
//!
//! The paper uses a Zipfian distribution with θ = 0.75 for the end-to-end
//! comparison against PARADIS (Figure 9b).  The generator draws ranks from a
//! Zipf distribution over `universe` distinct values and scatters the ranks
//! over the key space with a multiplicative hash so that the *frequency*
//! skew of the distribution is preserved while the popular keys are not all
//! clustered at the bottom of the key range (matching how the PARADIS
//! benchmark populates keys).

use crate::keys::SortKey;
use crate::rng::SplitMix64;

/// A Zipfian generator over a finite universe of distinct values.
#[derive(Debug, Clone)]
pub struct ZipfGenerator {
    /// Skew parameter θ (0 = uniform; the paper uses 0.75).
    pub theta: f64,
    /// Number of distinct values in the universe.
    pub universe: u64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    rng: SplitMix64,
    /// If true, ranks are scattered over the full key range with a
    /// multiplicative hash; if false, the rank itself is the key.
    pub scramble: bool,
}

fn zeta(n: u64, theta: f64) -> f64 {
    // Direct summation is fine for the universes used in the experiments
    // (≤ a few million distinct values).
    let mut sum = 0.0;
    for i in 1..=n {
        sum += 1.0 / (i as f64).powf(theta);
    }
    sum
}

impl ZipfGenerator {
    /// Creates a generator with skew `theta` over `universe` distinct
    /// values, seeded deterministically.
    pub fn new(theta: f64, universe: u64, seed: u64) -> Self {
        assert!(universe > 0, "universe must be non-empty");
        assert!(
            (0.0..1.0).contains(&theta) || theta > 0.0,
            "theta must be non-negative"
        );
        let universe = universe.max(2);
        let zetan = zeta(universe, theta);
        let zeta2theta = zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / universe as f64).powf(1.0 - theta)) / (1.0 - zeta2theta / zetan);
        ZipfGenerator {
            theta,
            universe,
            alpha,
            zetan,
            eta,
            rng: SplitMix64::new(seed),
            scramble: true,
        }
    }

    /// The paper's configuration: θ = 0.75.
    pub fn paper_default(universe: u64, seed: u64) -> Self {
        ZipfGenerator::new(0.75, universe, seed)
    }

    /// Disables scrambling so the returned value is the Zipf rank itself
    /// (rank 0 is the most popular value).
    pub fn without_scramble(mut self) -> Self {
        self.scramble = false;
        self
    }

    /// Draws the next Zipf rank in `[0, universe)` (0 = most popular).
    pub fn next_rank(&mut self) -> u64 {
        // Gray et al.'s rejection-free inversion method.
        let u = self.rng.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.universe as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.universe - 1)
    }

    /// Draws the next key of type `K`.
    pub fn next_key<K: SortKey>(&mut self) -> K {
        let rank = self.next_rank();
        let mask = if K::BITS >= 64 {
            u64::MAX
        } else {
            (1u64 << K::BITS) - 1
        };
        let bits = if self.scramble {
            // Fibonacci-hash the rank into the key space; the hash is a
            // bijection on 64 bits so distinct ranks stay distinct.
            rank.wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask
        } else {
            rank & mask
        };
        K::from_radix(bits)
    }

    /// Generates `n` keys.
    pub fn generate<K: SortKey>(&mut self, n: usize) -> Vec<K> {
        (0..n).map(|_| self.next_key::<K>()).collect()
    }

    /// Convenience constructor generating `n` keys with θ = 0.75 over a
    /// universe of `n` distinct values (the configuration used for the
    /// Figure 9 experiments).
    pub fn paper_keys<K: SortKey>(n: usize, seed: u64) -> Vec<K> {
        let mut g = ZipfGenerator::paper_default(n.max(2) as u64, seed);
        g.generate::<K>(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::empirical_entropy_bits;

    #[test]
    fn ranks_are_within_universe() {
        let mut g = ZipfGenerator::new(0.75, 1_000, 1);
        for _ in 0..10_000 {
            assert!(g.next_rank() < 1_000);
        }
    }

    #[test]
    fn low_ranks_dominate() {
        let mut g = ZipfGenerator::new(0.75, 100_000, 2).without_scramble();
        let keys: Vec<u64> = g.generate(50_000);
        let top10 = keys.iter().filter(|&&k| k < 10).count();
        // With θ=0.75 over a universe of 100 000 values the ten most popular
        // values take ~5 % of the mass; under a uniform distribution they
        // would take 0.01 %.
        assert!(top10 > 2_000, "top10 = {top10}");
    }

    #[test]
    fn higher_theta_is_more_skewed() {
        let h_low = {
            let mut g = ZipfGenerator::new(0.25, 10_000, 3).without_scramble();
            empirical_entropy_bits(&g.generate::<u64>(50_000))
        };
        let h_high = {
            let mut g = ZipfGenerator::new(0.95, 10_000, 3).without_scramble();
            empirical_entropy_bits(&g.generate::<u64>(50_000))
        };
        assert!(h_high < h_low, "{h_high} !< {h_low}");
    }

    #[test]
    fn scrambling_spreads_keys_but_keeps_frequency_skew() {
        let mut g = ZipfGenerator::new(0.75, 100_000, 4);
        let keys: Vec<u64> = g.generate(50_000);
        // Keys are spread across the 64-bit range...
        assert!(keys.iter().any(|&k| k > u64::MAX / 2));
        // ...but the most common key still appears far more often than under
        // a uniform distribution.
        let mut counts = std::collections::HashMap::new();
        for &k in &keys {
            *counts.entry(k).or_insert(0u32) += 1;
        }
        let max_count = *counts.values().max().unwrap();
        assert!(max_count > 50, "max_count = {max_count}");
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let a: Vec<u32> = ZipfGenerator::paper_keys(1_000, 9);
        let b: Vec<u32> = ZipfGenerator::paper_keys(1_000, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn works_for_all_key_types() {
        let mut g = ZipfGenerator::paper_default(1_000, 11);
        let _: Vec<u32> = g.generate(100);
        let _: Vec<u64> = g.generate(100);
        let _: Vec<i64> = g.generate(100);
        let f: Vec<f64> = g.generate(100);
        assert_eq!(f.len(), 100);
    }

    #[test]
    #[should_panic(expected = "universe")]
    fn empty_universe_rejected() {
        ZipfGenerator::new(0.75, 0, 1);
    }

    #[test]
    fn theta_zero_is_close_to_uniform() {
        let mut g = ZipfGenerator::new(0.0, 1_000, 5).without_scramble();
        let keys: Vec<u64> = g.generate(100_000);
        let h = empirical_entropy_bits(&keys);
        // log2(1000) ≈ 9.97 bits; allow generous tolerance.
        assert!(h > 9.0, "h = {h}");
    }
}
