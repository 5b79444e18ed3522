//! The benchmark's own seeded generator.

use crate::adapter::Token;

/// SplitMix64: the benchmark's own seeded generator, so inputs do not change
/// when the repository's RNG stand-in does.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, (lo, hi): (usize, usize)) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential gap with the given mean.
    pub fn exp_gap(&mut self, mean: f64) -> f64 {
        -(1.0 - self.unit()).ln() * mean
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.range((0, i)));
        }
    }

    /// `len` byte tokens.
    pub fn tokens(&mut self, len: usize) -> Vec<Token> {
        (0..len).map(|_| (self.next_u64() % 256) as Token).collect()
    }
}
