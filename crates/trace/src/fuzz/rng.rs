//! Self-contained seeded randomness for the fuzzer.
//!
//! Same construction as the fault-injection harness in `dp-queue`: a
//! SplitMix-style seed scramble (so nearby seeds produce unrelated
//! streams) feeding an xorshift64* generator. No external crates, fully
//! deterministic.

/// A seeded xorshift64* stream.
#[derive(Debug, Clone)]
pub struct FuzzRng {
    state: u64,
}

impl FuzzRng {
    /// Creates a stream from `seed`. Any seed is valid (including 0 —
    /// the scramble guarantees a non-zero internal state).
    pub fn new(seed: u64) -> Self {
        FuzzRng { state: scramble(seed) }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `[0, n)`; 0 when `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }

    /// Uniform value in `[lo, hi]` (inclusive). Panics if `lo > hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        let span = (hi - lo) as u64 + 1;
        lo + self.below(span) as i64
    }

    /// True with probability `num/den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }

    /// Picks a uniform element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u64) as usize]
    }

    /// A Zipf-flavoured rank in `[0, n)`: log-uniform, so rank 0 is
    /// drawn vastly more often than rank `n-1`. This is the "heavy head,
    /// long tail" reuse distribution the web-scale stress family wants;
    /// exact Zipf normalization is irrelevant for that purpose.
    pub fn zipf(&mut self, n: u64) -> u64 {
        if n <= 1 {
            return 0;
        }
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let rank = (n as f64).powf(u) - 1.0;
        (rank as u64).min(n - 1)
    }
}

/// SplitMix64-style scramble; output is always odd (never zero), which
/// xorshift requires.
fn scramble(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) | 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut r1 = FuzzRng::new(42);
        let mut r2 = FuzzRng::new(42);
        for _ in 0..100 {
            assert_eq!(r1.next_u64(), r2.next_u64());
        }
    }

    #[test]
    fn nearby_seeds_diverge() {
        let mut r1 = FuzzRng::new(1);
        let mut r2 = FuzzRng::new(2);
        let same = (0..64).filter(|_| r1.next_u64() == r2.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn range_is_inclusive_and_bounded() {
        let mut r = FuzzRng::new(7);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..2000 {
            let v = r.range(-3, 3);
            assert!((-3..=3).contains(&v));
            saw_lo |= v == -3;
            saw_hi |= v == 3;
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn zipf_is_head_heavy() {
        let mut r = FuzzRng::new(9);
        let n = 1000u64;
        let mut head = 0u64;
        for _ in 0..10_000 {
            if r.zipf(n) < n / 10 {
                head += 1;
            }
        }
        // Log-uniform puts far more than 10% of the mass in the first
        // decile of ranks.
        assert!(head > 5_000, "head draws: {head}");
    }
}
