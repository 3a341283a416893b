//! Deterministic random-number utilities.
//!
//! A self-contained xoshiro256++ generator (the algorithm behind
//! `rand::rngs::SmallRng` on 64-bit targets, seeded through SplitMix64)
//! plus the distributions the workspace needs: standard normal via
//! Box–Muller, uniform ranges with unbiased rejection sampling (Lemire),
//! permutations and categorical choice. No external dependencies, so the
//! workspace builds offline.

/// SplitMix64 step, used to expand a 64-bit seed into generator state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic RNG seeded from a `u64`. Every generator and trainer in
/// the workspace takes one of these so experiments are reproducible.
pub struct Rng {
    s: [u64; 4],
    /// Cached second output of the Box–Muller transform.
    spare_normal: Option<f32>,
}

/// The complete internal state of an [`Rng`], exposed so training runs can
/// checkpoint and later resume the exact random stream (including the
/// cached Box–Muller output — omitting it would shift every subsequent
/// normal draw by one).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RngState {
    /// xoshiro256++ state words.
    pub s: [u64; 4],
    /// Cached second Box–Muller output, if any.
    pub spare_normal: Option<f32>,
}

impl Rng {
    /// Create a generator from a 64-bit seed (SplitMix64 state expansion,
    /// matching `SmallRng::seed_from_u64`).
    pub fn seed_from(seed: u64) -> Self {
        let mut st = seed;
        let s = [
            splitmix64(&mut st),
            splitmix64(&mut st),
            splitmix64(&mut st),
            splitmix64(&mut st),
        ];
        Rng {
            s,
            spare_normal: None,
        }
    }

    /// Snapshot the full generator state for checkpointing.
    pub fn state(&self) -> RngState {
        RngState {
            s: self.s,
            spare_normal: self.spare_normal,
        }
    }

    /// Rebuild a generator from a snapshot, continuing the exact stream.
    pub fn from_state(state: RngState) -> Self {
        Rng {
            s: state.s,
            spare_normal: state.spare_normal,
        }
    }

    /// Next raw 64-bit output (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Next raw 32-bit output (the high half of [`Rng::next_u64`]).
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Derive a child RNG with a decorrelated stream; useful for giving each
    /// sub-component (dataset shard, model init, dropout) its own stream.
    pub fn fork(&mut self, salt: u64) -> Rng {
        let s = self.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Rng::seed_from(s)
    }

    /// Uniform `f32` in `[0, 1)` using the top 24 bits of a 32-bit draw.
    pub fn unit(&mut self) -> f32 {
        const SCALE: f32 = 1.0 / (1u32 << 24) as f32;
        (self.next_u32() >> 8) as f32 * SCALE
    }

    /// Uniform `f32` in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.unit()
    }

    /// Unbiased uniform integer in `[0, range)` via widening-multiply
    /// rejection sampling (Lemire's method).
    fn below_u64(&mut self, range: u64) -> u64 {
        debug_assert!(range > 0);
        // Accept v when the low half of v*range falls inside the zone that
        // maps uniformly onto [0, range).
        let zone = (range << range.leading_zeros()).wrapping_sub(1);
        loop {
            let v = self.next_u64();
            let m = (v as u128) * (range as u128);
            let lo = m as u64;
            if lo <= zone {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        self.below_u64(n as u64) as usize
    }

    /// Uniform integer in `[lo, hi]` (inclusive).
    pub fn range_inclusive(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo <= hi);
        let range = (hi - lo) as u64 + 1;
        if range == 0 {
            // Full u64 range: every output is valid.
            return self.next_u64() as usize;
        }
        lo + self.below_u64(range) as usize
    }

    /// Bernoulli draw with probability `p` of `true`.
    pub fn bernoulli(&mut self, p: f32) -> bool {
        self.unit() < p
    }

    /// Standard normal sample via the Box–Muller transform.
    pub fn normal(&mut self) -> f32 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Draw u1 in (0, 1] to avoid ln(0).
        let u1 = 1.0 - self.unit();
        let u2 = self.unit();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// A uniformly random permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        self.shuffle(&mut p);
        p
    }

    /// Shuffle a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i + 1);
            xs.swap(i, j);
        }
    }

    /// Sample an index from unnormalized non-negative weights.
    ///
    /// # Panics
    /// Panics if weights are empty or sum to zero/negative.
    pub fn choose_weighted(&mut self, weights: &[f32]) -> usize {
        let total: f32 = weights.iter().sum();
        assert!(total > 0.0, "choose_weighted: non-positive total weight");
        let mut x = self.uniform(0.0, total);
        for (i, &w) in weights.iter().enumerate() {
            if x < w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }

    /// Choose `k` distinct indices from `0..n` (k ≤ n), in random order.
    pub fn choose_distinct(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "choose_distinct: k={k} > n={n}");
        let mut p = self.permutation(n);
        p.truncate(k);
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = Rng::seed_from(7);
        let mut b = Rng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.unit(), b.unit());
        }
    }

    #[test]
    fn seeds_differ() {
        let mut a = Rng::seed_from(1);
        let mut b = Rng::seed_from(2);
        let same = (0..32).filter(|_| a.unit() == b.unit()).count();
        assert!(same < 4);
    }

    #[test]
    fn unit_is_in_range() {
        let mut rng = Rng::seed_from(17);
        for _ in 0..10_000 {
            let x = rng.unit();
            assert!((0.0..1.0).contains(&x), "{x}");
        }
    }

    #[test]
    fn below_is_uniform_and_in_range() {
        let mut rng = Rng::seed_from(23);
        let n = 7;
        let mut counts = vec![0usize; n];
        let draws = 70_000;
        for _ in 0..draws {
            counts[rng.below(n)] += 1;
        }
        let expected = draws / n;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (c as f32 - expected as f32).abs() / expected as f32;
            assert!(dev < 0.05, "bucket {i}: {c} vs {expected}");
        }
    }

    #[test]
    fn normal_moments() {
        let mut rng = Rng::seed_from(99);
        let n = 50_000;
        let xs: Vec<f32> = (0..n).map(|_| rng.normal()).collect();
        let mean = xs.iter().sum::<f32>() / n as f32;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn permutation_is_permutation() {
        let mut rng = Rng::seed_from(3);
        let p = rng.permutation(100);
        let mut seen = [false; 100];
        for &i in &p {
            assert!(!seen[i]);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn choose_weighted_respects_weights() {
        let mut rng = Rng::seed_from(5);
        let w = [0.0, 1.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..4000 {
            counts[rng.choose_weighted(&w)] += 1;
        }
        assert_eq!(counts[0], 0);
        assert!(counts[2] > 2 * counts[1], "{counts:?}");
    }

    #[test]
    fn choose_distinct_is_distinct() {
        let mut rng = Rng::seed_from(11);
        let picks = rng.choose_distinct(10, 5);
        assert_eq!(picks.len(), 5);
        let mut sorted = picks.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 5);
    }

    #[test]
    fn range_inclusive_bounds() {
        let mut rng = Rng::seed_from(13);
        for _ in 0..1000 {
            let x = rng.range_inclusive(4, 25);
            assert!((4..=25).contains(&x));
        }
    }

    #[test]
    fn state_roundtrip_continues_stream() {
        let mut a = Rng::seed_from(21);
        // Consume an odd number of normals so a Box–Muller spare is cached.
        for _ in 0..7 {
            a.normal();
        }
        a.unit();
        let st = a.state();
        let mut b = Rng::from_state(st);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
            assert_eq!(a.normal(), b.normal());
            assert_eq!(a.unit(), b.unit());
        }
    }

    #[test]
    fn fork_decorrelates() {
        let mut base = Rng::seed_from(42);
        let mut a = base.fork(1);
        let mut b = base.fork(2);
        let same = (0..32).filter(|_| a.unit() == b.unit()).count();
        assert!(same < 4);
    }
}
