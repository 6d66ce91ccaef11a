//! A small deterministic PRNG: xoshiro256\*\* seeded via splitmix64.
//!
//! This is the workspace's only randomness source — the synthetic data
//! generators (`incognito-data`) and the seeded property-style tests all
//! draw from it, so the whole build stays free of external crates and
//! every "random" artifact is reproducible from a single `u64` seed.
//!
//! Not cryptographic. Not intended to be: it exists to shape census-like
//! skew and to enumerate test cases, both of which only need good
//! equidistribution and speed.

/// xoshiro256\*\* (Blackman & Vigna), seeded with splitmix64 so that every
/// `u64` seed — including 0 — yields a well-mixed nonzero state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Deterministic construction from a single seed.
    pub fn seed_from_u64(seed: u64) -> Rng {
        // splitmix64 stream to fill the state.
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        Rng { s: [next(), next(), next(), next()] }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Next raw 32-bit output (upper half of [`Rng::next_u64`]).
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform in `[0, bound)` via Lemire's multiply-shift (slight modulo
    /// bias of < 2⁻⁶⁴·bound, irrelevant at our bounds). Panics if
    /// `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "Rng::below(0)");
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform `usize` in `[lo, hi)`. Panics if the range is empty.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "Rng::range_usize: empty range {lo}..{hi}");
        lo + self.below((hi - lo) as u64) as usize
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`. Panics if the range is empty or non-finite.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi && (hi - lo).is_finite(), "Rng::range_f64: bad range {lo}..{hi}");
        lo + self.f64() * (hi - lo)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// A uniformly chosen element, or `None` on an empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.range_usize(0, items.len())])
        }
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range_usize(0, i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::seed_from_u64(0x1ce5_0a11);
        let mut b = Rng::seed_from_u64(0x1ce5_0a11);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge_even_for_zero() {
        let mut a = Rng::seed_from_u64(0);
        let mut b = Rng::seed_from_u64(1);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(xs, ys);
        assert!(xs.iter().any(|&x| x != 0));
    }

    #[test]
    fn f64_stays_in_unit_interval_and_looks_uniform() {
        let mut rng = Rng::seed_from_u64(7);
        let n = 10_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn below_is_in_bounds_and_covers_small_domains() {
        let mut rng = Rng::seed_from_u64(42);
        let mut seen = [false; 5];
        for _ in 0..200 {
            let v = rng.below(5) as usize;
            assert!(v < 5);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = Rng::seed_from_u64(9);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.9)).count();
        assert!((8800..=9200).contains(&hits), "hits {hits}");
    }

    #[test]
    fn shuffle_permutes() {
        let mut rng = Rng::seed_from_u64(3);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "a 50-element shuffle should not be the identity");
    }

    #[test]
    fn choose_is_none_only_on_empty() {
        let mut rng = Rng::seed_from_u64(5);
        let empty: [u8; 0] = [];
        assert!(rng.choose(&empty).is_none());
        assert!(rng.choose(&[1, 2, 3]).is_some());
    }
}
