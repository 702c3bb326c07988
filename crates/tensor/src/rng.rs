//! Deterministic random-number generation for reproducible experiments.
//!
//! Every stochastic component of the reproduction — weight initialization,
//! Gaussian latent noise, dataset synthesis, node placement — draws from an
//! [`OrcoRng`], a ChaCha8-based generator seeded either directly or by
//! hashing a `(label, index)` pair with [`OrcoRng::from_label`]. Labelled
//! seeding gives independent, stable streams per subsystem: re-running any
//! experiment binary reproduces its figures bit-for-bit, and adding a new
//! consumer of randomness does not perturb existing streams.
//!
//! The ChaCha8 core is implemented in this module (the build environment has
//! no crates.io access, so `rand_chacha` is not available); its output is a
//! pure function of the seed and is stable across platforms and releases.

/// A deterministic random number generator with labelled sub-streams.
///
/// Wraps a self-contained ChaCha8 stream cipher used as a generator. ChaCha8
/// output is fully specified by the seed, unlike `rand::rngs::StdRng`, which
/// is explicitly allowed to change algorithm between releases.
///
/// # Examples
///
/// ```
/// use orco_tensor::OrcoRng;
///
/// let mut a = OrcoRng::from_label("encoder-init", 0);
/// let mut b = OrcoRng::from_label("encoder-init", 0);
/// assert_eq!(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
///
/// let mut c = OrcoRng::from_label("encoder-init", 1);
/// assert_ne!(a.uniform(0.0, 1.0), c.uniform(0.0, 1.0));
/// ```
#[derive(Debug, Clone)]
pub struct OrcoRng {
    inner: ChaCha8,
}

impl OrcoRng {
    /// Creates a generator from a raw 64-bit seed.
    #[must_use]
    pub fn from_seed_u64(seed: u64) -> Self {
        Self { inner: ChaCha8::from_seed_u64(seed) }
    }

    /// Creates a generator from a textual label and an index.
    ///
    /// The label is hashed with FNV-1a; distinct `(label, index)` pairs give
    /// independent streams.
    #[must_use]
    pub fn from_label(label: &str, index: u64) -> Self {
        Self::from_seed_u64(fnv1a64(label.as_bytes()) ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Derives a child generator for a sub-component.
    ///
    /// The child stream is independent of both the parent's future output
    /// and other children derived with different labels.
    #[must_use]
    pub fn derive(&mut self, label: &str) -> Self {
        let salt = self.next_u64();
        Self::from_seed_u64(fnv1a64(label.as_bytes()) ^ salt)
    }

    /// Next raw 64-bit value.
    #[must_use]
    pub fn next_u64(&mut self) -> u64 {
        let lo = u64::from(self.inner.next_u32());
        let hi = u64::from(self.inner.next_u32());
        (hi << 32) | lo
    }

    /// Uniform `f32` in `[0, 1)`.
    #[must_use]
    pub(crate) fn next_f32(&mut self) -> f32 {
        // 24 high bits → all representable multiples of 2⁻²⁴ in [0, 1).
        (self.inner.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// Uniform `f64` in `[0, 1)`.
    #[must_use]
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits → all representable multiples of 2⁻⁵³ in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f32` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    #[must_use]
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        assert!(lo < hi, "uniform: empty range [{lo}, {hi})");
        lo + (hi - lo) * self.next_f32()
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[must_use]
    pub fn below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "below: bound must be positive");
        self.range_u64(bound as u64) as usize
    }

    /// Standard normal sample via Box–Muller.
    #[must_use]
    pub(crate) fn standard_normal(&mut self) -> f32 {
        // Box–Muller: avoids pulling in rand_distr.
        let u1 = self.next_f32().max(f32::MIN_POSITIVE);
        let u2 = self.next_f32();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
    }

    /// Normal sample with the given mean and standard deviation.
    #[must_use]
    pub fn normal(&mut self, mean: f32, std_dev: f32) -> f32 {
        mean + std_dev * self.standard_normal()
    }

    /// Bernoulli trial with probability `p` of `true`.
    #[must_use]
    pub fn bernoulli(&mut self, p: f32) -> bool {
        self.next_f32() < p
    }

    /// Bernoulli trial with an `f64` probability of `true`.
    ///
    /// Preferred for simulation parameters that are natively `f64` (link
    /// loss probabilities): comparing against a 53-bit uniform draw avoids
    /// the precision truncation of casting `p` down to `f32` first.
    #[must_use]
    pub fn bernoulli_f64(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.range_u64(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `[0, n)` (order unspecified).
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    #[must_use]
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "sample_indices: k={k} > n={n}");
        let mut idx: Vec<usize> = (0..n).collect();
        // Partial Fisher–Yates: shuffle the first k positions.
        for i in 0..k {
            let j = i + self.range_u64((n - i) as u64) as usize;
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }

    /// Unbiased uniform draw from `[0, bound)` via rejection sampling.
    fn range_u64(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Widening-multiply trick (Lemire): reject the biased zone.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let r = self.next_u64();
            let mul = u128::from(r) * u128::from(bound);
            if (mul as u64) >= threshold {
                return (mul >> 64) as u64;
            }
        }
    }
}

/// FNV-1a 64-bit hash — the workspace's one stable, dependency-free hash.
/// Used for RNG label hashing here and for cluster→shard pinning in the
/// serving layer; public so the constants live in exactly one place.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Self-contained ChaCha8 keystream generator.
///
/// The 64-bit seed is expanded to a 256-bit key with SplitMix64; the block
/// counter starts at zero. Each 64-byte block yields 16 output words.
#[derive(Debug, Clone)]
struct ChaCha8 {
    key: [u32; 8],
    counter: u64,
    block: [u32; 16],
    next_word: usize,
}

impl ChaCha8 {
    fn from_seed_u64(seed: u64) -> Self {
        let mut state = seed;
        let mut key = [0u32; 8];
        for pair in key.chunks_mut(2) {
            let v = splitmix64(&mut state);
            pair[0] = v as u32;
            pair[1] = (v >> 32) as u32;
        }
        Self { key, counter: 0, block: [0; 16], next_word: 16 }
    }

    fn next_u32(&mut self) -> u32 {
        if self.next_word == 16 {
            self.refill();
        }
        let w = self.block[self.next_word];
        self.next_word += 1;
        w
    }

    fn refill(&mut self) {
        // "expand 32-byte k" constants.
        let mut x = [
            0x6170_7865,
            0x3320_646e,
            0x7962_2d32,
            0x6b20_6574,
            self.key[0],
            self.key[1],
            self.key[2],
            self.key[3],
            self.key[4],
            self.key[5],
            self.key[6],
            self.key[7],
            self.counter as u32,
            (self.counter >> 32) as u32,
            0,
            0,
        ];
        let input = x;
        for _ in 0..4 {
            // Column round.
            quarter_round(&mut x, 0, 4, 8, 12);
            quarter_round(&mut x, 1, 5, 9, 13);
            quarter_round(&mut x, 2, 6, 10, 14);
            quarter_round(&mut x, 3, 7, 11, 15);
            // Diagonal round.
            quarter_round(&mut x, 0, 5, 10, 15);
            quarter_round(&mut x, 1, 6, 11, 12);
            quarter_round(&mut x, 2, 7, 8, 13);
            quarter_round(&mut x, 3, 4, 9, 14);
        }
        for (out, (a, b)) in self.block.iter_mut().zip(x.iter().zip(&input)) {
            *out = a.wrapping_add(*b);
        }
        self.counter = self.counter.wrapping_add(1);
        self.next_word = 0;
    }
}

fn quarter_round(x: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    x[a] = x[a].wrapping_add(x[b]);
    x[d] = (x[d] ^ x[a]).rotate_left(16);
    x[c] = x[c].wrapping_add(x[d]);
    x[b] = (x[b] ^ x[c]).rotate_left(12);
    x[a] = x[a].wrapping_add(x[b]);
    x[d] = (x[d] ^ x[a]).rotate_left(8);
    x[c] = x[c].wrapping_add(x[d]);
    x[b] = (x[b] ^ x[c]).rotate_left(7);
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labelled_streams_are_deterministic() {
        let mut a = OrcoRng::from_label("x", 7);
        let mut b = OrcoRng::from_label("x", 7);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_labels_differ() {
        let mut a = OrcoRng::from_label("alpha", 0);
        let mut b = OrcoRng::from_label("beta", 0);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn chacha_quarter_round_reference() {
        // RFC 7539 §2.1.1 test vector.
        let mut x = [0u32; 16];
        x[0] = 0x1111_1111;
        x[1] = 0x0102_0304;
        x[2] = 0x9b8d_6f43;
        x[3] = 0x0123_4567;
        quarter_round(&mut x, 0, 1, 2, 3);
        assert_eq!(x[0], 0xea2a_92f4);
        assert_eq!(x[1], 0xcb1c_f8ce);
        assert_eq!(x[2], 0x4581_472e);
        assert_eq!(x[3], 0x5881_c4bb);
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = OrcoRng::from_label("normal-test", 0);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| rng.normal(2.0, 3.0)).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let var = samples.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / n as f32;
        assert!((mean - 2.0).abs() < 0.1, "mean {mean}");
        assert!((var - 9.0).abs() < 0.5, "var {var}");
    }

    #[test]
    fn uniform_respects_range() {
        let mut rng = OrcoRng::from_label("uniform-test", 0);
        for _ in 0..1000 {
            let v = rng.uniform(-1.5, 2.5);
            assert!((-1.5..2.5).contains(&v));
        }
    }

    #[test]
    fn next_f32_is_in_unit_interval() {
        let mut rng = OrcoRng::from_label("unit-test", 0);
        for _ in 0..10_000 {
            let v = rng.next_f32();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn below_covers_all_residues() {
        let mut rng = OrcoRng::from_label("below-test", 0);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[rng.below(7)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = OrcoRng::from_label("shuffle-test", 0);
        let mut v: Vec<usize> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_distinct() {
        let mut rng = OrcoRng::from_label("sample-test", 0);
        let idx = rng.sample_indices(50, 20);
        assert_eq!(idx.len(), 20);
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 20);
        assert!(sorted.iter().all(|&i| i < 50));
    }

    #[test]
    fn derive_gives_independent_children() {
        let mut parent = OrcoRng::from_label("parent", 0);
        let mut c1 = parent.derive("child");
        let mut c2 = parent.derive("child");
        // Two derivations at different parent states differ.
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn bernoulli_extremes() {
        let mut rng = OrcoRng::from_label("bern", 0);
        assert!(!rng.bernoulli(0.0));
        assert!(rng.bernoulli(1.1));
    }

    #[test]
    fn bernoulli_f64_extremes_and_rate() {
        let mut rng = OrcoRng::from_label("bern64", 0);
        assert!(!rng.bernoulli_f64(0.0));
        assert!(rng.bernoulli_f64(1.1));
        let hits = (0..10_000).filter(|_| rng.bernoulli_f64(0.3)).count();
        assert!((2800..3200).contains(&hits), "hit rate {hits}/10000");
    }

    #[test]
    fn next_f64_is_in_unit_interval_and_uses_full_precision() {
        let mut rng = OrcoRng::from_label("unit64", 0);
        let mut saw_small_mantissa_detail = false;
        for _ in 0..10_000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
            // An f32-derived value would survive the roundtrip exactly.
            if f64::from(v as f32) != v {
                saw_small_mantissa_detail = true;
            }
        }
        assert!(saw_small_mantissa_detail, "next_f64 should exceed f32 precision");
    }

    #[test]
    fn bernoulli_f64_stream_is_pinned() {
        // Regression pin: the exact draw sequence for a known seed. The
        // network simulator's loss draws ride on this stream; if it ever
        // shifts, seeded experiment byte counts shift with it.
        let mut rng = OrcoRng::from_seed_u64(7);
        let draws: Vec<bool> = (0..16).map(|_| rng.bernoulli_f64(0.4)).collect();
        let pinned = [
            false, false, false, true, false, true, false, false, true, false, true, true, false,
            false, false, false,
        ];
        assert_eq!(draws, pinned);
    }
}
