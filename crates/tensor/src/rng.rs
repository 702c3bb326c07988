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
//!
//! The stream is the keystream blocks at counters 0, 1, 2, …, 16 words
//! each, in order; block `c` puts `c`'s low word in state word 12 and its
//! high word in 13. Blocks are computed eight at a time: lane `l` of each
//! state word runs counter `c + l` (a lane past `u32::MAX` carries into its
//! word 13), so every ChaCha op is one vector op, and the eight blocks are
//! written out in counter order — the same words one block at a time would
//! give. Scalar draws read them through a one-batch buffer; bulk draws
//! ([`OrcoRng::add_normal`]) write whole batches straight into their own
//! buffer. Either way a stream's words never depend on how they were
//! taken. The price of the batch is paid up front: a generator that draws
//! only a word or two computes eight blocks for them.

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
        unit_f32(self.inner.next_u32())
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
        let w1 = self.inner.next_u32();
        box_muller(w1, self.inner.next_u32())
    }

    /// Normal sample with the given mean and standard deviation.
    #[must_use]
    pub fn normal(&mut self, mean: f32, std_dev: f32) -> f32 {
        mean + std_dev * self.standard_normal()
    }

    /// Adds a normal sample with the given mean and standard deviation to
    /// each element of `out`, in order: the same words, the same formula
    /// and the same bits as `for x in out { *x += self.normal(mean,
    /// std_dev) }`, with the words drawn in bulk.
    pub fn add_normal(&mut self, out: &mut [f32], mean: f32, std_dev: f32) {
        // Two words per draw; a fixed stack buffer, so nothing is allocated.
        const DRAWS: usize = 256;
        let mut words = [0u32; 2 * DRAWS];
        for chunk in out.chunks_mut(DRAWS) {
            let words = &mut words[..2 * chunk.len()];
            self.inner.fill(words);
            for (x, w) in chunk.iter_mut().zip(words.chunks_exact(2)) {
                *x += mean + std_dev * box_muller(w[0], w[1]);
            }
        }
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

/// Uniform `f32` in `[0, 1)` from one word: its 24 high bits, so every
/// representable multiple of 2⁻²⁴ in `[0, 1)`.
fn unit_f32(word: u32) -> f32 {
    (word >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
}

/// Box–Muller (avoids pulling in rand_distr): one standard normal from two
/// words, the first drawn first.
fn box_muller(w1: u32, w2: u32) -> f32 {
    let u1 = unit_f32(w1).max(f32::MIN_POSITIVE);
    let u2 = unit_f32(w2);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
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
    /// The counter of the next block to compute; the buffered batch holds
    /// the [`WIDE`] blocks before it.
    counter: u64,
    batch: [u32; BATCH],
    next_word: usize,
}

/// Blocks computed at once: each state word is a vector of eight lanes,
/// one ymm register on x86-64-v3.
const WIDE: usize = 8;

/// Words in one batch of [`WIDE`] blocks.
const BATCH: usize = 16 * WIDE;

impl ChaCha8 {
    fn from_seed_u64(seed: u64) -> Self {
        let mut state = seed;
        let mut key = [0u32; 8];
        for pair in key.chunks_mut(2) {
            let v = splitmix64(&mut state);
            pair[0] = v as u32;
            pair[1] = (v >> 32) as u32;
        }
        Self { key, counter: 0, batch: [0; BATCH], next_word: BATCH }
    }

    fn next_u32(&mut self) -> u32 {
        if self.next_word == BATCH {
            self.refill();
        }
        let w = self.batch[self.next_word];
        self.next_word += 1;
        w
    }

    /// Fills `out` with the next `out.len()` words of the stream — the
    /// words, and the state after, of `out.len()` calls to `next_u32`:
    /// first the buffered batch's unread words, then whole batches
    /// straight from [`blocks`](Self::blocks), and the last under
    /// [`BATCH`] words through the buffer.
    fn fill(&mut self, out: &mut [u32]) {
        let buffered = (BATCH - self.next_word).min(out.len());
        let (head, rest) = out.split_at_mut(buffered);
        head.copy_from_slice(&self.batch[self.next_word..self.next_word + buffered]);
        self.next_word += buffered;
        // `rest` is empty unless the buffer now is, so the stream goes on
        // at block `counter`.
        let mut batches = rest.chunks_exact_mut(BATCH);
        for batch in &mut batches {
            Self::blocks(&self.key, self.counter, batch.try_into().expect("whole batches"));
            self.counter = self.counter.wrapping_add(WIDE as u64);
        }
        let tail = batches.into_remainder();
        if !tail.is_empty() {
            self.refill();
            tail.copy_from_slice(&self.batch[..tail.len()]);
            self.next_word = tail.len();
        }
    }

    fn refill(&mut self) {
        Self::blocks(&self.key, self.counter, &mut self.batch);
        self.counter = self.counter.wrapping_add(WIDE as u64);
        self.next_word = 0;
    }

    /// Writes the [`WIDE`] keystream blocks at counters `counter + l`,
    /// `l < WIDE`, to `out` in counter order. The one ChaCha8 body: lane
    /// `l` of each state word belongs to block `l`, so every ChaCha op is
    /// one vector op. The 64-bit counter is split low word first into
    /// state words 12 and 13, so a lane past `u32::MAX` carries into its
    /// word 13. Out of line, so the batch keeps its own register
    /// allocation.
    #[inline(never)]
    fn blocks(key: &[u32; 8], counter: u64, out: &mut [u32; BATCH]) {
        let counter = |l: usize| counter.wrapping_add(l as u64);
        let k = |i: usize| [key[i]; WIDE];
        // "expand 32-byte k" constants.
        let mut x = [
            [0x6170_7865; WIDE],
            [0x3320_646e; WIDE],
            [0x7962_2d32; WIDE],
            [0x6b20_6574; WIDE],
            k(0),
            k(1),
            k(2),
            k(3),
            k(4),
            k(5),
            k(6),
            k(7),
            std::array::from_fn(|l| counter(l) as u32),
            std::array::from_fn(|l| (counter(l) >> 32) as u32),
            [0; WIDE],
            [0; WIDE],
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
        for (word, start) in x.iter_mut().zip(&input) {
            *word = add(*word, *start);
        }
        for (lane, block) in out.chunks_exact_mut(16).enumerate() {
            for (w, word) in block.iter_mut().zip(&x) {
                *w = word[lane];
            }
        }
    }
}

/// The ChaCha quarter round on state words `a`, `b`, `c`, `d`, each a
/// vector of [`WIDE`] lanes. Inlined, so the word indices are constants
/// and the state stays in registers.
#[inline(always)]
fn quarter_round(x: &mut [Lanes; 16], a: usize, b: usize, c: usize, d: usize) {
    x[a] = add(x[a], x[b]);
    x[d] = xor_rotate(x[d], x[a], 16);
    x[c] = add(x[c], x[d]);
    x[b] = xor_rotate(x[b], x[c], 12);
    x[a] = add(x[a], x[b]);
    x[d] = xor_rotate(x[d], x[a], 8);
    x[c] = add(x[c], x[d]);
    x[b] = xor_rotate(x[b], x[c], 7);
}

/// One ChaCha state word across the [`WIDE`] blocks of a batch.
type Lanes = [u32; WIDE];

#[inline(always)]
fn add(a: Lanes, b: Lanes) -> Lanes {
    std::array::from_fn(|l| a[l].wrapping_add(b[l]))
}

#[inline(always)]
fn xor_rotate(a: Lanes, b: Lanes, by: u32) -> Lanes {
    std::array::from_fn(|l| (a[l] ^ b[l]).rotate_left(by))
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
        // RFC 7539 §2.1.1 test vector, in every lane.
        let mut x = [[0u32; WIDE]; 16];
        x[0] = [0x1111_1111; WIDE];
        x[1] = [0x0102_0304; WIDE];
        x[2] = [0x9b8d_6f43; WIDE];
        x[3] = [0x0123_4567; WIDE];
        quarter_round(&mut x, 0, 1, 2, 3);
        assert_eq!(x[0], [0xea2a_92f4; WIDE]);
        assert_eq!(x[1], [0xcb1c_f8ce; WIDE]);
        assert_eq!(x[2], [0x4581_472e; WIDE]);
        assert_eq!(x[3], [0x5881_c4bb; WIDE]);
    }

    /// The first 32 words (two blocks) of two seeds, as the one-block
    /// generator produced them.
    #[test]
    fn chacha8_known_answers() {
        const SEED_0: [u32; 32] = [
            0x2d8e_e5e8,
            0xbf94_d133,
            0xa6da_5a01,
            0x3a73_8775,
            0xc143_ee06,
            0x3d46_ff10,
            0xe9f6_424f,
            0x17c6_ab23,
            0x2fb6_898b,
            0x5ce2_479b,
            0x86bf_f662,
            0x0ae8_099f,
            0xc72f_90bd,
            0x5f2f_09fd,
            0x28e5_a01f,
            0x95d5_3efa,
            0x94ef_af48,
            0x1131_e62b,
            0x17d7_a4e4,
            0x9eec_7e55,
            0xcd4c_18d1,
            0xe553_e127,
            0x3505_e613,
            0xb9d5_51f1,
            0xd28d_82a2,
            0x0a1f_fcc2,
            0xf64a_441d,
            0xfc92_16ba,
            0x4b01_7931,
            0xb3c6_1fd5,
            0x23eb_502b,
            0xe857_b19d,
        ];
        const SEED_7: [u32; 32] = [
            0x5082_5212,
            0x6686_d7a0,
            0x9db4_1d41,
            0xc63a_5f92,
            0xe54a_caef,
            0x81e7_7dd0,
            0x2451_b109,
            0x112b_2c0d,
            0x4fdc_0bfc,
            0x88c0_87ca,
            0xc126_42c0,
            0x3e15_afb0,
            0x351f_857a,
            0xa752_b476,
            0x72ae_3ab2,
            0xbdb5_1629,
            0x5330_b601,
            0x4874_2709,
            0x1c89_1403,
            0x7ea5_2bd1,
            0xf9f0_07b6,
            0x23fe_d27a,
            0x0f26_f865,
            0x1d70_a621,
            0x559b_7d6b,
            0xa798_974c,
            0x3909_7ade,
            0xe9be_ef81,
            0xda10_7685,
            0x77d9_767e,
            0x993b_6e50,
            0x848d_006f,
        ];
        for (seed, want) in [(0, SEED_0), (7, SEED_7)] {
            let mut c = ChaCha8::from_seed_u64(seed);
            let got: [u32; 32] = std::array::from_fn(|_| c.next_u32());
            assert_eq!(got, want, "seed {seed}");
        }
    }

    /// `fill` hands out exactly the words repeated `next_u32` would — from
    /// every read position in the buffered batch, across a block counter's
    /// low-word carry — and leaves the stream where those calls leave it.
    #[test]
    fn fill_matches_repeated_next_u32() {
        for first_block in [0, (1u64 << 32) - 3] {
            for offset in 0..=BATCH {
                for len in [0, 1, 127, 128, 129, 1000] {
                    let mut ours = ChaCha8::from_seed_u64(7);
                    ours.counter = first_block;
                    ours.refill();
                    for _ in 0..offset {
                        let _ = ours.next_u32();
                    }
                    let mut theirs = ours.clone();
                    let case = format!("block {first_block}, offset {offset}, len {len}");

                    let mut got = vec![0; len];
                    ours.fill(&mut got);
                    let want: Vec<u32> = (0..len).map(|_| theirs.next_u32()).collect();
                    assert_eq!(got, want, "{case}");
                    assert_eq!(ours.counter, theirs.counter, "{case}");

                    let mut more = [0; 300];
                    ours.fill(&mut more);
                    let want: Vec<u32> = (0..300).map(|_| theirs.next_u32()).collect();
                    assert_eq!(more[..], want[..], "{case}, then 300 more");
                    for _ in 0..40 {
                        assert_eq!(
                            ours.next_u32(),
                            theirs.next_u32(),
                            "{case}, then one at a time"
                        );
                    }
                }
            }
        }
    }

    /// `add_normal` is a loop of `normal`, bit for bit, wherever the stream
    /// stands and however long the slice. `std_dev = 0` over `−0.0` pins
    /// the `mean +`: `0.0 + −0.0` is `+0.0`, and without it the sign of the
    /// draw would show.
    #[test]
    fn add_normal_matches_a_loop_of_normal() {
        let params = [(0.0, 1.0), (2.0, 3.0), (-1.5, 0.25), (0.0, 0.0), (0.0, -0.0)];
        for (mean, std_dev) in params {
            for offset in [0, 1, 16, 17, 127, 128, 129, 255] {
                for len in [0, 1, 7, 63, 64, 65, 255, 256, 257, 1000] {
                    let mut ours = OrcoRng::from_label("add-normal", len as u64);
                    for _ in 0..offset {
                        let _ = ours.inner.next_u32();
                    }
                    let mut theirs = ours.clone();
                    let base: Vec<f32> = (0..len)
                        .map(|i| if i % 3 == 0 { -0.0 } else { i as f32 * 0.37 - 5.0 })
                        .collect();
                    let mut got = base.clone();
                    ours.add_normal(&mut got, mean, std_dev);
                    let want: Vec<u32> =
                        base.iter().map(|x| (x + theirs.normal(mean, std_dev)).to_bits()).collect();
                    let got: Vec<u32> = got.iter().map(|x| x.to_bits()).collect();
                    let case = format!("N({mean}, {std_dev}), offset {offset}, len {len}");
                    assert_eq!(got, want, "{case}");
                    assert_eq!(ours.next_u64(), theirs.next_u64(), "{case}: stream after");
                }
            }
        }
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
