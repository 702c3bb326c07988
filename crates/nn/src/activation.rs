//! Element-wise activations, and a vectorised sigmoid with libm's bits.
//!
//! The paper's encoder and decoder are both `σ(W·x + b)`, so the sigmoid
//! runs over every element a codec produces. Written as
//! `1 / (1 + (-x).exp())` it is one scalar libm `expf` call per element —
//! about half of an MNIST-shaped `decode_batch`. Over a batch,
//! [`Activation::apply_inplace`] instead runs glibc 2.36's `expf` main path
//! (`sysdeps/ieee754/flt-32/e_expf.c`) ported to safe Rust: `x·32/ln 2`
//! rounded to an integer `k` by the `SHIFT` trick, the remainder `r` from
//! one fused multiply-add, `2^(k/32)` from a 32-entry table and the
//! exponent bits, and a degree-3 polynomial for `2^(r/32)` — all in f64,
//! rounded to f32 once. Every step is a lane-wise operation (the table read
//! one load per lane), so the loop vectorises where the libm call cannot.
//!
//! The port serves only the arguments glibc's main path serves,
//! `EXP_LO ..= EXP_HI` (`log 2⁻¹⁵⁰ ..= log 2¹²⁸`, rounded inward), and
//! there it returns the host libm's bits: a batch with any `-x` outside
//! that range, or any NaN, takes the scalar libm loop unchanged, so a
//! sigmoid gives the same bits on every path. The tests below hold the
//! port to `f32::exp` on a sample of bit patterns; the `#[ignore]`d
//! `exp_fast_path_matches_libm_on_every_bit_pattern` checks all 2³² of
//! them (~20 s in release, run by name in CI).
//!
//! Backward reads σ′ from the forward's *output* (see
//! [`Activation::derivative_from_output`]), so training calls no `exp`
//! after the forward.

/// Element-wise activation function.
///
/// The paper's encoder/decoder mappings (eqs. 1 and 3) are written as
/// `σ(W·x + b)`; the evaluation uses sigmoid for the autoencoder (outputs
/// are pixel intensities in `[0, 1]`) and ReLU inside the conv stacks of
/// DCSNet and the classifier.
///
/// # Examples
///
/// ```
/// use orco_nn::Activation;
///
/// assert_eq!(Activation::Relu.apply(-3.0), 0.0);
/// assert_eq!(Activation::Identity.apply(-3.0), -3.0);
/// assert!((Activation::Sigmoid.apply(0.0) - 0.5).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Activation {
    /// `f(x) = x`.
    Identity,
    /// Logistic sigmoid `1 / (1 + e^-x)`.
    Sigmoid,
    /// Rectified linear unit `max(0, x)`.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
}

impl Activation {
    /// Applies the activation to a scalar.
    #[must_use]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Identity => x,
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Relu => x.max(0.0),
            Activation::Tanh => x.tanh(),
        }
    }

    /// The derivative at the pre-activation `x`, read from the **output**
    /// `y = self.apply(x)`: the same bits as forming it from `x`, with no
    /// second `exp` or `tanh`.
    pub(crate) fn derivative_from_output(self, y: f32) -> f32 {
        match self {
            Activation::Identity => 1.0,
            Activation::Sigmoid => y * (1.0 - y),
            // y = max(x, 0) is positive exactly when x is.
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => 1.0 - y.powi(2),
        }
    }

    /// Applies the activation element-wise in place, with the same bits as
    /// [`Activation::apply`] on each element.
    pub(crate) fn apply_inplace(self, values: &mut [f32]) {
        match self {
            Activation::Sigmoid => sigmoid_inplace(values),
            _ => values.iter_mut().for_each(|v| *v = self.apply(*v)),
        }
    }

    /// Approximate FLOPs to evaluate this activation once (used by the
    /// simulated-compute model; exact constants do not matter, relative
    /// magnitudes do).
    #[must_use]
    pub(crate) fn flops(self) -> u64 {
        match self {
            Activation::Identity => 0,
            Activation::Relu => 1,
            Activation::Sigmoid => 4,
            Activation::Tanh => 5,
        }
    }
}

/// The smallest `expf` argument glibc's main path serves:
/// `-0x1.9fe368p6 ≈ -103.97` (`log 2⁻¹⁵⁰`, below which it underflows to 0).
const EXP_LO: f32 = f32::from_bits(0xc2cf_f1b4);
/// The largest: `0x1.62e42ep6 ≈ 88.72` (`log 2¹²⁸`, above which it
/// overflows to infinity).
const EXP_HI: f32 = f32::from_bits(0x42b1_7217);

/// `N`, the table size: `2^(k/N)` is read from the table.
const N: f64 = 32.0;
/// `N / ln 2`, glibc's `InvLn2N`.
const INV_LN2_N: f64 = f64::from_bits(0x3ff7_1547_652b_82fe) * N;
/// `0x1.8p52`: adding it rounds an f64 below 2⁵¹ to an integer, which then
/// sits in the low mantissa bits.
const SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);
/// `2^(r/N) ≈ 1 + C[2]·r + C[1]·r² + C[0]·r³`, glibc's `poly_scaled`:
/// its minimax coefficients for `2^r` divided by `N`, `N²`, `N³`.
const C: [f64; 3] = [
    f64::from_bits(0x3fac_6af8_4b91_2394) / (N * N * N),
    f64::from_bits(0x3fce_bfce_50fa_c4f3) / (N * N),
    f64::from_bits(0x3fe6_2e42_ff0c_52d6) / N,
];
/// `EXP2_TABLE[i] = bits(2^(i/N)) − (i << 47)`: adding `k << 47` to entry
/// `k mod N` puts `k div N` into the exponent field, giving `2^(k/N)`.
#[rustfmt::skip]
const EXP2_TABLE: [u64; 32] = [
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f, 0x3fef9301d0125b51,
    0x3fef72b83c7d517b, 0x3fef54873168b9aa, 0x3fef387a6e756238, 0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715, 0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429, 0x3feea47eb03a5585,
    0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74, 0x3feea11473eb0187, 0x3feea589994cce13,
    0x3feeace5422aa0db, 0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c, 0x3fef3720dcef9069,
    0x3fef5818dcfba487, 0x3fef7c97337b9b5f, 0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
];

/// Whether `x` is an argument the ported `expf` serves (false for NaN).
fn exp_admits(x: f32) -> bool {
    (EXP_LO..=EXP_HI).contains(&x)
}

/// glibc 2.36's `expf` main path: `f32::exp(x)`'s bits for `x` that
/// [`exp_admits`], and meaningless otherwise.
#[inline(always)]
fn exp_in_range(x: f32) -> f32 {
    let xd = f64::from(x);
    // x·N/ln 2 = k + r, k an integer, |r| ≤ 1/2 (round to nearest even).
    let kd = INV_LN2_N * xd + SHIFT;
    let ki = kd.to_bits();
    let kd = kd - SHIFT;
    // One rounding, as glibc's FMA build computes it (`mul_add` is
    // exact in every build: `vfmadd` here, libm's `fma` without the
    // feature); a separate multiply and subtract gives other bits on 2
    // inputs.
    let r = INV_LN2_N.mul_add(xd, -kd);
    let s = f64::from_bits(EXP2_TABLE[(ki % 32) as usize].wrapping_add(ki << 47));
    let z = C[0] * r + C[1];
    let r2 = r * r;
    let y = C[2] * r + 1.0;
    let y = z * r2 + y;
    (y * s) as f32
}

/// `σ(v)` over `values`, with [`Activation::apply`]'s bits on each one.
fn sigmoid_inplace(values: &mut [f32]) {
    // One pass over the whole slice, then one select-free loop: a check
    // inside the loop would make LLVM keep it scalar.
    if values.iter().fold(true, |all, &v| all & exp_admits(-v)) {
        sigmoid_in_range(values);
    } else {
        for v in values {
            *v = Activation::Sigmoid.apply(*v);
        }
    }
}

/// `σ(v)` over `values` whose every `-v` [`exp_admits`]. Kept out of line:
/// inlined into a caller's `match`, LLVM sinks the table read behind
/// selects and the loop stays scalar.
#[inline(never)]
fn sigmoid_in_range(values: &mut [f32]) {
    for v in values {
        *v = 1.0 / (1.0 + exp_in_range(-*v));
    }
}

#[cfg(test)]
mod tests {
    //! The oracle throughout is the host's libm, `f32::exp`. On x86-64
    //! glibc runs its FMA build of `expf` wherever the CPU has FMA — every
    //! host the `x86-64-v3` build runs on — and that is the build the port
    //! reproduces. glibc's non-FMA build (an older CPU, running the SSE2
    //! build) computes `r` with a separate multiply and subtract and differs
    //! from the port on 2 of the 2³² inputs, `0x4202422f` (≈ 32.56) and
    //! `0xc27c65d9` (≈ −63.10).

    use super::*;

    /// Every bit pattern the exhaustive test would visit, thinned to every
    /// 4099th, plus the edges: both thresholds and their neighbours, ±0,
    /// subnormals, ±∞ and NaN payloads of either sign.
    fn sampled_patterns() -> Vec<f32> {
        let mut xs: Vec<f32> = (0..=u32::MAX).step_by(4099).map(f32::from_bits).collect();
        for edge in [EXP_LO, EXP_HI, -EXP_LO, -EXP_HI] {
            xs.extend([edge.next_down(), edge, edge.next_up()]);
        }
        xs.extend([0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::MIN, f32::MAX]);
        for bits in [0x0000_0001, 0x0000_0002, 0x003f_ffff, 0x0040_0000, 0x007f_ffff, 0x0080_0000] {
            xs.extend([f32::from_bits(bits), -f32::from_bits(bits)]);
        }
        for bits in [0x7fc0_0000, 0x7f80_0001, 0x7fbf_ffff, 0x7fc0_0001, 0x7fff_ffff, 0x7fd5_5555] {
            xs.extend([f32::from_bits(bits), -f32::from_bits(bits)]);
        }
        xs
    }

    /// `apply`'s bits, compared as bits so NaN payloads count.
    fn bits_of(act: Activation, xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|&x| act.apply(x).to_bits()).collect()
    }

    /// The derivative as the layers formed it before backward read it from
    /// the output: from the pre-activation, calling `exp` / `tanh` again.
    fn derivative_from_pre(act: Activation, x: f32) -> f32 {
        match act {
            Activation::Identity => 1.0,
            Activation::Sigmoid => {
                let s = act.apply(x);
                s * (1.0 - s)
            }
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => 1.0 - x.tanh().powi(2),
        }
    }

    #[test]
    fn the_exp_table_is_two_to_the_i_over_32_less_its_exponent_step() {
        for (i, &entry) in (0u64..).zip(&EXP2_TABLE) {
            let derived = (i as f64 / 32.0).exp2().to_bits().wrapping_sub(i << 47);
            assert_eq!(entry, derived, "entry {i}");
        }
    }

    #[test]
    fn the_guard_admits_exactly_its_closed_range() {
        for x in [EXP_LO, EXP_HI, 0.0, -0.0, f32::from_bits(1), -88.0, 88.0] {
            assert!(exp_admits(x), "{x:e}");
        }
        let outside = [EXP_LO.next_down(), EXP_HI.next_up(), f32::INFINITY, f32::NEG_INFINITY];
        for x in outside.into_iter().chain([f32::NAN, -f32::NAN, f32::from_bits(0x7f80_0001)]) {
            assert!(!exp_admits(x), "{x:e} ({:#010x})", x.to_bits());
        }
        // glibc's main path ends where `expf` leaves the normal and
        // subnormal range: just outside, libm gives 0 and ∞.
        assert_eq!(EXP_LO.next_down().exp(), 0.0);
        assert!(EXP_LO.exp() > 0.0);
        assert_eq!(EXP_HI.next_up().exp(), f32::INFINITY);
        assert!(EXP_HI.exp().is_finite());
    }

    #[test]
    fn the_exp_fast_path_matches_libm_on_sampled_bit_patterns() {
        let mut admitted = 0;
        for x in sampled_patterns() {
            if exp_admits(x) {
                admitted += 1;
                assert_eq!(
                    exp_in_range(x).to_bits(),
                    x.exp().to_bits(),
                    "exp({x:e}), pattern {:#010x}",
                    x.to_bits()
                );
            }
        }
        assert!(admitted > 500_000, "only {admitted} sampled patterns reached the fast path");
    }

    /// The sigmoid of a batch through both of its paths — the ported loop
    /// when every element is in range, the libm loop when one is not —
    /// against [`Activation::apply`] element by element.
    #[test]
    fn a_batch_sigmoid_has_the_scalar_sigmoids_bits_on_both_paths() {
        let xs = sampled_patterns();
        let (in_range, out_of_range): (Vec<f32>, Vec<f32>) =
            xs.iter().partition(|&&x| exp_admits(-x));
        assert!(!in_range.is_empty() && !out_of_range.is_empty());
        let batches =
            [in_range.clone(), out_of_range, [&in_range[..100], &[f32::NAN]].concat(), xs];
        for values in batches {
            let mut out = values.clone();
            Activation::Sigmoid.apply_inplace(&mut out);
            let got: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, bits_of(Activation::Sigmoid, &values));
        }
    }

    #[test]
    fn the_derivative_from_the_output_has_the_bits_of_the_one_from_the_input() {
        let xs = sampled_patterns();
        for act in [Activation::Identity, Activation::Sigmoid, Activation::Relu, Activation::Tanh] {
            let mut out = xs.clone();
            act.apply_inplace(&mut out);
            for (&x, &y) in xs.iter().zip(&out) {
                assert_eq!(
                    act.derivative_from_output(y).to_bits(),
                    derivative_from_pre(act, x).to_bits(),
                    "{act:?} at {x:e} ({:#010x})",
                    x.to_bits()
                );
            }
        }
    }

    /// All 2³² bit patterns: the port equals `f32::exp` on each one the
    /// guard admits, and the guard admits exactly the patterns of
    /// `EXP_LO ..= EXP_HI` (both zeros included). About 20 s in release on
    /// one thread; CI runs it by name.
    #[test]
    #[ignore = "exhaustive: every f32 bit pattern, ~20 s in release"]
    fn exp_fast_path_matches_libm_on_every_bit_pattern() {
        let mut admitted = 0u64;
        for bits in 0..=u32::MAX {
            let x = f32::from_bits(bits);
            if exp_admits(x) {
                admitted += 1;
                assert_eq!(exp_in_range(x).to_bits(), x.exp().to_bits(), "pattern {bits:#010x}");
            }
        }
        let expected =
            u64::from(EXP_HI.to_bits()) + 1 + u64::from(EXP_LO.to_bits() - 0x8000_0000) + 1;
        assert_eq!(admitted, expected);
    }

    #[test]
    fn sigmoid_range_and_symmetry() {
        let s = Activation::Sigmoid;
        for x in [-10.0, -1.0, 0.0, 1.0, 10.0] {
            let v = s.apply(x);
            assert!((0.0..=1.0).contains(&v));
            assert!((s.apply(-x) - (1.0 - v)).abs() < 1e-6);
        }
    }

    #[test]
    fn relu_values() {
        assert_eq!(Activation::Relu.apply(3.0), 3.0);
        assert_eq!(Activation::Relu.apply(-3.0), 0.0);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let eps = 1e-3_f32;
        for act in [Activation::Identity, Activation::Sigmoid, Activation::Tanh] {
            for x in [-2.0f32, -0.5, 0.3, 1.7] {
                let numeric = (act.apply(x + eps) - act.apply(x - eps)) / (2.0 * eps);
                let analytic = act.derivative_from_output(act.apply(x));
                assert!(
                    (numeric - analytic).abs() < 1e-2,
                    "{act:?} at {x}: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn relu_derivative_is_zero_at_and_below_zero() {
        let relu = Activation::Relu;
        let slopes = [-1.0, 0.0, 2.0].map(|x| relu.derivative_from_output(relu.apply(x)));
        assert_eq!(slopes, [0.0, 0.0, 1.0]);
    }

    #[test]
    fn tanh_derivative_at_zero_is_one() {
        assert_eq!(Activation::Tanh.derivative_from_output(0.0), 1.0);
    }
}
