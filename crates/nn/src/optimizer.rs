use orco_tensor::Matrix;

use crate::layer::Param;

/// The Adam optimizer (β₁ = 0.9, β₂ = 0.999, ε = 1e-8) with per-parameter
/// state.
///
/// The paper trains the asymmetric autoencoder with stochastic gradient
/// descent (eq. 5); every model in this reproduction — OrcoDCS, the
/// baselines, the classifier — uses Adam, which converges noticeably
/// faster, and the choice is orthogonal to the framework design.
///
/// State (first- and second-moment buffers) is keyed by the *position* of
/// each parameter in the visit handed to [`Optimizer::step`], so a given
/// optimizer instance must always be used with the same model.
#[derive(Debug, Clone)]
pub struct Optimizer {
    lr: f32,
    slots: Vec<Slot>,
    step_count: u64,
    grad_clip: Option<f32>,
}

const BETA1: f32 = 0.9;
const BETA2: f32 = 0.999;
const EPS: f32 = 1e-8;

/// One parameter's moment buffers, shaped like it.
#[derive(Debug, Clone)]
struct Slot {
    first: Matrix,
    second: Matrix,
}

impl Optimizer {
    /// Adam with learning rate `lr`.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive and finite.
    #[must_use]
    pub fn adam(lr: f32) -> Self {
        assert!(lr > 0.0 && lr.is_finite(), "adam: lr must be positive");
        Self { lr, slots: Vec::new(), step_count: 0, grad_clip: None }
    }

    /// Enables global gradient-norm clipping at `max_norm`.
    ///
    /// Clipping guards the online training loop against the occasional
    /// exploding batch when the fine-tuning monitor relaunches training on
    /// shifted data.
    ///
    /// # Panics
    ///
    /// Panics if `max_norm` is not positive.
    #[must_use]
    pub fn with_grad_clip(mut self, max_norm: f32) -> Self {
        assert!(max_norm > 0.0, "grad clip must be positive");
        self.grad_clip = Some(max_norm);
        self
    }

    /// Applies one update to every parameter given its accumulated gradient.
    ///
    /// `visit` walks the model's parameters in their stable order (a
    /// model's `for_each_param`) and is called twice: once to count them
    /// and bound the global gradient norm, once to update. Parameters and
    /// moments are updated in place, one fused pass per parameter, and the
    /// gradients are only read; nothing is allocated after the first step.
    ///
    /// The clip norm is defined as one `f32` sum of squares: each
    /// parameter's squares summed in order, the sums added in visiting
    /// order. That sum is one serial chain of dependent adds, so it is only
    /// taken — in a third visit, between the two — when an `f64` bound
    /// from the first visit cannot prove the clip stays off (the proof is
    /// `certainly_unclipped`'s doc); either way the step has the same
    /// bits.
    ///
    /// # Panics
    ///
    /// Panics if the number of parameters changes between calls (the
    /// optimizer would silently mis-associate its state otherwise).
    pub fn step(&mut self, mut visit: impl FnMut(&mut dyn FnMut(Param<'_>))) {
        let first_step = self.step_count == 0;
        self.step_count += 1;

        let (mut count, mut elements, mut lanes) = (0, 0, [0.0f64; LANES]);
        visit(&mut |p| {
            if first_step {
                let (rows, cols) = p.grad.shape();
                self.slots.push(Slot {
                    first: Matrix::zeros(rows, cols),
                    second: Matrix::zeros(rows, cols),
                });
            }
            if self.grad_clip.is_some() {
                add_squares(&mut lanes, p.grad.as_slice());
                elements += p.grad.len();
            }
            count += 1;
        });
        assert_eq!(
            self.slots.len(),
            count,
            "Optimizer::step: parameter count changed ({} -> {count})",
            self.slots.len()
        );
        // Multiplying by exactly 1.0 changes no bit of a gradient.
        let scale = match self.grad_clip {
            Some(max_norm) if !certainly_unclipped(&lanes, elements, max_norm) => {
                let mut total_sq = 0.0f32;
                visit(&mut |p| total_sq += p.grad.as_slice().iter().map(|g| g * g).sum::<f32>());
                let norm = total_sq.sqrt();
                if norm > max_norm {
                    max_norm / norm
                } else {
                    1.0
                }
            }
            _ => 1.0,
        };

        let t = self.step_count as f32;
        let (bc1, bc2) = (1.0 - BETA1.powf(t), 1.0 - BETA2.powf(t));
        let mut slots = self.slots.iter_mut();
        visit(&mut |p| {
            let slot = slots.next().expect("counted above");
            let moments = slot.first.as_mut_slice().iter_mut().zip(slot.second.as_mut_slice());
            let cells = p.value.as_mut_slice().iter_mut().zip(p.grad.as_slice());
            for ((w, &g), (m, v)) in cells.zip(moments) {
                let g = g * scale;
                *m = BETA1 * *m + (1.0 - BETA1) * g;
                *v = BETA2 * *v + (1.0 - BETA2) * g * g;
                let m_hat = *m / bc1;
                let v_hat = *v / bc2;
                *w -= self.lr * m_hat / (v_hat.sqrt() + EPS);
            }
        });
    }
}

/// Independent `f64` partial sums in [`add_squares`]: four ymm registers
/// on x86-64-v3, enough to hide the add latency.
const LANES: usize = 16;

/// Adds `(g as f64)²` for every `g` in `grad` to `lanes`, element `i` to
/// lane `i % LANES`. Each square is exact in `f64` (24 significant bits
/// squared fit in 53, and 2⁻²⁹⁸ is far above `f64`'s underflow), and the
/// lanes are independent, so the loop vectorises; out of line, so that it
/// does inside the optimizer's closure too.
#[inline(never)]
fn add_squares(lanes: &mut [f64; LANES], grad: &[f32]) {
    let mut acc = *lanes;
    let mut chunks = grad.chunks_exact(LANES);
    for chunk in &mut chunks {
        for (a, &g) in acc.iter_mut().zip(chunk) {
            *a += f64::from(g) * f64::from(g);
        }
    }
    for (a, &g) in acc.iter_mut().zip(chunks.remainder()) {
        *a += f64::from(g) * f64::from(g);
    }
    *lanes = acc;
}

/// Whether the clip norm of `n` gradient elements, whose exact squares
/// [`add_squares`] summed into `lanes`, is certainly at most `max_norm`:
/// then the step's `scale` is `1.0` without taking the `f32` sum.
///
/// Let `S = Σ gᵢ²` exactly, `Ŝ` the `f32` sum [`Optimizer::step`] defines
/// (each parameter's squares added in order, the sums added in visiting
/// order), `u = 2⁻²⁴` and `γ = n·u / (1 − n·u)`. Recursive summation
/// bounds (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd
/// ed., §3.1 and ch. 4):
///
/// * `fl(g·g) ≤ g²·(1 + u) + 2⁻¹⁵⁰`: relative error `u`, or, for a
///   square that underflows, at most half of the least subnormal.
/// * An `f32` add is exact when its result is subnormal and otherwise
///   off by a factor `1 + δ`, `|δ| ≤ u`. Starting from `±0.0` is exact,
///   and so is adding an empty parameter's `−0.0`. So a square meets at
///   most `(nₚ − 1) + (P − 1) ≤ n − 1` rounded adds, `nₚ` its parameter's
///   size and `P` the non-empty parameters.
/// * Hence, while nothing overflows, `Ŝ ≤ (1 + u)ⁿ·S + (1 + u)ⁿ⁻¹·n·2⁻¹⁵⁰
///   ≤ (1 + γ)·S + n·2⁻¹⁴⁹`, using `(1 + u)ⁿ ≤ 1 + γ` for `n·u < 1` and
///   `γ ≤ 1` for `n·u ≤ ½`. Every partial sum obeys the same bound, all
///   terms being non-negative; kept under `f32::MAX`, no add overflows.
///
/// The lanes' sum `B` is `S` with at most `n + LANES` `f64` roundings, so
/// `S ≤ B·(1 + 2⁻²⁹)` for `n < 2²³`; the test below rounds a few times
/// more, each below `2⁻⁵²`. Against the `γ ≥ 2⁻²⁴` the doubled `γ` adds,
/// these are lost: if `n·u < ½` and `B·(1 + 2γ) + n·2⁻¹⁴⁹` is below both
/// `max_norm²` and `f32::MAX` in `f64`, then `Ŝ ≤ max_norm²`. The square
/// root is correctly rounded and monotone, and `max_norm` is an `f32`, so
/// `fl(√Ŝ) ≤ max_norm`: no clip fires, and the scale is `1.0`. (For
/// `n = 0` both sides are 0.) A NaN or infinite gradient makes `B` NaN or
/// infinite and the test false.
fn certainly_unclipped(lanes: &[f64; LANES], n: usize, max_norm: f32) -> bool {
    let n = n as f64;
    let nu = n * f64::powi(2.0, -24);
    if nu >= 0.5 {
        return false;
    }
    let gamma = nu / (1.0 - nu);
    let b: f64 = lanes.iter().sum();
    let limit = (f64::from(max_norm) * f64::from(max_norm)).min(f64::from(f32::MAX));
    b * (1.0 + 2.0 * gamma) + n * f64::powi(2.0, -149) < limit
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimizes f(w) = ½‖w − target‖²; the optimizer must converge.
    fn run(opt: &mut Optimizer, iters: usize) -> f32 {
        let target = Matrix::from_vec(1, 3, vec![1.0, -2.0, 0.5]).unwrap();
        let mut w = Matrix::zeros(1, 3);
        let mut g = Matrix::zeros(1, 3);
        for _ in 0..iters {
            for ((gi, &wi), &ti) in
                g.as_mut_slice().iter_mut().zip(w.as_slice()).zip(target.as_slice())
            {
                *gi = wi - ti;
            }
            opt.step(|f| f(Param { value: &mut w, grad: &mut g }));
        }
        (&w - &target).norm_l2()
    }

    #[test]
    fn adam_converges_on_quadratic() {
        assert!(run(&mut Optimizer::adam(0.05), 400) < 1e-2);
    }

    #[test]
    fn grad_clip_scales_an_oversized_gradient_before_the_update() {
        // A norm-50 step then a norm-0.5 step: clipped at 1, the first must
        // enter the moment buffers as (0.6, 0.8), the second unscaled.
        let steps = |opt: &mut Optimizer, grads: [[f32; 2]; 2]| {
            let mut w = Matrix::zeros(1, 2);
            for g in grads {
                let mut g = Matrix::from_vec(1, 2, g.to_vec()).unwrap();
                opt.step(|f| f(Param { value: &mut w, grad: &mut g }));
            }
            w
        };
        let raw = [[30.0, 40.0], [0.3, 0.4]];
        let clipped = steps(&mut Optimizer::adam(0.1).with_grad_clip(1.0), raw);
        let prescaled = steps(&mut Optimizer::adam(0.1), [[0.6, 0.8], [0.3, 0.4]]);
        let unclipped = steps(&mut Optimizer::adam(0.1), raw);
        assert!(clipped.approx_eq(&prescaled, 1e-6), "{clipped} vs {prescaled}");
        assert!(clipped.max_abs_diff(&unclipped) > 1e-3, "{clipped} vs {unclipped}");
    }

    #[test]
    #[should_panic(expected = "parameter count changed")]
    fn param_count_change_is_detected() {
        let mut opt = Optimizer::adam(0.1);
        let mut w = Matrix::zeros(1, 2);
        let mut g = Matrix::zeros(1, 2);
        opt.step(|f| f(Param { value: &mut w, grad: &mut g }));
        let mut w2 = Matrix::zeros(1, 2);
        let mut g2 = Matrix::zeros(1, 2);
        opt.step(|f| {
            f(Param { value: &mut w, grad: &mut g });
            f(Param { value: &mut w2, grad: &mut g2 });
        });
    }

    #[test]
    #[should_panic(expected = "lr must be positive")]
    fn rejects_zero_lr() {
        let _ = Optimizer::adam(0.0);
    }

    impl Optimizer {
        /// The step with the clip norm as one recursive `f32` sum of every
        /// square in visiting order, and nothing else: the oracle
        /// [`Optimizer::step`] is held to, bit for bit.
        fn reference_step(&mut self, mut visit: impl FnMut(&mut dyn FnMut(Param<'_>))) {
            let first_step = self.step_count == 0;
            self.step_count += 1;
            let (mut count, mut total_sq) = (0, 0.0f32);
            visit(&mut |p| {
                if first_step {
                    let (rows, cols) = p.grad.shape();
                    self.slots.push(Slot {
                        first: Matrix::zeros(rows, cols),
                        second: Matrix::zeros(rows, cols),
                    });
                }
                if self.grad_clip.is_some() {
                    total_sq += p.grad.as_slice().iter().map(|g| g * g).sum::<f32>();
                }
                count += 1;
            });
            assert_eq!(self.slots.len(), count);
            let norm = total_sq.sqrt();
            let scale = match self.grad_clip {
                Some(max_norm) if norm > max_norm => max_norm / norm,
                _ => 1.0,
            };
            let t = self.step_count as f32;
            let (bc1, bc2) = (1.0 - BETA1.powf(t), 1.0 - BETA2.powf(t));
            let mut slots = self.slots.iter_mut();
            visit(&mut |p| {
                let slot = slots.next().expect("counted above");
                let moments = slot.first.as_mut_slice().iter_mut().zip(slot.second.as_mut_slice());
                let cells = p.value.as_mut_slice().iter_mut().zip(p.grad.as_slice());
                for ((w, &g), (m, v)) in cells.zip(moments) {
                    let g = g * scale;
                    *m = BETA1 * *m + (1.0 - BETA1) * g;
                    *v = BETA2 * *v + (1.0 - BETA2) * g * g;
                    let m_hat = *m / bc1;
                    let v_hat = *v / bc2;
                    *w -= self.lr * m_hat / (v_hat.sqrt() + EPS);
                }
            });
        }
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// The clip norm exactly as the oracle computes it.
    fn plain_norm(grads: &[Matrix]) -> f32 {
        let squares = |g: &Matrix| g.as_slice().iter().map(|g| g * g).sum::<f32>();
        grads.iter().fold(0.0f32, |total, g| total + squares(g)).sqrt()
    }

    /// One step of `opt` and of `oracle` over the same gradients; values
    /// and both moments must come out bit-equal.
    fn step_both(
        opt: &mut Optimizer,
        oracle: &mut Optimizer,
        ours: &mut [(Matrix, Matrix)],
        theirs: &mut [(Matrix, Matrix)],
        case: &str,
    ) {
        opt.step(|f| ours.iter_mut().for_each(|(w, g)| f(Param { value: w, grad: g })));
        oracle.reference_step(|f| {
            theirs.iter_mut().for_each(|(w, g)| f(Param { value: w, grad: g }))
        });
        for (i, ((w, _), (w_ref, _))) in ours.iter().zip(theirs.iter()).enumerate() {
            assert_eq!(bits(w), bits(w_ref), "{case}: param {i} values");
        }
        for (i, (slot, slot_ref)) in opt.slots.iter().zip(&oracle.slots).enumerate() {
            assert_eq!(bits(&slot.first), bits(&slot_ref.first), "{case}: param {i} first moment");
            assert_eq!(
                bits(&slot.second),
                bits(&slot_ref.second),
                "{case}: param {i} second moment"
            );
        }
    }

    /// Where a case's gradients sit against the clip.
    #[derive(Debug, Clone, Copy)]
    enum Clip {
        Off,
        /// Norms one to three orders of magnitude under `max_norm`.
        Under,
        /// The plain norm this many ulps from `max_norm`, when the scaling
        /// search lands there.
        Near(i32),
        /// Norms one to six orders of magnitude over `max_norm`.
        Over,
    }

    /// Values a gradient element is overwritten with in one case in four.
    const SPECIALS: [f32; 9] = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        0.0,
        -0.0,
        f32::MIN_POSITIVE,
        1.0e-40,  // subnormal
        -1.0e-45, // the smallest subnormal, negated
        3.0e19,   // squares to +inf in f32
    ];

    #[test]
    fn step_matches_the_plain_recursive_sum_bit_for_bit() {
        let mut rng = orco_tensor::OrcoRng::from_label("optimizer-oracle", 0);
        let widths = [1, 2, 3, 17, 40];
        let mut near_offsets = Vec::new();
        for case in 0..600 {
            let clip = match rng.below(4) {
                0 => Clip::Off,
                1 => Clip::Under,
                2 => Clip::Near(rng.below(9) as i32 - 4),
                _ => Clip::Over,
            };
            let max_norm = [1.0, 0.25, 7.5, 1.0e-30, 1.0e30][rng.below(5)];
            let n_params = 1 + rng.below(4);
            let shapes: Vec<(usize, usize)> =
                (0..n_params).map(|_| (1 + rng.below(3), widths[rng.below(5)])).collect();
            let lr = rng.uniform(1e-4, 0.1);
            let (mut opt, mut oracle) = (Optimizer::adam(lr), Optimizer::adam(lr));
            if !matches!(clip, Clip::Off) {
                opt = opt.with_grad_clip(max_norm);
                oracle = oracle.with_grad_clip(max_norm);
            }
            let mut ours: Vec<(Matrix, Matrix)> = shapes
                .iter()
                .map(|&(r, c)| {
                    (Matrix::from_fn(r, c, |_, _| rng.normal(0.0, 1.0)), Matrix::zeros(r, c))
                })
                .collect();
            let mut theirs = ours.clone();
            for step in 0..3 {
                let mut grads: Vec<Matrix> = shapes
                    .iter()
                    .map(|&(r, c)| Matrix::from_fn(r, c, |_, _| rng.normal(0.0, 1.0)))
                    .collect();
                let target = match clip {
                    Clip::Off | Clip::Under => max_norm * 10f32.powi(-1 - rng.below(3) as i32),
                    Clip::Over => max_norm * 10f32.powi(1 + rng.below(6) as i32),
                    Clip::Near(k) => f32::from_bits(max_norm.to_bits().wrapping_add_signed(k)),
                };
                // Scale towards the target norm; a few rounds of the
                // correction land within an ulp or two of it.
                for _ in 0..8 {
                    let norm = plain_norm(&grads);
                    if norm == target || norm == 0.0 || !norm.is_finite() {
                        break;
                    }
                    let c = target / norm;
                    grads.iter_mut().for_each(|g| g.map_inplace(|v| v * c));
                }
                // At 1e±30 the squares leave f32's range and the norm with
                // them; those cases test underflow and overflow instead.
                if matches!(clip, Clip::Near(_)) && (1e-3..1e3).contains(&max_norm) {
                    let norm = plain_norm(&grads);
                    near_offsets.push(i64::from(norm.to_bits()) - i64::from(max_norm.to_bits()));
                }
                if rng.below(4) == 0 {
                    let g = &mut grads[rng.below(n_params)];
                    let at = rng.below(g.len());
                    g.as_mut_slice()[at] = SPECIALS[rng.below(SPECIALS.len())];
                }
                for ((slot, slot_ref), g) in ours.iter_mut().zip(theirs.iter_mut()).zip(&grads) {
                    slot.1.as_mut_slice().copy_from_slice(g.as_slice());
                    slot_ref.1.as_mut_slice().copy_from_slice(g.as_slice());
                }
                let label =
                    format!("case {case} step {step}: {clip:?} at {max_norm}, shapes {shapes:?}");
                step_both(&mut opt, &mut oracle, &mut ours, &mut theirs, &label);
            }
        }
        // The near cases straddle the threshold: some norms land under it,
        // some on it, some over it.
        for want in [-1, 0, 1] {
            assert!(
                near_offsets.iter().any(|&d| d.signum() == want),
                "no near case landed with sign {want}: {near_offsets:?}"
            );
        }
        assert!(near_offsets.iter().all(|d| d.abs() <= 6), "{near_offsets:?}");
    }

    /// `max_norm` an `f32` strictly between the exact norm and the `f32`
    /// one — next to the exact norm, or half-way — so that the rounding of
    /// the sum alone decides whether the clip fires. Two regimes: 1000
    /// elements in `[0.5, 1)`, whose sum is tens of ulps off, and 100
    /// elements whose squares underflow to multiples of the least
    /// subnormal, a few percent off.
    #[test]
    fn max_norm_between_the_exact_and_the_plain_norm() {
        let mut rng = orco_tensor::OrcoRng::from_label("optimizer-straddle", 0);
        // Cases whose plain norm is under / over `max_norm`.
        let mut straddles = [0; 2];
        for case in 0..400 {
            let (len, lo, hi) = if case % 2 == 0 {
                (1000, 0.5, 1.0)
            } else {
                (100, 2f32.powi(-75), 2f32.powi(-74))
            };
            let grad = Matrix::from_fn(1, len, |_, _| rng.uniform(lo, hi));
            let exact = grad.as_slice().iter().map(|&g| f64::from(g).powi(2)).sum::<f64>().sqrt();
            let plain = plain_norm(std::slice::from_ref(&grad));
            let next_to_exact = if f64::from(plain) > exact {
                (exact as f32).next_up()
            } else {
                (exact as f32).next_down()
            };
            let half_way = ((exact + f64::from(plain)) / 2.0) as f32;
            for max_norm in [next_to_exact, half_way] {
                let m = f64::from(max_norm);
                if (m - exact) * (m - f64::from(plain)) >= 0.0 || (m / exact - 1.0).abs() < 1e-12 {
                    continue;
                }
                straddles[usize::from(plain > max_norm)] += 1;
                let mut opt = Optimizer::adam(0.01).with_grad_clip(max_norm);
                let mut oracle = opt.clone();
                let param = || (Matrix::from_fn(1, len, |_, c| c as f32 * 0.01), grad.clone());
                let (mut ours, mut theirs) = ([param()], [param()]);
                let label = format!("case {case}: exact {exact:e}, plain {plain:e}, max {m:e}");
                step_both(&mut opt, &mut oracle, &mut ours, &mut theirs, &label);
            }
        }
        assert!(straddles.iter().all(|&n| n >= 50), "straddles (under, over) {straddles:?}");
    }

    /// The `f32` sum is taken only when the bound cannot decide: a
    /// gradient well under the clip is visited twice, one at or over it,
    /// or with a NaN in it, three times.
    #[test]
    fn the_plain_sum_is_visited_only_when_the_bound_cannot_decide() {
        let visits = |grad: Vec<f32>| {
            let mut opt = Optimizer::adam(0.1).with_grad_clip(1.0);
            let mut w = Matrix::zeros(1, grad.len());
            let mut g = Matrix::from_vec(1, grad.len(), grad).unwrap();
            let mut calls = 0;
            opt.step(|f| {
                calls += 1;
                f(Param { value: &mut w, grad: &mut g });
            });
            calls
        };
        assert_eq!(visits(vec![0.3; 10]), 2);
        assert_eq!(visits(vec![0.0; 1000]), 2);
        assert_eq!(visits(vec![0.6, 0.8]), 3);
        assert_eq!(visits(vec![30.0, 40.0]), 3);
        assert_eq!(visits(vec![0.1, f32::NAN]), 3);
        assert_eq!(visits(vec![0.1, f32::INFINITY]), 3);
    }

    /// One gradient element, stepped across `max_norm` one ulp at a time:
    /// the norm is then `|g|` itself, so the cut between clipped and
    /// unclipped steps is where the oracle puts it.
    #[test]
    fn a_single_gradient_steps_across_the_clip_one_ulp_at_a_time() {
        for max_norm in [1.0f32, 0.3, 1.0e-20, 2.5e18] {
            for offset in -64i32..=64 {
                for sign in [1.0f32, -1.0] {
                    let g = sign * f32::from_bits(max_norm.to_bits().wrapping_add_signed(offset));
                    let mut opt = Optimizer::adam(0.01).with_grad_clip(max_norm);
                    let mut oracle = Optimizer::adam(0.01).with_grad_clip(max_norm);
                    let param = || {
                        (
                            Matrix::from_vec(1, 1, vec![0.5]).unwrap(),
                            Matrix::from_vec(1, 1, vec![g]).unwrap(),
                        )
                    };
                    let (mut ours, mut theirs) = ([param()], [param()]);
                    for _ in 0..3 {
                        let label = format!("g {g:e} against {max_norm:e}");
                        step_both(&mut opt, &mut oracle, &mut ours, &mut theirs, &label);
                    }
                }
            }
        }
    }
}
