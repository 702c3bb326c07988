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
    /// and take the global gradient norm, once to update. Parameters and
    /// moments are updated in place, one fused pass per parameter, and the
    /// gradients are only read; nothing is allocated after the first step.
    ///
    /// # Panics
    ///
    /// Panics if the number of parameters changes between calls (the
    /// optimizer would silently mis-associate its state otherwise).
    // orco-lint: region(no-alloc)
    pub fn step(&mut self, mut visit: impl FnMut(&mut dyn FnMut(Param<'_>))) {
        let first_step = self.step_count == 0;
        self.step_count += 1;

        // Global gradient-norm clipping: each parameter's squares summed
        // on their own, the sums added in visiting order.
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
        assert_eq!(
            self.slots.len(),
            count,
            "Optimizer::step: parameter count changed ({} -> {count})",
            self.slots.len()
        );
        // Multiplying by exactly 1.0 changes no bit of a gradient.
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
    // orco-lint: endregion
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
}
