use orco_tensor::Matrix;

use crate::layer::Param;

/// A first-order gradient optimizer with per-parameter state.
///
/// The paper trains the asymmetric autoencoder with stochastic gradient
/// descent (eq. 5); Adam and momentum variants are provided because the
/// baselines and sensitivity sweeps converge noticeably faster with them and
/// the choice is orthogonal to the framework design.
///
/// State (momentum/second-moment buffers) is keyed by the *position* of each
/// parameter in the `Vec<Param>` handed to [`Optimizer::step`], so a given
/// optimizer instance must always be used with the same model.
///
/// # Examples
///
/// ```
/// use orco_nn::Optimizer;
///
/// let opt = Optimizer::adam(1e-3);
/// assert!(format!("{opt:?}").contains("Adam"));
/// ```
#[derive(Debug, Clone)]
pub struct Optimizer {
    kind: Kind,
    slots: Vec<Slot>,
    step_count: u64,
    grad_clip: Option<f32>,
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    Sgd { lr: f32 },
    Momentum { lr: f32, mu: f32 },
    RmsProp { lr: f32, rho: f32, eps: f32 },
    Adam { lr: f32, beta1: f32, beta2: f32, eps: f32 },
}

#[derive(Debug, Clone, Default)]
struct Slot {
    first: Option<Matrix>,  // momentum / first moment
    second: Option<Matrix>, // second moment
}

impl Optimizer {
    /// Adam with the standard β₁ = 0.9, β₂ = 0.999, ε = 1e-8.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive and finite.
    #[must_use]
    pub fn adam(lr: f32) -> Self {
        assert!(lr > 0.0 && lr.is_finite(), "adam: lr must be positive");
        Self::with_kind(Kind::Adam { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8 })
    }

    fn with_kind(kind: Kind) -> Self {
        Self { kind, slots: Vec::new(), step_count: 0, grad_clip: None }
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
    /// # Panics
    ///
    /// Panics if the number of parameters changes between calls (the
    /// optimizer would silently mis-associate its state otherwise).
    pub fn step(&mut self, mut params: Vec<Param<'_>>) {
        if self.slots.is_empty() {
            self.slots = params.iter().map(|_| Slot::default()).collect();
        }
        assert_eq!(
            self.slots.len(),
            params.len(),
            "Optimizer::step: parameter count changed ({} -> {})",
            self.slots.len(),
            params.len()
        );
        self.step_count += 1;

        // Optional global gradient-norm clipping.
        let clip_scale = self.grad_clip.map(|max_norm| {
            let total_sq: f32 =
                params.iter().map(|p| p.grad.as_slice().iter().map(|g| g * g).sum::<f32>()).sum();
            let norm = total_sq.sqrt();
            if norm > max_norm {
                max_norm / norm
            } else {
                1.0
            }
        });

        for (slot, param) in self.slots.iter_mut().zip(params.iter_mut()) {
            let mut grad = param.grad.clone();
            if let Some(scale) = clip_scale {
                if scale != 1.0 {
                    grad *= scale;
                }
            }
            match self.kind {
                Kind::Sgd { lr } => {
                    param.value.add_scaled_inplace(&grad, -lr);
                }
                Kind::Momentum { lr, mu } => {
                    let vel =
                        slot.first.get_or_insert_with(|| Matrix::zeros(grad.rows(), grad.cols()));
                    // v = mu*v + g;  w -= lr*v
                    *vel *= mu;
                    *vel += &grad;
                    param.value.add_scaled_inplace(vel, -lr);
                }
                Kind::RmsProp { lr, rho, eps } => {
                    let sq =
                        slot.second.get_or_insert_with(|| Matrix::zeros(grad.rows(), grad.cols()));
                    for (s, &g) in sq.as_mut_slice().iter_mut().zip(grad.as_slice()) {
                        *s = rho * *s + (1.0 - rho) * g * g;
                    }
                    for ((w, &g), &s) in param
                        .value
                        .as_mut_slice()
                        .iter_mut()
                        .zip(grad.as_slice())
                        .zip(sq.as_slice())
                    {
                        *w -= lr * g / (s.sqrt() + eps);
                    }
                }
                Kind::Adam { lr, beta1, beta2, eps } => {
                    let t = self.step_count as f32;
                    let m =
                        slot.first.get_or_insert_with(|| Matrix::zeros(grad.rows(), grad.cols()));
                    for (mv, &g) in m.as_mut_slice().iter_mut().zip(grad.as_slice()) {
                        *mv = beta1 * *mv + (1.0 - beta1) * g;
                    }
                    let v =
                        slot.second.get_or_insert_with(|| Matrix::zeros(grad.rows(), grad.cols()));
                    for (vv, &g) in v.as_mut_slice().iter_mut().zip(grad.as_slice()) {
                        *vv = beta2 * *vv + (1.0 - beta2) * g * g;
                    }
                    let bc1 = 1.0 - beta1.powf(t);
                    let bc2 = 1.0 - beta2.powf(t);
                    for ((w, &mv), &vv) in
                        param.value.as_mut_slice().iter_mut().zip(m.as_slice()).zip(v.as_slice())
                    {
                        let m_hat = mv / bc1;
                        let v_hat = vv / bc2;
                        *w -= lr * m_hat / (v_hat.sqrt() + eps);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimizes f(w) = ½‖w − target‖² with each optimizer; all must converge.
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
            opt.step(vec![Param { value: &mut w, grad: &mut g }]);
        }
        (&w - &target).norm_l2()
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        assert!(run(&mut Optimizer::sgd(0.1), 200) < 1e-3);
    }

    #[test]
    fn momentum_converges_on_quadratic() {
        assert!(run(&mut Optimizer::momentum(0.05, 0.9), 200) < 1e-3);
    }

    #[test]
    fn rmsprop_converges_on_quadratic() {
        assert!(run(&mut Optimizer::rmsprop(0.05), 400) < 1e-2);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        assert!(run(&mut Optimizer::adam(0.05), 400) < 1e-2);
    }

    #[test]
    fn sgd_single_step_is_exact() {
        let mut opt = Optimizer::sgd(0.5);
        let mut w = Matrix::from_vec(1, 2, vec![1.0, 2.0]).unwrap();
        let mut g = Matrix::from_vec(1, 2, vec![0.2, -0.4]).unwrap();
        opt.step(vec![Param { value: &mut w, grad: &mut g }]);
        assert!(w.approx_eq(&Matrix::from_vec(1, 2, vec![0.9, 2.2]).unwrap(), 1e-6));
        assert_eq!(opt.steps(), 1);
    }

    #[test]
    fn grad_clip_limits_update() {
        let mut opt = Optimizer::sgd(1.0).with_grad_clip(1.0);
        let mut w = Matrix::zeros(1, 2);
        let mut g = Matrix::from_vec(1, 2, vec![30.0, 40.0]).unwrap(); // norm 50
        opt.step(vec![Param { value: &mut w, grad: &mut g }]);
        // Clipped to norm 1 → w = -(0.6, 0.8)
        assert!(w.approx_eq(&Matrix::from_vec(1, 2, vec![-0.6, -0.8]).unwrap(), 1e-5));
    }

    #[test]
    #[should_panic(expected = "parameter count changed")]
    fn param_count_change_is_detected() {
        let mut opt = Optimizer::sgd(0.1);
        let mut w = Matrix::zeros(1, 2);
        let mut g = Matrix::zeros(1, 2);
        opt.step(vec![Param { value: &mut w, grad: &mut g }]);
        let mut w2 = Matrix::zeros(1, 2);
        let mut g2 = Matrix::zeros(1, 2);
        opt.step(vec![
            Param { value: &mut w, grad: &mut g },
            Param { value: &mut w2, grad: &mut g2 },
        ]);
    }

    #[test]
    fn learning_rate_accessors() {
        let mut opt = Optimizer::adam(0.01);
        assert!((opt.learning_rate() - 0.01).abs() < 1e-9);
        opt.set_learning_rate(0.001);
        assert!((opt.learning_rate() - 0.001).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "lr must be positive")]
    fn rejects_zero_lr() {
        let _ = Optimizer::sgd(0.0);
    }
}
