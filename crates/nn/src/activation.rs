use orco_tensor::Matrix;

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
    /// Leaky ReLU with the given negative-side slope.
    LeakyRelu(f32),
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
            Activation::LeakyRelu(slope) => {
                if x >= 0.0 {
                    x
                } else {
                    slope * x
                }
            }
        }
    }

    /// Derivative expressed in terms of the **pre-activation** input `x`.
    #[must_use]
    pub(crate) fn derivative(self, x: f32) -> f32 {
        match self {
            Activation::Identity => 1.0,
            Activation::Sigmoid => {
                let s = self.apply(x);
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
            Activation::LeakyRelu(slope) => {
                if x >= 0.0 {
                    1.0
                } else {
                    slope
                }
            }
        }
    }

    /// Applies the activation element-wise in place.
    pub(crate) fn apply_inplace(self, m: &mut Matrix) {
        m.map_inplace(|v| self.apply(v));
    }

    /// Approximate FLOPs to evaluate this activation once (used by the
    /// simulated-compute model; exact constants do not matter, relative
    /// magnitudes do).
    #[must_use]
    pub(crate) fn flops(self) -> u64 {
        match self {
            Activation::Identity => 0,
            Activation::Relu | Activation::LeakyRelu(_) => 1,
            Activation::Sigmoid => 4,
            Activation::Tanh => 5,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn relu_and_leaky() {
        assert_eq!(Activation::Relu.apply(3.0), 3.0);
        assert_eq!(Activation::Relu.apply(-3.0), 0.0);
        assert_eq!(Activation::LeakyRelu(0.1).apply(-3.0), -0.3);
        assert_eq!(Activation::LeakyRelu(0.1).derivative(-3.0), 0.1);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let eps = 1e-3_f32;
        for act in [
            Activation::Identity,
            Activation::Sigmoid,
            Activation::Tanh,
            Activation::LeakyRelu(0.2),
        ] {
            for x in [-2.0f32, -0.5, 0.3, 1.7] {
                let numeric = (act.apply(x + eps) - act.apply(x - eps)) / (2.0 * eps);
                let analytic = act.derivative(x);
                assert!(
                    (numeric - analytic).abs() < 1e-2,
                    "{act:?} at {x}: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn relu_derivative_is_zero_at_and_below_zero() {
        assert_eq!([-1.0, 0.0, 2.0].map(|x| Activation::Relu.derivative(x)), [0.0, 0.0, 1.0]);
    }

    #[test]
    fn tanh_derivative_at_zero_is_one() {
        assert!((Activation::Tanh.derivative(0.0) - 1.0).abs() < 1e-6);
    }
}
