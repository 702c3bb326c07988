//! ISTA — iterative shrinkage-thresholding for `ℓ₁`-regularized
//! reconstruction.
//!
//! Solves `min_θ ½‖Aθ − y‖² + λ‖θ‖₁` by gradient steps followed by
//! soft-thresholding. This is the convex-optimization decoder of
//! traditional CDA whose cost the paper's introduction calls
//! "computationally intensive": every reconstructed image pays hundreds of
//! `m×n` matrix products, vs a single forward pass for a learned decoder.

use orco_tensor::Matrix;

/// ISTA solver parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IstaConfig {
    /// ℓ₁ weight λ.
    pub lambda: f32,
    /// Maximum iterations.
    pub max_iters: usize,
    /// Stop when the coefficient update's ∞-norm falls below this.
    pub tol: f32,
}

impl Default for IstaConfig {
    fn default() -> Self {
        Self { lambda: 0.01, max_iters: 200, tol: 1e-5 }
    }
}

/// Reusable buffers for repeated ISTA solves against one sensing matrix —
/// the batched data plane decodes hundreds of frames per round, and these
/// make every solve after the first allocation-free. The recovered
/// coefficients land in [`IstaScratch::theta`].
#[derive(Debug, Clone, Default)]
pub(crate) struct IstaScratch {
    /// Coefficient vector θ (the solver's output, length `a.cols()`).
    pub(crate) theta: Vec<f32>,
    /// Residual workspace `Aθ − y` (length `a.rows()`).
    pub(crate) residual: Vec<f32>,
    /// Gradient workspace `Aᵀ(Aθ − y)` (length `a.cols()`).
    pub(crate) grad: Vec<f32>,
}

/// Power-iteration count every caller passes to [`lipschitz_estimate`].
/// One shared constant: a solve against the codec's cached estimate is
/// bit-identical to a one-shot solve that estimates `L` itself.
pub(crate) const LIPSCHITZ_POWER_ITERS: usize = 30;

/// Estimates the Lipschitz constant `L = ‖AᵀA‖₂` by power iteration.
///
/// Callers decoding many frames against one operator (the batched codec
/// path) pay it once per matrix instead of once per frame.
#[must_use]
pub(crate) fn lipschitz_estimate(a: &Matrix, iters: usize) -> f32 {
    let n = a.cols();
    let mut v = vec![1.0f32 / (n as f32).sqrt(); n];
    let mut av = vec![0.0f32; a.rows()];
    let mut w = vec![0.0f32; n];
    let mut norm = 1.0f32;
    for _ in 0..iters {
        // w = Aᵀ(Av)
        a.matvec_into(&v, &mut av);
        a.t_matvec_into(&av, &mut w);
        norm = w.iter().map(|x| x * x).sum::<f32>().sqrt();
        if norm < 1e-12 {
            return 1.0;
        }
        for (vi, wi) in v.iter_mut().zip(&w) {
            *vi = wi / norm;
        }
    }
    norm.max(1e-6)
}

fn soft_threshold(x: f32, t: f32) -> f32 {
    if x > t {
        x - t
    } else if x < -t {
        x + t
    } else {
        0.0
    }
}

/// The workspace-reusing ISTA core: `lipschitz_l` is the caller-cached
/// [`lipschitz_estimate`] of `a`, and every buffer lives in `ws` (θ is
/// left in [`IstaScratch::theta`]). All matrix products run through the
/// `_into` kernels — no allocation per iteration, and no `Aᵀ`
/// materialization — with results bit-identical to the historical
/// allocating loop.
///
/// # Panics
///
/// Panics if `y.len() != a.rows()`.
pub(crate) fn ista_reconstruct_with(
    a: &Matrix,
    lipschitz_l: f32,
    y: &[f32],
    config: &IstaConfig,
    ws: &mut IstaScratch,
) {
    assert_eq!(y.len(), a.rows(), "ista: measurement length mismatch");
    let step = 1.0 / lipschitz_l;
    let thresh = config.lambda * step;

    ws.theta.clear();
    ws.theta.resize(a.cols(), 0.0);
    ws.residual.clear();
    ws.residual.resize(a.rows(), 0.0);
    ws.grad.clear();
    ws.grad.resize(a.cols(), 0.0);

    for _ in 0..config.max_iters {
        // gradient of the quadratic: Aᵀ(Aθ − y)
        a.matvec_into(&ws.theta, &mut ws.residual);
        for (r, &yi) in ws.residual.iter_mut().zip(y) {
            *r -= yi;
        }
        a.t_matvec_into(&ws.residual, &mut ws.grad);
        let mut max_delta = 0.0f32;
        for (t, g) in ws.theta.iter_mut().zip(&ws.grad) {
            let new = soft_threshold(*t - step * g, thresh);
            max_delta = max_delta.max((new - *t).abs());
            *t = new;
        }
        if max_delta < config.tol {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orco_tensor::OrcoRng;

    /// One solve on a fresh scratch: `(θ, ‖Aθ − y‖)`.
    fn solve(a: &Matrix, y: &[f32], config: &IstaConfig) -> (Vec<f32>, f32) {
        let mut ws = IstaScratch::default();
        let l = lipschitz_estimate(a, LIPSCHITZ_POWER_ITERS);
        ista_reconstruct_with(a, l, y, config, &mut ws);
        let rnorm =
            a.matvec(&ws.theta).iter().zip(y).map(|(ai, yi)| (yi - ai).powi(2)).sum::<f32>().sqrt();
        (ws.theta, rnorm)
    }

    /// Builds a k-sparse signal, measures it, and checks ISTA recovers it.
    #[test]
    fn recovers_sparse_signal() {
        let mut rng = OrcoRng::from_label("ista", 0);
        let (m, n, k) = (40, 100, 4);
        let a = Matrix::from_fn(m, n, |_, _| rng.normal(0.0, (1.0 / m as f32).sqrt()));
        let mut theta = vec![0.0f32; n];
        for i in [3usize, 27, 55, 90].iter().take(k) {
            theta[*i] = 1.0 + (*i as f32) * 0.01;
        }
        let y = a.matvec(&theta);
        let (coefficients, residual_norm) =
            solve(&a, &y, &IstaConfig { lambda: 0.005, max_iters: 2000, tol: 1e-7 });
        for (i, (rec, truth)) in coefficients.iter().zip(&theta).enumerate() {
            assert!((rec - truth).abs() < 0.12, "coef {i}: {rec} vs {truth}");
        }
        assert!(residual_norm < 0.1);
    }

    #[test]
    fn zero_measurements_give_zero() {
        let mut rng = OrcoRng::from_label("ista-zero", 0);
        let a = Matrix::from_fn(10, 30, |_, _| rng.normal(0.0, 0.3));
        let (coefficients, _) = solve(&a, &[0.0; 10], &IstaConfig::default());
        assert!(coefficients.iter().all(|&c| c == 0.0));
    }

    #[test]
    fn fewer_measurements_worse_recovery() {
        // The paper's point: quality is limited by the measurement dimension.
        let mut rng = OrcoRng::from_label("ista-m", 1);
        let n = 100;
        let mut theta = vec![0.0f32; n];
        for i in [5usize, 40, 77] {
            theta[i] = 1.0;
        }
        let err_for_m = |m: usize, rng: &mut OrcoRng| -> f32 {
            let a = Matrix::from_fn(m, n, |_, _| rng.normal(0.0, (1.0 / m as f32).sqrt()));
            let y = a.matvec(&theta);
            let (coefficients, _) =
                solve(&a, &y, &IstaConfig { lambda: 0.005, max_iters: 1500, tol: 1e-7 });
            coefficients.iter().zip(&theta).map(|(a, b)| (a - b).powi(2)).sum::<f32>().sqrt()
        };
        let err_rich = err_for_m(60, &mut rng);
        let err_poor = err_for_m(8, &mut rng);
        assert!(err_poor > err_rich * 2.0, "poor {err_poor} vs rich {err_rich}");
    }

    #[test]
    fn soft_threshold_properties() {
        assert_eq!(soft_threshold(5.0, 1.0), 4.0);
        assert_eq!(soft_threshold(-5.0, 1.0), -4.0);
        assert_eq!(soft_threshold(0.5, 1.0), 0.0);
        assert_eq!(soft_threshold(-0.5, 1.0), 0.0);
    }

    #[test]
    fn lipschitz_upper_bounds_gram_diagonal() {
        let mut rng = OrcoRng::from_label("ista-lip", 0);
        let a = Matrix::from_fn(20, 50, |_, _| rng.normal(0.0, 0.2));
        let l = lipschitz_estimate(&a, 40);
        // L must be ≥ the largest column norm² of A.
        let col_norms = (0..50).map(|c| a.col_iter(c).map(|v| v * v).sum::<f32>());
        let max_col = col_norms.fold(0.0, |m, v| if v > m { v } else { m });
        assert!(l >= max_col * 0.99, "L={l} max_col={max_col}");
    }

    #[test]
    fn workspace_reuse_is_bit_identical_to_a_fresh_scratch() {
        // Decoding many frames against one operator with a shared scratch
        // (the batched codec path) must reproduce a fresh-scratch solve
        // exactly, frame after frame.
        let mut rng = OrcoRng::from_label("ista-ws", 0);
        let a = Matrix::from_fn(24, 60, |_, _| rng.normal(0.0, (1.0 / 24.0f32).sqrt()));
        let l = lipschitz_estimate(&a, LIPSCHITZ_POWER_ITERS);
        let config = IstaConfig { lambda: 0.01, max_iters: 80, tol: 1e-6 };
        let mut ws = IstaScratch::default();
        for frame in 0..3 {
            let y: Vec<f32> = (0..24).map(|i| ((i + frame) as f32 * 0.3).sin()).collect();
            ista_reconstruct_with(&a, l, &y, &config, &mut ws);
            assert_eq!(ws.theta, solve(&a, &y, &config).0, "frame {frame} diverged");
        }
    }
}
