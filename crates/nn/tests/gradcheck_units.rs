//! Deterministic gradient-check units: finite differences vs analytic
//! backward passes for the dense layer, the convolutional layer, and the
//! Huber losses, at fixed seeds. These complement the randomized sweeps in
//! `gradient_properties.rs` with stable, debuggable cases wired straight to
//! `orco_nn::gradcheck`.
//!
//! On tolerances: `check_layer` takes central differences with
//! `eps = 1e-2` of a loss it sums in `f64` from the layer's `f32`
//! outputs. Summed in `f32`, the difference `L(+ε) − L(−ε)` of a
//! coordinate with a small gradient cancelled down to the loss's own
//! rounding noise, which put the method's floor near 1e-3 relative error
//! (3.2e-4 on `dense_identity_l2_gradients`, 1.5e-3 once the GEMM step
//! fused); the `f64` loss reads 4e-5 there. The tests assert 1e-3 where
//! the construction keeps every checked coordinate well-conditioned, and a
//! documented small multiple of it where the layer mixes coordinate scales.

use orco_nn::gradcheck::check_layer;
use orco_nn::{Activation, Conv2d, Dense, Layer, Loss};
use orco_tensor::{Matrix, OrcoRng};

/// Tolerance for well-conditioned checks (the method's floor).
const TOL: f32 = 1e-3;

/// Tolerance for layers whose parameter scales spread the FD conditioning
/// (sigmoid/tanh saturation, conv weight sharing): a small multiple of the
/// floor, still far below any real backward-pass bug (which shows up at
/// 1e-1 to 1e0).
const TOL_MIXED: f32 = 5e-3;

fn input_for(layer: &dyn Layer, batch: usize, rng: &mut OrcoRng) -> (Matrix, Matrix) {
    let x = Matrix::from_fn(batch, layer.input_dim(), |_, _| rng.uniform(-1.0, 1.0));
    let t = Matrix::from_fn(batch, layer.output_dim(), |_, _| rng.uniform(-0.8, 0.8));
    (x, t)
}

#[test]
fn dense_identity_l2_gradients() {
    let mut rng = OrcoRng::from_label("gc-dense-id", 0);
    let mut layer = Dense::new(6, 4, Activation::Identity, &mut rng);
    let (x, t) = input_for(&layer, 3, &mut rng);
    let report = check_layer(&mut layer, &x, &t, &Loss::L2, 50);
    assert!(report.passes(TOL), "{report:?}");
}

#[test]
fn dense_sigmoid_l2_gradients() {
    let mut rng = OrcoRng::from_label("gc-dense-sig", 0);
    let mut layer = Dense::new(8, 5, Activation::Sigmoid, &mut rng);
    let (x, t) = input_for(&layer, 2, &mut rng);
    let report = check_layer(&mut layer, &x, &t, &Loss::L2, 50);
    assert!(report.passes(TOL_MIXED), "{report:?}");
}

#[test]
fn dense_tanh_huber_gradients() {
    let mut rng = OrcoRng::from_label("gc-dense-huber", 0);
    let mut layer = Dense::new(5, 3, Activation::Tanh, &mut rng);
    let (x, t) = input_for(&layer, 2, &mut rng);
    // δ = 4: every residual stays in the quadratic (smooth) Huber regime,
    // so finite differences never straddle the δ kink.
    let report = check_layer(&mut layer, &x, &t, &Loss::Huber { delta: 4.0 }, 40);
    assert!(report.passes(TOL_MIXED), "{report:?}");
}

#[test]
fn dense_huber_linear_regime_gradients() {
    let mut rng = OrcoRng::from_label("gc-dense-huber-lin", 0);
    let mut layer = Dense::new(5, 3, Activation::Identity, &mut rng);
    let x = Matrix::from_fn(2, 5, |_, _| rng.uniform(-1.0, 1.0));
    // Targets far from any reachable output: residuals sit deep in the
    // linear Huber branch, away from both kinks.
    let t = Matrix::from_fn(2, 3, |_, _| 10.0 + rng.uniform(0.0, 1.0));
    let report = check_layer(&mut layer, &x, &t, &Loss::Huber { delta: 0.5 }, 40);
    assert!(report.passes(TOL_MIXED), "{report:?}");
}

#[test]
fn dense_vector_huber_gradients() {
    let mut rng = OrcoRng::from_label("gc-dense-vhuber", 0);
    let mut layer = Dense::new(6, 4, Activation::Sigmoid, &mut rng);
    let (x, t) = input_for(&layer, 2, &mut rng);
    // δ large enough that each sample's L1 residual stays quadratic.
    let report = check_layer(&mut layer, &x, &t, &Loss::VectorHuber { delta: 8.0 }, 40);
    assert!(report.passes(TOL_MIXED), "{report:?}");
}

#[test]
fn conv_identity_l2_gradients() {
    let mut rng = OrcoRng::from_label("gc-conv-id", 0);
    let mut layer = Conv2d::new(1, 5, 5, 2, 3, 1, 1, Activation::Identity, &mut rng);
    let (x, t) = input_for(&layer, 2, &mut rng);
    let report = check_layer(&mut layer, &x, &t, &Loss::L2, 40);
    assert!(report.passes(TOL_MIXED), "{report:?}");
}

#[test]
fn conv_sigmoid_huber_gradients() {
    let mut rng = OrcoRng::from_label("gc-conv-huber", 0);
    let mut layer = Conv2d::new(2, 4, 4, 2, 3, 1, 1, Activation::Sigmoid, &mut rng);
    let (x, t) = input_for(&layer, 1, &mut rng);
    let report = check_layer(&mut layer, &x, &t, &Loss::Huber { delta: 4.0 }, 30);
    // Conv weight sharing sums contributions of opposite sign across
    // positions, so individual shared weights can have near-cancelled
    // gradients whose FD probes are noise-dominated; 2e-2 still separates
    // cleanly from real backward bugs (1e-1 and up).
    assert!(report.passes(2e-2), "{report:?}");
}

/// The Huber losses' own gradients, checked directly (no layer in between)
/// against central finite differences coordinate by coordinate at the
/// method-floor tolerance. Coordinates whose ±ε probe would straddle one of
/// the loss's kinks (element residual 0 or ±δ; per-sample L1 norm δ) are
/// skipped — finite differences are undefined across a kink — and the test
/// asserts that the vast majority of coordinates were actually checked.
#[test]
fn huber_loss_gradients_match_finite_differences() {
    let mut rng = OrcoRng::from_label("gc-loss-fd", 0);
    let eps = 1e-2f32;
    for loss in [Loss::Huber { delta: 0.6 }, Loss::VectorHuber { delta: 1.5 }, Loss::L2] {
        let pred = Matrix::from_fn(2, 7, |_, _| rng.uniform(-1.2, 1.2));
        let target = Matrix::from_fn(2, 7, |_, _| rng.uniform(-1.0, 1.0));
        let analytic = loss.grad(&pred, &target);
        let mut checked = 0usize;
        for flat in 0..pred.len() {
            if straddles_kink(&loss, &pred, &target, flat, eps) {
                continue;
            }
            let mut plus = pred.clone();
            plus.as_mut_slice()[flat] += eps;
            let mut minus = pred.clone();
            minus.as_mut_slice()[flat] -= eps;
            let numeric = (loss.value(&plus, &target) - loss.value(&minus, &target)) / (2.0 * eps);
            let a = analytic.as_slice()[flat];
            let denom = a.abs().max(numeric.abs()).max(1e-2);
            assert!(
                (a - numeric).abs() / denom < TOL,
                "{loss:?} coord {flat}: analytic {a} vs numeric {numeric}"
            );
            checked += 1;
        }
        assert!(
            checked >= pred.len() * 3 / 4,
            "{loss:?}: only {checked}/{} coords checked",
            pred.len()
        );
    }
}

/// Whether perturbing coordinate `flat` by ±ε crosses a non-smooth point
/// of `loss`.
fn straddles_kink(loss: &Loss, pred: &Matrix, target: &Matrix, flat: usize, eps: f32) -> bool {
    let margin = 2.0 * eps;
    let r = pred.as_slice()[flat] - target.as_slice()[flat];
    match *loss {
        Loss::Huber { delta } => (r.abs() - delta).abs() < margin || r.abs() < margin,
        Loss::VectorHuber { delta } => {
            if r.abs() < margin {
                return true; // |r_i| kink of the L1 norm itself.
            }
            let cols = pred.cols();
            let row = flat / cols;
            let l1: f32 =
                pred.row(row).iter().zip(target.row(row)).map(|(a, b)| (a - b).abs()).sum();
            (l1 - delta).abs() < margin // branch switch on the sample norm.
        }
        _ => false,
    }
}
