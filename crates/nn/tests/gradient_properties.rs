//! Property-based gradient checks: every layer's analytic backward pass is
//! validated against central finite differences over randomized shapes,
//! activations, and inputs. This is the safety net under the entire
//! reproduction — a wrong gradient anywhere silently corrupts every figure.

use orco_nn::gradcheck::check_layer;
use orco_nn::{Activation, Conv2d, Dense, Loss, MaxPool2d};
use orco_tensor::{Matrix, OrcoRng};
use proptest::prelude::*;

// Only smooth activations: finite differences straddling the ReLU-family
// kink at 0 produce spurious mismatches (the kinked layers have dedicated
// deterministic unit tests in `orco_nn::gradcheck`).
fn activation_strategy() -> impl Strategy<Value = Activation> {
    prop_oneof![Just(Activation::Identity), Just(Activation::Sigmoid), Just(Activation::Tanh),]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn dense_gradients_are_correct(
        in_dim in 2usize..10,
        out_dim in 1usize..8,
        batch in 1usize..4,
        act in activation_strategy(),
        seed in 0u64..10_000,
    ) {
        let mut rng = OrcoRng::from_seed_u64(seed);
        let mut layer = Dense::new(in_dim, out_dim, act, &mut rng);
        let x = Matrix::from_fn(batch, in_dim, |_, _| rng.uniform(-1.0, 1.0));
        let t = Matrix::from_fn(batch, out_dim, |_, _| rng.uniform(-0.8, 0.8));
        let report = check_layer(&mut layer, &x, &t, &Loss::L2, 30);
        prop_assert!(report.passes(0.08), "{report:?} for {act:?} {in_dim}->{out_dim}");
    }

    #[test]
    fn dense_gradients_under_huber(
        in_dim in 2usize..8,
        out_dim in 1usize..6,
        delta in 0.2f32..2.0,
        seed in 0u64..10_000,
    ) {
        let mut rng = OrcoRng::from_seed_u64(seed);
        let mut layer = Dense::new(in_dim, out_dim, Activation::Sigmoid, &mut rng);
        let x = Matrix::from_fn(2, in_dim, |_, _| rng.uniform(-1.0, 1.0));
        let t = Matrix::from_fn(2, out_dim, |_, _| rng.uniform(0.0, 1.0));
        let report = check_layer(&mut layer, &x, &t, &Loss::Huber { delta }, 25);
        prop_assert!(report.passes(0.1), "{report:?} at delta {delta}");
    }

    #[test]
    fn conv_gradients_are_correct(
        in_c in 1usize..3,
        side in 3usize..6,
        out_c in 1usize..3,
        kernel in 1usize..4,
        act in activation_strategy(),
        seed in 0u64..10_000,
    ) {
        prop_assume!(kernel <= side);
        let mut rng = OrcoRng::from_seed_u64(seed);
        let mut layer = Conv2d::new(in_c, side, side, out_c, kernel, 1, kernel / 2, act, &mut rng);
        use orco_nn::Layer;
        let x = Matrix::from_fn(2, layer.input_dim(), |_, _| rng.uniform(-1.0, 1.0));
        let t = Matrix::from_fn(2, layer.output_dim(), |_, _| rng.uniform(-0.5, 0.5));
        let report = check_layer(&mut layer, &x, &t, &Loss::L2, 25);
        prop_assert!(report.passes(0.1), "{report:?} conv {in_c}x{side} k{kernel} -> {out_c}");
    }

    #[test]
    fn maxpool_input_gradients_are_correct(
        c in 1usize..3,
        half in 1usize..4,
        seed in 0u64..10_000,
    ) {
        let side = half * 2;
        let mut rng = OrcoRng::from_seed_u64(seed);
        let mut layer = MaxPool2d::new(c, side, side, 2);
        use orco_nn::Layer;
        // Well-separated values so ±eps never flips a winner.
        let mut order: Vec<usize> = (0..layer.input_dim()).collect();
        rng.shuffle(&mut order);
        let x = Matrix::from_vec(
            1,
            layer.input_dim(),
            order.iter().map(|&v| v as f32 * 0.5).collect(),
        ).unwrap();
        let t = Matrix::from_fn(1, layer.output_dim(), |_, _| rng.uniform(-1.0, 1.0));
        let report = check_layer(&mut layer, &x, &t, &Loss::L2, 20);
        prop_assert!(report.max_input_rel_err < 0.08, "{report:?}");
    }

    /// Loss gradients themselves: directional-derivative consistency.
    #[test]
    fn loss_gradients_match_directional_derivative(
        cols in 2usize..10,
        seed in 0u64..10_000,
        which in 0usize..3,
    ) {
        let mut rng = OrcoRng::from_seed_u64(seed);
        let loss = match which {
            0 => Loss::L2,
            1 => Loss::Huber { delta: 0.5 },
            _ => Loss::VectorHuber { delta: 0.4 * cols as f32 },
        };
        let pred = Matrix::from_fn(2, cols, |_, _| rng.uniform(-1.0, 1.0));
        let target = Matrix::from_fn(2, cols, |_, _| rng.uniform(-1.0, 1.0));
        let dir = Matrix::from_fn(2, cols, |_, _| rng.uniform(-1.0, 1.0));
        let eps = 1e-2f32;
        let plus = &pred + &dir.scale(eps);
        let minus = &pred - &dir.scale(eps);
        let numeric = (loss.value(&plus, &target) - loss.value(&minus, &target)) / (2.0 * eps);
        let grad = loss.grad(&pred, &target);
        let analytic: f32 = grad.as_slice().iter().zip(dir.as_slice()).map(|(g, d)| g * d).sum();
        // Huber kinks can make single points disagree; allow slack
        // proportional to the direction's magnitude.
        let tol = 0.05 * (1.0 + dir.as_slice().iter().map(|v| v.abs()).sum::<f32>() / dir.len() as f32);
        prop_assert!((numeric - analytic).abs() < tol,
            "{loss:?}: numeric {numeric} vs analytic {analytic}");
    }
}
