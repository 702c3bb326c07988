use orco_tensor::{MatView, Matrix};

use crate::layer::{Layer, Param};
use crate::loss::Loss;
use crate::optimizer::Optimizer;

/// An ordered stack of [`Layer`]s trained end-to-end.
///
/// `Sequential` is the model container used by every network in the
/// reproduction: the OrcoDCS encoder and decoder are each a `Sequential`
/// living on a different simulated machine, DCSNet is one `Sequential`, and
/// the follow-up classifier is another.
///
/// # Examples
///
/// ```
/// use orco_nn::{Activation, Dense, Sequential};
/// use orco_tensor::{Matrix, OrcoRng};
///
/// let mut rng = OrcoRng::from_label("seq-doc", 0);
/// let mut ae = Sequential::new();
/// ae.push(Dense::new(784, 128, Activation::Sigmoid, &mut rng));
/// ae.push(Dense::new(128, 784, Activation::Sigmoid, &mut rng));
/// assert_eq!(ae.input_dim(), Some(784));
/// assert_eq!(ae.output_dim(), Some(784));
/// let out = ae.forward(&Matrix::zeros(2, 784), false);
/// assert_eq!(out.shape(), (2, 784));
/// ```
#[derive(Debug, Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Clone for Sequential {
    fn clone(&self) -> Self {
        Self { layers: self.layers.iter().map(|l| l.clone_box()).collect() }
    }
}

impl Sequential {
    /// Creates an empty model.
    #[must_use]
    pub fn new() -> Self {
        Self { layers: Vec::new() }
    }

    /// Appends a layer.
    ///
    /// # Panics
    ///
    /// Panics if the layer's input width does not match the previous
    /// layer's output width.
    pub fn push(&mut self, layer: impl Layer + 'static) {
        if let Some(last) = self.layers.last() {
            assert_eq!(
                last.output_dim(),
                layer.input_dim(),
                "Sequential: layer `{}` expects {} inputs but previous layer `{}` outputs {}",
                layer.name(),
                layer.input_dim(),
                last.name(),
                last.output_dim()
            );
        }
        self.layers.push(Box::new(layer));
    }

    /// Number of layers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the model has no layers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Input width of the first layer, if any.
    #[must_use]
    pub fn input_dim(&self) -> Option<usize> {
        self.layers.first().map(|l| l.input_dim())
    }

    /// Output width of the last layer, if any.
    #[must_use]
    pub fn output_dim(&self) -> Option<usize> {
        self.layers.last().map(|l| l.output_dim())
    }

    /// Total scalar parameter count.
    #[must_use]
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Per-sample forward FLOPs, summed over layers.
    #[must_use]
    pub fn flops_forward(&self) -> u64 {
        self.layers.iter().map(|l| l.flops_forward()).sum()
    }

    /// Per-sample backward FLOPs, summed over layers.
    #[must_use]
    pub fn flops_backward(&self) -> u64 {
        self.layers.iter().map(|l| l.flops_backward()).sum()
    }

    /// Runs the batch through every layer.
    ///
    /// `train` is handed to every layer ([`Layer::forward_into`]): pass
    /// `true` when a [`Sequential::backward`] will follow.
    ///
    /// # Panics
    ///
    /// Panics if the model is empty.
    pub fn forward(&mut self, input: &Matrix, train: bool) -> Matrix {
        let (first, rest) =
            self.layers.split_first_mut().expect("Sequential::forward on empty model");
        let mut x = first.forward(input, train);
        for layer in rest {
            x = layer.forward(&x, train);
        }
        x
    }

    /// Inference-mode forward over a borrowed batch, ping-ponging between
    /// two caller-owned buffers so the last layer lands in `out`: the
    /// values of `forward(x, false)`, with no layer's cache touched and —
    /// for the layers whose body allocates nothing, as [`crate::Dense`]'s —
    /// nothing allocated once `scratch` and `out` have grown to size.
    ///
    /// # Panics
    ///
    /// Panics if the model is empty.
    // orco-lint: region(no-alloc)
    pub fn infer_into(&mut self, x: MatView<'_>, scratch: &mut Matrix, out: &mut Matrix) {
        let (first, rest) =
            self.layers.split_first_mut().expect("Sequential::infer_into on empty model");
        // Layers alternate buffers; start on the one that puts the last in `out`.
        let (mut src, mut dst) = if rest.len() % 2 == 0 { (scratch, out) } else { (out, scratch) };
        first.forward_into(x, dst, false);
        for layer in rest {
            std::mem::swap(&mut src, &mut dst);
            layer.forward_into(src.as_view(), dst, false);
        }
    }
    // orco-lint: endregion

    /// Backpropagates a gradient through every layer (reverse order),
    /// accumulating parameter gradients, and returns `∂L/∂input`.
    pub fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let mut layers = self.layers.iter_mut().rev();
        let Some(last) = layers.next() else {
            return grad_output.clone();
        };
        let mut g = last.backward(grad_output);
        for layer in layers {
            g = layer.backward(&g);
        }
        g
    }

    /// Collects parameter views from every layer in a stable order.
    pub fn params(&mut self) -> Vec<Param<'_>> {
        self.layers.iter_mut().flat_map(|l| l.params()).collect()
    }

    /// Zeroes all accumulated gradients.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// One optimization step on a batch; returns the batch loss before the
    /// update.
    pub fn train_batch(
        &mut self,
        input: &Matrix,
        target: &Matrix,
        loss: &Loss,
        optimizer: &mut Optimizer,
    ) -> f32 {
        self.zero_grad();
        let pred = self.forward(input, true);
        let value = loss.value(&pred, target);
        let grad = loss.grad(&pred, target);
        let _ = self.backward(&grad);
        optimizer.step(self.params());
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Activation, Conv2d, Dense, MaxPool2d};
    use orco_tensor::OrcoRng;

    fn xor_data() -> (Matrix, Matrix) {
        (
            Matrix::from_vec(4, 2, vec![0., 0., 0., 1., 1., 0., 1., 1.]).unwrap(),
            Matrix::from_vec(4, 1, vec![0., 1., 1., 0.]).unwrap(),
        )
    }

    #[test]
    fn learns_xor() {
        let mut rng = OrcoRng::from_label("xor", 3);
        let mut model = Sequential::new();
        model.push(Dense::new(2, 8, Activation::Tanh, &mut rng));
        model.push(Dense::new(8, 1, Activation::Sigmoid, &mut rng));
        let (x, y) = xor_data();
        let mut opt = Optimizer::adam(0.05);
        for _ in 0..500 {
            model.train_batch(&x, &y, &Loss::L2, &mut opt);
        }
        let pred = model.forward(&x, false);
        for (p, t) in pred.as_slice().iter().zip(y.as_slice()) {
            assert!((p - t).abs() < 0.2, "xor not learned: pred {p} target {t}");
        }
    }

    #[test]
    #[should_panic(expected = "expects")]
    fn rejects_incompatible_layers() {
        let mut rng = OrcoRng::from_label("bad-stack", 0);
        let mut model = Sequential::new();
        model.push(Dense::new(4, 8, Activation::Relu, &mut rng));
        model.push(Dense::new(9, 2, Activation::Relu, &mut rng));
    }

    #[test]
    fn train_reduces_loss() {
        let mut rng = OrcoRng::from_label("reduce", 0);
        let mut model = Sequential::new();
        model.push(Dense::new(8, 4, Activation::Sigmoid, &mut rng));
        model.push(Dense::new(4, 8, Activation::Sigmoid, &mut rng));
        let x = Matrix::from_fn(16, 8, |r, c| if (r + c) % 3 == 0 { 0.9 } else { 0.1 });
        let mut opt = Optimizer::adam(0.01);
        let before = Loss::L2.value(&model.forward(&x, false), &x);
        for _ in 0..100 {
            model.train_batch(&x, &x, &Loss::L2, &mut opt);
        }
        let after = Loss::L2.value(&model.forward(&x, false), &x);
        assert!(after < before * 0.8, "loss {before} -> {after}");
    }

    #[test]
    fn flops_sum_over_layers() {
        let mut rng = OrcoRng::from_label("flops", 0);
        let a = Dense::new(10, 5, Activation::Identity, &mut rng);
        let fa = a.flops_forward();
        let b = Dense::new(5, 2, Activation::Identity, &mut rng);
        let fb = b.flops_forward();
        let mut model = Sequential::new();
        model.push(a);
        model.push(b);
        assert_eq!(model.flops_forward(), fa + fb);
    }

    #[test]
    fn inference_matches_the_training_forward_at_every_depth() {
        let mut rng = OrcoRng::from_label("seq-infer", 0);
        let x = Matrix::from_fn(9, 6, |r, c| ((r * 13 + c) as f32 * 0.21).sin());
        let widths = [6usize, 11, 3, 8, 5];
        for depth in 1..widths.len() {
            // Every layer kind of this crate sits in the stack (a 3-tap
            // padded convolution over the 1x11 map, then 1x1 pooling
            // windows), so each one's inference-mode body is held to the
            // values of its training-mode forward.
            let mut model = Sequential::new();
            model.push(Dense::new(widths[0], widths[1], Activation::Tanh, &mut rng));
            model.push(Conv2d::new(1, 1, widths[1], 1, 3, 1, 1, Activation::Sigmoid, &mut rng));
            model.push(MaxPool2d::new(widths[1], 1, 1, 1));
            for w in widths[1..].windows(2).take(depth - 1) {
                model.push(Dense::new(w[0], w[1], Activation::Tanh, &mut rng));
            }
            let reference = model.forward(&x, true);
            // Dirty, wrongly-shaped reused buffers.
            let mut scratch = Matrix::filled(2, 3, f32::NAN);
            let mut out = Matrix::filled(1, 1, f32::NAN);
            for _ in 0..2 {
                model.infer_into(x.as_view(), &mut scratch, &mut out);
                assert_eq!(out, reference, "depth {depth}");
            }
        }
    }

    #[test]
    fn inference_between_forward_and_backward_leaves_the_round_alone() {
        let mut rng = OrcoRng::from_label("seq-interleave", 0);
        let mut plain = Sequential::new();
        plain.push(Dense::new(6, 16, Activation::Tanh, &mut rng));
        plain.push(Conv2d::new(1, 4, 4, 2, 3, 1, 1, Activation::Relu, &mut rng));
        plain.push(MaxPool2d::new(2, 4, 4, 2));
        plain.push(Dense::new(8, 3, Activation::Sigmoid, &mut rng));
        let mut interleaved = plain.clone();
        let x = Matrix::from_fn(8, 6, |r, c| ((r * 6 + c) as f32 * 0.19).sin());
        let served = Matrix::from_fn(3, 6, |r, c| ((r + 4 * c) as f32 * 0.23).cos());
        let grad = Matrix::from_fn(8, 3, |r, c| ((r * 3 + c) as f32 * 0.07).cos());
        let _ = plain.forward(&x, true);
        let _ = interleaved.forward(&x, true);
        // Both inference entry points, on a batch of another size.
        let (mut scratch, mut out) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        interleaved.infer_into(served.as_view(), &mut scratch, &mut out);
        assert_eq!(interleaved.forward(&served, false), out);
        assert_eq!(interleaved.backward(&grad), plain.backward(&grad));
        for (a, b) in interleaved.params().iter().zip(plain.params()) {
            assert_eq!(a.grad, b.grad);
        }
    }

    #[test]
    #[should_panic(expected = "empty model")]
    fn forward_on_empty_model_panics() {
        let mut m = Sequential::new();
        let _ = m.forward(&Matrix::zeros(1, 1), false);
    }
}
