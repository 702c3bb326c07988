use orco_tensor::{MatView, Matrix};

use crate::layer::{Layer, Param, Workspace};

/// A 2-D max-pooling layer over non-overlapping windows.
///
/// Used between the classifier's convolution stages. Inputs are batches of
/// flattened `(C, H, W)` samples; a training-mode forward keeps its input,
/// in which the backward pass finds each window's winner again to route
/// gradients.
///
/// # Examples
///
/// ```
/// use orco_nn::{Layer, MaxPool2d};
/// use orco_tensor::Matrix;
///
/// let mut pool = MaxPool2d::new(1, 4, 4, 2);
/// let x = Matrix::from_fn(1, 16, |_, c| c as f32);
/// let y = pool.forward(&x, true);
/// assert_eq!(y.shape(), (1, 4));
/// assert_eq!(y.as_slice(), &[5.0, 7.0, 13.0, 15.0]);
/// ```
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    c: usize,
    h: usize,
    w: usize,
    window: usize,
    // Input of the latest training-mode forward (`None` until there is
    // one); the buffer is reused from round to round.
    cached_input: Option<Matrix>,
}

impl MaxPool2d {
    /// Creates a max-pool layer over `(c, h, w)` inputs with square windows.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero or does not divide `h` and `w` evenly.
    #[must_use]
    pub fn new(c: usize, h: usize, w: usize, window: usize) -> Self {
        assert!(window > 0, "MaxPool2d: window must be non-zero");
        assert!(
            h.is_multiple_of(window) && w.is_multiple_of(window),
            "MaxPool2d: window {window} must divide input {h}x{w}"
        );
        Self { c, h, w, window, cached_input: None }
    }

    /// Output spatial shape `(c, h/window, w/window)`.
    #[must_use]
    pub(crate) fn output_shape(&self) -> (usize, usize, usize) {
        (self.c, self.h / self.window, self.w / self.window)
    }

    /// Calls `f(output index, maximum, its flat input index)` for every
    /// window of one sample, in output order.
    fn for_each_window(&self, sample: &[f32], mut f: impl FnMut(usize, f32, usize)) {
        let (_, oh, ow) = self.output_shape();
        for c in 0..self.c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = 0usize;
                    for wy in 0..self.window {
                        for wx in 0..self.window {
                            let iy = oy * self.window + wy;
                            let ix = ox * self.window + wx;
                            let idx = (c * self.h + iy) * self.w + ix;
                            if sample[idx] > best {
                                best = sample[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    f((c * oh + oy) * ow + ox, best, best_idx);
                }
            }
        }
    }
}

impl Layer for MaxPool2d {
    /// Needs no scratch.
    fn infer_into(&self, x: MatView<'_>, out: &mut Matrix, _: &mut Workspace) {
        assert_eq!(
            x.cols(),
            self.input_dim(),
            "MaxPool2d::forward_into: input features {} != expected {}",
            x.cols(),
            self.input_dim()
        );
        out.reset(x.rows(), self.output_dim());
        for (i, sample) in x.iter_rows().enumerate() {
            let row = out.row_mut(i);
            self.for_each_window(sample, |o, best, _| row[o] = best);
        }
    }

    fn forward_into(&mut self, x: MatView<'_>, out: &mut Matrix, train: bool) {
        self.infer_into(x, out, &mut Workspace::default());
        if train {
            self.cached_input.get_or_insert_with(|| Matrix::zeros(0, 0)).copy_from(x);
        }
    }

    /// Routes each window's gradient to the input cell that won it. There
    /// are no parameters, so without a `grad_in` only the checks remain.
    fn backward_into(&mut self, grad_out: MatView<'_>, grad_in: Option<&mut Matrix>) {
        let input =
            self.cached_input.as_ref().expect("MaxPool2d::backward: no training-mode forward");
        assert_eq!(
            grad_out.shape(),
            (input.rows(), self.output_dim()),
            "MaxPool2d::backward: grad_output shape mismatch"
        );
        let Some(grad_in) = grad_in else { return };
        grad_in.reset(input.rows(), self.input_dim());
        for (i, sample) in input.iter_rows().enumerate() {
            let (go, gi) = (grad_out.row(i), grad_in.row_mut(i));
            self.for_each_window(sample, |o, _, winner| gi[winner] += go[o]);
        }
    }

    fn for_each_param<'a>(&'a mut self, _: &mut dyn FnMut(Param<'a>)) {}

    fn input_dim(&self) -> usize {
        self.c * self.h * self.w
    }

    fn output_dim(&self) -> usize {
        let (oc, oh, ow) = self.output_shape();
        oc * oh * ow
    }

    fn flops_forward(&self) -> u64 {
        (self.c * self.h * self.w) as u64 // one comparison per input element
    }

    fn name(&self) -> &'static str {
        "maxpool2d"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::tests::{
        assert_backward_into_contract, assert_inference_leaves_the_round_alone,
    };

    #[test]
    fn pools_known_values() {
        let mut pool = MaxPool2d::new(2, 2, 2, 2);
        let x = Matrix::from_vec(1, 8, vec![1.0, 2.0, 3.0, 4.0, -1.0, -2.0, -3.0, -4.0]).unwrap();
        let y = pool.forward(&x, true);
        assert_eq!(y.as_slice(), &[4.0, -1.0]);
    }

    #[test]
    fn backward_routes_to_winner() {
        let mut pool = MaxPool2d::new(1, 2, 2, 2);
        let x = Matrix::from_vec(1, 4, vec![1.0, 9.0, 3.0, 4.0]).unwrap();
        let _ = pool.forward(&x, true);
        let gi = pool.backward(&Matrix::from_vec(1, 1, vec![5.0]).unwrap());
        assert_eq!(gi.as_slice(), &[0.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    fn inference_between_forward_and_backward_leaves_the_round_alone() {
        let mut pool = MaxPool2d::new(2, 4, 4, 2);
        let x = Matrix::from_fn(3, 32, |r, c| ((r * 32 + c) as f32 * 0.37).sin());
        let served = Matrix::from_fn(5, 32, |r, c| ((r * 32 + c) as f32 * 0.41).cos());
        let grad = Matrix::from_fn(3, 8, |r, c| (r * 8 + c) as f32 + 1.0);
        assert_inference_leaves_the_round_alone(&pool, &x, &served, &grad);
        let _ = pool.forward(&served, false);
        assert!(pool.cached_input.is_none());
    }

    #[test]
    fn backward_into_meets_the_layer_contract() {
        let pool = MaxPool2d::new(2, 4, 4, 2);
        let x = Matrix::from_fn(3, 32, |r, c| ((r * 32 + c) as f32 * 0.37).sin());
        let grad = Matrix::from_fn(3, 8, |r, c| (r * 8 + c) as f32 + 1.0);
        assert_backward_into_contract(&pool, &x, &grad);
    }

    #[test]
    #[should_panic(expected = "MaxPool2d::backward: no training-mode forward")]
    fn backward_after_only_an_inference_forward_panics() {
        let mut pool = MaxPool2d::new(1, 2, 2, 2);
        let _ = pool.forward(&Matrix::from_fn(1, 4, |_, _| 1.0), false);
        let _ = pool.backward(&Matrix::from_fn(1, 1, |_, _| 1.0));
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn rejects_non_dividing_window() {
        let _ = MaxPool2d::new(1, 5, 4, 2);
    }

    #[test]
    fn no_params() {
        let mut pool = MaxPool2d::new(1, 4, 4, 2);
        assert!(pool.params().is_empty());
        assert_eq!(pool.param_count(), 0);
    }
}
