//! Decoder construction (paper eq. 3 and the Fig. 8 depth sweep).
//!
//! The paper's decoder is "a one-layer fully-connected decoder … however,
//! for different reconstruction tasks, the number of layers and the
//! structure of the decoder can be increased". This module builds dense
//! decoder stacks of any depth, interpolating hidden widths geometrically
//! between the latent dimension `M` and the output dimension `N`.

use orco_nn::{Activation, Dense, Sequential};
use orco_tensor::OrcoRng;

/// Hidden-layer widths for a decoder of `layers` dense layers mapping
/// `latent_dim → … → output_dim`.
///
/// Widths are geometrically interpolated, e.g. 128→784 with 3 layers gives
/// approximately `[128, 233, 425, 784]` boundaries.
///
/// # Panics
///
/// Panics if any argument is zero.
#[must_use]
pub(crate) fn layer_widths(latent_dim: usize, output_dim: usize, layers: usize) -> Vec<usize> {
    assert!(latent_dim > 0 && output_dim > 0 && layers > 0, "layer_widths: zero argument");
    let mut widths = Vec::with_capacity(layers + 1);
    let lm = (latent_dim as f64).ln();
    let ln = (output_dim as f64).ln();
    for i in 0..=layers {
        let t = i as f64 / layers as f64;
        let w = (lm + t * (ln - lm)).exp().round() as usize;
        widths.push(w.max(1));
    }
    // Endpoints must be exact.
    widths[0] = latent_dim;
    widths[layers] = output_dim;
    widths
}

/// Builds a decoder: `layers` dense layers with sigmoid activations
/// (hidden layers) and a sigmoid output (pixels live in `[0, 1]`).
///
/// # Panics
///
/// Panics if any argument is zero.
#[must_use]
pub(crate) fn build_decoder(
    latent_dim: usize,
    output_dim: usize,
    layers: usize,
    rng: &mut OrcoRng,
) -> Sequential {
    let widths = layer_widths(latent_dim, output_dim, layers);
    let mut model = Sequential::new();
    for w in widths.windows(2) {
        model.push(Dense::new(w[0], w[1], Activation::Sigmoid, rng));
    }
    model
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_layer_is_direct() {
        assert_eq!(layer_widths(128, 784, 1), vec![128, 784]);
    }

    #[test]
    fn widths_are_monotone_when_expanding() {
        let w = layer_widths(128, 784, 3);
        assert_eq!(w.len(), 4);
        assert_eq!(w[0], 128);
        assert_eq!(w[3], 784);
        assert!(w.windows(2).all(|p| p[0] <= p[1]), "{w:?}");
    }

    #[test]
    fn deep_decoder_has_requested_layers() {
        let mut rng = OrcoRng::from_label("dec", 0);
        for layers in [1usize, 3, 5] {
            let d = build_decoder(64, 784, layers, &mut rng);
            assert_eq!(d.len(), layers);
            assert_eq!(d.input_dim(), Some(64));
            assert_eq!(d.output_dim(), Some(784));
        }
    }

    #[test]
    fn deeper_decoders_have_more_params() {
        let mut rng = OrcoRng::from_label("dec-params", 0);
        let shallow = build_decoder(128, 784, 1, &mut rng).param_count();
        let deep = build_decoder(128, 784, 3, &mut rng).param_count();
        assert!(deep > shallow);
    }

    #[test]
    fn contracting_widths_also_work() {
        let w = layer_widths(512, 64, 2);
        assert!(w[0] > w[1] && w[1] > w[2], "{w:?}");
    }
}
