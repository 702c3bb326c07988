//! Gradient compression for the error-feedback uplink.
//!
//! The per-round reconstruction-gradient uplink (`batch × N` floats) is the
//! heaviest message of the orchestrated protocol. Because Huber gradients
//! are bounded (the linear regime is exactly `±δ`), they quantize extremely
//! well: this module provides symmetric per-tensor **8-bit linear
//! quantization**, cutting that uplink 4× with a worst-case element error
//! of `max|g| / 127`.
//!
//! Compression is applied *honestly* in the simulation: the decoder update
//! uses the dequantized gradient, so any accuracy cost of the 4× byte
//! saving shows up in the training curves rather than being assumed away.

use orco_tensor::Matrix;

/// Gradient-compression policy for the feedback uplink.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GradCompression {
    /// Full-precision f32 gradients (4 bytes/element).
    #[default]
    None,
    /// Symmetric 8-bit linear quantization (1 byte/element + 4-byte scale).
    Byte,
}

impl GradCompression {
    /// Wire bytes for a gradient matrix under this policy.
    #[must_use]
    pub(crate) fn wire_bytes(self, elements: usize) -> u64 {
        match self {
            GradCompression::None => (elements * 4) as u64,
            GradCompression::Byte => elements as u64 + 4,
        }
    }

    /// Applies the policy: returns the gradient the receiver will see and
    /// the bytes it costs on the wire.
    #[must_use]
    pub fn apply(self, grad: &Matrix) -> (Matrix, u64) {
        match self {
            GradCompression::None => (grad.clone(), self.wire_bytes(grad.len())),
            GradCompression::Byte => {
                let q = QuantizedMatrix::quantize(grad);
                (q.dequantize(), self.wire_bytes(grad.len()))
            }
        }
    }
}

/// A matrix quantized to `i8` with one per-tensor scale.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct QuantizedMatrix {
    rows: usize,
    cols: usize,
    scale: f32,
    data: Vec<i8>,
}

impl QuantizedMatrix {
    /// Quantizes symmetrically: `q = round(v / scale)` with
    /// `scale = max|v| / 127` (an all-zero matrix gets scale 0 and all-zero
    /// codes).
    #[must_use]
    pub(crate) fn quantize(m: &Matrix) -> Self {
        let max_abs =
            m.as_slice().iter().map(|v| v.abs()).fold(0.0, |a, v| if v > a { v } else { a });
        if max_abs == 0.0 {
            return Self { rows: m.rows(), cols: m.cols(), scale: 0.0, data: vec![0; m.len()] };
        }
        let scale = max_abs / 127.0;
        let data =
            m.as_slice().iter().map(|&v| (v / scale).round().clamp(-127.0, 127.0) as i8).collect();
        Self { rows: m.rows(), cols: m.cols(), scale, data }
    }

    /// Reconstructs the f32 matrix.
    #[must_use]
    pub(crate) fn dequantize(&self) -> Matrix {
        let data: Vec<f32> = self.data.iter().map(|&q| f32::from(q) * self.scale).collect();
        Matrix::from_vec(self.rows, self.cols, data).expect("dimensions preserved")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orco_tensor::OrcoRng;

    #[test]
    fn roundtrip_error_within_half_step() {
        let mut rng = OrcoRng::from_label("quant", 0);
        let m = Matrix::from_fn(16, 24, |_, _| rng.uniform(-0.3, 0.3));
        let q = QuantizedMatrix::quantize(&m);
        let back = q.dequantize();
        let bound = q.scale / 2.0 + 1e-7; // half a quantization step
        assert!(
            m.max_abs_diff(&back) <= bound,
            "error {} exceeds bound {bound}",
            m.max_abs_diff(&back)
        );
    }

    #[test]
    fn zero_matrix_roundtrips_exactly() {
        let m = Matrix::zeros(3, 5);
        let q = QuantizedMatrix::quantize(&m);
        assert_eq!(q.scale, 0.0);
        assert_eq!(q.dequantize(), m);
    }

    #[test]
    fn extreme_values_map_to_full_range() {
        let m = Matrix::from_vec(1, 3, vec![-2.0, 0.0, 2.0]).unwrap();
        let q = QuantizedMatrix::quantize(&m);
        let back = q.dequantize();
        assert!((back[(0, 0)] + 2.0).abs() < 1e-6);
        assert!((back[(0, 2)] - 2.0).abs() < 1e-6);
        assert_eq!(back[(0, 1)], 0.0);
    }

    #[test]
    fn byte_policy_is_4x_smaller() {
        assert_eq!(GradCompression::None.wire_bytes(1000), 4000);
        assert_eq!(GradCompression::Byte.wire_bytes(1000), 1004);
    }

    #[test]
    fn apply_none_is_identity() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32 * 0.1);
        let (out, bytes) = GradCompression::None.apply(&m);
        assert_eq!(out, m);
        assert_eq!(bytes, 24);
    }

    #[test]
    fn apply_byte_returns_dequantized_and_fewer_bytes() {
        let mut rng = OrcoRng::from_label("quant-apply", 0);
        let m = Matrix::from_fn(8, 8, |_, _| rng.normal(0.0, 0.1));
        let (out, bytes) = GradCompression::Byte.apply(&m);
        assert_eq!(bytes, 68);
        assert_ne!(out, m); // lossy
        assert!(m.max_abs_diff(&out) < 0.01);
    }

    #[test]
    fn sign_structure_is_preserved() {
        // Huber linear-regime gradients are ±δ; quantization must keep signs.
        let m = Matrix::from_vec(1, 4, vec![0.5, -0.5, 0.5, -0.5]).unwrap();
        let back = QuantizedMatrix::quantize(&m).dequantize();
        for (orig, deq) in m.as_slice().iter().zip(back.as_slice()) {
            assert_eq!(orig.signum(), deq.signum());
            assert!((orig - deq).abs() < 1e-6, "±δ values are exactly representable");
        }
    }
}
