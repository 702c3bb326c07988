//! Traditional compressed sensing — the pre-deep-learning CDA the paper's
//! introduction argues against.
//!
//! The classical pipeline: measure `y = Φx` with a random Gaussian matrix
//! `Φ` (no training needed), then reconstruct by exploiting sparsity of `x`
//! in a transform basis `Ψ` (here the 2-D DCT): solve
//! `min ‖θ‖₁ s.t. ΦΨθ ≈ y` with a convex solver. Two reference solvers are
//! provided: `ista` (iterative shrinkage-thresholding) and `omp`
//! (orthogonal matching pursuit, greedy).
//!
//! The paper's critique is implemented verbatim by this module's behaviour:
//! the decoders are **computationally intensive** (hundreds of matrix
//! iterations per image vs one forward pass for a learned decoder) and
//! quality is **limited by the dimension and sparsity of measurements** —
//! both measurable with the benches in `orco-bench`.

mod codec;
mod dct;
mod ista;
mod measurement;
mod omp;

pub use codec::{ClassicalCodec, CsSolver};
pub use ista::IstaConfig;
