//! Classical compressed sensing packaged as an experiment backend.
//!
//! [`ClassicalCodec`] wires the pieces of this module into one
//! [`orcodcs::Codec`]: a random Gaussian measurement operator `Φ`
//! ([`GaussianMeasurement`]) encodes each channel of a frame, and
//! reconstruction solves the sparse recovery problem in the 2-D DCT basis
//! ([`Dct2`]) with either [`ista_reconstruct_with`] or
//! [`omp_reconstruct_with`].
//!
//! The backend is deliberately faithful to the drawbacks the paper's
//! introduction cites for traditional CDA: there is **nothing to train**
//! (`train` is a no-op — the operator is data-independent), decoding is
//! **computationally intensive** (hundreds of matrix iterations per frame
//! instead of one decoder forward pass), and quality is **limited by the
//! measurement dimension** `m`.
//!
//! The batched data plane exploits what *is* fixed about the stack:
//! `Φᵀ` is materialized once at construction so `encode_batch` is one
//! blocked GEMM per channel, the ISTA Lipschitz constant is estimated
//! once per operator instead of once per frame, and both solvers reuse
//! workspaces across the frames of a round ([`IstaScratch`] /
//! [`OmpScratch`]).

use orco_datasets::DatasetKind;
use orco_tensor::{MatView, Matrix, OrcoRng};
use orcodcs::{Codec, OrcoError, TrainSpec, TrainingHistory};

use crate::cs::dct::Dct2;
use crate::cs::ista::{
    ista_reconstruct_with, lipschitz_estimate, IstaConfig, IstaScratch, LIPSCHITZ_POWER_ITERS,
};
use crate::cs::measurement::GaussianMeasurement;
use crate::cs::omp::{omp_reconstruct_with, OmpScratch};

/// Which sparse-recovery decoder the codec runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CsSolver {
    /// Iterative shrinkage-thresholding (convex ℓ₁ relaxation).
    Ista(IstaConfig),
    /// Orthogonal matching pursuit with the given sparsity budget.
    Omp {
        /// Number of DCT atoms the greedy pursuit may select.
        sparsity: usize,
    },
}

/// The classical `Φ` + DCT + ISTA/OMP stack behind the [`Codec`] interface.
///
/// Colour frames are processed per channel: every channel of an
/// `C × side × side` frame is measured by the same `m × side²` operator, so
/// one encoded frame is `C · m` values.
///
/// # Examples
///
/// ```
/// use orco_baselines::cs::{ClassicalCodec, CsSolver};
/// use orco_datasets::DatasetKind;
/// use orcodcs::Codec;
///
/// let mut codec = ClassicalCodec::new(
///     DatasetKind::MnistLike,
///     128,
///     CsSolver::Omp { sparsity: 32 },
///     0,
/// );
/// assert_eq!(codec.name(), "DCT+OMP");
/// assert_eq!(codec.code_len(), 128);
/// let frame = vec![0.5f32; 784];
/// let code = codec.encode_frame(&frame)?;
/// assert_eq!(code.len(), 128);
/// assert_eq!(codec.decode_frame(&code)?.len(), 784);
/// # Ok::<(), orcodcs::OrcoError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ClassicalCodec {
    channels: usize,
    side: usize,
    dct: Dct2,
    phi: GaussianMeasurement,
    /// Cached `Φᵀ`: the operator is data-independent and never retrained,
    /// so the batched encode GEMM streams this once per round.
    phi_t: Matrix,
    /// Cached sensing matrix `A = Φ·Ψ` the solvers run against.
    sensing: Matrix,
    /// Cached ISTA Lipschitz estimate of `sensing` (0 for OMP) — computed
    /// with the same [`LIPSCHITZ_POWER_ITERS`] the one-shot solver uses
    /// per frame, so caching is bit-neutral.
    ista_l: f32,
    solver: CsSolver,
    // Round-persistent workspaces for the batched paths.
    ista_ws: IstaScratch,
    omp_ws: OmpScratch,
    chan_scratch: Matrix,
    code_scratch: Matrix,
}

impl ClassicalCodec {
    /// Builds the stack for a dataset kind with `measurements` rows of `Φ`
    /// per channel.
    ///
    /// # Panics
    ///
    /// Panics if `measurements` is zero or exceeds the per-channel pixel
    /// count (a measurement must compress).
    #[must_use]
    pub fn new(kind: DatasetKind, measurements: usize, solver: CsSolver, seed: u64) -> Self {
        let side = kind.height();
        let dct = Dct2::new(side);
        let mut rng = OrcoRng::from_label("classical-codec", seed);
        let phi = GaussianMeasurement::new(measurements, side * side, &mut rng);
        let phi_t = phi.phi().transpose();
        let sensing = phi.sensing_matrix(&dct.synthesis_matrix());
        let ista_l = match solver {
            CsSolver::Ista(_) => lipschitz_estimate(&sensing, LIPSCHITZ_POWER_ITERS),
            CsSolver::Omp { .. } => 0.0,
        };
        Self {
            channels: kind.channels(),
            side,
            dct,
            phi,
            phi_t,
            sensing,
            ista_l,
            solver,
            ista_ws: IstaScratch::default(),
            omp_ws: OmpScratch::default(),
            chan_scratch: Matrix::zeros(0, 0),
            code_scratch: Matrix::zeros(0, 0),
        }
    }

    /// Measurements per channel `m`.
    #[must_use]
    pub(crate) fn measurements(&self) -> usize {
        self.phi.measurements()
    }

    fn pixels_per_channel(&self) -> usize {
        self.side * self.side
    }

    /// Solves one channel's recovery problem and writes the reconstructed
    /// pixels into `out_px`.
    fn decode_channel(&mut self, y: &[f32], out_px: &mut [f32]) {
        let m = self.measurements();
        let pixels = match self.solver {
            CsSolver::Ista(config) => {
                ista_reconstruct_with(&self.sensing, self.ista_l, y, &config, &mut self.ista_ws);
                self.dct.inverse(&self.ista_ws.theta)
            }
            CsSolver::Omp { sparsity } => {
                let coefficients =
                    omp_reconstruct_with(&self.sensing, y, sparsity.clamp(1, m), &mut self.omp_ws);
                self.dct.inverse(&coefficients)
            }
        };
        out_px.copy_from_slice(&pixels);
    }
}

impl Codec for ClassicalCodec {
    fn name(&self) -> &'static str {
        match self.solver {
            CsSolver::Ista(_) => "DCT+ISTA",
            CsSolver::Omp { .. } => "DCT+OMP",
        }
    }

    fn input_dim(&self) -> usize {
        self.channels * self.pixels_per_channel()
    }

    fn bytes_per_frame(&self) -> u64 {
        (self.channels * self.measurements() * 4) as u64
    }

    /// Classical CS has no parameters to fit: the measurement operator is
    /// random and the basis is fixed. Returns an empty history.
    fn train(&mut self, _x: &Matrix, spec: &TrainSpec) -> Result<TrainingHistory, OrcoError> {
        spec.validate()?;
        Ok(TrainingHistory::default())
    }

    /// One blocked GEMM against the cached `Φᵀ` per channel — the
    /// single-channel case runs zero-copy from the frame view straight
    /// into `out`.
    fn encode_batch(&mut self, frames: MatView<'_>, out: &mut Matrix) -> Result<(), OrcoError> {
        Codec::frame_dims(self).check_frames(Codec::name(self), frames)?;
        let (m, hw) = (self.measurements(), self.pixels_per_channel());
        let rows = frames.rows();
        out.reset(rows, self.channels * m);
        if self.channels == 1 {
            frames.matmul_into(self.phi_t.as_view(), out.as_view_mut());
            return Ok(());
        }
        for c in 0..self.channels {
            // Gather the channel block (strided across rows) into the
            // round-persistent scratch, then one GEMM for the whole round.
            self.chan_scratch.reset(rows, hw);
            for r in 0..rows {
                self.chan_scratch.row_mut(r).copy_from_slice(&frames.row(r)[c * hw..(c + 1) * hw]);
            }
            self.code_scratch.reset(rows, m);
            self.chan_scratch
                .as_view()
                .matmul_into(self.phi_t.as_view(), self.code_scratch.as_view_mut());
            for r in 0..rows {
                out.row_mut(r)[c * m..(c + 1) * m].copy_from_slice(self.code_scratch.row(r));
            }
        }
        Ok(())
    }

    /// Per-frame solves (ISTA/OMP are inherently sequential per code
    /// column), but against the cached operator/Lipschitz constant and
    /// round-persistent workspaces — no allocation per solver iteration.
    fn decode_batch(&mut self, codes: MatView<'_>, out: &mut Matrix) -> Result<(), OrcoError> {
        Codec::frame_dims(self).check_codes(Codec::name(self), codes)?;
        let (m, hw) = (self.measurements(), self.pixels_per_channel());
        out.reset(codes.rows(), self.channels * hw);
        for r in 0..codes.rows() {
            for c in 0..self.channels {
                let y = &codes.row(r)[c * m..(c + 1) * m];
                self.decode_channel(y, &mut out.row_mut(r)[c * hw..(c + 1) * hw]);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orco_datasets::{gtsrb_like, mnist_like};
    use orco_tensor::stats;

    fn ista_codec(m: usize) -> ClassicalCodec {
        ClassicalCodec::new(
            DatasetKind::MnistLike,
            m,
            CsSolver::Ista(IstaConfig { lambda: 0.01, max_iters: 150, tol: 1e-5 }),
            0,
        )
    }

    #[test]
    fn roundtrip_recovers_smooth_images() {
        let ds = mnist_like::generate(2, 0);
        let mut codec = ista_codec(256);
        let frame = ds.sample(0);
        let code = codec.encode_frame(frame).unwrap();
        assert_eq!(code.len(), 256);
        let recon = codec.decode_frame(&code).unwrap();
        let psnr = stats::psnr(frame, &recon, 1.0);
        assert!(psnr > 10.0, "256-measurement ISTA PSNR {psnr} too low");
    }

    #[test]
    fn more_measurements_reconstruct_better() {
        // The paper's dimension-limited-quality critique, through the codec.
        let ds = mnist_like::generate(1, 1);
        let frame = ds.sample(0);
        let psnr_for = |m: usize| {
            let mut codec = ista_codec(m);
            let code = codec.clone().encode_frame(frame).unwrap();
            let recon = codec.decode_frame(&code).unwrap();
            stats::psnr(frame, &recon, 1.0)
        };
        assert!(psnr_for(256) > psnr_for(32), "quality must grow with m");
    }

    #[test]
    fn colour_frames_process_per_channel() {
        let ds = gtsrb_like::generate(1, 0);
        let mut codec =
            ClassicalCodec::new(DatasetKind::GtsrbLike, 64, CsSolver::Omp { sparsity: 16 }, 0);
        assert_eq!(codec.input_dim(), 3072);
        assert_eq!(codec.code_len(), 3 * 64);
        assert_eq!(codec.bytes_per_frame(), 3 * 64 * 4);
        let code = codec.clone().encode_frame(ds.sample(0)).unwrap();
        let recon = codec.decode_frame(&code).unwrap();
        assert_eq!(recon.len(), 3072);
        assert!(recon.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn batch_encode_is_phi_times_each_channel() {
        // `y = Φx` per channel, against the 1-channel GEMM straight into
        // `out` and the 3-channel gather/scatter path.
        let cases = [
            (DatasetKind::MnistLike, mnist_like::generate(3, 1)),
            (DatasetKind::GtsrbLike, gtsrb_like::generate(3, 1)),
        ];
        for (kind, ds) in cases {
            let mut codec = ClassicalCodec::new(kind, 32, CsSolver::Omp { sparsity: 8 }, 0);
            let mut codes = Matrix::filled(1, 1, f32::NAN);
            codec.encode_batch(ds.x().as_view(), &mut codes).unwrap();
            let hw = codec.pixels_per_channel();
            for r in 0..ds.len() {
                let frame = ds.sample(r);
                let want: Vec<f32> =
                    frame.chunks(hw).flat_map(|channel| codec.phi.measure(channel)).collect();
                assert_eq!(codes.row(r), &want[..], "{kind:?} row {r}");
            }
        }
    }

    #[test]
    fn training_is_a_noop() {
        let ds = mnist_like::generate(4, 2);
        let mut codec = ista_codec(64);
        let history = codec.train(ds.x(), &TrainSpec::default()).unwrap();
        assert!(history.rounds.is_empty());
        assert!(Codec::split_model(&mut codec).is_none(), "nothing to orchestrate");
        assert!(Codec::checkpoint(&codec).is_none(), "nothing to persist");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = ClassicalCodec::new(DatasetKind::MnistLike, 32, CsSolver::Omp { sparsity: 8 }, 7);
        let b = ClassicalCodec::new(DatasetKind::MnistLike, 32, CsSolver::Omp { sparsity: 8 }, 7);
        assert_eq!(a.phi.phi(), b.phi.phi());
        assert_eq!(a.phi_t, b.phi_t, "cached transpose tracks the operator");
    }
}
