//! Classical compressed sensing vs learned decoding — the comparison the
//! paper's introduction uses to motivate deep CDA.
//!
//! Traditional CDA measures with a random Gaussian matrix and reconstructs
//! by convex optimization (ISTA) or greedy pursuit (OMP) in a DCT basis.
//! All three decoders run behind the same `Codec` interface here: the
//! learned backend trains through an `ExperimentBuilder`, the classical
//! stacks are training-free `ClassicalCodec`s at sweeping measurement
//! dimensions. The table demonstrates the paper's two claims: classical
//! reconstruction is (i) computationally intensive and (ii) limited by
//! the measurement dimension.
//!
//! Run with: `cargo run --release --example classical_cs_comparison`

use std::time::Instant;

use orcodcs_repro::baselines::cs::{ClassicalCodec, CsSolver, IstaConfig};
use orcodcs_repro::core::{
    AsymmetricAutoencoder, Codec, ExperimentBuilder, OrcoConfig, TrainingMode,
};
use orcodcs_repro::datasets::mnist_like;
use orcodcs_repro::tensor::{stats, Matrix};

fn main() {
    let dataset = mnist_like::generate(120, 3);

    // --- Learned pipeline: train a small OrcoDCS codec locally. ---
    let cfg = OrcoConfig::for_dataset(dataset.kind());
    let mut experiment = ExperimentBuilder::new()
        .dataset(&dataset)
        .codec(AsymmetricAutoencoder::new(&cfg).expect("valid config"))
        .training(TrainingMode::Local)
        .epochs(6)
        .batch_size(32)
        .build()
        .expect("consistent experiment");
    let _report = experiment.run().expect("training runs");
    let learned = experiment.codec_mut();

    println!(
        "reconstructing 8 held-out digits with m measurements per image (n = {}):\n",
        Codec::input_dim(learned)
    );
    println!(
        "{:>6} {:>18} {:>18} {:>18}",
        "m", "ISTA PSNR (dB)", "OMP PSNR (dB)", "learned PSNR (dB)"
    );

    // The whole probe round moves through each backend as ONE batched
    // encode + decode over borrowed memory; the codes/recon buffers are
    // reused across every backend and measurement dimension.
    let probe_idx: Vec<usize> = (0..8).collect();
    let probe = dataset.x().select_rows(&probe_idx);
    let mut codes = Matrix::zeros(0, 0);
    let mut recon = Matrix::zeros(0, 0);
    let mean_psnr = |codec: &mut dyn Codec, codes: &mut Matrix, recon: &mut Matrix| -> (f32, f64) {
        codec.encode_batch(probe.as_view(), codes).expect("probe frames fit the codec");
        #[expect(
            clippy::disallowed_methods,
            reason = "example measures real decode latency of classical solvers; no DES involved"
        )]
        let t0 = Instant::now();
        codec.decode_batch(codes.as_view(), recon).expect("codes fit the codec");
        let decode_s = t0.elapsed().as_secs_f64();
        let psnrs = stats::psnr_rows(&probe, recon, 1.0);
        (stats::mean(&psnrs), decode_s)
    };

    for m in [64usize, 128, 256] {
        let mut ista = ClassicalCodec::new(
            dataset.kind(),
            m,
            CsSolver::Ista(IstaConfig { lambda: 0.01, max_iters: 300, tol: 1e-6 }),
            0,
        );
        let mut omp =
            ClassicalCodec::new(dataset.kind(), m, CsSolver::Omp { sparsity: (m / 4).max(8) }, 0);

        let (ista_psnr, ista_time) = mean_psnr(&mut ista, &mut codes, &mut recon);
        let (omp_psnr, _) = mean_psnr(&mut omp, &mut codes, &mut recon);
        let (learned_psnr, learned_time) = mean_psnr(learned, &mut codes, &mut recon);

        println!("{m:>6} {ista_psnr:>18.2} {omp_psnr:>18.2} {learned_psnr:>18.2}");
        if m == 128 {
            println!(
                "        (decode wall-time at m=128: ISTA {:.1} ms/image vs learned {:.3} ms/image)",
                ista_time / 8.0 * 1e3,
                learned_time / 8.0 * 1e3
            );
        }
    }

    println!(
        "\nThe classical decoders improve with m (dimension-limited) and cost\n\
         orders of magnitude more compute per image than one decoder forward\n\
         pass — exactly the two drawbacks the OrcoDCS paper cites for\n\
         traditional CDA."
    );
}
