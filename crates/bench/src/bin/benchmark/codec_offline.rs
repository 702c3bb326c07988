//! `codec_offline`: `encode_batch` then `decode_batch` at batch 256, no
//! serve layer — the dense 784 → 128 autoencoder, the dense 3072 → 512
//! one, and DCSNet's dense encoder + four-conv decoder. The same tensor
//! and nn kernels the serve workloads read, at the shapes they never
//! touch (im2col + conv, 3072-wide matmuls).

use orco_baselines::dcsnet::DCSNET_LATENT_DIM;
use orco_baselines::Dcsnet;
use orco_datasets::{gtsrb_like, mnist_like, DatasetKind};
use orco_nn::{Activation, Conv2d, Dense, Layer};
use orco_tensor::{im2col, Conv2dGeom, Matrix, OrcoRng};
use orcodcs::{AsymmetricAutoencoder, Codec, OrcoConfig};

use crate::report::{median_call_s, timed_setups, trials, Ctx, Report};
use crate::serve::err;
use crate::stats::{row_digest, StreamDigest};

/// Rows of the offline batch.
const BATCH: usize = 256;
/// Frames checked batch ≡ per-frame at set-up.
const SAMPLE: usize = 4;

/// One codec with its inputs and the digest its decoded batch must have.
struct Subject {
    key: &'static str,
    codec: Box<dyn Codec>,
    frames: Matrix,
    expect: StreamDigest,
    /// Batches per trial, sized so a trial is a few tenths of a second.
    batches_per_trial: usize,
    codes: Matrix,
    out: Matrix,
}

fn digest(m: &Matrix) -> StreamDigest {
    let mut d = StreamDigest::default();
    m.iter_rows().for_each(|row| d.fold(row_digest(row)));
    d
}

impl Subject {
    /// Builds the subject, checks batch ≡ per-frame on a sample, and
    /// runs one warm-up batch whose digest becomes the reference.
    fn new(
        key: &'static str,
        mut codec: Box<dyn Codec>,
        frames: Matrix,
        batches_per_trial: usize,
    ) -> Result<Self, String> {
        let (mut codes, mut out) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        codec.encode_batch(frames.as_view(), &mut codes).map_err(err)?;
        codec.decode_batch(codes.as_view(), &mut out).map_err(err)?;
        for r in (0..frames.rows()).step_by(frames.rows() / SAMPLE) {
            let code = codec.encode_frame(frames.row(r)).map_err(err)?;
            let frame = codec.decode_frame(&code).map_err(err)?;
            if row_digest(&code) != row_digest(codes.row(r))
                || row_digest(&frame) != row_digest(out.row(r))
            {
                return Err(format!("{key}: batch and per-frame paths differ on row {r}"));
            }
        }
        let expect = digest(&out);
        Ok(Self { key, codec, frames, expect, batches_per_trial, codes, out })
    }

    /// One trial: `batches_per_trial` round trips, then the digest gate.
    /// Returns seconds per batch.
    fn trial(&mut self) -> Result<f64, String> {
        let start = std::time::Instant::now();
        for _ in 0..self.batches_per_trial {
            self.codec.encode_batch(self.frames.as_view(), &mut self.codes).map_err(err)?;
            self.codec.decode_batch(self.codes.as_view(), &mut self.out).map_err(err)?;
        }
        let took = start.elapsed().as_secs_f64();
        if digest(&self.out) != self.expect {
            return Err(format!("{}: decoded batch changed between identical calls", self.key));
        }
        Ok(took / self.batches_per_trial as f64)
    }
}

fn setup(seed: u64, rows: usize) -> Result<[Subject; 3], String> {
    let mnist = mnist_like::generate(rows, seed).x().clone();
    let gtsrb = gtsrb_like::generate(rows, seed).x().clone();
    let ae = |kind: DatasetKind| -> Result<Box<dyn Codec>, String> {
        let cfg =
            OrcoConfig::for_dataset(kind).with_latent_dim(kind.paper_latent_dim()).with_seed(seed);
        Ok(Box::new(AsymmetricAutoencoder::new(&cfg).map_err(err)?))
    };
    Ok([
        Subject::new("ae_mnist", ae(DatasetKind::MnistLike)?, mnist.clone(), 8)?,
        Subject::new("ae_gtsrb", ae(DatasetKind::GtsrbLike)?, gtsrb, 1)?,
        Subject::new("dcsnet", Box::new(Dcsnet::new(DatasetKind::MnistLike, seed)), mnist, 1)?,
    ])
}

/// Runs the workload.
///
/// # Errors
///
/// Any correctness-gate failure or error from the program under test.
pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let seed = ctx.seed;
    let rows = ctx.scale(BATCH, 32);
    let setups = ctx.setups();
    let (mut subjects, setup_s) = timed_setups(setups, &mut ctx.cal, || setup(seed, rows))?;
    if ctx.traced {
        return traced(ctx, &mut subjects, rows);
    }

    // Each trial: seconds per frame for the rates, per batch for the time.
    // The run's time goes where the trials are long: a DCSNet trial takes
    // 0.45 s against 0.14 s for the MNIST-like autoencoder, and a median
    // of ten of them moved 8 % between identical runs.
    let mut per_frame_s = Vec::new();
    for (s, share) in subjects.iter_mut().zip([0.15, 0.3, 0.5]) {
        let v = trials(share * ctx.seconds, 3, &mut ctx.cal, || s.trial())?;
        ctx.report.ops(s.key, (v.len() * s.batches_per_trial * rows) as u64, 0);
        per_frame_s
            .push(v.iter().map(|(batch_s, h)| (batch_s / rows as f64, *h)).collect::<Vec<_>>());
    }
    let r = &mut ctx.report;
    r.set_rate(
        "primary_per_s",
        &per_frame_s[0],
        "AE MNIST-like 784->128 round-trip frames/s, batch 256",
    );
    r.set_rate("contrast_per_s", &per_frame_s[2], "DCSNet round-trip frames/s, batch 256");
    r.set_time(
        "latency_p50_ms",
        1e3 * rows as f64,
        &per_frame_s[1],
        "AE GTSRB-like 3072->512, ms per batch-256 round trip",
    );
    r.set_setup(&setup_s, "datasets + three codecs + references + warm-up batch");
    Ok(())
}

/// Bytes a frame moves through a dense autoencoder at `batch` rows: the
/// frame in, the code out and back in, the reconstruction out, and each
/// weight matrix once per batch. Computed from tensor sizes, not
/// measured.
fn dense_bytes_per_frame(input: usize, code: usize, batch: usize) -> f64 {
    let activations = 2 * (input + code);
    let weights = 2 * input * code;
    4.0 * (activations as f64 + weights as f64 / batch as f64)
}

/// The same for DCSNet on MNIST-like frames: the dense encoder, then per
/// conv layer its input map, its im2col patch matrix (written and read)
/// and its output map. Computed from tensor sizes, not measured.
fn dcsnet_bytes_per_frame(input: usize, batch: usize) -> f64 {
    let side = 32 * 32;
    let dense =
        (input + DCSNET_LATENT_DIM) as f64 + (input * DCSNET_LATENT_DIM) as f64 / batch as f64;
    let conv: usize = [(1, 16), (16, 16), (16, 8), (8, 1)]
        .iter()
        .map(|&(in_c, out_c)| side * (in_c + 2 * in_c * 9 + out_c))
        .sum();
    4.0 * (dense + conv as f64)
}

fn traced(ctx: &mut Ctx, subjects: &mut [Subject; 3], rows: usize) -> Result<(), String> {
    let small = rows.min(64);
    let calls = ctx.scale(10, 2);
    let mut ops = 0;
    for s in subjects.iter_mut() {
        for (suffix, batch) in [("b64", small), ("b256", rows)] {
            let view = s.frames.view_rows(0..batch);
            // As in the untraced trials: more calls of the fast codec.
            let calls = calls * s.batches_per_trial;
            let (mut enc_s, mut dec_s) = (Vec::new(), Vec::new());
            for request in 0..calls as u64 {
                let enc = ctx.tracer.enter("codec.encode_batch", request);
                s.codec.encode_batch(view, &mut s.codes).map_err(err)?;
                enc_s.push(ctx.tracer.exit(enc));
                let dec = ctx.tracer.enter("codec.decode_batch", request);
                s.codec.decode_batch(s.codes.as_view(), &mut s.out).map_err(err)?;
                dec_s.push(ctx.tracer.exit(dec));
            }
            ops += calls * batch;
            let per_frame_us = |v: &[f64]| crate::stats::median(v) / batch as f64 * 1e6;
            for (side, v) in [("encode", &enc_s), ("decode", &dec_s)] {
                let name = format!("codec.{}.{side}_us_per_frame.{suffix}", s.key);
                ctx.report.set(&name, per_frame_us(v), "median call / rows");
            }
        }
    }
    ctx.report.ops("encode_batch + decode_batch, batch 64 and 256", ops as u64, 0);
    let r = &mut ctx.report;
    for s in subjects.iter() {
        let dims = s.codec.frame_dims();
        let bytes = match s.key {
            "dcsnet" => dcsnet_bytes_per_frame(dims.input, rows),
            _ => dense_bytes_per_frame(dims.input, dims.code, rows),
        };
        r.set(&format!("codec.{}.bytes_moved_per_frame", s.key), bytes, "from tensor sizes");
    }
    kernel_probes(r, ctx.seed, calls);
    r.set("trace.spans", ctx.tracer.len() as f64, "spans recorded");
    r.set("host.factor", ctx.cal.median_factor(), "median host factor over the run's set-up");
    Ok(())
}

/// The forward-side tensor and nn probes, at the models' dominant
/// shapes; FLOPs are counted from the shapes.
fn kernel_probes(r: &mut Report, seed: u64, calls: usize) {
    let mut rng = OrcoRng::from_label("kernel-probes", seed);
    let mut rand = |rows, cols| Matrix::from_fn(rows, cols, |_, _| rng.uniform(-1.0, 1.0));
    let gflops = |m: usize, k: usize, n: usize, s: f64| 2.0 * (m * k * n) as f64 / s / 1e9;

    // Encoder: 64 frames x 784 against 784 x 128; decoder the reverse.
    for (name, m, k, n) in [
        ("tensor.matmul_gflops.enc_b64", 64, 784, 128),
        ("tensor.matmul_gflops.dec_b64", 64, 128, 784),
    ] {
        let (a, b, mut out) = (rand(m, k), rand(k, n), Matrix::zeros(m, n));
        let s = median_call_s(20 * calls, || {
            out.as_mut_slice().fill(0.0);
            a.as_view().matmul_into(b.as_view(), out.as_view_mut());
        });
        r.set(name, gflops(m, k, n, s), &format!("matmul_into {m}x{k} . {k}x{n}"));
    }

    // DCSNet's widest conv layer: 16 channels of 32 x 32, 3 x 3, pad 1.
    let geom = Conv2dGeom::new(16, 32, 32, 3, 1, 1);
    let map = rand(1, geom.input_len());
    let s = median_call_s(20 * calls, || {
        std::hint::black_box(im2col(map.row(0), &geom));
    });
    r.set("tensor.im2col_us", s * 1e6, "im2col of one 16x32x32 map, 3x3 pad 1");

    let mut dense =
        Dense::new(784, 128, Activation::Sigmoid, &mut OrcoRng::from_label("probe-dense", seed));
    let x = rand(64, 784);
    let s = median_call_s(20 * calls, || {
        std::hint::black_box(dense.forward(&x, false));
    });
    r.set("nn.dense_fwd_us", s * 1e6, "Dense 784->128 forward, 64 rows");

    let mut conv = Conv2d::new(
        16,
        32,
        32,
        16,
        3,
        1,
        1,
        Activation::Relu,
        &mut OrcoRng::from_label("probe-conv", seed),
    );
    let x = rand(8, 16 * 32 * 32);
    let s = median_call_s(calls, || {
        std::hint::black_box(conv.forward(&x, false));
    });
    r.set("nn.conv_fwd_us", s * 1e6, "Conv2d 16->16 3x3 on 32x32 forward, 8 rows");
}
