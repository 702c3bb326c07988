//! Data-plane throughput bench: frames/s and MB/s per codec for the
//! batched `encode_batch`/`decode_batch` API at batch sizes 1/16/64/256,
//! against the per-frame `encode_frame` loop it replaced.
//!
//! This is the perf stake of the batched-data-plane redesign: on one core
//! the blocked-GEMM batch encode must beat the per-frame matvec loop by
//! ≥ 1.5× at batch 64 for the OrcoDCS autoencoder (the sensing-side cost
//! the paper's Figs. 5–9 comparisons lean on). Results are printed as a
//! table and appended-free-written as a JSON point
//! (`BENCH_frame_throughput.json`, override with `ORCO_BENCH_JSON`) to
//! seed the benchmark trajectory; CI uploads the quick-mode JSON as a
//! build artifact.
//!
//! Run with: `cargo bench --bench frame_throughput`
//! (`ORCO_SCALE=quick` shrinks the measurement budget for CI.)

// Benches time real work; wall-clock reads are the point (benches/ is
// likewise exempt from orco-lint's wall-clock rule).
#![allow(clippy::disallowed_methods)]
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use orco_baselines::cs::{ClassicalCodec, CsSolver, IstaConfig};
use orco_baselines::Dcsnet;
use orco_datasets::{mnist_like, DatasetKind};
use orco_tensor::Matrix;
use orcodcs::{AsymmetricAutoencoder, Codec, OrcoConfig};

const BATCH_SIZES: [usize; 4] = [1, 16, 64, 256];
/// Batch size of the headline batched-vs-per-frame comparison.
const PIVOT_BATCH: usize = 64;

struct Row {
    codec: &'static str,
    mode: &'static str,
    batch: usize,
    frames_per_s: f64,
    mb_per_s: f64,
}

/// Runs `f` repeatedly for at least `budget` (after one warm-up call) and
/// returns the mean seconds per call.
fn time_per_call(budget: Duration, mut f: impl FnMut()) -> f64 {
    f(); // warm-up (also grows the reused buffers to size)
    let start = Instant::now();
    let mut iters = 0u64;
    loop {
        f();
        iters += 1;
        let elapsed = start.elapsed();
        if elapsed >= budget {
            return elapsed.as_secs_f64() / iters as f64;
        }
    }
}

fn throughput(codec: &mut dyn Codec, frames: &Matrix, budget: Duration, rows: &mut Vec<Row>) {
    let name = codec.name();
    let frame_mb = (codec.input_dim() * 4) as f64 / 1e6;
    let mut codes = Matrix::zeros(0, 0);
    for batch in BATCH_SIZES {
        let view = frames.view_rows(0..batch);
        let secs = time_per_call(budget, || {
            codec.encode_batch(view, &mut codes).expect("frames fit the codec");
        });
        let frames_per_s = batch as f64 / secs;
        rows.push(Row {
            codec: name,
            mode: "encode_batch",
            batch,
            frames_per_s,
            mb_per_s: frames_per_s * frame_mb,
        });
    }
    // The per-frame loop the batch API replaced, at the pivot batch size.
    let secs = time_per_call(budget, || {
        for r in 0..PIVOT_BATCH {
            let _ = codec.encode_frame(frames.row(r)).expect("frame width is valid");
        }
    });
    let frames_per_s = PIVOT_BATCH as f64 / secs;
    rows.push(Row {
        codec: name,
        mode: "encode_per_frame",
        batch: PIVOT_BATCH,
        frames_per_s,
        mb_per_s: frames_per_s * frame_mb,
    });
}

fn main() {
    // The acceptance claim is per-core: pin the kernels to one thread so
    // the numbers measure the API, not the machine.
    orco_tensor::parallel::set_threads(1);
    let quick = std::env::var("ORCO_SCALE").as_deref() == Ok("quick");
    let budget = if quick { Duration::from_millis(120) } else { Duration::from_millis(400) };

    let kind = DatasetKind::MnistLike;
    let frames = mnist_like::generate(*BATCH_SIZES.iter().max().unwrap(), 0);

    let mut rows = Vec::new();
    let orco_cfg = OrcoConfig::for_dataset(kind).with_latent_dim(kind.paper_latent_dim());
    let mut orco = AsymmetricAutoencoder::new(&orco_cfg).expect("valid config");
    throughput(&mut orco, frames.x(), budget, &mut rows);
    let mut dcsnet = Dcsnet::new(kind, 0);
    throughput(&mut dcsnet, frames.x(), budget, &mut rows);
    let mut classical = ClassicalCodec::new(
        kind,
        kind.paper_latent_dim(),
        CsSolver::Ista(IstaConfig { lambda: 0.01, max_iters: 60, tol: 1e-6 }),
        0,
    );
    throughput(&mut classical, frames.x(), budget, &mut rows);

    println!("frame_throughput (1 thread, {} scale)", if quick { "quick" } else { "default" });
    println!("{:<10} {:<18} {:>6} {:>14} {:>10}", "codec", "mode", "batch", "frames/s", "MB/s");
    for r in &rows {
        println!(
            "{:<10} {:<18} {:>6} {:>14.1} {:>10.2}",
            r.codec, r.mode, r.batch, r.frames_per_s, r.mb_per_s
        );
    }

    let speedup = |codec: &str| -> f64 {
        let batch = rows
            .iter()
            .find(|r| r.codec == codec && r.mode == "encode_batch" && r.batch == PIVOT_BATCH)
            .expect("pivot batch row exists");
        let per_frame = rows
            .iter()
            .find(|r| r.codec == codec && r.mode == "encode_per_frame")
            .expect("per-frame row exists");
        batch.frames_per_s / per_frame.frames_per_s
    };
    let ae_speedup = speedup("OrcoDCS");
    println!("\nbatch-{PIVOT_BATCH} encode speedup vs per-frame loop:");
    for codec in ["OrcoDCS", "DCSNet", "DCT+ISTA"] {
        println!("  {codec:<10} {:.2}x", speedup(codec));
    }

    // One JSON point for the benchmark trajectory.
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"frame_throughput\",");
    let _ = writeln!(json, "  \"scale\": \"{}\",", if quick { "quick" } else { "default" });
    let _ = writeln!(json, "  \"threads\": 1,");
    let _ = writeln!(
        json,
        "  \"host_cores\": {},",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );
    let _ = writeln!(json, "  \"pivot_batch\": {PIVOT_BATCH},");
    let _ =
        writeln!(json, "  \"ae_batch{PIVOT_BATCH}_encode_speedup_vs_per_frame\": {ae_speedup:.4},");
    let _ = writeln!(json, "  \"results\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"codec\": \"{}\", \"mode\": \"{}\", \"batch\": {}, \"frames_per_s\": {:.2}, \"mb_per_s\": {:.4}}}{comma}",
            r.codec, r.mode, r.batch, r.frames_per_s, r.mb_per_s
        );
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");
    // Default to the workspace root (cargo runs benches with the package
    // dir as CWD), so the trajectory file lands next to ROADMAP.md.
    let path = std::env::var("ORCO_BENCH_JSON").unwrap_or_else(|_| {
        format!("{}/../../BENCH_frame_throughput.json", env!("CARGO_MANIFEST_DIR"))
    });
    std::fs::write(&path, &json).expect("bench JSON is writable");
    println!("\nwrote {path}");

    assert!(
        ae_speedup >= 1.0,
        "batched AE encode slower than the per-frame loop ({ae_speedup:.2}x)"
    );
}
