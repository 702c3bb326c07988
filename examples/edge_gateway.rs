//! A TCP edge-ingestion gateway serving a trained OrcoDCS codec.
//!
//! The serving-layer quickstart: trains a small asymmetric autoencoder on
//! synthetic sensing data, then exposes its batched data plane
//! (`encode_batch`/`decode_batch`) as a network service — a sharded
//! gateway that micro-batches client pushes into single `encode_batch`
//! calls and serves decoded reconstructions and stats over the
//! length-prefixed wire protocol.
//!
//! Run it, then fire a load burst from the second terminal:
//!
//! ```sh
//! cargo run --release --example edge_gateway
//! cargo run --release -p orco-fleet --bin loadgen -- --clients 2 --frames 64 --shutdown
//! ```
//!
//! The gateway also samples decoded reconstructions through a drift
//! monitor (`drift: Some(DriftGuard { .. })`), so a drifting load — `loadgen
//! --drift 32` Bias-shifts every frame from index 32 on — trips the
//! `drift` flag in the stats snapshot, the cue for an `orco-rollout`
//! cutover.
//!
//! The gateway serves until a client sends `Shutdown` (the loadgen
//! `--shutdown` flag). Bind address comes from `ORCO_SERVE_ADDR`
//! (default `127.0.0.1:7117`).

use std::num::{NonZeroU64, NonZeroUsize};
use std::sync::Arc;

use orcodcs_repro::core::{AsymmetricAutoencoder, Codec, OrcoConfig, TrainSpec};
use orcodcs_repro::datasets::mnist_like;
use orcodcs_repro::serve::{Clock, DriftGuard, Gateway, GatewayConfig, TcpServer};

fn main() {
    let addr = std::env::var("ORCO_SERVE_ADDR").unwrap_or_else(|_| "127.0.0.1:7117".into());

    // Train the codec the gateway will serve. Each shard builds its own
    // codec from the same config and seed — training is deterministic,
    // so every shard serves bit-identical weights.
    let dataset = mnist_like::generate(64, 17);
    let config = OrcoConfig::for_dataset(dataset.kind()).with_latent_dim(64).with_seed(17);
    let spec = TrainSpec { epochs: 2, batch_size: 16, seed: 17, data_fraction: 1.0 };
    let trained_codec = move || {
        let mut codec = AsymmetricAutoencoder::new(&config).expect("valid config");
        let history = codec.train(dataset.x(), &spec).expect("training converges");
        (codec, history.final_loss().unwrap_or(f32::NAN))
    };

    let gateway = Arc::new(
        Gateway::new(
            GatewayConfig {
                batch_max_frames: 32,
                // Sample every other decoded row through a drift
                // monitor: a `loadgen --drift 32` run trips the stats
                // `drift` flag, signalling that a rollout is due. The
                // threshold sits between this codec's error on loadgen's
                // uniform frames (~0.28) and their Bias-shifted tail
                // (~0.69); the window must fill with shifted samples
                // inside one drifted run (64 frames/client, half
                // shifted, every 2nd sampled -> 16 shifted samples).
                drift: Some(DriftGuard {
                    sample_every: NonZeroU64::new(2).expect("every 2nd row"),
                    threshold: 0.4,
                    window: NonZeroUsize::new(16).expect("a window of 16 samples"),
                    rollback_above: None,
                }),
                ..GatewayConfig::default()
            },
            Clock::real(),
            |shard| {
                let (codec, loss) = trained_codec();
                println!("shard {shard}: codec trained (final loss {loss:.5})");
                Box::new(codec) as Box<dyn Codec>
            },
        )
        .expect("valid gateway"),
    );

    let dims = gateway.frame_dims();
    let server = TcpServer::spawn(Arc::clone(&gateway), addr.as_str()).expect("bind succeeds");
    println!(
        "edge gateway listening on {} ({} shards, frame {} -> code {} f32s)",
        server.local_addr(),
        gateway.config().shards,
        dims.input,
        dims.code
    );
    println!("serving until a client sends Shutdown (loadgen --shutdown) ...");
    server.join();

    let stats = gateway.stats();
    println!(
        "served {} frames in / {} out over {} micro-batches (max batch {}, \
         {} deadline flushes, {} busy rejections, batch latency p50 {:.4}s p99 {:.4}s)",
        stats.frames_in,
        stats.frames_out,
        stats.batches,
        stats.max_batch_rows,
        stats.deadline_flushes,
        stats.busy_rejections,
        stats.batch_latency_p50_s,
        stats.batch_latency_p99_s
    );
}
