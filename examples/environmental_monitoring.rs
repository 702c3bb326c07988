//! Environmental monitoring with online adaptation (paper §III-D).
//!
//! The scenario the paper's introduction motivates: a long-lived sensor
//! deployment whose environment *changes*. An offline-trained model cannot
//! adapt; OrcoDCS's fine-tuning monitor watches the reconstruction error on
//! the edge and relaunches the orchestrated training procedure when a
//! drift pushes it over threshold.
//!
//! This example builds the deployment with the pipeline's `.monitor(..)`
//! and `.checkpoints(..)` hooks and trains online. It then runs §III-C's
//! in-network encode once: the trained encoder is split into one column
//! share per reading, one sensing frame is folded along the deployment's
//! chain, and the aggregator's latent is checked against the codec's own
//! encode. Finally it hits the deployment with three escalating
//! environmental drifts (dimming — e.g. fog or dusk — then a sensor bias,
//! then a noise burst) and streams the new conditions through
//! `Experiment::observe`, showing the monitor catching each drift,
//! retraining, and checkpointing the adapted encoder.
//!
//! Run with: `cargo run --release --example environmental_monitoring`

use orcodcs_repro::core::{
    AsymmetricAutoencoder, ClusterScale, EncoderColumns, Experiment, ExperimentBuilder,
    FineTuneMonitor, OrcoConfig,
};
use orcodcs_repro::datasets::{drift, mnist_like};
use orcodcs_repro::tensor::OrcoRng;

fn main() {
    let baseline = mnist_like::generate(160, 7);
    let config = OrcoConfig::for_dataset(baseline.kind()).with_seed(7);
    let checkpoint_dir = std::env::temp_dir().join("orcodcs-monitoring-example");

    let mut experiment = ExperimentBuilder::new()
        .dataset(&baseline)
        .codec(AsymmetricAutoencoder::new(&config).expect("valid config"))
        .scale(ClusterScale::Devices(64))
        .epochs(4)
        .batch_size(32)
        .seed(7)
        // Threshold sits above the trained baseline error (~0.01 on the
        // Huber scale); a 4-batch window smooths transient spikes.
        .monitor(FineTuneMonitor::new(0.03, 4))
        .checkpoints(&checkpoint_dir, 4)
        .build()
        .expect("consistent experiment");

    println!("== initial online training ==");
    let report = experiment.run().expect("simulation runs");
    println!(
        "trained {} rounds; loss {:.4} -> {:.4}; simulated time {:.1}s",
        report.rounds.len(),
        report.rounds.first().map_or(f32::NAN, |r| r.loss),
        report.final_round_loss().unwrap_or(f32::NAN),
        report.sim_time_s
    );
    in_network_encode(&mut experiment, baseline.sample(0));

    let mut rng = OrcoRng::from_label("monitoring-drift", 0);
    let scenarios = [
        ("clear morning (no drift)", None),
        ("fog rolls in (dimming 60%)", Some((drift::Drift::Dimming, 0.6))),
        ("sensor bias after maintenance", Some((drift::Drift::Bias, 0.7))),
        ("electrical noise burst", Some((drift::Drift::NoiseBurst, 0.8))),
    ];

    for (label, d) in scenarios {
        println!("\n== {label} ==");
        let frames = match d {
            None => baseline.clone(),
            Some((kind, severity)) => drift::apply(&baseline, kind, severity, &mut rng),
        };
        // Stream several batches of the new conditions through the monitor.
        let mut retrained = false;
        for step in 0..6 {
            let outcome = experiment.observe(frames.x()).expect("simulation runs");
            print!("  step {step}: reconstruction error {:.4}", outcome.reconstruction_error);
            if let Some(h) = outcome.retraining {
                retrained = true;
                println!(
                    "  -> monitor TRIGGERED, retrained {} rounds, error now {:.4}",
                    h.rounds.len(),
                    h.final_loss().unwrap_or(f32::NAN)
                );
                break;
            }
            println!();
        }
        if !retrained {
            println!("  monitor quiet (reconstructions still healthy)");
        }
    }

    let network = experiment.network().expect("orchestrated deployment");
    println!(
        "\ntotal retrains: {}; encoder checkpoints kept: {}; total simulated time {:.1}s",
        experiment.retrain_count(),
        experiment.checkpoint_store().map_or(0, |s| s.len()),
        network.now_s(),
    );
    std::fs::remove_dir_all(&checkpoint_dir).ok();
}

/// §III-C on the trained deployment: splits the encoder into per-reading
/// column shares, folds `frame` along the chain (each device adds its
/// shares to the partial sum it forwards), finishes the latent at the
/// aggregator (bias, then σ), and checks it against `encode_frame`.
fn in_network_encode(experiment: &mut Experiment, frame: &[f32]) {
    println!("\n== §III-C in-network encode ==");
    let encoder = experiment.codec().checkpoint().expect("the autoencoder has an encoder");
    let columns = EncoderColumns::split(&encoder.weight, &encoder.bias);
    let network = experiment.network().expect("orchestrated deployment");
    // 64 devices share the frame's 784 readings: device d senses readings
    // d, d + 64, d + 128, …, and adds their shares when the chain reaches it.
    let devices = network.devices().len();
    let order: Vec<usize> = network
        .world()
        .chain()
        .order()
        .iter()
        .flat_map(|device| (device.0..columns.num_devices()).step_by(devices))
        .collect();
    let partial =
        columns.chain_partial_sum(frame, &order).expect("the chain visits each reading once");
    let latent = columns.finish_at_aggregator(&partial);
    let central = experiment.codec_mut().encode_frame(frame).expect("the frame fits the codec");
    let gap = latent.iter().zip(&central).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max);
    println!(
        "{} column shares of {} B over a {devices}-device chain; one frame's {}-element latent \
         is within {gap:.1e} of encode_frame's",
        columns.num_devices(),
        columns.column_bytes(),
        latent.len(),
    );
    assert!(gap < 1e-4, "in-network latent strays {gap} from the centralized encode");
}
