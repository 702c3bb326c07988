//! Equivalence invariants of the distributed protocol: running OrcoDCS
//! over the simulated network must compute exactly the same mathematics as
//! running it on one machine, and in-network (chain) encoding must equal
//! centralized encoding.

use orcodcs_repro::core::{AsymmetricAutoencoder, Codec, EncoderColumns, Orchestrator, OrcoConfig};
use orcodcs_repro::datasets::{mnist_like, DatasetKind};
use orcodcs_repro::nn::Activation;
use orcodcs_repro::tensor::Matrix;
use orcodcs_repro::wsn::NetworkConfig;

fn cfg() -> OrcoConfig {
    OrcoConfig::for_dataset(DatasetKind::MnistLike)
        .with_latent_dim(24)
        .with_epochs(1)
        .with_batch_size(16)
}

#[test]
fn orchestrated_training_is_bit_identical_to_local() {
    let dataset = mnist_like::generate(16, 0);
    let config = cfg();
    let mut orch = Orchestrator::new(
        config.clone(),
        NetworkConfig { num_devices: 8, seed: 0, ..Default::default() },
    )
    .expect("valid config");
    let mut local = AsymmetricAutoencoder::new(&config).expect("valid config");
    let loss = config.loss();

    for round in 0..5 {
        let (orch_loss, _) = orch.train_round(dataset.x()).expect("round runs");
        let local_loss = local.train_batch_local(dataset.x(), &loss);
        assert_eq!(orch_loss, local_loss, "round {round} losses diverged");
    }
    assert_eq!(orch.model().encoder_weight(), local.encoder_weight(), "encoder weights diverged");
    assert_eq!(orch.model().encoder_bias(), local.encoder_bias());
}

#[test]
fn chain_encoding_matches_centralized_for_trained_encoder() {
    // Train a little so the encoder is non-trivial, then compare the
    // distributed per-device column computation against σ(Wx + b).
    let dataset = mnist_like::generate(24, 1);
    let config = cfg();
    let mut ae = AsymmetricAutoencoder::new(&config).expect("valid config");
    let loss = config.loss();
    for _ in 0..10 {
        let _ = ae.train_batch_local(dataset.x(), &loss);
    }

    let columns = EncoderColumns::split(ae.encoder_weight(), ae.encoder_bias());
    assert_eq!(columns.num_devices(), 784);

    for i in 0..4 {
        let readings = dataset.sample(i);
        // Three different chain orders must all match the centralized map.
        let forward: Vec<usize> = (0..784).collect();
        let reverse: Vec<usize> = (0..784).rev().collect();
        let strided: Vec<usize> = (0..784).map(|k| (k * 97) % 784).collect();
        let central: Vec<f32> = ae
            .encoder_weight()
            .matvec(readings)
            .iter()
            .zip(ae.encoder_bias().row(0))
            .map(|(s, b)| Activation::Sigmoid.apply(s + b))
            .collect();
        for order in [&forward, &reverse, &strided] {
            let partial = columns.chain_partial_sum(readings, order).expect("valid order");
            let latent = columns.finish_at_aggregator(&partial);
            for (j, (d, c)) in latent.iter().zip(&central).enumerate() {
                assert!(
                    (d - c).abs() < 1e-4,
                    "sample {i} element {j}: distributed {d} vs centralized {c}"
                );
            }
        }
    }
}

#[test]
fn reassembled_encoder_reproduces_the_original_model() {
    let config = cfg();
    let mut ae = AsymmetricAutoencoder::new(&config).expect("valid config");
    let dataset = mnist_like::generate(8, 2);
    let loss = config.loss();
    let _ = ae.train_batch_local(dataset.x(), &loss);

    let columns = EncoderColumns::split(ae.encoder_weight(), ae.encoder_bias());
    let (w, b) = columns.reassemble();

    // Load the reassembled parts into a fresh autoencoder: encodings match.
    let mut fresh = AsymmetricAutoencoder::new(&config).expect("valid config");
    fresh.set_encoder_parts(w, b);
    let (mut original, mut roundtripped) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
    ae.encode_batch(dataset.x().as_view(), &mut original).expect("frames fit the codec");
    fresh.encode_batch(dataset.x().as_view(), &mut roundtripped).expect("frames fit the codec");
    assert_eq!(original, roundtripped);
}

#[test]
fn distribution_broadcast_reaches_every_device_with_column_bytes() {
    let dataset = mnist_like::generate(8, 3);
    let config = cfg();
    let mut orch =
        Orchestrator::new(config, NetworkConfig { num_devices: 12, seed: 3, ..Default::default() })
            .expect("valid config");
    let _ = orch.train_round(dataset.x()).expect("round");
    orch.network_mut().reset_accounting();
    let (columns, t) = orch.distribute_encoder().expect("broadcast");
    assert!(t > 0.0);
    let expected = columns.column_bytes();
    for d in orch.network().devices().to_vec() {
        let rx = orch.network().accounting().node(d).rx_bytes;
        assert!(rx >= expected, "device {d} received {rx} < column {expected}");
    }
}
