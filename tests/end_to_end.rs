//! End-to-end integration tests spanning every crate: dataset synthesis →
//! WSN deployment → orchestrated online training → encoder distribution →
//! compressed aggregation → follow-up classification. (Drift → fine-tuning
//! is `tests/pipeline_api.rs::monitor_hook_triggers_retraining_under_drift`.)

use orcodcs_repro::baselines::Dcsnet;
use orcodcs_repro::classifier::{Cnn, TrainConfig};
use orcodcs_repro::core::{AsymmetricAutoencoder, ExperimentBuilder, OrcoConfig, TrainingMode};
use orcodcs_repro::datasets::{mnist_like, DatasetKind};
use orcodcs_repro::nn::Loss;
use orcodcs_repro::tensor::OrcoRng;

fn small_cfg() -> OrcoConfig {
    OrcoConfig::for_dataset(DatasetKind::MnistLike)
        .with_latent_dim(32)
        .with_epochs(3)
        .with_batch_size(16)
}

fn run_pipeline(
    dataset: &orcodcs_repro::datasets::Dataset,
    cfg: &OrcoConfig,
) -> (orcodcs_repro::core::Experiment, orcodcs_repro::core::Report) {
    let codec = AsymmetricAutoencoder::new(cfg).expect("valid config");
    let mut exp = ExperimentBuilder::new()
        .dataset(dataset)
        .codec(codec)
        .epochs(cfg.epochs)
        .batch_size(cfg.batch_size)
        .seed(cfg.seed)
        .build()
        .expect("consistent experiment");
    let report = exp.run().expect("lifecycle runs");
    (exp, report)
}

#[test]
fn full_lifecycle_produces_consistent_outcome() {
    let dataset = mnist_like::generate(48, 0);
    let (_exp, report) = run_pipeline(&dataset, &small_cfg());

    // Training happened and the clock moved.
    assert!(report.rounds.len() >= 9);
    assert!(report.sim_time_s > 0.0);
    // Quality metrics are sane.
    assert!(report.final_loss.is_finite() && report.final_loss > 0.0);
    assert!(report.mean_psnr_db > 5.0, "PSNR {} too low", report.mean_psnr_db);
    // Data plane measured on live simulation.
    let data_plane = report.data_plane.expect("measured");
    assert!(data_plane.total_bytes > 0);
    assert!(data_plane.uplink_bytes > 0);
    // Time monotone across rounds.
    for w in report.rounds.windows(2) {
        assert!(w[1].sim_time_s >= w[0].sim_time_s);
    }
}

#[test]
fn training_is_deterministic_across_runs() {
    let dataset = mnist_like::generate(32, 1);
    let (_ea, a) = run_pipeline(&dataset, &small_cfg());
    let (_eb, b) = run_pipeline(&dataset, &small_cfg());
    assert_eq!(a.final_loss, b.final_loss);
    assert_eq!(a.sim_time_s, b.sim_time_s);
    assert_eq!(a.data_plane.unwrap().total_bytes, b.data_plane.unwrap().total_bytes);
    let ra: Vec<f32> = a.rounds.iter().map(|r| r.loss).collect();
    let rb: Vec<f32> = b.rounds.iter().map(|r| r.loss).collect();
    assert_eq!(ra, rb);
}

#[test]
fn classifier_on_orcodcs_reconstructions_beats_chance() {
    let train = mnist_like::generate(160, 3);
    let test = mnist_like::generate(40, 4);
    let cfg = OrcoConfig::for_dataset(DatasetKind::MnistLike).with_epochs(20).with_batch_size(32);
    let (mut exp, _report) = run_pipeline(&train, &cfg);

    let recon_train =
        train.with_x(exp.codec_mut().reconstruct(train.x()).expect("codec reconstructs"));
    let recon_test =
        test.with_x(exp.codec_mut().reconstruct(test.x()).expect("codec reconstructs"));

    let mut rng = OrcoRng::from_label("e2e-clf", 0);
    let mut cnn = Cnn::new(DatasetKind::MnistLike, &mut rng);
    let curve = cnn.train_epochs(
        &recon_train,
        &recon_test,
        &TrainConfig { epochs: 8, batch_size: 16, learning_rate: 2e-3 },
        &mut rng,
    );
    let acc = curve.last().unwrap().test_accuracy;
    // Chance on 10 balanced classes is 10%; reconstructions of a compact
    // 128-dim latent at this tiny training size support well above that.
    assert!(acc > 0.2, "accuracy on reconstructions {acc} should clearly beat 10% chance");
}

#[test]
fn orcodcs_reconstruction_beats_data_starved_dcsnet() {
    // The Figure-2/5 ordering: online full-stream OrcoDCS reconstructs
    // better (on common L2) than offline DCSNet that saw 30% of the data.
    let dataset = mnist_like::generate(96, 5);
    let cfg = OrcoConfig::for_dataset(DatasetKind::MnistLike).with_epochs(6).with_batch_size(32);
    let (mut exp, _report) = run_pipeline(&dataset, &cfg);
    let orco_recon = exp.codec_mut().reconstruct(dataset.x()).expect("codec reconstructs");
    let orco_l2 = Loss::L2.value(&orco_recon, dataset.x());

    // DCSNet's native offline scheme, through the same builder.
    let mut dcs = ExperimentBuilder::new()
        .dataset(&dataset)
        .codec(Dcsnet::new(DatasetKind::MnistLike, 0))
        .training(TrainingMode::Local)
        .epochs(6)
        .batch_size(32)
        .data_fraction(0.3)
        .build()
        .expect("consistent experiment");
    let _ = dcs.run().expect("offline training runs");
    let dcs_recon = dcs.codec_mut().reconstruct(dataset.x()).expect("codec reconstructs");
    let dcs_l2 = Loss::L2.value(&dcs_recon, dataset.x());

    assert!(orco_l2 < dcs_l2, "OrcoDCS L2 {orco_l2} should beat DCSNet-30% {dcs_l2}");
}
