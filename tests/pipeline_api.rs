//! Integration tests for the `Codec` + `ExperimentBuilder` pipeline API:
//! the pinned legacy-driver equivalence regression, checkpoint persistence
//! through the pipeline's `.checkpoints(..)` hook, the fine-tuning monitor
//! through `.monitor(..)` + `observe()`, and the four-backend object-safe
//! smoke test.

use orcodcs_repro::baselines::cs::{ClassicalCodec, CsSolver, IstaConfig};
use orcodcs_repro::baselines::Dcsnet;
use orcodcs_repro::core::aggregation::TransmissionReport;
use orcodcs_repro::core::checkpoint::{CheckpointStore, EncoderCheckpoint};
use orcodcs_repro::core::{
    AsymmetricAutoencoder, ClusterScale, Codec, ExperimentBuilder, FineTuneMonitor, OrcoConfig,
    SplitModel, TrainingMode,
};
use orcodcs_repro::datasets::{drift, mnist_like, DatasetKind};
use orcodcs_repro::tensor::OrcoRng;

fn small_cfg() -> OrcoConfig {
    OrcoConfig::for_dataset(DatasetKind::MnistLike)
        .with_latent_dim(32)
        .with_epochs(3)
        .with_batch_size(16)
}

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("orcodcs-pipeline-tests").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The `ExperimentBuilder` chain reproduces, **bit for bit**, what the
/// legacy single-backend driver `run_orcodcs` measured at the same seed:
/// per-round losses, final loss and PSNR, the simulated clock, the
/// data-plane report. The wrapper is deleted; its values stay pinned here
/// (taken from its last run, at the commit that removed it). One was
/// re-pinned, with every other absolute pin, when the GEMM micro-kernel's
/// step became one fused multiply-add: round 5's loss moved one ulp
/// (`0x3d04_9b68` → `0x3d04_9b69`). They are the `x86-64-v3` build's
/// values, so a build without FMA ignores the test.
#[test]
#[cfg_attr(
    not(target_feature = "fma"),
    ignore = "absolute values of the x86-64-v3 build, whose GEMM step is one fused multiply-add"
)]
fn builder_chain_matches_legacy_run_orcodcs_bit_for_bit() {
    let dataset = mnist_like::generate(40, 11);
    let cfg = small_cfg();

    let codec = AsymmetricAutoencoder::new(&cfg).expect("valid config");
    let mut exp = ExperimentBuilder::new()
        .dataset(&dataset)
        .codec(codec)
        .epochs(cfg.epochs)
        .batch_size(cfg.batch_size)
        .seed(cfg.seed)
        .build()
        .expect("consistent experiment");
    let report = exp.run().expect("pipeline runs");

    assert_eq!(report.final_loss.to_bits(), 0x3cc0_4e64, "final loss {}", report.final_loss);
    assert_eq!(report.mean_psnr_db.to_bits(), 0x415b_52c5, "PSNR {}", report.mean_psnr_db);
    assert_eq!(report.sim_time_s.to_bits(), 0x4025_94c2_01af_bccb, "clock {}", report.sim_time_s);
    assert_eq!(
        report.data_plane.expect("pipeline measures the data plane"),
        TransmissionReport {
            frames: 8,
            total_bytes: 44_880,
            chain_bytes: 43_520,
            uplink_bytes: 1_360,
            sim_time_s: f64::from_bits(0x4006_b5be_1b0b_d1a0),
            energy_j: f64::from_bits(0x3faa_c39f_a4c7_1e9a),
        },
        "data-plane report must be bit-identical"
    );
    let losses: Vec<u32> = report.rounds.iter().map(|r| r.loss.to_bits()).collect();
    let legacy_losses = [
        0x3dd3_4199,
        0x3db7_354d,
        0x3d95_93fb,
        0x3d5d_3ec0,
        0x3d27_dc15,
        0x3d04_9b69,
        0x3cf0_c433,
        0x3cda_1dc5,
        0x3c96_43db,
    ];
    assert_eq!(losses, legacy_losses, "per-round losses diverged from the legacy driver");
    let epochs: Vec<usize> = report.rounds.iter().map(|r| r.epoch).collect();
    assert_eq!(epochs, [0, 0, 0, 1, 1, 1, 2, 2, 2]);
}

/// `EncoderCheckpoint` save/load and `CheckpointStore` push/latest
/// round-trip through a temp dir, fed by the pipeline's `.checkpoints(..)`
/// hook.
#[test]
fn pipeline_checkpoints_roundtrip_through_disk() {
    let dataset = mnist_like::generate(24, 3);
    let cfg = small_cfg();
    let dir = tmpdir("store");
    let mut exp = ExperimentBuilder::new()
        .dataset(&dataset)
        .codec(AsymmetricAutoencoder::new(&cfg).expect("valid config"))
        .epochs(2)
        .batch_size(8)
        .checkpoints(&dir, 2)
        .build()
        .expect("consistent experiment");
    let report = exp.run().expect("pipeline runs");
    assert_eq!(report.checkpoints_saved, 1, "initial training pushes one checkpoint");

    // The stored snapshot round-trips bit-exactly and matches the live
    // codec's distributable parameters.
    let store = exp.checkpoint_store().expect("store configured");
    assert_eq!(store.len(), 1);
    let loaded = store.latest().expect("loads").expect("non-empty");
    let live = exp.codec().checkpoint().expect("AE has an encoder checkpoint");
    assert_eq!(loaded, live);
    assert_eq!(loaded.label, "OrcoDCS");

    // Restoring the loaded checkpoint into a fresh model reproduces the
    // trained encoder exactly.
    let mut fresh = AsymmetricAutoencoder::new(&cfg).expect("valid config");
    loaded.restore(fresh.halves_mut()).expect("shapes match");
    assert_eq!(fresh.checkpoint().expect("AE has an encoder checkpoint").weight, live.weight);

    // Direct save/load round-trip of the captured checkpoint.
    let solo_dir = tmpdir("solo");
    live.save(&solo_dir).expect("saves");
    let reloaded = EncoderCheckpoint::load(&solo_dir).expect("loads");
    assert_eq!(reloaded, live);
    std::fs::remove_dir_all(&solo_dir).ok();

    // Store eviction: pushing past capacity keeps only the newest.
    let mut store = CheckpointStore::new(tmpdir("evict"), 2);
    for i in 0..3 {
        let mut ckpt = live.clone();
        ckpt.label = format!("v{i}");
        store.push(&ckpt).expect("pushes");
    }
    assert_eq!(store.len(), 2);
    assert_eq!(store.latest().unwrap().unwrap().label, "v2");
    std::fs::remove_dir_all(&dir).ok();
}

/// The retrain trigger fires under injected drift when fresh batches flow
/// through the pipeline's `.monitor(..)` hook, and adaptation recovers the
/// reconstruction error.
#[test]
fn monitor_hook_triggers_retraining_under_drift() {
    let dataset = mnist_like::generate(32, 5);
    let cfg = OrcoConfig::for_dataset(DatasetKind::MnistLike)
        .with_latent_dim(16)
        .with_batch_size(16)
        .with_seed(2);
    let cfg = OrcoConfig { learning_rate: 0.1, ..cfg };
    let dir = tmpdir("monitor");
    let mut exp = ExperimentBuilder::new()
        .dataset(&dataset)
        .codec(AsymmetricAutoencoder::new(&cfg).expect("valid config"))
        .epochs(2)
        .batch_size(16)
        .seed(2)
        .monitor(FineTuneMonitor::new(0.012, 4))
        .checkpoints(&dir, 3)
        .build()
        .expect("consistent experiment");
    let _report = exp.run().expect("pipeline runs");

    // In-distribution batches: error should settle under control.
    for _ in 0..4 {
        let _ = exp.observe(dataset.x()).expect("observe runs");
    }
    let before = exp.retrain_count();
    let ckpts_before = exp.checkpoint_store().expect("store").len();

    // Severe bias drift: the windowed error must breach the threshold.
    let mut rng = OrcoRng::from_label("pipeline-drift", 0);
    let drifted = drift::apply(&dataset, drift::Drift::Bias, 0.9, &mut rng);
    let mut first_error = None;
    let mut recovered = None;
    for _ in 0..6 {
        let outcome = exp.observe(drifted.x()).expect("observe runs");
        if first_error.is_none() {
            first_error = Some(outcome.reconstruction_error);
        }
        if let Some(history) = outcome.retraining {
            assert!(!history.rounds.is_empty(), "retraining ran rounds");
            recovered = Some(exp.observe(drifted.x()).expect("observe runs").reconstruction_error);
            break;
        }
    }
    let first = first_error.expect("at least one drifted batch observed");
    let recovered = recovered.expect("drift must trigger the fine-tuning monitor");
    assert!(exp.retrain_count() > before, "drift must add a retrain");
    assert!(
        recovered < first,
        "retraining should reduce the drifted error: {first} -> {recovered}"
    );
    // Each retrain also checkpoints the adapted encoder (store capacity 3
    // caps the count).
    let kept = exp.checkpoint_store().expect("store").len();
    assert!(kept > ckpts_before.min(2), "retrain must add a checkpoint: {ckpts_before} -> {kept}");
    std::fs::remove_dir_all(&dir).ok();
}

/// All four backends — OrcoDCS autoencoder, DCSNet, DCT+ISTA, DCT+OMP —
/// run through the single object-safe `Codec` interface and the same
/// builder chain.
#[test]
fn all_four_backends_run_through_one_builder_chain() {
    let kind = DatasetKind::MnistLike;
    let dataset = mnist_like::generate(16, 9);
    let orco_cfg = OrcoConfig::for_dataset(kind).with_latent_dim(32).with_batch_size(8);
    let backends: Vec<Box<dyn Codec>> = vec![
        Box::new(AsymmetricAutoencoder::new(&orco_cfg).expect("valid config")),
        Box::new(Dcsnet::new(kind, 0)),
        Box::new(ClassicalCodec::new(
            kind,
            64,
            CsSolver::Ista(IstaConfig { lambda: 0.01, max_iters: 80, tol: 1e-4 }),
            0,
        )),
        Box::new(ClassicalCodec::new(kind, 64, CsSolver::Omp { sparsity: 16 }, 0)),
    ];

    let mut seen = Vec::new();
    for codec in backends {
        let name = codec.name();
        let bytes = codec.bytes_per_frame();
        let mut exp = ExperimentBuilder::new()
            .dataset(&dataset)
            .codec_boxed(codec)
            .training(TrainingMode::Local)
            .epochs(1)
            .batch_size(8)
            .probe(4)
            .build()
            .expect("consistent experiment");
        let report = exp.run().expect("pipeline runs");
        assert_eq!(report.codec, name);
        assert_eq!(report.mode, TrainingMode::Local);
        assert!(report.final_loss.is_finite(), "{name}: finite loss");
        assert!(report.mean_psnr_db.is_finite(), "{name}: finite PSNR");
        assert!(bytes > 0 && bytes % 4 == 0, "{name}: sane code size");
        seen.push(name);
    }
    assert_eq!(seen, ["OrcoDCS", "DCSNet", "DCT+ISTA", "DCT+OMP"]);
}

/// DCSNet's native offline scheme through the builder: trained locally on
/// half the data (the paper's default access fraction), the per-epoch
/// loss falls.
#[test]
fn dcsnet_trains_offline_on_a_data_fraction() {
    let dataset = mnist_like::generate(16, 0);
    let mut exp = ExperimentBuilder::new()
        .dataset(&dataset)
        .codec(Dcsnet::new(DatasetKind::MnistLike, 0))
        .training(TrainingMode::Local)
        .data_fraction(0.5)
        .epochs(3)
        .batch_size(8)
        .build()
        .expect("consistent experiment");
    let report = exp.run().expect("offline training runs");
    let losses: Vec<f32> = report.rounds.iter().map(|r| r.loss).collect();
    assert_eq!(losses.len(), 3, "8 accessible samples in one 8-batch per epoch");
    assert!(losses[2] < losses[0], "loss should fall over the epochs: {losses:?}");
}

/// The heart of Figure 4: through the same orchestrated protocol DCSNet
/// pays network time like OrcoDCS does, but moves 8x the latent bytes and
/// burns far more FLOPs per round.
#[test]
fn dcsnet_online_pays_more_network_time_per_round_than_orcodcs() {
    let dataset = mnist_like::generate(8, 2);
    let online = |codec: Box<dyn Codec>| {
        let mut exp = ExperimentBuilder::new()
            .dataset(&dataset)
            .codec_boxed(codec)
            .scale(ClusterScale::Devices(8))
            .raw_frames(0)
            .data_plane_frames(0)
            .epochs(1)
            .batch_size(8)
            .build()
            .expect("consistent experiment");
        let report = exp.run().expect("orchestrated training runs");
        let latent_bytes = exp
            .network()
            .expect("orchestrated")
            .accounting()
            .bytes_by_kind(orcodcs_repro::wsn::PacketKind::LatentVector);
        (report, latent_bytes)
    };
    let (dcs, dcs_latent_bytes) = online(Box::new(Dcsnet::new(DatasetKind::MnistLike, 0)));
    let orco_cfg = OrcoConfig::for_dataset(DatasetKind::MnistLike);
    let (orco, _) = online(Box::new(AsymmetricAutoencoder::new(&orco_cfg).expect("valid config")));

    assert!(!dcs.rounds.is_empty());
    assert_eq!(dcs.rounds.len(), orco.rounds.len());
    // 1024-dim latent uplink per round.
    assert!(dcs_latent_bytes >= 1024 * 4, "latent uplink {dcs_latent_bytes} B");
    assert!(
        dcs.sim_time_s > orco.sim_time_s * 2.0,
        "DCSNet round time {} should dwarf OrcoDCS {}",
        dcs.sim_time_s,
        orco.sim_time_s
    );
}

/// Orchestrated pipeline runs are deterministic: the same builder chain at
/// the same seed reproduces every metric bit-for-bit.
#[test]
fn pipeline_runs_are_deterministic() {
    let dataset = mnist_like::generate(24, 13);
    let cfg = small_cfg();
    let run = || {
        let mut exp = ExperimentBuilder::new()
            .dataset(&dataset)
            .codec(AsymmetricAutoencoder::new(&cfg).expect("valid config"))
            .epochs(2)
            .batch_size(16)
            .seed(7)
            .build()
            .expect("consistent experiment");
        exp.run().expect("pipeline runs")
    };
    let a = run();
    let b = run();
    assert_eq!(a.final_loss, b.final_loss);
    assert_eq!(a.sim_time_s, b.sim_time_s);
    assert_eq!(a.rounds, b.rounds);
    assert_eq!(a.probe, b.probe);
    assert_eq!(a.data_plane, b.data_plane);
}
