//! Ablations of OrcoDCS's design choices (DESIGN.md §7) — not a paper
//! figure, but the evidence behind the design decisions the paper asserts:
//!
//! 1. **Loss shape**: element-wise Huber (default) vs plain L2 vs the
//!    paper's literal per-sample vector Huber, trained to the same budget.
//! 2. **Latent noise**: σ² = 0 vs the default, evaluated on *drifted* data
//!    — the robustness the noise is supposed to buy.
//! 3. **Data plane**: plain CS chain vs hybrid chain vs direct per-device
//!    uplink, in bytes per frame.
//! 4. **Gradient compression**: f32 vs 8-bit feedback uplink — bytes saved
//!    vs loss cost.

use orco_datasets::{drift, mnist_like, DatasetKind};
use orco_nn::Loss;
use orco_tensor::OrcoRng;
use orco_wsn::{DeploymentBackend, Network, NetworkConfig, PacketKind};
use orcodcs::{ClusterScale, ExperimentBuilder, GradCompression, OrcoConfig};

use crate::harness::{banner, Scale};

/// One ablation row: a labelled scalar comparison.
#[derive(Debug)]
pub struct AblationRow {
    /// Which ablation this row belongs to.
    pub group: &'static str,
    /// Variant label.
    pub variant: String,
    /// The measured value (metric named per group in the printout).
    pub value: f64,
}

/// Trains an OrcoDCS codec locally through the pipeline and hands back the
/// live experiment for probe reconstructions.
fn train_local(
    cfg: &OrcoConfig,
    data: &orco_datasets::Dataset,
    scale: Scale,
) -> orcodcs::Experiment {
    let (experiment, _report) =
        super::local_experiment(data, Box::new(super::orco_codec(cfg)), scale.epochs(), 1.0);
    experiment
}

fn loss_shape_ablation(scale: Scale, rows: &mut Vec<AblationRow>) {
    let ds = mnist_like::generate(scale.train_n(DatasetKind::MnistLike), 0);
    println!("\n--- Ablation 1: reconstruction-loss shape (probe L2 after training) ---");
    let base = super::orco_config(DatasetKind::MnistLike, scale);
    let variants: Vec<(&str, OrcoConfig)> = vec![
        ("huber_elementwise (default)", base.clone()),
        ("l2", {
            // δ→∞ element-wise Huber is exactly L2 on bounded pixels.
            let mut c = base.clone();
            c.huber_delta = 1e6;
            c
        }),
        ("vector_huber (paper eq. 4)", base.clone().with_vector_huber()),
    ];
    for (label, cfg) in variants {
        let mut exp = train_local(&cfg, &ds, scale);
        let l2 = {
            let recon = exp.codec_mut().reconstruct(ds.x()).expect("codec reconstructs");
            Loss::L2.value(&recon, ds.x())
        };
        println!("  {label:<30} probe L2 {l2:.6}");
        rows.push(AblationRow {
            group: "loss_shape",
            variant: label.to_string(),
            value: f64::from(l2),
        });
    }
}

fn noise_robustness_ablation(scale: Scale, rows: &mut Vec<AblationRow>) {
    let ds = mnist_like::generate(scale.train_n(DatasetKind::MnistLike), 1);
    println!("\n--- Ablation 2: latent noise vs robustness under drift ---");
    println!("  (L2 on NoiseBurst-drifted inputs; lower = more robust decoder)");
    let mut rng = OrcoRng::from_label("ablation-drift", 0);
    let drifted = drift::apply(&ds, drift::Drift::NoiseBurst, 0.4, &mut rng);
    for (label, variance) in [("no noise (σ²=0)", 0.0f32), ("default noise (σ²=0.1)", 0.1)] {
        let cfg = super::orco_config(DatasetKind::MnistLike, scale).with_noise_variance(variance);
        let mut exp = train_local(&cfg, &ds, scale);
        let recon = exp.codec_mut().reconstruct(drifted.x()).expect("codec reconstructs");
        let l2 = Loss::L2.value(&recon, ds.x());
        println!("  {label:<30} drifted-input L2 {l2:.6}");
        rows.push(AblationRow {
            group: "noise_robustness",
            variant: label.to_string(),
            value: f64::from(l2),
        });
    }
}

fn data_plane_ablation(rows: &mut Vec<AblationRow>) {
    println!("\n--- Ablation 3: data plane, bytes per frame (64 devices, M=128) ---");
    let latent_bytes = 128 * 4;
    let make = || Network::new(NetworkConfig { num_devices: 64, seed: 0, ..Default::default() });

    let mut plain = make();
    plain.compressed_aggregation_round(latent_bytes, 0).expect("runs");
    let plain_bytes = plain.accounting().total_tx_bytes();

    let mut hybrid = make();
    hybrid.hybrid_aggregation_round(latent_bytes, 4, 0).expect("runs");
    let hybrid_bytes = hybrid.accounting().total_tx_bytes();

    // Direct uplink: every device sends its reading straight to the
    // aggregator (no chaining) and the aggregator forwards the latent.
    let mut direct = make();
    let agg = direct.aggregator();
    for d in direct.devices().to_vec() {
        direct.transmit(d, agg, 4, PacketKind::RawData).expect("runs");
    }
    let direct_bytes = direct.accounting().total_tx_bytes();

    for (label, bytes) in [
        ("plain CS chain", plain_bytes),
        ("hybrid chain (ref [1])", hybrid_bytes),
        ("direct per-device uplink", direct_bytes),
    ] {
        println!("  {label:<30} {bytes:>10} bytes/frame");
        rows.push(AblationRow {
            group: "data_plane",
            variant: label.to_string(),
            value: bytes as f64,
        });
    }
}

fn grad_compression_ablation(scale: Scale, rows: &mut Vec<AblationRow>) {
    println!("\n--- Ablation 4: gradient-feedback compression ---");
    let ds = mnist_like::generate(scale.train_n(DatasetKind::MnistLike).min(128), 2);
    for (label, policy) in
        [("f32 feedback", GradCompression::None), ("8-bit feedback", GradCompression::Byte)]
    {
        let cfg = super::orco_config(DatasetKind::MnistLike, scale);
        let mut experiment = ExperimentBuilder::new()
            .dataset(&ds)
            .codec(super::orco_codec(&cfg))
            .scale(ClusterScale::Devices(16))
            .seed(0)
            .epochs(scale.epochs().min(5))
            .batch_size(32)
            .grad_compression(policy)
            .raw_frames(0)
            .data_plane_frames(0)
            .build()
            .expect("consistent experiment");
        let report = experiment.run().expect("simulation runs");
        let bytes = report.training_radio.feedback_bytes;
        let l2 = {
            let recon = experiment.codec_mut().reconstruct(ds.x()).expect("codec reconstructs");
            Loss::L2.value(&recon, ds.x())
        };
        println!("  {label:<30} feedback bytes {bytes:>12}   probe L2 {l2:.6}");
        rows.push(AblationRow {
            group: "grad_compression",
            variant: label.to_string(),
            value: bytes as f64,
        });
    }
}

/// Runs all four ablations.
pub fn run(scale: Scale) -> Vec<AblationRow> {
    banner("Ablations", "Design-choice ablations (DESIGN.md §7)");
    let mut rows = Vec::new();
    loss_shape_ablation(scale, &mut rows);
    noise_robustness_ablation(scale, &mut rows);
    data_plane_ablation(&mut rows);
    grad_compression_ablation(scale, &mut rows);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablations_produce_expected_orderings() {
        let rows = run(Scale::Quick);
        // Hybrid chain ≤ plain chain; direct uplink is the cheapest in raw
        // bytes (but pays d² energy — not measured here).
        let get = |group: &str, contains: &str| -> f64 {
            rows.iter()
                .find(|r| r.group == group && r.variant.contains(contains))
                .map(|r| r.value)
                .expect("row exists")
        };
        assert!(get("data_plane", "hybrid") <= get("data_plane", "plain"));
        // 8-bit feedback moves fewer bytes than f32.
        assert!(get("grad_compression", "8-bit") * 2.0 < get("grad_compression", "f32"));
        // Element-wise Huber trains at least as well as the vector form.
        assert!(get("loss_shape", "elementwise") <= get("loss_shape", "vector_huber") * 1.05);
    }
}
