//! Data-plane cost measurement (feeds the paper's Figure 3).
//!
//! After training and encoder distribution, the steady-state cost of
//! OrcoDCS is the per-frame compressed pipeline: chain aggregation of the
//! `M`-element partial sum inside the cluster, then one `M`-element uplink
//! from aggregator to edge. This module measures that pipeline on a live
//! simulation and extrapolates to arbitrary frame counts (byte costs are
//! exactly linear in the frame count, so measuring a handful of frames and
//! scaling is exact, not an approximation).

use orco_tensor::{MatView, Matrix};
use orco_wsn::{DeploymentBackend, PacketKind};

use crate::codec::Codec;
use crate::error::OrcoError;

/// Measured cost of a number of compressed-aggregation frames.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransmissionReport {
    /// Frames measured.
    pub frames: usize,
    /// Total bytes on air (all hops, headers included).
    pub total_bytes: u64,
    /// Bytes of intra-cluster chain traffic.
    pub chain_bytes: u64,
    /// Bytes of aggregator→edge uplink traffic.
    pub uplink_bytes: u64,
    /// Elapsed simulated seconds.
    pub sim_time_s: f64,
    /// Radio energy spent, joules.
    pub energy_j: f64,
}

impl TransmissionReport {
    /// Exact linear extrapolation to `target_frames`.
    ///
    /// # Panics
    ///
    /// Panics if the report measured zero frames.
    #[must_use]
    pub fn extrapolate(&self, target_frames: usize) -> TransmissionReport {
        assert!(self.frames > 0, "cannot extrapolate from zero frames");
        let scale = target_frames as f64 / self.frames as f64;
        TransmissionReport {
            frames: target_frames,
            total_bytes: (self.total_bytes as f64 * scale).round() as u64,
            chain_bytes: (self.chain_bytes as f64 * scale).round() as u64,
            uplink_bytes: (self.uplink_bytes as f64 * scale).round() as u64,
            sim_time_s: self.sim_time_s * scale,
            energy_j: self.energy_j * scale,
        }
    }

    /// Kilobytes on air (the unit of the paper's Figure 3).
    #[must_use]
    pub fn total_kb(&self) -> f64 {
        self.total_bytes as f64 / 1024.0
    }
}

/// One frame of compressed aggregation on a deployment whose encoder (or
/// measurement-operator columns) was already distributed: the chain folds
/// the `code_len`-element partial sum into the aggregator, which uplinks
/// the finished code to the edge. This is codec-agnostic — any
/// [`crate::Codec`] whose per-frame code is `code_len` f32 values pays
/// exactly this traffic.
///
/// Returns elapsed simulated seconds.
///
/// # Errors
///
/// Propagates transmission failures.
pub(crate) fn compressed_frame_on<D: DeploymentBackend + ?Sized>(
    network: &mut D,
    code_len: usize,
) -> Result<f64, OrcoError> {
    let code_bytes = (code_len * 4) as u64;
    // Per-device cost: `code_len` multiply-adds into the partial sum.
    let device_flops = (2 * code_len) as u64;
    let t0 = network.now_s();
    network.compressed_aggregation_round(code_bytes, device_flops)?;
    // Aggregator finishes the encoding (bias + σ) and uplinks.
    let agg = network.aggregator();
    let edge = network.edge();
    network.compute(agg, (6 * code_len) as u64)?;
    network.transmit(agg, edge, code_bytes, PacketKind::LatentVector)?;
    Ok(network.now_s() - t0)
}

/// Runs `frames` frames of the compressed pipeline on a deployment,
/// measuring all traffic in isolation (the ledger is reset before and not
/// after).
///
/// # Errors
///
/// Propagates transmission failures.
pub fn measure_compressed_frames<D: DeploymentBackend + ?Sized>(
    network: &mut D,
    code_len: usize,
    frames: usize,
) -> Result<TransmissionReport, OrcoError> {
    network.reset_accounting();
    let t0 = network.now_s();
    for _ in 0..frames {
        compressed_frame_on(network, code_len)?;
    }
    let acct = network.accounting();
    Ok(TransmissionReport {
        frames,
        total_bytes: acct.total_tx_bytes(),
        chain_bytes: acct.bytes_by_kind(PacketKind::CompressedElement),
        uplink_bytes: acct.bytes_by_kind(PacketKind::LatentVector),
        sim_time_s: network.now_s() - t0,
        energy_j: acct.total_tx_energy_j() + acct.total_rx_energy_j(),
    })
}

/// Runs the compressed data plane over **real sensing data**: the whole
/// round of `frames` is encoded in one [`Codec::encode_batch`] call into
/// the caller-owned `codes` buffer (reused across rounds, zero per-frame
/// allocation), then `frames_to_send` frames of chain aggregation +
/// uplink are measured on the deployment (byte costs are per-frame
/// constant, so extrapolating past the encoded batch is exact). Payload
/// sizes are derived from the encoded batch itself (`codes.cols()` f32
/// values per frame), so the
/// traffic is byte-identical to [`measure_compressed_frames`] with
/// `code_len = codec.code_len()` — that twin survives for callers with no
/// data in hand.
///
/// # Errors
///
/// Propagates batch-boundary shape errors and transmission failures.
pub fn measure_encoded_frames<D: DeploymentBackend + ?Sized>(
    network: &mut D,
    codec: &mut dyn Codec,
    frames: MatView<'_>,
    codes: &mut Matrix,
    frames_to_send: usize,
) -> Result<TransmissionReport, OrcoError> {
    if frames.rows() == 0 {
        return Err(OrcoError::Config {
            detail: "measure_encoded_frames: need at least one frame to encode".into(),
        });
    }
    codec.encode_batch(frames, codes)?;
    network.reset_accounting();
    let t0 = network.now_s();
    for _ in 0..frames_to_send {
        compressed_frame_on(network, codes.cols())?;
    }
    let acct = network.accounting();
    Ok(TransmissionReport {
        frames: frames_to_send,
        total_bytes: acct.total_tx_bytes(),
        chain_bytes: acct.bytes_by_kind(PacketKind::CompressedElement),
        uplink_bytes: acct.bytes_by_kind(PacketKind::LatentVector),
        sim_time_s: network.now_s() - t0,
        energy_j: acct.total_tx_energy_j() + acct.total_rx_energy_j(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OrcoConfig;
    use orco_datasets::DatasetKind;
    use orco_wsn::NetworkConfig;

    fn net() -> orco_wsn::Network {
        orco_wsn::Network::new(NetworkConfig { num_devices: 32, seed: 0, ..Default::default() })
    }

    #[test]
    fn compressed_cost_scales_with_latent_dim() {
        let rs = measure_compressed_frames(&mut net(), 16, 4).unwrap();
        let rl = measure_compressed_frames(&mut net(), 128, 4).unwrap();
        assert!(rl.total_bytes > rs.total_bytes * 4, "128-dim should cost ≫ 16-dim");
        assert!(rs.uplink_bytes >= 4 * 16 * 4);
    }

    #[test]
    fn extrapolation_is_linear() {
        let r = measure_compressed_frames(&mut net(), 32, 5).unwrap();
        let big = r.extrapolate(50);
        assert_eq!(big.frames, 50);
        assert_eq!(big.total_bytes, r.total_bytes * 10);
        assert!((big.sim_time_s - r.sim_time_s * 10.0).abs() < 1e-9);
    }

    #[test]
    fn extrapolation_matches_actual_measurement() {
        // Measure 2 frames, extrapolate to 6, compare against measuring 6.
        let r2 = measure_compressed_frames(&mut net(), 32, 2).unwrap();
        let r6 = measure_compressed_frames(&mut net(), 32, 6).unwrap();
        let ex = r2.extrapolate(6);
        assert_eq!(ex.total_bytes, r6.total_bytes);
        assert_eq!(ex.uplink_bytes, r6.uplink_bytes);
    }

    #[test]
    fn encoded_frames_match_count_only_measurement_bitwise() {
        use crate::autoencoder::AsymmetricAutoencoder;
        let cfg = OrcoConfig::for_dataset(DatasetKind::MnistLike).with_latent_dim(16);
        let mut codec = AsymmetricAutoencoder::new(&cfg).unwrap();
        let ds = orco_datasets::mnist_like::generate(4, 0);
        let make_net = || {
            orco_wsn::Network::new(NetworkConfig { num_devices: 16, seed: 0, ..Default::default() })
        };
        let mut codes = Matrix::zeros(0, 0);
        let mut net = make_net();
        let with_data =
            measure_encoded_frames(&mut net, &mut codec, ds.x().as_view(), &mut codes, 6).unwrap();
        assert_eq!(codes.shape(), (4, 16), "codes land in the caller-owned buffer");
        let mut net = make_net();
        let count_only = measure_compressed_frames(&mut net, 16, 6).unwrap();
        assert_eq!(with_data, count_only, "real payloads must cost exactly the modeled bytes");
    }

    #[test]
    fn kb_conversion() {
        let r = TransmissionReport {
            frames: 1,
            total_bytes: 2048,
            chain_bytes: 0,
            uplink_bytes: 0,
            sim_time_s: 0.0,
            energy_j: 0.0,
        };
        assert!((r.total_kb() - 2.0).abs() < 1e-9);
    }
}
