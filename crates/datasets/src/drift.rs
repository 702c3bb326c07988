//! Environmental-change simulation.
//!
//! The paper motivates online training with "environmental changes": sensing
//! data drifts and an offline-trained model cannot adapt (§I), so OrcoDCS
//! monitors reconstruction error and relaunches training when it exceeds a
//! threshold (§III-D). This module produces drifted variants of a dataset to
//! drive those experiments: illumination shifts, additive sensor bias,
//! contrast changes and noise bursts, each with a severity knob.

use orco_tensor::{Matrix, OrcoRng};

use crate::dataset::Dataset;

/// A kind of environmental drift applied to sensing data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Drift {
    /// Global illumination change: multiply pixels by `1 - severity`.
    Dimming,
    /// Additive sensor bias: add `severity * 0.5` to every pixel.
    Bias,
    /// Contrast compression toward 0.5 by `severity`.
    ContrastLoss,
    /// Heavy sensor noise with std `severity * 0.3`.
    NoiseBurst,
}

/// Applies a drift of the given `severity` in `[0, 1]` to every sample.
///
/// Severity 0 is the identity; severity 1 is the strongest supported shift.
/// Labels are preserved — the world changed, not the classes.
///
/// # Panics
///
/// Panics if `severity` is outside `[0, 1]`.
#[must_use]
pub fn apply(ds: &Dataset, drift: Drift, severity: f32, rng: &mut OrcoRng) -> Dataset {
    let mut x = ds.x().clone();
    apply_matrix(&mut x, drift, severity, rng);
    ds.with_x(x)
}

/// Applies a drift in place to a raw sample matrix (one sample per row),
/// with the identical transform [`apply`] uses on a [`Dataset`].
///
/// This is the kind-agnostic entry point for callers whose frames do not
/// wrap a [`Dataset`] — the serving-layer load generator and the rollout
/// chaos scenarios shift live frame streams through it, so a simulated
/// environmental change is bit-for-bit the same distribution shift the
/// offline drift experiments train against.
///
/// # Panics
///
/// Panics if `severity` is outside `[0, 1]`.
pub fn apply_matrix(x: &mut Matrix, drift: Drift, severity: f32, rng: &mut OrcoRng) {
    assert!((0.0..=1.0).contains(&severity), "drift severity must be in [0, 1]");
    match drift {
        Drift::Dimming => {
            let gain = 1.0 - 0.8 * severity;
            x.map_inplace(|v| (v * gain).clamp(0.0, 1.0));
        }
        Drift::Bias => {
            let bias = 0.5 * severity;
            x.map_inplace(|v| (v + bias).clamp(0.0, 1.0));
        }
        Drift::ContrastLoss => {
            x.map_inplace(|v| 0.5 + (v - 0.5) * (1.0 - severity));
        }
        Drift::NoiseBurst => {
            rng.add_normal(x.as_mut_slice(), 0.0, 0.3 * severity);
            x.map_inplace(|v| v.clamp(0.0, 1.0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mnist_like;
    use orco_tensor::stats;

    const ALL: [Drift; 4] = [Drift::Dimming, Drift::Bias, Drift::ContrastLoss, Drift::NoiseBurst];

    #[test]
    fn zero_severity_is_identity_for_deterministic_drifts() {
        let ds = mnist_like::generate(5, 0);
        let mut rng = OrcoRng::from_label("drift0", 0);
        for d in [Drift::Dimming, Drift::Bias, Drift::ContrastLoss] {
            let out = apply(&ds, d, 0.0, &mut rng);
            assert!(out.x().max_abs_diff(ds.x()) <= 1e-6, "{d:?} at severity 0 changed data");
        }
    }

    #[test]
    fn severity_increases_distortion() {
        let ds = mnist_like::generate(10, 1);
        let mut rng = OrcoRng::from_label("drift-sev", 0);
        for d in ALL {
            let mild = apply(&ds, d, 0.2, &mut rng);
            let severe = apply(&ds, d, 0.9, &mut rng);
            let e_mild = stats::mse(ds.x().as_slice(), mild.x().as_slice());
            let e_severe = stats::mse(ds.x().as_slice(), severe.x().as_slice());
            assert!(e_severe > e_mild, "{d:?}: severe ({e_severe}) not worse than mild ({e_mild})");
        }
    }

    #[test]
    fn dimming_reduces_brightness() {
        let ds = mnist_like::generate(5, 2);
        let mut rng = OrcoRng::from_label("drift-dim", 0);
        let dim = apply(&ds, Drift::Dimming, 0.8, &mut rng);
        assert!(dim.x().sum() < ds.x().sum() * 0.5);
    }

    #[test]
    fn labels_preserved() {
        let ds = mnist_like::generate(20, 3);
        let mut rng = OrcoRng::from_label("drift-labels", 0);
        let out = apply(&ds, Drift::NoiseBurst, 0.5, &mut rng);
        assert_eq!(out.labels(), ds.labels());
    }

    #[test]
    fn matrix_and_dataset_paths_agree() {
        let ds = mnist_like::generate(8, 4);
        for d in ALL {
            let mut rng_a = OrcoRng::from_label("drift-mat", 7);
            let mut rng_b = OrcoRng::from_label("drift-mat", 7);
            let via_ds = apply(&ds, d, 0.6, &mut rng_a);
            let mut x = ds.x().clone();
            apply_matrix(&mut x, d, 0.6, &mut rng_b);
            assert_eq!(via_ds.x().as_slice(), x.as_slice(), "{d:?} diverged between entry points");
        }
    }

    /// Both corpora and a noise burst, pinned as FNV-1a digests of their
    /// bits (measured when each pixel drew its noise with its own
    /// `normal` call): the bulk draw must not move one pixel.
    #[test]
    fn corpora_and_a_noise_burst_match_their_pinned_digests() {
        let digest = |m: &Matrix| {
            let bytes: Vec<u8> =
                m.as_slice().iter().flat_map(|v| v.to_bits().to_le_bytes()).collect();
            orco_tensor::fnv1a64(&bytes)
        };
        let mnist = mnist_like::generate(20, 3);
        assert_eq!(digest(mnist.x()), 0xad98_a36a_5467_a25b);
        assert_eq!(digest(crate::gtsrb_like::generate(6, 1).x()), 0xdc5c_dcbb_c6b0_ee5f);
        let mut rng = OrcoRng::from_label("drift-pin", 0);
        let burst = apply(&mnist, Drift::NoiseBurst, 0.7, &mut rng);
        assert_eq!(digest(burst.x()), 0x5817_0636_f41f_490e);
    }

    #[test]
    #[should_panic(expected = "severity")]
    fn rejects_severity_above_one() {
        let ds = mnist_like::generate(2, 0);
        let mut rng = OrcoRng::from_label("drift-bad", 0);
        let _ = apply(&ds, Drift::Bias, 1.5, &mut rng);
    }
}
