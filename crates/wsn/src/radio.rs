//! First-order radio energy model.
//!
//! The standard WSN energy model used throughout the clustering literature
//! the paper cites (\[18\]–\[20\]): transmitting `k` bits over distance `d`
//! costs `E_elec·k + ε_amp·k·d²`, receiving costs `E_elec·k`. The model
//! makes far-from-aggregator nodes more expensive to run — exactly the
//! asymmetry the multi-hop aggregation tree (paper §III-A) exists to
//! mitigate.

/// Radio energy parameters.
///
/// # Examples
///
/// ```
/// use orco_wsn::RadioModel;
///
/// let radio = RadioModel::default();
/// // Receiving is always cheaper than transmitting over any distance.
/// assert!(radio.rx_energy_j(1024) < radio.tx_energy_j(1024, 10.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadioModel {
    /// Electronics energy per bit, joules (both TX and RX paths).
    pub(crate) e_elec_j_per_bit: f64,
    /// Amplifier energy per bit per m², joules.
    pub(crate) eps_amp_j_per_bit_m2: f64,
}

impl Default for RadioModel {
    /// The canonical constants: `E_elec` = 50 nJ/bit,
    /// `ε_amp` = 100 pJ/bit/m².
    fn default() -> Self {
        Self { e_elec_j_per_bit: 50e-9, eps_amp_j_per_bit_m2: 100e-12 }
    }
}

impl RadioModel {
    /// Energy to transmit `bytes` over `distance_m` meters.
    ///
    /// # Panics
    ///
    /// Panics if `distance_m` is negative or not finite.
    #[must_use]
    pub fn tx_energy_j(&self, bytes: u64, distance_m: f64) -> f64 {
        assert!(distance_m.is_finite() && distance_m >= 0.0, "tx distance must be ≥ 0");
        let bits = bytes as f64 * 8.0;
        self.e_elec_j_per_bit * bits + self.eps_amp_j_per_bit_m2 * bits * distance_m * distance_m
    }

    /// Energy to receive `bytes`.
    #[must_use]
    pub fn rx_energy_j(&self, bytes: u64) -> f64 {
        self.e_elec_j_per_bit * bytes as f64 * 8.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_grows_quadratically_with_distance() {
        let r = RadioModel::default();
        let near = r.tx_energy_j(100, 10.0);
        let far = r.tx_energy_j(100, 20.0);
        // Amplifier term quadruples; total grows but less than 4x because of E_elec.
        assert!(far > near);
        let amp_near = near - r.rx_energy_j(100);
        let amp_far = far - r.rx_energy_j(100);
        assert!((amp_far / amp_near - 4.0).abs() < 1e-9);
    }

    #[test]
    fn zero_bytes_cost_nothing() {
        let r = RadioModel::default();
        assert_eq!(r.tx_energy_j(0, 100.0), 0.0);
        assert_eq!(r.rx_energy_j(0), 0.0);
    }

    #[test]
    fn known_energy_value() {
        let r = RadioModel::default();
        // 1 byte = 8 bits at d=0: 8 * 50nJ = 400 nJ.
        assert!((r.tx_energy_j(1, 0.0) - 400e-9).abs() < 1e-15);
        assert!((r.rx_energy_j(1) - 400e-9).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "distance")]
    fn negative_distance_rejected() {
        let _ = RadioModel::default().tx_energy_j(1, -1.0);
    }
}
