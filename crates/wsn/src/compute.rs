//! Simulated compute-time model.
//!
//! `orco-nn` layers report per-sample FLOP estimates; this module converts
//! them to simulated seconds at a device's sustained rate. The asymmetry
//! between the aggregator (hosting the one-layer encoder) and the edge
//! server (hosting the deep decoder) is what makes OrcoDCS's orchestrated
//! training faster than training everything in one weak place — Figure 4's
//! entire effect rides on this model.

use crate::node::DeviceClass;

/// Converts FLOP counts into simulated seconds per device class.
///
/// # Examples
///
/// ```
/// use orco_wsn::{ComputeModel, DeviceClass};
///
/// let model = ComputeModel::default();
/// let edge = model.time_for_flops(DeviceClass::EdgeServer, 1_000_000);
/// let iot = model.time_for_flops(DeviceClass::IotDevice, 1_000_000);
/// assert!(edge < iot);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputeModel {
    /// Sustained FLOP/s of an IoT device.
    pub(crate) iot_flops: f64,
    /// Sustained FLOP/s of a data aggregator.
    pub(crate) aggregator_flops: f64,
    /// Sustained FLOP/s of an edge server.
    pub(crate) edge_flops: f64,
    /// Efficiency factor in `(0, 1]` applied to all rates (models framework
    /// overhead; 1.0 = ideal).
    pub(crate) efficiency: f64,
}

impl Default for ComputeModel {
    fn default() -> Self {
        Self {
            iot_flops: DeviceClass::IotDevice.flops_rate(),
            aggregator_flops: DeviceClass::DataAggregator.flops_rate(),
            edge_flops: DeviceClass::EdgeServer.flops_rate(),
            efficiency: 0.5,
        }
    }
}

impl ComputeModel {
    /// Effective FLOP/s for a device class.
    #[must_use]
    pub(crate) fn rate(&self, class: DeviceClass) -> f64 {
        let raw = match class {
            DeviceClass::IotDevice => self.iot_flops,
            DeviceClass::DataAggregator => self.aggregator_flops,
            DeviceClass::EdgeServer => self.edge_flops,
        };
        raw * self.efficiency
    }

    /// Simulated seconds for `flops` floating-point operations on `class`.
    #[must_use]
    pub fn time_for_flops(&self, class: DeviceClass, flops: u64) -> f64 {
        flops as f64 / self.rate(class)
    }

    /// Energy in joules for `flops` on `class`, with a fixed energy-per-FLOP
    /// coefficient (1 nJ/FLOP for IoT-class silicon, scaled down for bigger
    /// devices which are more efficient per operation).
    #[must_use]
    pub(crate) fn energy_for_flops(&self, class: DeviceClass, flops: u64) -> f64 {
        let j_per_flop = match class {
            DeviceClass::IotDevice => 1e-9,
            DeviceClass::DataAggregator => 5e-10,
            DeviceClass::EdgeServer => 2e-10,
        };
        flops as f64 * j_per_flop
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_respect_class_ordering() {
        let m = ComputeModel::default();
        assert!(m.rate(DeviceClass::IotDevice) < m.rate(DeviceClass::DataAggregator));
        assert!(m.rate(DeviceClass::DataAggregator) < m.rate(DeviceClass::EdgeServer));
    }

    #[test]
    fn time_scales_linearly() {
        let m = ComputeModel::default();
        let t1 = m.time_for_flops(DeviceClass::EdgeServer, 1_000);
        let t2 = m.time_for_flops(DeviceClass::EdgeServer, 2_000);
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn efficiency_slows_everything() {
        let ideal = ComputeModel { efficiency: 1.0, ..Default::default() };
        let real = ComputeModel { efficiency: 0.5, ..Default::default() };
        assert!(
            real.time_for_flops(DeviceClass::EdgeServer, 1_000_000)
                > ideal.time_for_flops(DeviceClass::EdgeServer, 1_000_000)
        );
    }

    #[test]
    fn energy_is_positive_and_class_dependent() {
        let m = ComputeModel::default();
        let iot = m.energy_for_flops(DeviceClass::IotDevice, 1_000);
        let edge = m.energy_for_flops(DeviceClass::EdgeServer, 1_000);
        assert!(iot > edge);
        assert!(edge > 0.0);
    }
}
