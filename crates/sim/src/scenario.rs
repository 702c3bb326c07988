//! Scripted fault and workload scenarios.
//!
//! A [`Scenario`] is a time-ordered script of deployment perturbations —
//! device deaths and recoveries, link-degradation windows, straggler
//! compute multipliers, background traffic bursts — that the event-driven
//! backend applies as simulated time crosses each action's timestamp.
//! Scripts replace hand-wired mid-test mutations: the same scenario drives
//! failure drills, figure sweeps, and examples, and replaying it with the
//! same seed reproduces every statistic bit for bit.
//!
//! Devices are addressed by **index into the deployment's device list**
//! (`0..num_devices`) rather than by [`orco_wsn::NodeId`], so a scenario is
//! meaningful independent of any concrete deployment.

/// One scripted perturbation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum ScenarioAction {
    /// Kill device `device` (index into the device list).
    KillDevice {
        /// Device index.
        device: usize,
    },
    /// Revive device `device` with a fresh battery of `energy_j` joules
    /// and rebuild the aggregation routes around it.
    ReviveDevice {
        /// Device index.
        device: usize,
        /// Battery budget after recovery, joules.
        energy_j: f64,
    },
    /// Override the intra-cluster sensor link's loss probability.
    DegradeSensorLink {
        /// Per-frame loss probability in `[0, 1)`.
        loss_prob: f64,
    },
    /// Clear the sensor-link degradation override (loss returns to the
    /// deployment's configured value).
    RestoreSensorLink,
    /// Multiply device `device`'s compute time by `multiplier` (straggler).
    SetStraggler {
        /// Device index.
        device: usize,
        /// Compute-time multiplier (> 0; 1.0 = nominal).
        multiplier: f64,
    },
    /// Reset device `device`'s compute-time multiplier to 1.
    ClearStraggler {
        /// Device index.
        device: usize,
    },
    /// Inject `packets` background packets of `payload_bytes` each from
    /// device `device` to the aggregator (they contend for the medium like
    /// any other traffic).
    TrafficBurst {
        /// Device index.
        device: usize,
        /// Payload per packet, bytes.
        payload_bytes: u64,
        /// Number of packets.
        packets: u32,
    },
}

/// A time-ordered script of `ScenarioAction`s.
///
/// # Examples
///
/// ```
/// use orco_sim::Scenario;
///
/// let scenario = Scenario::new()
///     .kill_at(5.0, 3)
///     .revive_at(20.0, 3, 1.0)
///     .degrade_sensor_link(10.0..15.0, 0.3)
///     .straggler(0.0..30.0, 7, 4.0)
///     .burst_at(12.0, 1, 256, 8);
/// assert_ne!(scenario, Scenario::new());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scenario {
    actions: Vec<(f64, ScenarioAction)>,
}

impl Scenario {
    /// An empty scenario (the healthy deployment).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `action` at simulated time `t_s`.
    ///
    /// # Panics
    ///
    /// Panics if `t_s` is not a finite number of seconds ≥ 0.
    #[must_use]
    pub(crate) fn at(mut self, t_s: f64, action: ScenarioAction) -> Self {
        orco_wsn::clock::assert_monotone_dt(t_s);
        self.actions.push((t_s, action));
        self
    }

    /// Kills device `device` at time `t_s`.
    #[must_use]
    pub fn kill_at(self, t_s: f64, device: usize) -> Self {
        self.at(t_s, ScenarioAction::KillDevice { device })
    }

    /// Revives device `device` at time `t_s` with `energy_j` joules.
    #[must_use]
    pub fn revive_at(self, t_s: f64, device: usize, energy_j: f64) -> Self {
        self.at(t_s, ScenarioAction::ReviveDevice { device, energy_j })
    }

    /// Degrades the sensor link to `loss_prob` over `window` (only the
    /// sensor override is restored at the window's end, so a concurrent
    /// uplink window is unaffected).
    #[must_use]
    pub fn degrade_sensor_link(self, window: std::ops::Range<f64>, loss_prob: f64) -> Self {
        self.at(window.start, ScenarioAction::DegradeSensorLink { loss_prob })
            .at(window.end, ScenarioAction::RestoreSensorLink)
    }

    /// Makes device `device` a straggler (compute time × `multiplier`)
    /// over `window`.
    #[must_use]
    pub fn straggler(self, window: std::ops::Range<f64>, device: usize, multiplier: f64) -> Self {
        self.at(window.start, ScenarioAction::SetStraggler { device, multiplier })
            .at(window.end, ScenarioAction::ClearStraggler { device })
    }

    /// Injects a background traffic burst at time `t_s`.
    #[must_use]
    pub fn burst_at(self, t_s: f64, device: usize, payload_bytes: u64, packets: u32) -> Self {
        self.at(t_s, ScenarioAction::TrafficBurst { device, payload_bytes, packets })
    }

    /// The script sorted by time (stable: same-time actions keep their
    /// scripting order).
    #[must_use]
    pub(crate) fn sorted_actions(&self) -> Vec<(f64, ScenarioAction)> {
        let mut sorted = self.actions.clone();
        sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
        sorted
    }

    /// Checks every device index the script references against a
    /// deployment of `num_devices` devices. A fault script with a typo'd
    /// index would otherwise silently perturb nothing — and a drill
    /// asserting survival would pass vacuously.
    ///
    /// # Panics
    ///
    /// Panics naming the first out-of-range index.
    pub(crate) fn validate_device_indices(&self, num_devices: usize) {
        for (t, action) in &self.actions {
            let device = match *action {
                ScenarioAction::KillDevice { device }
                | ScenarioAction::ReviveDevice { device, .. }
                | ScenarioAction::SetStraggler { device, .. }
                | ScenarioAction::ClearStraggler { device }
                | ScenarioAction::TrafficBurst { device, .. } => Some(device),
                ScenarioAction::DegradeSensorLink { .. } | ScenarioAction::RestoreSensorLink => {
                    None
                }
            };
            if let Some(device) = device {
                assert!(
                    device < num_devices,
                    "scenario action at t = {t} s references device {device}, but the \
                     deployment has only {num_devices} devices (indices 0..{num_devices})"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorted_actions_are_stable_by_time() {
        let s = Scenario::new().kill_at(5.0, 1).burst_at(1.0, 0, 10, 1).kill_at(5.0, 2);
        let sorted = s.sorted_actions();
        assert_eq!(sorted.len(), 3);
        assert_eq!(sorted[0].0, 1.0);
        assert_eq!(sorted[1].1, ScenarioAction::KillDevice { device: 1 });
        assert_eq!(sorted[2].1, ScenarioAction::KillDevice { device: 2 });
    }

    #[test]
    fn window_helpers_script_both_edges() {
        let s = Scenario::new().degrade_sensor_link(2.0..4.0, 0.5);
        let sorted = s.sorted_actions();
        assert_eq!(sorted[0], (2.0, ScenarioAction::DegradeSensorLink { loss_prob: 0.5 }));
        assert_eq!(sorted[1], (4.0, ScenarioAction::RestoreSensorLink));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_negative_times() {
        let _ = Scenario::new().kill_at(-1.0, 0);
    }
}
