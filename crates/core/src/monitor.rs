//! The model fine-tuning monitor (paper §III-D).
//!
//! "The edge server periodically calculates the reconstruction error … If
//! the reconstruction error exceeds a predefined threshold, the training
//! procedure is relaunched." The monitor smooths errors over a sliding
//! window so a single noisy frame does not trigger an expensive retrain.

use std::collections::VecDeque;

/// Sliding-window reconstruction-error monitor.
///
/// # Examples
///
/// ```
/// use orcodcs::FineTuneMonitor;
///
/// let mut monitor = FineTuneMonitor::new(0.1, 3);
/// monitor.record(0.02);
/// assert!(!monitor.should_retrain());
/// monitor.record(0.5);
/// monitor.record(0.6);
/// monitor.record(0.7);
/// assert!(monitor.should_retrain());
/// monitor.acknowledge();
/// assert!(!monitor.should_retrain());
/// ```
#[derive(Debug, Clone)]
pub struct FineTuneMonitor {
    threshold: f32,
    window: VecDeque<f32>,
    capacity: usize,
}

impl FineTuneMonitor {
    /// Creates a monitor that triggers when the mean of the last `window`
    /// recorded errors exceeds `threshold`.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is not positive or `window` is zero.
    #[must_use]
    pub fn new(threshold: f32, window: usize) -> Self {
        assert!(threshold > 0.0 && threshold.is_finite(), "threshold must be positive");
        assert!(window > 0, "window must be non-zero");
        Self { threshold, window: VecDeque::with_capacity(window), capacity: window }
    }

    /// Records one reconstruction-error observation.
    pub fn record(&mut self, error: f32) {
        if self.window.len() == self.capacity {
            self.window.pop_front();
        }
        self.window.push_back(error);
    }

    /// Mean error over the current window (`None` until the window fills).
    #[must_use]
    pub fn windowed_error(&self) -> Option<f32> {
        if self.window.len() < self.capacity {
            None
        } else {
            Some(self.window.iter().sum::<f32>() / self.window.len() as f32)
        }
    }

    /// Whether the windowed error exceeds the threshold.
    #[must_use]
    pub fn should_retrain(&self) -> bool {
        self.windowed_error().is_some_and(|e| e > self.threshold)
    }

    /// Resets the window after a retrain was launched.
    pub fn acknowledge(&mut self) {
        self.window.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn does_not_trigger_before_window_fills() {
        let mut m = FineTuneMonitor::new(0.1, 3);
        m.record(9.0);
        m.record(9.0);
        assert_eq!(m.windowed_error(), None);
        assert!(!m.should_retrain());
        m.record(9.0);
        assert!(m.should_retrain());
    }

    #[test]
    fn low_errors_never_trigger() {
        let mut m = FineTuneMonitor::new(0.1, 2);
        for _ in 0..10 {
            m.record(0.05);
        }
        assert!(!m.should_retrain());
    }

    #[test]
    fn single_spike_is_smoothed() {
        let mut m = FineTuneMonitor::new(0.5, 4);
        m.record(0.1);
        m.record(0.1);
        m.record(0.1);
        m.record(1.2); // spike; mean = 0.375 < 0.5
        assert!(!m.should_retrain());
    }

    #[test]
    fn acknowledge_resets_the_window() {
        let mut m = FineTuneMonitor::new(0.1, 2);
        m.record(1.0);
        m.record(1.0);
        assert!(m.should_retrain());
        m.acknowledge();
        assert!(!m.should_retrain());
        assert_eq!(m.windowed_error(), None);
    }

    #[test]
    fn window_slides() {
        let mut m = FineTuneMonitor::new(0.5, 2);
        m.record(2.0);
        m.record(2.0);
        assert!(m.should_retrain());
        // Fresh low errors push the spikes out.
        m.record(0.0);
        m.record(0.0);
        assert!(!m.should_retrain());
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn rejects_zero_threshold() {
        let _ = FineTuneMonitor::new(0.0, 2);
    }
}
