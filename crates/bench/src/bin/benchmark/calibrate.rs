//! How fast is the host right now?
//!
//! The benchmark runs on shared hosts where the same code is 10–30 %
//! faster or slower from one ten-second stretch to the next (a neighbour
//! on the sibling hyperthread, stolen time). That drift is common to
//! everything the process does, so a fixed arithmetic loop timed just
//! before and just after a trial measures it, and dividing it out leaves
//! the part of the trial's time that belongs to the code under test. On
//! this host that takes the run-to-run spread of `serve_loopback`'s
//! frames/s from 11 % to under 4 %.
//!
//! The loop lives here and calls nothing in the repo, so no change to the
//! program under test can move it.

use std::time::Instant;

use crate::stats::median;

/// Elements per array: two arrays of 256 KiB, resident in L2 like the
/// served model's weights.
const LEN: usize = 64 * 1024;
/// Passes over the arrays per slice.
const PASSES: usize = 100;
/// Slices per sample; the median slice is the sample, so one stolen
/// time-slice does not spoil it.
const SLICES: usize = 5;
/// Seconds a slice takes on the host the first numbers were recorded on
/// with nothing else running. It only fixes the unit: a host factor of 1
/// means "as fast as that host, undisturbed".
pub const NOMINAL_SLICE_S: f64 = 0.9e-3;

/// The reference loop and its buffers.
#[derive(Debug)]
pub struct Calibrator {
    a: Vec<f32>,
    b: Vec<f32>,
    factors: Vec<f64>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Self { a: vec![0.5; LEN], b: vec![0.25; LEN], factors: Vec::new() }
    }
}

impl Calibrator {
    #[inline(never)]
    fn slice_s(&mut self) -> f64 {
        let start = Instant::now();
        for _ in 0..PASSES {
            for (x, y) in self.a.iter_mut().zip(&self.b) {
                *x = *x * 0.5 + *y * 0.25;
            }
            std::hint::black_box(&mut self.a);
        }
        start.elapsed().as_secs_f64()
    }

    /// The host factor now: how many times slower than nominal the
    /// reference loop runs (1.2 = a host 20 % slower than nominal).
    pub fn host_factor(&mut self) -> f64 {
        let slices: Vec<f64> = (0..SLICES).map(|_| self.slice_s()).collect();
        median(&slices) / NOMINAL_SLICE_S
    }

    /// Runs `f` between two samples and returns its result with the host
    /// factor over it (the mean of the two).
    pub fn around<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let before = self.host_factor();
        let out = f();
        let factor = (before + self.host_factor()) / 2.0;
        self.factors.push(factor);
        (out, factor)
    }

    /// Median host factor over every `around` so far (1 if none).
    pub fn median_factor(&self) -> f64 {
        if self.factors.is_empty() {
            1.0
        } else {
            median(&self.factors)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_positive_and_around_returns_the_result() {
        let mut cal = Calibrator::default();
        let (out, factor) = cal.around(|| 7);
        assert_eq!(out, 7);
        assert!(factor > 0.0 && factor.is_finite());
        assert_eq!(cal.median_factor(), factor);
        assert!(cal.a.iter().all(|v| v.is_finite()), "the loop's values stay bounded");
    }
}
