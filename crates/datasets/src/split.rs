//! Train/test splitting and fractional subsets.
//!
//! The paper's Figure 5 compares OrcoDCS against DCSNet trained on 30%,
//! 50% and 70% of the data ("only 50% of the training data being made
//! accessible to it by default") — [`fraction`] produces those subsets.

use orco_tensor::OrcoRng;

use crate::dataset::Dataset;

/// Returns a random `fraction` of the dataset (the paper's DCSNet-`x`%
/// training subsets).
///
/// # Panics
///
/// Panics if `fraction` is not in `(0, 1]` or the subset would be empty.
#[must_use]
pub fn fraction(dataset: &Dataset, fraction: f32, rng: &mut OrcoRng) -> Dataset {
    assert!(fraction > 0.0 && fraction <= 1.0, "fraction must be in (0, 1]");
    let k = ((dataset.len() as f32) * fraction).round() as usize;
    assert!(k > 0, "fraction: subset would be empty");
    let idx = rng.sample_indices(dataset.len(), k.min(dataset.len()));
    dataset.subset(&idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mnist_like;

    #[test]
    fn fraction_sizes() {
        let ds = mnist_like::generate(100, 0);
        let mut rng = OrcoRng::from_label("frac", 0);
        assert_eq!(fraction(&ds, 0.3, &mut rng).len(), 30);
        assert_eq!(fraction(&ds, 0.5, &mut rng).len(), 50);
        assert_eq!(fraction(&ds, 0.7, &mut rng).len(), 70);
        assert_eq!(fraction(&ds, 1.0, &mut rng).len(), 100);
    }

    #[test]
    fn fraction_is_deterministic_per_seed() {
        let ds = mnist_like::generate(50, 0);
        let mut a = OrcoRng::from_label("det", 1);
        let mut b = OrcoRng::from_label("det", 1);
        let fa = fraction(&ds, 0.5, &mut a);
        let fb = fraction(&ds, 0.5, &mut b);
        assert_eq!(fa.x(), fb.x());
    }

    #[test]
    #[should_panic(expected = "fraction must be in")]
    fn rejects_zero_fraction() {
        let ds = mnist_like::generate(10, 0);
        let mut rng = OrcoRng::from_label("bad", 0);
        let _ = fraction(&ds, 0.0, &mut rng);
    }
}
