//! Order statistics and the delivery digest.

/// Median and quartiles of a set of trials: `(q1, median, q3)`, computed
/// as Python's `statistics.quantiles(values, n=4)` does (exclusive
/// method), so a spread printed here is the spread the driver computes.
/// With fewer than two values every quartile is the single value.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 1 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    let at = |i: usize| -> f64 {
        // Cut point i of 4 over n values, exclusive method: position
        // i·(n+1)/4 on a 1-based index, linearly interpolated and clamped
        // to the sample's ends.
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (at(1), at(2), at(3))
}

/// Median of a set of values.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Nearest-rank percentile `p` (0..=100) of an ascending sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of p99.9 / p99 / p90 that still has at least ten samples
/// beyond it (else the median), as `(percentile, value)`: a tail read off
/// fewer samples is one slow request, not a distribution. Ranks are
/// counted in whole samples, per mille, so 100 samples do have ten beyond
/// their p90.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    let rank = |per_mille: usize| (n * per_mille).div_ceil(1000).clamp(1, n);
    let per_mille = [999, 990, 900].into_iter().find(|&p| n - rank(p) >= 10).unwrap_or(500);
    (per_mille as f64 / 10.0, sorted[rank(per_mille) - 1])
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over the 32-bit patterns of a row of f32s — one multiply per
/// value instead of `orco_tensor::fnv1a64`'s four, because it runs on
/// every delivered row inside the timed loop.
pub fn row_digest(row: &[f32]) -> u64 {
    row.iter().fold(FNV_OFFSET, |h, v| (h ^ u64::from(v.to_bits())).wrapping_mul(FNV_PRIME))
}

/// A running FNV-1a fold of row digests, in delivery order. Two streams
/// agree iff (up to hash collision) they delivered bit-identical rows in
/// the same order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamDigest(pub u64);

impl Default for StreamDigest {
    fn default() -> Self {
        Self(FNV_OFFSET)
    }
}

impl StreamDigest {
    /// Folds one row's digest into the stream.
    pub fn fold(&mut self, row: u64) {
        self.0 = (self.0 ^ row).wrapping_mul(FNV_PRIME);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert_eq!(median(&[4.0, 1.0, 9.0, 2.0]), 3.0);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (90.0, 90.0));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (99.0, 990.0));
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&v).0, 99.9);
        assert_eq!(tail(&[1.0, 2.0, 3.0]), (50.0, 2.0));
    }

    #[test]
    fn digests_see_bits_and_order() {
        assert_ne!(row_digest(&[0.0]), row_digest(&[-0.0]), "bit patterns, not values");
        assert_ne!(row_digest(&[1.0, 2.0]), row_digest(&[2.0, 1.0]));
        assert_eq!(row_digest(&[1.5, 2.5]), row_digest(&[1.5, 2.5]));
        let (a, b) = (row_digest(&[1.0]), row_digest(&[2.0]));
        let mut ab = StreamDigest::default();
        ab.fold(a);
        ab.fold(b);
        let mut ba = StreamDigest::default();
        ba.fold(b);
        ba.fold(a);
        assert_ne!(ab, ba, "delivery order is part of the digest");
        assert_ne!(ab, StreamDigest::default());
    }
}
