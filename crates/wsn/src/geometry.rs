//! 2-D geometry for node placement.

use orco_tensor::OrcoRng;

/// A point in the 2-D deployment field, in meters.
///
/// # Examples
///
/// ```
/// use orco_wsn::Point;
///
/// let a = Point::new(0.0, 0.0);
/// let b = Point::new(3.0, 4.0);
/// assert_eq!(a.distance(b), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// X coordinate in meters.
    pub x: f64,
    /// Y coordinate in meters.
    pub y: f64,
}

impl Point {
    /// Creates a point.
    #[must_use]
    pub fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// Euclidean distance to `other`.
    #[must_use]
    pub fn distance(self, other: Point) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }

    /// Squared Euclidean distance (avoids the sqrt when only comparing).
    #[must_use]
    pub(crate) fn distance_sq(self, other: Point) -> f64 {
        (self.x - other.x).powi(2) + (self.y - other.y).powi(2)
    }
}

/// Scatters `n` points uniformly over a `side`×`side` meter field.
///
/// # Panics
///
/// Panics if `side` is not positive.
#[must_use]
pub(crate) fn scatter_uniform(n: usize, side: f64, rng: &mut OrcoRng) -> Vec<Point> {
    assert!(side > 0.0, "scatter_uniform: side must be positive");
    (0..n)
        .map(|_| {
            Point::new(rng.uniform(0.0, side as f32) as f64, rng.uniform(0.0, side as f32) as f64)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_symmetry_and_identity() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(-3.0, 5.0);
        assert_eq!(a.distance(b), b.distance(a));
        assert_eq!(a.distance(a), 0.0);
        assert!(a.distance_sq(b) > 0.0);
    }

    #[test]
    fn scatter_within_bounds_and_deterministic() {
        let mut rng1 = OrcoRng::from_label("scatter", 0);
        let mut rng2 = OrcoRng::from_label("scatter", 0);
        let p1 = scatter_uniform(100, 50.0, &mut rng1);
        let p2 = scatter_uniform(100, 50.0, &mut rng2);
        assert_eq!(p1.len(), 100);
        for (a, b) in p1.iter().zip(&p2) {
            assert_eq!(a, b);
        }
        assert!(p1.iter().all(|p| (0.0..50.0).contains(&p.x) && (0.0..50.0).contains(&p.y)));
    }
}
