//! Synthetic 28×28 grayscale digit glyphs (MNIST stand-in).
//!
//! Digits are rendered from seven-segment stroke skeletons with per-sample
//! jitter: random translation, scale, shear, stroke thickness, blur and
//! pixel noise. The result is a 10-class corpus whose samples are cheap to
//! generate, deterministic given a seed, visually digit-like, and — the
//! property the experiments actually need — *reconstructable and
//! classifiable with the same difficulty ordering as MNIST*.

use orco_tensor::{Matrix, OrcoRng};

use crate::dataset::{Dataset, DatasetKind};
use crate::raster::Canvas;

/// Seven-segment membership per digit.
///
/// Segments: 0=top, 1=top-right, 2=bottom-right, 3=bottom, 4=bottom-left,
/// 5=top-left, 6=middle.
const SEGMENTS: [[bool; 7]; 10] = [
    [true, true, true, true, true, true, false],     // 0
    [false, true, true, false, false, false, false], // 1
    [true, true, false, true, true, false, true],    // 2
    [true, true, true, true, false, false, true],    // 3
    [false, true, true, false, false, true, true],   // 4
    [true, false, true, true, false, true, true],    // 5
    [true, false, true, true, true, true, true],     // 6
    [true, true, true, false, false, false, false],  // 7
    [true, true, true, true, true, true, true],      // 8
    [true, true, true, true, false, true, true],     // 9
];

/// Segment endpoints in glyph-local normalized coordinates `(y, x)`.
const SEGMENT_LINES: [((f32, f32), (f32, f32)); 7] = [
    ((0.0, 0.0), (0.0, 1.0)), // top
    ((0.0, 1.0), (0.5, 1.0)), // top-right
    ((0.5, 1.0), (1.0, 1.0)), // bottom-right
    ((1.0, 0.0), (1.0, 1.0)), // bottom
    ((0.5, 0.0), (1.0, 0.0)), // bottom-left
    ((0.0, 0.0), (0.5, 0.0)), // top-left
    ((0.5, 0.0), (0.5, 1.0)), // middle
];

/// Per-sample rendering parameters (exposed for tests and visual debugging).
#[derive(Debug, Clone, Copy)]
pub(crate) struct GlyphStyle {
    /// Vertical offset of the glyph box origin, normalized.
    pub(crate) offset_y: f32,
    /// Horizontal offset of the glyph box origin, normalized.
    pub(crate) offset_x: f32,
    /// Glyph box height, normalized.
    pub(crate) scale_y: f32,
    /// Glyph box width, normalized.
    pub(crate) scale_x: f32,
    /// Horizontal shear applied proportionally to `y` (italic slant).
    pub(crate) shear: f32,
    /// Stroke thickness in pixels.
    pub(crate) thickness: f32,
    /// Stroke intensity in `[0, 1]`.
    pub(crate) intensity: f32,
    /// Gaussian pixel-noise standard deviation.
    pub(crate) noise_std: f32,
    /// Box-blur passes.
    pub(crate) blur_passes: usize,
}

impl GlyphStyle {
    /// Samples a random style (the distribution that makes the corpus
    /// non-trivial).
    #[must_use]
    pub(crate) fn sample(rng: &mut OrcoRng) -> Self {
        Self {
            offset_y: rng.uniform(0.12, 0.28),
            offset_x: rng.uniform(0.2, 0.4),
            scale_y: rng.uniform(0.45, 0.62),
            scale_x: rng.uniform(0.3, 0.45),
            shear: rng.uniform(-0.12, 0.12),
            thickness: rng.uniform(1.6, 3.0),
            intensity: rng.uniform(0.75, 1.0),
            noise_std: rng.uniform(0.01, 0.05),
            blur_passes: usize::from(rng.bernoulli(0.5)),
        }
    }
}

/// Renders one digit as a flattened 784-element row.
///
/// # Panics
///
/// Panics if `digit >= 10`.
#[must_use]
pub(crate) fn render_digit(digit: usize, style: &GlyphStyle, rng: &mut OrcoRng) -> Vec<f32> {
    assert!(digit < 10, "render_digit: digit {digit} out of range");
    let kind = DatasetKind::MnistLike;
    let mut canvas = Canvas::new(kind.height(), kind.width(), 0.0);
    for (seg, &on) in SEGMENTS[digit].iter().enumerate() {
        if !on {
            continue;
        }
        let ((y0, x0), (y1, x1)) = SEGMENT_LINES[seg];
        let map = |y: f32, x: f32| -> (f32, f32) {
            (
                style.offset_y + y * style.scale_y,
                style.offset_x + x * style.scale_x + style.shear * (y - 0.5),
            )
        };
        canvas.line(map(y0, x0), map(y1, x1), style.thickness, style.intensity);
    }
    canvas.blur(style.blur_passes);
    let mut pixels = canvas.into_pixels();
    if style.noise_std > 0.0 {
        rng.add_normal(&mut pixels, 0.0, style.noise_std);
        pixels.iter_mut().for_each(|p| *p = p.clamp(0.0, 1.0));
    }
    pixels
}

/// Generates a label-balanced digit dataset of `n` samples.
///
/// Labels cycle `0, 1, …, 9, 0, …` and the whole corpus is deterministic
/// given `seed`.
///
/// # Panics
///
/// Panics if `n == 0`.
#[must_use]
pub fn generate(n: usize, seed: u64) -> Dataset {
    assert!(n > 0, "mnist_like::generate: n must be non-zero");
    let kind = DatasetKind::MnistLike;
    let mut rng = OrcoRng::from_label("mnist-like", seed);
    let mut x = Matrix::zeros(n, kind.sample_len());
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let digit = i % kind.classes();
        let style = GlyphStyle::sample(&mut rng);
        let pixels = render_digit(digit, &style, &mut rng);
        x.row_mut(i).copy_from_slice(&pixels);
        labels.push(digit);
    }
    Dataset::new(kind, x, labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use orco_tensor::stats;

    /// A clean, centred style.
    fn clean() -> GlyphStyle {
        GlyphStyle {
            offset_y: 0.2,
            offset_x: 0.3,
            scale_y: 0.55,
            scale_x: 0.38,
            shear: 0.0,
            thickness: 2.2,
            intensity: 1.0,
            noise_std: 0.0,
            blur_passes: 0,
        }
    }

    #[test]
    fn generates_balanced_deterministic_corpus() {
        let a = generate(100, 42);
        let b = generate(100, 42);
        assert_eq!(a.x(), b.x(), "same seed → identical corpus");
        for class in 0..10 {
            assert_eq!(a.labels().iter().filter(|&&l| l == class).count(), 10, "balanced");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(10, 1);
        let b = generate(10, 2);
        assert_ne!(a.x(), b.x());
    }

    #[test]
    fn pixels_in_unit_range() {
        let ds = generate(50, 7);
        assert!(ds.x().min() >= 0.0);
        assert!(ds.x().max() <= 1.0);
    }

    #[test]
    fn glyphs_are_not_blank_and_not_full() {
        let ds = generate(30, 3);
        for i in 0..ds.len() {
            let s = ds.sample(i);
            let lit = s.iter().filter(|&&p| p > 0.3).count();
            assert!(lit > 20, "sample {i} nearly blank ({lit} lit)");
            assert!(lit < 500, "sample {i} nearly full ({lit} lit)");
        }
    }

    #[test]
    fn one_and_eight_have_different_ink() {
        // Digit 1 uses 2 segments, digit 8 uses 7: ink mass must differ
        // clearly, which is what makes classes separable.
        let mut rng = OrcoRng::from_label("ink", 0);
        let style = clean();
        let one: f32 = render_digit(1, &style, &mut rng).iter().sum();
        let eight: f32 = render_digit(8, &style, &mut rng).iter().sum();
        assert!(eight > one * 2.0, "eight {eight} vs one {one}");
    }

    #[test]
    fn same_class_varies_between_samples() {
        let ds = generate(40, 11);
        // Samples 0 and 10 are both digit 0 but rendered with different
        // styles: they must not be identical, else there is nothing to learn.
        let a = ds.sample(0);
        let b = ds.sample(10);
        assert_eq!(ds.labels()[0], ds.labels()[10]);
        let m = stats::mse(a, b);
        assert!(m > 1e-4, "intra-class variation too small: {m}");
    }

    #[test]
    fn clean_style_centred_glyph() {
        let mut rng = OrcoRng::from_label("clean", 0);
        let pixels = render_digit(8, &clean(), &mut rng);
        // Corners empty for a centred glyph.
        assert!(pixels[0] < 0.05);
        assert!(pixels[783] < 0.05);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_digit_ten() {
        let mut rng = OrcoRng::from_label("bad", 0);
        let _ = render_digit(10, &clean(), &mut rng);
    }
}
