//! Synthetic 32×32 RGB traffic-sign images (GTSRB stand-in).
//!
//! Each of the 43 classes is defined by a deterministic combination of
//! sign shape (circle / triangle / diamond / octagon / square), rim colour,
//! and inner glyph (bar count and orientation). Per-sample variation —
//! illumination, background colour, position jitter, noise, occasional
//! occlusion — mirrors the "varying light conditions and colorful
//! backgrounds" the paper highlights about GTSRB.

use orco_tensor::{Matrix, OrcoRng};

use crate::dataset::{Dataset, DatasetKind};
use crate::raster::Canvas;

/// The sign outline shapes, cycled over classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SignShape {
    /// Circular sign (speed limits, prohibitions).
    Circle,
    /// Triangular warning sign.
    Triangle,
    /// Diamond priority sign.
    Diamond,
    /// Octagonal stop-style sign.
    Octagon,
    /// Square information sign.
    Square,
}

/// The deterministic visual recipe for one class.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ClassRecipe {
    /// Outline shape.
    pub(crate) shape: SignShape,
    /// Rim colour (RGB in `[0, 1]`).
    pub(crate) rim_rgb: [f32; 3],
    /// Number of inner glyph bars (1–4).
    pub(crate) bars: usize,
    /// Whether the inner bars are vertical (else horizontal).
    pub(crate) vertical: bool,
}

impl ClassRecipe {
    /// The recipe for a class id.
    ///
    /// # Panics
    ///
    /// Panics if `class >= 43`.
    #[must_use]
    pub(crate) fn for_class(class: usize) -> Self {
        assert!(class < DatasetKind::GtsrbLike.classes(), "class {class} out of range");
        let shape = match class % 5 {
            0 => SignShape::Circle,
            1 => SignShape::Triangle,
            2 => SignShape::Diamond,
            3 => SignShape::Octagon,
            _ => SignShape::Square,
        };
        // Distinct, saturated rim colours spread over hue by class.
        let hue = (class as f32 * 360.0 / 43.0).to_radians();
        let rim_rgb = [
            0.55 + 0.45 * hue.cos().max(0.0),
            0.55 + 0.45 * (hue - 2.094).cos().max(0.0),
            0.55 + 0.45 * (hue + 2.094).cos().max(0.0),
        ];
        Self { shape, rim_rgb, bars: 1 + (class / 5) % 4, vertical: (class / 20).is_multiple_of(2) }
    }
}

/// Per-sample rendering variation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SignStyle {
    /// Illumination gain applied to the whole image.
    pub(crate) illumination: f32,
    /// Background brightness per channel.
    pub(crate) background: [f32; 3],
    /// Sign centre offset, normalized.
    pub(crate) offset: (f32, f32),
    /// Sign radius, normalized.
    pub(crate) radius: f32,
    /// Gaussian pixel noise standard deviation.
    pub(crate) noise_std: f32,
    /// Whether a corner occlusion patch is drawn.
    pub(crate) occluded: bool,
}

impl SignStyle {
    /// Samples a random style.
    #[must_use]
    pub(crate) fn sample(rng: &mut OrcoRng) -> Self {
        Self {
            illumination: rng.uniform(0.55, 1.15),
            background: [rng.uniform(0.0, 0.5), rng.uniform(0.0, 0.5), rng.uniform(0.0, 0.5)],
            offset: (rng.uniform(0.42, 0.58), rng.uniform(0.42, 0.58)),
            radius: rng.uniform(0.3, 0.4),
            noise_std: rng.uniform(0.01, 0.06),
            occluded: rng.bernoulli(0.15),
        }
    }
}

fn shape_vertices(shape: SignShape, centre: (f32, f32), r: f32) -> Vec<(f32, f32)> {
    let (cy, cx) = centre;
    let poly = |sides: usize, phase: f32| -> Vec<(f32, f32)> {
        (0..sides)
            .map(|i| {
                let a = phase + i as f32 * std::f32::consts::TAU / sides as f32;
                (cy + r * a.sin(), cx + r * a.cos())
            })
            .collect()
    };
    match shape {
        SignShape::Circle => Vec::new(), // drawn as a disc
        SignShape::Triangle => poly(3, -std::f32::consts::FRAC_PI_2),
        SignShape::Diamond => poly(4, 0.0),
        SignShape::Octagon => poly(8, std::f32::consts::PI / 8.0),
        SignShape::Square => poly(4, std::f32::consts::FRAC_PI_4),
    }
}

/// Renders one sign as a flattened 3072-element row (`(C, H, W)` order).
///
/// # Panics
///
/// Panics if `class >= 43`.
#[must_use]
pub(crate) fn render_sign(class: usize, style: &SignStyle, rng: &mut OrcoRng) -> Vec<f32> {
    let recipe = ClassRecipe::for_class(class);
    let kind = DatasetKind::GtsrbLike;
    let (h, w) = (kind.height(), kind.width());

    let mut channels: Vec<Canvas> =
        (0..3).map(|c| Canvas::new(h, w, style.background[c])).collect();

    // Sign face: bright plate in every channel, rim in the recipe colour.
    for (c, canvas) in channels.iter_mut().enumerate() {
        let face = 0.85f32;
        match recipe.shape {
            SignShape::Circle => {
                canvas.disc(style.offset, style.radius, face);
                canvas.circle(style.offset, style.radius, 2.5, recipe.rim_rgb[c]);
            }
            shape => {
                let verts = shape_vertices(shape, style.offset, style.radius);
                canvas.polygon(&verts, face);
                for i in 0..verts.len() {
                    let a = verts[i];
                    let b = verts[(i + 1) % verts.len()];
                    canvas.line(a, b, 2.0, recipe.rim_rgb[c]);
                }
            }
        }
    }

    // Inner glyph: dark bars on the plate (subtracted by drawing low).
    let bar_zone = style.radius * 0.8;
    for b in 0..recipe.bars {
        let frac = (b as f32 + 1.0) / (recipe.bars as f32 + 1.0);
        let t = -bar_zone + 2.0 * bar_zone * frac;
        for canvas in &mut channels {
            let (from, to) = if recipe.vertical {
                (
                    (style.offset.0 - bar_zone * 0.7, style.offset.1 + t),
                    (style.offset.0 + bar_zone * 0.7, style.offset.1 + t),
                )
            } else {
                (
                    (style.offset.0 + t, style.offset.1 - bar_zone * 0.7),
                    (style.offset.0 + t, style.offset.1 + bar_zone * 0.7),
                )
            };
            // Dark bars: blend negative intensity by drawing with set().
            let (y0, x0) = (from.0 * (h - 1) as f32, from.1 * (w - 1) as f32);
            let (y1, x1) = (to.0 * (h - 1) as f32, to.1 * (w - 1) as f32);
            let steps = 40;
            for s in 0..=steps {
                let t = s as f32 / steps as f32;
                let y = y0 + t * (y1 - y0);
                let x = x0 + t * (x1 - x0);
                canvas.set(y.round() as isize, x.round() as isize, 0.08);
            }
        }
    }

    // Occlusion: a gray patch over one corner of the sign.
    if style.occluded {
        let (oy, ox) = (style.offset.0 - style.radius * 0.5, style.offset.1 - style.radius * 0.5);
        for canvas in &mut channels {
            canvas.disc((oy, ox), style.radius * 0.35, 0.45);
        }
    }

    // Illumination and noise.
    let mut out = Vec::with_capacity(kind.sample_len());
    for canvas in &mut channels {
        canvas.scale_intensity(style.illumination);
        out.extend_from_slice(canvas.pixels());
    }
    if style.noise_std > 0.0 {
        rng.add_normal(&mut out, 0.0, style.noise_std);
        out.iter_mut().for_each(|p| *p = p.clamp(0.0, 1.0));
    }
    out
}

/// Generates a label-balanced traffic-sign dataset of `n` samples.
///
/// # Panics
///
/// Panics if `n == 0`.
#[must_use]
pub fn generate(n: usize, seed: u64) -> Dataset {
    assert!(n > 0, "gtsrb_like::generate: n must be non-zero");
    let kind = DatasetKind::GtsrbLike;
    let mut rng = OrcoRng::from_label("gtsrb-like", seed);
    let mut x = Matrix::zeros(n, kind.sample_len());
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let class = i % kind.classes();
        let style = SignStyle::sample(&mut rng);
        let pixels = render_sign(class, &style, &mut rng);
        x.row_mut(i).copy_from_slice(&pixels);
        labels.push(class);
    }
    Dataset::new(kind, x, labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A clean, centred, well-lit style.
    fn clean() -> SignStyle {
        SignStyle {
            illumination: 1.0,
            background: [0.1, 0.1, 0.15],
            offset: (0.5, 0.5),
            radius: 0.36,
            noise_std: 0.0,
            occluded: false,
        }
    }

    #[test]
    fn deterministic_and_in_range() {
        let a = generate(86, 5);
        let b = generate(86, 5);
        assert_eq!(a.x(), b.x());
        assert!(a.x().min() >= 0.0 && a.x().max() <= 1.0);
        assert_eq!(a.labels().iter().filter(|&&l| l == 0).count(), 2);
    }

    #[test]
    fn recipes_cover_all_shapes() {
        let shapes: Vec<SignShape> = (0..5).map(|c| ClassRecipe::for_class(c).shape).collect();
        assert!(shapes.contains(&SignShape::Circle));
        assert!(shapes.contains(&SignShape::Triangle));
        assert!(shapes.contains(&SignShape::Octagon));
    }

    #[test]
    fn different_classes_look_different() {
        let mut rng = OrcoRng::from_label("diff", 0);
        let style = clean();
        let a = render_sign(0, &style, &mut rng);
        let b = render_sign(21, &style, &mut rng);
        let mse = orco_tensor::stats::mse(&a, &b);
        assert!(mse > 1e-3, "classes 0 and 21 nearly identical: {mse}");
    }

    #[test]
    fn illumination_darkens_image() {
        let mut rng = OrcoRng::from_label("illum", 0);
        let bright = SignStyle { illumination: 1.0, ..clean() };
        let dark = SignStyle { illumination: 0.5, ..clean() };
        let a: f32 = render_sign(3, &bright, &mut rng).iter().sum();
        let b: f32 = render_sign(3, &dark, &mut rng).iter().sum();
        assert!(b < a * 0.7, "dark {b} vs bright {a}");
    }

    #[test]
    fn sign_has_bright_plate_against_background() {
        let mut rng = OrcoRng::from_label("plate", 0);
        let pixels = render_sign(0, &clean(), &mut rng);
        // A face pixel of channel 0 (inside the circle, off the glyph bar)
        // vs a corner (background).
        let face = pixels[16 * 32 + 22];
        let corner = pixels[0];
        assert!(face > corner + 0.3, "face {face} corner {corner}");
    }

    #[test]
    fn occlusion_changes_image() {
        let mut rng = OrcoRng::from_label("occ", 0);
        let plain = render_sign(7, &clean(), &mut rng);
        let occluded_style = SignStyle { occluded: true, ..clean() };
        let occ = render_sign(7, &occluded_style, &mut rng);
        assert!(orco_tensor::stats::mse(&plain, &occ) > 1e-4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_class_43() {
        let _ = ClassRecipe::for_class(43);
    }
}
