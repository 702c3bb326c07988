//! A tiny software rasterizer for synthesizing dataset images.
//!
//! Single-channel `f32` canvases with value range `[0, 1]`; drawing is
//! additive-clamped. The digit and traffic-sign generators compose their
//! glyphs from these primitives.

/// A single-channel drawing surface.
#[derive(Debug, Clone)]
pub(crate) struct Canvas {
    h: usize,
    w: usize,
    pixels: Vec<f32>,
}

impl Canvas {
    /// Creates a canvas filled with `background`.
    #[must_use]
    pub(crate) fn new(h: usize, w: usize, background: f32) -> Self {
        Self { h, w, pixels: vec![background; h * w] }
    }

    /// The pixel buffer, row-major.
    #[must_use]
    pub(crate) fn pixels(&self) -> &[f32] {
        &self.pixels
    }

    /// Consumes the canvas, returning its buffer.
    #[must_use]
    pub(crate) fn into_pixels(self) -> Vec<f32> {
        self.pixels
    }

    /// Reads pixel `(y, x)` (0 outside the canvas).
    #[must_use]
    pub(crate) fn get(&self, y: isize, x: isize) -> f32 {
        if y < 0 || x < 0 || y >= self.h as isize || x >= self.w as isize {
            0.0
        } else {
            self.pixels[y as usize * self.w + x as usize]
        }
    }

    /// Writes pixel `(y, x)`, clamped to `[0, 1]`; out-of-bounds is a no-op.
    pub(crate) fn set(&mut self, y: isize, x: isize, v: f32) {
        if y >= 0 && x >= 0 && y < self.h as isize && x < self.w as isize {
            self.pixels[y as usize * self.w + x as usize] = v.clamp(0.0, 1.0);
        }
    }

    /// Additively blends `v` into pixel `(y, x)`, clamped to `[0, 1]`.
    pub(crate) fn blend(&mut self, y: isize, x: isize, v: f32) {
        if y >= 0 && x >= 0 && y < self.h as isize && x < self.w as isize {
            let p = &mut self.pixels[y as usize * self.w + x as usize];
            *p = (*p + v).clamp(0.0, 1.0);
        }
    }

    /// Draws an anti-aliased thick line segment between two points given in
    /// **normalized** `[0, 1]` coordinates `(y, x)`, with `thickness` in
    /// pixels and `intensity` in `[0, 1]`.
    pub(crate) fn line(
        &mut self,
        from: (f32, f32),
        to: (f32, f32),
        thickness: f32,
        intensity: f32,
    ) {
        let (y0, x0) = (from.0 * (self.h - 1) as f32, from.1 * (self.w - 1) as f32);
        let (y1, x1) = (to.0 * (self.h - 1) as f32, to.1 * (self.w - 1) as f32);
        let half = thickness / 2.0;
        let pad = half.ceil() as isize + 1;
        let ymin = (y0.min(y1).floor() as isize - pad).max(0);
        let ymax = (y0.max(y1).ceil() as isize + pad).min(self.h as isize - 1);
        let xmin = (x0.min(x1).floor() as isize - pad).max(0);
        let xmax = (x0.max(x1).ceil() as isize + pad).min(self.w as isize - 1);
        let (dy, dx) = (y1 - y0, x1 - x0);
        let len_sq = dy * dy + dx * dx;
        for y in ymin..=ymax {
            for x in xmin..=xmax {
                let (py, px) = (y as f32, x as f32);
                // Distance from pixel to the segment.
                let t = if len_sq == 0.0 {
                    0.0
                } else {
                    (((py - y0) * dy + (px - x0) * dx) / len_sq).clamp(0.0, 1.0)
                };
                let (cy, cx) = (y0 + t * dy, x0 + t * dx);
                let dist = ((py - cy).powi(2) + (px - cx).powi(2)).sqrt();
                // Soft edge: full intensity inside, linear falloff over 1px.
                let cover = (half + 0.5 - dist).clamp(0.0, 1.0);
                if cover > 0.0 {
                    self.blend(y, x, intensity * cover);
                }
            }
        }
    }

    /// Draws a circle outline centred at normalized `(cy, cx)` with
    /// normalized `radius`, ring `thickness` in pixels.
    pub(crate) fn circle(
        &mut self,
        centre: (f32, f32),
        radius: f32,
        thickness: f32,
        intensity: f32,
    ) {
        let (cy, cx) = (centre.0 * (self.h - 1) as f32, centre.1 * (self.w - 1) as f32);
        let r = radius * (self.h.min(self.w) - 1) as f32;
        let half = thickness / 2.0;
        for y in 0..self.h as isize {
            for x in 0..self.w as isize {
                let dist = ((y as f32 - cy).powi(2) + (x as f32 - cx).powi(2)).sqrt();
                let cover = (half + 0.5 - (dist - r).abs()).clamp(0.0, 1.0);
                if cover > 0.0 {
                    self.blend(y, x, intensity * cover);
                }
            }
        }
    }

    /// Fills a circle (disc) at normalized `(cy, cx)` with normalized
    /// `radius`.
    pub(crate) fn disc(&mut self, centre: (f32, f32), radius: f32, intensity: f32) {
        let (cy, cx) = (centre.0 * (self.h - 1) as f32, centre.1 * (self.w - 1) as f32);
        let r = radius * (self.h.min(self.w) - 1) as f32;
        for y in 0..self.h as isize {
            for x in 0..self.w as isize {
                let dist = ((y as f32 - cy).powi(2) + (x as f32 - cx).powi(2)).sqrt();
                let cover = (r + 0.5 - dist).clamp(0.0, 1.0);
                if cover > 0.0 {
                    self.blend(y, x, intensity * cover);
                }
            }
        }
    }

    /// Fills a convex polygon given by normalized `(y, x)` vertices.
    pub(crate) fn polygon(&mut self, vertices: &[(f32, f32)], intensity: f32) {
        if vertices.len() < 3 {
            return;
        }
        let pts: Vec<(f32, f32)> = vertices
            .iter()
            .map(|(vy, vx)| (vy * (self.h - 1) as f32, vx * (self.w - 1) as f32))
            .collect();
        for y in 0..self.h as isize {
            for x in 0..self.w as isize {
                if point_in_convex_polygon(y as f32, x as f32, &pts) {
                    self.blend(y, x, intensity);
                }
            }
        }
    }

    /// 3×3 box blur, applied `passes` times.
    pub(crate) fn blur(&mut self, passes: usize) {
        for _ in 0..passes {
            let mut next = vec![0.0f32; self.pixels.len()];
            for y in 0..self.h as isize {
                for x in 0..self.w as isize {
                    let mut acc = 0.0;
                    for dy in -1..=1 {
                        for dx in -1..=1 {
                            acc += self.get(y + dy, x + dx);
                        }
                    }
                    next[y as usize * self.w + x as usize] = acc / 9.0;
                }
            }
            self.pixels = next;
        }
    }

    /// Multiplies every pixel by `gain` (illumination), clamped to `[0, 1]`.
    pub(crate) fn scale_intensity(&mut self, gain: f32) {
        for p in &mut self.pixels {
            *p = (*p * gain).clamp(0.0, 1.0);
        }
    }
}

/// Whether point `(y, x)` lies inside the convex polygon `pts` (vertices in
/// consistent winding order, pixel coordinates).
fn point_in_convex_polygon(y: f32, x: f32, pts: &[(f32, f32)]) -> bool {
    let n = pts.len();
    let mut sign = 0i8;
    for i in 0..n {
        let (ay, ax) = pts[i];
        let (by, bx) = pts[(i + 1) % n];
        let cross = (bx - ax) * (y - ay) - (by - ay) * (x - ax);
        if cross.abs() < 1e-9 {
            continue;
        }
        let s = if cross > 0.0 { 1 } else { -1 };
        if sign == 0 {
            sign = s;
        } else if sign != s {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_canvas_is_uniform() {
        let c = Canvas::new(4, 6, 0.25);
        assert_eq!(c.pixels().len(), 24);
        assert!(c.pixels().iter().all(|&p| p == 0.25));
    }

    #[test]
    fn out_of_bounds_reads_zero_writes_noop() {
        let mut c = Canvas::new(2, 2, 0.0);
        assert_eq!(c.get(-1, 0), 0.0);
        assert_eq!(c.get(0, 5), 0.0);
        c.set(-1, -1, 1.0);
        c.blend(9, 9, 1.0);
        assert!(c.pixels().iter().all(|&p| p == 0.0));
    }

    #[test]
    fn line_marks_pixels_along_path() {
        let mut c = Canvas::new(16, 16, 0.0);
        c.line((0.5, 0.0), (0.5, 1.0), 2.0, 1.0);
        // Middle row should be bright, corners dark.
        assert!(c.get(8, 8) > 0.8);
        assert!(c.get(0, 0) < 0.1);
        assert!(c.get(15, 15) < 0.1);
    }

    #[test]
    fn disc_fills_centre() {
        let mut c = Canvas::new(16, 16, 0.0);
        c.disc((0.5, 0.5), 0.3, 1.0);
        assert!(c.get(8, 8) > 0.9);
        assert!(c.get(0, 0) < 0.05);
    }

    #[test]
    fn circle_ring_is_hollow() {
        let mut c = Canvas::new(32, 32, 0.0);
        c.circle((0.5, 0.5), 0.4, 2.0, 1.0);
        assert!(c.get(16, 16) < 0.1, "centre should stay empty");
        // A point on the ring (radius 0.4*31 ≈ 12.4 px from centre).
        assert!(c.get(16, 16 + 12) > 0.3);
    }

    #[test]
    fn polygon_fills_triangle() {
        let mut c = Canvas::new(16, 16, 0.0);
        c.polygon(&[(0.1, 0.5), (0.9, 0.1), (0.9, 0.9)], 1.0);
        assert!(c.get(10, 8) > 0.9); // inside
        assert!(c.get(1, 1) < 0.05); // outside
    }

    #[test]
    fn blur_conserves_roughly_and_smooths() {
        let mut c = Canvas::new(8, 8, 0.0);
        c.set(4, 4, 1.0);
        let before_max = 1.0;
        c.blur(1);
        let after_max = c.pixels().iter().fold(0.0, |m, &v| if v > m { v } else { m });
        assert!(after_max < before_max);
        assert!(c.get(4, 5) > 0.0, "energy spreads to neighbours");
    }

    #[test]
    fn intensity_scaling_clamps() {
        let mut c = Canvas::new(2, 2, 0.6);
        c.scale_intensity(2.0);
        assert!(c.pixels().iter().all(|&p| p == 1.0));
    }
}
