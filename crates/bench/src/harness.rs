//! Shared experiment-harness utilities: scales, table/series printing, and
//! ASCII image rendering.

use orco_datasets::DatasetKind;

/// Experiment scale, selected by the `ORCO_SCALE` environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny sizes for CI smoke runs (`ORCO_SCALE=quick`).
    Quick,
    /// The default: minutes, not hours, with the paper's orderings intact.
    Default,
    /// Closest to the paper's dataset sizes (`ORCO_SCALE=full`).
    Full,
}

impl Scale {
    /// Reads the scale from the environment (default: [`Scale::Default`]).
    #[must_use]
    pub fn from_env() -> Self {
        match std::env::var("ORCO_SCALE").unwrap_or_default().as_str() {
            "quick" => Scale::Quick,
            "full" => Scale::Full,
            _ => Scale::Default,
        }
    }

    /// Training-set size for a dataset kind.
    #[must_use]
    pub fn train_n(self, kind: DatasetKind) -> usize {
        match (self, kind) {
            (Scale::Quick, DatasetKind::MnistLike) => 80,
            (Scale::Quick, DatasetKind::GtsrbLike) => 86,
            (Scale::Default, DatasetKind::MnistLike) => 400,
            (Scale::Default, DatasetKind::GtsrbLike) => 172,
            (Scale::Full, DatasetKind::MnistLike) => 1000,
            (Scale::Full, DatasetKind::GtsrbLike) => 430,
        }
    }

    /// Held-out test-set size for a dataset kind.
    #[must_use]
    pub fn test_n(self, kind: DatasetKind) -> usize {
        (self.train_n(kind) / 4).max(20)
    }

    /// Autoencoder training epochs.
    #[must_use]
    pub fn epochs(self) -> usize {
        match self {
            Scale::Quick => 3,
            Scale::Default => 10,
            Scale::Full => 10,
        }
    }

    /// Classifier training epochs (the paper's Figure 5 x-axis goes to 10).
    #[must_use]
    pub fn classifier_epochs(self) -> usize {
        match self {
            Scale::Quick => 4,
            _ => 10,
        }
    }
}

/// Prints a standard experiment banner.
pub fn banner(figure: &str, title: &str) {
    println!("==================================================================");
    println!("{figure}: {title}");
    println!("==================================================================");
}

/// A named data series: `(x, y)` points.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub name: String,
    /// Data points.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates a series.
    #[must_use]
    pub fn new(name: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Self { name: name.into(), points }
    }
}

/// Prints a set of series as an aligned table: one row per x value, one
/// column per series (missing points print as `-`).
pub fn print_series_table(x_label: &str, y_label: &str, series: &[Series]) {
    println!("  [{y_label}]");
    print!("  {x_label:>12}");
    for s in series {
        print!("  {:>18}", s.name);
    }
    println!();
    // Union of x values in order of first appearance.
    let mut xs: Vec<f64> = Vec::new();
    for s in series {
        for &(x, _) in &s.points {
            if !xs.iter().any(|&e| (e - x).abs() < 1e-12) {
                xs.push(x);
            }
        }
    }
    for &x in &xs {
        print!("  {x:>12.4}");
        for s in series {
            match s.points.iter().find(|(px, _)| (px - x).abs() < 1e-12) {
                Some((_, y)) => print!("  {y:>18.6}"),
                None => print!("  {:>18}", "-"),
            }
        }
        println!();
    }
}

/// Renders a grayscale image as ASCII art (darker pixels → denser glyphs).
#[must_use]
pub fn ascii_image(pixels: &[f32], h: usize, w: usize) -> String {
    const RAMP: &[u8] = b" .:-=+*#%@";
    assert_eq!(pixels.len(), h * w, "ascii_image: size mismatch");
    let mut out = String::with_capacity(h * (w + 1));
    for y in 0..h {
        for x in 0..w {
            let v = pixels[y * w + x].clamp(0.0, 1.0);
            let idx = (v * (RAMP.len() - 1) as f32).round() as usize;
            out.push(RAMP[idx] as char);
        }
        out.push('\n');
    }
    out
}

/// Renders images side by side, each under its label (for Fig. 2 previews).
#[must_use]
pub fn ascii_side_by_side(labels: &[&str], images: &[&[f32]], h: usize, w: usize) -> String {
    assert_eq!(labels.len(), images.len(), "label/image count mismatch");
    let rendered: Vec<Vec<String>> = images
        .iter()
        .map(|img| ascii_image(img, h, w).lines().map(str::to_string).collect())
        .collect();
    let mut out = String::new();
    for label in labels {
        out.push_str(&format!("{label:^w$}", w = w + 2));
    }
    out.push('\n');
    for row in 0..h {
        for img in &rendered {
            out.push_str(&img[row]);
            out.push_str("  ");
        }
        out.push('\n');
    }
    out
}

/// Extracts the luminance (mean over channels) of a flattened `(C, H, W)`
/// sample for ASCII previewing colour images.
#[must_use]
pub fn luminance(sample: &[f32], c: usize, h: usize, w: usize) -> Vec<f32> {
    assert_eq!(sample.len(), c * h * w, "luminance: size mismatch");
    let mut out = vec![0.0f32; h * w];
    for ch in 0..c {
        for (o, v) in out.iter_mut().zip(&sample[ch * h * w..(ch + 1) * h * w]) {
            *o += v / c as f32;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_sizes_are_ordered() {
        for kind in [DatasetKind::MnistLike, DatasetKind::GtsrbLike] {
            assert!(Scale::Quick.train_n(kind) < Scale::Default.train_n(kind));
            assert!(Scale::Default.train_n(kind) < Scale::Full.train_n(kind));
            assert!(Scale::Quick.test_n(kind) >= 20);
        }
    }

    #[test]
    fn ascii_image_dimensions() {
        let img = vec![0.0, 0.5, 1.0, 0.25];
        let art = ascii_image(&img, 2, 2);
        assert_eq!(art.lines().count(), 2);
        assert!(art.contains('@')); // the 1.0 pixel
        assert!(art.starts_with(' ')); // the 0.0 pixel
    }

    #[test]
    fn luminance_averages_channels() {
        // 2 channels of a 1x2 image.
        let sample = vec![0.0, 1.0, 1.0, 0.0];
        let lum = luminance(&sample, 2, 1, 2);
        assert_eq!(lum, vec![0.5, 0.5]);
    }

    #[test]
    fn series_table_prints_all_series() {
        // Smoke: must not panic on ragged series.
        let a = Series::new("a", vec![(1.0, 2.0), (2.0, 3.0)]);
        let b = Series::new("b", vec![(2.0, 4.0)]);
        print_series_table("epoch", "loss", &[a, b]);
    }
}
